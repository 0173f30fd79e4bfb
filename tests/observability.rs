//! Cross-layer observability, verified against hand-counted workloads.
//!
//! The counters are only worth having if they mean what they say. These
//! tests pin the exact counter deltas of a micro-workload small enough to
//! count on paper, check monotonicity through a real workload, and wrap
//! the trace ring through the live stack.

use cffs::core::{Cffs, CffsConfig, MkfsParams};
use cffs_disksim::models;
use cffs_disksim::Disk;
use cffs_obs::json::ToJson;
use cffs_obs::{StatsSnapshot, DEFAULT_TRACE_CAPACITY};
use cffs_workloads::smallfile::{self, SmallFileParams};

fn fresh(cfg: CffsConfig) -> Cffs {
    cffs::core::mkfs::mkfs(Disk::new(models::tiny_test_disk()), MkfsParams::tiny(), cfg)
        .expect("mkfs")
}

/// Write one 1 KB file, go cold, and read it back, returning the counter
/// delta of just the read.
fn cold_read_delta(cfg: CffsConfig) -> StatsSnapshot {
    let fs = fresh(cfg);
    let root = fs.root();
    let d = fs.mkdir(root, "d").unwrap();
    let f = fs.create(d, "small").unwrap();
    fs.write(f, 0, &vec![7u8; 1024]).unwrap();
    fs.sync().unwrap();
    fs.drop_caches().unwrap();
    let obs = Cffs::obs(&fs);
    let before = obs.snapshot("cold-read", fs.now().as_nanos());
    let mut buf = vec![0u8; 1024];
    assert_eq!(fs.read(f, 0, &mut buf).unwrap(), 1024);
    assert!(buf.iter().all(|&b| b == 7));
    obs.snapshot("cold-read", fs.now().as_nanos()).delta(&before)
}

/// The paper's headline, hand-counted: under full C-FFS a cold small-file
/// read costs exactly ONE disk request — the group fetch brings the
/// directory block (with the embedded inode) and the file data together.
#[test]
fn cold_small_file_read_is_one_disk_request() {
    let d = cold_read_delta(CffsConfig::cffs());
    assert_eq!(d.get_named("disk_requests"), 1);
    assert_eq!(d.get_named("disk_reads"), 1);
    assert_eq!(d.get_named("fs_group_fetches"), 1);
    assert_eq!(d.get_named("cache_group_reads"), 1);
    assert_eq!(d.get_named("fs_embedded_inode_ops"), 1);
    assert_eq!(d.get_named("cache_misses"), 0, "the group fetch preempts every miss");
}

/// The same read on the conventional layout: the external inode block and
/// the data block are separate requests.
#[test]
fn cold_small_file_read_conventional_needs_two_requests() {
    let d = cold_read_delta(CffsConfig::conventional());
    assert_eq!(d.get_named("disk_requests"), 2);
    assert_eq!(d.get_named("fs_group_fetches"), 0);
    assert_eq!(d.get_named("fs_embedded_inode_ops"), 0);
    assert_eq!(d.get_named("cache_misses"), 2);
}

/// Counters never decrease across a real workload, and a later snapshot
/// dominates an earlier one counter-by-counter.
#[test]
fn snapshots_are_monotonic_through_a_workload() {
    let fs = fresh(CffsConfig::cffs());
    let root = fs.root();
    let obs = Cffs::obs(&fs);
    let mut prev = obs.snapshot("t0", fs.now().as_nanos());
    for round in 0..4 {
        let d = fs.mkdir(root, &format!("r{round}")).unwrap();
        for i in 0..10 {
            let f = fs.create(d, &format!("f{i}")).unwrap();
            fs.write(f, 0, &vec![round as u8; 900]).unwrap();
        }
        fs.sync().unwrap();
        let snap = obs.snapshot(&format!("t{}", round + 1), fs.now().as_nanos());
        assert!(snap.sim_ns >= prev.sim_ns);
        for (name, v) in &snap.counters {
            let was = prev.get_named(name);
            assert!(*v >= was, "counter {name} went backwards: {was} -> {v}");
        }
        // The delta is exactly the difference (spot-check one counter).
        let delta = snap.delta(&prev);
        assert_eq!(
            delta.get_named("disk_requests"),
            snap.get_named("disk_requests") - prev.get_named("disk_requests")
        );
        prev = snap;
    }
}

/// Drive enough real I/O through the stack to wrap the 4096-event trace
/// ring; the newest events must survive, in time order.
#[test]
fn trace_ring_wraps_through_live_stack_keeping_newest() {
    let fs = fresh(CffsConfig::cffs()); // sync metadata: many small writes
    let root = fs.root();
    let obs = Cffs::obs(&fs);
    let mut rounds = 0u32;
    while obs.events_recorded() <= DEFAULT_TRACE_CAPACITY as u64 {
        let name = format!("churn{rounds}");
        let f = fs.create(root, &name).unwrap();
        fs.write(f, 0, &vec![1u8; 600]).unwrap();
        fs.sync().unwrap();
        fs.unlink(root, &name).unwrap();
        fs.drop_caches().unwrap();
        rounds += 1;
        assert!(rounds < 10_000, "workload never filled the trace ring");
    }
    assert!(obs.events_recorded() > DEFAULT_TRACE_CAPACITY as u64);
    // Retention is capped at capacity — the oldest events are gone...
    let all = obs.recent_events(usize::MAX);
    assert_eq!(all.len(), DEFAULT_TRACE_CAPACITY);
    // ...and what's retained is the newest tail, oldest first. Events are
    // recorded at completion (`op.*` span events carry their *open* time
    // in t_ns), so emission order is monotonic in t_ns + dur_ns.
    assert!(
        all.windows(2).all(|w| w[0].t_ns + w[0].dur_ns <= w[1].t_ns + w[1].dur_ns),
        "events out of order"
    );
    let newest = all.last().unwrap().t_ns;
    assert!(obs.recent_events(1)[0].t_ns == newest, "newest event lost");
    assert!(newest <= fs.now().as_nanos());
}

/// Causal attribution, end to end: the single disk request of a cold
/// small-file read under full C-FFS carries the span id of the `read` op
/// that caused it — the trace ring links effect back to cause.
#[test]
fn cold_read_disk_request_links_back_to_its_read_span() {
    let fs = fresh(CffsConfig::cffs());
    let root = fs.root();
    let d = fs.mkdir(root, "d").unwrap();
    let f = fs.create(d, "small").unwrap();
    fs.write(f, 0, &vec![7u8; 1024]).unwrap();
    fs.sync().unwrap();
    fs.drop_caches().unwrap();
    let obs = Cffs::obs(&fs);
    let before = obs.events_recorded();
    let mut buf = vec![0u8; 1024];
    assert_eq!(fs.read(f, 0, &mut buf).unwrap(), 1024);
    let new = (obs.events_recorded() - before) as usize;
    let events = obs.recent_events(new);

    let span_events: Vec<_> = events.iter().filter(|e| e.tag == "op.read").collect();
    assert_eq!(span_events.len(), 1, "exactly one read span closed");
    let span = span_events[0].span;
    assert_ne!(span, 0, "the span event carries its own id");
    assert!(span_events[0].dur_ns > 0, "a cold read takes simulated time");

    let disk_events: Vec<_> =
        events.iter().filter(|e| e.tag.starts_with("disk.")).collect();
    assert_eq!(disk_events.len(), 1, "cold C-FFS read = one disk request");
    assert_eq!(disk_events[0].span, span, "disk request attributed to the read span");
    assert_eq!(disk_events[0].op, "read", "disk request stamped with the op kind");
    assert!(disk_events[0].dur_ns > 0, "mechanical request has service time");
    // Cause precedes effect-completion bookkeeping: the request was issued
    // inside the span's window.
    assert!(disk_events[0].t_ns >= span_events[0].t_ns);
    assert!(disk_events[0].t_ns <= span_events[0].t_ns + span_events[0].dur_ns);
}

/// Group-fetch utilization accounting closes: reading every small file of
/// a directory makes most speculatively fetched blocks useful, and each
/// fetched block ends up counted exactly once as used or wasted.
#[test]
fn group_fetch_utilization_accounts_every_fetched_block() {
    let fs = fresh(CffsConfig::cffs());
    let root = fs.root();
    let d = fs.mkdir(root, "d").unwrap();
    let n = 8usize;
    for i in 0..n {
        let f = fs.create(d, &format!("f{i}")).unwrap();
        fs.write(f, 0, &vec![i as u8; 1024]).unwrap();
    }
    fs.sync().unwrap();
    fs.drop_caches().unwrap();
    let obs = Cffs::obs(&fs);
    let before = obs.snapshot("gf", fs.now().as_nanos());
    let mut buf = vec![0u8; 1024];
    for i in 0..n {
        let f = fs.lookup(d, &format!("f{i}")).unwrap();
        assert_eq!(fs.read(f, 0, &mut buf).unwrap(), 1024);
        assert!(buf.iter().all(|&b| b == i as u8));
    }
    // Settle: dropping the caches resolves every still-untouched fetched
    // block as wasted, so the accounting identity must close exactly.
    fs.drop_caches().unwrap();
    let delta = obs.snapshot("gf", fs.now().as_nanos()).delta(&before);

    let used = delta.get_named("group_fetch_blocks_used");
    let wasted = delta.get_named("group_fetch_blocks_wasted");
    let fetched = delta.get_named("cache_group_read_blocks");
    assert!(fetched > 0, "the directory read exercised group fetching");
    assert!(used > 0, "reading the whole directory makes fetched blocks useful");
    assert_eq!(used + wasted, fetched, "every fetched block is used xor wasted");

    let h = delta.histogram("group_fetch_util_pct").expect("utilization histogram");
    assert!(h.count() > 0, "each retired fetch records a utilization sample");
    // Samples are percentages; the log2-bucket p100 reports its bucket's
    // upper bound, so check the exact mean instead.
    assert!(h.mean() <= 100, "utilization is a percentage");
}

/// Every phase row that reaches a `BENCH_*.json` carries per-op-kind
/// latency percentiles (`PhaseResult::to_json` is the single emission
/// path every `repro` experiment shares).
#[test]
fn phase_rows_carry_per_op_latency_percentiles() {
    let fs = cffs::build::on_disk(models::seagate_st31200(), CffsConfig::cffs());
    let params = SmallFileParams { nfiles: 60, ndirs: 3, ..SmallFileParams::default() };
    let rows = smallfile::run(&fs, params).unwrap();
    assert_eq!(rows.len(), 4);
    for (row, op) in rows.iter().zip(["create", "read", "write", "unlink"]) {
        let j = row.to_json();
        let lat = j.get("latency_ns").expect("phase row has latency_ns");
        let per_op = lat.get(op).unwrap_or_else(|| panic!("{} phase ran {op} ops", row.phase));
        for field in ["count", "mean_ns", "p50_ns", "p90_ns", "p99_ns"] {
            let v = per_op.get(field).and_then(|v| v.as_u64());
            assert!(v.is_some(), "latency_ns.{op}.{field} missing in {} row", row.phase);
        }
        assert!(per_op.get("count").unwrap().as_u64().unwrap() >= 60);
    }
}

/// Determinism regression (what makes `cffs-inspect timeline` byte-stable):
/// two runs of the same fixed-seed workload on fresh identical stacks
/// produce byte-identical trace timelines.
#[test]
fn identical_seeded_runs_produce_byte_identical_timelines() {
    let run = || {
        let fs = fresh(CffsConfig::cffs());
        let params = SmallFileParams { nfiles: 40, ndirs: 2, ..SmallFileParams::default() };
        smallfile::run(&fs, params).unwrap();
        let obs = Cffs::obs(&fs);
        obs.recent_events(usize::MAX)
            .iter()
            .map(|e| e.to_jsonl())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "fixed-seed timelines must be byte-identical");
}

/// The SLO table on a mounted stack: burn is charged bucket-
/// conservatively off the op histograms, and the feed, the `slo` rows
/// and a flight dump's head all read the same numbers. Samples go
/// straight into the lookup histogram; the mount records no lookups.
#[test]
fn slo_burn_is_charged_by_bucket_lower_bound() {
    use cffs_obs::json::Json;
    use cffs_obs::OpKind;

    let fs = fresh(CffsConfig::cffs());
    let obs = Cffs::obs(&fs);
    let lookups = obs.histos().op_ns(OpKind::Lookup);
    assert_eq!(lookups.snapshot().count(), 0, "the mount recorded a lookup");
    assert_eq!(obs.slo_burn_milli(), 0);

    // 1 % of lookups over the 50 ms target: exactly at budget.
    for _ in 0..99 {
        lookups.record(1_000_000);
    }
    lookups.record(100_000_000);
    assert_eq!(obs.slo_op_burn_milli(OpKind::Lookup), 1000);
    assert_eq!(obs.slo_burn_milli(), 1000);

    // 60 ms is over the target, but its bucket starts at 2^25 ns
    // (33.5 ms), under it: not charged.
    lookups.record(60_000_000);
    assert_eq!(obs.slo_op_burn_milli(OpKind::Lookup), 100_000 / 101);

    let slo = obs.slo_json();
    let Json::Obj(rows) = &slo else { panic!("slo_json is not an object: {slo}") };
    let targets = [
        (OpKind::Lookup, 50_000_000),
        (OpKind::Getattr, 20_000_000),
        (OpKind::Create, 100_000_000),
        (OpKind::Unlink, 100_000_000),
        (OpKind::Read, 100_000_000),
        (OpKind::Write, 100_000_000),
    ];
    let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, targets.map(|(op, _)| op.name()));
    for (op, target) in targets {
        let row = slo.get(op.name()).unwrap();
        let field = |k: &str| row.get(k).and_then(Json::as_u64).unwrap();
        let (count, violations) = match op {
            OpKind::Lookup => (101, 1),
            _ => (obs.histos().op_ns(op).snapshot().count(), 0),
        };
        assert_eq!(field("target_ns"), target, "{}", op.name());
        assert_eq!(field("count"), count, "{}", op.name());
        assert_eq!(field("violations"), violations, "{}", op.name());
        assert_eq!(field("burn_milli"), obs.slo_op_burn_milli(op), "{}", op.name());
    }

    // A flight recorder's head carries the same rows.
    let dir = std::env::temp_dir().join(format!("cffs-slo-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let guard = cffs_obs::flight::arm(&dir, &obs, &[], "slo-burn");
    guard.dump("slo");
    let text = std::fs::read_to_string(guard.path()).unwrap();
    let dump = cffs_obs::feed::parse_feed(&text).expect("valid flight dump");
    let (_, head) = dump.heads.last().expect("the dump's head");
    assert_eq!(head.get("slo").map(Json::to_string), Some(obs.slo_json().to_string()));
    drop(guard);
    std::fs::remove_dir_all(&dir).ok();
}
