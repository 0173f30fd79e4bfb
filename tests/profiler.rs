//! The simulated-time profiler end to end: fold accounting over a live
//! stack (including ring wrap), the `cffs-inspect flamegraph` CLI, the
//! per-phase `time_attribution` identities, and the signal-driven
//! regrouping autotrigger.
//!
//! The profiler's one invariant is conservation: every simulated
//! nanosecond lands in exactly one fold leaf, so a fold's total weight
//! always equals the elapsed simulated time — wrapped ring or not.

use cffs::core::{mkfs, Cffs, CffsConfig, MkfsParams};
use cffs::prelude::*;
use cffs_disksim::models;
use cffs_disksim::Disk;
use cffs_obs::json::{parse, Json, ToJson};
use cffs_obs::{prof, Ctr, Obs};
use cffs_workloads::aging::{age_adversarial, AdversarialParams};
use cffs_workloads::concurrent::{self, ConcurrentParams, Window};
use cffs_workloads::runner::measure;
use cffs_workloads::smallfile::{self, SmallFileParams};
use std::process::Command;

fn inspect(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_cffs-inspect"))
        .args(args)
        .output()
        .expect("run cffs-inspect");
    assert!(out.status.success(), "cffs-inspect {args:?} failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf8")
}

/// Sum of a collapsed fold's weights (`stack weight` per line).
fn fold_total(fold: &str) -> u64 {
    fold.lines()
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().expect("weight"))
        .sum()
}

/// A tiny trace ring wraps under a real workload, and the fold still
/// conserves time: `(evicted)` covers everything before the retained
/// window, truncated spans are clamped into it, and the total weight is
/// exactly the elapsed simulated time.
#[test]
fn fold_conserves_time_across_ring_wrap() {
    let mut disk = Disk::new(models::tiny_test_disk());
    disk.set_obs(Obs::with_trace_capacity(8));
    let fs = mkfs::mkfs(disk, MkfsParams::tiny(), CffsConfig::cffs()).expect("mkfs");
    let root = fs.root();
    let d = fs.mkdir(root, "d").unwrap();
    for i in 0..12 {
        let f = fs.create(d, &format!("f{i}")).unwrap();
        fs.write(f, 0, &vec![i as u8; 700]).unwrap();
    }
    fs.sync().unwrap();
    fs.drop_caches().unwrap();
    let mut buf = [0u8; 1];
    for e in fs.readdir(d).unwrap() {
        fs.read(e.ino, 0, &mut buf).unwrap();
    }
    let obs = Cffs::obs(&fs);
    let events = obs.recent_events(usize::MAX);
    assert!(obs.events_recorded() > events.len() as u64, "ring must wrap");
    let elapsed = fs.now().as_nanos();
    let fold = prof::fold_ring(&events, obs.events_recorded(), "run", elapsed).collapse();
    assert_eq!(fold_total(&fold), elapsed, "fold must conserve simulated time:\n{fold}");
    assert!(fold.contains("run;(evicted) "), "pre-window time must be explicit:\n{fold}");
}

/// The same conservation invariant with *threaded* producers: four
/// client threads record events into the same tiny ring (wrapping it
/// many times over, with interleaved per-thread virtual clocks), and the fold
/// of whatever survives must still account for exactly the run's elapsed
/// simulated time — the cross-thread clock high-water mark. A frontier
/// clip or per-thread stamp that escaped the retained window would break
/// the equality.
#[test]
fn fold_conserves_time_across_ring_wrap_with_threaded_producers() {
    let mut disk = Disk::new(models::tiny_test_disk());
    disk.set_obs(Obs::with_trace_capacity(8));
    let fs = mkfs::mkfs(disk, MkfsParams::tiny(), CffsConfig::cffs()).expect("mkfs");
    let p = ConcurrentParams {
        nthreads: 4,
        ndirs: 4,
        files_per_dir: 12,
        file_size: 700,
        window: Window::Warm { rounds: 2 },
        seed: 3,
    };
    concurrent::run(&fs, &p).expect("threaded run");
    let obs = Cffs::obs(&fs);
    let events = obs.recent_events(usize::MAX);
    assert!(obs.events_recorded() > events.len() as u64, "ring must wrap");
    let elapsed = obs.global_clock_ns();
    let fold = prof::fold_ring(&events, obs.events_recorded(), "run", elapsed).collapse();
    assert_eq!(
        fold_total(&fold),
        elapsed,
        "threaded fold must conserve simulated time:\n{fold}"
    );
    assert!(fold.contains("run;(evicted) "), "pre-window time must be explicit:\n{fold}");
}

/// The CLI fold is byte-stable run to run, and its total weight equals
/// the elapsed simulated time reported by `stats` on the same image.
#[test]
fn cli_fold_is_deterministic_and_totals_sim_ns() {
    let a = inspect(&["flamegraph", "--demo"]);
    let b = inspect(&["flamegraph", "--fold", "--demo"]);
    assert!(!a.is_empty());
    assert_eq!(a, b, "equal seeds must give byte-identical folds");
    for line in a.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("stack weight");
        assert!(!stack.is_empty());
        weight.parse::<u64>().expect("integer weight");
    }
    let stats = parse(&inspect(&["stats", "--demo"])).expect("stats json");
    let sim_ns = stats.get("sim_ns").and_then(Json::as_u64).expect("sim_ns");
    assert_eq!(fold_total(&a), sim_ns, "fold total must equal elapsed sim time");
}

/// `cffs-inspect` mounts a saved classic-FFS image (inodes in per-CG
/// tables) with the placement its superblock records, and its walk reads
/// every inode from a table.
#[test]
fn cli_stats_mounts_an_ffs_image() {
    let disk = Disk::new(models::tiny_test_disk());
    let fs = mkfs::mkfs(disk, MkfsParams::tiny(), CffsConfig::ffs()).expect("mkfs");
    path::mkdir_p(&fs, "/src").expect("mkdir");
    path::write_file(&fs, "/src/main.c", &[b'm'; 1800]).expect("write");
    let img = std::env::temp_dir().join(format!("cffs-inspect-ffs-{}.img", std::process::id()));
    fs.unmount().expect("unmount").save_image(&img).expect("save image");
    let out = inspect(&["stats", img.to_str().expect("utf-8 path")]);
    std::fs::remove_file(&img).expect("remove image");
    let counters = parse(&out).expect("stats json").get("counters").cloned().expect("counters");
    let ctr = |c: Ctr| counters.get(c.name()).and_then(Json::as_u64).expect("counter");
    assert!(ctr(Ctr::FsExternalInodeOps) > 0, "the walk read no inode:\n{out}");
    assert_eq!(ctr(Ctr::FsEmbeddedInodeOps), 0, "an FFS image has no embedded inode");
}

/// `--svg-ready` renders a self-contained SVG document.
#[test]
fn cli_svg_ready_renders_svg() {
    let svg = inspect(&["flamegraph", "--svg-ready", "--demo"]);
    assert!(svg.starts_with("<svg "), "not an SVG: {}", &svg[..svg.len().min(80)]);
    assert!(svg.trim_end().ends_with("</svg>"));
    assert!(svg.contains("disk_req/service"), "leaves must be labeled");
}

/// `timeline` flags spans whose open time precedes the retained ring
/// window (or whose close event was evicted) as `truncated`, and every
/// record carries the key.
#[test]
fn cli_timeline_flags_truncated_spans() {
    let out = inspect(&["timeline", "--last", "8", "--demo"]);
    let mut saw_truncated = false;
    for line in out.lines() {
        let j = parse(line).expect("timeline jsonl");
        match j.get("truncated") {
            Some(Json::Bool(t)) => saw_truncated |= t,
            other => panic!("missing truncated flag: {other:?} in {line}"),
        }
    }
    assert!(saw_truncated, "an 8-event window over the demo walk must truncate:\n{out}");
}

/// Every phase row's `time_attribution` partitions its total and the
/// percentages sum to 100 ± rounding, on a real small-file run.
#[test]
fn phase_attribution_partitions_and_sums_to_100() {
    let fs = cffs::build::on_disk(models::tiny_test_disk(), CffsConfig::cffs());
    let params =
        SmallFileParams { nfiles: 60, file_size: 1024, ndirs: 3, ..SmallFileParams::small() };
    let rows = smallfile::run(&fs, params).expect("run");
    assert!(!rows.is_empty());
    for row in &rows {
        let j = row.to_json();
        let attr = j.get("time_attribution").expect("time_attribution");
        let get = |k: &str| attr.get(k).and_then(Json::as_u64).expect("u64 field");
        let total = get("total_ns");
        assert!(total > 0, "{}: measured phase must have a window", row.phase);
        assert_eq!(
            get("op_ns") + get("queue_ns") + get("service_ns") + get("idle_ns"),
            total,
            "{}: buckets must partition total_ns",
            row.phase
        );
        let pct: f64 = ["op_pct", "queue_pct", "service_pct", "idle_pct"]
            .iter()
            .map(|k| attr.get(k).and_then(Json::as_f64).expect("pct"))
            .sum();
        assert!((pct - 100.0).abs() <= 0.1, "{}: pcts sum to {pct}", row.phase);
    }
}

/// The full policy loop: adversarial aging decays `group_fetch_util_ewma`
/// under live traffic, the autotrigger fires budgeted IdleOnly passes on
/// the floor crossing (no explicit regroup call anywhere), and the end
/// state reads back at >= 0.90 of the fresh layout's group-fetch
/// utilization.
#[test]
fn autotrigger_fires_on_util_decay_and_recovers() {
    let adv = AdversarialParams { rounds: 2, storm_files: 60, ndirs: 4, seed: 42 };
    let populate = |fs: &Cffs| {
        let root = fs.root();
        for d in 0..adv.ndirs {
            let dir = fs.mkdir(root, &format!("adv{d:03}")).unwrap();
            for f in 0..10 {
                let ino = fs.create(dir, &format!("base{f:03}")).unwrap();
                fs.write(ino, 0, &vec![(d * 16 + f) as u8; 1024]).unwrap();
            }
        }
        fs.sync().unwrap();
    };
    // Read every base file one directory at a time, cold, and return the
    // measured window's mean group-fetch utilization.
    fn cold_util(fs: &Cffs, phase: &str) -> u64 {
        fs.drop_caches().unwrap();
        let dirs: Vec<_> = {
            let root = fs.root();
            let mut d: Vec<_> = fs
                .readdir(root)
                .unwrap()
                .into_iter()
                .filter(|e| e.kind == FileKind::Dir)
                .map(|e| (e.name.clone(), e.ino))
                .collect();
            d.sort();
            d
        };
        let row = measure(fs, phase, 0, 0, |fs| {
            for (_, dino) in &dirs {
                for e in fs.readdir(*dino)? {
                    if e.kind == FileKind::File {
                        // Read the whole file: unconsumed tail blocks of a
                        // group fetch are charged as waste, so a 1-byte
                        // read would misreport multi-block files.
                        let sz = fs.getattr(e.ino)?.size as usize;
                        let mut b = vec![0u8; sz];
                        fs.read(e.ino, 0, &mut b)?;
                    }
                }
                fs.drop_caches()?;
            }
            Ok(())
        })
        .expect("measure");
        row.counters
            .as_ref()
            .and_then(|c| c.histogram("group_fetch_util_pct"))
            .map(|h| h.mean())
            .unwrap_or(0)
    }

    let fresh = cffs::build::on_disk(
        models::tiny_test_disk(),
        CffsConfig::cffs().with_mode(MetadataMode::Delayed),
    );
    populate(&fresh);
    let fresh_util = cold_util(&fresh, "fresh");
    assert!(fresh_util >= 90, "fresh layout should group near-perfectly, got {fresh_util}%");

    let mut fs = cffs::build::on_disk(
        models::tiny_test_disk(),
        CffsConfig::cffs().with_mode(MetadataMode::Delayed),
    );
    populate(&fs);
    age_adversarial(&mut fs, adv, |_, _| Ok(())).expect("aging");
    fs.sync().unwrap();
    let aged_util = cold_util(&fs, "aged");
    assert!(aged_util < fresh_util, "aging must erode utilization");

    // Live traffic with idle moments: only the signal may start a pass.
    // The trigger runs after each directory's reads, while that
    // directory's blocks are still resident (IdleOnly relocates only
    // resident blocks), and the cache drop afterwards resolves the group
    // fetches so the EWMA keeps sampling.
    let mut fires = 0u64;
    for _ in 0..6 {
        let dirs: Vec<_> = {
            let root = fs.root();
            let mut d: Vec<_> = fs
                .readdir(root)
                .unwrap()
                .into_iter()
                .filter(|e| e.kind == FileKind::Dir)
                .map(|e| e.ino)
                .collect();
            d.sort();
            d
        };
        fs.drop_caches().unwrap();
        for dino in dirs {
            for e in fs.readdir(dino).unwrap() {
                if e.kind == FileKind::File {
                    let sz = fs.getattr(e.ino).unwrap().size as usize;
                    let mut b = vec![0u8; sz];
                    fs.read(e.ino, 0, &mut b).unwrap();
                }
            }
            if cffs_regroup::autotrigger(&mut fs).expect("autotrigger").is_some() {
                fires += 1;
            }
            fs.drop_caches().unwrap();
        }
    }
    assert!(fires > 0, "the utilization floor must have fired the trigger");
    assert_eq!(Cffs::obs(&fs).get(Ctr::RegroupAutotriggers), fires);

    let recovered = cold_util(&fs, "recovered");
    let ratio = recovered as f64 / fresh_util.max(1) as f64;
    assert!(
        ratio >= 0.90,
        "signal-driven recovery too weak: {recovered}% vs fresh {fresh_util}% ({ratio:.2}x)"
    );
}
