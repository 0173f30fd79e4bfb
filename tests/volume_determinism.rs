//! Determinism of the multi-client session driver on a volume set.
//!
//! Two contracts, one per thread regime:
//!
//! * **Single-threaded runs are byte-stable.** With `nthreads = 1` the
//!   whole simulated timeline is a pure function of the seed: two runs
//!   agree on every op count, every payload byte, the final simulated
//!   clock to the nanosecond, and the full namespace walk. This is the
//!   regime `cffs-inspect volumes` relies on for byte-identical output.
//!
//! * **Multi-threaded runs are count-stable.** With `nthreads > 1` the
//!   interleaving (and so the simulated clock) may differ run to run,
//!   but the seeded session streams themselves do not: per-thread op
//!   counts, session-window op counts, and total payload bytes must be
//!   identical, and a different seed must actually change the stream.

use cffs::core::CffsConfig;
use cffs::feedview::FeedView;
use cffs::obs::feed::{self, Cadence};
use cffs::volume::{VolumeCfg, VolumeSet};
use cffs::workloads::multiclient::{self, MulticlientParams};
use cffs_disksim::{models, Disk};
use cffs_fslib::{FileKind, FileSystem, Ino};

fn set(nvols: usize) -> VolumeSet {
    let disks = (0..nvols).map(|_| Disk::new(models::tiny_test_disk())).collect();
    VolumeSet::format(disks, VolumeCfg::new(CffsConfig::cffs())).expect("format volume set")
}

fn params(nthreads: usize, seed: u64) -> MulticlientParams {
    MulticlientParams {
        nthreads,
        sessions: 40,
        ndirs: 8,
        files_per_dir: 4,
        ops_per_session: 6,
        seed,
        ..MulticlientParams::default()
    }
}

/// Flatten the namespace (names, kinds, sizes) resolved fresh from the
/// root — the logical end state a deterministic run must reproduce.
fn walk(fs: &VolumeSet, dir: Ino, prefix: &str, out: &mut Vec<String>) {
    let mut entries = fs.readdir(dir).expect("readdir");
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    for e in entries {
        let path = format!("{prefix}/{}", e.name);
        let attr = fs.getattr(e.ino).expect("getattr");
        out.push(format!("{path} {:?} {}", attr.kind, attr.size));
        if attr.kind == FileKind::Dir {
            walk(fs, e.ino, &path, out);
        }
    }
}

#[test]
fn single_threaded_run_is_byte_stable() {
    let run = |seed: u64| {
        let vs = set(2);
        let r = multiclient::run(&vs, &params(1, seed)).expect("multiclient");
        let mut ns = Vec::new();
        walk(&vs, vs.root(), "", &mut ns);
        (
            r.per_thread_ops.clone(),
            r.session_ops.clone(),
            r.bytes,
            r.elapsed.as_nanos(),
            vs.now().as_nanos(),
            vs.stripe_count(),
            ns,
        )
    };
    assert_eq!(run(42), run(42), "equal seeds must replay the same timeline");
    assert_ne!(run(42).4, run(43).4, "the seed must actually steer the stream");
}

/// One seeded single-threaded producer run with a manual-cadence tap
/// carrying the per-volume registries (the E16 telemetry shape): one
/// frame per phase barrier, each with a `volumes` row per spindle.
/// Returns the feed text.
fn feed_producer(tag: &str, seed: u64) -> String {
    let path =
        std::env::temp_dir().join(format!("cffs-voldet-{tag}-{}.jsonl", std::process::id()));
    let sink = feed::FeedSink::create(&path).expect("create feed");
    let vs = set(2);
    {
        let tap = feed::attach_with_volumes(
            &sink,
            &vs.set_obs(),
            &vs.vol_obs(),
            "multiclient",
            Cadence::Manual,
        );
        multiclient::run_with_phase_hook(&vs, &params(1, seed), |phase| tap.frame(phase))
            .expect("multiclient");
    }
    let text = std::fs::read_to_string(&path).expect("read feed");
    std::fs::remove_file(&path).ok();
    text
}

#[test]
fn single_threaded_feed_rendering_is_byte_deterministic() {
    let render = |text: &str| {
        let frames = feed::parse_feed(text).expect("every frame validates");
        assert!(!frames.is_empty());
        let mut view = FeedView::new(false);
        let mut out = String::new();
        for f in &frames {
            view.push(f);
            out.push_str(&view.render());
            out.push_str("---\n");
        }
        out
    };
    let (a, b) = (feed_producer("a", 42), feed_producer("b", 42));
    let (ra, rb) = (render(&a), render(&b));
    assert!(ra == rb, "same seed must render byte-identically");
    // The per-volume row set is present and shows real sharded work.
    assert!(ra.contains("volumes (2)"), "{ra}");
    assert!(ra.contains("vol0") && ra.contains("vol1"), "{ra}");
    assert!(render(&feed_producer("c", 43)) != ra, "different seeds must differ");
}

#[test]
fn multi_threaded_run_has_stable_counts() {
    let run = |seed: u64| {
        let vs = set(2);
        let r = multiclient::run(&vs, &params(4, seed)).expect("multiclient");
        (r.per_thread_ops.clone(), r.session_ops.clone(), r.bytes, vs.stripe_count())
    };
    // The clock is scheduling-dependent under real threads, but the op
    // and byte streams are seed-pure: counts must match exactly.
    assert_eq!(run(42), run(42), "equal seeds must produce identical counts");
    assert_ne!(run(42), run(43), "the seed must actually steer the stream");
}
