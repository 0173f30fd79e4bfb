//! Determinism of the multi-client driver, on a volume set (E16's Zipf
//! sessions) and on a bare C-FFS (E14's warm window).
//!
//! The driver runs its clients on one clock-ordered schedule, so a run is
//! a function of the seed at any client count:
//!
//! * **Single-client runs are byte-stable.** Two runs agree on every op
//!   count, every payload byte, the final simulated clock to the
//!   nanosecond, the full namespace walk and every feed frame. This is
//!   the regime `cffs-inspect volumes` relies on for byte-identical
//!   output.
//!
//! * **Multi-client runs are nanosecond-stable.** With four clients, each
//!   in its own context with its own simulated clock, two runs agree on
//!   per-client op counts, the window's elapsed simulated time, the final
//!   simulated clock, payload bytes and every counter of the registry,
//!   and equal the values pinned from the driver that ran each client on
//!   an OS thread; a different seed must actually change the stream.

use cffs::core::{Cffs, CffsConfig};
use cffs::feedview::FeedView;
use cffs::obs::feed::{self, Cadence};
use cffs::volume::{VolumeCfg, VolumeSet};
use cffs::workloads::concurrent::{self, ConcurrentParams, Window};
use cffs_disksim::{models, Disk};
use cffs_fslib::{FileKind, FileSystem, Ino, MetadataMode};

fn set(nvols: usize) -> VolumeSet {
    let disks = (0..nvols).map(|_| Disk::new(models::tiny_test_disk())).collect();
    VolumeSet::format(disks, VolumeCfg::new(CffsConfig::cffs())).expect("format volume set")
}

fn params(nthreads: usize, seed: u64) -> ConcurrentParams {
    ConcurrentParams {
        nthreads,
        ndirs: 8,
        files_per_dir: 4,
        file_size: 4096,
        window: Window::Zipf { sessions: 40, ops: 6 },
        seed,
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
        let r = concurrent::run(&vs, &params(1, seed)).expect("multi-client run");
        let mut ns = Vec::new();
        walk(&vs, vs.root(), "", &mut ns);
        (
            r.per_thread_ops.clone(),
            r.window_ops.clone(),
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
        concurrent::run_with_phase_hook(&vs, &params(1, seed), |phase| tap.frame(phase))
            .expect("multi-client run");
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
fn multi_client_run_is_nanosecond_stable() {
    let run = |seed: u64| {
        let vs = set(2);
        let r = concurrent::run(&vs, &params(4, seed)).expect("multi-client run");
        (
            r.per_thread_ops.clone(),
            r.window_ops.clone(),
            r.elapsed.as_nanos(),
            vs.set_obs().global_clock_ns(),
            r.bytes,
            vs.stripe_count(),
        )
    };
    // Four client contexts, one clock-ordered schedule: the simulated
    // clock is as seed-pure as the op and byte streams.
    let a = run(42);
    assert!(a.0.iter().all(|&o| o > 0), "every client did work: {:?}", a.0);
    assert_eq!(a, run(42), "equal seeds must replay the same timeline");
    // Pinned from the driver that ran each client on its own OS thread.
    let pinned =
        (vec![146, 142, 142, 144], vec![120, 119, 120, 120], 59_018_962, 889_583_325, 4_767_744, 2);
    assert_eq!(a, pinned, "the timeline moved");
    assert_ne!(a, run(43), "the seed must actually steer the stream");
}

/// E14's shape: four clients over disjoint directories of one bare
/// C-FFS with delayed metadata, warm window. Two runs agree on the
/// window's elapsed time and on every counter of the registry — disk
/// requests, seek/rotation/transfer time and cache traffic included —
/// and so did the driver that ran each client on an OS thread.
#[test]
fn multi_client_bare_cffs_run_repeats_every_counter() {
    let run = || {
        let fs = cffs::build::on_disk(
            models::tiny_test_disk(),
            CffsConfig::cffs().with_mode(MetadataMode::Delayed),
        );
        let p = ConcurrentParams {
            nthreads: 4,
            ndirs: 8,
            files_per_dir: 12,
            file_size: 4096,
            window: Window::Warm { rounds: 4 },
            seed: 1997,
        };
        let r = concurrent::run(&fs, &p).expect("multi-client run");
        let obs = Cffs::obs(&fs);
        let snap = obs.snapshot("e14", obs.global_clock_ns());
        let ops = (r.per_thread_ops, r.window_ops, r.elapsed.as_nanos(), snap.sim_ns, r.bytes);
        (ops, snap.counters)
    };
    let a = run();
    assert!(a.1.iter().any(|(n, v)| n == "disk_writes" && *v > 0), "the run reached the disk");
    assert_eq!(a, run(), "two 4-client runs must agree on every counter");
    // Pinned from the driver that ran each client on its own OS thread;
    // every counter not listed is zero.
    let ops =
        (vec![203, 211, 204, 210], vec![129, 132, 134, 139], 12_607_000, 443_333_329, 2_101_248);
    assert_eq!(a.0, ops, "the timeline moved");
    let nonzero: Vec<(&str, u64)> =
        a.1.iter().filter(|(_, v)| *v != 0).map(|(n, v)| (n.as_str(), *v)).collect();
    let pinned = [
        ("disk_requests", 50),
        ("disk_reads", 6),
        ("disk_writes", 44),
        ("disk_seeks", 15),
        ("disk_seek_ns", 97_682_709),
        ("disk_rotation_ns", 128_607_327),
        ("disk_transfer_ns", 185_412_293),
        ("disk_service_ns", 441_702_329),
        ("disk_bytes_read", 24_576),
        ("disk_bytes_written", 688_128),
        ("disk_cache_hits", 1),
        ("driver_logical_requests", 174),
        ("driver_physical_requests", 50),
        ("driver_sg_segments", 174),
        ("driver_coalesced", 124),
        ("driver_batches", 3),
        ("driver_queue_submit", 9),
        ("cache_lookups", 3_058),
        ("cache_phys_hits", 2_413),
        ("cache_logical_hits", 410),
        ("cache_misses", 125),
        ("cache_backbinds", 119),
        ("cache_writebacks", 168),
        ("cache_coalesced_runs", 28),
        ("cache_delayed_flushes", 168),
        ("fs_embedded_inode_ops", 1_232),
        ("fs_external_inode_ops", 24),
        ("fs_delayed_meta_writes", 149),
        ("attr_op_ns", 82_536_000),
        ("attr_queue_ns", 75_000),
        ("attr_service_ns", 441_702_329),
    ];
    assert_eq!(nonzero, pinned, "a counter moved");
}
