//! E16 — scale-out volume sets: multi-disk striping + sharded metadata.
//!
//! The multi-client driver (`workloads::concurrent`, Zipf window) replays
//! thousands of seeded sessions with Zipf-skewed directory popularity
//! against a [`VolumeSet`] of 1, 2, 4 and 8 independent simulated disks.
//! Directories shard across volumes by path hash, files larger than the
//! stripe threshold spread in group-sized parts, and every volume's
//! caches are dropped at the populate barrier so the measured sessions
//! window is cold and disk-bound. Client count is held fixed across
//! points: any throughput gain comes from the extra spindles, i.e. from
//! the sharded namespace letting per-volume disk timelines overlap. The
//! clients are contexts on one thread, taking their steps in clock
//! order, so every point is a function of the seed.
//!
//! Acceptance (ISSUE 9): aggregate sessions-window ops/s at 4 volumes
//! must be ≥ 3.0× the 1-volume figure, and every volume must fsck clean
//! after the churn phase plus one regroup pass per shard.

use crate::report::{header, rows_json};
use cffs_core::CffsConfig;
use cffs_disksim::{models, Disk};
use cffs_fslib::{FileSystem, MetadataMode};
use cffs_obs::json::{Json, ToJson};
use cffs_obs::obj;
use cffs_regroup::RegroupConfig;
use cffs_volume::{VolumeCfg, VolumeSet};
use cffs_workloads::concurrent::{self, ConcurrentParams, Window};
use cffs_workloads::PhaseResult;

/// Volume counts measured, in order. The acceptance pair is 1 volume
/// (baseline) vs 4 volumes (the ≥ 3.0× claim); 8 shows the tail of the
/// curve.
const POINTS: [usize; 4] = [1, 2, 4, 8];

/// One measured point of the scaling curve.
struct Point {
    nvols: usize,
    session_ops: u64,
    ops_per_sec: f64,
    stripes: usize,
    fsck_clean: bool,
    row: PhaseResult,
}

/// Run the workload against a fresh `nvols`-disk set and capture the
/// merged per-volume counter delta as a phase row. Thread count and all
/// workload parameters are identical across points — only the number of
/// spindles changes.
fn point(nvols: usize, p: &ConcurrentParams) -> Point {
    let disks: Vec<Disk> =
        (0..nvols).map(|_| Disk::new(models::tiny_test_disk())).collect();
    // Each volume is one scale-out node's slice: a 4 MB cache (so the
    // session working set does not fit on one node and the window stays
    // disk-bound) and a namespace cache (so flat per-op lookup CPU does
    // not drown the spindle overlap under test).
    let mut fs_cfg = CffsConfig::cffs().with_mode(MetadataMode::Delayed);
    fs_cfg.cache.nbufs = 1024;
    fs_cfg.dcache_entries = 4096;
    let mut vs =
        VolumeSet::format(disks, VolumeCfg::new(fs_cfg)).expect("format volume set");
    let set_obs = vs.set_obs();
    let io0 = vs.io_stats();
    let label = vs.label().to_string();
    let before = vs.merged_snapshot(&label);
    let start_ns = set_obs.global_clock_ns();
    let host_t0 = std::time::Instant::now();

    // Telemetry: a manual-cadence tap carrying the per-volume registries,
    // so every frame has a `volumes` row set (ops, queue depth, group-
    // fetch utilization per spindle). Frames are cut at the quiescent
    // phase barriers; the populate hook also drops every volume's caches
    // so the sessions window starts cold.
    let feed = cffs_obs::feed::tap_global(
        &set_obs,
        &vs.vol_obs(),
        &format!("volume-{nvols}v"),
        cffs_obs::feed::Cadence::Manual,
    );
    let r = concurrent::run_with_phase_hook(&vs, p, |phase| {
        if phase == "populate" {
            vs.drop_caches_all().expect("drop caches");
        }
        if let Some(tap) = &feed {
            tap.frame(&format!("volume-{nvols}v/{phase}"));
        }
    })
    .expect("multi-client run");
    drop(feed);

    let counters = vs.merged_snapshot(&label).delta(&before);
    let row = PhaseResult {
        fs: label,
        phase: format!("volume-{nvols}v"),
        start_ns,
        elapsed: r.elapsed,
        items: r.total_ops(),
        bytes: r.bytes,
        io: vs.io_stats().delta_since(&io0),
        counters: Some(counters),
        host_ns: host_t0.elapsed().as_nanos() as u64,
    };
    let stripes = vs.stripe_count();

    // Acceptance tail: one regroup pass per shard, then fsck every
    // volume's crash image — clean on all spindles or the point fails.
    vs.regroup_all(&RegroupConfig::exhaustive()).expect("regroup every shard");
    let fsck_clean = vs
        .fsck_all()
        .map(|reps| reps.iter().all(|rep| rep.clean()))
        .unwrap_or(false);
    Point {
        nvols,
        session_ops: r.total_window_ops(),
        ops_per_sec: r.ops_per_sec(),
        stripes,
        fsck_clean,
        row,
    }
}

/// Run the experiment. `ndirs`/`files_per_dir` and the Zipf window's
/// `sessions`/`ops` scale the work (CI smoke passes reduced values);
/// `nthreads` is the fixed client count. Returns the text report and
/// the BENCH payload.
pub fn report(p: ConcurrentParams) -> (String, Json) {
    let ConcurrentParams { nthreads, ndirs, files_per_dir, seed, window, .. } = p;
    let Window::Zipf { sessions, ops: ops_per_session } = window else {
        panic!("E16 replays Zipf sessions");
    };
    let points: Vec<Point> = POINTS.iter().map(|&n| point(n, &p)).collect();

    let base = &points[0];
    let four = points.iter().find(|pt| pt.nvols == 4).unwrap_or(&points[points.len() - 1]);
    let scaling_ratio = four.ops_per_sec / base.ops_per_sec.max(f64::MIN_POSITIVE);

    let mut out = header(&format!(
        "scale-out volume sets (seed {seed}, {sessions} sessions × {ops_per_session} ops, {ndirs} dirs × {files_per_dir} files, {nthreads} clients)"
    ));
    out.push_str(&format!(
        "{:<10} {:>12} {:>14} {:>12} {:>9} {:>8}\n",
        "volumes", "session ops", "agg ops/s", "elapsed", "stripes", "fsck"
    ));
    out.push_str(&"-".repeat(70));
    out.push('\n');
    for pt in &points {
        out.push_str(&format!(
            "{:<10} {:>12} {:>14.0} {:>12} {:>9} {:>8}\n",
            pt.nvols,
            pt.session_ops,
            pt.ops_per_sec,
            format!("{}", pt.row.elapsed),
            pt.stripes,
            if pt.fsck_clean { "clean" } else { "DIRTY" },
        ));
    }
    out.push_str(&format!(
        "\nscaling: {scaling_ratio:.2}x aggregate ops/s at 4 volumes vs 1 (target >= 3.0)\n"
    ));

    let json = obj![
        ("experiment", "volume".to_json()),
        ("seed", Json::Int(seed as i64)),
        ("sessions", Json::Int(sessions as i64)),
        ("ndirs", Json::Int(ndirs as i64)),
        ("files_per_dir", Json::Int(files_per_dir as i64)),
        ("ops_per_session", Json::Int(ops_per_session as i64)),
        ("nthreads", Json::Int(nthreads as i64)),
        (
            "points",
            Json::Arr(
                points
                    .iter()
                    .map(|pt| {
                        obj![
                            ("nvols", Json::Int(pt.nvols as i64)),
                            ("total_ops", Json::Int(pt.row.items as i64)),
                            ("session_ops", Json::Int(pt.session_ops as i64)),
                            ("ops_per_sec", pt.ops_per_sec.to_json()),
                            ("elapsed_ns", Json::Int(pt.row.elapsed.as_nanos() as i64)),
                            ("stripes", Json::Int(pt.stripes as i64)),
                            ("fsck_clean", Json::Bool(pt.fsck_clean)),
                        ]
                    })
                    .collect(),
            )
        ),
        ("scaling_ratio", scaling_ratio.to_json()),
        ("volume_scaling_ratio", scaling_ratio.to_json()),
        ("aggregate_ops_per_sec", four.ops_per_sec.to_json()),
        ("rows", rows_json(&points.into_iter().map(|pt| pt.row).collect::<Vec<_>>())),
    ];
    (out, json)
}
