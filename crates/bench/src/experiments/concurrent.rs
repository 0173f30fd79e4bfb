//! E14 — concurrent scaling on disjoint cylinder groups.
//!
//! N clients share one `Cffs` instance, each driving a seeded session
//! against its own directory set (directories spread round-robin across
//! cylinder groups, so clients allocate from different CGs and the
//! per-CG sharding is on the hot path). The multi-client driver
//! (`workloads::concurrent`, warm window) runs them as contexts on one
//! thread, in clock order: each client's CPU work advances its own
//! simulated timeline, and a window's elapsed time is the cross-client
//! high-water mark. Aggregate throughput therefore scales with clients
//! exactly as far as cache-hit work overlaps — the property under test.
//!
//! Acceptance (ISSUE 6): at 4 threads, aggregate ops/s on disjoint CGs
//! must be ≥ 2.5× the 1-thread figure, with the `group_fetch_util_pct`
//! mean unchanged and every end-state image fsck-clean.

use crate::report::{header, rows_json};
use cffs::build;
use cffs_core::{fsck, Cffs, CffsConfig};
use cffs_disksim::models;
use cffs_fslib::MetadataMode;
use cffs_obs::json::{Json, ToJson};
use cffs_obs::obj;
use cffs_workloads::concurrent::{self, ConcurrentParams};
use cffs_workloads::PhaseResult;

/// Thread counts measured, in order. The first and last are the
/// acceptance pair (1-thread baseline, 4-thread claim).
const POINTS: [usize; 3] = [1, 2, 4];

/// One measured point of the scaling curve.
struct Point {
    nthreads: usize,
    ops: u64,
    ops_per_sec: f64,
    util_pct: u64,
    fsck_clean: bool,
    row: PhaseResult,
}

/// Run the workload at `nthreads` on a fresh instance and capture the
/// counter delta as a phase row (the same shape `measure` produces, but
/// built by hand: the row's elapsed time is the warm window's cross-thread
/// clock high-water delta, not the calling thread's `now()` delta over
/// the whole run that `measure` would record).
fn point(p: &ConcurrentParams) -> Point {
    let fs = build::on_disk(
        models::tiny_test_disk(),
        CffsConfig::cffs().with_mode(MetadataMode::Delayed),
    );
    let obs = Cffs::obs(&fs);
    let io0 = Cffs::io_stats(&fs);
    let label = Cffs::label(&fs).to_string();
    let before = obs.snapshot(&label, obs.global_clock_ns());
    let start_ns = obs.global_clock_ns();
    let host_t0 = std::time::Instant::now();

    // Telemetry: a manual-cadence tap (when the repro binary set up a
    // feed with --feed) cutting one frame per phase barrier. The phases
    // interleave every client's steps, so frames are cut only at the
    // quiescent hook points — and the per-thread op rows still tell the
    // clients apart because each client's context binds slots 1..=N.
    let feed = cffs_obs::feed::tap_global(
        &obs,
        &[],
        &format!("concurrent-{}t", p.nthreads),
        cffs_obs::feed::Cadence::Manual,
    );
    let r = concurrent::run_with_phase_hook(&fs, p, |phase| {
        if let Some(tap) = &feed {
            tap.frame(&format!("concurrent-{}t/{phase}", p.nthreads));
        }
    })
    .expect("concurrent run");
    // Cold grouped re-read (single-threaded, unmeasured): drop the cache,
    // then walk every client's directories reading each surviving file,
    // so the end-state layout actually exercises group fetches and the
    // `group_fetch_util_pct` histogram has samples from *this* run. The
    // trailing drop retires outstanding fetches inside the counter
    // window (same discipline as E13's grouped read).
    Cffs::drop_caches(&fs).expect("drop caches");
    let root = Cffs::root(&fs);
    let mut buf = vec![0u8; 4096];
    for d in 0..p.ndirs {
        let dir = Cffs::lookup(&fs, root, &format!("p{d}")).expect("client dir survives");
        for e in Cffs::readdir(&fs, dir).expect("readdir") {
            Cffs::read(&fs, e.ino, 0, &mut buf).expect("cold read");
        }
    }
    Cffs::drop_caches(&fs).expect("drop caches");

    let counters = obs.snapshot(&label, obs.global_clock_ns()).delta(&before);
    let util_pct =
        counters.histogram("group_fetch_util_pct").map(|h| h.mean()).unwrap_or(0);
    let row = PhaseResult {
        fs: label,
        phase: format!("concurrent-{}t", p.nthreads),
        start_ns,
        elapsed: r.elapsed,
        items: r.total_ops(),
        bytes: r.bytes,
        io: Cffs::io_stats(&fs).delta_since(&io0),
        counters: Some(counters),
        host_ns: host_t0.elapsed().as_nanos() as u64,
    };
    let mut img = fs.crash_image();
    let fsck_clean = fsck::fsck(&mut img, false).map(|rep| rep.clean()).unwrap_or(false);
    Point {
        nthreads: p.nthreads,
        ops: r.total_ops(),
        ops_per_sec: r.ops_per_sec(),
        util_pct,
        fsck_clean,
        row,
    }
}

/// Run the experiment: `p` at each of [`POINTS`]' client counts, with
/// `dirs_per_thread` directories per client (`p`'s own `nthreads` and
/// `ndirs` are not used). `dirs_per_thread`/`files_per_dir` scale the
/// work (CI smoke passes reduced values). Returns the text report and the
/// BENCH payload.
pub fn report(dirs_per_thread: usize, p: ConcurrentParams) -> (String, Json) {
    let ConcurrentParams { files_per_dir, seed, .. } = p;
    let points: Vec<Point> = POINTS
        .iter()
        .map(|&n| point(&ConcurrentParams { nthreads: n, ndirs: dirs_per_thread * n, ..p }))
        .collect();

    let base = &points[0];
    let top = &points[points.len() - 1];
    let scaling_ratio = top.ops_per_sec / base.ops_per_sec.max(f64::MIN_POSITIVE);

    let mut out = header(&format!(
        "concurrent scaling on disjoint CGs (seed {seed}, {dirs_per_thread} dirs/thread × {files_per_dir} files)"
    ));
    out.push_str(&format!(
        "{:<10} {:>10} {:>14} {:>12} {:>10} {:>8}\n",
        "threads", "ops", "agg ops/s", "elapsed", "gf util", "fsck"
    ));
    out.push_str(&"-".repeat(70));
    out.push('\n');
    for pt in &points {
        out.push_str(&format!(
            "{:<10} {:>10} {:>14.0} {:>12} {:>10} {:>8}\n",
            pt.nthreads,
            pt.ops,
            pt.ops_per_sec,
            format!("{}", pt.row.elapsed),
            format!("{}%", pt.util_pct),
            if pt.fsck_clean { "clean" } else { "DIRTY" },
        ));
    }
    out.push_str(&format!(
        "\nscaling: {scaling_ratio:.2}x aggregate ops/s at {} threads vs 1 (target >= 2.5)\n",
        top.nthreads
    ));

    let json = obj![
        ("experiment", "concurrent".to_json()),
        ("seed", Json::Int(seed as i64)),
        ("dirs_per_thread", Json::Int(dirs_per_thread as i64)),
        ("files_per_dir", Json::Int(files_per_dir as i64)),
        (
            "points",
            Json::Arr(
                points
                    .iter()
                    .map(|pt| {
                        obj![
                            ("nthreads", Json::Int(pt.nthreads as i64)),
                            ("total_ops", Json::Int(pt.ops as i64)),
                            ("ops_per_sec", pt.ops_per_sec.to_json()),
                            ("elapsed_ns", Json::Int(pt.row.elapsed.as_nanos() as i64)),
                            ("util_pct", Json::Int(pt.util_pct as i64)),
                            ("fsck_clean", Json::Bool(pt.fsck_clean)),
                        ]
                    })
                    .collect(),
            )
        ),
        ("scaling_ratio", scaling_ratio.to_json()),
        ("aggregate_ops_per_sec", top.ops_per_sec.to_json()),
        ("rows", rows_json(&points.into_iter().map(|p| p.row).collect::<Vec<_>>())),
    ];
    (out, json)
}
