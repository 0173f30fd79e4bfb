//! One run of one workload: the untraced run that yields the end-to-end
//! metrics, or the traced run that yields the per-layer ones.

use crate::alloc::Heap;
use crate::fsapi::Counts;
use crate::harness::{self, host_cost, median, rank, run_window, Bench, Calib, Rec, Window};
use crate::pin;
use crate::probes;
use crate::report::{ratio, Metrics, Outcome, CORE_OPS};
use crate::trace::{Layer, Tracer};
use crate::workloads::churn_softdep::ChurnSoftdep;
use crate::workloads::cold_read::ColdRead;
use crate::workloads::meta_sync::MetaSync;
use crate::workloads::namei_warm::NameiWarm;
use crate::workloads::volume_stripe::VolumeStripe;
use crate::workloads::warm_read::WarmRead;
use crate::workloads::{Scale, Variant, Workload};
use std::path::PathBuf;
use std::time::Instant;

/// The six workloads, in report order.
pub const WORKLOADS: [&str; 6] = [
    MetaSync::NAME,
    ColdRead::NAME,
    WarmRead::NAME,
    NameiWarm::NAME,
    ChurnSoftdep::NAME,
    VolumeStripe::NAME,
];

/// Seed when none is given.
pub const DEFAULT_SEED: u64 = 1997;
/// Set-up runs this often before the window of an untraced run, and
/// again after it: at least `MIN_SETUPS_AFTER` times, then while fewer than
/// `MAX_SETUPS_AFTER` have run and `SETUPS_AFTER_BUDGET_S` is not spent.
/// `setup_s` is the fastest of them all. Interference only adds time,
/// and a slow phase of a shared host lasts seconds, so samples on both
/// sides of the window are what keeps one phase from colouring them all.
const SETUPS_BEFORE: usize = 3;
const MIN_SETUPS_AFTER: usize = 2;
const MAX_SETUPS_AFTER: usize = 6;
const SETUPS_AFTER_BUDGET_S: f64 = 1.5;
/// Spans the traced run has room for.
const SPAN_CAPACITY: usize = 450_000;
/// Kept passes of a traced window: two that record spans, two that do not.
const TRACED_KEPT_PASSES: usize = 4;
/// Bare/armed pass pairs of the obs overhead comparison.
const OBS_ROUNDS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Window length, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub traced: bool,
    /// Full or test scale.
    pub scale: Scale,
    /// Where span files and feed/flight dumps go.
    pub out_dir: PathBuf,
}

/// Run `args.workload`; `Err` names an unknown workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        MetaSync::NAME => Ok(run_workload::<MetaSync>(args)),
        ColdRead::NAME => Ok(run_workload::<ColdRead>(args)),
        WarmRead::NAME => Ok(run_workload::<WarmRead>(args)),
        NameiWarm::NAME => Ok(run_workload::<NameiWarm>(args)),
        ChurnSoftdep::NAME => Ok(run_workload::<ChurnSoftdep>(args)),
        VolumeStripe::NAME => Ok(run_workload::<VolumeStripe>(args)),
        other => Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    }
}

fn run_workload<W: Workload>(args: &Args) -> Outcome {
    let started = Instant::now();
    let unpinned = pin::pin_to_first_cpu();
    let plan = W::plan(args.seed, args.scale);
    let mut out = Outcome {
        workload: W::NAME.to_string(),
        traced: args.traced,
        pinned: unpinned.is_some(),
        ..Outcome::default()
    };
    let mut rec = if args.traced {
        traced::<W>(args, &plan, unpinned.as_ref(), &mut out)
    } else {
        untraced::<W>(args, &plan, &mut out)
    };
    out.attempted = rec.attempted;
    out.failed = rec.failed;
    out.notes = std::mem::take(&mut rec.notes);
    if args.traced {
        out.metrics.set("harness.pinned", out.pinned as u8 as f64);
        out.metrics
            .set("harness.run_s", started.elapsed().as_secs_f64());
    }
    out.info.push(format!(
        "whole invocation {:.2} s",
        started.elapsed().as_secs_f64()
    ));
    out
}

/// The window must have made no disk request at all.
fn check_no_disk<W: Workload>(w: &Window, rec: &mut Rec) {
    if W::EXPECT_NO_DISK {
        rec.attempted += 1;
        let reqs = w.counts.disk_reqs();
        rec.check(reqs == 0, || {
            format!("check: {reqs} disk requests in a window that must make none")
        });
    }
}

fn untraced<W: Workload>(args: &Args, plan: &W::Plan, out: &mut Outcome) -> Rec {
    let timed_setup = |setups: &mut Vec<f64>| {
        let t0 = Instant::now();
        let bench = W::build(plan, Variant::Main);
        setups.push(t0.elapsed().as_secs_f64());
        bench
    };
    let mut setups = Vec::with_capacity(SETUPS_BEFORE + MAX_SETUPS_AFTER);
    let mut bench = timed_setup(&mut setups);
    for _ in 1..SETUPS_BEFORE {
        drop(bench);
        bench = timed_setup(&mut setups);
    }
    let ops = bench.ops_per_pass();
    let mut calib = Calib::new();
    let mut rec = Rec::new(ops, W::KEPT_PASSES);
    let w = run_window(
        bench.as_mut(),
        &mut calib,
        &mut Tracer::off(),
        &mut rec,
        args.seconds,
        W::KEPT_PASSES,
        false,
    );
    check_no_disk::<W>(&w, &mut rec);
    bench.finish(&mut rec);
    let (blocks, files) = w.space_at_kept;
    drop(bench);
    let after = Instant::now();
    for done in 0..MAX_SETUPS_AFTER {
        if done >= MIN_SETUPS_AFTER && after.elapsed().as_secs_f64() > SETUPS_AFTER_BUDGET_S {
            break;
        }
        drop(timed_setup(&mut setups));
    }

    let kept_ops = w.kept_ops();
    let samples = rec.sorted_samples();
    let units = w.units(false);
    let heap = w.kept_heap();
    let m = &mut out.metrics;
    m.set("sim_ops_per_s", w.sim_ops_per_s());
    m.set("sim_op_p50_us", rank(&samples, 0.50) as f64 / 1e3);
    m.set("sim_op_p99_us", rank(&samples, 0.99) as f64 / 1e3);
    m.set("host_units_per_kop", host_cost(&units) * 1e3 / ops as f64);
    m.set(
        "host_alloc_kb_per_op",
        heap.bytes as f64 / 1024.0 / kept_ops,
    );
    m.set("host_allocs_per_op", heap.allocs as f64 / kept_ops);
    m.set("peak_rss_mb", w.rss_at_kept_mb);
    m.set(
        "space_kb_per_file",
        ratio(blocks as f64 * 4.0, files as f64),
    );
    m.set(
        "setup_s",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
    );

    let walls: Vec<f64> = w.passes.iter().map(|p| p.wall_s).collect();
    let calibs: Vec<f64> = w.passes.iter().map(|p| p.calib_s).collect();
    out.info.push(format!(
        "{} passes of {} ops ({} kept: {} samples), median pass {:.3} s{}",
        w.passes.len(),
        ops,
        w.kept_passes,
        samples.len(),
        median(&walls),
        if median(&walls) < harness::MIN_PASS_S {
            " (SHORTER than the 0.2 s the method asks for on this host)"
        } else {
            ""
        },
    ));
    out.info.push(format!(
        "harness.wall_ops_per_s {:.0}, harness.calib_unit_ms {:.3}, harness.pass_iqr_pct {:.2}",
        ops as f64 / median(&walls),
        median(&calibs) * 1e3,
        harness::iqr_pct(&units),
    ));
    rec
}

/// Run `passes` passes of a fresh `variant` instance and return it with
/// its window (twin runs of the traced run). With `tr` on, the passes
/// record spans and the instance its disk request trace.
fn twin<'p, W: Workload>(
    plan: &'p W::Plan,
    variant: Variant,
    calib: &mut Calib,
    tr: &mut Tracer,
    rec: &mut Rec,
    passes: usize,
) -> (Box<dyn Bench + 'p>, Window) {
    let mut bench = W::build(plan, variant);
    if let (true, Some(fs)) = (tr.on, bench.cffs()) {
        fs.set_disk_trace(true);
    }
    let mut twin_rec = Rec::new(bench.ops_per_pass(), passes);
    let w = run_window(bench.as_mut(), calib, tr, &mut twin_rec, 0.0, passes, false);
    rec.attempted += twin_rec.attempted;
    rec.failed += twin_rec.failed;
    rec.notes.append(&mut twin_rec.notes);
    (bench, w)
}

/// `volume_stripe`'s stream on a 1-volume set and on a bare `Cffs`: the
/// volume overhead and scaling metrics are differences between those runs
/// and the main one. Returns a bare twin that ran one pass with spans and
/// its disk trace recorded: a set exposes neither, so `core.<op>.*` and
/// the probes' inputs come from it.
fn volume_twins<'p, W: Workload>(
    plan: &'p W::Plan,
    calib: &mut Calib,
    calib_ns: f64,
    main_sim_ops: f64,
    unpinned: Option<&pin::CpuSet>,
    m: &mut Metrics,
    rec: &mut Rec,
) -> (Tracer, Box<dyn Bench + 'p>) {
    let untraced_twin = |variant, calib: &mut Calib, rec: &mut Rec| {
        twin::<W>(
            plan,
            variant,
            calib,
            &mut Tracer::off(),
            rec,
            TRACED_KEPT_PASSES,
        )
        .1
    };
    let one = untraced_twin(Variant::OneVolume, calib, rec);
    let bare = untraced_twin(Variant::BareCffs, calib, rec);
    let host_ns_per_op = |w: &Window| host_cost(&w.units(false)) * calib_ns / w.ops_per_pass as f64;
    let bytes_per_op = |w: &Window| w.kept_heap().bytes as f64 / w.kept_ops();
    m.set(
        "volume.sim_scaling_2v",
        ratio(main_sim_ops, one.sim_ops_per_s()),
    );
    m.set(
        "volume.host_overhead_ns_per_op",
        host_ns_per_op(&one) - host_ns_per_op(&bare),
    );
    m.set(
        "volume.alloc_overhead_bytes_per_op",
        bytes_per_op(&one) - bytes_per_op(&bare),
    );
    m.set(
        "volume.lock_wait_share_2t",
        W::lock_wait_share_2t(plan, unpinned).unwrap_or(0.0),
    );
    let mut bare_tr = Tracer::with_capacity(SPAN_CAPACITY);
    let (bare_bench, _) = twin::<W>(plan, Variant::BareCffs, calib, &mut bare_tr, rec, 1);
    (bare_tr, bare_bench)
}

fn traced<W: Workload>(
    args: &Args,
    plan: &W::Plan,
    unpinned: Option<&pin::CpuSet>,
    out: &mut Outcome,
) -> Rec {
    let mut calib = Calib::new();
    let mut tr = Tracer::with_capacity(SPAN_CAPACITY);
    tr.open(Layer::Harness, "run", 0);
    tr.open(Layer::Harness, W::NAME, 0);
    let mut bench = W::build(plan, Variant::Main);
    let ops = bench.ops_per_pass();
    let mut rec = Rec::new(ops, TRACED_KEPT_PASSES);
    if let Some(fs) = bench.cffs() {
        fs.set_disk_trace(true);
    }
    let disks_before = bench.requests_per_disk();
    let w = run_window(
        bench.as_mut(),
        &mut calib,
        &mut tr,
        &mut rec,
        args.seconds / 4.0,
        TRACED_KEPT_PASSES,
        true,
    );
    let disks_after = bench.requests_per_disk();
    check_no_disk::<W>(&w, &mut rec);
    let mut disk_trace = bench.cffs().map(|fs| fs.disk_trace()).unwrap_or_default();
    if let Some(fs) = bench.cffs() {
        fs.set_disk_trace(false);
    }
    let m = &mut out.metrics;
    let kept_ops = w.kept_ops();
    window_counts(m, &w, kept_ops, bench.as_ref());
    m.set("volume.req_balance", {
        let per_disk: Vec<u64> = disks_after
            .iter()
            .zip(&disks_before)
            .map(|(a, b)| a - b)
            .collect();
        match (per_disk.iter().min(), per_disk.iter().max()) {
            (Some(&lo), Some(&hi)) if per_disk.len() > 1 => ratio(lo as f64, hi as f64),
            _ => 0.0,
        }
    });

    // Harness numbers of the traced window itself.
    let bare_units = w.units(false);
    let traced_units = w.units(true);
    let walls: Vec<f64> = w.passes.iter().map(|p| p.wall_s).collect();
    let calibs: Vec<f64> = w.passes.iter().map(|p| p.calib_s).collect();
    m.set("harness.wall_ops_per_s", ops as f64 / median(&walls));
    m.set("harness.calib_unit_ms", median(&calibs) * 1e3);
    m.set("harness.pass_iqr_pct", harness::iqr_pct(&bare_units));
    m.set(
        "harness.trace_overhead_pct",
        (ratio(host_cost(&traced_units), host_cost(&bare_units)) - 1.0) * 100.0,
    );

    // Twin runs: the same stream on other stacks.
    let main_sim_ops = w.sim_ops_per_s();
    let mut core_tr_source = None;
    if W::VS_CONVENTIONAL {
        let (_, cw) = twin::<W>(
            plan,
            Variant::Conventional,
            &mut calib,
            &mut Tracer::off(),
            &mut rec,
            TRACED_KEPT_PASSES,
        );
        m.set(
            "core.sim_speedup_vs_conventional",
            ratio(main_sim_ops, cw.sim_ops_per_s()),
        );
    }
    if W::VOLUME_TWINS {
        let calib_ns = median(&calibs) * 1e9;
        let (bare_tr, bare_bench) = volume_twins::<W>(
            plan,
            &mut calib,
            calib_ns,
            main_sim_ops,
            unpinned,
            m,
            &mut rec,
        );
        disk_trace = bare_bench
            .cffs()
            .map(|fs| fs.disk_trace())
            .unwrap_or_default();
        core_tr_source = Some((bare_tr, bare_bench));
    }

    // Layer probes, as spans under a `probe` parent.
    tr.open(Layer::Harness, "probe", bench.now_ns());
    let probe_bench: &dyn Bench = core_tr_source
        .as_ref()
        .map_or(bench.as_ref(), |(_, b)| b.as_ref());
    let disk = probes::disksim(&disk_trace, &mut tr);
    let drv = probes::driver(&disk_trace, &mut tr);
    let blocks = probe_blocks(probe_bench, &disk_trace);
    let cache = probes::cache(&blocks, &mut tr);
    let dcache = bench
        .dcache_stream()
        .map(|s| probes::dcache(&s, &mut tr))
        .unwrap_or_default();
    tr.close(bench.now_ns());
    m.set("disksim.host_ns_per_req", disk.ns_per_call());
    m.set(
        "disksim.alloc_bytes_per_req",
        ratio(disk.heap.bytes as f64, disk.calls as f64),
    );
    m.set(
        "driver.host_ns_per_submit",
        ratio((drv.host_ns - disk.host_ns).max(0.0), drv.calls as f64),
    );
    m.set(
        "driver.allocs_per_submit",
        ratio(
            drv.heap.allocs.saturating_sub(disk.heap.allocs) as f64,
            drv.calls as f64,
        ),
    );
    m.set("cache.host_ns_per_hit", cache.hit.ns_per_call());
    m.set(
        "cache.alloc_bytes_per_hit",
        ratio(cache.hit.heap.bytes as f64, cache.hit.calls as f64),
    );
    m.set("cache.host_ns_per_modify", cache.modify.ns_per_call());
    m.set(
        "cache.host_ns_per_group_read",
        cache.group_read.ns_per_call(),
    );
    m.set("cache.host_ms_per_sync", cache.sync.ns_per_call() / 1e6);
    m.set("dcache.occupancy_share", dcache.occupancy_share);
    m.set("dcache.host_ns_per_probe", dcache.probe.ns_per_call());
    m.set("dcache.host_ns_per_insert", dcache.insert.ns_per_call());

    // Per-op spans of the core layer, and how much of them the probed
    // layers below explain.
    let core_tr = core_tr_source.as_ref().map_or(&tr, |(t, _)| t);
    for op in CORE_OPS {
        let mut host: Vec<u64> = core_tr.host_durations(Layer::Core, op);
        host.sort_unstable();
        m.set(&format!("core.{op}.host_p50_ns"), rank(&host, 0.50) as f64);
        m.set(&format!("core.{op}.host_p99_ns"), rank(&host, 0.99) as f64);
        m.set(
            &format!("core.{op}.sim_mean_us"),
            core_tr.sim_mean_ns(Layer::Core, op) / 1e3,
        );
    }
    let call_layer = if W::VOLUME_TWINS {
        Layer::Volume
    } else {
        Layer::Core
    };
    let (call_ns, _) = tr.host_total_and_self(call_layer);
    let c = &w.counts;
    let explained_per_op = (c.cache_hits as f64 * cache.hit.ns_per_call()
        + c.submits as f64 * drv.ns_per_call()
        + (c.dc_hits + c.dc_neg_hits + c.dc_misses) as f64 * dcache.probe.ns_per_call())
        / kept_ops;
    let span_per_op = ratio(call_ns as f64, tr.ops() as f64);
    m.set(
        "core.self_share",
        (1.0 - ratio(explained_per_op, span_per_op)).clamp(0.0, 1.0),
    );

    // Background work (`churn_softdep`), as a span of the regroup layer.
    tr.open(Layer::Regroup, "run", bench.now_ns());
    let tail = bench.regroup_tail(&mut rec);
    tr.close(bench.now_ns());
    if let Some(t) = tail {
        m.set("regroup.blocks_moved", t.blocks_moved as f64);
        m.set("regroup.host_ms", t.host_ms);
        m.set("regroup.sim_s", t.sim_s);
        m.set("regroup.fetch_util_before_pct", t.fetch_util_before_pct);
        m.set("regroup.fetch_util_after_pct", t.fetch_util_after_pct);
    }

    if W::OBS_OVERHEAD {
        tr.open(Layer::Obs, "armed_vs_bare", 0);
        let pass_sim_ns = w.kept_sim_ns() / w.kept_passes as u64;
        obs_overhead::<W>(
            args,
            plan,
            &mut calib,
            pass_sim_ns,
            (&mut *m, &mut out.info),
            &mut rec,
        );
        tr.close(0);
    }

    bench.finish(&mut rec);
    tr.close(bench.now_ns());
    tr.close(bench.now_ns());
    let path = args.out_dir.join(format!("trace_{}.jsonl", W::NAME));
    match tr.write_jsonl(&path) {
        Ok(()) => out.info.push(format!(
            "{} spans ({} dropped past the buffer) in {}",
            tr.spans().len(),
            tr.dropped(),
            path.display()
        )),
        Err(e) => rec.fail(|| format!("check: writing {}: {e}", path.display())),
    }
    rec
}

/// Block numbers for the cache probe: what `Cffs::file_block_map` reports
/// for the workload's files, else the blocks the disk trace touched.
fn probe_blocks(bench: &dyn Bench, trace: &[cffs_disksim::TraceEntry]) -> Vec<u64> {
    let mut blocks = Vec::new();
    if let Some(fs) = bench.cffs() {
        for ino in bench.probe_files() {
            if let Ok(map) = fs.file_block_map(ino) {
                blocks.extend(map.into_iter().map(|(_, blk)| blk));
            }
        }
    }
    if blocks.is_empty() {
        blocks.extend(trace.iter().map(|e| e.lba / cffs_fslib::SECTORS_PER_BLOCK));
    }
    blocks
}

/// The per-layer metrics that are ratios of counter deltas over the kept
/// passes of the window.
fn window_counts(m: &mut Metrics, w: &Window, ops: f64, bench: &dyn Bench) {
    let c: &Counts = &w.counts;
    let kop = ops / 1e3;
    let reqs = c.disk_reqs() as f64;
    let sim_ns = w.kept_sim_ns() as f64;
    let disks = bench.requests_per_disk().len().max(1) as f64;
    m.set("disksim.reqs_per_kop", reqs / kop);
    m.set(
        "disksim.kb_per_op",
        (c.sectors_read + c.sectors_written) as f64 / 2.0 / ops,
    );
    m.set(
        "disksim.seek_ms_per_req",
        ratio(c.seek_ns as f64 / 1e6, reqs),
    );
    m.set(
        "disksim.rotation_ms_per_req",
        ratio(c.rotation_ns as f64 / 1e6, reqs),
    );
    m.set(
        "disksim.transfer_ms_per_req",
        ratio(c.transfer_ns as f64 / 1e6, reqs),
    );
    m.set(
        "disksim.onboard_hit_share",
        ratio(c.onboard_hits as f64, c.disk_reads as f64),
    );
    m.set(
        "disksim.busy_share",
        ratio(c.busy_ns as f64, sim_ns * disks),
    );
    m.set("driver.submits_per_kop", c.submits as f64 / kop);
    m.set(
        "driver.coalesced_share",
        ratio(c.coalesced as f64, c.logical_reqs as f64),
    );
    m.set(
        "driver.sg_segments_per_req",
        ratio(c.sg_segments as f64, c.physical_reqs as f64),
    );
    m.set("driver.sim_queue_share", ratio(c.queue_ns as f64, sim_ns));
    m.set("cache.lookups_per_op", c.cache_lookups as f64 / ops);
    m.set(
        "cache.hit_share",
        ratio(c.cache_hits as f64, c.cache_lookups as f64),
    );
    m.set("cache.evictions_per_kop", c.evictions as f64 / kop);
    m.set("cache.writebacks_per_kop", c.writebacks as f64 / kop);
    m.set(
        "cache.blocks_per_writeback_run",
        ratio(c.delayed_flushes as f64, c.writeback_runs as f64),
    );
    m.set("cache.group_reads_per_kop", c.group_reads as f64 / kop);
    m.set(
        "cache.group_fetch_used_share",
        ratio(c.gf_used as f64, (c.gf_used + c.gf_wasted) as f64),
    );
    m.set("cache.backbinds_per_kop", c.backbinds as f64 / kop);
    m.set(
        "core.embedded_inode_share",
        ratio(
            c.embedded_ops as f64,
            (c.embedded_ops + c.external_ops) as f64,
        ),
    );
    m.set(
        "core.sync_meta_writes_per_kop",
        c.sync_meta_writes as f64 / kop,
    );
    m.set("core.degroupings_per_kop", c.degroupings as f64 / kop);
    m.set(
        "core.sim_op_share",
        ratio(c.attr_op_ns as f64, sim_ns * disks),
    );
    let probes = (c.dc_hits + c.dc_neg_hits + c.dc_misses) as f64;
    m.set(
        "dcache.hit_share",
        ratio((c.dc_hits + c.dc_neg_hits) as f64, probes),
    );
    m.set("dcache.neg_hit_share", ratio(c.dc_neg_hits as f64, probes));
    m.set("dcache.evictions_per_kop", c.dc_evictions as f64 / kop);
    m.set(
        "volume.stripe_part_ios_per_kop",
        c.stripe_part_ios as f64 / kop,
    );
    // Directories are made and files promoted while populating, not in
    // the window: these two count from format.
    let total = bench.counts();
    m.set("volume.dir_fanouts_per_kop", total.dir_fanouts as f64 / kop);
    m.set("volume.stripe_promotions", total.stripe_promotions as f64);
    m.set("obs.events_per_op", c.obs_events as f64 / ops);
}

/// Frames a feed is meant to cut per phase ("a few dozen"); its sink
/// rewrites the whole file per frame, so the cost is quadratic in this.
const FEED_FRAMES_PER_PASS: u64 = 32;
/// Most cuts per pass the flight recorder is armed for. Its cadence is
/// fixed at 50 ms of simulated time and every cut persists the whole
/// black box, so on a disk-bound pass that simulates minutes it would cut
/// thousands of times; such a pass is compared without it (and says so).
const FLIGHT_MAX_CUTS_PER_PASS: u64 = 512;

/// `obs`: alternate passes of a bare instance and one with the span log,
/// a feed tap and (see above) a flight recorder armed.
fn obs_overhead<W: Workload>(
    args: &Args,
    plan: &W::Plan,
    calib: &mut Calib,
    pass_sim_ns: u64,
    (m, info): (&mut Metrics, &mut Vec<String>),
    rec: &mut Rec,
) {
    let mut bare = W::build(plan, Variant::Main);
    let mut armed = W::build(plan, Variant::Main);
    let Some(obs) = armed.cffs().map(|fs| fs.obs()) else {
        return;
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        return rec.fail(|| format!("check: creating {}: {e}", args.out_dir.display()));
    }
    obs.enable_span_log();
    let sink = match cffs_obs::feed::FeedSink::create(
        args.out_dir.join(format!("feed_{}.jsonl", W::NAME)),
    ) {
        Ok(sink) => sink,
        Err(e) => return rec.fail(|| format!("check: creating the feed file: {e}")),
    };
    let default_ns = cffs_obs::feed::SIM_INTERVAL_DEFAULT_NS;
    let cadence = cffs_obs::feed::Cadence::Sim(default_ns.max(pass_sim_ns / FEED_FRAMES_PER_PASS));
    let _tap = cffs_obs::feed::attach(&sink, &obs, "armed", cadence);
    let flight_cuts = pass_sim_ns / default_ns;
    let _flight = (flight_cuts <= FLIGHT_MAX_CUTS_PER_PASS)
        .then(|| cffs_obs::flight::arm(&args.out_dir, &obs, &[], W::NAME));
    info.push(format!(
        "obs armed = span log + feed ({FEED_FRAMES_PER_PASS} frames/pass){}",
        if _flight.is_some() {
            format!(" + flight recorder ({flight_cuts} cuts/pass)")
        } else {
            format!("; flight recorder left out: {flight_cuts} cuts/pass at its fixed 50 ms simulated cadence")
        }
    ));

    let ops = bare.ops_per_pass();
    let mut scratch = Rec::new(ops, 0);
    let (mut units, mut sim, mut heap) = ([Vec::new(), Vec::new()], [0u64; 2], Heap::default());
    for _ in 0..OBS_ROUNDS {
        for (side, bench) in [bare.as_mut(), armed.as_mut()].into_iter().enumerate() {
            let w = run_window(
                bench,
                calib,
                &mut Tracer::off(),
                &mut scratch,
                0.0,
                1,
                false,
            );
            units[side].push(w.passes[0].units());
            sim[side] += w.passes[0].sim_ns;
            if side == 1 {
                heap += w.passes[0].heap;
            }
        }
    }
    rec.attempted += scratch.attempted + 1;
    rec.failed += scratch.failed;
    rec.notes.append(&mut scratch.notes);
    let sim_overhead_ns = sim[1].abs_diff(sim[0]);
    rec.check(sim_overhead_ns == 0, || {
        format!("check: arming obs moved simulated time by {sim_overhead_ns} ns")
    });
    m.set(
        "obs.host_overhead_pct",
        (ratio(host_cost(&units[1]), host_cost(&units[0])) - 1.0) * 100.0,
    );
    m.set("obs.sim_overhead_ns", sim_overhead_ns as f64);
    m.set(
        "obs.alloc_bytes_per_op_armed",
        heap.bytes as f64 / (OBS_ROUNDS * ops) as f64,
    );
}

/// What a reduced-scale run did, for the determinism tests.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Hash of the generated inputs and of every per-op simulated
    /// latency, in op order.
    pub stream: u64,
    /// Simulated throughput, p50 and p99.
    pub sim: [f64; 3],
    /// The window's counts (lock waits, which are host time, zeroed).
    pub counts: Counts,
}

/// Run `workload` at test scale (two kept passes, then its post-run
/// checks, which must pass) and fingerprint it.
pub fn fingerprint(workload: &str, seed: u64) -> Result<Fingerprint, String> {
    fn go<W: Workload>(seed: u64) -> Fingerprint {
        let plan = W::plan(seed, Scale::Test);
        let mut bench = W::build(&plan, Variant::Main);
        let ops = bench.ops_per_pass();
        let mut rec = Rec::new(ops, 2);
        let w = run_window(
            bench.as_mut(),
            &mut Calib::new(),
            &mut Tracer::off(),
            &mut rec,
            0.0,
            2,
            false,
        );
        bench.finish(&mut rec);
        assert_eq!(rec.failed, 0, "{}: {:?}", W::NAME, rec.notes);
        let mut stream = crate::gen::Fnv(W::inputs_hash(&plan));
        stream.nums(rec.samples().iter().copied());
        let samples = rec.sorted_samples();
        Fingerprint {
            stream: stream.0,
            sim: [
                w.sim_ops_per_s(),
                rank(&samples, 0.5) as f64,
                rank(&samples, 0.99) as f64,
            ],
            // Lock waits are host nanoseconds, the one count that may differ.
            counts: Counts {
                lock_wait_ns: 0,
                ..w.counts
            },
        }
    }
    match workload {
        MetaSync::NAME => Ok(go::<MetaSync>(seed)),
        ColdRead::NAME => Ok(go::<ColdRead>(seed)),
        WarmRead::NAME => Ok(go::<WarmRead>(seed)),
        NameiWarm::NAME => Ok(go::<NameiWarm>(seed)),
        ChurnSoftdep::NAME => Ok(go::<ChurnSoftdep>(seed)),
        VolumeStripe::NAME => Ok(go::<VolumeStripe>(seed)),
        other => Err(format!("unknown workload {other:?}")),
    }
}
