//! Ablations of the design choices DESIGN.md calls out.
//!
//! Each sweep holds the small-file workload fixed and varies exactly one
//! knob on C-FFS (or its substrate):
//!
//! * **group size** — the paper fixes 64 KB (16 blocks); what do 4/8/16
//!   block extents buy?
//! * **group-read threshold** — fetch the live run around a miss only
//!   when it holds at least N members ("in most cases").
//! * **driver scheduler** — the testbed used C-LOOK; FCFS and SSTF for
//!   contrast.
//! * **buffer-cache size** — the grouping win needs groups to *survive*
//!   between the accesses they amortize.
//! * **access order** — round-robin vs directory-major across the
//!   benchmark's 100 directories (the locality-vs-adjacency knob).

use crate::report::header;
use cffs::build;
use cffs::core::CffsConfig;
use cffs_cache::CacheConfig;
use cffs_disksim::driver::Scheduler;
use cffs_disksim::models;
use cffs_fslib::MetadataMode;
use cffs_obs::json::{Json, ToJson};
use cffs_obs::{obj, StatsSnapshot};
use cffs_workloads::smallfile::{self, Assignment, SmallFileParams};

fn params(order: Assignment) -> SmallFileParams {
    SmallFileParams { nfiles: 2000, ndirs: 100, order, ..SmallFileParams::default() }
}

/// Files/s (and counter delta) of one phase for a config.
fn phase_rate(cfg: CffsConfig, p: SmallFileParams, phase: &str) -> (f64, Option<StatsSnapshot>) {
    let fs = build::on_disk(models::seagate_st31200(), cfg);
    let rs = smallfile::run(&fs, p).expect("run");
    let row = rs.iter().find(|r| r.phase == phase).expect("phase row");
    (row.items_per_sec(), row.counters.clone())
}

/// Read-phase files/s for a config.
fn read_rate(cfg: CffsConfig, p: SmallFileParams) -> (f64, Option<StatsSnapshot>) {
    phase_rate(cfg, p, "read")
}

/// Create-phase files/s for a config (sync metadata).
fn create_rate(cfg: CffsConfig, p: SmallFileParams) -> (f64, Option<StatsSnapshot>) {
    phase_rate(cfg, p, "create")
}

fn sweep_point(knob: &str, value: impl ToJson, rate: f64, snap: Option<StatsSnapshot>) -> Json {
    let mut j = obj![
        ("knob", knob.to_json()),
        ("value", value.to_json()),
        ("files_per_sec", rate.to_json()),
    ];
    if let (Json::Obj(m), Some(s)) = (&mut j, snap) {
        m.push(("counters".to_string(), s.to_json()));
    }
    j
}

/// Run all sweeps once, rendering the text report and the JSON payload.
pub fn report() -> (String, Json) {
    let mut points: Vec<Json> = Vec::new();
    let mut out = header("ablations (2000 x 1 KB files, 100 dirs)");

    out.push_str("group size (delayed metadata; read phase, files/s):\n");
    for blocks in [4u8, 8, 12, 16] {
        let mut cfg = CffsConfig::cffs().with_mode(MetadataMode::Delayed);
        cfg.group_blocks = blocks;
        let (r, snap) = read_rate(cfg, params(Assignment::RoundRobin));
        points.push(sweep_point("group_blocks", blocks, r, snap));
        out.push_str(&format!("  {:>3} blocks ({:>3} KB)  {r:>8.0}\n", blocks, blocks as u32 * 4));
    }

    out.push_str("\ngroup-read threshold (min live members; read files/s):\n");
    for min in [1u32, 2, 4, 8] {
        let mut cfg = CffsConfig::cffs().with_mode(MetadataMode::Delayed);
        cfg.group_read_min = min;
        let (r, snap) = read_rate(cfg, params(Assignment::RoundRobin));
        points.push(sweep_point("group_read_min", min, r, snap));
        out.push_str(&format!("  >= {min:>2} live          {r:>8.0}\n"));
    }

    out.push_str("\ndriver scheduler (sync metadata; create files/s):\n");
    for sched in [Scheduler::Fcfs, Scheduler::CLook, Scheduler::Sstf] {
        let mut cfg = CffsConfig::cffs();
        cfg.scheduler = sched;
        let (r, snap) = create_rate(cfg, params(Assignment::RoundRobin));
        points.push(sweep_point("scheduler", format!("{sched:?}"), r, snap));
        out.push_str(&format!("  {sched:<8?}          {r:>8.0}\n"));
    }

    out.push_str("\nbuffer-cache size (delayed metadata; read files/s):\n");
    for mb in [2usize, 4, 8, 16, 32] {
        let mut cfg = CffsConfig::cffs().with_mode(MetadataMode::Delayed);
        cfg.cache = CacheConfig { nbufs: mb * 256, ..CacheConfig::default() };
        let (r, snap) = read_rate(cfg, params(Assignment::RoundRobin));
        points.push(sweep_point("cache_mb", mb, r, snap));
        out.push_str(&format!("  {mb:>3} MB             {r:>8.0}\n"));
    }

    out.push_str("\naccess order (delayed metadata; read files/s, C-FFS vs conventional):\n");
    for (name, order) in [("round-robin", Assignment::RoundRobin), ("dir-major", Assignment::DirMajor)] {
        let (c, c_snap) = read_rate(CffsConfig::cffs().with_mode(MetadataMode::Delayed), params(order));
        let (v, v_snap) = read_rate(
            CffsConfig::conventional().with_mode(MetadataMode::Delayed),
            params(order),
        );
        points.push(sweep_point("order_cffs", name, c, c_snap));
        points.push(sweep_point("order_conventional", name, v, v_snap));
        out.push_str(&format!(
            "  {name:<12} cffs {c:>7.0}  conventional {v:>7.0}  ({:.2}x)\n",
            c / v
        ));
    }
    out.push_str("\nprefetching extension (8 MB sequential read in 8 KB calls; the paper's\nimplementation had none):\n");
    for pf in [0u32, 8, 32] {
        let mut cfg = CffsConfig::cffs().with_mode(MetadataMode::Delayed);
        cfg.prefetch_blocks = pf;
        let fs = build::on_disk(models::seagate_st31200(), cfg);
        let f = fs.create(fs.root(), "big").expect("create");
        fs.write(f, 0, &vec![5u8; 8 << 20]).expect("write");
        fs.drop_caches().expect("drop");
        let io0 = fs.io_stats();
        let before = fs.obs().snapshot("cffs", fs.now().as_nanos());
        let t0 = fs.now();
        let mut buf = vec![0u8; 8192];
        let mut off = 0u64;
        while fs.read(f, off, &mut buf).expect("read") > 0 {
            off += 8192;
        }
        let secs = (fs.now() - t0).as_secs_f64();
        let snap = fs.obs().snapshot("cffs", fs.now().as_nanos()).delta(&before);
        points.push(sweep_point("prefetch_blocks", pf, 8.0 / secs, Some(snap)));
        out.push_str(&format!(
            "  {:>3} blocks ahead   {:>6.2} MB/s  ({} disk reads)\n",
            pf,
            8.0 / secs,
            fs.io_stats().delta_since(&io0).disk.reads
        ));
    }

    out.push_str(
        "\nReadings: bigger extents amortize positioning further (diminishing past\n\
         ~32 KB at this file size); an aggressive read threshold costs little on a\n\
         fresh disk but protects aged ones; C-LOOK vs FCFS matters most for the\n\
         sync-write storms; the grouping advantage needs the cache to hold the\n\
         round-robin working set (~6.4 MB here) and collapses below it; and with\n\
         dir-major access even the conventional layout is disk-sequential, which\n\
         is exactly the paper's point about locality vs adjacency. FS-level\n\
         prefetch peaks at a moderate depth: small windows let the drive's own\n\
         on-board read-ahead run ahead of the host between requests, while very\n\
         deep windows serialize everything into long media transfers.\n",
    );
    let json = obj![
        ("experiment", "ablation".to_json()),
        ("points", Json::Arr(points)),
    ];
    (out, json)
}
