//! `cffs-inspect` — a debugfs-style examiner for C-FFS disk images.
//!
//! Usage:
//!   cffs-inspect <image>          # inspect a saved image (Disk::save_image)
//!   cffs-inspect --demo [path]    # build a demo image (and optionally save it)
//!   cffs-inspect stats  <image>|--demo            # counter snapshot as JSON
//!   cffs-inspect trace  [--last N] <image>|--demo # trace events as JSONL
//!   cffs-inspect timeline [--last N] <image>|--demo # span-resolved ops as JSONL
//!   cffs-inspect histo  <image>|--demo            # histogram bucket tables
//!   cffs-inspect heatmap [--json] <image>|--demo  # per-CG occupancy/traffic grid
//!   cffs-inspect regroup [--apply] [--json] <image>|--demo # regrouping plan (dry-run by default)
//!   cffs-inspect flamegraph [--fold|--svg-ready] <image>|--demo # collapsed-stack profile
//!   cffs-inspect volumes [--json]                 # demo scale-out volume set, per-volume table
//!
//! Prints the superblock, per-cylinder-group occupancy, the group
//! descriptor table, the namespace tree annotated with each inode's
//! placement (embedded vs external) and its blocks' group membership,
//! and finishes with a full fsck report.
//!
//! `stats` and `trace` mount the image and walk the entire namespace cold
//! (every file's first byte is read), then dump what the observability
//! layer saw: `stats` prints the [`cffs_obs::StatsSnapshot`] of the whole
//! stack (disk, driver, buffer cache, file system) as JSON; `trace`
//! prints the newest `N` (default 64) ring-buffer events as JSONL.
//!
//! `timeline` regroups the trace ring causally: one JSON line per op
//! span, carrying the op kind, open time, latency, and every disk
//! request the op caused (with `queue_ns` = request issue time relative
//! to the span open, and `service_ns` = the request's simulated service
//! time). `histo` renders every non-empty latency/size/seek/utilization
//! histogram as a log2-bucket table with count, mean, and p50/p90/p99.
//!
//! `heatmap` folds the trace ring's disk requests into per-cylinder-group
//! occupancy and traffic buckets — a text grid of where the image is full
//! and hot (`--json` for the machine-readable form). `regroup` scores
//! every directory's grouping quality and prints the relocation plan the
//! online regrouping engine would execute; `--apply` executes it (and
//! writes the image back in place when inspecting a saved image),
//! finishing with an fsck report.
//!
//! `volumes` formats a demo scale-out set (4 striped volumes), replays a
//! small seeded slice of the multi-client session workload against it,
//! and prints one row per volume — ops served, disk reads/writes, queue
//! depth, group-fetch utilization, block occupancy, fsck verdict — plus
//! the set-level stripe registry size (`--json` for the machine-readable
//! form). Single-threaded on a fixed seed, so the output is
//! byte-identical run to run.
//!
//! `flamegraph` folds the cold walk's trace ring into collapsed-stack
//! format (`walk;{op};disk_req/{queue,service}` leaves weighted in
//! simulated nanoseconds, with `idle` covering unattributed time) —
//! pipeable to any flamegraph renderer. `--svg-ready` emits a
//! self-contained SVG icicle chart instead. Total weight always equals
//! the elapsed simulated time, and equal seeds give byte-identical
//! output.

use cffs::core::layout::{decode_ino, InoRef, Superblock, SB_BLOCK};
use cffs::core::{fsck, Cffs, CffsConfig};
use cffs::fslib::{BLOCK_SIZE, SECTORS_PER_BLOCK};
use cffs::prelude::*;
use cffs_disksim::{models, Disk};
use cffs_obs::json::{Json, ToJson};
use cffs_obs::obj;
use std::path::Path;

fn demo_image() -> Disk {
    let fs = cffs::build::on_disk(models::tiny_test_disk(), CffsConfig::cffs());
    path::mkdir_p(&fs, "/src/include").expect("mkdir");
    for (p, data) in [
        ("/src/main.c", vec![b'm'; 1800]),
        ("/src/util.c", vec![b'u'; 900]),
        ("/src/include/util.h", vec![b'h'; 300]),
        ("/README", vec![b'r'; 450]),
        ("/bigfile.bin", vec![b'B'; 120_000]),
    ] {
        path::write_file(&fs, p, &data).expect("write");
    }
    let f = path::resolve(&fs, "/src/util.c").expect("resolve");
    fs.link(f, fs.root(), "util-alias.c").expect("link");
    fs.unmount().expect("unmount")
}

fn walk(fs: &Cffs, dir: Ino, prefix: &str, out: &mut String) {
    for e in fs.readdir(dir).expect("readdir") {
        let attr = fs.getattr(e.ino).expect("getattr");
        let placement = match decode_ino(e.ino) {
            InoRef::Embedded { blk, off, gen } => format!("embedded @ block {blk}+{off} gen {gen}"),
            InoRef::External(slot) => format!("external slot {slot}"),
        };
        let grouping = if attr.kind == FileKind::File && attr.size > 0 {
            let mut b = [0u8; 1];
            let _ = fs.read(e.ino, 0, &mut b);
            match fs.cache_block_of(e.ino, 0) {
                Some(blk) => match fs.group_index().group_of_block(blk) {
                    Some(g) => format!(
                        ", data in group {}/{} [{}..+{}]",
                        g.cg, g.idx, g.start, g.nslots
                    ),
                    None => format!(", data ungrouped @ block {blk}"),
                },
                None => String::new(),
            }
        } else {
            String::new()
        };
        out.push_str(&format!(
            "{prefix}{} {:>8} B  nlink {}  [{placement}{grouping}]\n",
            match attr.kind {
                FileKind::Dir => format!("{}/", e.name),
                FileKind::File => e.name.clone(),
            },
            attr.size,
            attr.nlink,
        ));
        if attr.kind == FileKind::Dir {
            walk(fs, e.ino, &format!("{prefix}  "), out);
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: cffs-inspect <image> | --demo [save-path]\n       \
         cffs-inspect stats <image>|--demo\n       \
         cffs-inspect trace [--last N] <image>|--demo\n       \
         cffs-inspect timeline [--last N] <image>|--demo\n       \
         cffs-inspect histo <image>|--demo\n       \
         cffs-inspect heatmap [--json] <image>|--demo\n       \
         cffs-inspect regroup [--apply] [--json] <image>|--demo\n       \
         cffs-inspect flamegraph [--fold|--svg-ready] <image>|--demo\n       \
         cffs-inspect volumes [--json]\n       \
         cffs-inspect postmortem [--json] <FLIGHT_*.jsonl>\n       \
         cffs-inspect diff [--json] <BENCH_A.json> <BENCH_B.json>"
    );
    std::process::exit(2);
}

/// The image argument of a subcommand tail: `--demo` or the first
/// non-flag argument.
fn image_arg(args: &[String]) -> Option<&str> {
    args.iter().map(String::as_str).find(|a| *a == "--demo" || !a.starts_with("--"))
}

fn disk_from(arg: Option<&str>) -> Disk {
    match arg {
        Some("--demo") => demo_image(),
        Some(p) => Disk::load_image(Path::new(p)).expect("load image"),
        None => usage(),
    }
}

/// Mount `disk` with the inode placement its superblock records: an
/// image with per-CG inode tables is classic FFS, any other a C-FFS.
fn mount(disk: Disk) -> Cffs {
    let mut buf = vec![0u8; BLOCK_SIZE];
    disk.raw_read(SB_BLOCK * SECTORS_PER_BLOCK, &mut buf);
    let sb = Superblock::read_from(&buf).expect("superblock");
    let cfg = if sb.itable_bytes != 0 { CffsConfig::ffs() } else { CffsConfig::cffs() };
    Cffs::mount(disk, cfg).expect("mount")
}

/// Mount and walk the whole namespace cold so the counters and trace ring
/// reflect a real traversal of the image.
fn mounted_walk(disk: Disk) -> Cffs {
    let fs = mount(disk);
    let mut out = String::new();
    let root = fs.root();
    walk(&fs, root, "  /", &mut out);
    fs
}

fn stats_cmd(args: &[String]) {
    let fs = mounted_walk(disk_from(args.first().map(String::as_str)));
    let obs = fs.obs();
    let snap = obs.snapshot("cffs-inspect", fs.now().as_nanos());
    let mut j = snap.to_json();
    // The live signal registry (EWMAs, armed thresholds, crossing
    // counts) rides along: the snapshot is cumulative history, the
    // signals are the stack's opinion of *now*.
    if let Json::Obj(m) = &mut j {
        m.push(("signals".to_string(), obs.signals_json()));
    }
    println!("{}", j.to_string_pretty());
}

/// Parse `[--last N] <image>` from a subcommand's argument tail.
fn last_and_image(args: &[String], default_last: usize) -> (usize, Option<&str>) {
    let mut last = default_last;
    let mut image: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--last" {
            last = match args.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(n) => n,
                None => usage(),
            };
            i += 2;
        } else {
            image = Some(args[i].as_str());
            i += 1;
        }
    }
    (last, image)
}

fn trace_cmd(args: &[String]) {
    let (last, image) = last_and_image(args, 64);
    let fs = mounted_walk(disk_from(image));
    let obs = fs.obs();
    let events = obs.recent_events(last);
    // Same wrap bookkeeping as `timeline`: make it explicit when the
    // ring overwrote older events, so a short listing is never mistaken
    // for the whole history.
    let recorded = obs.events_recorded();
    if recorded > events.len() as u64 {
        println!(
            "{{\"truncated\": true, \"events_recorded\": {recorded}, \"events_shown\": {}}}",
            events.len()
        );
    }
    for e in events {
        println!("{}", e.to_jsonl());
    }
}

/// Span-resolved timeline: regroup the trace ring by causing span and
/// emit one JSONL record per op, newest-window, oldest span first. Disk
/// requests issued outside any span (mount, background writeback) are
/// gathered under a final `"span": 0` record with op `"(none)"`.
fn timeline_cmd(args: &[String]) {
    let (last, image) = last_and_image(args, cffs_obs::DEFAULT_TRACE_CAPACITY);
    let fs = mounted_walk(disk_from(image));
    let obs = fs.obs();
    let events = obs.recent_events(last);
    // Ring-wrap bookkeeping: when the ring (or --last) dropped older
    // events, spans whose open time predates the retained window are
    // flagged `truncated` — their io lists may be missing requests.
    let wrapped = obs.events_recorded() > events.len() as u64;
    let window_start = if wrapped { events.first().map_or(0, |e| e.t_ns) } else { 0 };

    // One op span = one `op.*` close event plus every other event stamped
    // with its id. Spans are ids in allocation order, so BTreeMap keeps
    // the output chronological and deterministic.
    struct SpanRec {
        op: &'static str,
        t_ns: Option<u64>,
        dur_ns: u64,
        io: Vec<Json>,
    }
    let mut spans: std::collections::BTreeMap<u64, SpanRec> = std::collections::BTreeMap::new();
    for e in &events {
        let rec = spans.entry(e.span).or_insert(SpanRec {
            op: if e.span == 0 { "(none)" } else { e.op },
            t_ns: None,
            dur_ns: 0,
            io: Vec::new(),
        });
        if e.tag.starts_with("op.") {
            rec.op = e.op;
            rec.t_ns = Some(e.t_ns);
            rec.dur_ns = e.dur_ns;
        } else {
            rec.io.push(obj![
                ("tag", Json::Str(e.tag.to_string())),
                ("t_ns", Json::Int(e.t_ns as i64)),
                ("lba", Json::Int(e.a as i64)),
                ("b", Json::Int(e.b as i64)),
                ("service_ns", Json::Int(e.dur_ns as i64)),
            ]);
        }
    }
    // Second pass: queue_ns (issue time relative to span open) needs the
    // span's open time, which arrives with the close event *after* its
    // disk requests in ring order.
    for (id, rec) in &mut spans {
        if *id == 0 {
            continue;
        }
        let t0 = rec.t_ns;
        for io in &mut rec.io {
            if let (Json::Obj(m), Some(t0)) = (io, t0) {
                let t = match m.iter().find(|(k, _)| k == "t_ns") {
                    Some((_, Json::Int(t))) => *t as u64,
                    _ => continue,
                };
                m.push(("queue_ns".to_string(), Json::Int(t.saturating_sub(t0) as i64)));
            }
        }
    }
    let (zero, rest): (Vec<_>, Vec<_>) = spans.into_iter().partition(|(id, _)| *id == 0);
    for (id, rec) in rest.into_iter().chain(zero) {
        // Spans whose close event was evicted from the ring keep their io
        // events but lose open time/latency; emit t_ns/dur_ns as null so
        // the record is visibly partial rather than silently wrong.
        // `truncated` also covers closed spans that opened before the
        // retained window (some of their io events were overwritten).
        let truncated =
            id != 0 && (rec.t_ns.is_none() || (wrapped && rec.t_ns.is_some_and(|t| t <= window_start)));
        let line = obj![
            ("span", Json::Int(id as i64)),
            ("op", Json::Str(rec.op.to_string())),
            ("t_ns", rec.t_ns.map_or(Json::Null, |t| Json::Int(t as i64))),
            (
                "dur_ns",
                if rec.t_ns.is_some() { Json::Int(rec.dur_ns as i64) } else { Json::Null }
            ),
            ("truncated", Json::Bool(truncated)),
            ("io", Json::Arr(rec.io)),
        ];
        println!("{line}");
    }
}

/// Collapsed-stack profile of the cold namespace walk. Default (and
/// `--fold`) prints `stack weight` lines — the format every flamegraph
/// renderer consumes; `--svg-ready` renders a self-contained SVG icicle
/// chart. The fold's total weight equals the elapsed simulated
/// nanoseconds: every ns lands in exactly one leaf (op self time, disk
/// queue, disk service, `idle`, or `(evicted)` for time before the
/// retained ring window).
fn flamegraph_cmd(args: &[String]) {
    let svg = args.iter().any(|a| a == "--svg-ready");
    let fs = mounted_walk(disk_from(image_arg(args)));
    let obs = fs.obs();
    let events = obs.recent_events(cffs_obs::DEFAULT_TRACE_CAPACITY);
    let fold =
        cffs_obs::prof::fold_ring(&events, obs.events_recorded(), "walk", fs.now().as_nanos());
    if svg {
        print!("{}", fold.svg());
    } else {
        print!("{}", fold.collapse());
    }
}

/// Histogram bucket tables: every non-empty histogram in the snapshot,
/// with count/mean/p50/p90/p99 and one row per occupied log2 bucket.
fn histo_cmd(args: &[String]) {
    let fs = mounted_walk(disk_from(args.first().map(String::as_str)));
    let snap = fs.obs().snapshot("cffs-inspect", fs.now().as_nanos());
    for (name, h) in &snap.histograms {
        if h.count() == 0 {
            continue;
        }
        println!(
            "{name}: count {}  mean {}  p50 {}  p90 {}  p99 {}",
            h.count(),
            h.mean(),
            h.quantile(0.50),
            h.quantile(0.90),
            h.quantile(0.99)
        );
        for (i, &n) in h.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            println!(
                "  [{:>12} .. {:>12}] {:>8}",
                cffs_obs::histo_bucket_lo(i),
                cffs_obs::histo_bucket_hi(i),
                n
            );
        }
        println!();
    }
}

/// Per-cylinder-group occupancy and traffic, folded from the trace ring
/// left behind by the cold namespace walk.
fn heatmap_cmd(args: &[String]) {
    let fs = mounted_walk(disk_from(image_arg(args)));
    let events = fs.obs().recent_events(cffs_obs::DEFAULT_TRACE_CAPACITY);
    let heat = cffs::regroup::heatmap::build(&fs, &events);
    if args.iter().any(|a| a == "--json") {
        println!("{}", cffs::regroup::heatmap::to_json(&heat).to_string_pretty());
    } else {
        print!("{}", cffs::regroup::heatmap::render(&heat));
    }
}

/// Score every directory's grouping quality and print the relocation plan
/// (dry-run); `--apply` executes it through the crash-safe protocol and
/// writes a saved image back in place.
fn regroup_cmd(args: &[String]) {
    let apply = args.iter().any(|a| a == "--apply");
    let json = args.iter().any(|a| a == "--json");
    let image = image_arg(args);
    let mut fs = mount(disk_from(image));
    let cfg = cffs::regroup::RegroupConfig::exhaustive();
    let plan = cffs::regroup::plan(&mut fs, &cfg).expect("plan");
    if json {
        println!("{}", plan.to_json().to_string_pretty());
    } else {
        print!("{}", plan.render());
    }
    if !apply {
        println!("(dry run; pass --apply to relocate)");
        return;
    }
    let out = cffs::regroup::execute(&mut fs, &plan, &cfg).expect("execute");
    fs.sync().expect("sync");
    println!(
        "applied: {} blocks moved into {} fresh extents across {} directories \
         ({} stale skips, {} carve failures)",
        out.blocks_moved, out.groups_formed, out.dirs_regrouped, out.skipped_stale, out.carve_failures
    );
    let mut img = fs.unmount().expect("unmount");
    let report = fsck::fsck(&mut img, false).expect("fsck");
    println!(
        "fsck after regroup: {}",
        if report.clean() { "clean" } else { "INCONSISTENT" }
    );
    for e in &report.errors {
        println!("  error: {e}");
    }
    if let Some(p) = image.filter(|p| *p != "--demo") {
        img.save_image(Path::new(p)).expect("save image");
        println!("image updated in place: {p}");
    }
}

/// Demo scale-out volume set: format 4 striped volumes, replay a small
/// seeded slice of the multi-client session workload, and print one row
/// per volume. Single client thread on a fixed seed, so equal
/// invocations give byte-identical output (the determinism contract the
/// other subcommands keep).
fn volumes_cmd(args: &[String]) {
    use cffs::volume::{VolumeCfg, VolumeSet};
    use cffs::workloads::concurrent::{self, ConcurrentParams, Window};
    use cffs_obs::{Ctr, Sig};

    let json = args.iter().any(|a| a == "--json");
    const NVOLS: usize = 4;
    let disks: Vec<Disk> =
        (0..NVOLS).map(|_| Disk::new(models::tiny_test_disk())).collect();
    let cfg = VolumeCfg::new(CffsConfig::cffs());
    let stripe_threshold = cfg.stripe_threshold;
    let vs = VolumeSet::format(disks, cfg).expect("format volume set");

    // Small enough to finish in well under a second, big enough that the
    // Zipf-skewed sessions shard directories across every volume and the
    // big-file reads exercise the striped layout.
    let (sessions, ops) = (48, 8);
    let p = ConcurrentParams {
        nthreads: 1,
        ndirs: 8,
        files_per_dir: 4,
        file_size: 4096,
        window: Window::Zipf { sessions, ops },
        seed: 42,
    };
    let r = concurrent::run(&vs, &p).expect("multi-client run");
    let fscks = vs.fsck_all().expect("fsck every volume");
    let depths = vs.queue_depths();

    let mut rows = Vec::with_capacity(vs.nvols());
    for (v, obs) in vs.vol_obs().iter().enumerate() {
        let st = vs.statfs_vol(v).expect("statfs");
        rows.push((
            v,
            obs.thread_ops().iter().sum::<u64>(),
            obs.get(Ctr::DiskReads),
            obs.get(Ctr::DiskWrites),
            depths[v],
            obs.signal(Sig::GroupFetchUtil).ewma,
            st.total_blocks - st.free_blocks,
            st.total_blocks,
            fscks[v].clean(),
        ));
    }

    if json {
        let j = obj![
            ("nvols", Json::Int(vs.nvols() as i64)),
            ("stripe_threshold", Json::Int(stripe_threshold as i64)),
            ("stripes", Json::Int(vs.stripe_count() as i64)),
            ("total_ops", Json::Int(r.total_ops() as i64)),
            ("bytes", Json::Int(r.bytes as i64)),
            ("elapsed_ns", Json::Int(r.elapsed.as_nanos() as i64)),
            (
                "volumes",
                Json::Arr(
                    rows.iter()
                        .map(|&(v, ops, dr, dw, qd, gf, used, total, clean)| {
                            obj![
                                ("vol", Json::Int(v as i64)),
                                ("ops", Json::Int(ops as i64)),
                                ("dreads", Json::Int(dr as i64)),
                                ("dwrites", Json::Int(dw as i64)),
                                ("queue_depth", Json::Int(qd as i64)),
                                (
                                    "gf_util_ewma_milli",
                                    Json::Int((gf * 1000.0).round() as i64)
                                ),
                                ("used_blocks", Json::Int(used as i64)),
                                ("total_blocks", Json::Int(total as i64)),
                                ("fsck_clean", Json::Bool(clean)),
                            ]
                        })
                        .collect(),
                )
            ),
        ];
        println!("{}", j.to_string_pretty());
        return;
    }

    println!(
        "volume set: {} volumes, stripe threshold {} KB, {} striped file(s)",
        vs.nvols(),
        stripe_threshold / 1024,
        vs.stripe_count()
    );
    println!(
        "workload: {} sessions x {} ops, {} dirs x {} files, seed {} ({} thread)",
        sessions, ops, p.ndirs, p.files_per_dir, p.seed, p.nthreads
    );
    println!("total: {} ops, {} bytes, elapsed {}\n", r.total_ops(), r.bytes, r.elapsed);
    println!(
        "{:<4} {:>8} {:>8} {:>9} {:>7} {:>8} {:>15} {:>6}",
        "vol", "ops", "dreads", "dwrites", "qdepth", "gf-util", "used/total blk", "fsck"
    );
    println!("{}", "-".repeat(74));
    for (v, ops, dr, dw, qd, gf, used, total, clean) in rows {
        println!(
            "{v:<4} {ops:>8} {dr:>8} {dw:>9} {qd:>7} {:>8} {:>15} {:>6}",
            format!("{gf:.1}%"),
            format!("{used}/{total}"),
            if clean { "clean" } else { "DIRTY" },
        );
    }
}

/// `postmortem [--json] <FLIGHT file>`: parse a flight-recorder dump
/// and correlate its captured window into a diagnosis report.
fn postmortem_cmd(args: &[String]) {
    let json_mode = args.iter().any(|a| a == "--json");
    let Some(path) = image_arg(args) else { usage() };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cffs-inspect: read {path}: {e}");
        std::process::exit(2);
    });
    let report = cffs_obs::feed::parse_feed(&text).and_then(|dump| cffs_obs::flight::postmortem(&dump));
    let report = report.unwrap_or_else(|e| {
        eprintln!("cffs-inspect: {path}: {e}");
        std::process::exit(2);
    });
    if json_mode {
        println!("{}", report.to_string_pretty());
    } else {
        print!("{}", cffs_obs::flight::render_postmortem(&report));
    }
}

/// `diff [--json] <A.json> <B.json>`: attribute every moved number
/// between two BENCH payloads (A = baseline/before, B = current/after).
fn diff_cmd(args: &[String]) {
    let json_mode = args.iter().any(|a| a == "--json");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if paths.len() != 2 {
        usage();
    }
    let load = |path: &str| -> Json {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cffs-inspect: read {path}: {e}");
            std::process::exit(2);
        });
        cffs_obs::json::parse(&text).unwrap_or_else(|e| {
            eprintln!("cffs-inspect: parse {path}: {e:?}");
            std::process::exit(2);
        })
    };
    let (a, b) = (load(paths[0]), load(paths[1]));
    let report = cffs_obs::diff::diff_reports(&a, &b);
    if json_mode {
        println!("{}", report.to_string_pretty());
    } else {
        print!("{}", cffs_obs::diff::render_diff(&report));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("stats") => return stats_cmd(&args[2..]),
        Some("trace") => return trace_cmd(&args[2..]),
        Some("timeline") => return timeline_cmd(&args[2..]),
        Some("histo") => return histo_cmd(&args[2..]),
        Some("heatmap") => return heatmap_cmd(&args[2..]),
        Some("regroup") => return regroup_cmd(&args[2..]),
        Some("flamegraph") => return flamegraph_cmd(&args[2..]),
        Some("volumes") => return volumes_cmd(&args[2..]),
        Some("postmortem") => return postmortem_cmd(&args[2..]),
        Some("diff") => return diff_cmd(&args[2..]),
        _ => {}
    }
    let disk = match args.get(1).map(String::as_str) {
        Some("--demo") => {
            let d = demo_image();
            if let Some(p) = args.get(2) {
                d.save_image(Path::new(p)).expect("save image");
                println!("(demo image saved to {p})\n");
            }
            d
        }
        Some(p) => Disk::load_image(Path::new(p)).expect("load image"),
        None => usage(),
    };

    let fs = mount(disk);
    let sb = fs.superblock().clone();
    println!("superblock:");
    println!("  total blocks        {}", sb.total_blocks);
    println!("  cylinder groups     {} x {} blocks", sb.cg_count, sb.cg_size);
    println!(
        "  external inode file {} slot(s) in {} block(s)",
        sb.exfile_slots, sb.exfile.blocks
    );
    let st = fs.statfs().expect("statfs");
    println!(
        "  space               {} free / {} total ({} group slack)",
        st.free_blocks, st.total_blocks, st.group_slack_blocks
    );

    println!("\ngroups ({}):", fs.group_index().len());
    let mut groups: Vec<_> = fs.group_index().iter().copied().collect();
    groups.sort_by_key(|g| (g.cg, g.idx));
    for g in groups {
        println!(
            "  {}/{}: blocks {}..+{}  owner {:#x}  members {:016b} ({} live, {} slack)",
            g.cg,
            g.idx,
            g.start,
            g.nslots,
            g.owner,
            g.member_valid,
            g.live(),
            g.slack()
        );
    }

    println!("\nnamespace:");
    let mut out = String::new();
    let root = fs.root();
    walk(&fs, root, "  /", &mut out);
    print!("{out}");

    let mut img = fs.unmount().expect("unmount");
    let report = fsck::fsck(&mut img, false).expect("fsck");
    println!(
        "\nfsck: {} ({} files, {} dirs)",
        if report.clean() { "clean" } else { "INCONSISTENT" },
        report.files,
        report.dirs
    );
    for e in &report.errors {
        println!("  error: {e}");
    }
}
