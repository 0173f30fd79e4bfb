//! Look at *what the disk actually does* under each file system.
//!
//! The paper's argument is mechanical: conventional small-file access
//! makes many small, scattered requests (positioning-bound); C-FFS makes
//! few large, adjacent ones (bandwidth-bound). This example records the
//! disk's per-request trace during the small-file read phase and prints
//! the request-size and seek-distance distributions plus the time
//! breakdown — the paper's Figure 2 economics observed live.
//!
//! Run with: `cargo run --release --example access_patterns`

use cffs::build;
use cffs::core::{Cffs, CffsConfig};
use cffs::prelude::*;
use cffs_disksim::models;
use cffs::workloads::smallfile::{Assignment, SmallFileParams};
use cffs::workloads::namegen::{dir_name, file_name};

const P: SmallFileParams = SmallFileParams {
    nfiles: 1500,
    file_size: 1024,
    ndirs: 50,
    order: Assignment::RoundRobin,
    seed: 1997,
};

fn populate(fs: &Cffs) -> FsResult<Vec<Ino>> {
    let root = fs.root();
    let mut dirs = Vec::new();
    for d in 0..P.ndirs {
        dirs.push(fs.mkdir(root, &dir_name(d))?);
    }
    for i in 0..P.nfiles {
        let ino = fs.create(dirs[i % P.ndirs], &file_name(i))?;
        fs.write(ino, 0, &vec![i as u8; P.file_size])?;
    }
    fs.drop_caches()?;
    Ok(dirs)
}

fn read_phase(fs: &Cffs, dirs: &[Ino]) -> FsResult<()> {
    let mut buf = vec![0u8; P.file_size];
    for i in 0..P.nfiles {
        let ino = fs.lookup(dirs[i % P.ndirs], &file_name(i))?;
        fs.read(ino, 0, &mut buf)?;
    }
    Ok(())
}

fn analyze(label: &str, fs: &Cffs) {
    let trace = fs.disk_trace();
    let reads: Vec<_> = trace.iter().filter(|t| !t.write).collect();
    if reads.is_empty() {
        println!("{label}: no disk reads recorded");
        return;
    }
    let n = reads.len() as f64;
    let kb_avg = reads.iter().map(|t| t.sectors as f64 / 2.0).sum::<f64>() / n;
    let seek_avg = reads.iter().map(|t| t.seek_cylinders as f64).sum::<f64>() / n;
    let hit_frac = reads.iter().filter(|t| t.cache_hit).count() as f64 / n;
    let svc_avg =
        reads.iter().map(|t| t.service.as_millis_f64()).sum::<f64>() / n;
    // Request size histogram.
    let mut hist = [0usize; 4]; // 4K, 8-16K, 20-32K, >32K
    for t in &reads {
        let kb = t.sectors / 2;
        let bin = match kb {
            0..=4 => 0,
            5..=16 => 1,
            17..=32 => 2,
            _ => 3,
        };
        hist[bin] += 1;
    }
    println!(
        "{label:<16} {:>6} reads  avg {kb_avg:>5.1} KB  avg seek {seek_avg:>6.1} cyl  \
         {svc_avg:>5.1} ms/req  {:>4.0}% onboard hits",
        reads.len(),
        hit_frac * 100.0
    );
    println!(
        "{:<16} sizes: <=4K:{} 8-16K:{} 20-32K:{} >32K:{}",
        "", hist[0], hist[1], hist[2], hist[3]
    );
}

fn main() -> FsResult<()> {
    println!(
        "read phase of {} x 1 KB files in {} dirs (round-robin), per-request disk trace:\n",
        P.nfiles, P.ndirs
    );
    for cfg in [CffsConfig::conventional(), CffsConfig::cffs()] {
        let label = cfg.label.clone();
        let fs = build::on_disk(models::seagate_st31200(), cfg);
        let dirs = populate(&fs)?;
        fs.set_disk_trace(true);
        let io0 = fs.io_stats();
        read_phase(&fs, &dirs)?;
        analyze(&label, &fs);
        let d = fs.io_stats().delta_since(&io0).disk;
        let busy = d.busy_ns.max(1) as f64;
        println!(
            "{:<16} time: {:.0}% seek, {:.0}% rotation, {:.0}% transfer, {:.0}% overhead\n",
            "",
            d.seek_ns as f64 * 100.0 / busy,
            d.rotation_ns as f64 * 100.0 / busy,
            d.transfer_ns as f64 * 100.0 / busy,
            d.overhead_ns as f64 * 100.0 / busy,
        );
    }
    println!(
        "The conventional system spends its time positioning (seek + rotation)\n\
         for 4 KB payloads; C-FFS converts that time into 64 KB transfers —\n\
         \"exploiting what disks do well (bulk data movement) to avoid what\n\
         they do poorly (reposition to new locations)\"."
    );
    Ok(())
}
