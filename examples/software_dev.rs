//! The paper's motivating scenario: software development on small files.
//!
//! Runs the synthetic source-tree suite (untar / copy / compile / search /
//! clean) on the conventional baseline and on C-FFS, side by side, and
//! prints the per-phase comparison — the "10-300%" experience of Section 5.
//!
//! Run with: `cargo run --release --example software_dev`

use cffs::build;
use cffs::core::CffsConfig;
use cffs::prelude::*;
use cffs_disksim::models;
use cffs::workloads::appdev::{self, DevTreeParams};

fn main() -> FsResult<()> {
    let params = DevTreeParams::default();
    println!(
        "software-development suite: {} modules x {} sources + {} shared headers\n",
        params.dirs, params.files_per_dir, params.headers
    );

    let mut results = Vec::new();
    for cfg in [CffsConfig::conventional(), CffsConfig::cffs()] {
        let fs = build::on_disk(models::seagate_st31200(), cfg);
        results.push(appdev::run(&fs, params)?);
    }
    let (conv, cffs) = (&results[0], &results[1]);

    println!(
        "{:<10} {:>16} {:>16} {:>12}",
        "phase", "conventional", "C-FFS", "improvement"
    );
    println!("{}", "-".repeat(58));
    for (c, n) in conv.iter().zip(cffs) {
        println!(
            "{:<10} {:>16} {:>16} {:>11.0}%",
            c.phase,
            format!("{}", c.elapsed),
            format!("{}", n.elapsed),
            (c.elapsed.as_secs_f64() / n.elapsed.as_secs_f64() - 1.0) * 100.0
        );
    }
    let tot = |rs: &[cffs::workloads::PhaseResult]| {
        rs.iter().map(|r| r.elapsed.as_secs_f64()).sum::<f64>()
    };
    println!("{}", "-".repeat(58));
    println!(
        "{:<10} {:>15.1}s {:>15.1}s {:>11.0}%",
        "total",
        tot(conv),
        tot(cffs),
        (tot(conv) / tot(cffs) - 1.0) * 100.0
    );
    Ok(())
}
