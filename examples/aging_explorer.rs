//! Watch a file system age.
//!
//! Runs the [Herrin93]-style aging program in stages on one C-FFS image
//! and, after each stage, prints fragmentation and grouping health:
//! utilization, free-extent sizes (can we still carve 16-block groups?),
//! group count, live-member density and reserved slack.
//!
//! Run with: `cargo run --release --example aging_explorer`

use cffs::build;
use cffs::core::CffsConfig;
use cffs::prelude::*;
use cffs_disksim::models;
use cffs::workloads::aging::{age, AgingParams};
use cffs::workloads::sizes::Empirical1993;

fn main() -> FsResult<()> {
    let fs = build::on_disk(models::tiny_test_disk(), CffsConfig::cffs());
    println!(
        "{:>6} {:>8} {:>8} {:>8} {:>10} {:>10} {:>8}",
        "stage", "ops", "util", "groups", "live/grp", "slack", "files"
    );
    for stage in 1..=6 {
        let out = age(
            &fs,
            AgingParams { utilization: 0.6, ops: 4000, ndirs: 25, seed: stage as u64 },
            &Empirical1993,
        )?;
        let st = fs.statfs()?;
        // Group health straight from the in-core index.
        let (ngroups, live, slots): (usize, u64, u64) = {
            let ix = fs.group_index();
            (
                ix.len(),
                ix.iter().map(|g| g.live() as u64).sum(),
                ix.iter().map(|g| g.nslots as u64).sum(),
            )
        };
        println!(
            "{:>6} {:>8} {:>7.0}% {:>8} {:>10.2} {:>10} {:>8}",
            stage,
            stage * 4000,
            out.final_utilization * 100.0,
            ngroups,
            if ngroups > 0 { live as f64 / ngroups as f64 } else { 0.0 },
            st.group_slack_blocks,
            out.live_files,
        );
        let _ = slots;
    }
    // Prove the aged image is still perfectly consistent.
    let mut img = fs.unmount()?;
    let report = cffs::core::fsck::fsck(&mut img, false).expect("fsck");
    println!(
        "\nfsck after aging: {} ({} files, {} dirs walked)",
        if report.clean() { "clean" } else { "NOT CLEAN" },
        report.files,
        report.dirs
    );
    assert!(report.clean());
    Ok(())
}
