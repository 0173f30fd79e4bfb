//! E6 — throughput as a function of file size.
//!
//! Grouping targets *small* files: a group extent is 64 KB, and files that
//! outgrow it are moved to ordinary clustered allocation. This sweep
//! creates and reads back files of 1 KB – 256 KB (scaling the count so
//! total payload stays constant) and shows where the grouping advantage
//! decays: the win is largest well below the group size and approaches the
//! plain-clustering result past it — the paper's crossover.

use crate::report::{header, rows_json};
use cffs::build;
use cffs_core::CffsConfig;
use cffs_disksim::models;
use cffs_fslib::MetadataMode;
use cffs_obs::json::{Json, ToJson};
use cffs_obs::obj;
use cffs_workloads::smallfile::{self, Assignment, SmallFileParams};
use cffs_workloads::PhaseResult;

/// File sizes swept, in KB.
pub const SIZES_KB: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Total payload per point, in bytes.
const TOTAL_BYTES: usize = 20 << 20;

/// All phase rows (with counter snapshots) for one variant at one size.
pub fn point_rows(cfg: CffsConfig, size: usize) -> Vec<PhaseResult> {
    let nfiles = (TOTAL_BYTES / size).clamp(50, 20_000);
    let ndirs = (nfiles / 100).clamp(4, 100);
    let params =
        SmallFileParams { nfiles, file_size: size, ndirs, order: Assignment::RoundRobin, ..SmallFileParams::default() };
    let fs = build::on_disk(models::seagate_st31200(), cfg);
    smallfile::run(&fs, params).expect("sweep run")
}

fn rates(rows: &[PhaseResult]) -> (f64, f64) {
    let create = rows.iter().find(|r| r.phase == "create").expect("create row");
    let read = rows.iter().find(|r| r.phase == "read").expect("read row");
    (create.mb_per_sec(), read.mb_per_sec())
}

/// Run the sweep once, rendering both the text report and the JSON payload.
pub fn report() -> (String, Json) {
    let mut points: Vec<Json> = Vec::new();
    let mut out = header("throughput vs file size (create / read, MB/s)");
    out.push_str(&format!(
        "{:<10} {:>12} {:>12} {:>12} {:>12} {:>14} {:>14}\n",
        "size", "conv create", "conv read", "cffs create", "cffs read", "read speedup", "create speedup"
    ));
    out.push_str(&"-".repeat(92));
    out.push('\n');
    for kb in SIZES_KB {
        let size = kb * 1024;
        let conv_rows = point_rows(
            CffsConfig::conventional().with_mode(MetadataMode::Delayed),
            size,
        );
        let cffs_rows = point_rows(CffsConfig::cffs().with_mode(MetadataMode::Delayed), size);
        let (conv_c, conv_r) = rates(&conv_rows);
        let (cffs_c, cffs_r) = rates(&cffs_rows);
        points.push(obj![
            ("size_kb", kb.to_json()),
            ("conventional", rows_json(&conv_rows)),
            ("cffs", rows_json(&cffs_rows)),
        ]);
        out.push_str(&format!(
            "{:<10} {:>12.2} {:>12.2} {:>12.2} {:>12.2} {:>13.2}x {:>13.2}x\n",
            format!("{kb} KB"),
            conv_c,
            conv_r,
            cffs_c,
            cffs_r,
            cffs_r / conv_r,
            cffs_c / conv_c,
        ));
    }
    out.push_str(
        "\nGrouping pays below the 64 KB group size and converges to plain clustering\n\
         above it (large files take the unchanged FFS-style path, as the paper\n\
         prescribes). Metadata writes are delayed here to isolate the data path.\n",
    );
    let json = obj![
        ("experiment", "filesize".to_json()),
        ("points", Json::Arr(points)),
    ];
    (out, json)
}
