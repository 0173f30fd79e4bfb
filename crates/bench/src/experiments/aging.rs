//! E7 — file-system aging (Section 4.3).
//!
//! "To get a handle on the impact of file system fragmentation on the
//! performance of C-FFS, we use an aging program similar to that described
//! in [Herrin93]." The disk is churned with creates and deletes biased
//! toward a target utilization, then the small-file benchmark's create and
//! read phases run on the aged image. Sweeping the target utilization
//! shows how free-space fragmentation erodes (but does not eliminate) the
//! grouping advantage: carving contiguous 16-block extents gets harder,
//! groups fill with holes, and whole-group reads shrink.

use crate::report::{header, rows_json};
use cffs::build;
use cffs_core::CffsConfig;
use cffs_disksim::models;
use cffs_fslib::MetadataMode;
use cffs_obs::json::{Json, ToJson};
use cffs_obs::obj;
use cffs_workloads::aging::{age, AgingParams};
use cffs_workloads::sizes::Empirical1993;
use cffs_workloads::smallfile::{self, Assignment, SmallFileParams};
use cffs_workloads::PhaseResult;

/// Utilization targets swept.
pub const UTILIZATIONS: [f64; 5] = [0.10, 0.30, 0.50, 0.70, 0.85];

/// One aged measurement: the full phase rows plus the actual utilization
/// the aging program reached.
pub fn point_rows(cfg: CffsConfig, util: f64, ops: usize) -> (Vec<PhaseResult>, f64) {
    let fs = build::on_disk(models::tiny_test_disk(), cfg);
    let outcome = age(
        &fs,
        AgingParams { utilization: util, ops, ndirs: 20, seed: 1997 },
        &Empirical1993,
    )
    .expect("aging run");
    fs.drop_caches().expect("cache drop");
    // Now the measured workload: fresh dirs, small files, on the aged
    // disk. The file count is fixed *per row* (same for both file
    // systems), scaled down only at the highest utilization where the
    // 64 MB disk cannot hold 500 extra files plus grouping slack.
    let params = SmallFileParams {
        nfiles: if util > 0.75 { 250 } else { 500 },
        file_size: 1024,
        ndirs: 20,
        order: Assignment::RoundRobin,
        ..SmallFileParams::default()
    };
    let rs = smallfile::run(&fs, params).expect("aged benchmark");
    (rs, outcome.final_utilization)
}

fn rates(rows: &[PhaseResult]) -> (f64, f64) {
    let create = rows.iter().find(|r| r.phase == "create").expect("create row");
    let read = rows.iter().find(|r| r.phase == "read").expect("read row");
    (create.items_per_sec(), read.items_per_sec())
}

/// Run the sweep once, rendering both the text report and the JSON payload.
pub fn report(ops: usize) -> (String, Json) {
    let mut points: Vec<Json> = Vec::new();
    let mut out = header(&format!(
        "aging ([Herrin93] program, {ops} ops, 64 MB disk): small-file rates on the aged image"
    ));
    out.push_str(&format!(
        "{:<12} {:>10} {:>14} {:>12} {:>14} {:>12}\n",
        "target util", "actual", "conv create/s", "conv read/s", "cffs create/s", "cffs read/s"
    ));
    out.push_str(&"-".repeat(78));
    out.push('\n');
    for util in UTILIZATIONS {
        let (conv_rows, _) = point_rows(
            CffsConfig::conventional().with_mode(MetadataMode::Delayed),
            util,
            ops,
        );
        let (cffs_rows, actual) =
            point_rows(CffsConfig::cffs().with_mode(MetadataMode::Delayed), util, ops);
        let (conv_c, conv_r) = rates(&conv_rows);
        let (cffs_c, cffs_r) = rates(&cffs_rows);
        points.push(obj![
            ("target_utilization", util.to_json()),
            ("actual_utilization", actual.to_json()),
            ("conventional", rows_json(&conv_rows)),
            ("cffs", rows_json(&cffs_rows)),
        ]);
        out.push_str(&format!(
            "{:<12} {:>9.0}% {:>14.0} {:>12.0} {:>14.0} {:>12.0}\n",
            format!("{:.0}%", util * 100.0),
            actual * 100.0,
            conv_c,
            conv_r,
            cffs_c,
            cffs_r,
        ));
    }
    out.push_str(
        "\nThe grouping read advantage persists on an aged disk but narrows with\n\
         utilization: contiguous 16-block extents become scarce, so more files\n\
         fall back to ungrouped allocation.\n",
    );
    let json = obj![
        ("experiment", "aging".to_json()),
        ("ops", ops.to_json()),
        ("points", Json::Arr(points)),
    ];
    (out, json)
}
