//! E9 — the software-development application suite.
//!
//! "Preliminary experience with software-development applications shows
//! performance improvements ranging from 10-300 percent." The suite
//! (untar / copy / compile / search / clean) runs on all five file
//! systems; the report prints per-phase elapsed times and the C-FFS
//! improvement over the conventional baseline in the paper's percentage
//! form.

use crate::report::{header, phase_table, rows_json, speedup};
use cffs::build;
use cffs_fslib::MetadataMode;
use cffs_obs::json::{Json, ToJson};
use cffs_obs::obj;
use cffs_workloads::appdev::{self, DevTreeParams};
use cffs_workloads::PhaseResult;

/// Run the suite on all five file systems.
pub fn run_all(mode: MetadataMode, params: DevTreeParams) -> Vec<PhaseResult> {
    let mut all = Vec::new();
    for fs in build::five_configs(mode) {
        all.extend(appdev::run(&fs, params).expect("suite run"));
    }
    all
}

/// Run once, rendering both the text report and the JSON payload.
pub fn report(mode: MetadataMode, params: DevTreeParams) -> (String, Json) {
    let rows = run_all(mode, params);
    let json = obj![
        ("experiment", "apps".to_json()),
        ("mode", format!("{mode:?}").to_json()),
        (
            "params",
            obj![
                ("dirs", params.dirs.to_json()),
                ("files_per_dir", params.files_per_dir.to_json()),
                ("headers", params.headers.to_json()),
            ]
        ),
        ("rows", rows_json(&rows)),
    ];
    let mut out = header(&format!(
        "software-development suite ({} dirs x {} files + {} headers, metadata={:?})",
        params.dirs, params.files_per_dir, params.headers, mode
    ));
    out.push_str(&phase_table(&rows));
    out.push_str("\nC-FFS improvement over conventional (paper: 10-300%):\n");
    for phase in ["untar", "copy", "compile", "search", "clean"] {
        let base = rows
            .iter()
            .find(|r| r.fs == "conventional" && r.phase == phase)
            .expect("baseline row");
        let new = rows.iter().find(|r| r.fs == "C-FFS" && r.phase == phase).expect("cffs row");
        out.push_str(&format!(
            "  {phase:<10} +{:.0}%\n",
            (speedup(base, new) - 1.0) * 100.0
        ));
    }
    (out, json)
}

/// Render the report.
pub fn run(mode: MetadataMode, params: DevTreeParams) -> String {
    report(mode, params).0
}
