//! E9 — the software-development application suite.
//!
//! "Preliminary experience with software-development applications shows
//! performance improvements ranging from 10-300 percent." The suite
//! (untar / copy / compile / search / clean) runs on all five file
//! systems; the report prints per-phase elapsed times and the C-FFS
//! improvement over the conventional baseline in the paper's percentage
//! form.

use crate::report::{header, phase_table, row, rows_json, speedup};
use cffs::build;
use cffs_fslib::MetadataMode;
use cffs_obs::json::{Json, ToJson};
use cffs_obs::obj;
use cffs_workloads::appdev::{self, DevTreeParams};

/// Run once, rendering both the text report and the JSON payload.
pub fn report(mode: MetadataMode, params: DevTreeParams) -> (String, Json) {
    let mut rows = Vec::new();
    for fs in build::five_configs(mode) {
        rows.extend(appdev::run(&fs, params).expect("suite run"));
    }
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
        let base = row(&rows, "conventional", phase);
        let new = row(&rows, "C-FFS", phase);
        out.push_str(&format!(
            "  {phase:<10} +{:.0}%\n",
            (speedup(base, new) - 1.0) * 100.0
        ));
    }
    (out, json)
}
