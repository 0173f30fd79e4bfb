//! E12 (extra) — a PostMark-style server workload.
//!
//! PostMark appeared the same year as the paper and measures exactly the
//! population C-FFS targets: small short-lived files under steady
//! create/delete/read/append churn (mail, news, web). Not a paper
//! artifact — included because a 1997 reviewer would have asked for it.

use crate::report::{header, phase_table, rows_json, speedup};
use cffs::build;
use cffs_fslib::MetadataMode;
use cffs_obs::json::{Json, ToJson};
use cffs_obs::obj;
use cffs_workloads::postmark::{self, PostmarkParams};
use cffs_workloads::PhaseResult;

/// Run PostMark on all five file systems.
pub fn run_all(mode: MetadataMode, params: PostmarkParams) -> Vec<PhaseResult> {
    let mut all = Vec::new();
    for fs in build::five_configs(mode) {
        all.extend(postmark::run(&fs, params).expect("postmark run"));
    }
    all
}

/// Run once, rendering both the text report and the JSON payload.
pub fn report(mode: MetadataMode, params: PostmarkParams) -> (String, Json) {
    let rows = run_all(mode, params);
    let json = obj![
        ("experiment", "postmark".to_json()),
        ("mode", format!("{mode:?}").to_json()),
        (
            "params",
            obj![
                ("nfiles", params.nfiles.to_json()),
                ("transactions", params.transactions.to_json()),
                ("min_size", params.min_size.to_json()),
                ("max_size", params.max_size.to_json()),
            ]
        ),
        ("rows", rows_json(&rows)),
    ];
    let mut out = header(&format!(
        "PostMark-style workload ({} files, {} transactions, {}-{} B, metadata={:?})",
        params.nfiles, params.transactions, params.min_size, params.max_size, mode
    ));
    out.push_str(&phase_table(&rows));
    out.push_str("\nC-FFS speedup over conventional:\n");
    for phase in ["pm-create", "pm-transactions", "pm-delete"] {
        let base = rows
            .iter()
            .find(|r| r.fs == "conventional" && r.phase == phase)
            .expect("baseline row");
        let new = rows.iter().find(|r| r.fs == "C-FFS" && r.phase == phase).expect("cffs row");
        out.push_str(&format!(
            "  {phase:<16} {:>5.2}x   ({} -> {} disk requests)\n",
            speedup(base, new),
            base.disk_requests(),
            new.disk_requests()
        ));
    }
    (out, json)
}

/// Render the report.
pub fn run(mode: MetadataMode, params: PostmarkParams) -> String {
    report(mode, params).0
}
