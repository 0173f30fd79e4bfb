//! E12 (extra) — a PostMark-style server workload.
//!
//! PostMark appeared the same year as the paper and measures exactly the
//! population C-FFS targets: small short-lived files under steady
//! create/delete/read/append churn (mail, news, web). Not a paper
//! artifact — included because a 1997 reviewer would have asked for it.

use crate::report::{header, phase_table, row, rows_json, speedup};
use cffs::build;
use cffs_fslib::MetadataMode;
use cffs_obs::json::{Json, ToJson};
use cffs_obs::obj;
use cffs_workloads::postmark::{self, PostmarkParams};

/// Run once, rendering both the text report and the JSON payload.
pub fn report(mode: MetadataMode, params: PostmarkParams) -> (String, Json) {
    let mut rows = Vec::new();
    for fs in build::five_configs(mode) {
        rows.extend(postmark::run(&fs, params).expect("postmark run"));
    }
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
        let base = row(&rows, "conventional", phase);
        let new = row(&rows, "C-FFS", phase);
        out.push_str(&format!(
            "  {phase:<16} {:>5.2}x   ({} -> {} disk requests)\n",
            speedup(base, new),
            base.disk_requests(),
            new.disk_requests()
        ));
    }
    (out, json)
}
