//! E8 — disk-request accounting.
//!
//! The paper's mechanism claims, checked directly against the counters:
//!
//! * "The improvement comes directly from reducing the number of disk
//!   accesses required by an order of magnitude" (read phase).
//! * Embedded inodes remove one synchronous write per create/delete —
//!   "for file systems that use synchronous writes to ensure proper
//!   sequencing, this can result in a two-fold performance improvement
//!   [Ganger94]" — and give "a 250% increase in file deletion throughput".
//! * "Embedding inodes halves the number of blocks actually dirtied when
//!   removing the files because there are no separate inode blocks."

use crate::experiments::smallfile::{rows_payload, run_all};
use crate::report::{header, row};
use cffs_fslib::MetadataMode;
use cffs_obs::json::Json;
use cffs_workloads::smallfile::SmallFileParams;

/// Run once, rendering both the text report and the JSON payload.
pub fn report(params: SmallFileParams) -> (String, Json) {
    let (rows, _) = run_all(MetadataMode::Synchronous, params);
    let mut json = rows_payload(MetadataMode::Synchronous, params, &rows);
    if let Json::Obj(m) = &mut json {
        if let Some(e) = m.iter_mut().find(|(k, _)| k == "experiment") {
            e.1 = Json::Str("diskreqs".to_string());
        }
    }
    let mut out = header(&format!(
        "disk-request accounting ({} x {} B, synchronous metadata)",
        params.nfiles, params.file_size
    ));
    out.push_str(&format!(
        "{:<18} {:>10} {:>12} {:>12} {:>12} {:>14}\n",
        "file system", "phase", "disk reads", "disk writes", "sync writes", "group reads"
    ));
    out.push_str(&"-".repeat(82));
    out.push('\n');
    for r in &rows {
        out.push_str(&format!(
            "{:<18} {:>10} {:>12} {:>12} {:>12} {:>14}\n",
            r.fs,
            r.phase,
            r.io.disk.reads,
            r.io.disk.writes,
            r.io.cache.sync_writes,
            r.io.cache.group_reads,
        ));
    }

    let conv_read = row(&rows, "conventional", "read");
    let cffs_read = row(&rows, "C-FFS", "read");
    let conv_create = row(&rows, "conventional", "create");
    let emb_create = row(&rows, "embedded inodes", "create");
    let conv_del = row(&rows, "conventional", "delete");
    let emb_del = row(&rows, "embedded inodes", "delete");

    out.push_str(&format!(
        "\nclaims vs counters:\n\
         - read-phase disk requests: {} -> {} ({:.1}x reduction; paper: order of magnitude)\n\
         - sync writes per create: {:.2} -> {:.2} (embedding removes one of two)\n\
         - delete throughput: {:.0}/s -> {:.0}/s (+{:.0}%; paper: +250%)\n\
         - blocks dirtied during delete: {} -> {} ({:.2}x; paper: halved)\n",
        conv_read.disk_requests(),
        cffs_read.disk_requests(),
        conv_read.disk_requests() as f64 / cffs_read.disk_requests() as f64,
        conv_create.io.cache.sync_writes as f64 / params.nfiles as f64,
        emb_create.io.cache.sync_writes as f64 / params.nfiles as f64,
        conv_del.items_per_sec(),
        emb_del.items_per_sec(),
        (emb_del.items_per_sec() / conv_del.items_per_sec() - 1.0) * 100.0,
        conv_del.io.cache.writebacks + conv_del.io.cache.sync_writes,
        emb_del.io.cache.writebacks + emb_del.io.cache.sync_writes,
        (conv_del.io.cache.writebacks + conv_del.io.cache.sync_writes) as f64
            / (emb_del.io.cache.writebacks + emb_del.io.cache.sync_writes).max(1) as f64,
    ));
    (out, json)
}
