//! E10 — directory growth versus static inode preallocation.
//!
//! The cost side of embedded inodes: "a potential down-side of embedded
//! inodes is that the directory size can increase substantially" (entries
//! grow from ~16 bytes to ~144 bytes for short names). The benefit side,
//! via [Forin94]: eliminating the statically (over-)allocated inode tables
//! returns their disk space to data. This experiment measures both on real
//! images.

use crate::report::header;
use cffs::build;
use cffs_core::CffsConfig;
use cffs_disksim::models;
use cffs_fslib::BLOCK_SIZE;
use cffs_obs::json::{Json, ToJson};
use cffs_obs::{obj, StatsSnapshot};

/// Directory populations measured.
pub const POPULATIONS: [usize; 4] = [10, 100, 1000, 10_000];

/// Bytes of directory data per entry at population `n`, plus the stack's
/// counter snapshot for the population run.
fn dir_bytes_per_entry(cfg: CffsConfig, n: usize) -> (f64, StatsSnapshot) {
    let fs = build::on_disk(models::seagate_st31200(), cfg);
    let root = fs.root();
    let dir = fs.mkdir(root, "d").expect("mkdir");
    for i in 0..n {
        fs.create(dir, &format!("file{i:05}")).expect("create");
    }
    let size = fs.getattr(dir).expect("getattr").size;
    let snap = fs.obs().snapshot(fs.config().label.as_str(), fs.now().as_nanos());
    (size as f64 / n as f64, snap)
}

/// Run once, rendering both the text report and the JSON payload.
pub fn report() -> (String, Json) {
    let mut points: Vec<Json> = Vec::new();
    let mut out = header("directory size and inode-capacity trade (E10)");
    out.push_str(&format!(
        "{:<12} {:>22} {:>22}\n",
        "entries", "embedded (B/entry)", "external (B/entry)"
    ));
    out.push_str(&"-".repeat(58));
    out.push('\n');
    let mut growth = 0.0; // embedded over external B/entry, largest population
    for n in POPULATIONS {
        let (emb, emb_snap) = dir_bytes_per_entry(CffsConfig::cffs(), n);
        let (ext, ext_snap) = dir_bytes_per_entry(CffsConfig::conventional(), n);
        points.push(obj![
            ("entries", n.to_json()),
            ("embedded_bytes_per_entry", emb.to_json()),
            ("external_bytes_per_entry", ext.to_json()),
            ("embedded_counters", emb_snap.to_json()),
            ("external_counters", ext_snap.to_json()),
        ]);
        out.push_str(&format!("{n:<12} {emb:>22.1} {ext:>22.1}\n"));
        growth = emb / ext;
    }

    // Capacity: static FFS inode tables vs the dynamic external file.
    let ffs = build::on_disk(models::seagate_st31200(), CffsConfig::ffs());
    let sb = ffs.superblock();
    let itable_blocks = sb.itable_blocks() as u64 * sb.cg_count as u64;
    let cffs = build::on_disk(models::seagate_st31200(), CffsConfig::cffs());
    let st = cffs.statfs().expect("statfs");
    out.push_str(&format!(
        "\nstatic preallocation [Forin94]:\n\
         - FFS reserves {} blocks ({:.1} MB, {:.2}% of the disk) for inode tables\n\
           whether or not the inodes are ever used, capping files at {}.\n\
         - C-FFS reserves none: inodes live in directories (or the external\n\
           inode file, currently {} block(s)); the file count is bounded only\n\
           by space ({} of {} blocks free after mkfs).\n",
        itable_blocks,
        itable_blocks as f64 * BLOCK_SIZE as f64 / 1e6,
        itable_blocks as f64 * 100.0 / sb.total_blocks as f64,
        ffs.statfs().expect("statfs").total_inodes,
        cffs.superblock().exfile.blocks,
        st.free_blocks,
        st.total_blocks,
    ));
    out.push_str(&format!(
        "\nThe {growth:.2}x directory growth is the price of removing a physical level of\n\
         indirection; the paper's position is that directories remain small\n\
         relative to data, while every (cold) open saves a disk access.\n",
    ));
    let json = obj![
        ("experiment", "dirsize".to_json()),
        ("points", Json::Arr(points)),
    ];
    (out, json)
}
