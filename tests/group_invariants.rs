//! Explicit-grouping invariants, checked on live file systems after real
//! workloads:
//!
//! * a group's live-member bits exactly match the blocks its owner's files
//!   (and the owner directory itself) map;
//! * group extents never overlap and always lie inside one cylinder group;
//! * files larger than the group size own no grouped blocks (degrouping);
//! * dissolving, trimming and re-owning keep the index and the on-disk
//!   descriptors in agreement (verified through remount + fsck).

use cffs::core::{fsck, Cffs, CffsConfig, MkfsParams};
use cffs::prelude::*;
use cffs_disksim::models;
use cffs_disksim::Disk;
use std::collections::HashMap;

fn fresh() -> Cffs {
    cffs::core::mkfs::mkfs(
        Disk::new(models::tiny_test_disk()),
        MkfsParams::tiny(),
        CffsConfig::cffs(),
    )
    .expect("mkfs")
}

/// Map every block of every file to its inode by walking the namespace.
fn block_owners(fs: &Cffs) -> HashMap<u64, Ino> {
    let mut owners = HashMap::new();
    let mut stack = vec![fs.root()];
    while let Some(dir) = stack.pop() {
        // The directory's own blocks: readdir binds the logical
        // identities, then the cache answers where each block lives.
        let entries = fs.readdir(dir).expect("readdir");
        let attr = fs.getattr(dir).expect("getattr");
        for lbn in 0..(attr.size.div_ceil(4096)) {
            if let Some(blk) = fs.cache_block_of(dir, lbn) {
                owners.insert(blk, dir);
            }
        }
        for e in entries {
            match e.kind {
                FileKind::Dir => stack.push(e.ino),
                FileKind::File => {
                    let a = fs.getattr(e.ino).expect("getattr");
                    for lbn in 0..(a.size.div_ceil(4096)) {
                        if let Some(blk) = block_of(fs, e.ino, lbn) {
                            owners.insert(blk, e.ino);
                        }
                    }
                }
            }
        }
    }
    owners
}

/// Resolve (ino, lbn) -> physical block via a 1-byte read priming the
/// logical cache index (no public bmap; this stays at the public API).
fn block_of(fs: &Cffs, ino: Ino, lbn: u64) -> Option<u64> {
    let mut b = [0u8; 1];
    // A read at the block's offset binds the logical identity if mapped.
    let _ = fs.read(ino, lbn * 4096, &mut b).ok()?;
    fs.cache_block_of(ino, lbn)
}

#[test]
fn member_bits_match_reachable_blocks() {
    let fs = fresh();
    let root = fs.root();
    // Build several directories of small files with churn.
    for d in 0..6 {
        let dir = fs.mkdir(root, &format!("d{d}")).unwrap();
        for f in 0..30 {
            let ino = fs.create(dir, &format!("f{f}")).unwrap();
            fs.write(ino, 0, &vec![f as u8; 1024 + 512 * (f % 5)]).unwrap();
        }
        for f in (0..30).step_by(3) {
            fs.unlink(dir, &format!("f{f}")).unwrap();
        }
    }
    fs.sync().unwrap();
    let owners = block_owners(&fs);
    let sb = fs.superblock().clone();
    for g in fs.group_index().iter() {
        // Extent inside one cylinder group.
        assert_eq!(sb.block_cg(g.start), sb.block_cg(g.start + g.nslots as u64 - 1));
        for s in 0..g.nslots {
            let blk = g.slot_block(s);
            let live = g.member_valid & (1 << s) != 0;
            assert_eq!(
                owners.contains_key(&blk),
                live,
                "group {}/{} slot {s} (block {blk}): member bit vs reachability",
                g.cg,
                g.idx
            );
        }
    }
    // And the on-disk descriptors agree (fsck is the referee).
    let mut img = fs.unmount().unwrap();
    let report = fsck::fsck(&mut img, false).unwrap();
    assert!(report.clean(), "{:?}", report.errors);
}

#[test]
fn groups_never_overlap() {
    let fs = fresh();
    let root = fs.root();
    for d in 0..10 {
        let dir = fs.mkdir(root, &format!("dir{d}")).unwrap();
        for f in 0..20 {
            let ino = fs.create(dir, &format!("f{f}")).unwrap();
            fs.write(ino, 0, &vec![1u8; 2048]).unwrap();
        }
    }
    let mut extents: Vec<(u64, u64)> = fs
        .group_index()
        .iter()
        .map(|g| (g.start, g.start + g.nslots as u64))
        .collect();
    extents.sort();
    for w in extents.windows(2) {
        assert!(w[0].1 <= w[1].0, "groups overlap: {w:?}");
    }
}

#[test]
fn large_files_are_degrouped() {
    let fs = fresh();
    let root = fs.root();
    let dir = fs.mkdir(root, "d").unwrap();
    // Warm the group with small files.
    for f in 0..5 {
        let ino = fs.create(dir, &format!("small{f}")).unwrap();
        fs.write(ino, 0, &vec![2u8; 1024]).unwrap();
    }
    // Grow one file past the 64 KB group size.
    let big = fs.create(dir, "big").unwrap();
    fs.write(big, 0, &vec![3u8; 30_000]).unwrap(); // starts grouped
    fs.write(big, 30_000, &vec![4u8; 60_000]).unwrap(); // crosses the limit
    fs.sync().unwrap();
    for lbn in 0..(90_000u64.div_ceil(4096)) {
        if let Some(blk) = block_of(&fs, big, lbn) {
            assert!(
                fs.group_index().group_of_block(blk).is_none(),
                "block {blk} of the large file is still grouped"
            );
        }
    }
    // Contents intact after the relocation.
    let data = path::read_all(&fs, big).unwrap();
    assert_eq!(data.len(), 90_000);
    assert!(data[..30_000].iter().all(|&b| b == 3));
    assert!(data[30_000..].iter().all(|&b| b == 4));
    // Small files still grouped.
    let small = fs.lookup(dir, "small0").unwrap();
    let blk = block_of(&fs, small, 0).expect("mapped");
    assert!(fs.group_index().group_of_block(blk).is_some());
}

#[test]
fn deleting_all_files_dissolves_groups() {
    let fs = fresh();
    let root = fs.root();
    let dir = fs.mkdir(root, "d").unwrap();
    for f in 0..20 {
        let ino = fs.create(dir, &format!("f{f}")).unwrap();
        fs.write(ino, 0, &vec![5u8; 4096]).unwrap();
    }
    let groups_before = fs.group_index().len();
    assert!(groups_before > 0);
    for f in 0..20 {
        fs.unlink(dir, &format!("f{f}")).unwrap();
    }
    fs.rmdir(root, "d").unwrap();
    fs.sync().unwrap();
    // Only the root's own directory block may keep a group alive.
    for g in fs.group_index().iter() {
        assert_eq!(g.owner, root, "stray group owned by {:#x}", g.owner);
    }
    assert!(fs.group_index().len() <= 1, "at most the root's group remains");
    let mut img = fs.unmount().unwrap();
    assert!(fsck::fsck(&mut img, false).unwrap().clean());
}

#[test]
fn group_hint_colocates_files() {
    let fs = fresh();
    let root = fs.root();
    let dir = fs.mkdir(root, "site").unwrap();
    // Create the files with grouping *bypassed* (large-ish writes spread
    // them), then hint.
    let mut inos = Vec::new();
    for f in 0..4 {
        let ino = fs.create(dir, &format!("asset{f}")).unwrap();
        fs.write(ino, 0, &vec![f as u8; 3000]).unwrap();
        inos.push(ino);
    }
    fs.group_hint(dir, &["asset0", "asset1", "asset2", "asset3"]).unwrap();
    fs.sync().unwrap();
    // All assets' blocks now live in groups owned by `dir`.
    for (f, &ino) in inos.iter().enumerate() {
        let blk = block_of(&fs, ino, 0).expect("mapped");
        let g = *fs
            .group_index()
            .group_of_block(blk)
            .unwrap_or_else(|| panic!("asset{f} not grouped"));
        assert_eq!(g.owner, dir);
    }
    // Contents survived the relocation.
    for (f, &ino) in inos.iter().enumerate() {
        let data = path::read_all(&fs, ino).unwrap();
        assert_eq!(data, vec![f as u8; 3000]);
    }
    let mut img = fs.unmount().unwrap();
    assert!(fsck::fsck(&mut img, false).unwrap().clean());
}

#[test]
fn statfs_slack_accounting() {
    let fs = fresh();
    let root = fs.root();
    let dir = fs.mkdir(root, "d").unwrap();
    let st0 = fs.statfs().unwrap();
    // One small file carves a 16-block group for `d` holding 2 live blocks
    // (d's directory block + the file's data block): 14 new slack, the
    // whole extent gone from the free count.
    let ino = fs.create(dir, "f").unwrap();
    fs.write(ino, 0, b"x").unwrap();
    let st1 = fs.statfs().unwrap();
    assert_eq!(
        st1.group_slack_blocks - st0.group_slack_blocks,
        14,
        "16-block extent minus dir block and file block"
    );
    assert_eq!(st0.free_blocks - st1.free_blocks, 16, "whole extent reserved");
}

#[test]
fn dir_block_relocation_reowns_embedded_child_groups() {
    // `child` is embedded in `parent`'s directory block, so relocating
    // that block renumbers child's ino. Any group carved for child must
    // follow the renumbering — a descriptor still naming the old ino is
    // an orphan fsck would dissolve.
    let fs = fresh();
    let root = fs.root();
    let parent = fs.mkdir(root, "parent").unwrap();
    let child = fs.mkdir(parent, "child").unwrap();
    let ino = fs.create(child, "f").unwrap();
    fs.write(ino, 0, b"x").unwrap();
    assert!(!fs.group_index().groups_of(child).is_empty(), "child owns a group");

    let group = fs.carve_group_for(parent).unwrap().expect("extent for parent");
    assert!(fs.relocate_block_into(parent, 0, group).unwrap().is_some(), "block moved");

    let child_now = fs.lookup(parent, "child").unwrap();
    assert_ne!(child_now, child, "relocation renumbered the embedded child dir");
    assert!(fs.group_index().groups_of(child).is_empty(), "old ino owns nothing");
    assert!(
        !fs.group_index().groups_of(child_now).is_empty(),
        "ownership transferred to the new ino"
    );
    assert_eq!(fs.lookup(child_now, "f").map(|i| fs.getattr(i).unwrap().size), Ok(1));

    fs.sync().unwrap();
    let mut img = fs.crash_image();
    let report = fsck::fsck(&mut img, false).unwrap();
    assert!(report.clean(), "{:?}", report.errors);
}
