//! The embedded-inode atomicity invariant, checked on real images.
//!
//! Section 3 of the paper builds crash safety on one property: a directory
//! entry's name and its embedded inode image always live inside the same
//! 512-byte sector, so a single sector write updates both atomically.
//! `dirent.rs` enforces this at insertion time; these tests verify it
//! survives *sequences* of operations on a live file system — renames
//! (which renumber embedded inodes), hard-link transitions (which migrate
//! an inode from embedded to the external file), unlink/create churn that
//! splits and coalesces records, and directory growth.

use cffs::core::dirent::{self, external_len, EntryLoc, DIRBLKSIZ};
use cffs::core::{fsck, Cffs, CffsConfig, MkfsParams};
use cffs::prelude::*;
use cffs_disksim::models;
use cffs_disksim::Disk;
use cffs_fslib::inode::INODE_SIZE;
use cffs_fslib::{BLOCK_SIZE, SECTORS_PER_BLOCK};

fn fresh(cfg: CffsConfig) -> Cffs {
    cffs::core::mkfs::mkfs(Disk::new(models::tiny_test_disk()), MkfsParams::tiny(), cfg)
        .expect("mkfs")
}

/// Physical blocks of every directory in the namespace. `readdir` primes
/// the logical cache index; the cache then answers where each block lives.
fn all_dir_blocks(fs: &Cffs) -> Vec<u64> {
    let mut blocks = Vec::new();
    let mut stack = vec![fs.root()];
    while let Some(dir) = stack.pop() {
        let entries = fs.readdir(dir).expect("readdir");
        let attr = fs.getattr(dir).expect("getattr");
        for lbn in 0..attr.size.div_ceil(BLOCK_SIZE as u64) {
            if let Some(blk) = fs.cache_block_of(dir, lbn) {
                blocks.push(blk);
            }
        }
        for e in entries {
            if e.kind == FileKind::Dir {
                stack.push(e.ino);
            }
        }
    }
    blocks
}

/// Sync, snapshot the durable image, and assert that no entry in any
/// directory block straddles a sector boundary.
fn assert_sector_atomic(fs: &Cffs, ctx: &str) {
    fs.sync().expect("sync");
    let blocks = all_dir_blocks(fs);
    assert!(!blocks.is_empty(), "{ctx}: found no directory blocks");
    let img = fs.crash_image();
    for blk in blocks {
        let mut buf = vec![0u8; BLOCK_SIZE];
        img.raw_read(blk * SECTORS_PER_BLOCK, &mut buf);
        for (name, e) in dirent::list(&buf).unwrap_or_else(|err| {
            panic!("{ctx}: directory block {blk} undecodable: {err}")
        }) {
            // Last byte the entry owns: through the inode image when
            // embedded, through the padded name when external.
            let end = match e.loc {
                EntryLoc::Embedded(img_off) => img_off + INODE_SIZE,
                EntryLoc::External(_) => e.offset + external_len(name.len()),
            };
            assert_eq!(
                e.offset / DIRBLKSIZ,
                (end - 1) / DIRBLKSIZ,
                "{ctx}: entry '{name}' in block {blk} straddles a sector boundary \
                 (bytes {}..{})",
                e.offset,
                end
            );
        }
    }
}

fn churn(cfg: CffsConfig) {
    let label = cfg.label.clone();
    let fs = fresh(cfg);
    let root = fs.root();
    let a = fs.mkdir(root, "a").unwrap();
    let b = fs.mkdir(root, "b").unwrap();

    // Varied name lengths exercise every padding case and force the
    // directory past one block.
    let mut files = Vec::new();
    for i in 0..30usize {
        let name = format!("{}{i}", "n".repeat(1 + (i * 7) % 50));
        let ino = fs.create(a, &name).unwrap();
        fs.write(ino, 0, &vec![i as u8; 700]).unwrap();
        files.push((name, ino));
    }
    assert_sector_atomic(&fs, &format!("{label}: after creates"));

    // Hard links: the embedded inode migrates to the external file
    // (convert_to_external rewrites the entry in place).
    for i in (0..30).step_by(5) {
        let (_, ino) = files[i];
        fs.link(ino, b, &format!("link{i}")).unwrap();
    }
    assert_sector_atomic(&fs, &format!("{label}: after links"));

    // Drop the links again: link-count transitions back to 1.
    for i in (0..30).step_by(5) {
        fs.unlink(b, &format!("link{i}")).unwrap();
    }
    assert_sector_atomic(&fs, &format!("{label}: after unlinking links"));

    // Renames: within a directory (renumbering in place) and across
    // directories (remove + insert, possibly re-embedding).
    for i in (1..30).step_by(3) {
        let (name, _) = files[i].clone();
        let nname = format!("renamed-{}{i}", "m".repeat(1 + (i * 11) % 40));
        let nino = fs.rename(a, &name, a, &nname).unwrap();
        files[i] = (nname, nino);
    }
    for i in (2..30).step_by(4) {
        let (name, _) = files[i].clone();
        let nino = fs.rename(a, &name, b, &name).unwrap();
        files[i] = (name, nino);
    }
    assert_sector_atomic(&fs, &format!("{label}: after renames"));

    // Unlink/create churn: open holes of one size, fill with another, so
    // record claiming splits slack in every chunk position.
    for i in (0..30).step_by(2) {
        let (name, _) = &files[i];
        let dir = if (2..30).step_by(4).any(|j| j == i) { b } else { a };
        fs.unlink(dir, name).unwrap();
    }
    for i in 0..12usize {
        let name = format!("{}{i}", "z".repeat(1 + (i * 13) % 55));
        let ino = fs.create(a, &name).unwrap();
        fs.write(ino, 0, &vec![9u8; 300]).unwrap();
    }
    assert_sector_atomic(&fs, &format!("{label}: after churn"));

    // The image is also consistent end to end.
    let mut img = fs.unmount().expect("unmount");
    let report = fsck::fsck(&mut img, false).expect("fsck");
    assert!(report.clean(), "{label}: fsck errors: {:?}", report.errors);
}

#[test]
fn entries_never_straddle_sectors_embedded() {
    churn(CffsConfig::cffs());
}

#[test]
fn entries_never_straddle_sectors_external() {
    // Embedding disabled: every entry is external, but the layout rule
    // (entry within one 512-byte chunk) still holds.
    churn(CffsConfig::conventional());
}
