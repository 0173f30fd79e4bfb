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
//!
//! A synchronous embedded create may put its entry in any free sector of
//! the directory's resident blocks; the placement tests below check that
//! it takes the one whose write completes first, and that delayed
//! metadata keeps first fit.

use cffs::core::dirent::{self, external_len, EntryLoc, DIRBLKSIZ};
use cffs::core::layout::{decode_ino, InoRef};
use cffs::core::{fsck, Cffs, CffsConfig, MkfsParams};
use cffs::prelude::*;
use cffs_disksim::models;
use cffs_disksim::Disk;
use cffs_fslib::vfs::MetadataMode;
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

/// One create of [`placement_script`]: the directory's blocks before it
/// as `(lbn, block, chunks with room)`, the new inode number, the disk
/// requests the create made, and the arm's cylinder before them.
struct Placed {
    before: Vec<(u64, u64, u8)>,
    ino: Ino,
    requests: Vec<cffs_disksim::TraceEntry>,
    arm: u32,
}

/// A churned directory (seven resident blocks, every third name
/// unlinked, so free slots lie in all of them), then forty creates, each
/// preceded by a
/// sync so the image shows the blocks as the create found them. Checks
/// after each synchronous create that a crash image keeps the name, and
/// at the end that no entry straddles a sector and fsck is clean.
///
/// With a namespace cache, each name is first looked up (and misses), so
/// the cache proves it absent and the create skips its existence scan:
/// the placement then takes every block's chunks from the insert's own
/// walk.
fn placement_script(mode: MetadataMode, dcache: bool) -> Vec<Placed> {
    let geo = models::tiny_test_disk().geometry;
    let cfg = CffsConfig::cffs().with_mode(mode);
    let fs = fresh(if dcache { cfg.with_dcache(4096) } else { cfg });
    fs.set_disk_trace(true);
    let root = fs.root();
    let dir = fs.mkdir(root, "churned").unwrap();
    for i in 0..150 {
        fs.create(dir, &format!("f{i:03}")).unwrap();
    }
    for i in (0..150).step_by(3) {
        fs.unlink(dir, &format!("f{i:03}")).unwrap();
    }
    let need = dirent::embedded_len(4);
    let mut placed = Vec::new();
    for k in 0..40 {
        let name = format!("n{k:03}");
        fs.sync().unwrap();
        fs.readdir(dir).unwrap();
        if dcache {
            assert_eq!(fs.lookup(dir, &name), Err(FsError::NotFound));
        }
        let size = fs.getattr(dir).unwrap().size;
        let img = fs.crash_image();
        let before: Vec<_> = (0..size / BLOCK_SIZE as u64)
            .map(|lbn| {
                let blk = fs.cache_block_of(dir, lbn).expect("directory block resident");
                let mut buf = vec![0u8; BLOCK_SIZE];
                img.raw_read(blk * SECTORS_PER_BLOCK, &mut buf);
                (lbn, blk, dirent::roomy_chunks(&buf, need, false).unwrap())
            })
            .collect();
        let trace = fs.disk_trace();
        let last = trace.iter().rev().find(|e| !e.cache_hit).expect("a media request");
        let arm = geo.lba_to_chs(last.lba + last.sectors - 1).cylinder;
        let ino = fs.create(dir, &name).unwrap();
        let requests = fs.disk_trace()[trace.len()..].to_vec();
        if mode == MetadataMode::Synchronous {
            // The name survives a crash right after the create returns.
            let crashed = Cffs::mount(fs.crash_image(), fs.config().clone()).expect("mount crash image");
            let cdir = crashed.lookup(crashed.root(), "churned").unwrap();
            assert!(crashed.lookup(cdir, &name).is_ok(), "{name} lost in a crash after its create");
        }
        placed.push(Placed { before, ino, requests, arm });
    }
    assert_sector_atomic(&fs, &format!("{mode:?} placement"));
    let mut img = fs.unmount().expect("unmount");
    let report = fsck::fsck(&mut img, false).expect("fsck");
    assert!(report.clean(), "{mode:?} placement: fsck errors: {:?}", report.errors);
    placed
}

/// The embedded entry's `(block, chunk)`, from its inode number.
fn chunk_of(ino: Ino) -> (u64, usize) {
    match decode_ino(ino) {
        InoRef::Embedded { blk, off, .. } => (blk, off / DIRBLKSIZ),
        InoRef::External(_) => panic!("expected an embedded inode"),
    }
}

/// Without a namespace cache, and with one that has proven each name
/// absent.
#[test]
fn synchronous_create_writes_the_free_sector_that_lands_first() {
    for dcache in [false, true] {
        sync_create_lands_first(dcache);
    }
}

fn sync_create_lands_first(dcache: bool) {
    let model = models::tiny_test_disk();
    let mut not_first_fit = 0;
    for p in placement_script(MetadataMode::Synchronous, dcache) {
        assert_eq!(p.requests.len(), 1, "a warm synchronous create is one request: {:?}", p.requests);
        let w = p.requests[0];
        assert!(w.write && w.sectors == 1 && !w.cache_hit, "one one-sector write: {w:?}");
        // Brute force over every free chunk of every block from the first
        // with room on, first fit winning ties.
        let mut best: Option<(u64, SimTime)> = None;
        for &(_, blk, free) in p.before.iter().skip_while(|b| b.2 == 0) {
            for chunk in (0..8).filter(|c| free >> c & 1 == 1) {
                let lba = blk * SECTORS_PER_BLOCK + chunk;
                let done = model.position(w.start, p.arm, lba, 1, true).done;
                if best.is_none_or(|(_, d)| done < d) {
                    best = Some((lba, done));
                }
            }
        }
        let (lba, done) = best.expect("the churned directory has room");
        assert_eq!(w.lba, lba, "the create wrote a later-landing sector than the earliest free one");
        assert_eq!(w.start + w.service, done, "the write landed when the model predicted");
        let (blk, chunk) = chunk_of(p.ino);
        assert_eq!(blk * SECTORS_PER_BLOCK + chunk as u64, w.lba, "the entry is in the sector written");
        let &(_, ff_blk, ff_free) = p.before.iter().find(|b| b.2 != 0).expect("room");
        not_first_fit += usize::from((blk, chunk) != (ff_blk, ff_free.trailing_zeros() as usize));
    }
    assert!(not_first_fit > 0, "no create left first fit: the script tests nothing");
}

#[test]
fn delayed_create_places_entries_first_fit() {
    for p in placement_script(MetadataMode::Delayed, false) {
        let &(_, blk, free) = p.before.iter().find(|b| b.2 != 0).expect("room");
        assert_eq!(chunk_of(p.ino), (blk, free.trailing_zeros() as usize), "not first fit");
    }
}
