//! Off-line file-system checker, in the spirit of `fsck` [McKusick94].
//!
//! Works directly on a disk image (timing-free raw access). Five phases,
//! echoing the classic program:
//!
//! 1. **Inodes**: parse every allocated slot in every inode table; validate
//!    sizes and collect claimed data/indirect blocks; detect blocks claimed
//!    twice or marked free in the bitmaps.
//! 2. **Namespace**: walk directories from the root; validate entries
//!    (must point at allocated inodes of the right kind) and count the
//!    references each inode receives.
//! 3. **Link counts**: compare the reference counts with stored `nlink`.
//! 4. **Orphans**: allocated inodes never referenced by any directory (the
//!    expected debris of a crash under the synchronous-ordering discipline,
//!    which leaks inodes rather than losing names).
//! 5. **Bitmaps**: compare on-disk bitmaps with the reachable block/inode
//!    sets.
//!
//! In repair mode the checker clears dangling entries and orphans, fixes
//! link counts and rewrites the bitmaps, then re-runs itself to verify the
//! image is clean.

use crate::layout::{CgHeader, Superblock, INO_BAD, INO_NIL, INO_ROOT, SB_BLOCK};
use cffs_disksim::Disk;
use cffs_fslib::bmap::{self, Mapped};
pub use cffs_fslib::fsck::FsckReport;
use cffs_fslib::inode::{Inode, MAX_FILE_BLOCKS};
use cffs_fslib::{read_block, write_block, FileKind, FsResult, BLOCK_SIZE};
use std::collections::HashMap;

struct Checker<'d> {
    disk: &'d mut Disk,
    sb: Superblock,
    report: FsckReport,
    /// blk -> first owner inode (for duplicate detection).
    block_owner: HashMap<u64, u64>,
    /// ino -> (inode, namespace reference count).
    inodes: HashMap<u64, (Inode, u32)>,
    repair: bool,
}

/// Check (and with `repair`, fix) the FFS image on `disk`.
pub fn fsck(disk: &mut Disk, repair: bool) -> FsResult<FsckReport> {
    cffs_fslib::fsck::run(disk, repair, check)
}

/// One pass of the five phases.
fn check(disk: &mut Disk, repair: bool) -> FsResult<FsckReport> {
    let sb = Superblock::read_from(&read_block(disk, SB_BLOCK))?;
    let mut c = Checker {
        disk,
        sb,
        report: FsckReport::default(),
        block_owner: HashMap::new(),
        inodes: HashMap::new(),
        repair,
    };
    c.phase1_inodes()?;
    c.phase2_namespace()?;
    c.phase3_link_counts()?;
    c.phase4_orphans()?;
    c.phase5_bitmaps()?;
    Ok(c.report)
}

impl Checker<'_> {
    fn claim_block(&mut self, ino: u64, blk: u64) {
        if blk == 0 || blk >= self.sb.total_blocks {
            self.report.errors.push(format!("inode {ino} references invalid block {blk}"));
            return;
        }
        if let Some(prev) = self.block_owner.insert(blk, ino) {
            self.report
                .errors
                .push(format!("block {blk} claimed by inodes {prev} and {ino}"));
        }
    }

    fn phase1_inodes(&mut self) -> FsResult<()> {
        for cg in 0..self.sb.cg_count {
            for i in 0..self.sb.inodes_per_cg as u64 {
                let ino = cg as u64 * self.sb.inodes_per_cg as u64 + i;
                if ino == INO_NIL || ino == INO_BAD {
                    continue;
                }
                let (blk, off) = self.sb.inode_location(ino)?;
                let img = read_block(self.disk, blk);
                let Some(inode) = Inode::read_from(&img, off) else { continue };
                // Claim every non-null pointer, whatever the size says.
                let mut blocks = Vec::new();
                bmap::walk(&*self.disk, &inode, MAX_FILE_BLOCKS, |m| blocks.push(m.blk()))?;
                for blk in blocks {
                    self.claim_block(ino, blk);
                }
                self.inodes.insert(ino, (inode, 0));
            }
        }
        Ok(())
    }

    /// A directory's mapped blocks below its size, in logical order, and
    /// how many runs of missing blocks (holes) lie between them.
    fn dir_blocks(&self, dinode: &Inode) -> FsResult<(Vec<u64>, usize)> {
        let nblocks = dinode.size.div_ceil(BLOCK_SIZE as u64);
        let (mut blocks, mut holes, mut next) = (Vec::new(), 0, 0);
        bmap::walk(&*self.disk, dinode, nblocks, |m| {
            if let Mapped::Data { lbn, blk } = m {
                holes += usize::from(lbn > next);
                next = lbn + 1;
                blocks.push(blk);
            }
        })?;
        Ok((blocks, holes + usize::from(nblocks.min(MAX_FILE_BLOCKS) > next)))
    }

    fn phase2_namespace(&mut self) -> FsResult<()> {
        if !self.inodes.contains_key(&INO_ROOT) {
            self.report.errors.push("root inode missing".to_string());
            if self.repair {
                let mut root = Inode::new(FileKind::Dir);
                root.nlink = 2;
                let (blk, off) = self.sb.inode_location(INO_ROOT)?;
                let mut img = read_block(self.disk, blk);
                root.write_to(&mut img, off);
                write_block(self.disk, blk, &img);
                self.inodes.insert(INO_ROOT, (root, 0));
                self.report.repairs.push("recreated empty root inode".to_string());
            } else {
                return Ok(());
            }
        }
        let mut queue = vec![INO_ROOT];
        let mut seen = std::collections::HashSet::new();
        seen.insert(INO_ROOT);
        // Root gets one free reference (it has no parent entry).
        if let Some(e) = self.inodes.get_mut(&INO_ROOT) {
            e.1 += 1;
        }
        while let Some(dirino) = queue.pop() {
            let dinode = self.inodes[&dirino].0.clone();
            if dinode.kind != FileKind::Dir {
                self.report.errors.push(format!("non-directory {dirino} on directory walk"));
                continue;
            }
            let (blocks, holes) = self.dir_blocks(&dinode)?;
            for _ in 0..holes {
                self.report.errors.push(format!("directory {dirino} has invalid block 0"));
            }
            for blk in blocks {
                if blk >= self.sb.total_blocks {
                    self.report
                        .errors
                        .push(format!("directory {dirino} has invalid block {blk}"));
                    continue;
                }
                let mut data = read_block(self.disk, blk);
                let entries = match crate::dir::list(&data) {
                    Ok(es) => es,
                    Err(_) => {
                        self.report
                            .errors
                            .push(format!("directory {dirino} block {blk} is corrupt"));
                        if self.repair {
                            crate::dir::init_block(&mut data);
                            write_block(self.disk, blk, &data);
                            self.report
                                .repairs
                                .push(format!("reinitialized corrupt directory block {blk}"));
                        }
                        continue;
                    }
                };
                let mut dirty = false;
                for e in entries {
                    let child = e.ino as u64;
                    let valid = match self.inodes.get(&child) {
                        Some((ci, _)) => ci.kind == e.kind,
                        None => false,
                    };
                    if !valid {
                        self.report.errors.push(format!(
                            "entry '{}' in directory {dirino} points at bad inode {child}",
                            e.name
                        ));
                        if self.repair {
                            crate::dir::remove(&mut data, &e.name)?;
                            dirty = true;
                            self.report.repairs.push(format!(
                                "removed dangling entry '{}' from directory {dirino}",
                                e.name
                            ));
                        }
                        continue;
                    }
                    if let Some(entry) = self.inodes.get_mut(&child) {
                        entry.1 += 1;
                    }
                    if e.kind == FileKind::Dir {
                        if !seen.insert(child) {
                            self.report
                                .errors
                                .push(format!("directory {child} reachable twice"));
                        } else {
                            queue.push(child);
                        }
                    }
                }
                if dirty {
                    write_block(self.disk, blk, &data);
                }
            }
        }
        for (inode, _) in self.inodes.values().filter(|(_, refs)| *refs > 0) {
            match inode.kind {
                FileKind::File => self.report.files += 1,
                FileKind::Dir => self.report.dirs += 1,
            }
        }
        Ok(())
    }

    fn phase3_link_counts(&mut self) -> FsResult<()> {
        let mut fixes = Vec::new();
        for (&ino, (inode, refs)) in &self.inodes {
            if *refs == 0 {
                continue; // phase 4 handles orphans
            }
            let expect = match inode.kind {
                // Implicit "." and "..": a directory's nlink is 2 + child dirs.
                FileKind::Dir => 1 + *refs + self.count_child_dirs(inode)?,
                FileKind::File => *refs,
            };
            if inode.nlink as u32 != expect {
                self.report.errors.push(format!(
                    "inode {ino} has nlink {} but {expect} references",
                    inode.nlink
                ));
                if self.repair {
                    fixes.push((ino, expect));
                }
            }
        }
        for (ino, expect) in fixes {
            let (blk, off) = self.sb.inode_location(ino)?;
            let mut img = read_block(self.disk, blk);
            if let Some(mut inode) = Inode::read_from(&img, off) {
                inode.nlink = expect as u16;
                inode.write_to(&mut img, off);
                write_block(self.disk, blk, &img);
                self.inodes.get_mut(&ino).expect("known inode").0.nlink = expect as u16;
                self.report.repairs.push(format!("fixed nlink of inode {ino} to {expect}"));
            }
        }
        Ok(())
    }

    fn count_child_dirs(&self, dinode: &Inode) -> FsResult<u32> {
        // Count subdirectory entries (each contributes an implicit "..").
        let mut n = 0;
        for blk in self.dir_blocks(dinode)?.0.into_iter().filter(|&b| b < self.sb.total_blocks) {
            if let Ok(entries) = crate::dir::list(&read_block(self.disk, blk)) {
                n += entries.iter().filter(|e| e.kind == FileKind::Dir).count() as u32;
            }
        }
        Ok(n)
    }

    fn phase4_orphans(&mut self) -> FsResult<()> {
        let orphans: Vec<u64> = self
            .inodes
            .iter()
            .filter(|(_, (_, refs))| *refs == 0)
            .map(|(&ino, _)| ino)
            .collect();
        for ino in orphans {
            self.report.errors.push(format!("inode {ino} allocated but unreferenced"));
            if self.repair {
                let (blk, off) = self.sb.inode_location(ino)?;
                let mut img = read_block(self.disk, blk);
                Inode::clear_slot(&mut img, off);
                write_block(self.disk, blk, &img);
                self.inodes.remove(&ino);
                self.report.repairs.push(format!("cleared orphan inode {ino}"));
            }
        }
        Ok(())
    }

    fn phase5_bitmaps(&mut self) -> FsResult<()> {
        // Recompute expected bitmaps from the (possibly repaired) state.
        let live: std::collections::HashSet<u64> = if self.repair {
            // After orphan clearing, only reachable inodes own blocks.
            let mut owned = std::collections::HashSet::new();
            for (&blk, &ino) in &self.block_owner {
                if self.inodes.contains_key(&ino) {
                    owned.insert(blk);
                }
            }
            owned
        } else {
            self.block_owner.keys().copied().collect()
        };
        for cg in 0..self.sb.cg_count {
            let hdr_blk = self.sb.cg_header_block(cg);
            let img = read_block(self.disk, hdr_blk);
            let Ok(mut hdr) = CgHeader::read_from(&img, cg) else {
                self.report.errors.push(format!("cylinder group {cg} header corrupt"));
                continue;
            };
            let blk_of = |i: usize| self.sb.cg_data_start(cg) + i as u64;
            let ino_of = |i: usize| cg as u64 * self.sb.inodes_per_cg as u64 + i as u64;
            let bad_blocks =
                self.report.reconcile(self.repair, &mut hdr.block_bitmap, "block", blk_of, |i| {
                    live.contains(&blk_of(i))
                });
            let bad_inodes =
                self.report.reconcile(self.repair, &mut hdr.inode_bitmap, "inode", ino_of, |i| {
                    let ino = ino_of(i);
                    ino == INO_NIL || ino == INO_BAD || self.inodes.contains_key(&ino)
                });
            if (bad_blocks || bad_inodes) && self.repair {
                let mut out = vec![0u8; BLOCK_SIZE];
                hdr.write_to(&mut out);
                write_block(self.disk, hdr_blk, &out);
                self.report.repairs.push(format!("rewrote cylinder group {cg} header"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::FfsOptions;
    use crate::mkfs::{mkfs, MkfsParams};
    use cffs_disksim::models;
    use cffs_fslib::{path, FileSystem};

    fn populated_disk() -> Disk {
        let disk = Disk::new(models::tiny_test_disk());
        let fs = mkfs(disk, MkfsParams::tiny(), FfsOptions::default()).unwrap();
        path::mkdir_p(&fs, "/a/b").unwrap();
        path::write_file(&fs, "/a/x.txt", b"hello").unwrap();
        path::write_file(&fs, "/a/b/y.txt", &vec![7u8; 100_000]).unwrap();
        let f = path::resolve(&fs, "/a/x.txt").unwrap();
        fs.link(f, fs.root(), "hard").unwrap();
        fs.unmount().unwrap()
    }

    #[test]
    fn clean_fs_passes() {
        let mut disk = populated_disk();
        let report = fsck(&mut disk, false).unwrap();
        assert!(report.clean(), "unexpected errors: {:?}", report.errors);
        // x.txt (also named "hard") and y.txt; the root, a and a/b.
        assert_eq!((report.files, report.dirs), (2, 3));
    }

    #[test]
    fn detects_and_repairs_orphan_inode() {
        let mut disk = populated_disk();
        // Forge an orphan: allocate a slot in the bitmap + inode table with
        // no directory entry.
        let sb = Superblock::read_from(&read_block(&disk, SB_BLOCK)).unwrap();
        let ino = 200u64;
        let (blk, off) = sb.inode_location(ino).unwrap();
        let mut img = read_block(&disk, blk);
        Inode::new(FileKind::File).write_to(&mut img, off);
        write_block(&mut disk, blk, &img);
        let hdr_blk = sb.cg_header_block(0);
        let mut hdr = CgHeader::read_from(&read_block(&disk, hdr_blk), 0).unwrap();
        hdr.inode_bitmap.set(ino as usize);
        let mut out = vec![0u8; BLOCK_SIZE];
        hdr.write_to(&mut out);
        write_block(&mut disk, hdr_blk, &out);

        let report = fsck(&mut disk, false).unwrap();
        assert!(!report.clean());
        let report = fsck(&mut disk, true).unwrap();
        assert!(!report.repairs.is_empty());
        assert!(fsck(&mut disk, false).unwrap().clean());
    }

    #[test]
    fn detects_dangling_dirent() {
        let mut disk = populated_disk();
        let sb = Superblock::read_from(&read_block(&disk, SB_BLOCK)).unwrap();
        // Clear the inode that "/a/x.txt" points to without touching the
        // directory — simulating a crash with the wrong write order.
        let fs = crate::fs::Ffs::mount(disk, FfsOptions::default()).unwrap();
        let ino = path::resolve(&fs, "/a/x.txt").unwrap();
        disk = fs.unmount().unwrap();
        let (blk, off) = sb.inode_location(ino).unwrap();
        let mut img = read_block(&disk, blk);
        Inode::clear_slot(&mut img, off);
        write_block(&mut disk, blk, &img);

        let report = fsck(&mut disk, false).unwrap();
        assert!(report.errors.iter().any(|e| e.contains("bad inode")), "{:?}", report.errors);
        fsck(&mut disk, true).unwrap();
        assert!(fsck(&mut disk, false).unwrap().clean());
        // The name is gone after repair.
        let fs = crate::fs::Ffs::mount(disk, FfsOptions::default()).unwrap();
        assert!(path::resolve(&fs, "/a/x.txt").is_err());
        assert!(path::resolve(&fs, "/a/b/y.txt").is_ok());
    }

    #[test]
    fn detects_bitmap_drift() {
        let mut disk = populated_disk();
        let sb = Superblock::read_from(&read_block(&disk, SB_BLOCK)).unwrap();
        let hdr_blk = sb.cg_header_block(0);
        let mut hdr = CgHeader::read_from(&read_block(&disk, hdr_blk), 0).unwrap();
        // Mark a random free block as allocated.
        let idx = hdr.block_bitmap.find_free(100).unwrap();
        hdr.block_bitmap.set(idx);
        let mut out = vec![0u8; BLOCK_SIZE];
        hdr.write_to(&mut out);
        write_block(&mut disk, hdr_blk, &out);

        let report = fsck(&mut disk, false).unwrap();
        assert!(!report.clean());
        fsck(&mut disk, true).unwrap();
        assert!(fsck(&mut disk, false).unwrap().clean());
    }

    /// Rewrite the on-disk image of inode `ino` through `f`.
    fn patch_inode(disk: &mut Disk, sb: &Superblock, ino: u64, f: impl FnOnce(&mut Inode)) {
        let (blk, off) = sb.inode_location(ino).unwrap();
        let mut img = read_block(disk, blk);
        let mut inode = Inode::read_from(&img, off).unwrap();
        f(&mut inode);
        inode.write_to(&mut img, off);
        write_block(disk, blk, &img);
    }

    #[test]
    fn walks_directory_blocks_in_the_double_indirect_range() {
        // A 1 037-block directory whose last block, the first mapped
        // through the double-indirect block, holds x's only name.
        let fs = mkfs(Disk::new(models::tiny_test_disk()), MkfsParams::tiny(), FfsOptions::default())
            .unwrap();
        let root = fs.root();
        let x = fs.create(root, "x").unwrap();
        let big = fs.create(root, "big").unwrap();
        let nblocks = 12 + 1024 + 1;
        let mut content = vec![0u8; nblocks * BLOCK_SIZE];
        for blk in content.chunks_mut(BLOCK_SIZE) {
            crate::dir::init_block(blk);
        }
        let last = (nblocks - 1) * BLOCK_SIZE;
        crate::dir::insert(&mut content[last..], "x", x as u32, FileKind::File).unwrap();
        fs.write(big, 0, &content).unwrap();
        let mut disk = fs.unmount().unwrap();

        // Turn `big` into a directory and move x's name into it.
        let sb = Superblock::read_from(&read_block(&disk, SB_BLOCK)).unwrap();
        patch_inode(&mut disk, &sb, big, |i| (i.kind, i.nlink) = (FileKind::Dir, 2));
        let mut root_blk = 0;
        patch_inode(&mut disk, &sb, INO_ROOT, |i| {
            i.nlink += 1;
            root_blk = i.direct[0] as u64;
        });
        let mut img = read_block(&disk, root_blk);
        crate::dir::remove(&mut img, "x").unwrap();
        crate::dir::remove(&mut img, "big").unwrap();
        crate::dir::insert(&mut img, "big", big as u32, FileKind::Dir).unwrap();
        write_block(&mut disk, root_blk, &img);

        let report = fsck(&mut disk, false).unwrap();
        assert!(report.clean(), "unexpected errors: {:?}", report.errors);
    }

    #[test]
    fn detects_wrong_nlink() {
        let mut disk = populated_disk();
        let sb = Superblock::read_from(&read_block(&disk, SB_BLOCK)).unwrap();
        let fs = crate::fs::Ffs::mount(disk, FfsOptions::default()).unwrap();
        let ino = path::resolve(&fs, "/a/b/y.txt").unwrap();
        disk = fs.unmount().unwrap();
        let (blk, off) = sb.inode_location(ino).unwrap();
        let mut img = read_block(&disk, blk);
        let mut inode = Inode::read_from(&img, off).unwrap();
        inode.nlink = 7;
        inode.write_to(&mut img, off);
        write_block(&mut disk, blk, &img);

        let report = fsck(&mut disk, false).unwrap();
        assert!(report.errors.iter().any(|e| e.contains("nlink")));
        fsck(&mut disk, true).unwrap();
        assert!(fsck(&mut disk, false).unwrap().clean());
    }
}
