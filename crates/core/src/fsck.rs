//! Off-line checker for C-FFS.
//!
//! The paper's "File system recovery" discussion: "Although inodes are no
//! longer at statically determined locations, they can all be found
//! (assuming no media corruption) by following the directory hierarchy."
//! That is exactly what this checker does:
//!
//! 1. **Namespace walk** from the root (external slot 0): every embedded
//!    inode is discovered inside its directory block; external references
//!    are counted. Files whose blocks are already claimed by an
//!    earlier-visited file (the debris of a crashed rename, which briefly
//!    holds two embedded copies) are treated as duplicates and dropped in
//!    repair mode.
//! 2. **External slot scan** (the inode file, or the per-CG tables):
//!    slots holding images that the walk never referenced are orphans (the
//!    expected leak of the ordering discipline — never a lost name).
//! 3. **Link counts**: embedded inodes must have exactly one link by
//!    construction; external files must match their reference count;
//!    directories carry 2 + child-directories.
//! 4. **Group descriptors**: extents must lie inside their cylinder group
//!    with all blocks reserved in the bitmap; member bits must exactly
//!    match the walk's claims inside the extent.
//! 5. **Bitmaps**: a block is allocated iff it is claimed by a file, the
//!    external inode file, or reserved by a group extent. Headers and
//!    inode tables are not data: a pointer into one is invalid.
//!
//! Repair rebuilds group descriptors and bitmaps from the walk, clears
//! orphans and duplicates, fixes link counts, then re-verifies.

use crate::dirent::{self, EntryLoc};
use crate::layout::{
    decode_ino, embedded_ino, external_ino, CgHeader, InoRef, Superblock, GROUP_BLOCKS, INO_ROOT,
    SB_BLOCK,
};
use cffs_disksim::Disk;
use cffs_fslib::bmap::{self, Mapped};
pub use cffs_fslib::fsck::FsckReport;
use cffs_fslib::inode::Inode;
use cffs_fslib::{read_block, write_block, FileKind, FsError, FsResult, Ino, BLOCK_SIZE};
use std::collections::{HashMap, HashSet};

/// Check (and with `repair`, fix) the C-FFS image on `disk`.
pub fn fsck(disk: &mut Disk, repair: bool) -> FsResult<FsckReport> {
    cffs_fslib::fsck::run(disk, repair, check)
}

/// One pass of the five steps.
fn check(disk: &mut Disk, repair: bool) -> FsResult<FsckReport> {
    let sb = Superblock::read_from(&read_block(disk, SB_BLOCK))?;
    let mut c = Checker {
        disk,
        sb,
        repair,
        report: FsckReport::default(),
        claimed: HashMap::new(),
        ext_refs: HashMap::new(),
        inodes: HashMap::new(),
    };
    c.claim_exfile()?;
    c.walk_namespace()?;
    c.check_external_orphans()?;
    c.check_link_counts()?;
    c.check_groups_and_bitmaps()?;
    Ok(c.report)
}

struct Checker<'d> {
    disk: &'d mut Disk,
    sb: Superblock,
    repair: bool,
    report: FsckReport,
    /// blk -> owning ino (u64::MAX = the external inode file itself).
    claimed: HashMap<u64, Ino>,
    /// external slot -> reference count from the namespace.
    ext_refs: HashMap<u32, u32>,
    /// every live inode found (by current number) with child-dir count for
    /// directories.
    inodes: HashMap<Ino, (Inode, u32)>,
}

const EXFILE_OWNER: Ino = u64::MAX;

impl Checker<'_> {
    /// Every block `inode` maps below its size, each pointer block before
    /// the blocks it maps.
    fn tree(&self, inode: &Inode) -> FsResult<Vec<Mapped>> {
        let mut out = Vec::new();
        let nblocks = inode.size.div_ceil(BLOCK_SIZE as u64);
        bmap::walk(&*self.disk, inode, nblocks, |m| out.push(m))?;
        Ok(out)
    }

    /// Claim `blk` for `owner`; returns false (and records an error) on a
    /// duplicate or out-of-range claim.
    fn claim(&mut self, owner: Ino, blk: u64) -> bool {
        if !self.sb.is_data_block(blk) {
            self.report.errors.push(format!("inode {owner:#x} references invalid block {blk}"));
            return false;
        }
        if let Some(prev) = self.claimed.insert(blk, owner) {
            self.report
                .errors
                .push(format!("block {blk} claimed by inodes {prev:#x} and {owner:#x}"));
            self.claimed.insert(blk, prev);
            return false;
        }
        true
    }

    /// Block and byte offset of external slot `slot`; `None` past the end
    /// of the external inode file or in a hole of it.
    fn external_location(&self, slot: u32) -> Option<(u64, usize)> {
        if slot >= self.sb.exfile_slots {
            return None;
        }
        self.sb.slot_location(slot, |lbn| bmap::lookup(&*self.disk, &self.sb.exfile, lbn)).ok()?
    }

    fn read_external(&self, slot: u32) -> Option<Inode> {
        let (blk, off) = self.external_location(slot)?;
        Inode::read_from(&read_block(self.disk, blk), off)
    }

    fn claim_exfile(&mut self) -> FsResult<()> {
        for m in self.tree(&self.sb.exfile)? {
            self.claim(EXFILE_OWNER, m.blk());
        }
        Ok(())
    }

    fn walk_namespace(&mut self) -> FsResult<()> {
        let Some(root) = self.read_external(0) else {
            self.report.errors.push("root inode missing".into());
            if self.repair {
                let Some((blk, off)) = self.external_location(0) else {
                    return Err(FsError::Corrupt("external inode file unreadable".into()));
                };
                let mut img = read_block(self.disk, blk);
                let mut r = Inode::new(FileKind::Dir);
                r.nlink = 2;
                r.write_to(&mut img, off);
                write_block(self.disk, blk, &img);
                self.report.repairs.push("recreated empty root inode".into());
                return self.walk_namespace();
            }
            return Ok(());
        };
        self.ext_refs.insert(0, 1);
        self.inodes.insert(INO_ROOT, (root.clone(), 0));
        self.report.dirs += 1;
        let mut queue = vec![(INO_ROOT, root)];
        let mut seen_dirs: HashSet<Ino> = [INO_ROOT].into();
        while let Some((dirino, dinode)) = queue.pop() {
            let tree = self.tree(&dinode)?;
            for m in &tree {
                self.claim(dirino, m.blk());
            }
            let mut child_dirs = 0u32;
            for &m in &tree {
                let Mapped::Data { blk, .. } = m else { continue };
                let mut img = read_block(self.disk, blk);
                let entries = match dirent::list(&img) {
                    Ok(es) => es,
                    Err(_) => {
                        self.report
                            .errors
                            .push(format!("directory {dirino:#x} block {blk} is corrupt"));
                        if self.repair {
                            dirent::init_block(&mut img);
                            write_block(self.disk, blk, &img);
                            self.report
                                .repairs
                                .push(format!("reinitialized corrupt directory block {blk}"));
                        }
                        continue;
                    }
                };
                let mut dirty = false;
                for (name, e) in entries {
                    let (ino, inode) = match e.loc {
                        EntryLoc::Embedded(img_off) => {
                            let ino = embedded_ino(blk, e.offset, e.gen);
                            match Inode::read_from(&img, img_off) {
                                Some(i) if i.kind == e.kind => (ino, i),
                                _ => {
                                    self.report.errors.push(format!(
                                        "embedded inode of '{name}' in {dirino:#x} invalid"
                                    ));
                                    if self.repair {
                                        dirent::remove_at(&mut img, e.offset)?;
                                        dirty = true;
                                        self.report
                                            .repairs
                                            .push(format!("removed bad entry '{name}'"));
                                    }
                                    continue;
                                }
                            }
                        }
                        EntryLoc::External(slot) => {
                            let ino = external_ino(slot);
                            match self.read_external(slot) {
                                Some(i) if i.kind == e.kind => {
                                    *self.ext_refs.entry(slot).or_insert(0) += 1;
                                    (ino, i)
                                }
                                _ => {
                                    self.report.errors.push(format!(
                                        "entry '{name}' in {dirino:#x} points at bad external slot {slot}"
                                    ));
                                    if self.repair {
                                        dirent::remove_at(&mut img, e.offset)?;
                                        dirty = true;
                                        self.report
                                            .repairs
                                            .push(format!("removed dangling entry '{name}'"));
                                    }
                                    continue;
                                }
                            }
                        }
                    };
                    match inode.kind {
                        FileKind::Dir => {
                            if !seen_dirs.insert(ino) {
                                self.report
                                    .errors
                                    .push(format!("directory {ino:#x} reachable twice"));
                                continue;
                            }
                            child_dirs += 1;
                            self.report.dirs += 1;
                            self.inodes.insert(ino, (inode.clone(), 0));
                            queue.push((ino, inode));
                        }
                        FileKind::File => {
                            if self.inodes.contains_key(&ino) {
                                // Same external inode via several names: blocks
                                // already claimed.
                                continue;
                            }
                            // Claim this file's blocks; duplicates mean a
                            // crashed rename left two copies — drop this one.
                            let tree = self.tree(&inode)?;
                            let dup = tree.iter().any(|m| self.claimed.contains_key(&m.blk()));
                            if dup {
                                self.report.errors.push(format!(
                                    "file '{name}' in {dirino:#x} duplicates already-claimed blocks"
                                ));
                                if self.repair {
                                    dirent::remove_at(&mut img, e.offset)?;
                                    dirty = true;
                                    if let EntryLoc::External(slot) = e.loc {
                                        *self.ext_refs.entry(slot).or_insert(1) -= 1;
                                    }
                                    self.report
                                        .repairs
                                        .push(format!("removed duplicate entry '{name}'"));
                                }
                                continue;
                            }
                            for m in tree {
                                self.claim(ino, m.blk());
                            }
                            self.report.files += 1;
                            self.inodes.insert(ino, (inode, 0));
                        }
                    }
                }
                if dirty {
                    write_block(self.disk, blk, &img);
                }
            }
            if let Some(entry) = self.inodes.get_mut(&dirino) {
                entry.1 = child_dirs;
            }
        }
        Ok(())
    }

    fn check_external_orphans(&mut self) -> FsResult<()> {
        for slot in 0..self.sb.exfile_slots {
            if self.read_external(slot).is_some() && !self.ext_refs.contains_key(&slot) {
                self.report.errors.push(format!("external inode {slot} is an orphan"));
                if self.repair {
                    // Free its blocks too: nothing references them.
                    if let Some(inode) = self.read_external(slot) {
                        for m in self.tree(&inode)? {
                            self.claimed.remove(&m.blk());
                        }
                    }
                    let (blk, off) = self.external_location(slot).ok_or_else(|| {
                        FsError::Corrupt(format!("orphan external slot {slot} unreadable"))
                    })?;
                    let mut img = read_block(self.disk, blk);
                    Inode::clear_slot(&mut img, off);
                    write_block(self.disk, blk, &img);
                    self.report.repairs.push(format!("cleared orphan external inode {slot}"));
                }
            }
        }
        // Stale reference counts of removed duplicates.
        self.ext_refs.retain(|_, c| *c > 0);
        Ok(())
    }

    fn check_link_counts(&mut self) -> FsResult<()> {
        let mut fixes: Vec<(Ino, u16)> = Vec::new();
        for (&ino, (inode, child_dirs)) in &self.inodes {
            let expect = match (inode.kind, decode_ino(ino)) {
                (FileKind::Dir, _) => 2 + *child_dirs as u16,
                (FileKind::File, InoRef::Embedded { .. }) => 1,
                (FileKind::File, InoRef::External(slot)) => {
                    *self.ext_refs.get(&slot).unwrap_or(&0) as u16
                }
            };
            if inode.nlink != expect {
                self.report
                    .errors
                    .push(format!("inode {ino:#x} has nlink {} but {expect} references", inode.nlink));
                if self.repair {
                    fixes.push((ino, expect));
                }
            }
        }
        for (ino, expect) in fixes {
            let (blk, img_off) = match decode_ino(ino) {
                InoRef::External(slot) => self.external_location(slot).ok_or_else(|| {
                    FsError::Corrupt(format!("external slot {slot} unreadable"))
                })?,
                InoRef::Embedded { blk, off, .. } => {
                    let img = read_block(self.disk, blk);
                    let e = dirent::entry_at(&img, off)?;
                    let EntryLoc::Embedded(io) = e.loc else { continue };
                    (blk, io)
                }
            };
            let mut img = read_block(self.disk, blk);
            if let Some(mut inode) = Inode::read_from(&img, img_off) {
                inode.nlink = expect;
                inode.write_to(&mut img, img_off);
                write_block(self.disk, blk, &img);
                if let Some(entry) = self.inodes.get_mut(&ino) {
                    entry.0.nlink = expect;
                }
                self.report.repairs.push(format!("fixed nlink of inode {ino:#x} to {expect}"));
            }
        }
        Ok(())
    }

    fn check_groups_and_bitmaps(&mut self) -> FsResult<()> {
        for cg in 0..self.sb.cg_count {
            let hdr_blk = self.sb.cg_header_block(cg);
            let Ok(mut hdr) = CgHeader::read_from(&read_block(self.disk, hdr_blk), cg) else {
                self.report.errors.push(format!("cylinder group {cg} header corrupt"));
                continue;
            };
            let data_start = self.sb.cg_data_start(cg);
            let mut dirty = false;
            // Blocks reserved by (valid) group extents.
            let mut reserved: HashSet<u64> = HashSet::new();
            for (i, slot) in hdr.groups.iter_mut().enumerate() {
                let Some(mut desc) = *slot else { continue };
                let start = data_start + desc.start_idx as u64;
                let ok_geometry = desc.nslots as usize <= GROUP_BLOCKS
                    && desc.nslots > 0
                    && desc.start_idx as usize + desc.nslots as usize
                        <= self.sb.data_per_cg() as usize;
                let owner_ok = matches!(
                    self.inodes.get(&desc.owner),
                    Some((inode, _)) if inode.kind == FileKind::Dir
                );
                if !ok_geometry || !owner_ok {
                    self.report.errors.push(format!(
                        "group {cg}/{i} invalid (geometry ok: {ok_geometry}, owner ok: {owner_ok})"
                    ));
                    if self.repair {
                        *slot = None;
                        dirty = true;
                        self.report.repairs.push(format!("deleted group descriptor {cg}/{i}"));
                    }
                    continue;
                }
                // Member bits must match claims inside the extent.
                let mut expect: u16 = 0;
                for s in 0..desc.nslots {
                    if self.claimed.contains_key(&(start + s as u64)) {
                        expect |= 1 << s;
                    }
                }
                if desc.member_valid != expect {
                    self.report.errors.push(format!(
                        "group {cg}/{i} member bits {:#06x}, expected {expect:#06x}",
                        desc.member_valid
                    ));
                    if self.repair {
                        if expect == 0 {
                            *slot = None;
                            self.report.repairs.push(format!("dissolved empty group {cg}/{i}"));
                        } else {
                            desc.member_valid = expect;
                            *slot = Some(desc);
                            self.report.repairs.push(format!("rebuilt member bits of {cg}/{i}"));
                        }
                        dirty = true;
                    }
                }
                let live = if self.repair {
                    slot.as_ref().map(|d| (start, d.nslots)).into_iter().collect::<Vec<_>>()
                } else {
                    vec![(start, desc.nslots)]
                };
                for (s, n) in live {
                    for b in s..s + n as u64 {
                        reserved.insert(b);
                    }
                }
            }
            // Bitmap: allocated ⇔ claimed or group-reserved.
            let blk_of = |idx: usize| data_start + idx as u64;
            let drift =
                self.report.reconcile(self.repair, &mut hdr.block_bitmap, "block", blk_of, |idx| {
                    self.claimed.contains_key(&blk_of(idx)) || reserved.contains(&blk_of(idx))
                });
            if dirty || (drift && self.repair) {
                let mut img = vec![0u8; BLOCK_SIZE];
                hdr.write_to(&mut img);
                write_block(self.disk, hdr_blk, &img);
                self.report.repairs.push(format!("rewrote cylinder group {cg} header"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exfile;
    use crate::fs::CffsConfig;
    use crate::mkfs::{mkfs, MkfsParams};
    use cffs_disksim::models;
    use cffs_fslib::path;

    fn populated(cfg: CffsConfig) -> Disk {
        let disk = Disk::new(models::tiny_test_disk());
        let fs = mkfs(disk, MkfsParams::tiny(), cfg).unwrap();
        path::mkdir_p(&fs, "/src/lib").unwrap();
        for i in 0..20 {
            path::write_file(&fs, &format!("/src/f{i}.c"), &vec![i as u8; 1024]).unwrap();
        }
        path::write_file(&fs, "/src/lib/big.bin", &vec![9u8; 150_000]).unwrap();
        let f = path::resolve(&fs, "/src/f0.c").unwrap();
        fs.link(f, fs.root(), "hard").unwrap();
        path::remove_file(&fs, "/src/f3.c").unwrap();
        fs.unmount().unwrap()
    }

    #[test]
    fn clean_after_workload_all_variants() {
        for cfg in [
            CffsConfig::ffs(),
            CffsConfig::cffs(),
            CffsConfig::conventional(),
            CffsConfig::embedded_only(),
            CffsConfig::grouping_only(),
        ] {
            let label = cfg.label.clone();
            let mut disk = populated(cfg);
            let report = fsck(&mut disk, false).unwrap();
            assert!(report.clean(), "{label}: {:?}", report.errors);
            assert_eq!(report.files, 20, "{label}"); // 19 files + big.bin
            assert_eq!(report.dirs, 3, "{label}");
        }
    }

    #[test]
    fn orphan_external_inode_detected_and_repaired() {
        for cfg in [CffsConfig::cffs(), CffsConfig::ffs()] {
            let label = cfg.label.clone();
            let mut disk = populated(cfg);
            let sb = Superblock::read_from(&read_block(&disk, SB_BLOCK)).unwrap();
            // Write an image into a free slot without referencing it: one
            // in the inode file's first block, or in the last CG's table.
            let slot = match sb.slots_per_table() {
                0 => 20,
                n => (sb.cg_count - 1) * n + 5,
            };
            let (blk, off) = sb
                .slot_location(slot, |lbn| bmap::lookup(&disk, &sb.exfile, lbn))
                .unwrap()
                .unwrap();
            let mut img = read_block(&disk, blk);
            assert!(Inode::read_from(&img, off).is_none(), "{label}: slot {slot} in use");
            Inode::new(FileKind::File).write_to(&mut img, off);
            write_block(&mut disk, blk, &img);

            let report = fsck(&mut disk, false).unwrap();
            let want = format!("external inode {slot} is an orphan");
            assert!(report.errors.contains(&want), "{label}: {:?}", report.errors);
            fsck(&mut disk, true).unwrap();
            assert!(fsck(&mut disk, false).unwrap().clean(), "{label}");
            assert!(Inode::read_from(&read_block(&disk, blk), off).is_none(), "{label}");
        }
    }

    #[test]
    fn out_of_range_external_slot_is_reported_not_a_panic() {
        // 400 multi-link files push the external inode file past its 12
        // direct blocks (384 slots): slots resolve through the
        // single-indirect block.
        let fs = mkfs(Disk::new(models::tiny_test_disk()), MkfsParams::tiny(), CffsConfig::cffs())
            .unwrap();
        let d = fs.mkdir(fs.root(), "d").unwrap();
        for i in 0..400 {
            let f = fs.create(d, &format!("f{i}")).unwrap();
            fs.link(f, d, &format!("l{i}")).unwrap();
        }
        let dblocks = fs.file_block_map(d).unwrap();
        let mut disk = fs.unmount().unwrap();
        let sb = Superblock::read_from(&read_block(&disk, SB_BLOCK)).unwrap();
        assert!(sb.exfile_slots > 12 * exfile::SLOTS_PER_BLOCK, "{}", sb.exfile_slots);

        // Point one name at a slot far past the file's end.
        let (blk, e) = dblocks
            .iter()
            .find_map(|&(_, blk)| Some((blk, dirent::find(&read_block(&disk, blk), "l7").ok()??)))
            .expect("entry l7");
        assert!(matches!(e.loc, EntryLoc::External(_)));
        let mut img = read_block(&disk, blk);
        cffs_fslib::codec::put_u32(&mut img, e.offset + 4, u32::MAX);
        write_block(&mut disk, blk, &img);

        let report = fsck(&mut disk, false).unwrap();
        assert!(
            report.errors.iter().any(|e| e.contains("'l7'") && e.contains("bad external slot")),
            "{:?}",
            report.errors
        );
        fsck(&mut disk, true).unwrap();
        assert!(fsck(&mut disk, false).unwrap().clean());
    }

    #[test]
    fn bitmap_drift_detected_and_repaired() {
        let mut disk = populated(CffsConfig::cffs());
        let sb = Superblock::read_from(&read_block(&disk, SB_BLOCK)).unwrap();
        let hdr_blk = sb.cg_header_block(1);
        let mut hdr = CgHeader::read_from(&read_block(&disk, hdr_blk), 1).unwrap();
        let idx = hdr.block_bitmap.find_free(50).unwrap();
        hdr.block_bitmap.set(idx);
        let mut img = vec![0u8; BLOCK_SIZE];
        hdr.write_to(&mut img);
        write_block(&mut disk, hdr_blk, &img);

        assert!(!fsck(&mut disk, false).unwrap().clean());
        fsck(&mut disk, true).unwrap();
        assert!(fsck(&mut disk, false).unwrap().clean());
    }

    #[test]
    fn torn_create_name_never_dangles_with_embedding() {
        // The embedded-inode atomicity claim: with name and inode in one
        // sector, a crash between "inode write" and "name write" cannot
        // exist. Simulate the worst crash — directory block written, data
        // not — and verify fsck finds a structurally valid file.
        let disk = Disk::new(models::tiny_test_disk());
        let fs = mkfs(disk, MkfsParams::tiny(), CffsConfig::cffs()).unwrap();
        path::write_file(&fs, "/a.txt", b"x").unwrap();
        let mut crash = fs.crash_image();
        // Synchronous mode: the entry (name+inode) hit the disk at create.
        let report = fsck(&mut crash, true).unwrap();
        // Whatever was lost, repair converges and no name dangles.
        assert!(fsck(&mut crash, false).unwrap().clean());
        let _ = report;
    }

    #[test]
    fn corrupt_dir_block_repaired() {
        let mut disk = populated(CffsConfig::cffs());
        // Find a directory block by walking from the root and smash it.
        let sb = Superblock::read_from(&read_block(&disk, SB_BLOCK)).unwrap();
        let root = Inode::read_from(&read_block(&disk, sb.exfile.direct[0] as u64), 0).unwrap();
        let rblk = root.direct[0] as u64;
        let mut img = read_block(&disk, rblk);
        img[0] = 0xFF;
        img[1] = 0xFF; // absurd reclen
        write_block(&mut disk, rblk, &img);
        assert!(!fsck(&mut disk, false).unwrap().clean());
        fsck(&mut disk, true).unwrap();
        assert!(fsck(&mut disk, false).unwrap().clean());
    }
}
