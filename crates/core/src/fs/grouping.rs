//! Block placement: plain and grouped allocation, freeing, degrouping,
//! application-directed regrouping, and the online regrouper's
//! relocation protocol.

use crate::dirent::{self, EntryLoc};
use crate::groups::{FreeOutcome, Group, GroupIndex};
use crate::layout::Superblock;
use crate::layout::{decode_ino, embedded_ino, InoRef};
use cffs_fslib::bmap;
use cffs_fslib::inode::{Inode, NO_BLOCK};
use cffs_fslib::{FileKind, FsError, FsResult, Ino, BLOCK_SIZE};
use cffs_obs::{Ctr, OpKind};
use std::ops::Deref;
use std::sync::MutexGuard;
use super::{AllocCtx, Cffs, CgUsage, Fetch, Inner};

/// The in-core group index, read under the file system's lock: the lock
/// is held until the guard drops, so any other call on the same `Cffs`
/// while the guard lives deadlocks. Keep it short; what a query needs
/// from the file system the guard carries ([`GroupIndexGuard::group_of_block`]).
pub struct GroupIndexGuard<'a> {
    st: MutexGuard<'a, Inner>,
    geo: &'a Superblock,
}

impl Deref for GroupIndexGuard<'_> {
    type Target = GroupIndex;

    fn deref(&self) -> &GroupIndex {
        &self.st.groups
    }
}

impl GroupIndexGuard<'_> {
    /// The group holding block `blk`, if any ([`GroupIndex::group_of_block`]
    /// on the mount's own geometry, so no superblock is read while the
    /// guard holds the lock).
    pub fn group_of_block(&self, blk: u64) -> Option<&Group> {
        self.st.groups.group_of_block(self.geo, blk)
    }
}

impl Cffs {
    /// The in-core group index (benchmarks, tests), under the file
    /// system's lock for the guard's lifetime.
    pub fn group_index(&self) -> GroupIndexGuard<'_> {
        GroupIndexGuard { st: self.lock(), geo: &self.geo }
    }

    /// Application-directed grouping across directories — the richer form
    /// of [`FileSystem::group_hint`] for documents whose pieces live in
    /// *different* directories (the paper's hypertext example
    /// [Kaashoek96]): relocate the blocks of each small file in `files`
    /// into group extents anchored at `anchor_dir`, so one group fetch
    /// serves the whole document.
    pub fn group_files(&self, anchor_dir: Ino, files: &[Ino]) -> FsResult<()> {
        let st = &mut *self.lock();
        let _span = self.op_span(OpKind::GroupFiles);
        if !self.cfg.group {
            return Ok(());
        }
        self.charge(self.cpu_model().syscall);
        self.require_dir(st, anchor_dir)?;
        for &ino in files {
            let mut inode = self.read_inode(st, ino)?;
            if inode.kind != FileKind::File {
                continue;
            }
            self.regroup(st, anchor_dir, ino, &mut inode)?;
            self.write_inode(st, ino, &inode, false)?;
        }
        Ok(())
    }

    // ----- online regrouping support (driven by `cffs-regroup`) -----------

    /// Per-cylinder-group occupancy snapshot: the regrouper's and
    /// heatmap's view of how full each CG's data area is.
    pub fn cg_usage(&self) -> Vec<CgUsage> {
        let st = self.lock();
        st.cgs
            .iter()
            .map(|s| CgUsage {
                cg: s.hdr.cg,
                data_blocks: s.hdr.block_bitmap.len() as u32,
                used_blocks: s.hdr.block_bitmap.used() as u32,
            })
            .collect()
    }

    /// Is this physical block resident in the buffer cache? Idle-only
    /// regrouping uses this to restrict itself to moves that need no
    /// source read I/O.
    pub fn block_resident(&self, blk: u64) -> bool {
        self.lock().cache.contains(blk)
    }

    /// Carve a fresh, *empty* group extent owned by `dir`, probing
    /// cylinder groups outward from the directory's home. Members are
    /// claimed one at a time via [`Cffs::group_claim_slot`] as blocks are
    /// relocated in; an extent left empty is reclaimed under space
    /// pressure (and dissolved by fsck after a crash). Returns the group
    /// key, or `None` when grouping is off or no contiguous run exists.
    pub fn carve_group_for(&self, dir: Ino) -> FsResult<Option<(u32, u32)>> {
        if !self.cfg.group {
            return Ok(None);
        }
        let st = &mut *self.lock();
        let dnode = self.require_dir(st, dir)?;
        let near = self.dir_home(dir, &dnode);
        self.charge(self.cpu_model().alloc_op);
        let n = self.geo.cg_count;
        let near = near.min(n - 1);
        let nslots = self.cfg.group_blocks;
        for d in 0..n {
            let cg = (near + d) % n;
            let s = &mut st.cgs[cg as usize];
            if let Some(key) = st.groups.carve_empty(&self.geo, &mut s.hdr, dir, nslots)? {
                s.dirty = true;
                self.obs.bump(Ctr::RegroupGroupsFormed);
                self.obs.cg_used_delta(cg as usize, nslots as i64);
                return Ok(Some(key));
            }
        }
        Ok(None)
    }

    /// Claim the next free member slot of group `key` (lowest slot first,
    /// so consecutive claims produce a physically contiguous run).
    pub fn group_claim_slot(&self, key: (u32, u32)) -> Option<u64> {
        self.claim_slot(&mut self.lock(), key)
    }

    fn claim_slot(&self, st: &mut Inner, key: (u32, u32)) -> Option<u64> {
        st.groups.alloc_slot_in(key, |c, i, d, _| st.cgs[c as usize].set_group(i, Some(d)), &self.geo)
    }

    /// Step 1 of the regrouper's crash-safe relocation protocol:
    /// **copy-forward**. The block's contents are placed at the
    /// already-claimed destination `to` and flushed to the media while the
    /// inode still points at the old block. A crash anywhere in or after
    /// this step loses nothing: the logical pointer (and the old block's
    /// contents) are untouched, and the destination is unreferenced until
    /// [`Cffs::relocate_commit`] lands. A resident source buffer is
    /// re-homed in place ([`Cache::relocate_phys`]); a cold one is
    /// copied through the cache.
    ///
    /// [`Cache::relocate_phys`]: cffs_cache::Cache::relocate_phys
    pub fn relocate_copy_forward(&self, ino: Ino, lbn: u64, to: u64) -> FsResult<()> {
        let st = &mut *self.lock();
        self.relocate_copy_forward_inner(st, ino, lbn, to)
    }

    fn relocate_copy_forward_inner(&self, st: &mut Inner, ino: Ino, lbn: u64, to: u64) -> FsResult<()> {
        let inode = self.read_inode(st, ino)?;
        let from = self
            .bmap(st, ino, &inode, lbn)?
            .ok_or_else(|| FsError::Corrupt("relocating an unmapped block".into()))?;
        if from == to {
            return Ok(());
        }
        if !st.cache.relocate_phys(from, to) {
            let contents = self.fetch_block(st, from, ino, lbn, Fetch::Run)?;
            st.cache.modify_block(&self.drv, to, false, false, |d| {
                d.copy_from_slice(&contents)
            })?;
            self.charge(self.cpu_model().copy_cost(BLOCK_SIZE));
        }
        st.cache.flush_block_sync(&self.drv, to)
    }

    /// Step 2 of the protocol: **pointer rewrite, then free**. The block
    /// pointer for `lbn` is switched to `to` and forced durable (a single
    /// sector write for embedded inodes, a block write for external ones
    /// or indirect pointers — sector atomicity makes the switch
    /// all-or-nothing), and only then is the old block freed. Every tear
    /// point leaves either the old pointer with the old block intact, or
    /// the new pointer with the copied contents already durable from step
    /// 1 — fsck-clean and byte-identical either way. Callers must run
    /// step 1 first and commit immediately after.
    pub fn relocate_commit(&self, ino: Ino, lbn: u64, to: u64) -> FsResult<()> {
        let st = &mut *self.lock();
        self.relocate_commit_inner(st, ino, lbn, to)
    }

    fn relocate_commit_inner(&self, st: &mut Inner, ino: Ino, lbn: u64, to: u64) -> FsResult<()> {
        let mut inode = self.read_inode(st, ino)?;
        let from = self
            .bmap(st, ino, &inode, lbn)?
            .ok_or_else(|| FsError::Corrupt("committing an unmapped block".into()))?;
        if from == to {
            return Ok(());
        }
        let holder = bmap::set(&self.tree(st, ino, None), &mut inode, lbn, to)?;
        self.write_inode(st, ino, &inode, true)?;
        self.flush_map_location(st, ino, holder)?;
        // Relocation never renumbers `ino` itself, so positive entries
        // *resolving to* it stay valid. But if the moved block belongs
        // to a directory, the embedded inodes inside it re-home with
        // it: every child embedded at `from` now answers to a number
        // encoding `to`. Drop everything cached under the directory and
        // transfer each embedded child's external bookkeeping (cache
        // bindings, parent map, and — for child directories — group
        // ownership) to the new number, exactly as rename does when it
        // renumbers an entry.
        if inode.kind == FileKind::Dir {
            if let Some(dc) = self.dcache() {
                dc.purge_dir(ino);
            }
            let entries = {
                let data = self.fetch_block(st, to, ino, lbn, Fetch::Run)?;
                dirent::list(&data)?
            };
            for (_, e) in &entries {
                if !matches!(e.loc, EntryLoc::Embedded(_)) {
                    continue;
                }
                let old_ino = embedded_ino(from, e.offset, e.gen);
                let new_ino = embedded_ino(to, e.offset, e.gen);
                st.cache.purge_ino(old_ino);
                if let Some(dc) = self.dcache() {
                    dc.purge_ino(old_ino);
                }
                st.ns.parent_of.remove(&old_ino);
                if e.kind == FileKind::Dir {
                    self.renumber_dir(st, old_ino, new_ino);
                }
                st.ns.note_parent(new_ino, ino);
            }
        }
        st.cache.unbind_logical(ino, lbn);
        self.free_block_any(st, from);
        st.cache.bind_logical(to, ino, lbn);
        self.obs.bump(Ctr::RegroupBlocksMoved);
        Ok(())
    }

    /// Claim a slot in `group` and relocate `lbn` of `ino` into it
    /// (copy-forward then commit). Returns the new block, or `None` when
    /// the block is unmapped, already inside the target extent, or the
    /// group is full.
    pub fn relocate_block_into(
        &self,
        ino: Ino,
        lbn: u64,
        group: (u32, u32),
    ) -> FsResult<Option<u64>> {
        let st = &mut *self.lock();
        let inode = self.read_inode(st, ino)?;
        let Some(from) = self.bmap(st, ino, &inode, lbn)? else {
            return Ok(None);
        };
        if let Some(g) = st.groups.get(group.0, group.1) {
            if from >= g.start && from < g.start + g.nslots as u64 {
                return Ok(None);
            }
        }
        let Some(to) = self.claim_slot(st, group) else {
            return Ok(None);
        };
        self.relocate_copy_forward_inner(st, ino, lbn, to)?;
        self.relocate_commit_inner(st, ino, lbn, to)?;
        Ok(Some(to))
    }

    /// Force a re-pointed block pointer durable, whatever the metadata
    /// mode: the inode's sector/block when `holder` (from [`bmap::set`]) is
    /// `None`, the (already dirty) pointer block otherwise.
    fn flush_map_location(&self, st: &mut Inner, ino: Ino, holder: Option<u64>) -> FsResult<()> {
        match (holder, decode_ino(ino)) {
            (Some(blk), _) => st.cache.flush_block_sync(&self.drv, blk),
            (None, InoRef::External(slot)) => {
                let (blk, _) = self.exfile_locate(st, slot)?;
                st.cache.flush_block_sync(&self.drv, blk)
            }
            (None, InoRef::Embedded { blk, off, .. }) => {
                st.cache.flush_sector_sync(&self.drv, blk, off)
            }
        }
    }

    // ----- block allocation -----------------------------------------------

    /// Plain (ungrouped) allocation: probe cylinder groups from `near`,
    /// honoring a previous-block hint; reclaim group slack as a last
    /// resort.
    pub(super) fn alloc_plain(&self, st: &mut Inner, near: u32, hint: Option<u64>) -> FsResult<u64> {
        self.charge(self.cpu_model().alloc_op);
        for pass in 0..2 {
            let n = self.geo.cg_count;
            let near = near.min(n - 1);
            for d in 0..n {
                let cg = (near + d) % n;
                let s = &mut st.cgs[cg as usize];
                if s.hdr.block_bitmap.free() == 0 {
                    continue;
                }
                let data_start = self.geo.cg_data_start(cg);
                let hint_idx = match hint {
                    Some(h) if self.geo.block_cg(h) == Some(cg) && h + 1 >= data_start => {
                        ((h + 1 - data_start) as usize) % s.hdr.block_bitmap.len()
                    }
                    _ => 0,
                };
                if let Some(idx) = s.hdr.block_bitmap.find_free(hint_idx) {
                    s.hdr.block_bitmap.set(idx);
                    s.dirty = true;
                    self.obs.cg_used_delta(cg as usize, 1);
                    return Ok(data_start + idx as u64);
                }
            }
            if pass == 0 {
                // Space pressure: trim reserved-but-unused group slots.
                self.reclaim_slack(st);
            }
        }
        Err(FsError::NoSpace)
    }

    /// Trim trailing unused group slots everywhere, returning their blocks
    /// to the free pool.
    fn reclaim_slack(&self, st: &mut Inner) {
        for cg in 0..self.geo.cg_count {
            let released = st.groups.trim_slack(&self.geo, cg, |c, i, d| st.cgs[c as usize].set_group(i, d));
            for (start, len) in released {
                let data_start = self.geo.cg_data_start(cg);
                let s = &mut st.cgs[cg as usize];
                s.hdr.block_bitmap.clear_run((start - data_start) as usize, len);
                s.dirty = true;
                self.obs.cg_used_delta(cg as usize, -(len as i64));
                for b in start..start + len as u64 {
                    st.cache.invalidate_block(b);
                }
            }
        }
    }

    /// Grouped allocation for a small file (or directory block) of `dir`.
    /// Falls back to `None` when no slot or extent is available.
    fn alloc_grouped(&self, st: &mut Inner, dir: Ino, near: u32) -> FsResult<Option<u64>> {
        self.charge(self.cpu_model().alloc_op);
        let slot = st.groups.alloc_slot(dir, None, |c, i, d, _| st.cgs[c as usize].set_group(i, Some(d)), &self.geo);
        if let Some((blk, _)) = slot {
            return Ok(Some(blk));
        }
        // Carve a fresh extent, probing from the home group outward.
        let n = self.geo.cg_count;
        let near = near.min(n - 1);
        let nslots = self.cfg.group_blocks;
        for d in 0..n {
            let cg = (near + d) % n;
            let s = &mut st.cgs[cg as usize];
            if let Some((blk, _)) = st.groups.carve(&self.geo, &mut s.hdr, dir, nslots)? {
                s.dirty = true;
                self.obs.cg_used_delta(cg as usize, nslots as i64);
                return Ok(Some(blk));
            }
        }
        Ok(None)
    }

    /// Allocate a data block for logical block `lbn` of a file: grouped
    /// when grouping is on, the file has a directory context, and the
    /// block lies inside the small-file range (`lbn < group_blocks` —
    /// blocks past the group size always take the plain clustered path).
    pub(super) fn alloc_for(&self, st: &mut Inner, ctx: AllocCtx, lbn: u64, hint: Option<u64>) -> FsResult<u64> {
        match ctx {
            AllocCtx::Grouped { dir, near }
                if self.cfg.group && lbn < self.cfg.group_blocks as u64 =>
            {
                if let Some(blk) = self.alloc_grouped(st, dir, near)? {
                    return Ok(blk);
                }
                self.alloc_plain(st, near, hint)
            }
            AllocCtx::Grouped { near, .. } | AllocCtx::Plain { near } => {
                self.alloc_plain(st, near, hint)
            }
        }
    }

    /// Free a block wherever it lives: a group slot (possibly dissolving
    /// the group) or the plain bitmap.
    pub(super) fn free_block_any(&self, st: &mut Inner, blk: u64) {
        self.charge(self.cpu_model().alloc_op);
        let outcome = st.groups.free_slot(&self.geo, blk, |c, i, d| st.cgs[c as usize].set_group(i, d));
        match outcome {
            Some(FreeOutcome::SlotFreed) => {
                // The extent stays reserved; only the member bit changed.
            }
            Some(FreeOutcome::Dissolved { start, nslots }) => {
                self.obs.bump(Ctr::FsGroupDissolves);
                let cg = self.geo.block_cg(start).expect("group extent inside a CG");
                let data_start = self.geo.cg_data_start(cg);
                let s = &mut st.cgs[cg as usize];
                s.hdr.block_bitmap.clear_run((start - data_start) as usize, nslots as usize);
                s.dirty = true;
                self.obs.cg_used_delta(cg as usize, -(nslots as i64));
            }
            None => {
                let cg = self.geo.block_cg(blk).expect("freeing a block outside all CGs");
                let data_start = self.geo.cg_data_start(cg);
                let s = &mut st.cgs[cg as usize];
                assert!(
                    s.hdr.block_bitmap.clear((blk - data_start) as usize),
                    "double free of block {blk}"
                );
                s.dirty = true;
                self.obs.cg_used_delta(cg as usize, -1);
            }
        }
        st.cache.invalidate_block(blk);
    }

    /// The cylinder group a directory's storage is anchored to: the one
    /// assigned at `mkdir` (stored in the inode's flags, FFS-style
    /// spreading), falling back to the directory's first data block.
    pub(super) fn dir_home(&self, dir: Ino, dinode: &Inode) -> u32 {
        if dinode.flags != 0 {
            return (dinode.flags - 1).min(self.geo.cg_count - 1);
        }
        if dinode.direct[0] != NO_BLOCK {
            return self.geo.block_cg(dinode.direct[0] as u64).unwrap_or(0);
        }
        match decode_ino(dir) {
            InoRef::Embedded { blk, .. } => self.geo.block_cg(blk).unwrap_or(0),
            InoRef::External(_) => 0,
        }
    }

    /// Pick the cylinder group for a new directory: FFS spreads
    /// directories, preferring emptier groups (round-robin rotor biased by
    /// free space).
    pub(super) fn pick_dir_cg(&self, st: &mut Inner) -> u32 {
        let n = self.geo.cg_count;
        let rotor = st.dir_rotor % n;
        for probe in 0..n {
            let cg = (rotor + probe) % n;
            let bitmap = &st.cgs[cg as usize].hdr.block_bitmap;
            // "Above-average free" in spirit: at least a quarter free.
            if bitmap.free() * 4 >= bitmap.len() {
                st.dir_rotor = (cg + 1) % n;
                return cg;
            }
        }
        st.dir_rotor = (rotor + 1) % n;
        rotor
    }

    /// Allocation context for data blocks of file `ino`: anchored at (and,
    /// with grouping on, grouped with) the owning directory.
    pub(super) fn data_ctx(&self, st: &mut Inner, ino: Ino) -> FsResult<AllocCtx> {
        let parent = st.ns.parent_of.get(&ino).copied();
        match parent {
            Some(dir) => {
                let dinode = self.read_inode(st, dir)?;
                let near = self.dir_home(dir, &dinode);
                if self.cfg.group {
                    Ok(AllocCtx::Grouped { dir, near })
                } else {
                    Ok(AllocCtx::Plain { near })
                }
            }
            None => {
                let near = match decode_ino(ino) {
                    InoRef::Embedded { blk, .. } => self.geo.block_cg(blk).unwrap_or(0),
                    InoRef::External(_) => 0,
                };
                Ok(AllocCtx::Plain { near })
            }
        }
    }

    // ----- degrouping / regrouping ----------------------------------------

    /// When a file outgrows the group size, move its grouped blocks to
    /// plain clustered storage: large files take the normal FFS path, as
    /// the paper prescribes ("placement of data for large files remains
    /// unchanged").
    pub(super) fn degroup(&self, st: &mut Inner, ino: Ino, inode: &mut Inode) -> FsResult<()> {
        self.obs.bump(Ctr::FsDegroupings);
        let near = match self.data_ctx(st, ino)? {
            AllocCtx::Plain { near } | AllocCtx::Grouped { near, .. } => near,
        };
        let nblocks = inode.size.div_ceil(BLOCK_SIZE as u64);
        let mut hint: Option<u64> = None;
        for lbn in 0..nblocks {
            let Some(old) = self.bmap(st, ino, inode, lbn)? else { continue };
            if st.groups.group_of_block(&self.geo, old).is_none() {
                hint = Some(old);
                continue;
            }
            let new = self.alloc_plain(st, near, hint)?;
            hint = Some(new);
            self.move_block(st, ino, inode, lbn, old, new)?;
        }
        Ok(())
    }

    /// Move a (small) file's blocks *into* its directory's groups — the
    /// application-directed grouping path behind
    /// [`FileSystem::group_hint`].
    fn regroup(&self, st: &mut Inner, dir: Ino, ino: Ino, inode: &mut Inode) -> FsResult<()> {
        let dnode = self.read_inode(st, dir)?;
        let near = self.dir_home(dir, &dnode);
        let nblocks = inode.size.div_ceil(BLOCK_SIZE as u64);
        if nblocks >= self.cfg.group_blocks as u64 {
            return Ok(()); // too large to group
        }
        for lbn in 0..nblocks {
            let Some(old) = self.bmap(st, ino, inode, lbn)? else { continue };
            match st.groups.group_of_block(&self.geo, old) {
                Some(g) if g.owner == dir => continue,
                _ => {}
            }
            let Some(new) = self.alloc_grouped(st, dir, near)? else { break };
            self.move_block(st, ino, inode, lbn, old, new)?;
        }
        Ok(())
    }

    /// Copy logical block `lbn` of `ino` from `old` to the freshly
    /// allocated `new` through the cache, re-point the map, free `old`.
    fn move_block(&self, st: &mut Inner, ino: Ino, inode: &mut Inode, lbn: u64, old: u64, new: u64) -> FsResult<()> {
        let contents = self.fetch_block(st, old, ino, lbn, Fetch::Run)?;
        st.cache.modify_block(&self.drv, new, false, false, |d| d.copy_from_slice(&contents))?;
        self.charge(self.cpu_model().copy_cost(BLOCK_SIZE));
        bmap::set(&self.tree(st, ino, None), inode, lbn, new)?;
        st.cache.unbind_logical(ino, lbn);
        self.free_block_any(st, old);
        st.cache.bind_logical(new, ino, lbn);
        Ok(())
    }

    /// Application-directed grouping — see [`FileSystem::group_hint`].
    pub fn group_hint(&self, dirino: Ino, names: &[&str]) -> FsResult<()> {
        let st = &mut *self.lock();
        let _span = self.op_span(OpKind::GroupHint);
        if !self.cfg.group {
            return Ok(());
        }
        self.charge(self.cpu_model().syscall);
        let dinode = self.require_dir(st, dirino)?;
        for name in names {
            let Some((blk, _, e)) = self.dir_find(st, dirino, &dinode, name, Fetch::Run, None)? else {
                return Err(FsError::NotFound);
            };
            if e.kind != FileKind::File {
                continue;
            }
            let ino = self.entry_ino(blk, &e);
            let mut inode = self.read_inode(st, ino)?;
            self.regroup(st, dirino, ino, &mut inode)?;
            self.write_inode(st, ino, &inode, false)?;
        }
        Ok(())
    }
}
