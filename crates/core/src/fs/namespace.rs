//! The namespace: directory scans, entry insertion and removal, and the
//! entry points that create, name, list and remove files and directories.

use crate::dirent::{self, CEntry, EntryLoc};
use crate::layout::{decode_ino, embedded_ino, external_ino, InoRef, GEN_MASK};
use cffs_dcache::DcacheAnswer;
use cffs_disksim::SimTime;
use cffs_fslib::bmap;
use cffs_fslib::error::check_name;
use cffs_fslib::file::{self, FileStore};
use cffs_fslib::inode::Inode;
use cffs_fslib::vfs::MetadataMode;
use cffs_fslib::{Attr, DirEntry, FileKind, FsError, FsResult, Ino, BLOCK_SIZE, SECTORS_PER_BLOCK};
use cffs_obs::{Ctr, OpKind};
use super::{AllocCtx, Cffs, Fetch, InodePlacement, Inner};

impl Cffs {
    // ----- directory helpers -------------------------------------------

    pub(super) fn require_dir(&self, st: &mut Inner, ino: Ino) -> FsResult<Inode> {
        let inode = self.read_inode(st, ino)?;
        if inode.kind != FileKind::Dir {
            return Err(FsError::NotDir);
        }
        Ok(inode)
    }

    /// The inode number an entry in block `blk` denotes.
    pub(super) fn entry_ino(&self, blk: u64, e: &CEntry) -> Ino {
        match e.loc {
            EntryLoc::Embedded(_) => embedded_ino(blk, e.offset, e.gen),
            EntryLoc::External(slot) => external_ino(slot),
        }
    }

    /// Scan a directory for `name`, serving misses as `fetch` says.
    /// Returns `(block, lbn, entry)`.
    pub(super) fn dir_find(
        &self,
        st: &mut Inner,
        dirino: Ino,
        dinode: &Inode,
        name: &str,
        fetch: Fetch,
    ) -> FsResult<Option<(u64, u64, CEntry)>> {
        let t = self.tree(st, dirino, None).fetching(fetch);
        file::dir_blocks(&t, dinode, |lbn, blk| {
            self.charge(self.cpu_model().scan_cost(16));
            Ok(dirent::find(&t.fetch(blk, lbn)?, name)?.map(|e| (blk, lbn, e)))
        })
    }

    /// Insert an entry, growing the directory if necessary. Returns
    /// `(block, entry_offset, grew)`. When `grew` is set, the caller must
    /// persist the directory inode *durably* after flushing the entry —
    /// the inode's new block pointer and size are part of the create's
    /// ordered update, or a crash would orphan the new block's entries.
    ///
    /// The entry goes in the first chunk with room (first fit), except
    /// an embedded entry whose durability is one sector write: that one
    /// goes where [`Cffs::earliest_chunk`] says the write lands first.
    fn dir_insert(
        &self,
        st: &mut Inner,
        dirino: Ino,
        dinode: &mut Inode,
        name: &str,
        kind: FileKind,
        payload: InsertPayload<'_>,
    ) -> FsResult<(u64, usize, bool)> {
        let need = match payload {
            InsertPayload::Embedded(_) => dirent::embedded_len(name.len()),
            InsertPayload::External(_) => dirent::external_len(name.len()),
        };
        let by_rotation = matches!(payload, InsertPayload::Embedded(_)) && self.sector_durable();
        let roomy = {
            let t = self.tree(st, dirino, None);
            file::dir_blocks(&t, dinode, |lbn, blk| {
                self.charge(self.cpu_model().scan_cost(16));
                // The handle is dropped before the insert modifies the block.
                let free = dirent::roomy_chunks(&t.fetch(blk, lbn)?, need, !by_rotation)?;
                Ok((free != 0).then_some((lbn, blk, free)))
            })?
        };
        let (lbn, blk, chunks, grew) = match roomy {
            Some(first) if by_rotation => {
                let (lbn, blk, chunk) = self.earliest_chunk(st, dirino, dinode, first, need)?;
                (lbn, blk, 1 << chunk, false)
            }
            Some((lbn, blk, free)) => (lbn, blk, free, false),
            None => {
                // Grow by one block — itself group-allocated when grouping
                // is on, so directory blocks co-locate with their files' data.
                let lbn = dinode.size / BLOCK_SIZE as u64;
                let ctx = AllocCtx::Grouped { dir: dirino, near: self.dir_home(dirino, dinode) };
                let blk = self.bmap_alloc(st, dirino, dinode, lbn, ctx)?;
                dinode.size += BLOCK_SIZE as u64;
                self.tree(st, dirino, None).modify(blk, lbn, false, dirent::init_block)?;
                (lbn, blk, u8::MAX, true)
            }
        };
        let off = self.tree(st, dirino, None).modify(blk, lbn, true, |d| match payload {
            InsertPayload::Embedded(inode) => {
                dirent::insert_embedded(d, chunks, name, kind, inode).map(|o| o.map(|(e, _)| e))
            }
            InsertPayload::External(slot) => dirent::insert_external(d, chunks, name, slot, kind),
        })??;
        Ok((blk, off.ok_or(FsError::NoSpace)?, grew))
    }

    /// Whether a directory mutation is made durable by one sector write
    /// (synchronous metadata, embedded inodes): see [`Cffs::dir_durable`].
    fn sector_durable(&self) -> bool {
        self.cfg.metadata_mode == MetadataMode::Synchronous && self.cfg.inodes == InodePlacement::Embedded
    }

    /// Rotation-aware placement (eager writing kept inside the directory):
    /// of the chunks with room for `need` bytes in `first` — the first-fit
    /// `(lbn, block, roomy chunks)` — and in every resident directory
    /// block after it, the one whose one-sector write, issued now, the
    /// disk model says completes first; the lowest `(lbn, chunk)` on a
    /// tie. Reads nothing from the disk. The scan is charged before the
    /// prediction and nothing moves the clock between it and the write,
    /// so the write issues at the predicted instant. Returns `(lbn,
    /// block, chunk)`.
    fn earliest_chunk(
        &self,
        st: &mut Inner,
        dirino: Ino,
        dinode: &Inode,
        first: (u64, u64, u8),
        need: usize,
    ) -> FsResult<(u64, u64, u32)> {
        let mut cands = [first; MAX_PLACEMENT_BLOCKS];
        let (mut n, mut scanned) = (1, 0);
        for lbn in first.0 + 1..dinode.size / BLOCK_SIZE as u64 {
            if n == cands.len() {
                break;
            }
            let roomy = |d: &[u8]| dirent::roomy_chunks(d, need, false);
            let Some((blk, free)) = st.cache.peek_logical(dirino, lbn, roomy) else { continue };
            scanned += 1;
            let free = free?;
            if free != 0 {
                cands[n] = (lbn, blk, free);
                n += 1;
            }
        }
        self.charge(self.cpu_model().scan_cost(16 * scanned));
        let now = self.drv.now();
        Ok(self.drv.with_disk(|d| {
            let (start, arm, model) = (now.max(d.busy_until()), d.arm_cylinder(), d.model());
            let mut best = (first.0, first.1, first.2.trailing_zeros(), SimTime(u64::MAX));
            for &(lbn, blk, free) in &cands[..n] {
                let lba = blk * SECTORS_PER_BLOCK;
                if let Some((chunk, p)) = model.earliest_sector(start, arm, lba, free.into(), true) {
                    if p.done < best.3 {
                        best = (lbn, blk, chunk, p.done);
                    }
                }
            }
            (best.0, best.1, best.2)
        }))
    }

    /// Flush the durability unit for a directory mutation at `(blk, off)`:
    /// one sector with embedded inodes, the whole block otherwise.
    fn dir_durable(&self, st: &mut Inner, blk: u64, off: usize) -> FsResult<()> {
        if self.cfg.metadata_mode != MetadataMode::Synchronous {
            self.obs.bump(Ctr::FsDelayedMetaWrites);
            return Ok(());
        }
        self.obs.bump(Ctr::FsSyncMetaWrites);
        if self.cfg.inodes == InodePlacement::Embedded {
            st.cache.flush_sector_sync(&self.drv, blk, off)
        } else {
            st.cache.flush_block_sync(&self.drv, blk)
        }
    }

    /// Durability for a *freshly grown* directory block: the whole block
    /// must reach the disk (its other chunks' free-record headers included),
    /// or a crash leaves garbage chunks around the one flushed sector.
    fn dir_durable_grown(&self, st: &mut Inner, blk: u64, off: usize, grew: bool) -> FsResult<()> {
        if grew && self.cfg.metadata_mode == MetadataMode::Synchronous {
            self.obs.bump(Ctr::FsSyncMetaWrites);
            st.cache.flush_block_sync(&self.drv, blk)
        } else {
            self.dir_durable(st, blk, off)
        }
    }

    /// Whether a directory holds no entry — the scan before its name is
    /// removed, so it reads each block alone.
    fn dir_is_empty(&self, st: &mut Inner, dirino: Ino, dinode: &Inode) -> FsResult<bool> {
        let t = self.tree(st, dirino, None).fetching(Fetch::Block);
        let busy = file::dir_blocks(&t, dinode, |lbn, blk| {
            Ok((!dirent::is_empty(&t.fetch(blk, lbn)?)?).then_some(()))
        })?;
        Ok(busy.is_none())
    }

    /// Retire a dead inode number from the in-core indices. Its buffer-
    /// cache bindings are already gone: the caller freed its blocks with
    /// `bmap::free_from`, whose `free_data` unbinds each one, so no scan
    /// of the cache's logical index is needed here (the renumbering
    /// paths, whose old number keeps live blocks, call `purge_ino`).
    fn retire_ino(&self, st: &mut Inner, ino: Ino) {
        if let Some(dc) = self.dcache() {
            // Positive entries resolving to the dead ino, and (for a
            // directory) any entries keyed under it.
            dc.purge_ino(ino);
            dc.purge_dir(ino);
        }
        st.ns.parent_of.remove(&ino);
        st.ns.last_read.remove(&ino);
    }

    /// A directory's inode number changed: transfer group ownership and fix
    /// the parent map.
    pub(super) fn renumber_dir(&self, st: &mut Inner, old: Ino, new: Ino) {
        // Dcache keys embed the parent ino; entries under the old number
        // can never be probed again (the handle is dead), so drop them.
        if let Some(dc) = self.dcache() {
            dc.purge_dir(old);
        }
        st.groups.reown(old, new, |c, i, d| st.cgs[c as usize].set_group(i, Some(d)), &self.geo);
        for v in st.ns.parent_of.values_mut() {
            if *v == old {
                *v = new;
            }
        }
    }

    /// Drop one link from file `ino` (its name is already gone), freeing
    /// storage at zero links. `entry` describes the removed name.
    fn drop_link_of_removed(&self, st: &mut Inner, ino: Ino, was_embedded: bool, mut inode: Inode) -> FsResult<()> {
        if was_embedded {
            // Embedded inodes always have exactly one link: removing the
            // entry removed the inode itself. Free the data.
            bmap::free_from(&self.tree(st, ino, None), &mut inode, 0)?;
            self.retire_ino(st, ino);
            return Ok(());
        }
        let InoRef::External(slot) = decode_ino(ino) else { unreachable!("external entry") };
        inode.nlink -= 1;
        if inode.nlink == 0 {
            bmap::free_from(&self.tree(st, ino, None), &mut inode, 0)?;
            self.free_external_slot(st, slot, true)?;
            self.retire_ino(st, ino);
        } else {
            self.write_inode(st, ino, &inode, true)?;
        }
        Ok(())
    }

    /// Resolve `name` in a directory — see [`FileSystem::lookup`].
    pub fn lookup(&self, dirino: Ino, name: &str) -> FsResult<Ino> {
        let st = &mut *self.lock();
        let _span = self.op_span(OpKind::Lookup);
        self.charge(self.cpu_model().syscall);
        check_name(name)?;
        // Namespace-cache fast path: a hit (positive or negative) skips
        // the inode read and the whole dirent scan. Entries are only
        // ever created under the file system's lock, and every
        // namespace mutation invalidates precisely, so a hit
        // needs no revalidation. A probe costs one dirent-compare.
        if let Some(dc) = self.dcache() {
            match dc.lookup(dirino, name) {
                DcacheAnswer::Pos(ino) => {
                    self.charge(self.cpu_model().scan_cost(1));
                    st.ns.note_parent(ino, dirino);
                    return Ok(ino);
                }
                DcacheAnswer::Neg => {
                    self.charge(self.cpu_model().scan_cost(1));
                    return Err(FsError::NotFound);
                }
                DcacheAnswer::Miss => {}
            }
        }
        let dinode = self.require_dir(st, dirino)?;
        match self.dir_find(st, dirino, &dinode, name, Fetch::Run)? {
            Some((blk, _, e)) => {
                let ino = self.entry_ino(blk, &e);
                if let Some(dc) = self.dcache() {
                    dc.insert_pos(dirino, name, ino);
                }
                st.ns.note_parent(ino, dirino);
                Ok(ino)
            }
            None => {
                if let Some(dc) = self.dcache() {
                    dc.insert_neg(dirino, name);
                }
                Err(FsError::NotFound)
            }
        }
    }

    /// Attributes of an inode — see [`FileSystem::getattr`].
    pub fn getattr(&self, ino: Ino) -> FsResult<Attr> {
        let st = &mut *self.lock();
        let _span = self.op_span(OpKind::Getattr);
        self.charge(self.cpu_model().syscall);
        let inode = self.read_inode(st, ino)?;
        Ok(Attr {
            ino,
            kind: inode.kind,
            size: inode.size,
            nlink: inode.nlink as u32,
            blocks: inode.blocks as u64,
        })
    }

    /// Create a file — see [`FileSystem::create`].
    pub fn create(&self, dirino: Ino, name: &str) -> FsResult<Ino> {
        self.make(OpKind::Create, dirino, name, FileKind::File)
    }

    /// Create a directory — see [`FileSystem::mkdir`].
    pub fn mkdir(&self, dirino: Ino, name: &str) -> FsResult<Ino> {
        self.make(OpKind::Mkdir, dirino, name, FileKind::Dir)
    }

    /// Name a fresh inode of `kind` in a directory, placed as the mount
    /// says: inside the entry, where one sector write makes name and inode
    /// durable together; or in an external slot (from the home group's
    /// table when there are tables), written before the name —
    /// conventional ordering.
    fn make(&self, op: OpKind, dirino: Ino, name: &str, kind: FileKind) -> FsResult<Ino> {
        let st = &mut *self.lock();
        let _span = self.op_span(op);
        self.charge(self.cpu_model().syscall);
        check_name(name)?;
        let mut dinode = self.require_dir(st, dirino)?;
        // Create-if-absent fast path: a cached negative entry proves the
        // name absent, so the existence scan can be skipped outright; a
        // cached positive entry is an immediate `Exists`.
        match self.dcache().map(|dc| dc.lookup(dirino, name)) {
            Some(DcacheAnswer::Pos(_)) => return Err(FsError::Exists),
            Some(DcacheAnswer::Neg) => {}
            _ => {
                if self.dir_find(st, dirino, &dinode, name, Fetch::Run)?.is_some() {
                    return Err(FsError::Exists);
                }
            }
        }
        let mut inode = Inode::new(kind);
        let home = if kind == FileKind::Dir {
            // FFS directory spreading: assign the new directory a home
            // cylinder group and remember it in the inode.
            let cg = self.pick_dir_cg(st);
            inode.nlink = 2;
            inode.flags = cg + 1;
            cg
        } else {
            self.dir_home(dirino, &dinode)
        };
        let slot = if self.cfg.inodes == InodePlacement::Embedded {
            inode.generation = Self::next_gen(st) as u32;
            None
        } else {
            let slot = self.alloc_external_slot(st, home)?;
            self.write_inode(st, external_ino(slot), &inode, true)?;
            Some(slot)
        };
        let payload = slot.map_or(InsertPayload::Embedded(&inode), InsertPayload::External);
        let (blk, off, grew) = self.dir_insert(st, dirino, &mut dinode, name, kind, payload)?;
        if kind == FileKind::Dir {
            dinode.nlink += 1;
        }
        self.dir_durable_grown(st, blk, off, grew)?;
        self.write_inode(st, dirino, &dinode, grew)?;
        let ino = slot.map_or_else(
            || embedded_ino(blk, off, (inode.generation & GEN_MASK as u32) as u16),
            external_ino,
        );
        if let Some(dc) = self.dcache() {
            dc.insert_pos(dirino, name, ino);
        }
        st.ns.note_parent(ino, dirino);
        Ok(ino)
    }

    /// Remove a file name — see [`FileSystem::unlink`].
    pub fn unlink(&self, dirino: Ino, name: &str) -> FsResult<()> {
        let st = &mut *self.lock();
        let _span = self.op_span(OpKind::Unlink);
        self.charge(self.cpu_model().syscall);
        check_name(name)?;
        let dinode = self.require_dir(st, dirino)?;
        // Removing a name reads blocks, not groups: nothing beside the
        // entry and its inode is wanted.
        let Some((blk, lbn, entry)) = self.dir_find(st, dirino, &dinode, name, Fetch::Block)? else {
            return Err(FsError::NotFound);
        };
        if entry.kind == FileKind::Dir {
            return Err(FsError::IsDir);
        }
        let ino = self.entry_ino(blk, &entry);
        let inode = self.read_inode_with(st, ino, Fetch::Block)?;
        let was_embedded = matches!(entry.loc, EntryLoc::Embedded(_));
        let off = entry.offset;
        st.cache.modify_block_bound(&self.drv, blk, dirino, lbn, true, |d| dirent::remove(d, name))??;
        // The name is now provably absent: cache the NotFound.
        if let Some(dc) = self.dcache() {
            dc.insert_neg(dirino, name);
        }
        // Name (and, embedded, the inode with it) goes first.
        self.dir_durable(st, blk, off)?;
        self.drop_link_of_removed(st, ino, was_embedded, inode)
    }

    /// Remove an empty directory — see [`FileSystem::rmdir`].
    pub fn rmdir(&self, dirino: Ino, name: &str) -> FsResult<()> {
        let st = &mut *self.lock();
        let _span = self.op_span(OpKind::Rmdir);
        self.charge(self.cpu_model().syscall);
        check_name(name)?;
        let mut dinode = self.require_dir(st, dirino)?;
        // As in `unlink`, the removal reads blocks, not groups.
        let Some((blk, lbn, entry)) = self.dir_find(st, dirino, &dinode, name, Fetch::Block)? else {
            return Err(FsError::NotFound);
        };
        if entry.kind != FileKind::Dir {
            return Err(FsError::NotDir);
        }
        let child = self.entry_ino(blk, &entry);
        let mut cinode = self.read_inode_with(st, child, Fetch::Block)?;
        if cinode.kind != FileKind::Dir {
            return Err(FsError::NotDir);
        }
        if !self.dir_is_empty(st, child, &cinode)? {
            return Err(FsError::DirNotEmpty);
        }
        let was_embedded = matches!(entry.loc, EntryLoc::Embedded(_));
        let off = entry.offset;
        st.cache.modify_block_bound(&self.drv, blk, dirino, lbn, true, |d| dirent::remove(d, name))??;
        if let Some(dc) = self.dcache() {
            dc.insert_neg(dirino, name);
        }
        self.dir_durable(st, blk, off)?;
        bmap::free_from(&self.tree(st, child, None), &mut cinode, 0)?;
        if !was_embedded {
            let InoRef::External(slot) = decode_ino(child) else { unreachable!() };
            self.free_external_slot(st, slot, true)?;
        }
        self.retire_ino(st, child);
        dinode.nlink = dinode.nlink.saturating_sub(1);
        self.write_inode(st, dirino, &dinode, false)?;
        Ok(())
    }

    /// Add a hard link — see [`FileSystem::link`].
    pub fn link(&self, target: Ino, dirino: Ino, name: &str) -> FsResult<Ino> {
        let st = &mut *self.lock();
        let _span = self.op_span(OpKind::Link);
        self.charge(self.cpu_model().syscall);
        check_name(name)?;
        let mut tinode = self.read_inode(st, target)?;
        if tinode.kind == FileKind::Dir {
            return Err(FsError::IsDir);
        }
        if tinode.nlink == u16::MAX {
            return Err(FsError::TooManyLinks);
        }
        let mut dinode = self.require_dir(st, dirino)?;
        if self.dir_find(st, dirino, &dinode, name, Fetch::Run)?.is_some() {
            return Err(FsError::Exists);
        }
        // An embedded target must be externalized first: several names will
        // reference one inode, so it needs a location-independent home.
        let new_target = match decode_ino(target) {
            InoRef::Embedded { blk, off, .. } => {
                let slot = self.alloc_external_slot(st, 0)?;
                let ino = external_ino(slot);
                self.write_inode(st, ino, &tinode, true)?;
                st.cache.modify_block(&self.drv, blk, true, true, |d| {
                    dirent::convert_to_external(d, off, slot)
                })?;
                self.dir_durable(st, blk, off)?;
                st.cache.purge_ino(target);
                // Externalizing renumbered the target: entries resolving
                // to the old embedded ino are dead.
                if let Some(dc) = self.dcache() {
                    dc.purge_ino(target);
                }
                if let Some(p) = st.ns.parent_of.remove(&target) {
                    st.ns.note_parent(ino, p);
                }
                ino
            }
            InoRef::External(_) => target,
        };
        tinode.nlink += 1;
        self.write_inode(st, new_target, &tinode, true)?;
        let InoRef::External(slot) = decode_ino(new_target) else { unreachable!() };
        let (blk, off, grew) =
            self.dir_insert(st, dirino, &mut dinode, name, FileKind::File, InsertPayload::External(slot))?;
        self.dir_durable_grown(st, blk, off, grew)?;
        self.write_inode(st, dirino, &dinode, grew)?;
        // The new name exists now (this also kills any negative entry).
        if let Some(dc) = self.dcache() {
            dc.insert_pos(dirino, name, new_target);
        }
        Ok(new_target)
    }

    /// Rename/move an entry — see [`FileSystem::rename`].
    pub fn rename(&self, odir: Ino, oname: &str, ndir: Ino, nname: &str) -> FsResult<Ino> {
        let st = &mut *self.lock();
        let _span = self.op_span(OpKind::Rename);
        self.charge(self.cpu_model().syscall);
        check_name(oname)?;
        check_name(nname)?;
        let mut oinode = self.require_dir(st, odir)?;
        let Some((oblk, _, oentry)) = self.dir_find(st, odir, &oinode, oname, Fetch::Run)? else {
            return Err(FsError::NotFound);
        };
        let old_ino = self.entry_ino(oblk, &oentry);
        if odir == ndir && oname == nname {
            return Ok(old_ino);
        }
        let mut ninode = if ndir == odir { oinode.clone() } else { self.require_dir(st, ndir)? };
        // Clear an existing destination first.
        if let Some((dblk, dlbn, dentry)) = self.dir_find(st, ndir, &ninode, nname, Fetch::Run)? {
            let dst_ino = self.entry_ino(dblk, &dentry);
            if dst_ino == old_ino {
                // Two names for one (external) inode.
                if ndir == odir {
                    oinode = ninode;
                }
                let inode = self.read_inode(st, old_ino)?;
                let (rblk, rlbn, rentry) = self
                    .dir_find(st, odir, &oinode, oname, Fetch::Block)?
                    .ok_or(FsError::NotFound)?;
                let off = rentry.offset;
                st.cache.modify_block_bound(&self.drv, rblk, odir, rlbn, true, |d| {
                    dirent::remove(d, oname)
                })??;
                if let Some(dc) = self.dcache() {
                    dc.insert_neg(odir, oname);
                }
                self.write_inode(st, odir, &oinode, false)?;
                self.dir_durable(st, rblk, off)?;
                self.drop_link_of_removed(st, old_ino, false, inode)?;
                return Ok(old_ino);
            }
            match dentry.kind {
                FileKind::Dir => {
                    if oentry.kind != FileKind::Dir {
                        return Err(FsError::IsDir);
                    }
                    let mut dnode = self.require_dir(st, dst_ino)?;
                    if !self.dir_is_empty(st, dst_ino, &dnode)? {
                        return Err(FsError::DirNotEmpty);
                    }
                    let was_embedded = matches!(dentry.loc, EntryLoc::Embedded(_));
                    let off = dentry.offset;
                    st.cache.modify_block_bound(&self.drv, dblk, ndir, dlbn, true, |d| {
                        dirent::remove(d, nname)
                    })??;
                    if let Some(dc) = self.dcache() {
                        dc.invalidate(ndir, nname);
                    }
                    self.dir_durable(st, dblk, off)?;
                    bmap::free_from(&self.tree(st, dst_ino, None), &mut dnode, 0)?;
                    if !was_embedded {
                        let InoRef::External(slot) = decode_ino(dst_ino) else { unreachable!() };
                        self.free_external_slot(st, slot, true)?;
                    }
                    self.retire_ino(st, dst_ino);
                    ninode.nlink = ninode.nlink.saturating_sub(1);
                }
                FileKind::File => {
                    if oentry.kind == FileKind::Dir {
                        return Err(FsError::NotDir);
                    }
                    let inode = self.read_inode(st, dst_ino)?;
                    let was_embedded = matches!(dentry.loc, EntryLoc::Embedded(_));
                    let off = dentry.offset;
                    st.cache.modify_block_bound(&self.drv, dblk, ndir, dlbn, true, |d| {
                        dirent::remove(d, nname)
                    })??;
                    if let Some(dc) = self.dcache() {
                        dc.invalidate(ndir, nname);
                    }
                    self.dir_durable(st, dblk, off)?;
                    self.drop_link_of_removed(st, dst_ino, was_embedded, inode)?;
                }
            }
        }
        // Move the entry: insert the new name first (crash ⇒ extra name,
        // never a lost file), then remove the old.
        let moving = self.read_inode(st, old_ino)?;
        let new_ino = match oentry.loc {
            EntryLoc::Embedded(_) => {
                let (blk, off, grew) = self.dir_insert(
                    st,
                    ndir,
                    &mut ninode,
                    nname,
                    oentry.kind,
                    InsertPayload::Embedded(&moving),
                )?;
                self.dir_durable_grown(st, blk, off, grew)?;
                self.write_inode(st, ndir, &ninode, grew)?;
                embedded_ino(blk, off, (moving.generation & GEN_MASK as u32) as u16)
            }
            EntryLoc::External(slot) => {
                let (blk, off, grew) = self.dir_insert(
                    st,
                    ndir,
                    &mut ninode,
                    nname,
                    oentry.kind,
                    InsertPayload::External(slot),
                )?;
                self.dir_durable_grown(st, blk, off, grew)?;
                self.write_inode(st, ndir, &ninode, grew)?;
                old_ino
            }
        };
        if ndir == odir {
            oinode = self.require_dir(st, odir)?;
        }
        // Removing the old name reads blocks, as `unlink` does.
        let (rblk, rlbn, rentry) =
            self.dir_find(st, odir, &oinode, oname, Fetch::Block)?.ok_or(FsError::NotFound)?;
        let roff = rentry.offset;
        st.cache.modify_block_bound(&self.drv, rblk, odir, rlbn, true, |d| dirent::remove(d, oname))??;
        // The old name is gone and the new one resolves to `new_ino`
        // (replacing any stale positive or negative entries for either).
        if let Some(dc) = self.dcache() {
            dc.insert_neg(odir, oname);
            dc.insert_pos(ndir, nname, new_ino);
        }
        self.write_inode(st, odir, &oinode, false)?;
        self.dir_durable(st, rblk, roff)?;
        // Bookkeeping for the renumbered inode.
        if new_ino != old_ino {
            st.cache.purge_ino(old_ino);
            if let Some(dc) = self.dcache() {
                dc.purge_ino(old_ino);
            }
            st.ns.parent_of.remove(&old_ino);
            if oentry.kind == FileKind::Dir {
                self.renumber_dir(st, old_ino, new_ino);
            }
        }
        st.ns.note_parent(new_ino, ndir);
        if oentry.kind == FileKind::Dir && odir != ndir {
            let mut o = self.require_dir(st, odir)?;
            o.nlink = o.nlink.saturating_sub(1);
            self.write_inode(st, odir, &o, false)?;
            let mut n = self.require_dir(st, ndir)?;
            n.nlink += 1;
            self.write_inode(st, ndir, &n, false)?;
        }
        Ok(new_ino)
    }

    /// List a directory — see [`FileSystem::readdir`].
    pub fn readdir(&self, dirino: Ino) -> FsResult<Vec<DirEntry>> {
        let st = &mut *self.lock();
        let _span = self.op_span(OpKind::Readdir);
        self.charge(self.cpu_model().syscall);
        let dinode = self.require_dir(st, dirino)?;
        let t = self.tree(st, dirino, None);
        let mut out = Vec::new();
        file::dir_blocks(&t, &dinode, |lbn, blk| {
            let entries = dirent::list(&t.fetch(blk, lbn)?)?;
            self.charge(self.cpu_model().scan_cost(entries.len()));
            for (name, e) in entries {
                let ino = self.entry_ino(blk, &e);
                // A listing proves every mapping it returns: warm the
                // namespace cache with the whole directory.
                if let Some(dc) = self.dcache() {
                    dc.insert_pos(dirino, &name, ino);
                }
                t.st().ns.note_parent(ino, dirino);
                out.push(DirEntry { name, ino, kind: e.kind });
            }
            Ok(None::<()>)
        })?;
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }
}

/// Most directory blocks [`Cffs::earliest_chunk`] weighs for one entry:
/// a stack array's worth, 512 sectors.
const MAX_PLACEMENT_BLOCKS: usize = 64;

/// What a new directory entry carries.
#[derive(Clone, Copy)]
enum InsertPayload<'a> {
    /// Embed this inode image.
    Embedded(&'a Inode),
    /// Reference this external slot.
    External(u32),
}
