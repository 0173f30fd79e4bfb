//! The mounted file system: `Ffs` and its [`FileSystem`] implementation.
//!
//! ## Metadata update ordering
//!
//! In [`MetadataMode::Synchronous`] the classic FFS discipline [Ganger94]
//! applies:
//!
//! * **create/mkdir/link**: the initialized (or re-counted) inode block is
//!   written synchronously *before* the directory block naming it — a
//!   crash may leak an inode but can never produce a name that points at
//!   an uninitialized inode.
//! * **unlink/rmdir**: the directory block is written synchronously
//!   *before* the inode is cleared and freed — a crash may leak the inode
//!   again, but a name never points at freed storage.
//!
//! That is two synchronous disk writes per create and per delete: the cost
//! C-FFS's embedded inodes halve (name and inode share a sector) and soft
//! updates eliminate. In [`MetadataMode::Delayed`] every metadata write is
//! simply left dirty in the cache until [`Ffs::sync`] — the paper's
//! soft-updates emulation.
//!
//! File *data* writes are always delayed; bitmaps and the superblock are
//! flushed at sync, as in the real FFS.

use crate::alloc::Allocator;
use crate::dir;
use crate::layout::{CgHeader, Superblock, INO_ROOT, SB_BLOCK};
use cffs_cache::{Block, BufferCache, CacheConfig};
use cffs_disksim::driver::{Driver, DriverConfig, Scheduler};
use cffs_disksim::{Disk, SimDuration, SimTime};
use cffs_fslib::bmap::{self, PtrRead, PtrStore};
use cffs_fslib::error::check_name;
use cffs_fslib::file::{self, FileStore};
use cffs_fslib::inode::{Inode, MAX_FILE_SIZE};
use cffs_fslib::vfs::MetadataMode;
use cffs_fslib::{
    Attr, CpuModel, DirEntry, FileKind, FsError, FsResult, FileSystem, Ino, IoStats, StatFs,
    BLOCK_SIZE,
};
use cffs_obs::{Ctr, Obs, OpKind, SpanGuard};
use std::cell::RefCell;
use std::sync::Arc;

/// Mount-time options.
#[derive(Debug, Clone)]
pub struct FfsOptions {
    /// Metadata durability policy.
    pub metadata_mode: MetadataMode,
    /// Buffer-cache sizing.
    pub cache: CacheConfig,
    /// CPU cost model.
    pub cpu: CpuModel,
    /// Disk-driver scheduler.
    pub scheduler: Scheduler,
    /// Label for reports.
    pub label: String,
}

impl Default for FfsOptions {
    fn default() -> Self {
        FfsOptions {
            metadata_mode: MetadataMode::Synchronous,
            cache: CacheConfig::default(),
            cpu: CpuModel::default(),
            scheduler: Scheduler::CLook,
            label: "FFS".to_string(),
        }
    }
}

/// A mounted classic Fast File System.
///
/// The single-threaded baseline: every [`FileSystem`] method takes `&self`
/// like everyone else's, but the allocator sits in a `RefCell`, not behind
/// a lock, so an `Ffs` is `!Sync` and the threaded workloads (which ask
/// for `FileSystem + Sync`) reject it at compile time. This compiles:
///
/// ```
/// fn single(_: &impl cffs_fslib::FileSystem) {}
/// fn hand_over(fs: &cffs_ffs::Ffs) {
///     single(fs);
/// }
/// ```
///
/// and the same with `+ Sync` does not:
///
/// ```compile_fail
/// fn threaded(_: &(impl cffs_fslib::FileSystem + Sync)) {}
/// fn hand_over(fs: &cffs_ffs::Ffs) {
///     threaded(fs);
/// }
/// ```
#[derive(Debug)]
pub struct Ffs {
    drv: Driver,
    cache: BufferCache,
    sb: Superblock,
    alloc: RefCell<Allocator>,
    cpu: CpuModel,
    mode: MetadataMode,
    label: String,
}

impl Ffs {
    /// Mount an existing file system from `disk`.
    pub fn mount(disk: Disk, opts: FfsOptions) -> FsResult<Ffs> {
        let drv = Driver::new(disk, DriverConfig { scheduler: opts.scheduler });
        let mut buf = vec![0u8; BLOCK_SIZE];
        drv.read(SB_BLOCK * cffs_fslib::SECTORS_PER_BLOCK, &mut buf);
        let sb = Superblock::read_from(&buf)?;
        let mut cgs = Vec::with_capacity(sb.cg_count as usize);
        for cg in 0..sb.cg_count {
            drv.read(sb.cg_header_block(cg) * cffs_fslib::SECTORS_PER_BLOCK, &mut buf);
            cgs.push(CgHeader::read_from(&buf, cg)?);
        }
        // Share one Obs handle across disk, driver, and cache.
        let mut cache = BufferCache::new(opts.cache);
        cache.set_obs(drv.obs());
        Ok(Ffs {
            drv,
            cache,
            sb,
            alloc: RefCell::new(Allocator::new(cgs)),
            cpu: opts.cpu,
            mode: opts.metadata_mode,
            label: opts.label,
        })
    }

    /// Sync everything and hand the disk back (for remount or inspection).
    pub fn unmount(self) -> FsResult<Disk> {
        self.sync()?;
        Ok(self.drv.into_disk())
    }

    /// Snapshot the disk as a crash at this instant would leave it: dirty
    /// cache contents are *not* included.
    pub fn crash_image(&self) -> Disk {
        self.drv.with_disk(|d| d.clone_image())
    }

    /// Snapshot the disk as a crash *during its most recent write* would
    /// leave it (only `keep_sectors` sectors landed); `None` before any
    /// write. See [`Disk::clone_image_torn`].
    pub fn crash_image_torn(&self, keep_sectors: usize) -> Option<Disk> {
        self.drv.with_disk(|d| d.clone_image_torn(keep_sectors))
    }

    /// The mounted superblock (tests, fsck, benchmarks).
    pub fn superblock(&self) -> &Superblock {
        &self.sb
    }

    /// The stack-wide observability handle (counters + event trace) shared
    /// by the disk, driver, cache, and this file-system layer.
    pub fn obs(&self) -> Arc<Obs> {
        self.drv.obs()
    }

    /// Enable/disable per-request disk trace recording (access-pattern
    /// analysis; off by default).
    pub fn set_disk_trace(&self, on: bool) {
        self.drv.with_disk_mut(|d| d.set_trace(on));
    }

    /// The recorded disk trace (empty when recording is off).
    pub fn disk_trace(&self) -> Vec<cffs_disksim::TraceEntry> {
        self.drv.with_disk(|d| d.trace().to_vec())
    }

    fn charge(&self, d: SimDuration) {
        self.drv.advance(d);
    }

    /// Open a causal attribution span for one public entry point: every
    /// disk request issued while it is open is stamped with this op (see
    /// [`Obs::span`]; nested entry-point calls stay attributed to the
    /// outermost op).
    fn op_span(&self, op: OpKind) -> SpanGuard {
        self.drv.obs().span(op)
    }

    fn ino_cg(&self, ino: Ino) -> u32 {
        (ino / self.sb.inodes_per_cg as u64) as u32
    }

    // ----- inode access -------------------------------------------------

    fn read_inode(&self, ino: Ino) -> FsResult<Inode> {
        self.charge(self.cpu.block_op);
        self.obs().bump(Ctr::FsExternalInodeOps);
        let (blk, off) = self.sb.inode_location(ino)?;
        let data = self.cache.read_block(&self.drv, blk)?;
        Inode::read_from(&data, off).ok_or(FsError::StaleHandle)
    }

    /// Write an inode image. `durable` requests a synchronous flush when
    /// the mount is in synchronous-metadata mode.
    fn write_inode(&self, ino: Ino, inode: &Inode, durable: bool) -> FsResult<()> {
        self.charge(self.cpu.block_op);
        self.obs().bump(Ctr::FsExternalInodeOps);
        let (blk, off) = self.sb.inode_location(ino)?;
        self.cache
            .modify_block(&self.drv, blk, true, true, |d| inode.write_to(d, off))?;
        if durable {
            if self.mode == MetadataMode::Synchronous {
                self.obs().bump(Ctr::FsSyncMetaWrites);
                self.cache.flush_block_sync(&self.drv, blk)?;
            } else {
                self.obs().bump(Ctr::FsDelayedMetaWrites);
            }
        }
        Ok(())
    }

    fn clear_inode(&self, ino: Ino, durable: bool) -> FsResult<()> {
        self.charge(self.cpu.block_op);
        let (blk, off) = self.sb.inode_location(ino)?;
        self.cache
            .modify_block(&self.drv, blk, true, true, |d| Inode::clear_slot(d, off))?;
        if durable && self.mode == MetadataMode::Synchronous {
            self.cache.flush_block_sync(&self.drv, blk)?;
        }
        Ok(())
    }

    /// The storage hook for file `ino`: its blocks come from the file's
    /// cylinder group.
    fn tree(&self, ino: Ino) -> Tree<'_> {
        Tree { fs: self, ino, cg: self.ino_cg(ino) }
    }

    // ----- directory helpers -------------------------------------------

    fn require_dir(&self, ino: Ino) -> FsResult<Inode> {
        let inode = self.read_inode(ino)?;
        if inode.kind != FileKind::Dir {
            return Err(FsError::NotDir);
        }
        Ok(inode)
    }

    /// Scan the directory for `name`; returns `(block, entry)`.
    fn dir_find(
        &self,
        dirino: Ino,
        inode: &Inode,
        name: &str,
    ) -> FsResult<Option<(u64, dir::RawEntry)>> {
        let t = self.tree(dirino);
        file::dir_blocks(&t, inode, |lbn, blk| {
            self.charge(self.cpu.scan_cost(16));
            Ok(dir::find(&t.fetch(blk, lbn)?, name)?.map(|e| (blk, e)))
        })
    }

    /// Insert a name; grows the directory if needed. Returns the block
    /// that received the entry (already marked dirty) and whether the
    /// directory grew — growth makes the subsequent directory-inode write
    /// part of the ordered update (its new block pointer must reach the
    /// disk, or a crash orphans the entries in the new block).
    fn dir_insert(
        &self,
        dirino: Ino,
        inode: &mut Inode,
        name: &str,
        ino: Ino,
        kind: FileKind,
    ) -> FsResult<(u64, bool)> {
        let t = self.tree(dirino);
        let roomy = file::dir_blocks(&t, inode, |lbn, blk| {
            self.charge(self.cpu.scan_cost(16));
            // The handle is dropped before the insert modifies the block.
            Ok(dir::has_space(&t.fetch(blk, lbn)?, name)?.then_some((lbn, blk)))
        })?;
        if let Some((lbn, blk)) = roomy {
            t.modify(blk, lbn, true, |d| dir::insert(d, name, ino as u32, kind))??;
            return Ok((blk, false));
        }
        // Grow by one block.
        let lbn = inode.size / BLOCK_SIZE as u64;
        let blk = file::map_alloc(&t, inode, lbn)?;
        inode.size += BLOCK_SIZE as u64;
        t.modify(blk, lbn, false, |d| {
            dir::init_block(d);
            dir::insert(d, name, ino as u32, kind)
        })??;
        Ok((blk, true))
    }

    /// Remove a name; returns `(block, removed inode number, kind)`.
    fn dir_remove(
        &self,
        dirino: Ino,
        inode: &Inode,
        name: &str,
    ) -> FsResult<(u64, Ino, FileKind)> {
        let Some((blk, entry)) = self.dir_find(dirino, inode, name)? else {
            return Err(FsError::NotFound);
        };
        self.cache.modify_block(&self.drv, blk, true, true, |d| dir::remove(d, name))??;
        Ok((blk, entry.ino as Ino, entry.kind))
    }

    /// Apply the synchronous-metadata policy to a dirtied directory block.
    fn dir_durable(&self, blk: u64) -> FsResult<()> {
        if self.mode == MetadataMode::Synchronous {
            self.obs().bump(Ctr::FsSyncMetaWrites);
            self.cache.flush_block_sync(&self.drv, blk)?;
        } else {
            self.obs().bump(Ctr::FsDelayedMetaWrites);
        }
        Ok(())
    }

    fn dir_is_empty(&self, dirino: Ino, inode: &Inode) -> FsResult<bool> {
        let t = self.tree(dirino);
        let busy = file::dir_blocks(&t, inode, |lbn, blk| {
            Ok((!dir::is_empty(&t.fetch(blk, lbn)?)?).then_some(()))
        })?;
        Ok(busy.is_none())
    }

    /// Shared tail of unlink/rename-replace: drop one link from `ino`,
    /// freeing it when the count hits zero. The name is already gone.
    fn drop_file_link(&self, ino: Ino) -> FsResult<()> {
        let mut inode = self.read_inode(ino)?;
        inode.nlink -= 1;
        if inode.nlink == 0 {
            bmap::free_from(&self.tree(ino), &mut inode, 0)?;
            self.clear_inode(ino, true)?;
            self.charge(self.cpu.alloc_op);
            self.alloc.borrow_mut().free_inode(&self.sb, ino, false);
        } else {
            self.write_inode(ino, &inode, true)?;
        }
        Ok(())
    }
}

/// One file's storage on a mounted FFS, as `bmap` and `file` see it:
/// blocks come from cylinder group `cg`, and each allocator call is
/// charged `alloc_op` first.
struct Tree<'a> {
    fs: &'a Ffs,
    ino: Ino,
    cg: u32,
}

impl PtrRead for Tree<'_> {
    type Buf = Block;

    fn read_ptrs(&self, blk: u64) -> FsResult<Block> {
        self.fs.cache.read_block(&self.fs.drv, blk)
    }
}

impl PtrStore for Tree<'_> {
    fn write_ptrs(&self, blk: u64, f: impl FnOnce(&mut [u8])) -> FsResult<()> {
        self.fs.cache.modify_block(&self.fs.drv, blk, true, true, f)
    }

    fn alloc_ptr_block(&self, hint: Option<u64>) -> FsResult<u64> {
        let fs = self.fs;
        fs.charge(fs.cpu.alloc_op);
        let blk = fs.alloc.borrow_mut().alloc_block(&fs.sb, self.cg, hint)?;
        fs.cache.modify_block(&fs.drv, blk, true, false, |d| d.fill(0))?;
        Ok(blk)
    }

    fn alloc_data(&self, _lbn: u64, hint: Option<u64>) -> FsResult<u64> {
        let fs = self.fs;
        fs.charge(fs.cpu.alloc_op);
        fs.alloc.borrow_mut().alloc_block(&fs.sb, self.cg, hint)
    }

    fn free_data(&self, lbn: u64, blk: u64) {
        let fs = self.fs;
        fs.cache.unbind_logical(self.ino, lbn);
        fs.cache.invalidate_block(&fs.drv, blk);
        fs.alloc.borrow_mut().free_block(&fs.sb, blk);
    }

    fn free_ptr_block(&self, blk: u64) {
        let fs = self.fs;
        fs.cache.invalidate_block(&fs.drv, blk);
        fs.alloc.borrow_mut().free_block(&fs.sb, blk);
    }
}

impl FileStore for Tree<'_> {
    fn ino(&self) -> Ino {
        self.ino
    }

    fn cpu(&self) -> CpuModel {
        self.fs.cpu
    }

    fn charge(&self, d: SimDuration) {
        self.fs.charge(d);
    }

    fn cached(&self, lbn: u64) -> Option<u64> {
        self.fs.cache.lookup_logical(self.ino, lbn)
    }

    fn fetch(&self, blk: u64, lbn: u64) -> FsResult<Block> {
        self.fs.cache.read_block_bound(&self.fs.drv, blk, self.ino, lbn)
    }

    fn modify<R>(&self, blk: u64, lbn: u64, load: bool, f: impl FnOnce(&mut [u8]) -> R) -> FsResult<R> {
        self.fs.cache.modify_block_bound(&self.fs.drv, blk, self.ino, lbn, load, f)
    }
}

impl FileSystem for Ffs {
    fn label(&self) -> &str {
        &self.label
    }

    fn root(&self) -> Ino {
        INO_ROOT
    }

    fn lookup(&self, dirino: Ino, name: &str) -> FsResult<Ino> {
        let _span = self.op_span(OpKind::Lookup);
        self.charge(self.cpu.syscall);
        check_name(name)?;
        let inode = self.require_dir(dirino)?;
        match self.dir_find(dirino, &inode, name)? {
            Some((_, e)) => Ok(e.ino as Ino),
            None => Err(FsError::NotFound),
        }
    }

    fn getattr(&self, ino: Ino) -> FsResult<Attr> {
        let _span = self.op_span(OpKind::Getattr);
        self.charge(self.cpu.syscall);
        let inode = self.read_inode(ino)?;
        Ok(Attr {
            ino,
            kind: inode.kind,
            size: inode.size,
            nlink: inode.nlink as u32,
            blocks: inode.blocks as u64,
        })
    }

    fn create(&self, dirino: Ino, name: &str) -> FsResult<Ino> {
        let _span = self.op_span(OpKind::Create);
        self.charge(self.cpu.syscall);
        check_name(name)?;
        let mut dinode = self.require_dir(dirino)?;
        if self.dir_find(dirino, &dinode, name)?.is_some() {
            return Err(FsError::Exists);
        }
        self.charge(self.cpu.alloc_op);
        let ino = self.alloc.borrow_mut().alloc_inode(&self.sb, FileKind::File, self.ino_cg(dirino))?;
        let inode = Inode::new(FileKind::File);
        // Ordering: inode first (synchronously), then the name.
        self.write_inode(ino, &inode, true)?;
        let (blk, grew) = self.dir_insert(dirino, &mut dinode, name, ino, FileKind::File)?;
        self.dir_durable(blk)?;
        self.write_inode(dirino, &dinode, grew)?;
        Ok(ino)
    }

    fn mkdir(&self, dirino: Ino, name: &str) -> FsResult<Ino> {
        let _span = self.op_span(OpKind::Mkdir);
        self.charge(self.cpu.syscall);
        check_name(name)?;
        let mut dinode = self.require_dir(dirino)?;
        if self.dir_find(dirino, &dinode, name)?.is_some() {
            return Err(FsError::Exists);
        }
        self.charge(self.cpu.alloc_op);
        let ino = self.alloc.borrow_mut().alloc_inode(&self.sb, FileKind::Dir, self.ino_cg(dirino))?;
        let mut inode = Inode::new(FileKind::Dir);
        inode.nlink = 2;
        self.write_inode(ino, &inode, true)?;
        let (blk, grew) = self.dir_insert(dirino, &mut dinode, name, ino, FileKind::Dir)?;
        dinode.nlink += 1;
        self.dir_durable(blk)?;
        self.write_inode(dirino, &dinode, grew)?;
        Ok(ino)
    }

    fn unlink(&self, dirino: Ino, name: &str) -> FsResult<()> {
        let _span = self.op_span(OpKind::Unlink);
        self.charge(self.cpu.syscall);
        check_name(name)?;
        let dinode = self.require_dir(dirino)?;
        let Some((_, entry)) = self.dir_find(dirino, &dinode, name)? else {
            return Err(FsError::NotFound);
        };
        if entry.kind == FileKind::Dir {
            return Err(FsError::IsDir);
        }
        // Ordering: name removal hits the disk before the inode is freed.
        let (blk, ino, _) = self.dir_remove(dirino, &dinode, name)?;
        self.dir_durable(blk)?;
        self.drop_file_link(ino)
    }

    fn rmdir(&self, dirino: Ino, name: &str) -> FsResult<()> {
        let _span = self.op_span(OpKind::Rmdir);
        self.charge(self.cpu.syscall);
        check_name(name)?;
        let mut dinode = self.require_dir(dirino)?;
        let Some((_, entry)) = self.dir_find(dirino, &dinode, name)? else {
            return Err(FsError::NotFound);
        };
        if entry.kind != FileKind::Dir {
            return Err(FsError::NotDir);
        }
        let child = entry.ino as Ino;
        let mut cinode = self.require_dir(child)?;
        if !self.dir_is_empty(child, &cinode)? {
            return Err(FsError::DirNotEmpty);
        }
        let (blk, _, _) = self.dir_remove(dirino, &dinode, name)?;
        self.dir_durable(blk)?;
        bmap::free_from(&self.tree(child), &mut cinode, 0)?;
        self.clear_inode(child, true)?;
        self.charge(self.cpu.alloc_op);
        self.alloc.borrow_mut().free_inode(&self.sb, child, true);
        dinode.nlink = dinode.nlink.saturating_sub(1);
        self.write_inode(dirino, &dinode, false)?;
        Ok(())
    }

    fn link(&self, target: Ino, dirino: Ino, name: &str) -> FsResult<Ino> {
        let _span = self.op_span(OpKind::Link);
        self.charge(self.cpu.syscall);
        check_name(name)?;
        let mut tinode = self.read_inode(target)?;
        if tinode.kind == FileKind::Dir {
            return Err(FsError::IsDir);
        }
        if tinode.nlink == u16::MAX {
            return Err(FsError::TooManyLinks);
        }
        let mut dinode = self.require_dir(dirino)?;
        if self.dir_find(dirino, &dinode, name)?.is_some() {
            return Err(FsError::Exists);
        }
        tinode.nlink += 1;
        self.write_inode(target, &tinode, true)?;
        let (blk, grew) = self.dir_insert(dirino, &mut dinode, name, target, FileKind::File)?;
        self.dir_durable(blk)?;
        self.write_inode(dirino, &dinode, grew)?;
        Ok(target)
    }

    fn rename(&self, odir: Ino, oname: &str, ndir: Ino, nname: &str) -> FsResult<Ino> {
        let _span = self.op_span(OpKind::Rename);
        self.charge(self.cpu.syscall);
        check_name(oname)?;
        check_name(nname)?;
        let mut oinode = self.require_dir(odir)?;
        let Some((_, entry)) = self.dir_find(odir, &oinode, oname)? else {
            return Err(FsError::NotFound);
        };
        let moving = entry.ino as Ino;
        let moving_kind = entry.kind;
        if odir == ndir && oname == nname {
            return Ok(moving);
        }
        let mut ninode = if ndir == odir { oinode.clone() } else { self.require_dir(ndir)? };
        // Handle an existing destination.
        if let Some((_, dst)) = self.dir_find(ndir, &ninode, nname)? {
            let dst_ino = dst.ino as Ino;
            if dst_ino == moving {
                // Hard link to the same object: drop the old name only.
                if ndir == odir {
                    oinode = ninode;
                }
                let (blk, ino, _) = self.dir_remove(odir, &oinode, oname)?;
                self.write_inode(odir, &oinode, false)?;
                self.dir_durable(blk)?;
                self.drop_file_link(ino)?;
                return Ok(moving);
            }
            match dst.kind {
                FileKind::Dir => {
                    if moving_kind != FileKind::Dir {
                        return Err(FsError::IsDir);
                    }
                    let mut dnode = self.require_dir(dst_ino)?;
                    if !self.dir_is_empty(dst_ino, &dnode)? {
                        return Err(FsError::DirNotEmpty);
                    }
                    let (blk, _, _) = self.dir_remove(ndir, &ninode, nname)?;
                    self.dir_durable(blk)?;
                    bmap::free_from(&self.tree(dst_ino), &mut dnode, 0)?;
                    self.clear_inode(dst_ino, true)?;
                    self.charge(self.cpu.alloc_op);
                    self.alloc.borrow_mut().free_inode(&self.sb, dst_ino, true);
                    ninode.nlink = ninode.nlink.saturating_sub(1);
                }
                FileKind::File => {
                    if moving_kind == FileKind::Dir {
                        return Err(FsError::NotDir);
                    }
                    let (blk, ino, _) = self.dir_remove(ndir, &ninode, nname)?;
                    self.dir_durable(blk)?;
                    self.drop_file_link(ino)?;
                }
            }
        }
        // Insert the new name first, then remove the old one: a crash in
        // between leaves an extra name, never a lost file.
        let (blk, grew) = self.dir_insert(ndir, &mut ninode, nname, moving, moving_kind)?;
        self.dir_durable(blk)?;
        self.write_inode(ndir, &ninode, grew)?;
        if ndir == odir {
            oinode = self.require_dir(odir)?;
        }
        let (blk, _, _) = self.dir_remove(odir, &oinode, oname)?;
        self.write_inode(odir, &oinode, false)?;
        self.dir_durable(blk)?;
        // Directory moved across parents: fix nlink bookkeeping.
        if moving_kind == FileKind::Dir && odir != ndir {
            let mut o = self.require_dir(odir)?;
            o.nlink = o.nlink.saturating_sub(1);
            self.write_inode(odir, &o, false)?;
            let mut n = self.require_dir(ndir)?;
            n.nlink += 1;
            self.write_inode(ndir, &n, false)?;
        }
        Ok(moving)
    }

    fn read(&self, ino: Ino, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        let _span = self.op_span(OpKind::Read);
        self.charge(self.cpu.syscall);
        let inode = self.read_inode(ino)?;
        if inode.kind == FileKind::Dir {
            return Err(FsError::IsDir);
        }
        file::read(&self.tree(ino), &inode, off, buf)
    }

    fn write(&self, ino: Ino, off: u64, data: &[u8]) -> FsResult<usize> {
        let _span = self.op_span(OpKind::Write);
        self.charge(self.cpu.syscall);
        if data.is_empty() {
            return Ok(0);
        }
        if off + data.len() as u64 > MAX_FILE_SIZE {
            return Err(FsError::FileTooBig);
        }
        let mut inode = self.read_inode(ino)?;
        if inode.kind == FileKind::Dir {
            return Err(FsError::IsDir);
        }
        let done = file::write(&self.tree(ino), &mut inode, off, data)?;
        self.write_inode(ino, &inode, false)?;
        Ok(done)
    }

    fn truncate(&self, ino: Ino, size: u64) -> FsResult<()> {
        let _span = self.op_span(OpKind::Truncate);
        self.charge(self.cpu.syscall);
        if size > MAX_FILE_SIZE {
            return Err(FsError::FileTooBig);
        }
        let mut inode = self.read_inode(ino)?;
        if inode.kind == FileKind::Dir {
            return Err(FsError::IsDir);
        }
        file::truncate(&self.tree(ino), &mut inode, size)?;
        self.write_inode(ino, &inode, false)
    }

    fn readdir(&self, dirino: Ino) -> FsResult<Vec<DirEntry>> {
        let _span = self.op_span(OpKind::Readdir);
        self.charge(self.cpu.syscall);
        let inode = self.require_dir(dirino)?;
        let t = self.tree(dirino);
        let mut out = Vec::new();
        file::dir_blocks(&t, &inode, |lbn, blk| {
            let entries = dir::list(&t.fetch(blk, lbn)?)?;
            self.charge(self.cpu.scan_cost(entries.len()));
            out.extend(entries.into_iter().map(|e| DirEntry {
                name: e.name,
                ino: e.ino as Ino,
                kind: e.kind,
            }));
            Ok(None::<()>)
        })?;
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    fn sync(&self) -> FsResult<()> {
        let _span = self.op_span(OpKind::Sync);
        self.charge(self.cpu.syscall);
        // Persist dirty cylinder-group headers and the superblock, then
        // flush the whole cache as one scheduled batch.
        let sb = self.sb.clone();
        let mut blocks: Vec<(u64, Vec<u8>)> = Vec::new();
        self.alloc.borrow_mut().flush_dirty(|cg, hdr| {
            let mut img = vec![0u8; BLOCK_SIZE];
            hdr.write_to(&mut img);
            blocks.push((sb.cg_header_block(cg), img));
        });
        for (blk, img) in blocks {
            self.cache
                .modify_block(&self.drv, blk, true, false, |d| d.copy_from_slice(&img))?;
        }
        let mut sb_img = vec![0u8; BLOCK_SIZE];
        self.sb.write_to(&mut sb_img);
        self.cache
            .modify_block(&self.drv, SB_BLOCK, true, false, |d| d.copy_from_slice(&sb_img))?;
        self.cache.sync(&self.drv)
    }

    fn statfs(&self) -> FsResult<StatFs> {
        let _span = self.op_span(OpKind::Statfs);
        let alloc = self.alloc.borrow();
        Ok(StatFs {
            block_size: BLOCK_SIZE as u32,
            total_blocks: self.sb.total_blocks,
            free_blocks: alloc.free_blocks(),
            group_slack_blocks: 0,
            total_inodes: self.sb.total_inodes(),
            free_inodes: alloc.free_inodes(),
        })
    }

    fn now(&self) -> SimTime {
        self.drv.now()
    }

    fn io_stats(&self) -> IoStats {
        IoStats {
            disk: self.drv.disk_stats(),
            driver: self.drv.stats(),
            cache: self.cache.stats(),
        }
    }

    fn reset_io_stats(&self) {
        self.drv.reset_stats();
        self.cache.reset_stats();
    }

    fn drop_caches(&self) -> FsResult<()> {
        let _span = self.op_span(OpKind::DropCaches);
        self.sync()?;
        self.cache.drop_all(&self.drv)?;
        self.drv.with_disk_mut(|d| d.flush_onboard_cache());
        Ok(())
    }

    fn cpu_model(&self) -> CpuModel {
        self.cpu
    }

    fn obs(&self) -> Option<Arc<Obs>> {
        Some(Ffs::obs(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mkfs::{mkfs, MkfsParams};
    use cffs_disksim::models;
    use cffs_fslib::path;

    fn fresh() -> Ffs {
        mkfs(Disk::new(models::tiny_test_disk()), MkfsParams::tiny(), FfsOptions::default())
            .expect("mkfs")
    }

    #[test]
    fn create_write_read_cycle() {
        let fs = fresh();
        let f = fs.create(fs.root(), "a").unwrap();
        fs.write(f, 0, b"hello ffs").unwrap();
        let mut buf = [0u8; 9];
        assert_eq!(fs.read(f, 0, &mut buf).unwrap(), 9);
        assert_eq!(&buf, b"hello ffs");
        let a = fs.getattr(f).unwrap();
        assert_eq!((a.size, a.kind), (9, FileKind::File));
    }

    #[test]
    fn sparse_and_indirect_files() {
        let fs = fresh();
        let f = fs.create(fs.root(), "s").unwrap();
        // Past the direct range (12 blocks).
        let off = 14 * BLOCK_SIZE as u64 + 100;
        fs.write(f, off, b"indirect").unwrap();
        let mut buf = [0u8; 8];
        fs.read(f, off, &mut buf).unwrap();
        assert_eq!(&buf, b"indirect");
        // The hole reads zero.
        let mut hole = [9u8; 64];
        fs.read(f, 5 * BLOCK_SIZE as u64, &mut hole).unwrap();
        assert!(hole.iter().all(|&b| b == 0));
    }

    #[test]
    fn double_indirect_and_truncate_releases_space() {
        let fs = fresh();
        let f = fs.create(fs.root(), "big").unwrap();
        let off = (12 + 1024 + 3) * BLOCK_SIZE as u64;
        fs.write(f, off, b"way out").unwrap();
        fs.sync().unwrap();
        let before = fs.statfs().unwrap().free_blocks;
        fs.truncate(f, 0).unwrap();
        assert!(fs.statfs().unwrap().free_blocks > before);
        assert_eq!(fs.getattr(f).unwrap().blocks, 0);
    }

    #[test]
    fn inode_exhaustion_yields_noinodes() {
        let fs = fresh();
        let root = fs.root();
        let d = fs.mkdir(root, "d").unwrap();
        let mut n = 0u64;
        loop {
            match fs.create(d, &format!("f{n}")) {
                Ok(_) => n += 1,
                Err(FsError::NoInodes) => break,
                Err(e) => panic!("unexpected {e}"),
            }
            assert!(n < 100_000, "never exhausted");
        }
        // tiny geometry: 256 inodes/cg, some cgs; far below disk capacity.
        let st = fs.statfs().unwrap();
        assert_eq!(st.free_inodes, 0);
        assert!(st.free_blocks > 1000, "blocks remain — the static-table limit bites first");
        // Deleting frees inodes again.
        fs.unlink(d, "f0").unwrap();
        fs.create(d, "again").unwrap();
    }

    #[test]
    fn hard_links_and_rename_share_inode() {
        let fs = fresh();
        let root = fs.root();
        let f = fs.create(root, "a").unwrap();
        fs.write(f, 0, b"shared").unwrap();
        let f2 = fs.link(f, root, "b").unwrap();
        assert_eq!(f, f2, "FFS never renumbers");
        let f3 = fs.rename(root, "a", root, "c").unwrap();
        assert_eq!(f, f3);
        assert_eq!(fs.getattr(f).unwrap().nlink, 2);
        fs.unlink(root, "b").unwrap();
        fs.unlink(root, "c").unwrap();
        assert!(fs.getattr(f).is_err());
    }

    #[test]
    fn dir_spreading_policy_visible() {
        let fs = fresh();
        let root = fs.root();
        let mut cgs = std::collections::HashSet::new();
        let ipg = fs.superblock().inodes_per_cg as u64;
        for d in 0..6 {
            let ino = fs.mkdir(root, &format!("d{d}")).unwrap();
            cgs.insert(ino / ipg);
        }
        assert!(cgs.len() >= 3, "directories should spread across CGs: {cgs:?}");
    }

    #[test]
    fn file_inodes_follow_their_directory() {
        let fs = fresh();
        let root = fs.root();
        let ipg = fs.superblock().inodes_per_cg as u64;
        let d = fs.mkdir(root, "d").unwrap();
        for i in 0..10 {
            let f = fs.create(d, &format!("f{i}")).unwrap();
            assert_eq!(f / ipg, d / ipg, "file inode left its directory's CG");
        }
    }

    #[test]
    fn sync_metadata_costs_two_writes_per_create() {
        let fs = fresh();
        let root = fs.root();
        let d = fs.mkdir(root, "d").unwrap();
        fs.sync().unwrap();
        fs.reset_io_stats();
        for i in 0..20 {
            fs.create(d, &format!("f{i}")).unwrap();
        }
        let sync_writes = fs.io_stats().cache.sync_writes;
        assert!(
            (40..=44).contains(&sync_writes),
            "expected ~2 ordered writes per create, saw {sync_writes} for 20 creates"
        );
    }

    #[test]
    fn remount_preserves_content() {
        let fs = fresh();
        path::mkdir_p(&fs, "/x/y").unwrap();
        path::write_file(&fs, "/x/y/z.txt", &vec![3u8; 20_000]).unwrap();
        let disk = fs.unmount().unwrap();
        let fs = Ffs::mount(disk, FfsOptions::default()).unwrap();
        assert_eq!(path::read_file(&fs, "/x/y/z.txt").unwrap(), vec![3u8; 20_000]);
    }

    #[test]
    fn rmdir_semantics() {
        let fs = fresh();
        let root = fs.root();
        let d = fs.mkdir(root, "d").unwrap();
        fs.create(d, "f").unwrap();
        assert_eq!(fs.rmdir(root, "d"), Err(FsError::DirNotEmpty));
        fs.unlink(d, "f").unwrap();
        fs.rmdir(root, "d").unwrap();
        assert_eq!(fs.lookup(root, "d"), Err(FsError::NotFound));
        // Inode is reusable.
        fs.mkdir(root, "d2").unwrap();
    }

    #[test]
    fn overwrite_middle_of_file() {
        let fs = fresh();
        let f = fs.create(fs.root(), "m").unwrap();
        fs.write(f, 0, &vec![1u8; 10_000]).unwrap();
        fs.write(f, 4000, &vec![2u8; 1000]).unwrap();
        let mut buf = vec![0u8; 10_000];
        fs.read(f, 0, &mut buf).unwrap();
        assert!(buf[..4000].iter().all(|&b| b == 1));
        assert!(buf[4000..5000].iter().all(|&b| b == 2));
        assert!(buf[5000..].iter().all(|&b| b == 1));
        assert_eq!(fs.getattr(f).unwrap().size, 10_000);
    }
}
