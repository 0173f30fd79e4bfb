//! File data: the storage hook `cffs_fslib::file` runs on, the
//! demand-aware group-fetching block read, read-ahead, and the `read`,
//! `write` and `truncate` entry points.

use cffs_cache::Block;
use cffs_disksim::SimDuration;
use cffs_fslib::bmap::{PtrRead, PtrStore};
use cffs_fslib::file::{self, FileStore};
use cffs_fslib::inode::{Inode, MAX_FILE_SIZE};
use cffs_fslib::{CpuModel, FileKind, FsError, FsResult, Ino, BLOCK_SIZE};
use cffs_obs::{Ctr, OpKind};
use std::cell::{RefCell, RefMut};
use super::{AllocCtx, Cffs, Inner};

impl Cffs {
    /// The physical block currently cached for `(ino, lbn)`, if resident —
    /// a layout probe for tests and tooling (a preceding `read` at that
    /// offset binds the identity).
    pub fn cache_block_of(&self, ino: Ino, lbn: u64) -> Option<u64> {
        self.lock().cache.lookup_logical(ino, lbn)
    }

    /// The mapped `(lbn, physical block)` pairs of a file — the planner's
    /// input for relocation decisions. Holes are skipped.
    pub fn file_block_map(&self, ino: Ino) -> FsResult<Vec<(u64, u64)>> {
        let st = &mut *self.lock();
        let inode = self.read_inode(st, ino)?;
        let nblocks = inode.size.div_ceil(BLOCK_SIZE as u64);
        let mut out = Vec::with_capacity(nblocks as usize);
        for lbn in 0..nblocks {
            if let Some(b) = self.bmap(st, ino, &inode, lbn)? {
                out.push((lbn, b));
            }
        }
        Ok(out)
    }

    // ----- block mapping --------------------------------------------------

    /// The storage hook for file `ino` on the locked state `st`; `ctx`
    /// places the blocks an allocating map adds. Its misses fetch the
    /// live run around the block.
    pub(super) fn tree<'a>(&'a self, st: &'a mut Inner, ino: Ino, ctx: Option<AllocCtx>) -> Tree<'a> {
        Tree { fs: self, st: RefCell::new(st), ino, ctx, fetch: Fetch::Run }
    }

    /// Map logical block `lbn` of an inode to its block, if any.
    pub(super) fn bmap(&self, st: &mut Inner, ino: Ino, inode: &Inode, lbn: u64) -> FsResult<Option<u64>> {
        file::map(&self.tree(st, ino, None), inode, lbn)
    }

    /// Map `lbn`, allocating it (and pointer blocks) with `ctx` if missing.
    /// The caller persists the updated inode.
    pub(super) fn bmap_alloc(
        &self,
        st: &mut Inner,
        ino: Ino,
        inode: &mut Inode,
        lbn: u64,
        ctx: AllocCtx,
    ) -> FsResult<u64> {
        file::map_alloc(&self.tree(st, ino, Some(ctx)), inode, lbn)
    }

    // ----- grouping-aware block fetch -------------------------------------

    /// The explicit-grouping read path, and the one place a grouped miss
    /// decides to expand. On a miss for `blk` under [`Fetch::Run`], fetch
    /// the maximal run of live slots around it as one request, if that
    /// run holds at least `group_read_min` blocks. The group's other runs
    /// are left on disk: a miss is evidence of demand for its neighbours,
    /// not for the whole extent.
    pub(super) fn fetch_group_for(&self, st: &mut Inner, blk: u64, fetch: Fetch) -> FsResult<()> {
        if fetch == Fetch::Block || !self.cfg.group {
            return Ok(());
        }
        let Some(g) = st.groups.group_of_block(&self.geo, blk) else {
            return Ok(());
        };
        let run = match g.live_run_around((blk - g.start) as u8) {
            Some(run) if run.1 as u32 >= self.cfg.group_read_min => [run],
            _ => return Ok(()),
        };
        self.obs.bump(Ctr::FsGroupFetches);
        self.obs.add(Ctr::FsGroupFetchBlocks, run[0].1 as u64);
        st.cache.read_group(&self.drv, &run)
    }

    /// Read a block with logical binding, group-fetching on a miss as
    /// `fetch` allows. A resident block costs one cache visit.
    pub(super) fn fetch_block(&self, st: &mut Inner, blk: u64, ino: Ino, lbn: u64, fetch: Fetch) -> FsResult<Block> {
        if let Some(data) = st.cache.read_resident(blk, Some((ino, lbn))) {
            return Ok(data);
        }
        self.fetch_group_for(st, blk, fetch)?;
        st.cache.read_block_bound(&self.drv, blk, ino, lbn)
    }

    /// Fetch the next `prefetch_blocks` mapped blocks of a sequentially
    /// read file as one scatter/gather request (blocks already resident
    /// are skipped by the cache).
    fn prefetch_ahead(&self, st: &mut Inner, ino: Ino, inode: &Inode, from_lbn: u64) -> FsResult<()> {
        let max_lbn = inode.size.div_ceil(BLOCK_SIZE as u64);
        if from_lbn >= max_lbn {
            return Ok(());
        }
        // Only act at the read-ahead boundary: while the previously
        // prefetched window is still resident, issuing tiny tail fetches
        // would defeat the batching.
        if let Some(b) = self.bmap(st, ino, inode, from_lbn)? {
            if st.cache.contains(b) {
                return Ok(());
            }
        }
        let mut blocks: Vec<u64> = Vec::new();
        for lbn in from_lbn..(from_lbn + self.cfg.prefetch_blocks as u64).min(max_lbn) {
            match self.bmap(st, ino, inode, lbn)? {
                Some(b) if !st.cache.contains(b) => blocks.push(b),
                _ => {}
            }
        }
        if blocks.is_empty() {
            return Ok(());
        }
        blocks.sort_unstable();
        blocks.dedup();
        let mut runs: Vec<(u64, usize)> = Vec::new();
        for b in blocks {
            match runs.last_mut() {
                Some((start, len)) if *start + *len as u64 == b => *len += 1,
                _ => runs.push((b, 1)),
            }
        }
        st.cache.read_group(&self.drv, &runs)
    }

    /// Read file data — see [`FileSystem::read`].
    pub fn read(&self, ino: Ino, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        let st = &mut *self.lock();
        let _span = self.op_span(OpKind::Read);
        self.charge(self.cpu_model().syscall);
        let inode = self.read_inode(st, ino)?;
        if inode.kind == FileKind::Dir {
            return Err(FsError::IsDir);
        }
        let done = file::read(&self.tree(st, ino, None), &inode, off, buf)?;
        if off >= inode.size {
            return Ok(done);
        }
        // Sequential-read detection + read-ahead (prefetching extension).
        let first_lbn = off / BLOCK_SIZE as u64;
        let last_lbn = (off + done.max(1) as u64 - 1) / BLOCK_SIZE as u64;
        let prev = st.ns.last_read.insert(ino, last_lbn);
        let sequential = first_lbn == 0 || prev.is_some_and(|l| l + 1 >= first_lbn);
        if self.cfg.prefetch_blocks > 0 && sequential {
            self.prefetch_ahead(st, ino, &inode, last_lbn + 1)?;
        }
        Ok(done)
    }

    /// Write file data — see [`FileSystem::write`].
    pub fn write(&self, ino: Ino, off: u64, data: &[u8]) -> FsResult<usize> {
        let st = &mut *self.lock();
        let _span = self.op_span(OpKind::Write);
        self.charge(self.cpu_model().syscall);
        if data.is_empty() {
            return Ok(0);
        }
        if off + data.len() as u64 > MAX_FILE_SIZE {
            return Err(FsError::FileTooBig);
        }
        let mut inode = self.read_inode(st, ino)?;
        if inode.kind == FileKind::Dir {
            return Err(FsError::IsDir);
        }
        let mut ctx = self.data_ctx(st, ino)?;
        // Crossing the group-size threshold? Move the file out of its
        // groups before it grows further, and stop group-allocating for
        // it — large files take the plain clustered path.
        let final_blocks = (off + data.len() as u64).div_ceil(BLOCK_SIZE as u64);
        if self.cfg.group && final_blocks > self.cfg.group_blocks as u64 {
            let data_blocks = inode.size.div_ceil(BLOCK_SIZE as u64);
            if data_blocks <= self.cfg.group_blocks as u64 && inode.blocks > 0 {
                self.degroup(st, ino, &mut inode)?;
            }
            if let AllocCtx::Grouped { near, .. } = ctx {
                ctx = AllocCtx::Plain { near };
            }
        }
        let done = file::write(&self.tree(st, ino, Some(ctx)), &mut inode, off, data)?;
        self.write_inode(st, ino, &inode, false)?;
        Ok(done)
    }

    /// Truncate/extend a file — see [`FileSystem::truncate`].
    pub fn truncate(&self, ino: Ino, size: u64) -> FsResult<()> {
        let st = &mut *self.lock();
        let _span = self.op_span(OpKind::Truncate);
        self.charge(self.cpu_model().syscall);
        if size > MAX_FILE_SIZE {
            return Err(FsError::FileTooBig);
        }
        let mut inode = self.read_inode(st, ino)?;
        if inode.kind == FileKind::Dir {
            return Err(FsError::IsDir);
        }
        file::truncate(&self.tree(st, ino, None), &mut inode, size)?;
        self.write_inode(st, ino, &inode, false)
    }
}

/// What a miss on a grouped block reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Fetch {
    /// The live run around the block: lookups, creates, listings and
    /// file data, whose next access is likely a neighbour.
    Run,
    /// The block alone: removing a name needs nothing beside it.
    Block,
}

/// One file's storage on a mounted C-FFS, as `bmap` and `file` see it.
/// The allocators it calls charge themselves; `ctx` places data blocks and
/// anchors pointer blocks (which are never grouped). A fetch that misses
/// group-fetches as `fetch` allows, and so does a partial overwrite. The
/// hook's methods take `&self`, so it holds the locked state in a
/// `RefCell`, borrowed for one call at a time.
pub(super) struct Tree<'a> {
    fs: &'a Cffs,
    st: RefCell<&'a mut Inner>,
    ino: Ino,
    ctx: Option<AllocCtx>,
    fetch: Fetch,
}

impl<'a> Tree<'a> {
    /// The same hook, serving its misses as `fetch` says.
    pub(super) fn fetching(self, fetch: Fetch) -> Self {
        Tree { fetch, ..self }
    }

    /// The locked state, between the hook's calls.
    pub(super) fn st(&self) -> RefMut<'_, &'a mut Inner> {
        self.st.borrow_mut()
    }
}

impl PtrRead for Tree<'_> {
    type Buf = Block;

    fn read_ptrs(&self, blk: u64) -> FsResult<Block> {
        self.st().cache.read_block(&self.fs.drv, blk)
    }
}

impl PtrStore for Tree<'_> {
    fn write_ptrs(&self, blk: u64, f: impl FnOnce(&mut [u8])) -> FsResult<()> {
        self.st().cache.modify_block(&self.fs.drv, blk, true, true, f)
    }

    fn alloc_ptr_block(&self, hint: Option<u64>) -> FsResult<u64> {
        let near = match self.ctx {
            Some(AllocCtx::Plain { near } | AllocCtx::Grouped { near, .. }) => near,
            None => 0,
        };
        let st = &mut **self.st();
        let blk = self.fs.alloc_plain(st, near, hint)?;
        st.cache.modify_block(&self.fs.drv, blk, true, false, |d| d.fill(0))?;
        Ok(blk)
    }

    fn alloc_data(&self, lbn: u64, hint: Option<u64>) -> FsResult<u64> {
        let ctx = self.ctx.expect("an allocating map carries its allocation context");
        self.fs.alloc_for(&mut self.st(), ctx, lbn, hint)
    }

    fn free_data(&self, lbn: u64, blk: u64) {
        let st = &mut **self.st();
        st.cache.unbind_logical(self.ino, lbn);
        self.fs.free_block_any(st, blk);
    }

    fn free_ptr_block(&self, blk: u64) {
        self.fs.free_block_any(&mut self.st(), blk);
    }
}

impl FileStore for Tree<'_> {
    fn ino(&self) -> Ino {
        self.ino
    }

    fn cpu(&self) -> CpuModel {
        self.fs.cpu_model()
    }

    fn charge(&self, d: SimDuration) {
        self.fs.charge(d);
    }

    fn cached(&self, lbn: u64) -> Option<u64> {
        self.st().cache.lookup_logical(self.ino, lbn)
    }

    fn read_cached(&self, lbn: u64) -> Option<Block> {
        self.st().cache.read_logical(self.ino, lbn)
    }

    fn fetch(&self, blk: u64, lbn: u64) -> FsResult<Block> {
        self.fs.fetch_block(&mut self.st(), blk, self.ino, lbn, self.fetch)
    }

    fn modify<R>(&self, blk: u64, lbn: u64, load: bool, f: impl FnOnce(&mut [u8]) -> R) -> FsResult<R> {
        self.st().cache.modify_block_bound(&self.fs.drv, blk, self.ino, lbn, load, f)
    }

    fn before_partial_overwrite(&self, blk: u64) -> FsResult<()> {
        let st = &mut **self.st();
        if st.cache.contains(blk) {
            return Ok(());
        }
        self.fs.fetch_group_for(st, blk, self.fetch)
    }
}
