//! The buffer cache implementation. See the crate docs for the design.

use cffs_disksim::driver::{Driver, IoDir, IoReq};
// A buffer's contents are a `Block`, the sector store's own chunk type:
// a read hands out a handle on the buffer (a reference-count bump, no
// copy), and a miss or group read installs a handle on the platter's
// chunk (no copy either). A buffer is written only while the cache holds
// its one handle: `writable` first copies a shared one — the platter's
// chunk, or a buffer a reader still holds — into a free-list buffer, so
// the platter and every earlier handle keep the bytes they had.
use cffs_disksim::Block;
use cffs_fslib::{FsResult, Ino, IntMap, SECTORS_PER_BLOCK};
use cffs_obs::{Ctr, Obs, Sig};
use std::sync::{Arc, Mutex, MutexGuard};

/// Buffer-cache configuration.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Capacity in 4 KB buffers. The paper's testbed was a 16 MB machine;
    /// the default mirrors that scale so the 10 000-file benchmark does not
    /// fit in memory (as it did not on the testbed).
    pub nbufs: usize,
    /// When an eviction would write back a dirty victim and at least this
    /// fraction (in percent) of resident buffers is dirty, the cache
    /// instead flushes *all* dirty buffers as one sorted, coalesced batch —
    /// the moral equivalent of the BSD update daemon plus write
    /// clustering. Set to 100 to disable (strict one-victim write-back).
    pub flush_watermark_pct: u8,
}

impl Default for CacheConfig {
    fn default() -> Self {
        // 16 MB of cache: the file-cache slice of the paper's testbed
        // machine. Small enough that the 40 MB small-file benchmark does
        // not fit (as it did not on the testbed), large enough that a
        // round-robin sweep over 100 directories' group extents survives.
        CacheConfig { nbufs: 4096, flush_watermark_pct: 25 }
    }
}

#[derive(Debug)]
struct Buf {
    blkno: u64,
    /// The logical identity this buffer was last bound to. The logical
    /// index is authoritative: an entry always names a resident buffer
    /// whose `logical` is that entry's key, but a buffer keeps its
    /// `logical` after the identity is bound to another block.
    logical: Option<(Ino, u64)>,
    data: Block,
    dirty: bool,
    /// Metadata block (affects accounting only; policy is caller-driven).
    meta: bool,
    /// `Some(fetch id)` while this buffer was installed by a group
    /// prefetch and has not been hit yet — cleared (and counted as
    /// "used") on the first hit, or counted as "wasted" if the buffer
    /// leaves the cache still untouched.
    gfetch: Option<u32>,
}

/// Utilization accounting for one in-flight group prefetch.
#[derive(Debug)]
struct GroupFetch {
    /// Blocks the fetch actually installed.
    fetched: u32,
    /// Blocks whose fate is known (used or wasted) so far.
    resolved: u32,
    /// Blocks hit at least once before leaving the cache.
    used: u32,
    /// Cylinder group of the fetch's first block (group extents never
    /// span CGs), for the per-CG utilization EWMA. `None` when the obs
    /// handle carries no CG table.
    cg: Option<usize>,
}

/// Physical-block → shard mapping: blocks of one cylinder group always
/// land in one shard.
#[derive(Debug, Clone, Copy)]
struct ShardMap {
    cg_blocks: u64,
    nshards: usize,
}

/// "No neighbour" in the LRU list.
const NIL: usize = usize::MAX;

/// One slot's place in its shard's LRU list, and when it was last used.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: usize,
    next: usize,
    /// The cache-wide touch clock when the slot was last used: it orders
    /// buffers across shards.
    tick: u64,
}

const UNLINKED: Link = Link { prev: NIL, next: NIL, tick: 0 };

/// One eviction partition: its buffers, physical index and LRU list.
/// Capacity, the touch clock, the logical index and the free list are
/// the cache's, in [`Cache`].
#[derive(Debug)]
struct Shard {
    bufs: Vec<Option<Buf>>,
    free_slots: Vec<usize>,
    phys: IntMap<u64, usize>,
    /// Intrusive LRU list: one [`Link`] per slot of `bufs`, linking the
    /// resident slots from `lru_head` (least recently touched, the
    /// shard's eviction candidate) to `lru_tail`. Empty slots are
    /// unlinked.
    links: Vec<Link>,
    lru_head: usize,
    lru_tail: usize,
    /// Number of dirty buffers in this shard, kept in step at every
    /// `dirty` flip.
    ndirty: usize,
    /// Lookups this shard answered, and how many of them hit, since the
    /// last [`Cache::drop_all`] sampled its hit rate.
    lookups: u64,
    hits: u64,
}

impl Shard {
    fn new(fair: usize) -> Self {
        Shard {
            // Sized for the shard's fair share up front, so a shard that
            // stays within it never grows its index.
            phys: IntMap::with_capacity_and_hasher(fair, Default::default()),
            bufs: Vec::new(),
            free_slots: Vec::new(),
            links: Vec::new(),
            lru_head: NIL,
            lru_tail: NIL,
            ndirty: 0,
            lookups: 0,
            hits: 0,
        }
    }

    /// Last-touch tick of the LRU head (`u64::MAX` when empty).
    fn head_tick(&self) -> u64 {
        match self.lru_head {
            NIL => u64::MAX,
            h => self.links[h].tick,
        }
    }

    fn dirty_count(&self) -> usize {
        debug_assert_eq!(self.ndirty, self.bufs.iter().flatten().filter(|b| b.dirty).count());
        self.ndirty
    }

    /// Take a resident slot out of the LRU list.
    fn unlink(&mut self, slot: usize) {
        let Link { prev, next, .. } = std::mem::replace(&mut self.links[slot], UNLINKED);
        match next {
            NIL => self.lru_tail = prev,
            n => self.links[n].prev = prev,
        }
        match prev {
            NIL => self.lru_head = next,
            p => self.links[p].next = next,
        }
    }

    /// Append an unlinked slot as the most recently touched, at `tick`.
    fn push_tail(&mut self, slot: usize, tick: u64) {
        self.links[slot] = Link { prev: self.lru_tail, next: NIL, tick };
        match self.lru_tail {
            NIL => self.lru_head = slot,
            t => self.links[t].next = slot,
        }
        self.lru_tail = slot;
    }

    /// A resident slot was used at `tick`: it becomes the most recently
    /// touched.
    fn touch(&mut self, slot: usize, tick: u64) {
        if self.lru_tail != slot {
            self.unlink(slot);
            self.push_tail(slot, tick);
        } else {
            self.links[slot].tick = tick;
        }
    }

    fn buf(&mut self, slot: usize) -> &mut Buf {
        self.bufs[slot].as_mut().expect("resident")
    }

    /// The resident buffer in `slot`, marked dirty.
    fn dirty_buf(&mut self, slot: usize) -> &mut Buf {
        let b = self.bufs[slot].as_mut().expect("resident");
        if !b.dirty {
            b.dirty = true;
            self.ndirty += 1;
        }
        b
    }

    /// Find the buffer slot for a physical block, if resident.
    fn slot_of(&self, blkno: u64) -> Option<usize> {
        self.phys.get(&blkno).copied()
    }

    /// Append a write of each of this shard's dirty buffers to `out`,
    /// marking them clean. A request carries a handle on the buffer, not
    /// a copy: a modify while the write is in flight copies on write.
    fn take_dirty(&mut self, out: &mut Vec<IoReq<Block>>) {
        if self.ndirty == 0 {
            return;
        }
        for b in self.bufs.iter_mut().flatten().filter(|b| b.dirty) {
            out.push(IoReq::write(b.blkno * SECTORS_PER_BLOCK, b.data.clone()));
            b.dirty = false;
        }
        self.ndirty = 0;
    }

    /// Put `buf` into a free slot as the most recently touched, at
    /// `tick`. A shard never evicts to make room: the cache does that.
    fn install(&mut self, buf: Buf, tick: u64) -> usize {
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.bufs.push(None);
            self.links.push(UNLINKED);
            self.bufs.len() - 1
        });
        let was = self.phys.insert(buf.blkno, slot);
        debug_assert!(was.is_none(), "block {} installed twice", buf.blkno);
        self.ndirty += usize::from(buf.dirty);
        self.bufs[slot] = Some(buf);
        self.push_tail(slot, tick);
        slot
    }

    /// Lift the resident buffer out of `slot`, leaving the slot free.
    fn take_resident(&mut self, slot: usize) -> Buf {
        self.unlink(slot);
        let b = self.bufs[slot].take().expect("indexed slot is resident");
        self.phys.remove(&b.blkno);
        self.ndirty -= usize::from(b.dirty);
        self.free_slots.push(slot);
        b
    }
}

/// `data`'s bytes, writable: in place when the cache holds its only
/// handle, else first copied into a buffer that replaces it — a spare one
/// from the free list (unshared, its stale bytes overwritten), or a fresh
/// one only when the list is empty.
fn writable<'b>(spare: &mut Vec<Block>, data: &'b mut Block) -> &'b mut [u8] {
    if data.get_mut().is_none() {
        let mut own = spare.pop().unwrap_or_else(Block::zeroed);
        own.get_mut().expect("a spare buffer is unshared").copy_from_slice(data);
        *data = own;
    }
    data.get_mut().expect("unshared above")
}

/// A group-fetched buffer left the cache without ever being hit.
fn gfetch_wasted(tallies: &mut IntMap<u32, GroupFetch>, obs: &Obs, id: u32) {
    obs.bump(Ctr::GroupFetchBlocksWasted);
    gfetch_resolve(tallies, obs, id, false);
}

/// One block of fetch `id` resolved; once all have, record the
/// fetch's utilization (percent of blocks used) and retire it.
fn gfetch_resolve(tallies: &mut IntMap<u32, GroupFetch>, obs: &Obs, id: u32, used: bool) {
    let Some(g) = tallies.get_mut(&id) else { return };
    g.resolved += 1;
    g.used += u32::from(used);
    if g.resolved == g.fetched {
        let g = tallies.remove(&id).expect("checked above");
        let pct = u64::from(g.used) * 100 / u64::from(g.fetched);
        obs.histos().group_fetch_util_pct.record(pct);
        obs.signal_sample(Sig::GroupFetchUtil, pct as f64);
        if let Some(cg) = g.cg {
            obs.cg_util_sample(cg, pct);
        }
    }
}

/// Write a collected dirty set back as one sorted, coalesced batch and
/// hand the request list back for reuse. Physically adjacent dirty
/// blocks — grouped small files — merge into single scatter/gather
/// writes here.
fn flush_batch(obs: &Obs, driver: &Driver, mut dirty: Vec<IoReq<Block>>) -> Vec<IoReq<Block>> {
    obs.signal_sample(Sig::DirtyBacklog, dirty.len() as f64);
    if dirty.is_empty() {
        return dirty;
    }
    // Each block is queued once, so an unstable sort (which never
    // allocates scratch) orders the batch exactly as a stable one would.
    dirty.sort_unstable_by_key(|req| req.lba);
    debug_assert!(dirty.windows(2).all(|w| w[0].lba < w[1].lba), "a block queued twice");
    obs.add(Ctr::CacheWritebacks, dirty.len() as u64);
    obs.add(Ctr::CacheDelayedFlushes, dirty.len() as u64);
    // Count physically contiguous runs of 2+ blocks: each becomes one
    // scatter/gather write at the driver instead of N single writes.
    let mut run_len = 1u64;
    for w in dirty.windows(2) {
        if w[1].lba == w[0].lba + SECTORS_PER_BLOCK {
            run_len += 1;
        } else {
            if run_len > 1 {
                obs.bump(Ctr::CacheCoalescedRuns);
            }
            run_len = 1;
        }
    }
    if run_len > 1 {
        obs.bump(Ctr::CacheCoalescedRuns);
    }
    driver.submit_batch(dirty)
}

/// The dual-indexed buffer cache: one plain struct, every operation on
/// `&mut self`. Its owner serializes the calls — the file system holds
/// it inside its one lock, and [`BufferCache`] wraps it in a mutex for a
/// cache shared on its own.
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    /// Shared observability handle. Starts as a private instance; the
    /// file-system layer rebinds it to the disk's handle via [`set_obs`]
    /// so the whole stack reports into one [`StatsSnapshot`].
    ///
    /// [`set_obs`]: Cache::set_obs
    /// [`StatsSnapshot`]: cffs_obs::StatsSnapshot
    obs: Arc<Obs>,
    map: Option<ShardMap>,
    /// A shard's fair share of `nbufs`. A shard may grow past it while
    /// the cache has room; over budget, only shards past it give up a
    /// buffer, so borrowed capacity goes back first.
    fair: usize,
    shards: Vec<Shard>,
    /// The logical index: (ino, lbn) → physical block, always resident.
    logical: IntMap<(Ino, u64), u64>,
    /// In-flight group-fetch utilization accounting, fetch id → tally.
    /// An entry is dropped (and its utilization histogram sample
    /// recorded) once all of its blocks resolved as used or wasted.
    gfetches: IntMap<u32, GroupFetch>,
    next_gfetch: u32,
    /// The touch clock: each use of a buffer stamps the next tick.
    clock: u64,
    /// Free list: unshared buffers of evicted, invalidated and dropped
    /// blocks (stale bytes), taken by the first write to a shared buffer
    /// (a miss or group read installs the platter's own chunk, a miss
    /// that overwrites its block unread the zero block). Survives
    /// `clear`. Every unshared buffer that leaves the cache is kept, up to
    /// `nbufs` plus the largest fetch on the list alone: resident buffers
    /// mostly share the platter's chunks and cost the cache nothing, so
    /// counting them against the list would drop buffers the next writes
    /// allocate anew.
    spare: Vec<Block>,
    /// Blocks in the largest fetch so far (a miss fetches one): the
    /// free list's slack beyond `nbufs`.
    largest_fetch: usize,
    /// The write-back request list, reused by every flush.
    writeback: Vec<IoReq<Block>>,
    /// The group-read request list and its emptied block lists, reused
    /// by every fetch.
    group: Vec<IoReq<Vec<Block>>>,
    pieces: Vec<Vec<Block>>,
}

impl Cache {
    /// Create an empty cache (one shard until [`shard_by_cg`] says
    /// otherwise).
    ///
    /// [`shard_by_cg`]: Cache::shard_by_cg
    pub fn new(config: CacheConfig) -> Cache {
        assert!(config.nbufs >= 8, "cache must hold at least 8 buffers");
        Cache {
            config,
            obs: Obs::new(),
            map: None,
            fair: config.nbufs,
            shards: vec![Shard::new(config.nbufs)],
            logical: IntMap::with_capacity_and_hasher(config.nbufs, Default::default()),
            gfetches: IntMap::default(),
            next_gfetch: 0,
            clock: 0,
            spare: Vec::new(),
            largest_fetch: 1,
            writeback: Vec::new(),
            group: Vec::new(),
            pieces: Vec::new(),
        }
    }

    fn shard_of(&self, blkno: u64) -> usize {
        match self.map {
            Some(m) => ((blkno / m.cg_blocks) as usize) % m.nshards,
            None => 0,
        }
    }

    /// `blkno`'s shard and slot, if resident.
    fn find(&self, blkno: u64) -> Option<(usize, usize)> {
        let s = self.shard_of(blkno);
        Some((s, self.shards[s].slot_of(blkno)?))
    }

    fn over(&self) -> bool {
        self.resident() > self.config.nbufs
    }

    /// The next tick of the touch clock.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock - 1
    }

    fn touch(&mut self, s: usize, slot: usize) {
        let tick = self.tick();
        self.shards[s].touch(slot, tick);
    }

    /// Install `buf` in its shard as the most recently touched; returns
    /// the slot. Never evicts: callers make room afterwards.
    fn install(&mut self, buf: Buf) -> usize {
        let (s, tick) = (self.shard_of(buf.blkno), self.tick());
        self.shards[s].install(buf, tick)
    }

    /// Keep a departing buffer's memory for a later write — only if
    /// nothing else holds it (neither the platter nor a reader), and only
    /// while the free list stays within the cache's capacity plus one
    /// fetch.
    fn recycle(&mut self, data: Block) {
        if !data.is_shared() && self.spare.len() < self.config.nbufs + self.largest_fetch {
            self.spare.push(data);
        }
    }

    /// The shard to evict from: of those holding more than their fair
    /// share, the one whose LRU head was touched longest ago. With one
    /// shard this is exact LRU.
    fn victim(&self) -> Option<usize> {
        let over = self.shards.iter().enumerate().filter(|(_, s)| s.phys.len() > self.fair);
        over.min_by_key(|(_, s)| s.head_tick()).map(|(i, _)| i)
    }

    /// A buffer left the cache: drop the logical entry naming it, and
    /// settle its group fetch if it was never hit.
    fn forget(&mut self, b: &Buf) {
        if let Some(id) = b.logical {
            if self.logical.get(&id) == Some(&b.blkno) {
                self.logical.remove(&id);
            }
        }
        if let Some(id) = b.gfetch {
            gfetch_wasted(&mut self.gfetches, &self.obs, id);
        }
    }

    /// A group-fetched buffer was hit for the first time: the speculation
    /// paid off. No-op for buffers that did not arrive via group fetch or
    /// were already counted.
    fn gfetch_used(&mut self, s: usize, slot: usize) {
        let Some(id) = self.shards[s].buf(slot).gfetch.take() else { return };
        self.obs.bump(Ctr::GroupFetchBlocksUsed);
        gfetch_resolve(&mut self.gfetches, &self.obs, id, true);
    }

    /// A lookup of the resident buffer in `slot` by its physical block
    /// number: counted as a hit, and a use.
    fn phys_hit(&mut self, s: usize, slot: usize) {
        self.shards[s].lookups += 1;
        self.shards[s].hits += 1;
        self.obs.bump(Ctr::CacheLookups);
        self.obs.bump(Ctr::CachePhysHits);
        self.touch(s, slot);
        self.gfetch_used(s, slot);
    }

    /// A handle on the resident buffer in `slot`.
    fn data(&mut self, s: usize, slot: usize) -> Block {
        self.shards[s].buf(slot).data.clone()
    }

    /// Bind (or rebind) a resident buffer's logical identity, moving the
    /// index entry to it. Counts a back-bind when the buffer arrived
    /// identity-less from a group read.
    fn bind_slot(&mut self, s: usize, slot: usize, id: (Ino, u64)) {
        // Claiming a group-fetched buffer (back-binding) is a use.
        self.gfetch_used(s, slot);
        let b = self.shards[s].buf(slot);
        let blkno = b.blkno;
        match b.logical.replace(id) {
            None => self.obs.bump(Ctr::CacheBackbinds),
            Some(old) if old != id && self.logical.get(&old) == Some(&blkno) => {
                self.logical.remove(&old);
            }
            Some(_) => {}
        }
        // Even when the buffer already carries `id`, the index may name
        // another block: `id` was bound there since.
        self.logical.insert(id, blkno);
    }

    /// The logical-index probe: the block bound to `(ino, lbn)`, with its
    /// shard and slot. Counts one lookup, and a logical hit when it finds
    /// one.
    fn logical_slot(&mut self, id: (Ino, u64)) -> Option<(usize, usize, u64)> {
        self.obs.bump(Ctr::CacheLookups);
        let blk = *self.logical.get(&id)?;
        let (s, slot) = self.find(blk).expect("the logical index names resident blocks");
        debug_assert_eq!(self.shards[s].buf(slot).logical, Some(id));
        self.shards[s].lookups += 1;
        self.shards[s].hits += 1;
        self.obs.bump(Ctr::CacheLogicalHits);
        Some((s, slot, blk))
    }

    /// Bring the cache back within its budget after installs took it
    /// over. Under dirty pressure every dirty buffer goes out first, as
    /// one sorted batch; then each victim is the least recently touched
    /// buffer of [`Cache::victim`]'s shard, written back first when
    /// dirty.
    fn make_room(&mut self, driver: &Driver) {
        if !self.over() {
            return;
        }
        // Update-daemon behaviour: under dirty pressure, flush everything
        // as one sorted, coalesced batch instead of dribbling single-block
        // write-backs out of the eviction path. The count excludes the
        // buffer just installed, which a caller dirties only afterwards.
        let pct = self.config.flush_watermark_pct as usize;
        let dirty: usize = self.shards.iter().map(|s| s.ndirty).sum();
        if pct < 100 && dirty * 100 >= self.config.nbufs * pct {
            self.flush(driver);
        }
        while self.over() {
            let Some(v) = self.victim() else { return };
            let head = self.shards[v].lru_head;
            let b = self.shards[v].take_resident(head);
            self.forget(&b);
            if b.dirty {
                driver.write(b.blkno * SECTORS_PER_BLOCK, &b.data);
                self.obs.bump(Ctr::CacheWritebacks);
                self.obs.bump(Ctr::CacheDelayedFlushes);
            }
            self.recycle(b.data);
            self.obs.bump(Ctr::CacheEvictions);
        }
    }

    /// Write every dirty buffer back as one scheduled, coalesced batch,
    /// on the one reused request list.
    fn flush(&mut self, driver: &Driver) {
        let mut reqs = std::mem::take(&mut self.writeback);
        for shard in &mut self.shards {
            shard.take_dirty(&mut reqs);
        }
        self.writeback = flush_batch(&self.obs, driver, reqs);
        self.writeback.clear();
    }

    /// Core miss/hit path: `blkno`'s shard and slot, reading from disk on
    /// a miss when `read` is set (otherwise installing the shared zero
    /// block: callers rely on a new block reading as zeros, and the write
    /// that follows copies it). A miss installs its block, then makes
    /// room: the disk sees the read before a victim's write-back.
    fn get_slot(&mut self, driver: &Driver, blkno: u64, read: bool) -> (usize, usize) {
        if let Some((s, slot)) = self.find(blkno) {
            self.phys_hit(s, slot);
            return (s, slot);
        }
        let s = self.shard_of(blkno);
        self.shards[s].lookups += 1;
        self.obs.bump(Ctr::CacheLookups);
        self.obs.bump(Ctr::CacheMisses);
        let data = if read { driver.read_block(blkno * SECTORS_PER_BLOCK) } else { Block::zero() };
        let slot = self.install(Buf { blkno, logical: None, data, dirty: false, meta: false, gfetch: None });
        // The new buffer is its shard's most recently touched, never a
        // victim.
        self.make_room(driver);
        (s, slot)
    }

    /// Forget every buffer; the unshared ones join the free list.
    fn clear(&mut self) {
        for s in 0..self.shards.len() {
            let shard = &mut self.shards[s];
            shard.phys.clear();
            shard.free_slots.clear();
            shard.links.clear();
            (shard.lru_head, shard.lru_tail, shard.ndirty) = (NIL, NIL, 0);
            while let Some(slot) = self.shards[s].bufs.pop() {
                if let Some(b) = slot {
                    self.recycle(b.data);
                }
            }
        }
        self.logical.clear();
    }
}

impl Cache {
    /// Partition eviction by cylinder group: block `b` belongs to CG `b /
    /// cg_blocks`, and CGs are distributed round-robin over `nshards`
    /// shards (capped so every shard's fair share is at least 8
    /// buffers). Capacity stays one cache-wide budget: a shard grows past
    /// its fair share while the cache has room, and gives the borrowed
    /// buffers back first once it is full. Must be called while the
    /// cache is empty — the file-system layer does it at mount.
    pub fn shard_by_cg(&mut self, cg_blocks: u64, nshards: usize) {
        assert!(cg_blocks >= 1, "cylinder group size must be positive");
        assert_eq!(self.resident(), 0, "cannot reshard a populated cache");
        let nshards = nshards.clamp(1, self.config.nbufs / 8);
        self.map = (nshards > 1).then_some(ShardMap { cg_blocks, nshards });
        self.fair = self.config.nbufs / nshards;
        self.shards = (0..nshards).map(|_| Shard::new(self.fair)).collect();
    }

    /// Number of shards the cache is split into.
    pub fn nshards(&self) -> usize {
        self.shards.len()
    }

    /// Rebind the observability handle (normally to `driver.obs()`, so
    /// cache counters land in the same registry as the disk's).
    pub fn set_obs(&mut self, obs: Arc<Obs>) {
        self.obs = obs;
    }

    /// The observability handle this cache reports into.
    pub fn obs(&self) -> Arc<Obs> {
        Arc::clone(&self.obs)
    }

    /// Number of resident buffers.
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.phys.len()).sum()
    }

    /// Number of dirty buffers.
    pub fn dirty_count(&self) -> usize {
        self.shards.iter().map(Shard::dirty_count).sum()
    }

    /// Is the block resident (for tests and group-read planning)?
    pub fn contains(&self, blkno: u64) -> bool {
        self.find(blkno).is_some()
    }

    /// Look a block up by logical identity without touching the disk.
    /// Returns the physical block number on a hit — the caller skips the
    /// bmap translation entirely, which is the point of the second index.
    pub fn lookup_logical(&mut self, ino: Ino, lbn: u64) -> Option<u64> {
        let (s, slot, blk) = self.logical_slot((ino, lbn))?;
        self.touch(s, slot);
        Some(blk)
    }

    /// Read the resident block bound to `(ino, lbn)`, if there is one:
    /// the logical-index probe of [`lookup_logical`] and the physical hit
    /// of [`read_block_bound`] in one call, counted as those two
    /// lookups. On `None` only the probe was counted; nothing was read.
    ///
    /// [`lookup_logical`]: Cache::lookup_logical
    /// [`read_block_bound`]: Cache::read_block_bound
    pub fn read_logical(&mut self, ino: Ino, lbn: u64) -> Option<Block> {
        let (s, slot, _) = self.logical_slot((ino, lbn))?;
        self.phys_hit(s, slot);
        Some(self.data(s, slot))
    }

    /// Run `f` on the contents of the resident block bound to `(ino,
    /// lbn)`, if there is one: a look that reads nothing from the disk
    /// and, not being a use, leaves the LRU order and the counters alone.
    /// Returns the physical block number with `f`'s result.
    pub fn peek_logical<R>(&self, ino: Ino, lbn: u64, f: impl FnOnce(&[u8]) -> R) -> Option<(u64, R)> {
        let blk = *self.logical.get(&(ino, lbn))?;
        let (s, slot) = self.find(blk).expect("the logical index names resident blocks");
        let b = self.shards[s].bufs[slot].as_ref().expect("resident");
        Some((blk, f(&b.data)))
    }

    /// Read a block through the cache, returning a shared handle on its
    /// contents (see [`Block`]).
    pub fn read_block(&mut self, driver: &Driver, blkno: u64) -> FsResult<Block> {
        let (s, slot) = self.get_slot(driver, blkno, true);
        Ok(self.data(s, slot))
    }

    /// Read `blkno` if it is resident, binding it to `id` when given: the
    /// hit path of [`read_block`] / [`read_block_bound`], counted the
    /// same. A miss counts nothing and reads nothing, so the caller can
    /// plan its fetch before the counted read.
    ///
    /// [`read_block`]: Cache::read_block
    /// [`read_block_bound`]: Cache::read_block_bound
    pub fn read_resident(&mut self, blkno: u64, id: Option<(Ino, u64)>) -> Option<Block> {
        let (s, slot) = self.find(blkno)?;
        self.phys_hit(s, slot);
        if let Some(id) = id {
            self.bind_slot(s, slot, id);
        }
        Some(self.data(s, slot))
    }

    /// Read a block and bind it to a logical identity in one step (the
    /// common file-read path: bmap said `(ino, lbn)` lives at `blkno`).
    pub fn read_block_bound(&mut self, driver: &Driver, blkno: u64, ino: Ino, lbn: u64) -> FsResult<Block> {
        let (s, slot) = self.get_slot(driver, blkno, true);
        self.bind_slot(s, slot, (ino, lbn));
        Ok(self.data(s, slot))
    }

    /// Mutate a block in place (a block that shares the platter's chunk or
    /// a reader's handle is first copied into a free-list buffer).
    /// `read_first` controls whether a cache miss fetches the old contents
    /// (true for partial updates, false when the caller will overwrite the
    /// whole block). The buffer is left dirty; durability is the caller's
    /// policy decision.
    pub fn modify_block<R>(
        &mut self,
        driver: &Driver,
        blkno: u64,
        meta: bool,
        read_first: bool,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> FsResult<R> {
        let (s, slot) = self.get_slot(driver, blkno, read_first);
        let b = self.shards[s].dirty_buf(slot);
        b.meta = meta;
        Ok(f(writable(&mut self.spare, &mut b.data)))
    }

    /// Mutate a block and bind its logical identity (file-write path).
    pub fn modify_block_bound<R>(
        &mut self,
        driver: &Driver,
        blkno: u64,
        ino: Ino,
        lbn: u64,
        read_first: bool,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> FsResult<R> {
        let (s, slot) = self.get_slot(driver, blkno, read_first);
        self.bind_slot(s, slot, (ino, lbn));
        Ok(f(writable(&mut self.spare, &mut self.shards[s].dirty_buf(slot).data)))
    }

    /// If `blkno` is dirty, write it to disk *now* and mark it clean. This
    /// is the synchronous-metadata primitive: the conventional create path
    /// calls it on the inode block before the directory block, and so on.
    pub fn flush_block_sync(&mut self, driver: &Driver, blkno: u64) -> FsResult<()> {
        if let Some((s, slot)) = self.find(blkno) {
            let shard = &mut self.shards[s];
            let b = shard.buf(slot);
            if b.dirty {
                driver.write(blkno * SECTORS_PER_BLOCK, &b.data);
                b.dirty = false;
                shard.ndirty -= 1;
                self.obs.bump(Ctr::CacheSyncFlushes);
            }
        }
        Ok(())
    }

    /// Write only the 512-byte sector of `blkno` containing `offset`,
    /// synchronously. This is the embedded-inode atomicity primitive: a
    /// name and its inode live in the same sector, so one sector write
    /// updates both atomically (the disk guarantees sector atomicity).
    ///
    /// The rest of the block stays dirty if it was dirty before.
    pub fn flush_sector_sync(&mut self, driver: &Driver, blkno: u64, offset: usize) -> FsResult<()> {
        let sector_in_block = offset / cffs_disksim::SECTOR_SIZE;
        if let Some((s, slot)) = self.find(blkno) {
            let b = self.shards[s].buf(slot);
            let lo = sector_in_block * cffs_disksim::SECTOR_SIZE;
            let hi = lo + cffs_disksim::SECTOR_SIZE;
            driver.write(blkno * SECTORS_PER_BLOCK + sector_in_block as u64, &b.data[lo..hi]);
            self.obs.bump(Ctr::CacheSyncFlushes);
        }
        Ok(())
    }

    /// Bind (or rebind) the logical identity of a resident block. Counts a
    /// back-bind when the buffer arrived identity-less from a group read.
    pub fn bind_logical(&mut self, blkno: u64, ino: Ino, lbn: u64) {
        if let Some((s, slot)) = self.find(blkno) {
            self.bind_slot(s, slot, (ino, lbn));
        }
    }

    /// Drop every logical identity bound to `ino` (the inode number was
    /// retired — C-FFS renumbers embedded inodes on rename and
    /// externalization). Physical buffers stay resident; only the logical
    /// index entries go, so a future holder of the same number can never
    /// hit another file's stale bindings.
    pub fn purge_ino(&mut self, ino: Ino) {
        let logical = &mut self.logical;
        for b in self.shards.iter_mut().flat_map(|s| s.bufs.iter_mut().flatten()) {
            if b.logical.is_some_and(|id| id.0 == ino && logical.get(&id) == Some(&b.blkno)) {
                b.logical = None;
            }
        }
        logical.retain(|id, _| id.0 != ino);
    }

    /// Drop the logical identity for `(ino, lbn)` (file truncate/delete).
    pub fn unbind_logical(&mut self, ino: Ino, lbn: u64) {
        if let Some(blk) = self.logical.remove(&(ino, lbn)) {
            let (s, slot) = self.find(blk).expect("the logical index names resident blocks");
            self.shards[s].buf(slot).logical = None;
        }
    }

    /// Relocation-aware rebinding: the regrouper is moving a block's
    /// storage from physical address `old` to `new`. If `old` is resident,
    /// its buffer — data, logical identity and all — is re-homed to `new`
    /// (no disk I/O) and marked dirty, since the contents now belong at
    /// the new address; any stale buffer already sitting at `new` is
    /// invalidated first. Returns `true` on success, `false` when `old`
    /// is not resident (the caller must copy through the disk instead). A
    /// group-fetched buffer that gets relocated counts as used: the
    /// speculative fetch delivered exactly the block the regrouper
    /// needed. The move is a use, in `new`'s shard; it never grows the
    /// cache, so it never evicts.
    pub fn relocate_phys(&mut self, old: u64, new: u64) -> bool {
        let Some((s, slot)) = self.find(old).filter(|_| old != new) else { return false };
        self.invalidate_block(new);
        self.gfetch_used(s, slot);
        let mut b = self.shards[s].take_resident(slot);
        (b.blkno, b.dirty) = (new, true);
        if let Some(id) = b.logical.filter(|id| self.logical.get(id) == Some(&old)) {
            self.logical.insert(id, new);
        }
        self.install(b);
        true
    }

    /// Forget a block entirely (its disk space was freed). Dirty contents
    /// are discarded — writing a freed block back would be a bug.
    pub fn invalidate_block(&mut self, blkno: u64) {
        if let Some((s, slot)) = self.find(blkno) {
            let b = self.shards[s].take_resident(slot);
            self.forget(&b);
            self.recycle(b.data);
        }
    }

    /// Fetch a set of contiguous block runs as *one* batch of scatter/gather
    /// reads — the explicit-grouping read path. Runs must be disjoint.
    /// Blocks already resident are skipped (never clobber a dirty buffer).
    /// Newly inserted blocks carry no logical identity; files claim them
    /// later via back-binding.
    ///
    /// Each piece of a run between resident blocks is one read request
    /// whose payload is the list of blocks it will install, so the disk
    /// lends each the platter's chunk (a handle, no copy and no free-list
    /// buffer: the first write to one copies it, see [`modify_block`]) —
    /// and the scheduler sees one request per piece, as C-LOOK must (its
    /// wrap point can fall inside a run). The request list and the
    /// pieces' block lists are the cache's, emptied and reused by every
    /// fetch. The fetch installs all its blocks, then makes room once.
    ///
    /// [`modify_block`]: Cache::modify_block
    pub fn read_group(&mut self, driver: &Driver, runs: &[(u64, usize)]) -> FsResult<()> {
        let mut reqs = std::mem::take(&mut self.group);
        for &(start, n) in runs {
            // Split each run at resident blocks.
            let mut piece: Option<IoReq<Vec<Block>>> = None;
            for blk in start..start + n as u64 {
                if self.find(blk).is_some() {
                    reqs.extend(piece.take());
                    continue;
                }
                let lba = blk * SECTORS_PER_BLOCK;
                let piece = piece.get_or_insert_with(|| IoReq {
                    lba,
                    dir: IoDir::Read,
                    data: self.pieces.pop().unwrap_or_default(),
                });
                piece.data.push(Block::zero());
            }
            reqs.extend(piece);
        }
        if reqs.is_empty() {
            self.group = reqs;
            return Ok(());
        }
        let mut done = driver.submit_batch(reqs);
        self.obs.bump(Ctr::CacheGroupReads);
        let fetch_id = self.next_gfetch;
        self.next_gfetch = fetch_id.wrapping_add(1);
        // Register the tally before installing: with a tiny cache, making
        // room afterwards can evict blocks of this very fetch, and their
        // "wasted" resolution must find the entry.
        let fetched: u32 = done.iter().map(|r| r.data.len() as u32).sum();
        self.largest_fetch = self.largest_fetch.max(fetched as usize);
        let cg = done.first().and_then(|r| self.obs.cg_of_sector(r.lba));
        self.gfetches.insert(fetch_id, GroupFetch { fetched, resolved: 0, used: 0, cg });
        // Install every fetched block, identity-less. Block numbers come
        // from the requests themselves — the scheduler may have serviced
        // them in any order.
        for req in &mut done {
            let base = req.lba / SECTORS_PER_BLOCK;
            let gfetch = Some(fetch_id);
            for (blkno, data) in (base..).zip(req.data.drain(..)) {
                self.install(Buf { blkno, logical: None, data, dirty: false, meta: false, gfetch });
                self.obs.bump(Ctr::CacheGroupReadBlocks);
            }
            self.pieces.push(std::mem::take(&mut req.data));
        }
        done.clear();
        self.group = done;
        self.make_room(driver);
        Ok(())
    }

    /// Write back every dirty buffer as one scheduled, coalesced batch.
    /// Physically adjacent dirty blocks — grouped small files — merge into
    /// single scatter/gather writes here.
    pub fn sync(&mut self, driver: &Driver) -> FsResult<()> {
        self.flush(driver);
        Ok(())
    }

    /// Sync, then drop *all* buffers: the cold-cache boundary between
    /// benchmark phases (the moral equivalent of unmount + mount).
    pub fn drop_all(&mut self, driver: &Driver) -> FsResult<()> {
        self.flush(driver);
        for shard in &mut self.shards {
            // Every still-untouched group-fetched buffer leaves the cache
            // here: resolve them as wasted so in-flight fetch tallies settle
            // (this is what makes `used + wasted == fetched` hold at every
            // cold-cache boundary).
            for id in shard.bufs.iter().flatten().filter_map(|b| b.gfetch) {
                gfetch_wasted(&mut self.gfetches, &self.obs, id);
            }
            // One hit-rate sample per shard per cold boundary, over the
            // epoch it closes: uneven shard rates are the signature of a
            // skewed workload.
            if let Some(pct) = (shard.hits * 100).checked_div(shard.lookups) {
                self.obs.histos().cache_shard_hit_pct.record(pct);
            }
            (shard.lookups, shard.hits) = (0, 0);
        }
        self.clear();
        Ok(())
    }

    /// Discard every buffer *without* writing dirty data — simulates a
    /// crash. The disk image is left exactly as the write history produced
    /// it; fsck gets to pick up the pieces.
    pub fn crash(&mut self) {
        self.clear();
        // A crash is not an eviction: abandon in-flight utilization
        // accounting rather than charging the lost buffers as "wasted".
        self.gfetches.clear();
    }
}

/// A [`Cache`] shared on its own: the cache behind one mutex, taken once
/// per call (its wait charged to `lock_wait_ns_cache`). A file system
/// keeps its cache inside its own lock instead; this adapter serves
/// callers that drive a cache directly through `&self`, from one thread
/// or several. Calls beyond the common ones go through [`lock`].
///
/// [`lock`]: BufferCache::lock
#[derive(Debug)]
pub struct BufferCache {
    cache: Mutex<Cache>,
    /// The cache's own handle, for charging the lock wait.
    obs: Arc<Obs>,
}

impl BufferCache {
    /// An empty cache behind its lock.
    pub fn new(config: CacheConfig) -> Self {
        let cache = Cache::new(config);
        BufferCache { obs: cache.obs(), cache: Mutex::new(cache) }
    }

    /// The cache, held until the guard drops.
    pub fn lock(&self) -> MutexGuard<'_, Cache> {
        self.obs.lock_timed(&self.cache, Ctr::LockWaitNsCache)
    }

    /// The observability handle the cache reports into.
    pub fn obs(&self) -> Arc<Obs> {
        Arc::clone(&self.obs)
    }

    /// [`Cache::read_block`] under the lock.
    pub fn read_block(&self, driver: &Driver, blkno: u64) -> FsResult<Block> {
        self.lock().read_block(driver, blkno)
    }

    /// [`Cache::read_block_bound`] under the lock.
    pub fn read_block_bound(&self, driver: &Driver, blkno: u64, ino: Ino, lbn: u64) -> FsResult<Block> {
        self.lock().read_block_bound(driver, blkno, ino, lbn)
    }

    /// [`Cache::modify_block`] under the lock: `f` runs under it, so it
    /// must not call back into this cache.
    pub fn modify_block<R>(
        &self,
        driver: &Driver,
        blkno: u64,
        meta: bool,
        read_first: bool,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> FsResult<R> {
        self.lock().modify_block(driver, blkno, meta, read_first, f)
    }

    /// [`Cache::read_group`] under the lock.
    pub fn read_group(&self, driver: &Driver, runs: &[(u64, usize)]) -> FsResult<()> {
        self.lock().read_group(driver, runs)
    }

    /// [`Cache::sync`] under the lock.
    pub fn sync(&self, driver: &Driver) -> FsResult<()> {
        self.lock().sync(driver)
    }

    /// [`Cache::drop_all`] under the lock.
    pub fn drop_all(&self, driver: &Driver) -> FsResult<()> {
        self.lock().drop_all(driver)
    }
}

#[cfg(test)]
impl Cache {
    /// Buffers the cache owns: its unshared resident ones plus its free
    /// list. A resident block that shares the platter's chunk is the
    /// platter's memory, not the cache's.
    fn owned(&self) -> usize {
        let unshared = |s: &Shard| s.bufs.iter().flatten().filter(|b| !b.data.is_shared()).count();
        self.shards.iter().map(unshared).sum::<usize>() + self.spare.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cffs_disksim::{models, Disk, DriverConfig};
    use cffs_fslib::BLOCK_SIZE;

    fn driver() -> Driver {
        Driver::new(Disk::new(models::seagate_st31200()), DriverConfig::default())
    }

    fn small_cache() -> Cache {
        Cache::new(CacheConfig { nbufs: 8, flush_watermark_pct: 100 })
    }

    #[test]
    fn read_miss_then_hit() {
        let drv = driver();
        let mut c = small_cache();
        drv.with_disk_mut(|d| d.raw_write(100 * SECTORS_PER_BLOCK, &[7u8; BLOCK_SIZE]));
        let d = c.read_block(&drv, 100).unwrap();
        assert!(d.iter().all(|&b| b == 7));
        let before = drv.obs().get(Ctr::DiskReads);
        let _ = c.read_block(&drv, 100).unwrap();
        assert_eq!(drv.obs().get(Ctr::DiskReads), before, "second read must not hit the disk");
        assert_eq!(c.obs().get(Ctr::CachePhysHits), 1);
    }

    #[test]
    fn modify_without_read_first_skips_disk() {
        let drv = driver();
        let mut c = small_cache();
        c.modify_block(&drv, 50, false, false, |d| d.fill(9)).unwrap();
        assert_eq!(drv.obs().get(Ctr::DiskReads), 0);
        assert_eq!(c.dirty_count(), 1);
        c.sync(&drv).unwrap();
        assert_eq!(c.dirty_count(), 0);
        let mut back = vec![0u8; BLOCK_SIZE];
        drv.with_disk(|d| d.raw_read(50 * SECTORS_PER_BLOCK, &mut back));
        assert!(back.iter().all(|&b| b == 9));
    }

    #[test]
    fn sync_coalesces_adjacent_dirty_blocks() {
        let drv = driver();
        let mut c = Cache::new(CacheConfig { nbufs: 64, flush_watermark_pct: 100 });
        // A 16-block "group" of dirty buffers plus a loner far away.
        for blk in 1000..1016 {
            c.modify_block(&drv, blk, false, false, |d| d.fill(1)).unwrap();
        }
        c.modify_block(&drv, 50_000, false, false, |d| d.fill(2)).unwrap();
        c.sync(&drv).unwrap();
        assert_eq!(drv.obs().get(Ctr::DriverPhysicalRequests), 2, "16 adjacent + 1 = 2 phys writes");
        assert_eq!(drv.obs().get(Ctr::DriverCoalesced), 15);
    }

    #[test]
    fn sync_counts_coalesced_runs_in_shared_obs() {
        let drv = driver();
        let mut c = Cache::new(CacheConfig { nbufs: 64, flush_watermark_pct: 100 });
        c.set_obs(drv.obs());
        // Two contiguous runs (4 and 2 blocks) plus two isolated loners.
        for blk in 1000..1004u64 {
            c.modify_block(&drv, blk, false, false, |d| d.fill(1)).unwrap();
        }
        for blk in 2000..2002u64 {
            c.modify_block(&drv, blk, false, false, |d| d.fill(2)).unwrap();
        }
        c.modify_block(&drv, 5000, false, false, |d| d.fill(3)).unwrap();
        c.modify_block(&drv, 60_000, false, false, |d| d.fill(4)).unwrap();
        c.sync(&drv).unwrap();
        let obs = drv.obs();
        assert_eq!(obs.get(Ctr::CacheWritebacks), 8);
        assert_eq!(obs.get(Ctr::CacheCoalescedRuns), 2, "two runs of >= 2 blocks");
        // The driver saw the same picture: 4 physical writes carrying 8
        // scatter/gather segments, 4 logical requests merged away.
        assert_eq!(obs.get(Ctr::DriverPhysicalRequests), 4);
        assert_eq!(obs.get(Ctr::DriverSgSegments), 8);
        assert_eq!(obs.get(Ctr::DriverCoalesced), 4);
        assert_eq!(drv.obs().get(Ctr::DriverPhysicalRequests), 4);
    }

    #[test]
    fn sync_counts_run_ending_at_list_tail() {
        // Regression guard for the classic off-by-one: a contiguous run that
        // ends at the *last* element of the sorted dirty list must still be
        // counted (the loop only closes runs on a discontinuity).
        let drv = driver();
        let mut c = Cache::new(CacheConfig { nbufs: 64, flush_watermark_pct: 100 });
        c.set_obs(drv.obs());
        c.modify_block(&drv, 10, false, false, |d| d.fill(9)).unwrap();
        for blk in 100..103u64 {
            c.modify_block(&drv, blk, false, false, |d| d.fill(9)).unwrap();
        }
        c.sync(&drv).unwrap();
        let obs = drv.obs();
        assert_eq!(obs.get(Ctr::CacheCoalescedRuns), 1, "tail run [100..103) counts");
        assert_eq!(obs.get(Ctr::DriverPhysicalRequests), 2);

        // And a pair at the *head* of the list, loner at the tail.
        let drv = driver();
        let mut c = Cache::new(CacheConfig { nbufs: 64, flush_watermark_pct: 100 });
        c.set_obs(drv.obs());
        c.modify_block(&drv, 20, false, false, |d| d.fill(9)).unwrap();
        c.modify_block(&drv, 21, false, false, |d| d.fill(9)).unwrap();
        c.modify_block(&drv, 900, false, false, |d| d.fill(9)).unwrap();
        c.sync(&drv).unwrap();
        assert_eq!(drv.obs().get(Ctr::CacheCoalescedRuns), 1, "head run [20..22) counts");
        assert_eq!(drv.obs().get(Ctr::DriverPhysicalRequests), 2);
    }

    #[test]
    fn flush_block_sync_writes_once() {
        let drv = driver();
        let mut c = small_cache();
        c.modify_block(&drv, 10, true, false, |d| d.fill(3)).unwrap();
        c.flush_block_sync(&drv, 10).unwrap();
        assert_eq!(c.obs().get(Ctr::CacheSyncFlushes), 1);
        assert_eq!(drv.obs().get(Ctr::DiskWrites), 1);
        // Clean now: second flush is a no-op.
        c.flush_block_sync(&drv, 10).unwrap();
        assert_eq!(drv.obs().get(Ctr::DiskWrites), 1);
        c.sync(&drv).unwrap();
        assert_eq!(drv.obs().get(Ctr::DiskWrites), 1, "already clean");
    }

    #[test]
    fn flush_sector_sync_writes_single_sector() {
        let drv = driver();
        let mut c = small_cache();
        c.modify_block(&drv, 20, true, false, |d| d.fill(0xAB)).unwrap();
        c.flush_sector_sync(&drv, 20, 1024).unwrap();
        assert_eq!(drv.obs().get(Ctr::DiskBytesWritten), cffs_disksim::SECTOR_SIZE as u64);
        let mut sec = vec![0u8; 512];
        drv.with_disk(|d| d.raw_read(20 * SECTORS_PER_BLOCK + 2, &mut sec));
        assert!(sec.iter().all(|&b| b == 0xAB));
        // Neighboring sector not written.
        drv.with_disk(|d| d.raw_read(20 * SECTORS_PER_BLOCK, &mut sec));
        assert!(sec.iter().all(|&b| b == 0));
    }

    #[test]
    fn lru_eviction_writes_dirty_victim() {
        let drv = driver();
        let mut c = small_cache(); // 8 buffers
        c.modify_block(&drv, 0, false, false, |d| d.fill(0xEE)).unwrap();
        for blk in 1..9 {
            let _ = c.read_block(&drv, blk).unwrap();
        }
        // Block 0 (LRU, dirty) must have been evicted and written back.
        assert!(!c.contains(0));
        let mut back = vec![0u8; BLOCK_SIZE];
        drv.with_disk(|d| d.raw_read(0, &mut back));
        assert!(back.iter().all(|&b| b == 0xEE));
        assert_eq!(c.obs().get(Ctr::CacheEvictions), 1);
        assert_eq!(c.obs().get(Ctr::CacheWritebacks), 1);
    }

    #[test]
    fn group_read_is_one_physical_request() {
        let drv = driver();
        let mut c = Cache::new(CacheConfig { nbufs: 64, flush_watermark_pct: 100 });
        for blk in 200..216u64 {
            drv.with_disk_mut(|d| d.raw_write(blk * SECTORS_PER_BLOCK, &vec![blk as u8; BLOCK_SIZE]));
        }
        c.read_group(&drv, &[(200, 16)]).unwrap();
        assert_eq!(drv.obs().get(Ctr::DiskReads), 1);
        assert_eq!(c.obs().get(Ctr::CacheGroupReads), 1);
        assert_eq!(c.obs().get(Ctr::CacheGroupReadBlocks), 16);
        // All 16 now hit without further I/O.
        for blk in 200..216 {
            let d = c.read_block(&drv, blk).unwrap();
            assert_eq!(d[0], blk as u8);
        }
        assert_eq!(drv.obs().get(Ctr::DiskReads), 1);
    }

    #[test]
    fn group_read_skips_resident_dirty_blocks() {
        let drv = driver();
        let mut c = Cache::new(CacheConfig { nbufs: 64, flush_watermark_pct: 100 });
        c.modify_block(&drv, 205, false, false, |d| d.fill(0x77)).unwrap();
        c.read_group(&drv, &[(200, 16)]).unwrap();
        // The dirty buffer must survive untouched.
        let d = c.read_block(&drv, 205).unwrap();
        assert!(d.iter().all(|&b| b == 0x77));
        // Two physical reads: [200..205) and [206..216).
        assert_eq!(drv.obs().get(Ctr::DiskReads), 2);
    }

    /// C-LOOK starts its sweep at the first request on or past the arm's
    /// cylinder. A run that starts below the arm and ends on its cylinder
    /// must still go out whole: sent as one request per block, its upper
    /// blocks would be served first and its lower ones after the wrap,
    /// as two disk reads.
    #[test]
    fn group_read_across_the_arm_cylinder_is_one_request() {
        let drv = driver();
        let mut c = Cache::new(CacheConfig { nbufs: 64, flush_watermark_pct: 100 });
        let cyl = |blk: u64| {
            drv.with_disk(|d| d.model().geometry.lba_to_chs(blk * SECTORS_PER_BLOCK).cylinder)
        };
        let edge = (1..).find(|&b| cyl(b) > cyl(b - 1)).expect("a second cylinder");
        drv.read((edge + 2) * SECTORS_PER_BLOCK, &mut [0u8; cffs_disksim::SECTOR_SIZE]);
        assert_eq!(drv.with_disk(|d| d.arm_cylinder()), cyl(edge), "arm inside the run");
        let (reads, logical) = (drv.obs().get(Ctr::DiskReads), drv.obs().get(Ctr::DriverLogicalRequests));
        c.read_group(&drv, &[(edge - 4, 8)]).unwrap();
        assert_eq!(drv.obs().get(Ctr::DiskReads) - reads, 1, "the run is one disk read");
        assert_eq!(drv.obs().get(Ctr::DriverLogicalRequests) - logical, 1, "and one logical request");
        assert_eq!(c.obs().get(Ctr::CacheGroupReadBlocks), 8);
    }

    #[test]
    fn backbinding_after_group_read() {
        let drv = driver();
        let mut c = Cache::new(CacheConfig { nbufs: 64, flush_watermark_pct: 100 });
        c.read_group(&drv, &[(300, 4)]).unwrap();
        assert_eq!(c.obs().get(Ctr::CacheBackbinds), 0);
        // File 42 claims block 301 as its lbn 0.
        let _ = c.read_block_bound(&drv, 301, 42, 0).unwrap();
        assert_eq!(c.obs().get(Ctr::CacheBackbinds), 1);
        assert_eq!(c.lookup_logical(42, 0), Some(301));
        // Rebinding the same identity is not another back-bind.
        let _ = c.read_block_bound(&drv, 301, 42, 0).unwrap();
        assert_eq!(c.obs().get(Ctr::CacheBackbinds), 1);
    }

    #[test]
    fn group_fetch_utilization_used_plus_wasted_equals_fetched() {
        use cffs_obs::Ctr;
        let drv = driver();
        let mut c = Cache::new(CacheConfig { nbufs: 64, flush_watermark_pct: 100 });
        c.read_group(&drv, &[(200, 16)]).unwrap();
        let obs = c.obs();
        assert_eq!(obs.get(Ctr::GroupFetchBlocksUsed), 0);
        // Hit 5 of the 16: two via physical reads, three via back-binding.
        for blk in 200..202 {
            let _ = c.read_block(&drv, blk).unwrap();
        }
        for (i, blk) in (202..205).enumerate() {
            let _ = c.read_block_bound(&drv, blk, 9, i as u64).unwrap();
        }
        // Re-hitting a block must not double-count.
        let _ = c.read_block(&drv, 200).unwrap();
        assert_eq!(obs.get(Ctr::GroupFetchBlocksUsed), 5);
        assert_eq!(obs.get(Ctr::GroupFetchBlocksWasted), 0);
        // Fetch still unresolved: no utilization sample yet.
        assert_eq!(obs.histos().group_fetch_util_pct.snapshot().count(), 0);
        // Cold boundary resolves the remaining 11 as wasted and settles
        // the fetch: used + wasted == blocks fetched.
        c.drop_all(&drv).unwrap();
        assert_eq!(obs.get(Ctr::GroupFetchBlocksUsed), 5);
        assert_eq!(obs.get(Ctr::GroupFetchBlocksWasted), 11);
        assert_eq!(
            obs.get(Ctr::GroupFetchBlocksUsed) + obs.get(Ctr::GroupFetchBlocksWasted),
            obs.get(Ctr::CacheGroupReadBlocks)
        );
        let util = obs.histos().group_fetch_util_pct.snapshot();
        assert_eq!(util.count(), 1);
        assert_eq!(util.sum, 5 * 100 / 16, "one sample: 31% of the fetch used");
    }

    #[test]
    fn group_fetch_eviction_counts_untouched_blocks_as_wasted() {
        use cffs_obs::Ctr;
        let drv = driver();
        // 8-buffer cache, 8-block fetch: reading 8 other blocks evicts
        // the whole untouched fetch.
        let mut c = small_cache();
        c.read_group(&drv, &[(100, 8)]).unwrap();
        for blk in 500..508 {
            let _ = c.read_block(&drv, blk).unwrap();
        }
        let obs = c.obs();
        assert_eq!(obs.get(Ctr::GroupFetchBlocksUsed), 0);
        assert_eq!(obs.get(Ctr::GroupFetchBlocksWasted), 8);
        let util = obs.histos().group_fetch_util_pct.snapshot();
        assert_eq!(util.count(), 1);
        assert_eq!(util.sum, 0, "fully wasted fetch records 0% utilization");
    }

    #[test]
    fn logical_lookup_miss_and_unbind() {
        let drv = driver();
        let mut c = small_cache();
        assert_eq!(c.lookup_logical(1, 0), None);
        let _ = c.read_block_bound(&drv, 77, 1, 0).unwrap();
        assert_eq!(c.lookup_logical(1, 0), Some(77));
        c.unbind_logical(1, 0);
        assert_eq!(c.lookup_logical(1, 0), None);
        // Physical identity still resident.
        assert!(c.contains(77));
    }

    #[test]
    fn invalidate_discards_dirty_data() {
        let drv = driver();
        let mut c = small_cache();
        c.modify_block(&drv, 33, false, false, |d| d.fill(5)).unwrap();
        c.invalidate_block(33);
        c.sync(&drv).unwrap();
        assert_eq!(drv.obs().get(Ctr::DiskWrites), 0, "freed block must not be written");
    }

    #[test]
    fn crash_loses_unsynced_writes() {
        let drv = driver();
        let mut c = small_cache();
        c.modify_block(&drv, 11, false, false, |d| d.fill(1)).unwrap();
        c.flush_block_sync(&drv, 11).unwrap();
        c.modify_block(&drv, 12, false, false, |d| d.fill(2)).unwrap();
        c.crash();
        let mut b = vec![0u8; BLOCK_SIZE];
        drv.with_disk(|d| d.raw_read(11 * SECTORS_PER_BLOCK, &mut b));
        assert!(b.iter().all(|&x| x == 1), "synced write survives the crash");
        drv.with_disk(|d| d.raw_read(12 * SECTORS_PER_BLOCK, &mut b));
        assert!(b.iter().all(|&x| x == 0), "delayed write is lost");
    }

    #[test]
    fn drop_all_flushes_then_empties() {
        let drv = driver();
        let mut c = small_cache();
        c.modify_block(&drv, 9, false, false, |d| d.fill(4)).unwrap();
        c.drop_all(&drv).unwrap();
        assert_eq!(c.resident(), 0);
        let mut b = vec![0u8; BLOCK_SIZE];
        drv.with_disk(|d| d.raw_read(9 * SECTORS_PER_BLOCK, &mut b));
        assert!(b.iter().all(|&x| x == 4));
    }

    #[test]
    fn rebind_moves_identity() {
        let drv = driver();
        let mut c = small_cache();
        let _ = c.read_block_bound(&drv, 60, 5, 0).unwrap();
        // The file's block moved (e.g. degrouping relocated it) — same
        // identity now maps to block 61.
        let _ = c.read_block_bound(&drv, 61, 5, 0).unwrap();
        assert_eq!(c.lookup_logical(5, 0), Some(61));
    }

    /// An identity bound back to a block whose buffer still carries it
    /// from before moves the index entry back: the buffer keeps its
    /// `logical` when the identity is bound elsewhere, and that leftover
    /// must not make the rebind a no-op.
    #[test]
    fn rebind_to_a_buffer_that_kept_the_identity_moves_the_index() {
        let drv = driver();
        let mut c = Cache::new(CacheConfig { nbufs: 12, flush_watermark_pct: 100 });
        c.modify_block_bound(&drv, 55, 5, 5, false, |d| d.fill(1)).unwrap();
        c.modify_block_bound(&drv, 9, 5, 5, false, |d| d.fill(2)).unwrap();
        assert_eq!(c.lookup_logical(5, 5), Some(9));
        c.modify_block_bound(&drv, 55, 5, 5, false, |d| d.fill(3)).unwrap();
        assert_eq!(c.lookup_logical(5, 5), Some(55), "the identity went back to block 55");
        assert_eq!(c.read_logical(5, 5).unwrap()[0], 3);
        assert_eq!(c.obs().get(Ctr::CacheBackbinds), 2, "a rebind is not a back-bind");
    }

    #[test]
    fn relocate_phys_rehomes_resident_buffer() {
        let drv = driver();
        let mut c = small_cache();
        drv.with_disk_mut(|d| d.raw_write(70 * SECTORS_PER_BLOCK, &[0xAB; BLOCK_SIZE]));
        let _ = c.read_block(&drv, 70).unwrap();
        assert!(c.relocate_phys(70, 71));
        // The buffer answers under its new address, dirty, with the old
        // contents; the old address is gone from the index.
        assert!(!c.contains(70));
        assert!(c.contains(71));
        assert_eq!(c.read_block(&drv, 71).unwrap()[0], 0xAB);
        c.flush_block_sync(&drv, 71).unwrap();
        let mut out = [0u8; BLOCK_SIZE];
        drv.with_disk(|d| d.raw_read(71 * SECTORS_PER_BLOCK, &mut out));
        assert_eq!(out[0], 0xAB);
    }

    #[test]
    fn relocate_phys_misses_cold_blocks() {
        let drv = driver();
        let mut c = small_cache();
        assert!(!c.relocate_phys(80, 81));
        let _ = c.read_block(&drv, 80).unwrap();
        // Relocating onto itself is a no-op.
        assert!(!c.relocate_phys(80, 80));
        assert!(c.contains(80));
    }

    #[test]
    fn sharded_cache_keeps_cg_blocks_in_one_shard() {
        let drv = driver();
        let mut c = Cache::new(CacheConfig { nbufs: 64, flush_watermark_pct: 100 });
        c.shard_by_cg(16, 4);
        assert_eq!(c.nshards(), 4);
        // Blocks 0..16 (CG 0) and 16..32 (CG 1) land in different shards;
        // contents stay transparent either way.
        for blk in 0..32u64 {
            c.modify_block(&drv, blk, false, false, |d| d.fill(blk as u8)).unwrap();
        }
        assert_eq!(c.resident(), 32);
        assert_eq!(c.dirty_count(), 32);
        c.sync(&drv).unwrap();
        assert_eq!(c.dirty_count(), 0);
        for blk in 0..32u64 {
            assert_eq!(c.read_block(&drv, blk).unwrap()[0], blk as u8);
        }
        assert_eq!(c.obs().get(Ctr::CacheWritebacks), 32);
    }

    #[test]
    fn sharded_relocate_crosses_shards() {
        let drv = driver();
        let mut c = Cache::new(CacheConfig { nbufs: 64, flush_watermark_pct: 100 });
        c.shard_by_cg(16, 4);
        let _ = c.read_block_bound(&drv, 3, 9, 0).unwrap();
        // Block 3 (CG 0, shard 0) relocates to block 20 (CG 1, shard 1).
        assert!(c.relocate_phys(3, 20));
        assert!(!c.contains(3));
        assert!(c.contains(20));
        assert_eq!(c.lookup_logical(9, 0), Some(20), "identity follows the move");
        assert_eq!(c.dirty_count(), 1, "re-homed buffer is dirty");
    }

    /// Group reads, misses, first writes to shared blocks, relocations
    /// and invalidations under eviction pressure: every unshared buffer
    /// that leaves the cache joins the one free list, and a write to a
    /// shared block takes one back. However the buffers move between
    /// shards, the cache's unshared buffers (resident ones and the free
    /// list) stay within its capacity plus one 16-block group fetch.
    #[test]
    fn free_list_is_capped_by_cache_capacity() {
        let drv = driver();
        let mut c = Cache::new(CacheConfig { nbufs: 16, flush_watermark_pct: 100 });
        c.shard_by_cg(16, 2);
        for i in 0..64u64 {
            c.read_group(&drv, &[(32 * (i % 4), 16)]).unwrap();
            let old = 16 * (i % 8) + i % 16;
            let _ = c.read_block(&drv, old).unwrap();
            c.modify_block(&drv, old, false, true, |d| d[0] = i as u8).unwrap();
            c.relocate_phys(old, old ^ 16);
            c.invalidate_block(i % 48);
            assert!(c.resident() <= 16, "{} buffers resident", c.resident());
            assert!(c.owned() <= 16 + 16, "the cache owns {} buffers", c.owned());
        }
        c.drop_all(&drv).unwrap();
        assert!(c.owned() <= 16 + 16, "the cache owns {} buffers", c.owned());
    }

    /// The budget is cache-wide: a working set of half the cache, all in
    /// one cylinder group (so one shard of four), stays resident, where
    /// a partitioned cache would thrash that shard's quarter.
    #[test]
    fn one_hot_shard_borrows_the_whole_budget() {
        let drv = driver();
        let mut c = Cache::new(CacheConfig { nbufs: 64, flush_watermark_pct: 100 });
        c.shard_by_cg(64, 4);
        // Eight blocks of CG 1 (shard 1), touched before anything else.
        for blk in 64..72u64 {
            let _ = c.read_block(&drv, blk).unwrap();
        }
        for _ in 0..3 {
            for blk in 0..32u64 {
                let _ = c.read_block(&drv, blk).unwrap();
            }
        }
        assert_eq!(c.obs().get(Ctr::CacheEvictions), 0, "re-reading half the cache evicts nothing");
        assert_eq!(drv.obs().get(Ctr::DiskReads), 8 + 32, "only the first pass reached the disk");
        // Shard 0 borrows the rest of the budget...
        for blk in 32..56u64 {
            let _ = c.read_block(&drv, blk).unwrap();
        }
        assert_eq!((c.resident(), c.obs().get(Ctr::CacheEvictions)), (64, 0));
        // ...and gives it back first: a miss in shard 1, which holds less
        // than its fair share, evicts shard 0's oldest buffer, not the
        // cache's oldest (shard 1's own).
        let _ = c.read_block(&drv, 72).unwrap();
        assert_eq!(c.obs().get(Ctr::CacheEvictions), 1);
        assert!(!c.contains(0), "the borrower's oldest buffer went");
        assert!((64..73).all(|b| c.contains(b)), "the shard within its share kept every buffer");
    }

    /// The flush watermark compares the cache-wide dirty count with the
    /// cache's capacity, and when it trips, every shard's dirty buffers
    /// go out as one sorted, coalesced batch.
    #[test]
    fn watermark_trips_on_the_cache_wide_dirty_count() {
        let drv = driver();
        let mut c = Cache::new(CacheConfig { nbufs: 16, flush_watermark_pct: 25 });
        c.set_obs(drv.obs());
        c.shard_by_cg(16, 2);
        // Two dirty blocks in each shard: 4 of 16, the 25 % watermark.
        for blk in [0, 1, 16, 17] {
            c.modify_block(&drv, blk, false, false, |d| d.fill(7)).unwrap();
        }
        // Fill the cache with clean blocks of shard 0: no eviction yet.
        for blk in 32..44u64 {
            let _ = c.read_block(&drv, blk).unwrap();
        }
        assert_eq!((c.resident(), c.dirty_count(), c.obs().get(Ctr::CacheWritebacks)), (16, 4, 0));
        // One more miss takes the cache over budget.
        let _ = c.read_block(&drv, 48).unwrap();
        let obs = drv.obs();
        assert_eq!(c.dirty_count(), 0, "both shards' dirty buffers went out");
        assert_eq!(obs.get(Ctr::CacheDelayedFlushes), 4);
        assert_eq!(obs.get(Ctr::DriverBatches), 1, "as one batch");
        assert_eq!(drv.obs().get(Ctr::DiskWrites), 2, "of two coalesced runs");
        assert_eq!(c.obs().get(Ctr::CacheEvictions), 1);
        assert!(!c.contains(0), "the victim is the oldest buffer of the shard past its fair share");
    }

    #[test]
    fn sharded_drop_all_samples_per_shard_hit_rates() {
        let drv = driver();
        let mut c = Cache::new(CacheConfig { nbufs: 64, flush_watermark_pct: 100 });
        c.shard_by_cg(16, 2);
        // Shard of CG 0: one miss then three hits; shard of CG 1: one miss.
        for _ in 0..4 {
            let _ = c.read_block(&drv, 1).unwrap();
        }
        let _ = c.read_block(&drv, 17).unwrap();
        c.drop_all(&drv).unwrap();
        let snap = c.obs().histos().cache_shard_hit_pct.snapshot();
        assert_eq!(snap.count(), 2, "one sample per shard that saw lookups");
        assert_eq!(snap.sum, 75, "75% + 0%");
        // Each sample covers the epoch its drop closes, not the cache's
        // life: CG 0 now one miss then one hit (50%, not 4 of 6), CG 1
        // one miss then three hits (75%, not 3 of 5).
        for _ in 0..2 {
            let _ = c.read_block(&drv, 1).unwrap();
        }
        for _ in 0..4 {
            let _ = c.read_block(&drv, 17).unwrap();
        }
        c.drop_all(&drv).unwrap();
        let snap = c.obs().histos().cache_shard_hit_pct.snapshot();
        assert_eq!(snap.count(), 4);
        assert_eq!(snap.sum, 75 + 50 + 75, "the second epoch samples 50% + 75%");
    }

    #[test]
    fn hits_leave_exactly_one_lru_link_per_slot() {
        let drv = driver();
        let mut c = Cache::new(CacheConfig { nbufs: 64, flush_watermark_pct: 100 });
        for blk in 0..32u64 {
            let _ = c.read_block_bound(&drv, blk, 7, blk).unwrap();
        }
        // A resident, non-evicting working set: a million hits through
        // all three hit paths.
        for i in 0..1_000_000u64 {
            let blk = (i * 7) % 32;
            match i % 3 {
                0 => drop(c.read_block(&drv, blk).unwrap()),
                1 => drop(c.read_block_bound(&drv, blk, 7, blk).unwrap()),
                _ => assert_eq!(c.lookup_logical(7, blk), Some(blk)),
            }
        }
        assert_eq!(drv.obs().get(Ctr::DiskReads), 32, "only the loads reached the disk");
        let core = &c.shards[0];
        assert_eq!(core.bufs.len(), 32);
        assert_eq!(core.links.len(), 32, "bookkeeping is one link per slot");
        // And the list threads every resident slot exactly once, oldest
        // tick first.
        let (mut seen, mut slot, mut prev) = (0, core.lru_head, NIL);
        while slot != NIL {
            assert_eq!(core.links[slot].prev, prev);
            if prev != NIL {
                assert!(core.links[prev].tick < core.links[slot].tick, "ticks ascend head to tail");
            }
            (prev, slot) = (slot, core.links[slot].next);
            seen += 1;
        }
        assert_eq!((seen, prev), (32, core.lru_tail));
    }

    #[test]
    fn block_handle_is_a_snapshot_across_modify() {
        let drv = driver();
        let mut c = small_cache();
        c.modify_block(&drv, 5, false, false, |d| d.fill(1)).unwrap();
        let held = c.read_block(&drv, 5).unwrap();
        // The modify sees the current bytes, not zeroes, and does not
        // disturb the outstanding handle.
        c.modify_block(&drv, 5, false, true, |d| {
            assert!(d.iter().all(|&b| b == 1));
            d[..100].fill(2);
        })
        .unwrap();
        assert!(held.iter().all(|&b| b == 1), "held handle keeps the old bytes");
        let fresh = c.read_block(&drv, 5).unwrap();
        assert!(fresh[..100].iter().all(|&b| b == 2) && fresh[100..].iter().all(|&b| b == 1));
        // What reaches the disk is the new contents.
        c.sync(&drv).unwrap();
        let mut back = vec![0u8; BLOCK_SIZE];
        drv.with_disk(|d| d.raw_read(5 * SECTORS_PER_BLOCK, &mut back));
        assert_eq!(&back[..], &fresh[..]);
        assert!(held.iter().all(|&b| b == 1));
    }

    #[test]
    fn dirty_counter_tracks_every_flip() {
        let drv = driver();
        let mut c = Cache::new(CacheConfig { nbufs: 16, flush_watermark_pct: 100 });
        c.shard_by_cg(16, 2);
        // `dirty_count` debug-asserts the counter against a scan.
        for blk in 0..6u64 {
            c.modify_block(&drv, blk, false, false, |d| d.fill(1)).unwrap();
        }
        c.modify_block(&drv, 0, false, true, |d| d.fill(2)).unwrap(); // already dirty
        assert_eq!(c.dirty_count(), 6);
        c.flush_block_sync(&drv, 0).unwrap();
        c.invalidate_block(1);
        assert_eq!(c.dirty_count(), 4);
        assert!(c.relocate_phys(0, 7), "clean buffer re-homed in its shard");
        assert!(c.relocate_phys(2, 20), "dirty buffer re-homed across shards");
        assert_eq!(c.dirty_count(), 5);
        for blk in 32..48u64 {
            let _ = c.read_block(&drv, blk).unwrap(); // evicts shard 0's dirty buffers
        }
        assert_eq!(c.dirty_count(), 1, "only block 20 in shard 1 is left");
        c.sync(&drv).unwrap();
        assert_eq!(c.dirty_count(), 0);
        c.modify_block(&drv, 3, false, false, |d| d.fill(3)).unwrap();
        c.crash();
        assert_eq!(c.dirty_count(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use cffs_disksim::{models, Disk, DriverConfig, Scheduler};
    use cffs_fslib::BLOCK_SIZE;
    use proptest::prelude::*;
    use proptest::TestCaseError;
    use std::collections::HashMap;

    #[derive(Debug, Clone)]
    enum CacheOp {
        Read(u64),
        Write(u64, u8),
        WriteBound(u64, u64, u64, u8), // blk, ino, lbn, byte
        Lookup(u64, u64),              // ino, lbn
        FlushSync(u64),
        Sync,
        DropAll,
        Invalidate(u64),
        GroupRead(u64, u8),
        PurgeIno(u64),
        Relocate(u64, u64), // old, new
    }

    fn arb_op() -> impl Strategy<Value = CacheOp> {
        prop_oneof![
            4 => (0u64..64).prop_map(CacheOp::Read),
            4 => (0u64..64, any::<u8>()).prop_map(|(b, v)| CacheOp::Write(b, v)),
            3 => (0u64..64, 0u64..6, 0u64..8, any::<u8>())
                .prop_map(|(b, i, l, v)| CacheOp::WriteBound(b, i, l, v)),
            2 => (0u64..6, 0u64..8).prop_map(|(i, l)| CacheOp::Lookup(i, l)),
            2 => (0u64..64).prop_map(CacheOp::FlushSync),
            1 => Just(CacheOp::Sync),
            1 => Just(CacheOp::DropAll),
            1 => (0u64..64).prop_map(CacheOp::Invalidate),
            2 => (0u64..48, 1u8..16).prop_map(|(b, n)| CacheOp::GroupRead(b, n)),
            1 => (0u64..6).prop_map(CacheOp::PurgeIno),
            2 => (0u64..64, 0u64..64).prop_map(|(o, n)| CacheOp::Relocate(o, n)),
        ]
    }

    fn tiny_driver(scheduler: Scheduler) -> Driver {
        Driver::new(Disk::new(models::tiny_test_disk()), DriverConfig { scheduler })
    }

    /// First byte of block `b` as the platter holds it right now.
    fn on_disk(drv: &Driver, b: u64) -> u8 {
        let mut sector = [0u8; cffs_disksim::SECTOR_SIZE];
        drv.with_disk(|d| d.raw_read(b * SECTORS_PER_BLOCK, &mut sector));
        sector[0]
    }

    /// After a sync nothing is dirty and the platter holds the model.
    fn check_all_durable(
        cache: &mut Cache,
        drv: &Driver,
        model: &HashMap<u64, u8>,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(cache.dirty_count(), 0);
        for (&b, &v) in model {
            prop_assert_eq!(on_disk(drv, b), v, "block {} after sync", b);
        }
        Ok(())
    }

    /// Run the transparency model against a cache (sharded or not).
    fn check_transparent(
        cache: &mut Cache,
        drv: &Driver,
        ops: Vec<CacheOp>,
    ) -> Result<(), TestCaseError> {
        // model: block -> expected fill byte (absent = 0, never written).
        // Evictions and watermark flushes write dirty data back at any
        // time, which the model cannot see; where an op discards a buffer
        // the block reverts to whatever the platter holds at that moment.
        let mut model: HashMap<u64, u8> = HashMap::new();
        let want = |model: &HashMap<u64, u8>, b: u64| *model.get(&b).unwrap_or(&0);
        for op in ops {
            match op {
                CacheOp::Read(b) => {
                    let data = cache.read_block(drv, b).unwrap();
                    let want = want(&model, b);
                    prop_assert!(
                        data.iter().all(|&x| x == want),
                        "block {} read {} want {}", b, data[0], want
                    );
                }
                CacheOp::Write(b, v) => {
                    cache.modify_block(drv, b, false, false, |d| d.fill(v)).unwrap();
                    model.insert(b, v);
                }
                CacheOp::WriteBound(b, ino, lbn, v) => {
                    cache
                        .modify_block_bound(drv, b, ino, lbn, false, |d| d.fill(v))
                        .unwrap();
                    model.insert(b, v);
                }
                CacheOp::Lookup(ino, lbn) => {
                    if let Some(b) = cache.lookup_logical(ino, lbn) {
                        prop_assert!(cache.contains(b), "logical hit on absent block {}", b);
                    }
                }
                CacheOp::FlushSync(b) => {
                    cache.flush_block_sync(drv, b).unwrap();
                    prop_assert_eq!(on_disk(drv, b), want(&model, b), "flushed block {}", b);
                }
                CacheOp::Sync => {
                    cache.sync(drv).unwrap();
                    check_all_durable(cache, drv, &model)?;
                }
                CacheOp::DropAll => {
                    cache.drop_all(drv).unwrap();
                    check_all_durable(cache, drv, &model)?;
                }
                CacheOp::Invalidate(b) => {
                    // Contract: dirty contents are discarded.
                    cache.invalidate_block(b);
                    model.insert(b, on_disk(drv, b));
                }
                CacheOp::GroupRead(start, n) => {
                    cache.read_group(drv, &[(start, n as usize)]).unwrap();
                }
                CacheOp::PurgeIno(ino) => cache.purge_ino(ino),
                CacheOp::Relocate(old, new) => {
                    let resident = cache.contains(old);
                    let moved = cache.relocate_phys(old, new);
                    prop_assert_eq!(moved, resident && old != new);
                    if moved {
                        // The buffer answers at `new` now (whatever was
                        // cached there is discarded); `old` is forgotten
                        // without write-back.
                        model.insert(new, want(&model, old));
                        model.insert(old, on_disk(drv, old));
                        prop_assert!(!cache.contains(old) && cache.contains(new));
                    }
                }
            }
        }
        // Final check: everything the model believes in reads back.
        for (&b, &v) in &model {
            let data = cache.read_block(drv, b).unwrap();
            prop_assert!(data.iter().all(|&x| x == v), "final block {}", b);
        }
        Ok(())
    }

    /// Reference replacement policy: the resident blocks of the whole
    /// cache from least to most recently touched. A load that takes the
    /// cache past `nbufs` evicts the least recently touched block of a
    /// shard holding more than its fair share, `nbufs / nshards` — with
    /// one shard, plain LRU.
    struct LruModel {
        cg_blocks: u64,
        nshards: usize,
        nbufs: usize,
        order: Vec<u64>,
    }

    impl LruModel {
        fn shard(&self, b: u64) -> usize {
            (b / self.cg_blocks) as usize % self.nshards
        }

        fn resident(&self, b: u64) -> bool {
            self.order.contains(&b)
        }

        fn forget(&mut self, b: u64) {
            self.order.retain(|&x| x != b);
        }

        /// `b` was used: load it or move it to the most-recent end.
        fn touch(&mut self, b: u64) {
            self.order.retain(|&x| x != b);
            self.order.push(b);
        }

        /// Evict until the cache is within budget again.
        fn settle(&mut self) {
            let fair = self.nbufs / self.nshards;
            while self.order.len() > self.nbufs {
                let mut len = vec![0; self.nshards];
                self.order.iter().for_each(|&x| len[self.shard(x)] += 1);
                let i = self.order.iter().position(|&x| len[self.shard(x)] > fair);
                self.order.remove(i.expect("a shard past its share"));
            }
        }

        /// A single-block use: load (or move) it, then make room.
        fn use_block(&mut self, b: u64) {
            self.touch(b);
            self.settle();
        }
    }

    /// Drive cache and [`LruModel`] with the same ops; the resident sets
    /// must agree after every one, i.e. every victim was the least
    /// recently touched buffer of a shard past its fair share.
    fn check_eviction_order(nbufs: usize, nshards: usize, ops: Vec<CacheOp>) -> Result<(), TestCaseError> {
        // FCFS keeps a group read's install order the submission order.
        let drv = tiny_driver(Scheduler::Fcfs);
        let mut cache = Cache::new(CacheConfig { nbufs, flush_watermark_pct: 50 });
        cache.shard_by_cg(16, nshards);
        let mut m = LruModel { cg_blocks: 16, nshards, nbufs, order: Vec::new() };
        for op in ops {
            match op {
                CacheOp::Read(b) => {
                    cache.read_block(&drv, b).unwrap();
                    m.use_block(b);
                }
                CacheOp::Write(b, v) => {
                    cache.modify_block(&drv, b, false, true, |d| d.fill(v)).unwrap();
                    m.use_block(b);
                }
                CacheOp::WriteBound(b, ino, lbn, v) => {
                    cache.modify_block_bound(&drv, b, ino, lbn, false, |d| d.fill(v)).unwrap();
                    m.use_block(b);
                }
                CacheOp::Lookup(ino, lbn) => {
                    if let Some(b) = cache.lookup_logical(ino, lbn) {
                        prop_assert!(m.resident(b), "logical hit on block {} the model evicted", b);
                        m.use_block(b);
                    }
                }
                // None of these is a use.
                CacheOp::FlushSync(b) => cache.flush_block_sync(&drv, b).unwrap(),
                CacheOp::Sync => cache.sync(&drv).unwrap(),
                CacheOp::PurgeIno(ino) => cache.purge_ino(ino),
                CacheOp::DropAll => {
                    cache.drop_all(&drv).unwrap();
                    m.order.clear();
                }
                CacheOp::Invalidate(b) => {
                    cache.invalidate_block(b);
                    m.forget(b);
                }
                CacheOp::GroupRead(start, n) => {
                    cache.read_group(&drv, &[(start, n as usize)]).unwrap();
                    // Residency is decided before the transfer; then the
                    // fetched blocks are installed in ascending order, and
                    // room is made once.
                    let fetched: Vec<u64> =
                        (start..start + n as u64).filter(|&b| !m.resident(b)).collect();
                    fetched.into_iter().for_each(|b| m.touch(b));
                    m.settle();
                }
                CacheOp::Relocate(old, new) => {
                    let moved = cache.relocate_phys(old, new);
                    prop_assert_eq!(moved, old != new && m.resident(old));
                    if moved {
                        // Re-homing is a use, and vacates `new` first.
                        m.forget(old);
                        m.forget(new);
                        m.touch(new);
                    }
                }
            }
            for b in 0..64u64 {
                prop_assert_eq!(cache.contains(b), m.resident(b), "residency of block {}", b);
            }
        }
        Ok(())
    }

    /// Calls that move buffers in and out of the free list.
    #[derive(Debug, Clone)]
    enum RecycleOp {
        Read(u64),
        /// Set four bytes starting at `at`, reading the block first or not.
        Modify { blk: u64, read_first: bool, at: u16, byte: u8 },
        GroupRead(u64, u8),
        Invalidate(u64),
        Relocate(u64, u64),
        Sync,
        DropAll,
        Crash,
    }

    fn arb_recycle_op() -> impl Strategy<Value = RecycleOp> {
        prop_oneof![
            4 => (0u64..48).prop_map(RecycleOp::Read),
            5 => (0u64..48, any::<bool>(), any::<u16>(), 1u8..=255).prop_map(
                |(blk, read_first, at, byte)| RecycleOp::Modify { blk, read_first, at, byte }
            ),
            2 => (0u64..40, 1u8..16).prop_map(|(b, n)| RecycleOp::GroupRead(b, n)),
            2 => (0u64..48).prop_map(RecycleOp::Invalidate),
            2 => (0u64..48, 0u64..48).prop_map(|(o, n)| RecycleOp::Relocate(o, n)),
            1 => Just(RecycleOp::Sync),
            1 => Just(RecycleOp::DropAll),
            1 => Just(RecycleOp::Crash),
        ]
    }

    /// Block `b` as the platter holds it right now.
    fn platter(drv: &Driver, b: u64) -> Vec<u8> {
        let mut block = vec![0u8; BLOCK_SIZE];
        drv.with_disk(|d| d.raw_read(b * SECTORS_PER_BLOCK, &mut block));
        block
    }

    /// The bytes the cache must present for block `b`: its dirty
    /// contents while resident and dirty, else the platter's (absent =
    /// never written = zeros).
    fn want(model: &HashMap<u64, Vec<u8>>, b: u64) -> Vec<u8> {
        model.get(&b).cloned().unwrap_or_else(|| vec![0u8; BLOCK_SIZE])
    }

    /// After a sync the platter holds every block as the model has it.
    fn check_durable(drv: &Driver, model: &HashMap<u64, Vec<u8>>) -> Result<(), TestCaseError> {
        for b in 0..64 {
            prop_assert!(platter(drv, b) == want(model, b), "block {} not durable", b);
        }
        Ok(())
    }

    /// Drive a 2-shard cache with calls that recycle buffers; every byte
    /// handed out must match the model of platter plus dirty set (a
    /// non-reading miss sees zeros, never a recycled buffer's old bytes),
    /// a held handle keeps its snapshot, and the cache owns no more
    /// unshared buffers than its capacity plus one group fetch.
    fn check_recycling(ops: Vec<RecycleOp>) -> Result<(), TestCaseError> {
        const MAX_GROUP: usize = 15;
        let drv = tiny_driver(Scheduler::default());
        let mut cache = Cache::new(CacheConfig { nbufs: 16, flush_watermark_pct: 50 });
        cache.shard_by_cg(16, 2);
        // What the cache must present for each block (see `want`).
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut held: Option<(Block, Vec<u8>)> = None;
        for op in ops {
            match op {
                RecycleOp::Read(b) => {
                    let data = cache.read_block(&drv, b).unwrap();
                    prop_assert!(data[..] == want(&model, b)[..], "block {} read wrong bytes", b);
                    let snapshot = data[..].to_vec();
                    held = Some((data, snapshot));
                }
                RecycleOp::Modify { blk, read_first, at, byte } => {
                    let mut expect =
                        if read_first || cache.contains(blk) { want(&model, blk) } else { vec![0u8; BLOCK_SIZE] };
                    let poke = |d: &mut [u8]| {
                        for k in 0..4 {
                            d[(at as usize + k) % BLOCK_SIZE] = byte;
                        }
                    };
                    let seen = cache
                        .modify_block(&drv, blk, false, read_first, |d| {
                            let seen = d.to_vec();
                            poke(d);
                            seen
                        })
                        .unwrap();
                    prop_assert!(seen == expect, "block {} (read_first {}) modified stale bytes", blk, read_first);
                    poke(&mut expect);
                    model.insert(blk, expect);
                }
                RecycleOp::GroupRead(start, n) => {
                    cache.read_group(&drv, &[(start, n as usize)]).unwrap();
                }
                RecycleOp::Invalidate(b) => {
                    cache.invalidate_block(b);
                    model.insert(b, platter(&drv, b));
                }
                RecycleOp::Relocate(old, new) => {
                    if cache.relocate_phys(old, new) {
                        model.insert(new, want(&model, old));
                        model.insert(old, platter(&drv, old));
                    }
                }
                RecycleOp::Sync => {
                    cache.sync(&drv).unwrap();
                    check_durable(&drv, &model)?;
                }
                RecycleOp::DropAll => {
                    cache.drop_all(&drv).unwrap();
                    check_durable(&drv, &model)?;
                }
                RecycleOp::Crash => {
                    cache.crash();
                    for b in 0..64 {
                        model.insert(b, platter(&drv, b));
                    }
                }
            }
            if let Some((block, snapshot)) = &held {
                prop_assert!(block[..] == snapshot[..], "a held handle changed under its reader");
            }
            prop_assert!(cache.owned() <= 16 + MAX_GROUP, "the cache owns {} buffers", cache.owned());
        }
        for b in 0..64 {
            let data = cache.read_block(&drv, b).unwrap();
            prop_assert!(data[..] == want(&model, b)[..], "final block {}", b);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Recycled buffers never leak old bytes and the free list stays
        /// bounded; see [`check_recycling`].
        #[test]
        fn recycled_buffers_read_back_exactly(
            ops in prop::collection::vec(arb_recycle_op(), 1..160)
        ) {
            check_recycling(ops)?;
        }

        /// The cache is a transparent layer: block contents always match a
        /// simple model regardless of evictions, group reads, syncs,
        /// relocations and invalidations. (An invalidated dirty block loses
        /// its data by contract, so the model drops those writes too.)
        #[test]
        fn cache_is_transparent(ops in prop::collection::vec(arb_op(), 1..120)) {
            let drv = tiny_driver(Scheduler::default());
            let mut cache = Cache::new(CacheConfig { nbufs: 16, flush_watermark_pct: 50 });
            check_transparent(&mut cache, &drv, ops)?;
        }

        /// Same transparency contract with the cache split into four
        /// CG-keyed shards (the multi-threaded mount configuration).
        #[test]
        fn sharded_cache_is_transparent(ops in prop::collection::vec(arb_op(), 1..120)) {
            let drv = tiny_driver(Scheduler::default());
            let mut cache = Cache::new(CacheConfig { nbufs: 64, flush_watermark_pct: 50 });
            cache.shard_by_cg(16, 4);
            check_transparent(&mut cache, &drv, ops)?;
        }

        /// Replacement is exact LRU: the victim is always the least
        /// recently touched buffer, whatever mix of hits, logical lookups,
        /// group reads, invalidations and relocations came before.
        #[test]
        fn eviction_order_is_least_recently_touched(
            ops in prop::collection::vec(arb_op(), 1..160)
        ) {
            check_eviction_order(16, 1, ops)?;
        }

        /// Across four shards with a fair share of 8 buffers each: the
        /// victim is the least recently touched buffer of a shard past
        /// its share, so a busy shard borrows idle shards' capacity and
        /// gives it back first; relocations cross shards.
        #[test]
        fn sharded_eviction_order_is_least_recently_touched(
            ops in prop::collection::vec(arb_op(), 1..160)
        ) {
            check_eviction_order(32, 4, ops)?;
        }

        /// The logical index never lies: a hit always names a resident
        /// buffer whose physical number round-trips.
        #[test]
        fn dual_index_consistent(ops in prop::collection::vec(arb_op(), 1..100)) {
            let drv = tiny_driver(Scheduler::default());
            let mut cache = Cache::new(CacheConfig { nbufs: 12, flush_watermark_pct: 100 });
            let mut bound: HashMap<(u64, u64), u64> = HashMap::new();
            for op in ops {
                match op {
                    CacheOp::WriteBound(b, ino, lbn, v) => {
                        cache
                            .modify_block_bound(&drv, b, ino, lbn, false, |d| d.fill(v))
                            .unwrap();
                        bound.insert((ino, lbn), b);
                    }
                    CacheOp::Read(b) => {
                        let _ = cache.read_block(&drv, b).unwrap();
                    }
                    CacheOp::Invalidate(b) => {
                        cache.invalidate_block(b);
                        bound.retain(|_, &mut blk| blk != b);
                    }
                    CacheOp::PurgeIno(ino) => {
                        cache.purge_ino(ino);
                        bound.retain(|&(i, _), _| i != ino);
                    }
                    CacheOp::Relocate(old, new) if cache.relocate_phys(old, new) => {
                        // Identities follow the buffer; whatever was
                        // bound at `new` went with its buffer.
                        bound.retain(|_, &mut blk| blk != new);
                        bound.values_mut().filter(|blk| **blk == old).for_each(|blk| *blk = new);
                    }
                    _ => {}
                }
                for (&(ino, lbn), &blk) in &bound {
                    if let Some(hit) = cache.lookup_logical(ino, lbn) {
                        prop_assert_eq!(hit, blk, "logical index stale for ({}, {})", ino, lbn);
                        prop_assert!(cache.contains(blk));
                    }
                }
            }
        }
    }
}
