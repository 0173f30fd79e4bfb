//! The mounted C-FFS and its [`FileSystem`] implementation.
//!
//! ## The four variants
//!
//! [`CffsConfig`] toggles the paper's two techniques independently:
//!
//! | constructor | embedded inodes | explicit grouping |
//! |---|---|---|
//! | [`CffsConfig::conventional`] | off | off |
//! | [`CffsConfig::embedded_only`] | on | off |
//! | [`CffsConfig::grouping_only`] | off | on |
//! | [`CffsConfig::cffs`] | on | on |
//!
//! With embedding off, every inode lives in the external inode file and the
//! system behaves like an FFS with a dynamically allocated inode table —
//! the paper's "same file system without these techniques" baseline.
//!
//! ## Metadata ordering
//!
//! In synchronous mode, conventional create/delete each take **two**
//! ordered synchronous writes (inode block, directory block). With embedded
//! inodes the name and inode share one 512-byte sector, so create/delete
//! take **one** synchronous *sector* write and the ordering constraint
//! between name and inode disappears — the paper's Section 3 argument,
//! reproduced literally by [`cffs_cache::BufferCache::flush_sector_sync`].
//!
//! ## Inode renumbering
//!
//! Embedded inode numbers encode physical location, so two operations
//! renumber files: `rename` (the entry moves) and `link` (the inode is
//! externalized). Both return the new number, the in-core caches are
//! purged ([`cffs_cache::BufferCache::purge_ino`]), and group ownership is
//! transferred ([`crate::groups::GroupIndex::reown`]) — the same
//! bookkeeping a C-FFS kernel does against its in-core inode table.

use crate::dirent::{self, CEntry, EntryLoc};
use crate::exfile::{self, SlotPool};
use crate::groups::{FreeOutcome, GroupIndex};
use crate::layout::{
    decode_ino, embedded_ino, external_ino, CgHeader, InoRef, Superblock, GEN_MASK, GROUP_BLOCKS,
    INO_ROOT,
    SB_BLOCK,
};
use cffs_cache::{Block, BufferCache, CacheConfig};
use cffs_dcache::{Dcache, DcacheAnswer};
use cffs_disksim::driver::{Driver, DriverConfig, Scheduler};
use cffs_disksim::{Disk, SimDuration, SimTime};
use cffs_fslib::error::check_name;
use cffs_fslib::bmap::{self, PtrRead, PtrStore};
use cffs_fslib::inode::{Inode, MAX_FILE_SIZE, NO_BLOCK};
use cffs_fslib::vfs::MetadataMode;
use cffs_fslib::{
    Attr, CpuModel, DirEntry, FileKind, FsError, FsResult, FileSystem, Ino, IoStats, StatFs,
    BLOCK_SIZE,
};
use cffs_obs::{Ctr, Obs, OpKind, SpanGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Configuration of a C-FFS mount.
#[derive(Debug, Clone)]
pub struct CffsConfig {
    /// Embed single-link inodes in directory entries.
    pub embed: bool,
    /// Allocate small-file blocks from per-directory group extents and
    /// read/write them as units.
    pub group: bool,
    /// Minimum live members for a cache miss to trigger a whole-group read.
    pub group_read_min: u32,
    /// Blocks per group extent (1..=16; the paper's unit is 16 = 64 KB).
    /// Exposed for the group-size ablation (`repro_ablation`).
    pub group_blocks: u8,
    /// File-level sequential read-ahead, in blocks (0 = off, matching the
    /// paper's own implementation: "it currently does not support
    /// prefetching"). When a read continues the previous one, the next
    /// `prefetch_blocks` mapped blocks are fetched as one scatter/gather
    /// request — an *extension* beyond the paper, mainly benefiting
    /// ungrouped large files.
    pub prefetch_blocks: u32,
    /// Metadata durability policy.
    pub metadata_mode: MetadataMode,
    /// Buffer-cache sizing.
    pub cache: CacheConfig,
    /// CPU cost model.
    pub cpu: CpuModel,
    /// Disk-driver scheduler.
    pub scheduler: Scheduler,
    /// Namespace-cache (dcache) capacity in entries; 0 disables the
    /// cache entirely (the default — lookups always scan, matching the
    /// paper's implementation and keeping historical baselines exact).
    pub dcache_entries: usize,
    /// Label for reports.
    pub label: String,
}

impl CffsConfig {
    fn base(embed: bool, group: bool, label: &str) -> Self {
        CffsConfig {
            embed,
            group,
            group_read_min: 2,
            group_blocks: GROUP_BLOCKS as u8,
            prefetch_blocks: 0,
            metadata_mode: MetadataMode::Synchronous,
            cache: CacheConfig::default(),
            cpu: CpuModel::default(),
            scheduler: Scheduler::CLook,
            dcache_entries: 0,
            label: label.to_string(),
        }
    }

    /// Both techniques on: C-FFS proper.
    pub fn cffs() -> Self {
        Self::base(true, true, "C-FFS")
    }

    /// Both techniques off: the paper's conventional baseline.
    pub fn conventional() -> Self {
        Self::base(false, false, "conventional")
    }

    /// Embedded inodes only.
    pub fn embedded_only() -> Self {
        Self::base(true, false, "embedded inodes")
    }

    /// Explicit grouping only.
    pub fn grouping_only() -> Self {
        Self::base(false, true, "explicit grouping")
    }

    /// Same configuration with a different metadata mode.
    pub fn with_mode(mut self, mode: MetadataMode) -> Self {
        self.metadata_mode = mode;
        self
    }

    /// Same configuration with a namespace cache of `entries` entries
    /// (0 disables it).
    pub fn with_dcache(mut self, entries: usize) -> Self {
        self.dcache_entries = entries;
        self
    }
}

/// Allocation context for a data block.
#[derive(Debug, Clone, Copy)]
enum AllocCtx {
    /// Ordinary near-inode allocation.
    Plain {
        /// Cylinder group to anchor the search.
        near: u32,
    },
    /// Small-file allocation on behalf of a directory's group.
    Grouped {
        /// The owning directory.
        dir: Ino,
        /// Fallback anchor.
        near: u32,
    },
}

/// Per-cylinder-group occupancy, as reported by [`Cffs::cg_usage`]. The
/// regrouping engine and `cffs-inspect heatmap` both key their per-CG
/// indexes off this snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CgUsage {
    /// Cylinder group number.
    pub cg: u32,
    /// Data blocks the group tracks.
    pub data_blocks: u32,
    /// Data blocks currently allocated.
    pub used_blocks: u32,
}

/// Number of operation stripes: public entry points serialize per-inode
/// on a hashed stripe, so operations on distinct files interleave while
/// two racing mutations of one directory stay ordered.
const OP_STRIPES: usize = 64;

/// External-inode-file state: the only superblock fields that change
/// after mkfs, so they live behind their own lock while the geometry
/// stays immutable.
#[derive(Debug)]
struct ExMeta {
    exfile: Inode,
    exfile_slots: u32,
    expool: SlotPool,
}

/// One cylinder group's in-core header plus its dirty flag — the
/// allocation shard. Each CG locks independently, so allocators working
/// in different groups never contend.
#[derive(Debug)]
struct CgSlot {
    hdr: CgHeader,
    dirty: bool,
}

/// Bound on [`NsState::parent_of`]: beyond this many entries the oldest
/// insertions are evicted FIFO. The map is a *hint* (allocation
/// anchoring, group prefetch); losing an entry costs a fallback anchor,
/// never correctness, so million-file trees can't grow it without
/// limit. Sized so every historical workload stays comfortably inside
/// (no eviction means byte-identical timelines).
const NS_PARENT_CAP: usize = 1 << 16;

/// Namespace knowledge, leaf-locked (nothing else is acquired while it
/// is held): child inode -> naming directory, and last logical block
/// read per inode for sequential-read detection.
#[derive(Debug)]
struct NsState {
    parent_of: HashMap<Ino, Ino>,
    /// Insertion order of `parent_of` keys, for FIFO eviction at
    /// [`NS_PARENT_CAP`]. May hold stale keys (removed or renumbered
    /// inodes); eviction skips them.
    parent_fifo: std::collections::VecDeque<Ino>,
    last_read: HashMap<Ino, u64>,
}

impl NsState {
    /// Record `child`'s naming directory, evicting the oldest hints
    /// once the map is full.
    fn note_parent(&mut self, child: Ino, dir: Ino) {
        if self.parent_of.insert(child, dir).is_none() {
            self.parent_fifo.push_back(child);
            while self.parent_of.len() > NS_PARENT_CAP {
                match self.parent_fifo.pop_front() {
                    Some(old) => {
                        self.parent_of.remove(&old);
                    }
                    None => break,
                }
            }
        }
    }
}

/// A mounted C-FFS.
///
/// ## Concurrency model
///
/// `Cffs` is `Send + Sync`: every operation takes `&self` and state is
/// sharded behind interior mutability. The lock hierarchy (acquire
/// strictly downward, see DESIGN.md §10):
///
/// 1. op stripes (per-inode hash, ascending when two are needed)
/// 2. `meta` (external inode file)
/// 3. `groups` (group index)
/// 4. `cg_state[i]` (per-CG header + bitmap; persist callbacks from
///    `groups` lock these, never the reverse)
/// 5. buffer-cache shards, then the driver queue
///
/// `ns` is leaf-scoped: taken and released with no other lock acquired
/// inside. Contention on any of these surfaces in the
/// `lock_wait_ns_*` counters.
pub struct Cffs {
    drv: Driver,
    cache: BufferCache,
    obs: Arc<Obs>,
    /// Immutable geometry snapshot. Its `exfile`/`exfile_slots` fields
    /// are stale after mount; the live copies are in `meta` and merged
    /// back by [`Cffs::superblock`] and `sync`.
    geo: Superblock,
    meta: Mutex<ExMeta>,
    cg_state: Vec<Mutex<CgSlot>>,
    groups: Mutex<GroupIndex>,
    ns: Mutex<NsState>,
    /// Sharded namespace cache ((parent, name) -> ino, with negative
    /// entries). `None` unless `cfg.dcache_entries > 0`. Shard locks
    /// are leaves, like `ns`.
    dcache: Option<Dcache>,
    /// Rotor for spreading new directories across cylinder groups (the
    /// FFS policy; C-FFS keeps it, per the paper's "what is not
    /// different" discussion of allocation).
    dir_rotor: AtomicU32,
    /// Per-mount generation counter for freshly embedded inodes (wraps
    /// in 1..=0x7FFF; 15 bits travel in the inode number as a
    /// stale-handle guard).
    gen_counter: AtomicU32,
    op_stripes: Vec<Mutex<()>>,
    cfg: CffsConfig,
    /// Armed flight recorder for this mount (`None` unless the process
    /// opted in via `cffs_obs::flight::set_global`, i.e. `--flight`).
    /// Held so unmount cuts a final frame and detaches the pacer.
    _flight: Option<cffs_obs::flight::FlightGuard>,
}

impl std::fmt::Debug for Cffs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cffs")
            .field("label", &self.cfg.label)
            .field("cg_count", &self.geo.cg_count)
            .finish_non_exhaustive()
    }
}

// The whole point: one mount, many worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Cffs>();
};

impl Cffs {
    /// Mount an existing C-FFS from `disk`.
    pub fn mount(disk: Disk, cfg: CffsConfig) -> FsResult<Cffs> {
        let drv = Driver::new(disk, DriverConfig { scheduler: cfg.scheduler });
        let mut buf = vec![0u8; BLOCK_SIZE];
        drv.read(SB_BLOCK * cffs_fslib::SECTORS_PER_BLOCK, &mut buf);
        let sb = Superblock::read_from(&buf)?;
        let mut cgs = Vec::with_capacity(sb.cg_count as usize);
        for cg in 0..sb.cg_count {
            drv.read(sb.cg_header_block(cg) * cffs_fslib::SECTORS_PER_BLOCK, &mut buf);
            cgs.push(CgHeader::read_from(&buf, cg)?);
        }
        let groups = GroupIndex::build(&sb, &cgs);
        // One Obs handle for the whole stack: the disk owns it, the
        // driver delegates to it, and the cache is rebound onto it here.
        let obs = drv.obs();
        // Per-CG telemetry registers: geometry + current occupancy. The
        // allocator keeps the gauge live from here on (bitmap set/clear
        // sites call cg_used_delta under the CG lock).
        obs.configure_cg_table(cffs_obs::CgTableConfig {
            first_block: crate::layout::FIRST_CG_BLOCK,
            cg_size: sb.cg_size as u64,
            sectors_per_block: cffs_fslib::SECTORS_PER_BLOCK,
            groups: cgs
                .iter()
                .map(|h| (h.block_bitmap.len() as u64, h.block_bitmap.used() as u64))
                .collect(),
        });
        let mut cache = BufferCache::new(cfg.cache);
        cache.set_obs(obs.clone());
        // Shard the cache on the cylinder-group stride so threads working
        // in disjoint CGs take disjoint shard locks.
        cache.shard_by_cg(sb.cg_size as u64, (sb.cg_count as usize).min(16));
        let meta = ExMeta {
            exfile: sb.exfile.clone(),
            exfile_slots: sb.exfile_slots,
            expool: SlotPool::new(0, []),
        };
        let cg_state = cgs
            .into_iter()
            .map(|hdr| Mutex::new(CgSlot { hdr, dirty: false }))
            .collect();
        // Per-op latency objectives (burn is derived lazily from the op
        // histograms, so arming costs the hot path nothing) and the
        // forensic black box (no-op without a `--flight` opt-in).
        obs.arm_default_slos();
        let flight = cffs_obs::flight::arm_global(&obs, &cfg.label);
        let obs_for_dcache = obs.clone();
        let fs = Cffs {
            drv,
            cache,
            obs,
            geo: sb,
            meta: Mutex::new(meta),
            cg_state,
            groups: Mutex::new(groups),
            ns: Mutex::new(NsState {
                parent_of: HashMap::new(),
                parent_fifo: std::collections::VecDeque::new(),
                last_read: HashMap::new(),
            }),
            dcache: (cfg.dcache_entries > 0).then(|| {
                let mut dc = Dcache::new(cfg.dcache_entries);
                dc.set_obs(obs_for_dcache.clone());
                dc
            }),
            dir_rotor: AtomicU32::new(0),
            gen_counter: AtomicU32::new(0),
            op_stripes: (0..OP_STRIPES).map(|_| Mutex::new(())).collect(),
            cfg,
            _flight: flight,
        };
        fs.scan_exfile()?;
        Ok(fs)
    }

    // ----- locking ------------------------------------------------------

    /// The operation stripe an inode hashes to.
    fn stripe(ino: Ino) -> usize {
        ((ino ^ (ino >> 17)).wrapping_mul(0x9E37_79B9) % OP_STRIPES as u64) as usize
    }

    /// Serialize with other operations on the same inode. Contention is
    /// charged to `lock_wait_ns_alloc` (the FS-core bucket).
    fn op_lock(&self, ino: Ino) -> MutexGuard<'_, ()> {
        self.obs.lock_timed(&self.op_stripes[Self::stripe(ino)], Ctr::LockWaitNsAlloc)
    }

    /// Acquire the stripes of two inodes in ascending order (one guard
    /// when they collide) — the deadlock-free shape for `rename`/`link`.
    fn op_lock2(&self, a: Ino, b: Ino) -> (MutexGuard<'_, ()>, Option<MutexGuard<'_, ()>>) {
        let (sa, sb) = (Self::stripe(a), Self::stripe(b));
        if sa == sb {
            return (self.op_lock(a), None);
        }
        let (lo, hi) = if sa < sb { (sa, sb) } else { (sb, sa) };
        let g1 = self.obs.lock_timed(&self.op_stripes[lo], Ctr::LockWaitNsAlloc);
        let g2 = self.obs.lock_timed(&self.op_stripes[hi], Ctr::LockWaitNsAlloc);
        (g1, Some(g2))
    }

    fn lock_meta(&self) -> MutexGuard<'_, ExMeta> {
        self.obs.lock_timed(&self.meta, Ctr::LockWaitNsAlloc)
    }

    fn lock_cg(&self, cg: u32) -> MutexGuard<'_, CgSlot> {
        self.obs.lock_timed(&self.cg_state[cg as usize], Ctr::LockWaitNsAlloc)
    }

    fn lock_groups(&self) -> MutexGuard<'_, GroupIndex> {
        self.obs.lock_timed(&self.groups, Ctr::LockWaitNsAlloc)
    }

    fn lock_ns(&self) -> MutexGuard<'_, NsState> {
        self.obs.lock_timed(&self.ns, Ctr::LockWaitNsAlloc)
    }

    /// The namespace cache, when configured (`cfg.dcache_entries > 0`).
    fn dcache(&self) -> Option<&Dcache> {
        self.dcache.as_ref()
    }

    /// Sync everything and hand the disk back.
    pub fn unmount(self) -> FsResult<Disk> {
        self.sync()?;
        Ok(self.drv.into_disk())
    }

    /// Snapshot the disk as a crash would leave it (dirty cache excluded).
    pub fn crash_image(&self) -> Disk {
        self.drv.with_disk(|d| d.clone_image())
    }

    /// Snapshot the disk as a crash *during its most recent write* would
    /// leave it: only the first `keep_sectors` sectors of that write
    /// landed. `None` if nothing was ever written. Sector atomicity is
    /// preserved — the guarantee embedded inodes are built on.
    pub fn crash_image_torn(&self, keep_sectors: usize) -> Option<Disk> {
        self.drv.with_disk(|d| d.clone_image_torn(keep_sectors))
    }

    /// A point-in-time snapshot of the mounted superblock: the immutable
    /// geometry merged with the current external-inode-file state.
    pub fn superblock(&self) -> Superblock {
        let mut sb = self.geo.clone();
        let m = self.lock_meta();
        sb.exfile = m.exfile.clone();
        sb.exfile_slots = m.exfile_slots;
        sb
    }

    /// The in-core group index (benchmarks, tests). Holds the group lock
    /// for the guard's lifetime — keep it short and take no FS locks
    /// above it (see the hierarchy on [`Cffs`]).
    pub fn group_index(&self) -> MutexGuard<'_, GroupIndex> {
        self.lock_groups()
    }

    /// The active configuration.
    pub fn config(&self) -> &CffsConfig {
        &self.cfg
    }

    /// The stack-wide observability handle (counters + event trace) shared
    /// by the disk, driver, cache, and this file-system layer.
    pub fn obs(&self) -> Arc<Obs> {
        self.obs.clone()
    }

    /// The physical block currently cached for `(ino, lbn)`, if resident —
    /// a layout probe for tests and tooling (a preceding `read` at that
    /// offset binds the identity).
    pub fn cache_block_of(&self, ino: Ino, lbn: u64) -> Option<u64> {
        self.cache.lookup_logical(ino, lbn)
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

    /// Application-directed grouping across directories — the richer form
    /// of [`FileSystem::group_hint`] for documents whose pieces live in
    /// *different* directories (the paper's hypertext example
    /// [Kaashoek96]): relocate the blocks of each small file in `files`
    /// into group extents anchored at `anchor_dir`, so one group fetch
    /// serves the whole document.
    pub fn group_files(&self, anchor_dir: Ino, files: &[Ino]) -> FsResult<()> {
        let _op = self.op_lock(anchor_dir);
        let _span = self.op_span(OpKind::GroupFiles);
        if !self.cfg.group {
            return Ok(());
        }
        self.charge(self.cpu_model().syscall);
        self.require_dir(anchor_dir)?;
        for &ino in files {
            let mut inode = self.read_inode(ino)?;
            if inode.kind != FileKind::File {
                continue;
            }
            self.regroup(anchor_dir, ino, &mut inode)?;
            self.write_inode(ino, &inode, false)?;
        }
        Ok(())
    }

    // ----- online regrouping support (driven by `cffs-regroup`) -----------

    /// Per-cylinder-group occupancy snapshot: the regrouper's and
    /// heatmap's view of how full each CG's data area is.
    pub fn cg_usage(&self) -> Vec<CgUsage> {
        (0..self.geo.cg_count)
            .map(|cg| {
                let s = self.lock_cg(cg);
                CgUsage {
                    cg: s.hdr.cg,
                    data_blocks: s.hdr.block_bitmap.len() as u32,
                    used_blocks: s.hdr.block_bitmap.used() as u32,
                }
            })
            .collect()
    }

    /// The mapped `(lbn, physical block)` pairs of a file — the planner's
    /// input for relocation decisions. Holes are skipped.
    pub fn file_block_map(&self, ino: Ino) -> FsResult<Vec<(u64, u64)>> {
        let _op = self.op_lock(ino);
        let inode = self.read_inode(ino)?;
        let nblocks = inode.size.div_ceil(BLOCK_SIZE as u64);
        let mut out = Vec::with_capacity(nblocks as usize);
        for lbn in 0..nblocks {
            if let Some(b) = self.bmap(ino, &inode, lbn)? {
                out.push((lbn, b));
            }
        }
        Ok(out)
    }

    /// Is this physical block resident in the buffer cache? Idle-only
    /// regrouping uses this to restrict itself to moves that need no
    /// source read I/O.
    pub fn block_resident(&self, blk: u64) -> bool {
        self.cache.contains(blk)
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
        let dnode = self.require_dir(dir)?;
        let near = self.dir_home(dir, &dnode);
        self.charge(self.cpu_model().alloc_op);
        let n = self.geo.cg_count;
        let near = near.min(n - 1);
        let nslots = self.cfg.group_blocks;
        for d in 0..n {
            let cg = (near + d) % n;
            let mut groups = self.lock_groups();
            let mut s = self.lock_cg(cg);
            if let Some(key) = groups.carve_empty(&self.geo, &mut s.hdr, dir, nslots)? {
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
        self.lock_groups().alloc_slot_in(
            key,
            |c, i, d, _| {
                let mut s = self.lock_cg(c);
                s.hdr.groups[i as usize] = Some(*d);
                s.dirty = true;
            },
            &self.geo,
        )
    }

    /// Step 1 of the regrouper's crash-safe relocation protocol:
    /// **copy-forward**. The block's contents are placed at the
    /// already-claimed destination `to` and flushed to the media while the
    /// inode still points at the old block. A crash anywhere in or after
    /// this step loses nothing: the logical pointer (and the old block's
    /// contents) are untouched, and the destination is unreferenced until
    /// [`Cffs::relocate_commit`] lands. A resident source buffer is
    /// re-homed in place ([`BufferCache::relocate_phys`]); a cold one is
    /// copied through the cache.
    ///
    /// [`BufferCache::relocate_phys`]: cffs_cache::BufferCache::relocate_phys
    pub fn relocate_copy_forward(&self, ino: Ino, lbn: u64, to: u64) -> FsResult<()> {
        let _op = self.op_lock(ino);
        self.relocate_copy_forward_inner(ino, lbn, to)
    }

    fn relocate_copy_forward_inner(&self, ino: Ino, lbn: u64, to: u64) -> FsResult<()> {
        let inode = self.read_inode(ino)?;
        let from = self
            .bmap(ino, &inode, lbn)?
            .ok_or_else(|| FsError::Corrupt("relocating an unmapped block".into()))?;
        if from == to {
            return Ok(());
        }
        if !self.cache.relocate_phys(&self.drv, from, to) {
            let contents = self.fetch_block(from, ino, lbn)?;
            self.cache.modify_block(&self.drv, to, false, false, |d| {
                d.copy_from_slice(&contents)
            })?;
            self.charge(self.cpu_model().copy_cost(BLOCK_SIZE));
        }
        self.cache.flush_block_sync(&self.drv, to)
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
        let _op = self.op_lock(ino);
        self.relocate_commit_inner(ino, lbn, to)
    }

    fn relocate_commit_inner(&self, ino: Ino, lbn: u64, to: u64) -> FsResult<()> {
        let mut inode = self.read_inode(ino)?;
        let from = self
            .bmap(ino, &inode, lbn)?
            .ok_or_else(|| FsError::Corrupt("committing an unmapped block".into()))?;
        if from == to {
            return Ok(());
        }
        let holder = bmap::set(&self.tree(ino, None), &mut inode, lbn, to)?;
        self.write_inode(ino, &inode, true)?;
        self.flush_map_location(ino, holder)?;
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
                let data = self.fetch_block(to, ino, lbn)?;
                dirent::list(&data)?
            };
            for e in &entries {
                if !matches!(e.loc, EntryLoc::Embedded(_)) {
                    continue;
                }
                let old_ino = embedded_ino(from, e.offset, e.gen);
                let new_ino = embedded_ino(to, e.offset, e.gen);
                self.cache.purge_ino(old_ino);
                if let Some(dc) = self.dcache() {
                    dc.purge_ino(old_ino);
                }
                self.lock_ns().parent_of.remove(&old_ino);
                if e.kind == FileKind::Dir {
                    self.renumber_dir(old_ino, new_ino);
                }
                self.lock_ns().note_parent(new_ino, ino);
            }
        }
        self.cache.unbind_logical(ino, lbn);
        self.free_block_any(from);
        self.cache.bind_logical(&self.drv, to, ino, lbn);
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
        let _op = self.op_lock(ino);
        let inode = self.read_inode(ino)?;
        let Some(from) = self.bmap(ino, &inode, lbn)? else {
            return Ok(None);
        };
        let g = self.lock_groups().get(group.0, group.1).copied();
        if let Some(g) = g {
            if from >= g.start && from < g.start + g.nslots as u64 {
                return Ok(None);
            }
        }
        let Some(to) = self.group_claim_slot(group) else {
            return Ok(None);
        };
        self.relocate_copy_forward_inner(ino, lbn, to)?;
        self.relocate_commit_inner(ino, lbn, to)?;
        Ok(Some(to))
    }

    /// Force a re-pointed block pointer durable, whatever the metadata
    /// mode: the inode's sector/block when `holder` (from [`bmap::set`]) is
    /// `None`, the (already dirty) pointer block otherwise.
    fn flush_map_location(&self, ino: Ino, holder: Option<u64>) -> FsResult<()> {
        match (holder, decode_ino(ino)) {
            (Some(blk), _) => self.cache.flush_block_sync(&self.drv, blk),
            (None, InoRef::External(slot)) => {
                let (blk, _) = self.exfile_locate(slot)?;
                self.cache.flush_block_sync(&self.drv, blk)
            }
            (None, InoRef::Embedded { blk, off, .. }) => {
                self.cache.flush_sector_sync(&self.drv, blk, off)
            }
        }
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

    /// Next generation stamp for a freshly embedded inode.
    fn next_gen(&self) -> u16 {
        let prev = self
            .gen_counter
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |g| Some((g % 0x7FFF) + 1))
            .expect("fetch_update closure always returns Some");
        ((prev % 0x7FFF) + 1) as u16
    }

    /// Rebuild the external-inode free pool by scanning the file.
    fn scan_exfile(&self) -> FsResult<()> {
        let slots = self.lock_meta().exfile_slots;
        let mut free = Vec::new();
        for slot in 0..slots {
            let (blk, off) = self.exfile_locate(slot)?;
            let data = self.cache.read_block(&self.drv, blk)?;
            if Inode::read_from(&data, off).is_none() {
                free.push(slot);
            }
        }
        self.lock_meta().expool = SlotPool::new(slots, free);
        Ok(())
    }

    /// Physical location of external slot `slot`.
    fn exfile_locate(&self, slot: u32) -> FsResult<(u64, usize)> {
        let exinode = {
            let m = self.lock_meta();
            if slot >= m.exfile_slots {
                return Err(FsError::StaleHandle);
            }
            m.exfile.clone()
        };
        let lbn = exfile::slot_lbn(slot);
        let blk = self
            .bmap(INO_ROOT, &exinode, lbn)?
            .ok_or_else(|| FsError::Corrupt("hole in external inode file".into()))?;
        Ok((blk, exfile::slot_off(slot)))
    }

    /// Allocate an external inode slot, growing the file if needed. The
    /// meta lock is held across the growth so two racing allocators
    /// cannot both extend the file.
    fn alloc_external_slot(&self) -> FsResult<u32> {
        self.charge(self.cpu_model().alloc_op);
        let mut m = self.lock_meta();
        if let Some(s) = m.expool.take() {
            return Ok(s);
        }
        // Grow by one block. The external file's blocks never participate
        // in grouping and never move.
        let mut exinode = m.exfile.clone();
        let lbn = exinode.size / BLOCK_SIZE as u64;
        let blk = self.bmap_alloc(INO_ROOT, &mut exinode, lbn, AllocCtx::Plain { near: 0 })?;
        self.cache.modify_block(&self.drv, blk, true, false, |d| d.fill(0))?;
        exinode.size += BLOCK_SIZE as u64;
        m.exfile = exinode;
        let range = m.expool.grow();
        m.exfile_slots = range.end;
        Ok(m.expool.take().expect("just grew"))
    }

    // ----- inode access -------------------------------------------------

    fn read_inode(&self, ino: Ino) -> FsResult<Inode> {
        self.charge(self.cpu_model().block_op);
        match decode_ino(ino) {
            InoRef::External(slot) => {
                self.obs().bump(Ctr::FsExternalInodeOps);
                let (blk, off) = self.exfile_locate(slot)?;
                let data = self.cache.read_block(&self.drv, blk)?;
                Inode::read_from(&data, off).ok_or(FsError::StaleHandle)
            }
            InoRef::Embedded { blk, off, gen } => {
                self.obs().bump(Ctr::FsEmbeddedInodeOps);
                self.fetch_group_for(blk)?;
                let data = self.cache.read_block(&self.drv, blk)?;
                let entry = dirent::entry_at(&data, off)?;
                let EntryLoc::Embedded(img) = entry.loc else {
                    return Err(FsError::StaleHandle);
                };
                let inode = Inode::read_from(&data, img).ok_or(FsError::StaleHandle)?;
                // Generation guard: a recycled entry location cannot
                // satisfy a stale handle.
                if (inode.generation & GEN_MASK as u32) as u16 != gen {
                    return Err(FsError::StaleHandle);
                }
                Ok(inode)
            }
        }
    }

    /// Write an inode image back. `durable` applies the synchronous policy:
    /// a single *sector* write for embedded inodes, a block write for
    /// external ones.
    fn write_inode(&self, ino: Ino, inode: &Inode, durable: bool) -> FsResult<()> {
        self.charge(self.cpu_model().block_op);
        let sync = durable && self.cfg.metadata_mode == MetadataMode::Synchronous;
        if durable {
            self.obs().bump(if sync {
                Ctr::FsSyncMetaWrites
            } else {
                Ctr::FsDelayedMetaWrites
            });
        }
        match decode_ino(ino) {
            InoRef::External(slot) => {
                self.obs().bump(Ctr::FsExternalInodeOps);
                let (blk, off) = self.exfile_locate(slot)?;
                self.cache
                    .modify_block(&self.drv, blk, true, true, |d| inode.write_to(d, off))?;
                if sync {
                    self.cache.flush_block_sync(&self.drv, blk)?;
                }
            }
            InoRef::Embedded { blk, off, gen } => {
                self.obs().bump(Ctr::FsEmbeddedInodeOps);
                let img = {
                    let data = self.cache.read_block(&self.drv, blk)?;
                    let entry = dirent::entry_at(&data, off)?;
                    if entry.gen != gen {
                        return Err(FsError::StaleHandle);
                    }
                    match entry.loc {
                        EntryLoc::Embedded(img) => img,
                        EntryLoc::External(_) => return Err(FsError::StaleHandle),
                    }
                };
                self.cache
                    .modify_block(&self.drv, blk, true, true, |d| inode.write_to(d, img))?;
                if sync {
                    self.cache.flush_sector_sync(&self.drv, blk, off)?;
                }
            }
        }
        Ok(())
    }

    /// Clear an external inode slot and return it to the pool.
    fn free_external_slot(&self, slot: u32, durable: bool) -> FsResult<()> {
        let (blk, off) = self.exfile_locate(slot)?;
        self.cache
            .modify_block(&self.drv, blk, true, true, |d| Inode::clear_slot(d, off))?;
        if durable && self.cfg.metadata_mode == MetadataMode::Synchronous {
            self.cache.flush_block_sync(&self.drv, blk)?;
        }
        self.lock_meta().expool.put(slot);
        Ok(())
    }

    // ----- block allocation -----------------------------------------------

    /// Plain (ungrouped) allocation: probe cylinder groups from `near`,
    /// honoring a previous-block hint; reclaim group slack as a last
    /// resort. Each CG is locked only while probed, so allocators with
    /// different homes proceed in parallel.
    fn alloc_plain(&self, near: u32, hint: Option<u64>) -> FsResult<u64> {
        self.charge(self.cpu_model().alloc_op);
        for pass in 0..2 {
            let n = self.geo.cg_count;
            let near = near.min(n - 1);
            for d in 0..n {
                let cg = (near + d) % n;
                let mut s = self.lock_cg(cg);
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
                self.reclaim_slack();
            }
        }
        Err(FsError::NoSpace)
    }

    /// Trim trailing unused group slots everywhere, returning their blocks
    /// to the free pool.
    fn reclaim_slack(&self) {
        for cg in 0..self.geo.cg_count {
            let released = self.lock_groups().trim_slack(&self.geo, cg, |c, i, d| {
                let mut s = self.lock_cg(c);
                s.hdr.groups[i as usize] = d.copied();
                s.dirty = true;
            });
            for (start, len) in released {
                let data_start = self.geo.cg_data_start(cg);
                {
                    let mut s = self.lock_cg(cg);
                    s.hdr.block_bitmap.clear_run((start - data_start) as usize, len);
                    s.dirty = true;
                    self.obs.cg_used_delta(cg as usize, -(len as i64));
                }
                for b in start..start + len as u64 {
                    self.cache.invalidate_block(&self.drv, b);
                }
            }
        }
    }

    /// Grouped allocation for a small file (or directory block) of `dir`.
    /// Falls back to `None` when no slot or extent is available.
    fn alloc_grouped(&self, dir: Ino, near: u32) -> FsResult<Option<u64>> {
        self.charge(self.cpu_model().alloc_op);
        {
            let mut groups = self.lock_groups();
            if let Some((blk, _)) = groups.alloc_slot(
                dir,
                None,
                |c, i, d, _| {
                    let mut s = self.lock_cg(c);
                    s.hdr.groups[i as usize] = Some(*d);
                    s.dirty = true;
                },
                &self.geo,
            ) {
                return Ok(Some(blk));
            }
        }
        // Carve a fresh extent, probing from the home group outward.
        let n = self.geo.cg_count;
        let near = near.min(n - 1);
        let nslots = self.cfg.group_blocks;
        for d in 0..n {
            let cg = (near + d) % n;
            let mut groups = self.lock_groups();
            let mut s = self.lock_cg(cg);
            if let Some((blk, _)) = groups.carve(&self.geo, &mut s.hdr, dir, nslots)? {
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
    fn alloc_for(&self, ctx: AllocCtx, lbn: u64, hint: Option<u64>) -> FsResult<u64> {
        match ctx {
            AllocCtx::Grouped { dir, near }
                if self.cfg.group && lbn < self.cfg.group_blocks as u64 =>
            {
                if let Some(blk) = self.alloc_grouped(dir, near)? {
                    return Ok(blk);
                }
                self.alloc_plain(near, hint)
            }
            AllocCtx::Grouped { near, .. } | AllocCtx::Plain { near } => {
                self.alloc_plain(near, hint)
            }
        }
    }

    /// Free a block wherever it lives: a group slot (possibly dissolving
    /// the group) or the plain bitmap.
    fn free_block_any(&self, blk: u64) {
        self.charge(self.cpu_model().alloc_op);
        let outcome = self.lock_groups().free_slot(&self.geo, blk, |c, i, d| {
            let mut s = self.lock_cg(c);
            s.hdr.groups[i as usize] = d.copied();
            s.dirty = true;
        });
        match outcome {
            Some(FreeOutcome::SlotFreed) => {
                // The extent stays reserved; only the member bit changed.
            }
            Some(FreeOutcome::Dissolved { start, nslots }) => {
                self.obs.bump(Ctr::FsGroupDissolves);
                let cg = self.geo.block_cg(start).expect("group extent inside a CG");
                let data_start = self.geo.cg_data_start(cg);
                let mut s = self.lock_cg(cg);
                s.hdr.block_bitmap.clear_run((start - data_start) as usize, nslots as usize);
                s.dirty = true;
                self.obs.cg_used_delta(cg as usize, -(nslots as i64));
            }
            None => {
                let cg = self.geo.block_cg(blk).expect("freeing a block outside all CGs");
                let data_start = self.geo.cg_data_start(cg);
                let mut s = self.lock_cg(cg);
                assert!(
                    s.hdr.block_bitmap.clear((blk - data_start) as usize),
                    "double free of block {blk}"
                );
                s.dirty = true;
                self.obs.cg_used_delta(cg as usize, -1);
            }
        }
        self.cache.invalidate_block(&self.drv, blk);
    }

    /// The cylinder group a directory's storage is anchored to: the one
    /// assigned at `mkdir` (stored in the inode's flags, FFS-style
    /// spreading), falling back to the directory's first data block.
    fn dir_home(&self, dir: Ino, dinode: &Inode) -> u32 {
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
    fn pick_dir_cg(&self) -> u32 {
        let n = self.geo.cg_count;
        let rotor = self.dir_rotor.load(Ordering::Relaxed) % n;
        for probe in 0..n {
            let cg = (rotor + probe) % n;
            let ok = {
                let s = self.lock_cg(cg);
                // "Above-average free" in spirit: at least a quarter free.
                s.hdr.block_bitmap.free() * 4 >= s.hdr.block_bitmap.len()
            };
            if ok {
                self.dir_rotor.store((cg + 1) % n, Ordering::Relaxed);
                return cg;
            }
        }
        self.dir_rotor.store((rotor + 1) % n, Ordering::Relaxed);
        rotor
    }

    /// Allocation context for data blocks of file `ino`: anchored at (and,
    /// with grouping on, grouped with) the owning directory.
    fn data_ctx(&self, ino: Ino) -> FsResult<AllocCtx> {
        let parent = self.lock_ns().parent_of.get(&ino).copied();
        match parent {
            Some(dir) => {
                let dinode = self.read_inode(dir)?;
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

    // ----- block mapping --------------------------------------------------

    /// The pointer-tree hook for file `ino`; `ctx` places the blocks an
    /// allocating map adds.
    fn tree(&self, ino: Ino, ctx: Option<AllocCtx>) -> Tree<'_> {
        Tree { fs: self, ino, ctx }
    }

    /// Map logical block `lbn` of an inode to its block, if any.
    fn bmap(&self, ino: Ino, inode: &Inode, lbn: u64) -> FsResult<Option<u64>> {
        self.charge(self.cpu_model().block_op);
        bmap::lookup(&self.tree(ino, None), inode, lbn)
    }

    /// Map `lbn`, allocating it (and pointer blocks) with `ctx` if missing.
    /// The caller persists the updated inode.
    fn bmap_alloc(&self, ino: Ino, inode: &mut Inode, lbn: u64, ctx: AllocCtx) -> FsResult<u64> {
        self.charge(self.cpu_model().block_op);
        bmap::map_alloc(&self.tree(ino, Some(ctx)), inode, lbn)
    }

    // ----- grouping-aware block fetch -------------------------------------

    /// On a miss for a grouped block, fetch the whole group's live runs as
    /// one scatter/gather request — the explicit-grouping read path.
    fn fetch_group_for(&self, blk: u64) -> FsResult<()> {
        if !self.cfg.group || self.cache.contains(blk) {
            return Ok(());
        }
        let runs = {
            let groups = self.lock_groups();
            match groups.group_of_block(&self.geo, blk) {
                Some(g) if g.live() >= self.cfg.group_read_min => g.live_runs(),
                _ => return Ok(()),
            }
        };
        self.obs.bump(Ctr::FsGroupFetches);
        self.obs.add(Ctr::FsGroupFetchBlocks, runs.iter().map(|&(_, n)| n as u64).sum());
        self.cache.read_group(&self.drv, &runs)
    }

    /// Read a block with logical binding, group-fetching on a miss.
    fn fetch_block(&self, blk: u64, ino: Ino, lbn: u64) -> FsResult<Block> {
        self.fetch_group_for(blk)?;
        self.cache.read_block_bound(&self.drv, blk, ino, lbn)
    }

    /// Fetch the next `prefetch_blocks` mapped blocks of a sequentially
    /// read file as one scatter/gather request (blocks already resident
    /// are skipped by the cache).
    fn prefetch_ahead(&self, ino: Ino, inode: &Inode, from_lbn: u64) -> FsResult<()> {
        let max_lbn = inode.size.div_ceil(BLOCK_SIZE as u64);
        if from_lbn >= max_lbn {
            return Ok(());
        }
        // Only act at the read-ahead boundary: while the previously
        // prefetched window is still resident, issuing tiny tail fetches
        // would defeat the batching.
        if let Some(b) = self.bmap(ino, inode, from_lbn)? {
            if self.cache.contains(b) {
                return Ok(());
            }
        }
        let mut blocks: Vec<u64> = Vec::new();
        for lbn in from_lbn..(from_lbn + self.cfg.prefetch_blocks as u64).min(max_lbn) {
            match self.bmap(ino, inode, lbn)? {
                Some(b) if !self.cache.contains(b) => blocks.push(b),
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
        self.cache.read_group(&self.drv, &runs)
    }


    // ----- degrouping / regrouping ----------------------------------------

    /// When a file outgrows the group size, move its grouped blocks to
    /// plain clustered storage: large files take the normal FFS path, as
    /// the paper prescribes ("placement of data for large files remains
    /// unchanged").
    fn degroup(&self, ino: Ino, inode: &mut Inode) -> FsResult<()> {
        self.obs().bump(Ctr::FsDegroupings);
        let near = match self.data_ctx(ino)? {
            AllocCtx::Plain { near } | AllocCtx::Grouped { near, .. } => near,
        };
        let nblocks = inode.size.div_ceil(BLOCK_SIZE as u64);
        let mut hint: Option<u64> = None;
        for lbn in 0..nblocks {
            let Some(old) = self.bmap(ino, inode, lbn)? else { continue };
            if self.lock_groups().group_of_block(&self.geo, old).is_none() {
                hint = Some(old);
                continue;
            }
            let new = self.alloc_plain(near, hint)?;
            hint = Some(new);
            self.move_block(ino, inode, lbn, old, new)?;
        }
        Ok(())
    }

    /// Move a (small) file's blocks *into* its directory's groups — the
    /// application-directed grouping path behind
    /// [`FileSystem::group_hint`].
    fn regroup(&self, dir: Ino, ino: Ino, inode: &mut Inode) -> FsResult<()> {
        let dnode = self.read_inode(dir)?;
        let near = self.dir_home(dir, &dnode);
        let nblocks = inode.size.div_ceil(BLOCK_SIZE as u64);
        if nblocks >= self.cfg.group_blocks as u64 {
            return Ok(()); // too large to group
        }
        for lbn in 0..nblocks {
            let Some(old) = self.bmap(ino, inode, lbn)? else { continue };
            match self.lock_groups().group_of_block(&self.geo, old).copied() {
                Some(g) if g.owner == dir => continue,
                _ => {}
            }
            let Some(new) = self.alloc_grouped(dir, near)? else { break };
            self.move_block(ino, inode, lbn, old, new)?;
        }
        Ok(())
    }

    /// Copy logical block `lbn` of `ino` from `old` to the freshly
    /// allocated `new` through the cache, re-point the map, free `old`.
    fn move_block(&self, ino: Ino, inode: &mut Inode, lbn: u64, old: u64, new: u64) -> FsResult<()> {
        let contents = self.fetch_block(old, ino, lbn)?;
        self.cache.modify_block(&self.drv, new, false, false, |d| d.copy_from_slice(&contents))?;
        self.charge(self.cpu_model().copy_cost(BLOCK_SIZE));
        bmap::set(&self.tree(ino, None), inode, lbn, new)?;
        self.cache.unbind_logical(ino, lbn);
        self.free_block_any(old);
        self.cache.bind_logical(&self.drv, new, ino, lbn);
        Ok(())
    }

    // ----- directory helpers -------------------------------------------

    fn require_dir(&self, ino: Ino) -> FsResult<Inode> {
        let inode = self.read_inode(ino)?;
        if inode.kind != FileKind::Dir {
            return Err(FsError::NotDir);
        }
        Ok(inode)
    }

    /// The inode number an entry in block `blk` denotes.
    fn entry_ino(&self, blk: u64, e: &CEntry) -> Ino {
        match e.loc {
            EntryLoc::Embedded(_) => embedded_ino(blk, e.offset, e.gen),
            EntryLoc::External(slot) => external_ino(slot),
        }
    }

    /// Scan a directory for `name`. Returns `(block, lbn, entry)`.
    fn dir_find(
        &self,
        dirino: Ino,
        dinode: &Inode,
        name: &str,
    ) -> FsResult<Option<(u64, u64, CEntry)>> {
        let nblocks = dinode.size / BLOCK_SIZE as u64;
        for lbn in 0..nblocks {
            let blk = self
                .bmap(dirino, dinode, lbn)?
                .ok_or_else(|| FsError::Corrupt(format!("hole in directory {dirino}")))?;
            self.charge(self.cpu_model().scan_cost(16));
            let data = self.fetch_block(blk, dirino, lbn)?;
            if let Some(e) = dirent::find(&data, name)? {
                return Ok(Some((blk, lbn, e)));
            }
        }
        Ok(None)
    }

    /// Insert an entry, growing the directory if necessary. Returns
    /// `(block, entry_offset, grew)`. When `grew` is set, the caller must
    /// persist the directory inode *durably* after flushing the entry —
    /// the inode's new block pointer and size are part of the create's
    /// ordered update, or a crash would orphan the new block's entries.
    fn dir_insert(
        &self,
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
        let nblocks = dinode.size / BLOCK_SIZE as u64;
        for lbn in 0..nblocks {
            let blk = self
                .bmap(dirino, dinode, lbn)?
                .ok_or_else(|| FsError::Corrupt(format!("hole in directory {dirino}")))?;
            self.charge(self.cpu_model().scan_cost(16));
            // The handle is dropped before the insert modifies the block.
            if dirent::has_space_for(&self.fetch_block(blk, dirino, lbn)?, need)? {
                let (blk, off) = self.dir_insert_into(dirino, lbn, blk, name, kind, payload)?;
                return Ok((blk, off, false));
            }
        }
        // Grow by one block — itself group-allocated when grouping is on,
        // so directory blocks co-locate with their files' data.
        let lbn = nblocks;
        let ctx = AllocCtx::Grouped { dir: dirino, near: self.dir_home(dirino, dinode) };
        let blk = self.bmap_alloc(dirino, dinode, lbn, ctx)?;
        dinode.size += BLOCK_SIZE as u64;
        self.cache
            .modify_block_bound(&self.drv, blk, dirino, lbn, false, dirent::init_block)?;
        let (blk, off) = self.dir_insert_into(dirino, lbn, blk, name, kind, payload)?;
        Ok((blk, off, true))
    }

    fn dir_insert_into(
        &self,
        dirino: Ino,
        lbn: u64,
        blk: u64,
        name: &str,
        kind: FileKind,
        payload: InsertPayload<'_>,
    ) -> FsResult<(u64, usize)> {
        let res = self
            .cache
            .modify_block_bound(&self.drv, blk, dirino, lbn, true, |d| match payload {
                InsertPayload::Embedded(inode) => {
                    dirent::insert_embedded(d, name, kind, inode).map(|o| o.map(|(e, _)| e))
                }
                InsertPayload::External(slot) => dirent::insert_external(d, name, slot, kind),
            })??;
        let off = res.ok_or(FsError::NoSpace)?;
        Ok((blk, off))
    }

    /// Flush the durability unit for a directory mutation at `(blk, off)`:
    /// one sector with embedded inodes, the whole block otherwise.
    fn dir_durable(&self, blk: u64, off: usize) -> FsResult<()> {
        if self.cfg.metadata_mode != MetadataMode::Synchronous {
            self.obs().bump(Ctr::FsDelayedMetaWrites);
            return Ok(());
        }
        self.obs().bump(Ctr::FsSyncMetaWrites);
        if self.cfg.embed {
            self.cache.flush_sector_sync(&self.drv, blk, off)
        } else {
            self.cache.flush_block_sync(&self.drv, blk)
        }
    }

    /// Durability for a *freshly grown* directory block: the whole block
    /// must reach the disk (its other chunks' free-record headers included),
    /// or a crash leaves garbage chunks around the one flushed sector.
    fn dir_durable_grown(&self, blk: u64, off: usize, grew: bool) -> FsResult<()> {
        if grew && self.cfg.metadata_mode == MetadataMode::Synchronous {
            self.obs().bump(Ctr::FsSyncMetaWrites);
            self.cache.flush_block_sync(&self.drv, blk)
        } else {
            self.dir_durable(blk, off)
        }
    }

    fn dir_is_empty(&self, dirino: Ino, dinode: &Inode) -> FsResult<bool> {
        let nblocks = dinode.size / BLOCK_SIZE as u64;
        for lbn in 0..nblocks {
            let blk = self
                .bmap(dirino, dinode, lbn)?
                .ok_or_else(|| FsError::Corrupt(format!("hole in directory {dirino}")))?;
            let data = self.fetch_block(blk, dirino, lbn)?;
            if !dirent::is_empty(&data)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Retire an inode number from all in-core indices.
    fn retire_ino(&self, ino: Ino) {
        self.cache.purge_ino(ino);
        if let Some(dc) = self.dcache() {
            // Positive entries resolving to the dead ino, and (for a
            // directory) any entries keyed under it.
            dc.purge_ino(ino);
            dc.purge_dir(ino);
        }
        let mut ns = self.lock_ns();
        ns.parent_of.remove(&ino);
        ns.last_read.remove(&ino);
    }

    /// A directory's inode number changed: transfer group ownership and fix
    /// the parent map.
    fn renumber_dir(&self, old: Ino, new: Ino) {
        // Dcache keys embed the parent ino; entries under the old number
        // can never be probed again (the handle is dead), so drop them.
        if let Some(dc) = self.dcache() {
            dc.purge_dir(old);
        }
        self.lock_groups().reown(
            old,
            new,
            |c, i, d| {
                let mut s = self.lock_cg(c);
                s.hdr.groups[i as usize] = Some(*d);
                s.dirty = true;
            },
            &self.geo,
        );
        let mut ns = self.lock_ns();
        for v in ns.parent_of.values_mut() {
            if *v == old {
                *v = new;
            }
        }
    }

    /// Drop one link from file `ino` (its name is already gone), freeing
    /// storage at zero links. `entry` describes the removed name.
    fn drop_link_of_removed(&self, ino: Ino, was_embedded: bool, mut inode: Inode) -> FsResult<()> {
        if was_embedded {
            // Embedded inodes always have exactly one link: removing the
            // entry removed the inode itself. Free the data.
            bmap::free_from(&self.tree(ino, None), &mut inode, 0)?;
            self.retire_ino(ino);
            return Ok(());
        }
        let InoRef::External(slot) = decode_ino(ino) else { unreachable!("external entry") };
        inode.nlink -= 1;
        if inode.nlink == 0 {
            bmap::free_from(&self.tree(ino, None), &mut inode, 0)?;
            self.free_external_slot(slot, true)?;
            self.retire_ino(ino);
        } else {
            self.write_inode(ino, &inode, true)?;
        }
        Ok(())
    }
}

/// What a new directory entry carries.
#[derive(Clone, Copy)]
enum InsertPayload<'a> {
    /// Embed this inode image.
    Embedded(&'a Inode),
    /// Reference this external slot.
    External(u32),
}

/// The public operations, all `&self` and safe to call from several
/// threads at once. The [`FileSystem`] impl below forwards to them;
/// inherent methods win method resolution, so `fs.read(...)` on a
/// concrete `Cffs` hits these directly with no trait import.
impl Cffs {
    /// Label for reports — see [`FileSystem::label`].
    pub fn label(&self) -> &str {
        &self.cfg.label
    }

    /// The root inode — see [`FileSystem::root`].
    pub fn root(&self) -> Ino {
        INO_ROOT
    }

    /// Resolve `name` in a directory — see [`FileSystem::lookup`].
    pub fn lookup(&self, dirino: Ino, name: &str) -> FsResult<Ino> {
        let _op = self.op_lock(dirino);
        let _span = self.op_span(OpKind::Lookup);
        self.charge(self.cpu_model().syscall);
        check_name(name)?;
        // Namespace-cache fast path: a hit (positive or negative) skips
        // the inode read and the whole dirent scan. Entries are only
        // ever created by operations that held this directory's stripe,
        // and every namespace mutation invalidates precisely, so a hit
        // needs no revalidation. A probe costs one dirent-compare.
        if let Some(dc) = self.dcache() {
            match dc.lookup(dirino, name) {
                DcacheAnswer::Pos(ino) => {
                    self.charge(self.cpu_model().scan_cost(1));
                    self.lock_ns().note_parent(ino, dirino);
                    return Ok(ino);
                }
                DcacheAnswer::Neg => {
                    self.charge(self.cpu_model().scan_cost(1));
                    return Err(FsError::NotFound);
                }
                DcacheAnswer::Miss => {}
            }
        }
        let dinode = self.require_dir(dirino)?;
        match self.dir_find(dirino, &dinode, name)? {
            Some((blk, _, e)) => {
                let ino = self.entry_ino(blk, &e);
                if let Some(dc) = self.dcache() {
                    dc.insert_pos(dirino, name, ino);
                }
                self.lock_ns().note_parent(ino, dirino);
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
        let _op = self.op_lock(ino);
        let _span = self.op_span(OpKind::Getattr);
        self.charge(self.cpu_model().syscall);
        let inode = self.read_inode(ino)?;
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
        let _op = self.op_lock(dirino);
        let _span = self.op_span(OpKind::Create);
        self.charge(self.cpu_model().syscall);
        check_name(name)?;
        let mut dinode = self.require_dir(dirino)?;
        // Create-if-absent fast path: a cached negative entry proves the
        // name absent, so the existence scan can be skipped outright; a
        // cached positive entry is an immediate `Exists`.
        match self.dcache().map(|dc| dc.lookup(dirino, name)) {
            Some(DcacheAnswer::Pos(_)) => return Err(FsError::Exists),
            Some(DcacheAnswer::Neg) => {}
            _ => {
                if self.dir_find(dirino, &dinode, name)?.is_some() {
                    return Err(FsError::Exists);
                }
            }
        }
        let mut inode = Inode::new(FileKind::File);
        let ino = if self.cfg.embed {
            inode.generation = self.next_gen() as u32;
            // One entry carries name + inode; one sector write makes both
            // durable atomically.
            let (blk, off, grew) =
                self.dir_insert(dirino, &mut dinode, name, FileKind::File, InsertPayload::Embedded(&inode))?;
            self.dir_durable_grown(blk, off, grew)?;
            self.write_inode(dirino, &dinode, grew)?;
            embedded_ino(blk, off, (inode.generation & GEN_MASK as u32) as u16)
        } else {
            // Conventional ordering: inode first, then the name.
            let slot = self.alloc_external_slot()?;
            let ino = external_ino(slot);
            self.write_inode(ino, &inode, true)?;
            let (blk, off, grew) =
                self.dir_insert(dirino, &mut dinode, name, FileKind::File, InsertPayload::External(slot))?;
            self.dir_durable_grown(blk, off, grew)?;
            self.write_inode(dirino, &dinode, grew)?;
            ino
        };
        if let Some(dc) = self.dcache() {
            dc.insert_pos(dirino, name, ino);
        }
        self.lock_ns().note_parent(ino, dirino);
        Ok(ino)
    }

    /// Create a directory — see [`FileSystem::mkdir`].
    pub fn mkdir(&self, dirino: Ino, name: &str) -> FsResult<Ino> {
        let _op = self.op_lock(dirino);
        let _span = self.op_span(OpKind::Mkdir);
        self.charge(self.cpu_model().syscall);
        check_name(name)?;
        let mut dinode = self.require_dir(dirino)?;
        match self.dcache().map(|dc| dc.lookup(dirino, name)) {
            Some(DcacheAnswer::Pos(_)) => return Err(FsError::Exists),
            Some(DcacheAnswer::Neg) => {}
            _ => {
                if self.dir_find(dirino, &dinode, name)?.is_some() {
                    return Err(FsError::Exists);
                }
            }
        }
        let mut inode = Inode::new(FileKind::Dir);
        inode.nlink = 2;
        // FFS directory spreading: assign the new directory a home
        // cylinder group and remember it in the inode.
        inode.flags = self.pick_dir_cg() + 1;
        let ino = if self.cfg.embed {
            inode.generation = self.next_gen() as u32;
            let (blk, off, grew) =
                self.dir_insert(dirino, &mut dinode, name, FileKind::Dir, InsertPayload::Embedded(&inode))?;
            dinode.nlink += 1;
            self.dir_durable_grown(blk, off, grew)?;
            self.write_inode(dirino, &dinode, grew)?;
            embedded_ino(blk, off, (inode.generation & GEN_MASK as u32) as u16)
        } else {
            let slot = self.alloc_external_slot()?;
            let ino = external_ino(slot);
            self.write_inode(ino, &inode, true)?;
            let (blk, off, grew) =
                self.dir_insert(dirino, &mut dinode, name, FileKind::Dir, InsertPayload::External(slot))?;
            dinode.nlink += 1;
            self.dir_durable_grown(blk, off, grew)?;
            self.write_inode(dirino, &dinode, grew)?;
            ino
        };
        if let Some(dc) = self.dcache() {
            dc.insert_pos(dirino, name, ino);
        }
        self.lock_ns().note_parent(ino, dirino);
        Ok(ino)
    }

    /// Remove a file name — see [`FileSystem::unlink`]. Serializes on
    /// the *directory's* stripe only: racing writers of the victim file
    /// synchronize on the shared structures underneath.
    pub fn unlink(&self, dirino: Ino, name: &str) -> FsResult<()> {
        let _op = self.op_lock(dirino);
        let _span = self.op_span(OpKind::Unlink);
        self.charge(self.cpu_model().syscall);
        check_name(name)?;
        let dinode = self.require_dir(dirino)?;
        let Some((blk, lbn, entry)) = self.dir_find(dirino, &dinode, name)? else {
            return Err(FsError::NotFound);
        };
        if entry.kind == FileKind::Dir {
            return Err(FsError::IsDir);
        }
        let ino = self.entry_ino(blk, &entry);
        let inode = self.read_inode(ino)?;
        let was_embedded = matches!(entry.loc, EntryLoc::Embedded(_));
        let off = entry.offset;
        self.cache
            .modify_block_bound(&self.drv, blk, dirino, lbn, true, |d| dirent::remove(d, name))??;
        // The name is now provably absent: cache the NotFound.
        if let Some(dc) = self.dcache() {
            dc.insert_neg(dirino, name);
        }
        // Name (and, embedded, the inode with it) goes first.
        self.dir_durable(blk, off)?;
        self.drop_link_of_removed(ino, was_embedded, inode)
    }

    /// Remove an empty directory — see [`FileSystem::rmdir`].
    pub fn rmdir(&self, dirino: Ino, name: &str) -> FsResult<()> {
        let _op = self.op_lock(dirino);
        let _span = self.op_span(OpKind::Rmdir);
        self.charge(self.cpu_model().syscall);
        check_name(name)?;
        let mut dinode = self.require_dir(dirino)?;
        let Some((blk, lbn, entry)) = self.dir_find(dirino, &dinode, name)? else {
            return Err(FsError::NotFound);
        };
        if entry.kind != FileKind::Dir {
            return Err(FsError::NotDir);
        }
        let child = self.entry_ino(blk, &entry);
        let mut cinode = self.require_dir(child)?;
        if !self.dir_is_empty(child, &cinode)? {
            return Err(FsError::DirNotEmpty);
        }
        let was_embedded = matches!(entry.loc, EntryLoc::Embedded(_));
        let off = entry.offset;
        self.cache
            .modify_block_bound(&self.drv, blk, dirino, lbn, true, |d| dirent::remove(d, name))??;
        if let Some(dc) = self.dcache() {
            dc.insert_neg(dirino, name);
        }
        self.dir_durable(blk, off)?;
        bmap::free_from(&self.tree(child, None), &mut cinode, 0)?;
        if !was_embedded {
            let InoRef::External(slot) = decode_ino(child) else { unreachable!() };
            self.free_external_slot(slot, true)?;
        }
        self.retire_ino(child);
        dinode.nlink = dinode.nlink.saturating_sub(1);
        self.write_inode(dirino, &dinode, false)?;
        Ok(())
    }

    /// Add a hard link — see [`FileSystem::link`].
    pub fn link(&self, target: Ino, dirino: Ino, name: &str) -> FsResult<Ino> {
        let _op = self.op_lock2(target, dirino);
        let _span = self.op_span(OpKind::Link);
        self.charge(self.cpu_model().syscall);
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
        // An embedded target must be externalized first: several names will
        // reference one inode, so it needs a location-independent home.
        let new_target = match decode_ino(target) {
            InoRef::Embedded { blk, off, .. } => {
                let slot = self.alloc_external_slot()?;
                let ino = external_ino(slot);
                self.write_inode(ino, &tinode, true)?;
                self.cache.modify_block(&self.drv, blk, true, true, |d| {
                    dirent::convert_to_external(d, off, slot)
                })?;
                self.dir_durable(blk, off)?;
                self.cache.purge_ino(target);
                // Externalizing renumbered the target: entries resolving
                // to the old embedded ino are dead.
                if let Some(dc) = self.dcache() {
                    dc.purge_ino(target);
                }
                {
                    let mut ns = self.lock_ns();
                    if let Some(p) = ns.parent_of.remove(&target) {
                        ns.note_parent(ino, p);
                    }
                }
                ino
            }
            InoRef::External(_) => target,
        };
        tinode.nlink += 1;
        self.write_inode(new_target, &tinode, true)?;
        let InoRef::External(slot) = decode_ino(new_target) else { unreachable!() };
        let (blk, off, grew) =
            self.dir_insert(dirino, &mut dinode, name, FileKind::File, InsertPayload::External(slot))?;
        self.dir_durable_grown(blk, off, grew)?;
        self.write_inode(dirino, &dinode, grew)?;
        // The new name exists now (this also kills any negative entry).
        if let Some(dc) = self.dcache() {
            dc.insert_pos(dirino, name, new_target);
        }
        Ok(new_target)
    }

    /// Rename/move an entry — see [`FileSystem::rename`]. Takes both
    /// directory stripes in ascending order.
    pub fn rename(&self, odir: Ino, oname: &str, ndir: Ino, nname: &str) -> FsResult<Ino> {
        let _op = self.op_lock2(odir, ndir);
        let _span = self.op_span(OpKind::Rename);
        self.charge(self.cpu_model().syscall);
        check_name(oname)?;
        check_name(nname)?;
        let mut oinode = self.require_dir(odir)?;
        let Some((oblk, _, oentry)) = self.dir_find(odir, &oinode, oname)? else {
            return Err(FsError::NotFound);
        };
        let old_ino = self.entry_ino(oblk, &oentry);
        if odir == ndir && oname == nname {
            return Ok(old_ino);
        }
        let mut ninode = if ndir == odir { oinode.clone() } else { self.require_dir(ndir)? };
        // Clear an existing destination first.
        if let Some((dblk, dlbn, dentry)) = self.dir_find(ndir, &ninode, nname)? {
            let dst_ino = self.entry_ino(dblk, &dentry);
            if dst_ino == old_ino {
                // Two names for one (external) inode.
                if ndir == odir {
                    oinode = ninode;
                }
                let inode = self.read_inode(old_ino)?;
                let (rblk, rlbn, rentry) = self
                    .dir_find(odir, &oinode, oname)?
                    .ok_or(FsError::NotFound)?;
                let off = rentry.offset;
                self.cache.modify_block_bound(&self.drv, rblk, odir, rlbn, true, |d| {
                    dirent::remove(d, oname)
                })??;
                if let Some(dc) = self.dcache() {
                    dc.insert_neg(odir, oname);
                }
                self.write_inode(odir, &oinode, false)?;
                self.dir_durable(rblk, off)?;
                self.drop_link_of_removed(old_ino, false, inode)?;
                return Ok(old_ino);
            }
            match dentry.kind {
                FileKind::Dir => {
                    if oentry.kind != FileKind::Dir {
                        return Err(FsError::IsDir);
                    }
                    let mut dnode = self.require_dir(dst_ino)?;
                    if !self.dir_is_empty(dst_ino, &dnode)? {
                        return Err(FsError::DirNotEmpty);
                    }
                    let was_embedded = matches!(dentry.loc, EntryLoc::Embedded(_));
                    let off = dentry.offset;
                    self.cache.modify_block_bound(&self.drv, dblk, ndir, dlbn, true, |d| {
                        dirent::remove(d, nname)
                    })??;
                    if let Some(dc) = self.dcache() {
                        dc.invalidate(ndir, nname);
                    }
                    self.dir_durable(dblk, off)?;
                    bmap::free_from(&self.tree(dst_ino, None), &mut dnode, 0)?;
                    if !was_embedded {
                        let InoRef::External(slot) = decode_ino(dst_ino) else { unreachable!() };
                        self.free_external_slot(slot, true)?;
                    }
                    self.retire_ino(dst_ino);
                    ninode.nlink = ninode.nlink.saturating_sub(1);
                }
                FileKind::File => {
                    if oentry.kind == FileKind::Dir {
                        return Err(FsError::NotDir);
                    }
                    let inode = self.read_inode(dst_ino)?;
                    let was_embedded = matches!(dentry.loc, EntryLoc::Embedded(_));
                    let off = dentry.offset;
                    self.cache.modify_block_bound(&self.drv, dblk, ndir, dlbn, true, |d| {
                        dirent::remove(d, nname)
                    })??;
                    if let Some(dc) = self.dcache() {
                        dc.invalidate(ndir, nname);
                    }
                    self.dir_durable(dblk, off)?;
                    self.drop_link_of_removed(dst_ino, was_embedded, inode)?;
                }
            }
        }
        // Move the entry: insert the new name first (crash ⇒ extra name,
        // never a lost file), then remove the old.
        let moving = self.read_inode(old_ino)?;
        let new_ino = match oentry.loc {
            EntryLoc::Embedded(_) => {
                let (blk, off, grew) = self.dir_insert(
                    ndir,
                    &mut ninode,
                    nname,
                    oentry.kind,
                    InsertPayload::Embedded(&moving),
                )?;
                self.dir_durable_grown(blk, off, grew)?;
                self.write_inode(ndir, &ninode, grew)?;
                embedded_ino(blk, off, (moving.generation & GEN_MASK as u32) as u16)
            }
            EntryLoc::External(slot) => {
                let (blk, off, grew) = self.dir_insert(
                    ndir,
                    &mut ninode,
                    nname,
                    oentry.kind,
                    InsertPayload::External(slot),
                )?;
                self.dir_durable_grown(blk, off, grew)?;
                self.write_inode(ndir, &ninode, grew)?;
                old_ino
            }
        };
        if ndir == odir {
            oinode = self.require_dir(odir)?;
        }
        let (rblk, rlbn, rentry) =
            self.dir_find(odir, &oinode, oname)?.ok_or(FsError::NotFound)?;
        let roff = rentry.offset;
        self.cache
            .modify_block_bound(&self.drv, rblk, odir, rlbn, true, |d| dirent::remove(d, oname))??;
        // The old name is gone and the new one resolves to `new_ino`
        // (replacing any stale positive or negative entries for either).
        if let Some(dc) = self.dcache() {
            dc.insert_neg(odir, oname);
            dc.insert_pos(ndir, nname, new_ino);
        }
        self.write_inode(odir, &oinode, false)?;
        self.dir_durable(rblk, roff)?;
        // Bookkeeping for the renumbered inode.
        if new_ino != old_ino {
            self.cache.purge_ino(old_ino);
            if let Some(dc) = self.dcache() {
                dc.purge_ino(old_ino);
            }
            self.lock_ns().parent_of.remove(&old_ino);
            if oentry.kind == FileKind::Dir {
                self.renumber_dir(old_ino, new_ino);
            }
        }
        self.lock_ns().note_parent(new_ino, ndir);
        if oentry.kind == FileKind::Dir && odir != ndir {
            let mut o = self.require_dir(odir)?;
            o.nlink = o.nlink.saturating_sub(1);
            self.write_inode(odir, &o, false)?;
            let mut n = self.require_dir(ndir)?;
            n.nlink += 1;
            self.write_inode(ndir, &n, false)?;
        }
        Ok(new_ino)
    }

    /// Read file data — see [`FileSystem::read`].
    pub fn read(&self, ino: Ino, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        let _op = self.op_lock(ino);
        let _span = self.op_span(OpKind::Read);
        self.charge(self.cpu_model().syscall);
        let inode = self.read_inode(ino)?;
        if inode.kind == FileKind::Dir {
            return Err(FsError::IsDir);
        }
        if off >= inode.size {
            return Ok(0);
        }
        let want = buf.len().min((inode.size - off) as usize);
        let mut done = 0usize;
        while done < want {
            let pos = off + done as u64;
            let lbn = pos / BLOCK_SIZE as u64;
            let in_blk = (pos % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - in_blk).min(want - done);
            let blk = match self.cache.lookup_logical(ino, lbn) {
                Some(b) => Some(b),
                None => self.bmap(ino, &inode, lbn)?,
            };
            match blk {
                Some(b) => {
                    let data = self.fetch_block(b, ino, lbn)?;
                    buf[done..done + n].copy_from_slice(&data[in_blk..in_blk + n]);
                }
                None => buf[done..done + n].fill(0),
            }
            self.charge(self.cpu_model().copy_cost(n));
            done += n;
        }
        // Sequential-read detection + read-ahead (prefetching extension).
        let first_lbn = off / BLOCK_SIZE as u64;
        let last_lbn = (off + done.max(1) as u64 - 1) / BLOCK_SIZE as u64;
        if self.cfg.prefetch_blocks > 0 {
            let sequential =
                first_lbn == 0
                    || self.lock_ns().last_read.get(&ino).is_some_and(|&l| l + 1 >= first_lbn);
            if sequential {
                self.prefetch_ahead(ino, &inode, last_lbn + 1)?;
            }
        }
        self.lock_ns().last_read.insert(ino, last_lbn);
        Ok(done)
    }

    /// Write file data — see [`FileSystem::write`].
    pub fn write(&self, ino: Ino, off: u64, data: &[u8]) -> FsResult<usize> {
        let _op = self.op_lock(ino);
        let _span = self.op_span(OpKind::Write);
        self.charge(self.cpu_model().syscall);
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
        let mut ctx = self.data_ctx(ino)?;
        // Crossing the group-size threshold? Move the file out of its
        // groups before it grows further, and stop group-allocating for
        // it — large files take the plain clustered path.
        let final_blocks = (off + data.len() as u64).div_ceil(BLOCK_SIZE as u64);
        if self.cfg.group && final_blocks > self.cfg.group_blocks as u64 {
            let data_blocks = inode.size.div_ceil(BLOCK_SIZE as u64);
            if data_blocks <= self.cfg.group_blocks as u64 && inode.blocks > 0 {
                self.degroup(ino, &mut inode)?;
            }
            if let AllocCtx::Grouped { near, .. } = ctx {
                ctx = AllocCtx::Plain { near };
            }
        }
        let mut done = 0usize;
        while done < data.len() {
            let pos = off + done as u64;
            let lbn = pos / BLOCK_SIZE as u64;
            let in_blk = (pos % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - in_blk).min(data.len() - done);
            let had_block = self.cache.lookup_logical(ino, lbn).is_some()
                || self.bmap(ino, &inode, lbn)?.is_some();
            let blk = self.bmap_alloc(ino, &mut inode, lbn, ctx)?;
            let read_first = had_block && n < BLOCK_SIZE;
            if read_first {
                // A partial overwrite of a grouped block fetches the whole
                // group, exactly like the read path.
                self.fetch_group_for(blk)?;
            }
            let src = &data[done..done + n];
            self.cache
                .modify_block_bound(&self.drv, blk, ino, lbn, read_first, |d| {
                    if !read_first && n < BLOCK_SIZE {
                        d.fill(0);
                    }
                    d[in_blk..in_blk + n].copy_from_slice(src);
                })?;
            self.charge(self.cpu_model().copy_cost(n));
            done += n;
        }
        inode.size = inode.size.max(off + done as u64);
        self.write_inode(ino, &inode, false)?;
        Ok(done)
    }

    /// Truncate/extend a file — see [`FileSystem::truncate`].
    pub fn truncate(&self, ino: Ino, size: u64) -> FsResult<()> {
        let _op = self.op_lock(ino);
        let _span = self.op_span(OpKind::Truncate);
        self.charge(self.cpu_model().syscall);
        if size > MAX_FILE_SIZE {
            return Err(FsError::FileTooBig);
        }
        let mut inode = self.read_inode(ino)?;
        if inode.kind == FileKind::Dir {
            return Err(FsError::IsDir);
        }
        if size < inode.size {
            let keep = size.div_ceil(BLOCK_SIZE as u64);
            bmap::free_from(&self.tree(ino, None), &mut inode, keep)?;
            if !size.is_multiple_of(BLOCK_SIZE as u64) {
                let lbn = size / BLOCK_SIZE as u64;
                if let Some(blk) = self.bmap(ino, &inode, lbn)? {
                    let cut = (size % BLOCK_SIZE as u64) as usize;
                    self.cache
                        .modify_block_bound(&self.drv, blk, ino, lbn, true, |d| d[cut..].fill(0))?;
                }
            }
        }
        inode.size = size;
        self.write_inode(ino, &inode, false)?;
        Ok(())
    }

    /// List a directory — see [`FileSystem::readdir`].
    pub fn readdir(&self, dirino: Ino) -> FsResult<Vec<DirEntry>> {
        let _op = self.op_lock(dirino);
        let _span = self.op_span(OpKind::Readdir);
        self.charge(self.cpu_model().syscall);
        let dinode = self.require_dir(dirino)?;
        let nblocks = dinode.size / BLOCK_SIZE as u64;
        let mut out = Vec::new();
        for lbn in 0..nblocks {
            let blk = self
                .bmap(dirino, &dinode, lbn)?
                .ok_or_else(|| FsError::Corrupt(format!("hole in directory {dirino}")))?;
            let entries = {
                let data = self.fetch_block(blk, dirino, lbn)?;
                dirent::list(&data)?
            };
            self.charge(self.cpu_model().scan_cost(entries.len()));
            for e in entries {
                let ino = self.entry_ino(blk, &e);
                // A listing proves every mapping it returns: warm the
                // namespace cache with the whole directory.
                if let Some(dc) = self.dcache() {
                    dc.insert_pos(dirino, &e.name, ino);
                }
                self.lock_ns().note_parent(ino, dirino);
                out.push(DirEntry { name: e.name, ino, kind: e.kind });
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    /// Flush dirty CG headers, the superblock, and the cache — see
    /// [`FileSystem::sync`].
    pub fn sync(&self) -> FsResult<()> {
        let _span = self.op_span(OpKind::Sync);
        self.charge(self.cpu_model().syscall);
        for cg in 0..self.geo.cg_count {
            let img = {
                let mut s = self.lock_cg(cg);
                if s.dirty {
                    let mut img = vec![0u8; BLOCK_SIZE];
                    s.hdr.write_to(&mut img);
                    s.dirty = false;
                    Some(img)
                } else {
                    None
                }
            };
            if let Some(img) = img {
                self.cache.modify_block(&self.drv, self.geo.cg_header_block(cg), true, false, |d| {
                    d.copy_from_slice(&img)
                })?;
            }
        }
        let sb = self.superblock();
        let mut sb_img = vec![0u8; BLOCK_SIZE];
        sb.write_to(&mut sb_img);
        self.cache
            .modify_block(&self.drv, SB_BLOCK, true, false, |d| d.copy_from_slice(&sb_img))?;
        self.cache.sync(&self.drv)
    }

    /// Space accounting — see [`FileSystem::statfs`].
    pub fn statfs(&self) -> FsResult<StatFs> {
        let _span = self.op_span(OpKind::Statfs);
        Ok(StatFs {
            block_size: BLOCK_SIZE as u32,
            total_blocks: self.geo.total_blocks,
            free_blocks: (0..self.geo.cg_count)
                .map(|cg| self.lock_cg(cg).hdr.block_bitmap.free() as u64)
                .sum(),
            group_slack_blocks: self.lock_groups().total_slack(),
            // Inodes are dynamic: no static table, no preallocation limit.
            total_inodes: u64::MAX,
            free_inodes: u64::MAX,
        })
    }

    /// This thread's simulated clock — see [`FileSystem::now`].
    pub fn now(&self) -> SimTime {
        self.drv.now()
    }

    /// Stack-wide I/O counters — see [`FileSystem::io_stats`].
    pub fn io_stats(&self) -> IoStats {
        IoStats {
            disk: self.drv.disk_stats(),
            driver: self.drv.stats(),
            cache: self.cache.stats(),
        }
    }

    /// Reset I/O counters — see [`FileSystem::reset_io_stats`].
    pub fn reset_io_stats(&self) {
        self.drv.reset_stats();
        self.cache.reset_stats();
    }

    /// Sync then drop clean cache state — see [`FileSystem::drop_caches`].
    pub fn drop_caches(&self) -> FsResult<()> {
        let _span = self.op_span(OpKind::DropCaches);
        self.sync()?;
        self.cache.drop_all(&self.drv)?;
        if let Some(dc) = self.dcache() {
            // Cold boundary: record the epoch's per-shard hit rates
            // into `dcache_hit_pct` and start fresh.
            dc.clear();
        }
        self.drv.with_disk_mut(|d| d.flush_onboard_cache());
        Ok(())
    }

    /// Application-directed grouping — see [`FileSystem::group_hint`].
    pub fn group_hint(&self, dirino: Ino, names: &[&str]) -> FsResult<()> {
        let _op = self.op_lock(dirino);
        let _span = self.op_span(OpKind::GroupHint);
        if !self.cfg.group {
            return Ok(());
        }
        self.charge(self.cpu_model().syscall);
        let dinode = self.require_dir(dirino)?;
        for name in names {
            let Some((blk, _, e)) = self.dir_find(dirino, &dinode, name)? else {
                return Err(FsError::NotFound);
            };
            if e.kind != FileKind::File {
                continue;
            }
            let ino = self.entry_ino(blk, &e);
            let mut inode = self.read_inode(ino)?;
            self.regroup(dirino, ino, &mut inode)?;
            self.write_inode(ino, &inode, false)?;
        }
        Ok(())
    }

    /// The CPU cost model — see [`FileSystem::cpu_model`].
    pub fn cpu_model(&self) -> CpuModel {
        self.cfg.cpu
    }
}

/// `bmap`'s view of one file's pointer tree on a mounted C-FFS. The
/// allocators it calls charge themselves; `ctx` places data blocks and
/// anchors pointer blocks (which are never grouped).
struct Tree<'a> {
    fs: &'a Cffs,
    ino: Ino,
    ctx: Option<AllocCtx>,
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
        let near = match self.ctx {
            Some(AllocCtx::Plain { near } | AllocCtx::Grouped { near, .. }) => near,
            None => 0,
        };
        let blk = self.fs.alloc_plain(near, hint)?;
        self.fs.cache.modify_block(&self.fs.drv, blk, true, false, |d| d.fill(0))?;
        Ok(blk)
    }

    fn alloc_data(&self, lbn: u64, hint: Option<u64>) -> FsResult<u64> {
        let ctx = self.ctx.expect("an allocating map carries its allocation context");
        self.fs.alloc_for(ctx, lbn, hint)
    }

    fn free_data(&self, lbn: u64, blk: u64) {
        self.fs.cache.unbind_logical(self.ino, lbn);
        self.fs.free_block_any(blk);
    }

    fn free_ptr_block(&self, blk: u64) {
        self.fs.free_block_any(blk);
    }
}

impl FileSystem for Cffs {
    fn label(&self) -> &str {
        Cffs::label(self)
    }
    fn root(&self) -> Ino {
        Cffs::root(self)
    }
    fn lookup(&self, dirino: Ino, name: &str) -> FsResult<Ino> {
        Cffs::lookup(self, dirino, name)
    }
    fn getattr(&self, ino: Ino) -> FsResult<Attr> {
        Cffs::getattr(self, ino)
    }
    fn create(&self, dirino: Ino, name: &str) -> FsResult<Ino> {
        Cffs::create(self, dirino, name)
    }
    fn mkdir(&self, dirino: Ino, name: &str) -> FsResult<Ino> {
        Cffs::mkdir(self, dirino, name)
    }
    fn unlink(&self, dirino: Ino, name: &str) -> FsResult<()> {
        Cffs::unlink(self, dirino, name)
    }
    fn rmdir(&self, dirino: Ino, name: &str) -> FsResult<()> {
        Cffs::rmdir(self, dirino, name)
    }
    fn link(&self, target: Ino, dirino: Ino, name: &str) -> FsResult<Ino> {
        Cffs::link(self, target, dirino, name)
    }
    fn rename(&self, odir: Ino, oname: &str, ndir: Ino, nname: &str) -> FsResult<Ino> {
        Cffs::rename(self, odir, oname, ndir, nname)
    }
    fn read(&self, ino: Ino, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        Cffs::read(self, ino, off, buf)
    }
    fn write(&self, ino: Ino, off: u64, data: &[u8]) -> FsResult<usize> {
        Cffs::write(self, ino, off, data)
    }
    fn truncate(&self, ino: Ino, size: u64) -> FsResult<()> {
        Cffs::truncate(self, ino, size)
    }
    fn readdir(&self, dirino: Ino) -> FsResult<Vec<DirEntry>> {
        Cffs::readdir(self, dirino)
    }
    fn sync(&self) -> FsResult<()> {
        Cffs::sync(self)
    }
    fn statfs(&self) -> FsResult<StatFs> {
        Cffs::statfs(self)
    }
    fn now(&self) -> SimTime {
        Cffs::now(self)
    }
    fn io_stats(&self) -> IoStats {
        Cffs::io_stats(self)
    }
    fn reset_io_stats(&self) {
        Cffs::reset_io_stats(self)
    }
    fn drop_caches(&self) -> FsResult<()> {
        Cffs::drop_caches(self)
    }
    fn group_hint(&self, dirino: Ino, names: &[&str]) -> FsResult<()> {
        Cffs::group_hint(self, dirino, names)
    }
    fn cpu_model(&self) -> CpuModel {
        Cffs::cpu_model(self)
    }
    fn obs(&self) -> Option<Arc<Obs>> {
        Some(Cffs::obs(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mkfs::{mkfs, MkfsParams};
    use cffs_disksim::models;
    use cffs_fslib::path;

    fn fresh(cfg: CffsConfig) -> Cffs {
        mkfs(Disk::new(models::tiny_test_disk()), MkfsParams::tiny(), cfg).expect("mkfs")
    }

    #[test]
    fn sparse_file_reads_zero_in_holes() {
        let fs = fresh(CffsConfig::cffs());
        let f = fs.create(fs.root(), "sparse").unwrap();
        // Write one byte far out; everything before is a hole.
        fs.write(f, 1_000_000, b"!").unwrap();
        assert_eq!(fs.getattr(f).unwrap().size, 1_000_001);
        let mut buf = vec![0xFFu8; 4096];
        assert_eq!(fs.read(f, 500_000, &mut buf).unwrap(), 4096);
        assert!(buf.iter().all(|&b| b == 0));
        let mut one = [0u8; 1];
        fs.read(f, 1_000_000, &mut one).unwrap();
        assert_eq!(&one, b"!");
        // Holes consume no blocks beyond what was touched.
        assert!(fs.getattr(f).unwrap().blocks < 5);
    }

    #[test]
    fn double_indirect_mapping_works() {
        let fs = fresh(CffsConfig::cffs());
        let f = fs.create(fs.root(), "deep").unwrap();
        // One block far past the single-indirect range (12 + 1024 blocks).
        let off = (12 + 1024 + 5) * BLOCK_SIZE as u64;
        fs.write(f, off, b"deep-data").unwrap();
        fs.sync().unwrap();
        let mut buf = [0u8; 9];
        assert_eq!(fs.read(f, off, &mut buf).unwrap(), 9);
        assert_eq!(&buf, b"deep-data");
        // Truncating to zero releases everything, double-indirect included.
        let st_before = fs.statfs().unwrap();
        fs.truncate(f, 0).unwrap();
        let st_after = fs.statfs().unwrap();
        assert!(st_after.free_blocks > st_before.free_blocks);
        assert_eq!(fs.getattr(f).unwrap().blocks, 0);
    }

    #[test]
    fn truncate_partial_block_zeroes_tail() {
        let fs = fresh(CffsConfig::cffs());
        let f = fs.create(fs.root(), "t").unwrap();
        fs.write(f, 0, &vec![0xAA; 3000]).unwrap();
        fs.truncate(f, 1000).unwrap();
        fs.write(f, 0, b"").unwrap();
        // Extend again: the old tail must not resurface.
        fs.truncate(f, 3000).unwrap();
        let mut buf = vec![0u8; 3000];
        fs.read(f, 0, &mut buf).unwrap();
        assert!(buf[..1000].iter().all(|&b| b == 0xAA));
        assert!(buf[1000..].iter().all(|&b| b == 0), "stale tail leaked");
    }

    #[test]
    fn deep_hierarchy() {
        let fs = fresh(CffsConfig::cffs());
        let mut p = String::new();
        for d in 0..24 {
            p.push_str(&format!("/level{d}"));
        }
        let dir = path::mkdir_p(&fs, &p).unwrap();
        let f = fs.create(dir, "leaf").unwrap();
        fs.write(f, 0, b"bottom").unwrap();
        assert_eq!(path::read_file(&fs, &format!("{p}/leaf")).unwrap(), b"bottom");
    }

    #[test]
    fn max_name_length_roundtrips() {
        let fs = fresh(CffsConfig::cffs());
        let name = "x".repeat(cffs_fslib::MAX_NAME_LEN);
        let f = fs.create(fs.root(), &name).unwrap();
        assert_eq!(fs.lookup(fs.root(), &name).unwrap(), f);
        let over = "x".repeat(cffs_fslib::MAX_NAME_LEN + 1);
        assert_eq!(fs.create(fs.root(), &over), Err(FsError::BadName));
        fs.unlink(fs.root(), &name).unwrap();
    }

    #[test]
    fn exfile_grows_past_one_block() {
        // Conventional variant: every inode is external; 40+ files force
        // the external inode file past its initial 32 slots.
        let fs = fresh(CffsConfig::conventional());
        let root = fs.root();
        let mut inos = Vec::new();
        for i in 0..80 {
            inos.push(fs.create(root, &format!("f{i:02}")).unwrap());
        }
        assert!(fs.superblock().exfile_slots >= 80);
        assert!(fs.superblock().exfile.blocks >= 2);
        // All still resolvable after remount.
        let disk = fs.unmount().unwrap();
        let fs = Cffs::mount(disk, CffsConfig::conventional()).unwrap();
        for i in 0..80 {
            fs.lookup(fs.root(), &format!("f{i:02}")).unwrap();
        }
    }

    #[test]
    fn exfile_slots_are_reused() {
        let fs = fresh(CffsConfig::conventional());
        let root = fs.root();
        let a = fs.create(root, "a").unwrap();
        fs.unlink(root, "a").unwrap();
        let b = fs.create(root, "b").unwrap();
        assert_eq!(a, b, "freed external slot is recycled lowest-first");
    }

    #[test]
    fn rename_into_subdir_and_back() {
        let fs = fresh(CffsConfig::cffs());
        let root = fs.root();
        let sub = fs.mkdir(root, "sub").unwrap();
        let f0 = fs.create(root, "f").unwrap();
        fs.write(f0, 0, b"moving").unwrap();
        let f1 = fs.rename(root, "f", sub, "f2").unwrap();
        let _ = f1;
        let f = fs.rename(sub, "f2", root, "f3").unwrap();
        let mut buf = [0u8; 6];
        fs.read(f, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"moving");
        assert_eq!(fs.readdir(sub).unwrap().len(), 0);
    }

    #[test]
    fn rename_directory_renumbers_and_children_survive() {
        let fs = fresh(CffsConfig::cffs());
        let root = fs.root();
        let d = fs.mkdir(root, "dir").unwrap();
        for i in 0..30 {
            let ino = fs.create(d, &format!("f{i}")).unwrap();
            fs.write(ino, 0, &vec![i as u8; 512]).unwrap();
        }
        let d2 = fs.rename(root, "dir", root, "renamed").unwrap();
        assert_ne!(d, d2, "embedded directory inode is renumbered");
        // All groups re-owned; all children readable.
        assert!(
            fs.group_index().groups_of(d).is_empty(),
            "groups still owned by the dead ino"
        );
        for i in 0..30 {
            let ino = fs.lookup(d2, &format!("f{i}")).unwrap();
            let mut b = vec![0u8; 512];
            fs.read(ino, 0, &mut b).unwrap();
            assert!(b.iter().all(|&x| x == i as u8));
        }
    }

    #[test]
    fn unlink_missing_and_double_unlink() {
        let fs = fresh(CffsConfig::cffs());
        assert_eq!(fs.unlink(fs.root(), "ghost"), Err(FsError::NotFound));
        let _f = fs.create(fs.root(), "once").unwrap();
        fs.unlink(fs.root(), "once").unwrap();
        assert_eq!(fs.unlink(fs.root(), "once"), Err(FsError::NotFound));
    }

    #[test]
    fn stale_ino_after_unlink_is_rejected() {
        let fs = fresh(CffsConfig::cffs());
        let f = fs.create(fs.root(), "gone").unwrap();
        fs.write(f, 0, b"x").unwrap();
        fs.unlink(fs.root(), "gone").unwrap();
        assert!(fs.getattr(f).is_err());
        assert!(fs.read(f, 0, &mut [0u8; 1]).is_err());
        assert!(fs.write(f, 0, b"y").is_err());
    }

    #[test]
    fn write_at_exactly_group_threshold() {
        // A file of exactly group_blocks * 4 KB stays grouped; one byte
        // more triggers degrouping.
        let fs = fresh(CffsConfig::cffs());
        let root = fs.root();
        let d = fs.mkdir(root, "d").unwrap();
        let f = fs.create(d, "edge").unwrap();
        let limit = fs.config().group_blocks as usize * BLOCK_SIZE;
        fs.write(f, 0, &vec![1u8; limit]).unwrap();
        let mut probe = [0u8; 1];
        fs.read(f, 0, &mut probe).unwrap();
        let blk = fs.cache_block_of(f, 0).unwrap();
        // Still (at least partially) grouped at the limit is allowed —
        // but one more byte must push it out entirely.
        let _ = blk;
        fs.write(f, limit as u64, b"!").unwrap();
        fs.sync().unwrap();
        for lbn in 0..=(limit / BLOCK_SIZE) as u64 {
            fs.read(f, lbn * BLOCK_SIZE as u64, &mut probe).unwrap();
            if let Some(b) = fs.cache_block_of(f, lbn) {
                assert!(
                    fs.group_index().group_of_block(&fs.superblock(), b).is_none(),
                    "block {b} (lbn {lbn}) still grouped past the threshold"
                );
            }
        }
        // Contents intact.
        let data = path::read_all(&fs, f).unwrap();
        assert_eq!(data.len(), limit + 1);
        assert!(data[..limit].iter().all(|&b| b == 1));
    }

    #[test]
    fn readdir_is_sorted_and_complete_at_scale() {
        let fs = fresh(CffsConfig::cffs());
        let d = fs.mkdir(fs.root(), "big").unwrap();
        for i in (0..300).rev() {
            fs.create(d, &format!("e{i:03}")).unwrap();
        }
        let names: Vec<String> = fs.readdir(d).unwrap().into_iter().map(|e| e.name).collect();
        assert_eq!(names.len(), 300);
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn io_is_charged_to_the_clock() {
        let fs = fresh(CffsConfig::cffs());
        let t0 = fs.now();
        let f = fs.create(fs.root(), "timed").unwrap();
        fs.write(f, 0, &vec![0u8; 8192]).unwrap();
        fs.sync().unwrap();
        let t1 = fs.now();
        assert!(t1 > t0, "operations must consume simulated time");
        // Synchronous mode: the create alone required at least one disk
        // write worth of time (~ms scale).
        assert!((t1 - t0).as_nanos() > 1_000_000);
    }

    #[test]
    fn group_read_min_zero_variant_still_correct() {
        let mut cfg = CffsConfig::cffs();
        cfg.group_read_min = 1;
        let fs = fresh(cfg);
        let d = fs.mkdir(fs.root(), "d").unwrap();
        let f = fs.create(d, "f").unwrap();
        fs.write(f, 0, b"data").unwrap();
        fs.drop_caches().unwrap();
        let mut b = [0u8; 4];
        fs.read(f, 0, &mut b).unwrap();
        assert_eq!(&b, b"data");
        assert!(fs.io_stats().cache.group_reads > 0);
    }

    #[test]
    fn tiny_group_blocks_config() {
        let mut cfg = CffsConfig::cffs();
        cfg.group_blocks = 4;
        let fs = fresh(cfg);
        let d = fs.mkdir(fs.root(), "d").unwrap();
        for i in 0..10 {
            let f = fs.create(d, &format!("f{i}")).unwrap();
            fs.write(f, 0, &vec![i as u8; 1024]).unwrap();
        }
        fs.sync().unwrap();
        for g in fs.group_index().iter() {
            assert!(g.nslots <= 4, "extent larger than configured");
        }
        // Image still checks out.
        let mut img = fs.unmount().unwrap();
        assert!(crate::fsck::fsck(&mut img, false).unwrap().clean());
    }

    #[test]
    fn prefetch_extension_reduces_requests_for_large_sequential_reads() {
        let run = |prefetch: u32| {
            let mut cfg = CffsConfig::cffs();
            cfg.prefetch_blocks = prefetch;
            let fs = fresh(cfg);
            let f = fs.create(fs.root(), "big").unwrap();
            fs.write(f, 0, &vec![7u8; 512 * 1024]).unwrap();
            fs.drop_caches().unwrap();
            fs.reset_io_stats();
            let t0 = fs.now();
            let mut buf = vec![0u8; 8192];
            let mut off = 0u64;
            while fs.read(f, off, &mut buf).unwrap() > 0 {
                off += 8192;
            }
            assert!(buf.iter().all(|&b| b == 7));
            (fs.io_stats().disk.reads, (fs.now() - t0))
        };
        let (reqs_off, t_off) = run(0);
        let (reqs_on, t_on) = run(16);
        assert!(
            reqs_on * 4 < reqs_off,
            "prefetch should batch reads: {reqs_on} vs {reqs_off}"
        );
        assert!(t_on < t_off, "prefetch should not slow sequential reads down");
    }

    #[test]
    fn prefetch_never_changes_contents() {
        let mut cfg = CffsConfig::cffs();
        cfg.prefetch_blocks = 8;
        let fs = fresh(cfg);
        let d = fs.mkdir(fs.root(), "d").unwrap();
        let a = fs.create(d, "a").unwrap();
        let b = fs.create(d, "b").unwrap();
        fs.write(a, 0, &vec![1u8; 100_000]).unwrap();
        fs.write(b, 0, &vec![2u8; 50_000]).unwrap();
        fs.drop_caches().unwrap();
        // Interleaved sequential reads of both files.
        let mut ba = vec![0u8; 4096];
        for i in 0..12 {
            fs.read(a, i * 4096, &mut ba).unwrap();
            assert!(ba.iter().all(|&x| x == 1), "a at block {i}");
            fs.read(b, i * 4096, &mut ba).unwrap();
            assert!(ba.iter().all(|&x| x == 2), "b at block {i}");
        }
    }

    #[test]
    fn generation_guard_rejects_recycled_slots() {
        let fs = fresh(CffsConfig::cffs());
        let root = fs.root();
        // Create and delete so the next create reuses the same entry slot.
        let old = fs.create(root, "victim").unwrap();
        fs.write(old, 0, b"old data").unwrap();
        fs.unlink(root, "victim").unwrap();
        let new = fs.create(root, "replacement").unwrap();
        fs.write(new, 0, b"new data").unwrap();
        // Same physical slot, different generation → different ino, and
        // the stale handle is rejected instead of aliasing the new file.
        use crate::layout::{decode_ino, InoRef};
        if let (
            InoRef::Embedded { blk: b1, off: o1, gen: g1 },
            InoRef::Embedded { blk: b2, off: o2, gen: g2 },
        ) = (decode_ino(old), decode_ino(new))
        {
            assert_eq!((b1, o1), (b2, o2), "slot should be recycled in this scenario");
            assert_ne!(g1, g2, "generations must differ");
        } else {
            panic!("expected embedded inodes");
        }
        assert_eq!(fs.getattr(old), Err(FsError::StaleHandle));
        assert_eq!(fs.read(old, 0, &mut [0u8; 8]), Err(FsError::StaleHandle));
        assert!(fs.write(old, 0, b"attack").is_err());
        // The new file is untouched.
        let mut buf = [0u8; 8];
        fs.read(new, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"new data");
    }

    #[test]
    fn link_to_directory_rejected() {
        let fs = fresh(CffsConfig::cffs());
        let d = fs.mkdir(fs.root(), "d").unwrap();
        assert_eq!(fs.link(d, fs.root(), "alias"), Err(FsError::IsDir));
    }

    #[test]
    fn zero_byte_files_everywhere() {
        let fs = fresh(CffsConfig::cffs());
        let d = fs.mkdir(fs.root(), "d").unwrap();
        for i in 0..50 {
            fs.create(d, &format!("empty{i}")).unwrap();
        }
        fs.drop_caches().unwrap();
        for i in 0..50 {
            let ino = fs.lookup(d, &format!("empty{i}")).unwrap();
            let a = fs.getattr(ino).unwrap();
            assert_eq!((a.size, a.blocks), (0, 0));
            assert_eq!(fs.read(ino, 0, &mut [0u8; 8]).unwrap(), 0);
        }
        // Zero-byte files consume no data blocks at all: slack = root's
        // group (1 live dir block) + d's group (3 dir blocks for 50
        // embedded entries at 24/block).
        assert_eq!(fs.group_index().total_slack(), 15 + 13);
    }
}
