//! The mounted C-FFS and its [`FileSystem`] implementation.
//!
//! ## The five configurations
//!
//! [`CffsConfig`] toggles the paper's two techniques independently, and
//! places inodes one of three ways ([`InodePlacement`]):
//!
//! | constructor | inodes | explicit grouping |
//! |---|---|---|
//! | [`CffsConfig::ffs`] | per-CG static table | off |
//! | [`CffsConfig::conventional`] | external inode file | off |
//! | [`CffsConfig::embedded_only`] | embedded | off |
//! | [`CffsConfig::grouping_only`] | external inode file | on |
//! | [`CffsConfig::cffs`] | embedded | on |
//!
//! With embedding off, every inode lives in the external inode file and the
//! system behaves like an FFS with a dynamically allocated inode table —
//! the paper's "same file system without these techniques" baseline.
//! Classic FFS is that baseline with the inodes in static tables inside
//! each cylinder group instead, sized at mkfs.
//!
//! ## Metadata ordering
//!
//! In synchronous mode, conventional create/delete each take **two**
//! ordered synchronous writes (inode block, directory block). With embedded
//! inodes the name and inode share one 512-byte sector, so create/delete
//! take **one** synchronous *sector* write and the ordering constraint
//! between name and inode disappears — the paper's Section 3 argument,
//! reproduced literally by [`cffs_cache::Cache::flush_sector_sync`].
//!
//! ## Inode renumbering
//!
//! Embedded inode numbers encode physical location, so two operations
//! renumber files: `rename` (the entry moves) and `link` (the inode is
//! externalized). Both return the new number, the in-core caches are
//! purged ([`cffs_cache::Cache::purge_ino`]), and group ownership is
//! transferred ([`crate::groups::GroupIndex::reown`]) — the same
//! bookkeeping a C-FFS kernel does against its in-core inode table.
//!
//! ## Layout
//!
//! This file holds the configuration, the mount's state and its one
//! lock, and inode access; `Cffs`'s other methods live by concern in `mount`,
//! `namespace`, `data` and `grouping`.

mod data;
mod grouping;
mod mount;
mod namespace;

use data::Fetch;
use crate::dirent::{self, EntryLoc};
use crate::exfile::SlotPool;
use crate::groups::GroupIndex;
use crate::layout::{decode_ino, CgHeader, GroupDescDisk, InoRef, Superblock, GEN_MASK, GROUP_BLOCKS, INO_ROOT};
use cffs_cache::{Cache, CacheConfig};
use cffs_dcache::Dcache;
use cffs_disksim::driver::{Driver, Scheduler};
use cffs_disksim::{SimDuration, SimTime};
use cffs_fslib::inode::Inode;
use cffs_fslib::vfs::MetadataMode;
use cffs_fslib::{Attr, CpuModel, DirEntry, FsError, FsResult, FileSystem, Ino, IntMap, IoStats, StatFs, BLOCK_SIZE};
use cffs_obs::{Ctr, Obs, OpKind, SpanGuard};
use std::sync::{Arc, Mutex, MutexGuard};

/// Where a mount keeps its inodes. The per-CG table is an on-disk format
/// of its own, fixed at mkfs; the other two share one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InodePlacement {
    /// Single-link inodes inside the directory entry that names them;
    /// multi-link files and the root in the external inode file (C-FFS).
    Embedded,
    /// Every inode in the external inode file, a growable table.
    InodeFile,
    /// Every inode in a static table after its cylinder group's header,
    /// in the table of its directory's home group (classic FFS).
    CgTable,
}

/// Configuration of a C-FFS mount.
#[derive(Debug, Clone)]
pub struct CffsConfig {
    /// Where inodes live.
    pub inodes: InodePlacement,
    /// Allocate small-file blocks from per-directory group extents and
    /// read/write them as units.
    pub group: bool,
    /// Minimum length of the live run around a missed grouped block for
    /// the miss to fetch that run as one group read.
    pub group_read_min: u32,
    /// Blocks per group extent (1..=16; the paper's unit is 16 = 64 KB).
    /// Exposed for the group-size ablation (`repro ablation`).
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
    fn base(inodes: InodePlacement, group: bool, label: &str) -> Self {
        CffsConfig {
            inodes,
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
        Self::base(InodePlacement::Embedded, true, "C-FFS")
    }

    /// Both techniques off: the paper's conventional baseline.
    pub fn conventional() -> Self {
        Self::base(InodePlacement::InodeFile, false, "conventional")
    }

    /// Embedded inodes only.
    pub fn embedded_only() -> Self {
        Self::base(InodePlacement::Embedded, false, "embedded inodes")
    }

    /// Explicit grouping only.
    pub fn grouping_only() -> Self {
        Self::base(InodePlacement::InodeFile, true, "explicit grouping")
    }

    /// Classic FFS: the conventional baseline with static per-CG inode
    /// tables.
    pub fn ffs() -> Self {
        Self::base(InodePlacement::CgTable, false, "FFS")
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

/// External-inode-file state: the only superblock fields that change
/// after mkfs, kept apart from the immutable geometry. With per-CG tables
/// the file stays empty and `expool` holds the tables' free slots.
#[derive(Debug)]
struct ExMeta {
    exfile: Inode,
    exfile_slots: u32,
    expool: SlotPool,
}

/// One cylinder group's in-core header plus its dirty flag.
#[derive(Debug)]
struct CgSlot {
    hdr: CgHeader,
    dirty: bool,
}

impl CgSlot {
    /// Store group descriptor `i` in the header (the group index's
    /// persist callback) and mark the header dirty.
    fn set_group(&mut self, i: u32, d: Option<&GroupDescDisk>) {
        self.hdr.groups[i as usize] = d.copied();
        self.dirty = true;
    }
}

/// Bound on [`NsState::parent_of`]: beyond this many entries the oldest
/// insertions are evicted FIFO. The map is a *hint* (allocation
/// anchoring, group prefetch); losing an entry costs a fallback anchor,
/// never correctness, so million-file trees can't grow it without
/// limit. Sized so every historical workload stays comfortably inside
/// (no eviction means byte-identical timelines).
const NS_PARENT_CAP: usize = 1 << 16;

/// Namespace knowledge: child inode -> naming directory, and last
/// logical block read per inode for sequential-read detection.
#[derive(Debug)]
struct NsState {
    parent_of: IntMap<Ino, Ino>,
    /// Insertion order of `parent_of` keys, for FIFO eviction at
    /// [`NS_PARENT_CAP`]. May hold stale keys (removed or renumbered
    /// inodes); eviction skips them.
    parent_fifo: std::collections::VecDeque<Ino>,
    last_read: IntMap<Ino, u64>,
}

impl NsState {
    /// Record `child`'s naming directory, evicting the oldest hints
    /// once the map is full. A FIFO that is full and at least half stale
    /// drops its stale keys instead of growing, so create/unlink churn
    /// neither grows it without bound nor reallocates it.
    fn note_parent(&mut self, child: Ino, dir: Ino) {
        if self.parent_of.insert(child, dir).is_none() {
            let (fifo, live) = (&mut self.parent_fifo, &self.parent_of);
            if fifo.len() == fifo.capacity() && fifo.len() >= 2 * live.len() {
                fifo.retain(|k| live.contains_key(k));
            }
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

/// Everything a mount changes after mkfs, guarded by its one lock: the
/// buffer cache, the external inode slots, every cylinder group's header,
/// the group index and the namespace hints.
struct Inner {
    cache: Cache,
    meta: ExMeta,
    cgs: Vec<CgSlot>,
    groups: GroupIndex,
    ns: NsState,
    /// Rotor for spreading new directories across cylinder groups (the
    /// FFS policy; C-FFS keeps it, per the paper's "what is not
    /// different" discussion of allocation).
    dir_rotor: u32,
    /// Generation counter for freshly embedded inodes (wraps in
    /// 1..=0x7FFF; 15 bits travel in the inode number as a stale-handle
    /// guard).
    gen_counter: u32,
}

/// A mounted C-FFS.
///
/// ## Concurrency model
///
/// `Cffs` is `Send + Sync`: every operation takes `&self`. Its mutable
/// state is one plain struct behind one mutex, which each public entry
/// point takes once, holds for its whole body and passes down as `&mut`
/// (an entry point that does another's work calls its internals instead
/// of locking again). Under it the only locks are leaves: the dcache's
/// shard locks, taken and released with nothing acquired inside, and
/// the disk mutex (see DESIGN.md §10). Contention surfaces in the
/// `lock_wait_ns_*` counters.
pub struct Cffs {
    drv: Driver,
    obs: Arc<Obs>,
    /// Immutable geometry snapshot. Its `exfile`/`exfile_slots` fields
    /// are stale after mount; the live copies are in `Inner::meta` and
    /// merged back by [`Cffs::superblock`] and `sync`.
    geo: Superblock,
    inner: Mutex<Inner>,
    /// Sharded namespace cache ((parent, name) -> ino, with negative
    /// entries). `None` unless `cfg.dcache_entries > 0`. Shard locks
    /// are leaves.
    dcache: Option<Dcache>,
    cfg: CffsConfig,
    /// Armed flight recorder for this mount (`None` unless the process
    /// opted in via `cffs_obs::flight::set_global`, i.e. `--flight`).
    /// Held so unmount detaches the pacer and dumps (reason `"detach"`).
    _flight: Option<cffs_obs::feed::TapGuard>,
}

impl std::fmt::Debug for Cffs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cffs")
            .field("label", &self.cfg.label)
            .field("cg_count", &self.geo.cg_count)
            .finish_non_exhaustive()
    }
}

// One mount, shared by worker threads (the benchmark's `Fs` trait is `Sync`).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Cffs>();
};

impl Cffs {
    // ----- locking ------------------------------------------------------

    /// The file system's one lock, taken once per public entry point.
    /// Contention is charged to `lock_wait_ns_alloc`.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.obs.lock_timed(&self.inner, Ctr::LockWaitNsAlloc)
    }

    /// The namespace cache, when configured (`cfg.dcache_entries > 0`).
    fn dcache(&self) -> Option<&Dcache> {
        self.dcache.as_ref()
    }

    fn charge(&self, d: SimDuration) {
        self.drv.advance(d);
    }

    /// Open a causal attribution span for one public entry point: every
    /// disk request issued while it is open is stamped with this op (see
    /// [`Obs::span`]; nested entry-point calls stay attributed to the
    /// outermost op).
    fn op_span(&self, op: OpKind) -> SpanGuard<'_> {
        self.obs.span(op)
    }

    /// Next generation stamp for a freshly embedded inode.
    fn next_gen(st: &mut Inner) -> u16 {
        st.gen_counter = (st.gen_counter % 0x7FFF) + 1;
        st.gen_counter as u16
    }

    /// Physical location of external slot `slot`.
    fn exfile_locate(&self, st: &mut Inner, slot: u32) -> FsResult<(u64, usize)> {
        if slot >= st.meta.exfile_slots {
            return Err(FsError::StaleHandle);
        }
        let exinode = st.meta.exfile.clone();
        self.geo
            .slot_location(slot, |lbn| self.bmap(st, INO_ROOT, &exinode, lbn))?
            .ok_or_else(|| FsError::Corrupt("hole in external inode file".into()))
    }

    /// Allocate an external inode slot: the lowest free one in `home`'s
    /// table, spilling to the following groups' when it is full; from the
    /// inode file, grown if needed, when there are no tables.
    fn alloc_external_slot(&self, st: &mut Inner, home: u32) -> FsResult<u32> {
        self.charge(self.cpu_model().alloc_op);
        if let Some(s) = st.meta.expool.take(home * self.geo.slots_per_table()) {
            return Ok(s);
        }
        if self.geo.itable_bytes != 0 {
            return Err(FsError::NoInodes);
        }
        // Grow by one block. The external file's blocks never participate
        // in grouping and never move.
        let mut exinode = st.meta.exfile.clone();
        let lbn = exinode.size / BLOCK_SIZE as u64;
        let blk = self.bmap_alloc(st, INO_ROOT, &mut exinode, lbn, AllocCtx::Plain { near: 0 })?;
        st.cache.modify_block(&self.drv, blk, true, false, |d| d.fill(0))?;
        exinode.size += BLOCK_SIZE as u64;
        let m = &mut st.meta;
        m.exfile = exinode;
        let range = m.expool.grow();
        m.exfile_slots = range.end;
        Ok(m.expool.take(0).expect("just grew"))
    }

    // ----- inode access -------------------------------------------------

    fn read_inode(&self, st: &mut Inner, ino: Ino) -> FsResult<Inode> {
        self.read_inode_with(st, ino, Fetch::Run)
    }

    /// Read an inode; a miss on an embedded inode's directory block is
    /// served as `fetch` says.
    fn read_inode_with(&self, st: &mut Inner, ino: Ino, fetch: Fetch) -> FsResult<Inode> {
        self.charge(self.cpu_model().block_op);
        match decode_ino(ino) {
            InoRef::External(slot) => {
                self.obs.bump(Ctr::FsExternalInodeOps);
                let (blk, off) = self.exfile_locate(st, slot)?;
                let data = st.cache.read_block(&self.drv, blk)?;
                Inode::read_from(&data, off).ok_or(FsError::StaleHandle)
            }
            InoRef::Embedded { blk, off, gen } => {
                self.obs.bump(Ctr::FsEmbeddedInodeOps);
                let data = match st.cache.read_resident(blk, None) {
                    Some(data) => data,
                    None => {
                        self.fetch_group_for(st, blk, fetch)?;
                        st.cache.read_block(&self.drv, blk)?
                    }
                };
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
    fn write_inode(&self, st: &mut Inner, ino: Ino, inode: &Inode, durable: bool) -> FsResult<()> {
        self.charge(self.cpu_model().block_op);
        let sync = durable && self.cfg.metadata_mode == MetadataMode::Synchronous;
        if durable {
            self.obs.bump(if sync {
                Ctr::FsSyncMetaWrites
            } else {
                Ctr::FsDelayedMetaWrites
            });
        }
        match decode_ino(ino) {
            InoRef::External(slot) => {
                self.obs.bump(Ctr::FsExternalInodeOps);
                let (blk, off) = self.exfile_locate(st, slot)?;
                st.cache.modify_block(&self.drv, blk, true, true, |d| inode.write_to(d, off))?;
                if sync {
                    st.cache.flush_block_sync(&self.drv, blk)?;
                }
            }
            InoRef::Embedded { blk, off, gen } => {
                self.obs.bump(Ctr::FsEmbeddedInodeOps);
                let img = {
                    let data = st.cache.read_block(&self.drv, blk)?;
                    let entry = dirent::entry_at(&data, off)?;
                    if entry.gen != gen {
                        return Err(FsError::StaleHandle);
                    }
                    match entry.loc {
                        EntryLoc::Embedded(img) => img,
                        EntryLoc::External(_) => return Err(FsError::StaleHandle),
                    }
                };
                st.cache.modify_block(&self.drv, blk, true, true, |d| inode.write_to(d, img))?;
                if sync {
                    st.cache.flush_sector_sync(&self.drv, blk, off)?;
                }
            }
        }
        Ok(())
    }

    /// Clear an external inode slot and return it to the pool.
    fn free_external_slot(&self, st: &mut Inner, slot: u32, durable: bool) -> FsResult<()> {
        let (blk, off) = self.exfile_locate(st, slot)?;
        st.cache.modify_block(&self.drv, blk, true, true, |d| Inode::clear_slot(d, off))?;
        if durable && self.cfg.metadata_mode == MetadataMode::Synchronous {
            st.cache.flush_block_sync(&self.drv, blk)?;
        }
        st.meta.expool.put(slot);
        Ok(())
    }
}

/// Forwards to the public operations in the submodules, all `&self` and
/// safe to call from several threads at once. Inherent methods win method
/// resolution, so `fs.read(...)` on a concrete `Cffs` hits them directly
/// with no trait import.
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
    use cffs_disksim::{models, Disk};
    use cffs_fslib::path;

    fn fresh(cfg: CffsConfig) -> Cffs {
        mkfs(Disk::new(models::tiny_test_disk()), MkfsParams::tiny(), cfg).expect("mkfs")
    }

    /// One walk per name, in chunk walks (a block is 8): a synchronous
    /// embedded create over an n-block directory walks each block once —
    /// its existence scan; the insert re-fetches without walking and the
    /// placement takes the scan's masks — plus the chunk its entry goes
    /// in. An unlink walks the blocks up to its name, then one chunk for
    /// the embedded inode and one for the removal.
    #[test]
    fn a_create_walks_each_block_once_and_an_unlink_one_chunk_past_its_name() {
        let fs = fresh(CffsConfig::cffs().with_mode(MetadataMode::Synchronous));
        let root = fs.root();
        for i in 0..150 {
            fs.create(root, &format!("f{i:03}")).unwrap();
        }
        for i in (0..150).step_by(3) {
            fs.unlink(root, &format!("f{i:03}")).unwrap();
        }
        let n = fs.getattr(root).unwrap().size / BLOCK_SIZE as u64;
        assert!(n >= 6, "a {n}-block directory");
        for k in 0..10 {
            let before = dirent::walked_chunks();
            fs.create(root, &format!("n{k:03}")).unwrap();
            assert_eq!(dirent::walked_chunks() - before, 8 * n + 1, "create n{k:03}");
        }
        for name in ["f001", "f077", "f149"] {
            let InoRef::Embedded { blk, off, .. } = decode_ino(fs.lookup(root, name).unwrap()) else {
                panic!("{name} is embedded");
            };
            let lbn = (0..n).find(|&l| fs.cache_block_of(root, l) == Some(blk)).expect("a root block");
            let before = dirent::walked_chunks();
            fs.unlink(root, name).unwrap();
            let to_name = 8 * lbn + (off / dirent::DIRBLKSIZ) as u64 + 1;
            assert_eq!(dirent::walked_chunks() - before, to_name + 2, "unlink {name}");
        }
    }

    /// `fs.group_index().group_of_block(..)` takes its geometry from the
    /// guard: it returns, where reading the superblock inside the
    /// expression used to deadlock on the file system's lock.
    #[test]
    fn group_of_block_through_the_guard_returns() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            let fs = fresh(CffsConfig::cffs());
            let f = fs.create(fs.root(), "g").unwrap();
            fs.write(f, 0, &[1u8; 100]).unwrap();
            let blk = fs.cache_block_of(f, 0).expect("resident");
            tx.send(fs.group_index().group_of_block(blk).is_some()).unwrap();
        });
        let grouped = rx.recv_timeout(Duration::from_secs(30)).expect("group_of_block deadlocked");
        assert!(grouped, "a small file's block is grouped");
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
                    fs.group_index().group_of_block(b).is_none(),
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
            let (io0, t0) = (fs.io_stats(), fs.now());
            let mut buf = vec![0u8; 8192];
            let mut off = 0u64;
            while fs.read(f, off, &mut buf).unwrap() > 0 {
                off += 8192;
            }
            assert!(buf.iter().all(|&b| b == 7));
            (fs.io_stats().delta_since(&io0).disk.reads, (fs.now() - t0))
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
        // Delayed metadata places entries first fit (synchronous creates
        // choose their sector by rotation), so the slot is recycled.
        let fs = fresh(CffsConfig::cffs().with_mode(MetadataMode::Delayed));
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
