//! The VFS layer: [`FileSystem`], the one trait every implementation
//! exposes.
//!
//! Benchmarks, workloads, integration tests and the examples are all
//! written against this trait, so the five C-FFS configurations (classic
//! FFS among them), a multi-disk volume set and the in-memory oracle are
//! interchangeable — the controlled comparison the paper's evidence rests
//! on.
//!
//! ## One receiver: `&self`
//!
//! Every method takes `&self`; an implementation keeps whatever it mutates
//! behind its own interior mutability. Whether one instance may be driven
//! by several threads at once is a property of the *type*, not of a second
//! trait: threaded workloads ask for `FileSystem + Sync`.
//!
//! * `Cffs` and `VolumeSet` shard and lock their own state (per-cylinder-
//!   group allocation maps, the cache's lock, the driver's disk lock) and are
//!   `Sync`. Each client thread advances its own virtual clock (the
//!   thread-local mirror in `cffs_obs::Obs`); elapsed simulated time is the
//!   cross-thread high-water mark `Obs::global_clock_ns`, so CPU work on
//!   different threads overlaps while disk requests serialize on the
//!   shared disk lock.
//! * `ModelFs` serializes every operation behind one mutex and is `Sync`.
//!
//! `&mut` survives only where exclusivity is the point because every
//! outstanding handle is invalidated: `cffs_regroup::{plan, execute,
//! autotrigger, run}` and `VolumeSet::regroup_all`.
//!
//! ## Operations a volume set refuses
//!
//! A `VolumeSet` returns [`crate::FsError::Unsupported`] (`EXDEV`) for
//! [`FileSystem::rmdir`], [`FileSystem::link`], [`FileSystem::rename`] and
//! [`FileSystem::truncate`]: a directory exists on every volume and a
//! striped file on several, so each of the four would have to change more
//! than one device atomically, and a set has no cross-volume transaction.
//!
//! ## Inode-handle stability
//!
//! One C-FFS design consequence surfaces in the trait contract: an embedded
//! inode is *named by its physical location* inside a directory block. Two
//! operations can therefore relocate an inode and change its number:
//!
//! * [`FileSystem::rename`] may move the entry (and the embedded inode with
//!   it) to a different block; it returns the file's possibly-new inode
//!   number.
//! * [`FileSystem::link`] externalizes an embedded inode (multi-link files
//!   keep their inode in the external inode file, exactly as the paper
//!   specifies); it returns the possibly-new inode number of the target.
//!
//! Implementations without embedded inodes simply return the unchanged
//! number. Callers holding handles must adopt the returned values — the
//! same discipline a C-FFS kernel applies to its in-core inode table.

use crate::cpu::CpuModel;
use crate::error::FsResult;
use cffs_disksim::{DiskStats, DriverStats, SimTime, SECTOR_SIZE};
use cffs_obs::json::{Json, ToJson};
use cffs_obs::{obj, Ctr};

/// An inode number. For embedded inodes this encodes a physical location;
/// treat it as opaque.
pub type Ino = u64;

/// What kind of object an inode describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileKind {
    /// Regular file.
    File,
    /// Directory.
    Dir,
}

/// Attributes returned by [`FileSystem::getattr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attr {
    /// The inode number queried.
    pub ino: Ino,
    /// Object kind.
    pub kind: FileKind,
    /// Size in bytes.
    pub size: u64,
    /// Hard-link count.
    pub nlink: u32,
    /// Data blocks allocated (file-system blocks, not sectors).
    pub blocks: u64,
}

/// One entry from [`FileSystem::readdir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name (no path separators).
    pub name: String,
    /// Inode the name refers to.
    pub ino: Ino,
    /// Kind, denormalized into the entry as FFS does.
    pub kind: FileKind,
}

/// Capacity summary returned by [`FileSystem::statfs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatFs {
    /// Block size in bytes.
    pub block_size: u32,
    /// Total data blocks.
    pub total_blocks: u64,
    /// Blocks free for allocation (group-reserved slack excluded).
    pub free_blocks: u64,
    /// Blocks reserved inside partially used groups (C-FFS only; zero
    /// elsewhere). These are reclaimable, just not yet free.
    pub group_slack_blocks: u64,
    /// Total inode slots. `u64::MAX` means "dynamic" (C-FFS embedded
    /// inodes have no static limit — the paper's [Forin94] point).
    pub total_inodes: u64,
    /// Free inode slots (meaningless when `total_inodes` is dynamic).
    pub free_inodes: u64,
}

/// The buffer cache's rows of [`IoStats`], defined here so the trait can
/// expose them without a circular crate dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Block lookups.
    pub lookups: u64,
    /// Hits via the physical-address index.
    pub phys_hits: u64,
    /// Hits via the logical (file, offset) index.
    pub logical_hits: u64,
    /// Group-fetched blocks later claimed by their file ("back-binding",
    /// the paper's Section 3 mechanism).
    pub backbinds: u64,
    /// Buffers evicted.
    pub evictions: u64,
    /// Dirty buffers written back.
    pub writebacks: u64,
    /// Synchronous (ordering-constrained) metadata writes.
    pub sync_writes: u64,
    /// Group reads issued.
    pub group_reads: u64,
    /// Blocks brought in by group reads.
    pub group_read_blocks: u64,
}


impl ToJson for CacheStats {
    fn to_json(&self) -> Json {
        obj![
            ("lookups", self.lookups.to_json()),
            ("phys_hits", self.phys_hits.to_json()),
            ("logical_hits", self.logical_hits.to_json()),
            ("backbinds", self.backbinds.to_json()),
            ("evictions", self.evictions.to_json()),
            ("writebacks", self.writebacks.to_json()),
            ("sync_writes", self.sync_writes.to_json()),
            ("group_reads", self.group_reads.to_json()),
            ("group_read_blocks", self.group_read_blocks.to_json()),
        ]
    }
}

impl CacheStats {
    /// Counters accumulated since `baseline`.
    pub fn delta_since(&self, baseline: &CacheStats) -> CacheStats {
        CacheStats {
            lookups: self.lookups - baseline.lookups,
            phys_hits: self.phys_hits - baseline.phys_hits,
            logical_hits: self.logical_hits - baseline.logical_hits,
            backbinds: self.backbinds - baseline.backbinds,
            evictions: self.evictions - baseline.evictions,
            writebacks: self.writebacks - baseline.writebacks,
            sync_writes: self.sync_writes - baseline.sync_writes,
            group_reads: self.group_reads - baseline.group_reads,
            group_read_blocks: self.group_read_blocks - baseline.group_read_blocks,
        }
    }
}

/// Combined I/O accounting: what the E8 reproduction reads out. A view
/// of the stack's monotonic `cffs_obs` counters (see
/// [`IoStats::from_counters`]), so it is cumulative; a phase is the
/// [`delta_since`](IoStats::delta_since) of two views.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoStats {
    /// Drive-level counters.
    pub disk: DiskStats,
    /// Driver-level counters (coalescing).
    pub driver: DriverStats,
    /// Buffer-cache counters.
    pub cache: CacheStats,
}

impl IoStats {
    /// The one way to build the view: every field is what `get` returns
    /// for its counter (one registry's value, or a sum over volumes), and
    /// the disk's controller overhead is what its service time leaves
    /// after seek, rotation and transfer.
    pub fn from_counters(get: impl Fn(Ctr) -> u64) -> IoStats {
        let (seek_ns, rotation_ns) = (get(Ctr::DiskSeekNs), get(Ctr::DiskRotationNs));
        let (transfer_ns, busy_ns) = (get(Ctr::DiskTransferNs), get(Ctr::DiskServiceNs));
        IoStats {
            disk: DiskStats {
                reads: get(Ctr::DiskReads),
                writes: get(Ctr::DiskWrites),
                sectors_read: get(Ctr::DiskBytesRead) / SECTOR_SIZE as u64,
                sectors_written: get(Ctr::DiskBytesWritten) / SECTOR_SIZE as u64,
                cache_hits: get(Ctr::DiskCacheHits),
                seek_ns,
                rotation_ns,
                transfer_ns,
                // Saturating: a view read while another thread's request
                // is half counted may see a bucket ahead of the total.
                overhead_ns: busy_ns.saturating_sub(seek_ns + rotation_ns + transfer_ns),
                busy_ns,
            },
            driver: DriverStats {
                logical_requests: get(Ctr::DriverLogicalRequests),
                physical_requests: get(Ctr::DriverPhysicalRequests),
                coalesced: get(Ctr::DriverCoalesced),
                batches: get(Ctr::DriverBatches),
            },
            cache: CacheStats {
                lookups: get(Ctr::CacheLookups),
                phys_hits: get(Ctr::CachePhysHits),
                logical_hits: get(Ctr::CacheLogicalHits),
                backbinds: get(Ctr::CacheBackbinds),
                evictions: get(Ctr::CacheEvictions),
                writebacks: get(Ctr::CacheWritebacks),
                sync_writes: get(Ctr::CacheSyncFlushes),
                group_reads: get(Ctr::CacheGroupReads),
                group_read_blocks: get(Ctr::CacheGroupReadBlocks),
            },
        }
    }

    /// Counters accumulated since `baseline`: a phase's I/O.
    pub fn delta_since(&self, baseline: &IoStats) -> IoStats {
        IoStats {
            disk: self.disk.delta_since(&baseline.disk),
            driver: self.driver.delta_since(&baseline.driver),
            cache: self.cache.delta_since(&baseline.cache),
        }
    }
}

impl ToJson for IoStats {
    fn to_json(&self) -> Json {
        obj![
            ("disk", self.disk.to_json()),
            ("driver", self.driver.to_json()),
            ("cache", self.cache.to_json()),
        ]
    }
}

/// Metadata-integrity policy — the paper's Section 4 experimental axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetadataMode {
    /// Synchronous, ordered metadata writes: the conventional FFS approach
    /// the paper measures first.
    #[default]
    Synchronous,
    /// All metadata updates delayed (written at sync). Emulates soft
    /// updates exactly the way the paper does: "we have not yet actually
    /// implemented soft updates in C-FFS, but rather emulate it by using
    /// delayed writes for all metadata updates".
    Delayed,
}

/// The interface every file system in this workspace implements.
pub trait FileSystem {
    /// Short label for reports, e.g. `"C-FFS"` or `"conventional"`.
    fn label(&self) -> &str;

    /// The root directory's inode number.
    fn root(&self) -> Ino;

    /// Look `name` up in directory `dir`.
    fn lookup(&self, dir: Ino, name: &str) -> FsResult<Ino>;

    /// Fetch attributes of `ino`.
    fn getattr(&self, ino: Ino) -> FsResult<Attr>;

    /// Create a regular file named `name` in `dir`. Fails with
    /// [`crate::FsError::Exists`] if the name is taken.
    fn create(&self, dir: Ino, name: &str) -> FsResult<Ino>;

    /// Create a directory.
    fn mkdir(&self, dir: Ino, name: &str) -> FsResult<Ino>;

    /// Remove a file name. The file's storage is freed when the last link
    /// goes (there are no open-file reference counts in the simulation).
    fn unlink(&self, dir: Ino, name: &str) -> FsResult<()>;

    /// Remove an empty directory.
    fn rmdir(&self, dir: Ino, name: &str) -> FsResult<()>;

    /// Add a hard link `dir/name` to `target` (a regular file). Returns the
    /// target's inode number after the operation — C-FFS externalizes an
    /// embedded inode here, which renumbers it.
    fn link(&self, target: Ino, dir: Ino, name: &str) -> FsResult<Ino>;

    /// Rename `odir/oname` to `ndir/nname`, replacing any existing file at
    /// the destination. Returns the moved object's inode number after the
    /// operation (embedded inodes move with their entry).
    fn rename(&self, odir: Ino, oname: &str, ndir: Ino, nname: &str) -> FsResult<Ino>;

    /// Read up to `buf.len()` bytes at `off`; returns bytes read (short at
    /// end of file).
    fn read(&self, ino: Ino, off: u64, buf: &mut [u8]) -> FsResult<usize>;

    /// Write `data` at `off`, extending the file as needed; returns bytes
    /// written.
    fn write(&self, ino: Ino, off: u64, data: &[u8]) -> FsResult<usize>;

    /// Truncate (or zero-extend) to `size` bytes.
    fn truncate(&self, ino: Ino, size: u64) -> FsResult<()>;

    /// List a directory (excluding `.` and `..`, which the simulation keeps
    /// implicit).
    fn readdir(&self, dir: Ino) -> FsResult<Vec<DirEntry>>;

    /// Write back all dirty state. On return the on-disk image is
    /// consistent and complete — the paper "forcefully write[s] back all
    /// dirty blocks before considering the measurement complete".
    fn sync(&self) -> FsResult<()>;

    /// Capacity summary.
    fn statfs(&self) -> FsResult<StatFs>;

    /// The calling thread's current simulated time (the experiment clock).
    fn now(&self) -> SimTime;

    /// Cumulative I/O statistics: a view of the stack's counters (zero
    /// for a stack without them). Take the
    /// [`delta_since`](IoStats::delta_since) of two for a phase.
    fn io_stats(&self) -> IoStats;

    /// Sync, then drop all clean cached state, emulating a remount so the
    /// next phase starts cold — how the benchmark separates create and read
    /// phases. Implementations without caches may no-op.
    fn drop_caches(&self) -> FsResult<()> {
        self.sync()
    }

    /// Application-directed grouping hint (the paper's Section 6 future
    /// work): ask that the named files in `dir` be co-located in one group.
    /// Default: ignored.
    fn group_hint(&self, _dir: Ino, _names: &[&str]) -> FsResult<()> {
        Ok(())
    }

    /// The CPU cost model in effect (for workload think-time accounting).
    fn cpu_model(&self) -> CpuModel {
        CpuModel::default()
    }

    /// The stack-wide observability handle (counter registry + event
    /// trace), when the implementation carries one. Benchmarks snapshot it
    /// per phase; `None` means the stack has no instrumentation.
    fn obs(&self) -> Option<std::sync::Arc<cffs_obs::Obs>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statfs_default_is_zeroed() {
        let s = StatFs::default();
        assert_eq!(s.free_blocks, 0);
        assert_eq!(s.group_slack_blocks, 0);
    }

    #[test]
    fn io_stats_view_maps_and_derives_from_counters() {
        let view = |scale: u64| {
            IoStats::from_counters(|c| {
                scale
                    * match c {
                        Ctr::DiskReads => 3,
                        Ctr::DiskBytesRead => 3 * 4096,
                        Ctr::DiskServiceNs => 100,
                        Ctr::DiskSeekNs => 30,
                        Ctr::DiskRotationNs => 20,
                        Ctr::DiskTransferNs => 10,
                        Ctr::DriverCoalesced => 5,
                        Ctr::CacheSyncFlushes => 7,
                        _ => 0,
                    }
            })
        };
        let (one, two) = (view(1), view(2));
        assert_eq!((one.disk.reads, one.disk.sectors_read), (3, 24));
        assert_eq!((one.disk.busy_ns, one.disk.overhead_ns), (100, 40));
        assert_eq!((one.driver.coalesced, one.cache.sync_writes), (5, 7));
        assert_eq!(two.delta_since(&one), one, "a phase is the delta of two views");
    }

    #[test]
    fn metadata_mode_default_is_synchronous() {
        assert_eq!(MetadataMode::default(), MetadataMode::Synchronous);
    }

    #[test]
    fn trait_is_object_safe() {
        // Compile-time check: we rely on `&dyn FileSystem` everywhere.
        fn _takes_dyn(_fs: &dyn FileSystem) {}
    }
}
