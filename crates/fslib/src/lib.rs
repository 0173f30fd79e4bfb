#![warn(missing_docs)]

//! # cffs-fslib
//!
//! Shared file-system infrastructure for the C-FFS reproduction:
//!
//! * [`vfs::FileSystem`] — the one trait every implementation (C-FFS in
//!   its five configurations, classic FFS among them, the multi-disk
//!   volume set and the in-memory oracle) exposes, every method on `&self`; benchmarks and
//!   integration tests are written against it, and threaded ones ask for
//!   `FileSystem + Sync`.
//! * [`error::FsError`] — the common error type.
//! * [`bitmap::Bitmap`] — block/inode bitmaps with contiguous-run search
//!   (explicit grouping needs 16-block extents).
//! * [`bmap`] — the inode's direct / single- / double-indirect pointer
//!   tree (lookup, allocating map, relocation re-point, truncate, fsck
//!   walk), shared by both file systems and both checkers. Callers supply
//!   the storage through six hook operations ([`bmap::PtrRead`]: read a
//!   pointer block; [`bmap::PtrStore`]: rewrite one, allocate a zeroed
//!   pointer block or a data block near a hint, free a data block or a
//!   pointer block) and keep every simulated-CPU charge on their side,
//!   because FFS and C-FFS charge their allocators differently.
//! * [`file`] — the byte-range data path (`read`, `write`, `truncate`) and
//!   the directory-block walk, shared by both file systems. It owns the
//!   per-block loop, the probe order (the cache's logical index, then the
//!   block map), read-before-partial-overwrite, zero-filled fresh blocks,
//!   holes reading as zeros, `size` upkeep and tail zeroing. The caller's
//!   [`file::FileStore`] (its `bmap` hook plus seven operations: the inode
//!   number, charge, the cost model, the logical-index probe, a bound
//!   fetch, a bound modify, and a step before a partial overwrite) does
//!   every cache call and charge, so each file system's sequence of both
//!   is its own: C-FFS group-fetches inside its fetch and before a partial
//!   overwrite, and keeps degrouping (before a write) and read-ahead
//!   (after a read) around the call.
//! * [`fsck`] — the checkers' shared [`fsck::FsckReport`], the
//!   check-repair-verify sequence (which flushes the flight recorder on an
//!   unclean verdict), and bitmap reconciliation.
//! * [`cpu::CpuModel`] — per-operation CPU costs charged to the simulated
//!   clock, calibrated to the paper's 120 MHz Pentium testbed.
//! * [`path`] — `mkdir -p` / read / write convenience helpers over any
//!   `FileSystem`.
//! * [`model::ModelFs`] — a HashMap-backed reference implementation behind
//!   one mutex, used as the oracle in property tests, threaded ones
//!   included.
//! * [`codec`] — little-endian on-disk integer codecs.
//! * [`hash::IntMap`] — `HashMap` with a multiplicative hasher for the
//!   process-private integer-keyed indexes on the cache hit paths
//!   (`cffs_disksim::hash`, re-exported: the sector store keys its
//!   chunks with it too).

pub mod bitmap;
pub mod bmap;
pub mod codec;
pub mod cpu;
pub mod error;
pub mod file;
pub mod fsck;
pub mod inode;
pub mod model;
pub mod path;
pub mod vfs;

pub use bitmap::Bitmap;
pub use cpu::CpuModel;
pub use error::{FsError, FsResult};
pub use cffs_disksim::hash;
pub use hash::IntMap;
pub use inode::Inode;
pub use vfs::{
    Attr, CacheStats, DirEntry, FileKind, FileSystem, Ino, IoStats, MetadataMode, StatFs,
};
/// Residue of the former second trait: `benchmark/src/fsapi.rs` still
/// spells the trait this way. Nothing else may; the next change to
/// `benchmark/` drops this line.
pub use vfs::FileSystem as ConcurrentFs;

/// File-system block size in bytes. The paper's implementation used 4 KB
/// blocks with no fragments; so do we.
pub const BLOCK_SIZE: usize = 4096;

/// Sectors per file-system block.
pub const SECTORS_PER_BLOCK: u64 = (BLOCK_SIZE / cffs_disksim::SECTOR_SIZE) as u64;

/// Maximum file-name length, as in FFS.
pub const MAX_NAME_LEN: usize = 255;

/// Timing-free read of file-system block `blk` from an image: what the
/// checkers see (a mounted file system reads through its buffer cache).
pub fn read_block(disk: &cffs_disksim::Disk, blk: u64) -> Vec<u8> {
    let mut buf = vec![0u8; BLOCK_SIZE];
    disk.raw_read(blk * SECTORS_PER_BLOCK, &mut buf);
    buf
}

/// Timing-free write of file-system block `blk` (see [`read_block`]).
pub fn write_block(disk: &mut cffs_disksim::Disk, blk: u64, data: &[u8]) {
    disk.raw_write(blk * SECTORS_PER_BLOCK, data);
}
