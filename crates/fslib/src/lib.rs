#![warn(missing_docs)]

//! # cffs-fslib
//!
//! Shared file-system infrastructure for the C-FFS reproduction:
//!
//! * [`vfs::FileSystem`] — the one trait every implementation (classic
//!   FFS, the four C-FFS variants, the multi-disk volume set and the
//!   in-memory oracle) exposes, every method on `&self`; benchmarks and
//!   integration tests are written against it, and threaded ones ask for
//!   `FileSystem + Sync`.
//! * [`error::FsError`] — the common error type.
//! * [`bitmap::Bitmap`] — block/inode bitmaps with contiguous-run search
//!   (explicit grouping needs 16-block extents).
//! * [`cpu::CpuModel`] — per-operation CPU costs charged to the simulated
//!   clock, calibrated to the paper's 120 MHz Pentium testbed.
//! * [`path`] — `mkdir -p` / read / write convenience helpers over any
//!   `FileSystem`.
//! * [`model::ModelFs`] — a HashMap-backed reference implementation behind
//!   one mutex, used as the oracle in property tests, threaded ones
//!   included.
//! * [`codec`] — little-endian on-disk integer codecs.
//! * [`hash::IntMap`] — `HashMap` with a multiplicative hasher for the
//!   process-private integer-keyed indexes on the cache hit paths.

pub mod bitmap;
pub mod codec;
pub mod cpu;
pub mod error;
pub mod hash;
pub mod inode;
pub mod model;
pub mod path;
pub mod vfs;

pub use bitmap::Bitmap;
pub use cpu::CpuModel;
pub use error::{FsError, FsResult};
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
