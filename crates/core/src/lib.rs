#![warn(missing_docs)]

//! # cffs-core — the Co-locating Fast File System
//!
//! The paper's contribution (Ganger & Kaashoek, USENIX 1997), implemented
//! from scratch on the simulated disk:
//!
//! * **Embedded inodes** ([`dirent`]): the inode of a single-link file
//!   lives *inside* its directory entry. A name and its inode never cross
//!   a 512-byte sector boundary, so one sector write updates both
//!   atomically — eliminating one of the two ordering-constrained
//!   synchronous writes of conventional create/delete, and eliminating the
//!   separate inode-block read on every cold `open`. Files with multiple
//!   hard links (and the root) keep their inode in the **external inode
//!   file** ([`exfile`]), a dynamically growable, never-shrinking,
//!   never-moving file of inode slots, as the paper specifies.
//! * **Explicit grouping** ([`groups`]): data blocks of small files named
//!   by the same directory are carved from 64 KB (16-block) physically
//!   contiguous group extents. A cache miss on any member block fetches
//!   the group's live blocks with one scatter/gather request; delayed
//!   write-back coalesces adjacent dirty members into single writes. The
//!   directory's own blocks are grouped with its files' blocks, so a
//!   directory scan plus small-file reads costs one disk access in the
//!   common case — the embedded-inode/grouping synergy the paper notes.
//! * **Five configurations** ([`CffsConfig`]): both techniques toggle
//!   independently, reproducing the paper's conventional / embedded-only /
//!   grouping-only / C-FFS comparison on one code base; classic FFS is the
//!   conventional baseline with its inodes in static per-cylinder-group
//!   tables ([`InodePlacement::CgTable`]).
//! * **Application-directed grouping** ([`fs::Cffs::group_hint`]): the
//!   Section 6 "future work" interface — co-locate named files (e.g. the
//!   pieces of one hypertext document) regardless of access order.
//! * An [`fsck`] that finds embedded inodes by walking the namespace
//!   (inodes have no static home), checks inode-file and table slots
//!   against the names that reach them, and rebuilds bitmaps, group
//!   descriptors and link counts.

pub mod dirent;
pub mod exfile;
pub mod fs;
pub mod fsck;
pub mod groups;
pub mod layout;
pub mod mkfs;

pub use fs::{Cffs, CffsConfig, CgUsage, InodePlacement};
pub use fsck::{fsck, FsckReport};
pub use mkfs::MkfsParams;
