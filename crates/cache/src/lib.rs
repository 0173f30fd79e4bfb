#![warn(missing_docs)]

//! # cffs-cache
//!
//! The file cache, modeled on the one the paper describes in Section 3:
//!
//! > "our file cache is indexed by both disk address, like the original
//! > UNIX buffer cache, and higher-level identities, like the SunOS
//! > integrated caching and virtual memory system. C-FFS uses physical
//! > identities to insert newly-read blocks of a group into the cache
//! > without back-translating to discover their file/offset identities."
//!
//! Concretely:
//!
//! * Every buffer is indexed by **physical block number**.
//! * A buffer may additionally carry a **logical identity** `(inode,
//!   logical block number)`. Group reads insert member blocks with *no*
//!   logical identity; when a file later maps one of its blocks to that
//!   physical address and finds the buffer, the identity is bound lazily —
//!   the paper's "back-binding". The `cache_backbinds` counter records
//!   how often this happens.
//! * Write-back policy is split by the caller: data writes are **delayed**
//!   (flushed by [`BufferCache::sync`], which sorts, coalesces physically
//!   adjacent buffers into scatter/gather writes, and issues one batch —
//!   this is where grouped files get written "as a unit"); metadata writes
//!   are either **synchronous** ([`BufferCache::flush_block_sync`], used by
//!   the conventional ordering discipline) or delayed (the soft-updates
//!   emulation).
//!
//! * Reads hand out a [`Block`]: a shared, immutable handle on the
//!   buffer's contents as of that moment. A cache hit is a reference-count
//!   bump and one list relink — no allocation, no copy. `modify_block*`
//!   mutate an unshared buffer in place and copy a shared one first (a
//!   reader's handle then keeps its snapshot), so drop a handle before
//!   modifying the block it came from.
//!
//! * Reads share the platter's blocks: [`Block`] is the sector store's
//!   own chunk type, so a miss or a group read installs a handle on the
//!   platter's chunk and copies nothing. The first write to such a block
//!   copies it into a buffer from the one free list, which keeps every
//!   unshared buffer of an evicted, invalidated or dropped block (up to
//!   the capacity plus one group fetch, on the list alone); the platter
//!   keeps its bytes until the write-back, and a write-back hands the
//!   driver [`Block`] handles, not copies.
//!
//! * The cache has one lock, held for the whole of each call; its
//!   state is one plain struct. The capacity ([`CacheConfig::nbufs`]) is
//!   one budget for the whole cache. [`BufferCache::shard_by_cg`]
//!   partitions *eviction* by cylinder group, not the capacity: a busy
//!   shard grows past its fair share (`nbufs / nshards`) while other
//!   shards sit idle, and the dirty watermark counts dirty buffers
//!   cache-wide.
//!
//! Replacement is LRU over clean and dirty buffers alike. Each shard keeps
//! its buffers on an intrusive doubly-linked list over buffer slots
//! (touch, evict and invalidate are O(1); one link per slot, however many
//! hits), and each use stamps the buffer with a tick of one cache-wide
//! clock. A miss that takes the cache over budget evicts the least
//! recently touched buffer among the shards holding more than their fair
//! share, so borrowed capacity goes back first; with one shard this is
//! exact LRU. Evicting a dirty buffer writes it back first, exactly like
//! a classic `getblk`/`bwrite` buffer cache. The shards exist for this
//! policy alone, not for locking: exact global LRU (one shard) moves
//! simulated results (DESIGN.md §10).

mod bufcache;

pub use bufcache::{BufferCache, CacheConfig};
/// The cache's buffer type: the sector store's chunk type, so a miss or a
/// group read installs the platter's own chunk.
pub use cffs_disksim::Block;
