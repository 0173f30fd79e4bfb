//! The buffer-cache hit path and single-block driver requests allocate
//! nothing, and the disk paths copy no block.
//!
//! A counting `#[global_allocator]` (per thread, so tests running in
//! parallel do not see each other; the driver services requests on the
//! calling thread, so its allocations are counted too) wraps the warm
//! paths: `read_block`, `read_block_bound` and `lookup_logical` on
//! resident blocks, `Driver::{read, write}`, and the file-system calls
//! built on them — a `Cffs` lookup + read and create + write + unlink,
//! and a `VolumeSet` resolve, read, overwrite and striped read — must
//! make zero heap requests, and so must reading either one's I/O view.
//! A miss or a group read installs the platter's own chunk (a handle,
//! no copy), the first write to such a shared block copies it into a
//! recycled cache buffer, and a write-back hands the driver the cache's
//! handles, so none of them makes a block-sized request either; a cold
//! group read and a cold grouped lookup + read make exactly pinned
//! numbers of small ones, and the platter keeps its bytes until the
//! write-back.

use cffs::cache::{Block, BufferCache, CacheConfig};
use cffs::core::{CffsConfig, MkfsParams};
use cffs::obs::Ctr;
use cffs_disksim::{models, Disk, Driver, DriverConfig, Scheduler, SECTOR_SIZE};
use cffs_fslib::vfs::MetadataMode;
use cffs_fslib::BLOCK_SIZE;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    let _ = LARGEST.try_with(|c| c.set(c.get().max(bytes as u64)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// thread-local cells with constant initialisers and no destructor, so
// touching them neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout` (the caller's obligation, forwarded).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as in `dealloc`; `new_size` is forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes requested)` by this thread while `f` runs.
fn heap_of(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCS.get(), BYTES.get());
    f();
    (ALLOCS.get() - before.0, BYTES.get() - before.1)
}

/// The largest single heap request this thread makes while `f` runs.
fn largest_request_of(f: impl FnOnce()) -> u64 {
    LARGEST.set(0);
    f();
    LARGEST.get()
}

#[test]
fn warm_cache_hits_allocate_nothing() {
    const N: u64 = 10_000;
    let drv = Driver::new(Disk::new(models::tiny_test_disk()), DriverConfig::default());
    let cache = BufferCache::new(CacheConfig::default());
    for blk in 0..64u64 {
        cache.read_block_bound(&drv, blk, 3, blk).expect("load");
    }
    let requests = drv.obs().get(Ctr::DriverLogicalRequests);

    let mut sum = 0u64;
    let heap = heap_of(|| {
        for i in 0..N {
            let blk = (i * 11) % 64;
            sum += u64::from(cache.read_block(&drv, blk).expect("hit")[0]);
            sum += u64::from(cache.read_block_bound(&drv, blk, 3, blk).expect("hit")[0]);
            sum += cache.lock().lookup_logical(3, blk).expect("bound");
        }
    });
    std::hint::black_box(sum);
    assert_eq!(heap, (0, 0), "{} warm hits made heap requests", 3 * N);
    assert_eq!(drv.obs().get(Ctr::DriverLogicalRequests), requests);
}

/// A warm lookup (dcache off, so a dirent scan through the cache) plus a
/// 1 KB read makes no heap request: the entry is decoded in place in the
/// cached directory block, and the embedded inode behind it too.
#[test]
fn warm_lookup_and_read_allocate_nothing() {
    const FILES: usize = 40;
    let cfg = CffsConfig::cffs().with_mode(MetadataMode::Delayed);
    let fs = cffs::core::mkfs::mkfs(Disk::new(models::tiny_test_disk()), MkfsParams::tiny(), cfg)
        .expect("mkfs");
    let dir = fs.mkdir(fs.root(), "d").expect("mkdir");
    let names: Vec<String> = (0..FILES).map(|i| format!("file{i:03}")).collect();
    for name in &names {
        let ino = fs.create(dir, name).expect("create");
        fs.write(ino, 0, &[0x5a; 1024]).expect("write");
    }
    let mut buf = vec![0u8; 1024];
    // One untimed sweep warms the cache and sizes every lazily grown table.
    for name in &names {
        let ino = fs.lookup(dir, name).expect("lookup");
        fs.read(ino, 0, &mut buf).expect("read");
    }
    let requests = fs.io_stats().driver.logical_requests;

    let heap = heap_of(|| {
        for name in &names {
            let ino = fs.lookup(dir, name).expect("lookup");
            assert_eq!(fs.read(ino, 0, &mut buf).expect("read"), 1024);
        }
    });
    assert!(buf.iter().all(|&b| b == 0x5a));
    assert_eq!(heap, (0, 0), "{FILES} warm lookups + reads made heap requests");
    assert_eq!(fs.io_stats().driver.logical_requests, requests, "the window stayed in the cache");
}

/// Single-block driver requests are serviced straight from and into the
/// caller's buffer on the caller's thread: once every chunk of the
/// simulated platter has been touched, they make no heap request.
#[test]
fn driver_single_block_requests_allocate_nothing() {
    const N: u64 = 1_000;
    const BLOCKS: u64 = 32;
    let drv = Driver::new(Disk::new(models::tiny_test_disk()), DriverConfig::default());
    let lba = |i: u64| (i % BLOCKS) * (BLOCK_SIZE / SECTOR_SIZE) as u64;
    let mut buf = vec![0u8; BLOCK_SIZE];
    for i in 0..BLOCKS {
        drv.write(lba(i), &buf);
        drv.read(lba(i), &mut buf);
    }

    let heap = heap_of(|| {
        for i in 0..N {
            buf[0] = i as u8;
            drv.write(lba(i * 7), &buf);
            drv.read(lba(i * 7), &mut buf);
            assert_eq!(buf[0], i as u8);
        }
    });
    assert_eq!(heap, (0, 0), "{N} writes + {N} reads made heap requests");
    assert_eq!(drv.obs().get(Ctr::DriverLogicalRequests), 2 * (BLOCKS + N));
}

/// A warm create + 1 KB write + unlink makes no heap request after one
/// warm-up round, in both metadata modes: no name is copied out of a
/// directory block, no block is copied on write, and unlink's retirement
/// of the dead inode does not scan the cache. In synchronous mode the
/// directory block goes through the driver on every create and unlink;
/// the write goes to the fresh file, whose newly allocated block is a
/// cache miss written into the buffer the previous unlink's freed block
/// left on the free list.
#[test]
fn warm_create_write_unlink_allocates_nothing() {
    const FILES: usize = 40;
    for mode in [MetadataMode::Synchronous, MetadataMode::Delayed] {
        let cfg = CffsConfig::cffs().with_mode(mode);
        let fs =
            cffs::core::mkfs::mkfs(Disk::new(models::tiny_test_disk()), MkfsParams::tiny(), cfg)
                .expect("mkfs");
        let dir = fs.mkdir(fs.root(), "d").expect("mkdir");
        let names: Vec<String> = (0..FILES).map(|i| format!("file{i:03}")).collect();
        let mut data = [0x5au8; 1024];
        let mut cycle = |name: &str| {
            let ino = fs.create(dir, name).expect("create");
            data[0] = data[0].wrapping_add(1);
            fs.write(ino, 0, &data).expect("write");
            fs.unlink(dir, name).expect("unlink");
        };
        // One untimed round warms the cache and sizes every lazily grown
        // table.
        names.iter().for_each(|n| cycle(n));
        let requests = fs.io_stats().driver.logical_requests;

        let heap = heap_of(|| names.iter().for_each(|n| cycle(n)));
        assert_eq!(heap, (0, 0), "{mode:?}: {FILES} warm create + write + unlink rounds");
        let wrote = fs.io_stats().driver.logical_requests > requests;
        assert_eq!(wrote, mode == MetadataMode::Synchronous, "{mode:?}: metadata went to disk");
    }
}

/// A volume set resolves names by `(parent, name)` in its skeleton and
/// shares stripe-registry entries by reference count: on two volumes with
/// an 8 KB stripe policy, a warm two-lookup resolve plus 1 KB read and
/// overwrite, and a whole read of a file striped over both volumes, make
/// no heap request.
#[test]
fn warm_volume_set_resolve_and_striped_read_allocate_nothing() {
    use cffs::volume::{VolumeCfg, VolumeSet};
    use cffs_fslib::FileSystem;
    const FILES: usize = 16;
    let disks = (0..2).map(|_| Disk::new(models::tiny_test_disk())).collect();
    let cfg = VolumeCfg::new(CffsConfig::cffs().with_mode(MetadataMode::Delayed))
        .with_mkfs(MkfsParams::tiny())
        .with_stripes(8 * 1024, 8 * 1024);
    let vs = VolumeSet::format(disks, cfg).expect("format");
    let root = vs.root();
    let dir = vs.mkdir(root, "d").expect("mkdir");
    let names: Vec<String> = (0..FILES).map(|i| format!("file{i:03}")).collect();
    for name in &names {
        let ino = vs.create(dir, name).expect("create");
        vs.write(ino, 0, &[0x5a; 1024]).expect("write");
    }
    let big = vs.create(dir, "big").expect("create");
    let striped: Vec<u8> = (0..24 * 1024u32).map(|i| (i % 251) as u8).collect();
    vs.write(big, 0, &striped).expect("striped write");
    assert_eq!(vs.stripe_count(), 1);
    let mut buf = vec![0u8; 1024];
    let mut whole = vec![0u8; striped.len()];
    let mut round = || {
        for name in &names {
            let d = vs.lookup(root, "d").expect("lookup dir");
            let ino = vs.lookup(d, name).expect("lookup file");
            assert_eq!(vs.read(ino, 0, &mut buf).expect("read"), 1024);
            assert_eq!(vs.write(ino, 0, &buf).expect("overwrite"), 1024);
        }
        assert_eq!(vs.read(big, 0, &mut whole).expect("striped read"), striped.len());
    };
    // One untimed round warms the caches and sizes every lazily grown
    // table.
    round();

    let heap = heap_of(&mut round);
    assert_eq!(heap, (0, 0), "a warm volume-set round made heap requests");
    assert!(buf.iter().all(|&b| b == 0x5a));
    assert_eq!(whole, striped);
}

/// The I/O view a benchmark reads around every measured window is built
/// from counter reads alone: `Cffs::io_stats` and `VolumeSet::io_stats`
/// (a sum over volumes) make no heap request.
#[test]
fn io_stats_views_allocate_nothing() {
    use cffs::volume::{VolumeCfg, VolumeSet};
    use cffs_fslib::{FileSystem, IoStats};
    let cfg = CffsConfig::cffs().with_mode(MetadataMode::Delayed);
    let disk = Disk::new(models::tiny_test_disk());
    let fs = cffs::core::mkfs::mkfs(disk, MkfsParams::tiny(), cfg.clone()).expect("mkfs");
    let disks = (0..2).map(|_| Disk::new(models::tiny_test_disk())).collect();
    let vs = VolumeSet::format(disks, VolumeCfg::new(cfg).with_mkfs(MkfsParams::tiny()))
        .expect("format");
    for sys in [&fs as &dyn FileSystem, &vs] {
        let f = sys.create(sys.root(), "f").expect("create");
        sys.write(f, 0, &[7; 4096]).expect("write");
        sys.sync().expect("sync");
    }

    let mut views = [IoStats::default(); 2];
    let heap = heap_of(|| views = [fs.io_stats(), vs.io_stats()]);
    assert_eq!(heap, (0, 0), "building the I/O views made heap requests");
    assert!(views.iter().all(|v| v.disk.writes > 0 && v.cache.lookups > 0), "{views:?}");
}

/// A cold 16-block group read under eviction pressure installs the
/// platter's chunks: it makes no block-sized heap request — nothing is
/// staged, copied or allocated.
#[test]
fn cold_group_read_makes_no_block_sized_request() {
    let drv = Driver::new(Disk::new(models::tiny_test_disk()), DriverConfig::default());
    let cache = BufferCache::new(CacheConfig { nbufs: 64, flush_watermark_pct: 100 });
    // Twice the capacity: the later fetches evict the earlier ones.
    for extent in 0..8u64 {
        cache.read_group(&drv, &[(extent * 16, 16)]).expect("warm-up fetch");
    }
    let reads = drv.obs().get(Ctr::DiskReads);

    let largest = largest_request_of(|| {
        cache.read_group(&drv, &[(8 * 16, 16)]).expect("cold fetch");
    });
    assert!(largest < BLOCK_SIZE as u64, "a cold group read requested {largest} bytes at once");
    assert_eq!(drv.obs().get(Ctr::DiskReads), reads + 1, "the fetch was one disk read");
    assert_eq!(cache.obs().get(Ctr::CacheGroupReadBlocks), 9 * 16);
}

/// Heap requests of a cold 16-block group read with no block resident,
/// once earlier fetches have sized the cache's tables: none. The request
/// list and its block lists are the cache's own, emptied and reused by
/// every fetch, and the blocks are the platter's chunks, lent, not copied.
const COLD_GROUP_READ_ALLOCS: u64 = 0;

/// A 16-block extent the platter holds, each block with its own bytes.
fn write_extent(drv: &Driver, first: u64) {
    for blk in first..first + 16 {
        drv.with_disk_mut(|d| d.raw_write(blk * (BLOCK_SIZE / SECTOR_SIZE) as u64, &[blk as u8; BLOCK_SIZE]));
    }
}

/// A cold group read makes no buffer of its own: every block it installs
/// is the platter's chunk (the same memory, not a copy of it), and once
/// evictions have sized the cache's slot tables and earlier fetches its
/// request lists, it makes no heap request at all.
#[test]
fn cold_group_read_installs_the_platters_blocks() {
    let drv = Driver::new(Disk::new(models::tiny_test_disk()), DriverConfig::default());
    let cache = BufferCache::new(CacheConfig { nbufs: 64, flush_watermark_pct: 100 });
    for extent in 0..9u64 {
        write_extent(&drv, extent * 16);
    }
    // Twice the capacity: the later fetches evict the earlier ones.
    for extent in 0..8u64 {
        cache.read_group(&drv, &[(extent * 16, 16)]).expect("warm-up fetch");
    }

    let (allocs, bytes) = heap_of(|| cache.read_group(&drv, &[(8 * 16, 16)]).expect("cold fetch"));
    assert_eq!(allocs, COLD_GROUP_READ_ALLOCS, "heap requests of a cold 16-block group read");
    assert!(bytes < BLOCK_SIZE as u64, "a cold group read requested {bytes} bytes");
    for blk in 8 * 16..9 * 16u64 {
        let cached = cache.read_block(&drv, blk).expect("resident");
        let platter = drv.read_block(blk * (BLOCK_SIZE / SECTOR_SIZE) as u64);
        assert!(Block::ptr_eq(&cached, &platter), "block {blk} is a copy of the platter's chunk");
        assert!(cached.iter().all(|&b| b == blk as u8), "block {blk} read wrong bytes");
    }
    assert_eq!(cache.obs().get(Ctr::CacheGroupReadBlocks), 9 * 16);
}

/// The first write to a group-read block copies it into a buffer from
/// the free list, so it makes no heap request while the list holds one;
/// the platter keeps its bytes (and its chunk) until the write-back.
#[test]
fn first_modify_of_a_group_read_block_reuses_a_free_buffer() {
    let drv = Driver::new(Disk::new(models::tiny_test_disk()), DriverConfig::default());
    let cache = BufferCache::new(CacheConfig { nbufs: 64, flush_watermark_pct: 100 });
    let lba = |blk: u64| blk * (BLOCK_SIZE / SECTOR_SIZE) as u64;
    write_extent(&drv, 0);
    // Stock the free list: a write makes a buffer of the cache's own, and
    // forgetting its block puts that buffer on the list.
    cache.modify_block(&drv, 500, false, false, |d| d[0] = 1).expect("modify");
    cache.lock().invalidate_block(500);
    cache.read_group(&drv, &[(0, 16)]).expect("group read");
    let platter = drv.read_block(lba(5));

    let heap = heap_of(|| {
        cache.modify_block(&drv, 5, false, true, |d| d[0] = 0xAB).expect("first modify");
    });
    assert_eq!(heap, (0, 0), "the first modify of a group-read block made heap requests");
    let cached = cache.read_block(&drv, 5).expect("resident");
    assert!(!Block::ptr_eq(&cached, &platter), "the modify wrote into the platter's chunk");
    assert_eq!((cached[0], cached[1]), (0xAB, 5), "the copy carries the block's other bytes");

    let mut back = [0u8; BLOCK_SIZE];
    drv.with_disk(|d| d.raw_read(lba(5), &mut back));
    assert!(back.iter().all(|&b| b == 5), "the platter changed before the write-back");
    assert!(platter.iter().all(|&b| b == 5), "the platter's chunk changed under its holder");
    cache.sync(&drv).expect("sync");
    drv.with_disk(|d| d.raw_read(lba(5), &mut back));
    assert_eq!((back[0], back[1]), (0xAB, 5), "the write-back landed");
    assert!(platter.iter().all(|&b| b == 5), "a held handle on the old chunk keeps its bytes");
}

/// Heap requests of one cold lookup + 1 KB read in a grouped directory
/// (dcache off), once a first cold round has sized every lazily grown
/// table. The dirent-block miss fetches the live run around it as one
/// group read: its one-run plan lives on the stack, and `read_group`
/// reuses the cache's request and block lists, so nothing is allocated.
/// The count is exact, so a planner that collects a `Vec` again, or any
/// new allocation on the cold path, moves it.
const COLD_GROUPED_LOOKUP_READ_ALLOCS: u64 = 0;

#[test]
fn cold_grouped_lookup_and_read_allocations_are_pinned() {
    const FILES: usize = 12;
    let cfg = CffsConfig::cffs().with_mode(MetadataMode::Delayed);
    let fs = cffs::core::mkfs::mkfs(Disk::new(models::tiny_test_disk()), MkfsParams::tiny(), cfg)
        .expect("mkfs");
    let dir = fs.mkdir(fs.root(), "d").expect("mkdir");
    let names: Vec<String> = (0..FILES).map(|i| format!("file{i:03}")).collect();
    for name in &names {
        let ino = fs.create(dir, name).expect("create");
        fs.write(ino, 0, &[0x5a; 1024]).expect("write");
    }
    let mut buf = vec![0u8; 1024];
    let mut cold = |name: &str| {
        fs.drop_caches().expect("drop caches");
        let before = fs.io_stats().cache.group_reads;
        let heap = heap_of(|| {
            let ino = fs.lookup(dir, name).expect("lookup");
            assert_eq!(fs.read(ino, 0, &mut buf).expect("read"), 1024);
        });
        assert_eq!(fs.io_stats().cache.group_reads, before + 1, "one group read");
        heap.0
    };
    cold(&names[0]);
    let allocs = cold(&names[1]);
    assert!(buf.iter().all(|&b| b == 0x5a));
    assert_eq!(allocs, COLD_GROUPED_LOOKUP_READ_ALLOCS, "heap requests of a cold grouped lookup + read");
}

/// A sync hands the driver handles on the dirty buffers, not copies: a
/// write-back of 64 dirty blocks in four runs makes no block-sized heap
/// request.
#[test]
fn sync_of_dirty_blocks_copies_no_block() {
    let drv = Driver::new(Disk::new(models::tiny_test_disk()), DriverConfig::default());
    let cache = BufferCache::new(CacheConfig { nbufs: 128, flush_watermark_pct: 100 });
    let blocks = || (0..4u64).flat_map(|run| run * 40..run * 40 + 16);
    let dirty_all = |byte: u8| {
        for blk in blocks() {
            cache.modify_block(&drv, blk, false, true, |d| d.fill(byte)).expect("modify");
        }
    };
    // One untimed round materializes the platter's chunks.
    dirty_all(1);
    cache.sync(&drv).expect("sync");
    dirty_all(2);
    let writes = drv.obs().get(Ctr::DiskWrites);

    let largest = largest_request_of(|| cache.sync(&drv).expect("sync"));
    assert!(largest < BLOCK_SIZE as u64, "a sync of 64 blocks requested {largest} bytes at once");
    assert_eq!(drv.obs().get(Ctr::DiskWrites), writes + 4, "four coalesced runs");
    assert_eq!(cache.lock().dirty_count(), 0);
    let mut back = vec![0u8; BLOCK_SIZE];
    drv.with_disk(|d| d.raw_read(40 * (BLOCK_SIZE / SECTOR_SIZE) as u64, &mut back));
    assert!(back.iter().all(|&b| b == 2));
}

/// A warm sync whose dirty runs lie on several heads of one cylinder is
/// served in rotational order (it waits less for the platter than the
/// LBA order FCFS keeps) and makes no heap request: the scheduler
/// reorders the batch in place.
#[test]
fn sync_across_heads_of_one_cylinder_allocates_nothing() {
    // Seagate ST31200 cylinder 3 holds blocks 365–485 on nine heads of
    // 108 sectors: six 3-block runs spread over it.
    let blocks = || (0..6u64).flat_map(|run| 366 + run * 23..369 + run * 23);
    let rotation_of_warm_sync = |scheduler| {
        let drv = Driver::new(Disk::new(models::seagate_st31200()), DriverConfig { scheduler });
        let cache = BufferCache::new(CacheConfig { nbufs: 64, flush_watermark_pct: 100 });
        let dirty_all = |byte: u8| {
            for blk in blocks() {
                cache.modify_block(&drv, blk, false, true, |d| d.fill(byte)).expect("modify");
            }
        };
        // One untimed round materializes the platter's chunks.
        dirty_all(1);
        cache.sync(&drv).expect("sync");
        dirty_all(2);
        let (writes, rotation) = (drv.obs().get(Ctr::DiskWrites), drv.obs().get(Ctr::DiskRotationNs));
        let heap = heap_of(|| cache.sync(&drv).expect("sync"));
        assert_eq!(heap, (0, 0), "a warm {scheduler:?} sync made heap requests");
        assert_eq!(drv.obs().get(Ctr::DiskWrites), writes + 6, "six coalesced runs");
        assert_eq!(cache.lock().dirty_count(), 0);
        drv.obs().get(Ctr::DiskRotationNs) - rotation
    };
    let clook = rotation_of_warm_sync(Scheduler::CLook);
    let lba_order = rotation_of_warm_sync(Scheduler::Fcfs);
    assert!(clook < lba_order, "C-LOOK waited {clook} ns for the platter, LBA order {lba_order} ns");
}

/// Under eviction pressure a reading miss installs the platter's chunk and
/// a non-reading miss reuses an evicted buffer: both, each evicting a
/// dirty block and writing it back, make no block-sized heap request.
#[test]
fn misses_under_eviction_pressure_allocate_no_block() {
    const BLOCKS: u64 = 64;
    let drv = Driver::new(Disk::new(models::tiny_test_disk()), DriverConfig::default());
    let cache = BufferCache::new(CacheConfig { nbufs: 16, flush_watermark_pct: 100 });
    let lba = |blk: u64| blk * (BLOCK_SIZE / SECTOR_SIZE) as u64;
    // Even blocks are read and hold 0xEE; odd ones are overwritten
    // without a read, into recycled buffers that carry stale bytes.
    for blk in (0..BLOCKS).step_by(2) {
        drv.with_disk_mut(|d| d.raw_write(lba(blk), &[0xEE; BLOCK_SIZE]));
    }
    let sweep = |byte: u8| {
        for blk in 0..BLOCKS {
            if blk % 2 == 0 {
                cache.read_block(&drv, blk).expect("read");
            } else {
                cache.modify_block(&drv, blk, false, false, |d| d[0] = byte).expect("modify");
            }
        }
    };
    // One untimed sweep materializes the platter's chunks.
    sweep(1);
    cache.sync(&drv).expect("sync");
    let evictions = cache.obs().get(Ctr::CacheEvictions);

    let largest = largest_request_of(|| (2..6).for_each(sweep));
    assert!(largest < BLOCK_SIZE as u64, "a miss requested {largest} bytes at once");
    assert_eq!(cache.obs().get(Ctr::CacheEvictions), evictions + 4 * BLOCKS, "every access missed");
    let mut back = vec![0u8; BLOCK_SIZE];
    drv.with_disk(|d| d.raw_read(lba(1), &mut back));
    assert_eq!(back[0], 5, "the last sweep's dirty blocks were written back");
    assert!(back[1..].iter().all(|&b| b == 0), "a non-reading miss starts from zeros");
}
