//! Cached blocks share the platter's memory, and so do crash images.
//!
//! A cache miss or group read installs a handle on the sector store's own
//! 4 KB chunk instead of a copy, and a crash image (`Cffs::crash_image`,
//! `Disk::clone_image`) clones the store's handles instead of its bytes.
//! Every writer must therefore copy a shared chunk before writing it: the
//! crash image keeps the bytes of the moment it was cut, and a cached
//! block keeps the bytes it was read with, whatever the live stack
//! writes afterwards.

use cffs::cache::{Block, BufferCache, CacheConfig};
use cffs::core::{fsck, Cffs, CffsConfig, MkfsParams};
use cffs_disksim::{models, Disk, Driver, DriverConfig, SECTOR_SIZE};
use cffs_fslib::vfs::MetadataMode;
use cffs_fslib::{Ino, BLOCK_SIZE};
use std::hash::{DefaultHasher, Hasher};

const FILES: usize = 24;
const LEN: usize = 2048;

/// A digest of every sector of `disk`, read in 64 KB pieces.
fn digest(disk: &Disk) -> u64 {
    let mut h = DefaultHasher::new();
    let mut buf = vec![0u8; 64 * 1024];
    let step = (buf.len() / SECTOR_SIZE) as u64;
    for lba in (0..disk.capacity_sectors()).step_by(step as usize) {
        let n = ((disk.capacity_sectors() - lba).min(step) as usize) * SECTOR_SIZE;
        disk.raw_read(lba, &mut buf[..n]);
        h.write(&buf[..n]);
    }
    h.finish()
}

fn content(i: usize, round: u8) -> Vec<u8> {
    (0..LEN).map(|k| (i * 7 + k) as u8 ^ round).collect()
}

/// Read every file back through a cold cache: each directory and data
/// block comes in by group read, as a handle on the platter's chunk.
fn read_all(fs: &Cffs, dir: Ino, round: u8) {
    let mut buf = vec![0u8; LEN];
    for i in 0..FILES {
        let ino = fs.lookup(dir, &format!("f{i:02}")).expect("lookup");
        assert_eq!(fs.read(ino, 0, &mut buf).expect("read"), LEN);
        assert!(buf == content(i, round), "file {i} read wrong bytes (round {round})");
    }
}

/// A crash image cut while cached blocks share the platter's chunks is
/// unchanged by everything the live file system does afterwards —
/// overwrites, creates, unlinks, syncs and cold re-reads — and is a
/// clean file system holding the files as they were at the cut.
#[test]
fn crash_image_keeps_its_bytes_while_the_live_stack_writes() {
    let cfg = CffsConfig::cffs().with_mode(MetadataMode::Delayed);
    let fs = cffs::core::mkfs::mkfs(Disk::new(models::tiny_test_disk()), MkfsParams::tiny(), cfg.clone())
        .expect("mkfs");
    let dir = fs.mkdir(fs.root(), "d").expect("mkdir");
    for i in 0..FILES {
        let ino = fs.create(dir, &format!("f{i:02}")).expect("create");
        fs.write(ino, 0, &content(i, 0)).expect("write");
    }
    fs.sync().expect("sync");
    fs.drop_caches().expect("drop caches");
    read_all(&fs, dir, 0);
    assert!(fs.io_stats().cache.group_reads > 0, "the re-read came in by group reads");

    let mut image = fs.crash_image();
    let cut = digest(&image);

    for i in 0..FILES {
        let ino = fs.lookup(dir, &format!("f{i:02}")).expect("lookup");
        fs.write(ino, 0, &content(i, 0xFF)).expect("overwrite");
    }
    for i in 0..8 {
        let ino = fs.create(dir, &format!("new{i}")).expect("create");
        fs.write(ino, 0, &[i as u8; LEN]).expect("write");
    }
    fs.unlink(dir, "new3").expect("unlink");
    fs.sync().expect("sync");
    fs.drop_caches().expect("drop caches");
    read_all(&fs, dir, 0xFF);
    fs.sync().expect("sync");

    assert_eq!(digest(&image), cut, "the live stack's writes reached the crash image");
    let report = fsck(&mut image, false).expect("fsck");
    assert!(report.clean(), "crash image not clean: {:?}", report.errors);
    let old = Cffs::mount(image, cfg).expect("mount the crash image");
    let old_dir = old.lookup(old.root(), "d").expect("lookup d");
    read_all(&old, old_dir, 0);
    assert!(old.lookup(old_dir, "new0").is_err(), "a later create reached the crash image");
}

/// A raw write under a block the cache holds (a handle on the platter's
/// chunk) leaves the cached copy at its old bytes, as it leaves a copied
/// buffer; a modify and sync of the cached block then write it back over
/// the raw write. A crash image cut before all of it keeps the bytes of
/// its cut throughout.
#[test]
fn raw_write_under_a_shared_cached_block_keeps_the_cached_bytes() {
    let drv = Driver::new(Disk::new(models::tiny_test_disk()), DriverConfig::default());
    let cache = BufferCache::new(CacheConfig { nbufs: 64, flush_watermark_pct: 100 });
    let lba = |blk: u64| blk * (BLOCK_SIZE / SECTOR_SIZE) as u64;
    let platter = |blk: u64| {
        let mut b = vec![0u8; BLOCK_SIZE];
        drv.with_disk(|d| d.raw_read(lba(blk), &mut b));
        b
    };
    for blk in 0..16u64 {
        drv.with_disk_mut(|d| d.raw_write(lba(blk), &[blk as u8; BLOCK_SIZE]));
    }
    cache.read_group(&drv, &[(0, 16)]).expect("group read");
    let image = drv.with_disk(|d| d.clone_image());
    let cut = digest(&image);

    let before = cache.read_block(&drv, 3).expect("resident");
    assert!(Block::ptr_eq(&before, &drv.read_block(lba(3))), "the cached block is the platter's chunk");
    drv.with_disk_mut(|d| d.raw_write(lba(3), &[0x77; BLOCK_SIZE]));
    assert!(platter(3).iter().all(|&b| b == 0x77), "the raw write landed");
    let cached = cache.read_block(&drv, 3).expect("still resident");
    assert!(cached.iter().all(|&b| b == 3), "a raw write changed the cached copy");
    assert!(before.iter().all(|&b| b == 3), "a raw write changed a held handle");

    cache.modify_block(&drv, 3, false, true, |d| d[0] = 0xAB).expect("modify");
    cache.modify_block(&drv, 4, false, true, |d| d[0] = 0xCD).expect("modify");
    cache.sync(&drv).expect("sync");
    assert_eq!((platter(3)[0], platter(3)[1]), (0xAB, 3), "the cached block was written back");
    assert_eq!((platter(4)[0], platter(4)[1]), (0xCD, 4));
    drv.with_disk_mut(|d| d.raw_write(lba(5), &[0x55; BLOCK_SIZE]));

    assert_eq!(digest(&image), cut, "the live stack's writes reached the crash image");
    let mut back = vec![0u8; BLOCK_SIZE];
    for blk in 0..16u64 {
        image.raw_read(lba(blk), &mut back);
        assert!(back.iter().all(|&b| b == blk as u8), "block {blk} of the crash image changed");
    }
}
