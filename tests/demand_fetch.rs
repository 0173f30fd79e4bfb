//! Group reads follow demand: removing a name reads blocks, not groups,
//! while a lookup still fetches the live run around the block it misses.
//!
//! One directory holds 20 one-block files, so its first group is the
//! directory block plus 15 data blocks, all live. Each after a cold
//! boundary, `unlink` of a file and `rmdir` of an empty subdirectory make
//! no group read, while a lookup and read of a sibling make exactly one —
//! the run that holds the directory block and the sibling's data.

use cffs::core::{Cffs, CffsConfig, MkfsParams};
use cffs_disksim::{models, Disk};
use cffs_fslib::vfs::MetadataMode;
use cffs_fslib::Ino;

const FILES: usize = 20;

/// The grouping variants, with and without embedded inodes.
fn configs() -> [CffsConfig; 2] {
    [CffsConfig::cffs(), CffsConfig::grouping_only()]
}

fn group_reads(fs: &Cffs) -> u64 {
    fs.io_stats().cache.group_reads
}

/// `/d` with `f00`..`f19` of 1 KB each, and `/d/e`: a subdirectory whose
/// one block is empty.
fn populated(cfg: CffsConfig) -> (Cffs, Ino) {
    let cfg = cfg.with_mode(MetadataMode::Delayed);
    let fs = cffs::core::mkfs::mkfs(Disk::new(models::tiny_test_disk()), MkfsParams::tiny(), cfg)
        .expect("mkfs");
    let d = fs.mkdir(fs.root(), "d").expect("mkdir");
    for i in 0..FILES {
        let ino = fs.create(d, &format!("f{i:02}")).expect("create");
        fs.write(ino, 0, &[i as u8; 1024]).expect("write");
    }
    let e = fs.mkdir(d, "e").expect("mkdir");
    fs.create(e, "x").expect("create");
    fs.unlink(e, "x").expect("unlink");
    (fs, d)
}

#[test]
fn removal_reads_blocks_while_a_lookup_reads_the_run() {
    for cfg in configs() {
        let label = cfg.label.clone();
        let (fs, d) = populated(cfg);
        fs.drop_caches().expect("drop caches");
        let before = group_reads(&fs);
        fs.unlink(d, "f19").expect("unlink");
        assert_eq!(group_reads(&fs), before, "{label}: a cold unlink group-fetched");
        fs.drop_caches().expect("drop caches");
        fs.rmdir(d, "e").expect("rmdir");
        assert_eq!(group_reads(&fs), before, "{label}: a cold rmdir group-fetched");

        fs.drop_caches().expect("drop caches");
        let ino = fs.lookup(d, "f03").expect("lookup");
        let mut buf = [0u8; 1024];
        assert_eq!(fs.read(ino, 0, &mut buf).expect("read"), 1024);
        assert!(buf.iter().all(|&b| b == 3));
        assert_eq!(group_reads(&fs), before + 1, "{label}: lookup + read of a sibling");
        assert!(fs.lookup(d, "f19").is_err() && fs.lookup(d, "e").is_err());
    }
}
