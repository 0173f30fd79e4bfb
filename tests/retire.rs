//! Retiring an inode number leaves no buffer-cache binding behind.
//!
//! Unlink, rmdir and a rename over an existing file kill an inode number.
//! Freeing the dead inode's blocks unbinds each `(ino, lbn)` identity from
//! the cache's logical index as it goes, so the file system does not scan
//! that index afterwards. These tests check that nothing survives the
//! free: every former `(dead ino, lbn)` probe misses, with embedded and
//! with external inodes.

use cffs::core::{Cffs, CffsConfig, MkfsParams};
use cffs_disksim::{models, Disk};
use cffs_fslib::vfs::MetadataMode;
use cffs_fslib::{Ino, BLOCK_SIZE};

/// The variants with and without embedded inodes.
fn configs() -> [CffsConfig; 2] {
    [CffsConfig::cffs(), CffsConfig::grouping_only()]
}

fn mount(cfg: CffsConfig) -> Cffs {
    let cfg = cfg.with_mode(MetadataMode::Delayed);
    cffs::core::mkfs::mkfs(Disk::new(models::tiny_test_disk()), MkfsParams::tiny(), cfg)
        .expect("mkfs")
}

/// Create `name` in `dir` holding `blocks` full blocks, all of them bound
/// in the cache.
fn file_of(fs: &Cffs, dir: Ino, name: &str, blocks: u64) -> Ino {
    let ino = fs.create(dir, name).expect("create");
    fs.write(ino, 0, &vec![0xA5; blocks as usize * BLOCK_SIZE]).expect("write");
    assert_bound(fs, ino, blocks);
    ino
}

fn assert_bound(fs: &Cffs, ino: Ino, blocks: u64) {
    for lbn in 0..blocks {
        assert!(fs.cache_block_of(ino, lbn).is_some(), "{ino:#x} lbn {lbn} not bound");
    }
}

fn assert_unbound(fs: &Cffs, ino: Ino, blocks: u64, what: &str) {
    for lbn in 0..blocks {
        assert_eq!(fs.cache_block_of(ino, lbn), None, "{what} left {ino:#x} lbn {lbn} bound");
    }
}

#[test]
fn unlink_leaves_no_binding() {
    for cfg in configs() {
        let fs = mount(cfg);
        let f = file_of(&fs, fs.root(), "f", 3);
        fs.unlink(fs.root(), "f").expect("unlink");
        assert_unbound(&fs, f, 3, "unlink");
    }
}

#[test]
fn rmdir_leaves_no_binding() {
    for cfg in configs() {
        let fs = mount(cfg);
        let d = fs.mkdir(fs.root(), "d").expect("mkdir");
        // Enough names to grow the directory past one block (24 embedded
        // entries fit in one), then none: an empty two-block directory.
        let names: Vec<String> = (0..300).map(|i| format!("n{i:03}")).collect();
        for name in &names {
            fs.create(d, name).expect("create");
        }
        let blocks = fs.getattr(d).expect("getattr").size / BLOCK_SIZE as u64;
        assert!(blocks >= 2, "the directory grew to {blocks} block(s)");
        for name in &names {
            fs.unlink(d, name).expect("unlink");
        }
        assert_bound(&fs, d, blocks);
        fs.rmdir(fs.root(), "d").expect("rmdir");
        assert_unbound(&fs, d, blocks, "rmdir");
    }
}

#[test]
fn overwriting_rename_leaves_no_binding() {
    for cfg in configs() {
        let fs = mount(cfg);
        let root = fs.root();
        let victim = file_of(&fs, root, "victim", 2);
        file_of(&fs, root, "src", 1);
        let moved = fs.rename(root, "src", root, "victim").expect("rename");
        assert_unbound(&fs, victim, 2, "an overwriting rename");
        let mut buf = vec![0u8; BLOCK_SIZE];
        assert_eq!(fs.read(moved, 0, &mut buf).expect("read"), BLOCK_SIZE);
        assert!(buf.iter().all(|&b| b == 0xA5));
    }
}
