//! Namespace cache (dcache) consistency, end to end.
//!
//! The cache's contract: a hit — positive or negative — must always give
//! the same answer a directory scan would. Every test here sets up a
//! state where a *stale* entry would give the wrong answer (cached
//! `NotFound` after a create, a cached ino after rename/unlink/
//! relocation renumbered it) and asserts the hooks kept the cache
//! truthful. Counters prove the cache was actually exercised: a test
//! that never hits the cache proves nothing.

use cffs::core::{fsck, Cffs, CffsConfig, MkfsParams};
use cffs::prelude::*;
use cffs_disksim::models;
use cffs_disksim::Disk;
use cffs_obs::Ctr;

fn fresh(entries: usize) -> Cffs {
    cffs::core::mkfs::mkfs(
        Disk::new(models::tiny_test_disk()),
        MkfsParams::tiny(),
        CffsConfig::cffs().with_dcache(entries),
    )
    .expect("mkfs")
}

fn ctr(fs: &Cffs, c: Ctr) -> u64 {
    fs.obs().get(c)
}

fn assert_fsck_clean(fs: &Cffs, context: &str) {
    Cffs::sync(fs).expect("sync");
    let mut img = fs.crash_image();
    let report = fsck::fsck(&mut img, false).expect("fsck runs");
    assert!(report.clean(), "{context}: fsck found {:?}", report.errors);
}

#[test]
fn negative_entry_is_cached_and_invalidated_by_create() {
    let fs = fresh(256);
    let root = fs.root();
    assert_eq!(fs.lookup(root, "ghost"), Err(FsError::NotFound));
    let neg_before = ctr(&fs, Ctr::DcacheNegHits);
    assert_eq!(fs.lookup(root, "ghost"), Err(FsError::NotFound));
    assert_eq!(
        ctr(&fs, Ctr::DcacheNegHits),
        neg_before + 1,
        "second failed lookup must be served by the negative entry"
    );
    // Create must both succeed (not be fooled by the cached NotFound)
    // and kill the negative entry.
    let ino = fs.create(root, "ghost").expect("create over a negative entry");
    assert_eq!(fs.lookup(root, "ghost"), Ok(ino));
    fs.write(ino, 0, b"alive").expect("write");
    assert_eq!(cffs_fslib::path::read_file(&fs, "/ghost").expect("read"), b"alive");
}

#[test]
fn negative_entry_is_invalidated_by_mkdir_and_rename_destination() {
    let fs = fresh(256);
    let root = fs.root();
    // mkdir over a cached NotFound.
    assert_eq!(fs.lookup(root, "sub"), Err(FsError::NotFound));
    let sub = fs.mkdir(root, "sub").expect("mkdir over a negative entry");
    assert_eq!(fs.lookup(root, "sub"), Ok(sub));
    // rename *into* a cached NotFound: the destination name must resolve
    // afterwards.
    let f = fs.create(root, "src").expect("create");
    fs.write(f, 0, b"payload").expect("write");
    assert_eq!(fs.lookup(root, "dst"), Err(FsError::NotFound));
    fs.rename(root, "src", root, "dst").expect("rename into negative entry");
    assert_eq!(fs.lookup(root, "src"), Err(FsError::NotFound));
    let dst = fs.lookup(root, "dst").expect("destination resolves");
    let mut buf = [0u8; 7];
    assert_eq!(fs.read(dst, 0, &mut buf).expect("read"), 7);
    assert_eq!(&buf, b"payload");
}

#[test]
fn unlink_and_rmdir_leave_no_stale_positive_entry() {
    let fs = fresh(256);
    let root = fs.root();
    let ino = fs.create(root, "f").expect("create");
    assert_eq!(fs.lookup(root, "f"), Ok(ino)); // cache the positive entry
    fs.unlink(root, "f").expect("unlink");
    assert_eq!(fs.lookup(root, "f"), Err(FsError::NotFound));

    let d = fs.mkdir(root, "d").expect("mkdir");
    assert_eq!(fs.lookup(root, "d"), Ok(d));
    fs.rmdir(root, "d").expect("rmdir");
    assert_eq!(fs.lookup(root, "d"), Err(FsError::NotFound));
    // Recreating the names must work and resolve freshly.
    let ino2 = fs.create(root, "f").expect("recreate");
    assert_eq!(fs.lookup(root, "f"), Ok(ino2));
}

#[test]
fn rename_over_existing_destination_purges_the_victim() {
    let fs = fresh(256);
    let root = fs.root();
    let src = fs.create(root, "src").expect("create src");
    fs.write(src, 0, b"new").expect("write");
    let victim = fs.create(root, "dst").expect("create dst");
    fs.write(victim, 0, b"old").expect("write");
    assert_eq!(fs.lookup(root, "dst"), Ok(victim)); // cache the victim
    fs.rename(root, "src", root, "dst").expect("rename over dst");
    let now = fs.lookup(root, "dst").expect("dst resolves");
    let mut buf = [0u8; 3];
    assert_eq!(fs.read(now, 0, &mut buf).expect("read"), 3);
    assert_eq!(&buf, b"new", "dst must serve the renamed file, not the cached victim");
    assert_fsck_clean(&fs, "rename over destination");
}

#[test]
fn link_externalization_renumbers_without_stale_entries() {
    let fs = fresh(256);
    let root = fs.root();
    let ino = fs.create(root, "orig").expect("create");
    fs.write(ino, 0, b"shared").expect("write");
    assert_eq!(fs.lookup(root, "orig"), Ok(ino)); // cache pre-externalization ino
    FileSystem::link(&fs, ino, root, "alias").expect("link");
    // Embedding means the link externalized the inode and renumbered it:
    // both names must now resolve to the *same, live* ino.
    let a = fs.lookup(root, "orig").expect("orig resolves");
    let b = fs.lookup(root, "alias").expect("alias resolves");
    assert_eq!(a, b, "hardlinked names agree on the inode");
    assert_eq!(fs.getattr(a).expect("getattr").nlink, 2);
    let mut buf = [0u8; 6];
    assert_eq!(fs.read(a, 0, &mut buf).expect("read"), 6);
    assert_eq!(&buf, b"shared");
}

#[test]
fn directory_block_relocation_purges_rehomed_children() {
    let fs = fresh(1024);
    let root = fs.root();
    let dir = fs.mkdir(root, "hot").expect("mkdir");
    let mut inos = Vec::new();
    for i in 0..20 {
        inos.push(fs.create(dir, &format!("f{i}")).expect("create"));
    }
    // Cache every child, then move the directory's blocks into a fresh
    // group extent. Embedded inodes re-home with their block, so the
    // cached inos go stale — purge_dir in the commit path must drop them.
    for (i, &ino) in inos.iter().enumerate() {
        assert_eq!(fs.lookup(dir, &format!("f{i}")), Ok(ino));
    }
    let group = fs.carve_group_for(dir).expect("carve").expect("an extent exists");
    let moved = fs.relocate_block_into(dir, 0, group).expect("relocate dir block");
    assert!(moved.is_some(), "directory block actually moved");
    for i in 0..20 {
        let ino = fs.lookup(dir, &format!("f{i}")).expect("child resolves after relocation");
        fs.getattr(ino).unwrap_or_else(|e| {
            panic!("f{i}: cached ino went stale after dir-block relocation: {e:?}")
        });
    }
    assert_fsck_clean(&fs, "directory-block relocation");
}

#[test]
fn bounded_capacity_evicts_but_never_lies() {
    // Capacity far below the working set: every entry gets evicted and
    // re-faulted repeatedly; answers must stay correct throughout.
    let fs = fresh(64);
    let root = fs.root();
    let dir = fs.mkdir(root, "d").expect("mkdir");
    let mut inos = Vec::new();
    for i in 0..300 {
        inos.push(fs.create(dir, &format!("f{i}")).expect("create"));
    }
    for round in 0..3 {
        for (i, &ino) in inos.iter().enumerate() {
            assert_eq!(fs.lookup(dir, &format!("f{i}")), Ok(ino), "round {round} f{i}");
        }
    }
    assert!(ctr(&fs, Ctr::DcacheEvictions) > 0, "capacity pressure actually evicted");
    // A sequential scan over 300 names thrashes a 64-entry cache (every
    // probe misses), but an immediate re-probe of the just-faulted name
    // must hit.
    fs.lookup(dir, "f0").expect("fault f0 back in");
    let hits = ctr(&fs, Ctr::DcacheHits);
    assert_eq!(fs.lookup(dir, "f0"), Ok(inos[0]));
    assert_eq!(ctr(&fs, Ctr::DcacheHits), hits + 1, "re-probe served from cache");
    assert_eq!(fs.lookup(dir, "f999"), Err(FsError::NotFound));
    assert_fsck_clean(&fs, "eviction churn");
}

#[test]
fn drop_caches_clears_and_records_hit_rate() {
    let fs = fresh(256);
    let root = fs.root();
    let ino = fs.create(root, "f").expect("create");
    assert_eq!(fs.lookup(root, "f"), Ok(ino));
    let hits_before = ctr(&fs, Ctr::DcacheHits);
    fs.drop_caches().expect("drop");
    // First lookup after the cold boundary must miss (the cache is
    // empty), then re-fault and hit again.
    let miss_before = ctr(&fs, Ctr::DcacheMisses);
    let after = fs.lookup(root, "f").expect("resolves cold");
    assert_eq!(ctr(&fs, Ctr::DcacheMisses), miss_before + 1);
    fs.lookup(root, "f").expect("resolves warm");
    assert!(ctr(&fs, Ctr::DcacheHits) > hits_before);
    fs.getattr(after).expect("cold-resolved ino is live");
}

#[test]
fn inserts_never_evict_the_names_being_looked_up() {
    // A 64-entry cache is one CLOCK ring. Creating past its capacity
    // leaves it full of the newest names; the oldest sixteen of those
    // are the working set, probed once.
    let fs = fresh(64);
    let root = fs.root();
    let dir = fs.mkdir(root, "d").expect("mkdir");
    let cap = 64;
    let mut inos = Vec::new();
    for i in 0..cap + 36 {
        inos.push(fs.create(dir, &format!("f{i}")).expect("create"));
    }
    let working = 37..37 + 16;
    for i in working.clone() {
        let hits = ctr(&fs, Ctr::DcacheHits);
        assert_eq!(fs.lookup(dir, &format!("f{i}")), Ok(inos[i]));
        assert_eq!(ctr(&fs, Ctr::DcacheHits), hits + 1, "f{i} is cached before the sweep");
    }
    // Fewer fresh names than the capacity: the hand evicts the names
    // that were only inserted, and must pass over the probed ones.
    for i in 0..cap - 24 {
        fs.create(dir, &format!("new{i}")).expect("create");
    }
    let (hits, misses) = (ctr(&fs, Ctr::DcacheHits), ctr(&fs, Ctr::DcacheMisses));
    for i in working.clone() {
        assert_eq!(fs.lookup(dir, &format!("f{i}")), Ok(inos[i]));
    }
    assert_eq!(ctr(&fs, Ctr::DcacheMisses), misses, "a probed name was evicted by inserts");
    assert_eq!(ctr(&fs, Ctr::DcacheHits), hits + working.len() as u64);
    assert!(ctr(&fs, Ctr::DcacheEvictions) > 0, "the creates actually evicted");
}
