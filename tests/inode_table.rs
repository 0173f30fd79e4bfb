//! The classic-FFS placement: inodes in a static table after each
//! cylinder group's header. A file's inode lands in its directory's home
//! group, the image refuses to mount as anything else, and the one fsck
//! keeps file pointers out of the tables (its orphan-slot check runs on
//! the tables in `cffs_core::fsck`'s own tests).

use cffs::core::layout::{decode_ino, InoRef, Superblock, SB_BLOCK};
use cffs::core::{fsck, Cffs, CffsConfig, MkfsParams};
use cffs::prelude::*;
use cffs_disksim::{models, Disk};
use cffs_fslib::inode::Inode;
use cffs_fslib::{read_block, write_block};

fn ffs() -> Cffs {
    cffs::core::mkfs::mkfs(Disk::new(models::tiny_test_disk()), MkfsParams::tiny(), CffsConfig::ffs())
        .expect("mkfs")
}

fn superblock(disk: &Disk) -> Superblock {
    Superblock::read_from(&read_block(disk, SB_BLOCK)).expect("superblock")
}

fn slot_of(ino: Ino) -> u32 {
    match decode_ino(ino) {
        InoRef::External(slot) => slot,
        other => panic!("table inode expected, got {other:?}"),
    }
}

/// Block and offset of a table slot.
fn slot_block(sb: &Superblock, slot: u32) -> (u64, usize) {
    sb.slot_location(slot, |_| unreachable!("no inode file")).unwrap().expect("in a table")
}

#[test]
fn file_inode_lands_in_its_directory_home_table_and_survives_remount() {
    let fs = ffs();
    let sb = fs.superblock();
    let mut homes = Vec::new();
    let mut files = Vec::new();
    for d in 0..6 {
        let dir = fs.mkdir(fs.root(), &format!("d{d}")).unwrap();
        let f = fs.create(dir, "f").unwrap();
        fs.write(f, 0, format!("file in d{d}").as_bytes()).unwrap();
        // The directory's blocks are allocated in its home group.
        let (_, dblk) = fs.file_block_map(dir).unwrap()[0];
        let home = sb.block_cg(dblk).unwrap();
        assert_eq!(slot_of(f) / sb.slots_per_table(), home, "d{d}: inode outside its home table");
        homes.push(home);
        files.push(f);
    }
    homes.sort_unstable();
    homes.dedup();
    assert!(homes.len() > 1, "directories did not spread: {homes:?}");

    let fs = Cffs::mount(fs.unmount().unwrap(), CffsConfig::ffs()).unwrap();
    for (d, &f) in files.iter().enumerate() {
        let mut buf = vec![0u8; 16];
        let n = fs.read(f, 0, &mut buf).unwrap();
        assert_eq!(&buf[..n], format!("file in d{d}").as_bytes());
    }
}

#[test]
fn a_table_image_mounts_only_with_the_table_placement() {
    let disk = ffs().unmount().unwrap();
    for cfg in [CffsConfig::conventional(), CffsConfig::cffs()] {
        let label = cfg.label.clone();
        let err = Cffs::mount(disk.clone_image(), cfg).expect_err(&label);
        assert_eq!(err, FsError::InvalidArg, "{label}");
    }
    Cffs::mount(disk, CffsConfig::ffs()).expect("the table placement mounts it");

    let conventional = cffs::core::mkfs::mkfs(
        Disk::new(models::tiny_test_disk()),
        MkfsParams::tiny(),
        CffsConfig::conventional(),
    )
    .unwrap()
    .unmount()
    .unwrap();
    let err = Cffs::mount(conventional, CffsConfig::ffs()).expect_err("table-less image");
    assert_eq!(err, FsError::InvalidArg);
}

#[test]
fn fsck_reports_a_file_pointer_into_a_table() {
    let fs = ffs();
    let f = fs.create(fs.root(), "f").unwrap();
    fs.write(f, 0, b"data").unwrap();
    let mut disk = fs.unmount().unwrap();

    // Point the file's first block at the second block of CG 2's table.
    let sb = superblock(&disk);
    let (blk, off) = slot_block(&sb, slot_of(f));
    let mut img = read_block(&disk, blk);
    let mut inode = Inode::read_from(&img, off).unwrap();
    let target = sb.cg_header_block(2) + 2;
    assert!(!sb.is_data_block(target));
    inode.direct[0] = target as u32;
    inode.write_to(&mut img, off);
    write_block(&mut disk, blk, &img);

    let report = fsck(&mut disk, false).unwrap();
    let want = format!("references invalid block {target}");
    assert!(report.errors.iter().any(|e| e.ends_with(&want)), "{:?}", report.errors);
}
