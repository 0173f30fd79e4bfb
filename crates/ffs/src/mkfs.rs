//! File-system construction (`newfs`).
//!
//! Formatting uses the disk's raw (timing-free) interface: it is setup, not
//! measurement. The resulting layout: superblock in block 1, then
//! `cg_count` cylinder groups, each with a header, a static inode table and
//! data blocks. The root directory is inode 2 in group 0, initially empty
//! (directories grow their first block on first insertion).

use crate::fs::{Ffs, FfsOptions};
use crate::layout::{CgHeader, Superblock, FIRST_CG_BLOCK, INO_BAD, INO_NIL, INO_ROOT, INODES_PER_BLOCK, SB_BLOCK};
use cffs_disksim::Disk;
use cffs_fslib::inode::Inode;
use cffs_fslib::{FileKind, FsError, FsResult, BLOCK_SIZE, SECTORS_PER_BLOCK};

/// Geometry parameters for a new file system.
#[derive(Debug, Clone, Copy)]
pub struct MkfsParams {
    /// Blocks per cylinder group (header + inode table + data).
    pub cg_size: u32,
    /// Inode slots per cylinder group. Must be a multiple of
    /// [`INODES_PER_BLOCK`] (32).
    pub inodes_per_cg: u32,
}

impl Default for MkfsParams {
    /// 8 MB groups with 1024 inodes each — FFS-scale defaults for the
    /// 1 GB testbed disk.
    fn default() -> Self {
        MkfsParams { cg_size: 2048, inodes_per_cg: 1024 }
    }
}

impl MkfsParams {
    /// Small geometry for unit tests (64 MB-class disks).
    pub fn tiny() -> Self {
        MkfsParams { cg_size: 512, inodes_per_cg: 256 }
    }

    fn itable_blocks(&self) -> u32 {
        self.inodes_per_cg.div_ceil(INODES_PER_BLOCK as u32)
    }
}

/// Format `disk` and mount the result.
pub fn mkfs(mut disk: Disk, params: MkfsParams, opts: FfsOptions) -> FsResult<Ffs> {
    if params.inodes_per_cg == 0 || !params.inodes_per_cg.is_multiple_of(INODES_PER_BLOCK as u32) {
        return Err(FsError::InvalidArg);
    }
    let itable = params.itable_blocks();
    if params.cg_size <= 1 + itable {
        return Err(FsError::InvalidArg);
    }
    let total_blocks = disk.capacity_sectors() / SECTORS_PER_BLOCK;
    if total_blocks < FIRST_CG_BLOCK + params.cg_size as u64 {
        return Err(FsError::InvalidArg);
    }
    let cg_count = ((total_blocks - FIRST_CG_BLOCK) / params.cg_size as u64) as u32;
    let sb = Superblock {
        total_blocks,
        cg_count,
        cg_size: params.cg_size,
        inodes_per_cg: params.inodes_per_cg,
        itable_blocks: itable,
        clean: true,
    };

    let mut blockbuf = vec![0u8; BLOCK_SIZE];
    sb.write_to(&mut blockbuf);
    disk.raw_write(SB_BLOCK * SECTORS_PER_BLOCK, &blockbuf);

    let zero = vec![0u8; BLOCK_SIZE];
    for cg in 0..cg_count {
        let mut hdr = CgHeader::new(cg, sb.data_per_cg(), sb.inodes_per_cg);
        if cg == 0 {
            // Reserve the traditional inodes and account the root directory.
            hdr.inode_bitmap.set(INO_NIL as usize);
            hdr.inode_bitmap.set(INO_BAD as usize);
            hdr.inode_bitmap.set(INO_ROOT as usize);
            hdr.ndirs = 1;
        }
        hdr.write_to(&mut blockbuf);
        disk.raw_write(sb.cg_header_block(cg) * SECTORS_PER_BLOCK, &blockbuf);
        // Zero the inode table.
        for b in 0..itable as u64 {
            disk.raw_write((sb.cg_start(cg) + 1 + b) * SECTORS_PER_BLOCK, &zero);
        }
    }

    // Root inode: an empty directory.
    let mut root = Inode::new(FileKind::Dir);
    root.nlink = 2;
    let (blk, off) = sb.inode_location(INO_ROOT)?;
    let mut itable_img = vec![0u8; BLOCK_SIZE];
    root.write_to(&mut itable_img, off);
    disk.raw_write(blk * SECTORS_PER_BLOCK, &itable_img);

    Ffs::mount(disk, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cffs_disksim::models;
    use cffs_fslib::FileSystem;

    #[test]
    fn mkfs_and_mount_tiny() {
        let disk = Disk::new(models::tiny_test_disk());
        let fs = mkfs(disk, MkfsParams::tiny(), FfsOptions::default()).unwrap();
        assert_eq!(fs.root(), INO_ROOT);
        let st = fs.statfs().unwrap();
        assert!(st.total_blocks > 1000);
        assert!(st.free_blocks > 0);
        assert!(fs.readdir(fs.root()).unwrap().is_empty());
    }

    #[test]
    fn mkfs_default_on_testbed_disk() {
        let disk = Disk::new(models::seagate_st31200());
        let fs = mkfs(disk, MkfsParams::default(), FfsOptions::default()).unwrap();
        let st = fs.statfs().unwrap();
        // ~1 GB: about a quarter million 4 KB blocks, >100 groups.
        assert!(st.total_blocks > 200_000, "{}", st.total_blocks);
        assert!(st.total_inodes > 100_000);
    }

    #[test]
    fn remount_preserves_superblock() {
        let disk = Disk::new(models::tiny_test_disk());
        let fs = mkfs(disk, MkfsParams::tiny(), FfsOptions::default()).unwrap();
        let sb1 = fs.superblock().clone();
        let disk = fs.unmount().unwrap();
        let fs2 = Ffs::mount(disk, FfsOptions::default()).unwrap();
        assert_eq!(*fs2.superblock(), sb1);
    }

    #[test]
    fn bad_params_rejected() {
        let disk = Disk::new(models::tiny_test_disk());
        assert!(mkfs(disk, MkfsParams { cg_size: 4, inodes_per_cg: 256 }, FfsOptions::default())
            .is_err());
        let disk = Disk::new(models::tiny_test_disk());
        assert!(mkfs(disk, MkfsParams { cg_size: 512, inodes_per_cg: 37 }, FfsOptions::default())
            .is_err());
    }
}
