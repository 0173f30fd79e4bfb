//! C-FFS construction.
//!
//! Formats a disk with: superblock (block 1), per-cylinder-group headers
//! (bitmap + empty group descriptor table), a one-block external inode file
//! whose slot 0 is the root directory. Unlike FFS's `newfs`, there are no
//! inode tables to preallocate — the space is data from day one, the
//! paper's capacity argument [Forin94]. Only the classic-FFS placement
//! ([`InodePlacement::CgTable`]) reserves a zeroed table after each CG
//! header, at FFS's density of one inode per two blocks (1 024 per 8 MB
//! group), and puts the root in slot 0 of CG 0's table instead.

use crate::fs::{Cffs, CffsConfig, InodePlacement};
use crate::layout::{CgHeader, Superblock, FIRST_CG_BLOCK, SB_BLOCK};
use cffs_disksim::Disk;
use cffs_fslib::inode::Inode;
use cffs_fslib::{FileKind, FsError, FsResult, BLOCK_SIZE, SECTORS_PER_BLOCK};

/// Geometry parameters for a new C-FFS.
#[derive(Debug, Clone, Copy)]
pub struct MkfsParams {
    /// Blocks per cylinder group (header + data).
    pub cg_size: u32,
}

impl Default for MkfsParams {
    /// 8 MB cylinder groups, matching the FFS baseline's geometry.
    fn default() -> Self {
        MkfsParams { cg_size: 2048 }
    }
}

impl MkfsParams {
    /// Small geometry for unit tests.
    pub fn tiny() -> Self {
        MkfsParams { cg_size: 512 }
    }
}

/// Format `disk` and mount the result.
pub fn mkfs(mut disk: Disk, params: MkfsParams, cfg: CffsConfig) -> FsResult<Cffs> {
    if params.cg_size < 32 {
        return Err(FsError::InvalidArg);
    }
    let total_blocks = disk.capacity_sectors() / SECTORS_PER_BLOCK;
    if total_blocks < FIRST_CG_BLOCK + params.cg_size as u64 {
        return Err(FsError::InvalidArg);
    }
    let cg_count = ((total_blocks - FIRST_CG_BLOCK) / params.cg_size as u64) as u32;
    let table = cfg.inodes == InodePlacement::CgTable;
    let itable_bytes = if table { (params.cg_size / 64).max(1) * BLOCK_SIZE as u32 } else { 0 };
    let mut sb = Superblock {
        total_blocks,
        cg_count,
        cg_size: params.cg_size,
        exfile: Inode::new(FileKind::File),
        exfile_slots: 0,
        clean: true,
        itable_bytes,
    };
    // Slot 0 (the root) is the first table slot, or the first slot of a
    // one-block external inode file: the first data block of CG 0.
    let root_blk = if table {
        sb.exfile_slots = cg_count * sb.slots_per_table();
        sb.cg_start(0) + 1
    } else {
        let exblock = sb.cg_data_start(0);
        sb.exfile.direct[0] = exblock as u32;
        sb.exfile.size = BLOCK_SIZE as u64;
        sb.exfile.blocks = 1;
        sb.exfile_slots = crate::exfile::SLOTS_PER_BLOCK;
        exblock
    };

    let mut img = vec![0u8; BLOCK_SIZE];
    sb.write_to(&mut img);
    disk.raw_write(SB_BLOCK * SECTORS_PER_BLOCK, &img);

    let zeroed_table = vec![0u8; itable_bytes as usize];
    for cg in 0..cg_count {
        let mut hdr = CgHeader::new(cg, sb.data_per_cg(), sb.max_groups_per_cg());
        if cg == 0 && !table {
            hdr.block_bitmap.set(0); // the external inode file's block
        }
        hdr.write_to(&mut img);
        disk.raw_write(sb.cg_header_block(cg) * SECTORS_PER_BLOCK, &img);
        if table {
            disk.raw_write((sb.cg_header_block(cg) + 1) * SECTORS_PER_BLOCK, &zeroed_table);
        }
    }

    // Root directory: external slot 0, empty.
    let mut root = Inode::new(FileKind::Dir);
    root.nlink = 2;
    img.fill(0);
    root.write_to(&mut img, 0);
    disk.raw_write(root_blk * SECTORS_PER_BLOCK, &img);

    Cffs::mount(disk, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::INO_ROOT;
    use cffs_disksim::models;

    #[test]
    fn mkfs_and_mount_all_variants() {
        for cfg in [
            CffsConfig::ffs(),
            CffsConfig::cffs(),
            CffsConfig::conventional(),
            CffsConfig::embedded_only(),
            CffsConfig::grouping_only(),
        ] {
            let disk = Disk::new(models::tiny_test_disk());
            let label = cfg.label.clone();
            let table = cfg.inodes == InodePlacement::CgTable;
            let fs = mkfs(disk, MkfsParams::tiny(), cfg).unwrap();
            assert_eq!(fs.root(), INO_ROOT, "{label}");
            assert!(fs.readdir(fs.root()).unwrap().is_empty(), "{label}");
            let st = fs.statfs().unwrap();
            assert!(st.free_blocks > 1000, "{label}");
            if table {
                // 512-block groups: 8 table blocks, 256 slots each.
                let sb = fs.superblock();
                assert_eq!((sb.itable_blocks(), sb.data_per_cg()), (8, 503), "{label}");
                assert_eq!(st.total_inodes, 256 * sb.cg_count as u64, "{label}");
                assert_eq!(st.free_inodes, st.total_inodes - 1, "root takes slot 0");
            } else {
                assert_eq!(st.total_inodes, u64::MAX, "dynamic inodes ({label})");
            }
        }
    }

    #[test]
    fn root_attr_is_directory() {
        let disk = Disk::new(models::tiny_test_disk());
        let fs = mkfs(disk, MkfsParams::tiny(), CffsConfig::cffs()).unwrap();
        let attr = fs.getattr(fs.root()).unwrap();
        assert_eq!(attr.kind, cffs_fslib::FileKind::Dir);
        assert_eq!(attr.nlink, 2);
    }

    #[test]
    fn remount_preserves_superblock() {
        let disk = Disk::new(models::tiny_test_disk());
        let fs = mkfs(disk, MkfsParams::tiny(), CffsConfig::cffs()).unwrap();
        let sb1 = fs.superblock();
        let disk = fs.unmount().unwrap();
        let fs2 = Cffs::mount(disk, CffsConfig::cffs()).unwrap();
        assert_eq!(fs2.superblock(), sb1);
    }

    #[test]
    fn tiny_cg_rejected() {
        let disk = Disk::new(models::tiny_test_disk());
        assert!(mkfs(disk, MkfsParams { cg_size: 8 }, CffsConfig::cffs()).is_err());
    }
}
