//! On-disk layout of C-FFS.
//!
//! ```text
//! block 0            boot block (unused)
//! block 1            superblock (includes the external inode file's inode)
//! block 2 ...        cylinder group 0
//!   +0               CG header: block bitmap + group descriptor table
//!   +1 ...           static inode table (per-CG table placement only)
//!   ...              data blocks (files, directories, indirect blocks,
//!                    external-inode-file blocks, group extents)
//! ...
//! ```
//!
//! C-FFS has **no static inode table** — that is the point. Embedded
//! inodes live in directory blocks; external inodes live in the external
//! inode file, whose own inode sits in the superblock. Disk capacity
//! otherwise consumed by preallocated inodes becomes data space (the
//! paper's [Forin94] observation). Only the classic-FFS baseline
//! ([`crate::InodePlacement::CgTable`]) reserves a table after each CG
//! header; the superblock records its size, 0 for every other placement.
//!
//! ## Inode numbering
//!
//! An inode number encodes where the inode image lives:
//!
//! * **External**: bit 63 set; low bits are the slot index in the external
//!   inode file, or in the concatenated per-CG tables (slot
//!   `cg * slots_per_table + i`). The root directory is external slot 0.
//! * **Embedded**: `block * 512 + entry_offset / 8`, plus a 15-bit
//!   generation stamp in bits 48–62 — the physical directory block, the
//!   8-aligned byte offset of the *entry* that contains the inode, and a
//!   guard that must match the stored inode's generation so recycled
//!   slots reject stale handles. When an entry moves (rename) or is
//!   externalized (link), the inode number changes; the VFS contract
//!   surfaces this.

use crate::exfile::{slot_lbn, slot_off};
use cffs_fslib::codec::{get_u32, get_u64, put_u32, put_u64};
use cffs_fslib::inode::{Inode, INODE_SIZE};
use cffs_fslib::{Bitmap, FsError, FsResult, Ino, BLOCK_SIZE};

/// Superblock magic ("CFFS").
pub const SB_MAGIC: u32 = 0x5346_4643;
/// CG header magic.
pub const CG_MAGIC: u32 = 0x4743_4643;

/// Block number of the superblock.
pub const SB_BLOCK: u64 = 1;
/// First block of cylinder group 0.
pub const FIRST_CG_BLOCK: u64 = 2;

/// Blocks per group extent (64 KB), the paper's grouping unit.
pub const GROUP_BLOCKS: usize = 16;

/// External-inode flag bit in an inode number.
pub const EXT_FLAG: Ino = 1 << 63;
/// The root directory: external slot 0.
pub const INO_ROOT: Ino = EXT_FLAG;

/// Mask for the generation stamp carried in embedded inode numbers
/// (bits 48..63, below the external flag).
pub const GEN_MASK: u64 = 0x7FFF;
/// Bit position of the generation stamp.
pub const GEN_SHIFT: u32 = 48;

/// Where an inode number says the inode image lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InoRef {
    /// Slot index in the external inode file.
    External(u32),
    /// Directory block + byte offset of the containing entry.
    Embedded {
        /// Physical block number of the directory block.
        blk: u64,
        /// Byte offset of the entry within the block (8-aligned).
        off: usize,
        /// Generation stamp: must match the stored inode's generation
        /// (low 15 bits), so a recycled location can never satisfy a
        /// stale handle.
        gen: u16,
    },
}

/// Encode an embedded inode number: location + generation stamp.
pub fn embedded_ino(blk: u64, off: usize, gen: u16) -> Ino {
    debug_assert!(off.is_multiple_of(8) && off < BLOCK_SIZE);
    ((gen as u64 & GEN_MASK) << GEN_SHIFT) | (blk * 512 + (off / 8) as u64)
}

/// Encode an external inode number.
pub fn external_ino(slot: u32) -> Ino {
    EXT_FLAG | slot as u64
}

/// Decode an inode number.
pub fn decode_ino(ino: Ino) -> InoRef {
    if ino & EXT_FLAG != 0 {
        InoRef::External((ino & !EXT_FLAG) as u32)
    } else {
        let loc = ino & !(GEN_MASK << GEN_SHIFT);
        InoRef::Embedded {
            blk: loc / 512,
            off: (loc % 512) as usize * 8,
            gen: ((ino >> GEN_SHIFT) & GEN_MASK) as u16,
        }
    }
}

/// The mounted superblock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Superblock {
    /// Total file-system blocks.
    pub total_blocks: u64,
    /// Number of cylinder groups.
    pub cg_count: u32,
    /// Blocks per cylinder group (header + data).
    pub cg_size: u32,
    /// The external inode file's inode.
    pub exfile: Inode,
    /// Number of inode slots the external file currently holds.
    pub exfile_slots: u32,
    /// Clean-unmount flag.
    pub clean: bool,
    /// Bytes of static inode table after each CG header (a whole number of
    /// blocks); 0 unless the image was made for the per-CG table placement.
    pub itable_bytes: u32,
}

impl Superblock {
    /// Inode-table blocks after each CG header.
    pub fn itable_blocks(&self) -> u32 {
        self.itable_bytes / BLOCK_SIZE as u32
    }

    /// Inode slots in each CG's table (0 without tables).
    pub fn slots_per_table(&self) -> u32 {
        self.itable_bytes / INODE_SIZE as u32
    }

    /// Data blocks per cylinder group (all but the header and table).
    pub fn data_per_cg(&self) -> u32 {
        self.cg_size - 1 - self.itable_blocks()
    }

    /// First block of cylinder group `cg`.
    pub fn cg_start(&self, cg: u32) -> u64 {
        FIRST_CG_BLOCK + cg as u64 * self.cg_size as u64
    }

    /// The header block of cylinder group `cg`.
    pub fn cg_header_block(&self, cg: u32) -> u64 {
        self.cg_start(cg)
    }

    /// First data block of cylinder group `cg`.
    pub fn cg_data_start(&self, cg: u32) -> u64 {
        self.cg_start(cg) + 1 + self.itable_blocks() as u64
    }

    /// Whether `blk` is a data block of some cylinder group: not the boot
    /// block, the superblock, a CG header or an inode table.
    pub fn is_data_block(&self, blk: u64) -> bool {
        self.block_cg(blk).is_some_and(|cg| blk >= self.cg_data_start(cg))
    }

    /// Block and byte offset of inode slot `slot`: table arithmetic when
    /// each CG has a table, else the inode file's block holding it, which
    /// `map` (a bmap on the inode file) resolves (`None` in a hole).
    /// Callers bound `slot` by the live slot count first.
    pub fn slot_location(
        &self,
        slot: u32,
        map: impl FnOnce(u64) -> FsResult<Option<u64>>,
    ) -> FsResult<Option<(u64, usize)>> {
        let per_table = self.slots_per_table();
        if per_table == 0 {
            return Ok(map(slot_lbn(slot))?.map(|blk| (blk, slot_off(slot))));
        }
        let i = slot % per_table;
        Ok(Some((self.cg_start(slot / per_table) + 1 + slot_lbn(i), slot_off(i))))
    }

    /// Which cylinder group a block belongs to, if any.
    pub fn block_cg(&self, blk: u64) -> Option<u32> {
        if blk < FIRST_CG_BLOCK {
            return None;
        }
        let cg = ((blk - FIRST_CG_BLOCK) / self.cg_size as u64) as u32;
        (cg < self.cg_count).then_some(cg)
    }

    /// Maximum group descriptors a CG header can hold.
    pub fn max_groups_per_cg(&self) -> usize {
        let desc_off = CgHeader::desc_table_offset(self.data_per_cg() as usize);
        ((BLOCK_SIZE - desc_off) / GroupDescDisk::SIZE).min(self.data_per_cg() as usize / GROUP_BLOCKS)
    }

    /// Serialize into a superblock image.
    pub fn write_to(&self, buf: &mut [u8]) {
        buf[..BLOCK_SIZE].fill(0);
        put_u32(buf, 0, SB_MAGIC);
        put_u64(buf, 4, self.total_blocks);
        put_u32(buf, 12, self.cg_count);
        put_u32(buf, 16, self.cg_size);
        put_u32(buf, 20, self.exfile_slots);
        put_u32(buf, 24, if self.clean { 1 } else { 0 });
        put_u32(buf, 28, BLOCK_SIZE as u32);
        put_u32(buf, 32, self.itable_bytes);
        self.exfile.write_to(buf, 64);
    }

    /// Deserialize, validating magic and geometry.
    pub fn read_from(buf: &[u8]) -> FsResult<Self> {
        if get_u32(buf, 0) != SB_MAGIC {
            return Err(FsError::Corrupt("bad C-FFS superblock magic".into()));
        }
        if get_u32(buf, 28) != BLOCK_SIZE as u32 {
            return Err(FsError::Corrupt("unsupported block size".into()));
        }
        let exfile = Inode::read_from(buf, 64)
            .ok_or_else(|| FsError::Corrupt("missing external inode file".into()))?;
        let sb = Superblock {
            total_blocks: get_u64(buf, 4),
            cg_count: get_u32(buf, 12),
            cg_size: get_u32(buf, 16),
            exfile,
            exfile_slots: get_u32(buf, 20),
            clean: get_u32(buf, 24) != 0,
            itable_bytes: get_u32(buf, 32),
        };
        if sb.cg_count == 0
            || !sb.itable_bytes.is_multiple_of(BLOCK_SIZE as u32)
            || sb.cg_size < 2 + sb.itable_blocks()
        {
            return Err(FsError::Corrupt("degenerate cylinder-group geometry".into()));
        }
        Ok(sb)
    }
}

/// On-disk group descriptor (16 bytes).
///
/// `start_idx` is the extent's first block as a data-block index within the
/// cylinder group; `owner` is the owning directory's inode number;
/// `member_valid` has bit *i* set when slot *i* holds live data;
/// `nslots` is the extent length in blocks (≤ [`GROUP_BLOCKS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupDescDisk {
    /// Extent start (data-block index within the CG).
    pub start_idx: u32,
    /// Owning directory inode.
    pub owner: u64,
    /// Live-slot bitmap.
    pub member_valid: u16,
    /// Extent length in blocks.
    pub nslots: u8,
}

impl GroupDescDisk {
    /// Serialized size.
    pub const SIZE: usize = 16;

    fn write_to(&self, buf: &mut [u8], off: usize) {
        put_u32(buf, off, self.start_idx);
        put_u64(buf, off + 4, self.owner);
        cffs_fslib::codec::put_u16(buf, off + 12, self.member_valid);
        buf[off + 14] = self.nslots;
        buf[off + 15] = 1; // in-use marker
    }

    fn read_from(buf: &[u8], off: usize) -> Option<Self> {
        if buf[off + 15] == 0 {
            return None;
        }
        Some(GroupDescDisk {
            start_idx: get_u32(buf, off),
            owner: get_u64(buf, off + 4),
            member_valid: cffs_fslib::codec::get_u16(buf, off + 12),
            nslots: buf[off + 14],
        })
    }
}

/// In-memory form of a C-FFS cylinder-group header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CgHeader {
    /// Group index.
    pub cg: u32,
    /// Data-block allocation bitmap.
    pub block_bitmap: Bitmap,
    /// Group descriptors, indexed by table slot (`None` = free slot).
    pub groups: Vec<Option<GroupDescDisk>>,
}

const CG_OFF_BITMAP: usize = 64;

impl CgHeader {
    /// Byte offset of the descriptor table for a given bitmap width.
    fn desc_table_offset(data_blocks: usize) -> usize {
        let bm = data_blocks.div_ceil(8);
        // Keep the table 16-aligned.
        (CG_OFF_BITMAP + bm + 15) & !15
    }

    /// A fresh header with everything free.
    pub fn new(cg: u32, data_blocks: u32, max_groups: usize) -> Self {
        CgHeader {
            cg,
            block_bitmap: Bitmap::new(data_blocks as usize),
            groups: vec![None; max_groups],
        }
    }

    /// Serialize into a header block.
    ///
    /// # Panics
    /// Panics if bitmap + descriptor table overflow the block (geometry is
    /// validated at mkfs).
    pub fn write_to(&self, buf: &mut [u8]) {
        buf[..BLOCK_SIZE].fill(0);
        put_u32(buf, 0, CG_MAGIC);
        put_u32(buf, 4, self.cg);
        put_u32(buf, 8, self.block_bitmap.len() as u32);
        put_u32(buf, 12, self.groups.len() as u32);
        self.block_bitmap.write_bytes(&mut buf[CG_OFF_BITMAP..]);
        let table = Self::desc_table_offset(self.block_bitmap.len());
        assert!(
            table + self.groups.len() * GroupDescDisk::SIZE <= BLOCK_SIZE,
            "group descriptor table overflows CG header"
        );
        for (i, g) in self.groups.iter().enumerate() {
            if let Some(g) = g {
                g.write_to(buf, table + i * GroupDescDisk::SIZE);
            }
        }
    }

    /// Deserialize and validate.
    pub fn read_from(buf: &[u8], expect_cg: u32) -> FsResult<Self> {
        if get_u32(buf, 0) != CG_MAGIC {
            return Err(FsError::Corrupt(format!("bad CG magic in group {expect_cg}")));
        }
        let cg = get_u32(buf, 4);
        if cg != expect_cg {
            return Err(FsError::Corrupt(format!("CG index {cg} where {expect_cg} expected")));
        }
        let ndata = get_u32(buf, 8) as usize;
        let ngroups = get_u32(buf, 12) as usize;
        let table = Self::desc_table_offset(ndata);
        if table + ngroups * GroupDescDisk::SIZE > BLOCK_SIZE {
            return Err(FsError::Corrupt(format!("CG {cg} descriptor table overflows")));
        }
        let block_bitmap = Bitmap::from_bytes(&buf[CG_OFF_BITMAP..], ndata);
        let groups = (0..ngroups)
            .map(|i| GroupDescDisk::read_from(buf, table + i * GroupDescDisk::SIZE))
            .collect();
        Ok(CgHeader { cg, block_bitmap, groups })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cffs_fslib::FileKind;

    #[test]
    fn ino_encoding_round_trips() {
        assert_eq!(decode_ino(external_ino(0)), InoRef::External(0));
        assert_eq!(decode_ino(external_ino(12345)), InoRef::External(12345));
        assert_eq!(decode_ino(INO_ROOT), InoRef::External(0));
        for (blk, off, gen) in
            [(2u64, 0usize, 0u16), (100, 8, 1), (255_000, 4088, 0x7FFF), (7, 512, 1234)]
        {
            let ino = embedded_ino(blk, off, gen);
            assert_eq!(decode_ino(ino), InoRef::Embedded { blk, off, gen });
            assert_eq!(ino & EXT_FLAG, 0);
        }
    }

    #[test]
    fn superblock_round_trip() {
        let mut exfile = Inode::new(FileKind::File);
        exfile.size = 4096;
        exfile.direct[0] = 2;
        exfile.blocks = 1;
        let sb = Superblock {
            total_blocks: 10_000,
            cg_count: 5,
            cg_size: 1999,
            exfile,
            exfile_slots: 32,
            clean: true,
            itable_bytes: 0,
        };
        let mut buf = vec![0u8; BLOCK_SIZE];
        sb.write_to(&mut buf);
        assert_eq!(Superblock::read_from(&buf).unwrap(), sb);
    }

    #[test]
    fn superblock_rejects_garbage() {
        assert!(Superblock::read_from(&vec![0u8; BLOCK_SIZE]).is_err());
    }

    #[test]
    fn cg_header_round_trip_with_groups() {
        let mut h = CgHeader::new(7, 2047, 127);
        h.block_bitmap.set_run(100, 16);
        h.groups[3] = Some(GroupDescDisk {
            start_idx: 100,
            owner: external_ino(5),
            member_valid: 0b1010_0001,
            nslots: 16,
        });
        h.groups[126] = Some(GroupDescDisk {
            start_idx: 200,
            owner: embedded_ino(55, 16, 3),
            member_valid: 0xFFFF,
            nslots: 16,
        });
        let mut buf = vec![0u8; BLOCK_SIZE];
        h.write_to(&mut buf);
        let back = CgHeader::read_from(&buf, 7).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn default_geometry_fits() {
        // 2048-block groups: bitmap 256 B, up to 127 descriptors.
        let sb = Superblock {
            total_blocks: 255_000,
            cg_count: 124,
            cg_size: 2048,
            exfile: Inode::new(FileKind::File),
            exfile_slots: 0,
            clean: true,
            itable_bytes: 0,
        };
        assert_eq!(sb.max_groups_per_cg(), 2047 / 16);
        let h = CgHeader::new(0, sb.data_per_cg(), sb.max_groups_per_cg());
        let mut buf = vec![0u8; BLOCK_SIZE];
        h.write_to(&mut buf); // must not panic
    }

    #[test]
    fn block_cg_mapping() {
        let sb = Superblock {
            total_blocks: 2 + 3 * 100,
            cg_count: 3,
            cg_size: 100,
            exfile: Inode::new(FileKind::File),
            exfile_slots: 0,
            clean: true,
            itable_bytes: 0,
        };
        assert_eq!(sb.block_cg(1), None);
        assert_eq!(sb.block_cg(2), Some(0));
        assert_eq!(sb.block_cg(101), Some(0));
        assert_eq!(sb.block_cg(102), Some(1));
        assert_eq!(sb.block_cg(2 + 300), None);
        assert_eq!(sb.cg_data_start(1), 103);
    }
}
