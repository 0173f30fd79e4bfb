//! The on-disk inode, shared by every inode placement.
//!
//! Classic FFS and C-FFS use the same 128-byte inode image: 12 direct block
//! pointers, one single-indirect and one double-indirect pointer, 4 KB
//! blocks. What differs is *where the image lives*: FFS keeps it in a
//! static per-cylinder-group table; C-FFS embeds it in the directory entry
//! (or, for multi-link files, in the external inode file). Sharing the
//! codec keeps the comparison honest — identical metadata, different
//! placement, exactly the paper's experimental control.

use crate::codec::{get_u16, get_u32, get_u64, put_u16, put_u32, put_u64};
use crate::vfs::FileKind;
use crate::BLOCK_SIZE;

/// Size of an inode image on disk.
pub const INODE_SIZE: usize = 128;

/// Number of direct block pointers.
pub const NDIRECT: usize = 12;

/// Block pointers per indirect block.
pub const PTRS_PER_BLOCK: usize = BLOCK_SIZE / 4;

/// Sentinel for "no block allocated".
pub const NO_BLOCK: u32 = 0;

/// Byte offset of the `generation` field within a serialized inode image
/// (C-FFS reads it directly out of directory blocks to stamp handles).
pub const GENERATION_OFFSET: usize = 76;

/// Largest mappable logical block number + 1.
pub const MAX_FILE_BLOCKS: u64 =
    NDIRECT as u64 + PTRS_PER_BLOCK as u64 + (PTRS_PER_BLOCK as u64) * (PTRS_PER_BLOCK as u64);

/// Maximum file size in bytes.
pub const MAX_FILE_SIZE: u64 = MAX_FILE_BLOCKS * BLOCK_SIZE as u64;

/// In-memory form of the on-disk inode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    /// Object kind.
    pub kind: FileKind,
    /// Hard-link count.
    pub nlink: u16,
    /// Size in bytes.
    pub size: u64,
    /// Allocated data blocks (including indirect blocks).
    pub blocks: u32,
    /// Direct block pointers ([`NO_BLOCK`] = hole).
    pub direct: [u32; NDIRECT],
    /// Single-indirect block pointer.
    pub indirect: u32,
    /// Double-indirect block pointer.
    pub dindirect: u32,
    /// Generation number (bumped on every reuse of the slot).
    pub generation: u32,
    /// Implementation-defined flags. C-FFS keeps the directory's active
    /// group hint here.
    pub flags: u32,
    /// Modification time (simulated seconds).
    pub mtime: u32,
}

const KIND_FREE: u16 = 0;
const KIND_FILE: u16 = 1;
const KIND_DIR: u16 = 2;

impl Inode {
    /// A fresh inode of the given kind.
    pub fn new(kind: FileKind) -> Self {
        Inode {
            kind,
            nlink: 1,
            size: 0,
            blocks: 0,
            direct: [NO_BLOCK; NDIRECT],
            indirect: NO_BLOCK,
            dindirect: NO_BLOCK,
            generation: 0,
            flags: 0,
            mtime: 0,
        }
    }

    /// Serialize into a 128-byte region at `buf[off..]`.
    ///
    /// # Panics
    /// Panics if the region is out of bounds.
    pub fn write_to(&self, buf: &mut [u8], off: usize) {
        let kind = match self.kind {
            FileKind::File => KIND_FILE,
            FileKind::Dir => KIND_DIR,
        };
        buf[off..off + INODE_SIZE].fill(0);
        put_u16(buf, off, kind);
        put_u16(buf, off + 2, self.nlink);
        put_u64(buf, off + 4, self.size);
        put_u32(buf, off + 12, self.mtime);
        put_u32(buf, off + 16, self.blocks);
        for (i, &d) in self.direct.iter().enumerate() {
            put_u32(buf, off + 20 + 4 * i, d);
        }
        put_u32(buf, off + 68, self.indirect);
        put_u32(buf, off + 72, self.dindirect);
        put_u32(buf, off + 76, self.generation);
        put_u32(buf, off + 80, self.flags);
    }

    /// Deserialize from a 128-byte region. Returns `None` for a free slot
    /// (kind 0) or an unrecognized kind tag.
    pub fn read_from(buf: &[u8], off: usize) -> Option<Self> {
        let kind = match get_u16(buf, off) {
            KIND_FREE => return None,
            KIND_FILE => FileKind::File,
            KIND_DIR => FileKind::Dir,
            _ => return None,
        };
        let mut direct = [NO_BLOCK; NDIRECT];
        for (i, d) in direct.iter_mut().enumerate() {
            *d = get_u32(buf, off + 20 + 4 * i);
        }
        Some(Inode {
            kind,
            nlink: get_u16(buf, off + 2),
            size: get_u64(buf, off + 4),
            mtime: get_u32(buf, off + 12),
            blocks: get_u32(buf, off + 16),
            direct,
            indirect: get_u32(buf, off + 68),
            dindirect: get_u32(buf, off + 72),
            generation: get_u32(buf, off + 76),
            flags: get_u32(buf, off + 80),
        })
    }

    /// Mark a 128-byte slot free.
    pub fn clear_slot(buf: &mut [u8], off: usize) {
        buf[off..off + INODE_SIZE].fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut ino = Inode::new(FileKind::File);
        ino.nlink = 3;
        ino.size = 123_456_789;
        ino.blocks = 42;
        ino.direct[0] = 777;
        ino.direct[11] = 888;
        ino.indirect = 999;
        ino.dindirect = 1000;
        ino.generation = 5;
        ino.flags = 0xAA55;
        ino.mtime = 1234;
        let mut buf = vec![0u8; 256];
        ino.write_to(&mut buf, 128);
        assert_eq!(Inode::read_from(&buf, 128), Some(ino));
    }

    #[test]
    fn free_slot_reads_none() {
        let buf = vec![0u8; 128];
        assert_eq!(Inode::read_from(&buf, 0), None);
    }

    #[test]
    fn clear_slot_frees() {
        let mut buf = vec![0u8; 128];
        Inode::new(FileKind::Dir).write_to(&mut buf, 0);
        assert!(Inode::read_from(&buf, 0).is_some());
        Inode::clear_slot(&mut buf, 0);
        assert_eq!(Inode::read_from(&buf, 0), None);
    }

    #[test]
    fn garbage_kind_reads_none() {
        let mut buf = vec![0u8; 128];
        buf[0] = 0xFF;
        buf[1] = 0xFF;
        assert_eq!(Inode::read_from(&buf, 0), None);
    }

    #[test]
    fn max_file_size_is_multi_gb() {
        // 12 direct + 1024 indirect + 1024^2 double-indirect 4 KB blocks.
        assert_eq!(MAX_FILE_BLOCKS, 12 + 1024 + 1024 * 1024);
        let four_gb: u64 = 4 << 30;
        assert!(MAX_FILE_SIZE > four_gb);
    }

    #[test]
    fn dirty_slot_reuse_is_clean() {
        // Writing a new inode over a stale image must not leak old fields.
        let mut buf = vec![0xFFu8; 128];
        let ino = Inode::new(FileKind::File);
        ino.write_to(&mut buf, 0);
        let back = Inode::read_from(&buf, 0).unwrap();
        assert_eq!(back, ino);
        assert_eq!(back.direct, [NO_BLOCK; NDIRECT]);
    }
}
