//! Sparse in-memory sector store, and the block handle it lends.
//!
//! Disk images are gigabyte-scale but mostly empty during experiments, so
//! contents are stored in 4 KB chunks allocated on first touch. Unwritten
//! sectors read back as zeroes, like a freshly formatted drive.
//!
//! Each chunk is a [`Block`]: a reference-counted 4 KB buffer, the same
//! type the buffer cache holds. A block-aligned read into a `Block` takes
//! a handle on the chunk ([`SectorStore::lend`]) instead of copying it, so
//! a group read of sixteen blocks moves no bytes, as a DMA would not cost
//! the CPU any. A write copies into the chunk in place when nothing else
//! holds it, and into a fresh chunk when something does (a cached block,
//! a reader's handle, a crash image's clone of the store), which keeps the
//! bytes that holder saw.

use crate::hash::IntMap;
use crate::SECTOR_SIZE;
use std::io::{self, Read, Write};
use std::ops::Deref;
use std::sync::{Arc, LazyLock};

/// Size of one allocation chunk, in bytes.
const CHUNK_SIZE: usize = 4096;
/// Sectors per allocation chunk.
const SECTORS_PER_CHUNK: u64 = (CHUNK_SIZE / SECTOR_SIZE) as u64;

/// A shared, immutable handle on 4 KB of contents: a chunk of the platter
/// or a buffer of the cache. Cloning one is a reference-count bump; the
/// bytes are written only through a handle no one else holds
/// ([`Block::get_mut`]), so every holder keeps reading the bytes it got.
#[derive(Debug, Clone)]
pub struct Block(Arc<[u8; CHUNK_SIZE]>);

/// The one all-zero block every unwritten chunk reads as.
static ZERO: LazyLock<Block> = LazyLock::new(Block::zeroed);

impl Block {
    /// A fresh, unshared, zeroed buffer (one heap allocation).
    pub fn zeroed() -> Block {
        Block(Arc::new([0u8; CHUNK_SIZE]))
    }

    /// A handle on the one shared zero block: no allocation, and never
    /// writable in place.
    pub fn zero() -> Block {
        ZERO.clone()
    }

    /// The bytes, writable, when no other handle shares them.
    pub fn get_mut(&mut self) -> Option<&mut [u8]> {
        Arc::get_mut(&mut self.0).map(|b| &mut b[..])
    }

    /// Another handle on these bytes exists (the platter's, a reader's,
    /// the zero block's).
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.0) > 1
    }

    /// Both handles name the same bytes in memory.
    pub fn ptr_eq(a: &Block, b: &Block) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// The bytes, writable: in place when unshared, a fresh copy otherwise.
    fn make_mut(&mut self) -> &mut [u8] {
        &mut Arc::make_mut(&mut self.0)[..]
    }
}

impl Deref for Block {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0[..]
    }
}

/// Sparse byte store addressed by sector number. Cloning it shares every
/// chunk; a later write to either copy leaves the other's bytes alone.
#[derive(Debug, Default, Clone)]
pub struct SectorStore {
    chunks: IntMap<u64, Block>,
}

impl SectorStore {
    /// Create an empty (all-zero) store.
    pub fn new() -> Self {
        SectorStore { chunks: IntMap::default() }
    }

    /// Number of chunks currently materialized (for tests and memory stats).
    pub fn materialized_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Read `buf.len()` bytes starting at sector `lba`.
    ///
    /// # Panics
    /// Panics if `buf.len()` is not a multiple of the sector size.
    pub fn read(&self, lba: u64, buf: &mut [u8]) {
        assert_eq!(buf.len() % SECTOR_SIZE, 0, "unaligned read of {} bytes", buf.len());
        let mut off = 0usize;
        let mut sector = lba;
        while off < buf.len() {
            let chunk_idx = sector / SECTORS_PER_CHUNK;
            let in_chunk = (sector % SECTORS_PER_CHUNK) as usize * SECTOR_SIZE;
            let n = (CHUNK_SIZE - in_chunk).min(buf.len() - off);
            match self.chunks.get(&chunk_idx) {
                Some(c) => buf[off..off + n].copy_from_slice(&c[in_chunk..in_chunk + n]),
                None => buf[off..off + n].fill(0),
            }
            off += n;
            sector += (n / SECTOR_SIZE) as u64;
        }
    }

    /// Read the 4 KB at sector `lba` into `block`. At a chunk boundary
    /// the block becomes a handle on the chunk itself (the shared zero
    /// block for an unwritten one): nothing is copied or allocated.
    /// Elsewhere the bytes are copied, into a private buffer.
    pub fn lend(&self, lba: u64, block: &mut Block) {
        if lba.is_multiple_of(SECTORS_PER_CHUNK) {
            *block = self.chunks.get(&(lba / SECTORS_PER_CHUNK)).cloned().unwrap_or_else(Block::zero);
        } else {
            self.read(lba, block.make_mut());
        }
    }

    /// Serialize the sparse image: a magic header, the chunk count, then
    /// `(chunk index, 4096 bytes)` records in ascending order.
    pub fn save_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(b"CFFSIMG1")?;
        let mut indices: Vec<u64> = self.chunks.keys().copied().collect();
        indices.sort_unstable();
        w.write_all(&(indices.len() as u64).to_le_bytes())?;
        for i in indices {
            w.write_all(&i.to_le_bytes())?;
            w.write_all(&self.chunks[&i][..])?;
        }
        Ok(())
    }

    /// Deserialize an image produced by [`SectorStore::save_to`].
    ///
    /// # Errors
    /// Returns `InvalidData` on a bad magic or truncated record.
    pub fn load_from(r: &mut impl Read) -> io::Result<SectorStore> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != b"CFFSIMG1" {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad image magic"));
        }
        let mut n8 = [0u8; 8];
        r.read_exact(&mut n8)?;
        let n = u64::from_le_bytes(n8);
        let mut chunks = IntMap::with_capacity_and_hasher(n as usize, Default::default());
        for _ in 0..n {
            r.read_exact(&mut n8)?;
            let idx = u64::from_le_bytes(n8);
            let mut chunk = Block::zeroed();
            r.read_exact(chunk.make_mut())?;
            chunks.insert(idx, chunk);
        }
        Ok(SectorStore { chunks })
    }

    /// Write `buf.len()` bytes starting at sector `lba`: in place into a
    /// chunk no one else holds, into a copy of one that is shared.
    ///
    /// # Panics
    /// Panics if `buf.len()` is not a multiple of the sector size.
    pub fn write(&mut self, lba: u64, buf: &[u8]) {
        assert_eq!(buf.len() % SECTOR_SIZE, 0, "unaligned write of {} bytes", buf.len());
        let mut off = 0usize;
        let mut sector = lba;
        while off < buf.len() {
            let chunk_idx = sector / SECTORS_PER_CHUNK;
            let in_chunk = (sector % SECTORS_PER_CHUNK) as usize * SECTOR_SIZE;
            let n = (CHUNK_SIZE - in_chunk).min(buf.len() - off);
            let chunk = self.chunks.entry(chunk_idx).or_insert_with(Block::zeroed).make_mut();
            chunk[in_chunk..in_chunk + n].copy_from_slice(&buf[off..off + n]);
            off += n;
            sector += (n / SECTOR_SIZE) as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let s = SectorStore::new();
        let mut buf = vec![0xFFu8; 1024];
        s.read(123, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_read_round_trip() {
        let mut s = SectorStore::new();
        let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        s.write(7, &data);
        let mut back = vec![0u8; 4096];
        s.read(7, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn cross_chunk_write() {
        let mut s = SectorStore::new();
        // Sector 7 spans chunks 0 (sector 7) and 1 (sectors 8..).
        let data = vec![0xAAu8; 3 * SECTOR_SIZE];
        s.write(7, &data);
        let mut one = vec![0u8; SECTOR_SIZE];
        s.read(8, &mut one);
        assert!(one.iter().all(|&b| b == 0xAA));
        s.read(6, &mut one);
        assert!(one.iter().all(|&b| b == 0));
    }

    #[test]
    fn sparse_allocation() {
        let mut s = SectorStore::new();
        s.write(0, &[1u8; SECTOR_SIZE]);
        s.write(1_000_000, &[2u8; SECTOR_SIZE]);
        assert_eq!(s.materialized_chunks(), 2);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_rejected() {
        let mut s = SectorStore::new();
        s.write(0, &[0u8; 100]);
    }

    /// At a chunk boundary a read into a block takes a handle on the chunk
    /// itself (the shared zero block when unwritten); elsewhere it copies.
    #[test]
    fn lend_shares_aligned_chunks_and_copies_unaligned_ones() {
        let mut s = SectorStore::new();
        s.write(8, &[3u8; CHUNK_SIZE]);
        let (mut a, mut b) = (Block::zero(), Block::zero());
        s.lend(8, &mut a);
        s.lend(8, &mut b);
        assert!(Block::ptr_eq(&a, &b) && a.iter().all(|&x| x == 3));
        let mut z = Block::zeroed();
        s.lend(800, &mut z);
        assert!(Block::ptr_eq(&z, &Block::zero()), "an unwritten chunk lends the zero block");
        let mut odd = Block::zero();
        s.lend(4, &mut odd);
        assert!(!Block::ptr_eq(&odd, &a) && !odd.is_shared());
        assert!(odd[..2048].iter().all(|&x| x == 0) && odd[2048..].iter().all(|&x| x == 3));
    }

    /// A write to a chunk someone else holds copies it first: the holder,
    /// and a clone of the whole store, keep their bytes.
    #[test]
    fn writes_leave_lent_chunks_and_cloned_stores_alone() {
        let mut s = SectorStore::new();
        s.write(0, &[1u8; CHUNK_SIZE]);
        let mut held = Block::zero();
        s.lend(0, &mut held);
        let image = s.clone();
        s.write(2, &[9u8; SECTOR_SIZE]);
        assert!(held.iter().all(|&x| x == 1), "a lent chunk changed under its holder");
        let mut buf = vec![0u8; CHUNK_SIZE];
        image.read(0, &mut buf);
        assert!(buf.iter().all(|&x| x == 1), "a write reached the cloned store");
        s.read(0, &mut buf);
        assert_eq!((buf[0], buf[2 * SECTOR_SIZE]), (1, 9));
        // Unshared again, the live chunk takes the next write in place.
        drop((held, image));
        let mut live = Block::zero();
        s.lend(0, &mut live);
        let at = live.as_ptr();
        drop(live);
        s.write(1, &[5u8; SECTOR_SIZE]);
        let mut after = Block::zero();
        s.lend(0, &mut after);
        assert_eq!(after.as_ptr(), at, "an unshared chunk was copied on write");
        assert_eq!((after[0], after[SECTOR_SIZE], after[2 * SECTOR_SIZE]), (1, 5, 9));
    }

    #[test]
    fn image_save_load_round_trip() {
        let mut s = SectorStore::new();
        s.write(0, &[1u8; SECTOR_SIZE]);
        s.write(9999, &[2u8; 3 * SECTOR_SIZE]);
        let mut bytes = Vec::new();
        s.save_to(&mut bytes).unwrap();
        let s2 = SectorStore::load_from(&mut bytes.as_slice()).unwrap();
        let mut buf = vec![0u8; SECTOR_SIZE];
        s2.read(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 1));
        s2.read(10_001, &mut buf);
        assert!(buf.iter().all(|&b| b == 2));
        s2.read(500, &mut buf);
        assert!(buf.iter().all(|&b| b == 0), "sparse holes stay zero");
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(SectorStore::load_from(&mut &b"NOTMAGIC00"[..]).is_err());
        // Truncated record.
        let mut s = SectorStore::new();
        s.write(0, &[7u8; SECTOR_SIZE]);
        let mut bytes = Vec::new();
        s.save_to(&mut bytes).unwrap();
        bytes.truncate(bytes.len() - 10);
        assert!(SectorStore::load_from(&mut bytes.as_slice()).is_err());
    }
}
