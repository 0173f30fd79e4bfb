//! The byte-range data path (`read`, `write`, `truncate`) and the
//! directory-block walk.
//!
//! The one owner of the data policy for both file systems: how a byte
//! range splits into logical blocks; the probe order (the cache's logical
//! index, then the charged block map); that a partial overwrite of an
//! existing block reads it first while a whole or fresh block is not read;
//! that a fresh partial block is zero-filled; that holes read as zeros;
//! how `inode.size` follows a write; and that a shrinking truncate zeroes
//! the tail of its last block. Storage, group fetches and every
//! simulated-CPU charge stay with the caller behind [`FileStore`], so each
//! file system keeps its own sequence of cache calls and charges, and the
//! steps only C-FFS takes (degrouping before a write, read-ahead after a
//! read) stay around the call.

use crate::bmap::{self, PtrStore};
use crate::inode::Inode;
use crate::{CpuModel, FsError, FsResult, Ino, BLOCK_SIZE};
use cffs_disksim::SimDuration;
use std::ops::Range;

const BS: u64 = BLOCK_SIZE as u64;

/// One file as the data path sees it: its pointer tree ([`PtrStore`],
/// whose `Buf` is also a data block's handle), its cached blocks, and the
/// simulated CPU that pays for both.
pub trait FileStore: PtrStore {
    /// The file's inode number.
    fn ino(&self) -> Ino;

    /// The costs charges are drawn from.
    fn cpu(&self) -> CpuModel;

    /// Advance the simulated clock by `d`.
    fn charge(&self, d: SimDuration);

    /// The block the cache has bound to logical block `lbn`, if any: a hit
    /// skips the block map.
    fn cached(&self, lbn: u64) -> Option<u64>;

    /// Read block `blk`, binding it to logical block `lbn`.
    fn fetch(&self, blk: u64, lbn: u64) -> FsResult<Self::Buf>;

    /// Rewrite block `blk`, bound to logical block `lbn`, through `f`;
    /// `load` reads its old contents first on a miss.
    fn modify<R>(&self, blk: u64, lbn: u64, load: bool, f: impl FnOnce(&mut [u8]) -> R) -> FsResult<R>;

    /// Runs before a partial overwrite loads the existing block `blk`.
    fn before_partial_overwrite(&self, blk: u64) -> FsResult<()>;
}

/// The block holding logical block `lbn`, or `None` for a hole; charged
/// one block operation.
pub fn map<S: FileStore>(s: &S, inode: &Inode, lbn: u64) -> FsResult<Option<u64>> {
    s.charge(s.cpu().block_op);
    bmap::lookup(s, inode, lbn)
}

/// The block holding logical block `lbn`, allocated if missing; charged
/// one block operation. The caller persists the inode.
pub fn map_alloc<S: FileStore>(s: &S, inode: &mut Inode, lbn: u64) -> FsResult<u64> {
    s.charge(s.cpu().block_op);
    bmap::map_alloc(s, inode, lbn)
}

/// The pieces of byte range `off..off + len`, one per logical block:
/// `(lbn, offset within the block, range within the caller's buffer)`.
fn pieces(off: u64, len: usize) -> impl Iterator<Item = (u64, usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let pos = off + done as u64;
            let at = (pos % BS) as usize;
            let n = (BLOCK_SIZE - at).min(len - done);
            done += n;
            (pos / BS, at, done - n..done)
        })
    })
}

/// Copy the file's bytes from `off` into `buf`, up to the end of the file;
/// holes read as zeros. Returns the number of bytes read.
pub fn read<S: FileStore>(s: &S, inode: &Inode, off: u64, buf: &mut [u8]) -> FsResult<usize> {
    if off >= inode.size {
        return Ok(0);
    }
    let want = buf.len().min((inode.size - off) as usize);
    for (lbn, at, r) in pieces(off, want) {
        let n = r.len();
        let blk = match s.cached(lbn) {
            Some(b) => Some(b),
            None => map(s, inode, lbn)?,
        };
        match blk {
            Some(b) => buf[r].copy_from_slice(&s.fetch(b, lbn)?[at..at + n]),
            None => buf[r].fill(0),
        }
        s.charge(s.cpu().copy_cost(n));
    }
    Ok(want)
}

/// Store `data` at byte `off`, allocating missing blocks and growing
/// `inode.size`. The caller persists the inode.
pub fn write<S: FileStore>(s: &S, inode: &mut Inode, off: u64, data: &[u8]) -> FsResult<usize> {
    if data.is_empty() {
        return Ok(0);
    }
    for (lbn, at, r) in pieces(off, data.len()) {
        let n = r.len();
        let existed = s.cached(lbn).is_some() || map(s, inode, lbn)?.is_some();
        let blk = map_alloc(s, inode, lbn)?;
        // Only a partial overwrite keeps part of the old block; a whole
        // block, or a fresh one, is not read.
        let partial = existed && n < BLOCK_SIZE;
        if partial {
            s.before_partial_overwrite(blk)?;
        }
        let src = &data[r];
        s.modify(blk, lbn, partial, |d| {
            if !partial && n < BLOCK_SIZE {
                d.fill(0);
            }
            d[at..at + n].copy_from_slice(src);
        })?;
        s.charge(s.cpu().copy_cost(n));
    }
    inode.size = inode.size.max(off + data.len() as u64);
    Ok(data.len())
}

/// Set the file's size. Shrinking frees every block past the new end and
/// zeroes the tail of a kept partial last block, so a later extension
/// reads zeros. The caller persists the inode.
pub fn truncate<S: FileStore>(s: &S, inode: &mut Inode, size: u64) -> FsResult<()> {
    if size < inode.size {
        bmap::free_from(s, inode, size.div_ceil(BS))?;
        let (lbn, cut) = (size / BS, (size % BS) as usize);
        if cut > 0 {
            if let Some(blk) = map(s, inode, lbn)? {
                s.modify(blk, lbn, true, |d| d[cut..].fill(0))?;
            }
        }
    }
    inode.size = size;
    Ok(())
}

/// Call `f(lbn, blk)` on each block of directory `inode` in logical order
/// until it returns `Some`; a hole is corruption. `f` fetches and charges
/// for itself.
pub fn dir_blocks<S: FileStore, T>(
    s: &S,
    inode: &Inode,
    mut f: impl FnMut(u64, u64) -> FsResult<Option<T>>,
) -> FsResult<Option<T>> {
    for lbn in 0..inode.size / BS {
        let blk = map(s, inode, lbn)?
            .ok_or_else(|| FsError::Corrupt(format!("hole in directory {}", s.ino())))?;
        if let Some(t) = f(lbn, blk)? {
            return Ok(Some(t));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmap::PtrRead;
    use crate::vfs::FileKind;
    use std::cell::{Cell, RefCell};
    use std::collections::HashMap;

    /// In-memory blocks, a bump allocator, the cache's logical bindings,
    /// and a log of the hook calls the data path makes.
    #[derive(Default)]
    struct Fake {
        next: Cell<u64>,
        blocks: RefCell<HashMap<u64, Vec<u8>>>,
        bound: RefCell<HashMap<u64, u64>>,
        log: RefCell<Vec<String>>,
    }

    impl Fake {
        fn bump(&self, fill: u8) -> u64 {
            self.next.set(self.next.get() + 1);
            self.blocks.borrow_mut().insert(self.next.get(), vec![fill; BLOCK_SIZE]);
            self.next.get()
        }

        fn note(&self, s: String) {
            self.log.borrow_mut().push(s);
        }

        fn take_log(&self) -> Vec<String> {
            std::mem::take(&mut self.log.borrow_mut())
        }

        fn block(&self, blk: u64) -> Vec<u8> {
            self.blocks.borrow()[&blk].clone()
        }
    }

    impl PtrRead for Fake {
        type Buf = Vec<u8>;

        fn read_ptrs(&self, blk: u64) -> FsResult<Vec<u8>> {
            Ok(self.block(blk))
        }
    }

    impl PtrStore for Fake {
        fn write_ptrs(&self, blk: u64, f: impl FnOnce(&mut [u8])) -> FsResult<()> {
            f(self.blocks.borrow_mut().get_mut(&blk).expect("live pointer block"));
            Ok(())
        }

        fn alloc_ptr_block(&self, _hint: Option<u64>) -> FsResult<u64> {
            Ok(self.bump(0))
        }

        fn alloc_data(&self, lbn: u64, _hint: Option<u64>) -> FsResult<u64> {
            self.note(format!("alloc {lbn}"));
            // Stale contents: a fresh block must not leak them.
            Ok(self.bump(0xAB))
        }

        fn free_data(&self, lbn: u64, blk: u64) {
            self.note(format!("free {lbn}"));
            self.blocks.borrow_mut().remove(&blk);
        }

        fn free_ptr_block(&self, blk: u64) {
            self.blocks.borrow_mut().remove(&blk);
        }
    }

    impl FileStore for Fake {
        fn ino(&self) -> Ino {
            7
        }

        fn cpu(&self) -> CpuModel {
            CpuModel::default()
        }

        fn charge(&self, d: SimDuration) {
            self.note(format!("charge {}", d.as_nanos()));
        }

        fn cached(&self, lbn: u64) -> Option<u64> {
            self.note(format!("cached {lbn}"));
            self.bound.borrow().get(&lbn).copied()
        }

        fn fetch(&self, blk: u64, lbn: u64) -> FsResult<Vec<u8>> {
            self.note(format!("fetch {lbn}"));
            self.bound.borrow_mut().insert(lbn, blk);
            Ok(self.block(blk))
        }

        fn modify<R>(
            &self,
            blk: u64,
            lbn: u64,
            load: bool,
            f: impl FnOnce(&mut [u8]) -> R,
        ) -> FsResult<R> {
            self.note(format!("modify {lbn} load={load}"));
            self.bound.borrow_mut().insert(lbn, blk);
            Ok(f(self.blocks.borrow_mut().get_mut(&blk).expect("live block")))
        }

        fn before_partial_overwrite(&self, _blk: u64) -> FsResult<()> {
            self.note("partial".into());
            Ok(())
        }
    }

    const OP: u64 = 8_000; // block_op
    const KB: u64 = 20_000; // copy_per_kb

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn write_probes_then_maps_and_loads_only_partial_overwrites() {
        let s = Fake::default();
        let mut inode = Inode::new(FileKind::File);
        // A fresh partial block: not loaded, zero-filled around the data.
        assert_eq!(write(&s, &mut inode, 4095, b"xy"), Ok(2));
        assert_eq!(inode.size, 4097);
        assert_eq!(
            s.take_log(),
            strs(&[
                "cached 0",
                &format!("charge {OP}"),
                &format!("charge {OP}"),
                "alloc 0",
                "modify 0 load=false",
                &format!("charge {KB}"),
                "cached 1",
                &format!("charge {OP}"),
                &format!("charge {OP}"),
                "alloc 1",
                "modify 1 load=false",
                &format!("charge {KB}"),
            ])
        );
        let b0 = bmap::lookup(&s, &inode, 0).unwrap().unwrap();
        assert!(s.block(b0)[..4095].iter().all(|&b| b == 0));
        // A partial overwrite of a bound block skips the map probe and loads.
        write(&s, &mut inode, 10, b"z").unwrap();
        assert_eq!(
            s.take_log(),
            strs(&[
                "cached 0",
                &format!("charge {OP}"),
                "partial",
                "modify 0 load=true",
                &format!("charge {KB}"),
            ])
        );
        assert_eq!(&s.block(b0)[9..12], &[0, b'z', 0]);
        // An empty write changes nothing.
        assert_eq!(write(&s, &mut inode, 1 << 20, b""), Ok(0));
        assert_eq!((inode.size, s.take_log().len()), (4097, 0));
    }

    #[test]
    fn read_stops_at_eof_and_reads_holes_as_zeros() {
        let s = Fake::default();
        let mut inode = Inode::new(FileKind::File);
        write(&s, &mut inode, 2 * BS, b"end").unwrap();
        s.bound.borrow_mut().clear();
        s.take_log();
        let mut buf = [9u8; 8];
        assert_eq!(read(&s, &inode, 2 * BS - 4, &mut buf), Ok(7));
        assert_eq!(&buf, b"\0\0\0\0end\x09");
        assert_eq!(
            s.take_log(),
            strs(&[
                "cached 1",
                &format!("charge {OP}"),
                &format!("charge {KB}"),
                "cached 2",
                &format!("charge {OP}"),
                "fetch 2",
                &format!("charge {KB}"),
            ])
        );
        assert_eq!(read(&s, &inode, 2 * BS + 3, &mut buf), Ok(0));
    }

    #[test]
    fn truncate_frees_past_the_end_and_zeroes_the_kept_tail() {
        let s = Fake::default();
        let mut inode = Inode::new(FileKind::File);
        write(&s, &mut inode, 0, &[1; 3 * BLOCK_SIZE]).unwrap();
        s.take_log();
        truncate(&s, &mut inode, BS + 10).unwrap();
        assert_eq!(inode.size, BS + 10);
        assert_eq!(
            s.take_log(),
            strs(&["free 2", &format!("charge {OP}"), "modify 1 load=true"])
        );
        let b1 = bmap::lookup(&s, &inode, 1).unwrap().unwrap();
        assert!(s.block(b1)[..10].iter().all(|&b| b == 1));
        assert!(s.block(b1)[10..].iter().all(|&b| b == 0));
        // Extending allocates nothing.
        truncate(&s, &mut inode, 9 * BS).unwrap();
        assert_eq!((inode.size, s.take_log().len()), (9 * BS, 0));
    }

    #[test]
    fn a_directory_hole_is_corrupt() {
        let s = Fake::default();
        let mut inode = Inode::new(FileKind::Dir);
        write(&s, &mut inode, 0, &[0; BLOCK_SIZE]).unwrap();
        inode.size = 3 * BS;
        let mut seen = Vec::new();
        let res = dir_blocks(&s, &inode, |lbn, _| {
            seen.push(lbn);
            Ok(None::<()>)
        });
        assert_eq!(res, Err(FsError::Corrupt("hole in directory 7".into())));
        assert_eq!(seen, [0]);
        assert_eq!(dir_blocks(&s, &inode, |lbn, _| Ok(Some(lbn))), Ok(Some(0)));
    }
}
