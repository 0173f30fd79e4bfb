//! The inode's block map: 12 direct pointers, then one single-indirect
//! and one double-indirect pointer block.
//!
//! The one owner of that tree for both file systems and both checkers:
//! which slot maps a logical block, in what order (and near what) a
//! missing block and its pointer blocks are allocated, how a truncate
//! frees the tail, and how fsck enumerates a file's blocks. Storage, and
//! every simulated-CPU charge, stay with the caller behind [`PtrRead`] and
//! [`PtrStore`]; this module only fixes the order in which they are called.

use crate::codec::{get_u32, put_u32};
use crate::inode::{Inode, MAX_FILE_BLOCKS, NDIRECT, NO_BLOCK, PTRS_PER_BLOCK};
use crate::{FsError, FsResult};
use cffs_disksim::Disk;
use std::ops::Deref;

/// Read access to pointer blocks: all [`lookup`] and [`walk`] need.
pub trait PtrRead {
    /// A pointer block's [`BLOCK_SIZE`](crate::BLOCK_SIZE) bytes.
    type Buf: Deref<Target = [u8]>;

    /// Read pointer block `blk`.
    fn read_ptrs(&self, blk: u64) -> FsResult<Self::Buf>;
}

/// The mutations [`map_alloc`], [`set`] and [`free_from`] make.
pub trait PtrStore: PtrRead {
    /// Rewrite pointer block `blk` in place through `f`.
    fn write_ptrs(&self, blk: u64, f: impl FnOnce(&mut [u8])) -> FsResult<()>;

    /// Allocate a pointer block near `hint`, every slot [`NO_BLOCK`].
    fn alloc_ptr_block(&self, hint: Option<u64>) -> FsResult<u64>;

    /// Allocate the data block for logical block `lbn` near `hint`.
    fn alloc_data(&self, lbn: u64, hint: Option<u64>) -> FsResult<u64>;

    /// Free data block `blk`, which held logical block `lbn`.
    fn free_data(&self, lbn: u64, blk: u64);

    /// Free pointer block `blk`.
    fn free_ptr_block(&self, blk: u64);
}

/// Off-line access for fsck: a timing-free raw read of the image.
impl PtrRead for Disk {
    type Buf = Vec<u8>;

    fn read_ptrs(&self, blk: u64) -> FsResult<Vec<u8>> {
        Ok(crate::read_block(self, blk))
    }
}

/// Where the pointer for a logical block lives.
enum Slot {
    /// `inode.direct[i]`.
    Direct(usize),
    /// Slot `i` of the single-indirect block.
    Single(usize),
    /// Slot `i` of the pointer block in slot `o` of the double-indirect
    /// block.
    Double(usize, usize),
}

fn slot_of(lbn: u64) -> FsResult<Slot> {
    if lbn >= MAX_FILE_BLOCKS {
        return Err(FsError::FileTooBig);
    }
    let l = lbn as usize;
    Ok(match l.checked_sub(NDIRECT) {
        None => Slot::Direct(l),
        Some(l1) if l1 < PTRS_PER_BLOCK => Slot::Single(l1),
        Some(l1) => {
            let l2 = l1 - PTRS_PER_BLOCK;
            Slot::Double(l2 / PTRS_PER_BLOCK, l2 % PTRS_PER_BLOCK)
        }
    })
}

/// The inode's two pointer-block roots as (first logical block, logical
/// blocks per slot).
const SINGLE: (u64, u64) = (NDIRECT as u64, 1);
const DOUBLE: (u64, u64) = (
    NDIRECT as u64 + PTRS_PER_BLOCK as u64,
    PTRS_PER_BLOCK as u64,
);

/// Pointer `idx` of pointer block `blk`; a missing pointer block maps
/// nothing and is not read.
fn ptr_at<S: PtrRead>(s: &S, blk: u32, idx: usize) -> FsResult<u32> {
    if blk == NO_BLOCK {
        return Ok(NO_BLOCK);
    }
    Ok(get_u32(&s.read_ptrs(blk as u64)?, idx * 4))
}

fn mapped(ptr: u32) -> Option<u64> {
    (ptr != NO_BLOCK).then_some(ptr as u64)
}

/// The block holding logical block `lbn`, or `None` for a hole.
pub fn lookup<S: PtrRead>(s: &S, inode: &Inode, lbn: u64) -> FsResult<Option<u64>> {
    let ptr = match slot_of(lbn)? {
        Slot::Direct(i) => inode.direct[i],
        Slot::Single(i) => ptr_at(s, inode.indirect, i)?,
        Slot::Double(o, i) => ptr_at(s, ptr_at(s, inode.dindirect, o)?, i)?,
    };
    Ok(mapped(ptr))
}

/// The block holding logical block `lbn`, allocating it — and any pointer
/// block on its path — if missing. A data block's hint is the block
/// mapping `lbn - 1` (the pointer block itself for a leaf's first slot); a
/// second-level pointer block's is the double-indirect block. The caller
/// persists the updated inode.
pub fn map_alloc<S: PtrStore>(s: &S, inode: &mut Inode, lbn: u64) -> FsResult<u64> {
    let (leaf, idx) = match slot_of(lbn)? {
        Slot::Direct(i) => {
            if inode.direct[i] == NO_BLOCK {
                let hint = i.checked_sub(1).and_then(|p| mapped(inode.direct[p]));
                inode.direct[i] = s.alloc_data(lbn, hint)? as u32;
                inode.blocks += 1;
            }
            return Ok(inode.direct[i] as u64);
        }
        Slot::Single(i) => (top_alloc(s, &mut inode.indirect, &mut inode.blocks)?, i),
        Slot::Double(o, i) => {
            let dind = top_alloc(s, &mut inode.dindirect, &mut inode.blocks)?;
            let mut mid = ptr_at(s, dind, o)?;
            if mid == NO_BLOCK {
                mid = s.alloc_ptr_block(Some(dind as u64))? as u32;
                s.write_ptrs(dind as u64, |d| put_u32(d, o * 4, mid))?;
                inode.blocks += 1;
            }
            (mid, i)
        }
    };
    if let Some(blk) = mapped(ptr_at(s, leaf, idx)?) {
        return Ok(blk);
    }
    let hint = match idx {
        0 => Some(leaf as u64),
        _ => mapped(ptr_at(s, leaf, idx - 1)?),
    };
    let blk = s.alloc_data(lbn, hint)?;
    s.write_ptrs(leaf as u64, |d| put_u32(d, idx * 4, blk as u32))?;
    inode.blocks += 1;
    Ok(blk)
}

/// The top-level pointer block in `ptr`, allocated (and counted in
/// `blocks`) if missing.
fn top_alloc<S: PtrStore>(s: &S, ptr: &mut u32, blocks: &mut u32) -> FsResult<u32> {
    if *ptr == NO_BLOCK {
        *ptr = s.alloc_ptr_block(None)? as u32;
        *blocks += 1;
    }
    Ok(*ptr)
}

/// Re-point the mapped logical block `lbn` at `blk` (relocation; the caller
/// frees the old block). Returns the pointer block now holding the new
/// pointer, or `None` when it sits in the inode itself: what the caller
/// must make durable.
pub fn set<S: PtrStore>(s: &S, inode: &mut Inode, lbn: u64, blk: u64) -> FsResult<Option<u64>> {
    let (leaf, idx) = match slot_of(lbn)? {
        Slot::Direct(i) => {
            inode.direct[i] = blk as u32;
            return Ok(None);
        }
        Slot::Single(i) => (inode.indirect, i),
        Slot::Double(o, i) => (ptr_at(s, inode.dindirect, o)?, i),
    };
    if leaf == NO_BLOCK {
        return Err(FsError::Corrupt(format!(
            "re-pointing unmapped logical block {lbn}"
        )));
    }
    s.write_ptrs(leaf as u64, |d| put_u32(d, idx * 4, blk as u32))?;
    Ok(Some(leaf as u64))
}

/// Free every data block mapping logical blocks `from..` and every pointer
/// block left empty, updating the inode's pointers and `blocks` count.
pub fn free_from<S: PtrStore>(s: &S, inode: &mut Inode, from: u64) -> FsResult<()> {
    for lbn in from..NDIRECT as u64 {
        let ptr = std::mem::replace(&mut inode.direct[lbn as usize], NO_BLOCK);
        if ptr != NO_BLOCK {
            s.free_data(lbn, ptr as u64);
            inode.blocks = inode.blocks.saturating_sub(1);
        }
    }
    for (root, shape) in [
        (&mut inode.indirect, SINGLE),
        (&mut inode.dindirect, DOUBLE),
    ] {
        if *root != NO_BLOCK && !free_ptrs(s, *root, shape, from, &mut inode.blocks)? {
            s.free_ptr_block(*root as u64);
            *root = NO_BLOCK;
            inode.blocks = inode.blocks.saturating_sub(1);
        }
    }
    Ok(())
}

/// Free what pointer block `blk` maps from logical block `from` on, its
/// slots covering `span` logical blocks each from `base`; a second-level
/// block left empty is freed too. True if a pointer below `from` survives.
fn free_ptrs<S: PtrStore>(
    s: &S,
    blk: u32,
    (base, span): (u64, u64),
    from: u64,
    blocks: &mut u32,
) -> FsResult<bool> {
    let mut kept = false;
    for (i, &ptr) in snapshot(s, blk)?.iter().enumerate() {
        if ptr == NO_BLOCK {
            continue;
        }
        let lbn = base + i as u64 * span;
        let survives = match span {
            1 => lbn < from,
            _ => free_ptrs(s, ptr, (lbn, 1), from, blocks)?,
        };
        if survives {
            kept = true;
            continue;
        }
        match span {
            1 => s.free_data(lbn, ptr as u64),
            _ => s.free_ptr_block(ptr as u64),
        }
        *blocks = blocks.saturating_sub(1);
        s.write_ptrs(blk as u64, |d| put_u32(d, i * 4, NO_BLOCK))?;
    }
    Ok(kept)
}

/// The pointers of block `blk`, copied out so no handle to it is held while
/// the caller rewrites it (a live cache handle would make every rewrite
/// copy the block).
fn snapshot<S: PtrRead>(s: &S, blk: u32) -> FsResult<[u32; PTRS_PER_BLOCK]> {
    let buf = s.read_ptrs(blk as u64)?;
    Ok(std::array::from_fn(|i| get_u32(&buf, i * 4)))
}

/// One block of a file's pointer tree, as [`walk`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mapped {
    /// Data block `blk` holds logical block `lbn`.
    Data {
        /// Logical block number.
        lbn: u64,
        /// Physical block.
        blk: u64,
    },
    /// A pointer block: single-indirect, double-indirect, or one of the
    /// latter's second-level blocks.
    Ptr(u64),
}

impl Mapped {
    /// The physical block, whatever its role.
    pub fn blk(self) -> u64 {
        match self {
            Mapped::Data { blk, .. } | Mapped::Ptr(blk) => blk,
        }
    }
}

/// Report, in logical order, every mapped data block below logical block
/// `end` and every pointer block covering part of `0..end`, each pointer
/// block before the blocks it maps. Holes are skipped. Pointer blocks are
/// read whatever their number: a checker validates what it is handed.
pub fn walk<S: PtrRead>(s: &S, inode: &Inode, end: u64, mut f: impl FnMut(Mapped)) -> FsResult<()> {
    let end = end.min(MAX_FILE_BLOCKS);
    for (lbn, &ptr) in (0..end).zip(&inode.direct) {
        if let Some(blk) = mapped(ptr) {
            f(Mapped::Data { lbn, blk });
        }
    }
    for (root, shape) in [(inode.indirect, SINGLE), (inode.dindirect, DOUBLE)] {
        if root != NO_BLOCK && shape.0 < end {
            walk_ptrs(s, root, shape, end, &mut f)?;
        }
    }
    Ok(())
}

fn walk_ptrs<S: PtrRead, F: FnMut(Mapped)>(
    s: &S,
    blk: u32,
    (base, span): (u64, u64),
    end: u64,
    f: &mut F,
) -> FsResult<()> {
    f(Mapped::Ptr(blk as u64));
    let ptrs = s.read_ptrs(blk as u64)?;
    for i in 0..PTRS_PER_BLOCK {
        let lbn = base + i as u64 * span;
        if lbn >= end {
            break;
        }
        match get_u32(&ptrs, i * 4) {
            NO_BLOCK => {}
            ptr if span == 1 => f(Mapped::Data {
                lbn,
                blk: ptr as u64,
            }),
            ptr => walk_ptrs(s, ptr, (lbn, 1), end, f)?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::FileKind;
    use crate::BLOCK_SIZE;
    use proptest::prelude::*;
    use std::cell::{Cell, RefCell};
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    /// In-memory store: live pointer blocks by number, live data blocks, a
    /// bump allocator that never reuses a number, the last data-block
    /// hint, the pointer-block hints, and a log of frees.
    #[derive(Default)]
    struct Fake {
        next: Cell<u64>,
        data_hint: Cell<Option<u64>>,
        ptr_hints: RefCell<Vec<Option<u64>>>,
        ptrs: RefCell<HashMap<u64, Vec<u8>>>,
        data: RefCell<BTreeSet<u64>>,
        freed_data: RefCell<BTreeSet<(u64, u64)>>,
        freed_ptrs: RefCell<BTreeSet<u64>>,
    }

    impl Fake {
        fn bump(&self) -> u64 {
            self.next.set(self.next.get() + 1);
            self.next.get()
        }

        fn live_ptrs(&self) -> BTreeSet<u64> {
            self.ptrs.borrow().keys().copied().collect()
        }
    }

    impl PtrRead for Fake {
        type Buf = Vec<u8>;

        fn read_ptrs(&self, blk: u64) -> FsResult<Vec<u8>> {
            Ok(self
                .ptrs
                .borrow()
                .get(&blk)
                .expect("read of a live pointer block")
                .clone())
        }
    }

    impl PtrStore for Fake {
        fn write_ptrs(&self, blk: u64, f: impl FnOnce(&mut [u8])) -> FsResult<()> {
            f(self
                .ptrs
                .borrow_mut()
                .get_mut(&blk)
                .expect("write to a live pointer block"));
            Ok(())
        }

        fn alloc_ptr_block(&self, hint: Option<u64>) -> FsResult<u64> {
            self.ptr_hints.borrow_mut().push(hint);
            let blk = self.bump();
            self.ptrs.borrow_mut().insert(blk, vec![0; BLOCK_SIZE]);
            Ok(blk)
        }

        fn alloc_data(&self, _lbn: u64, hint: Option<u64>) -> FsResult<u64> {
            self.data_hint.set(hint);
            let blk = self.bump();
            self.data.borrow_mut().insert(blk);
            Ok(blk)
        }

        fn free_data(&self, lbn: u64, blk: u64) {
            assert!(
                self.data.borrow_mut().remove(&blk),
                "free of dead data block {blk}"
            );
            self.freed_data.borrow_mut().insert((lbn, blk));
        }

        fn free_ptr_block(&self, blk: u64) {
            let img = self
                .ptrs
                .borrow_mut()
                .remove(&blk)
                .expect("free of a live pointer block");
            assert!(
                img.iter().all(|&b| b == 0),
                "pointer block {blk} freed while it maps blocks"
            );
            self.freed_ptrs.borrow_mut().insert(blk);
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Map(u64),
        Lookup(u64),
        Set(u64),
        FreeFrom(u64),
    }

    /// Logical blocks on and around every boundary of the tree.
    fn arb_lbn() -> impl Strategy<Value = u64> {
        let pb = PTRS_PER_BLOCK as u64;
        prop_oneof![
            prop::sample::select(vec![0, 11, 12, 1035, 1036, MAX_FILE_BLOCKS - 1]),
            0u64..40,
            // 1036 + k·1024 - 1, + 0, + 1: either side of each
            // second-level pointer block's first slot.
            (0..pb, 0u64..3).prop_map(move |(k, d)| 1035 + k * pb + d),
        ]
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => arb_lbn().prop_map(Op::Map),
            1 => arb_lbn().prop_map(Op::Lookup),
            1 => arb_lbn().prop_map(Op::Set),
            1 => arb_lbn().prop_map(Op::FreeFrom),
        ]
    }

    /// Pointer blocks covering part of `0..end` in a tree that maps
    /// exactly `model`'s logical blocks.
    fn ptr_blocks_below(model: &BTreeMap<u64, u64>, end: u64) -> usize {
        let (n, p) = (NDIRECT as u64, PTRS_PER_BLOCK as u64);
        let single = n < end && model.range(n..n + p).next().is_some();
        let mids: BTreeSet<u64> = model
            .range(n + p..)
            .map(|(&l, _)| (l - n - p) / p)
            .collect();
        let double = n + p < end && !mids.is_empty();
        single as usize + double as usize + mids.iter().filter(|&&o| n + p + o * p < end).count()
    }

    fn walked(s: &Fake, inode: &Inode, end: u64) -> (Vec<(u64, u64)>, Vec<u64>) {
        let (mut data, mut ptrs) = (Vec::new(), Vec::new());
        walk(s, inode, end, |m| match m {
            Mapped::Data { lbn, blk } => data.push((lbn, blk)),
            Mapped::Ptr(blk) => ptrs.push(blk),
        })
        .unwrap();
        (data, ptrs)
    }

    fn check_against_model(ops: Vec<Op>) {
        let s = Fake::default();
        let mut inode = Inode::new(FileKind::File);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Map(lbn) => {
                    let prev = lbn.checked_sub(1).and_then(|l| model.get(&l).copied());
                    let fresh = !model.contains_key(&lbn);
                    s.ptr_hints.borrow_mut().clear();
                    let blk = map_alloc(&s, &mut inode, lbn).unwrap();
                    assert_eq!(*model.entry(lbn).or_insert(blk), blk, "remapped lbn {lbn}");
                    // Roots go anywhere; a second-level block goes next to
                    // the double-indirect block (always the last one added).
                    let dind = Some(inode.dindirect as u64);
                    let ptr_hints = s.ptr_hints.borrow();
                    assert!(ptr_hints.iter().all(|&h| h.is_none() || h == dind), "{lbn}");
                    if lbn >= (NDIRECT + PTRS_PER_BLOCK) as u64 && !ptr_hints.is_empty() {
                        assert_eq!(ptr_hints.last(), Some(&dind), "{lbn}");
                    }
                    // A fresh block is placed after its predecessor, or
                    // after the pointer block whose first slot it takes.
                    let (hint, n) = (s.data_hint.get(), NDIRECT as u64);
                    if fresh && lbn >= n && (lbn - n).is_multiple_of(PTRS_PER_BLOCK as u64) {
                        assert!(
                            hint.is_some_and(|h| s.ptrs.borrow().contains_key(&h)),
                            "{lbn}"
                        );
                    } else if fresh {
                        assert_eq!(hint, prev, "hint for lbn {lbn}");
                    }
                }
                Op::Lookup(lbn) => {
                    assert_eq!(lookup(&s, &inode, lbn).unwrap(), model.get(&lbn).copied());
                }
                Op::Set(lbn) => {
                    let Some(&old) = model.get(&lbn) else {
                        continue;
                    };
                    let new = s.alloc_data(lbn, None).unwrap();
                    let holder = set(&s, &mut inode, lbn, new).unwrap();
                    assert_eq!(holder.is_none(), lbn < NDIRECT as u64);
                    if let Some(h) = holder {
                        let img = s.read_ptrs(h).unwrap();
                        assert!((0..PTRS_PER_BLOCK).any(|i| get_u32(&img, i * 4) == new as u32));
                    }
                    s.free_data(lbn, old);
                    model.insert(lbn, new);
                }
                Op::FreeFrom(from) => {
                    let ptrs_before = s.live_ptrs();
                    s.freed_data.borrow_mut().clear();
                    s.freed_ptrs.borrow_mut().clear();
                    free_from(&s, &mut inode, from).unwrap();
                    let gone: BTreeSet<(u64, u64)> = model.split_off(&from).into_iter().collect();
                    assert_eq!(*s.freed_data.borrow(), gone, "free_from({from}) data");
                    let emptied: BTreeSet<u64> =
                        ptrs_before.difference(&s.live_ptrs()).copied().collect();
                    assert_eq!(
                        *s.freed_ptrs.borrow(),
                        emptied,
                        "free_from({from}) pointers"
                    );
                }
            }
            for (&lbn, &blk) in &model {
                assert_eq!(lookup(&s, &inode, lbn).unwrap(), Some(blk), "lookup {lbn}");
            }
            let live_ptrs = s.live_ptrs();
            assert_eq!(
                live_ptrs.len(),
                ptr_blocks_below(&model, MAX_FILE_BLOCKS),
                "pointers live"
            );
            assert_eq!(
                inode.blocks as usize,
                s.data.borrow().len() + live_ptrs.len()
            );
            let (data, ptrs) = walked(&s, &inode, MAX_FILE_BLOCKS);
            assert_eq!(
                data,
                model.iter().map(|(&l, &b)| (l, b)).collect::<Vec<_>>()
            );
            assert_eq!(ptrs.iter().copied().collect::<BTreeSet<_>>(), live_ptrs);
            let every: BTreeSet<u64> = data.iter().map(|&(_, b)| b).chain(ptrs.clone()).collect();
            assert_eq!(every.len(), data.len() + ptrs.len(), "a block mapped twice");
            // A bounded walk stops at its bound.
            let end = model.keys().nth(model.len() / 2).copied().unwrap_or(0);
            let (below, below_ptrs) = walked(&s, &inode, end);
            assert_eq!(
                below,
                model
                    .range(..end)
                    .map(|(&l, &b)| (l, b))
                    .collect::<Vec<_>>()
            );
            assert_eq!(
                below_ptrs.len(),
                ptr_blocks_below(&model, end),
                "walk below {end}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// Lookup, allocation, re-pointing, truncation and the walk agree
        /// with a plain lbn → block map, and the inode's block count with
        /// the store's live blocks, across every boundary of the tree.
        #[test]
        fn block_map_matches_model(ops in prop::collection::vec(arb_op(), 1..60)) {
            check_against_model(ops);
        }
    }

    #[test]
    fn past_the_last_mappable_block_is_too_big() {
        let s = Fake::default();
        let mut inode = Inode::new(FileKind::File);
        assert_eq!(
            lookup(&s, &inode, MAX_FILE_BLOCKS),
            Err(FsError::FileTooBig)
        );
        assert_eq!(
            map_alloc(&s, &mut inode, MAX_FILE_BLOCKS),
            Err(FsError::FileTooBig)
        );
        assert_eq!(
            set(&s, &mut inode, MAX_FILE_BLOCKS, 7),
            Err(FsError::FileTooBig)
        );
        assert_eq!((s.next.get(), inode.blocks), (0, 0), "nothing allocated");
        let last = map_alloc(&s, &mut inode, MAX_FILE_BLOCKS - 1).unwrap();
        assert_eq!(lookup(&s, &inode, MAX_FILE_BLOCKS - 1), Ok(Some(last)));
        assert_eq!(
            inode.blocks, 3,
            "double-indirect, second-level and data block"
        );
    }
}
