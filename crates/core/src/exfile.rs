//! The external inode file.
//!
//! C-FFS keeps most inodes embedded in directories, but some need a stable,
//! location-independent home: files with multiple hard links (several names
//! must reference one inode) and the root directory (no parent to embed
//! in). These live in the *external inode file* — the paper describes it as
//! "similar to the IFILE in BSD-LFS [Seltzer93]", with two differences it
//! names explicitly: it **grows as needed but does not shrink**, and its
//! **blocks do not move once they have been allocated** (external inode
//! numbers must stay valid forever).
//!
//! The file's own inode lives in the superblock. This module owns the slot
//! arithmetic and the in-core free-slot pool; block mapping goes through
//! the owning file system.
//!
//! When embedded inodes are disabled (the paper's "conventional" variant),
//! *every* inode is external, and this file plays the role of a dynamically
//! allocated inode table. Under the per-CG table placement the same slot
//! numbers and [`SlotPool`] address the static tables instead, and this
//! file stays empty.

use cffs_fslib::inode::INODE_SIZE;
use cffs_fslib::BLOCK_SIZE;
use std::collections::BTreeSet;

/// Inode slots per external-file block.
pub const SLOTS_PER_BLOCK: u32 = (BLOCK_SIZE / INODE_SIZE) as u32;

/// Logical block of the external file holding `slot`.
pub fn slot_lbn(slot: u32) -> u64 {
    (slot / SLOTS_PER_BLOCK) as u64
}

/// Byte offset of `slot`'s image within its block.
pub fn slot_off(slot: u32) -> usize {
    (slot % SLOTS_PER_BLOCK) as usize * INODE_SIZE
}

/// In-core free-slot pool, rebuilt at mount by scanning the file.
/// Lowest-numbered slots are handed out first, keeping the file dense and
/// its working set small.
#[derive(Debug, Default)]
pub struct SlotPool {
    free: BTreeSet<u32>,
    slots: u32,
}

impl SlotPool {
    /// Start a pool over a file that currently holds `slots` slots, with
    /// `free` of them unoccupied.
    pub fn new(slots: u32, free: impl IntoIterator<Item = u32>) -> Self {
        SlotPool { free: free.into_iter().collect(), slots }
    }

    /// Total slots the file holds.
    pub fn slots(&self) -> u32 {
        self.slots
    }

    /// Free slots currently available.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Take the lowest free slot at or after `from`, else the lowest
    /// free slot, if any.
    pub fn take(&mut self, from: u32) -> Option<u32> {
        let s = *self.free.range(from..).next().or_else(|| self.free.iter().next())?;
        self.free.remove(&s);
        Some(s)
    }

    /// Return a slot to the pool.
    ///
    /// # Panics
    /// Panics on double-free or out-of-range slots.
    pub fn put(&mut self, slot: u32) {
        assert!(slot < self.slots, "slot {slot} beyond file end {}", self.slots);
        assert!(self.free.insert(slot), "double free of external slot {slot}");
    }

    /// Grow the file by one block's worth of slots; they all become free.
    /// Returns the new slot range.
    pub fn grow(&mut self) -> std::ops::Range<u32> {
        let start = self.slots;
        self.slots += SLOTS_PER_BLOCK;
        for s in start..self.slots {
            self.free.insert(s);
        }
        start..self.slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_math() {
        assert_eq!(SLOTS_PER_BLOCK, 32);
        assert_eq!(slot_lbn(0), 0);
        assert_eq!(slot_off(0), 0);
        assert_eq!(slot_lbn(31), 0);
        assert_eq!(slot_off(31), 31 * 128);
        assert_eq!(slot_lbn(32), 1);
        assert_eq!(slot_off(32), 0);
    }

    #[test]
    fn pool_hands_out_lowest_first() {
        let mut p = SlotPool::new(64, [40, 3, 17]);
        assert_eq!(p.take(0), Some(3));
        assert_eq!(p.take(0), Some(17));
        p.put(3);
        assert_eq!(p.take(0), Some(3));
        assert_eq!(p.take(0), Some(40));
        assert_eq!(p.take(0), None);
    }

    #[test]
    fn take_from_a_home_spills_forward_then_wraps() {
        let mut p = SlotPool::new(96, [5, 40, 70]);
        assert_eq!(p.take(32), Some(40));
        assert_eq!(p.take(32), Some(70));
        assert_eq!(p.take(32), Some(5));
    }

    #[test]
    fn grow_adds_a_block_of_slots() {
        let mut p = SlotPool::new(32, []);
        assert_eq!(p.take(0), None);
        assert_eq!(p.grow(), 32..64);
        assert_eq!(p.slots(), 64);
        assert_eq!(p.available(), 32);
        assert_eq!(p.take(0), Some(32));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_put_panics() {
        let mut p = SlotPool::new(32, [5]);
        p.put(5);
    }
}
