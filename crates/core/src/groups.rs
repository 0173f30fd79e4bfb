//! Explicit grouping: the in-core group index and its operations.
//!
//! A *group* is a physically contiguous extent of up to 16 blocks (64 KB)
//! owned by one directory. The blocks of small files named by that
//! directory — and the directory's own blocks — are allocated from slots
//! of the directory's groups, so that reading one member can profitably
//! fetch them all.
//!
//! Lifecycle, following Section 3 of the paper:
//!
//! * **Carving**: when a directory needs a slot and has none free, a
//!   16-block free run in its home cylinder group is claimed whole — all
//!   16 blocks become "reserved" in the block bitmap, and a descriptor in
//!   the CG header records owner + live-member bits.
//! * **Slot allocation** marks a member bit; **freeing** clears it; a group
//!   whose last member goes away is dissolved and its extent returned.
//! * **Slack**: reserved-but-unused slots are not free space, but they are
//!   *reclaimable*: under space pressure, trailing unused slots are trimmed
//!   (the extent shrinks) so ordinary allocation can proceed.
//! * **Ownership** is by directory inode number. Embedded directory inodes
//!   are renumbered by rename, so the index supports bulk re-ownership.
//!
//! The index also answers "which group does block *b* belong to" in
//! `O(log n)` — the read path's entry point for whole-group fetches.

use crate::layout::{CgHeader, GroupDescDisk, Superblock, GROUP_BLOCKS};
use cffs_fslib::{FsResult, Ino};
use std::collections::HashMap;

/// In-core descriptor of one group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Group {
    /// Cylinder group holding the extent.
    pub cg: u32,
    /// Descriptor-table slot within the CG header.
    pub idx: u32,
    /// First block of the extent (global block number).
    pub start: u64,
    /// Extent length in blocks.
    pub nslots: u8,
    /// Live-member bitmap (bit i = slot i holds data).
    pub member_valid: u16,
    /// Owning directory.
    pub owner: Ino,
}

impl Group {
    /// Number of live member blocks.
    pub fn live(&self) -> u32 {
        self.member_valid.count_ones()
    }

    /// Number of reserved-but-unused slots.
    pub fn slack(&self) -> u32 {
        self.nslots as u32 - self.live()
    }

    /// First free slot, if any.
    pub fn free_slot(&self) -> Option<u8> {
        (0..self.nslots).find(|&s| self.member_valid & (1 << s) == 0)
    }

    /// The block of slot `s`.
    pub fn slot_block(&self, s: u8) -> u64 {
        self.start + s as u64
    }

    /// The runs of consecutive live blocks, as `(start_block, len)` pairs —
    /// the scatter/gather read plan for this group.
    pub fn live_runs(&self) -> Vec<(u64, usize)> {
        let mut runs = Vec::new();
        let mut s = 0u8;
        while s < self.nslots {
            if self.member_valid & (1 << s) != 0 {
                let start = s;
                while s < self.nslots && self.member_valid & (1 << s) != 0 {
                    s += 1;
                }
                runs.push((self.start + start as u64, (s - start) as usize));
            } else {
                s += 1;
            }
        }
        runs
    }
}

/// The in-core group index for the whole file system.
#[derive(Debug, Default)]
pub struct GroupIndex {
    /// `(cg, idx)` -> group.
    by_slot: HashMap<(u32, u32), Group>,
    /// Owner -> its groups' `(cg, idx)` keys.
    by_owner: HashMap<Ino, Vec<(u32, u32)>>,
    /// Per-CG sorted extent starts for block→group lookup:
    /// `starts[cg]` is sorted by start block.
    starts: Vec<Vec<(u64, (u32, u32))>>,
}

impl GroupIndex {
    /// Build the index from mounted CG headers.
    pub fn build(sb: &Superblock, cgs: &[CgHeader]) -> Self {
        let mut ix = GroupIndex {
            by_slot: HashMap::new(),
            by_owner: HashMap::new(),
            starts: vec![Vec::new(); cgs.len()],
        };
        for (cgno, hdr) in cgs.iter().enumerate() {
            for (i, d) in hdr.groups.iter().enumerate() {
                if let Some(d) = d {
                    let g = Group {
                        cg: cgno as u32,
                        idx: i as u32,
                        start: sb.cg_data_start(cgno as u32) + d.start_idx as u64,
                        nslots: d.nslots,
                        member_valid: d.member_valid,
                        owner: d.owner,
                    };
                    ix.insert(g);
                }
            }
        }
        ix
    }

    fn insert(&mut self, g: Group) {
        self.by_slot.insert((g.cg, g.idx), g);
        self.by_owner.entry(g.owner).or_default().push((g.cg, g.idx));
        let v = &mut self.starts[g.cg as usize];
        let pos = v.partition_point(|&(s, _)| s < g.start);
        v.insert(pos, (g.start, (g.cg, g.idx)));
    }

    fn remove(&mut self, key: (u32, u32)) -> Option<Group> {
        let g = self.by_slot.remove(&key)?;
        if let Some(v) = self.by_owner.get_mut(&g.owner) {
            v.retain(|&k| k != key);
            if v.is_empty() {
                self.by_owner.remove(&g.owner);
            }
        }
        self.starts[g.cg as usize].retain(|&(_, k)| k != key);
        Some(g)
    }

    /// Total group count.
    pub fn len(&self) -> usize {
        self.by_slot.len()
    }

    /// True if no groups exist.
    pub fn is_empty(&self) -> bool {
        self.by_slot.is_empty()
    }

    /// Total reserved-but-unused blocks across all groups.
    pub fn total_slack(&self) -> u64 {
        self.by_slot.values().map(|g| g.slack() as u64).sum()
    }

    /// Look up a group by its table slot.
    pub fn get(&self, cg: u32, idx: u32) -> Option<&Group> {
        self.by_slot.get(&(cg, idx))
    }

    /// The group containing block `blk`, if any.
    pub fn group_of_block(&self, sb: &Superblock, blk: u64) -> Option<&Group> {
        let cg = sb.block_cg(blk)?;
        let v = &self.starts[cg as usize];
        let pos = v.partition_point(|&(s, _)| s <= blk);
        if pos == 0 {
            return None;
        }
        let (_, key) = v[pos - 1];
        let g = &self.by_slot[&key];
        (blk < g.start + g.nslots as u64).then_some(g)
    }

    /// The groups owned by a directory.
    pub fn groups_of(&self, owner: Ino) -> Vec<Group> {
        self.by_owner
            .get(&owner)
            .map(|keys| keys.iter().map(|k| self.by_slot[k]).collect())
            .unwrap_or_default()
    }

    /// Allocate a member slot from one of `owner`'s groups, preferring the
    /// hinted one. Returns `(block, group key)` and updates the descriptor
    /// via `persist`.
    pub fn alloc_slot(
        &mut self,
        owner: Ino,
        hint: Option<(u32, u32)>,
        mut persist: impl FnMut(u32, u32, &GroupDescDisk, &Superblock),
        sb: &Superblock,
    ) -> Option<(u64, (u32, u32))> {
        let owned = self.by_owner.get(&owner).map_or(&[][..], Vec::as_slice);
        for key in hint.into_iter().chain(owned.iter().copied()) {
            let Some(g) = self.by_slot.get_mut(&key) else { continue };
            if g.owner != owner {
                continue;
            }
            if let Some(s) = g.free_slot() {
                g.member_valid |= 1 << s;
                let blk = g.slot_block(s);
                let d = to_disk(g, sb);
                persist(key.0, key.1, &d, sb);
                return Some((blk, key));
            }
        }
        None
    }

    /// Carve a new group of `nslots` blocks for `owner` in cylinder group
    /// `cg`: find a free contiguous run and a free descriptor slot,
    /// reserve the run in the bitmap, and allocate the first member.
    /// Returns `(block, key)`.
    ///
    /// # Panics
    /// Panics if `nslots` is 0 or exceeds [`GROUP_BLOCKS`] (the member
    /// bitmap is 16 bits wide).
    pub fn carve(
        &mut self,
        sb: &Superblock,
        hdr: &mut CgHeader,
        owner: Ino,
        nslots: u8,
    ) -> FsResult<Option<(u64, (u32, u32))>> {
        let Some(key) = self.carve_empty(sb, hdr, owner, nslots)? else {
            return Ok(None);
        };
        let g = self.by_slot.get_mut(&key).expect("just carved");
        g.member_valid = 1;
        let blk = g.start;
        hdr.groups[key.1 as usize] = Some(to_disk(g, sb));
        Ok(Some((blk, key)))
    }

    /// Carve a new group extent with *no* members yet — the regrouper's
    /// re-formation path: the extent is reserved first, then members are
    /// claimed one at a time via [`GroupIndex::alloc_slot_in`] as blocks
    /// are relocated into it. An extent left empty is reclaimed by
    /// [`GroupIndex::trim_slack`] (and dissolved by fsck after a crash),
    /// so an aborted re-formation leaks nothing permanently.
    ///
    /// # Panics
    /// Panics if `nslots` is 0 or exceeds [`GROUP_BLOCKS`].
    pub fn carve_empty(
        &mut self,
        sb: &Superblock,
        hdr: &mut CgHeader,
        owner: Ino,
        nslots: u8,
    ) -> FsResult<Option<(u32, u32)>> {
        assert!(
            nslots > 0 && nslots as usize <= GROUP_BLOCKS,
            "group size {nslots} outside 1..={GROUP_BLOCKS}"
        );
        let cg = hdr.cg;
        let Some(idx) = hdr.groups.iter().position(|g| g.is_none()) else {
            return Ok(None);
        };
        let Some(start_idx) = hdr.block_bitmap.find_free_run(0, nslots as usize) else {
            return Ok(None);
        };
        hdr.block_bitmap.set_run(start_idx, nslots as usize);
        let g = Group {
            cg,
            idx: idx as u32,
            start: sb.cg_data_start(cg) + start_idx as u64,
            nslots,
            member_valid: 0,
            owner,
        };
        hdr.groups[idx] = Some(to_disk(&g, sb));
        self.insert(g);
        Ok(Some((cg, idx as u32)))
    }

    /// Claim the lowest free member slot of *exactly* the group `key`
    /// (unlike [`GroupIndex::alloc_slot`], which falls back to the owner's
    /// other groups). This is how the regrouper packs relocated blocks
    /// into consecutive slots of a freshly carved extent. Returns the
    /// claimed block, or `None` if the group is full or missing.
    pub fn alloc_slot_in(
        &mut self,
        key: (u32, u32),
        mut persist: impl FnMut(u32, u32, &GroupDescDisk, &Superblock),
        sb: &Superblock,
    ) -> Option<u64> {
        let g = self.by_slot.get_mut(&key)?;
        let s = g.free_slot()?;
        g.member_valid |= 1 << s;
        let blk = g.slot_block(s);
        let d = to_disk(g, sb);
        persist(key.0, key.1, &d, sb);
        Some(blk)
    }

    /// Free the member slot holding `blk`. Returns `true` and updates (or
    /// dissolves) the group, or `false` if the block is in no group.
    /// `persist(cg, idx, Some(desc))` updates a descriptor;
    /// `persist(cg, idx, None)` deletes it (extent bitmap bits are the
    /// caller's to release via the returned [`FreeOutcome`]).
    pub fn free_slot(
        &mut self,
        sb: &Superblock,
        blk: u64,
        mut persist: impl FnMut(u32, u32, Option<&GroupDescDisk>),
    ) -> Option<FreeOutcome> {
        let key = {
            let g = self.group_of_block(sb, blk)?;
            (g.cg, g.idx)
        };
        let g = self.by_slot.get_mut(&key).expect("indexed group");
        let slot = (blk - g.start) as u8;
        debug_assert!(slot < g.nslots);
        g.member_valid &= !(1 << slot);
        if g.member_valid == 0 {
            let g = self.remove(key).expect("present");
            persist(key.0, key.1, None);
            Some(FreeOutcome::Dissolved { start: g.start, nslots: g.nslots })
        } else {
            let d = to_disk(g, sb);
            persist(key.0, key.1, Some(&d));
            Some(FreeOutcome::SlotFreed)
        }
    }

    /// Trim trailing unused slots from `owner`-agnostic groups in cylinder
    /// group `cg` to reclaim space. Returns blocks released (as
    /// `(start, len)` extents for the caller to clear in the bitmap).
    pub fn trim_slack(
        &mut self,
        sb: &Superblock,
        cg: u32,
        mut persist: impl FnMut(u32, u32, Option<&GroupDescDisk>),
    ) -> Vec<(u64, usize)> {
        let keys: Vec<(u32, u32)> =
            self.starts[cg as usize].iter().map(|&(_, k)| k).collect();
        let mut released = Vec::new();
        for key in keys {
            let g = self.by_slot.get_mut(&key).expect("indexed group");
            if g.member_valid == 0 {
                let g = self.remove(key).expect("present");
                persist(key.0, key.1, None);
                released.push((g.start, g.nslots as usize));
                continue;
            }
            let highest = 15 - g.member_valid.leading_zeros() as u8;
            let new_n = highest + 1;
            if new_n < g.nslots {
                let freed = (g.start + new_n as u64, (g.nslots - new_n) as usize);
                g.nslots = new_n;
                let d = to_disk(g, sb);
                persist(key.0, key.1, Some(&d));
                released.push(freed);
            }
        }
        released
    }

    /// Re-own every group of `old` to `new` (directory rename renumbers an
    /// embedded directory inode).
    pub fn reown(
        &mut self,
        old: Ino,
        new: Ino,
        mut persist: impl FnMut(u32, u32, &GroupDescDisk),
        sb: &Superblock,
    ) {
        let Some(keys) = self.by_owner.remove(&old) else { return };
        for key in &keys {
            let g = self.by_slot.get_mut(key).expect("indexed group");
            g.owner = new;
            let d = to_disk(g, sb);
            persist(key.0, key.1, &d);
        }
        self.by_owner.entry(new).or_default().extend(keys);
    }

    /// Iterate all groups (fsck, stats).
    pub fn iter(&self) -> impl Iterator<Item = &Group> {
        self.by_slot.values()
    }
}

/// What [`GroupIndex::free_slot`] did.
#[derive(Debug, PartialEq, Eq)]
pub enum FreeOutcome {
    /// A member bit was cleared; the extent persists.
    SlotFreed,
    /// The group's last member went away; the caller must release the
    /// extent's blocks in the allocation bitmap.
    Dissolved {
        /// Extent start block.
        start: u64,
        /// Extent length.
        nslots: u8,
    },
}

fn to_disk(g: &Group, sb: &Superblock) -> GroupDescDisk {
    GroupDescDisk {
        start_idx: (g.start - sb.cg_data_start(g.cg)) as u32,
        owner: g.owner,
        member_valid: g.member_valid,
        nslots: g.nslots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cffs_fslib::inode::Inode;
    use cffs_fslib::FileKind;

    fn sb() -> Superblock {
        Superblock {
            total_blocks: 2 + 4 * 512,
            cg_count: 4,
            cg_size: 512,
            exfile: Inode::new(FileKind::File),
            exfile_slots: 0,
            clean: true,
        }
    }

    fn setup() -> (Superblock, Vec<CgHeader>, GroupIndex) {
        let sb = sb();
        let cgs: Vec<CgHeader> =
            (0..4).map(|i| CgHeader::new(i, sb.data_per_cg(), sb.max_groups_per_cg())).collect();
        let ix = GroupIndex::build(&sb, &cgs);
        (sb, cgs, ix)
    }

    #[test]
    fn carve_then_fill_group() {
        let (sb, mut cgs, mut ix) = setup();
        let owner = crate::layout::external_ino(0);
        let (b0, key) = ix.carve(&sb, &mut cgs[1], owner, 16).unwrap().unwrap();
        assert_eq!(sb.block_cg(b0), Some(1));
        // 15 more slots.
        for i in 1..16u64 {
            let (b, k) = ix.alloc_slot(owner, Some(key), |_, _, _, _| {}, &sb).unwrap();
            assert_eq!(b, b0 + i);
            assert_eq!(k, key);
        }
        assert!(ix.alloc_slot(owner, Some(key), |_, _, _, _| {}, &sb).is_none());
        // All 16 bitmap bits were reserved at carve time.
        assert_eq!(cgs[1].block_bitmap.used(), 16);
        assert_eq!(ix.total_slack(), 0);
    }

    #[test]
    fn block_to_group_lookup() {
        let (sb, mut cgs, mut ix) = setup();
        let owner = crate::layout::external_ino(3);
        let (b0, _) = ix.carve(&sb, &mut cgs[0], owner, 16).unwrap().unwrap();
        assert_eq!(ix.group_of_block(&sb, b0).unwrap().owner, owner);
        assert_eq!(ix.group_of_block(&sb, b0 + 15).unwrap().owner, owner);
        assert!(ix.group_of_block(&sb, b0 + 16).is_none());
        assert!(ix.group_of_block(&sb, 1).is_none());
    }

    #[test]
    fn free_slots_then_dissolve() {
        let (sb, mut cgs, mut ix) = setup();
        let owner = crate::layout::external_ino(1);
        let (b0, key) = ix.carve(&sb, &mut cgs[2], owner, 16).unwrap().unwrap();
        let (b1, _) = ix.alloc_slot(owner, Some(key), |_, _, _, _| {}, &sb).unwrap();
        assert_eq!(ix.free_slot(&sb, b1, |_, _, _| {}), Some(FreeOutcome::SlotFreed));
        match ix.free_slot(&sb, b0, |_, _, _| {}) {
            Some(FreeOutcome::Dissolved { start, nslots }) => {
                assert_eq!(start, b0);
                assert_eq!(nslots, 16);
            }
            other => panic!("expected dissolution, got {other:?}"),
        }
        assert!(ix.is_empty());
    }

    #[test]
    fn live_runs_plan() {
        let g = Group {
            cg: 0,
            idx: 0,
            start: 100,
            nslots: 16,
            member_valid: 0b0000_0111_0011_0101,
            owner: 1,
        };
        assert_eq!(g.live_runs(), vec![(100, 1), (102, 1), (104, 2), (108, 3)]);
        assert_eq!(g.live(), 7);
        assert_eq!(g.slack(), 9);
    }

    #[test]
    fn trim_slack_releases_tail() {
        let (sb, mut cgs, mut ix) = setup();
        let owner = crate::layout::external_ino(9);
        let (b0, key) = ix.carve(&sb, &mut cgs[0], owner, 16).unwrap().unwrap();
        // Two live members: slots 0 and 1.
        ix.alloc_slot(owner, Some(key), |_, _, _, _| {}, &sb).unwrap();
        let released = ix.trim_slack(&sb, 0, |_, _, _| {});
        assert_eq!(released, vec![(b0 + 2, 14)]);
        assert_eq!(ix.get(0, key.1).unwrap().nslots, 2);
        assert_eq!(ix.total_slack(), 0);
        // Trimmed group no longer claims the tail blocks.
        assert!(ix.group_of_block(&sb, b0 + 2).is_none());
    }

    #[test]
    fn reown_moves_all_groups() {
        let (sb, mut cgs, mut ix) = setup();
        let old = crate::layout::embedded_ino(10, 0, 1);
        let new = crate::layout::embedded_ino(20, 8, 2);
        ix.carve(&sb, &mut cgs[0], old, 16).unwrap().unwrap();
        ix.carve(&sb, &mut cgs[1], old, 16).unwrap().unwrap();
        ix.reown(old, new, |_, _, _| {}, &sb);
        assert!(ix.groups_of(old).is_empty());
        assert_eq!(ix.groups_of(new).len(), 2);
        for g in ix.iter() {
            assert_eq!(g.owner, new);
        }
    }

    #[test]
    fn build_round_trips_through_headers() {
        let (sb, mut cgs, mut ix) = setup();
        let owner = crate::layout::external_ino(2);
        ix.carve(&sb, &mut cgs[3], owner, 16).unwrap().unwrap();
        // Persist descriptors into the header (carve already did), rebuild.
        let ix2 = GroupIndex::build(&sb, &cgs);
        assert_eq!(ix2.len(), 1);
        let g = ix2.groups_of(owner);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].member_valid, 1);
    }

    #[test]
    fn carve_empty_then_pack_consecutively() {
        let (sb, mut cgs, mut ix) = setup();
        let owner = crate::layout::external_ino(4);
        let key = ix.carve_empty(&sb, &mut cgs[1], owner, 16).unwrap().unwrap();
        // The extent is reserved whole but has no members yet.
        assert_eq!(cgs[1].block_bitmap.used(), 16);
        assert_eq!(ix.get(key.0, key.1).unwrap().live(), 0);
        // Claims come back lowest-slot-first: a contiguous run.
        let start = ix.get(key.0, key.1).unwrap().start;
        for i in 0..16u64 {
            let b = ix.alloc_slot_in(key, |c, i, d, _| {
                cgs[c as usize].groups[i as usize] = Some(*d);
            }, &sb);
            assert_eq!(b, Some(start + i));
        }
        assert!(ix.alloc_slot_in(key, |_, _, _, _| {}, &sb).is_none());
        // Descriptor round-trips with all members live.
        let rebuilt = GroupIndex::build(&sb, &cgs);
        assert_eq!(rebuilt.get(key.0, key.1).unwrap().member_valid, 0xFFFF);
    }

    #[test]
    fn empty_carved_group_is_reclaimed_by_trim() {
        let (sb, mut cgs, mut ix) = setup();
        let owner = crate::layout::external_ino(5);
        let key = ix.carve_empty(&sb, &mut cgs[0], owner, 16).unwrap().unwrap();
        let start = ix.get(key.0, key.1).unwrap().start;
        // An aborted re-formation (no members claimed) leaks nothing:
        // trim_slack removes the whole extent.
        let released = ix.trim_slack(&sb, 0, |c, i, d| {
            cgs[c as usize].groups[i as usize] = d.copied();
        });
        assert_eq!(released, vec![(start, 16)]);
        assert!(ix.is_empty());
        assert!(cgs[0].groups.iter().all(|g| g.is_none()));
    }

    #[test]
    fn carve_fails_when_no_contiguous_run() {
        let (sb, mut cgs, mut ix) = setup();
        // Fragment the bitmap: every 16th block allocated.
        for i in (0..cgs[0].block_bitmap.len()).step_by(GROUP_BLOCKS) {
            cgs[0].block_bitmap.set(i);
        }
        assert!(ix.carve(&sb, &mut cgs[0], 1, 16).unwrap().is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use cffs_fslib::inode::Inode;
    use cffs_fslib::FileKind;
    use proptest::prelude::*;

    fn sb(cgs: u32, cg_size: u32) -> Superblock {
        Superblock {
            total_blocks: 2 + (cgs * cg_size) as u64,
            cg_count: cgs,
            cg_size,
            exfile: Inode::new(FileKind::File),
            exfile_slots: 0,
            clean: true,
        }
    }

    #[derive(Debug, Clone)]
    enum GOp {
        Carve { cg: u8, owner: u8, nslots: u8 },
        Alloc { owner: u8 },
        FreeRandomLive { pick: u16 },
        Trim { cg: u8 },
        Reown { from: u8, to: u8 },
    }

    fn arb_gop() -> impl Strategy<Value = GOp> {
        prop_oneof![
            3 => (0u8..3, 0u8..5, 1u8..17)
                .prop_map(|(cg, owner, nslots)| GOp::Carve { cg, owner, nslots }),
            4 => (0u8..5).prop_map(|owner| GOp::Alloc { owner }),
            4 => any::<u16>().prop_map(|pick| GOp::FreeRandomLive { pick }),
            1 => (0u8..3).prop_map(|cg| GOp::Trim { cg }),
            1 => (0u8..5, 0u8..5).prop_map(|(from, to)| GOp::Reown { from, to }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Under arbitrary carve/alloc/free/trim/reown churn:
        /// * extents never overlap and stay inside their cylinder group;
        /// * the bitmap covers exactly the union of extents (this harness
        ///   allocates nothing outside groups);
        /// * every live member maps back to its group via group_of_block;
        /// * the index round-trips through the on-disk headers.
        #[test]
        fn group_lifecycle_invariants(ops in prop::collection::vec(arb_gop(), 1..80)) {
            let sb = sb(3, 256);
            let mut cgs: Vec<CgHeader> = (0..3)
                .map(|i| CgHeader::new(i, sb.data_per_cg(), sb.max_groups_per_cg()))
                .collect();
            let mut ix = GroupIndex::build(&sb, &cgs);
            let owner_ino = |o: u8| crate::layout::external_ino(o as u32 + 1);
            for op in ops {
                match op {
                    GOp::Carve { cg, owner, nslots } => {
                        let cg = (cg % 3) as usize;
                        let hdr = &mut cgs[cg];
                        let _ = ix.carve(&sb, hdr, owner_ino(owner), nslots).unwrap();
                    }
                    GOp::Alloc { owner } => {
                        let (cgs_ref, _) = (&mut cgs, ());
                        let _ = ix.alloc_slot(
                            owner_ino(owner),
                            None,
                            |c, i, d, _| {
                                cgs_ref[c as usize].groups[i as usize] = Some(*d);
                            },
                            &sb,
                        );
                    }
                    GOp::FreeRandomLive { pick } => {
                        // Deterministically pick a live block if any exist.
                        let live: Vec<u64> = ix
                            .iter()
                            .flat_map(|g| {
                                (0..g.nslots)
                                    .filter(|&s| g.member_valid & (1 << s) != 0)
                                    .map(|s| g.slot_block(s))
                                    .collect::<Vec<_>>()
                            })
                            .collect();
                        if live.is_empty() {
                            continue;
                        }
                        let blk = live[pick as usize % live.len()];
                        let outcome = ix.free_slot(&sb, blk, |c, i, d| {
                            cgs[c as usize].groups[i as usize] = d.copied();
                        });
                        if let Some(FreeOutcome::Dissolved { start, nslots }) = outcome {
                            let cg = sb.block_cg(start).unwrap();
                            let ds = sb.cg_data_start(cg);
                            cgs[cg as usize]
                                .block_bitmap
                                .clear_run((start - ds) as usize, nslots as usize);
                        }
                    }
                    GOp::Trim { cg } => {
                        let cg = (cg % 3) as u32;
                        let released = {
                            let cgs_ref = &mut cgs;
                            ix.trim_slack(&sb, cg, |c, i, d| {
                                cgs_ref[c as usize].groups[i as usize] = d.copied();
                            })
                        };
                        for (start, len) in released {
                            let ds = sb.cg_data_start(cg);
                            cgs[cg as usize]
                                .block_bitmap
                                .clear_run((start - ds) as usize, len);
                        }
                    }
                    GOp::Reown { from, to } => {
                        let cgs_ref = &mut cgs;
                        ix.reown(
                            owner_ino(from),
                            owner_ino(to),
                            |c, i, d| {
                                cgs_ref[c as usize].groups[i as usize] = Some(*d);
                            },
                            &sb,
                        );
                    }
                }

                // Invariant 1: disjoint extents within CG bounds.
                let mut extents: Vec<(u64, u64)> =
                    ix.iter().map(|g| (g.start, g.start + g.nslots as u64)).collect();
                extents.sort_unstable();
                for w in extents.windows(2) {
                    prop_assert!(w[0].1 <= w[1].0, "overlap: {:?}", w);
                }
                for g in ix.iter() {
                    let cg = sb.block_cg(g.start);
                    prop_assert_eq!(cg, sb.block_cg(g.start + g.nslots as u64 - 1));
                    prop_assert!(g.nslots >= 1);
                }

                // Invariant 2: bitmap == union of extents.
                for cgno in 0..3u32 {
                    let ds = sb.cg_data_start(cgno);
                    let hdr = &cgs[cgno as usize];
                    for i in 0..hdr.block_bitmap.len() {
                        let blk = ds + i as u64;
                        let in_extent = ix.group_of_block(&sb, blk).is_some();
                        prop_assert_eq!(
                            hdr.block_bitmap.get(i),
                            in_extent,
                            "bitmap drift at block {}", blk
                        );
                    }
                }

                // Invariant 3: slot_block round trip.
                for g in ix.iter() {
                    for s in 0..g.nslots {
                        let found = ix.group_of_block(&sb, g.slot_block(s)).expect("in extent");
                        prop_assert_eq!((found.cg, found.idx), (g.cg, g.idx));
                    }
                }
            }
            // Invariant 4: rebuild from headers gives an identical index.
            let rebuilt = GroupIndex::build(&sb, &cgs);
            prop_assert_eq!(rebuilt.len(), ix.len());
            for g in ix.iter() {
                let r = rebuilt.get(g.cg, g.idx).expect("present after rebuild");
                prop_assert_eq!(r, g);
            }
        }
    }
}
