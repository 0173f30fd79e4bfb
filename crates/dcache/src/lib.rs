//! `cffs-dcache` — the buffer cache's namespace sibling: a sharded
//! directory-entry cache mapping `(parent ino, name)` to a child inode
//! number, with **negative entries** (cached `NotFound`) so repeated
//! probes for absent names — the dominant cost in create-if-absent and
//! path-probe patterns — skip the dirent scan entirely.
//!
//! Design points, following the full-path-hash dcache lineage:
//!
//! * **Full-path hashing.** The key hash folds the parent inode number
//!   into the name hash. Because the parent ino was itself produced by
//!   a (cached) lookup, the hash is effectively a hash of the whole
//!   path, one component at a time — no path strings are ever stored.
//! * **Sharding.** The hash picks one of a fixed set of shards, each
//!   behind its own mutex, so client threads resolving disjoint
//!   names never contend. Shard locks are leaves in the file-system
//!   lock hierarchy (DESIGN.md §10): taken and released with no other
//!   lock acquired inside.
//! * **Bounded capacity, CLOCK eviction.** Each shard owns a fixed slot
//!   array swept by a clock hand; a probe sets the entry's referenced
//!   bit (an insert does not), the hand clears it, and only an
//!   unreferenced entry is evicted (second chance). Capacity is fixed
//!   at construction — a million-file tree cannot grow the cache
//!   without bound.
//! * **Precise invalidation.** The file-system layer invalidates exact
//!   `(parent, name)` keys on namespace mutations and purges by inode
//!   number when embedded-inode renumbering retires an ino. The cache
//!   itself never guesses.
//!
//! Observability: probes bump `dcache_hit` / `dcache_neg_hit` /
//! `dcache_miss`, evictions bump `dcache_evict`, and [`Dcache::clear`]
//! records each shard's epoch hit rate into the `dcache_hit_pct`
//! histogram, mirroring the buffer cache's `cache_shard_hit_pct`
//! cold-boundary sampling.

use cffs_fslib::{Ino, IntMap};
use cffs_obs::{Ctr, Obs};
use std::sync::{Arc, Mutex, MutexGuard};

/// What a probe found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DcacheAnswer {
    /// Positive entry: the name maps to this inode number.
    Pos(Ino),
    /// Negative entry: the name is known absent from the directory.
    Neg,
    /// No entry — the caller must scan the directory.
    Miss,
}

/// One cached dirent. `ino == None` is a negative entry.
struct Entry {
    dir: Ino,
    name: Box<str>,
    ino: Option<Ino>,
    referenced: bool,
}

/// One shard: a fixed slot array (the CLOCK ring) plus a hash index
/// into it, and the epoch hit/probe tallies for `dcache_hit_pct`.
struct Shard {
    slots: Vec<Option<Entry>>,
    index: IntMap<u64, Vec<usize>>,
    hand: usize,
    probes: u64,
    hits: u64,
}

impl Shard {
    fn new(cap: usize) -> Shard {
        Shard {
            slots: (0..cap).map(|_| None).collect(),
            index: IntMap::default(),
            hand: 0,
            probes: 0,
            hits: 0,
        }
    }

    fn find(&self, h: u64, dir: Ino, name: &str) -> Option<usize> {
        let idxs = self.index.get(&h)?;
        idxs.iter()
            .copied()
            .find(|&i| self.slots[i].as_ref().is_some_and(|e| e.dir == dir && &*e.name == name))
    }

    fn unindex(&mut self, h: u64, slot: usize) {
        if let Some(v) = self.index.get_mut(&h) {
            v.retain(|&i| i != slot);
            if v.is_empty() {
                self.index.remove(&h);
            }
        }
    }

    fn drop_slot(&mut self, slot: usize) {
        if let Some(e) = self.slots[slot].take() {
            let h = key_hash(e.dir, &e.name);
            self.unindex(h, slot);
        }
    }

    /// CLOCK sweep: free slots are taken immediately, referenced entries
    /// get a second chance, the first unreferenced entry is evicted.
    fn take_slot(&mut self, obs: &Obs) -> usize {
        loop {
            let i = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            match &mut self.slots[i] {
                None => return i,
                Some(e) if e.referenced => e.referenced = false,
                Some(_) => {
                    self.drop_slot(i);
                    obs.bump(Ctr::DcacheEvictions);
                    return i;
                }
            }
        }
    }

    /// Cache `dir/name -> ino`. An entry starts unreferenced and an
    /// update keeps its bit: only a probe earns a second chance, so a
    /// burst of inserts (a mass create, a listing) cannot pin itself
    /// while the hand evicts the names being looked up.
    fn insert(&mut self, obs: &Obs, dir: Ino, name: &str, ino: Option<Ino>) {
        let h = key_hash(dir, name);
        if let Some(i) = self.find(h, dir, name) {
            self.slots[i].as_mut().expect("indexed slot is occupied").ino = ino;
            return;
        }
        let i = self.take_slot(obs);
        self.slots[i] = Some(Entry { dir, name: name.into(), ino, referenced: false });
        self.index.entry(h).or_default().push(i);
    }
}

/// FNV-1a over the parent ino (little-endian) and the name bytes — the
/// incremental full-path hash described in the crate docs.
fn key_hash(dir: Ino, name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in dir.to_le_bytes().into_iter().chain(name.bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The sharded namespace cache. All methods take `&self`; each shard is
/// an independent leaf lock.
pub struct Dcache {
    shards: Vec<Mutex<Shard>>,
    /// Shared observability handle. Starts as a private instance; the
    /// file-system layer rebinds it to the stack's handle via
    /// [`set_obs`](Dcache::set_obs) at mount.
    obs: Arc<Obs>,
}

impl Dcache {
    /// A cache holding at most `entries` dirents (positive + negative),
    /// split over power-of-two-free shard count sized so every shard
    /// keeps a useful ring.
    pub fn new(entries: usize) -> Dcache {
        let entries = entries.max(1);
        let nshards = (entries / 64).clamp(1, 16);
        let per_shard = entries.div_ceil(nshards);
        Dcache {
            shards: (0..nshards).map(|_| Mutex::new(Shard::new(per_shard))).collect(),
            obs: Obs::new(),
        }
    }

    /// Rebind the observability handle (normally to the driver's, so
    /// dcache counters land in the same registry as the disk's).
    pub fn set_obs(&mut self, obs: Arc<Obs>) {
        self.obs = obs;
    }

    /// The observability handle this cache reports into.
    pub fn obs(&self) -> Arc<Obs> {
        Arc::clone(&self.obs)
    }

    /// Total capacity in entries (summed over shards).
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.lock_shard(0).slots.len()
    }

    /// Live entries (positive + negative), summed over shards.
    pub fn len(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.lock_shard(i).slots.iter().filter(|s| s.is_some()).count())
            .sum()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock_shard(&self, idx: usize) -> MutexGuard<'_, Shard> {
        self.obs.lock_timed(&self.shards[idx], Ctr::LockWaitNsCache)
    }

    fn shard_of(&self, h: u64) -> usize {
        (h % self.shards.len() as u64) as usize
    }

    /// Probe for `name` in directory `dir`, bumping the hit/miss
    /// counters and setting the CLOCK referenced bit on a hit.
    pub fn lookup(&self, dir: Ino, name: &str) -> DcacheAnswer {
        let h = key_hash(dir, name);
        let mut s = self.lock_shard(self.shard_of(h));
        s.probes += 1;
        match s.find(h, dir, name) {
            Some(i) => {
                s.hits += 1;
                let e = s.slots[i].as_mut().expect("indexed slot is occupied");
                e.referenced = true;
                match e.ino {
                    Some(ino) => {
                        self.obs.bump(Ctr::DcacheHits);
                        DcacheAnswer::Pos(ino)
                    }
                    None => {
                        self.obs.bump(Ctr::DcacheNegHits);
                        DcacheAnswer::Neg
                    }
                }
            }
            None => {
                self.obs.bump(Ctr::DcacheMisses);
                DcacheAnswer::Miss
            }
        }
    }

    /// Cache `dir/name -> ino`, replacing any existing (including
    /// negative) entry for the key.
    pub fn insert_pos(&self, dir: Ino, name: &str, ino: Ino) {
        let h = key_hash(dir, name);
        let obs = Arc::clone(&self.obs);
        self.lock_shard(self.shard_of(h)).insert(&obs, dir, name, Some(ino));
    }

    /// Cache `dir/name` as known-absent, replacing any existing entry.
    pub fn insert_neg(&self, dir: Ino, name: &str) {
        let h = key_hash(dir, name);
        let obs = Arc::clone(&self.obs);
        self.lock_shard(self.shard_of(h)).insert(&obs, dir, name, None);
    }

    /// Drop whatever is cached for `dir/name` (positive or negative).
    pub fn invalidate(&self, dir: Ino, name: &str) {
        let h = key_hash(dir, name);
        let mut s = self.lock_shard(self.shard_of(h));
        if let Some(i) = s.find(h, dir, name) {
            s.drop_slot(i);
        }
    }

    /// Drop every positive entry resolving to `ino` — the hook for
    /// embedded-inode renumbering and inode retirement, where the inode
    /// number itself dies. Scans all shards; renumbering is rare.
    pub fn purge_ino(&self, ino: Ino) {
        for idx in 0..self.shards.len() {
            let mut s = self.lock_shard(idx);
            for i in 0..s.slots.len() {
                if s.slots[i].as_ref().is_some_and(|e| e.ino == Some(ino)) {
                    s.drop_slot(i);
                }
            }
        }
    }

    /// Drop every entry (positive or negative) keyed under directory
    /// `dir` — the hook for directory renumbering, removal, and
    /// directory-block relocation.
    pub fn purge_dir(&self, dir: Ino) {
        for idx in 0..self.shards.len() {
            let mut s = self.lock_shard(idx);
            for i in 0..s.slots.len() {
                if s.slots[i].as_ref().is_some_and(|e| e.dir == dir) {
                    s.drop_slot(i);
                }
            }
        }
    }

    /// Empty the cache (the `drop_caches` cold boundary), recording each
    /// shard's epoch hit rate into the `dcache_hit_pct` histogram first.
    /// Shards that saw no probes this epoch record nothing.
    pub fn clear(&self) {
        for idx in 0..self.shards.len() {
            let mut s = self.lock_shard(idx);
            if let Some(pct) = (s.hits * 100).checked_div(s.probes) {
                self.obs.histos().dcache_hit_pct.record(pct);
            }
            let cap = s.slots.len();
            *s = Shard::new(cap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dc(entries: usize) -> Dcache {
        Dcache::new(entries)
    }

    #[test]
    fn positive_and_negative_entries_round_trip() {
        let d = dc(128);
        assert_eq!(d.lookup(1, "a"), DcacheAnswer::Miss);
        d.insert_pos(1, "a", 42);
        d.insert_neg(1, "b");
        assert_eq!(d.lookup(1, "a"), DcacheAnswer::Pos(42));
        assert_eq!(d.lookup(1, "b"), DcacheAnswer::Neg);
        assert_eq!(d.lookup(2, "a"), DcacheAnswer::Miss, "keys include the parent");
        let o = d.obs();
        assert_eq!(o.get(Ctr::DcacheHits), 1);
        assert_eq!(o.get(Ctr::DcacheNegHits), 1);
        assert_eq!(o.get(Ctr::DcacheMisses), 2);
    }

    #[test]
    fn insert_replaces_and_invalidate_removes() {
        let d = dc(128);
        d.insert_neg(1, "a");
        d.insert_pos(1, "a", 7);
        assert_eq!(d.lookup(1, "a"), DcacheAnswer::Pos(7), "create kills the negative entry");
        d.invalidate(1, "a");
        assert_eq!(d.lookup(1, "a"), DcacheAnswer::Miss);
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn capacity_is_bounded_and_evictions_are_counted() {
        let d = dc(64); // one shard, 64 slots
        let cap = d.capacity();
        for i in 0..(cap as u64 * 3) {
            d.insert_pos(1, &format!("f{i}"), 100 + i);
        }
        assert_eq!(d.len(), cap, "the CLOCK ring never outgrows its slots");
        assert_eq!(d.obs().get(Ctr::DcacheEvictions), cap as u64 * 2);
    }

    #[test]
    fn clock_gives_referenced_entries_a_second_chance() {
        let d = dc(4); // one tiny shard
        let cap = d.capacity() as u64;
        for i in 0..cap {
            d.insert_pos(1, &format!("f{i}"), i);
        }
        // Fresh entries are unreferenced: the first overflow evicts the
        // oldest at once.
        d.insert_pos(1, "spill", 98);
        assert_eq!(d.lookup(1, "f0"), DcacheAnswer::Miss);
        // Re-reference f1; the next overflow must skip it and take f2.
        assert_eq!(d.lookup(1, "f1"), DcacheAnswer::Pos(1));
        d.insert_pos(1, "spill2", 99);
        assert_eq!(d.lookup(1, "f1"), DcacheAnswer::Pos(1), "referenced entry survives");
        assert_eq!(d.lookup(1, "f2"), DcacheAnswer::Miss, "unreferenced entry was evicted");
    }

    #[test]
    fn purge_ino_and_purge_dir_scrub_matching_entries() {
        let d = dc(128);
        d.insert_pos(1, "a", 10);
        d.insert_pos(1, "b", 11);
        d.insert_pos(2, "a", 10); // hard link: same ino, other dir
        d.insert_neg(2, "gone");
        d.purge_ino(10);
        assert_eq!(d.lookup(1, "a"), DcacheAnswer::Miss);
        assert_eq!(d.lookup(2, "a"), DcacheAnswer::Miss);
        assert_eq!(d.lookup(1, "b"), DcacheAnswer::Pos(11));
        d.purge_dir(2);
        assert_eq!(d.lookup(2, "gone"), DcacheAnswer::Miss);
        assert_eq!(d.lookup(1, "b"), DcacheAnswer::Pos(11));
    }

    #[test]
    fn clear_records_hit_pct_and_empties() {
        let d = dc(64); // one shard
        d.insert_pos(1, "a", 5);
        for _ in 0..9 {
            assert_eq!(d.lookup(1, "a"), DcacheAnswer::Pos(5));
        }
        assert_eq!(d.lookup(1, "x"), DcacheAnswer::Miss);
        d.clear();
        assert!(d.is_empty());
        let snap = d.obs().histos().dcache_hit_pct.snapshot();
        assert_eq!(snap.count(), 1, "one probed shard, one sample");
        assert_eq!(snap.sum, 90, "9 hits / 10 probes");
        // A cleared, unprobed epoch records nothing.
        d.clear();
        assert_eq!(d.obs().histos().dcache_hit_pct.snapshot().count(), 1);
    }
}
