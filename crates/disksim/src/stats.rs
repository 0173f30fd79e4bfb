//! The disk-side rows of the I/O view.
//!
//! The paper's headline mechanism claim is about *counts*: C-FFS reduces the
//! number of disk requests by an order of magnitude. Those counts, and the
//! service-time breakdown (seek / rotation / transfer) behind the Figure 2
//! analysis, are kept once, as monotonic counters in the stack's
//! `cffs_obs` registry. The structs here hold no state of their own: they
//! are the drive's and the driver's part of `cffs_fslib::IoStats`, a view
//! built from counter reads, and a phase is the delta of two views.

use cffs_obs::json::{Json, ToJson};
use cffs_obs::obj;

/// What one simulated drive serviced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Media (or cache-hit) read requests serviced.
    pub reads: u64,
    /// Write requests serviced.
    pub writes: u64,
    /// Sectors read.
    pub sectors_read: u64,
    /// Sectors written.
    pub sectors_written: u64,
    /// Reads satisfied entirely from the on-board cache.
    pub cache_hits: u64,
    /// Total time spent seeking (ns).
    pub seek_ns: u64,
    /// Total rotational latency (ns).
    pub rotation_ns: u64,
    /// Total media/bus transfer time (ns).
    pub transfer_ns: u64,
    /// Total fixed per-request controller overhead (ns).
    pub overhead_ns: u64,
    /// Total busy time (ns) — the sum of the four buckets above.
    pub busy_ns: u64,
}

impl ToJson for DiskStats {
    fn to_json(&self) -> Json {
        obj![
            ("reads", self.reads.to_json()),
            ("writes", self.writes.to_json()),
            ("sectors_read", self.sectors_read.to_json()),
            ("sectors_written", self.sectors_written.to_json()),
            ("cache_hits", self.cache_hits.to_json()),
            ("seek_ns", self.seek_ns.to_json()),
            ("rotation_ns", self.rotation_ns.to_json()),
            ("transfer_ns", self.transfer_ns.to_json()),
            ("overhead_ns", self.overhead_ns.to_json()),
            ("busy_ns", self.busy_ns.to_json()),
        ]
    }
}

impl DiskStats {
    /// Total requests (reads + writes).
    pub fn total_requests(&self) -> u64 {
        self.reads + self.writes
    }

    /// Counters accumulated since `baseline` (for phase-scoped measurement).
    pub fn delta_since(&self, baseline: &DiskStats) -> DiskStats {
        DiskStats {
            reads: self.reads - baseline.reads,
            writes: self.writes - baseline.writes,
            sectors_read: self.sectors_read - baseline.sectors_read,
            sectors_written: self.sectors_written - baseline.sectors_written,
            cache_hits: self.cache_hits - baseline.cache_hits,
            seek_ns: self.seek_ns - baseline.seek_ns,
            rotation_ns: self.rotation_ns - baseline.rotation_ns,
            transfer_ns: self.transfer_ns - baseline.transfer_ns,
            overhead_ns: self.overhead_ns - baseline.overhead_ns,
            busy_ns: self.busy_ns - baseline.busy_ns,
        }
    }
}

/// What the driver did above the drive: coalescing and batching.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// Requests handed to the driver before coalescing.
    pub logical_requests: u64,
    /// Requests issued to the disk after coalescing.
    pub physical_requests: u64,
    /// Logical requests eliminated by scatter/gather merging.
    pub coalesced: u64,
    /// Batches submitted.
    pub batches: u64,
}

impl ToJson for DriverStats {
    fn to_json(&self) -> Json {
        obj![
            ("logical_requests", self.logical_requests.to_json()),
            ("physical_requests", self.physical_requests.to_json()),
            ("coalesced", self.coalesced.to_json()),
            ("batches", self.batches.to_json()),
        ]
    }
}

impl DriverStats {
    /// Counters accumulated since `baseline`.
    pub fn delta_since(&self, baseline: &DriverStats) -> DriverStats {
        DriverStats {
            logical_requests: self.logical_requests - baseline.logical_requests,
            physical_requests: self.physical_requests - baseline.physical_requests,
            coalesced: self.coalesced - baseline.coalesced,
            batches: self.batches - baseline.batches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta() {
        let a = DiskStats { reads: 10, seek_ns: 100, busy_ns: 100, ..Default::default() };
        let b = DiskStats { reads: 25, writes: 3, seek_ns: 300, busy_ns: 350, ..Default::default() };
        let d = b.delta_since(&a);
        assert_eq!((d.reads, d.seek_ns, d.busy_ns), (15, 200, 250));
        assert_eq!(d.total_requests(), 18);
        let a = DriverStats { logical_requests: 4, coalesced: 1, ..Default::default() };
        let b = DriverStats { logical_requests: 9, physical_requests: 5, coalesced: 3, batches: 2 };
        let want = DriverStats { logical_requests: 5, physical_requests: 5, coalesced: 2, batches: 2 };
        assert_eq!(b.delta_since(&a), want);
    }
}
