//! The file-system surface the workloads drive, the traced client that
//! wraps every call in a span, and the counter snapshot taken at window
//! and pass boundaries.
//!
//! `Cffs` and `VolumeSet` are the two targets. The `Fs` trait exists so
//! `volume_stripe`'s stream can run unchanged on a bare `Cffs`, a
//! 1-volume set and a 2-volume set (the volume-overhead and scaling
//! metrics are differences between those runs).

use crate::trace::{Layer, Tracer};
use cffs_core::Cffs;
use cffs_fslib::{Attr, ConcurrentFs, FsResult, Ino, IoStats};
use cffs_obs::{Ctr, Obs};
use cffs_volume::VolumeSet;
use std::sync::Arc;

/// What a workload needs from its target.
pub trait Fs: Sync {
    /// Layer the calls are charged to in the span file.
    const LAYER: Layer;
    /// Root directory.
    fn root(&self) -> Ino;
    /// Resolve one component.
    fn lookup(&self, dir: Ino, name: &str) -> FsResult<Ino>;
    /// Attributes.
    fn getattr(&self, ino: Ino) -> FsResult<Attr>;
    /// Create a file.
    fn create(&self, dir: Ino, name: &str) -> FsResult<Ino>;
    /// Create a directory.
    fn mkdir(&self, dir: Ino, name: &str) -> FsResult<Ino>;
    /// Remove a file.
    fn unlink(&self, dir: Ino, name: &str) -> FsResult<()>;
    /// Read at an offset.
    fn read(&self, ino: Ino, off: u64, buf: &mut [u8]) -> FsResult<usize>;
    /// Write at an offset.
    fn write(&self, ino: Ino, off: u64, data: &[u8]) -> FsResult<usize>;
    /// Write back all dirty state.
    fn sync(&self) -> FsResult<()>;
    /// Simulated clock of the calling thread, ns.
    fn now_ns(&self) -> u64;
    /// Sync, then drop every cache (cold boundary).
    fn drop_caches(&self) -> FsResult<()>;
    /// Blocks free for allocation, group slack excluded, over all disks.
    fn free_blocks(&self) -> u64;
    /// One registry per disk.
    fn registries(&self) -> Vec<Arc<Obs>>;
    /// I/O statistics summed over disks.
    fn io_stats(&self) -> IoStats;
}

impl Fs for Cffs {
    const LAYER: Layer = Layer::Core;
    fn root(&self) -> Ino {
        Cffs::root(self)
    }
    fn lookup(&self, dir: Ino, name: &str) -> FsResult<Ino> {
        Cffs::lookup(self, dir, name)
    }
    fn getattr(&self, ino: Ino) -> FsResult<Attr> {
        Cffs::getattr(self, ino)
    }
    fn create(&self, dir: Ino, name: &str) -> FsResult<Ino> {
        Cffs::create(self, dir, name)
    }
    fn mkdir(&self, dir: Ino, name: &str) -> FsResult<Ino> {
        Cffs::mkdir(self, dir, name)
    }
    fn unlink(&self, dir: Ino, name: &str) -> FsResult<()> {
        Cffs::unlink(self, dir, name)
    }
    fn read(&self, ino: Ino, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        Cffs::read(self, ino, off, buf)
    }
    fn write(&self, ino: Ino, off: u64, data: &[u8]) -> FsResult<usize> {
        Cffs::write(self, ino, off, data)
    }
    fn sync(&self) -> FsResult<()> {
        Cffs::sync(self)
    }
    fn now_ns(&self) -> u64 {
        Cffs::now(self).as_nanos()
    }
    fn drop_caches(&self) -> FsResult<()> {
        Cffs::drop_caches(self)
    }
    fn free_blocks(&self) -> u64 {
        self.statfs().map(|s| s.free_blocks).unwrap_or(0)
    }
    fn registries(&self) -> Vec<Arc<Obs>> {
        vec![self.obs()]
    }
    fn io_stats(&self) -> IoStats {
        Cffs::io_stats(self)
    }
}

impl Fs for VolumeSet {
    const LAYER: Layer = Layer::Volume;
    fn root(&self) -> Ino {
        ConcurrentFs::root(self)
    }
    fn lookup(&self, dir: Ino, name: &str) -> FsResult<Ino> {
        ConcurrentFs::lookup(self, dir, name)
    }
    fn getattr(&self, ino: Ino) -> FsResult<Attr> {
        ConcurrentFs::getattr(self, ino)
    }
    fn create(&self, dir: Ino, name: &str) -> FsResult<Ino> {
        ConcurrentFs::create(self, dir, name)
    }
    fn mkdir(&self, dir: Ino, name: &str) -> FsResult<Ino> {
        ConcurrentFs::mkdir(self, dir, name)
    }
    fn unlink(&self, dir: Ino, name: &str) -> FsResult<()> {
        ConcurrentFs::unlink(self, dir, name)
    }
    fn read(&self, ino: Ino, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        ConcurrentFs::read(self, ino, off, buf)
    }
    fn write(&self, ino: Ino, off: u64, data: &[u8]) -> FsResult<usize> {
        ConcurrentFs::write(self, ino, off, data)
    }
    fn sync(&self) -> FsResult<()> {
        ConcurrentFs::sync(self)
    }
    fn now_ns(&self) -> u64 {
        ConcurrentFs::now(self).as_nanos()
    }
    fn drop_caches(&self) -> FsResult<()> {
        self.drop_caches_all()
    }
    fn free_blocks(&self) -> u64 {
        (0..self.nvols())
            .map(|v| self.statfs_vol(v).map(|s| s.free_blocks).unwrap_or(0))
            .sum()
    }
    fn registries(&self) -> Vec<Arc<Obs>> {
        self.vol_obs()
    }
    fn io_stats(&self) -> IoStats {
        VolumeSet::io_stats(self)
    }
}

/// The traced client: each call is a span charged to the target's layer.
/// With the tracer off each wrapper is one branch around the direct call.
pub struct Client<'a, F: Fs> {
    /// The target.
    pub fs: &'a F,
    /// The recorder.
    pub tr: &'a mut Tracer,
}

macro_rules! call {
    ($self:ident, $name:literal, $e:expr) => {{
        if $self.tr.on {
            $self.tr.open(F::LAYER, $name, $self.fs.now_ns());
            let r = $e;
            $self.tr.close($self.fs.now_ns());
            r
        } else {
            $e
        }
    }};
}

impl<F: Fs> Client<'_, F> {
    /// Open an op span (harness layer) around the calls of one op.
    #[inline]
    pub fn op_begin(&mut self, name: &'static str) {
        if self.tr.on {
            self.tr.open_op(name, self.fs.now_ns());
        }
    }

    /// Close the op span.
    #[inline]
    pub fn op_end(&mut self) {
        if self.tr.on {
            self.tr.close(self.fs.now_ns());
        }
    }

    /// `lookup`, spanned.
    #[inline]
    pub fn lookup(&mut self, dir: Ino, name: &str) -> FsResult<Ino> {
        call!(self, "lookup", self.fs.lookup(dir, name))
    }

    /// `getattr`, spanned.
    #[inline]
    pub fn getattr(&mut self, ino: Ino) -> FsResult<Attr> {
        call!(self, "getattr", self.fs.getattr(ino))
    }

    /// `create`, spanned.
    #[inline]
    pub fn create(&mut self, dir: Ino, name: &str) -> FsResult<Ino> {
        call!(self, "create", self.fs.create(dir, name))
    }

    /// `unlink`, spanned.
    #[inline]
    pub fn unlink(&mut self, dir: Ino, name: &str) -> FsResult<()> {
        call!(self, "unlink", self.fs.unlink(dir, name))
    }

    /// `read`, spanned.
    #[inline]
    pub fn read(&mut self, ino: Ino, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        call!(self, "read", self.fs.read(ino, off, buf))
    }

    /// `write`, spanned.
    #[inline]
    pub fn write(&mut self, ino: Ino, off: u64, data: &[u8]) -> FsResult<usize> {
        call!(self, "write", self.fs.write(ino, off, data))
    }

    /// `sync`, spanned.
    #[inline]
    pub fn sync(&mut self) -> FsResult<()> {
        call!(self, "sync", self.fs.sync())
    }
}

macro_rules! count_fields {
    ($($field:ident),+ $(,)?) => {
        /// Counters read at a boundary, summed over the target's disks.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counts {
            $(#[allow(missing_docs)] pub $field: u64,)+
        }

        impl Counts {
            /// Counters accumulated since `earlier`.
            pub fn since(&self, earlier: &Counts) -> Counts {
                Counts { $($field: self.$field - earlier.$field,)+ }
            }

            /// Rendered as one JSON object.
            pub fn to_json(&self) -> String {
                let fields = [$(format!("\"{}\":{}", stringify!($field), self.$field),)+];
                format!("{{{}}}", fields.join(","))
            }
        }
    };
}

count_fields!(
    disk_reads,
    disk_writes,
    sectors_read,
    sectors_written,
    onboard_hits,
    seek_ns,
    rotation_ns,
    transfer_ns,
    busy_ns,
    submits,
    logical_reqs,
    physical_reqs,
    coalesced,
    sg_segments,
    queue_ns,
    cache_lookups,
    cache_hits,
    evictions,
    writebacks,
    delayed_flushes,
    writeback_runs,
    group_reads,
    gf_used,
    gf_wasted,
    backbinds,
    embedded_ops,
    external_ops,
    sync_meta_writes,
    degroupings,
    attr_op_ns,
    dc_hits,
    dc_neg_hits,
    dc_misses,
    dc_evictions,
    dir_fanouts,
    stripe_part_ios,
    stripe_promotions,
    obs_events,
    lock_wait_ns,
);

impl Counts {
    /// Read every counter the metrics need from `fs`.
    pub fn take<F: Fs>(fs: &F) -> Counts {
        let io = fs.io_stats();
        let mut c = Counts {
            disk_reads: io.disk.reads,
            disk_writes: io.disk.writes,
            sectors_read: io.disk.sectors_read,
            sectors_written: io.disk.sectors_written,
            onboard_hits: io.disk.cache_hits,
            seek_ns: io.disk.seek_ns,
            rotation_ns: io.disk.rotation_ns,
            transfer_ns: io.disk.transfer_ns,
            busy_ns: io.disk.busy_ns,
            logical_reqs: io.driver.logical_requests,
            physical_reqs: io.driver.physical_requests,
            coalesced: io.driver.coalesced,
            cache_lookups: io.cache.lookups,
            cache_hits: io.cache.phys_hits + io.cache.logical_hits,
            evictions: io.cache.evictions,
            writebacks: io.cache.writebacks,
            group_reads: io.cache.group_reads,
            backbinds: io.cache.backbinds,
            ..Counts::default()
        };
        for obs in fs.registries() {
            c.submits += obs.get(Ctr::DriverQueueSubmit);
            c.sg_segments += obs.get(Ctr::DriverSgSegments);
            c.queue_ns += obs.get(Ctr::AttrQueueNs);
            c.delayed_flushes += obs.get(Ctr::CacheDelayedFlushes);
            c.writeback_runs += obs.get(Ctr::CacheCoalescedRuns);
            c.gf_used += obs.get(Ctr::GroupFetchBlocksUsed);
            c.gf_wasted += obs.get(Ctr::GroupFetchBlocksWasted);
            c.embedded_ops += obs.get(Ctr::FsEmbeddedInodeOps);
            c.external_ops += obs.get(Ctr::FsExternalInodeOps);
            c.sync_meta_writes += obs.get(Ctr::FsSyncMetaWrites);
            c.degroupings += obs.get(Ctr::FsDegroupings);
            c.attr_op_ns += obs.get(Ctr::AttrOpNs);
            c.dc_hits += obs.get(Ctr::DcacheHits);
            c.dc_neg_hits += obs.get(Ctr::DcacheNegHits);
            c.dc_misses += obs.get(Ctr::DcacheMisses);
            c.dc_evictions += obs.get(Ctr::DcacheEvictions);
            c.dir_fanouts += obs.get(Ctr::VolDirFanouts);
            c.stripe_part_ios += obs.get(Ctr::VolStripePartIos);
            c.stripe_promotions += obs.get(Ctr::VolStripePromotions);
            c.obs_events += obs.events_recorded();
            c.lock_wait_ns += obs.get(Ctr::LockWaitNsAlloc)
                + obs.get(Ctr::LockWaitNsCache)
                + obs.get(Ctr::LockWaitNsDriver);
        }
        c
    }

    /// Disk requests.
    pub fn disk_reqs(&self) -> u64 {
        self.disk_reads + self.disk_writes
    }
}
