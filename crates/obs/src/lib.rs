//! `cffs-obs` — cross-layer observability for the C-FFS reproduction.
//!
//! Three pieces, all dependency-free and cheap enough for simulator hot
//! paths:
//!
//! * [`Counters`]: a fixed registry of relaxed atomic `u64` counters indexed
//!   by the [`Ctr`] enum. Incrementing is one relaxed `fetch_add`; the hot
//!   path never allocates, locks, or formats.
//! * [`TraceRing`]: a bounded ring of [`Event`]s that overwrites the oldest
//!   entries on wrap, so the newest events are always retained.
//! * [`StatsSnapshot`]: a point-in-time, JSON-serializable copy of every
//!   counter plus simulated time — the unit that bench binaries embed in
//!   their `BENCH_*.json` output and that tests diff against hand counts.
//!
//! One [`Obs`] handle (an `Arc`) is shared by the disk, driver, buffer
//! cache, and file-system layers of a mounted stack, so a single snapshot
//! sees the whole path a request took.

pub mod diff;
pub mod feed;
pub mod flight;
pub mod json;
pub mod prof;

use std::cell::RefCell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

use json::{Json, JsonError, ToJson};

macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)+) => {
        /// Every counter in the registry. `Ctr::name()` gives the stable
        /// snake_case string used in snapshots and `BENCH_*.json`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Ctr {
            $($(#[$doc])* $variant,)+
        }

        impl Ctr {
            /// Number of registered counters.
            pub const COUNT: usize = [$($name),+].len();

            /// All counters, in registry (snapshot) order.
            pub const ALL: [Ctr; Self::COUNT] = [$(Ctr::$variant),+];

            /// Stable external name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Ctr::$variant => $name,)+
                }
            }

            /// Inverse of [`Ctr::name`].
            pub fn from_name(name: &str) -> Option<Ctr> {
                match name {
                    $($name => Some(Ctr::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

counters! {
    // ---- disksim: mechanical disk ----
    /// Requests serviced by the disk (after driver coalescing).
    DiskRequests => "disk_requests",
    /// Read requests serviced by the disk.
    DiskReads => "disk_reads",
    /// Write requests serviced by the disk.
    DiskWrites => "disk_writes",
    /// Requests that required an arm seek (nonzero cylinder delta).
    DiskSeeks => "disk_seeks",
    /// Nanoseconds the arm spent seeking.
    DiskSeekNs => "disk_seek_ns",
    /// Nanoseconds spent waiting for the target sector to rotate under
    /// the head.
    DiskRotationNs => "disk_rotation_ns",
    /// Nanoseconds spent moving data: media transfer with its head and
    /// cylinder switches, or the bus transfer of an on-board cache hit.
    DiskTransferNs => "disk_transfer_ns",
    /// Total simulated service time, nanoseconds.
    DiskServiceNs => "disk_service_ns",
    /// Bytes transferred from the media on reads.
    DiskBytesRead => "disk_bytes_read",
    /// Bytes transferred to the media on writes.
    DiskBytesWritten => "disk_bytes_written",
    /// Read requests absorbed by the on-board (track) cache.
    DiskCacheHits => "disk_cache_hits",

    // ---- disksim: driver / scheduler ----
    /// Logical I/O requests submitted to the driver.
    DriverLogicalRequests => "driver_logical_requests",
    /// Physical requests issued after scheduling + coalescing.
    DriverPhysicalRequests => "driver_physical_requests",
    /// Scatter/gather segments across all physical requests.
    DriverSgSegments => "driver_sg_segments",
    /// Logical requests merged away by coalescing.
    DriverCoalesced => "driver_coalesced",
    /// Batches submitted to the driver.
    DriverBatches => "driver_batches",
    /// Submissions to the driver, each serviced on its caller's thread
    /// (single reads and writes as well as batches).
    DriverQueueSubmit => "driver_queue_submit",

    // ---- buffer cache ----
    /// Block lookups against the cache.
    CacheLookups => "cache_lookups",
    /// Lookups satisfied via the physical (disk-address) index.
    CachePhysHits => "cache_phys_hits",
    /// Lookups satisfied via the logical (file-identity) index.
    CacheLogicalHits => "cache_logical_hits",
    /// Lookups that missed and went to disk.
    CacheMisses => "cache_misses",
    /// Group-fetched buffers later claimed by file identity.
    CacheBackbinds => "cache_backbinds",
    /// Buffers evicted to make room.
    CacheEvictions => "cache_evictions",
    /// Dirty buffers written back (any path).
    CacheWritebacks => "cache_writebacks",
    /// Physically contiguous dirty runs written as one request by sync.
    CacheCoalescedRuns => "cache_coalesced_runs",
    /// Blocks flushed synchronously (write-through ordering points).
    CacheSyncFlushes => "cache_sync_flushes",
    /// Blocks flushed by delayed write-back (sync sweep / eviction).
    CacheDelayedFlushes => "cache_delayed_flushes",
    /// Group read-ahead requests issued.
    CacheGroupReads => "cache_group_reads",
    /// Blocks brought in by group read-ahead.
    CacheGroupReadBlocks => "cache_group_read_blocks",
    /// Group-fetched blocks that were hit at least once before leaving
    /// the cache — the "free bandwidth" that actually got used.
    GroupFetchBlocksUsed => "group_fetch_blocks_used",
    /// Group-fetched blocks evicted/invalidated without ever being hit.
    GroupFetchBlocksWasted => "group_fetch_blocks_wasted",

    // ---- namespace cache (dcache) ----
    /// Dcache probes answered with a cached positive entry (name -> ino).
    DcacheHits => "dcache_hit",
    /// Dcache probes that found no entry and fell through to a dirent scan.
    DcacheMisses => "dcache_miss",
    /// Dcache probes answered with a cached negative entry (name known
    /// absent — the dominant cost in create-if-absent patterns).
    DcacheNegHits => "dcache_neg_hit",
    /// Dcache entries evicted by the CLOCK hand to stay within capacity.
    DcacheEvictions => "dcache_evict",

    // ---- file system (C-FFS and the FFS baseline) ----
    /// Inode reads/writes served from an embedded (in-directory) inode.
    FsEmbeddedInodeOps => "fs_embedded_inode_ops",
    /// Inode reads/writes served from an external inode block/table.
    FsExternalInodeOps => "fs_external_inode_ops",
    /// Group fetches triggered by a member miss: the live run around it.
    FsGroupFetches => "fs_group_fetches",
    /// Blocks covered by those group fetches.
    FsGroupFetchBlocks => "fs_group_fetch_blocks",
    /// Groups dissolved (membership dropped to zero / reclaimed).
    FsGroupDissolves => "fs_group_dissolves",
    /// Files removed from a group without dissolving it.
    FsDegroupings => "fs_degroupings",
    /// Metadata updates forced to disk synchronously.
    FsSyncMetaWrites => "fs_sync_meta_writes",
    /// Metadata updates deferred to delayed write-back.
    FsDelayedMetaWrites => "fs_delayed_meta_writes",

    // ---- online regrouping engine ----
    /// Blocks relocated by the regrouper (copy-forward + pointer rewrite).
    RegroupBlocksMoved => "regroup_blocks_moved",
    /// Fresh contiguous group extents carved by the regrouper.
    RegroupGroupsFormed => "regroup_groups_formed",
    /// Budgeted regroup passes fired by the signal autotrigger.
    RegroupAutotriggers => "regroup_autotriggers",

    // ---- time attribution (simulated-time profiler) ----
    /// Span time left after queueing and disk service — in-memory op work.
    AttrOpNs => "attr_op_ns",
    /// Time disk requests inside spans waited behind earlier requests.
    AttrQueueNs => "attr_queue_ns",
    /// Mechanical disk service time, in-span and unattributed.
    AttrServiceNs => "attr_service_ns",

    // ---- health signals ----
    /// Signal EWMA crossings below a configured floor.
    SignalLowEvents => "signal_low_events",
    /// Signal EWMA recoveries back above a floor's rearm point.
    SignalHighEvents => "signal_high_events",

    // ---- lock contention (host-time; zero in single-threaded runs) ----
    /// Host nanoseconds spent waiting on contended allocation-map /
    /// group-index / namespace locks in the FS core.
    LockWaitNsAlloc => "lock_wait_ns_alloc",
    /// Host nanoseconds spent waiting on the contended buffer-cache
    /// lock.
    LockWaitNsCache => "lock_wait_ns_cache",
    /// Host nanoseconds spent waiting on contended driver queue / disk
    /// locks.
    LockWaitNsDriver => "lock_wait_ns_driver",

    // ---- scale-out volume sets ----
    /// Files promoted to the striped layout by a volume set (first write
    /// that extends past the stripe threshold).
    VolStripePromotions => "vol_stripe_promotions",
    /// Stripe-part reads/writes issued to non-home volumes on behalf of
    /// striped files.
    VolStripePartIos => "vol_stripe_part_ios",
    /// Directory creations fanned out to every volume to replicate the
    /// namespace skeleton.
    VolDirFanouts => "vol_dir_fanouts",
}

/// Fixed registry of relaxed atomic counters.
pub struct Counters {
    vals: [AtomicU64; Ctr::COUNT],
}

impl Counters {
    pub fn new() -> Self {
        Counters {
            vals: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Add `n` to a counter; adding 0 touches nothing. Relaxed: counters
    /// are statistics, not synchronization.
    #[inline]
    pub fn add(&self, c: Ctr, n: u64) {
        if n != 0 {
            self.vals[c as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment a counter by one.
    #[inline]
    pub fn bump(&self, c: Ctr) {
        self.add(c, 1);
    }

    /// Current value of one counter.
    pub fn get(&self, c: Ctr) -> u64 {
        self.vals[c as usize].load(Ordering::Relaxed)
    }

    /// Copy of all counter values, in [`Ctr::ALL`] order.
    pub fn values(&self) -> [u64; Ctr::COUNT] {
        std::array::from_fn(|i| self.vals[i].load(Ordering::Relaxed))
    }
}

impl Default for Counters {
    fn default() -> Self {
        Self::new()
    }
}

macro_rules! op_kinds {
    ($($(#[$doc:meta])* $variant:ident => $name:literal / $tag:literal,)+) => {
        /// The kind of file-system operation a [span](Obs::span) is
        /// attributed to — one variant per public `FileSystem` entry
        /// point (plus C-FFS's `group_files` hint).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum OpKind {
            $($(#[$doc])* $variant,)+
        }

        impl OpKind {
            /// Number of op kinds.
            pub const COUNT: usize = [$($name),+].len();

            /// All op kinds, in registry order.
            pub const ALL: [OpKind; Self::COUNT] = [$(OpKind::$variant),+];

            /// Stable external name (the `op` field of trace events and
            /// the suffix of the `op_ns_*` latency histograms).
            pub fn name(self) -> &'static str {
                match self {
                    $(OpKind::$variant => $name,)+
                }
            }

            /// Trace-event tag recorded when the op's span closes.
            pub fn tag(self) -> &'static str {
                match self {
                    $(OpKind::$variant => $tag,)+
                }
            }

            /// Inverse of [`OpKind::name`].
            pub fn from_name(name: &str) -> Option<OpKind> {
                match name {
                    $($name => Some(OpKind::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

op_kinds! {
    /// Name resolution in one directory.
    Lookup => "lookup" / "op.lookup",
    /// Attribute read.
    Getattr => "getattr" / "op.getattr",
    /// File creation.
    Create => "create" / "op.create",
    /// Directory creation.
    Mkdir => "mkdir" / "op.mkdir",
    /// File unlink.
    Unlink => "unlink" / "op.unlink",
    /// Directory removal.
    Rmdir => "rmdir" / "op.rmdir",
    /// Hard-link creation.
    Link => "link" / "op.link",
    /// Rename (same or cross directory).
    Rename => "rename" / "op.rename",
    /// File data read.
    Read => "read" / "op.read",
    /// File data write.
    Write => "write" / "op.write",
    /// File truncate/extend.
    Truncate => "truncate" / "op.truncate",
    /// Directory scan.
    Readdir => "readdir" / "op.readdir",
    /// Flush of all dirty state.
    Sync => "sync" / "op.sync",
    /// File-system statistics.
    Statfs => "statfs" / "op.statfs",
    /// Application grouping hint.
    GroupHint => "group_hint" / "op.group_hint",
    /// Cache drop (cold-cache boundary in benchmarks).
    DropCaches => "drop_caches" / "op.drop_caches",
    /// C-FFS explicit co-grouping of named files.
    GroupFiles => "group_files" / "op.group_files",
}

/// Number of buckets in every [`Histogram`]. Bucket 0 holds the value 0;
/// bucket `i >= 1` holds values in `[2^(i-1), 2^i)`. 48 buckets cover
/// values up to `2^47` (≈ 39 simulated hours in nanoseconds).
pub const HISTO_BUCKETS: usize = 48;

/// Bucket index a value lands in (log2 buckets, see [`HISTO_BUCKETS`]).
#[inline]
pub fn histo_bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HISTO_BUCKETS - 1)
    }
}

/// Inclusive lower bound of a bucket.
pub fn histo_bucket_lo(i: usize) -> u64 {
    if i == 0 { 0 } else { 1u64 << (i - 1) }
}

/// Inclusive upper bound of a bucket (quantiles report this value, so a
/// log2 histogram's percentiles are upper bounds accurate to 2×).
pub fn histo_bucket_hi(i: usize) -> u64 {
    if i == 0 { 0 } else { (1u64 << i) - 1 }
}

/// Fixed-size log2-bucket histogram of `u64` values. Recording is one
/// relaxed `fetch_add` on a bucket plus one on the running sum — no
/// allocation, no locks, no floating point on the hot path.
pub struct Histogram {
    buckets: [AtomicU64; HISTO_BUCKETS],
    sum: AtomicU64,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[histo_bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistogramSnapshot {
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Serializable copy of a [`Histogram`] at one instant. Trailing empty
/// buckets are trimmed, so `buckets.len()` varies but indices keep the
/// log2 meaning of [`histo_bucket_of`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Sum of all recorded values (for means).
    pub sum: u64,
    /// Per-bucket counts, trailing zeros trimmed.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean recorded value (0 if empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// Quantile `q` in `[0, 1]`, reported as the inclusive upper bound of
    /// the bucket where the cumulative count crosses `q` (log2 buckets:
    /// accurate to a factor of 2). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return histo_bucket_hi(i);
            }
        }
        histo_bucket_hi(self.buckets.len().saturating_sub(1))
    }

    /// Bucket-wise difference `self - earlier` (saturating).
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let len = self.buckets.len().max(earlier.buckets.len());
        let get = |v: &Vec<u64>, i: usize| v.get(i).copied().unwrap_or(0);
        let mut buckets: Vec<u64> = (0..len)
            .map(|i| get(&self.buckets, i).saturating_sub(get(&earlier.buckets, i)))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistogramSnapshot {
            sum: self.sum.saturating_sub(earlier.sum),
            buckets,
        }
    }

    /// Bucket-wise sum `self + other` (saturating), for folding
    /// per-volume histograms into one aggregate view.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let len = self.buckets.len().max(other.buckets.len());
        let get = |v: &Vec<u64>, i: usize| v.get(i).copied().unwrap_or(0);
        let buckets: Vec<u64> = (0..len)
            .map(|i| get(&self.buckets, i).saturating_add(get(&other.buckets, i)))
            .collect();
        HistogramSnapshot {
            sum: self.sum.saturating_add(other.sum),
            buckets,
        }
    }

    pub fn from_json(j: &Json) -> Result<HistogramSnapshot, JsonError> {
        let sum = j
            .want("sum")?
            .as_u64()
            .ok_or_else(|| JsonError("histogram sum must be a u64".into()))?;
        let buckets = match j.want("buckets")? {
            Json::Arr(a) => a
                .iter()
                .map(|v| {
                    v.as_u64()
                        .ok_or_else(|| JsonError("histogram bucket must be a u64".into()))
                })
                .collect::<Result<Vec<u64>, _>>()?,
            _ => return Err(JsonError("histogram buckets must be an array".into())),
        };
        Ok(HistogramSnapshot { sum, buckets })
    }
}

impl ToJson for HistogramSnapshot {
    fn to_json(&self) -> Json {
        obj![
            ("count", Json::Int(self.count() as i64)),
            ("sum", Json::Int(self.sum as i64)),
            (
                "buckets",
                Json::Arr(self.buckets.iter().map(|&c| Json::Int(c as i64)).collect())
            ),
        ]
    }
}

/// The fixed registry of histograms one [`Obs`] carries: per-op latency
/// (`op_ns_<op>`), disk-request size in sectors, seek distance in
/// cylinders, per-request service time, and group-fetch utilization.
pub struct Histos {
    op_ns: [Histogram; OpKind::COUNT],
    /// Sectors per disk request, after driver coalescing.
    pub disk_req_sectors: Histogram,
    /// Cylinders traversed by each arm seek (zero-distance not recorded).
    pub disk_seek_cylinders: Histogram,
    /// Simulated service time of each disk request, nanoseconds.
    pub disk_req_service_ns: Histogram,
    /// Percent of each group fetch's blocks hit before leaving the cache,
    /// recorded once per fetch when its last block resolves.
    pub group_fetch_util_pct: Histogram,
    /// Logical requests per driver batch (instantaneous queue depth at
    /// each submit).
    pub driver_batch_reqs: Histogram,
    /// Per-shard buffer-cache hit rate in percent, sampled once per shard
    /// at every cache drop (cold boundary) covering the epoch since the
    /// previous drop.
    pub cache_shard_hit_pct: Histogram,
    /// Per-shard namespace-cache (dcache) hit rate in percent — positive
    /// and negative hits over all probes — sampled once per shard at
    /// every dcache clear covering the epoch since the previous clear.
    pub dcache_hit_pct: Histogram,
}

impl Histos {
    fn new() -> Self {
        Histos {
            op_ns: std::array::from_fn(|_| Histogram::new()),
            disk_req_sectors: Histogram::new(),
            disk_seek_cylinders: Histogram::new(),
            disk_req_service_ns: Histogram::new(),
            group_fetch_util_pct: Histogram::new(),
            driver_batch_reqs: Histogram::new(),
            cache_shard_hit_pct: Histogram::new(),
            dcache_hit_pct: Histogram::new(),
        }
    }

    /// The latency histogram for one op kind.
    pub fn op_ns(&self, op: OpKind) -> &Histogram {
        &self.op_ns[op as usize]
    }

    /// The histograms after the per-op ones, with their stable names, in
    /// registry order — the one list of them.
    fn fixed(&self) -> [(&'static str, &Histogram); 7] {
        [
            ("disk_req_sectors", &self.disk_req_sectors),
            ("disk_seek_cylinders", &self.disk_seek_cylinders),
            ("disk_req_service_ns", &self.disk_req_service_ns),
            ("group_fetch_util_pct", &self.group_fetch_util_pct),
            ("driver_batch_reqs", &self.driver_batch_reqs),
            ("cache_shard_hit_pct", &self.cache_shard_hit_pct),
            ("dcache_hit_pct", &self.dcache_hit_pct),
        ]
    }

    /// `(stable name, histogram)` pairs in registry (snapshot) order.
    pub fn named(&self) -> Vec<(String, &Histogram)> {
        let ops = OpKind::ALL.iter().map(|&op| (format!("op_ns_{}", op.name()), self.op_ns(op)));
        ops.chain(self.fixed().into_iter().map(|(n, h)| (n.to_string(), h))).collect()
    }

    /// All registered histogram names, in snapshot order.
    pub fn names() -> Vec<String> {
        Histos::new().named().into_iter().map(|(n, _)| n).collect()
    }

    /// The histogram registered under `name` (allocation-free).
    pub(crate) fn by_name(&self, name: &str) -> Option<&Histogram> {
        match name.strip_prefix("op_ns_") {
            Some(op) => OpKind::from_name(op).map(|op| self.op_ns(op)),
            None => self.fixed().into_iter().find(|&(n, _)| n == name).map(|(_, h)| h),
        }
    }
}

/// One trace event. `a`/`b` are event-specific operands (block numbers,
/// byte counts, inode numbers — the tag's documentation defines them).
/// Every event is stamped with the [span](Obs::span) active when it was
/// recorded (`span == 0` / empty `op` when none), so disk requests can be
/// attributed to the file-system operation that caused them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulated time the event occurred, nanoseconds.
    pub t_ns: u64,
    /// Static event name, e.g. `"disk.read"` or `"op.create"`.
    pub tag: &'static str,
    pub a: u64,
    pub b: u64,
    /// Id of the causing op span; 0 when no span was active.
    pub span: u64,
    /// [`OpKind::name`] of the causing op; `""` when no span was active.
    pub op: &'static str,
    /// Event duration in simulated nanoseconds (service time for `disk.*`
    /// events, op latency for `op.*` span events); 0 when instantaneous.
    pub dur_ns: u64,
}

impl Event {
    /// One-line JSON rendering (for JSONL dumps).
    pub fn to_jsonl(&self) -> String {
        obj![
            ("t_ns", Json::Int(self.t_ns as i64)),
            ("tag", Json::Str(self.tag.to_string())),
            ("a", Json::Int(self.a as i64)),
            ("b", Json::Int(self.b as i64)),
            ("span", Json::Int(self.span as i64)),
            ("op", Json::Str(self.op.to_string())),
            ("dur_ns", Json::Int(self.dur_ns as i64)),
        ]
        .to_string()
    }
}

/// Bounded event ring. When full, recording overwrites the oldest entry —
/// the newest `capacity` events are always available.
pub struct TraceRing {
    buf: Vec<Event>,
    cap: usize,
    /// Next write position; `total` counts all events ever recorded.
    head: usize,
    total: u64,
}

impl TraceRing {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring needs nonzero capacity");
        TraceRing {
            buf: Vec::with_capacity(capacity),
            cap: capacity,
            head: 0,
            total: 0,
        }
    }

    pub fn record(&mut self, ev: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
        }
        self.head = (self.head + 1) % self.cap;
        self.total += 1;
    }

    /// Events ever recorded (including ones overwritten since).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        if self.buf.len() < self.cap {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.cap);
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
            out
        }
    }

    /// The newest `n` retained events, oldest first.
    pub fn last(&self, n: usize) -> Vec<Event> {
        let all = self.events();
        let skip = all.len().saturating_sub(n);
        all[skip..].to_vec()
    }
}

/// Shared observability handle for one mounted stack (disk + driver +
/// cache + file system). Clone the `Arc` into each layer.
///
/// Span state (the currently open op span and its attribution
/// accumulators) is **per thread**: each workload thread opens and
/// closes its own spans independently, so causal attribution stays
/// correct when several clients drive one stack concurrently. Span ids
/// still come from one shared counter, so a single-threaded run sees
/// the same deterministic ids (1, 2, ...) as before.
pub struct Obs {
    /// Process-unique id tagging this handle's entry in each context's
    /// [`TLS`] table (an id, not a pointer, so a freed `Obs` can never
    /// alias a new one's state, even through an entry it left behind in
    /// another thread's table).
    uid: u64,
    counters: Counters,
    histos: Histos,
    trace: Mutex<TraceRing>,
    /// High-water mirror of the simulated clock across *all* threads,
    /// updated whenever any driver clock moves. Threads that have
    /// advanced their own clock read their thread-local mirror instead
    /// (see [`Obs::clock_ns`]).
    clock_ns: AtomicU64,
    /// Next span id to allocate (span ids start at 1; 0 means "none").
    next_span: AtomicU64,
    /// Optional unbounded log of every closed span (plus unattributed
    /// disk requests), for full-run folds that outlive the trace ring.
    /// Unset until [`Obs::enable_span_log`], so a span closing with no
    /// log takes no lock.
    span_log: OnceLock<Mutex<Vec<SpanRecord>>>,
    /// Health-signal EWMAs (see [`Sig`]).
    signals: Mutex<[SignalState; Sig::COUNT]>,
    /// Per-cylinder-group live registers (occupancy gauge, I/O tallies,
    /// group-fetch-utilization EWMA), configured once at mount by
    /// [`Obs::configure_cg_table`]. Unset for stacks without cylinder
    /// groups (bare disks).
    cg_table: OnceLock<CgTable>,
    /// Threads currently waiting for the disk lock in the driver (gauge:
    /// incremented before the lock is taken, decremented once it is held).
    queue_depth: AtomicU64,
    /// Ops completed per bound thread slot (outermost span closes). Slot
    /// 0 is the main thread; multi-client contexts bind 1.. via
    /// [`Obs::bind_thread_slot`].
    thread_ops: [AtomicU64; THREAD_SLOTS],
    /// Earliest simulated instant an armed sampler (a `Sim`-cadence feed
    /// tap, a flight recorder) wants a frame; `u64::MAX` keeps the
    /// [`Obs::set_clock_ns`] hot path to one relaxed load when nothing is
    /// armed.
    due_ns: AtomicU64,
    /// The samplers armed on the pacer, with their boundaries.
    samplers: Mutex<Vec<Armed>>,
}

/// A frame producer the simulated-clock pacer in [`Obs::set_clock_ns`]
/// drives: a `Sim`-cadence feed tap or a flight recorder.
pub(crate) trait Sampler: Send + Sync {
    /// Cut one frame at simulated time `now_ns`.
    fn sample(&self, now_ns: u64);
}

/// One sampler armed on an [`Obs`]'s pacer (weak: the sampler holds the
/// `Arc<Obs>`, so a strong ref here would leak both).
struct Armed {
    sampler: Weak<dyn Sampler>,
    interval_ns: u64,
    /// The next interval boundary this sampler cuts at.
    due_ns: u64,
}

/// The pacer's next boundary: the earliest armed one, `u64::MAX` for none.
fn earliest_due(armed: &[Armed]) -> u64 {
    armed.iter().map(|a| a.due_ns).min().unwrap_or(u64::MAX)
}

/// Write `content` to `path` atomically: into a staging file
/// `<path>.<pid>.<seq>.tmp`, then renamed over `path`, so no reader or
/// crash sees a half-written file. The staging name is unique per call,
/// so concurrent writers of one path each rename only bytes they wrote
/// completely and the file is always one writer's intact content.
pub fn write_atomic(path: &std::path::Path, content: &[u8]) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.{seq}.tmp", std::process::id()));
    std::fs::write(&tmp, content)?;
    std::fs::rename(&tmp, path)
}

/// Fixed number of per-thread op-counter slots (slot 0 = main thread,
/// 1.. = client contexts; binds past the last slot clamp onto it).
pub const THREAD_SLOTS: usize = 16;

/// Source of [`Obs::uid`] values.
static OBS_UID: AtomicU64 = AtomicU64::new(1);

/// Per-thread span state for one `Obs`: the open span, its op kind, and
/// the attribution accumulators the span guard folds on close.
#[derive(Debug, Clone, Copy, Default)]
struct SpanTls {
    cur_span: u64,
    cur_op: usize,
    q: u64,
    svc: u64,
    last_end: u64,
}

/// Everything one context keeps for one `Obs`: an entry of its [`TLS`]
/// table, tagged with the handle's [`Obs::uid`].
#[derive(Debug, Clone, Copy, Default)]
struct ThreadTls {
    uid: u64,
    span: SpanTls,
    /// Simulated-clock mirror — each thread, or each client context
    /// swapped onto one ([`swap_thread_state`]), runs its own virtual
    /// timeline. `None` until the context moves or pins the clock.
    clock: Option<u64>,
    /// Bound thread-op slot (0 until [`Obs::bind_thread_slot`]).
    slot: usize,
}

thread_local! {
    /// The calling context's state, one [`ThreadTls`] per `Obs` it has
    /// touched. A context touches a few handles (a stack's; a volume
    /// set's and one per volume), so this is a short vector searched
    /// newest entry first: a visit is a few uid compares, no hashing.
    /// A dropped `Obs` removes its entry from the dropping thread's
    /// table; entries it left in other threads' tables, or in
    /// swapped-out [`ThreadState`]s, never match again and go with them.
    static TLS: RefCell<Vec<ThreadTls>> = const { RefCell::new(Vec::new()) };
}

/// One client context's thread-local state for every `Obs`: clock
/// mirrors, op slots and span state, the whole [`TLS`] table. `Default`
/// is a fresh thread's.
#[derive(Debug, Default)]
pub struct ThreadState(Vec<ThreadTls>);

/// Swap the calling thread's state for every `Obs` with `state`, so one
/// host thread can run several clients, each in its own context. Panics
/// if the outgoing state has an open span.
pub fn swap_thread_state(state: &mut ThreadState) {
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        assert!(t.iter().all(|s| s.span.cur_span == 0), "swap_thread_state with an open span");
        std::mem::swap(&mut *t, &mut state.0);
    });
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs").finish_non_exhaustive()
    }
}

impl Drop for Obs {
    /// Take this handle's entry out of the dropping thread's table, so a
    /// thread that makes and drops handles keeps a table no longer than
    /// its live ones. A no-op during the thread's own teardown.
    fn drop(&mut self) {
        let _ = TLS.try_with(|t| {
            if let Ok(mut t) = t.try_borrow_mut() {
                if let Some(i) = t.iter().rposition(|e| e.uid == self.uid) {
                    t.remove(i);
                }
            }
        });
    }
}

/// Default trace-ring capacity (events retained).
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// The p99 latency objectives every stack is held to, simulated
/// nanoseconds, in [`OpKind::ALL`] order. Deliberately lenient for a
/// seek-bound simulated disk: a healthy run burns 0; a collapsed cache or
/// a starved regrouper shows up as burn long before it shows up as a
/// failed bench gate. Burn is computed lazily from the op's log2 latency
/// histogram, so the objectives cost the hot path nothing.
pub const SLO_P99_NS: &[(OpKind, u64)] = &[
    (OpKind::Lookup, 50_000_000),
    (OpKind::Getattr, 20_000_000),
    (OpKind::Create, 100_000_000),
    (OpKind::Unlink, 100_000_000),
    (OpKind::Read, 100_000_000),
    (OpKind::Write, 100_000_000),
];

impl Obs {
    pub fn new() -> Arc<Obs> {
        Obs::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    pub fn with_trace_capacity(capacity: usize) -> Arc<Obs> {
        Arc::new(Obs {
            uid: OBS_UID.fetch_add(1, Ordering::Relaxed),
            counters: Counters::new(),
            histos: Histos::new(),
            trace: Mutex::new(TraceRing::new(capacity)),
            clock_ns: AtomicU64::new(0),
            next_span: AtomicU64::new(1),
            span_log: OnceLock::new(),
            signals: Mutex::new(std::array::from_fn(|_| SignalState::default())),
            cg_table: OnceLock::new(),
            queue_depth: AtomicU64::new(0),
            thread_ops: std::array::from_fn(|_| AtomicU64::new(0)),
            due_ns: AtomicU64::new(u64::MAX),
            samplers: Mutex::new(Vec::new()),
        })
    }

    /// Run `f` on this handle's entry in the calling context's table,
    /// adding a fresh entry on the context's first touch.
    #[inline]
    fn with_tls<R>(&self, f: impl FnOnce(&mut ThreadTls) -> R) -> R {
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            let i = match t.iter().rposition(|e| e.uid == self.uid) {
                Some(i) => i,
                None => {
                    t.push(ThreadTls { uid: self.uid, ..ThreadTls::default() });
                    t.len() - 1
                }
            };
            f(&mut t[i])
        })
    }

    /// Append `rec` to the span log, if one is enabled.
    fn log_span(&self, rec: SpanRecord) {
        if let Some(log) = self.span_log.get() {
            log.lock().expect("span log poisoned").push(rec);
        }
    }

    #[inline]
    pub fn bump(&self, c: Ctr) {
        self.counters.bump(c);
    }

    #[inline]
    pub fn add(&self, c: Ctr, n: u64) {
        self.counters.add(c, n);
    }

    pub fn get(&self, c: Ctr) -> u64 {
        self.counters.get(c)
    }

    /// Record a trace event at simulated time `t_ns`. The event is
    /// stamped with the currently open op span (if any).
    pub fn trace(&self, t_ns: u64, tag: &'static str, a: u64, b: u64) {
        self.trace_io(t_ns, tag, a, b, 0);
    }

    /// Like [`Obs::trace`], with an explicit duration (e.g. the service
    /// time of a disk request).
    pub fn trace_io(&self, t_ns: u64, tag: &'static str, a: u64, b: u64, dur_ns: u64) {
        let (span, op) = self.current_span().map_or((0, ""), |(SpanId(id), op)| (id, op.name()));
        if dur_ns > 0 && tag.starts_with("disk.") {
            self.attribute_disk_request(span != 0, t_ns, dur_ns);
        }
        // Per-CG I/O tallies ride the existing disk trace points:
        // `a` is the request's sector LBA, `b` its sector count.
        if let Some(t) = self.cg_table.get() {
            if tag == "disk.read" || tag == "disk.write" {
                t.bump_io(a, b, tag == "disk.write");
            }
        }
        self.trace
            .lock()
            .expect("trace ring poisoned")
            .record(Event { t_ns, tag, a, b, span, op, dur_ns });
    }

    /// Fold one serviced disk request into the attribution accounts.
    /// In-span requests split into queue (gap since the later of span
    /// open / previous request end) and service (the request's own
    /// duration); requests outside any span count as pure service.
    fn attribute_disk_request(&self, in_span: bool, t_ns: u64, dur_ns: u64) {
        if in_span {
            self.with_tls(|ThreadTls { span: t, .. }| {
                let gap = t_ns.saturating_sub(t.last_end);
                t.q += gap;
                t.svc += dur_ns;
                t.last_end = t.last_end.max(t_ns.saturating_add(dur_ns));
            });
        } else {
            self.counters.add(Ctr::AttrServiceNs, dur_ns);
            self.log_span(SpanRecord {
                op: None,
                t0_ns: t_ns,
                dur_ns,
                queue_ns: 0,
                service_ns: dur_ns,
                truncated: false,
            });
        }
    }

    /// Start collecting a full-run span log: from now on every closed
    /// span (and every unattributed disk request) appends a
    /// [`SpanRecord`]. Unbounded — meant for bounded benchmark runs, not
    /// long-lived mounts.
    pub fn enable_span_log(&self) {
        self.span_log.get_or_init(|| Mutex::new(Vec::new()));
    }

    /// Copy of the span log collected so far (None when never enabled).
    pub fn span_log(&self) -> Option<Vec<SpanRecord>> {
        self.span_log.get().map(|log| log.lock().expect("span log poisoned").clone())
    }

    /// Fold one raw sample into a signal's EWMA (`ewma += (v - ewma)/8`
    /// in fixed-point milli-units, step rounded away from zero so the
    /// EWMA converges *exactly* onto a constant sample stream; the first
    /// sample seeds the EWMA directly). An armed floor is checked on
    /// every sample: falling below it bumps `signal_low_events` and drops
    /// a `signal.<name>.low` event in the trace ring, climbing back past
    /// the rearm point bumps `signal_high_events` and drops its recovery
    /// tag (operands: EWMA and floor in milli-units).
    pub fn signal_sample(&self, sig: Sig, v: f64) {
        let crossing = {
            let mut sigs = self.signals.lock().expect("signals poisoned");
            let s = &mut sigs[sig as usize];
            let vm = (v * 1000.0).round() as i64;
            if s.samples == 0 {
                s.ewma_milli = vm;
            } else {
                // Truncating division would park the EWMA as soon as
                // |v - ewma| < 8 milli-units — a signal sitting just
                // under its floor could then never cross or re-arm.
                // Rounding the step away from zero guarantees progress
                // all the way to exact convergence.
                s.ewma_milli += ewma_step(vm - s.ewma_milli);
            }
            s.samples += 1;
            let ewma = s.ewma();
            match s.floor {
                Some(floor) if !s.low && ewma < floor => {
                    s.low = true;
                    s.low_count += 1;
                    Some((sig.low_tag(), ewma, floor, Ctr::SignalLowEvents))
                }
                Some(floor) if s.low && ewma >= floor * SIGNAL_REARM => {
                    s.low = false;
                    s.high_count += 1;
                    Some((sig.recovered_tag(), ewma, floor, Ctr::SignalHighEvents))
                }
                _ => None,
            }
        };
        // Trace outside the signals lock (trace_io takes the ring lock).
        if let Some((tag, ewma, floor, ctr)) = crossing {
            self.counters.bump(ctr);
            self.trace(self.clock_ns(), tag, milli(ewma), milli(floor));
        }
    }

    /// Smoothed view of one signal.
    pub fn signal(&self, sig: Sig) -> SignalView {
        let s = self.signals.lock().expect("signals poisoned")[sig as usize];
        SignalView { ewma: s.ewma(), samples: s.samples, low: s.low }
    }

    /// Arm a floor on a signal: once the EWMA drops below it, the signal
    /// reports `low` (with a trace event) until it climbs back above
    /// `floor * 1.02`.
    pub fn set_signal_floor(&self, sig: Sig, floor: f64) {
        self.signals.lock().expect("signals poisoned")[sig as usize].floor = Some(floor);
    }

    /// JSON view of every signal — EWMAs as milli-unit integers so the
    /// rendering is deterministic across platforms. Carries the armed
    /// floor (`floor_milli`, `null` when unarmed) and the cumulative
    /// crossing counts alongside the live state, so `cffs-inspect stats`
    /// and telemetry feed frames share one schema.
    pub fn signals_json(&self) -> Json {
        let sigs = self.signals.lock().expect("signals poisoned");
        Json::Obj(
            Sig::ALL
                .iter()
                .map(|&sig| {
                    let s = &sigs[sig as usize];
                    let floor = s.floor.map_or(Json::Null, |f| Json::Int(milli(f) as i64));
                    (
                        sig.name().to_string(),
                        obj![
                            ("ewma_milli", Json::Int(s.ewma_milli.max(0))),
                            ("samples", Json::Int(s.samples as i64)),
                            ("low", Json::Bool(s.low)),
                            ("floor_milli", floor),
                            ("low_count", Json::Int(s.low_count as i64)),
                            ("high_count", Json::Int(s.high_count as i64)),
                        ],
                    )
                })
                .collect(),
        )
    }

    /// `(samples, violations)` of one op's latency histogram against a
    /// p99 target. A violation is a sample in a bucket whose *lower*
    /// bound already exceeds the target, so log2 rounding never charges
    /// a false positive.
    fn slo_tally(&self, op: OpKind, target_ns: u64) -> (u64, u64) {
        let snap = self.histos.op_ns(op).snapshot();
        let violations = snap
            .buckets
            .iter()
            .enumerate()
            .filter(|&(i, _)| histo_bucket_lo(i) > target_ns)
            .map(|(_, &n)| n)
            .sum();
        (snap.count(), violations)
    }

    /// Error-budget burn for one op of [`SLO_P99_NS`], milli-units: the
    /// observed fraction of ops slower than its p99 target, scaled so
    /// 1000 means "exactly at budget" (1% of ops over target). 0 for an
    /// op without an objective, with no samples, or within budget
    /// bucket-conservatively (see [`Obs::slo_tally`]).
    pub fn slo_op_burn_milli(&self, op: OpKind) -> u64 {
        let Some(&(_, target)) = SLO_P99_NS.iter().find(|&&(o, _)| o == op) else { return 0 };
        let (count, violations) = self.slo_tally(op, target);
        burn_milli(count, violations)
    }

    /// Worst [`Obs::slo_op_burn_milli`] across [`SLO_P99_NS`] (the feed's
    /// `slo_burn_milli` field).
    pub fn slo_burn_milli(&self) -> u64 {
        SLO_P99_NS.iter().map(|&(op, _)| self.slo_op_burn_milli(op)).max().unwrap_or(0)
    }

    /// The objectives as JSON: one row per [`SLO_P99_NS`] op with its
    /// target, sample count, violation count, and burn.
    pub fn slo_json(&self) -> Json {
        Json::Obj(
            SLO_P99_NS
                .iter()
                .map(|&(op, target)| {
                    let (count, violations) = self.slo_tally(op, target);
                    (
                        op.name().to_string(),
                        obj![
                            ("target_ns", Json::Int(target as i64)),
                            ("count", Json::Int(count as i64)),
                            ("violations", Json::Int(violations as i64)),
                            ("burn_milli", Json::Int(burn_milli(count, violations) as i64)),
                        ],
                    )
                })
                .collect(),
        )
    }

    /// The histogram registry.
    pub fn histos(&self) -> &Histos {
        &self.histos
    }

    /// Mirror a driver's simulated clock (monotonic; called by the
    /// driver whenever its clock moves). The calling thread's local
    /// mirror takes the exact value; the shared mirror keeps the
    /// high-water mark across all threads.
    #[inline]
    pub fn set_clock_ns(&self, now_ns: u64) {
        self.pin_clock_ns(now_ns);
        self.publish_clock_ns(now_ns);
    }

    /// Move the calling context's clock `d_ns` past where it reads now
    /// ([`Obs::clock_ns`]) and publish it as [`Obs::set_clock_ns`] does,
    /// in one visit to the context's table.
    #[inline]
    pub fn advance_clock_ns(&self, d_ns: u64) {
        let now_ns = self.with_tls(|t| {
            let now = t.clock.unwrap_or_else(|| self.global_clock_ns()) + d_ns;
            t.clock = Some(now);
            now
        });
        self.publish_clock_ns(now_ns);
    }

    /// Raise the shared high-water mark to `now_ns` and cut any frame an
    /// armed sampler has due.
    #[inline]
    fn publish_clock_ns(&self, now_ns: u64) {
        self.clock_ns.fetch_max(now_ns, Ordering::Relaxed);
        // Sampling pacer: one relaxed load while nothing is armed. No call
        // site holds an obs lock (checked against the driver's submit and
        // advance paths), so cutting a frame may take the registry locks.
        if now_ns >= self.due_ns.load(Ordering::Relaxed) {
            self.sim_fire(now_ns);
        }
    }

    /// Arm `sampler` on the pacer: it cuts a frame each time the
    /// simulated clock crosses a multiple of `interval_ns`.
    pub(crate) fn arm_sampler<S: Sampler + 'static>(&self, sampler: &Arc<S>, interval_ns: u64) {
        let interval_ns = interval_ns.max(1);
        let due_ns = (self.global_clock_ns() / interval_ns + 1) * interval_ns;
        let sampler: Weak<S> = Arc::downgrade(sampler);
        let mut armed = self.samplers();
        armed.push(Armed { sampler, interval_ns, due_ns });
        self.due_ns.fetch_min(due_ns, Ordering::Relaxed);
    }

    /// Take `sampler` off the pacer (no-op when it was never armed).
    pub(crate) fn disarm_sampler<S: Sampler>(&self, sampler: &Arc<S>) {
        let mut armed = self.samplers();
        armed.retain(|a| !std::ptr::addr_eq(a.sampler.as_ptr(), Arc::as_ptr(sampler)));
        self.due_ns.store(earliest_due(&armed), Ordering::Relaxed);
    }

    /// The pacer's slow path, entered once the clock reaches `due_ns`:
    /// cut a frame on every sampler whose boundary `now_ns` crossed, then
    /// rearm on the earliest next boundary. The list lock serializes
    /// concurrent clock movers, so each crossing cuts exactly one frame.
    #[cold]
    fn sim_fire(&self, now_ns: u64) {
        let mut armed = self.samplers();
        armed.retain(|a| a.sampler.strong_count() > 0);
        for a in armed.iter_mut().filter(|a| now_ns >= a.due_ns) {
            a.due_ns = (now_ns / a.interval_ns + 1) * a.interval_ns;
            if let Some(s) = a.sampler.upgrade() {
                s.sample(now_ns);
            }
        }
        self.due_ns.store(earliest_due(&armed), Ordering::Relaxed);
    }

    /// The armed-sampler list, recovering a poisoned lock: a guard
    /// detaching while a panic unwinds must not panic again.
    fn samplers(&self) -> MutexGuard<'_, Vec<Armed>> {
        self.samplers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pin the calling thread's clock mirror to at least `ns` without
    /// touching the shared high-water mark. The multi-client driver calls
    /// this in each client's fresh context, passing the fork-time
    /// watermark, so every client starts at the same simulated instant:
    /// without the pin, a client with no mirror yet reads the global
    /// mirror — which its siblings may already have pushed forward — and
    /// the virtual timelines chain one after another instead of
    /// overlapping. (The driver then orders its clients' steps by this
    /// clock; a volume set pins each volume's clock per op the same way.)
    #[inline]
    pub fn pin_clock_ns(&self, ns: u64) {
        self.with_tls(|t| t.clock = t.clock.max(Some(ns)));
    }

    /// The calling thread's simulated time, nanoseconds: its own clock
    /// mirror when it has one, else the cross-thread high-water mark.
    pub fn clock_ns(&self) -> u64 {
        self.with_tls(|t| t.clock).unwrap_or_else(|| self.global_clock_ns())
    }

    /// Cross-thread high-water mark of the simulated clock — the elapsed
    /// time of a multi-threaded run (every thread's work fits before it).
    pub fn global_clock_ns(&self) -> u64 {
        self.clock_ns.load(Ordering::Relaxed)
    }

    /// The op span currently open **on the calling thread**, if any.
    pub fn current_span(&self) -> Option<(SpanId, OpKind)> {
        self.with_tls(|ThreadTls { span: t, .. }| {
            if t.cur_span == 0 {
                None
            } else {
                Some((SpanId(t.cur_span), OpKind::ALL[t.cur_op]))
            }
        })
    }

    /// Open a causal span for one file-system operation. Returns a guard
    /// that closes the span (recording an `op.*` trace event and the op's
    /// latency histogram sample) when dropped.
    ///
    /// Spans do not nest: if a span is already open **on this thread**
    /// (an entry point called another entry point, e.g. `drop_caches` →
    /// `sync`), the inner guard is inert and all I/O stays attributed to
    /// the outermost — user-visible — operation. Guards must be dropped
    /// on the thread that opened them.
    pub fn span(&self, op: OpKind) -> SpanGuard<'_> {
        let opened = self.with_tls(|t| {
            if t.span.cur_span != 0 {
                return None;
            }
            let t0 = t.clock.unwrap_or_else(|| self.global_clock_ns());
            let id = self.next_span.fetch_add(1, Ordering::Relaxed);
            t.span = SpanTls {
                cur_span: id,
                cur_op: op as usize,
                q: 0,
                svc: 0,
                last_end: t0,
            };
            Some((SpanId(id), t0))
        });
        SpanGuard { obs: self, op, opened }
    }

    /// Lock `m`, charging host-time wait on contention to counter `ctr`.
    /// The uncontended path is a plain `try_lock` and charges nothing, so
    /// single-threaded runs deterministically report zero lock wait.
    pub fn lock_timed<'a, T>(
        &self,
        m: &'a Mutex<T>,
        ctr: Ctr,
    ) -> std::sync::MutexGuard<'a, T> {
        if let Ok(g) = m.try_lock() {
            return g;
        }
        let t0 = std::time::Instant::now();
        let g = m.lock().expect("lock poisoned");
        self.counters.add(ctr, t0.elapsed().as_nanos() as u64);
        g
    }

    /// The newest `n` trace events, oldest first.
    pub fn recent_events(&self, n: usize) -> Vec<Event> {
        self.trace.lock().expect("trace ring poisoned").last(n)
    }

    /// Events ever recorded (monotonic; exceeds retained count on wrap).
    pub fn events_recorded(&self) -> u64 {
        self.trace
            .lock()
            .expect("trace ring poisoned")
            .total_recorded()
    }

    /// Trace events recorded after the first `since_total` (a watermark
    /// from a previous [`Obs::events_recorded`]), oldest first, clipped
    /// to what the ring still retains. Returns the events plus the new
    /// watermark.
    pub fn events_since(&self, since_total: u64) -> (Vec<Event>, u64) {
        let ring = self.trace.lock().expect("trace ring poisoned");
        let total = ring.total_recorded();
        let fresh = total.saturating_sub(since_total).min(ring.buf.len() as u64);
        (ring.last(fresh as usize), total)
    }

    /// Install the per-cylinder-group register table. Called once at
    /// mount with the stack's geometry and each group's initial
    /// occupancy; later calls are ignored (first mount wins — one `Obs`
    /// serves one mounted stack).
    pub fn configure_cg_table(&self, cfg: CgTableConfig) {
        let _ = self.cg_table.set(CgTable::new(cfg));
    }

    /// Adjust one group's allocated-block gauge (called from the
    /// allocator's bitmap set/clear sites; negative on free).
    pub fn cg_used_delta(&self, cg: usize, delta: i64) {
        if let Some(t) = self.cg_table.get() {
            if let Some(cell) = t.cells.get(cg) {
                cell.used.fetch_add(delta, Ordering::Relaxed);
            }
        }
    }

    /// Fold one group fetch's utilization percentage into the owning
    /// group's EWMA (same fixed-point rule as [`Obs::signal_sample`]).
    pub fn cg_util_sample(&self, cg: usize, pct: u64) {
        if let Some(t) = self.cg_table.get() {
            if let Some(cell) = t.cells.get(cg) {
                let mut u = cell.util.lock().expect("cg util poisoned");
                let vm = (pct * 1000) as i64;
                if u.1 == 0 {
                    u.0 = vm;
                } else {
                    u.0 += ewma_step(vm - u.0);
                }
                u.1 += 1;
            }
        }
    }

    /// The cylinder group a sector LBA falls in, per the configured
    /// geometry (None before mount or outside any group's blocks).
    pub fn cg_of_sector(&self, lba: u64) -> Option<usize> {
        self.cg_table.get().and_then(|t| t.cg_of_sector(lba))
    }

    /// Point-in-time copy of every cylinder group's registers (empty
    /// before [`Obs::configure_cg_table`]).
    pub fn cg_stats(&self) -> Vec<CgStat> {
        let Some(t) = self.cg_table.get() else { return Vec::new() };
        t.cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let (ewma_milli, samples) = *c.util.lock().expect("cg util poisoned");
                CgStat {
                    cg: i as u32,
                    data_blocks: c.data_blocks,
                    used: c.used.load(Ordering::Relaxed).max(0) as u64,
                    read_ios: c.read_ios.load(Ordering::Relaxed),
                    write_ios: c.write_ios.load(Ordering::Relaxed),
                    read_sectors: c.read_sectors.load(Ordering::Relaxed),
                    write_sectors: c.write_sectors.load(Ordering::Relaxed),
                    util_ewma_milli: ewma_milli.max(0) as u64,
                    util_samples: samples,
                }
            })
            .collect()
    }

    /// Driver queue gauge: one thread started waiting for the disk.
    pub fn queue_depth_inc(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// Driver queue gauge: one waiting thread took the disk lock.
    pub fn queue_depth_dec(&self) {
        let _ = self.queue_depth.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(1))
        });
    }

    /// Threads currently waiting for the disk lock in the driver.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Bind the calling thread to a per-thread op-counter slot (clamped
    /// to [`THREAD_SLOTS`]). Client contexts call this next to
    /// [`Obs::pin_clock_ns`]; unbound threads (the main thread) tally
    /// into slot 0.
    pub fn bind_thread_slot(&self, slot: usize) {
        self.with_tls(|t| t.slot = slot.min(THREAD_SLOTS - 1));
    }

    /// Ops completed per thread slot (outermost span closes), slot 0
    /// first.
    pub fn thread_ops(&self) -> [u64; THREAD_SLOTS] {
        std::array::from_fn(|i| self.thread_ops[i].load(Ordering::Relaxed))
    }

    /// Point-in-time copy of every counter and histogram plus simulated
    /// time.
    pub fn snapshot(&self, label: &str, sim_ns: u64) -> StatsSnapshot {
        let vals = self.counters.values();
        StatsSnapshot {
            label: label.to_string(),
            sim_ns,
            counters: Ctr::ALL
                .iter()
                .map(|&c| (c.name().to_string(), vals[c as usize]))
                .collect(),
            histograms: self
                .histos
                .named()
                .into_iter()
                .map(|(n, h)| (n, h.snapshot()))
                .collect(),
        }
    }
}

/// Id of one causal op span. Allocated per-[`Obs`] starting at 1 (0 means
/// "no span"), so ids are deterministic across runs of a deterministic
/// workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

/// Guard returned by [`Obs::span`]. Dropping it closes the span: the op's
/// simulated latency (clock delta since open) is recorded into its
/// `op_ns_*` histogram and an `op.*` trace event is emitted carrying the
/// span id and latency. Inert when the span was nested (see
/// [`Obs::span`]).
pub struct SpanGuard<'a> {
    obs: &'a Obs,
    op: OpKind,
    /// `(id, open-time ns)` when this guard actually opened a span.
    opened: Option<(SpanId, u64)>,
}

impl SpanGuard<'_> {
    /// The span id, when this guard opened one (None when nested).
    pub fn id(&self) -> Option<SpanId> {
        self.opened.map(|(id, _)| id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((SpanId(id), t0)) = self.opened {
            // One visit to the thread's entry: read the clock, the
            // attribution accounts and the op slot, and close the span.
            let (clock, q, svc, slot) = self.obs.with_tls(|t| {
                debug_assert_eq!(t.span.cur_span, id, "span closed on a foreign thread");
                let out = (t.clock, t.span.q, t.span.svc, t.slot);
                t.span = SpanTls::default();
                out
            });
            let now = clock.unwrap_or_else(|| self.obs.global_clock_ns());
            let latency = now.saturating_sub(t0);
            self.obs.histos.op_ns(self.op).record(latency);
            // Close the attribution accounts: whatever span time was not
            // queueing or disk service is in-memory op work. Queue gaps
            // can be computed against a clock that ran past the span's
            // close (nested sync paths), so the residue saturates at 0 —
            // the documented `op_ns >= queue_ns + service_ns` caveat.
            self.obs.counters.add(Ctr::AttrQueueNs, q);
            self.obs.counters.add(Ctr::AttrServiceNs, svc);
            self.obs
                .counters
                .add(Ctr::AttrOpNs, latency.saturating_sub(q.saturating_add(svc)));
            self.obs.log_span(SpanRecord {
                op: Some(self.op),
                t0_ns: t0,
                dur_ns: latency,
                queue_ns: q,
                service_ns: svc,
                truncated: false,
            });
            // The span's own event, stamped with its span and op.
            self.obs.trace.lock().expect("trace ring poisoned").record(Event {
                t_ns: t0,
                tag: self.op.tag(),
                a: 0,
                b: 0,
                span: id,
                op: self.op.name(),
                dur_ns: latency,
            });
            // Outermost closes only, so per-thread tallies count
            // user-visible ops, not nested entry points.
            self.obs.thread_ops[slot].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One closed span — or one disk request that ran outside any span —
/// as collected by the full-run span log ([`Obs::enable_span_log`]) or
/// reconstructed from the trace ring ([`prof::spans_from_events`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Causing op, or `None` for disk activity outside any span (mount,
    /// background writeback).
    pub op: Option<OpKind>,
    /// Simulated time the span opened.
    pub t0_ns: u64,
    /// Total span latency (equals `service_ns` for unattributed
    /// requests).
    pub dur_ns: u64,
    /// Time this span's disk requests waited behind earlier requests.
    pub queue_ns: u64,
    /// Mechanical service time of this span's disk requests.
    pub service_ns: u64,
    /// True when ring wrap overwrote part of this span's history, so
    /// `queue_ns`/`service_ns` (and for still-open spans `dur_ns`) are
    /// lower bounds. Never set by the live span log.
    pub truncated: bool,
}

macro_rules! signals {
    ($($(#[$doc:meta])* $variant:ident => $name:literal / $low:literal / $recovered:literal,)+) => {
        /// Health signals tracked as windowed EWMAs on [`Obs`]. Layers
        /// feed raw samples via [`Obs::signal_sample`]; policy code reads
        /// the smoothed view via [`Obs::signal`] and arms floors whose
        /// crossings land in the trace ring.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Sig {
            $($(#[$doc])* $variant,)+
        }

        impl Sig {
            /// Number of registered signals.
            pub const COUNT: usize = [$($name),+].len();

            /// All signals, in registry order.
            pub const ALL: [Sig; Self::COUNT] = [$(Sig::$variant),+];

            /// Stable external name.
            pub fn name(self) -> &'static str {
                match self { $(Sig::$variant => $name,)+ }
            }

            /// Trace tag emitted when the EWMA falls below the floor.
            pub fn low_tag(self) -> &'static str {
                match self { $(Sig::$variant => $low,)+ }
            }

            /// Trace tag emitted when the EWMA climbs back above the
            /// rearm point (floor × 1.02).
            pub fn recovered_tag(self) -> &'static str {
                match self { $(Sig::$variant => $recovered,)+ }
            }
        }
    };
}

signals! {
    /// EWMA of per-fetch `group_fetch_util_pct` samples (percent).
    GroupFetchUtil => "group_fetch_util_ewma"
        / "signal.group_fetch_util.low"
        / "signal.group_fetch_util.recovered",
    /// EWMA of logical requests per driver batch (queue depth at submit).
    QueueDepth => "driver_queue_depth_ewma"
        / "signal.queue_depth.low"
        / "signal.queue_depth.recovered",
    /// EWMA of dirty blocks collected per sync sweep (writeback backlog).
    DirtyBacklog => "cache_dirty_backlog_ewma"
        / "signal.dirty_backlog.low"
        / "signal.dirty_backlog.recovered",
}

/// EWMA smoothing divisor: `ewma += (sample - ewma) / 8`, computed in
/// fixed-point milli-units with the step rounded away from zero so a
/// constant sample stream converges exactly (integer truncation would
/// stall the EWMA once the gap fell under 8 milli-units).
const SIGNAL_EWMA_SHIFT: i64 = 8;

/// The fixed-point EWMA increment for a gap `d = sample - ewma`, rounded
/// away from zero (see [`SIGNAL_EWMA_SHIFT`]). Shared by the signal
/// registry and the per-CG utilization EWMAs so both smooth identically.
fn ewma_step(d: i64) -> i64 {
    if d >= 0 {
        (d + SIGNAL_EWMA_SHIFT - 1) / SIGNAL_EWMA_SHIFT
    } else {
        -((-d + SIGNAL_EWMA_SHIFT - 1) / SIGNAL_EWMA_SHIFT)
    }
}

/// Mount-time geometry + initial occupancy for the per-CG register table
/// (see [`Obs::configure_cg_table`]).
#[derive(Debug, Clone)]
pub struct CgTableConfig {
    /// First block covered by cylinder group 0.
    pub first_block: u64,
    /// Blocks per cylinder group (header + data).
    pub cg_size: u64,
    /// Sectors per block, for mapping trace-event LBAs onto groups.
    pub sectors_per_block: u64,
    /// Per-group `(data block capacity, blocks already allocated)`.
    pub groups: Vec<(u64, u64)>,
}

/// One cylinder group's live registers.
struct CgCell {
    data_blocks: u64,
    /// Allocated data blocks. Signed: concurrent alloc/free deltas can
    /// transiently observe below zero; reads clamp.
    used: AtomicI64,
    read_ios: AtomicU64,
    write_ios: AtomicU64,
    read_sectors: AtomicU64,
    write_sectors: AtomicU64,
    /// `(ewma_milli, samples)` of group-fetch utilization resolved
    /// against extents in this group. A mutex (not two atomics) so the
    /// read-modify-write EWMA fold never loses concurrent samples; the
    /// resolve path is warm, not hot.
    util: Mutex<(i64, u64)>,
}

/// Geometry-indexed table of [`CgCell`]s.
struct CgTable {
    first_block: u64,
    cg_size: u64,
    sectors_per_block: u64,
    cells: Vec<CgCell>,
}

impl CgTable {
    fn new(cfg: CgTableConfig) -> CgTable {
        CgTable {
            first_block: cfg.first_block,
            cg_size: cfg.cg_size.max(1),
            sectors_per_block: cfg.sectors_per_block.max(1),
            cells: cfg
                .groups
                .into_iter()
                .map(|(data_blocks, used)| CgCell {
                    data_blocks,
                    used: AtomicI64::new(used as i64),
                    read_ios: AtomicU64::new(0),
                    write_ios: AtomicU64::new(0),
                    read_sectors: AtomicU64::new(0),
                    write_sectors: AtomicU64::new(0),
                    util: Mutex::new((0, 0)),
                })
                .collect(),
        }
    }

    fn cg_of_sector(&self, lba: u64) -> Option<usize> {
        let block = lba / self.sectors_per_block;
        if block < self.first_block {
            return None;
        }
        let cg = ((block - self.first_block) / self.cg_size) as usize;
        (cg < self.cells.len()).then_some(cg)
    }

    fn bump_io(&self, lba: u64, sectors: u64, is_write: bool) {
        if let Some(cg) = self.cg_of_sector(lba) {
            let c = &self.cells[cg];
            if is_write {
                c.write_ios.fetch_add(1, Ordering::Relaxed);
                c.write_sectors.fetch_add(sectors, Ordering::Relaxed);
            } else {
                c.read_ios.fetch_add(1, Ordering::Relaxed);
                c.read_sectors.fetch_add(sectors, Ordering::Relaxed);
            }
        }
    }
}

/// Point-in-time copy of one cylinder group's registers (see
/// [`Obs::cg_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CgStat {
    /// Cylinder group number.
    pub cg: u32,
    /// Data blocks the group tracks.
    pub data_blocks: u64,
    /// Data blocks currently allocated (gauge; clamped at zero).
    pub used: u64,
    /// Disk read requests whose start sector fell in this group.
    pub read_ios: u64,
    /// Disk write requests whose start sector fell in this group.
    pub write_ios: u64,
    /// Sectors read by those requests.
    pub read_sectors: u64,
    /// Sectors written by those requests.
    pub write_sectors: u64,
    /// Group-fetch utilization EWMA for fetches resolved here,
    /// milli-percent (0 before the first sample).
    pub util_ewma_milli: u64,
    /// Utilization samples folded in.
    pub util_samples: u64,
}

/// Hysteresis: after a floor crossing, the signal re-arms only once the
/// EWMA climbs back above `floor * SIGNAL_REARM`.
const SIGNAL_REARM: f64 = 1.02;

/// SLO burn in milli-units: `violations` as a share of `count`, where
/// 1000 is the 1% a p99 objective allows. 0 when `count` is 0.
fn burn_milli(count: u64, violations: u64) -> u64 {
    violations.saturating_mul(100_000).checked_div(count).unwrap_or(0)
}

/// A signal value in milli-units, rounded — the integer form used for
/// trace-event operands and JSON so output stays deterministic.
fn milli(v: f64) -> u64 {
    if v <= 0.0 { 0 } else { (v * 1000.0).round() as u64 }
}

#[derive(Debug, Clone, Copy, Default)]
struct SignalState {
    /// EWMA in fixed-point milli-units (exact, platform-independent;
    /// signed so samples near zero can round either way).
    ewma_milli: i64,
    samples: u64,
    floor: Option<f64>,
    /// Currently below the floor (set on crossing, cleared on re-arm).
    low: bool,
    /// Crossings that bumped `signal_low_events` for this signal.
    low_count: u64,
    /// Floor recoveries, which bumped `signal_high_events`.
    high_count: u64,
}

impl SignalState {
    fn ewma(&self) -> f64 {
        self.ewma_milli as f64 / 1000.0
    }
}

/// Read-only view of one signal's smoothed state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalView {
    /// Current EWMA value (0.0 before the first sample).
    pub ewma: f64,
    /// Samples folded in so far.
    pub samples: u64,
    /// True while the EWMA sits below the armed floor.
    pub low: bool,
}

/// Serializable copy of the whole counter and histogram registry at one
/// instant.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Which stack this came from, e.g. `"cffs"` or `"ffs"`.
    pub label: String,
    /// Simulated time at the snapshot, nanoseconds.
    pub sim_ns: u64,
    /// `(counter name, value)` in registry order.
    pub counters: Vec<(String, u64)>,
    /// `(histogram name, snapshot)` in registry order. Empty when parsed
    /// from files written before histograms existed.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl StatsSnapshot {
    /// Value of a counter by name (0 if the name is absent — snapshots
    /// parsed from older files may lack newer counters).
    pub fn get(&self, c: Ctr) -> u64 {
        self.get_named(c.name())
    }

    /// Value of a counter by external name.
    pub fn get_named(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Histogram snapshot by name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Latency histogram for one op kind, if present.
    pub fn op_latency(&self, op: OpKind) -> Option<&HistogramSnapshot> {
        self.histogram(&format!("op_ns_{}", op.name()))
    }

    /// JSON summary of per-op latency — `{op: {count, mean_ns, p50_ns,
    /// p90_ns, p99_ns}}` for every op kind that ran (empty object when
    /// this snapshot carries no histograms). This is what puts
    /// per-op-kind percentiles into every `BENCH_*.json` phase row.
    pub fn op_latency_summary(&self) -> Json {
        let mut ops = Vec::new();
        for op in OpKind::ALL {
            if let Some(h) = self.op_latency(op) {
                if h.count() > 0 {
                    ops.push((
                        op.name().to_string(),
                        obj![
                            ("count", Json::Int(h.count() as i64)),
                            ("mean_ns", Json::Int(h.mean() as i64)),
                            ("p50_ns", Json::Int(h.quantile(0.50) as i64)),
                            ("p90_ns", Json::Int(h.quantile(0.90) as i64)),
                            ("p99_ns", Json::Int(h.quantile(0.99) as i64)),
                        ],
                    ));
                }
            }
        }
        Json::Obj(ops)
    }

    /// Counter- and bucket-wise difference `self - earlier` (saturating),
    /// for measuring one phase of a longer run.
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let empty = HistogramSnapshot::default();
        StatsSnapshot {
            label: self.label.clone(),
            sim_ns: self.sim_ns.saturating_sub(earlier.sim_ns),
            counters: self
                .counters
                .iter()
                .map(|(n, v)| (n.clone(), v.saturating_sub(earlier.get_named(n))))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(n, h)| {
                    (n.clone(), h.delta(earlier.histogram(n).unwrap_or(&empty)))
                })
                .collect(),
        }
    }

    /// Counter- and bucket-wise sum `self + other` (saturating), for
    /// folding the per-volume registries of a volume set into one
    /// aggregate snapshot. `label` is kept from `self`; `sim_ns` is the
    /// max of the two (volumes advance in simulated parallel, so their
    /// windows overlap rather than concatenate). Histogram names absent
    /// from one side are carried through unchanged.
    pub fn merge(&self, other: &StatsSnapshot) -> StatsSnapshot {
        let mut histograms = self.histograms.clone();
        for (n, h) in &other.histograms {
            match histograms.iter_mut().find(|(name, _)| name == n) {
                Some((_, mine)) => *mine = mine.merge(h),
                None => histograms.push((n.clone(), h.clone())),
            }
        }
        StatsSnapshot {
            label: self.label.clone(),
            sim_ns: self.sim_ns.max(other.sim_ns),
            counters: self
                .counters
                .iter()
                .map(|(n, v)| (n.clone(), v.saturating_add(other.get_named(n))))
                .collect(),
            histograms,
        }
    }

    pub fn from_json(j: &Json) -> Result<StatsSnapshot, JsonError> {
        let label = String::from(j.want("label")?.as_str().ok_or_else(|| {
            JsonError("label must be a string".into())
        })?);
        let sim_ns = j
            .want("sim_ns")?
            .as_u64()
            .ok_or_else(|| JsonError("sim_ns must be a u64".into()))?;
        let counters_obj = j.want("counters")?;
        let members = match counters_obj {
            Json::Obj(m) => m,
            _ => return Err(JsonError("counters must be an object".into())),
        };
        let mut counters = Vec::with_capacity(members.len());
        for (name, val) in members {
            let v = val
                .as_u64()
                .ok_or_else(|| JsonError(format!("counter {name:?} must be a u64")))?;
            counters.push((name.clone(), v));
        }
        // Optional for forward compatibility: snapshots written before
        // histograms existed simply have none.
        let mut histograms = Vec::new();
        if let Some(Json::Obj(members)) = j.get("histograms") {
            for (name, val) in members {
                histograms.push((name.clone(), HistogramSnapshot::from_json(val)?));
            }
        }
        Ok(StatsSnapshot {
            label,
            sim_ns,
            counters,
            histograms,
        })
    }
}

impl ToJson for StatsSnapshot {
    fn to_json(&self) -> Json {
        obj![
            ("label", Json::Str(self.label.clone())),
            ("sim_ns", Json::Int(self.sim_ns as i64)),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::Int(*v as i64)))
                        .collect()
                )
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(n, h)| (n.clone(), h.to_json()))
                        .collect()
                )
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let obs = Obs::new();
        obs.bump(Ctr::DiskRequests);
        obs.add(Ctr::DiskBytesRead, 4096);
        obs.add(Ctr::DiskBytesRead, 4096);
        assert_eq!(obs.get(Ctr::DiskRequests), 1);
        assert_eq!(obs.get(Ctr::DiskBytesRead), 8192);

        let snap = obs.snapshot("test", 123);
        assert_eq!(snap.get(Ctr::DiskBytesRead), 8192);
        assert_eq!(snap.get(Ctr::CacheMisses), 0);
        assert_eq!(snap.counters.len(), Ctr::COUNT);
    }

    #[test]
    fn counter_names_round_trip() {
        for c in Ctr::ALL {
            assert_eq!(Ctr::from_name(c.name()), Some(c));
        }
        assert_eq!(Ctr::from_name("no_such_counter"), None);
    }

    #[test]
    fn snapshot_delta_subtracts() {
        let obs = Obs::new();
        obs.add(Ctr::DiskRequests, 5);
        let before = obs.snapshot("s", 100);
        obs.add(Ctr::DiskRequests, 3);
        obs.add(Ctr::CacheMisses, 2);
        let after = obs.snapshot("s", 250);
        let d = after.delta(&before);
        assert_eq!(d.sim_ns, 150);
        assert_eq!(d.get(Ctr::DiskRequests), 3);
        assert_eq!(d.get(Ctr::CacheMisses), 2);
        assert_eq!(d.get(Ctr::DiskBytesRead), 0);
    }

    #[test]
    fn snapshot_json_round_trip() {
        let obs = Obs::new();
        obs.add(Ctr::DriverSgSegments, 7);
        obs.add(Ctr::FsGroupFetches, 2);
        let snap = obs.snapshot("cffs", 999_999_999_999);
        let text = snap.to_json().to_string_pretty();
        let back = StatsSnapshot::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn trace_ring_wraps_keeping_newest() {
        let mut ring = TraceRing::new(4);
        for i in 0..10u64 {
            ring.record(Event {
                t_ns: i,
                tag: "t",
                a: i,
                b: 0,
                span: 0,
                op: "",
                dur_ns: 0,
            });
        }
        assert_eq!(ring.total_recorded(), 10);
        let evs = ring.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(
            evs.iter().map(|e| e.a).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "oldest-first, newest retained"
        );
        assert_eq!(ring.last(2).iter().map(|e| e.a).collect::<Vec<_>>(), vec![8, 9]);
        // Asking for more than retained returns everything retained.
        assert_eq!(ring.last(100).len(), 4);
    }

    #[test]
    fn trace_through_obs_handle() {
        let obs = Obs::with_trace_capacity(8);
        obs.trace(10, "disk.read", 100, 4096);
        obs.trace(20, "disk.write", 200, 8192);
        let evs = obs.recent_events(10);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[1].tag, "disk.write");
        let line = evs[0].to_jsonl();
        let j = json::parse(&line).unwrap();
        assert_eq!(j.get("tag").unwrap().as_str().unwrap(), "disk.read");
        assert_eq!(j.get("b").unwrap().as_u64().unwrap(), 4096);
        // No span was open: attribution fields are present but empty.
        assert_eq!(j.get("span").unwrap().as_u64().unwrap(), 0);
        assert_eq!(j.get("op").unwrap().as_str().unwrap(), "");
        assert_eq!(j.get("dur_ns").unwrap().as_u64().unwrap(), 0);
    }

    #[test]
    fn op_kind_names_round_trip() {
        for op in OpKind::ALL {
            assert_eq!(OpKind::from_name(op.name()), Some(op));
            assert_eq!(op.tag(), format!("op.{}", op.name()));
        }
        assert_eq!(OpKind::from_name("no_such_op"), None);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        assert_eq!(histo_bucket_of(0), 0);
        assert_eq!(histo_bucket_of(1), 1);
        assert_eq!(histo_bucket_of(2), 2);
        assert_eq!(histo_bucket_of(3), 2);
        assert_eq!(histo_bucket_of(4), 3);
        assert_eq!(histo_bucket_of(u64::MAX), HISTO_BUCKETS - 1);
        for i in 1..HISTO_BUCKETS - 1 {
            assert_eq!(histo_bucket_of(histo_bucket_lo(i)), i);
            assert_eq!(histo_bucket_of(histo_bucket_hi(i)), i);
        }

        let h = Histogram::new();
        for v in [0u64, 1, 5, 5, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 6);
        assert_eq!(s.sum, 1111);
        assert_eq!(s.mean(), 1111 / 6);
        // p50 of {0,1,5,5,100,1000}: 3rd value = 5, bucket [4,8) → hi 7.
        assert_eq!(s.quantile(0.5), 7);
        // p100 lands in 1000's bucket [512,1024) → hi 1023.
        assert_eq!(s.quantile(1.0), 1023);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn histogram_snapshot_delta_and_json() {
        let h = Histogram::new();
        h.record(3);
        h.record(300);
        let before = h.snapshot();
        h.record(3);
        let after = h.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.count(), 1);
        assert_eq!(d.sum, 3);
        assert_eq!(d.quantile(0.5), 3, "only the new sample remains");

        let text = after.to_json().to_string_pretty();
        let back = HistogramSnapshot::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, after);
    }

    #[test]
    fn spans_attribute_events_and_do_not_nest() {
        let obs = Obs::new();
        obs.set_clock_ns(100);
        {
            let outer = obs.span(OpKind::DropCaches);
            assert_eq!(outer.id(), Some(SpanId(1)));
            {
                // Nested entry point (drop_caches → sync): inert guard,
                // attribution stays with the outer op.
                let inner = obs.span(OpKind::Sync);
                assert_eq!(inner.id(), None);
                obs.trace(150, "disk.write", 42, 8);
            }
            assert_eq!(
                obs.current_span(),
                Some((SpanId(1), OpKind::DropCaches)),
                "inner drop must not close the outer span"
            );
            obs.set_clock_ns(400);
        }
        assert_eq!(obs.current_span(), None);

        let evs = obs.recent_events(10);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].tag, "disk.write");
        assert_eq!(evs[0].span, 1);
        assert_eq!(evs[0].op, "drop_caches");
        assert_eq!(evs[1].tag, "op.drop_caches");
        assert_eq!(evs[1].span, 1);
        assert_eq!(evs[1].t_ns, 100);
        assert_eq!(evs[1].dur_ns, 300);

        // Latency was recorded for the outer op only.
        let snap = obs.snapshot("t", 400);
        assert_eq!(snap.op_latency(OpKind::DropCaches).unwrap().count(), 1);
        assert_eq!(snap.op_latency(OpKind::Sync).unwrap().count(), 0);

        // Span ids are deterministic: next op gets id 2.
        let g = obs.span(OpKind::Read);
        assert_eq!(g.id(), Some(SpanId(2)));
    }

    #[test]
    fn snapshot_histograms_round_trip_and_delta() {
        let obs = Obs::new();
        obs.histos().disk_req_sectors.record(8);
        obs.histos().disk_req_sectors.record(128);
        let snap = obs.snapshot("cffs", 10);
        assert_eq!(snap.histograms.len(), Histos::names().len());
        assert_eq!(snap.histogram("disk_req_sectors").unwrap().count(), 2);

        let text = snap.to_json().to_string_pretty();
        let back = StatsSnapshot::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);

        obs.histos().disk_req_sectors.record(8);
        let d = obs.snapshot("cffs", 20).delta(&snap);
        assert_eq!(d.histogram("disk_req_sectors").unwrap().count(), 1);

        // Old files without a "histograms" key still parse.
        let old = obj![
            ("label", Json::Str("cffs".into())),
            ("sim_ns", Json::Int(5)),
            ("counters", Json::Obj(vec![("disk_requests".into(), Json::Int(3))])),
        ];
        let parsed = StatsSnapshot::from_json(&old).unwrap();
        assert!(parsed.histograms.is_empty());
        assert_eq!(parsed.get(Ctr::DiskRequests), 3);
    }

    #[test]
    fn signal_ewma_crosses_floor_with_hysteresis() {
        let obs = Obs::new();
        obs.set_signal_floor(Sig::GroupFetchUtil, 80.0);
        obs.signal_sample(Sig::GroupFetchUtil, 100.0);
        let v = obs.signal(Sig::GroupFetchUtil);
        assert_eq!(v.ewma, 100.0, "first sample seeds the EWMA");
        assert!(!v.low);

        // Decay: repeated zero-utilization fetches drag the EWMA down.
        let mut crossed_at = None;
        for i in 0..30 {
            obs.signal_sample(Sig::GroupFetchUtil, 0.0);
            if obs.signal(Sig::GroupFetchUtil).low && crossed_at.is_none() {
                crossed_at = Some(i);
            }
        }
        assert!(crossed_at.is_some(), "EWMA must eventually cross the floor");
        assert_eq!(obs.get(Ctr::SignalLowEvents), 1, "one crossing, no re-fire");
        let evs = obs.recent_events(100);
        assert!(
            evs.iter().any(|e| e.tag == "signal.group_fetch_util.low"),
            "crossing must land in the trace ring"
        );

        // Recovery: good samples lift the EWMA past floor * 1.02.
        for _ in 0..40 {
            obs.signal_sample(Sig::GroupFetchUtil, 100.0);
        }
        let v = obs.signal(Sig::GroupFetchUtil);
        assert!(!v.low, "re-armed after recovery");
        assert_eq!(obs.get(Ctr::SignalHighEvents), 1);
        assert!(obs
            .recent_events(200)
            .iter()
            .any(|e| e.tag == "signal.group_fetch_util.recovered"));

        // Deterministic serialization: milli-unit integers.
        let j = obs.signals_json();
        let util = j.get("group_fetch_util_ewma").unwrap();
        assert!(util.get("ewma_milli").unwrap().as_u64().unwrap() > 80_000);
    }

    #[test]
    fn counters_are_monotonic_under_concurrency() {
        let obs = Obs::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let obs = &obs;
                s.spawn(move || {
                    for _ in 0..10_000 {
                        obs.bump(Ctr::CacheLookups);
                    }
                });
            }
        });
        assert_eq!(obs.get(Ctr::CacheLookups), 40_000);
    }

    /// Regression for the parked-EWMA bug: with truncating integer steps,
    /// a constant sample stream whose gap to the EWMA is under 8
    /// milli-units never moves, so the EWMA can neither converge nor
    /// cross a threshold sitting in that gap. The away-from-zero step
    /// must converge *exactly*.
    #[test]
    fn signal_ewma_converges_exactly_on_constant_stream() {
        let obs = Obs::new();
        obs.signal_sample(Sig::DirtyBacklog, 100.0);
        for _ in 0..200 {
            obs.signal_sample(Sig::DirtyBacklog, 37.5);
        }
        assert_eq!(obs.signal(Sig::DirtyBacklog).ewma, 37.5, "must converge exactly");

        // From below, too (negative steps round away from zero).
        let obs = Obs::new();
        obs.signal_sample(Sig::DirtyBacklog, 1.0);
        for _ in 0..200 {
            obs.signal_sample(Sig::DirtyBacklog, 37.5);
        }
        assert_eq!(obs.signal(Sig::DirtyBacklog).ewma, 37.5);
    }

    /// A signal seeded a hair above its floor and fed samples a hair
    /// below it must still cross: the per-sample delta here is 6
    /// milli-units, which truncating division would round to a zero step
    /// forever.
    #[test]
    fn signal_parked_just_under_floor_still_crosses() {
        let obs = Obs::new();
        obs.set_signal_floor(Sig::GroupFetchUtil, 80.0);
        obs.signal_sample(Sig::GroupFetchUtil, 80.004);
        assert!(!obs.signal(Sig::GroupFetchUtil).low);
        for _ in 0..10 {
            obs.signal_sample(Sig::GroupFetchUtil, 79.998);
        }
        let v = obs.signal(Sig::GroupFetchUtil);
        assert!(v.low, "sub-milli-step decay must still cross the floor, ewma={}", v.ewma);
        assert_eq!(obs.get(Ctr::SignalLowEvents), 1);
    }

    /// Span state is per thread: four threads each open, attribute, and
    /// close their own span concurrently without clobbering each other.
    #[test]
    fn spans_are_per_thread() {
        let obs = Obs::new();
        obs.set_clock_ns(1_000);
        std::thread::scope(|s| {
            for i in 0..4u64 {
                let obs = Arc::clone(&obs);
                s.spawn(move || {
                    let g = obs.span(OpKind::Read);
                    assert!(g.id().is_some(), "each thread gets its own outermost span");
                    // A disk request inside this thread's span.
                    obs.trace_io(1_000 + i, "disk.read", i, 8, 50);
                    assert_eq!(
                        obs.current_span().map(|(_, op)| op),
                        Some(OpKind::Read),
                        "span stays open across a sibling thread's close"
                    );
                });
            }
        });
        assert_eq!(obs.current_span(), None, "main thread never had a span");
        let snap = obs.snapshot("t", 2_000);
        assert_eq!(snap.op_latency(OpKind::Read).unwrap().count(), 4);
        assert_eq!(snap.get(Ctr::AttrServiceNs), 4 * 50);
    }

    /// Client contexts swapped on and off one thread keep their own
    /// clocks, op slots and per-`Obs` entries, and the caller's state
    /// comes back intact.
    #[test]
    fn swapped_contexts_keep_separate_state() {
        let (a, b) = (Obs::new(), Obs::new());
        a.set_clock_ns(500);
        b.set_clock_ns(900);
        a.pin_clock_ns(600);
        let mut ctx: Vec<ThreadState> = (0..2).map(|_| ThreadState::default()).collect();
        for (i, c) in ctx.iter_mut().enumerate() {
            swap_thread_state(c);
            assert_eq!(a.clock_ns(), 500, "a fresh context reads the global mirror");
            a.pin_clock_ns(1_000 * (i as u64 + 1));
            a.bind_thread_slot(i + 1);
            if i == 1 {
                b.pin_clock_ns(2_000);
            }
            swap_thread_state(c);
        }
        for (i, c) in ctx.iter_mut().enumerate() {
            swap_thread_state(c);
            assert_eq!(a.clock_ns(), 1_000 * (i as u64 + 1));
            assert_eq!(b.clock_ns(), [900, 2_000][i], "b's entry is per context");
            drop(a.span(OpKind::Read));
            swap_thread_state(c);
        }
        assert_eq!(a.thread_ops()[..3], [0, 1, 1], "each context tallies into its own slot");
        assert_eq!((a.clock_ns(), b.clock_ns()), (600, 900), "the caller's state is back");
        drop(a.span(OpKind::Read));
        assert_eq!(a.thread_ops()[0], 1, "the caller is still unbound");
    }

    /// Entries in the calling thread's table.
    fn table_len() -> usize {
        TLS.with(|t| t.borrow().len())
    }

    /// A dropped handle takes its entry with it: a thread that makes and
    /// drops 10 000 handles keeps a table no longer than its live ones,
    /// and the live handle's clock is untouched.
    #[test]
    fn dropped_handles_leave_the_context_table() {
        std::thread::spawn(|| {
            let keep = Obs::new();
            keep.set_clock_ns(777);
            for i in 0..10_000 {
                let o = Obs::new();
                o.advance_clock_ns(i);
                assert_eq!(table_len(), 2);
            }
            assert_eq!(table_len(), 1, "only the live handle's entry is left");
            assert_eq!(keep.clock_ns(), 777);
            drop(keep);
            assert_eq!(table_len(), 0);
        })
        .join()
        .unwrap();
    }

    /// Two threads driving one handle each advance their own clock; the
    /// shared mirror is the later of the two.
    #[test]
    fn threads_on_one_handle_keep_separate_clocks() {
        let obs = Obs::new();
        let turn = std::sync::Barrier::new(2);
        let clocks: Vec<u64> = std::thread::scope(|s| {
            let run = |step: u64| {
                let (obs, turn) = (&obs, &turn);
                s.spawn(move || {
                    obs.pin_clock_ns(0);
                    for _ in 0..100 {
                        turn.wait();
                        obs.advance_clock_ns(step);
                    }
                    obs.clock_ns()
                })
            };
            let threads = [run(30), run(7)];
            threads.map(|t| t.join().unwrap()).to_vec()
        });
        assert_eq!(clocks, [3_000, 700]);
        assert_eq!(obs.global_clock_ns(), 3_000);
        assert_eq!(obs.clock_ns(), 3_000, "a thread without a clock reads the shared mirror");
    }

    #[test]
    #[should_panic(expected = "open span")]
    fn swapping_out_an_open_span_panics() {
        let obs = Obs::new();
        let _span = obs.span(OpKind::Read);
        swap_thread_state(&mut ThreadState::default());
    }

    /// A disk request serviced on the span's own thread splits into
    /// queue time (the gap since the span opened) and service time.
    #[test]
    fn in_span_disk_request_splits_queue_and_service() {
        let obs = Obs::new();
        obs.set_clock_ns(100);
        let g = obs.span(OpKind::Write);
        assert!(g.id().is_some());
        // Gap 100→150 queues, 200ns services.
        obs.trace_io(150, "disk.write", 7, 8, 200);
        obs.set_clock_ns(400);
        drop(g);

        let snap = obs.snapshot("t", 400);
        assert_eq!(snap.get(Ctr::AttrQueueNs), 50);
        assert_eq!(snap.get(Ctr::AttrServiceNs), 200);
        assert_eq!(snap.get(Ctr::AttrOpNs), 300 - 250);
        // The disk event carries the span id.
        let ev = obs.recent_events(10).into_iter().find(|e| e.tag == "disk.write").unwrap();
        assert_eq!(ev.span, 1);
        assert_eq!(ev.op, "write");
    }

    /// `lock_timed` charges nothing on the uncontended fast path, so
    /// single-threaded runs stay deterministic.
    #[test]
    fn lock_timed_is_free_when_uncontended() {
        let obs = Obs::new();
        let m = Mutex::new(0u32);
        for _ in 0..100 {
            *obs.lock_timed(&m, Ctr::LockWaitNsCache) += 1;
        }
        assert_eq!(*m.lock().unwrap(), 100);
        assert_eq!(obs.get(Ctr::LockWaitNsCache), 0);
    }
}
