//! The disk driver: request scheduling, scatter/gather coalescing and the
//! simulated clock.
//!
//! The paper's testbed driver (taken from NetBSD) "supports scatter/gather
//! I/O and uses a C-LOOK scheduling algorithm [Worthington94]". The driver
//! here does the same: a batch of block requests is ordered by the chosen
//! scheduler, physically adjacent requests of the same direction are merged
//! into a single disk request, and the batch is serviced back-to-back.
//!
//! The driver also owns the simulated clock. File systems charge CPU time
//! to it (via [`Driver::advance`]) and I/O time flows through the disk's
//! completion times, so `driver.now()` is always "how long has this
//! experiment taken so far".

use crate::disk::Disk;
use crate::stats::DiskStats;
use crate::time::{SimDuration, SimTime};
use crate::SECTOR_SIZE;
use cffs_obs::json::{Json, ToJson};
use cffs_obs::{obj, AttrDelta, Ctr, Obs, Sig, SpanCtx};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};

/// Request ordering policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// First-come, first-served.
    Fcfs,
    /// Circular LOOK: service ascending from the arm position, wrap once.
    /// What the paper's testbed used.
    #[default]
    CLook,
    /// Shortest seek time first (by cylinder distance).
    Sstf,
}

/// Driver configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriverConfig {
    /// Scheduling policy for batches.
    pub scheduler: Scheduler,
}

/// Direction of an I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoDir {
    /// Device-to-host.
    Read,
    /// Host-to-device.
    Write,
}

/// One block-aligned request in a batch.
#[derive(Debug, Clone)]
pub struct IoReq {
    /// Starting sector.
    pub lba: u64,
    /// Direction.
    pub dir: IoDir,
    /// Payload for writes; capacity hint (`len` bytes to read) for reads.
    pub data: Vec<u8>,
}

impl IoReq {
    /// A write request.
    pub fn write(lba: u64, data: Vec<u8>) -> Self {
        IoReq { lba, dir: IoDir::Write, data }
    }

    /// A read request for `len` bytes.
    pub fn read(lba: u64, len: usize) -> Self {
        IoReq { lba, dir: IoDir::Read, data: vec![0u8; len] }
    }
}

/// Driver-level statistics (above the disk's own counters).
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

/// One queued submission: the requests, whether they form a schedulable
/// batch, the submitter's virtual time and open span, and the channel
/// the completed requests travel back on.
struct Submission {
    reqs: Vec<IoReq>,
    batch: bool,
    /// Submitter's virtual clock at submit; the disk starts service at
    /// the later of this and its last completion.
    stamp: u64,
    /// Submitter's open span, adopted by the worker so trace events and
    /// attribution stay causally correct.
    ctx: SpanCtx,
    reply: mpsc::Sender<Reply>,
}

/// What the worker sends back when a submission completes.
struct Reply {
    reqs: Vec<IoReq>,
    done_ns: u64,
    attr: AttrDelta,
}

/// State shared between driver handles and the worker thread.
struct Shared {
    disk: Mutex<Disk>,
    queue: Mutex<VecDeque<Submission>>,
    cv: Condvar,
    stats: Mutex<DriverStats>,
    config: DriverConfig,
    obs: Arc<Obs>,
    shutdown: AtomicBool,
}

/// The driver: disk + scheduler + simulated clock, fronted by a request
/// queue serviced by one worker thread.
///
/// The worker owns the seek model: it pops submissions in FIFO order,
/// schedules and coalesces each batch against the current arm position,
/// and services it on the (mutex-protected) disk. Submitters enqueue and
/// block until their submission completes, so the single-threaded call
/// pattern behaves exactly as a direct call — while concurrent client
/// threads genuinely interleave at the queue, each running its own
/// virtual timeline (see [`Driver::now`]) with the disk serializing them
/// through its last-completion time.
pub struct Driver {
    shared: Arc<Shared>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Driver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Driver").finish_non_exhaustive()
    }
}

impl Driver {
    /// Wrap a disk with the given configuration; the clock starts at
    /// zero. Spawns the worker thread that services the request queue.
    pub fn new(disk: Disk, config: DriverConfig) -> Self {
        let obs = disk.obs();
        let shared = Arc::new(Shared {
            disk: Mutex::new(disk),
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            stats: Mutex::new(DriverStats::default()),
            config,
            obs,
            shutdown: AtomicBool::new(false),
        });
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cffs-driver".into())
                .spawn(move || worker_loop(&shared))
                .expect("spawn driver worker")
        };
        Driver { shared, worker: Some(worker) }
    }

    /// The calling thread's current simulated time. Each client thread
    /// runs its own virtual clock (advanced by its CPU charges and I/O
    /// completions); a thread that has not run anything yet reads the
    /// cross-thread high-water mark, so elapsed time for a parallel run
    /// is `max` over threads, not the sum.
    pub fn now(&self) -> SimTime {
        SimTime(self.shared.obs.clock_ns())
    }

    /// Advance the calling thread's clock by `d` (CPU work, think time).
    pub fn advance(&self, d: SimDuration) {
        self.shared
            .obs
            .set_clock_ns(self.shared.obs.clock_ns() + d.as_nanos());
    }

    /// The shared observability handle (owned by the disk).
    pub fn obs(&self) -> Arc<Obs> {
        Arc::clone(&self.shared.obs)
    }

    /// Run `f` on the underlying disk (raw access, image cloning).
    pub fn with_disk<R>(&self, f: impl FnOnce(&Disk) -> R) -> R {
        f(&self.shared.obs.lock_timed(&self.shared.disk, Ctr::LockWaitNsDriver))
    }

    /// Run `f` on the underlying disk mutably (raw writes, cache flush).
    pub fn with_disk_mut<R>(&self, f: impl FnOnce(&mut Disk) -> R) -> R {
        f(&mut self.shared.obs.lock_timed(&self.shared.disk, Ctr::LockWaitNsDriver))
    }

    /// Take the disk back (e.g. to remount a file system on it). Shuts
    /// the worker down first; the queue must be drained (no submitter
    /// may be blocked in-flight).
    pub fn into_disk(mut self) -> Disk {
        self.stop_worker();
        let shared = Arc::clone(&self.shared);
        drop(self);
        let shared = Arc::try_unwrap(shared)
            .ok()
            .expect("driver shared state still referenced at into_disk");
        shared.disk.into_inner().expect("disk lock poisoned")
    }

    fn stop_worker(&mut self) {
        if let Some(h) = self.worker.take() {
            self.shared.shutdown.store(true, Ordering::Release);
            self.shared.cv.notify_all();
            let _ = h.join();
        }
    }

    /// Disk-level statistics.
    pub fn disk_stats(&self) -> DiskStats {
        self.with_disk(|d| d.stats())
    }

    /// Driver-level statistics.
    pub fn stats(&self) -> DriverStats {
        *self.shared.stats.lock().expect("driver stats poisoned")
    }

    /// Reset both driver and disk statistics.
    pub fn reset_stats(&self) {
        *self.shared.stats.lock().expect("driver stats poisoned") = DriverStats::default();
        self.with_disk_mut(|d| d.reset_stats());
    }

    /// Synchronously read `buf.len()` bytes at `lba`, advancing the
    /// calling thread's clock to the request's completion.
    pub fn read(&self, lba: u64, buf: &mut [u8]) {
        let done = self.submit(vec![IoReq::read(lba, buf.len())], false);
        buf.copy_from_slice(&done[0].data);
    }

    /// Synchronously write at `lba`, advancing the calling thread's
    /// clock to the request's completion.
    pub fn write(&self, lba: u64, buf: &[u8]) {
        self.submit(vec![IoReq::write(lba, buf.to_vec())], false);
    }

    /// Submit a batch: the worker schedules it, coalesces physically
    /// adjacent same-direction requests into scatter/gather transfers,
    /// and services them all. Read payloads are filled in place; the
    /// batch is returned in its (scheduled) service order. Blocks until
    /// the batch completes.
    pub fn submit_batch(&self, reqs: Vec<IoReq>) -> Vec<IoReq> {
        if reqs.is_empty() {
            return reqs;
        }
        self.submit(reqs, true)
    }

    /// Enqueue one submission and block on its completion, then fold the
    /// worker's attribution back into the calling thread's open span and
    /// advance this thread's clock to the completion time.
    fn submit(&self, reqs: Vec<IoReq>, batch: bool) -> Vec<IoReq> {
        let obs = &self.shared.obs;
        {
            let mut stats = self.shared.stats.lock().expect("driver stats poisoned");
            stats.logical_requests += reqs.len() as u64;
            if batch {
                stats.batches += 1;
            }
        }
        obs.bump(Ctr::DriverQueueSubmit);
        obs.add(Ctr::DriverLogicalRequests, reqs.len() as u64);
        if batch {
            obs.bump(Ctr::DriverBatches);
            obs.histos().driver_batch_reqs.record(reqs.len() as u64);
            obs.signal_sample(Sig::QueueDepth, reqs.len() as f64);
        }
        let (tx, rx) = mpsc::channel();
        let sub = Submission {
            reqs,
            batch,
            stamp: obs.clock_ns(),
            ctx: obs.span_ctx(),
            reply: tx,
        };
        obs.queue_depth_inc();
        obs.lock_timed(&self.shared.queue, Ctr::LockWaitNsDriver).push_back(sub);
        self.shared.cv.notify_all();
        let reply = rx.recv().expect("driver worker died");
        obs.set_clock_ns(reply.done_ns);
        obs.fold_attr(reply.attr);
        reply.reqs
    }
}

impl Drop for Driver {
    fn drop(&mut self) {
        self.stop_worker();
    }
}

/// The worker: pop submissions FIFO, schedule + coalesce + service each
/// on the disk, stamp trace events with the submitter's adopted span,
/// and ship the completed requests (plus attribution) back.
fn worker_loop(shared: &Shared) {
    loop {
        let sub = {
            let mut q = shared.queue.lock().expect("driver queue poisoned");
            loop {
                if let Some(s) = q.pop_front() {
                    shared.obs.queue_depth_dec();
                    break s;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = shared.cv.wait(q).expect("driver queue poisoned");
            }
        };
        let Submission { mut reqs, batch, stamp, ctx, reply } = sub;
        let mut disk = shared.obs.lock_timed(&shared.disk, Ctr::LockWaitNsDriver);
        // Adopt the submitter's span so the disk's trace events carry
        // its id and disk-request attribution accumulates on its behalf.
        shared.obs.adopt_span(ctx);
        if batch {
            order(shared.config.scheduler, &disk, &mut reqs);
        }
        // Coalesce adjacent same-direction runs: (lba, dir, [(req idx, len)]).
        type Merged = Vec<(u64, IoDir, Vec<(usize, usize)>)>;
        let mut merged: Merged = Vec::new();
        let mut spans: Vec<IoReq> = Vec::new();
        for req in reqs {
            match merged.last_mut() {
                Some((lba, dir, parts))
                    if *dir == req.dir
                        && *lba + parts.iter().map(|p| p.1 as u64 / SECTOR_SIZE as u64).sum::<u64>()
                            == req.lba =>
                {
                    parts.push((spans.len(), req.data.len()));
                }
                _ => {
                    merged.push((req.lba, req.dir, vec![(spans.len(), req.data.len())]));
                }
            }
            spans.push(req);
        }

        // Service starts at the submitter's virtual time; the disk's
        // last-completion time serializes overlapping submissions.
        let mut now = SimTime(stamp);
        for (lba, dir, parts) in merged {
            {
                let mut stats = shared.stats.lock().expect("driver stats poisoned");
                stats.physical_requests += 1;
                stats.coalesced += parts.len() as u64 - 1;
            }
            shared.obs.bump(Ctr::DriverPhysicalRequests);
            shared.obs.add(Ctr::DriverSgSegments, parts.len() as u64);
            shared.obs.add(Ctr::DriverCoalesced, parts.len() as u64 - 1);
            // An unmerged request is serviced straight from/into its own
            // payload; only a scatter/gather run needs a staging buffer.
            if let [(idx, _)] = parts[..] {
                let data = &mut spans[idx].data;
                now = match dir {
                    IoDir::Write => disk.write(now, lba, data),
                    IoDir::Read => disk.read(now, lba, data),
                };
                continue;
            }
            let total: usize = parts.iter().map(|p| p.1).sum();
            match dir {
                IoDir::Write => {
                    let mut buf = Vec::with_capacity(total);
                    for &(idx, _) in &parts {
                        buf.extend_from_slice(&spans[idx].data);
                    }
                    now = disk.write(now, lba, &buf);
                }
                IoDir::Read => {
                    let mut buf = vec![0u8; total];
                    now = disk.read(now, lba, &mut buf);
                    let mut off = 0;
                    for &(idx, len) in &parts {
                        spans[idx].data.copy_from_slice(&buf[off..off + len]);
                        off += len;
                    }
                }
            }
        }
        let attr = shared.obs.end_adopt();
        drop(disk);
        // Keep the cross-thread high-water mark current even if the
        // submitter vanished (its clock update happens on receipt).
        shared.obs.set_clock_ns(now.as_nanos());
        let _ = reply.send(Reply { reqs: spans, done_ns: now.as_nanos(), attr });
    }
}

/// Order a batch for service (worker-side: needs the live arm position).
fn order(sched: Scheduler, disk: &Disk, reqs: &mut Vec<IoReq>) {
    match sched {
        Scheduler::Fcfs => {}
        Scheduler::CLook => {
            reqs.sort_by_key(|r| r.lba);
            // Find the first request at or beyond the arm and rotate the
            // ascending order to start there (one sweep, then wrap).
            let arm = disk.arm_cylinder();
            let split = reqs
                .iter()
                .position(|r| disk.model().geometry.lba_to_chs(r.lba).cylinder >= arm)
                .unwrap_or(0);
            reqs.rotate_left(split);
        }
        Scheduler::Sstf => {
            // Greedy nearest-cylinder-first from the current arm position.
            let geom = &disk.model().geometry;
            let mut cur = disk.arm_cylinder();
            let mut rest: Vec<IoReq> = std::mem::take(reqs);
            while !rest.is_empty() {
                let (i, _) = rest
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, r)| geom.lba_to_chs(r.lba).cylinder.abs_diff(cur))
                    .expect("nonempty");
                let r = rest.swap_remove(i);
                cur = geom.lba_to_chs(r.lba).cylinder;
                reqs.push(r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    fn driver(sched: Scheduler) -> Driver {
        Driver::new(Disk::new(models::seagate_st31200()), DriverConfig { scheduler: sched })
    }

    #[test]
    fn read_write_round_trip_through_driver() {
        let d = driver(Scheduler::CLook);
        let data = vec![0x5Au8; 4096];
        d.write(800, &data);
        let mut back = vec![0u8; 4096];
        d.read(800, &mut back);
        assert_eq!(back, data);
        assert!(d.now() > SimTime::ZERO);
    }

    #[test]
    fn batch_coalesces_adjacent_writes() {
        let d = driver(Scheduler::CLook);
        // Four adjacent 4 KB writes (a 16 KB group flush) plus one far away.
        let reqs: Vec<IoReq> = (0..4)
            .map(|i| IoReq::write(1000 + i * 8, vec![i as u8; 4096]))
            .chain(std::iter::once(IoReq::write(500_000, vec![9u8; 4096])))
            .collect();
        d.submit_batch(reqs);
        assert_eq!(d.stats().logical_requests, 5);
        assert_eq!(d.stats().physical_requests, 2);
        assert_eq!(d.stats().coalesced, 3);
        // Contents landed in the right places.
        let mut buf = vec![0u8; 4096];
        d.read(1000 + 2 * 8, &mut buf);
        assert!(buf.iter().all(|&b| b == 2));
    }

    #[test]
    fn batch_scatter_gather_read() {
        let d = driver(Scheduler::CLook);
        for i in 0..4u8 {
            d.write(2000 + i as u64 * 8, &vec![i; 4096]);
        }
        let reqs = (0..4).map(|i| IoReq::read(2000 + i * 8, 4096)).collect();
        let done = d.submit_batch(reqs);
        for r in &done {
            let want = ((r.lba - 2000) / 8) as u8;
            assert!(r.data.iter().all(|&b| b == want), "wrong data at lba {}", r.lba);
        }
        assert_eq!(d.stats().physical_requests, 4 + 1); // 4 writes + 1 merged read
    }

    #[test]
    fn coalesced_batch_is_much_faster_than_fcfs_scatter() {
        // 16 adjacent blocks written as one batch...
        let grouped = driver(Scheduler::CLook);
        let reqs = (0..16).map(|i| IoReq::write(10_000 + i * 8, vec![0u8; 4096])).collect();
        grouped.submit_batch(reqs);
        let t_grouped = grouped.now();

        // ...versus 16 scattered blocks written one at a time.
        let scattered = driver(Scheduler::Fcfs);
        for i in 0..16u64 {
            scattered.write(10_000 + i * 50_000, &vec![0u8; 4096]);
        }
        let t_scattered = scattered.now();
        assert!(t_scattered.as_nanos() > 5 * t_grouped.as_nanos());
    }

    #[test]
    fn clook_orders_ascending_from_arm() {
        let d = driver(Scheduler::CLook);
        // Move the arm inward first.
        d.write(1_000_000, &vec![0u8; 512]);
        let reqs = vec![
            IoReq::write(500, vec![1u8; 512]),
            IoReq::write(1_500_000, vec![2u8; 512]),
            IoReq::write(1_200_000, vec![3u8; 512]),
        ];
        let done = d.submit_batch(reqs);
        let lbas: Vec<u64> = done.iter().map(|r| r.lba).collect();
        // One ascending sweep from the arm (at ~1M), then wrap.
        assert_eq!(lbas, vec![1_200_000, 1_500_000, 500]);
    }

    #[test]
    fn sstf_visits_nearest_first() {
        let d = driver(Scheduler::Sstf);
        let reqs = vec![
            IoReq::write(1_800_000, vec![0u8; 512]),
            IoReq::write(100, vec![0u8; 512]),
            IoReq::write(900_000, vec![0u8; 512]),
        ];
        let done = d.submit_batch(reqs);
        // Arm starts at cylinder 0: nearest is lba 100.
        assert_eq!(done[0].lba, 100);
    }

    #[test]
    fn empty_batch_is_noop() {
        let d = driver(Scheduler::CLook);
        let t0 = d.now();
        let out = d.submit_batch(Vec::new());
        assert!(out.is_empty());
        assert_eq!(d.now(), t0);
        assert_eq!(d.stats().batches, 0);
    }

    #[test]
    fn advance_moves_clock_only() {
        let d = driver(Scheduler::CLook);
        d.advance(SimDuration::from_millis(3));
        assert_eq!(d.now().as_nanos(), 3_000_000);
        assert_eq!(d.disk_stats().total_requests(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::models;
    use crate::Disk;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Every scheduler services every submitted request exactly once
        /// (same multiset of LBAs back), and written data always lands.
        #[test]
        fn schedulers_lose_nothing(
            lbas in prop::collection::vec(0u64..8_000, 1..40),
            sched in prop::sample::select(vec![Scheduler::Fcfs, Scheduler::CLook, Scheduler::Sstf]),
        ) {
            let drv = Driver::new(
                Disk::new(models::tiny_test_disk()),
                DriverConfig { scheduler: sched },
            );
            // Deduplicate: duplicate-LBA writes have order-dependent results.
            let mut lbas = lbas;
            lbas.sort_unstable();
            lbas.dedup();
            let reqs: Vec<IoReq> = lbas
                .iter()
                .map(|&l| IoReq::write(l * 8, vec![(l % 251) as u8; 4096]))
                .collect();
            let done = drv.submit_batch(reqs);
            let mut got: Vec<u64> = done.iter().map(|r| r.lba / 8).collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &lbas);
            // Contents landed regardless of service order.
            for &l in &lbas {
                let mut buf = vec![0u8; 4096];
                drv.read(l * 8, &mut buf);
                prop_assert!(buf.iter().all(|&b| b == (l % 251) as u8), "lba {}", l);
            }
        }

        /// Coalescing accounting: logical = physical + coalesced.
        #[test]
        fn coalescing_accounting_balances(
            lbas in prop::collection::vec(0u64..2_000, 1..60)
        ) {
            let drv = Driver::new(
                Disk::new(models::tiny_test_disk()),
                DriverConfig { scheduler: Scheduler::CLook },
            );
            let mut lbas = lbas;
            lbas.sort_unstable();
            lbas.dedup();
            let n = lbas.len() as u64;
            let reqs = lbas.into_iter().map(|l| IoReq::write(l * 8, vec![0u8; 4096])).collect();
            drv.submit_batch(reqs);
            let s = drv.stats();
            prop_assert_eq!(s.logical_requests, n);
            prop_assert_eq!(s.physical_requests + s.coalesced, n);
        }
    }
}
