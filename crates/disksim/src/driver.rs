//! The disk driver: request scheduling, scatter/gather coalescing and the
//! simulated clock.
//!
//! The paper's testbed driver (taken from NetBSD) "supports scatter/gather
//! I/O and uses a C-LOOK scheduling algorithm [Worthington94]". The driver
//! here does the same: a batch of block requests is ordered by the chosen
//! scheduler, physically adjacent requests of the same direction are merged
//! into a single disk request, and the batch is serviced back-to-back. A
//! merged run moves its bytes straight between the platter and each
//! request's own memory (see [`Payload`]); nothing is staged. A read
//! whose memory is a [`Block`] at a block boundary is not even copied:
//! the platter lends it its chunk ([`Driver::read_block`], and each block
//! of a batch read's pieces).
//!
//! The driver also owns the simulated clock. File systems charge CPU time
//! to it (via [`Driver::advance`]) and I/O time flows through the disk's
//! completion times, so `driver.now()` is always "how long has this
//! experiment taken so far".

use crate::disk::{Disk, Xfer};
use crate::store::Block;
use crate::time::{SimDuration, SimTime};
use crate::SECTOR_SIZE;
use cffs_obs::{Ctr, Obs, Sig};
use std::sync::{Arc, Mutex, MutexGuard};

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

/// One piece of a read's memory, as the disk fills it.
#[derive(Debug)]
pub enum Piece<'a> {
    /// Plain bytes: the platter's contents are copied in.
    Bytes(&'a mut [u8]),
    /// A block handle: at a block boundary it becomes a handle on the
    /// platter's chunk (see [`SectorStore::lend`](crate::store::SectorStore::lend)).
    Block(&'a mut Block),
}

/// The memory one request moves: a byte length (a whole number of
/// sectors) and its pieces in disk order. The disk gathers a write's
/// pieces into the sector store, and scatters a read into them in place
/// or, for a [`Block`] piece, lends it the platter's chunk: a payload
/// made of cache buffers is never staged, and a read of one not copied.
pub trait Payload {
    /// Total length in bytes.
    fn byte_len(&self) -> usize;
    /// Hand each piece, in disk order, to `f` to be written out.
    fn gather(&self, f: &mut impl FnMut(&[u8]));
    /// Hand each piece, in disk order, to `f` to be filled.
    fn scatter(&mut self, f: &mut impl FnMut(Piece<'_>));
}

impl Payload for [u8] {
    fn byte_len(&self) -> usize {
        self.len()
    }

    fn gather(&self, f: &mut impl FnMut(&[u8])) {
        f(self)
    }

    fn scatter(&mut self, f: &mut impl FnMut(Piece<'_>)) {
        f(Piece::Bytes(self))
    }
}

/// A block is a disk request's memory: a write-back hands the driver the
/// cache's handle, a read takes a handle on the platter's chunk.
impl Payload for Block {
    fn byte_len(&self) -> usize {
        self.len()
    }

    fn gather(&self, f: &mut impl FnMut(&[u8])) {
        f(self)
    }

    fn scatter(&mut self, f: &mut impl FnMut(Piece<'_>)) {
        f(Piece::Block(self))
    }
}

/// A list of payloads is one payload: its members back to back.
impl<P: Payload> Payload for [P] {
    fn byte_len(&self) -> usize {
        self.iter().map(P::byte_len).sum()
    }

    fn gather(&self, f: &mut impl FnMut(&[u8])) {
        self.iter().for_each(|p| p.gather(f))
    }

    fn scatter(&mut self, f: &mut impl FnMut(Piece<'_>)) {
        self.iter_mut().for_each(|p| p.scatter(f))
    }
}

impl<T> Payload for Vec<T>
where
    [T]: Payload,
{
    fn byte_len(&self) -> usize {
        self[..].byte_len()
    }

    fn gather(&self, f: &mut impl FnMut(&[u8])) {
        self[..].gather(f)
    }

    fn scatter(&mut self, f: &mut impl FnMut(Piece<'_>)) {
        self[..].scatter(f)
    }
}

/// One block-aligned request in a batch.
#[derive(Debug, Clone)]
pub struct IoReq<B = Vec<u8>> {
    /// Starting sector.
    pub lba: u64,
    /// Direction.
    pub dir: IoDir,
    /// The memory transferred: the bytes to write, or the buffers a read
    /// fills in place.
    pub data: B,
}

impl<B> IoReq<B> {
    /// A write request.
    pub fn write(lba: u64, data: B) -> Self {
        IoReq { lba, dir: IoDir::Write, data }
    }
}

impl IoReq {
    /// A read request for `len` bytes.
    pub fn read(lba: u64, len: usize) -> Self {
        IoReq { lba, dir: IoDir::Read, data: vec![0u8; len] }
    }
}

/// A run of adjacent requests is one payload: the driver services it as
/// a single disk request.
impl<B: Payload> Payload for IoReq<B> {
    fn byte_len(&self) -> usize {
        self.data.byte_len()
    }

    fn gather(&self, f: &mut impl FnMut(&[u8])) {
        self.data.gather(f)
    }

    fn scatter(&mut self, f: &mut impl FnMut(Piece<'_>)) {
        self.data.scatter(f)
    }
}

/// The driver: disk + scheduler + simulated clock.
///
/// Callers service their own requests under the disk lock: each request
/// is stamped with the calling thread's virtual clock (see
/// [`Driver::now`]), and service starts at the later of that stamp and
/// the disk's last completion. Single-threaded use is therefore a direct
/// call, while concurrent client threads each run their own timeline and
/// the one spindle serializes their requests.
pub struct Driver {
    disk: Mutex<Disk>,
    config: DriverConfig,
    obs: Arc<Obs>,
}

impl std::fmt::Debug for Driver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Driver").finish_non_exhaustive()
    }
}

impl Driver {
    /// Wrap a disk with the given configuration; the clock starts at
    /// zero.
    pub fn new(disk: Disk, config: DriverConfig) -> Self {
        let obs = disk.obs();
        Driver { disk: Mutex::new(disk), config, obs }
    }

    /// The calling thread's current simulated time. Each client thread
    /// runs its own virtual clock (advanced by its CPU charges and I/O
    /// completions); a thread that has not run anything yet reads the
    /// cross-thread high-water mark, so elapsed time for a parallel run
    /// is `max` over threads, not the sum.
    pub fn now(&self) -> SimTime {
        SimTime(self.obs.clock_ns())
    }

    /// Advance the calling thread's clock by `d` (CPU work, think time):
    /// one visit to the thread's clock.
    pub fn advance(&self, d: SimDuration) {
        self.obs.advance_clock_ns(d.as_nanos());
    }

    /// The shared observability handle (owned by the disk).
    pub fn obs(&self) -> Arc<Obs> {
        Arc::clone(&self.obs)
    }

    fn lock(&self) -> MutexGuard<'_, Disk> {
        self.obs.lock_timed(&self.disk, Ctr::LockWaitNsDriver)
    }

    /// Run `f` on the underlying disk (raw access, image cloning).
    pub fn with_disk<R>(&self, f: impl FnOnce(&Disk) -> R) -> R {
        f(&self.lock())
    }

    /// Run `f` on the underlying disk mutably (raw writes, cache flush).
    pub fn with_disk_mut<R>(&self, f: impl FnOnce(&mut Disk) -> R) -> R {
        f(&mut self.lock())
    }

    /// Take the disk back (e.g. to remount a file system on it).
    pub fn into_disk(self) -> Disk {
        self.disk.into_inner().expect("disk lock poisoned")
    }

    /// Synchronously read `buf.len()` bytes at `lba` straight into `buf`,
    /// advancing the calling thread's clock to the request's completion.
    pub fn read(&self, lba: u64, buf: &mut [u8]) {
        self.submit(1, false, |disk, now| {
            count_physical(&self.obs, 1);
            disk.read(now, lba, buf)
        });
    }

    /// Synchronously read the 4 KB at `lba` as a [`Block`], advancing the
    /// calling thread's clock to the request's completion: one request,
    /// timed and counted as [`Driver::read`]'s, whose block is a handle on
    /// the platter's chunk when `lba` is block-aligned (nothing copied).
    pub fn read_block(&self, lba: u64) -> Block {
        let mut block = Block::zero();
        self.submit(1, false, |disk, now| {
            count_physical(&self.obs, 1);
            disk.transfer(now, lba, Xfer::Read(&mut block))
        });
        block
    }

    /// Synchronously write `buf` at `lba`, advancing the calling thread's
    /// clock to the request's completion.
    pub fn write(&self, lba: u64, buf: &[u8]) {
        self.submit(1, false, |disk, now| {
            count_physical(&self.obs, 1);
            disk.write(now, lba, buf)
        });
    }

    /// Submit a batch: schedule it, coalesce physically adjacent
    /// same-direction requests into scatter/gather transfers, and service
    /// them all. Read payloads are filled in place; the batch is returned
    /// in its (scheduled) service order. Returns once the batch completes.
    pub fn submit_batch<B: Payload>(&self, mut reqs: Vec<IoReq<B>>) -> Vec<IoReq<B>> {
        if reqs.is_empty() {
            return reqs;
        }
        self.submit(reqs.len(), true, |disk, now| {
            order(self.config.scheduler, disk, &mut reqs, now);
            service_batch(disk, &self.obs, &mut reqs, now)
        });
        reqs
    }

    /// Account one submission of `n` logical requests, then run `f`
    /// under the disk lock from the calling thread's clock stamp and
    /// advance that clock to the completion time it returns.
    fn submit(&self, n: usize, batch: bool, f: impl FnOnce(&mut Disk, SimTime) -> SimTime) {
        let obs = &self.obs;
        obs.bump(Ctr::DriverQueueSubmit);
        obs.add(Ctr::DriverLogicalRequests, n as u64);
        if batch {
            obs.bump(Ctr::DriverBatches);
            obs.histos().driver_batch_reqs.record(n as u64);
            obs.signal_sample(Sig::QueueDepth, n as f64);
        }
        // Service starts at this thread's virtual time; the disk's
        // last-completion time serializes overlapping threads.
        let stamp = SimTime(obs.clock_ns());
        obs.queue_depth_inc();
        let mut disk = self.lock();
        obs.queue_depth_dec();
        let done = f(&mut disk, stamp);
        // Release the disk before the clock moves: a due telemetry frame
        // is cut inside `set_clock_ns`.
        drop(disk);
        obs.set_clock_ns(done.as_nanos());
    }
}

/// Account one physical request carrying `segments` logical ones.
fn count_physical(obs: &Obs, segments: usize) {
    obs.bump(Ctr::DriverPhysicalRequests);
    obs.add(Ctr::DriverSgSegments, segments as u64);
    obs.add(Ctr::DriverCoalesced, segments as u64 - 1);
}

/// The run that starts at `reqs[i]`: the requests `service_batch` merges
/// into one disk transfer (adjacent on the platter, one direction).
/// Returns its end (exclusive) and its length in sectors.
fn run_at<B: Payload>(reqs: &[IoReq<B>], i: usize) -> (usize, u64) {
    let dir = reqs[i].dir;
    let mut end_lba = reqs[i].lba;
    let mut end = i;
    while end < reqs.len() && reqs[end].dir == dir && reqs[end].lba == end_lba {
        end_lba += (reqs[end].byte_len() / SECTOR_SIZE) as u64;
        end += 1;
    }
    (end, end_lba - reqs[i].lba)
}

/// Service an ordered batch on `disk` from `now`, one disk request per
/// run of physically adjacent same-direction requests. Returns the
/// completion time of the last.
fn service_batch<B: Payload>(
    disk: &mut Disk,
    obs: &Obs,
    reqs: &mut [IoReq<B>],
    mut now: SimTime,
) -> SimTime {
    let mut start = 0;
    while start < reqs.len() {
        let (end, _) = run_at(reqs, start);
        let run = &mut reqs[start..end];
        count_physical(obs, run.len());
        let lba = run[0].lba;
        now = match run[0].dir {
            IoDir::Write => disk.transfer(now, lba, Xfer::Write(&*run)),
            IoDir::Read => disk.transfer(now, lba, Xfer::Read(run)),
        };
        start = end;
    }
    now
}

/// Order a batch for service from `now` (needs the live arm position and
/// the drive's clock, so it runs under the disk lock).
fn order<B: Payload>(sched: Scheduler, disk: &Disk, reqs: &mut [IoReq<B>], now: SimTime) {
    let cylinder = |r: &IoReq<B>| disk.model().geometry.lba_to_chs(r.lba).cylinder;
    match sched {
        Scheduler::Fcfs => {}
        Scheduler::CLook => {
            // A batch names each sector once, so an unstable sort (which
            // never allocates scratch) orders it as a stable one would.
            reqs.sort_unstable_by_key(|r| r.lba);
            debug_assert!(reqs.windows(2).all(|w| w[0].lba < w[1].lba), "a sector queued twice");
            // Find the first request at or beyond the arm and rotate the
            // ascending order to start there (one sweep, then wrap).
            let arm = disk.arm_cylinder();
            let split = reqs.iter().position(|r| cylinder(r) >= arm).unwrap_or(0);
            reqs.rotate_left(split);
            by_rotation(disk, reqs, now);
        }
        Scheduler::Sstf => {
            // Greedy nearest-cylinder-first from the current arm position,
            // in place. The unplaced rest stays in LBA order, so a tie goes
            // to the lowest LBA and adjacent requests stay adjacent.
            reqs.sort_unstable_by_key(|r| r.lba);
            let mut cur = disk.arm_cylinder();
            for k in 0..reqs.len() {
                let (i, _) = reqs[k..]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, r)| cylinder(r).abs_diff(cur))
                    .expect("nonempty");
                reqs[k..=k + i].rotate_right(1);
                cur = cylinder(&reqs[k]);
            }
        }
    }
}

/// Within each cylinder of a C-LOOK sweep, serve the runs in the order
/// the platter brings them under the head: from the batch's start, pick
/// the run that [`DiskModel::position`](crate::DiskModel::position) says
/// finishes first, then the next from there. A cylinder keeps LBA order
/// when that finishes no later. The cylinder sequence is C-LOOK's: a run
/// that leaves its cylinder is the last in LBA order and stays last.
///
/// Only writes are reordered. A read may be served from the on-board
/// cache, which the positioning model does not predict, so the pass stops
/// at the first read. In place; quadratic in the runs of one cylinder.
fn by_rotation<B: Payload>(disk: &Disk, reqs: &mut [IoReq<B>], now: SimTime) {
    let model = disk.model();
    let cylinder = |lba: u64| model.geometry.lba_to_chs(lba).cylinder;
    let write = |reqs: &[IoReq<B>], i: usize| i < reqs.len() && reqs[i].dir == IoDir::Write;
    // Service `reqs[from..to]` run by run from `(t, arm)`.
    let serve = |reqs: &[IoReq<B>], from: usize, to: usize, (mut t, mut arm): (SimTime, u32)| {
        let mut i = from;
        while i < to {
            let (end, nsect) = run_at(reqs, i);
            let p = model.position(t, arm, reqs[i].lba, nsect, true);
            (t, arm, i) = (p.done, p.cylinder, end);
        }
        (t, arm)
    };
    let mut at = (now.max(disk.busy_until()), disk.arm_cylinder());
    let mut i = 0;
    while write(reqs, i) {
        // The cylinder's runs: `reqs[i..end]`, the last starting at `last`.
        let cyl = cylinder(reqs[i].lba);
        let (mut end, mut last, mut last_nsect) = (i, i, 0);
        while write(reqs, end) && cylinder(reqs[end].lba) == cyl {
            last = end;
            (end, last_nsect) = run_at(reqs, end);
        }
        let free = if cylinder(reqs[last].lba + last_nsect - 1) == cyl { end } else { last };
        let in_lba_order = serve(reqs, i, end, at);
        if run_at(reqs, i).0 >= free {
            // Nothing to reorder: at most one run is free to move.
            (at, i) = (in_lba_order, end);
            continue;
        }
        // Greedy: move the run that finishes first to the front of the
        // unplaced rest (ties go to the lowest LBA), and go on from there.
        let mut placed = i;
        let mut greedy = at;
        while placed < free {
            // (completion, arm after, run start, run end) of the first to finish.
            let mut first: Option<(SimTime, u32, usize, usize)> = None;
            let mut j = placed;
            while j < free {
                let (run_end, nsect) = run_at(reqs, j);
                let p = model.position(greedy.0, greedy.1, reqs[j].lba, nsect, true);
                if first.is_none_or(|f| p.done < f.0) {
                    first = Some((p.done, p.cylinder, j, run_end));
                }
                j = run_end;
            }
            let (done, arm, start, run_end) = first.expect("a run left to place");
            reqs[placed..run_end].rotate_right(run_end - start);
            placed += run_end - start;
            greedy = (done, arm);
        }
        let greedy = serve(reqs, free, end, greedy);
        at = if greedy.0 < in_lba_order.0 {
            greedy
        } else {
            reqs[i..end].sort_unstable_by_key(|r| r.lba);
            in_lba_order
        };
        i = end;
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
        let obs = d.obs();
        assert_eq!(obs.get(Ctr::DriverLogicalRequests), 5);
        assert_eq!(obs.get(Ctr::DriverPhysicalRequests), 2);
        assert_eq!(obs.get(Ctr::DriverCoalesced), 3);
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
        assert_eq!(d.obs().get(Ctr::DriverPhysicalRequests), 4 + 1); // 4 writes + 1 merged read
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

    /// Six adjacent 4 KB writes are one disk request under SSTF too: a
    /// tie on cylinder distance goes to the lowest LBA.
    #[test]
    fn sstf_coalesces_adjacent_runs() {
        let d = driver(Scheduler::Sstf);
        let lbas: Vec<u64> = (0..6).map(|i| 40_000 + i * 8).collect();
        let reqs = lbas.iter().map(|&lba| IoReq::write(lba, vec![lba as u8; 4096])).collect();
        let done = d.submit_batch(reqs);
        assert_eq!(done.iter().map(|r| r.lba).collect::<Vec<_>>(), lbas);
        assert_eq!(d.obs().get(Ctr::DriverPhysicalRequests), 1);
        assert_eq!(d.obs().get(Ctr::DriverCoalesced), 5);
    }

    /// Two-block runs on the nine heads of one cylinder, at scattered
    /// angles: C-LOOK serves them as the platter brings them round, keeps
    /// each run one request, and finishes well before the LBA order does
    /// on a twin drive.
    #[test]
    fn clook_serves_a_cylinder_in_rotational_order() {
        let run = |head: u64| {
            let lba = 9 * 108 * 10 + head * 108 + (head * 61) % 108;
            (0..2).map(move |k| IoReq::write(lba + 8 * k, vec![head as u8; 4096]))
        };
        let batch = || (0..9).flat_map(run).collect::<Vec<IoReq>>();
        let d = driver(Scheduler::CLook);
        let lbas = |reqs: &[IoReq]| reqs.iter().map(|r| r.lba).collect::<Vec<_>>();
        let done = d.submit_batch(batch());
        assert_ne!(lbas(&done), lbas(&batch()), "served in LBA order");
        assert_eq!(d.obs().get(Ctr::DriverPhysicalRequests), 9, "runs stay whole");

        let twin = driver(Scheduler::CLook);
        let obs = twin.obs();
        let lba_order =
            twin.with_disk_mut(|disk| service_batch(disk, &obs, &mut batch(), SimTime::ZERO));
        assert!(
            d.now().as_nanos() * 10 < lba_order.as_nanos() * 8,
            "rotational order {} vs LBA order {lba_order}",
            d.now()
        );
        let mut back = vec![0u8; 4096];
        d.read(9 * 108 * 10 + 4 * 108 + (4 * 61) % 108 + 8, &mut back);
        assert!(back.iter().all(|&b| b == 4));
    }

    #[test]
    fn empty_batch_is_noop() {
        let d = driver(Scheduler::CLook);
        let t0 = d.now();
        let out = d.submit_batch(Vec::<IoReq>::new());
        assert!(out.is_empty());
        assert_eq!(d.now(), t0);
        assert_eq!(d.obs().get(Ctr::DriverBatches), 0);
    }

    #[test]
    fn advance_moves_clock_only() {
        let d = driver(Scheduler::CLook);
        d.advance(SimDuration::from_millis(3));
        assert_eq!(d.now().as_nanos(), 3_000_000);
        assert_eq!(d.obs().get(Ctr::DiskRequests), 0);
    }

    /// Four threads released together mix single writes, coalescing batch
    /// writes and reads, and single reads on disjoint LBAs of one driver:
    /// every write lands, the coalescing books balance, nobody is left
    /// waiting, and each thread's clock ends at or past the completion of
    /// its own last request.
    #[test]
    fn threaded_submitters_share_one_spindle() {
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 25;
        let d = driver(Scheduler::CLook);
        d.with_disk_mut(|disk| disk.set_trace(true));
        let barrier = std::sync::Barrier::new(THREADS as usize);
        let base = |t: u64| 100_000 * (t + 1);
        let byte = |t: u64, r: u64| (t * 64 + r) as u8;
        let last_writes: Vec<(u64, SimTime)> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (d, barrier) = (&d, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        for r in 0..ROUNDS {
                            let lba = base(t) + r * 32;
                            let b = byte(t, r);
                            d.write(lba, &[b; 4096]);
                            let pair = |k: u64| IoReq::write(lba + 8 * k, vec![b; 4096]);
                            d.submit_batch(vec![pair(2), pair(1)]);
                            let read = |k: u64| IoReq::read(lba + 8 * k, 4096);
                            let back = d.submit_batch(vec![read(1), read(2)]);
                            assert!(back.iter().all(|r| r.data.iter().all(|&x| x == b)));
                            let mut one = [0u8; 4096];
                            d.read(lba, &mut one);
                            assert!(one.iter().all(|&x| x == b));
                        }
                        let last = base(t) + ROUNDS * 32;
                        d.write(last, &[0xEE; 512]);
                        (last, d.now())
                    })
                })
                .collect();
            threads.into_iter().map(|h| h.join().expect("submitter panicked")).collect()
        });

        for t in 0..THREADS {
            for r in 0..ROUNDS {
                let mut buf = vec![0u8; 3 * 4096];
                d.with_disk(|disk| disk.raw_read(base(t) + r * 32, &mut buf));
                assert!(buf.iter().all(|&x| x == byte(t, r)), "thread {t} round {r} lost a write");
            }
        }
        let obs = d.obs();
        let logical = obs.get(Ctr::DriverLogicalRequests);
        assert_eq!(logical, THREADS * (ROUNDS * 6 + 1));
        assert_eq!(logical, obs.get(Ctr::DriverPhysicalRequests) + obs.get(Ctr::DriverCoalesced));
        assert_eq!(d.obs().queue_depth(), 0);
        let trace = d.with_disk(|disk| disk.trace().to_vec());
        for (lba, now) in last_writes {
            let e = trace.iter().rev().find(|e| e.write && e.lba == lba).expect("serviced");
            assert!(now >= e.start + e.service, "clock {now} behind own completion at lba {lba}");
        }
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
            let obs = drv.obs();
            prop_assert_eq!(obs.get(Ctr::DriverLogicalRequests), n);
            prop_assert_eq!(obs.get(Ctr::DriverPhysicalRequests) + obs.get(Ctr::DriverCoalesced), n);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

        /// C-LOOK's rotational pass, against plain C-LOOK (LBA order
        /// from the arm, one wrap) on a twin drive with the same history:
        /// the batch comes back permuted, every plain run stays whole and
        /// in order (so as many disk requests), the cylinders are visited
        /// in the same sequence, and the batch completes no later.
        #[test]
        fn rotational_order_keeps_runs_sweep_and_never_loses(
            blocks in prop::collection::vec((0u64..120, 0u8..8), 1..64),
            arm_block in 0u64..7_000,
            read_block in 0u64..7_000,
            gap_us in 0u64..20_000,
            skew in 0u64..8,
        ) {
            let mut blocks = blocks;
            blocks.sort_unstable_by_key(|b| b.0);
            blocks.dedup_by_key(|b| b.0);
            // One read in four; `skew` sectors off block alignment, a
            // block can straddle a track or a cylinder.
            let batch = || -> Vec<IoReq> {
                blocks
                    .iter()
                    .map(|&(b, dir)| {
                        let lba = b * 8 + skew;
                        if dir < 2 {
                            IoReq::read(lba, 4096)
                        } else {
                            IoReq::write(lba, vec![b as u8; 4096])
                        }
                    })
                    .collect()
            };
            let drive = || {
                let d = Driver::new(Disk::new(models::tiny_test_disk()), DriverConfig::default());
                d.read(read_block * 8, &mut [0u8; 4096]);
                d.write(arm_block * 8, &[1u8; 4096]);
                d.advance(SimDuration::from_micros(gap_us));
                d
            };

            let (d, twin) = (drive(), drive());
            let out: Vec<u64> = d.submit_batch(batch()).iter().map(|r| r.lba).collect();
            let obs = twin.obs();
            let mut plain = batch();
            plain.sort_unstable_by_key(|r| r.lba);
            let plain_done = twin.with_disk_mut(|disk| {
                let cyl = |lba: u64| disk.model().geometry.lba_to_chs(lba).cylinder;
                let split = plain.iter().position(|r| cyl(r.lba) >= disk.arm_cylinder()).unwrap_or(0);
                plain.rotate_left(split);
                service_batch(disk, &obs, &mut plain, twin.now())
            });
            let lbas: Vec<u64> = plain.iter().map(|r| r.lba).collect();

            let mut sorted = out.clone();
            sorted.sort_unstable();
            let mut want = lbas.clone();
            want.sort_unstable();
            prop_assert_eq!(&sorted, &want, "not a permutation");

            let mut runs = Vec::new();
            let mut i = 0;
            while i < plain.len() {
                let (end, _) = run_at(&plain, i);
                runs.push(lbas[i..end].to_vec());
                i = end;
            }
            for run in &runs {
                let at = out.iter().position(|&l| l == run[0]).expect("permutation");
                prop_assert_eq!(&out[at..at + run.len()], &run[..], "a run was split");
            }
            prop_assert_eq!(
                d.obs().get(Ctr::DriverPhysicalRequests),
                twin.obs().get(Ctr::DriverPhysicalRequests)
            );

            let geom = models::tiny_test_disk().geometry;
            let sweep = |lbas: &[u64]| {
                let mut c: Vec<u32> = lbas.iter().map(|&l| geom.lba_to_chs(l).cylinder).collect();
                c.dedup();
                c
            };
            prop_assert_eq!(sweep(&out), sweep(&lbas), "cylinder sweep differs from C-LOOK's");
            prop_assert!(d.now() <= plain_done, "rotational order {} later than {}", d.now(), plain_done);
        }
    }
}
