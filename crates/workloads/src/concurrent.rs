//! The multi-client driver behind E14 (`repro concurrent`) and E16
//! (`repro volume`).
//!
//! N clients share one `FileSystem + Sync` instance — a bare C-FFS or a
//! volume set. Client `t` owns the project directories `/p{d}` with
//! `d % nthreads == t`, so clients allocate from different cylinder
//! groups (and, on a volume set, from different home volumes). The
//! measured window replays one of two session generators ([`Window`]):
//!
//! * [`Window::Warm`] (E14): seeded re-reads, `getattr` and `readdir` of
//!   the client's own files. Strictly read-only and every op a cache hit,
//!   so the window is pure per-client CPU and aggregate ops/s scales with
//!   clients exactly as far as the sharded locks let work overlap.
//! * [`Window::Zipf`] (E16): seeded user sessions. A session picks a
//!   directory by Zipf rank through one seeded permutation, then runs
//!   `ops` iterations: resolve a file by full path (the "open"), then
//!   read it, overwrite it, read the directory's `big` file whole, or
//!   `sync` (the fsync stand-in). Session `s` runs on client
//!   `s % nthreads`.
//!
//! ## Phases
//!
//! 1. **Setup** (main thread): the project directories, then `sync`.
//! 2. **Populate**: each client fills its directories with small files
//!    (plus, for Zipf sessions, one `big` file in every
//!    fourth directory, sized past a volume set's stripe
//!    threshold). Ends with a `sync` barrier.
//! 3. **Window** (*measured*): the session generator above. The phase
//!    hook runs at the populate barrier, so E16 can drop every volume's
//!    caches and make this window cold and disk-bound.
//! 4. **Churn**: seeded unlinks, re-creates and overwrites in owned
//!    directories, then a final `sync`.
//!
//! ## Time discipline: one clock-ordered schedule
//!
//! Each client is its own OS thread with its own simulated clock (the
//! thread-local mirror in [`cffs_obs::Obs`]), and every phase runs its
//! clients on one schedule (`fan_out`): before each workload step
//! — one loop iteration, e.g. one create+write or one open+op — a client
//! waits until its clock is the lowest among the live clients, ties to
//! the lowest index. Exactly one client runs at a time, so the order in
//! which requests reach a disk is a function of the seed, not of OS
//! scheduling: every count and every simulated nanosecond repeats run to
//! run, at any client count. Contention for one spindle is resolved per
//! workload step (a step's requests queue behind those of every earlier
//! step); overlap across volumes, each with its own disk timeline, stays
//! exact. A window's elapsed time is the delta of
//! `Obs::global_clock_ns` — every client's work fits before it.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use cffs_disksim::SimDuration;
use cffs_fslib::path::{mkdir_p, resolve};
use cffs_fslib::{FileSystem, FsResult, Ino};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Zipf exponent over directory popularity, in milli-units (the
/// classic 0.9 skew).
const ZIPF_MILLI: u64 = 900;
/// Percent of Zipf-session iterations that overwrite the opened file.
const WRITE_PCT: u32 = 20;
/// Percent of Zipf-session iterations that `sync` (the fsync stand-in
/// on this surface: write back everything dirty).
const FSYNC_PCT: u32 = 1;
/// Percent of Zipf-session iterations that read the directory's `big`
/// file whole (in directories that have one). Whole-file big reads span
/// every stripe part, so on a volume set they overlap all spindles.
const BIG_PCT: u32 = 20;
/// Under Zipf sessions, every `BIG_EVERY`-th directory gets a `big` file.
const BIG_EVERY: usize = 4;
/// Bytes of each `big` file: past a volume set's default stripe
/// threshold, so session traffic exercises striped reads.
const BIG_SIZE: usize = 256 * 1024;

/// Zipf(s) sampler over ranks `0..n` (rank 0 most popular), tabulated
/// as a fixed-point CDF so sampling is one `u64` draw plus a binary
/// search. `s` is given in milli-units (900 = the classic 0.9 skew).
#[derive(Debug, Clone)]
pub struct Zipf {
    cum: Vec<u64>,
    total: u64,
}

impl Zipf {
    /// Tabulate the CDF for `n` ranks with exponent `s_milli / 1000`.
    pub fn new(n: usize, s_milli: u64) -> Zipf {
        assert!(n > 0, "zipf needs at least one rank");
        let s = s_milli as f64 / 1000.0;
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
        let total_w: f64 = weights.iter().sum();
        let scale = (1u64 << 48) as f64;
        let mut cum = Vec::with_capacity(n);
        let mut acc = 0.0;
        for w in &weights {
            acc += w;
            cum.push(((acc / total_w) * scale) as u64);
        }
        let total = *cum.last().expect("non-empty");
        Zipf { cum, total }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let x = rng.gen_range(0..self.total.max(1));
        self.cum.partition_point(|&c| c <= x).min(self.cum.len() - 1)
    }
}

/// The measured window's session generator.
#[derive(Debug, Clone, Copy)]
pub enum Window {
    /// E14: `rounds` rounds, each re-reading every one of the client's
    /// files in a fresh seeded shuffle, mixing in seeded `getattr` and
    /// `readdir` calls.
    Warm {
        /// Re-read rounds.
        rounds: usize,
    },
    /// E16: `sessions` Zipf sessions of `ops` open+op iterations each.
    Zipf {
        /// Seeded sessions (session `s` runs on client `s % nthreads`).
        sessions: usize,
        /// Open+op iterations per session.
        ops: usize,
    },
}

impl Window {
    /// The window's phase name, as the phase hook sees it.
    pub fn name(&self) -> &'static str {
        match self {
            Window::Warm { .. } => "warm",
            Window::Zipf { .. } => "sessions",
        }
    }

    /// Does directory `d` hold a `big` file?
    fn has_big(&self, d: usize) -> bool {
        matches!(self, Window::Zipf { .. }) && d.is_multiple_of(BIG_EVERY)
    }
}

/// Parameters of one multi-client run.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrentParams {
    /// Clients, each its own OS thread, sharing the file system.
    pub nthreads: usize,
    /// Project directories `/p0 .. /p{ndirs-1}`; client `t` owns those
    /// with `d % nthreads == t`.
    pub ndirs: usize,
    /// Small files per directory.
    pub files_per_dir: usize,
    /// Bytes per small file.
    pub file_size: usize,
    /// The measured window's session generator.
    pub window: Window,
    /// RNG seed; client (or session) `i` derives its stream from
    /// `seed ^ i`.
    pub seed: u64,
}

impl Default for ConcurrentParams {
    fn default() -> Self {
        ConcurrentParams {
            nthreads: 4,
            ndirs: 16,
            files_per_dir: 32,
            file_size: 4096,
            window: Window::Warm { rounds: 1 },
            seed: 42,
        }
    }
}

/// Result of one multi-client run.
#[derive(Debug, Clone)]
pub struct ConcurrentResult {
    /// Clients that ran.
    pub nthreads: usize,
    /// Operations completed per client, all phases (create/write/read/
    /// getattr/readdir/lookup/unlink/sync each count one).
    pub per_thread_ops: Vec<u64>,
    /// Operations completed per client inside the measured window.
    pub window_ops: Vec<u64>,
    /// Payload bytes written plus read, all clients, all phases.
    pub bytes: u64,
    /// Elapsed simulated time of the measured window (cross-client clock
    /// high-water mark delta).
    pub elapsed: SimDuration,
}

impl ConcurrentResult {
    /// Total operations across clients and phases.
    pub fn total_ops(&self) -> u64 {
        self.per_thread_ops.iter().sum()
    }

    /// Operations inside the measured window, all clients.
    pub fn total_window_ops(&self) -> u64 {
        self.window_ops.iter().sum()
    }

    /// Aggregate measured-window operations per second of simulated time.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed.as_nanos() == 0 {
            return f64::INFINITY;
        }
        self.total_window_ops() as f64 / self.elapsed.as_secs_f64()
    }
}

/// The clock-ordered schedule [`fan_out`] runs a phase's clients on: the
/// simulated clock each client waits at (`None` once it left), and one
/// condition variable per client, so a hand-off wakes only the client
/// whose turn it is.
struct Schedule {
    clocks: Mutex<Vec<Option<u64>>>,
    turns: Vec<Condvar>,
}

impl Schedule {
    fn lock(&self) -> MutexGuard<'_, Vec<Option<u64>>> {
        self.clocks.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wake the client whose turn it now is, if any.
    fn hand_off(&self, clocks: &[Option<u64>]) {
        if let Some(next) = lowest(clocks) {
            self.turns[next].notify_one();
        }
    }
}

/// The live client whose clock is lowest, ties to the lowest index.
fn lowest(clocks: &[Option<u64>]) -> Option<usize> {
    clocks.iter().enumerate().filter_map(|(t, c)| c.map(|ns| (ns, t))).min().map(|(_, t)| t)
}

/// One client's seat on the schedule. Dropping it — at the end of the
/// client's body, on an error return or in a panic — leaves the
/// schedule, so a failed client never holds its siblings up.
struct Seat<'a> {
    sched: &'a Schedule,
    t: usize,
}

impl Seat<'_> {
    /// Wait for this client's turn to take its next workload step: until
    /// its simulated clock (`fs.now()` on this thread) is the lowest
    /// among the live clients.
    fn step(&self, fs: &(impl FileSystem + ?Sized)) {
        let mut clocks = self.sched.lock();
        clocks[self.t] = Some(fs.now().as_nanos());
        if lowest(&clocks) == Some(self.t) {
            return;
        }
        self.sched.hand_off(&clocks);
        while lowest(&clocks) != Some(self.t) {
            clocks = self.sched.turns[self.t].wait(clocks).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for Seat<'_> {
    fn drop(&mut self) {
        let mut clocks = self.sched.lock();
        clocks[self.t] = None;
        self.sched.hand_off(&clocks);
    }
}

/// Fan a per-client body over client indices on the clock-ordered
/// schedule and collect each client's result, propagating the first
/// error. The body calls [`Seat::step`] before each workload step and
/// touches the file system only inside a step.
///
/// Each client is a scoped OS thread, so its clock, its feed op row
/// (`Obs::bind_thread_slot`) and a volume set's per-volume clocks stay
/// thread-local. Every client's clock is pinned to the fork-time
/// watermark before its first step: the clients start the phase at one
/// simulated instant, whatever order their threads start in.
fn fan_out<R: Send>(
    fs: &(impl FileSystem + Sync + ?Sized),
    nthreads: usize,
    body: impl Fn(usize, &Seat) -> FsResult<R> + Sync,
) -> FsResult<Vec<R>> {
    let obs = fs.obs();
    let fork_ns = clock_ns(fs);
    let sched = Schedule {
        clocks: Mutex::new(vec![Some(fork_ns); nthreads]),
        turns: (0..nthreads).map(|_| Condvar::new()).collect(),
    };
    let results: Vec<FsResult<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nthreads)
            .map(|t| {
                let (body, obs, sched) = (&body, obs.clone(), &sched);
                scope.spawn(move || {
                    let seat = Seat { sched, t };
                    if let Some(o) = obs {
                        o.pin_clock_ns(fork_ns);
                        // Slot 0 is the main thread; clients are 1-based
                        // so the feed's per-thread op rows tell them apart.
                        o.bind_thread_slot(t + 1);
                    }
                    body(t, &seat)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    results.into_iter().collect()
}

/// Deterministic content byte for small file `f` of directory `d`.
fn fill_byte(d: usize, f: usize) -> u8 {
    ((d.wrapping_mul(31) + f) & 0xff) as u8
}

/// Phase 2 body: fill this client's directories. Returns (ops, bytes,
/// small-file inos per directory).
fn populate(
    fs: &(impl FileSystem + Sync + ?Sized),
    seat: &Seat,
    dirs: &[(usize, Ino)],
    p: &ConcurrentParams,
) -> FsResult<(u64, u64, Vec<Vec<Ino>>)> {
    let mut ops = 0u64;
    let mut bytes = 0u64;
    let mut inos = Vec::with_capacity(dirs.len());
    for &(d, dir) in dirs {
        let mut files = Vec::with_capacity(p.files_per_dir);
        for f in 0..p.files_per_dir {
            seat.step(fs);
            let ino = fs.create(dir, &format!("f{f}"))?;
            fs.write(ino, 0, &vec![fill_byte(d, f); p.file_size])?;
            ops += 2;
            bytes += p.file_size as u64;
            files.push(ino);
        }
        if p.window.has_big(d) {
            seat.step(fs);
            let big = fs.create(dir, "big")?;
            let payload: Vec<u8> = (0..BIG_SIZE).map(|i| (i % 251) as u8).collect();
            fs.write(big, 0, &payload)?;
            ops += 2;
            bytes += BIG_SIZE as u64;
        }
        inos.push(files);
    }
    Ok((ops, bytes, inos))
}

/// Phase 3 body under [`Window::Warm`]: seeded re-reads, attribute and
/// directory scans, all cache hits and strictly read-only. Returns
/// (ops, bytes).
///
/// The window issues no writes on purpose: a dirty buffer can trip the
/// delayed-flush watermark mid-window, and the resulting write-back's
/// completion time on the shared disk timeline would make the window
/// measure the disk, not the per-client CPU whose overlap it is about.
fn warm(
    fs: &(impl FileSystem + Sync + ?Sized),
    seat: &Seat,
    t: usize,
    dirs: &[(usize, Ino)],
    inos: &[Vec<Ino>],
    rounds: usize,
    p: &ConcurrentParams,
) -> FsResult<(u64, u64)> {
    let mut rng = StdRng::seed_from_u64((p.seed ^ t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut buf = vec![0u8; p.file_size];
    let mut ops = 0u64;
    let mut bytes = 0u64;
    for _round in 0..rounds {
        let mut order: Vec<(usize, usize)> = (0..dirs.len())
            .flat_map(|i| (0..p.files_per_dir).map(move |f| (i, f)))
            .collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i as u64) as usize);
        }
        for (i, f) in order {
            seat.step(fs);
            let n = fs.read(inos[i][f], 0, &mut buf)?;
            ops += 1;
            bytes += n as u64;
            match rng.gen_range(0..16u64) {
                0..=3 => {
                    fs.getattr(inos[i][f])?;
                    ops += 1;
                }
                4..=5 => {
                    fs.readdir(dirs[i].1)?;
                    ops += 1;
                }
                _ => {}
            }
        }
    }
    Ok((ops, bytes))
}

/// Phase 3 body under [`Window::Zipf`]: replay this client's sessions,
/// drawing each session's directory from `popularity` (the sampler and
/// the rank → directory permutation). Returns (ops, bytes).
fn zipf_sessions(
    fs: &(impl FileSystem + Sync + ?Sized),
    seat: &Seat,
    t: usize,
    sessions: usize,
    ops_per_session: usize,
    (zipf, dir_perm): &(Zipf, Vec<usize>),
    p: &ConcurrentParams,
) -> FsResult<(u64, u64)> {
    let mut ops = 0u64;
    let mut bytes = 0u64;
    let mut buf = vec![0u8; p.file_size.max(BIG_SIZE)];
    for s in (t..sessions).step_by(p.nthreads) {
        let mut rng =
            StdRng::seed_from_u64((p.seed ^ s as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        let d = dir_perm[zipf.sample(&mut rng)];
        for _ in 0..ops_per_session {
            seat.step(fs);
            let f = rng.gen_range(0..p.files_per_dir as u64) as usize;
            let roll = rng.gen_range(0..100u64) as u32;
            if roll < WRITE_PCT {
                let ino = resolve(fs, &format!("/p{d}/f{f}"))?;
                fs.write(ino, 0, &vec![fill_byte(d, f); p.file_size])?;
                ops += 2;
                bytes += p.file_size as u64;
            } else if roll < WRITE_PCT + FSYNC_PCT {
                fs.sync()?;
                ops += 1;
            } else if roll < WRITE_PCT + FSYNC_PCT + BIG_PCT && p.window.has_big(d) {
                let ino = resolve(fs, &format!("/p{d}/big"))?;
                let n = fs.read(ino, 0, &mut buf[..BIG_SIZE])?;
                ops += 2;
                bytes += n as u64;
            } else {
                let ino = resolve(fs, &format!("/p{d}/f{f}"))?;
                let n = fs.read(ino, 0, &mut buf[..p.file_size])?;
                ops += 2;
                bytes += n as u64;
            }
        }
    }
    Ok((ops, bytes))
}

/// Phase 4 body: seeded unlink + re-create and overwrite churn in this
/// client's directories. Returns (ops, bytes).
fn churn(
    fs: &(impl FileSystem + Sync + ?Sized),
    seat: &Seat,
    t: usize,
    dirs: &[(usize, Ino)],
    p: &ConcurrentParams,
) -> FsResult<(u64, u64)> {
    let mut rng =
        StdRng::seed_from_u64((p.seed ^ t as u64).wrapping_mul(0xD134_2543_DE82_EF95));
    let mut ops = 0u64;
    let mut bytes = 0u64;
    for &(d, dir) in dirs {
        for f in 0..p.files_per_dir {
            seat.step(fs);
            match rng.gen_range(0..4u64) {
                0 => {
                    // delete, half the time recreate smaller
                    fs.unlink(dir, &format!("f{f}"))?;
                    ops += 1;
                    if rng.gen_range(0..2u64) == 0 {
                        let ino = fs.create(dir, &format!("f{f}"))?;
                        let half = (p.file_size / 2).max(1);
                        fs.write(ino, 0, &vec![fill_byte(d, f); half])?;
                        ops += 2;
                        bytes += half as u64;
                    }
                }
                1 => {
                    let ino = fs.lookup(dir, &format!("f{f}"))?;
                    fs.write(ino, 0, &vec![fill_byte(d, f); p.file_size])?;
                    ops += 2;
                    bytes += p.file_size as u64;
                }
                _ => {}
            }
        }
    }
    Ok((ops, bytes))
}

/// The simulated clock a window is timed against: the cross-client
/// high-water mark.
fn clock_ns(fs: &(impl FileSystem + Sync + ?Sized)) -> u64 {
    match fs.obs() {
        Some(o) => o.global_clock_ns(),
        None => fs.now().as_nanos(),
    }
}

/// Run the workload: set up the directories, populate, sync to a
/// quiescent point, run the measured window, churn, final sync.
pub fn run(
    fs: &(impl FileSystem + Sync + ?Sized),
    p: &ConcurrentParams,
) -> FsResult<ConcurrentResult> {
    run_with_phase_hook(fs, p, |_| {})
}

/// [`run`], invoking `hook` with the phase name at each quiescent point
/// (after every barrier: "setup", "populate", [`Window::name`],
/// "churn"). No client thread is live when the hook runs, so it can cut
/// feed frames — or drop every volume's caches after "populate" to make
/// the measured window cold and disk-bound.
pub fn run_with_phase_hook(
    fs: &(impl FileSystem + Sync + ?Sized),
    p: &ConcurrentParams,
    hook: impl Fn(&str),
) -> FsResult<ConcurrentResult> {
    assert!(p.nthreads > 0 && p.ndirs > 0 && p.files_per_dir > 0);

    // Phase 1 — setup (main thread). Directory CGs are assigned
    // round-robin by the allocator, so consecutive mkdirs land in
    // different cylinder groups.
    let mut owned: Vec<Vec<(usize, Ino)>> = vec![Vec::new(); p.nthreads];
    for d in 0..p.ndirs {
        owned[d % p.nthreads].push((d, mkdir_p(fs, &format!("/p{d}"))?));
    }
    fs.sync()?;
    hook("setup");

    let mut per_thread_ops = vec![0u64; p.nthreads];
    let mut bytes = 0u64;
    let mut tally = |t: usize, (ops, b): (u64, u64)| {
        per_thread_ops[t] += ops;
        bytes += b;
        ops
    };

    // Phase 2 — populate, then a sync barrier.
    let pop = fan_out(fs, p.nthreads, |t, seat| populate(fs, seat, &owned[t], p))?;
    let mut inos = Vec::with_capacity(p.nthreads);
    for (t, (ops, b, files)) in pop.into_iter().enumerate() {
        tally(t, (ops, b));
        inos.push(files);
    }
    fs.sync()?;
    hook("populate");

    // Phase 3 — the measured window. The Zipf directory popularity
    // ranking is one seeded permutation shared by every session.
    let mut dir_perm: Vec<usize> = (0..p.ndirs).collect();
    let mut prng = StdRng::seed_from_u64(p.seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
    for i in (1..dir_perm.len()).rev() {
        dir_perm.swap(i, prng.gen_range(0..=i as u64) as usize);
    }
    let popularity = (Zipf::new(p.ndirs, ZIPF_MILLI), dir_perm);
    let start_ns = clock_ns(fs);
    let ran = fan_out(fs, p.nthreads, |t, seat| match p.window {
        Window::Warm { rounds } => warm(fs, seat, t, &owned[t], &inos[t], rounds, p),
        Window::Zipf { sessions, ops } => {
            zipf_sessions(fs, seat, t, sessions, ops, &popularity, p)
        }
    })?;
    let end_ns = clock_ns(fs);
    let window_ops: Vec<u64> = ran.into_iter().enumerate().map(|(t, r)| tally(t, r)).collect();
    hook(p.window.name());

    // Phase 4 — churn, then the final sync.
    let churned = fan_out(fs, p.nthreads, |t, seat| churn(fs, seat, t, &owned[t], p))?;
    for (t, r) in churned.into_iter().enumerate() {
        tally(t, r);
    }
    fs.sync()?;
    hook("churn");

    Ok(ConcurrentResult {
        nthreads: p.nthreads,
        per_thread_ops,
        window_ops,
        bytes,
        elapsed: SimDuration::from_nanos(end_ns.saturating_sub(start_ns)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_deterministic() {
        let z = Zipf::new(50, 900);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0u64; 50];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10], "rank 0 must beat rank 10");
        assert!(counts[0] > counts[49] * 4, "heavy skew expected");
        let mut rng2 = StdRng::seed_from_u64(7);
        let again: Vec<usize> = (0..100).map(|_| z.sample(&mut rng2)).collect();
        let mut rng3 = StdRng::seed_from_u64(7);
        let thrice: Vec<usize> = (0..100).map(|_| z.sample(&mut rng3)).collect();
        assert_eq!(again, thrice);
    }

    #[test]
    fn zipf_zero_exponent_is_uniformish() {
        let z = Zipf::new(10, 0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = vec![0u64; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!(c > 500, "uniform-ish draw got {counts:?}");
        }
    }
}
