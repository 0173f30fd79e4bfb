//! The multi-client driver behind E14 (`repro concurrent`) and E16
//! (`repro volume`).
//!
//! N clients share one `FileSystem` instance — a bare C-FFS or a volume
//! set. Client `t` owns the project directories `/p{d}` with
//! `d % nthreads == t`, so clients allocate from different cylinder
//! groups (and, on a volume set, from different home volumes). The
//! measured window replays one of two session generators ([`Window`]):
//!
//! * [`Window::Warm`] (E14): seeded re-reads, `getattr` and `readdir` of
//!   the client's own files. Strictly read-only and every op a cache hit,
//!   so the window is pure per-client CPU and aggregate ops/s scales with
//!   clients exactly as far as their simulated timelines overlap.
//! * [`Window::Zipf`] (E16): seeded user sessions. A session picks a
//!   directory by Zipf rank through one seeded permutation, then runs
//!   `ops` iterations: resolve a file by full path (the "open"), then
//!   read it, overwrite it, read the directory's `big` file whole, or
//!   `sync` (the fsync stand-in). Session `s` runs on client
//!   `s % nthreads`.
//!
//! ## Phases
//!
//! 1. **Setup** (the caller): the project directories, then `sync`.
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
//! A client is a context, not a thread: its own simulated clock (the
//! thread-local mirror in [`cffs_obs::Obs`]), feed op row and per-volume
//! clocks, kept in a [`cffs_obs::ThreadState`]. Each phase first plans
//! every client's workload steps from the seed — one step is one loop
//! iteration, e.g. one create+write or one open+op — and then takes them
//! on the calling thread, always the step of the client whose clock is
//! lowest, ties to the lowest index, with that client's context swapped
//! in. The order in which requests reach a disk is therefore a function
//! of the seed: every count and every simulated nanosecond repeats run
//! to run, at any client count. Contention for one spindle is resolved
//! per workload step (a step's requests queue behind those of every
//! earlier step); overlap across volumes, each with its own disk
//! timeline, stays exact. A window's elapsed time is the delta of
//! `Obs::global_clock_ns` — every client's work fits before it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cffs_disksim::SimDuration;
use cffs_fslib::path::{mkdir_p, resolve};
use cffs_fslib::{FileSystem, FsResult, Ino};
use cffs_obs::{swap_thread_state, ThreadState};
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
    /// Clients sharing the file system, each in its own context with
    /// its own simulated clock (all run on the calling thread).
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

/// How a step's read or write finds its file. Every variant but
/// `Held` is one more file-system call, so it counts one op.
enum File {
    /// A file the client already holds.
    Held(Ino),
    /// `create(dir, name)`.
    Create(Ino, String),
    /// `lookup(dir, name)`.
    Lookup(Ino, String),
    /// Resolve a full path from the root (the "open").
    Resolve(String),
}

/// One file-system call of a client's step; each counts one op.
enum Op {
    /// Write `len` bytes at offset 0: all `fill`, or the big file's
    /// `i % 251` pattern for `None`.
    Write(File, usize, Option<u8>),
    /// Read `len` bytes from offset 0.
    Read(File, usize),
    Getattr(Ino),
    Readdir(Ino),
    Unlink(Ino, String),
    Sync,
}

/// One workload step: an op, and maybe a second one on the same turn
/// (a re-read's `getattr`, an unlink's re-create).
type Step = (Op, Option<Op>);

/// One client's running totals across phases.
#[derive(Default)]
struct Tally {
    ops: u64,
    bytes: u64,
    /// Every file the client created, in order.
    inos: Vec<Ino>,
}

/// A client's context, swapped onto this thread for one step. Dropping
/// it — after the step, or in a panic — swaps the caller's state back.
struct Swapped<'a>(&'a mut ThreadState);

impl Drop for Swapped<'_> {
    fn drop(&mut self) {
        swap_thread_state(self.0);
    }
}

/// Run one phase: every client's planned steps, one step at a time,
/// always the client whose simulated clock is lowest next (ties to the
/// lowest index). The first failing step ends the phase.
///
/// Each client runs in its own context ([`ThreadState`]): its clock, its
/// feed op row and a volume set's per-volume clocks. A context starts
/// fresh, as a new thread's would, pinned to the fork-time watermark so
/// every client starts the phase at one simulated instant, and bound to
/// op slot `t + 1` so the feed tells clients from the caller's slot 0.
fn run_phase(
    fs: &(impl FileSystem + ?Sized),
    plans: Vec<Vec<Step>>,
    tallies: &mut [Tally],
) -> FsResult<()> {
    let obs = fs.obs();
    let fork_ns = clock_ns(fs);
    let mut ctx: Vec<ThreadState> = plans.iter().map(|_| ThreadState::default()).collect();
    let mut plans: Vec<_> = plans.into_iter().map(Vec::into_iter).collect();
    let mut turns: BinaryHeap<_> = (0..plans.len()).map(|t| Reverse((fork_ns, t))).collect();
    let mut buf = Vec::new();
    while let Some(Reverse((_, t))) = turns.pop() {
        let Some(step) = plans[t].next() else { continue };
        let now = {
            swap_thread_state(&mut ctx[t]);
            let _back = Swapped(&mut ctx[t]);
            if let Some(o) = &obs {
                // Both are no-ops after the client's first step.
                o.pin_clock_ns(fork_ns);
                o.bind_thread_slot(t + 1);
            }
            apply(fs, step, &mut tallies[t], &mut buf).map(|()| fs.now().as_nanos())
        }?;
        turns.push(Reverse((now, t)));
    }
    Ok(())
}

/// Take one step on `fs`, tallying its ops, payload bytes and creates.
fn apply(
    fs: &(impl FileSystem + ?Sized),
    (first, then): Step,
    tally: &mut Tally,
    buf: &mut Vec<u8>,
) -> FsResult<()> {
    for op in std::iter::once(first).chain(then) {
        tally.ops += 1;
        match op {
            Op::Write(file, len, fill) => {
                let ino = open(fs, file, tally)?;
                let data: Vec<u8> = match fill {
                    Some(b) => vec![b; len],
                    None => (0..len).map(|i| (i % 251) as u8).collect(),
                };
                fs.write(ino, 0, &data)?;
                tally.bytes += len as u64;
            }
            Op::Read(file, len) => {
                let ino = open(fs, file, tally)?;
                buf.resize(buf.len().max(len), 0);
                tally.bytes += fs.read(ino, 0, &mut buf[..len])? as u64;
            }
            Op::Getattr(ino) => fs.getattr(ino).map(|_| ())?,
            Op::Readdir(dir) => fs.readdir(dir).map(|_| ())?,
            Op::Unlink(dir, name) => fs.unlink(dir, &name)?,
            Op::Sync => fs.sync()?,
        }
    }
    Ok(())
}

/// Find a step's file.
fn open(fs: &(impl FileSystem + ?Sized), file: File, tally: &mut Tally) -> FsResult<Ino> {
    let ino = match file {
        File::Held(ino) => return Ok(ino),
        File::Create(dir, name) => {
            let ino = fs.create(dir, &name)?;
            tally.inos.push(ino);
            ino
        }
        File::Lookup(dir, name) => fs.lookup(dir, &name)?,
        File::Resolve(path) => resolve(fs, &path)?,
    };
    tally.ops += 1;
    Ok(ino)
}

/// Deterministic content byte for small file `f` of directory `d`.
fn fill_byte(d: usize, f: usize) -> u8 {
    ((d.wrapping_mul(31) + f) & 0xff) as u8
}

/// Phase 2 plan: fill this client's directories.
fn populate(dirs: &[(usize, Ino)], p: &ConcurrentParams) -> Vec<Step> {
    let mut plan = Vec::new();
    for &(d, dir) in dirs {
        for f in 0..p.files_per_dir {
            let file = File::Create(dir, format!("f{f}"));
            plan.push((Op::Write(file, p.file_size, Some(fill_byte(d, f))), None));
        }
        if p.window.has_big(d) {
            plan.push((Op::Write(File::Create(dir, "big".into()), BIG_SIZE, None), None));
        }
    }
    plan
}

/// Phase 3 plan under [`Window::Warm`]: seeded re-reads, attribute and
/// directory scans, all cache hits and strictly read-only. `inos` are
/// the client's populated files (no `big` ones under this window), in
/// directory order.
///
/// The window issues no writes on purpose: a dirty buffer can trip the
/// delayed-flush watermark mid-window, and the resulting write-back's
/// completion time on the shared disk timeline would make the window
/// measure the disk, not the per-client CPU whose overlap it is about.
fn warm(
    t: usize,
    dirs: &[(usize, Ino)],
    inos: &[Ino],
    rounds: usize,
    p: &ConcurrentParams,
) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64((p.seed ^ t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut plan = Vec::new();
    for _round in 0..rounds {
        let mut order: Vec<(usize, usize)> = (0..dirs.len())
            .flat_map(|i| (0..p.files_per_dir).map(move |f| (i, f)))
            .collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i as u64) as usize);
        }
        for (i, f) in order {
            let ino = inos[i * p.files_per_dir + f];
            let then = match rng.gen_range(0..16u64) {
                0..=3 => Some(Op::Getattr(ino)),
                4..=5 => Some(Op::Readdir(dirs[i].1)),
                _ => None,
            };
            plan.push((Op::Read(File::Held(ino), p.file_size), then));
        }
    }
    plan
}

/// Phase 3 plan under [`Window::Zipf`]: this client's sessions, drawing
/// each session's directory from `popularity` (the sampler and the
/// rank → directory permutation).
fn zipf_sessions(
    t: usize,
    sessions: usize,
    ops_per_session: usize,
    (zipf, dir_perm): &(Zipf, Vec<usize>),
    p: &ConcurrentParams,
) -> Vec<Step> {
    let mut plan = Vec::new();
    for s in (t..sessions).step_by(p.nthreads) {
        let mut rng =
            StdRng::seed_from_u64((p.seed ^ s as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        let d = dir_perm[zipf.sample(&mut rng)];
        for _ in 0..ops_per_session {
            let f = rng.gen_range(0..p.files_per_dir as u64) as usize;
            let roll = rng.gen_range(0..100u64) as u32;
            let small = || File::Resolve(format!("/p{d}/f{f}"));
            let op = if roll < WRITE_PCT {
                Op::Write(small(), p.file_size, Some(fill_byte(d, f)))
            } else if roll < WRITE_PCT + FSYNC_PCT {
                Op::Sync
            } else if roll < WRITE_PCT + FSYNC_PCT + BIG_PCT && p.window.has_big(d) {
                Op::Read(File::Resolve(format!("/p{d}/big")), BIG_SIZE)
            } else {
                Op::Read(small(), p.file_size)
            };
            plan.push((op, None));
        }
    }
    plan
}

/// Phase 4 plan: seeded unlink + re-create and overwrite churn in this
/// client's directories. A draw that picks neither does no I/O, so it
/// takes no step.
fn churn(t: usize, dirs: &[(usize, Ino)], p: &ConcurrentParams) -> Vec<Step> {
    let mut rng =
        StdRng::seed_from_u64((p.seed ^ t as u64).wrapping_mul(0xD134_2543_DE82_EF95));
    let mut plan = Vec::new();
    for &(d, dir) in dirs {
        for f in 0..p.files_per_dir {
            let (name, fill) = (format!("f{f}"), Some(fill_byte(d, f)));
            match rng.gen_range(0..4u64) {
                0 => {
                    // delete, half the time recreate smaller
                    let half = (p.file_size / 2).max(1);
                    let recreate = (rng.gen_range(0..2u64) == 0)
                        .then(|| Op::Write(File::Create(dir, name.clone()), half, fill));
                    plan.push((Op::Unlink(dir, name), recreate));
                }
                1 => plan.push((Op::Write(File::Lookup(dir, name), p.file_size, fill), None)),
                _ => {}
            }
        }
    }
    plan
}

/// The simulated clock a window is timed against: the cross-client
/// high-water mark.
fn clock_ns(fs: &(impl FileSystem + ?Sized)) -> u64 {
    match fs.obs() {
        Some(o) => o.global_clock_ns(),
        None => fs.now().as_nanos(),
    }
}

/// Run the workload: set up the directories, populate, sync to a
/// quiescent point, run the measured window, churn, final sync.
pub fn run(fs: &(impl FileSystem + ?Sized), p: &ConcurrentParams) -> FsResult<ConcurrentResult> {
    run_with_phase_hook(fs, p, |_| {})
}

/// [`run`], invoking `hook` with the phase name at each quiescent point
/// (after every barrier: "setup", "populate", [`Window::name`],
/// "churn"). No client is mid-step when the hook runs, so it can cut
/// feed frames — or drop every volume's caches after "populate" to make
/// the measured window cold and disk-bound.
pub fn run_with_phase_hook(
    fs: &(impl FileSystem + ?Sized),
    p: &ConcurrentParams,
    hook: impl Fn(&str),
) -> FsResult<ConcurrentResult> {
    assert!(p.nthreads > 0 && p.ndirs > 0 && p.files_per_dir > 0);
    let clients = 0..p.nthreads;

    // Phase 1 — setup (the caller). Directory CGs are assigned
    // round-robin by the allocator, so consecutive mkdirs land in
    // different cylinder groups.
    let mut owned: Vec<Vec<(usize, Ino)>> = vec![Vec::new(); p.nthreads];
    for d in 0..p.ndirs {
        owned[d % p.nthreads].push((d, mkdir_p(fs, &format!("/p{d}"))?));
    }
    fs.sync()?;
    hook("setup");

    // Phase 2 — populate, then a sync barrier.
    let mut tallies: Vec<Tally> = clients.clone().map(|_| Tally::default()).collect();
    run_phase(fs, clients.clone().map(|t| populate(&owned[t], p)).collect(), &mut tallies)?;
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
    let plans = clients.clone().map(|t| match p.window {
        Window::Warm { rounds } => warm(t, &owned[t], &tallies[t].inos, rounds, p),
        Window::Zipf { sessions, ops } => zipf_sessions(t, sessions, ops, &popularity, p),
    });
    let plans = plans.collect();
    let before: Vec<u64> = tallies.iter().map(|c| c.ops).collect();
    let start_ns = clock_ns(fs);
    run_phase(fs, plans, &mut tallies)?;
    let end_ns = clock_ns(fs);
    let window_ops = tallies.iter().zip(before).map(|(c, b)| c.ops - b).collect();
    hook(p.window.name());

    // Phase 4 — churn, then the final sync.
    run_phase(fs, clients.map(|t| churn(t, &owned[t], p)).collect(), &mut tallies)?;
    fs.sync()?;
    hook("churn");

    Ok(ConcurrentResult {
        nthreads: p.nthreads,
        per_thread_ops: tallies.iter().map(|c| c.ops).collect(),
        window_ops,
        bytes: tallies.iter().map(|c| c.bytes).sum(),
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
