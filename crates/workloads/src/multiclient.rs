//! Multi-client session driver for the scale-out volume work.
//!
//! Replays a fleet of seeded user *sessions* — open/read/write/fsync
//! mixes with Zipf-skewed directory popularity — against any
//! `FileSystem + Sync` instance. This is the workload behind E16
//! (`repro volume`): thousands of sessions spread over a handful of OS
//! threads, where a popular-project skew concentrates traffic the way a
//! production namespace would, and per-directory sharding decides how
//! much of it each disk absorbs.
//!
//! ## Phases
//!
//! 1. **Setup** (main thread): `ndirs` project directories `/p0..`,
//!    then `sync`.
//! 2. **Populate** (threaded): each thread fills the directories it owns
//!    (`d % nthreads`) with `files_per_dir` small files, plus one
//!    `big` file in every `big_every`-th directory (sized to cross a
//!    volume set's stripe threshold). Ends with a `sync` barrier.
//! 3. **Sessions** (threaded, *measured*): each thread replays the
//!    sessions it owns (`s % nthreads`). A session picks a directory by
//!    Zipf rank through a seeded permutation, then runs
//!    `ops_per_session` iterations: resolve a file by full path (the
//!    "open"), then read it, overwrite it, read every byte of the
//!    big file, or `sync` (the fsync stand-in), per the seeded mix.
//!    The caller's phase hook runs at the populate barrier, so E16 can
//!    drop every volume's caches and make this window disk-bound.
//! 4. **Churn** (threaded): seeded unlinks and re-creates in owned
//!    directories, then a final `sync` — the mutation pass the fsck
//!    acceptance gate runs after.
//!
//! ## Determinism
//!
//! Session work is partitioned by session index, never stolen, so op
//! and byte tallies are exact across runs at any thread count. With
//! `nthreads == 1` the whole run (including every feed frame) is
//! byte-deterministic; multi-threaded runs share the per-volume disk
//! timelines and are deterministic in counts but not in nanoseconds —
//! the same discipline as [`crate::concurrent`].

use cffs_disksim::SimDuration;
use cffs_fslib::path::{mkdir_p, resolve};
use cffs_fslib::{FileSystem, FsResult, Ino};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::concurrent::fan_out;

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

/// Parameters of one multi-client run.
#[derive(Debug, Clone, Copy)]
pub struct MulticlientParams {
    /// OS threads the sessions are spread over.
    pub nthreads: usize,
    /// Seeded client sessions (session `s` runs on thread
    /// `s % nthreads`).
    pub sessions: usize,
    /// Project directories `/p0 .. /p{ndirs-1}`.
    pub ndirs: usize,
    /// Small files per directory.
    pub files_per_dir: usize,
    /// Bytes per small file.
    pub file_size: usize,
    /// Open+op iterations per session.
    pub ops_per_session: usize,
    /// Zipf exponent over directory popularity, in milli-units
    /// (900 = 0.9; 0 = uniform).
    pub zipf_milli: u64,
    /// Percent of session iterations that overwrite the opened file.
    pub write_pct: u32,
    /// Percent of session iterations that `sync` (the fsync stand-in on
    /// this surface: write back everything dirty).
    pub fsync_pct: u32,
    /// Percent of session iterations that read the directory's `big`
    /// file whole instead (skipped in directories that have none); the
    /// rest read the opened small file whole. Whole-file big reads span
    /// every stripe part, so on a volume set they overlap all spindles.
    pub big_pct: u32,
    /// Every `big_every`-th directory gets one `big` file (0 = none).
    pub big_every: usize,
    /// Bytes of each `big` file — size it past a volume set's stripe
    /// threshold and session traffic exercises striped reads.
    pub big_size: usize,
    /// RNG seed; session `s` derives its stream from `seed ^ s`.
    pub seed: u64,
}

impl Default for MulticlientParams {
    fn default() -> Self {
        MulticlientParams {
            nthreads: 4,
            sessions: 2000,
            ndirs: 64,
            files_per_dir: 16,
            file_size: 4096,
            ops_per_session: 8,
            zipf_milli: 900,
            write_pct: 20,
            fsync_pct: 1,
            big_pct: 20,
            big_every: 4,
            big_size: 256 * 1024,
            seed: 42,
        }
    }
}

/// Result of one multi-client run.
#[derive(Debug, Clone)]
pub struct MulticlientResult {
    /// Threads that ran.
    pub nthreads: usize,
    /// Sessions replayed.
    pub sessions: usize,
    /// Operations completed per thread, all phases.
    pub per_thread_ops: Vec<u64>,
    /// Operations completed per thread inside the measured sessions
    /// window.
    pub session_ops: Vec<u64>,
    /// Payload bytes written plus read, all threads, all phases.
    pub bytes: u64,
    /// Elapsed simulated time of the sessions window (cross-thread
    /// clock high-water mark delta).
    pub elapsed: SimDuration,
}

impl MulticlientResult {
    /// Total operations across threads and phases.
    pub fn total_ops(&self) -> u64 {
        self.per_thread_ops.iter().sum()
    }

    /// Operations inside the measured sessions window, all threads.
    pub fn total_session_ops(&self) -> u64 {
        self.session_ops.iter().sum()
    }

    /// Aggregate sessions-window operations per second of simulated
    /// time — the number the E16 scaling gate is about.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed.as_nanos() == 0 {
            return f64::INFINITY;
        }
        self.total_session_ops() as f64 / self.elapsed.as_secs_f64()
    }
}

/// Deterministic content byte for small file `f` of directory `d`.
fn fill_byte(d: usize, f: usize) -> u8 {
    ((d.wrapping_mul(31) + f) & 0xff) as u8
}

fn has_big(d: usize, p: &MulticlientParams) -> bool {
    p.big_every > 0 && d.is_multiple_of(p.big_every) && p.big_size > 0
}

/// Phase 2 body: fill this thread's directories. Returns (ops, bytes).
fn populate(
    fs: &(impl FileSystem + Sync + ?Sized),
    t: usize,
    dirs: &[Ino],
    p: &MulticlientParams,
) -> FsResult<(u64, u64)> {
    let mut ops = 0u64;
    let mut bytes = 0u64;
    for (i, &dir) in dirs.iter().enumerate() {
        let d = t + i * p.nthreads; // global directory index
        for f in 0..p.files_per_dir {
            let ino = fs.create(dir, &format!("f{f}"))?;
            fs.write(ino, 0, &vec![fill_byte(d, f); p.file_size])?;
            ops += 2;
            bytes += p.file_size as u64;
        }
        if has_big(d, p) {
            let big = fs.create(dir, "big")?;
            let payload: Vec<u8> = (0..p.big_size).map(|i| (i % 251) as u8).collect();
            fs.write(big, 0, &payload)?;
            ops += 2;
            bytes += p.big_size as u64;
        }
    }
    Ok((ops, bytes))
}

/// Phase 3 body: replay this thread's sessions. Returns (ops, bytes).
fn sessions(
    fs: &(impl FileSystem + Sync + ?Sized),
    t: usize,
    zipf: &Zipf,
    dir_perm: &[usize],
    p: &MulticlientParams,
) -> FsResult<(u64, u64)> {
    let mut ops = 0u64;
    let mut bytes = 0u64;
    let mut buf = vec![0u8; p.file_size.max(p.big_size)];
    let mut s = t;
    while s < p.sessions {
        let mut rng =
            StdRng::seed_from_u64((p.seed ^ s as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        let d = dir_perm[zipf.sample(&mut rng)];
        for _ in 0..p.ops_per_session {
            let f = rng.gen_range(0..p.files_per_dir as u64) as usize;
            let roll = rng.gen_range(0..100u64) as u32;
            if roll < p.write_pct {
                let ino = resolve(fs, &format!("/p{d}/f{f}"))?;
                fs.write(ino, 0, &vec![fill_byte(d, f); p.file_size])?;
                ops += 2;
                bytes += p.file_size as u64;
            } else if roll < p.write_pct + p.fsync_pct {
                fs.sync()?;
                ops += 1;
            } else if roll < p.write_pct + p.fsync_pct + p.big_pct && has_big(d, p) {
                let ino = resolve(fs, &format!("/p{d}/big"))?;
                let n = fs.read(ino, 0, &mut buf[..p.big_size])?;
                ops += 2;
                bytes += n as u64;
            } else {
                let ino = resolve(fs, &format!("/p{d}/f{f}"))?;
                let n = fs.read(ino, 0, &mut buf[..p.file_size])?;
                ops += 2;
                bytes += n as u64;
            }
        }
        s += p.nthreads;
    }
    Ok((ops, bytes))
}

/// Phase 4 body: seeded unlink + re-create churn in this thread's
/// directories. Returns (ops, bytes).
fn churn(
    fs: &(impl FileSystem + Sync + ?Sized),
    t: usize,
    dirs: &[Ino],
    p: &MulticlientParams,
) -> FsResult<(u64, u64)> {
    let mut rng =
        StdRng::seed_from_u64((p.seed ^ t as u64).wrapping_mul(0xD134_2543_DE82_EF95));
    let mut ops = 0u64;
    let mut bytes = 0u64;
    for (i, &dir) in dirs.iter().enumerate() {
        let d = t + i * p.nthreads;
        for f in 0..p.files_per_dir {
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

/// Run the full multi-client workload.
pub fn run(
    fs: &(impl FileSystem + Sync + ?Sized),
    p: &MulticlientParams,
) -> FsResult<MulticlientResult> {
    run_with_phase_hook(fs, p, |_| {})
}

/// [`run`], invoking `hook` with the phase name at each quiescent point
/// (after every barrier: "setup", "populate", "sessions", "churn").
/// No client thread is live when the hook runs, so it can cut feed
/// frames — or drop every volume's caches after "populate" to make the
/// measured sessions window cold and disk-bound.
pub fn run_with_phase_hook(
    fs: &(impl FileSystem + Sync + ?Sized),
    p: &MulticlientParams,
    hook: impl Fn(&str),
) -> FsResult<MulticlientResult> {
    assert!(p.nthreads > 0 && p.ndirs > 0 && p.files_per_dir > 0);

    // Phase 1 — setup (main thread): the project directories.
    let mut all_dirs = Vec::with_capacity(p.ndirs);
    for d in 0..p.ndirs {
        all_dirs.push(mkdir_p(fs, &format!("/p{d}"))?);
    }
    fs.sync()?;
    hook("setup");

    let mut per_thread_ops = vec![0u64; p.nthreads];
    let mut bytes = 0u64;
    let owned: Vec<Vec<Ino>> = (0..p.nthreads)
        .map(|t| all_dirs.iter().skip(t).step_by(p.nthreads).copied().collect())
        .collect();

    // Phase 2 — populate, then a sync barrier.
    let pop = fan_out(fs, p.nthreads, |t| populate(fs, t, &owned[t], p))?;
    for (t, (ops, b)) in pop.into_iter().enumerate() {
        per_thread_ops[t] += ops;
        bytes += b;
    }
    fs.sync()?;
    hook("populate");

    // Phase 3 — the measured sessions window. The directory popularity
    // ranking is one seeded permutation shared by every session.
    let zipf = Zipf::new(p.ndirs, p.zipf_milli);
    let mut dir_perm: Vec<usize> = (0..p.ndirs).collect();
    let mut prng = StdRng::seed_from_u64(p.seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
    for i in (1..dir_perm.len()).rev() {
        dir_perm.swap(i, prng.gen_range(0..=i as u64) as usize);
    }
    let start_ns = match fs.obs() {
        Some(o) => o.global_clock_ns(),
        None => fs.now().as_nanos(),
    };
    let ran = fan_out(fs, p.nthreads, |t| sessions(fs, t, &zipf, &dir_perm, p))?;
    let end_ns = match fs.obs() {
        Some(o) => o.global_clock_ns(),
        None => fs.now().as_nanos(),
    };
    let mut session_ops = vec![0u64; p.nthreads];
    for (t, (ops, b)) in ran.into_iter().enumerate() {
        session_ops[t] = ops;
        per_thread_ops[t] += ops;
        bytes += b;
    }
    hook("sessions");

    // Phase 4 — churn, then the final sync the fsck gate runs after.
    let churned = fan_out(fs, p.nthreads, |t| churn(fs, t, &owned[t], p))?;
    for (t, (ops, b)) in churned.into_iter().enumerate() {
        per_thread_ops[t] += ops;
        bytes += b;
    }
    fs.sync()?;
    hook("churn");

    Ok(MulticlientResult {
        nthreads: p.nthreads,
        sessions: p.sessions,
        per_thread_ops,
        session_ops,
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
