//! The measurement method shared by every workload: calibration unit,
//! per-op sample recorder, the pass loop, order statistics, peak RSS.
//!
//! Raw wall-clock throughput of one binary swings ±25 % run to run on a
//! shared 2-vCPU box. Dividing each pass by the mean of the two fixed
//! calibration units that bracket it brought 74 prototype runs to within
//! −9 %/+11 % of their median, so host cost is reported in calibration
//! units. Interference only ever adds time, so the figure for a run is
//! the lower quartile over its passes ([`host_cost`]), not their median:
//! on four identical runs the medians spread 19 %, the lower quartiles
//! 12 % and the minima 6 % (the minimum of a ratio is too easily set by
//! one disturbed calibration unit to be the estimator).

use crate::alloc::Heap;
use crate::fsapi::Counts;
use crate::trace::{Layer, Tracer};
use std::collections::HashMap;
use std::time::Instant;

/// Shortest pass the method allows, seconds (scale pass counts, never
/// pass length below this).
pub const MIN_PASS_S: f64 = 0.2;

/// The fixed calibration unit. It does what the program's hot paths do
/// — clone a 4 KB block out of 8 MB of separately allocated buffers (the
/// buffer cache's `data.clone()`: allocate, copy, free), probe a
/// `HashMap` (its indexes), step a xorshift — so that when a shared host
/// slows the program down it slows the unit down by about as much. About
/// 20 ms on the box the benchmark was sized on.
pub struct Calib {
    bufs: Vec<Vec<u8>>,
    map: HashMap<u64, u64>,
    state: u64,
}

const CALIB_BUFS: usize = 2_048;
/// A unit is the fastest of this many equal slices, times their number,
/// so one preemption inside it does not skew the pass it brackets.
const CALIB_SLICES: usize = 4;
const CALIB_SLICE_ITERS: usize = 10_000;

impl Calib {
    /// Build the unit's working set (outside any window).
    pub fn new() -> Calib {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let bufs = (0..CALIB_BUFS)
            .map(|_| {
                let mut buf = vec![0u8; 4096];
                for chunk in buf.chunks_exact_mut(8) {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    chunk.copy_from_slice(&state.to_le_bytes());
                }
                buf
            })
            .collect();
        let map = (0..32_768u64)
            .map(|k| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k))
            .collect();
        Calib { bufs, map, state }
    }

    /// Run one unit; returns its wall time in seconds.
    pub fn unit(&mut self) -> f64 {
        let fastest = (0..CALIB_SLICES)
            .map(|_| self.slice())
            .fold(f64::INFINITY, f64::min);
        fastest * CALIB_SLICES as f64
    }

    fn slice(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x = self.state;
        let mut acc = 0u64;
        for _ in 0..CALIB_SLICE_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let block = std::hint::black_box(self.bufs[x as usize % CALIB_BUFS].clone());
            acc = acc.wrapping_add(block[(x >> 52) as usize] as u64);
            for i in 0..8u64 {
                let key = ((x >> 17).wrapping_add(i) % 40_000).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                acc = acc.wrapping_add(self.map.get(&key).copied().unwrap_or(1));
            }
        }
        self.state = std::hint::black_box(x ^ acc) | 1;
        t0.elapsed().as_secs_f64()
    }
}

impl Default for Calib {
    fn default() -> Self {
        Calib::new()
    }
}

/// Per-op recorder: simulated latency samples in a preallocated buffer,
/// attempted and failed op counts. Samples of the first `keep_passes`
/// passes are kept (the exact, host-speed-independent part of the
/// window); later passes write into one scratch pass at the end so every
/// pass does the same recording work.
pub struct Rec {
    samples: Vec<u64>,
    kept: usize,
    pos: usize,
    last_ns: u64,
    /// Ops attempted, including those of the post-run checks.
    pub attempted: u64,
    /// Ops that returned `Err`, wrong bytes or a wrong `NotFound`, plus
    /// failed post-run checks.
    pub failed: u64,
    /// First few failure descriptions, for the human report.
    pub notes: Vec<String>,
}

impl Rec {
    /// Room for `keep_passes` passes of `ops_per_pass` ops, plus scratch.
    pub fn new(ops_per_pass: usize, keep_passes: usize) -> Rec {
        Rec {
            samples: vec![0; ops_per_pass * (keep_passes + 1)],
            kept: ops_per_pass * keep_passes,
            pos: 0,
            last_ns: 0,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// Start the clock of the next op at `now_ns` (pass start, or after a
    /// `sync` that is part of the pass but not an op).
    #[inline]
    pub fn mark(&mut self, now_ns: u64) {
        self.last_ns = now_ns;
    }

    /// One op finished at `now_ns`.
    #[inline]
    pub fn op_done(&mut self, now_ns: u64) {
        self.samples[self.pos] = now_ns - self.last_ns;
        self.last_ns = now_ns;
        self.pos += 1;
        self.attempted += 1;
    }

    /// Count one failed op (or check), remembering the first few reasons.
    #[cold]
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(why());
        }
    }

    /// Count `ok == false` as a failure.
    #[inline]
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why);
        }
    }

    fn begin_pass(&mut self) {
        if self.pos >= self.kept {
            self.pos = self.kept;
        }
    }

    /// The kept samples in op order (ns).
    pub fn samples(&self) -> &[u64] {
        &self.samples[..self.pos.min(self.kept)]
    }

    /// The kept samples, sorted (ns).
    pub fn sorted_samples(&self) -> Vec<u64> {
        let mut v = self.samples().to_vec();
        v.sort_unstable();
        v
    }
}

/// One loaded workload instance: built by its workload's `build`, driven
/// pass by pass, checked at the end.
pub trait Bench {
    /// Ops in one pass (constant), all its rounds together.
    fn ops_per_pass(&self) -> usize;
    /// Rounds a pass is made of: each is `before_round` (outside the
    /// window) then `round` (inside). More than one where a single round
    /// is shorter than [`MIN_PASS_S`] and the work between rounds must
    /// stay outside the window.
    fn rounds_per_pass(&self) -> usize {
        1
    }
    /// Work before a round that is outside the window (`drop_caches`,
    /// generating the round's op stream).
    fn before_round(&mut self) {}
    /// One round of the closed loop.
    fn round(&mut self, tr: &mut Tracer, rec: &mut Rec);
    /// Simulated clock, ns.
    fn now_ns(&self) -> u64;
    /// Counter snapshot.
    fn counts(&self) -> Counts;
    /// `(blocks allocated incl. group slack, live files)` at the moment
    /// of most live files so far.
    fn space(&self) -> (u64, u64);
    /// Post-run correctness and durability checks; failures go to `rec`.
    fn finish(&mut self, rec: &mut Rec);
    /// The target, when it is a bare `Cffs` (disk trace and block maps
    /// for the layer probes come from it).
    fn cffs(&self) -> Option<&cffs_core::Cffs> {
        None
    }
    /// Files on [`Bench::cffs`] whose block maps feed the cache probe.
    fn probe_files(&self) -> Vec<cffs_fslib::Ino> {
        Vec::new()
    }
    /// What the workload's dcache was fed, for the dcache probe.
    fn dcache_stream(&self) -> Option<crate::probes::DcacheStream<'_>> {
        None
    }
    /// Disk requests so far, one count per disk.
    fn requests_per_disk(&self) -> Vec<u64> {
        Vec::new()
    }
    /// Background work measured after the window (`churn_softdep`).
    fn regroup_tail(&mut self, _rec: &mut Rec) -> Option<RegroupTail> {
        None
    }
}

/// The background-work numbers of `churn_softdep`'s traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegroupTail {
    /// Blocks the regrouper relocated.
    pub blocks_moved: u64,
    /// Host time of `cffs_regroup::run`, ms.
    pub host_ms: f64,
    /// Simulated time of the same call, s.
    pub sim_s: f64,
    /// Share of group-fetched blocks used by a cold sweep before, %.
    pub fetch_util_before_pct: f64,
    /// The same after regrouping, %.
    pub fetch_util_after_pct: f64,
}

/// What one pass cost.
#[derive(Debug, Clone, Copy)]
pub struct PassStat {
    /// Wall time of the pass body, seconds.
    pub wall_s: f64,
    /// Mean of the calibration units before and after, seconds.
    pub calib_s: f64,
    /// Simulated time the pass took, ns.
    pub sim_ns: u64,
    /// Heap requests during the pass.
    pub heap: Heap,
    /// Spans were being recorded.
    pub traced: bool,
}

impl PassStat {
    /// Host cost in calibration units.
    pub fn units(&self) -> f64 {
        self.wall_s / self.calib_s
    }
}

/// The measured window.
pub struct Window {
    /// Peak RSS when the last kept pass ended, MB: fixed work, so it does
    /// not depend on how many more passes the host had time for.
    pub rss_at_kept_mb: f64,
    /// Every pass, in order.
    pub passes: Vec<PassStat>,
    /// Passes whose simulated numbers, samples and heap counts are kept.
    pub kept_passes: usize,
    /// Ops in one pass.
    pub ops_per_pass: usize,
    /// [`Bench::space`] when the last kept pass ended.
    pub space_at_kept: (u64, u64),
    /// Counter delta over the kept passes.
    pub counts: Counts,
}

impl Window {
    /// Simulated time over the kept passes, ns (work between passes,
    /// such as `drop_caches`, excluded).
    pub fn kept_sim_ns(&self) -> u64 {
        self.passes[..self.kept_passes]
            .iter()
            .map(|p| p.sim_ns)
            .sum()
    }

    /// Ops in the kept passes.
    pub fn kept_ops(&self) -> f64 {
        (self.kept_passes * self.ops_per_pass) as f64
    }

    /// Simulated throughput over the kept passes, ops per simulated second.
    pub fn sim_ops_per_s(&self) -> f64 {
        crate::report::ratio(self.kept_ops(), self.kept_sim_ns() as f64 / 1e9)
    }

    /// Heap requests over the kept passes.
    pub fn kept_heap(&self) -> Heap {
        let mut total = Heap::default();
        for p in &self.passes[..self.kept_passes] {
            total += p.heap;
        }
        total
    }

    /// Calibrated cost of the passes with `traced == want`, units/pass.
    pub fn units(&self, want_traced: bool) -> Vec<f64> {
        self.passes
            .iter()
            .filter(|p| p.traced == want_traced)
            .map(PassStat::units)
            .collect()
    }
}

/// Run the window: at least `kept_passes` passes, then more until
/// `seconds` have gone by. Simulated numbers come from the first
/// `kept_passes` only, so they do not depend on how fast the host is;
/// host cost is the median over all passes. With `alternate` set (the
/// traced run) every other pass records spans and the rest do not, which is
/// where `harness.trace_overhead_pct` comes from.
pub fn run_window(
    bench: &mut dyn Bench,
    calib: &mut Calib,
    tr: &mut Tracer,
    rec: &mut Rec,
    seconds: f64,
    kept_passes: usize,
    alternate: bool,
) -> Window {
    let tracing = tr.on;
    let started = Instant::now();
    let mut passes = Vec::with_capacity(256);
    let mut counts_at_start = None;
    let mut counts = Counts::default();
    let (mut rss_at_kept_mb, mut space_at_kept) = (0.0, (0, 0));
    let mut spans_per_pass = 0;
    let mut cal_before = calib.unit();
    loop {
        let index = passes.len();
        // A pass is traced whole or not at all: once the buffer has no
        // room for another pass's spans, the rest run untraced.
        let traced = tracing && (!alternate || index % 2 == 0) && tr.room() >= spans_per_pass;
        let room_before = tr.room();
        rec.begin_pass();
        tr.on = traced;
        tr.open(Layer::Harness, "pass", bench.now_ns());
        let (mut wall_s, mut sim_ns, mut heap) = (0.0, 0, Heap::default());
        for _ in 0..bench.rounds_per_pass() {
            tr.on = false;
            bench.before_round();
            tr.on = traced;
            if counts_at_start.is_none() {
                counts_at_start = Some(bench.counts());
            }
            let (sim0, heap0, t0) = (bench.now_ns(), Heap::now(), Instant::now());
            bench.round(tr, rec);
            wall_s += t0.elapsed().as_secs_f64();
            heap += Heap::now().since(heap0);
            sim_ns += bench.now_ns() - sim0;
        }
        if traced {
            tr.counts(bench.counts().to_json());
            spans_per_pass = spans_per_pass.max(room_before - tr.room());
        }
        tr.close(bench.now_ns());
        let cal_after = calib.unit();
        passes.push(PassStat {
            wall_s,
            calib_s: (cal_before + cal_after) / 2.0,
            sim_ns,
            heap,
            traced,
        });
        cal_before = cal_after;
        if passes.len() == kept_passes {
            counts = bench
                .counts()
                .since(&counts_at_start.expect("set before the first round"));
            rss_at_kept_mb = peak_rss_mb();
            space_at_kept = bench.space();
        }
        if passes.len() >= kept_passes && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    tr.on = tracing;
    Window {
        ops_per_pass: bench.ops_per_pass(),
        space_at_kept,
        rss_at_kept_mb,
        passes,
        kept_passes,
        counts,
    }
}

/// The host-cost figure of a run from its per-pass costs: their lower
/// quartile. Interference (preemption, a noisy neighbour) only adds
/// time, so the low end is the undisturbed cost; a pass is ≥ 0.2 s of
/// ops, so periodic work inside the program is in every pass and cannot
/// hide below the quartile.
pub fn host_cost(per_pass: &[f64]) -> f64 {
    quantile(per_pass, 0.25)
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Nearest-rank quantile of sorted integer samples.
pub fn rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let i = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[i]
}

/// Interquartile range of `v` as a percentage of its median.
pub fn iqr_pct(v: &[f64]) -> f64 {
    let m = median(v);
    if m == 0.0 {
        0.0
    } else {
        (quantile(v, 0.75) - quantile(v, 0.25)) / m * 100.0
    }
}

/// Peak resident set of this process, MB (`VmHWM`); 0 where unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(rank(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 0.99), 10);
        assert_eq!(rank(&[1, 2, 3, 4], 0.5), 2);
        assert!((iqr_pct(&v) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn rec_keeps_the_first_passes_and_scratches_the_rest() {
        let mut r = Rec::new(2, 1);
        for pass in 0..3u64 {
            r.begin_pass();
            r.mark(0);
            r.op_done(10 + pass);
            r.op_done(30 + pass);
        }
        assert_eq!(r.sorted_samples(), vec![10, 20]);
        assert_eq!(r.attempted, 6);
    }
}
