//! The sampler behind both telemetry sinks, and the streaming feed.
//!
//! A [`Frame`] samples one observed stack ([`Obs`], plus a volume set's
//! per-volume registries) and has one renderer. A feed line renders it
//! against the tap's previous frame, so it carries deltas; a flight
//! recorder's `frame` record ([`crate::flight`]) renders it against
//! zero, so it carries cumulative values under the same field names.
//! Either way the fields are [`FRAME_FIELDS`] and [`validate_frame`]
//! checks them.
//!
//! A [`FeedSink`] owns the file and appends one JSONL line per frame. A
//! flight recorder's sink is bounded: a `head` opens its file, and once
//! the file holds `2 × FLIGHT_FRAMES` frames, the sink rewrites it
//! atomically as a fresh head plus its last `FLIGHT_FRAMES` frames.
//! [`parse_feed`] reads both files and ignores a final line that lacks
//! its `\n`, so a follower polling the path, or a reader of a run killed
//! mid-write, only ever sees complete records.
//!
//! A tap attaches one observed stack to a sink and decides *when*
//! frames are cut ([`Cadence`]):
//!
//! * `Sim(interval_ns)` — a frame whenever the stack's simulated clock
//!   crosses the next interval boundary. The tap arms the stack's one
//!   sampling pacer, which rides [`Obs::set_clock_ns`] (one relaxed load
//!   when nothing is armed) and may drive a flight recorder at its own
//!   interval beside it. Emission happens at deterministic points of a
//!   deterministic run: same seed ⇒ byte-identical feed.
//! * `Manual` — frames only via [`TapGuard::frame`], e.g. at the phase
//!   barriers of a multi-threaded run where the registries are
//!   quiescent.
//!
//! Every registry read is an atomic load or a short leaf-lock copy, so a
//! frame is a consistent-enough snapshot without ever stopping the stack
//! — see DESIGN.md §8 for the consistency model.

use std::collections::VecDeque;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::flight::{Recorder, FLIGHT_FRAMES};
use crate::json::Json;
use crate::{obj, CgStat, Ctr, Event, Obs, Sampler, Sig, THREAD_SLOTS};

/// Default simulated-time frame cadence: 50 ms of simulated time, a few
/// dozen frames per benchmark phase at the `repro` experiments' scales.
pub const SIM_INTERVAL_DEFAULT_NS: u64 = 50_000_000;

/// Counters carried in every frame, in frame order.
pub const FRAME_COUNTERS: &[Ctr] = &[
    Ctr::DiskRequests,
    Ctr::DiskReads,
    Ctr::DiskWrites,
    Ctr::DriverQueueSubmit,
    Ctr::CacheLookups,
    Ctr::CacheMisses,
    Ctr::CacheWritebacks,
    Ctr::DcacheHits,
    Ctr::DcacheMisses,
    Ctr::DcacheNegHits,
    Ctr::DcacheEvictions,
    Ctr::FsGroupFetches,
    Ctr::RegroupBlocksMoved,
    Ctr::RegroupGroupsFormed,
    Ctr::RegroupAutotriggers,
    Ctr::SignalLowEvents,
    Ctr::SignalHighEvents,
    Ctr::LockWaitNsAlloc,
    Ctr::LockWaitNsCache,
    Ctr::LockWaitNsDriver,
    Ctr::VolStripePromotions,
    Ctr::VolStripePartIos,
    Ctr::VolDirFanouts,
];

/// Histograms whose `(dsum, dcount)` are carried in every frame.
pub const FRAME_HISTOS: &[&str] =
    &["group_fetch_util_pct", "driver_batch_reqs", "cache_shard_hit_pct", "dcache_hit_pct"];

/// Top-level frame fields with one-line descriptions — the glossary
/// that README documents and `tests/doc_drift.rs` cross-checks.
pub const FRAME_FIELDS: &[(&str, &str)] = &[
    ("seq", "frame number within the feed file, starting at 0"),
    ("stage", "producer-supplied label for the run stage that cut this frame"),
    ("t_ns", "simulated time the frame was cut, nanoseconds"),
    ("counters", "curated counter deltas since the previous frame of this tap"),
    ("ops", "outermost file-system ops completed since the previous frame"),
    ("queue_depth", "threads waiting for the disk lock in the driver right now"),
    ("histos", "per-histogram {dsum, dcount} deltas since the previous frame"),
    ("signals", "live signal registry: EWMAs, armed floors, crossing counts"),
    ("cgs", "per-cylinder-group occupancy, utilization EWMA, and I/O deltas"),
    ("threads", "per-thread-slot op deltas since the previous frame"),
    ("events", "signal.* and regroup.* trace events recorded since the previous frame"),
    (
        "dcache_hit_milli",
        "namespace-cache hit rate (positive + negative) over probes since the previous frame, in milli-units; 0 when no probes",
    ),
    (
        "slo_burn_milli",
        "worst per-op SLO error-budget burn so far, milli-units (1000 = exactly at budget); 0 before any op misses its objective",
    ),
    (
        "volumes",
        "per-volume rows (vol, ops, queue_depth, dreads, dwrites, gf_util_ewma_milli) for volume-set producers; empty array otherwise",
    ),
];

/// How a tap decides when to cut frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cadence {
    /// A frame each time the simulated clock crosses an interval
    /// boundary (deterministic for a deterministic run).
    Sim(u64),
    /// Frames only on explicit [`TapGuard::frame`] calls.
    Manual,
}

/// One sample of an observed stack's registries — the frame type of
/// both the feed and the flight recorder. [`Frame::default`] is the zero
/// frame a cumulative rendering is taken against.
#[derive(Default)]
pub(crate) struct Frame {
    t_ns: u64,
    /// Values of [`FRAME_COUNTERS`], in order.
    counters: Vec<u64>,
    /// `(sum, count)` of each [`FRAME_HISTOS`] histogram, in order.
    histos: Vec<(u64, u64)>,
    cgs: Vec<CgStat>,
    threads: [u64; THREAD_SLOTS],
    queue_depth: u64,
    signals: Json,
    slo_burn_milli: u64,
    /// One row per volume of a volume-set producer, in volume order.
    vols: Vec<VolRow>,
    /// Trace events recorded after the watermark the frame was captured
    /// against (all tags; the renderer keeps `signal.*`/`regroup.*`).
    fresh: Vec<Event>,
    /// Trace-ring watermark after [`Frame::fresh`].
    mark: u64,
}

/// One volume's registers in a [`Frame`].
#[derive(Default, Clone, Copy)]
struct VolRow {
    ops: u64,
    dreads: u64,
    dwrites: u64,
    queue_depth: u64,
    gf_util_ewma_milli: u64,
}

impl Frame {
    /// Sample `obs` and the per-volume registries `vols` at simulated
    /// time `t_ns`, lifting the trace events recorded after watermark
    /// `since`. Lock discipline: every read is an atomic load or a short
    /// copy under one leaf lock (signals, trace ring, per-CG util) taken
    /// *sequentially*, never nested — so a frame can be cut from any
    /// thread.
    pub(crate) fn capture(obs: &Obs, vols: &[Arc<Obs>], t_ns: u64, since: u64) -> Frame {
        let h = obs.histos();
        let (fresh, mark) = obs.events_since(since);
        Frame {
            t_ns,
            counters: FRAME_COUNTERS.iter().map(|&c| obs.get(c)).collect(),
            histos: FRAME_HISTOS
                .iter()
                .map(|&n| {
                    let hg = h.by_name(n).expect("FRAME_HISTOS names a registered histogram");
                    let s = hg.snapshot();
                    (s.sum, s.count())
                })
                .collect(),
            cgs: obs.cg_stats(),
            threads: obs.thread_ops(),
            queue_depth: obs.queue_depth(),
            signals: obs.signals_json(),
            slo_burn_milli: obs.slo_burn_milli(),
            vols: vols
                .iter()
                .map(|v| VolRow {
                    ops: v.thread_ops().iter().sum(),
                    dreads: v.get(Ctr::DiskReads),
                    dwrites: v.get(Ctr::DiskWrites),
                    queue_depth: v.queue_depth(),
                    gf_util_ewma_milli: (v.signal(Sig::GroupFetchUtil).ewma * 1000.0).round() as u64,
                })
                .collect(),
            fresh,
            mark,
        }
    }

    /// Render the [`FRAME_FIELDS`] after `seq` and `stage`, which the
    /// sink supplies. Counters, histogram sums and counts, per-CG I/O and
    /// per-thread and per-volume ops render as `self − base`
    /// (saturating); everything else renders as sampled.
    pub(crate) fn render(&self, base: &Frame) -> Vec<(String, Json)> {
        let int = |v: u64| Json::Int(v as i64);
        let dctr: Vec<u64> = self
            .counters
            .iter()
            .enumerate()
            .map(|(i, &v)| v.saturating_sub(base.counters.get(i).copied().unwrap_or(0)))
            .collect();
        let dctr_of = |c: Ctr| FRAME_COUNTERS.iter().position(|&x| x == c).map_or(0, |i| dctr[i]);
        let dcache_hits = dctr_of(Ctr::DcacheHits) + dctr_of(Ctr::DcacheNegHits);
        let dcache_probes = dcache_hits + dctr_of(Ctr::DcacheMisses);
        let dthreads: Vec<u64> =
            (0..THREAD_SLOTS).map(|i| self.threads[i].saturating_sub(base.threads[i])).collect();
        let histos = FRAME_HISTOS
            .iter()
            .zip(&self.histos)
            .enumerate()
            .map(|(i, (&n, &(sum, count)))| {
                let (psum, pcount) = base.histos.get(i).copied().unwrap_or((0, 0));
                let row = obj![
                    ("dsum", int(sum.saturating_sub(psum))),
                    ("dcount", int(count.saturating_sub(pcount))),
                ];
                (n.to_string(), row)
            })
            .collect();
        let cgs = self
            .cgs
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let p = base.cgs.get(i).copied().unwrap_or_default();
                obj![
                    ("cg", int(c.cg as u64)),
                    ("data_blocks", int(c.data_blocks)),
                    ("used", int(c.used)),
                    ("util_ewma_milli", int(c.util_ewma_milli)),
                    ("util_samples", int(c.util_samples)),
                    ("dread_ios", int(c.read_ios.saturating_sub(p.read_ios))),
                    ("dwrite_ios", int(c.write_ios.saturating_sub(p.write_ios))),
                    ("dread_sectors", int(c.read_sectors.saturating_sub(p.read_sectors))),
                    ("dwrite_sectors", int(c.write_sectors.saturating_sub(p.write_sectors))),
                ]
            })
            .collect();
        let events = self
            .fresh
            .iter()
            .filter(|e| e.tag.starts_with("signal.") || e.tag.starts_with("regroup."))
            .map(|e| {
                obj![
                    ("t_ns", int(e.t_ns)),
                    ("tag", Json::Str(e.tag.to_string())),
                    ("a", int(e.a)),
                    ("b", int(e.b)),
                ]
            })
            .collect();
        let volumes = self
            .vols
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let p = base.vols.get(i).copied().unwrap_or_default();
                obj![
                    ("vol", int(i as u64)),
                    ("ops", int(v.ops.saturating_sub(p.ops))),
                    ("queue_depth", int(v.queue_depth)),
                    ("dreads", int(v.dreads.saturating_sub(p.dreads))),
                    ("dwrites", int(v.dwrites.saturating_sub(p.dwrites))),
                    ("gf_util_ewma_milli", int(v.gf_util_ewma_milli)),
                ]
            })
            .collect();
        let counters = FRAME_COUNTERS.iter().zip(&dctr).map(|(c, &v)| (c.name().to_string(), int(v)));
        [
            ("t_ns", int(self.t_ns)),
            ("counters", Json::Obj(counters.collect())),
            ("ops", int(dthreads.iter().sum())),
            ("queue_depth", int(self.queue_depth)),
            ("histos", Json::Obj(histos)),
            ("signals", self.signals.clone()),
            ("cgs", Json::Arr(cgs)),
            ("threads", Json::Arr(dthreads.into_iter().map(int).collect())),
            ("events", Json::Arr(events)),
            ("dcache_hit_milli", int((dcache_hits * 1000).checked_div(dcache_probes).unwrap_or(0))),
            ("slo_burn_milli", int(self.slo_burn_milli)),
            ("volumes", Json::Arr(volumes)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

/// Lock `m`, recovering it if a panicking thread poisoned it: a flight
/// recorder dumps from the panic hook, where a second panic aborts. Each
/// update of a tap's or a sink's state leaves it valid, so a cut that
/// panics midway at worst skips a `seq`.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The file a tap appends to, one line per frame: a feed, or a flight
/// recorder's bounded dump (see the module docs).
pub struct FeedSink {
    path: std::path::PathBuf,
    /// Set on a flight recorder's sink: its frames render against zero,
    /// its dumps append heads, and its file is bounded.
    recorder: Option<Recorder>,
    state: Mutex<SinkState>,
}

#[derive(Default)]
struct SinkState {
    /// The file; `None` once a write failed, which ends the sink.
    file: Option<std::fs::File>,
    frames: u64,
    /// A recorder's last [`FLIGHT_FRAMES`] frames, each line ending in
    /// `\n` and a dump's frame followed by its head.
    tail: VecDeque<String>,
    /// Frames a recorder's file holds.
    in_file: usize,
}

impl FeedSink {
    /// Create (truncate) the feed file and return the sink. The empty
    /// file exists immediately so `cffs-top --follow` can latch on
    /// before the first frame.
    pub fn create(path: impl Into<std::path::PathBuf>) -> std::io::Result<Arc<FeedSink>> {
        let path = path.into();
        let state = SinkState { file: Some(std::fs::File::create(&path)?), ..SinkState::default() };
        Ok(Arc::new(FeedSink { path, recorder: None, state: Mutex::new(state) }))
    }

    /// A flight recorder's sink: the file at `path` opens with a head
    /// (reason `"armed"`). A file that cannot be written warns once and
    /// records nothing, like a failed feed write.
    pub(crate) fn bounded(path: std::path::PathBuf, recorder: Recorder) -> Arc<FeedSink> {
        let sink = FeedSink { path, recorder: Some(recorder), state: Mutex::default() };
        if let Err(e) = sink.rewrite(&mut lock(&sink.state), "armed") {
            sink.warn(&e);
        }
        Arc::new(sink)
    }

    /// Where the feed is being written.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Frames appended so far.
    pub fn frames(&self) -> u64 {
        lock(&self.state).frames
    }

    /// Number the rendered frame `body`, label it `stage` and append it
    /// as one line (a recorder's tagged `"rec": "frame"`). A recorder's
    /// `dump` frame goes out in one write with the head that follows it.
    fn append(&self, t_ns: u64, stage: &str, body: Vec<(String, Json)>, dump: bool) {
        let mut st = lock(&self.state);
        let mut frame = Vec::with_capacity(body.len() + 3);
        if self.recorder.is_some() {
            frame.push(("rec".to_string(), Json::Str("frame".into())));
        }
        frame.push(("seq".to_string(), Json::Int(st.frames as i64)));
        frame.push(("stage".to_string(), Json::Str(stage.to_string())));
        frame.extend(body);
        st.frames += 1;
        let mut line = Json::Obj(frame).to_string() + "\n";
        if let Some(rec) = self.recorder.as_ref().filter(|_| dump) {
            line = line + &rec.head(stage, t_ns).to_string() + "\n";
        }
        self.write_line(&mut st, line);
    }

    /// Append `line` in one `write_all`: a reader that catches it
    /// half-written sees a last line without its `\n`, which
    /// [`parse_feed`] skips. A recorder's file that now holds
    /// `2 × FLIGHT_FRAMES` frames is compacted. A failed
    /// write warns once and ends the sink rather than the run —
    /// telemetry must never fail the experiment it watches.
    fn write_line(&self, st: &mut SinkState, line: String) {
        let Some(file) = st.file.as_mut() else { return };
        let mut res = file.write_all(line.as_bytes());
        if res.is_ok() && self.recorder.is_some() {
            st.tail.push_back(line);
            if st.tail.len() > FLIGHT_FRAMES {
                st.tail.pop_front();
            }
            st.in_file += 1;
            if st.in_file >= 2 * FLIGHT_FRAMES {
                res = self.rewrite(st, "compacted");
            }
        }
        if let Err(e) = res {
            st.file = None;
            self.warn(&e);
        }
    }

    /// Rewrite a recorder's file atomically as a fresh head plus its last
    /// [`FLIGHT_FRAMES`] frames, then append to the new file.
    fn rewrite(&self, st: &mut SinkState, reason: &str) -> std::io::Result<()> {
        let rec = self.recorder.as_ref().expect("only a recorder's file is rewritten");
        let mut text = rec.head(reason, rec.obs.global_clock_ns()).to_string() + "\n";
        text.extend(st.tail.iter().map(String::as_str));
        crate::write_atomic(&self.path, text.as_bytes())?;
        st.file = Some(std::fs::OpenOptions::new().append(true).open(&self.path)?);
        st.in_file = st.tail.len();
        Ok(())
    }

    fn warn(&self, e: &std::io::Error) {
        eprintln!("warning: telemetry write to {} failed: {e}", self.path.display());
    }
}

/// One attachment of an [`Obs`] to a [`FeedSink`] (see the module docs
/// for cadences). Created via [`attach`] or [`crate::flight::arm`];
/// frames stop when the returned [`TapGuard`] drops.
pub(crate) struct FeedTap {
    pub(crate) sink: Arc<FeedSink>,
    obs: Arc<Obs>,
    /// Per-volume registries of a volume-set producer, in volume order
    /// (empty for single-volume producers; drives the `volumes` rows).
    vols: Vec<Arc<Obs>>,
    /// The stage label and the previous frame, the delta base.
    state: Mutex<(String, Frame)>,
}

impl FeedTap {
    /// Cut one frame at simulated time `t_ns`, a recorder's `dump` frame
    /// followed by a head. A feed tap's `stage` relabels it; a
    /// recorder's labels only the frame it cuts, and its frames render
    /// against zero.
    fn emit(&self, t_ns: u64, stage: Option<&str>, dump: bool) {
        let mut st = lock(&self.state);
        let (label, prev) = &mut *st;
        let cur = Frame::capture(&self.obs, &self.vols, t_ns, prev.mark);
        if self.sink.recorder.is_some() {
            let body = cur.render(&Frame::default());
            self.sink.append(t_ns, stage.unwrap_or(label), body, dump);
        } else {
            if let Some(s) = stage {
                *label = s.to_string();
            }
            self.sink.append(t_ns, label, cur.render(prev), false);
        }
        *prev = cur;
    }

    /// A flight recorder's dump: cut a frame labelled `reason`, then
    /// append a head. A feed tap has no heads, so this does nothing
    /// there. The tap and sink locks recover from poisoning, and a panic
    /// on a poisoned registry lock is caught: a dump runs in the panic
    /// hook and must never fail the run it records.
    pub(crate) fn dump(&self, reason: &str) {
        if self.sink.recorder.is_none() {
            return;
        }
        let t = self.obs.global_clock_ns();
        let _ = catch_unwind(AssertUnwindSafe(|| self.emit(t, Some(reason), true)));
    }
}

impl Sampler for FeedTap {
    fn sample(&self, now_ns: u64) {
        self.emit(now_ns, None, false);
    }
}

/// Guard returned by [`attach`] and [`crate::flight::arm`]. Dropping it
/// detaches the tap from the pacer and cuts one final frame, so every
/// stage is guaranteed at least one frame even if its run ended between
/// cadence boundaries; a recorder's is a dump with reason `"detach"`.
pub struct TapGuard {
    pub(crate) tap: Arc<FeedTap>,
}

impl TapGuard {
    /// Cut a frame right now, relabelling the tap's stage. The manual
    /// cadence's only trigger; valid (if rarely needed) on `Sim` too.
    pub fn frame(&self, stage: &str) {
        self.tap.emit(self.tap.obs.global_clock_ns(), Some(stage), false);
    }

    /// A flight recorder's explicit dump: cut a frame labelled `reason`,
    /// then append a head. Does nothing on a feed tap.
    pub fn dump(&self, reason: &str) {
        self.tap.dump(reason);
    }

    /// The file the tap's sink writes.
    pub fn path(&self) -> &std::path::Path {
        self.tap.sink.path()
    }
}

impl Drop for TapGuard {
    fn drop(&mut self) {
        self.tap.obs.disarm_sampler(&self.tap);
        if self.tap.sink.recorder.is_some() {
            self.tap.dump("detach");
        } else {
            self.tap.emit(self.tap.obs.global_clock_ns(), None, false);
        }
    }
}

/// Attach `obs` to `sink` with the given stage label and cadence.
pub fn attach(
    sink: &Arc<FeedSink>,
    obs: &Arc<Obs>,
    stage: &str,
    cadence: Cadence,
) -> TapGuard {
    attach_with_volumes(sink, obs, &[], stage, cadence)
}

/// [`attach`] for a volume-set producer: `vols` are the per-volume
/// registries, in volume order; every frame then carries one `volumes`
/// row per entry (single-volume taps emit an empty array).
pub fn attach_with_volumes(
    sink: &Arc<FeedSink>,
    obs: &Arc<Obs>,
    vols: &[Arc<Obs>],
    stage: &str,
    cadence: Cadence,
) -> TapGuard {
    let first = Frame::capture(obs, vols, 0, obs.events_recorded());
    let tap = Arc::new(FeedTap {
        sink: Arc::clone(sink),
        obs: Arc::clone(obs),
        vols: vols.to_vec(),
        state: Mutex::new((stage.to_string(), first)),
    });
    if let Cadence::Sim(interval_ns) = cadence {
        obs.arm_sampler(&tap, interval_ns);
    }
    TapGuard { tap }
}

/// Process-wide sink used by `repro`'s `--feed <path>` flag:
/// set once in `main`, then any stage anywhere in the process can
/// [`tap_global`] without parameter plumbing through the experiment
/// modules.
static GLOBAL_SINK: Mutex<Option<Arc<FeedSink>>> = Mutex::new(None);

/// Create the process-global feed sink at `path` (truncating any
/// previous file). Replaces an earlier global sink, if any.
pub fn set_global(path: impl Into<std::path::PathBuf>) -> std::io::Result<Arc<FeedSink>> {
    let sink = FeedSink::create(path)?;
    *GLOBAL_SINK.lock().expect("global feed sink poisoned") = Some(Arc::clone(&sink));
    Ok(sink)
}

/// Attach `obs` and a volume set's per-volume registries `vols` (empty
/// for single-volume producers, see [`attach_with_volumes`]) to the
/// process-global sink (no-op `None` when `--feed` was not given).
/// Stages across one process share the sink, so a run's consecutive
/// stages accumulate into one replayable feed.
pub fn tap_global(
    obs: &Arc<Obs>,
    vols: &[Arc<Obs>],
    stage: &str,
    cadence: Cadence,
) -> Option<TapGuard> {
    let sink = GLOBAL_SINK.lock().expect("global feed sink poisoned").clone()?;
    Some(attach_with_volumes(&sink, obs, vols, stage, cadence))
}

/// [`tap_global`] at the default simulated cadence — the one-liner the
/// experiment stages use.
pub fn tap_global_sim(obs: &Arc<Obs>, stage: &str) -> Option<TapGuard> {
    tap_global(obs, &[], stage, Cadence::Sim(SIM_INTERVAL_DEFAULT_NS))
}

/// Validate one parsed frame — a feed line or a flight `frame` record —
/// against the schema documented by [`FRAME_FIELDS`]. [`parse_feed`]
/// calls it on every frame, so the schema cannot drift from its checker.
pub fn validate_frame(frame: &Json) -> Result<(), String> {
    let want_u64 = |name: &str| -> Result<u64, String> {
        frame
            .get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("frame field {name:?} missing or not a u64"))
    };
    want_u64("seq")?;
    want_u64("t_ns")?;
    want_u64("ops")?;
    want_u64("queue_depth")?;
    if want_u64("dcache_hit_milli")? > 1000 {
        return Err("frame field \"dcache_hit_milli\" exceeds 1000".to_string());
    }
    want_u64("slo_burn_milli")?;
    frame
        .get("stage")
        .and_then(Json::as_str)
        .ok_or("frame field \"stage\" missing or not a string")?;
    let counters = frame.get("counters").ok_or("frame field \"counters\" missing")?;
    for &c in FRAME_COUNTERS {
        counters
            .get(c.name())
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("counter delta {:?} missing or not a u64", c.name()))?;
    }
    let histos = frame.get("histos").ok_or("frame field \"histos\" missing")?;
    for &n in FRAME_HISTOS {
        let h = histos.get(n).ok_or_else(|| format!("histogram delta {n:?} missing"))?;
        for k in ["dsum", "dcount"] {
            h.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("histogram delta {n:?} lacks u64 {k:?}"))?;
        }
    }
    let signals = frame.get("signals").ok_or("frame field \"signals\" missing")?;
    for sig in Sig::ALL {
        let s = signals
            .get(sig.name())
            .ok_or_else(|| format!("signal {:?} missing", sig.name()))?;
        for k in ["ewma_milli", "samples", "low_count", "high_count"] {
            s.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("signal {:?} lacks u64 {k:?}", sig.name()))?;
        }
        if !matches!(s.get("low"), Some(Json::Bool(_))) {
            return Err(format!("signal {:?} lacks bool \"low\"", sig.name()));
        }
        if !matches!(s.get("floor_milli"), Some(Json::Null | Json::Int(_))) {
            return Err(format!("signal {:?} lacks null-or-int \"floor_milli\"", sig.name()));
        }
    }
    let Some(Json::Arr(cgs)) = frame.get("cgs") else {
        return Err("frame field \"cgs\" missing or not an array".to_string());
    };
    for c in cgs {
        for k in [
            "cg",
            "data_blocks",
            "used",
            "util_ewma_milli",
            "util_samples",
            "dread_ios",
            "dwrite_ios",
            "dread_sectors",
            "dwrite_sectors",
        ] {
            c.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("cg row lacks u64 {k:?}"))?;
        }
    }
    let Some(Json::Arr(threads)) = frame.get("threads") else {
        return Err("frame field \"threads\" missing or not an array".to_string());
    };
    if threads.len() != THREAD_SLOTS {
        return Err(format!(
            "frame field \"threads\" has {} slots, want {THREAD_SLOTS}",
            threads.len()
        ));
    }
    if !threads.iter().all(|t| t.as_u64().is_some()) {
        return Err("frame field \"threads\" holds a non-u64 slot".to_string());
    }
    let Some(Json::Arr(volumes)) = frame.get("volumes") else {
        return Err("frame field \"volumes\" missing or not an array".to_string());
    };
    for (i, v) in volumes.iter().enumerate() {
        for k in ["vol", "ops", "queue_depth", "dreads", "dwrites", "gf_util_ewma_milli"] {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("volume row lacks u64 {k:?}"))?;
        }
        if v.get("vol").and_then(Json::as_u64) != Some(i as u64) {
            return Err(format!("volume row {i} out of order"));
        }
    }
    let Some(Json::Arr(events)) = frame.get("events") else {
        return Err("frame field \"events\" missing or not an array".to_string());
    };
    for e in events {
        for k in ["t_ns", "a", "b"] {
            e.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("event lacks u64 {k:?}"))?;
        }
        e.get("tag")
            .and_then(Json::as_str)
            .ok_or("event lacks string \"tag\"")?;
    }
    // Every documented field must actually be present (the loop above
    // checked shapes; this catches a FRAME_FIELDS row with no producer).
    for (name, _) in FRAME_FIELDS {
        if frame.get(name).is_none() {
            return Err(format!("documented frame field {name:?} missing"));
        }
    }
    Ok(())
}

/// A parsed feed or flight dump: its frames in file order, and its heads,
/// each with the number of frames before it.
#[derive(Debug, Clone, Default)]
pub struct Records {
    pub frames: Vec<Json>,
    pub heads: Vec<(usize, Json)>,
}

/// Parse a feed or flight file's JSONL, validating each record: a
/// `"rec": "head"` line as a flight head, any other as a frame. A final
/// line without its `\n` is a record the sink is still appending, so it
/// is skipped rather than parsed.
pub fn parse_feed(text: &str) -> Result<Records, String> {
    let complete = &text[..text.rfind('\n').map_or(0, |i| i + 1)];
    let mut out = Records::default();
    for (i, line) in complete.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: String| format!("feed line {}: {e}", i + 1);
        let j = crate::json::parse(line).map_err(|e| at(format!("{e:?}")))?;
        match j.get("rec").and_then(Json::as_str) {
            Some("head") => {
                crate::flight::validate_head(&j).map_err(at)?;
                out.heads.push((out.frames.len(), j));
            }
            None | Some("frame") => {
                validate_frame(&j).map_err(at)?;
                out.frames.push(j);
            }
            Some(other) => return Err(at(format!("unknown record type {other:?}"))),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpKind;

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cffs-feed-{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn manual_tap_emits_valid_frames() {
        let path = tmp_path("manual");
        let sink = FeedSink::create(&path).unwrap();
        let obs = Obs::new();
        obs.configure_cg_table(CgTableConfigFixture::two_groups());
        {
            let tap = attach(&sink, &obs, "warm", Cadence::Manual);
            obs.set_clock_ns(1_000);
            obs.bump(Ctr::DiskRequests);
            {
                let _g = obs.span(OpKind::Read);
            }
            tap.frame("warm");
            obs.cg_used_delta(1, 3);
            obs.cg_util_sample(1, 75);
            tap.frame("churn");
            tap.dump("ignored"); // a feed tap has no dumps
        } // drop cuts the final frame
        let text = std::fs::read_to_string(&path).unwrap();
        let frames = parse_feed(&text).expect("all frames validate").frames;
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].get("stage").and_then(Json::as_str), Some("warm"));
        assert_eq!(frames[1].get("stage").and_then(Json::as_str), Some("churn"));
        assert_eq!(frames[2].get("stage").and_then(Json::as_str), Some("churn"));
        // Deltas: the disk request and op land in frame 0 only.
        assert_eq!(
            frames[0].get("counters").and_then(|c| c.get("disk_requests")).and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            frames[1].get("counters").and_then(|c| c.get("disk_requests")).and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(frames[0].get("ops").and_then(Json::as_u64), Some(1));
        // The CG gauge and EWMA show in frame 1.
        let cgs = match frames[1].get("cgs") {
            Some(Json::Arr(a)) => a,
            _ => panic!("cgs array"),
        };
        assert_eq!(cgs[1].get("used").and_then(Json::as_u64), Some(3));
        assert_eq!(cgs[1].get("util_ewma_milli").and_then(Json::as_u64), Some(75_000));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sim_cadence_cuts_frames_on_clock_crossings() {
        let path = tmp_path("sim");
        let sink = FeedSink::create(&path).unwrap();
        let obs = Obs::new();
        {
            let _tap = attach(&sink, &obs, "run", Cadence::Sim(1_000));
            obs.set_clock_ns(500); // below first boundary: no frame
            assert_eq!(sink.frames(), 0);
            obs.set_clock_ns(1_200); // crosses 1000
            assert_eq!(sink.frames(), 1);
            obs.set_clock_ns(1_300); // still inside [1000, 2000)
            assert_eq!(sink.frames(), 1);
            obs.set_clock_ns(5_000); // crosses (one frame per tick, not per interval)
            assert_eq!(sink.frames(), 2);
        }
        assert_eq!(sink.frames(), 3); // + final frame on detach
        // Detach reset the pacer: further clock movement is frame-free.
        obs.set_clock_ns(100_000);
        assert_eq!(sink.frames(), 3);
        let frames = parse_feed(&std::fs::read_to_string(&path).unwrap()).unwrap().frames;
        assert_eq!(frames[0].get("t_ns").and_then(Json::as_u64), Some(1_200));
        assert_eq!(frames[1].get("t_ns").and_then(Json::as_u64), Some(5_000));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn feed_sink_appends_one_complete_line_per_frame() {
        let path = tmp_path("append");
        let sink = FeedSink::create(&path).unwrap();
        let obs = Obs::new();
        let tap = attach(&sink, &obs, "s", Cadence::Manual);
        let mut seen = 0;
        for i in 0..10 {
            tap.frame("s");
            // After every frame the file is exactly the frames so far,
            // each on its own `\n`-terminated line, numbered in order.
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(text.ends_with('\n'));
            assert!(text.len() > seen, "frame {i} appended, not rewritten smaller");
            seen = text.len();
            let frames = parse_feed(&text).unwrap().frames;
            assert_eq!(frames.len(), i + 1);
            assert_eq!(frames[i].get("seq").and_then(Json::as_u64), Some(i as u64));
        }
        drop(tap);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_feed_skips_a_half_written_last_line() {
        let path = tmp_path("torn");
        let sink = FeedSink::create(&path).unwrap();
        let obs = Obs::new();
        let tap = attach(&sink, &obs, "s", Cadence::Manual);
        tap.frame("s");
        tap.frame("s");
        let text = std::fs::read_to_string(&path).unwrap();
        let next = text.lines().next().unwrap();
        // A reader racing the sink sees the next line cut short.
        for cut in [1, next.len() / 2, next.len()] {
            let torn = format!("{text}{}", &next[..cut]);
            assert_eq!(parse_feed(&torn).unwrap().frames.len(), 2, "cut at byte {cut}");
        }
        // A malformed line that does end in `\n` is still an error.
        assert!(parse_feed(&format!("{text}{}\n", &next[..next.len() / 2])).is_err());
        assert!(parse_feed(&format!("{text}{{}}\n")).is_err());
        drop(tap);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_frame_rejects_missing_fields() {
        let path = tmp_path("invalid");
        let sink = FeedSink::create(&path).unwrap();
        let obs = Obs::new();
        let tap = attach(&sink, &obs, "s", Cadence::Manual);
        tap.frame("s");
        let text = std::fs::read_to_string(&path).unwrap();
        let mut frame = crate::json::parse(text.lines().next().unwrap()).unwrap();
        validate_frame(&frame).unwrap();
        if let Json::Obj(m) = &mut frame {
            m.retain(|(k, _)| k != "signals");
        }
        assert!(validate_frame(&frame).is_err());
        drop(tap);
        std::fs::remove_file(&path).ok();
    }

    /// Builders for test fixtures.
    struct CgTableConfigFixture;
    impl CgTableConfigFixture {
        fn two_groups() -> crate::CgTableConfig {
            crate::CgTableConfig {
                first_block: 2,
                cg_size: 1024,
                sectors_per_block: 8,
                groups: vec![(1023, 10), (1023, 0)],
            }
        }
    }
}
