//! Streaming telemetry feed — timestamped frames folded from the atomic
//! registries, appended as JSONL for `cffs-top` (and any other consumer)
//! to follow or replay.
//!
//! A [`FeedSink`] owns the feed file. Each appended frame rewrites the
//! whole file through a staging-file + rename, the same atomic-write
//! discipline as the bench artifacts: a follower polling the path always
//! reads a complete prefix of frames, never a torn line. In-process
//! consumers can [`FeedSink::subscribe`] for a channel of rendered frame
//! lines instead of polling the file.
//!
//! A [`FeedTap`] attaches one observed stack ([`Obs`]) to a sink and
//! decides *when* frames are cut ([`Cadence`]):
//!
//! * `Sim(interval_ns)` — a frame whenever the stack's simulated clock
//!   crosses the next interval boundary. The check rides
//!   [`Obs::set_clock_ns`] (one relaxed load when no tap is attached),
//!   so emission happens at deterministic points of a deterministic
//!   run: same seed ⇒ byte-identical feed.
//! * `Host(duration)` — a background sampler thread cuts frames in wall
//!   time, for watching long soaks live.
//! * `Manual` — frames only via [`TapGuard::frame`], e.g. at the phase
//!   barriers of a multi-threaded run where the registries are
//!   quiescent.
//!
//! Frames carry *deltas* since the previous frame (counters, histogram
//! sum/count, per-CG traffic, per-thread ops) plus instantaneous state
//! (signal EWMAs, queue depth, per-CG occupancy). Every registry read
//! is an atomic load or a short leaf-lock copy, so a frame is a
//! consistent-enough snapshot without ever stopping the stack — see
//! DESIGN.md §8 for the consistency model.

use std::collections::VecDeque;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, Weak};

use crate::json::Json;
use crate::{obj, Ctr, Obs, Sig, THREAD_SLOTS};

/// Default simulated-time frame cadence: 50 ms of simulated time, a few
/// dozen frames per benchmark phase at the repro binaries' scales.
pub const SIM_INTERVAL_DEFAULT_NS: u64 = 50_000_000;

/// Counters carried (as deltas) in every frame, in frame order.
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

/// Histograms whose per-frame `(dsum, dcount)` deltas are carried in
/// every frame.
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
    ("signals", "live signal registry: EWMAs, armed thresholds, crossing counts"),
    ("cgs", "per-cylinder-group occupancy, utilization EWMA, and I/O deltas"),
    ("threads", "per-thread-slot op deltas since the previous frame"),
    ("events", "signal.* and regroup.* trace events recorded since the previous frame"),
    (
        "dcache_hit_milli",
        "namespace-cache hit rate (positive + negative) over probes since the previous frame, in milli-units; 0 when no probes",
    ),
    (
        "slo_burn_milli",
        "worst per-op SLO error-budget burn so far, milli-units (1000 = exactly at budget); 0 when no objectives are armed",
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
    /// A background sampler thread cuts frames every wall-clock
    /// interval (for watching live; frame count is nondeterministic).
    Host(std::time::Duration),
    /// Frames only on explicit [`TapGuard::frame`] calls.
    Manual,
}

/// Staging-name disambiguator (same discipline as the bench artifacts).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The feed file plus its in-process subscribers.
pub struct FeedSink {
    path: std::path::PathBuf,
    state: Mutex<SinkState>,
}

struct SinkState {
    /// Full JSONL content written so far (the file is atomically
    /// rewritten per frame, so the accumulated text is the file).
    text: String,
    frames: u64,
    subscribers: Vec<mpsc::Sender<String>>,
    /// Set after the first failed write so the warning prints once.
    write_failed: bool,
}

impl FeedSink {
    /// Create (truncate) the feed file and return the sink. The empty
    /// file is written immediately so `cffs-top --follow` can latch on
    /// before the first frame.
    pub fn create(path: impl Into<std::path::PathBuf>) -> std::io::Result<Arc<FeedSink>> {
        let path = path.into();
        std::fs::write(&path, "")?;
        Ok(Arc::new(FeedSink {
            path,
            state: Mutex::new(SinkState {
                text: String::new(),
                frames: 0,
                subscribers: Vec::new(),
                write_failed: false,
            }),
        }))
    }

    /// Where the feed is being written.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Frames appended so far.
    pub fn frames(&self) -> u64 {
        self.state.lock().expect("feed sink poisoned").frames
    }

    /// Receive every subsequent frame as its rendered JSONL line.
    pub fn subscribe(&self) -> mpsc::Receiver<String> {
        let (tx, rx) = mpsc::channel();
        self.state.lock().expect("feed sink poisoned").subscribers.push(tx);
        rx
    }

    /// Assign the next sequence number to `frame`, render it, and
    /// publish: atomic full-file rewrite + subscriber fan-out. Write
    /// failures warn once and drop frames rather than killing the run —
    /// telemetry must never fail the experiment it watches.
    fn append(&self, mut frame: Vec<(String, Json)>) {
        let mut st = self.state.lock().expect("feed sink poisoned");
        frame.insert(0, ("seq".to_string(), Json::Int(st.frames as i64)));
        let line = Json::Obj(frame).to_string();
        st.frames += 1;
        st.text.push_str(&line);
        st.text.push('\n');
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .path
            .with_extension(format!("{}.{}.tmp", std::process::id(), seq));
        let res = std::fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(st.text.as_bytes()))
            .and_then(|()| std::fs::rename(&tmp, &self.path));
        if let Err(e) = res {
            if !st.write_failed {
                st.write_failed = true;
                eprintln!("warning: telemetry feed write to {} failed: {e}", self.path.display());
            }
        }
        st.subscribers.retain(|tx| tx.send(line.clone()).is_ok());
    }
}

/// Per-tap delta baseline: the registry values at the previous frame.
struct Baseline {
    counters: Vec<u64>,
    histos: Vec<(u64, u64)>,
    cg_io: Vec<(u64, u64, u64, u64)>,
    threads: [u64; THREAD_SLOTS],
    events_mark: u64,
}

/// `(sum, count)` of each [`FRAME_HISTOS`] histogram, in frame order.
fn frame_histo_points(obs: &Obs) -> Vec<(u64, u64)> {
    let h = obs.histos();
    [&h.group_fetch_util_pct, &h.driver_batch_reqs, &h.cache_shard_hit_pct, &h.dcache_hit_pct]
        .iter()
        .map(|hg| {
            let s = hg.snapshot();
            (s.sum, s.count())
        })
        .collect()
}

impl Baseline {
    fn capture(obs: &Obs) -> Baseline {
        Baseline {
            counters: FRAME_COUNTERS.iter().map(|&c| obs.get(c)).collect(),
            histos: frame_histo_points(obs),
            cg_io: obs
                .cg_stats()
                .iter()
                .map(|c| (c.read_ios, c.write_ios, c.read_sectors, c.write_sectors))
                .collect(),
            threads: obs.thread_ops(),
            events_mark: obs.events_recorded(),
        }
    }
}

/// One attachment of an [`Obs`] to a [`FeedSink`] (see the module docs
/// for cadences). Created via [`attach`]; frames stop when the returned
/// [`TapGuard`] drops.
pub struct FeedTap {
    sink: Arc<FeedSink>,
    obs: Arc<Obs>,
    /// Per-volume registries of a volume-set producer, in volume order
    /// (empty for single-volume producers; drives the `volumes` rows).
    vols: Vec<Arc<Obs>>,
    interval_ns: u64,
    state: Mutex<TapState>,
}

struct TapState {
    stage: String,
    due_ns: u64,
    prev: Baseline,
    /// Per-volume delta baselines, parallel to [`FeedTap::vols`].
    vol_prev: Vec<VolBaseline>,
}

/// Per-volume delta baseline for the `volumes` frame rows.
struct VolBaseline {
    ops: u64,
    dreads: u64,
    dwrites: u64,
}

impl VolBaseline {
    fn capture(obs: &Obs) -> VolBaseline {
        VolBaseline {
            ops: obs.thread_ops().iter().sum(),
            dreads: obs.get(Ctr::DiskReads),
            dwrites: obs.get(Ctr::DiskWrites),
        }
    }
}

impl FeedTap {
    /// Cut one frame at simulated time `t_ns` (stage overridable for
    /// manual frames).
    fn emit(&self, t_ns: u64, stage: Option<&str>) {
        let mut st = self.state.lock().expect("feed tap poisoned");
        if let Some(s) = stage {
            st.stage = s.to_string();
        }
        let frame = self.build_frame(&mut st, t_ns);
        drop(st);
        self.sink.append(frame);
    }

    /// Simulated-clock pacer entry: called (via [`sim_fire`]) whenever
    /// the clock crosses `due_ns`. Rechecks under the tap lock so
    /// concurrent clock movers cut exactly one frame per crossing.
    pub(crate) fn sim_tick(&self, now_ns: u64) {
        let mut st = self.state.lock().expect("feed tap poisoned");
        if now_ns < st.due_ns {
            return;
        }
        st.due_ns = (now_ns / self.interval_ns + 1) * self.interval_ns;
        self.obs.feed_due_ns.store(st.due_ns, Ordering::Relaxed);
        let frame = self.build_frame(&mut st, now_ns);
        drop(st);
        self.sink.append(frame);
    }

    /// Fold the registries into one frame object and advance the
    /// baseline. Lock discipline: every read below is an atomic load or
    /// a short copy under one leaf lock (signals, trace ring, per-CG
    /// util) taken *sequentially*, never nested — emission can therefore
    /// run from any thread.
    fn build_frame(&self, st: &mut TapState, t_ns: u64) -> Vec<(String, Json)> {
        let obs = &self.obs;
        let cur = Baseline::capture(obs);
        let counters = Json::Obj(
            FRAME_COUNTERS
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    let prev = st.prev.counters.get(i).copied().unwrap_or(0);
                    (c.name().to_string(), Json::Int(cur.counters[i].saturating_sub(prev) as i64))
                })
                .collect(),
        );
        let histos = Json::Obj(
            FRAME_HISTOS
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    let (psum, pcount) = st.prev.histos.get(i).copied().unwrap_or((0, 0));
                    let (sum, count) = cur.histos[i];
                    (
                        n.to_string(),
                        obj![
                            ("dsum", Json::Int(sum.saturating_sub(psum) as i64)),
                            ("dcount", Json::Int(count.saturating_sub(pcount) as i64)),
                        ],
                    )
                })
                .collect(),
        );
        let cgs = Json::Arr(
            obs.cg_stats()
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let (pr, pw, prs, pws) = st.prev.cg_io.get(i).copied().unwrap_or((0, 0, 0, 0));
                    obj![
                        ("cg", Json::Int(c.cg as i64)),
                        ("data_blocks", Json::Int(c.data_blocks as i64)),
                        ("used", Json::Int(c.used as i64)),
                        ("util_ewma_milli", Json::Int(c.util_ewma_milli as i64)),
                        ("util_samples", Json::Int(c.util_samples as i64)),
                        ("dread_ios", Json::Int(c.read_ios.saturating_sub(pr) as i64)),
                        ("dwrite_ios", Json::Int(c.write_ios.saturating_sub(pw) as i64)),
                        ("dread_sectors", Json::Int(c.read_sectors.saturating_sub(prs) as i64)),
                        ("dwrite_sectors", Json::Int(c.write_sectors.saturating_sub(pws) as i64)),
                    ]
                })
                .collect(),
        );
        let threads = Json::Arr(
            (0..THREAD_SLOTS)
                .map(|i| Json::Int(cur.threads[i].saturating_sub(st.prev.threads[i]) as i64))
                .collect(),
        );
        let ops: u64 = (0..THREAD_SLOTS)
            .map(|i| cur.threads[i].saturating_sub(st.prev.threads[i]))
            .sum();
        // Namespace-cache hit rate over this frame's window, derived
        // from the counter deltas already captured above.
        let dctr = |ctr: Ctr| -> u64 {
            FRAME_COUNTERS
                .iter()
                .position(|&c| c == ctr)
                .map(|i| {
                    cur.counters[i].saturating_sub(st.prev.counters.get(i).copied().unwrap_or(0))
                })
                .unwrap_or(0)
        };
        let dcache_hits = dctr(Ctr::DcacheHits) + dctr(Ctr::DcacheNegHits);
        let dcache_probes = dcache_hits + dctr(Ctr::DcacheMisses);
        let dcache_hit_milli = (dcache_hits * 1000).checked_div(dcache_probes).unwrap_or(0);
        let (fresh, mark) = obs.events_since(st.prev.events_mark);
        let events = Json::Arr(
            fresh
                .iter()
                .filter(|e| e.tag.starts_with("signal.") || e.tag.starts_with("regroup."))
                .map(|e| {
                    obj![
                        ("t_ns", Json::Int(e.t_ns as i64)),
                        ("tag", Json::Str(e.tag.to_string())),
                        ("a", Json::Int(e.a as i64)),
                        ("b", Json::Int(e.b as i64)),
                    ]
                })
                .collect(),
        );
        let vol_cur: Vec<VolBaseline> =
            self.vols.iter().map(|v| VolBaseline::capture(v)).collect();
        let volumes = Json::Arr(
            self.vols
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let zero = VolBaseline { ops: 0, dreads: 0, dwrites: 0 };
                    let prev = st.vol_prev.get(i).unwrap_or(&zero);
                    let gf = v.signal(Sig::GroupFetchUtil);
                    obj![
                        ("vol", Json::Int(i as i64)),
                        ("ops", Json::Int(vol_cur[i].ops.saturating_sub(prev.ops) as i64)),
                        ("queue_depth", Json::Int(v.queue_depth() as i64)),
                        (
                            "dreads",
                            Json::Int(vol_cur[i].dreads.saturating_sub(prev.dreads) as i64)
                        ),
                        (
                            "dwrites",
                            Json::Int(vol_cur[i].dwrites.saturating_sub(prev.dwrites) as i64)
                        ),
                        (
                            "gf_util_ewma_milli",
                            Json::Int((gf.ewma * 1000.0).round() as i64)
                        ),
                    ]
                })
                .collect(),
        );
        let frame = vec![
            ("stage".to_string(), Json::Str(st.stage.clone())),
            ("t_ns".to_string(), Json::Int(t_ns as i64)),
            ("counters".to_string(), counters),
            ("ops".to_string(), Json::Int(ops as i64)),
            ("queue_depth".to_string(), Json::Int(obs.queue_depth() as i64)),
            ("histos".to_string(), histos),
            ("signals".to_string(), obs.signals_json()),
            ("cgs".to_string(), cgs),
            ("threads".to_string(), threads),
            ("events".to_string(), events),
            ("dcache_hit_milli".to_string(), Json::Int(dcache_hit_milli as i64)),
            ("slo_burn_milli".to_string(), Json::Int(obs.slo_burn_milli() as i64)),
            ("volumes".to_string(), volumes),
        ];
        st.prev = cur;
        st.prev.events_mark = mark;
        st.vol_prev = vol_cur;
        frame
    }
}

/// Guard returned by [`attach`]. Dropping it detaches the tap (stopping
/// the pacer / sampler thread) and cuts one final frame, so every stage
/// is guaranteed at least one frame even if its run ended between
/// cadence boundaries.
pub struct TapGuard {
    tap: Arc<FeedTap>,
    sim: bool,
    stop: Option<Arc<AtomicBool>>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl TapGuard {
    /// Cut a frame right now, relabelling the tap's stage. The manual
    /// cadence's only trigger; valid (if rarely needed) on the others.
    pub fn frame(&self, stage: &str) {
        self.tap.emit(self.tap.obs.global_clock_ns(), Some(stage));
    }
}

impl Drop for TapGuard {
    fn drop(&mut self) {
        if let Some(stop) = &self.stop {
            stop.store(true, Ordering::Relaxed);
        }
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        if self.sim {
            let obs = &self.tap.obs;
            obs.feed_due_ns.store(u64::MAX, Ordering::Relaxed);
            *obs.feed_tap.lock().expect("feed tap slot poisoned") = None;
        }
        self.tap.emit(self.tap.obs.global_clock_ns(), None);
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
    let interval_ns = match cadence {
        Cadence::Sim(i) => i.max(1),
        _ => u64::MAX,
    };
    let tap = Arc::new(FeedTap {
        sink: Arc::clone(sink),
        obs: Arc::clone(obs),
        vols: vols.to_vec(),
        interval_ns,
        state: Mutex::new(TapState {
            stage: stage.to_string(),
            due_ns: u64::MAX,
            prev: Baseline::capture(obs),
            vol_prev: vols.iter().map(|v| VolBaseline::capture(v)).collect(),
        }),
    });
    let mut guard = TapGuard { tap: Arc::clone(&tap), sim: false, stop: None, join: None };
    match cadence {
        Cadence::Sim(_) => {
            let now = obs.global_clock_ns();
            let due = (now / interval_ns + 1) * interval_ns;
            tap.state.lock().expect("feed tap poisoned").due_ns = due;
            *obs.feed_tap.lock().expect("feed tap slot poisoned") = Some(Arc::downgrade(&tap));
            obs.feed_due_ns.store(due, Ordering::Relaxed);
            guard.sim = true;
        }
        Cadence::Host(every) => {
            let stop = Arc::new(AtomicBool::new(false));
            let t = Arc::clone(&tap);
            let s = Arc::clone(&stop);
            guard.join = Some(std::thread::spawn(move || {
                // The background sampler: cut a frame per wall interval
                // until the guard drops.
                while !s.load(Ordering::Relaxed) {
                    std::thread::sleep(every);
                    if s.load(Ordering::Relaxed) {
                        break;
                    }
                    t.emit(t.obs.global_clock_ns(), None);
                }
            }));
            guard.stop = Some(stop);
        }
        Cadence::Manual => {}
    }
    guard
}

/// Dispatch a simulated-clock crossing from [`Obs::set_clock_ns`] to the
/// attached tap (resetting the pacer when the tap is gone).
pub(crate) fn sim_fire(obs: &Obs, now_ns: u64) {
    let tap = obs
        .feed_tap
        .lock()
        .expect("feed tap slot poisoned")
        .as_ref()
        .and_then(Weak::upgrade);
    match tap {
        Some(t) => t.sim_tick(now_ns),
        None => obs.feed_due_ns.store(u64::MAX, Ordering::Relaxed),
    }
}

/// Process-wide sink used by the repro binaries' `--feed <path>` flag:
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

/// The process-global feed sink, if one was set.
pub fn global() -> Option<Arc<FeedSink>> {
    GLOBAL_SINK.lock().expect("global feed sink poisoned").clone()
}

/// Attach `obs` to the process-global sink (no-op `None` when `--feed`
/// was not given). Stages across one process share the sink, so a run's
/// consecutive stages accumulate into one replayable feed.
pub fn tap_global(obs: &Arc<Obs>, stage: &str, cadence: Cadence) -> Option<TapGuard> {
    global().map(|sink| attach(&sink, obs, stage, cadence))
}

/// [`tap_global`] with per-volume registries attached (see
/// [`attach_with_volumes`]).
pub fn tap_global_volumes(
    obs: &Arc<Obs>,
    vols: &[Arc<Obs>],
    stage: &str,
    cadence: Cadence,
) -> Option<TapGuard> {
    global().map(|sink| attach_with_volumes(&sink, obs, vols, stage, cadence))
}

/// [`tap_global`] at the default simulated cadence — the one-liner the
/// experiment stages use.
pub fn tap_global_sim(obs: &Arc<Obs>, stage: &str) -> Option<TapGuard> {
    tap_global(obs, stage, Cadence::Sim(SIM_INTERVAL_DEFAULT_NS))
}

/// Validate one parsed feed frame against the schema documented by
/// [`FRAME_FIELDS`]. Shared by `bench_schema_check --feed` and the feed
/// tests so the schema cannot drift from its checker.
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
        for k in ["low", "high"] {
            match s.get(k) {
                Some(Json::Bool(_)) => {}
                _ => return Err(format!("signal {:?} lacks bool {k:?}", sig.name())),
            }
        }
        for k in ["floor_milli", "ceiling_milli"] {
            match s.get(k) {
                Some(Json::Null) | Some(Json::Int(_)) => {}
                _ => return Err(format!("signal {:?} lacks null-or-int {k:?}", sig.name())),
            }
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

/// Parse a feed file's JSONL into frames, validating each. Returns the
/// frames in file order.
pub fn parse_feed(text: &str) -> Result<Vec<Json>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let j = crate::json::parse(line).map_err(|e| format!("feed line {}: {e:?}", i + 1))?;
        validate_frame(&j).map_err(|e| format!("feed line {}: {e}", i + 1))?;
        out.push(j);
    }
    Ok(out)
}

/// A bounded rolling history of one numeric series, for sparklines.
/// (Here rather than in the renderer so in-process subscribers get the
/// same windowing as `cffs-top`.)
#[derive(Debug, Clone)]
pub struct Series {
    cap: usize,
    vals: VecDeque<f64>,
}

impl Series {
    /// A series retaining the last `cap` points.
    pub fn new(cap: usize) -> Series {
        Series { cap: cap.max(1), vals: VecDeque::new() }
    }

    /// Append one point, evicting the oldest past capacity.
    pub fn push(&mut self, v: f64) {
        if self.vals.len() == self.cap {
            self.vals.pop_front();
        }
        self.vals.push_back(v);
    }

    /// The retained points, oldest first.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.vals.iter().copied()
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True when no points have been pushed.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// The most recent point, if any.
    pub fn last(&self) -> Option<f64> {
        self.vals.back().copied()
    }
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
        } // drop cuts the final frame
        let text = std::fs::read_to_string(&path).unwrap();
        let frames = parse_feed(&text).expect("all frames validate");
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].get("stage").and_then(Json::as_str), Some("warm"));
        assert_eq!(frames[1].get("stage").and_then(Json::as_str), Some("churn"));
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
        let frames = parse_feed(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(frames[0].get("t_ns").and_then(Json::as_u64), Some(1_200));
        assert_eq!(frames[1].get("t_ns").and_then(Json::as_u64), Some(5_000));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn subscriber_sees_every_frame_line() {
        let path = tmp_path("sub");
        let sink = FeedSink::create(&path).unwrap();
        let rx = sink.subscribe();
        let obs = Obs::new();
        let tap = attach(&sink, &obs, "s", Cadence::Manual);
        tap.frame("s");
        drop(tap);
        let lines: Vec<String> = rx.try_iter().collect();
        assert_eq!(lines.len(), 2);
        for l in &lines {
            validate_frame(&crate::json::parse(l).unwrap()).unwrap();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn host_cadence_samples_in_wall_time() {
        let path = tmp_path("host");
        let sink = FeedSink::create(&path).unwrap();
        let obs = Obs::new();
        {
            let _tap = attach(
                &sink,
                &obs,
                "soak",
                Cadence::Host(std::time::Duration::from_millis(1)),
            );
            obs.set_clock_ns(42);
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        // At least the detach frame; almost surely sampler frames too.
        assert!(sink.frames() >= 1);
        parse_feed(&std::fs::read_to_string(&path).unwrap()).expect("frames validate");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn feed_file_is_rewritten_atomically_per_frame() {
        let path = tmp_path("atomic");
        let sink = FeedSink::create(&path).unwrap();
        let obs = Obs::new();
        let tap = attach(&sink, &obs, "s", Cadence::Manual);
        for _ in 0..10 {
            tap.frame("s");
        }
        // Every intermediate state was a complete file; the final state
        // has all 10 frames and no staging leftovers.
        let dir = path.parent().unwrap();
        let strays: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.file_name().to_string_lossy().starts_with(
                    path.file_stem().unwrap().to_string_lossy().as_ref(),
                ) && e.path().extension().is_some_and(|x| x == "tmp")
            })
            .collect();
        assert!(strays.is_empty(), "staging files renamed away: {strays:?}");
        assert_eq!(
            parse_feed(&std::fs::read_to_string(&path).unwrap()).unwrap().len(),
            10
        );
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
