//! Flight recorder — the always-on forensic black box.
//!
//! A [`Flight`] keeps a bounded in-memory window of recent telemetry for
//! one observed stack — sampler frames, closed op spans, and
//! `signal.*`/`regroup.*` events, all harvested from the registries the
//! stack already maintains — and persists the window atomically to
//! `FLIGHT_<name>.jsonl` at every frame cut. A run killed at an
//! arbitrary instant therefore always leaves a complete, schema-valid
//! dump of its final seconds on disk; explicit dumps (the panic hook,
//! fsck failures, [`Flight::dump`]) cut a fresh frame first, so the
//! dump's last frame always equals the head's final counter snapshot.
//!
//! The recorder is the feed's sampler with another sink: it arms the
//! same pacer on [`Obs::set_clock_ns`] (one relaxed load when nothing is
//! armed) and cuts the same frame as a feed tap. Spans and events are
//! *not* collected on their own hot paths — they are lifted out of the
//! existing trace ring at each cut via the [`Obs::events_since`]
//! watermark, so arming a recorder adds no per-op cost.
//!
//! Frame records render against zero, so they carry **cumulative**
//! values under the feed's field names: the ring overwrites oldest
//! frames, and cumulative values keep every retained frame independently
//! meaningful — the postmortem analyzer re-derives window deltas from
//! the first and last retained frames.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, Once, PoisonError, Weak};

use crate::feed::{validate_frame, Frame, FRAME_COUNTERS, SIM_INTERVAL_DEFAULT_NS};
use crate::json::Json;
use crate::{obj, Ctr, Event, Obs, Sampler, Sig};

/// Frames retained in a flight ring (at the default 50 ms sim cadence:
/// the last ~3 simulated seconds).
pub const FLIGHT_FRAMES: usize = 64;

/// Closed op spans retained in a flight ring.
pub const FLIGHT_SPANS: usize = 256;

/// `signal.*` / `regroup.*` events retained in a flight ring.
pub const FLIGHT_EVENTS: usize = 256;

/// Record types of a `FLIGHT_*.jsonl` dump, with one-line descriptions —
/// the glossary README documents and `tests/doc_drift.rs` cross-checks.
pub const FLIGHT_RECORDS: &[(&str, &str)] = &[
    ("head", "dump header: name, capture reason, final counter snapshot, SLO table"),
    ("frame", "one cut: the feed's frame fields rendered against zero (cumulative), stage = cut reason"),
    ("span", "one closed op span lifted from the trace ring (op, open time, latency)"),
    ("event", "one signal.* or regroup.* trace event retained in the capture window"),
];

/// One armed recorder: a bounded window of recent telemetry for one
/// observed stack, persisted to `FLIGHT_<name>.jsonl` on every cut.
pub struct Flight {
    path: std::path::PathBuf,
    name: String,
    obs: Arc<Obs>,
    /// Per-volume registries of a volume-set producer, in volume order
    /// (empty for single-volume stacks). Their spans/events are merged
    /// into this ring tagged with the volume index.
    vols: Vec<Arc<Obs>>,
    state: Mutex<FlightState>,
}

/// The window, each record kept as its rendered JSONL line so a persist
/// only concatenates.
struct FlightState {
    frames: VecDeque<String>,
    spans: VecDeque<String>,
    events: VecDeque<String>,
    /// Trace-ring watermarks: `marks[0]` for the primary registry,
    /// `marks[1 + i]` for volume `i`.
    marks: Vec<u64>,
    /// Frames cut since arming: the next frame's `seq`.
    cuts: u64,
    /// Reason recorded in the head of the most recent persist.
    reason: String,
    /// Set after the first failed write so the warning prints once.
    write_failed: bool,
}

/// Recover a possibly-poisoned flight lock: the recorder must stay
/// usable from a panic hook, where ordinary `.expect()` would abort the
/// process with a double panic.
fn lock_flight(m: &Mutex<FlightState>) -> MutexGuard<'_, FlightState> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `FLIGHT_<name>.jsonl` file name for a stack label (non-portable
/// characters mapped to `_`).
fn file_name(name: &str) -> String {
    let safe: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    format!("FLIGHT_{safe}.jsonl")
}

/// Render `row` onto a ring of capacity `cap`, evicting the oldest.
fn push_bounded(ring: &mut VecDeque<String>, row: Json, cap: usize) {
    ring.push_back(row.to_string());
    while ring.len() > cap {
        ring.pop_front();
    }
}

impl Flight {
    /// Where this recorder persists its dumps.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Push the closed spans and `signal.*`/`regroup.*` events among
    /// `fresh` into the rings, tagging rows with `vol` (`Null` for the
    /// primary registry).
    fn harvest(st: &mut FlightState, vol: Json, fresh: &[Event]) {
        for e in fresh {
            if e.tag.starts_with("op.") && e.span != 0 {
                let row = obj![
                    ("rec", Json::Str("span".into())),
                    ("vol", vol.clone()),
                    ("t_ns", Json::Int(e.t_ns as i64)),
                    ("op", Json::Str(e.op.to_string())),
                    ("span", Json::Int(e.span as i64)),
                    ("dur_ns", Json::Int(e.dur_ns as i64)),
                ];
                push_bounded(&mut st.spans, row, FLIGHT_SPANS);
            } else if e.tag.starts_with("signal.") || e.tag.starts_with("regroup.") {
                let row = obj![
                    ("rec", Json::Str("event".into())),
                    ("vol", vol.clone()),
                    ("t_ns", Json::Int(e.t_ns as i64)),
                    ("tag", Json::Str(e.tag.to_string())),
                    ("a", Json::Int(e.a as i64)),
                    ("b", Json::Int(e.b as i64)),
                ];
                push_bounded(&mut st.events, row, FLIGHT_EVENTS);
            }
        }
    }

    /// Cut one frame at simulated time `t_ns`: sample the registries,
    /// harvest spans/events from every registry, append the frame
    /// rendered against zero, and persist.
    fn cut(&self, t_ns: u64, reason: &str) {
        let mut st = lock_flight(&self.state);
        let frame = Frame::capture(&self.obs, &self.vols, t_ns, st.marks[0]);
        st.marks[0] = frame.mark;
        Flight::harvest(&mut st, Json::Null, &frame.fresh);
        for (i, v) in self.vols.iter().enumerate() {
            let (fresh, mark) = v.events_since(st.marks[1 + i]);
            st.marks[1 + i] = mark;
            Flight::harvest(&mut st, Json::Int(i as i64), &fresh);
        }
        let mut row = vec![
            ("rec".to_string(), Json::Str("frame".into())),
            ("seq".to_string(), Json::Int(st.cuts as i64)),
            ("stage".to_string(), Json::Str(reason.to_string())),
        ];
        row.extend(frame.render(&Frame::default()));
        push_bounded(&mut st.frames, Json::Obj(row), FLIGHT_FRAMES);
        st.cuts += 1;
        st.reason = reason.to_string();
        self.persist_locked(&mut st, t_ns);
    }

    /// Atomically rewrite the dump file from the current window. Write
    /// failures warn once and drop dumps rather than killing the run —
    /// the black box must never fail the flight it records.
    fn persist_locked(&self, st: &mut FlightState, t_ns: u64) {
        let head = obj![
            ("rec", Json::Str("head".into())),
            ("name", Json::Str(self.name.clone())),
            ("reason", Json::Str(st.reason.clone())),
            ("t_ns", Json::Int(t_ns as i64)),
            ("interval_ns", Json::Int(SIM_INTERVAL_DEFAULT_NS as i64)),
            (
                "counters_final",
                Json::Obj(
                    Ctr::ALL
                        .iter()
                        .map(|&c| (c.name().to_string(), Json::Int(self.obs.get(c) as i64)))
                        .collect()
                )
            ),
            ("slo", self.obs.slo_json()),
            ("nframes", Json::Int(st.frames.len() as i64)),
            ("nspans", Json::Int(st.spans.len() as i64)),
            ("nevents", Json::Int(st.events.len() as i64)),
        ];
        let mut text = head.to_string();
        text.push('\n');
        for row in st.frames.iter().chain(st.spans.iter()).chain(st.events.iter()) {
            text.push_str(row);
            text.push('\n');
        }
        if let Err(e) = crate::write_atomic(&self.path, text.as_bytes()) {
            if !st.write_failed {
                st.write_failed = true;
                eprintln!(
                    "warning: flight recorder write to {} failed: {e}",
                    self.path.display()
                );
            }
        }
    }

    /// Cut a frame and persist with an explicit reason (panic, fsck
    /// failure, operator request). Harvesting touches the registry locks,
    /// which may be poisoned mid-panic — any such failure falls back to
    /// persisting the window already captured.
    pub fn dump(&self, reason: &str) {
        let t = self.obs.global_clock_ns();
        let this = std::panic::AssertUnwindSafe(self);
        let r = std::panic::catch_unwind(move || this.cut(t, reason));
        if r.is_err() {
            let mut st = lock_flight(&self.state);
            st.reason = reason.to_string();
            self.persist_locked(&mut st, t);
        }
    }
}

impl Sampler for Flight {
    fn sample(&self, now_ns: u64) {
        self.cut(now_ns, "periodic");
    }
}

/// Guard returned by [`arm`]. Dropping it detaches the pacer, then cuts
/// one final frame (reason `"detach"`) and persists.
pub struct FlightGuard {
    flight: Arc<Flight>,
}

impl FlightGuard {
    /// The armed recorder (for explicit [`Flight::dump`] calls).
    pub fn flight(&self) -> &Arc<Flight> {
        &self.flight
    }
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        self.flight.obs.disarm_sampler(&self.flight);
        self.flight.dump("detach");
    }
}

/// Arm a flight recorder on `obs` (with optional per-volume registries),
/// persisting to `FLIGHT_<name>.jsonl` under `dir` at the feed's default
/// simulated cadence. The recorder registers itself for [`dump_all`].
pub fn arm(
    dir: impl Into<std::path::PathBuf>,
    obs: &Arc<Obs>,
    vols: &[Arc<Obs>],
    name: &str,
) -> FlightGuard {
    let flight = Arc::new(Flight {
        path: dir.into().join(file_name(name)),
        name: name.to_string(),
        obs: Arc::clone(obs),
        vols: vols.to_vec(),
        state: Mutex::new(FlightState {
            frames: VecDeque::new(),
            spans: VecDeque::new(),
            events: VecDeque::new(),
            marks: std::iter::once(obs.events_recorded())
                .chain(vols.iter().map(|v| v.events_recorded()))
                .collect(),
            cuts: 0,
            reason: String::new(),
            write_failed: false,
        }),
    });
    obs.arm_sampler(&flight, SIM_INTERVAL_DEFAULT_NS);
    {
        let mut reg = REGISTRY.lock().expect("flight registry poisoned");
        reg.retain(|w| w.strong_count() > 0);
        reg.push(Arc::downgrade(&flight));
    }
    // Persist the (empty-window) dump immediately so even a run killed
    // before the first cadence boundary leaves a parseable black box.
    flight.cut(obs.global_clock_ns(), "armed");
    FlightGuard { flight }
}

/// Every recorder armed in this process (weak: guards own the strong
/// refs), so the panic hook and fsck failures can dump them all.
static REGISTRY: Mutex<Vec<Weak<Flight>>> = Mutex::new(Vec::new());

/// The recorders still armed (poison-tolerant: the panic hook reads it).
fn live() -> Vec<Arc<Flight>> {
    let reg = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    reg.iter().filter_map(Weak::upgrade).collect()
}

/// Process-wide output directory set by `repro`'s `--flight`
/// flag; [`arm_global`] is a no-op until this is set.
static GLOBAL_DIR: Mutex<Option<std::path::PathBuf>> = Mutex::new(None);

/// Enable the process-global flight recorder: dumps land under `dir`
/// (created if missing), and a panic hook, installed once, flushes every
/// armed recorder before delegating to the previous hook.
pub fn set_global(dir: impl Into<std::path::PathBuf>) -> std::io::Result<std::path::PathBuf> {
    static PANIC_HOOK: Once = Once::new();
    let dir = dir.into();
    std::fs::create_dir_all(&dir)?;
    *GLOBAL_DIR.lock().expect("flight dir poisoned") = Some(dir.clone());
    PANIC_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            dump_all("panic");
            prev(info);
        }));
    });
    Ok(dir)
}

/// First name in `name`, `name-2`, `name-3`, ... whose dump file under
/// `dir` is not already owned by a live recorder — the volumes of a set
/// share one mount label, and their black boxes must not overwrite each
/// other.
fn unique_name(dir: &std::path::Path, name: &str) -> String {
    let live: Vec<std::path::PathBuf> = live().iter().map(|f| f.path.clone()).collect();
    let taken = |cand: &str| live.contains(&dir.join(file_name(cand)));
    if !taken(name) {
        return name.to_string();
    }
    (2..)
        .map(|n| format!("{name}-{n}"))
        .find(|cand| !taken(cand))
        .expect("unbounded suffix search")
}

/// Arm a recorder on `obs` under the global directory (no-op `None` when
/// `--flight` was not given — the hot path then keeps its single relaxed
/// load and mounts stay untouched). A volume-set producer passes its
/// per-volume registries as `vols`: their spans/events are merged into
/// the one ring tagged with their volume index.
pub fn arm_global(obs: &Arc<Obs>, vols: &[Arc<Obs>], name: &str) -> Option<FlightGuard> {
    let dir = GLOBAL_DIR.lock().expect("flight dir poisoned").clone()?;
    let name = unique_name(&dir, name);
    Some(arm(dir, obs, vols, &name))
}

/// Flush every armed recorder with the given reason. Called by the panic
/// hook, by fsck on an inconsistent image, and by the bench reporters
/// before an `exit(1)`. Cheap no-op when nothing is armed.
pub fn dump_all(reason: &str) {
    for f in live() {
        f.dump(reason);
    }
}

// ---- parsing, validation, postmortem ----

/// A parsed `FLIGHT_*.jsonl` dump.
#[derive(Debug, Clone)]
pub struct FlightDump {
    pub head: Json,
    pub frames: Vec<Json>,
    pub spans: Vec<Json>,
    pub events: Vec<Json>,
}

/// Parse and validate a flight dump. The first line must be the head
/// record; every record is checked against the documented schema.
pub fn parse_flight(text: &str) -> Result<FlightDump, String> {
    let mut head = None;
    let mut frames = Vec::new();
    let mut spans = Vec::new();
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ln = i + 1;
        let j = crate::json::parse(line).map_err(|e| format!("flight line {ln}: {e:?}"))?;
        let rec = j
            .get("rec")
            .and_then(Json::as_str)
            .ok_or(format!("flight line {ln}: record lacks string \"rec\""))?;
        match rec {
            "head" => {
                if head.is_some() || !frames.is_empty() {
                    return Err(format!("flight line {ln}: head must be the first record"));
                }
                validate_head(&j).map_err(|e| format!("flight line {ln}: {e}"))?;
                head = Some(j);
            }
            "frame" => {
                validate_frame(&j).map_err(|e| format!("flight line {ln}: {e}"))?;
                frames.push(j);
            }
            "span" => {
                validate_row(&j, "span", "op", &["t_ns", "span", "dur_ns"]).map_err(|e| format!("flight line {ln}: {e}"))?;
                spans.push(j);
            }
            "event" => {
                validate_row(&j, "event", "tag", &["t_ns", "a", "b"]).map_err(|e| format!("flight line {ln}: {e}"))?;
                events.push(j);
            }
            other => return Err(format!("flight line {ln}: unknown record type {other:?}")),
        }
    }
    let head = head.ok_or("flight dump lacks a head record")?;
    if frames.is_empty() {
        return Err("flight dump has no frames".to_string());
    }
    Ok(FlightDump { head, frames, spans, events })
}

fn validate_head(j: &Json) -> Result<(), String> {
    for k in ["name", "reason"] {
        j.get(k)
            .and_then(Json::as_str)
            .ok_or(format!("head lacks string {k:?}"))?;
    }
    for k in ["t_ns", "interval_ns", "nframes", "nspans", "nevents"] {
        j.get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("head lacks u64 {k:?}"))?;
    }
    let fin = j.get("counters_final").ok_or("head lacks \"counters_final\"")?;
    for c in Ctr::ALL {
        fin.get(c.name())
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("counters_final lacks u64 {:?}", c.name()))?;
    }
    j.get("slo").ok_or("head lacks \"slo\"")?;
    Ok(())
}

/// Check a `span` or `event` record: a null-or-int `vol` tag, the
/// non-empty string `name_key` and the u64 `u64_keys`.
fn validate_row(j: &Json, rec: &str, name_key: &str, u64_keys: &[&str]) -> Result<(), String> {
    if !matches!(j.get("vol"), Some(Json::Null) | Some(Json::Int(_))) {
        return Err(format!("{rec} lacks null-or-int \"vol\""));
    }
    j.get(name_key)
        .and_then(Json::as_str)
        .filter(|s| !s.is_empty())
        .ok_or(format!("{rec} lacks non-empty string {name_key:?}"))?;
    for k in u64_keys {
        j.get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("{rec} lacks u64 {k:?}"))?;
    }
    Ok(())
}

/// Correlate a parsed dump into a structured postmortem report: the
/// capture window's counter deltas, gauge/signal state at capture, the
/// per-CG utilization trajectory, the slowest spans, and a list of
/// plain-language diagnosis lines (always non-empty).
pub fn postmortem(dump: &FlightDump) -> Json {
    let first = &dump.frames[0];
    let last = dump.frames.last().expect("parse_flight requires frames");
    let fu = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
    let t0 = fu(first, "t_ns");
    let t1 = fu(last, "t_ns");
    let reason = dump.head.get("reason").and_then(Json::as_str).unwrap_or("?").to_string();
    let name = dump.head.get("name").and_then(Json::as_str).unwrap_or("?").to_string();

    // Window deltas of the curated counters (cumulative frames make this
    // a plain subtraction between the oldest and newest retained frames).
    let ctr_at = |f: &Json, name: &str| {
        f.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap_or(0)
    };
    let mut window: Vec<(String, Json)> = Vec::new();
    for &c in FRAME_COUNTERS {
        let d = ctr_at(last, c.name()).saturating_sub(ctr_at(first, c.name()));
        if d > 0 {
            window.push((c.name().to_string(), Json::Int(d as i64)));
        }
    }

    // Internal consistency: an explicit dump cuts a frame first, so the
    // last frame must equal the head's final snapshot on every curated
    // counter. A mismatch means the dump was torn mid-flight.
    let fin = dump.head.get("counters_final");
    let mut mismatches: Vec<Json> = Vec::new();
    for &c in FRAME_COUNTERS {
        let head_v = fin.and_then(|f| f.get(c.name())).and_then(Json::as_u64).unwrap_or(0);
        if head_v != ctr_at(last, c.name()) {
            mismatches.push(Json::Str(c.name().to_string()));
        }
    }

    // Signal state at capture.
    let mut signal_notes: Vec<String> = Vec::new();
    if let Some(signals) = last.get("signals") {
        for sig in Sig::ALL {
            let Some(s) = signals.get(sig.name()) else { continue };
            if matches!(s.get("low"), Some(Json::Bool(true))) {
                signal_notes.push(format!(
                    "signal {} was low at capture (ewma {} milli, {} low / {} high crossings)",
                    sig.name(),
                    fu(s, "ewma_milli"),
                    fu(s, "low_count"),
                    fu(s, "high_count"),
                ));
            }
        }
    }

    // Per-CG trajectory: traffic over the window and utilization drops.
    let cg_rows = |f: &Json| -> Vec<(u64, u64, u64, u64)> {
        match f.get("cgs") {
            Some(Json::Arr(a)) => a
                .iter()
                .map(|c| (fu(c, "cg"), fu(c, "util_ewma_milli"), fu(c, "dread_ios"), fu(c, "dwrite_ios")))
                .collect(),
            _ => Vec::new(),
        }
    };
    let cgs0 = cg_rows(first);
    let cgs1 = cg_rows(last);
    let mut hot: Vec<(u64, u64)> = Vec::new(); // (cg, window ios)
    let mut drops: Vec<(u64, u64, u64)> = Vec::new(); // (cg, util0, util1)
    for (i, &(cg, util1, r1, w1)) in cgs1.iter().enumerate() {
        let (_, util0, r0, w0) = cgs0.get(i).copied().unwrap_or((cg, util1, 0, 0));
        let dio = (r1 + w1).saturating_sub(r0 + w0);
        if dio > 0 {
            hot.push((cg, dio));
        }
        // A collapse: the EWMA lost at least a quarter of its value
        // across the window (and started from something real).
        if util0 >= 1000 && util1 < util0 - util0 / 4 {
            drops.push((cg, util0, util1));
        }
    }
    hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    hot.truncate(4);

    // Slowest spans in the window.
    let mut spans: Vec<&Json> = dump.spans.iter().collect();
    spans.sort_by(|a, b| fu(b, "dur_ns").cmp(&fu(a, "dur_ns")).then(fu(a, "t_ns").cmp(&fu(b, "t_ns"))));
    let top_spans: Vec<Json> = spans.iter().take(5).map(|&s| s.clone()).collect();

    let queue_last = fu(last, "queue_depth");
    let burn = fu(last, "slo_burn_milli");
    let window_ms = t1.saturating_sub(t0) / 1_000_000;

    // Diagnosis: always at least the capture line and the consistency
    // verdict, then whatever the window shows.
    let mut diagnosis: Vec<String> = Vec::new();
    diagnosis.push(format!(
        "{name}: captured on \"{reason}\" at t={t1} ns; window covers {window_ms} ms across {} frames, {} spans, {} events",
        dump.frames.len(),
        dump.spans.len(),
        dump.events.len(),
    ));
    if mismatches.is_empty() {
        diagnosis.push(
            "dump is internally consistent: last frame matches the final counter snapshot"
                .to_string(),
        );
    } else {
        diagnosis.push(format!(
            "WARNING: last frame disagrees with the final counter snapshot on {} counters (torn dump?)",
            mismatches.len()
        ));
    }
    let wc = |n: &str| window.iter().find(|(k, _)| k == n).and_then(|(_, v)| v.as_u64()).unwrap_or(0);
    if !window.is_empty() {
        diagnosis.push(format!(
            "window I/O: {} disk reads, {} disk writes, {} writebacks, {} group fetches, {} regroup blocks moved",
            wc("disk_reads"),
            wc("disk_writes"),
            wc("cache_writebacks"),
            wc("fs_group_fetches"),
            wc("regroup_blocks_moved"),
        ));
    }
    if queue_last > 0 {
        diagnosis.push(format!(
            "{queue_last} threads were waiting for the disk lock at capture"
        ));
    }
    diagnosis.extend(signal_notes);
    if burn >= 1000 {
        diagnosis.push(format!(
            "SLO error budget exhausted: worst per-op burn {burn} milli (1000 = exactly at budget)"
        ));
    } else if burn > 0 {
        diagnosis.push(format!("SLO burn at {burn} milli of the error budget"));
    }
    for &(cg, u0, u1) in drops.iter().take(4) {
        diagnosis.push(format!(
            "group-fetch utilization collapsed in CG {cg}: {u0} -> {u1} milli-pct over the window"
        ));
    }
    if let Some(s) = top_spans.first() {
        diagnosis.push(format!(
            "slowest op in window: {} took {} us (span {})",
            s.get("op").and_then(Json::as_str).unwrap_or("?"),
            fu(s, "dur_ns") / 1_000,
            fu(s, "span"),
        ));
    }

    obj![
        ("name", Json::Str(name)),
        ("reason", Json::Str(reason)),
        ("t_first_ns", Json::Int(t0 as i64)),
        ("t_last_ns", Json::Int(t1 as i64)),
        ("frames", Json::Int(dump.frames.len() as i64)),
        ("spans", Json::Int(dump.spans.len() as i64)),
        ("events", Json::Int(dump.events.len() as i64)),
        ("consistent", Json::Bool(mismatches.is_empty())),
        ("mismatches", Json::Arr(mismatches)),
        ("counters_window", Json::Obj(window)),
        ("queue_depth_last", Json::Int(queue_last as i64)),
        ("slo_burn_milli", Json::Int(burn as i64)),
        (
            "hot_cgs",
            Json::Arr(
                hot.iter()
                    .map(|&(cg, dio)| obj![
                        ("cg", Json::Int(cg as i64)),
                        ("window_ios", Json::Int(dio as i64)),
                    ])
                    .collect()
            )
        ),
        (
            "util_drops",
            Json::Arr(
                drops
                    .iter()
                    .map(|&(cg, u0, u1)| obj![
                        ("cg", Json::Int(cg as i64)),
                        ("from_milli", Json::Int(u0 as i64)),
                        ("to_milli", Json::Int(u1 as i64)),
                    ])
                    .collect()
            )
        ),
        ("top_spans", Json::Arr(top_spans)),
        (
            "diagnosis",
            Json::Arr(diagnosis.into_iter().map(Json::Str).collect())
        ),
    ]
}

/// Plain-text rendering of a [`postmortem`] report.
pub fn render_postmortem(report: &Json) -> String {
    let mut out = String::new();
    let gs = |k: &str| report.get(k).and_then(Json::as_str).unwrap_or("?");
    let gu = |k: &str| report.get(k).and_then(Json::as_u64).unwrap_or(0);
    out.push_str(&format!("postmortem: {} (reason: {})\n", gs("name"), gs("reason")));
    out.push_str(&format!(
        "window: t={}..{} ns  frames={} spans={} events={}\n",
        gu("t_first_ns"),
        gu("t_last_ns"),
        gu("frames"),
        gu("spans"),
        gu("events"),
    ));
    out.push_str("\ndiagnosis:\n");
    if let Some(Json::Arr(lines)) = report.get("diagnosis") {
        for l in lines {
            out.push_str(&format!("  - {}\n", l.as_str().unwrap_or("?")));
        }
    }
    if let Some(Json::Obj(window)) = report.get("counters_window") {
        if !window.is_empty() {
            out.push_str("\ncounter deltas over the window:\n");
            for (k, v) in window {
                out.push_str(&format!("  {:<28} {}\n", k, v.as_u64().unwrap_or(0)));
            }
        }
    }
    if let Some(Json::Arr(spans)) = report.get("top_spans") {
        if !spans.is_empty() {
            out.push_str("\nslowest spans in the window:\n");
            for s in spans {
                out.push_str(&format!(
                    "  {:<12} t={} ns  dur={} ns\n",
                    s.get("op").and_then(Json::as_str).unwrap_or("?"),
                    s.get("t_ns").and_then(Json::as_u64).unwrap_or(0),
                    s.get("dur_ns").and_then(Json::as_u64).unwrap_or(0),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpKind;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("cffs-flight-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Armed recorders live in the process-global [`REGISTRY`], so a
    /// concurrent test's [`dump_all`] would overwrite this test's dump
    /// (and its head reason) mid-assertion — serialize every test that
    /// arms one.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        match SERIAL.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn armed_flight_persists_parseable_dump_every_cut() {
        let _s = serial();
        let dir = tmp_dir("basic");
        let obs = Obs::new();
        let path;
        {
            let guard = arm(&dir, &obs, &[], "unit basic");
            path = guard.flight().path().to_path_buf();
            // The arm-time dump exists before any clock movement.
            let dump = parse_flight(&std::fs::read_to_string(&path).unwrap()).unwrap();
            assert_eq!(dump.head.get("reason").and_then(Json::as_str), Some("armed"));
            obs.bump(Ctr::DiskRequests);
            {
                let _g = obs.span(OpKind::Create);
            }
            obs.set_clock_ns(60_000_000); // crosses the 50 ms boundary
            let dump = parse_flight(&std::fs::read_to_string(&path).unwrap()).unwrap();
            assert_eq!(dump.head.get("reason").and_then(Json::as_str), Some("periodic"));
            assert_eq!(dump.frames.len(), 2);
            // Cumulative counters: the bump shows in the last frame.
            let last = dump.frames.last().unwrap();
            assert_eq!(
                last.get("counters").and_then(|c| c.get("disk_requests")).and_then(Json::as_u64),
                Some(1)
            );
            // The span was harvested from the trace ring.
            assert_eq!(dump.spans.len(), 1);
            assert_eq!(dump.spans[0].get("op").and_then(Json::as_str), Some("create"));
        }
        // Guard drop cut a final "detach" dump and disarmed the pacer.
        let dump = parse_flight(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(dump.head.get("reason").and_then(Json::as_str), Some("detach"));
        obs.set_clock_ns(500_000_000);
        let dump2 = parse_flight(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(dump2.frames.len(), dump.frames.len(), "no cuts after detach");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explicit_dump_last_frame_matches_final_counters() {
        let _s = serial();
        let dir = tmp_dir("explicit");
        let obs = Obs::new();
        let guard = arm(&dir, &obs, &[], "unit-explicit");
        obs.add(Ctr::DiskReads, 17);
        obs.add(Ctr::CacheWritebacks, 3);
        guard.flight().dump("operator");
        let text = std::fs::read_to_string(guard.flight().path()).unwrap();
        let dump = parse_flight(&text).unwrap();
        assert_eq!(dump.head.get("reason").and_then(Json::as_str), Some("operator"));
        let report = postmortem(&dump);
        assert_eq!(report.get("consistent"), Some(&Json::Bool(true)));
        let last = dump.frames.last().unwrap();
        assert_eq!(
            last.get("counters").and_then(|c| c.get("disk_reads")).and_then(Json::as_u64),
            Some(17)
        );
        assert_eq!(
            dump.head
                .get("counters_final")
                .and_then(|c| c.get("disk_reads"))
                .and_then(Json::as_u64),
            Some(17)
        );
        let text = render_postmortem(&report);
        assert!(text.contains("internally consistent"), "{text}");
        drop(guard);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn volume_rows_and_tags_are_merged() {
        let _s = serial();
        let dir = tmp_dir("vols");
        let set = Obs::new();
        let vols = vec![Obs::new(), Obs::new()];
        let guard = arm(&dir, &set, &vols, "unit-vols");
        vols[1].add(Ctr::DiskWrites, 5);
        {
            let _g = vols[1].span(OpKind::Write);
        }
        guard.flight().dump("check");
        let dump = parse_flight(&std::fs::read_to_string(guard.flight().path()).unwrap()).unwrap();
        let last = dump.frames.last().unwrap();
        let Some(Json::Arr(volumes)) = last.get("volumes") else { panic!("volumes") };
        assert_eq!(volumes.len(), 2);
        assert_eq!(volumes[1].get("dwrites").and_then(Json::as_u64), Some(5));
        // The volume-1 span carries its volume tag.
        let span = dump.spans.iter().find(|s| s.get("op").and_then(Json::as_str) == Some("write"));
        assert_eq!(span.unwrap().get("vol").and_then(Json::as_u64), Some(1));
        drop(guard);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dump_all_reaches_every_armed_flight() {
        let _s = serial();
        let dir = tmp_dir("all");
        let a = Obs::new();
        let b = Obs::new();
        let ga = arm(&dir, &a, &[], "unit-all-a");
        let gb = arm(&dir, &b, &[], "unit-all-b");
        dump_all("fsck_failure");
        for g in [&ga, &gb] {
            let dump = parse_flight(&std::fs::read_to_string(g.flight().path()).unwrap()).unwrap();
            assert_eq!(dump.head.get("reason").and_then(Json::as_str), Some("fsck_failure"));
        }
        drop(ga);
        drop(gb);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rings_stay_bounded() {
        let _s = serial();
        let dir = tmp_dir("bounded");
        let obs = Obs::new();
        let guard = arm(&dir, &obs, &[], "unit-bounded");
        for i in 0..(FLIGHT_FRAMES as u64 + 40) {
            obs.set_clock_ns((i + 1) * crate::feed::SIM_INTERVAL_DEFAULT_NS);
        }
        for _ in 0..(FLIGHT_SPANS + 50) {
            let _g = obs.span(OpKind::Read);
        }
        guard.flight().dump("bound-check");
        let dump = parse_flight(&std::fs::read_to_string(guard.flight().path()).unwrap()).unwrap();
        assert!(dump.frames.len() <= FLIGHT_FRAMES);
        assert!(dump.spans.len() <= FLIGHT_SPANS);
        let report = postmortem(&dump);
        let Some(Json::Arr(diag)) = report.get("diagnosis") else { panic!("diagnosis") };
        assert!(!diag.is_empty(), "diagnosis is never empty");
        drop(guard);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_rejects_torn_and_malformed_dumps() {
        let _s = serial();
        assert!(parse_flight("").is_err(), "no head");
        assert!(parse_flight("{\"rec\":\"frame\"}").is_err(), "frame before head");
        let dir = tmp_dir("reject");
        let obs = Obs::new();
        let guard = arm(&dir, &obs, &[], "unit-reject");
        guard.flight().dump("x");
        let text = std::fs::read_to_string(guard.flight().path()).unwrap();
        // Head alone (frames stripped) must not validate.
        let head_only: String = text.lines().take(1).map(|l| format!("{l}\n")).collect();
        assert!(parse_flight(&head_only).is_err());
        drop(guard);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn postmortem_names_threads_waiting_for_the_disk_lock() {
        let _s = serial();
        let dir = tmp_dir("queue");
        let obs = Obs::new();
        let guard = arm(&dir, &obs, &[], "unit-queue");
        obs.queue_depth_inc();
        obs.queue_depth_inc();
        guard.flight().dump("stalled");
        let dump = parse_flight(&std::fs::read_to_string(guard.flight().path()).unwrap()).unwrap();
        let report = postmortem(&dump);
        assert_eq!(report.get("queue_depth_last").and_then(Json::as_u64), Some(2));
        let text = render_postmortem(&report);
        assert!(text.contains("2 threads were waiting for the disk lock at capture"), "{text}");
        drop(guard);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One pacer drives a 1 µs feed tap and a 50 ms recorder on one
    /// registry: each cuts at its own boundaries, and detaching either
    /// leaves the other running.
    #[test]
    fn one_pacer_drives_a_feed_tap_and_a_recorder() {
        use crate::feed::{attach, Cadence, FeedSink};
        let _s = serial();
        let dir = tmp_dir("pacer");
        let obs = Obs::new();
        let sink = FeedSink::create(dir.join("feed.jsonl")).unwrap();
        let tap = attach(&sink, &obs, "run", Cadence::Sim(1_000));
        let guard = arm(&dir, &obs, &[], "unit-pacer");
        let path = guard.flight().path().to_path_buf();
        let cuts = || {
            let dump = parse_flight(&std::fs::read_to_string(&path).unwrap()).unwrap();
            dump.frames.iter().map(|f| f.get("t_ns").and_then(Json::as_u64).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(cuts(), [0], "the arm-time frame");
        obs.set_clock_ns(1_500); // the tap's first boundary only
        assert_eq!((sink.frames(), cuts()), (1, vec![0]));
        obs.set_clock_ns(1_700); // inside both intervals
        assert_eq!((sink.frames(), cuts()), (1, vec![0]));
        obs.set_clock_ns(50_000_100); // both boundaries at once
        assert_eq!((sink.frames(), cuts()), (2, vec![0, 50_000_100]));
        drop(tap); // + the detach frame
        assert_eq!(sink.frames(), 3);
        obs.set_clock_ns(100_000_000); // the recorder runs on alone
        assert_eq!((sink.frames(), cuts()), (3, vec![0, 50_000_100, 100_000_000]));

        let tap = attach(&sink, &obs, "again", Cadence::Sim(1_000));
        drop(guard); // + the recorder's detach frame
        assert_eq!(cuts().len(), 4);
        obs.set_clock_ns(100_001_500); // the tap runs on alone
        assert_eq!((sink.frames(), cuts().len()), (4, 4));
        obs.set_clock_ns(200_000_000);
        assert_eq!((sink.frames(), cuts().len()), (5, 4));
        drop(tap);
        assert_eq!(obs.due_ns.load(std::sync::atomic::Ordering::Relaxed), u64::MAX, "idle");
        let frames = crate::feed::parse_feed(&std::fs::read_to_string(sink.path()).unwrap()).unwrap();
        let t: Vec<u64> = frames.iter().map(|f| f.get("t_ns").and_then(Json::as_u64).unwrap()).collect();
        assert_eq!(t, [1_500, 50_000_100, 50_000_100, 100_001_500, 200_000_000, 200_000_000]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
