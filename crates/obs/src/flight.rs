//! Flight recorder — the always-on forensic black box.
//!
//! A recorder is a feed tap ([`crate::feed`]) whose sink is bounded: it
//! arms the same pacer on [`Obs::set_clock_ns`] (one relaxed load when
//! nothing is armed) and appends one `frame` per cut to
//! `FLIGHT_<name>.jsonl`. Its frames render against zero, so they carry
//! **cumulative** values under the feed's field names and every frame
//! stays meaningful on its own. A `head` opens the file; once the file
//! holds `2 × FLIGHT_FRAMES` frames, the sink rewrites it atomically as
//! a fresh head plus its last [`FLIGHT_FRAMES`] frames. So the file
//! stays bounded, and a run killed at an arbitrary instant leaves whole
//! lines on disk.
//!
//! Every explicit dump (the panic hook, fsck failures, a failed bench
//! write, detach) cuts a frame and appends a head after it, in one
//! write, carrying the final counter snapshot, the SLO table and the
//! last op spans closed since arming, so a flushed dump's last
//! frame equals its last head's snapshot. [`crate::feed::parse_feed`]
//! reads the file back and [`postmortem`] correlates it into a diagnosis.

use std::sync::{Arc, Mutex, Once, PoisonError, Weak};

use crate::feed::{
    attach_with_volumes, Cadence, FeedSink, FeedTap, Records, TapGuard, FRAME_COUNTERS,
    SIM_INTERVAL_DEFAULT_NS,
};
use crate::json::Json;
use crate::{obj, Ctr, Obs, Sig};

/// Frames a flight recorder's file keeps when it is compacted (at the
/// default 50 ms sim cadence: the last ~3 simulated seconds); it is
/// compacted when it holds twice as many.
pub const FLIGHT_FRAMES: usize = 64;

/// Closed op spans a head carries.
pub const FLIGHT_SPANS: usize = 256;

/// Record types of a `FLIGHT_*.jsonl` dump, with one-line descriptions —
/// the glossary README documents and `tests/doc_drift.rs` cross-checks.
pub const FLIGHT_RECORDS: &[(&str, &str)] = &[
    (
        "head",
        "dump header (opens the file, follows every explicit dump): name, capture reason, final counter snapshot, SLO table, last closed op spans",
    ),
    ("frame", "one cut: the feed's frame fields rendered against zero (cumulative), stage = cut reason"),
];

/// What makes a [`FeedSink`] a flight recorder: the name and registry
/// its heads are rendered from.
pub(crate) struct Recorder {
    name: String,
    pub(crate) obs: Arc<Obs>,
    /// Trace-ring watermark when the recorder was armed: its heads carry
    /// only spans closed after it.
    mark: u64,
}

impl Recorder {
    /// A head at simulated time `t_ns`: the registry's counters, SLO
    /// table and last [`FLIGHT_SPANS`] op spans closed since arming.
    pub(crate) fn head(&self, reason: &str, t_ns: u64) -> Json {
        let int = |v: u64| Json::Int(v as i64);
        let (events, _) = self.obs.events_since(self.mark);
        let mut spans: Vec<Json> = events
            .iter()
            .rev()
            .filter(|e| e.tag.starts_with("op.") && e.span != 0)
            .take(FLIGHT_SPANS)
            .map(|e| {
                obj![
                    ("t_ns", int(e.t_ns)),
                    ("op", Json::Str(e.op.to_string())),
                    ("span", int(e.span)),
                    ("dur_ns", int(e.dur_ns)),
                ]
            })
            .collect();
        spans.reverse();
        let counters = Ctr::ALL.iter().map(|&c| (c.name().to_string(), int(self.obs.get(c))));
        obj![
            ("rec", Json::Str("head".into())),
            ("name", Json::Str(self.name.clone())),
            ("reason", Json::Str(reason.to_string())),
            ("t_ns", int(t_ns)),
            ("interval_ns", int(SIM_INTERVAL_DEFAULT_NS)),
            ("counters_final", Json::Obj(counters.collect())),
            ("slo", self.obs.slo_json()),
            ("spans", Json::Arr(spans)),
        ]
    }
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

/// Arm a flight recorder on `obs` (with optional per-volume registries,
/// which give its frames their `volumes` rows), appending to
/// `FLIGHT_<name>.jsonl` under `dir` at the feed's default simulated
/// cadence. The file opens with a head and the arm-time frame, so even a
/// run killed before the first boundary leaves a readable black box.
/// The recorder registers itself for [`dump_all`]; dropping the guard
/// dumps with reason `"detach"`.
pub fn arm(
    dir: impl Into<std::path::PathBuf>,
    obs: &Arc<Obs>,
    vols: &[Arc<Obs>],
    name: &str,
) -> TapGuard {
    let recorder = Recorder { name: name.to_string(), obs: Arc::clone(obs), mark: obs.events_recorded() };
    let sink = FeedSink::bounded(dir.into().join(file_name(name)), recorder);
    let guard = attach_with_volumes(&sink, obs, vols, "periodic", Cadence::Sim(SIM_INTERVAL_DEFAULT_NS));
    {
        let mut reg = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
        reg.retain(|w| w.strong_count() > 0);
        reg.push(Arc::downgrade(&guard.tap));
    }
    guard.frame("armed");
    guard
}

/// Every recorder armed in this process (weak: guards own the strong
/// refs), so the panic hook and fsck failures can dump them all.
static REGISTRY: Mutex<Vec<Weak<FeedTap>>> = Mutex::new(Vec::new());

/// The recorders still armed (poison-tolerant: the panic hook reads it).
fn live() -> Vec<Arc<FeedTap>> {
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
    let live: Vec<std::path::PathBuf> = live().iter().map(|t| t.sink.path().to_path_buf()).collect();
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
/// per-volume registries as `vols` for its frames' `volumes` rows; each
/// member volume's own mount arms its own recorder.
pub fn arm_global(obs: &Arc<Obs>, vols: &[Arc<Obs>], name: &str) -> Option<TapGuard> {
    let dir = GLOBAL_DIR.lock().expect("flight dir poisoned").clone()?;
    let name = unique_name(&dir, name);
    Some(arm(dir, obs, vols, &name))
}

/// Flush every armed recorder with the given reason. Called by the panic
/// hook, by fsck on an inconsistent image, and by the bench reporters
/// before an `exit(1)`. Cheap no-op when nothing is armed.
pub fn dump_all(reason: &str) {
    for t in live() {
        t.dump(reason);
    }
}

// ---- validation, postmortem ----

/// Check a `head` record against the schema [`Recorder::head`] writes.
pub(crate) fn validate_head(j: &Json) -> Result<(), String> {
    for k in ["name", "reason"] {
        j.get(k)
            .and_then(Json::as_str)
            .ok_or(format!("head lacks string {k:?}"))?;
    }
    for k in ["t_ns", "interval_ns"] {
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
    let Some(Json::Arr(spans)) = j.get("spans") else {
        return Err("head lacks array \"spans\"".to_string());
    };
    for s in spans {
        s.get("op")
            .and_then(Json::as_str)
            .filter(|op| !op.is_empty())
            .ok_or("span lacks non-empty string \"op\"")?;
        for k in ["t_ns", "span", "dur_ns"] {
            s.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("span lacks u64 {k:?}"))?;
        }
    }
    Ok(())
}

/// Correlate a parsed dump into a structured postmortem report: the
/// retained frames' counter deltas, gauge/signal state at the last
/// frame, the per-CG utilization trajectory, the last head's slowest
/// spans, and a list of plain-language diagnosis lines (always
/// non-empty). A dump needs a head and a frame.
pub fn postmortem(dump: &Records) -> Result<Json, String> {
    let Some((before, head)) = dump.heads.last() else {
        return Err("flight dump lacks a head record".to_string());
    };
    let (Some(first), Some(last)) = (dump.frames.first(), dump.frames.last()) else {
        return Err("flight dump has no frames".to_string());
    };
    // Frames cut after the last head: the run ended without a flush.
    let unflushed = dump.frames.len() - before;
    let fu = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
    let t0 = fu(first, "t_ns");
    let t1 = fu(last, "t_ns");
    let reason = head.get("reason").and_then(Json::as_str).unwrap_or("?").to_string();
    let name = head.get("name").and_then(Json::as_str).unwrap_or("?").to_string();
    let head_spans = head.get("spans").and_then(Json::as_arr).unwrap_or_default();
    let events: usize =
        dump.frames.iter().filter_map(|f| f.get("events").and_then(Json::as_arr)).map(<[Json]>::len).sum();

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
    // last frame of a flushed dump must equal its last head's final
    // snapshot on every curated counter. A mismatch means the dump was
    // torn mid-flight.
    let fin = head.get("counters_final");
    let mut mismatches: Vec<Json> = Vec::new();
    for &c in FRAME_COUNTERS {
        let head_v = fin.and_then(|f| f.get(c.name())).and_then(Json::as_u64).unwrap_or(0);
        if unflushed == 0 && head_v != ctr_at(last, c.name()) {
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

    // Slowest spans the last head carries.
    let mut spans: Vec<&Json> = head_spans.iter().collect();
    spans.sort_by(|a, b| fu(b, "dur_ns").cmp(&fu(a, "dur_ns")).then(fu(a, "t_ns").cmp(&fu(b, "t_ns"))));
    let top_spans: Vec<Json> = spans.iter().take(5).map(|&s| s.clone()).collect();

    let queue_last = fu(last, "queue_depth");
    let burn = fu(last, "slo_burn_milli");
    let window_ms = t1.saturating_sub(t0) / 1_000_000;

    // Diagnosis: always at least the capture line and the consistency
    // verdict (or, for a run that ended without a flush, that no flush
    // followed the last frame), then whatever the window shows.
    let mut diagnosis: Vec<String> = Vec::new();
    diagnosis.push(format!(
        "{name}: captured on \"{reason}\" at t={t1} ns; window covers {window_ms} ms across {} frames, {} spans, {} events",
        dump.frames.len(),
        head_spans.len(),
        events,
    ));
    if unflushed > 0 {
        diagnosis.push(format!(
            "no flush followed the last frame: {unflushed} frames were cut after the last head (run killed?)"
        ));
    } else if mismatches.is_empty() {
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

    Ok(obj![
        ("name", Json::Str(name)),
        ("reason", Json::Str(reason)),
        ("t_first_ns", Json::Int(t0 as i64)),
        ("t_last_ns", Json::Int(t1 as i64)),
        ("frames", Json::Int(dump.frames.len() as i64)),
        ("spans", Json::Int(head_spans.len() as i64)),
        ("events", Json::Int(events as i64)),
        ("unflushed_frames", Json::Int(unflushed as i64)),
        // No verdict for a dump that ended without a flush.
        ("consistent", if unflushed > 0 { Json::Null } else { Json::Bool(mismatches.is_empty()) }),
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
    ])
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
    let cg_rows = |k: &str| match report.get(k) {
        Some(Json::Arr(rows)) => rows.as_slice(),
        _ => &[],
    };
    let ru = |r: &Json, k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(0);
    let hot = cg_rows("hot_cgs");
    if !hot.is_empty() {
        out.push_str("\nhottest cylinder groups (disk I/Os over the window):\n");
        for r in hot {
            out.push_str(&format!("  CG {:<6} {}\n", ru(r, "cg"), ru(r, "window_ios")));
        }
    }
    let drops = cg_rows("util_drops");
    if !drops.is_empty() {
        out.push_str("\ngroup-fetch utilization drops (milli-pct):\n");
        for r in drops {
            out.push_str(&format!("  CG {:<6} {} -> {}\n", ru(r, "cg"), ru(r, "from_milli"), ru(r, "to_milli")));
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
    use crate::feed::parse_feed;
    use crate::OpKind;
    use std::sync::MutexGuard;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("cffs-flight-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Armed recorders live in the process-global [`REGISTRY`], so a
    /// concurrent test's [`dump_all`] would append to this test's dump
    /// mid-assertion — serialize every test that arms one.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn read(g: &TapGuard) -> Records {
        parse_feed(&std::fs::read_to_string(g.path()).unwrap()).unwrap()
    }

    fn reason(r: &Records) -> Option<&str> {
        r.heads.last().and_then(|(_, h)| h.get("reason")).and_then(Json::as_str)
    }

    fn stages(r: &Records) -> Vec<&str> {
        r.frames.iter().map(|f| f.get("stage").and_then(Json::as_str).unwrap()).collect()
    }

    #[test]
    fn armed_recorder_appends_a_frame_per_cut() {
        let _s = serial();
        let dir = tmp_dir("basic");
        let obs = Obs::new();
        {
            let _g = obs.span(OpKind::Unlink); // before arming: not in any head
        }
        let guard = arm(&dir, &obs, &[], "unit basic");
        let path = guard.path().to_path_buf();
        // A head opens the file, then the arm-time frame.
        let r = read(&guard);
        assert_eq!((reason(&r), r.heads[0].0, stages(&r)), (Some("armed"), 0, vec!["armed"]));
        obs.bump(Ctr::DiskRequests);
        {
            let _g = obs.span(OpKind::Create);
        }
        let before = std::fs::read_to_string(&path).unwrap();
        obs.set_clock_ns(60_000_000); // crosses the 50 ms boundary
        let after = std::fs::read_to_string(&path).unwrap();
        assert!(after.starts_with(&before), "a cut appends");
        let r = read(&guard);
        assert_eq!(stages(&r), ["armed", "periodic"]);
        // Cumulative counters: the bump shows in the last frame.
        let last = r.frames.last().unwrap();
        assert_eq!(
            last.get("counters").and_then(|c| c.get("disk_requests")).and_then(Json::as_u64),
            Some(1)
        );
        drop(guard);
        // Guard drop cut a "detach" frame, then a head carrying the span.
        let r = parse_feed(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(reason(&r), Some("detach"));
        assert_eq!(stages(&r), ["armed", "periodic", "detach"]);
        let Some(Json::Arr(spans)) = r.heads.last().unwrap().1.get("spans") else { panic!("spans") };
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].get("op").and_then(Json::as_str), Some("create"));
        obs.set_clock_ns(500_000_000);
        let r2 = parse_feed(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(r2.frames.len(), r.frames.len(), "no cuts after detach");
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
        guard.dump("operator");
        let dump = read(&guard);
        assert_eq!(reason(&dump), Some("operator"));
        let report = postmortem(&dump).unwrap();
        assert_eq!(report.get("consistent"), Some(&Json::Bool(true)));
        let last = dump.frames.last().unwrap();
        assert_eq!(last.get("stage").and_then(Json::as_str), Some("operator"));
        assert_eq!(
            last.get("counters").and_then(|c| c.get("disk_reads")).and_then(Json::as_u64),
            Some(17)
        );
        assert_eq!(
            dump.heads.last().unwrap().1
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
    fn frames_carry_volume_rows() {
        let _s = serial();
        let dir = tmp_dir("vols");
        let set = Obs::new();
        let vols = vec![Obs::new(), Obs::new()];
        let guard = arm(&dir, &set, &vols, "unit-vols");
        vols[1].add(Ctr::DiskWrites, 5);
        guard.dump("check");
        let dump = read(&guard);
        let last = dump.frames.last().unwrap();
        let Some(Json::Arr(volumes)) = last.get("volumes") else { panic!("volumes") };
        assert_eq!(volumes.len(), 2);
        assert_eq!(volumes[1].get("dwrites").and_then(Json::as_u64), Some(5));
        drop(guard);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dump_all_reaches_every_armed_recorder() {
        let _s = serial();
        let dir = tmp_dir("all");
        let a = Obs::new();
        let b = Obs::new();
        let ga = arm(&dir, &a, &[], "unit-all-a");
        let gb = arm(&dir, &b, &[], "unit-all-b");
        dump_all("fsck_failure");
        for g in [&ga, &gb] {
            assert_eq!(reason(&read(g)), Some("fsck_failure"));
        }
        drop(ga);
        drop(gb);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The file holds fewer than `2 × FLIGHT_FRAMES` frames: reaching
    /// that rewrites it as a fresh head plus the last `FLIGHT_FRAMES`,
    /// and appending resumes on the new file. A head carries at most
    /// `FLIGHT_SPANS` spans.
    #[test]
    fn file_stays_bounded() {
        let _s = serial();
        let dir = tmp_dir("bounded");
        let obs = Obs::new();
        let guard = arm(&dir, &obs, &[], "unit-bounded");
        let cuts = 5 * FLIGHT_FRAMES as u64;
        for i in 0..cuts {
            obs.set_clock_ns((i + 1) * SIM_INTERVAL_DEFAULT_NS);
            let text = std::fs::read_to_string(guard.path()).unwrap();
            let r = parse_feed(&text).unwrap();
            assert!(r.frames.len() < 2 * FLIGHT_FRAMES, "cut {i}: {} frames", r.frames.len());
            assert!(text.starts_with("{\"rec\":\"head\""), "cut {i}: a head opens the file");
        }
        let r = read(&guard);
        // The armed frame plus one per cut; the retained ones end the run
        // in order.
        let seqs: Vec<u64> = r.frames.iter().map(|f| f.get("seq").and_then(Json::as_u64).unwrap()).collect();
        assert!(seqs.len() >= FLIGHT_FRAMES);
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "{seqs:?}");
        assert_eq!(*seqs.last().unwrap(), cuts);
        assert_eq!(reason(&r), Some("compacted"));
        for _ in 0..(FLIGHT_SPANS + 50) {
            let _g = obs.span(OpKind::Read);
        }
        guard.dump("bound-check");
        let r = read(&guard);
        assert!(r.frames.len() <= 2 * FLIGHT_FRAMES, "{} frames", r.frames.len());
        let Some(Json::Arr(spans)) = r.heads.last().unwrap().1.get("spans") else { panic!("spans") };
        assert_eq!(spans.len(), FLIGHT_SPANS);
        let report = postmortem(&r).unwrap();
        let Some(Json::Arr(diag)) = report.get("diagnosis") else { panic!("diagnosis") };
        assert!(!diag.is_empty(), "diagnosis is never empty");
        drop(guard);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A run that ends without a flush (killed after its last cut) gets
    /// no consistency verdict: the report says no flush followed the
    /// last frame.
    #[test]
    fn postmortem_of_an_unflushed_dump_says_so() {
        let _s = serial();
        let dir = tmp_dir("unflushed");
        let obs = Obs::new();
        let guard = arm(&dir, &obs, &[], "unit-unflushed");
        obs.set_clock_ns(SIM_INTERVAL_DEFAULT_NS);
        let report = postmortem(&read(&guard)).unwrap();
        assert_eq!(report.get("consistent"), Some(&Json::Null));
        assert_eq!(report.get("unflushed_frames").and_then(Json::as_u64), Some(2));
        let text = render_postmortem(&report);
        assert!(text.contains("no flush followed the last frame"), "{text}");
        assert!(!text.contains("internally consistent"), "{text}");
        drop(guard);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_and_postmortem_reject_malformed_dumps() {
        let _s = serial();
        assert!(postmortem(&parse_feed("").unwrap()).is_err(), "no head");
        assert!(parse_feed("{\"rec\":\"frame\"}\n").is_err(), "frame lacks its fields");
        assert!(parse_feed("{\"rec\":\"span\"}\n").is_err(), "no such record type");
        let dir = tmp_dir("reject");
        let obs = Obs::new();
        let guard = arm(&dir, &obs, &[], "unit-reject");
        guard.dump("x");
        let text = std::fs::read_to_string(guard.path()).unwrap();
        // Head alone (frames stripped) has nothing to diagnose.
        let head_only: String = text.lines().take(1).map(|l| format!("{l}\n")).collect();
        assert!(postmortem(&parse_feed(&head_only).unwrap()).is_err());
        // A head that lost a field does not validate.
        let head = text.lines().next().unwrap().replace("\"interval_ns\"", "\"interval\"");
        assert!(parse_feed(&format!("{head}\n")).is_err());
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
        guard.dump("stalled");
        let report = postmortem(&read(&guard)).unwrap();
        assert_eq!(report.get("queue_depth_last").and_then(Json::as_u64), Some(2));
        let text = render_postmortem(&report);
        assert!(text.contains("2 threads were waiting for the disk lock at capture"), "{text}");
        drop(guard);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The text report names the busiest cylinder group first and each
    /// group whose fetch utilization collapsed over the window.
    #[test]
    fn postmortem_text_names_hot_groups_and_utilization_drops() {
        let _s = serial();
        let dir = tmp_dir("hotcg");
        let obs = Obs::new();
        // Four groups of 100 blocks, 8 sectors each: CG c covers sectors
        // 800c..800(c+1).
        obs.configure_cg_table(crate::CgTableConfig {
            first_block: 0,
            cg_size: 100,
            sectors_per_block: 8,
            groups: vec![(90, 0); 4],
        });
        obs.cg_util_sample(3, 100);
        let guard = arm(&dir, &obs, &[], "unit-hotcg");
        for (cg, n) in [(0, 2), (2, 9), (1, 4)] {
            for _ in 0..n {
                obs.trace_io(0, "disk.read", cg * 800 + 16, 8, 10);
            }
        }
        for _ in 0..8 {
            obs.cg_util_sample(3, 10);
        }
        guard.dump("check");
        let text = render_postmortem(&postmortem(&read(&guard)).unwrap());
        let hot = text.split("hottest cylinder groups").nth(1).expect("a hot-group section");
        let rows: Vec<&str> = hot.lines().skip(1).take_while(|l| l.starts_with("  CG")).collect();
        assert_eq!(rows.len(), 3, "{text}");
        assert!(rows[0].starts_with("  CG 2 ") && rows[0].ends_with(" 9"), "busiest first: {text}");
        assert!(text.contains("group-fetch utilization drops"), "{text}");
        assert!(text.contains("CG 3      100000 -> "), "{text}");
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
        let path = guard.path().to_path_buf();
        let cuts = || {
            let dump = parse_feed(&std::fs::read_to_string(&path).unwrap()).unwrap();
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
        let feed = parse_feed(&std::fs::read_to_string(sink.path()).unwrap()).unwrap();
        assert!(feed.heads.is_empty(), "a feed has no heads");
        let t: Vec<u64> = feed.frames.iter().map(|f| f.get("t_ns").and_then(Json::as_u64).unwrap()).collect();
        assert_eq!(t, [1_500, 50_000_100, 50_000_100, 100_001_500, 200_000_000, 200_000_000]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
