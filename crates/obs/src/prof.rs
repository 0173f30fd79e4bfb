//! Simulated-time profiler: fold [`SpanRecord`]s into collapsed-stack
//! flamegraph format, and summarize a phase's time-attribution split.
//!
//! Folding answers "where did simulated time go" for a whole run: every
//! nanosecond of the window lands in exactly one leaf frame —
//! `{root};{op};disk_req/service` (mechanical service), `{root};{op};
//! disk_req/queue` (waiting behind earlier requests), `{root};{op}`
//! (in-memory op work), `{root};(none);disk_req/service` (disk activity
//! outside any span, e.g. mount), `{root};idle` (no span open, no
//! request in flight), or `{root};(evicted)` (history lost to trace-ring
//! wrap) — so a fold's total weight always equals the window's elapsed
//! simulated nanoseconds.
//!
//! Records come either from a full-run span log
//! ([`Obs::enable_span_log`](crate::Obs::enable_span_log)) or are
//! reconstructed from the trace ring by [`spans_from_events`], which
//! marks spans whose history was partially overwritten as
//! `truncated` rather than silently under-attributing them.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::obj;
use crate::{Ctr, Event, OpKind, SpanRecord, StatsSnapshot};

/// A collapsed-stack fold: `stack -> weight in simulated nanoseconds`.
/// Stacks are `;`-separated frames, rendered in sorted order so output
/// is byte-stable for a deterministic run.
#[derive(Debug, Clone, Default)]
pub struct Fold {
    lines: BTreeMap<String, u64>,
}

impl Fold {
    /// Add weight to a stack (zero weights are dropped).
    pub fn add(&mut self, stack: String, weight_ns: u64) {
        if weight_ns > 0 {
            *self.lines.entry(stack).or_insert(0) += weight_ns;
        }
    }

    /// Total weight across all stacks.
    pub fn total_ns(&self) -> u64 {
        self.lines.values().sum()
    }

    /// True when no stack carries weight.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// `(stack, weight)` pairs in sorted order.
    pub fn lines(&self) -> impl Iterator<Item = (&str, u64)> {
        self.lines.iter().map(|(s, &w)| (s.as_str(), w))
    }

    /// Collapsed-stack text: one `stack weight` line per entry, sorted.
    pub fn collapse(&self) -> String {
        let mut out = String::new();
        for (stack, w) in &self.lines {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&w.to_string());
            out.push('\n');
        }
        out
    }

    /// Self-contained SVG flamegraph (icicle layout, deterministic
    /// colors and ordering). Suitable for opening directly in a browser.
    pub fn svg(&self) -> String {
        let mut root = Frame::default();
        for (stack, &w) in &self.lines {
            root.insert(stack.split(';'), w);
        }
        let total = root.total_ns().max(1);

        const WIDTH: f64 = 1200.0;
        const ROW: f64 = 17.0;
        let depth = root.depth();
        let height = (depth as f64 + 2.0) * ROW + 4.0;

        let mut svg = String::new();
        svg.push_str(&format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" \
             height=\"{height}\" font-family=\"monospace\" font-size=\"11\">\n"
        ));
        svg.push_str(&format!(
            "<rect x=\"0\" y=\"0\" width=\"{WIDTH}\" height=\"{height}\" \
             fill=\"#f8f8f8\"/>\n"
        ));
        // Root bar spans the whole run.
        emit_frame(&mut svg, "all", total, total, 0.0, 0.0, WIDTH, ROW);
        let mut x = 0.0;
        for (name, child) in &root.children {
            let w = child.total_ns();
            emit_subtree(&mut svg, name, child, w, total, x, ROW, WIDTH, ROW);
            x += WIDTH * (w as f64 / total as f64);
        }
        svg.push_str("</svg>\n");
        svg
    }
}

#[derive(Debug, Default)]
struct Frame {
    self_ns: u64,
    children: BTreeMap<String, Frame>,
}

impl Frame {
    fn insert<'a>(&mut self, mut frames: std::str::Split<'a, char>, w: u64) {
        match frames.next() {
            Some(f) => self.children.entry(f.to_string()).or_default().insert(frames, w),
            None => self.self_ns += w,
        }
    }

    fn total_ns(&self) -> u64 {
        self.self_ns + self.children.values().map(Frame::total_ns).sum::<u64>()
    }

    fn depth(&self) -> usize {
        1 + self.children.values().map(Frame::depth).max().unwrap_or(0)
    }
}

#[allow(clippy::too_many_arguments)]
fn emit_subtree(
    svg: &mut String,
    name: &str,
    frame: &Frame,
    w: u64,
    total: u64,
    x: f64,
    y: f64,
    width: f64,
    row: f64,
) {
    emit_frame(svg, name, w, total, x, y, width, row);
    let mut cx = x;
    for (cname, child) in &frame.children {
        let cw = child.total_ns();
        emit_subtree(svg, cname, child, cw, total, cx, y + row, width, row);
        cx += width * (cw as f64 / total as f64);
    }
}

#[allow(clippy::too_many_arguments)]
fn emit_frame(
    svg: &mut String,
    name: &str,
    w: u64,
    total: u64,
    x: f64,
    y: f64,
    width: f64,
    row: f64,
) {
    let px = width * (w as f64 / total as f64);
    if px < 0.1 {
        return;
    }
    let pct = 100.0 * w as f64 / total as f64;
    svg.push_str(&format!(
        "<g><title>{name} ({w} ns, {pct:.2}%)</title>\
         <rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{px:.2}\" height=\"{h:.2}\" \
         fill=\"{fill}\" stroke=\"#f8f8f8\" stroke-width=\"0.5\"/>",
        h = row - 1.0,
        fill = color_for(name),
    ));
    // Label only when the box can fit a few characters.
    let chars = (px / 7.0) as usize;
    if chars >= 3 {
        let label: String = name.chars().take(chars).collect();
        svg.push_str(&format!(
            "<text x=\"{tx:.2}\" y=\"{ty:.2}\">{label}</text>",
            tx = x + 2.0,
            ty = y + row - 5.0,
        ));
    }
    svg.push_str("</g>\n");
}

/// Deterministic warm-palette color keyed by frame name (FNV-1a hash).
fn color_for(name: &str) -> &'static str {
    const PALETTE: [&str; 12] = [
        "#e5573f", "#e8743f", "#eb8f3f", "#edaa40", "#f0c541", "#d9b33c",
        "#e06448", "#db824a", "#e39a45", "#ce5a36", "#f2b04a", "#e6803c",
    ];
    if name == "idle" {
        return "#c8d0d8";
    }
    if name == "(evicted)" {
        return "#b0a8c0";
    }
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    PALETTE[(h % PALETTE.len() as u64) as usize]
}

/// Reconstruct [`SpanRecord`]s from retained trace-ring events.
///
/// Spans are materialized from their `op.*` close events (which carry
/// the open time and latency) plus the `disk.*` events stamped with
/// their span id. When `wrapped` is true the ring overwrote its oldest
/// entries, so any span opening at or before the first retained event's
/// timestamp may have lost disk events — those are reported with
/// `truncated: true` instead of silently under-attributing. A span
/// whose close event has not been recorded yet (still open at dump
/// time) is also reported truncated, with its duration measured only up
/// to its last retained event.
pub fn spans_from_events(events: &[Event], wrapped: bool) -> Vec<SpanRecord> {
    let window_start = if wrapped {
        events.first().map(|e| e.t_ns).unwrap_or(0)
    } else {
        0
    };

    // Group stamped events by span id, preserving first-seen order.
    let mut order: Vec<u64> = Vec::new();
    let mut by_span: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    let mut out: Vec<SpanRecord> = Vec::new();
    for ev in events {
        if ev.span == 0 {
            // Unattributed disk activity becomes its own record inline,
            // keeping output ordered by ring position.
            if ev.dur_ns > 0 && ev.tag.starts_with("disk.") {
                out.push(SpanRecord {
                    op: None,
                    t0_ns: ev.t_ns,
                    dur_ns: ev.dur_ns,
                    queue_ns: 0,
                    service_ns: ev.dur_ns,
                    truncated: false,
                });
            }
            continue;
        }
        if !by_span.contains_key(&ev.span) {
            order.push(ev.span);
        }
        by_span.entry(ev.span).or_default().push(ev);
    }

    for id in order {
        let evs = &by_span[&id];
        let close = evs.iter().find(|e| e.tag.starts_with("op."));
        let (op_name, t0, dur, closed) = match close {
            Some(c) => (c.op, c.t_ns, c.dur_ns, true),
            None => {
                // Still-open span: measure what the window shows.
                let t0 = evs.first().map(|e| e.t_ns).unwrap_or(0);
                let end = evs
                    .iter()
                    .map(|e| e.t_ns.saturating_add(e.dur_ns))
                    .max()
                    .unwrap_or(t0);
                (evs[0].op, t0, end.saturating_sub(t0), false)
            }
        };
        let truncated = !closed || (wrapped && t0 <= window_start);
        // Queue gaps accumulate against the later of span open and the
        // window start, so truncated spans never charge evicted time.
        let start = t0.max(window_start);
        let mut prev_end = start;
        let mut queue_ns = 0u64;
        let mut service_ns = 0u64;
        for ev in evs.iter().filter(|e| e.dur_ns > 0 && e.tag.starts_with("disk.")) {
            queue_ns += ev.t_ns.saturating_sub(prev_end);
            service_ns += ev.dur_ns;
            prev_end = prev_end.max(ev.t_ns.saturating_add(ev.dur_ns));
        }
        out.push(SpanRecord {
            op: OpKind::from_name(op_name),
            t0_ns: t0,
            dur_ns: dur,
            queue_ns,
            service_ns,
            truncated,
        });
    }
    out
}

/// Fold ring events into a collapsed-stack [`Fold`] rooted at `root`.
/// `total_recorded` is [`Obs::events_recorded`](crate::Obs::events_recorded)
/// (detects wrap); `elapsed_ns` is the run's elapsed simulated time. The
/// fold's total weight equals `elapsed_ns`: time before the retained
/// window lands in `{root};(evicted)`, uncovered time in `{root};idle`.
pub fn fold_ring(events: &[Event], total_recorded: u64, root: &str, elapsed_ns: u64) -> Fold {
    let wrapped = total_recorded > events.len() as u64;
    let window_start = if wrapped {
        events.first().map(|e| e.t_ns).unwrap_or(0)
    } else {
        0
    };
    let records = spans_from_events(events, wrapped);
    let mut fold = Fold::default();
    fold.add(format!("{root};(evicted)"), window_start.min(elapsed_ns));
    fold_clamped(&mut fold, &records, root, window_start, elapsed_ns);
    fold
}

/// Fold span-log records into `fold` under `root`, with `elapsed_ns`
/// the window's duration. Exact (no eviction window): leftover time
/// becomes `{root};idle`.
pub fn fold_log_into(fold: &mut Fold, records: &[SpanRecord], root: &str, elapsed_ns: u64) {
    fold_clamped(fold, records, root, 0, elapsed_ns);
}

/// Convenience wrapper over [`fold_log_into`] for a single window.
pub fn fold_log(records: &[SpanRecord], root: &str, elapsed_ns: u64) -> Fold {
    let mut fold = Fold::default();
    fold_log_into(&mut fold, records, root, elapsed_ns);
    fold
}

/// Shared folding core: each record's duration (clamped to start at
/// `window_start`) splits into service, queue, and self frames; the
/// window's uncovered remainder becomes `{root};idle`.
///
/// Records may overlap in simulated time (concurrent client threads
/// run parallel virtual timelines) and may
/// arrive out of order (unattributed requests are logged inline, spans
/// close in any order). Conservation — every nanosecond in exactly one
/// leaf — is kept by attributing along a frontier: records are taken in
/// start order and each claims only the part of its window no earlier
/// record claimed. For the non-overlapping records a single-threaded
/// run produces, this is exactly the old per-record accounting.
fn fold_clamped(
    fold: &mut Fold,
    records: &[SpanRecord],
    root: &str,
    window_start: u64,
    window_end: u64,
) {
    let mut sorted: Vec<&SpanRecord> = records.iter().collect();
    sorted.sort_by_key(|r| (r.t0_ns.max(window_start), r.t0_ns));
    let mut covered = 0u64;
    let mut frontier = window_start;
    for r in sorted {
        let end = r.t0_ns.saturating_add(r.dur_ns);
        let start = r.t0_ns.max(frontier);
        let dur = end.saturating_sub(start);
        frontier = frontier.max(end);
        covered = covered.saturating_add(dur);
        let base = match (r.op, r.truncated) {
            (Some(op), false) => format!("{root};{}", op.name()),
            (Some(op), true) => format!("{root};{}:truncated", op.name()),
            (None, _) => format!("{root};(none)"),
        };
        let service = r.service_ns.min(dur);
        let queue = r.queue_ns.min(dur.saturating_sub(service));
        fold.add(format!("{base};disk_req/service"), service);
        fold.add(format!("{base};disk_req/queue"), queue);
        fold.add(base, dur.saturating_sub(service).saturating_sub(queue));
    }
    let window = window_end.saturating_sub(window_start);
    fold.add(format!("{root};idle"), window.saturating_sub(covered));
}

/// A phase's simulated time decomposed into four disjoint buckets. The
/// buckets come from the `attr_*_ns` counters (accumulated as each span
/// closes, so they survive trace-ring wrap); idle is the remainder of
/// elapsed time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attribution {
    /// In-memory op work: span latency minus queueing and service.
    pub op_ns: u64,
    /// Disk requests waiting behind earlier requests, inside spans.
    pub queue_ns: u64,
    /// Mechanical disk service time (in-span and unattributed).
    pub service_ns: u64,
    /// Elapsed time not covered by the other buckets.
    pub idle_ns: u64,
    /// Window duration the percentages are taken against.
    pub total_ns: u64,
}

impl Attribution {
    /// Build from a phase's counter delta ([`StatsSnapshot::delta`]).
    /// When spans straddle the phase boundary the attributed sum can
    /// exceed `sim_ns` (attribution lands in the phase a span *closes*
    /// in); the total widens to keep the buckets a partition.
    pub fn from_delta(d: &StatsSnapshot) -> Attribution {
        let op_ns = d.get(Ctr::AttrOpNs);
        let queue_ns = d.get(Ctr::AttrQueueNs);
        let service_ns = d.get(Ctr::AttrServiceNs);
        let attributed = op_ns + queue_ns + service_ns;
        let total_ns = d.sim_ns.max(attributed);
        Attribution {
            op_ns,
            queue_ns,
            service_ns,
            idle_ns: total_ns - attributed,
            total_ns,
        }
    }

    /// A bucket's share of the total, in percent rounded to 2 decimals.
    pub fn pct(&self, part: u64) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        let raw = 100.0 * part as f64 / self.total_ns as f64;
        (raw * 100.0).round() / 100.0
    }

    /// The `time_attribution` object embedded in every BENCH phase row:
    /// four `*_ns` buckets plus percentages that sum to 100 ± rounding.
    pub fn to_json(&self) -> Json {
        obj![
            ("op_ns", Json::Int(self.op_ns as i64)),
            ("queue_ns", Json::Int(self.queue_ns as i64)),
            ("service_ns", Json::Int(self.service_ns as i64)),
            ("idle_ns", Json::Int(self.idle_ns as i64)),
            ("total_ns", Json::Int(self.total_ns as i64)),
            ("op_pct", Json::Float(self.pct(self.op_ns))),
            ("queue_pct", Json::Float(self.pct(self.queue_ns))),
            ("service_pct", Json::Float(self.pct(self.service_ns))),
            ("idle_pct", Json::Float(self.pct(self.idle_ns))),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Obs, OpKind};

    fn ev(t_ns: u64, tag: &'static str, span: u64, op: &'static str, dur_ns: u64) -> Event {
        Event { t_ns, tag, a: 0, b: 0, span, op, dur_ns }
    }

    #[test]
    fn fold_total_equals_elapsed_without_wrap() {
        // Span 1: read, open t=100, latency 400. Two disk reads inside:
        // t=150 dur=100 (queue 50), t=300 dur=100 (queue 50).
        let events = vec![
            ev(150, "disk.read", 1, "read", 100),
            ev(300, "disk.read", 1, "read", 100),
            ev(100, "op.read", 1, "read", 400),
            ev(600, "disk.write", 0, "", 50),
        ];
        let fold = fold_ring(&events, events.len() as u64, "run", 1000);
        assert_eq!(fold.total_ns(), 1000, "{}", fold.collapse());
        let text = fold.collapse();
        assert!(text.contains("run;read;disk_req/service 200\n"), "{text}");
        assert!(text.contains("run;read;disk_req/queue 100\n"), "{text}");
        assert!(text.contains("run;read 100\n"), "{text}");
        assert!(text.contains("run;(none);disk_req/service 50\n"), "{text}");
        // idle = 1000 - 400 (span) - 50 (stray) = 550.
        assert!(text.contains("run;idle 550\n"), "{text}");
    }

    #[test]
    fn wrapped_ring_marks_truncated_and_accounts_evicted() {
        // Pretend 10 events were recorded but only these survive: a span
        // whose close says it opened at t=100, before the first retained
        // event at t=500.
        let events = vec![
            ev(500, "disk.read", 3, "lookup", 100),
            ev(100, "op.lookup", 3, "lookup", 700),
        ];
        let records = spans_from_events(&events, true);
        assert_eq!(records.len(), 1);
        assert!(records[0].truncated);
        assert_eq!(records[0].service_ns, 100);
        // Queue counts only from the window start (500), not from t0.
        assert_eq!(records[0].queue_ns, 0);

        let fold = fold_ring(&events, 10, "run", 1000);
        assert_eq!(fold.total_ns(), 1000, "{}", fold.collapse());
        let text = fold.collapse();
        assert!(text.contains("run;(evicted) 500\n"), "{text}");
        assert!(text.contains("run;lookup:truncated;disk_req/service 100\n"), "{text}");
        // Span covers [500, 800] after clamping; self = 300 - 100.
        assert!(text.contains("run;lookup:truncated 200\n"), "{text}");
        assert!(text.contains("run;idle 200\n"), "{text}");
    }

    #[test]
    fn still_open_span_is_truncated() {
        let events = vec![ev(200, "disk.read", 7, "readdir", 100)];
        let records = spans_from_events(&events, false);
        assert_eq!(records.len(), 1);
        assert!(records[0].truncated, "no close event → truncated");
        assert_eq!(records[0].op, Some(OpKind::Readdir));
        assert_eq!(records[0].dur_ns, 100);
    }

    #[test]
    fn span_log_matches_live_accounting() {
        let obs = Obs::new();
        obs.enable_span_log();
        obs.set_clock_ns(100);
        {
            let _g = obs.span(OpKind::Read);
            obs.trace_io(150, "disk.read", 1, 8, 100);
            obs.set_clock_ns(400);
        }
        let log = obs.span_log().unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].op, Some(OpKind::Read));
        assert_eq!(log[0].dur_ns, 300);
        assert_eq!(log[0].queue_ns, 50);
        assert_eq!(log[0].service_ns, 100);
        assert!(!log[0].truncated);

        // Counters saw the same split.
        let snap = obs.snapshot("t", 400);
        assert_eq!(snap.get(Ctr::AttrQueueNs), 50);
        assert_eq!(snap.get(Ctr::AttrServiceNs), 100);
        assert_eq!(snap.get(Ctr::AttrOpNs), 150);

        let fold = fold_log(&log, "t", 400);
        assert_eq!(fold.total_ns(), 400);
        // Ring reconstruction agrees with the live log.
        let ring = fold_ring(&obs.recent_events(100), obs.events_recorded(), "t", 400);
        assert_eq!(ring.collapse(), fold.collapse());
    }

    #[test]
    fn attribution_percentages_sum_to_100() {
        let obs = Obs::new();
        obs.set_clock_ns(0);
        {
            let _g = obs.span(OpKind::Create);
            obs.trace_io(10, "disk.write", 1, 8, 30);
            obs.set_clock_ns(70);
        }
        let snap = obs.snapshot("t", 210);
        let a = Attribution::from_delta(&snap);
        assert_eq!(a.op_ns + a.queue_ns + a.service_ns + a.idle_ns, a.total_ns);
        assert_eq!(a.total_ns, 210);
        let sum = a.pct(a.op_ns) + a.pct(a.queue_ns) + a.pct(a.service_ns) + a.pct(a.idle_ns);
        assert!((sum - 100.0).abs() < 0.05, "{sum}");
        let j = a.to_json();
        assert_eq!(j.get("service_ns").unwrap().as_u64(), Some(30));
        assert!(j.get("service_pct").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn svg_renders_every_named_frame() {
        let mut fold = Fold::default();
        fold.add("run;read;disk_req/service".into(), 600);
        fold.add("run;idle".into(), 400);
        let svg = fold.svg();
        assert!(svg.starts_with("<svg "));
        assert!(svg.contains("disk_req/service"));
        assert!(svg.contains("idle"));
        assert!(svg.ends_with("</svg>\n"));
    }
}
