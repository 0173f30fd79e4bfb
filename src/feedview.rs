//! Rendering for the live telemetry feed — the engine behind `cffs-top`.
//!
//! A [`FeedView`] consumes feed frames (see `cffs_obs::feed`) one at a
//! time and renders a terminal dashboard: a per-cylinder-group heatmap,
//! sparklines of the headline signals, the recent `signal.*` /
//! `regroup.*` event log, per-thread op counters, and — when the
//! producer is a volume set — one row per volume with an ops-share bar.
//!
//! The renderer is deliberately deterministic in headless (no-color)
//! mode: it never prints host-time counters (`lock_wait_ns_*` stay in
//! the frames but are skipped here), so rendering a seeded run's feed is
//! byte-identical across machines — which is what `tests/feed.rs` and
//! the ci.sh smoke assert.

use cffs_obs::json::Json;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Sparkline history window (points retained per series).
const SPARK_WINDOW: usize = 48;

/// Event-log window (most recent events retained).
const EVENT_WINDOW: usize = 10;

/// Heatmap cells per row.
const HEAT_COLS: usize = 64;

/// Occupancy ramp, indexed by rounded tenths of fullness.
const RAMP: [char; 11] = [' ', '.', ':', '-', '=', '+', 'x', 'o', '*', '#', '@'];

/// Render `vals` (oldest first) as a unicode block-bar sparkline scaled
/// to the series' own min/max. Empty input renders as an empty string.
pub fn sparkline(vals: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if vals.is_empty() {
        return String::new();
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in vals {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = if hi > lo { hi - lo } else { 1.0 };
    vals.iter()
        .map(|&v| {
            let t = ((v - lo) / span * 7.0).round() as usize;
            BARS[t.min(7)]
        })
        .collect()
}

/// One rolling sparkline series with a label and a value formatter.
struct Track {
    label: &'static str,
    vals: VecDeque<f64>,
}

impl Track {
    fn new(label: &'static str) -> Track {
        Track { label, vals: VecDeque::new() }
    }

    fn push(&mut self, v: f64) {
        if self.vals.len() == SPARK_WINDOW {
            self.vals.pop_front();
        }
        self.vals.push_back(v);
    }

    fn line(&self) -> String {
        let vals: Vec<f64> = self.vals.iter().copied().collect();
        let last = vals.last().copied().unwrap_or(0.0);
        format!("{:<26} {:>10.2}  {}", self.label, last, sparkline(&vals))
    }
}

/// A recent signal/regroup event, as carried in a frame.
struct LoggedEvent {
    t_ns: u64,
    tag: String,
    a: u64,
    b: u64,
}

/// Streaming dashboard state: push frames in, render text out.
pub struct FeedView {
    /// Emit ANSI colors / screen clears. Off ⇒ plain deterministic text.
    color: bool,
    frames_seen: u64,
    /// Latest frame (rendering is state-of-now plus the rolling windows).
    last: Option<Json>,
    util_track: Track,
    queue_track: Track,
    dirty_track: Track,
    ops_track: Track,
    events: VecDeque<LoggedEvent>,
    /// Cumulative ops per thread slot (frames carry deltas).
    thread_totals: Vec<u64>,
    prev_t_ns: Option<u64>,
}

impl FeedView {
    /// A fresh view. `color` enables ANSI styling; keep it off for
    /// deterministic (headless / CI) output.
    pub fn new(color: bool) -> FeedView {
        FeedView {
            color,
            frames_seen: 0,
            last: None,
            util_track: Track::new("group_fetch_util_ewma"),
            queue_track: Track::new("driver_queue_depth_ewma"),
            dirty_track: Track::new("cache_dirty_backlog_ewma"),
            ops_track: Track::new("ops_per_sim_sec"),
            events: VecDeque::new(),
            thread_totals: Vec::new(),
            prev_t_ns: None,
        }
    }

    /// Frames consumed so far.
    pub fn frames_seen(&self) -> u64 {
        self.frames_seen
    }

    /// Fold one (already validated) frame into the rolling state.
    pub fn push(&mut self, frame: &Json) {
        self.frames_seen += 1;
        let sig_milli = |name: &str| -> f64 {
            frame
                .get("signals")
                .and_then(|s| s.get(name))
                .and_then(|s| s.get("ewma_milli"))
                .and_then(Json::as_u64)
                .unwrap_or(0) as f64
                / 1000.0
        };
        self.util_track.push(sig_milli("group_fetch_util_ewma"));
        self.queue_track.push(sig_milli("driver_queue_depth_ewma"));
        self.dirty_track.push(sig_milli("cache_dirty_backlog_ewma"));
        let ops = frame.get("ops").and_then(Json::as_u64).unwrap_or(0);
        let t_ns = frame.get("t_ns").and_then(Json::as_u64).unwrap_or(0);
        let dt_ns = self.prev_t_ns.map_or(0, |p| t_ns.saturating_sub(p));
        // Ops per *simulated* second — both numerator and denominator are
        // deterministic. A zero-width frame reports the raw op count.
        let rate = if dt_ns > 0 { ops as f64 * 1e9 / dt_ns as f64 } else { ops as f64 };
        self.ops_track.push(rate);
        self.prev_t_ns = Some(t_ns);
        if let Some(Json::Arr(evs)) = frame.get("events") {
            for e in evs {
                if self.events.len() == EVENT_WINDOW {
                    self.events.pop_front();
                }
                self.events.push_back(LoggedEvent {
                    t_ns: e.get("t_ns").and_then(Json::as_u64).unwrap_or(0),
                    tag: e.get("tag").and_then(Json::as_str).unwrap_or("?").to_string(),
                    a: e.get("a").and_then(Json::as_u64).unwrap_or(0),
                    b: e.get("b").and_then(Json::as_u64).unwrap_or(0),
                });
            }
        }
        if let Some(Json::Arr(threads)) = frame.get("threads") {
            if self.thread_totals.len() < threads.len() {
                self.thread_totals.resize(threads.len(), 0);
            }
            for (i, t) in threads.iter().enumerate() {
                self.thread_totals[i] += t.as_u64().unwrap_or(0);
            }
        }
        self.last = Some(frame.clone());
    }

    /// Color a heatmap cell by its utilization EWMA (green high, yellow
    /// middling, red low). Identity when color is off.
    fn paint(&self, cell: char, util_milli: u64, sampled: bool) -> String {
        if !self.color || !sampled {
            return cell.to_string();
        }
        let code = if util_milli >= 70_000 {
            32 // green: group fetches paying off
        } else if util_milli >= 40_000 {
            33 // yellow
        } else {
            31 // red: fetched blocks going unused
        };
        format!("\x1b[{code}m{cell}\x1b[0m")
    }

    /// Render the dashboard for the most recent frame. Returns an empty
    /// string before the first [`push`](FeedView::push).
    pub fn render(&self) -> String {
        let Some(frame) = &self.last else {
            return String::new();
        };
        let mut out = String::new();
        let seq = frame.get("seq").and_then(Json::as_u64).unwrap_or(0);
        let stage = frame.get("stage").and_then(Json::as_str).unwrap_or("?");
        let t_ns = frame.get("t_ns").and_then(Json::as_u64).unwrap_or(0);
        let qd = frame.get("queue_depth").and_then(Json::as_u64).unwrap_or(0);
        let ops = frame.get("ops").and_then(Json::as_u64).unwrap_or(0);
        // Absent in feeds cut before the SLO registry existed: render 0.
        let slo_burn = frame.get("slo_burn_milli").and_then(Json::as_u64).unwrap_or(0);
        let bold = |s: &str| {
            if self.color {
                format!("\x1b[1m{s}\x1b[0m")
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{} seq={seq} stage={stage} t={:.3}s ops={ops} queue_depth={qd} slo_burn={slo_burn}m",
            bold("cffs-top"),
            t_ns as f64 / 1e9,
        );

        // Curated counter deltas. lock_wait_ns_* counters are host-time
        // and nondeterministic: present in the frames, never rendered.
        if let Some(Json::Obj(counters)) = frame.get("counters") {
            let shown: Vec<String> = counters
                .iter()
                .filter(|(k, _)| !k.starts_with("lock_wait_ns"))
                .map(|(k, v)| format!("{k}={}", v.as_u64().unwrap_or(0)))
                .collect();
            let _ = writeln!(out, "  {}", shown.join(" "));
        }

        let _ = writeln!(out, "{}", bold("signals"));
        for t in [&self.util_track, &self.queue_track, &self.dirty_track, &self.ops_track] {
            let _ = writeln!(out, "  {}", t.line());
        }

        // Per-CG heatmap: occupancy picks the ramp glyph, utilization
        // EWMA picks the color (legend below the grid).
        if let Some(Json::Arr(cgs)) = frame.get("cgs") {
            if !cgs.is_empty() {
                let _ = writeln!(
                    out,
                    "{} ({} groups; glyph {}..{} = empty..full; color = fetch util)",
                    bold("cg heatmap"),
                    cgs.len(),
                    RAMP[0],
                    RAMP[10],
                );
                let mut row = String::from("  ");
                for (i, c) in cgs.iter().enumerate() {
                    let used = c.get("used").and_then(Json::as_u64).unwrap_or(0);
                    let cap = c.get("data_blocks").and_then(Json::as_u64).unwrap_or(0).max(1);
                    let tenth = (used * 10 + cap / 2) / cap;
                    let util = c.get("util_ewma_milli").and_then(Json::as_u64).unwrap_or(0);
                    let sampled =
                        c.get("util_samples").and_then(Json::as_u64).unwrap_or(0) > 0;
                    row.push_str(&self.paint(RAMP[(tenth as usize).min(10)], util, sampled));
                    if (i + 1) % HEAT_COLS == 0 {
                        let _ = writeln!(out, "{row}");
                        row = String::from("  ");
                    }
                }
                if row.len() > 2 {
                    let _ = writeln!(out, "{row}");
                }
                // The busiest groups this frame, with their numbers.
                let mut hot: Vec<(u64, u64, u64, u64)> = cgs
                    .iter()
                    .map(|c| {
                        let ios = c.get("dread_ios").and_then(Json::as_u64).unwrap_or(0)
                            + c.get("dwrite_ios").and_then(Json::as_u64).unwrap_or(0);
                        (
                            ios,
                            c.get("cg").and_then(Json::as_u64).unwrap_or(0),
                            c.get("used").and_then(Json::as_u64).unwrap_or(0),
                            c.get("util_ewma_milli").and_then(Json::as_u64).unwrap_or(0),
                        )
                    })
                    .filter(|&(ios, ..)| ios > 0)
                    .collect();
                hot.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
                if !hot.is_empty() {
                    let top: Vec<String> = hot
                        .iter()
                        .take(4)
                        .map(|&(ios, cg, used, util)| {
                            format!("cg{cg}: {ios} ios used={used} util={:.1}%", util as f64 / 1000.0)
                        })
                        .collect();
                    let _ = writeln!(out, "  hot: {}", top.join(" | "));
                }
            }
        }

        // Per-volume rows (volume-set producers only; single-volume
        // feeds carry an empty array). The bar is each volume's share of
        // the frame's busiest volume — a shard-balance read at a glance.
        if let Some(Json::Arr(vols)) = frame.get("volumes") {
            if !vols.is_empty() {
                let _ = writeln!(out, "{} ({})", bold("volumes"), vols.len());
                let max_ops = vols
                    .iter()
                    .filter_map(|v| v.get("ops").and_then(Json::as_u64))
                    .max()
                    .unwrap_or(0)
                    .max(1);
                for v in vols {
                    let get = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
                    let ops = get("ops");
                    let bar = "#".repeat(((ops * 16 + max_ops / 2) / max_ops) as usize);
                    let _ = writeln!(
                        out,
                        "  vol{:<2} ops={ops:<8} qd={:<4} dr={:<6} dw={:<6} gf-util={:>5.1}%  {bar}",
                        get("vol"),
                        get("queue_depth"),
                        get("dreads"),
                        get("dwrites"),
                        get("gf_util_ewma_milli") as f64 / 1000.0,
                    );
                }
            }
        }

        // Per-thread cumulative ops (slot 0 = unbound threads).
        let active: Vec<String> = self
            .thread_totals
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| format!("t{i}:{n}"))
            .collect();
        if !active.is_empty() {
            let _ = writeln!(out, "{} {}", bold("threads"), active.join(" "));
        }

        if !self.events.is_empty() {
            let _ = writeln!(out, "{}", bold("events"));
            for e in &self.events {
                let _ = writeln!(
                    out,
                    "  [{:>10.3}s] {} a={} b={}",
                    e.t_ns as f64 / 1e9,
                    e.tag,
                    e.a,
                    e.b
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales_to_extremes() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0]), "▁");
        let s = sparkline(&[0.0, 5.0, 10.0]);
        assert!(s.starts_with('▁') && s.ends_with('█'), "{s}");
    }

    #[test]
    fn view_renders_pushed_frame() {
        let line = r#"{"seq":0,"stage":"warm","t_ns":1000,"counters":{"disk_requests":5,"lock_wait_ns_alloc":99},"ops":2,"queue_depth":1,"histos":{},"signals":{"group_fetch_util_ewma":{"ewma_milli":77000,"samples":3,"low":false,"floor_milli":null,"low_count":0,"high_count":0}},"cgs":[{"cg":0,"data_blocks":100,"used":50,"util_ewma_milli":77000,"util_samples":3,"dread_ios":4,"dwrite_ios":0,"dread_sectors":32,"dwrite_sectors":0}],"threads":[2,0],"events":[{"t_ns":900,"tag":"signal.group_fetch_util.low","a":48,"b":0}]}"#;
        let frame = cffs_obs::json::parse(line).unwrap();
        let mut view = FeedView::new(false);
        assert_eq!(view.render(), "");
        view.push(&frame);
        let text = view.render();
        assert!(text.contains("stage=warm"), "{text}");
        assert!(text.contains("disk_requests=5"), "{text}");
        assert!(!text.contains("lock_wait"), "host-time counters must not render: {text}");
        assert!(text.contains("signal.group_fetch_util.low"), "{text}");
        assert!(text.contains("cg heatmap"), "{text}");
        assert!(text.contains("t0:2"), "{text}");
        assert!(!text.contains('\x1b'), "headless must be ANSI-free: {text}");
        // Single-volume feed: empty volumes array must render no section.
        assert!(!text.contains("volumes"), "{text}");
        // A pre-SLO frame (no slo_burn_milli field) renders burn 0.
        assert!(text.contains("slo_burn=0m"), "{text}");
    }

    #[test]
    fn view_renders_slo_burn() {
        let line = r#"{"seq":3,"stage":"churn","t_ns":2000,"counters":{},"ops":9,"queue_depth":0,"histos":{},"signals":{},"cgs":[],"threads":[],"events":[],"dcache_hit_milli":0,"slo_burn_milli":1500,"volumes":[]}"#;
        let frame = cffs_obs::json::parse(line).unwrap();
        let mut view = FeedView::new(false);
        view.push(&frame);
        let text = view.render();
        assert!(text.contains("slo_burn=1500m"), "{text}");
    }

    #[test]
    fn view_renders_volume_rows() {
        let line = r#"{"seq":0,"stage":"volume-4v/sessions","t_ns":1000,"counters":{},"ops":30,"queue_depth":0,"histos":{},"signals":{},"cgs":[],"threads":[],"events":[],"dcache_hit_milli":0,"volumes":[{"vol":0,"ops":20,"queue_depth":1,"dreads":7,"dwrites":3,"gf_util_ewma_milli":62500},{"vol":1,"ops":10,"queue_depth":0,"dreads":2,"dwrites":1,"gf_util_ewma_milli":0}]}"#;
        let frame = cffs_obs::json::parse(line).unwrap();
        let mut view = FeedView::new(false);
        view.push(&frame);
        let text = view.render();
        assert!(text.contains("volumes (2)"), "{text}");
        assert!(text.contains("vol0"), "{text}");
        assert!(text.contains("gf-util= 62.5%"), "{text}");
        // vol0 is the busiest → full 16-char bar; vol1 at half → 8.
        assert!(text.contains(&"#".repeat(16)), "{text}");
        let vol1 = text.lines().find(|l| l.contains("vol1")).expect("vol1 row");
        assert!(vol1.trim_end().ends_with(&"#".repeat(8)), "{vol1}");
        assert!(!vol1.contains(&"#".repeat(9)), "{vol1}");
    }
}
