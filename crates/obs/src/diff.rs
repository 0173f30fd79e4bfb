//! Regression attribution between two `BENCH_*.json` payloads.
//!
//! [`diff_reports`] compares two bench runs row by row (rows matched by
//! `(fs, phase)`, exactly like `bench_gate`) and attributes every moved
//! number to the counter, histogram, latency summary, or
//! time-attribution bucket that moved — turning "the gate failed" or
//! "the trajectory drifted" into a ranked list of *what* changed.
//!
//! Everything is integer math over the parsed JSON (float fields are
//! compared exactly and scaled to milli-units), so the report is
//! byte-deterministic for the same pair of inputs: the simulated
//! timeline is deterministic, and so must be the tool that explains it.

use crate::json::Json;
use crate::{obj, HistogramSnapshot};

/// Every row anywhere in a payload: top-level `rows`, plus `rows`
/// nested one level down in arrays (sweeps like E7's `points` or E13's).
/// `bench_gate` walks payloads with this too, so the gate and the diff
/// can never disagree about what a row is.
pub fn collect_rows(j: &Json) -> Vec<&Json> {
    fn push_rows<'a>(node: &'a Json, out: &mut Vec<&'a Json>) {
        if let Some(Json::Arr(rows)) = node.get("rows") {
            out.extend(rows.iter());
        }
    }
    let mut out = Vec::new();
    push_rows(j, &mut out);
    if let Json::Obj(members) = j {
        for (_, v) in members {
            if let Json::Arr(items) = v {
                for item in items {
                    push_rows(item, &mut out);
                }
            }
        }
    }
    out
}

/// A row's identity across payloads: its `(fs, phase)` pair.
pub fn row_key(row: &Json) -> Option<(String, String)> {
    Some((
        row.get("fs")?.as_str()?.to_string(),
        row.get("phase")?.as_str()?.to_string(),
    ))
}

/// Relative change `a -> b` in milli-units (`None` when `a` is zero and
/// `b` is not — an appearance, infinitely large in relative terms).
fn delta_milli(a: f64, b: f64) -> Option<i64> {
    if a == 0.0 {
        if b == 0.0 { Some(0) } else { None }
    } else {
        Some(((b - a) / a * 1000.0).round() as i64)
    }
}

/// Sort rank of one attribution: appearances first, then by relative
/// magnitude, ties broken by kind and name so the report is stable.
fn rank(e: &Json) -> (i64, String, String) {
    let mag = match e.get("delta_milli") {
        Some(Json::Int(d)) => -d.abs(),
        _ => i64::MIN, // Null: change from zero, infinitely large.
    };
    (
        mag,
        e.get("kind").and_then(Json::as_str).unwrap_or("").to_string(),
        e.get("name").and_then(Json::as_str).unwrap_or("").to_string(),
    )
}

fn entry(kind: &str, name: &str, a: f64, b: f64) -> Json {
    let num = |v: f64| {
        if v.fract() == 0.0 && v.abs() < 9e15 { Json::Int(v as i64) } else { Json::Float(v) }
    };
    obj![
        ("kind", Json::Str(kind.to_string())),
        ("name", Json::Str(name.to_string())),
        ("a", num(a)),
        ("b", num(b)),
        (
            "delta_milli",
            match delta_milli(a, b) {
                Some(d) => Json::Int(d),
                None => Json::Null,
            }
        ),
    ]
}

/// Keys of `a`'s object in order, followed by keys only `b` has, in
/// `b`'s order — a deterministic union walk.
fn union_keys<'a>(a: Option<&'a Json>, b: Option<&'a Json>) -> Vec<&'a str> {
    let mut keys: Vec<&str> = Vec::new();
    for j in [a, b].into_iter().flatten() {
        if let Json::Obj(members) = j {
            for (k, _) in members {
                if !keys.contains(&k.as_str()) {
                    keys.push(k);
                }
            }
        }
    }
    keys
}

/// Attribute every change between two matched rows. One entry per moved
/// counter, per moved latency-summary field, per moved time-attribution
/// bucket — and **exactly one entry per changed histogram**, carrying
/// its count/mean/p99 before and after.
fn diff_row(a: &Json, b: &Json) -> Vec<Json> {
    let mut out: Vec<Json> = Vec::new();

    // Counters (integer registry under counters.counters).
    let ctrs = |r: &Json| r.get("counters").and_then(|c| c.get("counters")).cloned();
    let (ca, cb) = (ctrs(a), ctrs(b));
    for k in union_keys(ca.as_ref(), cb.as_ref()) {
        let va = ca.as_ref().and_then(|c| c.get(k)).and_then(Json::as_f64).unwrap_or(0.0);
        let vb = cb.as_ref().and_then(|c| c.get(k)).and_then(Json::as_f64).unwrap_or(0.0);
        if va != vb {
            out.push(entry("counter", k, va, vb));
        }
    }

    // Histograms: one attribution per histogram whose snapshot moved.
    let hists = |r: &Json| r.get("counters").and_then(|c| c.get("histograms")).cloned();
    let (ha, hb) = (hists(a), hists(b));
    for k in union_keys(ha.as_ref(), hb.as_ref()) {
        let snap = |h: &Option<Json>| {
            h.as_ref()
                .and_then(|h| h.get(k))
                .and_then(|j| HistogramSnapshot::from_json(j).ok())
                .unwrap_or_default()
        };
        let (sa, sb) = (snap(&ha), snap(&hb));
        if sa == sb {
            continue;
        }
        let mut e = entry("histogram", k, sa.mean() as f64, sb.mean() as f64);
        if let Json::Obj(fields) = &mut e {
            fields.push(("count_a".to_string(), Json::Int(sa.count() as i64)));
            fields.push(("count_b".to_string(), Json::Int(sb.count() as i64)));
            fields.push(("p99_a".to_string(), Json::Int(sa.quantile(0.99) as i64)));
            fields.push(("p99_b".to_string(), Json::Int(sb.quantile(0.99) as i64)));
        }
        out.push(e);
    }

    // Per-op latency summaries (the user-facing numbers the gate vets).
    let (la, lb) = (a.get("latency_ns").cloned(), b.get("latency_ns").cloned());
    for op in union_keys(la.as_ref(), lb.as_ref()) {
        for field in ["count", "mean_ns", "p50_ns", "p90_ns", "p99_ns"] {
            let get = |l: &Option<Json>| {
                l.as_ref()
                    .and_then(|l| l.get(op))
                    .and_then(|s| s.get(field))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            let (va, vb) = (get(&la), get(&lb));
            if va != vb {
                out.push(entry("latency", &format!("{op}.{field}"), va, vb));
            }
        }
    }

    // Time-attribution buckets (where the phase's nanoseconds went).
    let (ta, tb) = (a.get("time_attribution").cloned(), b.get("time_attribution").cloned());
    for k in union_keys(ta.as_ref(), tb.as_ref()) {
        let get = |t: &Option<Json>| {
            t.as_ref().and_then(|t| t.get(k)).and_then(Json::as_f64).unwrap_or(0.0)
        };
        let (va, vb) = (get(&ta), get(&tb));
        if va != vb {
            out.push(entry("time_attribution", k, va, vb));
        }
    }

    out.sort_by_key(rank);
    out
}

/// Compare two parsed `BENCH_*.json` payloads and attribute every moved
/// number. Returns a structured report: per-row ranked attributions,
/// changed top-level scalars, and the rows present on only one side.
pub fn diff_reports(a: &Json, b: &Json) -> Json {
    let rows_a = collect_rows(a);
    let rows_b = collect_rows(b);
    let mut rows_out: Vec<Json> = Vec::new();
    let mut only_a: Vec<Json> = Vec::new();
    let mut total = 0usize;
    for ra in &rows_a {
        let Some(key) = row_key(ra) else { continue };
        match rows_b.iter().find(|r| row_key(r).as_ref() == Some(&key)) {
            Some(rb) => {
                let attrs = diff_row(ra, rb);
                if !attrs.is_empty() {
                    total += attrs.len();
                    rows_out.push(obj![
                        ("fs", Json::Str(key.0)),
                        ("phase", Json::Str(key.1)),
                        ("attributions", Json::Arr(attrs)),
                    ]);
                }
            }
            None => only_a.push(Json::Str(format!("{}/{}", key.0, key.1))),
        }
    }
    let only_b: Vec<Json> = rows_b
        .iter()
        .filter_map(|r| row_key(r))
        .filter(|key| !rows_a.iter().any(|r| row_key(r).as_ref() == Some(key)))
        .map(|key| Json::Str(format!("{}/{}", key.0, key.1)))
        .collect();

    // Top-level scalars (recovery_ratio, scaling ratios, moved-block
    // tallies, ...) that moved between the runs.
    let mut toplevel: Vec<Json> = Vec::new();
    for k in union_keys(Some(a), Some(b)) {
        let scalar = |j: &Json| match j.get(k) {
            Some(Json::Int(_)) | Some(Json::Float(_)) => j.get(k).and_then(Json::as_f64),
            _ => None,
        };
        let (va, vb) = (scalar(a), scalar(b));
        if let (Some(va), Some(vb)) = (va, vb) {
            if va != vb {
                toplevel.push(entry("toplevel", k, va, vb));
            }
        }
    }
    toplevel.sort_by_key(rank);
    total += toplevel.len();

    obj![
        (
            "experiment",
            Json::Str(
                a.get("experiment")
                    .or_else(|| b.get("experiment"))
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string()
            )
        ),
        ("total_attributions", Json::Int(total as i64)),
        ("toplevel", Json::Arr(toplevel)),
        ("rows", Json::Arr(rows_out)),
        ("only_in_a", Json::Arr(only_a)),
        ("only_in_b", Json::Arr(only_b)),
    ]
}

fn render_entry(out: &mut String, e: &Json) {
    let gs = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or("?");
    let gn = |k: &str| e.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let delta = match e.get("delta_milli") {
        Some(Json::Int(d)) => format!("{:+.1}%", *d as f64 / 10.0),
        _ => "new".to_string(),
    };
    match gs("kind") {
        "histogram" => {
            out.push_str(&format!(
                "    histogram {:<28} mean {} -> {} ({})  count {} -> {}  p99 {} -> {}\n",
                gs("name"),
                gn("a"),
                gn("b"),
                delta,
                gn("count_a"),
                gn("count_b"),
                gn("p99_a"),
                gn("p99_b"),
            ));
        }
        kind => {
            out.push_str(&format!(
                "    {:<9} {:<34} {} -> {} ({})\n",
                kind,
                gs("name"),
                gn("a"),
                gn("b"),
                delta,
            ));
        }
    }
}

/// Plain-text rendering of a [`diff_reports`] report.
pub fn render_diff(report: &Json) -> String {
    let mut out = String::new();
    let total = report.get("total_attributions").and_then(Json::as_u64).unwrap_or(0);
    out.push_str(&format!(
        "bench diff: experiment {}  ({} attributed deltas)\n",
        report.get("experiment").and_then(Json::as_str).unwrap_or("?"),
        total,
    ));
    if total == 0 {
        out.push_str("  runs are identical\n");
        return out;
    }
    if let Some(Json::Arr(top)) = report.get("toplevel") {
        if !top.is_empty() {
            out.push_str("  top-level:\n");
            for e in top {
                render_entry(&mut out, e);
            }
        }
    }
    if let Some(Json::Arr(rows)) = report.get("rows") {
        for row in rows {
            out.push_str(&format!(
                "  {}/{}:\n",
                row.get("fs").and_then(Json::as_str).unwrap_or("?"),
                row.get("phase").and_then(Json::as_str).unwrap_or("?"),
            ));
            if let Some(Json::Arr(attrs)) = row.get("attributions") {
                for e in attrs {
                    render_entry(&mut out, e);
                }
            }
        }
    }
    for (key, label) in [("only_in_a", "only in A"), ("only_in_b", "only in B")] {
        if let Some(Json::Arr(keys)) = report.get(key) {
            for k in keys {
                out.push_str(&format!("  {}: row {}\n", label, k.as_str().unwrap_or("?")));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn payload(p90: u64, reads: u64, bucket: u64) -> Json {
        parse(&format!(
            r#"{{
                "experiment": "unit",
                "recovery_ratio": 1.0,
                "rows": [{{
                    "fs": "C-FFS",
                    "phase": "read",
                    "latency_ns": {{"read": {{"count": 500, "mean_ns": 100, "p50_ns": 64, "p90_ns": {p90}, "p99_ns": 1023}}}},
                    "time_attribution": {{"service_pct": 90.0, "queue_pct": 10.0}},
                    "counters": {{
                        "counters": {{"disk_reads": {reads}, "disk_writes": 7}},
                        "histograms": {{"op_ns_read": {{"count": {bucket}, "sum": {bucket}, "buckets": [{bucket}]}}}}
                    }}
                }}]
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_payloads_diff_empty() {
        let a = payload(1023, 40, 3);
        let report = diff_reports(&a, &a);
        assert_eq!(report.get("total_attributions"), Some(&Json::Int(0)));
        assert!(render_diff(&report).contains("identical"));
    }

    #[test]
    fn every_changed_histogram_gets_an_attribution() {
        let a = payload(1023, 40, 3);
        let b = payload(2047, 55, 9);
        let report = diff_reports(&a, &b);
        let rows = match report.get("rows") {
            Some(Json::Arr(r)) => r,
            _ => panic!("rows"),
        };
        let attrs = match rows[0].get("attributions") {
            Some(Json::Arr(a)) => a,
            _ => panic!("attributions"),
        };
        let kinds: Vec<&str> = attrs
            .iter()
            .map(|e| e.get("kind").and_then(Json::as_str).unwrap())
            .collect();
        assert!(kinds.contains(&"histogram"), "{kinds:?}");
        assert!(kinds.contains(&"counter"), "{kinds:?}");
        assert!(kinds.contains(&"latency"), "{kinds:?}");
        let h = attrs
            .iter()
            .find(|e| e.get("kind").and_then(Json::as_str) == Some("histogram"))
            .unwrap();
        assert_eq!(h.get("name").and_then(Json::as_str), Some("op_ns_read"));
        assert_eq!(h.get("count_a"), Some(&Json::Int(3)));
        assert_eq!(h.get("count_b"), Some(&Json::Int(9)));
    }

    #[test]
    fn diff_is_deterministic_and_symmetric_on_row_presence() {
        let a = payload(1023, 40, 3);
        let b = payload(2047, 55, 9);
        let r1 = diff_reports(&a, &b).to_string();
        let r2 = diff_reports(&a, &b).to_string();
        assert_eq!(r1, r2);
        let text1 = render_diff(&diff_reports(&a, &b));
        let text2 = render_diff(&diff_reports(&a, &b));
        assert_eq!(text1, text2);
    }

    #[test]
    fn toplevel_scalars_and_missing_rows_are_reported() {
        let a = payload(1023, 40, 3);
        let mut b = payload(1023, 40, 3);
        if let Json::Obj(members) = &mut b {
            for (k, v) in members.iter_mut() {
                if k == "recovery_ratio" {
                    *v = Json::Float(0.5);
                }
                if k == "rows" {
                    *v = Json::Arr(Vec::new());
                }
            }
        }
        let report = diff_reports(&a, &b);
        let top = match report.get("toplevel") {
            Some(Json::Arr(t)) => t,
            _ => panic!("toplevel"),
        };
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].get("name").and_then(Json::as_str), Some("recovery_ratio"));
        let only_a = match report.get("only_in_a") {
            Some(Json::Arr(o)) => o,
            _ => panic!("only_in_a"),
        };
        assert_eq!(only_a.len(), 1);
        let text = render_diff(&report);
        assert!(text.contains("only in A"), "{text}");
    }
}
