//! CI performance gate for `BENCH_*.json` files.
//!
//! Usage: bench_gate <current.json> <baseline.json> [--tolerance-pct N]
//!
//! Compares a freshly produced BENCH payload against a checked-in
//! baseline. Rows are matched by `(fs, phase)`; for every baseline row
//! the gate requires, within the tolerance band (default 25%):
//!
//! * per-op `latency_ns.*.p90_ns` must not regress above
//!   `baseline * (1 + tol)`, widened to one log2 bucket step (p90s land
//!   on bucket edges, so a single-bucket flip is noise) and skipped for
//!   ops with fewer than 200 baseline samples;
//! * the `group_fetch_util_pct` histogram mean must not drop below
//!   `baseline * (1 - tol)` (higher is better, so no upper bound);
//! * the `time_attribution.service_pct` share must not drop below
//!   `baseline * (1 - tol)` — the small-file story is "more of the
//!   phase is mechanical service, less is queueing" and a falling
//!   service share means that attribution regressed;
//! * if both payloads carry a top-level `recovery_ratio`, the current one
//!   must not drop below `baseline * (1 - tol)`;
//! * if both payloads carry a top-level `scaling_ratio` (E14, concurrent
//!   scaling), the current one must not drop below `baseline * (1 - tol)`
//!   **and** must clear the absolute acceptance bar of 2.5× — the
//!   4-thread aggregate must genuinely outrun the 1-thread baseline, not
//!   merely track a degraded baseline; `aggregate_ops_per_sec` gets the
//!   same relative floor;
//! * if both payloads carry a top-level `volume_scaling_ratio` (E16,
//!   scale-out volume sets), the same relative floor applies with an
//!   absolute acceptance bar of 3.0× — the 4-volume aggregate against
//!   the 1-volume baseline;
//! * if both payloads carry the E15 namei fields, the warm dcache hit
//!   rate gets a relative floor plus the absolute ≥ 0.90 acceptance bar,
//!   the warm lookup `namei_warm_p99_ns` gets a ceiling, and the
//!   `namei_p99_speedup` over the no-dcache ablation gets a relative
//!   floor plus the absolute ≥ 5.0 bar.
//!
//! The simulated timeline is deterministic, so unchanged code reproduces
//! the baseline exactly; the band absorbs small intentional shifts.
//! Improvements beyond the band pass but are called out so the baseline
//! gets refreshed. Exits nonzero listing every violation.

use cffs_obs::diff::{collect_rows, row_key};
use cffs_obs::json::{parse, Json};
use cffs_obs::obj;

struct Gate {
    tol: f64,
    violations: Vec<String>,
    notices: Vec<String>,
    /// One row per vetted bound, pass or fail — the machine-readable
    /// mirror of the text output, emitted as `GATE_REPORT_<stem>.json`
    /// so a CI failure is diagnosable without re-running the gate.
    checks: Vec<Json>,
}

impl Gate {
    /// Record one vetted bound in the machine-readable report.
    fn check(&mut self, what: &str, kind: &str, measured: f64, bound: f64, pass: bool) {
        self.checks.push(obj![
            ("what", Json::Str(what.to_string())),
            ("kind", Json::Str(kind.to_string())),
            ("measured", Json::Float(measured)),
            ("bound", Json::Float(bound)),
            ("pass", Json::Bool(pass)),
        ]);
    }

    /// Record a violation with no measurable bound (a row or field that
    /// disappeared from one payload).
    fn fail(&mut self, what: &str, msg: String) {
        self.checks.push(obj![
            ("what", Json::Str(what.to_string())),
            ("kind", Json::Str("present".to_string())),
            ("measured", Json::Null),
            ("bound", Json::Null),
            ("pass", Json::Bool(false)),
        ]);
        self.violations.push(msg);
    }

    /// `current` must stay at or below `base * (1 + tol)`.
    fn ceil(&mut self, what: &str, current: f64, base: f64) {
        let bound = base * (1.0 + self.tol);
        let pass = current <= bound;
        self.check(what, "ceil", current, bound, pass);
        if !pass {
            self.violations
                .push(format!("{what}: {current:.0} regressed past {base:.0} (+{:.0}%)", self.tol * 100.0));
        } else if current < base * (1.0 - self.tol) {
            self.notices
                .push(format!("{what}: {current:.0} improved well below baseline {base:.0} — refresh the baseline"));
        }
    }

    /// `current` must stay at or above `base * (1 - tol)`.
    fn floor(&mut self, what: &str, current: f64, base: f64) {
        let bound = base * (1.0 - self.tol);
        let pass = current >= bound;
        self.check(what, "floor", current, bound, pass);
        if !pass {
            self.violations
                .push(format!("{what}: {current:.2} dropped below {base:.2} (-{:.0}%)", self.tol * 100.0));
        }
    }

    /// `current` must clear an absolute acceptance bar (no tolerance —
    /// the bar *is* the acceptance criterion).
    fn floor_abs(&mut self, what: &str, current: f64, bar: f64) {
        let pass = current >= bar;
        self.check(what, "floor_abs", current, bar, pass);
        if !pass {
            self.violations.push(format!(
                "{what}: {current:.2} below the absolute acceptance floor {bar:.1}"
            ));
        }
    }

    /// [`Gate::ceil`] for log2-bucket quantiles (the `latency_ns` p90s):
    /// a quantile can only land on a bucket edge, so any ceiling below
    /// the next edge is unreachable and a single-bucket flip is
    /// indistinguishable from sampling noise under multi-threaded
    /// nondeterminism. The band is therefore widened to one bucket step
    /// (2×) in both directions; a genuine ≥ 2-bucket regression still
    /// fails.
    fn ceil_quantile(&mut self, what: &str, current: f64, base: f64) {
        let bound = (base * (1.0 + self.tol)).max(base * 2.0 + 1.0);
        let pass = current <= bound;
        self.check(what, "ceil_quantile", current, bound, pass);
        if !pass {
            self.violations
                .push(format!("{what}: {current:.0} regressed more than one bucket past {base:.0}"));
        } else if current < (base * (1.0 - self.tol)).min(base / 2.0 - 1.0) {
            self.notices
                .push(format!("{what}: {current:.0} improved well below baseline {base:.0} — refresh the baseline"));
        }
    }
}

fn hist_mean(row: &Json, name: &str) -> Option<f64> {
    let h = row.get("counters")?.get("histograms")?.get(name)?;
    let count = h.get("count")?.as_f64()?;
    let sum = h.get("sum")?.as_f64()?;
    if count == 0.0 {
        return None;
    }
    Some(sum / count)
}

fn compare(gate: &mut Gate, current: &Json, baseline: &Json) {
    let cur_rows = collect_rows(current);
    for base_row in collect_rows(baseline) {
        let Some(key) = row_key(base_row) else { continue };
        let Some(cur_row) = cur_rows.iter().find(|r| row_key(r).as_ref() == Some(&key)) else {
            gate.fail(
                &format!("{}/{}", key.0, key.1),
                format!("row ({}, {}) missing from current payload", key.0, key.1),
            );
            continue;
        };
        let tag = format!("{}/{}", key.0, key.1);
        if let Some(Json::Obj(ops)) = base_row.get("latency_ns") {
            for (op, summary) in ops {
                // The p90 of a small sample is bucket noise, not signal:
                // rare ops (a per-run drop_caches, a handful of syncs)
                // swing whole buckets run to run in multi-threaded
                // phases. Vet only ops with a statistically meaningful
                // baseline population.
                let base_count =
                    summary.get("count").and_then(Json::as_f64).unwrap_or(f64::INFINITY);
                if base_count < 200.0 {
                    continue;
                }
                let (Some(base_p90), Some(cur_p90)) = (
                    summary.get("p90_ns").and_then(Json::as_f64),
                    cur_row
                        .get("latency_ns")
                        .and_then(|l| l.get(op))
                        .and_then(|s| s.get("p90_ns"))
                        .and_then(Json::as_f64),
                ) else {
                    gate.fail(
                        &format!("{tag}: {op} p90_ns"),
                        format!("{tag}: latency_ns.{op}.p90_ns missing"),
                    );
                    continue;
                };
                gate.ceil_quantile(&format!("{tag}: {op} p90_ns"), cur_p90, base_p90);
            }
        }
        if let Some(base_util) = hist_mean(base_row, "group_fetch_util_pct") {
            match hist_mean(cur_row, "group_fetch_util_pct") {
                Some(cur_util) => {
                    gate.floor(&format!("{tag}: group_fetch_util_pct mean"), cur_util, base_util)
                }
                None => gate.fail(
                    &format!("{tag}: group_fetch_util_pct mean"),
                    format!("{tag}: group_fetch_util_pct histogram disappeared"),
                ),
            }
        }
        // Attribution floor: the share of a phase spent in mechanical
        // disk service is the bandwidth-exploitation story (service up,
        // queue+seek down). A drop below the band means time shifted
        // back into queueing/idle — an attribution regression.
        let service_pct = |row: &Json| {
            row.get("time_attribution")
                .and_then(|a| a.get("service_pct"))
                .and_then(Json::as_f64)
        };
        if let Some(base_svc) = service_pct(base_row).filter(|&v| v > 0.0) {
            match service_pct(cur_row) {
                Some(cur_svc) => {
                    gate.floor(&format!("{tag}: time_attribution service_pct"), cur_svc, base_svc)
                }
                None => gate.fail(
                    &format!("{tag}: time_attribution service_pct"),
                    format!("{tag}: time_attribution.service_pct disappeared"),
                ),
            }
        }
    }
    if let (Some(base_r), Some(cur_r)) = (
        baseline.get("recovery_ratio").and_then(Json::as_f64),
        current.get("recovery_ratio").and_then(Json::as_f64),
    ) {
        gate.floor("recovery_ratio", cur_r, base_r);
    }
    // Concurrent-scaling floors (E14). The relative band catches drift;
    // the absolute bar is the acceptance criterion itself, so a baseline
    // that decayed across refreshes can never quietly ratify sub-2.5×.
    if let (Some(base_s), Some(cur_s)) = (
        baseline.get("scaling_ratio").and_then(Json::as_f64),
        current.get("scaling_ratio").and_then(Json::as_f64),
    ) {
        gate.floor("scaling_ratio", cur_s, base_s);
        const MIN_SCALING: f64 = 2.5;
        gate.floor_abs("scaling_ratio", cur_s, MIN_SCALING);
    }
    if let (Some(base_a), Some(cur_a)) = (
        baseline.get("aggregate_ops_per_sec").and_then(Json::as_f64),
        current.get("aggregate_ops_per_sec").and_then(Json::as_f64),
    ) {
        gate.floor("aggregate_ops_per_sec", cur_a, base_a);
    }
    // Volume-scaling floor (E16). Same shape as the E14 gate, but the
    // absolute acceptance bar is 3.0×: the 4-volume aggregate must
    // genuinely outrun the 1-volume baseline.
    if let (Some(base_v), Some(cur_v)) = (
        baseline.get("volume_scaling_ratio").and_then(Json::as_f64),
        current.get("volume_scaling_ratio").and_then(Json::as_f64),
    ) {
        gate.floor("volume_scaling_ratio", cur_v, base_v);
        const MIN_VOLUME_SCALING: f64 = 3.0;
        gate.floor_abs("volume_scaling_ratio", cur_v, MIN_VOLUME_SCALING);
    }
    // Namei floors (E15). Same shape as the scaling gate: the relative
    // band catches drift, the absolute bars are the acceptance criteria.
    if let (Some(base_h), Some(cur_h)) = (
        baseline.get("dcache_warm_hit_rate").and_then(Json::as_f64),
        current.get("dcache_warm_hit_rate").and_then(Json::as_f64),
    ) {
        gate.floor("dcache_warm_hit_rate", cur_h, base_h);
        const MIN_HIT_RATE: f64 = 0.90;
        gate.floor_abs("dcache_warm_hit_rate", cur_h, MIN_HIT_RATE);
    }
    if let (Some(base_p), Some(cur_p)) = (
        baseline.get("namei_warm_p99_ns").and_then(Json::as_f64),
        current.get("namei_warm_p99_ns").and_then(Json::as_f64),
    ) {
        gate.ceil("namei_warm_p99_ns", cur_p, base_p);
    }
    if let (Some(base_s), Some(cur_s)) = (
        baseline.get("namei_p99_speedup").and_then(Json::as_f64),
        current.get("namei_p99_speedup").and_then(Json::as_f64),
    ) {
        gate.floor("namei_p99_speedup", cur_s, base_s);
        const MIN_SPEEDUP: f64 = 5.0;
        gate.floor_abs("namei_p99_speedup", cur_s, MIN_SPEEDUP);
    }
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_gate: read {path}: {e}");
        std::process::exit(2);
    });
    parse(&text).unwrap_or_else(|e| {
        eprintln!("bench_gate: parse {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<&String> = Vec::new();
    let mut tol_pct = 25.0f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--tolerance-pct" {
            tol_pct = it.next().map(|s| s.parse().expect("--tolerance-pct")).expect("--tolerance-pct needs a value");
        } else {
            positional.push(a);
        }
    }
    if positional.len() != 2 {
        eprintln!("usage: bench_gate <current.json> <baseline.json> [--tolerance-pct N]");
        std::process::exit(2);
    }
    let current = load(positional[0]);
    let baseline = load(positional[1]);
    let mut gate = Gate {
        tol: tol_pct / 100.0,
        violations: Vec::new(),
        notices: Vec::new(),
        checks: Vec::new(),
    };
    compare(&mut gate, &current, &baseline);
    write_gate_report(&gate, positional[0], positional[1], tol_pct);
    for n in &gate.notices {
        println!("note: {n}");
    }
    if gate.violations.is_empty() {
        println!("ok {} vs {} (±{tol_pct}%)", positional[0], positional[1]);
    } else {
        for v in &gate.violations {
            eprintln!("bench_gate: {v}");
        }
        std::process::exit(1);
    }
}

/// Persist the machine-readable verdict as `GATE_REPORT_<stem>.json`
/// next to the *current* payload (the freshly measured side — CI
/// collects that directory), through the same atomic write as the bench
/// artifacts. Failure to write is a warning, not a gate failure: the
/// verdict already went to stdout/stderr and the exit code.
fn write_gate_report(gate: &Gate, current: &str, baseline: &str, tol_pct: f64) {
    let cur = std::path::Path::new(current);
    let stem = cur.file_stem().and_then(|s| s.to_str()).unwrap_or("UNKNOWN");
    let dir = cur.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(std::path::Path::new("."));
    let path = dir.join(format!("GATE_REPORT_{stem}.json"));
    let report = obj![
        ("current", Json::Str(current.to_string())),
        ("baseline", Json::Str(baseline.to_string())),
        ("tolerance_pct", Json::Float(tol_pct)),
        ("pass", Json::Bool(gate.violations.is_empty())),
        (
            "checks_failed",
            Json::Int(gate.checks.iter().filter(|c| c.get("pass") == Some(&Json::Bool(false))).count() as i64)
        ),
        ("checks", Json::Arr(gate.checks.clone())),
        (
            "violations",
            Json::Arr(gate.violations.iter().map(|v| Json::Str(v.clone())).collect())
        ),
        (
            "notices",
            Json::Arr(gate.notices.iter().map(|n| Json::Str(n.clone())).collect())
        ),
    ];
    match cffs_obs::write_atomic(&path, format!("{}\n", report.to_string_pretty()).as_bytes()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}
