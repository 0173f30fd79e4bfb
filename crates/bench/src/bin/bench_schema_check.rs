//! CI schema gate for `BENCH_*.json` files and telemetry feeds.
//!
//! Usage: bench_schema_check <file.json>...
//!        bench_schema_check --feed <feed.jsonl>...
//!
//! `--feed` switches to feed mode: each file is a JSONL telemetry feed
//! or flight dump (a repro binary's `--feed` or `--flight`), read by
//! `cffs_obs::feed::parse_feed` — the one parser, which validates every
//! frame and head, so the record schemas cannot drift from CI.
//!
//! Each file must parse with the in-tree JSON reader and carry the
//! observability payload the analysis tooling relies on: a non-empty
//! `rows` array whose rows each have a `counters` snapshot with a
//! `histograms` member, a `latency_ns` summary with per-op
//! `p50_ns`/`p90_ns`/`p99_ns` present somewhere in the file, and a
//! `time_attribution` object whose four `*_ns` buckets partition
//! `total_ns` and whose percentages sum to 100 ± rounding. Exits
//! nonzero naming the first violation.

use cffs_obs::json::{parse, Json};

/// Validate one row's `time_attribution` object: buckets must be a
/// partition of `total_ns` and the four percentages must sum to ~100
/// (exactly 0 for an empty window).
fn check_attribution(i: usize, attr: &Json) -> Result<(), String> {
    let field = |name: &str| -> Result<u64, String> {
        attr.get(name)
            .and_then(Json::as_u64)
            .ok_or(format!("row {i}: time_attribution.{name} missing"))
    };
    let (op, queue, service, idle) =
        (field("op_ns")?, field("queue_ns")?, field("service_ns")?, field("idle_ns")?);
    let total = field("total_ns")?;
    if op + queue + service + idle != total {
        return Err(format!(
            "row {i}: time_attribution buckets sum to {} != total_ns {total}",
            op + queue + service + idle
        ));
    }
    let mut pct_sum = 0.0;
    for name in ["op_pct", "queue_pct", "service_pct", "idle_pct"] {
        pct_sum += attr
            .get(name)
            .and_then(Json::as_f64)
            .ok_or(format!("row {i}: time_attribution.{name} missing"))?;
    }
    let expect = if total == 0 { 0.0 } else { 100.0 };
    if (pct_sum - expect).abs() > 0.1 {
        return Err(format!(
            "row {i}: time_attribution percentages sum to {pct_sum}, want {expect} ± 0.1"
        ));
    }
    Ok(())
}

fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    let j = parse(&text).map_err(|e| format!("parse: {e}"))?;
    let rows = j
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("no \"rows\" array")?;
    if rows.is_empty() {
        return Err("\"rows\" is empty".into());
    }
    let mut saw_percentiles = false;
    for (i, row) in rows.iter().enumerate() {
        let counters = row.get("counters").ok_or(format!("row {i}: no \"counters\""))?;
        counters
            .get("histograms")
            .ok_or(format!("row {i}: counters lack \"histograms\""))?;
        let lat = row.get("latency_ns").ok_or(format!("row {i}: no \"latency_ns\""))?;
        let Json::Obj(ops) = lat else {
            return Err(format!("row {i}: \"latency_ns\" is not an object"));
        };
        for (op, summary) in ops {
            for field in ["count", "mean_ns", "p50_ns", "p90_ns", "p99_ns"] {
                summary
                    .get(field)
                    .and_then(Json::as_u64)
                    .ok_or(format!("row {i}: latency_ns.{op}.{field} missing"))?;
            }
            saw_percentiles = true;
        }
        let attr = row
            .get("time_attribution")
            .ok_or(format!("row {i}: no \"time_attribution\""))?;
        check_attribution(i, attr)?;
    }
    if !saw_percentiles {
        return Err("no row reported any per-op latency percentiles".into());
    }
    Ok(())
}

/// Feed mode: parse + validate every record of a feed or flight dump,
/// and require at least one frame (an empty feed means the producer
/// never cut a frame — a wiring bug, not a quiet success).
fn check_feed(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    if cffs_obs::feed::parse_feed(&text)?.frames.is_empty() {
        return Err("feed has no frames".into());
    }
    Ok(())
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let feed_mode = args.first().is_some_and(|a| a == "--feed");
    if feed_mode {
        args.remove(0);
    }
    if args.is_empty() {
        eprintln!("usage: bench_schema_check [--feed] <file>...");
        std::process::exit(2);
    }
    for path in &args {
        match if feed_mode { check_feed(path) } else { check(path) } {
            Ok(()) => println!("ok {path}"),
            Err(e) => {
                eprintln!("bench_schema_check: {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
