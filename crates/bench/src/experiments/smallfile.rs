//! E4/E5 — the small-file micro-benchmark (paper Section 4.2).
//!
//! Four phases (create/read/overwrite/delete) over 10 000 × 1 KB files in
//! 100 directories, accessed round-robin, on five file systems: classic
//! FFS, and C-FFS with {neither, embedding, grouping, both}. E4 runs with
//! the conventional synchronous metadata ordering; E5 delays all metadata
//! writes — the paper's soft-updates emulation ("[Ganger94] shows that
//! this will accurately predict the performance impact of soft updates").

use crate::report::{header, phase_table, row, rows_json, speedup};
use cffs::build;
use cffs_fslib::MetadataMode;
use cffs_obs::json::{Json, ToJson};
use cffs_obs::{obj, prof, SpanRecord};
use cffs_workloads::smallfile::{self, SmallFileParams};
use cffs_workloads::PhaseResult;

/// Run the benchmark on all five file systems and collect a
/// collapsed-stack fold of the C-FFS run: its span log is segmented by
/// each phase's simulated-time window, so the fold reads
/// `{phase};{op};disk_req/{queue,service}` with per-phase `idle` frames;
/// setup and cold-boundary work between phases folds under
/// `(unmeasured)`.
pub fn run_all(mode: MetadataMode, params: SmallFileParams) -> (Vec<PhaseResult>, prof::Fold) {
    let mut all = Vec::new();
    let mut fold = prof::Fold::default();
    for fs in build::five_configs(mode) {
        let obs = fs.obs();
        // Stream this file system's run into the telemetry feed when the
        // repro binary set one up with --feed (no-op otherwise).
        let _feed = cffs_obs::feed::tap_global_sim(&obs, fs.label());
        let want_fold = fs.label() == "C-FFS";
        if want_fold {
            obs.enable_span_log();
        }
        let rows = smallfile::run(&fs, params).expect("benchmark run");
        if want_fold {
            if let Some(log) = obs.span_log() {
                fold_phases(&mut fold, &log, &rows);
            }
        }
        all.extend(rows);
    }
    (all, fold)
}

/// Window the span log by each phase's `[start, start + elapsed)` and
/// fold each window under the phase's name; records between phases
/// (directory setup, cold boundaries) fold under `(unmeasured)` with no
/// idle frame (their windows are gaps, not measured intervals).
fn fold_phases(fold: &mut prof::Fold, log: &[SpanRecord], rows: &[PhaseResult]) {
    let mut by_phase: Vec<Vec<SpanRecord>> = vec![Vec::new(); rows.len()];
    let mut unmeasured: Vec<SpanRecord> = Vec::new();
    let window = |r: &PhaseResult| r.start_ns..r.start_ns + r.elapsed.as_nanos();
    for &rec in log {
        match rows.iter().position(|r| window(r).contains(&rec.t0_ns)) {
            Some(i) => by_phase[i].push(rec),
            None => unmeasured.push(rec),
        }
    }
    for (r, recs) in rows.iter().zip(&by_phase) {
        prof::fold_log_into(fold, recs, &r.phase, r.elapsed.as_nanos());
    }
    let covered: u64 = unmeasured.iter().map(|s| s.dur_ns).sum();
    prof::fold_log_into(fold, &unmeasured, "(unmeasured)", covered);
}

/// JSON payload for one metadata mode's rows.
pub fn rows_payload(mode: MetadataMode, params: SmallFileParams, rows: &[PhaseResult]) -> Json {
    obj![
        ("experiment", "smallfile".to_json()),
        ("mode", format!("{mode:?}").to_json()),
        (
            "params",
            obj![
                ("nfiles", params.nfiles.to_json()),
                ("file_size", params.file_size.to_json()),
                ("ndirs", params.ndirs.to_json()),
                ("seed", params.seed.to_json()),
            ]
        ),
        ("rows", rows_json(rows)),
    ]
}

/// Run one metadata mode and render the text report, the JSON payload
/// and the C-FFS run's collapsed-stack fold (for `FOLD_SMALLFILE_*.txt`
/// artifacts) from the same pass.
pub fn report(mode: MetadataMode, params: SmallFileParams) -> (String, Json, prof::Fold) {
    let (all, fold) = run_all(mode, params);
    let json = rows_payload(mode, params, &all);
    let mut out = header(&format!(
        "small-file benchmark: {} x {} B in {} dirs, metadata={:?}",
        params.nfiles, params.file_size, params.ndirs, mode
    ));
    out.push_str(&phase_table(&all));
    out.push_str("\nspeedup of C-FFS over conventional (same code base, techniques off):\n");
    for phase in ["create", "read", "overwrite", "delete"] {
        let base = row(&all, "conventional", phase);
        let new = row(&all, "C-FFS", phase);
        out.push_str(&format!(
            "  {phase:<10} {:>5.2}x   (disk requests: {} -> {})\n",
            speedup(base, new),
            base.disk_requests(),
            new.disk_requests()
        ));
    }
    (out, json, fold)
}
