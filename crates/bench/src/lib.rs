#![warn(missing_docs)]

//! # cffs-bench
//!
//! The reproduction harness. Each module under [`experiments`] regenerates
//! one table or figure from the paper (see `DESIGN.md` §3 for the
//! experiment index); the `repro_*` binaries are thin wrappers, and
//! `repro_all` runs the whole suite. Host-time cost is measured by the
//! stand-alone `benchmark/` package, not here.

pub mod experiments;
pub mod report;

pub use report::{phase_table, speedup};

/// Wire the process-global telemetry sinks from a binary's argv — the
/// shared implementation of the `repro_*` flags:
///
/// * `--feed PATH` streams a live JSONL telemetry feed to PATH (watch it
///   with `cffs-top --follow PATH`);
/// * `--flight DIR` arms the forensic flight recorder: every stack
///   mounted afterwards keeps a bounded black box of recent frames,
///   spans, and signal/regroup events, persisted atomically under DIR as
///   `FLIGHT_<label>.jsonl` on every cut and flushed on panic, fsck
///   failure, or bench-writer death (`cffs-inspect postmortem` reads the
///   dumps).
pub fn wire_telemetry(args: &[String]) {
    if let Some(i) = args.iter().position(|a| a == "--feed") {
        let path = args.get(i + 1).expect("--feed needs a path");
        cffs_obs::feed::set_global(path).expect("create telemetry feed");
    }
    if let Some(i) = args.iter().position(|a| a == "--flight") {
        let dir = args.get(i + 1).expect("--flight needs a directory");
        cffs_obs::flight::set_global(dir).expect("create flight directory");
    }
}
