#![warn(missing_docs)]

//! # cffs-bench
//!
//! The reproduction harness. Each module under [`experiments`] regenerates
//! one table or figure from the paper (see `DESIGN.md` §3 for the
//! experiment index); [`experiments::REGISTRY`] lists them with their
//! flags and defaults, and the `repro <experiment> [flags]` binary runs
//! one (`repro all` runs the whole suite). Host-time cost is measured by
//! the stand-alone `benchmark/` package, not here.

pub mod experiments;
pub mod report;
