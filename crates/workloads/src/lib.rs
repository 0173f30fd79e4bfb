#![warn(missing_docs)]

//! # cffs-workloads
//!
//! Workload generators and measurement harnesses for the C-FFS
//! reproduction. Everything here drives the [`cffs_fslib::FileSystem`]
//! trait, so the same workload runs unchanged against the five C-FFS
//! configurations (classic FFS among them), a volume set and the
//! in-memory oracle; the threaded workloads additionally ask for `Sync`.
//!
//! * [`smallfile`] — the paper's small-file micro-benchmark ("based on the
//!   small-file benchmark from [Rosenblum92]"): create/write N small
//!   files, read them back in order, overwrite in order, delete in order,
//!   with a cold cache between phases.
//! * [`aging`] — the [Herrin93]-style aging program: a long random
//!   create/delete sequence whose create probability is drawn from a
//!   distribution centered on a target utilization.
//! * [`appdev`] — the software-development application suite (copy,
//!   compile, search, archive extract, clean) behind the paper's
//!   "10–300%" application-level claims.
//! * [`postmark`] — a PostMark-style server workload (contemporaneous with
//!   the paper, 1997): steady-state create/delete/read/append transactions
//!   over a pool of small files.
//! * [`sizes`] — 1990s file-size distributions (79% of files under 8 KB,
//!   the paper's Figure 1 shape).
//! * [`trace`] — operation traces: random generation and replay; the
//!   substrate for cross-implementation equivalence tests.
//! * [`soak`] — open-ended mixed churn for watching the stack live via
//!   the telemetry feed (`repro soak --feed` + `cffs-top --follow`).
//! * [`runner`] — phase measurement: simulated elapsed time + I/O deltas.
//! * [`concurrent`] — the one multi-client driver: N clients over one
//!   shared `FileSystem` instance, each a context with its own simulated
//!   clock, taking their steps on the calling thread in clock order so
//!   simulated time is a function of the seed. Two measured windows: warm re-reads of disjoint per-client
//!   directories (E14 `repro concurrent`) and Zipf-skewed open/read/
//!   write/fsync sessions (E16 `repro volume`).
//! * [`namei`] — the million-file deep-tree name-resolution benchmark:
//!   seeded full-path lookups against multi-block leaf directories, the
//!   workload behind the namespace-cache (dcache) acceptance gate.

pub mod aging;
pub mod appdev;
pub mod concurrent;
pub mod namegen;
pub mod namei;
pub mod postmark;
pub mod runner;
pub mod sizes;
pub mod smallfile;
pub mod soak;
pub mod trace;

pub use runner::PhaseResult;
