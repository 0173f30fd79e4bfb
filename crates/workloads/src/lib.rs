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
//! * [`trace`] — operation traces: random generation, recording, replay;
//!   the substrate for cross-implementation equivalence tests.
//! * [`soak`] — open-ended mixed churn for watching the stack live via
//!   the telemetry feed (`repro soak --feed` + `cffs-top --follow`).
//! * [`runner`] — phase measurement: simulated elapsed time + I/O deltas.
//! * [`concurrent`] — N client threads over one shared `FileSystem + Sync`
//!   instance: disjoint per-thread directory sets plus an optional shared
//!   contention set, throughput in simulated time.
//! * [`namei`] — the million-file deep-tree name-resolution benchmark:
//!   seeded full-path lookups against multi-block leaf directories, the
//!   workload behind the namespace-cache (dcache) acceptance gate.
//! * [`multiclient`] — thousands of seeded user sessions (open/read/
//!   write/fsync mixes, Zipf-skewed directory popularity) over a few OS
//!   threads: the scale-out volume workload behind E16 `repro volume`.

pub mod aging;
pub mod appdev;
pub mod concurrent;
pub mod multiclient;
pub mod namegen;
pub mod namei;
pub mod postmark;
pub mod runner;
pub mod sizes;
pub mod smallfile;
pub mod soak;
pub mod trace;

pub use runner::PhaseResult;
