#![warn(missing_docs)]

//! # cffs-benchmark — the repository's two-clock benchmark
//!
//! Six pinned workloads, each measured on both clocks: *simulated* time
//! (exact, from the disk model) and *host* time (what the Rust code
//! costs, in calibration units), plus heap requests, peak RSS and space.
//! An untraced run yields the end-to-end metrics; a traced run wraps
//! every call into `core`/`volume` in a span, replays the recorded
//! boundary streams through standalone probes of the layers below, and
//! yields the per-layer metrics. See `benchmark/README.md`.
//!
//! The `unsafe` in this crate — the counting global allocator and the
//! two `sched_*affinity` calls — is the only `unsafe` in the tree.

pub mod alloc;
pub mod fsapi;
pub mod gen;
pub mod harness;
pub mod pin;
pub mod probes;
pub mod report;
pub mod run;
pub mod trace;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
