//! Phase measurement.
//!
//! Each benchmark phase is wrapped in [`measure`]: the counters are read,
//! the phase body runs, and the simulated elapsed time plus the I/O
//! deltas since that read are captured. The paper's discipline is followed exactly: "In all of our
//! experiments, we forcefully write back all dirty blocks before
//! considering the measurement complete" — the phase body is followed by a
//! `sync` *inside* the measured region.

use cffs_disksim::SimDuration;
use cffs_fslib::{FileSystem, FsResult, IoStats};
use cffs_obs::json::{Json, ToJson};
use cffs_obs::{obj, prof, StatsSnapshot};

/// Result of one measured phase.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// File-system label (e.g. `"C-FFS"`).
    pub fs: String,
    /// Phase name (e.g. `"create"`).
    pub phase: String,
    /// Simulated time the phase started, nanoseconds (for windowing
    /// span logs into per-phase folds).
    pub start_ns: u64,
    /// Simulated elapsed time, including the final sync.
    pub elapsed: SimDuration,
    /// Work items completed (files, operations...).
    pub items: u64,
    /// Payload bytes moved (excluding metadata).
    pub bytes: u64,
    /// I/O counter deltas for the phase.
    pub io: IoStats,
    /// Full observability counter deltas for the phase (`None` when the
    /// stack carries no instrumentation, e.g. the in-memory model fs).
    pub counters: Option<StatsSnapshot>,
    /// Host wall-clock time the phase took, nanoseconds. Unlike every
    /// other field this is **not** deterministic — it measures the
    /// harness machine, not the simulated disk — and exists so bench
    /// payloads can separate "the simulated stack got faster" from "the
    /// benchmark binary got slower to run".
    pub host_ns: u64,
}


impl ToJson for PhaseResult {
    fn to_json(&self) -> Json {
        let mut j = obj![
            ("fs", self.fs.to_json()),
            ("phase", self.phase.to_json()),
            ("elapsed_ns", self.elapsed.to_json()),
            ("items", self.items.to_json()),
            ("bytes", self.bytes.to_json()),
            ("io", self.io.to_json()),
            ("host_ns", self.host_ns.to_json()),
        ];
        if let (Json::Obj(m), Some(snap)) = (&mut j, &self.counters) {
            m.push(("counters".to_string(), snap.to_json()));
            // Per-op-kind p50/p90/p99 for the phase, from the snapshot
            // delta's latency histograms.
            m.push(("latency_ns".to_string(), snap.op_latency_summary()));
            // Where the phase's simulated time went: op work vs disk
            // queueing vs mechanical service vs idle, from the attr_*_ns
            // counter deltas (ring-wrap-proof).
            m.push((
                "time_attribution".to_string(),
                prof::Attribution::from_delta(snap).to_json(),
            ));
        }
        j
    }
}

impl PhaseResult {
    /// Items per second of simulated time.
    pub fn items_per_sec(&self) -> f64 {
        if self.elapsed.as_nanos() == 0 {
            return f64::INFINITY;
        }
        self.items as f64 / self.elapsed.as_secs_f64()
    }

    /// Payload megabytes per second of simulated time.
    pub fn mb_per_sec(&self) -> f64 {
        if self.elapsed.as_nanos() == 0 {
            return f64::INFINITY;
        }
        self.bytes as f64 / 1e6 / self.elapsed.as_secs_f64()
    }

    /// Physical disk requests issued during the phase.
    pub fn disk_requests(&self) -> u64 {
        self.io.disk.total_requests()
    }
}

/// Run `body` as a measured phase: read the counters, execute, sync,
/// capture the deltas.
/// `items` and `bytes` describe the completed work for rate computation.
pub fn measure<F: FileSystem + ?Sized>(
    fs: &F,
    phase: &str,
    items: u64,
    bytes: u64,
    body: impl FnOnce(&F) -> FsResult<()>,
) -> FsResult<PhaseResult> {
    let io0 = fs.io_stats();
    let before = fs.obs().map(|o| o.snapshot(fs.label(), fs.now().as_nanos()));
    let t0 = fs.now();
    let host_t0 = std::time::Instant::now();
    body(fs)?;
    fs.sync()?;
    let host_ns = host_t0.elapsed().as_nanos() as u64;
    let elapsed = fs.now() - t0;
    // Counters are monotonic (never reset), so the phase's share is a
    // delta rather than a raw read.
    let counters = fs.obs().zip(before).map(|(o, b)| {
        o.snapshot(fs.label(), fs.now().as_nanos()).delta(&b)
    });
    Ok(PhaseResult {
        fs: fs.label().to_string(),
        phase: phase.to_string(),
        start_ns: t0.as_nanos(),
        elapsed,
        items,
        bytes,
        io: fs.io_stats().delta_since(&io0),
        counters,
        host_ns,
    })
}

/// Make the next phase start cold: write everything back and drop the
/// caches (the moral equivalent of unmount + mount between phases).
pub fn cold_boundary(fs: &(impl FileSystem + ?Sized)) -> FsResult<()> {
    fs.drop_caches()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cffs_fslib::model::ModelFs;

    #[test]
    fn measure_captures_items_and_phase() {
        let fs = ModelFs::new();
        let r = measure(&fs, "create", 10, 10_240, |fs| {
            for i in 0..10 {
                fs.create(1, &format!("f{i}"))?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(r.phase, "create");
        assert_eq!(r.items, 10);
        assert_eq!(r.fs, "model");
        // ModelFs charges no time: rate is infinite, not NaN or zero.
        assert!(r.items_per_sec().is_infinite());
    }

    #[test]
    fn failing_body_propagates() {
        let fs = ModelFs::new();
        let r = measure(&fs, "x", 0, 0, |fs| fs.unlink(1, "missing"));
        assert!(r.is_err());
    }
}
