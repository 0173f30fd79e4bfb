//! Metric names and units (the same list `BENCHMARK.json` carries), the
//! run's result, and its two renderings: the table for people and the
//! one-line JSON object the driver reads.

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A larger value is better.
    Higher,
    /// A smaller value is better.
    Lower,
}
use Better::{Higher, Lower};

impl Better {
    /// As written in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Higher => "higher",
            Lower => "lower",
        }
    }
}

/// A metric's name, unit and direction.
pub type MetricDef = (&'static str, &'static str, Better);

/// End-to-end metrics, reported by the untraced run. Simulated units
/// carry a `_sim` suffix: they are exact, not host measurements.
pub const END_TO_END: &[MetricDef] = &[
    ("sim_ops_per_s", "ops/s_sim", Higher),
    ("sim_op_p50_us", "us_sim", Lower),
    ("sim_op_p99_us", "us_sim", Lower),
    ("host_units_per_kop", "units/kop", Lower),
    ("host_alloc_kb_per_op", "KB/op", Lower),
    ("host_allocs_per_op", "allocs/op", Lower),
    ("peak_rss_mb", "MB", Lower),
    ("space_kb_per_file", "KB/file", Lower),
    ("setup_s", "s", Lower),
];

/// Ops the core layer is spanned on.
pub const CORE_OPS: [&str; 6] = ["lookup", "getattr", "create", "write", "read", "unlink"];

/// Per-layer metrics, reported by the traced run: `(name, unit)`. The
/// 18 `core.<op>.*` names are added by [`per_layer`].
const PER_LAYER_FIXED: &[MetricDef] = &[
    ("disksim.reqs_per_kop", "reqs/kop", Lower),
    ("disksim.kb_per_op", "KB/op", Lower),
    ("disksim.seek_ms_per_req", "ms_sim/req", Lower),
    ("disksim.rotation_ms_per_req", "ms_sim/req", Lower),
    ("disksim.transfer_ms_per_req", "ms_sim/req", Lower),
    ("disksim.onboard_hit_share", "share", Higher),
    ("disksim.busy_share", "share", Lower),
    ("disksim.host_ns_per_req", "ns/req", Lower),
    ("disksim.alloc_bytes_per_req", "B/req", Lower),
    ("driver.submits_per_kop", "submits/kop", Lower),
    ("driver.coalesced_share", "share", Higher),
    ("driver.sg_segments_per_req", "segs/req", Higher),
    ("driver.sim_queue_share", "share", Lower),
    ("driver.host_ns_per_submit", "ns/submit", Lower),
    ("driver.allocs_per_submit", "allocs/submit", Lower),
    ("cache.lookups_per_op", "lookups/op", Lower),
    ("cache.hit_share", "share", Higher),
    ("cache.evictions_per_kop", "evictions/kop", Lower),
    ("cache.writebacks_per_kop", "blocks/kop", Lower),
    ("cache.blocks_per_writeback_run", "blocks/run", Higher),
    ("cache.group_reads_per_kop", "reads/kop", Lower),
    ("cache.group_fetch_used_share", "share", Higher),
    ("cache.backbinds_per_kop", "backbinds/kop", Higher),
    ("cache.host_ns_per_hit", "ns/hit", Lower),
    ("cache.alloc_bytes_per_hit", "B/hit", Lower),
    ("cache.host_ns_per_modify", "ns/modify", Lower),
    ("cache.host_ns_per_group_read", "ns/read", Lower),
    ("cache.host_ms_per_sync", "ms/sync", Lower),
    ("core.self_share", "share", Lower),
    ("core.embedded_inode_share", "share", Higher),
    ("core.sync_meta_writes_per_kop", "writes/kop", Lower),
    ("core.degroupings_per_kop", "degroupings/kop", Lower),
    ("core.sim_op_share", "share", Lower),
    ("core.sim_speedup_vs_conventional", "x", Higher),
    ("dcache.hit_share", "share", Higher),
    ("dcache.neg_hit_share", "share", Higher),
    ("dcache.evictions_per_kop", "evictions/kop", Lower),
    ("dcache.occupancy_share", "share", Lower),
    ("dcache.host_ns_per_probe", "ns/probe", Lower),
    ("dcache.host_ns_per_insert", "ns/insert", Lower),
    ("volume.dir_fanouts_per_kop", "fanouts/kop", Lower),
    ("volume.stripe_part_ios_per_kop", "ios/kop", Lower),
    ("volume.stripe_promotions", "count", Lower),
    ("volume.req_balance", "share", Higher),
    ("volume.sim_scaling_2v", "x", Higher),
    ("volume.host_overhead_ns_per_op", "ns/op", Lower),
    ("volume.alloc_overhead_bytes_per_op", "B/op", Lower),
    ("volume.lock_wait_share_2t", "share", Lower),
    ("regroup.blocks_moved", "blocks", Lower),
    ("regroup.host_ms", "ms/run", Lower),
    ("regroup.sim_s", "s_sim", Lower),
    ("regroup.fetch_util_before_pct", "%", Higher),
    ("regroup.fetch_util_after_pct", "%", Higher),
    ("obs.host_overhead_pct", "%", Lower),
    ("obs.sim_overhead_ns", "ns_sim", Lower),
    ("obs.events_per_op", "events/op", Lower),
    ("obs.alloc_bytes_per_op_armed", "B/op", Lower),
    ("harness.wall_ops_per_s", "ops/s", Higher),
    ("harness.run_s", "s", Lower),
    ("harness.calib_unit_ms", "ms", Lower),
    ("harness.pass_iqr_pct", "%", Lower),
    ("harness.trace_overhead_pct", "%", Lower),
    ("harness.pinned", "bool", Higher),
];

/// Every per-layer metric `(name, unit, direction)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut out = Vec::new();
    for &(name, unit, better) in PER_LAYER_FIXED {
        if name == "core.self_share" {
            for op in CORE_OPS {
                out.push((format!("core.{op}.host_p50_ns"), "ns/call", Lower));
                out.push((format!("core.{op}.host_p99_ns"), "ns/call", Lower));
                out.push((format!("core.{op}.sim_mean_us"), "us_sim", Lower));
            }
        }
        out.push((name.to_string(), unit, better));
    }
    out
}

/// Metric values by name. A per-layer metric that was never set reads 0
/// (the layer did no work on this workload).
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Set `name` (last write wins).
    pub fn set(&mut self, name: &str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    /// Value of `name`, 0 when never set.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub traced: bool,
    /// Ops attempted, post-run checks included.
    pub attempted: u64,
    /// Ops and checks that failed.
    pub failed: u64,
    /// First few failure descriptions.
    pub notes: Vec<String>,
    /// Pinning worked.
    pub pinned: bool,
    /// The metrics of this kind of run.
    pub metrics: Metrics,
    /// Extra lines for people (not part of the contract).
    pub info: Vec<String>,
}

impl Outcome {
    /// Outputs were correct.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn names(&self) -> Vec<(String, &'static str)> {
        if self.traced {
            per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u, _)| (n.to_string(), u))
                .collect()
        }
    }

    /// The table: every metric by name with its unit.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} ({}) ==\n",
            self.workload,
            if self.traced {
                "traced run: per-layer metrics"
            } else {
                "untraced run: end-to-end metrics"
            }
        );
        for (name, unit) in self.names() {
            out += &format!("{name:<40} {:>18.6} {unit}\n", self.metrics.get(&name));
        }
        out += &format!(
            "{:<40} {:>18.6} share ({} failed of {} attempted)\n",
            "failed_ops_share",
            ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        if !self.traced {
            out += &format!("{:<40} {:>18}\n", "harness.pinned", self.pinned as u8);
        }
        for line in self.info.iter().chain(&self.notes) {
            out += &format!("  {line}\n");
        }
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`; values with all their digits.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .names()
            .into_iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
                    self.metrics.get(&name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eighty_one_per_layer_metrics_with_unique_legal_names() {
        let names = per_layer();
        assert_eq!(names.len(), 81);
        let unique: std::collections::HashSet<_> =
            names.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(unique.len(), names.len());
        for (name, unit, _) in names
            .iter()
            .map(|(n, u, b)| (n.as_str(), *u, *b))
            .chain(END_TO_END.iter().copied())
        {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    /// `BENCHMARK.json` at the root of the repository lists exactly the
    /// metrics this crate reports, with the same units and directions.
    #[test]
    fn benchmark_json_agrees_with_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let all: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u, b))
            .chain(per_layer())
            .collect();
        for (name, unit, better) in &all {
            let entry = format!(
                "\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"",
                better.name()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {{{entry}}}");
        }
        let listed = json.matches("\"better\":").count();
        assert_eq!(
            listed,
            all.len(),
            "BENCHMARK.json lists {listed} metrics, the code reports {}",
            all.len()
        );
        for workload in crate::run::WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")),
                "BENCHMARK.json lacks workload {workload}"
            );
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            workload: "w".into(),
            attempted: 10,
            ..Outcome::default()
        };
        o.metrics.set("setup_s", 0.25);
        let line = o.json_line();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }
}
