//! Every metric the benchmark emits: name, unit, direction, clock and
//! the layer (crate module) it measures. `BENCHMARK.json` at the
//! repository root lists the same names and units; a unit test keeps
//! the two in step.

/// Which direction is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// The clock or kind of quantity a metric reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Simulator wall-clock time on the host.
    Host,
    /// Modelled (simulated) time.
    Sim,
    /// A deterministic count or a ratio of counts.
    Count,
}

impl Clock {
    /// Short label for the printed report.
    pub fn as_str(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }
}

/// One metric definition.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Emitted name.
    pub name: String,
    /// Emitted unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Clock.
    pub clock: Clock,
    /// Layer (module) it measures.
    pub layer: &'static str,
    /// Allowed regression as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// `(name, unit, better, clock, layer, bound)` for the end-to-end
/// metrics, in `BENCHMARK.json` order.
#[rustfmt::skip]
const END_TO_END: &[(&str, &str, Better, Clock, &str, f64)] = &[
    ("sim_ms_per_wall_s", "sim-ms/s", Better::Higher, Clock::Host, "workgen", 0.25),
    ("wall_us_per_op", "us", Better::Lower, Clock::Host, "workgen", 0.25),
    ("setup_s", "s", Better::Lower, Clock::Host, "core", 0.25),
    ("peak_rss_mb", "MB", Better::Lower, Clock::Host, "process", 0.2),
    ("lat_p50_us", "us", Better::Lower, Clock::Sim, "workgen", 0.15),
    ("lat_p99_us", "us", Better::Lower, Clock::Sim, "workgen", 0.25),
    ("ssd_p99_us", "us", Better::Lower, Clock::Sim, "workgen", 0.25),
];

/// `(name, unit, better, clock, layer)` for the per-layer metrics other
/// than the stage latencies.
#[rustfmt::skip]
const PER_LAYER: &[(&str, &str, Better, Clock, &str)] = &[
    ("op_error_frac", "ratio", Better::Lower, Clock::Sim, "workgen"),
    ("workgen.ops", "count", Better::Higher, Clock::Count, "workgen"),
    ("workgen.errors", "count", Better::Lower, Clock::Count, "workgen"),
    ("workgen.run_s", "s", Better::Lower, Clock::Host, "workgen"),
    ("core.served_per_op", "1/op", Better::Lower, Clock::Count, "core"),
    ("core.assigns", "count", Better::Lower, Clock::Count, "core"),
    ("core.failovers", "count", Better::Lower, Clock::Count, "core"),
    ("core.migrations", "count", Better::Lower, Clock::Count, "core"),
    ("core.tenant_migrations", "count", Better::Lower, Clock::Count, "core"),
    ("core.blackout_p99_us", "us", Better::Lower, Clock::Sim, "core"),
    ("core.snapshot_ms", "ms", Better::Lower, Clock::Host, "core"),
    ("core.idle_ns_per_sim_us", "ns/sim-us", Better::Lower, Clock::Host, "core"),
    ("core.orch_choose_ns", "ns", Better::Lower, Clock::Host, "core"),
    ("shmem.msgs_per_op", "1/op", Better::Lower, Clock::Count, "shmem"),
    ("shmem.blocked_per_msg", "1/msg", Better::Lower, Clock::Count, "shmem"),
    ("shmem.stall_ns_per_msg", "ns/msg", Better::Lower, Clock::Sim, "shmem"),
    ("shmem.loads_per_msg", "1/msg", Better::Lower, Clock::Count, "shmem"),
    ("shmem.ring_roundtrip_ns", "ns", Better::Lower, Clock::Host, "shmem"),
    ("shmem.empty_poll_ns", "ns", Better::Lower, Clock::Host, "shmem"),
    ("cxl_fabric.loads_per_op", "1/op", Better::Lower, Clock::Count, "cxl_fabric"),
    ("cxl_fabric.loads_per_sim_us", "1/sim-us", Better::Lower, Clock::Count, "cxl_fabric"),
    ("cxl_fabric.nt_stores_per_op", "1/op", Better::Lower, Clock::Count, "cxl_fabric"),
    ("cxl_fabric.stores_per_op", "1/op", Better::Lower, Clock::Count, "cxl_fabric"),
    ("cxl_fabric.flushes_per_op", "1/op", Better::Lower, Clock::Count, "cxl_fabric"),
    ("cxl_fabric.dma_per_op", "1/op", Better::Lower, Clock::Count, "cxl_fabric"),
    ("cxl_fabric.bytes_per_op", "B/op", Better::Lower, Clock::Count, "cxl_fabric"),
    ("cxl_fabric.invalidations_per_op", "1/op", Better::Lower, Clock::Count, "cxl_fabric"),
    ("cxl_fabric.cache_hit_ratio", "ratio", Better::Higher, Clock::Count, "cxl_fabric"),
    ("cxl_fabric.load_miss_ns", "ns", Better::Lower, Clock::Host, "cxl_fabric"),
    ("cxl_fabric.nt_store_ns", "ns", Better::Lower, Clock::Host, "cxl_fabric"),
    ("cxl_fabric.dma_4k_ns", "ns", Better::Lower, Clock::Host, "cxl_fabric"),
    ("cxl_fabric.alloc_free_ns", "ns", Better::Lower, Clock::Host, "cxl_fabric"),
    ("audit.ops_audited_per_op", "1/op", Better::Lower, Clock::Count, "cxl_fabric.audit"),
    ("audit.violations", "count", Better::Lower, Clock::Count, "cxl_fabric.audit"),
    ("audit.finalize_ms", "ms", Better::Lower, Clock::Host, "cxl_fabric.audit"),
    ("audit.version_overhead", "ratio", Better::Lower, Clock::Host, "cxl_fabric.audit"),
    ("audit.vc_overhead", "ratio", Better::Lower, Clock::Host, "cxl_fabric.audit"),
    ("pcie_sim.dev_ops_per_op", "1/op", Better::Lower, Clock::Count, "pcie_sim"),
    ("pcie_sim.dev_bytes_per_op", "B/op", Better::Lower, Clock::Count, "pcie_sim"),
    ("trace.events_per_op", "1/op", Better::Lower, Clock::Count, "simkit.trace"),
    ("trace.dropped", "count", Better::Lower, Clock::Count, "simkit.trace"),
    ("trace.overhead", "ratio", Better::Lower, Clock::Host, "simkit.trace"),
    ("trace.export_ms", "ms", Better::Lower, Clock::Host, "simkit.trace"),
    ("metrics.dropped", "count", Better::Lower, Clock::Count, "simkit.metrics"),
    ("metrics.overhead", "ratio", Better::Lower, Clock::Host, "simkit.metrics"),
    ("metrics.export_ms", "ms", Better::Lower, Clock::Host, "simkit.metrics"),
];

/// The flight-recorder `(stage, kind)` pairs with a modelled p50
/// metric: every `chan/send`, `dev/*`, `dma/*` and `op/*` stage that
/// `telemetry::snapshot` reports on any workload (kind `-` is spelled
/// `none` in metric names).
pub const STAGES: &[(&str, &str)] = &[
    ("chan/send", "-"),
    ("chan/send", "accel"),
    ("chan/send", "nic"),
    ("chan/send", "ssd"),
    ("dev/accel", "accel"),
    ("dev/nic_rx", "-"),
    ("dev/nic_tx", "nic"),
    ("dev/ssd_read", "ssd"),
    ("dev/ssd_write", "ssd"),
    ("dma/read", "accel"),
    ("dma/read", "nic"),
    ("dma/read", "ssd"),
    ("dma/write", "-"),
    ("dma/write", "accel"),
    ("dma/write", "ssd"),
    ("op/vaccel_run", "accel"),
    ("op/vnic_post_rx", "nic"),
    ("op/vnic_send", "nic"),
    ("op/vssd_read", "ssd"),
    ("op/vssd_write", "ssd"),
];

/// Metric name for one flight-recorder stage's p50.
pub fn stage_metric(stage: &str, kind: &str) -> String {
    let kind = if kind == "-" { "none" } else { kind };
    format!("stage.{}.{}.p50_ns", stage.replace('/', "_"), kind)
}

/// The end-to-end metrics (emitted with `--trace 0`).
pub fn end_to_end() -> Vec<Metric> {
    END_TO_END
        .iter()
        .map(|&(name, unit, better, clock, layer, bound)| Metric {
            name: name.into(),
            unit,
            better,
            clock,
            layer,
            bound: Some(bound),
        })
        .collect()
}

/// The per-layer metrics (emitted with `--trace 1`).
pub fn per_layer() -> Vec<Metric> {
    let fixed = PER_LAYER
        .iter()
        .map(|&(name, unit, better, clock, layer)| Metric {
            name: name.into(),
            unit,
            better,
            clock,
            layer,
            bound: None,
        });
    let stages = STAGES.iter().map(|&(stage, kind)| Metric {
        name: stage_metric(stage, kind),
        unit: "ns",
        better: Better::Lower,
        clock: Clock::Sim,
        layer: "simkit.trace",
        bound: None,
    });
    fixed.chain(stages).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::{valid_name, valid_unit};
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Value::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(Value::as_str)
                        .expect("unit")
                        .to_string(),
                    m.get("better")
                        .and_then(Value::as_str)
                        .expect("better")
                        .to_string(),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    fn ours(metrics: &[Metric]) -> Vec<(String, String, String, Option<f64>)> {
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), ours(&end_to_end()));
        assert_eq!(listed(&doc, "per_layer"), ours(&per_layer()));
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = benchmark_json();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn names_are_legal_and_unique() {
        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = std::collections::BTreeSet::new();
        for m in &all {
            assert!(valid_name(&m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} on {}", m.unit, m.name);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        }
        assert!(end_to_end()
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = end_to_end()
            .into_iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        let largest = end_to_end()
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            (setup.unit, setup.better, setup.bound),
            ("s", Better::Lower, Some(largest))
        );
    }

    #[test]
    fn stage_names_flatten_slashes_and_dashes() {
        assert_eq!(
            stage_metric("chan/send", "accel"),
            "stage.chan_send.accel.p50_ns"
        );
        assert_eq!(
            stage_metric("dma/write", "-"),
            "stage.dma_write.none.p50_ns"
        );
    }
}
