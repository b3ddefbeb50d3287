//! The benchmark's workloads: which pod, which spec, how many
//! back-to-back episodes make one pass, and which observability planes
//! ride along.
//!
//! A *pass* is a fixed list of episodes whose seeds derive from the
//! benchmark seed; one episode is one `Engine::run` on a freshly built
//! pod. The modelled (sim-clock) metrics and every count come from the
//! modelled pass, so they are a pure function of the seed; host-time
//! samples come from as many timed passes as fit in the run's budget.

use bench::workload::{churn_pod_params, churn_workload, faulted_spec, pod_params};
use bench::Scale;
use cxl_fabric::AuditMode;
use cxl_pool_core::pod::{PodParams, PodSim};
use simkit::metrics::MetricsConfig;
use simkit::rng::SplitMix64;
use simkit::trace::TraceConfig;
use simkit::Nanos;
use workgen::WorkloadSpec;

/// Flight-recorder capacity per episode pod. The 120 ms `pool-mix`
/// episode records ~420k events; the traced run reports any drop.
pub const TRACE_CAPACITY: usize = 1 << 20;

/// Metrics-plane sampling interval and ring size per episode pod
/// (~1,200 ticks of ~100 series per 120 ms episode).
pub const METRICS: MetricsConfig = MetricsConfig {
    interval: Nanos(100_000),
    capacity: 1 << 18,
};

/// Observability planes switched on for an episode's pod.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Planes {
    /// Coherence auditor mode, if auditing.
    pub audit: Option<AuditMode>,
    /// Flight recorder.
    pub trace: bool,
    /// Sampled metrics plane.
    pub metrics: bool,
}

impl Planes {
    /// Everything off: the bare datapath.
    pub const BARE: Planes = Planes {
        audit: None,
        trace: false,
        metrics: false,
    };
}

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The faulted three-tenant mix on the 6-host pod, planes off.
    PoolMix,
    /// The same episodes with the VectorClock auditor, the flight
    /// recorder and the metrics plane on.
    PoolMixObserved,
    /// Back-to-back tenant-churn episodes on the 8-host pod.
    TenantChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PoolMix,
        Workload::PoolMixObserved,
        Workload::TenantChurn,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PoolMix => "pool-mix",
            Workload::PoolMixObserved => "pool-mix-observed",
            Workload::TenantChurn => "tenant-churn",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload spec every episode runs. `pool-mix` lengthens the
    /// quick measure window from 2.5 ms to 120 ms, which puts the
    /// domain loss (0.6 ms in, healed 0.1 ms later) early in it and
    /// gives the analytics tenant's p99 well over ten samples beyond it.
    pub fn spec(self) -> WorkloadSpec {
        self.spec_measuring(Nanos::from_millis(120))
    }

    /// The spec of the timed episodes and of the traced run's
    /// observability A/B episodes: the same mix with a 20 ms window for
    /// `pool-mix` (0.2 s of host time, short enough to sit between two
    /// calibration runs), the full spec for the short churn episodes.
    pub fn timing_spec(self) -> WorkloadSpec {
        self.spec_measuring(Nanos::from_millis(20))
    }

    /// Episodes in one timed pass.
    pub fn timing_episodes(self) -> usize {
        match self {
            Workload::PoolMix | Workload::PoolMixObserved => 3,
            Workload::TenantChurn => 100,
        }
    }

    fn spec_measuring(self, window: Nanos) -> WorkloadSpec {
        match self {
            Workload::PoolMix | Workload::PoolMixObserved => {
                let mut spec = faulted_spec(Scale::Quick);
                spec.measure = window;
                spec
            }
            Workload::TenantChurn => churn_workload(Scale::Quick, true),
        }
    }

    /// Pod parameters for an episode seed.
    pub fn pod_params(self, seed: u64) -> PodParams {
        match self {
            Workload::PoolMix | Workload::PoolMixObserved => pod_params(seed),
            Workload::TenantChurn => churn_pod_params(seed),
        }
    }

    /// Episodes in one pass: one long `pool-mix` episode, or enough
    /// 4 ms churn episodes that the pooled p99 of each reported latency
    /// rests on well over ten samples beyond it.
    pub fn episodes(self) -> usize {
        match self {
            Workload::PoolMix | Workload::PoolMixObserved => 1,
            Workload::TenantChurn => 100,
        }
    }

    /// Episodes (a prefix of the pass's seeds) of each observability
    /// A/B variant in the traced run.
    pub fn ab_episodes(self) -> usize {
        match self {
            Workload::PoolMix | Workload::PoolMixObserved => 1,
            Workload::TenantChurn => 10,
        }
    }

    /// The planes this workload runs with.
    pub fn planes(self) -> Planes {
        match self {
            Workload::PoolMix | Workload::TenantChurn => Planes::BARE,
            Workload::PoolMixObserved => Planes {
                audit: Some(AuditMode::VectorClock),
                trace: true,
                metrics: true,
            },
        }
    }

    /// The latency-critical NIC tenant `lat_*` reports.
    pub fn latency_tenant(self) -> &'static str {
        match self {
            Workload::PoolMix | Workload::PoolMixObserved => "frontend",
            Workload::TenantChurn => "steady",
        }
    }

    /// The pooled-SSD tenants `ssd_p99_us` reports together.
    pub fn ssd_tenants(self) -> &'static [&'static str] {
        match self {
            Workload::PoolMix | Workload::PoolMixObserved => &["analytics"],
            Workload::TenantChurn => &["diurnal-a", "diurnal-b"],
        }
    }

    /// The workload whose modelled outputs this one must reproduce bit
    /// for bit (its observability planes change none of them).
    pub fn same_outputs_as(self) -> Option<Workload> {
        match self {
            Workload::PoolMixObserved => Some(Workload::PoolMix),
            _ => None,
        }
    }
}

/// The pass's episode seeds, derived from the benchmark seed.
pub fn episode_seeds(seed: u64, episodes: usize) -> Vec<u64> {
    let mut sm = SplitMix64::new(seed);
    (0..episodes).map(|_| sm.next_u64()).collect()
}

/// Builds an episode's pod with `planes` on: the set-up `setup_s` times.
pub fn build_pod(w: Workload, seed: u64, planes: Planes) -> PodSim {
    let mut pod = PodSim::new(w.pod_params(seed));
    if let Some(mode) = planes.audit {
        pod.enable_audit_mode(mode);
    }
    if planes.trace {
        pod.enable_trace_config(TraceConfig {
            capacity: TRACE_CAPACITY,
            fabric_ops: false,
        });
    }
    if planes.metrics {
        pod.enable_metrics_config(METRICS);
    }
    pod
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn seeds_are_a_function_of_the_benchmark_seed() {
        assert_eq!(episode_seeds(42, 5), episode_seeds(42, 5));
        assert_ne!(episode_seeds(42, 5), episode_seeds(43, 5));
        assert_eq!(episode_seeds(42, 3), episode_seeds(42, 5)[..3]);
    }

    #[test]
    fn specs_fit_their_pods() {
        for w in Workload::ALL {
            let pod = PodSim::new(w.pod_params(1));
            w.spec()
                .validate(pod.agents.len() as u16, &pod.kinds_available())
                .expect("spec fits pod");
        }
    }
}
