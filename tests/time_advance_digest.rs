//! Pins what the pod's time advance produces: the workload report, the
//! flight-recorder export and the metrics export of two seeded
//! episodes, each run with the metrics plane off and on. Any change to
//! how `PodSim` moves its actors' clocks forward that alters one
//! simulated timestamp, one delivered message or one sample row changes
//! a digest.

use bench::workload::{churn_pod_params, churn_workload};
use bench::Scale;
use cxl_pcie_pool::pool::pod::{PodParams, PodSim};
use cxl_pcie_pool::simkit::metrics::MetricsConfig;
use cxl_pcie_pool::simkit::trace::TraceConfig;
use cxl_pcie_pool::simkit::Nanos;
use cxl_pcie_pool::workgen::{
    Arrival, Engine, FaultPlan, OpKind, SloSpec, TenantSpec, WorkloadSpec,
};

/// A 6-host pod on 4 MHDs in 2 failure domains.
fn faulted_pod(seed: u64) -> PodSim {
    let mut p = PodParams::new(6, 2);
    p.mhds = 4;
    p.domains = 2;
    p.lambda = 4;
    p.ssd_hosts = vec![0, 1];
    p.accel_hosts = vec![2];
    p.ring_slots = 32;
    p.io_slots = 16;
    p.seed = seed;
    PodSim::new(p)
}

/// NIC, SSD and accelerator traffic with failure domain 1 lost
/// mid-window, so failover and ring rebuilds run through the pumps.
fn faulted_spec() -> WorkloadSpec {
    let slo = SloSpec {
        quantile: 0.9,
        limit: Nanos::from_micros(500),
        max_error_frac: 1.0,
    };
    let warmup = Nanos::from_micros(100);
    WorkloadSpec {
        tenants: vec![
            TenantSpec {
                name: "net".into(),
                arrival: Arrival::Poisson { rate_pps: 40_000.0 },
                mix: vec![
                    (OpKind::NicSend { bytes: 1024 }, 0.8),
                    (OpKind::NicRecv { bytes: 512 }, 0.2),
                ],
                hosts: vec![3, 4, 5],
                slo,
            },
            TenantSpec {
                name: "disk".into(),
                arrival: Arrival::Poisson { rate_pps: 15_000.0 },
                mix: vec![
                    (OpKind::SsdRead { blocks: 1 }, 0.6),
                    (OpKind::SsdWrite { blocks: 1 }, 0.4),
                ],
                hosts: vec![2, 4],
                slo,
            },
            TenantSpec {
                name: "ml".into(),
                arrival: Arrival::ClosedLoop {
                    concurrency: 2,
                    think: Nanos::from_micros(5),
                },
                mix: vec![(OpKind::AccelRun { bytes: 2048 }, 1.0)],
                hosts: vec![3, 5],
                slo,
            },
        ],
        warmup,
        measure: Nanos::from_micros(400),
        op_timeout: Nanos::from_micros(200),
        balance_every: Some(Nanos::from_micros(200)),
        fault: Some(FaultPlan::domain(
            1,
            warmup + Nanos::from_micros(150),
            Nanos::from_micros(50),
        )),
        churn: None,
    }
}

/// 64-bit FNV-1a: a stable digest that needs no dependency.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(digest, length)` of one rendered output.
type Pin = (u64, usize);

fn pin(s: &str) -> Pin {
    (fnv1a(s.as_bytes()), s.len())
}

/// Runs `spec` on `pod` with the flight recorder on and, when
/// `metrics`, the metrics plane sampling every 37 µs (off the 2 µs
/// step grid, so every tick lands between steps). Returns the pins of
/// the report, the trace export and the metrics export (`None` with
/// metrics off).
fn episode(mut pod: PodSim, spec: &WorkloadSpec, seed: u64, metrics: bool) -> [Option<Pin>; 3] {
    pod.enable_trace_config(TraceConfig {
        capacity: 1 << 18,
        fabric_ops: false,
    });
    if metrics {
        pod.enable_metrics_config(MetricsConfig {
            interval: Nanos::from_micros(37),
            capacity: 1 << 20,
        });
    }
    let run = Engine::new(seed).run(&mut pod, spec);
    assert!(run.ops > run.errors, "episode did no work: {run:?}");
    let trace = pod.export_trace().expect("trace enabled");
    let json = pod.export_metrics_json();
    assert_eq!(json.is_some(), metrics);
    [
        Some(pin(&format!("{run:?}"))),
        Some(pin(&trace)),
        json.as_deref().map(pin),
    ]
}

#[test]
fn faulted_pod_outputs_are_pinned() {
    let seed = 42;
    let off = episode(faulted_pod(seed), &faulted_spec(), seed, false);
    let on = episode(faulted_pod(seed), &faulted_spec(), seed, true);
    assert_eq!(off[0], on[0], "metrics changed the report");
    assert_eq!(
        [off, on],
        [
            [
                Some((0xeaa0_0cf5_fba8_b5ea, 2_057)),
                Some((0x8a03_4378_1428_20f6, 87_638)),
                None
            ],
            [
                Some((0xeaa0_0cf5_fba8_b5ea, 2_057)),
                Some((0xa2ce_ddff_ddcf_71ea, 189_447)),
                Some((0x051d_6d9f_d03d_a4d8, 28_386))
            ],
        ],
        "time advance changed an output"
    );
}

#[test]
fn churn_episode_outputs_are_pinned() {
    let seed = 7;
    let spec = churn_workload(Scale::Quick, true);
    let pod = || PodSim::new(churn_pod_params(seed));
    let off = episode(pod(), &spec, seed, false);
    let on = episode(pod(), &spec, seed, true);
    assert_eq!(off[0], on[0], "metrics changed the report");
    assert_eq!(
        [off, on],
        [
            [
                Some((0x1625_9bd5_9ea8_20d3, 2_528)),
                Some((0x3799_4586_ccb3_d7cd, 139_448)),
                None
            ],
            [
                Some((0x1625_9bd5_9ea8_20d3, 2_528)),
                Some((0x3e29_6663_00a4_8dd4, 1_120_257)),
                Some((0xe4ba_3b48_d582_568d, 218_448))
            ],
        ],
        "time advance changed an output"
    );
}
