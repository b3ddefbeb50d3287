//! Pins the vector-clock auditor's observable state after a short pod
//! episode. The race report renders every actor clock and every line's
//! write clock, so any change to how clocks are represented, shared or
//! joined that alters a single clock value changes the digest.

use cxl_pcie_pool::cxl_fabric::AuditMode;
use cxl_pcie_pool::pool::pod::{PodParams, PodSim};
use cxl_pcie_pool::simkit::Nanos;
use cxl_pcie_pool::workgen::{
    Arrival, Engine, FaultPlan, OpKind, SloSpec, TenantSpec, WorkloadSpec,
};

/// A 6-host pod on 4 MHDs in 2 failure domains, so clocks carry
/// components in both domain namespaces.
fn pod(seed: u64) -> PodSim {
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

/// NIC, SSD and accelerator traffic with a domain loss mid-window:
/// CPU loads and nt-stores, DMA reads and writes, and failover re-homing
/// all leave clocks behind.
fn spec() -> WorkloadSpec {
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

#[test]
fn vector_clock_race_report_digest_is_pinned() {
    let seed = 42;
    let mut p = pod(seed);
    p.enable_audit_mode(AuditMode::VectorClock);
    let run = Engine::new(seed).run(&mut p, &spec());
    assert!(run.tenants.iter().all(|t| t.ops > t.errors));

    let audit = p.audit_finalize().expect("audit enabled");
    let races = p.race_report().expect("audit enabled").render();
    // Not vacuous: clocks in both domains and per-line write clocks.
    assert!(audit.ops_audited > 0);
    assert!(races.contains("line write clocks:"), "{races}");
    assert!(races.contains("@d1:"), "no domain-1 component:\n{races}");

    let rendered = format!("{}{}{:?}", audit.render(), races, audit.counts);
    let digest = fnv1a(rendered.as_bytes());
    assert_eq!(
        (digest, rendered.len(), audit.ops_audited),
        (0x3275_a57b_6d54_0800, 139_699, 2_167),
        "vector-clock state changed"
    );
}
