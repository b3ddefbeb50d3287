//! Workload specifications: tenants, device mixes, fault plans.

use cxl_pool_core::pod::IO_SLOT;
use cxl_pool_core::vdev::DeviceKind;
use pcie_sim::ssd::BLOCK;
use simkit::Nanos;

use crate::arrival::Arrival;
use crate::lifecycle::ChurnSpec;
use crate::slo::SloSpec;

/// One operation class a tenant can issue against the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Transmit `bytes` through the tenant's pooled NIC.
    NicSend {
        /// Payload size.
        bytes: u32,
    },
    /// Post an RX buffer, have a frame of `bytes` arrive on the bound
    /// physical NIC, and wait for the RX completion to reach the owner.
    NicRecv {
        /// Frame size.
        bytes: u32,
    },
    /// Read `blocks` 4 KiB blocks from the tenant's pooled SSD.
    SsdRead {
        /// Block count.
        blocks: u32,
    },
    /// Write `blocks` 4 KiB blocks (staged into pool memory first).
    SsdWrite {
        /// Block count.
        blocks: u32,
    },
    /// Offload `bytes` of input to the tenant's pooled accelerator.
    AccelRun {
        /// Input size.
        bytes: u32,
    },
}

impl OpKind {
    /// The device class this operation needs.
    pub fn device_kind(self) -> DeviceKind {
        match self {
            OpKind::NicSend { .. } | OpKind::NicRecv { .. } => DeviceKind::Nic,
            OpKind::SsdRead { .. } | OpKind::SsdWrite { .. } => DeviceKind::Ssd,
            OpKind::AccelRun { .. } => DeviceKind::Accel,
        }
    }

    /// Bytes the operation moves through one client I/O buffer slot:
    /// the payload, frame or input size, or `blocks` whole SSD blocks.
    pub fn io_bytes(self) -> u64 {
        match self {
            OpKind::NicSend { bytes } | OpKind::NicRecv { bytes } | OpKind::AccelRun { bytes } => {
                u64::from(bytes)
            }
            OpKind::SsdRead { blocks } | OpKind::SsdWrite { blocks } => u64::from(blocks) * BLOCK,
        }
    }

    /// Stable label for reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::NicSend { .. } => "nic_send",
            OpKind::NicRecv { .. } => "nic_recv",
            OpKind::SsdRead { .. } => "ssd_read",
            OpKind::SsdWrite { .. } => "ssd_write",
            OpKind::AccelRun { .. } => "accel_run",
        }
    }
}

/// One tenant: an arrival process issuing a weighted mix of operations
/// from a set of hosts, judged against an SLO.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Tenant name (report/JSON key).
    pub name: String,
    /// How operations arrive.
    pub arrival: Arrival,
    /// Weighted operation mix; weights need not sum to 1.
    pub mix: Vec<(OpKind, f64)>,
    /// Hosts this tenant issues from (uniform pick per op).
    pub hosts: Vec<u16>,
    /// The tenant's latency SLO.
    pub slo: SloSpec,
}

/// What a [`FaultPlan`] takes down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// One MHD dies.
    Mhd(u16),
    /// A whole failure domain dies — every MHD in it at once (chassis
    /// power loss, shared firmware fault).
    Domain(u16),
}

/// A mid-run pool failure: the target dies `at` into the run and
/// software recovery ([`cxl_pool_core::pod::PodSim::recover_pool_failure`]
/// / [`cxl_pool_core::pod::PodSim::recover_domain_failure`]) rebuilds
/// channels on survivors `heal_after` later. Operations in the outage
/// window time out or fail, and their censored latencies degrade the
/// measured tail — exactly the availability cost §5 argues software
/// pooling must absorb.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// What fails.
    pub target: FaultTarget,
    /// Offset from run start at which the failure hits.
    pub at: Nanos,
    /// How long until software recovery rebuilds the channels.
    pub heal_after: Nanos,
}

impl FaultPlan {
    /// A single-MHD outage.
    pub fn mhd(mhd: u16, at: Nanos, heal_after: Nanos) -> FaultPlan {
        FaultPlan {
            target: FaultTarget::Mhd(mhd),
            at,
            heal_after,
        }
    }

    /// A whole-failure-domain outage.
    pub fn domain(domain: u16, at: Nanos, heal_after: Nanos) -> FaultPlan {
        FaultPlan {
            target: FaultTarget::Domain(domain),
            at,
            heal_after,
        }
    }
}

/// A full multi-tenant workload.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// The tenants, driven concurrently.
    pub tenants: Vec<TenantSpec>,
    /// Warmup window: operations run but are not measured.
    pub warmup: Nanos,
    /// Measurement window following warmup.
    pub measure: Nanos,
    /// Per-operation deadline; timed-out ops are censored at this.
    pub op_timeout: Nanos,
    /// Report per-host loads to the orchestrator (and run one balance
    /// pass) every so often; None disables the control-plane feedback.
    pub balance_every: Option<Nanos>,
    /// Optional injected pool failure.
    pub fault: Option<FaultPlan>,
    /// Optional tenant churn (see [`crate::lifecycle`]): lifecycle
    /// tenants that arrive, grow, shrink and depart mid-run. `None`
    /// keeps the run bit-identical to a pre-churn engine.
    pub churn: Option<ChurnSpec>,
}

impl WorkloadSpec {
    /// Total offered rate of all open-loop tenants, ops/s.
    pub fn offered_pps(&self) -> f64 {
        self.tenants
            .iter()
            .filter_map(|t| t.arrival.mean_rate_pps())
            .sum()
    }

    /// The same workload with every tenant's arrival scaled by
    /// `factor` (see [`Arrival::scaled`]).
    pub fn scaled(&self, factor: f64) -> WorkloadSpec {
        let mut s = self.clone();
        for t in &mut s.tenants {
            t.arrival = t.arrival.scaled(factor);
        }
        s
    }

    /// Validates the spec against a pod: every tenant needs at least
    /// one host and one positively-weighted op, every weight must be a
    /// finite nonnegative number, every op must move at least one byte
    /// and fit one I/O buffer slot ([`IO_SLOT`]), and every op's device
    /// kind must exist in `kinds`. Churn tenants are held to the same
    /// rules and must additionally be open-loop (their schedules are
    /// thinned by lifecycle phase, which a completion-driven process
    /// has none of). Returns the offending description.
    pub fn validate(&self, hosts: u16, kinds: &[DeviceKind]) -> Result<(), String> {
        if self.tenants.is_empty() {
            return Err("workload has no tenants".into());
        }
        if self.measure == Nanos::ZERO {
            return Err("measurement window is empty".into());
        }
        let churn_tenants = self
            .churn
            .iter()
            .flat_map(|c| c.tenants.iter().map(|ct| &ct.spec));
        for t in self.tenants.iter().chain(churn_tenants) {
            if t.hosts.is_empty() {
                return Err(format!("tenant {}: no hosts", t.name));
            }
            if let Some(&h) = t.hosts.iter().find(|&&h| h >= hosts) {
                return Err(format!("tenant {}: host {h} outside pod", t.name));
            }
            if let Some(&(op, w)) = t.mix.iter().find(|&&(_, w)| !(w.is_finite() && w >= 0.0)) {
                return Err(format!(
                    "tenant {}: {} has weight {w}; weights must be finite and nonnegative",
                    t.name,
                    op.label()
                ));
            }
            if t.mix.iter().all(|&(_, w)| w == 0.0) {
                return Err(format!("tenant {}: empty op mix", t.name));
            }
            for &(op, w) in &t.mix {
                if op.io_bytes() == 0 {
                    return Err(format!("tenant {}: {} moves no bytes", t.name, op.label()));
                }
                if op.io_bytes() > IO_SLOT {
                    return Err(format!(
                        "tenant {}: {} moves {} bytes, more than one {IO_SLOT}-byte I/O slot",
                        t.name,
                        op.label(),
                        op.io_bytes()
                    ));
                }
                if w > 0.0 && !kinds.contains(&op.device_kind()) {
                    return Err(format!(
                        "tenant {}: {} needs a {:?} but the pod has none",
                        t.name,
                        op.label(),
                        op.device_kind()
                    ));
                }
            }
        }
        if let Some(c) = &self.churn {
            if c.tenants.is_empty() {
                return Err("churn spec has no tenants".into());
            }
            for ct in &c.tenants {
                if !ct.spec.arrival.is_open_loop() {
                    return Err(format!("churn tenant {}: must be open-loop", ct.spec.name));
                }
                if ct.state_len == 0 {
                    return Err(format!("churn tenant {}: zero state_len", ct.spec.name));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant(
        name: &str,
        arrival: Arrival,
        mix: Vec<(OpKind, f64)>,
        hosts: Vec<u16>,
    ) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            arrival,
            mix,
            hosts,
            slo: SloSpec::p99(Nanos::from_micros(50)),
        }
    }

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            tenants: vec![
                tenant(
                    "web",
                    Arrival::Poisson { rate_pps: 1_000.0 },
                    vec![(OpKind::NicSend { bytes: 512 }, 1.0)],
                    vec![0, 1],
                ),
                tenant(
                    "batch",
                    Arrival::ClosedLoop {
                        concurrency: 2,
                        think: Nanos(0),
                    },
                    vec![(OpKind::SsdRead { blocks: 1 }, 1.0)],
                    vec![2],
                ),
            ],
            warmup: Nanos::from_micros(100),
            measure: Nanos::from_millis(1),
            op_timeout: Nanos::from_micros(200),
            balance_every: None,
            fault: None,
            churn: None,
        }
    }

    #[test]
    fn offered_counts_open_loop_only() {
        assert!((spec().offered_pps() - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_rescales_tenants() {
        let s = spec().scaled(3.0);
        assert!((s.offered_pps() - 3_000.0).abs() < 1e-9);
    }

    #[test]
    fn validate_accepts_matching_pod() {
        let kinds = [DeviceKind::Nic, DeviceKind::Ssd];
        assert!(spec().validate(4, &kinds).is_ok());
    }

    #[test]
    fn validate_rejects_missing_kind_and_bad_host() {
        let s = spec();
        let err = s.validate(4, &[DeviceKind::Nic]).unwrap_err();
        assert!(err.contains("ssd_read"), "{err}");
        let err = s
            .validate(2, &[DeviceKind::Nic, DeviceKind::Ssd])
            .unwrap_err();
        assert!(err.contains("host 2"), "{err}");
    }

    /// `spec()` with tenant `web`'s mix replaced by `mix`.
    fn with_web_mix(mix: Vec<(OpKind, f64)>) -> Result<(), String> {
        let mut s = spec();
        s.tenants[0].mix = mix;
        s.validate(4, &DeviceKind::ALL)
    }

    #[test]
    fn validate_rejects_ops_larger_than_an_io_slot() {
        let slot = IO_SLOT as u32;
        for op in [
            OpKind::NicSend { bytes: 70_000 },
            OpKind::NicRecv { bytes: slot + 1 },
            OpKind::AccelRun { bytes: slot + 1 },
            OpKind::SsdRead { blocks: 64 },
            OpKind::SsdWrite { blocks: 17 },
        ] {
            let err = with_web_mix(vec![(op, 1.0)]).unwrap_err();
            assert!(
                err.contains(op.label()) && err.contains("I/O slot"),
                "{err}"
            );
        }
        // Exactly one slot still fits.
        for op in [
            OpKind::NicSend { bytes: slot },
            OpKind::SsdRead { blocks: 16 },
        ] {
            assert_eq!(with_web_mix(vec![(op, 1.0)]), Ok(()));
        }
    }

    #[test]
    fn validate_rejects_zero_sized_ops() {
        for op in [
            OpKind::NicSend { bytes: 0 },
            OpKind::NicRecv { bytes: 0 },
            OpKind::AccelRun { bytes: 0 },
            OpKind::SsdRead { blocks: 0 },
            OpKind::SsdWrite { blocks: 0 },
        ] {
            // Zero-weighted too: the op is still part of the mix.
            for w in [1.0, 0.0] {
                let mix = vec![(OpKind::NicSend { bytes: 64 }, 1.0), (op, w)];
                let err = with_web_mix(mix).unwrap_err();
                assert!(
                    err.contains("tenant web")
                        && err.contains(op.label())
                        && err.contains("no bytes"),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn validate_rejects_non_finite_and_negative_weights() {
        let send = OpKind::NicSend { bytes: 64 };
        for w in [f64::NAN, f64::INFINITY, -0.5] {
            let err = with_web_mix(vec![(send, 1.0), (send, w)]).unwrap_err();
            assert!(err.contains("weight"), "{w}: {err}");
        }
        // A zero weight is allowed beside a positive one, not alone.
        assert_eq!(with_web_mix(vec![(send, 1.0), (send, 0.0)]), Ok(()));
        let err = with_web_mix(vec![(send, 0.0)]).unwrap_err();
        assert!(err.contains("empty op mix"), "{err}");
    }

    #[test]
    fn op_kinds_map_to_device_kinds() {
        assert_eq!(OpKind::NicRecv { bytes: 64 }.device_kind(), DeviceKind::Nic);
        assert_eq!(
            OpKind::AccelRun { bytes: 64 }.device_kind(),
            DeviceKind::Accel
        );
        assert_eq!(OpKind::SsdWrite { blocks: 2 }.label(), "ssd_write");
    }
}
