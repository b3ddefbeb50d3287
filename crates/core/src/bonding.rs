//! Device harvesting (§1, benefit 4): "During demand spikes, a host
//! can harvest all the PCIe devices in the pool to achieve higher
//! aggregated performance."
//!
//! [`BondedNic`] stripes a host's transmit stream round-robin across
//! every live NIC in the pod — its own plus every remote one — so a
//! single host can burst at the aggregate line rate of the rack.
//!
//! A bond forwards each frame's submit as soon as the payload stores
//! are issued, without waiting for them to land: the attach agent's
//! ring poll follows well behind, and the submit window keeps the
//! owner's CPU off the staging latency.

use cxl_fabric::HostId;
use pcie_sim::DeviceId;
use simkit::Nanos;

use crate::pod::{PodSim, Submitted};
use crate::vdev::{DeviceKind, PoolError};

/// A transmit bond over several pooled NICs.
pub struct BondedNic {
    /// The harvesting host.
    pub owner: HostId,
    devs: Vec<DeviceId>,
    next: usize,
}

/// Result of a bonded burst.
#[derive(Clone, Copy, Debug)]
pub struct BurstResult {
    /// Frames sent.
    pub frames: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Wire-exit time of the last frame.
    pub done: Nanos,
    /// When the burst was issued.
    pub issued: Nanos,
}

impl BurstResult {
    /// Aggregate goodput in Gbps.
    pub fn gbps(&self) -> f64 {
        let dt = (self.done - self.issued).as_nanos().max(1);
        self.bytes as f64 * 8.0 / dt as f64
    }
}

impl BondedNic {
    /// Bonds `owner` to every live NIC in the pod.
    pub fn harvest_all(pod: &PodSim, owner: HostId) -> Result<BondedNic, PoolError> {
        let devs: Vec<DeviceId> = pod
            .orch
            .devices_of(DeviceKind::Nic)
            .into_iter()
            .filter(|&d| pod.orch.device(d).map(|i| i.up).unwrap_or(false))
            .collect();
        if devs.is_empty() {
            return Err(PoolError::NoDevice(DeviceKind::Nic));
        }
        Ok(BondedNic {
            owner,
            devs,
            next: 0,
        })
    }

    /// Bonds an explicit device set.
    pub fn over(owner: HostId, devs: Vec<DeviceId>) -> BondedNic {
        assert!(!devs.is_empty(), "bond needs at least one NIC");
        BondedNic {
            owner,
            devs,
            next: 0,
        }
    }

    /// Number of NICs in the bond.
    pub fn width(&self) -> usize {
        self.devs.len()
    }

    /// Sends `frames` frames of `frame_len` bytes round-robin across
    /// the bond, keeping a submission window in flight (bounded by the
    /// control rings' capacity) and overlapping awaits with submits.
    pub fn burst(
        &mut self,
        pod: &mut PodSim,
        frames: u64,
        frame_len: u32,
        deadline: Nanos,
    ) -> Result<BurstResult, PoolError> {
        // Stay well below the per-ring slot count so credit returns
        // keep up (each submit is 1 fragment on one peer's ring).
        let window = 16 * self.devs.len().max(1);
        let issued = pod.time();
        let payload = vec![0xB0u8; frame_len as usize];
        let mut inflight: std::collections::VecDeque<Submitted> = Default::default();
        let mut done = issued;
        for _ in 0..frames {
            let dev = self.devs[self.next % self.devs.len()];
            self.next += 1;
            if inflight.len() >= window {
                let sub = inflight.pop_front().expect("window nonempty");
                let r = pod.await_submitted(self.owner, sub, deadline)?;
                done = done.max(r.at);
            }
            // A blocked ring means credits are in flight: drain one
            // more completion and retry once.
            let sub = match pod.vnic_submit(self.owner, dev, &payload, false) {
                Ok(s) => s,
                Err(PoolError::ChannelBlocked) => {
                    while let Some(prev) = inflight.pop_front() {
                        let r = pod.await_submitted(self.owner, prev, deadline)?;
                        done = done.max(r.at);
                    }
                    pod.vnic_submit(self.owner, dev, &payload, false)?
                }
                Err(e) => return Err(e),
            };
            inflight.push_back(sub);
        }
        for sub in inflight {
            let r = pod.await_submitted(self.owner, sub, deadline)?;
            done = done.max(r.at);
        }
        Ok(BurstResult {
            frames,
            bytes: frames * frame_len as u64,
            done,
            issued,
        })
    }

    /// Submits a single frame on the next NIC in the bond without
    /// awaiting it (callers interleaving several bonds' traffic pair
    /// this with [`PodSim::await_submitted`]).
    pub fn submit_one(&mut self, pod: &mut PodSim, payload: &[u8]) -> Result<Submitted, PoolError> {
        let dev = self.devs[self.next % self.devs.len()];
        self.next += 1;
        pod.vnic_submit(self.owner, dev, payload, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pod::PodParams;

    fn deadline(pod: &PodSim) -> Nanos {
        pod.time() + Nanos::from_millis(200)
    }

    #[test]
    fn harvest_finds_all_live_nics() {
        let pod = PodSim::new(PodParams::new(8, 4));
        let bond = BondedNic::harvest_all(&pod, HostId(7)).expect("bond");
        assert_eq!(bond.width(), 4);
    }

    #[test]
    fn bonded_burst_uses_every_nic() {
        let mut pod = PodSim::new(PodParams::new(8, 4));
        let mut bond = BondedNic::harvest_all(&pod, HostId(7)).expect("bond");
        let d = deadline(&pod);
        let r = bond.burst(&mut pod, 8, 1500, d).expect("burst");
        assert_eq!(r.frames, 8);
        for dev in pod.orch.devices_of(DeviceKind::Nic) {
            let frames = pod.take_frames(dev);
            assert_eq!(frames.len(), 2, "NIC {dev:?} should carry 2 of 8 frames");
        }
    }

    #[test]
    fn harvesting_scales_aggregate_bandwidth() {
        // Burst enough bytes that line-rate serialization dominates:
        // 4 NICs should finish the burst much faster than 1.
        let frames = 256u64;
        let mut results = Vec::new();
        for nics in [1u16, 4] {
            let mut params = PodParams::new(8, nics);
            params.io_slots = 64;
            let mut pod = PodSim::new(params);
            let mut bond = BondedNic::harvest_all(&pod, HostId(7)).expect("bond");
            let d = deadline(&pod);
            let r = bond.burst(&mut pod, frames, 9000, d).expect("burst");
            results.push(r.gbps());
        }
        assert!(
            results[1] > results[0] * 2.0,
            "4-NIC harvest {} Gbps vs 1-NIC {} Gbps",
            results[1],
            results[0]
        );
    }

    #[test]
    fn failed_local_nic_is_reported_upstream() {
        let mut pod = PodSim::new(PodParams::new(2, 1));
        let owner = HostId(0);
        let dev = pod.orch.devices_of(DeviceKind::Nic)[0];
        assert_eq!(pod.attach_of(dev), Some(owner));
        let mut bond = BondedNic::over(owner, vec![dev]);
        pod.fail_device(dev);
        let before = pod.agents[0].stats().failures_seen;
        let err = bond.submit_one(&mut pod, &[7u8; 64]).unwrap_err();
        assert_eq!(err, PoolError::Device(pcie_sim::DeviceError::Failed(dev)));
        assert_eq!(pod.agents[0].stats().failures_seen, before + 1);
        // The queued notice reaches the orchestrator like `vnic_send`'s.
        pod.run_control(Nanos::from_millis(1));
        assert!(!pod.orch.device(dev).expect("registered").up);
    }

    #[test]
    fn empty_pool_errors() {
        let pod = PodSim::new(PodParams {
            nic_hosts: vec![],
            ..PodParams::new(2, 0)
        });
        assert!(matches!(
            BondedNic::harvest_all(&pod, HostId(0)),
            Err(PoolError::NoDevice(DeviceKind::Nic))
        ));
    }
}
