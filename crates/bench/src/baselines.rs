//! Baseline comparisons the paper's §1 argument rests on:
//!
//! - storage access paths: host-local SSD vs CXL-pooled SSD vs
//!   RDMA-disaggregated SSD ("RDMA latency is too high"),
//! - the rack-level cost comparison: PCIe switch vs CXL pod
//!   ("the total cost … easily reaches $80,000" vs "$600 per host").

use cxl_fabric::HostId;
use cxl_pool_core::agent::Device;
use cxl_pool_core::pod::{PodParams, PodSim};
use net_sim::rdma::{RdmaParams, RdmaSsd};
use net_sim::wire::WireParams;
use pcie_sim::ssd::BLOCK;
use pcie_sim::{BufRef, DeviceId, Ssd, SsdConfig};
use simkit::stats::Histogram;
use simkit::table::{fmt_f64, Table};
use simkit::Nanos;
use stranding::cost::{tco_rows, CostInputs};

use crate::Scale;

fn ssd_config(fast: bool) -> SsdConfig {
    if fast {
        // Low-latency media (Optane/SLC class): the regime where the
        // access path dominates and RDMA's overhead stings most.
        SsdConfig {
            read_latency: Nanos(10_000),
            write_latency: Nanos(10_000),
            ..SsdConfig::default()
        }
    } else {
        SsdConfig::default()
    }
}

/// Storage access-path latency: 4 KiB reads over the three options.
pub fn run_storage_paths(scale: Scale) -> Table {
    let iters = scale.pick(40u32, 400);
    let mut t = Table::new(&["media", "path", "p50_us", "vs_local"]);
    for fast in [false, true] {
        let media = if fast {
            "low-latency"
        } else {
            "datacenter TLC"
        };
        let mut results: Vec<(String, f64)> = Vec::new();

        // Local: drive on the host, buffer in local DRAM.
        {
            let mut pod = PodSim::new(PodParams::new(2, 1));
            let mut ssd = Ssd::new(DeviceId(90), HostId(0), ssd_config(fast));
            let mut h = Histogram::new();
            let mut now = Nanos(0);
            for i in 0..iters {
                let done = ssd
                    .read(
                        &mut pod.fabric,
                        now,
                        (i % 64) as u64,
                        1,
                        BufRef::Local(0x9000),
                    )
                    .expect("local read");
                h.record((done - now).as_nanos());
                now = done + Nanos(5_000);
            }
            results.push(("host-local".into(), h.quantile(0.5) as f64));
        }

        // CXL-pooled: drive on another host, submission forwarded over
        // the shared-memory channel, data lands in pool memory.
        {
            let mut params = PodParams::new(4, 1);
            params.ssd_hosts = vec![0];
            let mut pod = PodSim::new(params);
            // Swap in the chosen media.
            let dev = pod.orch.devices_of(cxl_pool_core::vdev::DeviceKind::Ssd)[0];
            pod.agents[0]
                .devices
                .insert(dev, Device::Ssd(Ssd::new(dev, HostId(0), ssd_config(fast))));
            let mut h = Histogram::new();
            for i in 0..iters {
                let t0 = pod.agents[2].clock();
                let d = pod.time() + Nanos::from_millis(50);
                let (_, r) = pod
                    .vssd_read(HostId(2), (i % 64) as u64, 1, d)
                    .expect("pooled read");
                h.record((r.at.saturating_sub(t0)).as_nanos());
                pod.agents[2].advance_clock(r.at);
            }
            results.push(("CXL-pooled".into(), h.quantile(0.5) as f64));
        }

        // RDMA-disaggregated (NVMe-oF style).
        {
            let mut pod = PodSim::new(PodParams::new(2, 1));
            let ssd = Ssd::new(DeviceId(91), HostId(1), ssd_config(fast));
            let mut rdma =
                RdmaSsd::new(ssd, HostId(1), WireParams::default(), RdmaParams::default());
            let mut h = Histogram::new();
            let mut now = Nanos(0);
            let mut out = vec![0u8; BLOCK as usize];
            for i in 0..iters {
                let done = rdma
                    .read(&mut pod.fabric, now, (i % 64) as u64, 1, &mut out)
                    .expect("rdma read");
                h.record((done - now).as_nanos());
                now = done + Nanos(5_000);
            }
            results.push(("RDMA (NVMe-oF)".into(), h.quantile(0.5) as f64));
        }

        let local = results[0].1;
        for (path, p50) in results {
            t.row(&[
                media,
                &path,
                &fmt_f64(p50 / 1e3),
                &format!("{:.2}x", p50 / local),
            ]);
        }
    }
    t
}

/// The rack-level TCO comparison, fed by the paper's N=8 stranding
/// reductions.
pub fn run_tco() -> Table {
    let rows = tco_rows(&CostInputs::default(), 0.54, 0.19, 0.29, 0.10);
    let mut t = Table::new(&["option", "enablement_usd", "device_savings_usd", "net_usd"]);
    for r in rows {
        t.row(&[
            &r.option,
            &fmt_f64(r.enablement),
            &fmt_f64(r.device_savings),
            &fmt_f64(r.net),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_paths_order_correctly() {
        let t = run_storage_paths(Scale::Quick);
        assert_eq!(t.len(), 6);
        let csv = t.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        // For each media: local <= pooled < rdma.
        for base in [0, 3] {
            let local: f64 = rows[base].split(',').nth(2).unwrap().parse().unwrap();
            let pooled: f64 = rows[base + 1].split(',').nth(2).unwrap().parse().unwrap();
            let rdma: f64 = rows[base + 2].split(',').nth(2).unwrap().parse().unwrap();
            assert!(local <= pooled, "local {local} vs pooled {pooled}");
            assert!(pooled < rdma, "pooled {pooled} vs rdma {rdma}");
        }
    }

    #[test]
    fn tco_table_has_four_options() {
        let t = run_tco();
        assert_eq!(t.len(), 4);
        assert!(t.render().contains("PCIe switch"));
    }
}
