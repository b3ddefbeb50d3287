//! A day in the pod: mixed NIC/SSD/accelerator traffic, one injected
//! failure, and the operator's telemetry report at the end.
//!
//! ```sh
//! cargo run --release --example pod_report
//! ```

use cxl_fabric::HostId;
use cxl_pcie_pool::pool::pod::{PodParams, PodSim};
use cxl_pcie_pool::pool::telemetry;
use cxl_pcie_pool::pool::vdev::DeviceKind;
use cxl_pcie_pool::simkit::Nanos;

fn main() {
    let mut params = PodParams::new(6, 2);
    params.ssd_hosts = vec![0, 1];
    params.accel_hosts = vec![2];
    let mut pod = PodSim::new(params);
    // Coherence auditing in vector-clock mode: the report's audit line
    // breaks violations down by kind, including happens-before
    // concurrent-conflict races.
    pod.enable_audit_mode(cxl_fabric::AuditMode::VectorClock);
    // Flight recorder: the report ends with per-stage latency
    // attribution (p50/p99/max per datapath stage and device kind).
    pod.enable_trace();
    // Metrics plane (CXL_METRICS=<interval>): sampled pod timelines
    // render as a sparkline table after the stage-latency block.
    if cxl_pcie_pool::simkit::metrics::MetricsConfig::env_enabled() {
        pod.enable_metrics();
    }

    // Mixed traffic from every host.
    for round in 0..5u32 {
        for h in 0..6u16 {
            let host = HostId(h);
            let d = pod.time() + Nanos::from_millis(50);
            pod.vnic_send(host, &vec![round as u8; 512], d)
                .expect("send");
            let d = pod.time() + Nanos::from_millis(50);
            pod.vssd_read(host, (round * 8) as u64, 1, d).expect("read");
            if h % 2 == 0 {
                let d = pod.time() + Nanos::from_millis(50);
                pod.vaccel_run(host, &[7u8; 1024], d).expect("offload");
            }
        }
    }

    // A NIC dies mid-day; traffic fails over.
    let victim = pod.binding(HostId(5), DeviceKind::Nic).expect("bound");
    pod.fail_device(victim);
    for _ in 0..10 {
        let d = pod.time() + Nanos::from_millis(20);
        if pod.vnic_send(HostId(5), b"after failover", d).is_ok() {
            break;
        }
        pod.run_control(Nanos::from_micros(300));
    }

    println!("{}", telemetry::snapshot(&pod));
    println!("simulated time elapsed: {}", pod.time());
}
