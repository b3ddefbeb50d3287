//! Failure-injection integration: device, path, and pool-device
//! failures across the whole stack.

use cxl_fabric::{DomainId, HostId, MhdId};
use cxl_pcie_pool::pool::pod::{PodParams, PodSim};
use cxl_pcie_pool::pool::vdev::DeviceKind;
use cxl_pcie_pool::pool::ReplicaSet;
use simkit::Nanos;

fn deadline(pod: &PodSim) -> Nanos {
    pod.time() + Nanos::from_millis(50)
}

/// Drives send-retry until success, returning (attempts, recovery time).
fn retry_until_ok(pod: &mut PodSim, host: HostId) -> (u32, Nanos) {
    let t0 = pod.time();
    for attempt in 1..=50 {
        let d = deadline(pod);
        match pod.vnic_send(host, &[9u8; 100], d) {
            Ok(r) => return (attempt, r.at.saturating_sub(t0)),
            Err(_) => pod.run_control(Nanos::from_micros(200)),
        }
    }
    panic!("failover never completed");
}

#[test]
fn single_nic_failure_recovers_all_users() {
    let mut pod = PodSim::new(PodParams::new(6, 2));
    // Hosts 2..5 share the two NICs; fail one NIC and every affected
    // host must recover.
    let victim = pod.binding(HostId(2), DeviceKind::Nic).expect("bound");
    let affected: Vec<HostId> = (0..6u16)
        .map(HostId)
        .filter(|&h| pod.binding(h, DeviceKind::Nic) == Some(victim))
        .collect();
    assert!(!affected.is_empty());
    pod.fail_device(victim);
    for h in affected {
        let (attempts, recovery) = retry_until_ok(&mut pod, h);
        assert!(attempts <= 10, "host {h:?} needed {attempts} attempts");
        assert!(
            recovery < Nanos::from_millis(20),
            "host {h:?} recovery {recovery}"
        );
        assert_ne!(pod.binding(h, DeviceKind::Nic), Some(victim));
    }
}

#[test]
fn cascading_failures_until_one_nic_remains() {
    let mut pod = PodSim::new(PodParams::new(4, 3));
    let host = HostId(3);
    let all = pod.orch.devices_of(DeviceKind::Nic);
    // Kill NICs one by one, leaving one alive; host 3 must keep
    // recovering onto a survivor.
    for victim in &all[..all.len() - 1] {
        pod.fail_device(*victim);
        pod.orch.on_failure(&mut pod.fabric, *victim);
        pod.run_control(Nanos::from_millis(1));
        let (_, _) = retry_until_ok(&mut pod, host);
        let bound = pod.binding(host, DeviceKind::Nic).expect("still bound");
        assert!(
            pod.orch.device(bound).expect("registered").up,
            "host bound to a dead NIC"
        );
    }
}

#[test]
fn repaired_nic_rejoins_the_pool() {
    let mut pod = PodSim::new(PodParams::new(4, 2));
    let victim = pod.binding(HostId(3), DeviceKind::Nic).expect("bound");
    pod.fail_device(victim);
    let _ = retry_until_ok(&mut pod, HostId(3));
    // Repair: the device is selectable again.
    pod.repair_device(victim);
    let choice = pod
        .orch
        .choose(HostId(3), DeviceKind::Nic)
        .expect("choose succeeds");
    // Freshly repaired device has load 0: the least-utilized pick.
    assert_eq!(choice, victim);
}

#[test]
fn mhd_failure_with_lambda_redundancy_keeps_pod_connected() {
    let mut pod = PodSim::new(PodParams::new(4, 2));
    assert!(pod.fabric.topology().fully_connected());
    pod.fabric.topology_mut().fail_mhd(MhdId(0));
    // λ=2: every host still reaches MHD 1.
    assert!(pod.fabric.topology().fully_connected());
    for h in 0..4 {
        assert_eq!(pod.fabric.topology().effective_lambda(HostId(h)), 1);
    }
    pod.fabric.topology_mut().restore_mhd(MhdId(0));
    assert_eq!(pod.fabric.topology().effective_lambda(HostId(0)), 2);
}

/// A whole chassis (failure domain = one multi-headed device enclosure)
/// loses power: the orchestrator's domain-aware placement must leave a
/// surviving copy, degraded reads must serve from it, and rebuild must
/// re-materialize the lost copy on the spare domain — end to end
/// through `PodSim`, not just the fabric.
#[test]
fn whole_domain_outage_rebuilds_replicas_on_spare_domain() {
    // Six MHDs in three 2-MHD chassis; λ=6 gives every host links into
    // all three domains.
    let mut params = PodParams::new(6, 2);
    params.mhds = 6;
    params.domains = 3;
    params.lambda = 6;
    let mut pod = PodSim::new(params);
    let tenant = HostId(3);

    // Two copies, striped across the MHDs within each chosen chassis.
    let mut set = pod
        .orch
        .place_replicas(&mut pod.fabric, tenant, 8192, 2)
        .expect("placement succeeds");
    let used = set.domains();
    assert_eq!(used.len(), 2);
    assert_ne!(used[0], used[1], "copies must not share a chassis");

    let data: Vec<u8> = (0..256u32).map(|i| i as u8).collect();
    let now = pod.time();
    let t = set
        .write(&mut pod.fabric, now, tenant, 1024, &data)
        .expect("replicated write");

    // Chassis holding the first copy dies wholesale; the pod rebuilds
    // control/I-O channels on survivors as part of fail_domain.
    let dead = used[0];
    pod.fail_domain(dead);
    assert!(!pod.fabric.topology().domain_is_up(dead));

    // Degraded read serves from the surviving chassis.
    let mut buf = vec![0u8; data.len()];
    let t = set
        .read(&mut pod.fabric, t, tenant, 1024, &mut buf)
        .expect("degraded read");
    assert_eq!(buf, data, "survivor copy must carry the data");

    // Rebuild re-materializes the lost copy on the spare chassis.
    let target = set
        .rebuild(&mut pod.fabric, t, tenant, dead)
        .expect("rebuild runs")
        .expect("a spare domain exists");
    assert!(!used.contains(&target), "rebuilt copy must use the spare");
    assert!(!set.domains().contains(&dead));
    assert_eq!(set.domains().len(), 2);

    // The re-materialized copy is a real copy: kill the old survivor
    // too and read from the rebuilt one alone.
    pod.fail_domain(used[1]);
    let mut buf2 = vec![0u8; data.len()];
    set.read(
        &mut pod.fabric,
        t + Nanos::from_micros(10),
        tenant,
        1024,
        &mut buf2,
    )
    .expect("read from rebuilt copy");
    assert_eq!(buf2, data, "rebuild must have copied the bytes");
}

/// With every domain holding a copy there is no spare: rebuild reports
/// `None` and the set keeps serving degraded until the chassis returns.
#[test]
fn domain_outage_without_spare_serves_degraded() {
    let mut params = PodParams::new(6, 2);
    params.mhds = 4;
    params.domains = 2;
    params.lambda = 4;
    let mut pod = PodSim::new(params);
    let tenant = HostId(2);
    let mut set = ReplicaSet::create(
        &mut pod.fabric,
        &[tenant],
        4096,
        &[DomainId(0), DomainId(1)],
    )
    .expect("create");

    let data = vec![0xC3u8; 128];
    let now = pod.time();
    let t = set
        .write(&mut pod.fabric, now, tenant, 0, &data)
        .expect("write");
    pod.fail_domain(DomainId(0));

    let mut buf = vec![0u8; data.len()];
    let t = set
        .read(&mut pod.fabric, t, tenant, 0, &mut buf)
        .expect("degraded read");
    assert_eq!(buf, data);

    // No third chassis to rebuild into: degraded, not dead.
    let target = set
        .rebuild(&mut pod.fabric, t, tenant, DomainId(0))
        .expect("rebuild runs");
    assert_eq!(target, None, "two-domain pod has no spare");
    assert_eq!(set.domains(), vec![DomainId(1)]);

    // Power restored: the chassis rejoins and new placements may use it.
    pod.restore_domain(DomainId(0));
    assert!(pod.fabric.topology().domain_is_up(DomainId(0)));
}

#[test]
fn ssd_failover_moves_to_surviving_drive() {
    let mut params = PodParams::new(4, 1);
    params.ssd_hosts = vec![0, 1];
    let mut pod = PodSim::new(params);
    let host = HostId(3);
    let victim = pod.binding(host, DeviceKind::Ssd).expect("bound");
    // Warm I/O.
    let d = deadline(&pod);
    pod.vssd_read(host, 0, 1, d).expect("warm read");
    pod.fail_device(victim);
    // Retry until rebinding succeeds.
    let mut ok = false;
    for _ in 0..50 {
        let d = deadline(&pod);
        match pod.vssd_read(host, 0, 1, d) {
            Ok(_) => {
                ok = true;
                break;
            }
            Err(_) => pod.run_control(Nanos::from_micros(200)),
        }
    }
    assert!(ok, "SSD failover never completed");
    let newdev = pod.binding(host, DeviceKind::Ssd).expect("rebound");
    assert_ne!(newdev, victim);
}

#[test]
fn accelerator_failover_preserves_job_semantics() {
    let mut params = PodParams::new(4, 1);
    params.accel_hosts = vec![0, 1];
    let mut pod = PodSim::new(params);
    let host = HostId(2);
    let input: Vec<u8> = (0..256u32).map(|i| i as u8).collect();
    let d = deadline(&pod);
    pod.vaccel_run(host, &input, d).expect("warm job");
    let victim = pod.binding(host, DeviceKind::Accel).expect("bound");
    pod.fail_device(victim);
    let mut result = None;
    for _ in 0..50 {
        let d = deadline(&pod);
        match pod.vaccel_run(host, &input, d) {
            Ok(r) => {
                result = Some(r);
                break;
            }
            Err(_) => pod.run_control(Nanos::from_micros(200)),
        }
    }
    let (outbuf, r) = result.expect("accelerator failover completed");
    // The replacement card computes the same transform.
    let (out, _) = pod
        .read_rx_payload(host, outbuf, input.len(), r.at)
        .expect("read");
    let expect: Vec<u8> = input.iter().map(|b| b ^ 0xA5).collect();
    assert_eq!(out, expect, "failover changed the job's semantics");
    assert_ne!(pod.binding(host, DeviceKind::Accel), Some(victim));
}

#[test]
fn heartbeats_survive_device_failures() {
    use shmem::mailbox::HeartbeatTable;
    let mut pod = PodSim::new(PodParams::new(4, 2));
    let members: Vec<HostId> = (0..4).map(HostId).collect();
    let table = HeartbeatTable::allocate(&mut pod.fabric, &members, 4).expect("alloc");
    // Device failures do not affect the memory-pool control plane.
    let dev = pod.binding(HostId(3), DeviceKind::Nic).expect("bound");
    pod.fail_device(dev);
    let mut t = pod.time();
    for beat in 1..=5u64 {
        t = table
            .beat(&mut pod.fabric, t, HostId(3), beat, 50)
            .expect("beat");
    }
    let (beat, load, _, _) = table
        .read(&mut pod.fabric, t, HostId(0), HostId(3))
        .expect("read");
    assert_eq!(beat, 5);
    assert_eq!(load, 50);
}
