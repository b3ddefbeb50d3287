//! Cross-crate integration: the full datapath from a remote host's
//! stack through shared CXL buffers, the MMIO-forwarding channel, and
//! a physical device — with byte-level integrity checks.

use cxl_fabric::{FabricError, HostId};
use cxl_pcie_pool::pool::pod::{PodParams, PodSim};
use cxl_pcie_pool::pool::vdev::{DeviceKind, PoolError};
use simkit::Nanos;

fn deadline(pod: &PodSim) -> Nanos {
    pod.time() + Nanos::from_millis(50)
}

#[test]
fn remote_nic_tx_carries_exact_bytes_across_hosts() {
    let mut pod = PodSim::new(PodParams::new(6, 2));
    // Hosts 2..5 have no NIC: all remote.
    for h in 2..6u16 {
        let payload: Vec<u8> = (0..1400u32).map(|i| (i as u8) ^ (h as u8)).collect();
        let d = deadline(&pod);
        let r = pod.vnic_send(HostId(h), &payload, d).expect("send");
        assert!(!r.local);
        let dev = pod.binding(HostId(h), DeviceKind::Nic).expect("bound");
        let frames = pod.take_frames(dev);
        assert_eq!(frames.len(), 1, "host {h}");
        assert_eq!(frames[0].bytes, payload, "host {h} payload corrupted");
    }
}

#[test]
fn rx_path_delivers_to_remote_owner_with_coherence() {
    let mut pod = PodSim::new(PodParams::new(4, 1));
    let owner = HostId(2);
    let dev = pod.binding(owner, DeviceKind::Nic).expect("bound");
    // Post two RX buffers, deliver two frames, read both back.
    let b1 = pod.vnic_post_rx(owner, deadline(&pod)).expect("post 1");
    let b2 = pod.vnic_post_rx(owner, deadline(&pod)).expect("post 2");
    let f1: Vec<u8> = (0..800u32).map(|i| i as u8).collect();
    let f2: Vec<u8> = (0..1200u32).map(|i| (i * 7) as u8).collect();
    let (r1, t1) = pod
        .deliver_frame(dev, &f1)
        .expect("deliver")
        .expect("no drop");
    let (r2, t2) = pod
        .deliver_frame(dev, &f2)
        .expect("deliver")
        .expect("no drop");
    assert_eq!(r1.addr(), b1);
    assert_eq!(r2.addr(), b2);
    let (p1, _) = pod
        .read_rx_payload(owner, b1, f1.len(), t1)
        .expect("read 1");
    let (p2, _) = pod
        .read_rx_payload(owner, b2, f2.len(), t2)
        .expect("read 2");
    assert_eq!(p1, f1);
    assert_eq!(p2, f2);
}

#[test]
fn skipping_invalidate_reads_stale_rx_data() {
    // The coherence hazard the paper's software-coherence discipline
    // exists to prevent: a reader that cached the buffer before the
    // DMA and does not invalidate sees the old bytes.
    let mut pod = PodSim::new(PodParams::new(4, 1));
    let owner = HostId(2);
    let dev = pod.binding(owner, DeviceKind::Nic).expect("bound");
    let buf = pod.vnic_post_rx(owner, deadline(&pod)).expect("post");
    // Owner touches (and caches) the empty buffer first.
    let mut stale = vec![0u8; 64];
    let now = pod.agents[owner.0 as usize].clock();
    pod.fabric
        .load(now, owner, buf, &mut stale)
        .expect("prefetch");
    // A frame lands via DMA.
    let frame = vec![0xEEu8; 64];
    let (_, done) = pod
        .deliver_frame(dev, &frame)
        .expect("deliver")
        .expect("no drop");
    // Read WITHOUT invalidating: stale zeroes.
    let mut raw = vec![0u8; 64];
    pod.fabric.load(done, owner, buf, &mut raw).expect("load");
    assert_eq!(raw, vec![0u8; 64], "expected stale data without invalidate");
    // The proper path sees the frame.
    let (fresh, _) = pod.read_rx_payload(owner, buf, 64, done).expect("read");
    assert_eq!(fresh, frame);
}

#[test]
fn ssd_data_written_by_one_host_read_by_another() {
    let mut params = PodParams::new(4, 1);
    params.ssd_hosts = vec![0];
    let mut pod = PodSim::new(params);
    // Host 1 writes a block; host 3 reads it back through the same
    // pooled SSD.
    let block: Vec<u8> = (0..4096u32).map(|i| (i % 253) as u8).collect();
    let wbuf = pod.io_buf(HostId(1));
    let now = pod.agents[1].clock();
    let staged = pod
        .fabric
        .nt_store(now, HostId(1), wbuf, &block)
        .expect("stage");
    pod.agents[1].advance_clock(staged);
    let d = deadline(&pod);
    pod.vssd_write(HostId(1), 42, 1, wbuf, d).expect("write");
    let d = deadline(&pod);
    let (rbuf, r) = pod.vssd_read(HostId(3), 42, 1, d).expect("read");
    let (data, _) = pod
        .read_rx_payload(HostId(3), rbuf, 4096, r.at)
        .expect("load");
    assert_eq!(data, block, "cross-host SSD roundtrip corrupted");
}

#[test]
fn accelerator_jobs_from_many_hosts_interleave_correctly() {
    let mut params = PodParams::new(6, 1);
    params.accel_hosts = vec![0];
    let mut pod = PodSim::new(params);
    for h in 1..6u16 {
        let input: Vec<u8> = (0..512u32)
            .map(|i| (i as u8).wrapping_mul(h as u8))
            .collect();
        let d = deadline(&pod);
        let (outbuf, r) = pod.vaccel_run(HostId(h), &input, d).expect("run");
        let (out, _) = pod
            .read_rx_payload(HostId(h), outbuf, input.len(), r.at)
            .expect("read");
        let expect: Vec<u8> = input.iter().map(|b| b ^ 0xA5).collect();
        assert_eq!(out, expect, "host {h} got wrong accelerator output");
    }
}

#[test]
fn pool_exhaustion_surfaces_as_no_device() {
    let mut pod = PodSim::new(PodParams::new(4, 2));
    for dev in pod.orch.devices_of(DeviceKind::Nic) {
        pod.fail_device(dev);
        pod.orch.on_failure(&mut pod.fabric, dev);
    }
    pod.run_control(Nanos::from_millis(1));
    let d = deadline(&pod);
    let err = pod.vnic_send(HostId(3), &[0u8; 64], d).unwrap_err();
    assert!(
        matches!(
            err,
            PoolError::NotAssigned(_) | PoolError::RemoteFailed { .. } | PoolError::Device(_)
        ),
        "unexpected error: {err}"
    );
}

#[test]
fn nic_less_pod_reports_not_assigned() {
    let mut params = PodParams::new(2, 0);
    params.nic_hosts = vec![];
    params.ssd_hosts = vec![0];
    let mut pod = PodSim::new(params);
    let d = deadline(&pod);
    let err = pod.vnic_send(HostId(1), &[0u8; 16], d).unwrap_err();
    assert!(matches!(err, PoolError::NotAssigned(DeviceKind::Nic)));
    // The SSD kind still works.
    let d = deadline(&pod);
    pod.vssd_read(HostId(1), 0, 1, d)
        .expect("ssd path unaffected");
}

#[test]
fn rx_drop_when_no_buffer_is_posted_remote() {
    let mut pod = PodSim::new(PodParams::new(4, 1));
    let dev = pod.binding(HostId(2), DeviceKind::Nic).expect("bound");
    // Nothing posted: frames drop, nothing reaches any inbox.
    let r = pod.deliver_frame(dev, &[1u8; 128]).expect("deliver");
    assert!(r.is_none(), "frame should drop without a posted buffer");
    assert!(pod
        .vnic_poll_rx(HostId(2), pod.time() + Nanos::from_micros(500))
        .is_none());
}

#[test]
fn interleaved_rx_buffers_from_two_owners_route_correctly() {
    let mut pod = PodSim::new(PodParams::new(4, 1));
    let dev = pod.binding(HostId(1), DeviceKind::Nic).expect("bound");
    assert_eq!(pod.binding(HostId(2), DeviceKind::Nic), Some(dev));
    // Hosts 1 and 2 post alternating buffers on the same physical NIC.
    let b1 = pod.vnic_post_rx(HostId(1), deadline(&pod)).expect("post 1");
    let b2 = pod.vnic_post_rx(HostId(2), deadline(&pod)).expect("post 2");
    let f1 = vec![0x11u8; 200];
    let f2 = vec![0x22u8; 300];
    pod.deliver_frame(dev, &f1).expect("d1").expect("no drop");
    pod.deliver_frame(dev, &f2).expect("d2").expect("no drop");
    // Each owner sees exactly its own frame.
    let e1 = pod
        .vnic_poll_rx(HostId(1), pod.time() + Nanos::from_millis(20))
        .expect("owner 1 notified");
    assert_eq!(e1.buf, b1);
    assert_eq!(e1.len as usize, f1.len());
    let e2 = pod
        .vnic_poll_rx(HostId(2), pod.time() + Nanos::from_millis(20))
        .expect("owner 2 notified");
    assert_eq!(e2.buf, b2);
    assert_eq!(e2.len as usize, f2.len());
    let (p1, _) = pod
        .read_rx_payload(HostId(1), e1.buf, f1.len(), e1.at)
        .expect("read 1");
    let (p2, _) = pod
        .read_rx_payload(HostId(2), e2.buf, f2.len(), e2.at)
        .expect("read 2");
    assert_eq!(p1, f1);
    assert_eq!(p2, f2);
}

#[test]
fn fabric_access_control_blocks_strangers() {
    let mut pod = PodSim::new(PodParams::new(4, 2));
    // Carve a private segment for host 0; host 1 cannot touch it.
    let seg = pod.fabric.alloc_private(HostId(0), 4096).expect("alloc");
    let mut buf = [0u8; 16];
    let err = pod
        .fabric
        .load(Nanos(0), HostId(1), seg.base(), &mut buf)
        .unwrap_err();
    assert!(matches!(err, FabricError::AccessDenied { .. }));
}
