//! Layer probes: fixed-iteration loops that time one public call of a
//! layer in isolation, outside the timed workload runs. Each probe runs
//! [`ROUNDS`] rounds and reports the median round's ns per call.

use std::hint::black_box;
use std::time::Instant;

use cxl_fabric::{Fabric, HostId, PodConfig};
use cxl_pool_core::pod::PodSim;
use cxl_pool_core::vdev::DeviceKind;
use shmem::ring::{PollOutcome, RingBuf, SendOutcome};
use simkit::Nanos;

use crate::reduce::median;

/// Rounds per probe.
pub const ROUNDS: usize = 7;

/// One probe's result.
#[derive(Clone, Debug)]
pub struct Probe {
    /// Metric name the probe feeds.
    pub metric: &'static str,
    /// Median over rounds of host ns per call (per simulated µs for
    /// the idle-pod probe).
    pub median: f64,
    /// Calls per round.
    pub iters: u64,
}

/// Times `ROUNDS` rounds of `iters` calls of `step` and returns the
/// median ns per call. `per` scales the divisor (1 for per-call probes).
fn rounds(iters: u64, per: f64, mut step: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for _ in 0..iters {
            step();
        }
        samples.push(t.elapsed().as_nanos() as f64 / (iters as f64 * per));
    }
    median(&samples).expect("ROUNDS > 0")
}

/// A two-host fabric with one shared 1 MiB segment, as the fabric
/// microbenches use.
fn small_fabric() -> (Fabric, u64) {
    let mut f = Fabric::new(PodConfig::new(2, 2, 2));
    let seg = f
        .alloc_shared(&[HostId(0), HostId(1)], 1 << 20)
        .expect("1 MiB fits an empty pool");
    (f, seg.base())
}

/// `cxl_fabric.load_miss_ns`: invalidate one line, then load it, so
/// every load is a pool fetch.
fn load_miss() -> Probe {
    let (mut f, base) = small_fabric();
    let mut buf = [0u8; 64];
    let mut t = Nanos::ZERO;
    let iters = 20_000;
    let median = rounds(iters, 1.0, || {
        let ti = f.invalidate(t, HostId(0), base, 64);
        t = f
            .load(ti, HostId(0), base, &mut buf)
            .expect("in-segment load");
        black_box(&buf);
    });
    Probe {
        metric: "cxl_fabric.load_miss_ns",
        median,
        iters,
    }
}

/// `cxl_fabric.nt_store_ns`: one 64 B non-temporal store.
fn nt_store() -> Probe {
    let (mut f, base) = small_fabric();
    let data = [7u8; 64];
    let mut t = Nanos::ZERO;
    let iters = 20_000;
    let median = rounds(iters, 1.0, || {
        t = f
            .nt_store(t, HostId(0), base, &data)
            .expect("in-segment store");
    });
    Probe {
        metric: "cxl_fabric.nt_store_ns",
        median,
        iters,
    }
}

/// `cxl_fabric.dma_4k_ns`: one 4 KiB device DMA write into the pool.
fn dma_4k() -> Probe {
    let (mut f, base) = small_fabric();
    let data = vec![0xA5u8; 4096];
    let mut t = Nanos::ZERO;
    let iters = 5_000;
    let median = rounds(iters, 1.0, || {
        t = f
            .dma_write(t, HostId(0), base, &data)
            .expect("in-segment DMA");
    });
    Probe {
        metric: "cxl_fabric.dma_4k_ns",
        median,
        iters,
    }
}

/// `cxl_fabric.alloc_free_ns`: allocate a 64 KiB two-host segment and
/// free it.
fn alloc_free() -> Probe {
    let (mut f, _) = small_fabric();
    let iters = 5_000;
    let median = rounds(iters, 1.0, || {
        let seg = f
            .alloc_shared(&[HostId(0), HostId(1)], 64 << 10)
            .expect("64 KiB fits");
        f.free_segment(seg.id()).expect("just allocated");
    });
    Probe {
        metric: "cxl_fabric.alloc_free_ns",
        median,
        iters,
    }
}

/// `shmem.ring_roundtrip_ns`: send one message and poll it out.
fn ring_roundtrip() -> Probe {
    let (mut f, _) = small_fabric();
    let ring = RingBuf::allocate(&mut f, HostId(0), HostId(1), 64).expect("ring fits");
    let (mut tx, mut rx) = ring.split();
    let mut t = Nanos::ZERO;
    let iters = 20_000;
    let median = rounds(iters, 1.0, || {
        let vis = match tx.send(&mut f, t, b"bench-payload").expect("send") {
            SendOutcome::Sent(v) | SendOutcome::Full(v) => v,
        };
        t = match rx.poll(&mut f, vis).expect("poll") {
            PollOutcome::Msg { at, .. } | PollOutcome::Empty(at) => at,
        };
    });
    Probe {
        metric: "shmem.ring_roundtrip_ns",
        median,
        iters,
    }
}

/// `shmem.empty_poll_ns`: poll a ring nobody sends on.
fn empty_poll() -> Probe {
    let (mut f, _) = small_fabric();
    let ring = RingBuf::allocate(&mut f, HostId(0), HostId(1), 64).expect("ring fits");
    let (_tx, mut rx) = ring.split();
    let mut t = Nanos::ZERO;
    let iters = 20_000;
    let median = rounds(iters, 1.0, || {
        t = match rx.poll(&mut f, t).expect("poll") {
            PollOutcome::Msg { at, .. } | PollOutcome::Empty(at) => at,
        };
    });
    Probe {
        metric: "shmem.empty_poll_ns",
        median,
        iters,
    }
}

/// `core.idle_ns_per_sim_us`: `PodSim::run_control` on an idle pod of
/// the workload's shape, in host ns per simulated µs.
fn idle_pod(pod: &mut PodSim) -> Probe {
    const SPAN_US: u64 = 200;
    let median = rounds(1, SPAN_US as f64, || {
        pod.run_control(Nanos::from_micros(SPAN_US));
    });
    Probe {
        metric: "core.idle_ns_per_sim_us",
        median,
        iters: 1,
    }
}

/// `core.orch_choose_ns`: the orchestrator's placement choice for a
/// device-less host (it changes no state).
fn orch_choose(pod: &mut PodSim) -> Probe {
    let host = HostId(pod.agents.len() as u16 - 1);
    let iters = 50_000;
    let median = rounds(iters, 1.0, || {
        black_box(pod.orch.choose(host, DeviceKind::Nic)).expect("pod has NICs");
    });
    Probe {
        metric: "core.orch_choose_ns",
        median,
        iters,
    }
}

/// A probe; its argument is a fresh pod of the workload's shape, which
/// only the two `core` probes use.
pub type ProbeFn = fn(&mut PodSim) -> Probe;

/// Every probe with its span name, in a fixed order.
pub fn all() -> [(&'static str, ProbeFn); 8] {
    [
        ("probe.load_miss", |_| load_miss()),
        ("probe.nt_store", |_| nt_store()),
        ("probe.dma_4k", |_| dma_4k()),
        ("probe.alloc_free", |_| alloc_free()),
        ("probe.ring_roundtrip", |_| ring_roundtrip()),
        ("probe.empty_poll", |_| empty_poll()),
        ("probe.idle_pod", idle_pod),
        ("probe.orch_choose", orch_choose),
    ]
}
