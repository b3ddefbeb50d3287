//! The per-host pooling agent.
//!
//! Every host runs one agent (§4.2). It owns the host's physical PCIe
//! devices, polls shared-memory channels for operations forwarded by
//! remote hosts and for orchestrator commands, executes those operations
//! locally (doorbell + device queues), and reports device failures and
//! load upstream. The agent is single-threaded and poll-mode, like the
//! datapath stacks it mediates for.
//!
//! Polling is event-driven in the simulator: an idle agent skips the
//! empty passes before the next published slot arithmetically (see
//! [`shmem::skip_idle_passes`]), so its clock lands on the busy-poll
//! grid while only the passes that deliver something touch the fabric.

use std::collections::{BTreeMap, HashMap};

use cxl_fabric::{Fabric, HostId};
use pcie_sim::accel::AccelConfig;
use pcie_sim::nic::TxFrame;
use pcie_sim::{Accelerator, BufRef, DeviceError, DeviceId, Nic, NicConfig, Ssd, SsdConfig};
use shmem::channel::{
    plan_idle_passes, skip_idle_passes, Channel, ChannelReceiver, ChannelSend, ChannelSender,
};
use shmem::ring::{IdleSkip, PollOutcome};
use simkit::trace::Track;
use simkit::Nanos;

use crate::proto::{DevReq, Msg};
use crate::vdev::DeviceKind;

/// Who is on the other end of one of the agent's channel links.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Peer {
    /// Another host's agent (datapath forwarding).
    Host(HostId),
    /// The pooling orchestrator (control plane).
    Orchestrator,
}

/// One physical PCIe device attached to an agent's host.
pub enum Device {
    /// A network interface.
    Nic(Nic),
    /// An NVMe SSD.
    Ssd(Ssd),
    /// An offload accelerator.
    Accel(Accelerator),
}

impl Device {
    /// A device of `kind` with its model's default configuration,
    /// attached to `host`.
    pub fn new(kind: DeviceKind, id: DeviceId, host: HostId) -> Device {
        match kind {
            DeviceKind::Nic => Device::Nic(Nic::new(id, host, NicConfig::default())),
            DeviceKind::Ssd => Device::Ssd(Ssd::new(id, host, SsdConfig::default())),
            DeviceKind::Accel => Device::Accel(Accelerator::new(id, host, AccelConfig::default())),
        }
    }

    /// The device's class.
    pub fn kind(&self) -> DeviceKind {
        match self {
            Device::Nic(_) => DeviceKind::Nic,
            Device::Ssd(_) => DeviceKind::Ssd,
            Device::Accel(_) => DeviceKind::Accel,
        }
    }

    /// Injects a failure.
    pub fn fail(&mut self) {
        match self {
            Device::Nic(d) => d.fail(),
            Device::Ssd(d) => d.fail(),
            Device::Accel(d) => d.fail(),
        }
    }

    /// Repairs the device.
    pub fn restore(&mut self) {
        match self {
            Device::Nic(d) => d.restore(),
            Device::Ssd(d) => d.restore(),
            Device::Accel(d) => d.restore(),
        }
    }

    /// `(ops, bytes)`: operations completed (TX + RX frames, SSD
    /// commands, accelerator jobs) and the bytes they moved.
    pub fn counters(&self) -> (u64, u64) {
        match self {
            Device::Nic(d) => {
                let s = d.stats();
                (s.tx_frames + s.rx_frames, s.tx_bytes + s.rx_bytes)
            }
            Device::Ssd(d) => {
                let s = d.stats();
                (s.reads + s.writes, s.bytes_read + s.bytes_written)
            }
            Device::Accel(d) => {
                let s = d.stats();
                (s.jobs, s.bytes)
            }
        }
    }
}

/// One bidirectional link (a pair of rings) to a peer.
pub struct Link {
    /// Sender toward the peer.
    pub tx: ChannelSender,
    /// Receiver from the peer.
    pub rx: ChannelReceiver,
}

impl Link {
    /// Splits a channel between hosts `a` and `b` into its two ends:
    /// the link `a` holds (sending a→b, receiving b→a) and `b`'s.
    pub fn pair(ch: Channel) -> (Link, Link) {
        let a = Link {
            tx: ch.ab.0,
            rx: ch.ba.1,
        };
        let b = Link {
            tx: ch.ba.0,
            rx: ch.ab.1,
        };
        (a, b)
    }
}

/// A completed forwarded operation, as recorded by the *requesting*
/// agent.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// 0 = success.
    pub status: u8,
    /// Device-reported completion time.
    pub at: Nanos,
}

/// What one [`Agent::execute`] call did to a device.
#[derive(Clone, Debug)]
pub struct DevCall {
    /// When the CPU was done issuing the request: after the MMIO
    /// doorbell write for a NIC, at the start for an SSD or accelerator.
    pub doorbell: Nanos,
    /// Device-reported completion time, or the device's error.
    pub done: Result<Nanos, DeviceError>,
}

/// Where to notify when a posted RX buffer fills.
#[derive(Clone, Copy, Debug)]
enum RxRoute {
    /// The buffer belongs to this host's own stack.
    Local,
    /// The buffer was posted over the link at this index.
    Link(usize),
}

/// An RX completion delivered to the buffer's owner.
#[derive(Clone, Copy, Debug)]
pub struct RxEvent {
    /// Pool address of the filled buffer.
    pub buf: u64,
    /// Frame length.
    pub len: u32,
    /// When the DMA write was visible.
    pub at: Nanos,
}

/// Counters for one agent.
#[derive(Clone, Copy, Debug, Default)]
pub struct AgentStats {
    /// Forwarded operations executed for remote hosts.
    pub served: u64,
    /// Operations that hit a failed local device.
    pub failures_seen: u64,
    /// Assignment updates applied.
    pub assigns: u64,
}

/// The per-host pooling agent.
pub struct Agent {
    /// The host this agent runs on.
    pub host: HostId,
    /// The physical devices attached to this host, every kind in one
    /// table.
    pub devices: BTreeMap<DeviceId, Device>,
    links: Vec<(Peer, Link)>,
    /// This host's current device bindings, per kind (set by
    /// orchestrator `Assign` messages).
    pub assigned: HashMap<DeviceKind, DeviceId>,
    /// Completions of operations *this host* forwarded, keyed by op id.
    pub completions: HashMap<u64, Completion>,
    /// Frames that left local NICs (consumed by tests / net glue).
    pub out_frames: Vec<(DeviceId, TxFrame)>,
    /// RX completions for buffers owned by this host's stack.
    pub rx_inbox: Vec<RxEvent>,
    /// Per-NIC FIFO of notification routes, aligned with the NIC's
    /// posted-buffer ring.
    rx_routes: HashMap<DeviceId, std::collections::VecDeque<RxRoute>>,
    /// Failure notices awaiting forwarding to the orchestrator.
    outbox_orch: Vec<Msg>,
    clock: Nanos,
    stats: AgentStats,
}

impl Agent {
    /// Creates an agent with no devices or links yet.
    pub fn new(host: HostId) -> Agent {
        Agent {
            host,
            devices: BTreeMap::new(),
            links: Vec::new(),
            assigned: HashMap::new(),
            completions: HashMap::new(),
            out_frames: Vec::new(),
            rx_inbox: Vec::new(),
            rx_routes: HashMap::new(),
            outbox_orch: Vec::new(),
            clock: Nanos::ZERO,
            stats: AgentStats::default(),
        }
    }

    /// Installs the link to `peer`: appended when it is new, swapped
    /// in place when it replaces one (pool-failure recovery: the old
    /// rings died with their MHD). Any in-flight protocol state on the
    /// old rings is abandoned; outstanding operations time out and get
    /// retried by their callers.
    pub fn replace_link(&mut self, peer: Peer, link: Link) {
        if let Some(slot) = self.links.iter_mut().find(|(p, _)| *p == peer) {
            slot.1 = link;
        } else {
            self.links.push((peer, link));
        }
    }

    /// The agent's local poll-loop clock.
    pub fn clock(&self) -> Nanos {
        self.clock
    }

    /// Moves the clock forward (e.g. after the host was busy elsewhere).
    pub fn advance_clock(&mut self, to: Nanos) {
        if to > self.clock {
            self.clock = to;
        }
    }

    /// Control-plane queue occupancy: orchestrator messages waiting to
    /// flush plus TX frames awaiting harness pickup. The metrics plane
    /// samples this as `host/queue_depth`.
    pub fn queue_depth(&self) -> usize {
        self.outbox_orch.len() + self.out_frames.len()
    }

    /// Aggregated ring statistics across every channel link this agent
    /// holds (mesh peers + orchestrator): total sends, backpressure
    /// events, cumulative stall nanoseconds and malformed fragments
    /// dropped on receive. The
    /// metrics plane samples these as `chan/*` series.
    pub fn channel_stats(&self) -> shmem::channel::ChannelStats {
        let mut total = shmem::channel::ChannelStats::default();
        for (_, link) in &self.links {
            let s = link.tx.stats();
            total.sends += s.sends;
            total.blocked_events += s.blocked_events;
            total.stall_ns += s.stall_ns;
            total.malformed += link.rx.stats().malformed;
        }
        total
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AgentStats {
        self.stats
    }

    /// Records that the next RX buffer posted on `dev` belongs to this
    /// host's own stack (local fast-path post).
    pub fn note_local_rx(&mut self, dev: DeviceId) {
        self.rx_routes
            .entry(dev)
            .or_default()
            .push_back(RxRoute::Local);
    }

    /// Delivers a frame arriving from the wire at local NIC `dev`:
    /// drives the device's receive path and routes the completion to
    /// the buffer's owner — this host's inbox, or an `RxDone` message
    /// over the channel the buffer was posted from.
    pub fn deliver_frame(
        &mut self,
        fabric: &mut Fabric,
        dev: DeviceId,
        bytes: &[u8],
    ) -> Result<Option<pcie_sim::RxCompletion>, DeviceError> {
        let now = self.clock;
        let Some(Device::Nic(nic)) = self.devices.get_mut(&dev) else {
            return Err(DeviceError::Failed(dev));
        };
        let completion = nic.receive(fabric, now, bytes)?;
        let Some(c) = completion else {
            return Ok(None); // Dropped: no buffer consumed, no route.
        };
        let route = self
            .rx_routes
            .get_mut(&dev)
            .and_then(|q| q.pop_front())
            .unwrap_or(RxRoute::Local);
        let event = RxEvent {
            buf: c.buf.addr(),
            len: c.len,
            at: c.done,
        };
        match route {
            RxRoute::Local => self.rx_inbox.push(event),
            RxRoute::Link(i) => {
                let msg = Msg::RxDone {
                    buf: event.buf,
                    len: event.len,
                    at: event.at.as_nanos(),
                };
                let clock = self.clock;
                let (_, link) = &mut self.links[i];
                // Best effort, like a real CQE ring: if the channel is
                // jammed the owner's poll will still find the payload
                // once it learns the buffer address out of band.
                let _ = link.tx.send(fabric, clock, &msg.encode());
            }
        }
        Ok(Some(c))
    }

    /// Queues a failure notice for the orchestrator (used by the local
    /// fast path, which sees device errors directly rather than through
    /// a forwarded completion).
    pub fn report_failure(&mut self, dev: DeviceId) {
        self.stats.failures_seen += 1;
        let at = self.clock.as_nanos();
        self.outbox_orch.push(Msg::DevFailed { dev, at });
    }

    /// Sends `msg` to `peer`, charging the agent's clock.
    pub fn send_to(
        &mut self,
        fabric: &mut Fabric,
        peer: Peer,
        msg: &Msg,
    ) -> Result<Nanos, crate::vdev::PoolError> {
        let clock = self.clock;
        if let Some(tr) = fabric.trace_mut() {
            tr.instant_note(
                Track::HostCpu(self.host.0),
                "proto/encode",
                clock,
                msg.kind_name(),
            );
        }
        let link = self
            .links
            .iter_mut()
            .find(|(p, _)| *p == peer)
            .map(|(_, l)| l)
            .ok_or(crate::vdev::PoolError::ChannelBlocked)?;
        match link.tx.send(fabric, clock, &msg.encode())? {
            ChannelSend::Sent(t) => {
                // An NT store is posted: the CPU moves on after issuing
                // it, long before the line lands in pool DRAM at `t`.
                self.clock += Nanos(30);
                Ok(t)
            }
            ChannelSend::Blocked { at, .. } => {
                self.clock = self.clock.max(at);
                Err(crate::vdev::PoolError::ChannelBlocked)
            }
        }
    }

    /// The agent's idle plan toward `until` ([`plan_idle_passes`] over
    /// its links): when its next pass through the fabric starts, what
    /// an empty pass costs and when the earliest published slot becomes
    /// visible. A pending orchestrator notice makes a pass due at once.
    pub fn idle_plan(&self, fabric: &Fabric, until: Nanos) -> IdleSkip {
        let rxs = self.links.iter().map(|(_, l)| &l.rx);
        let plan = plan_idle_passes(fabric, self.clock, until, rxs);
        if self.outbox_orch.is_empty() {
            plan
        } else {
            IdleSkip {
                resume: self.clock,
                last_sample: None,
                ..plan
            }
        }
    }

    /// Runs the agent's poll loop until its clock reaches `until`,
    /// executing any forwarded operations and orchestrator commands it
    /// receives. Failure notices for the orchestrator accumulate in an
    /// outbox and are flushed on each pass.
    ///
    /// While the outbox is empty the agent is idle until some ring's
    /// next slot becomes visible: the passes before the first one that
    /// would observe it are skipped with [`skip_idle_passes`], and only
    /// that pass runs through the timed fabric.
    pub fn pump(&mut self, fabric: &mut Fabric, until: Nanos) {
        while self.clock < until {
            if self.outbox_orch.is_empty() {
                let rxs = self.links.iter().map(|(_, l)| &l.rx);
                self.clock = skip_idle_passes(fabric, self.clock, until, rxs);
                if self.clock >= until {
                    break;
                }
            }
            self.poll_pass(fabric, until);
        }
    }

    /// One pass of the poll loop through the timed fabric: flush the
    /// orchestrator outbox, then poll every link once and dispatch what
    /// arrives.
    pub(crate) fn poll_pass(&mut self, fabric: &mut Fabric, until: Nanos) {
        let before = self.clock;
        // Flush pending orchestrator notices first.
        let pending: Vec<Msg> = std::mem::take(&mut self.outbox_orch);
        for msg in pending {
            // Best effort: if blocked, requeue for the next pass.
            if self.send_to(fabric, Peer::Orchestrator, &msg).is_err() {
                self.outbox_orch.push(msg);
            }
        }
        // One round-robin pass over all links.
        for i in 0..self.links.len() {
            let clock = self.clock;
            let outcome = {
                let (_, link) = &mut self.links[i];
                link.rx.poll(fabric, clock)
            };
            match outcome {
                Ok(PollOutcome::Empty(t)) => self.clock = t,
                Ok(PollOutcome::Msg { data, at }) => {
                    self.clock = at;
                    if let Ok(msg) = Msg::decode(&data) {
                        self.dispatch(fabric, i, msg);
                    }
                }
                Err(_) => {
                    // Fabric trouble on this link (e.g. MHD failure):
                    // skip it this round; time advances via the
                    // other links.
                }
            }
        }
        if self.links.is_empty() || self.clock == before {
            // No link consumed any time this pass — every ring is
            // on failed pool memory (λ-interleaved rings all touch
            // a failed MHD). The host busy-polls through the
            // outage; burn the quantum instead of spinning forever.
            self.clock = self.clock.max(until);
        }
    }

    /// Marks the arrival of a forwarded operation on this agent's CPU
    /// track (no-op when the recorder is off).
    fn trace_dispatch(&self, fabric: &mut Fabric) {
        let clock = self.clock;
        if let Some(tr) = fabric.trace_mut() {
            tr.instant(Track::HostCpu(self.host.0), "agent/dispatch", clock);
        }
    }

    /// Carries out one device request on local device `dev`, the
    /// request's buffers already staged in the pool. The device starts
    /// at `at`; a NIC request first pays its MMIO doorbell write. Both
    /// the owner's local fast path and a forwarded [`Msg::Submit`] come
    /// here. A device that is not attached here (or not of the
    /// request's kind) fails the request.
    pub fn execute(
        &mut self,
        fabric: &mut Fabric,
        dev: DeviceId,
        req: &DevReq,
        at: Nanos,
    ) -> DevCall {
        let track = Track::HostCpu(self.host.0);
        let (doorbell, done) = match (*req, self.devices.get_mut(&dev)) {
            (DevReq::Tx { buf, len }, Some(Device::Nic(nic))) => {
                let doorbell = at + nic.doorbell_cost();
                nic.ring_doorbell();
                if let Some(tr) = fabric.trace_mut() {
                    tr.instant(track, "dev/doorbell", doorbell);
                }
                let done = nic
                    .transmit(fabric, doorbell, BufRef::Pool(buf), len)
                    .map(|frame| {
                        let exit = frame.wire_exit;
                        self.out_frames.push((dev, frame));
                        exit
                    });
                (doorbell, done)
            }
            (DevReq::RxPost { buf, len }, Some(Device::Nic(nic))) => {
                let doorbell = at + nic.doorbell_cost();
                let done = nic.post_rx(BufRef::Pool(buf), len).map(|()| doorbell);
                (doorbell, done)
            }
            (DevReq::SsdRead { lba, blocks, buf }, Some(Device::Ssd(ssd))) => (
                at,
                ssd.read(fabric, at, lba, u64::from(blocks), BufRef::Pool(buf)),
            ),
            (DevReq::SsdWrite { lba, blocks, buf }, Some(Device::Ssd(ssd))) => (
                at,
                ssd.write(fabric, at, lba, u64::from(blocks), BufRef::Pool(buf)),
            ),
            (DevReq::Accel { inbuf, len, outbuf }, Some(Device::Accel(acc))) => (
                at,
                acc.offload(fabric, at, BufRef::Pool(inbuf), len, BufRef::Pool(outbuf)),
            ),
            _ => (at, Err(DeviceError::Failed(dev))),
        };
        DevCall { doorbell, done }
    }

    fn dispatch(&mut self, fabric: &mut Fabric, link_idx: usize, msg: Msg) {
        let host = self.host.0;
        match msg {
            Msg::Submit { op, dev, req } => {
                fabric.trace_push(op, req.kind().as_u8());
                self.trace_dispatch(fabric);
                let call = self.execute(fabric, dev, &req, self.clock);
                if let (DevReq::RxPost { .. }, Ok(t)) = (req, &call.done) {
                    // Remember whose buffer this is so the RX
                    // completion can be forwarded back.
                    self.rx_routes
                        .entry(dev)
                        .or_default()
                        .push_back(RxRoute::Link(link_idx));
                    if let Some(tr) = fabric.trace_mut() {
                        tr.instant(Track::HostCpu(host), "dev/doorbell", *t);
                    }
                }
                self.complete(fabric, link_idx, op, dev, call.done);
                fabric.trace_pop();
            }
            Msg::Done { op, status, at } => {
                if let Some(tr) = fabric.trace_mut() {
                    let (_, kind) = tr.ctx();
                    tr.instant_for(
                        Track::HostCpu(host),
                        "op/complete",
                        op,
                        kind,
                        Nanos(at),
                        None,
                    );
                }
                self.completions.insert(
                    op,
                    Completion {
                        status,
                        at: Nanos(at),
                    },
                );
            }
            Msg::RxDone { buf, len, at } => {
                self.rx_inbox.push(RxEvent {
                    buf,
                    len,
                    at: Nanos(at),
                });
            }
            Msg::Assign { host, kind, dev } => {
                if host == self.host {
                    if let Some(k) = DeviceKind::from_u8(kind) {
                        self.assigned.insert(k, dev);
                        self.stats.assigns += 1;
                        let clock = self.clock;
                        if let Some(tr) = fabric.trace_mut() {
                            tr.instant_note(
                                Track::HostCpu(self.host.0),
                                "agent/assign",
                                clock,
                                &format!("{k:?} -> {dev:?}"),
                            );
                        }
                    }
                }
            }
            // Control-plane reports are consumed by the orchestrator,
            // not by agents.
            Msg::DevFailed { .. } | Msg::HostLoad { .. } | Msg::DevLoad { .. } => {}
        }
    }

    /// Sends a `Done` back on the link the request arrived on, and a
    /// failure notice to the orchestrator when the device errored.
    fn complete(
        &mut self,
        fabric: &mut Fabric,
        link_idx: usize,
        op: u64,
        dev: DeviceId,
        result: Result<Nanos, DeviceError>,
    ) {
        let (status, at) = match result {
            Ok(t) => {
                self.stats.served += 1;
                (0u8, t)
            }
            Err(_) => {
                self.stats.failures_seen += 1;
                let clock = self.clock;
                if let Some(tr) = fabric.trace_mut() {
                    tr.instant_note(
                        Track::HostCpu(self.host.0),
                        "dev/failed",
                        clock,
                        &format!("{dev:?}"),
                    );
                }
                self.outbox_orch.push(Msg::DevFailed {
                    dev,
                    at: clock.as_nanos(),
                });
                (1u8, self.clock)
            }
        };
        let done = Msg::Done {
            op,
            status,
            at: at.as_nanos(),
        };
        let clock = self.clock;
        let (_, link) = &mut self.links[link_idx];
        if let Ok(ChannelSend::Sent(_)) = link.tx.send(fabric, clock, &done.encode()) {
            // Reply issued; agent keeps polling from its own clock.
        }
        // A blocked reply ring is dropped silently here: the requester
        // will time out and retry. (Rings are sized to make this rare.)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_fabric::PodConfig;

    /// Builds two linked agents (host 0 with a NIC, host 1 without).
    fn duo() -> (Fabric, Agent, Agent) {
        let mut f = Fabric::new(PodConfig::new(2, 2, 2));
        let ch = Channel::allocate(&mut f, HostId(0), HostId(1), 64).expect("chan");
        let (l0, l1) = Link::pair(ch);
        let mut a0 = Agent::new(HostId(0));
        let mut a1 = Agent::new(HostId(1));
        a0.replace_link(Peer::Host(HostId(1)), l0);
        a1.replace_link(Peer::Host(HostId(0)), l1);
        a0.devices.insert(
            DeviceId(0),
            Device::new(DeviceKind::Nic, DeviceId(0), HostId(0)),
        );
        (f, a0, a1)
    }

    #[test]
    fn forwarded_tx_executes_and_completes() {
        let (mut f, mut a0, mut a1) = duo();
        // Host 1 stages a payload in a shared buffer.
        let seg = f
            .alloc_shared(&[HostId(0), HostId(1)], 4096)
            .expect("alloc");
        let t = f
            .nt_store(Nanos(0), HostId(1), seg.base(), &[9u8; 128])
            .expect("store");
        a1.advance_clock(t);
        a1.send_to(
            &mut f,
            Peer::Host(HostId(0)),
            &Msg::Submit {
                op: 1,
                dev: DeviceId(0),
                req: DevReq::Tx {
                    buf: seg.base(),
                    len: 128,
                },
            },
        )
        .expect("send");
        // Agent 0 picks it up and transmits.
        a0.pump(&mut f, Nanos::from_micros(50));
        assert_eq!(a0.stats().served, 1);
        assert_eq!(a0.out_frames.len(), 1);
        assert_eq!(a0.out_frames[0].1.bytes, vec![9u8; 128]);
        // Agent 1 receives the completion.
        a1.pump(&mut f, Nanos::from_micros(100));
        let c = a1.completions.get(&1).expect("completion");
        assert_eq!(c.status, 0);
        assert!(c.at > Nanos::ZERO);
    }

    #[test]
    fn failed_device_reports_status_one() {
        let (mut f, mut a0, mut a1) = duo();
        a0.devices.get_mut(&DeviceId(0)).expect("nic").fail();
        let seg = f
            .alloc_shared(&[HostId(0), HostId(1)], 4096)
            .expect("alloc");
        a1.send_to(
            &mut f,
            Peer::Host(HostId(0)),
            &Msg::Submit {
                op: 7,
                dev: DeviceId(0),
                req: DevReq::Tx {
                    buf: seg.base(),
                    len: 64,
                },
            },
        )
        .expect("send");
        a0.pump(&mut f, Nanos::from_micros(50));
        assert_eq!(a0.stats().failures_seen, 1);
        a1.pump(&mut f, Nanos::from_micros(100));
        assert_eq!(a1.completions.get(&7).expect("completion").status, 1);
    }

    #[test]
    fn unknown_device_is_a_failure_not_a_panic() {
        let (mut f, mut a0, mut a1) = duo();
        let seg = f
            .alloc_shared(&[HostId(0), HostId(1)], 4096)
            .expect("alloc");
        a1.send_to(
            &mut f,
            Peer::Host(HostId(0)),
            &Msg::Submit {
                op: 3,
                dev: DeviceId(99),
                req: DevReq::SsdRead {
                    lba: 0,
                    blocks: 1,
                    buf: seg.base(),
                },
            },
        )
        .expect("send");
        a0.pump(&mut f, Nanos::from_micros(50));
        a1.pump(&mut f, Nanos::from_micros(100));
        assert_eq!(a1.completions.get(&3).expect("completion").status, 1);
    }

    #[test]
    fn device_table_matches_request_to_kind() {
        for (i, kind) in DeviceKind::ALL.into_iter().enumerate() {
            let d = Device::new(kind, DeviceId(i as u32), HostId(0));
            assert_eq!((d.kind(), d.counters()), (kind, (0, 0)));
        }
        // An SSD read on the NIC fails like a missing device.
        let (mut f, mut a0, _) = duo();
        let req = DevReq::SsdRead {
            lba: 0,
            blocks: 1,
            buf: 0,
        };
        let call = a0.execute(&mut f, DeviceId(0), &req, Nanos(5));
        assert_eq!(call.doorbell, Nanos(5));
        assert_eq!(call.done, Err(DeviceError::Failed(DeviceId(0))));
    }

    #[test]
    fn assign_updates_binding() {
        let (mut f, mut a0, mut a1) = duo();
        a1.send_to(
            &mut f,
            Peer::Host(HostId(0)),
            &Msg::Assign {
                host: HostId(0),
                kind: DeviceKind::Nic.as_u8(),
                dev: DeviceId(5),
            },
        )
        .expect("send");
        a0.pump(&mut f, Nanos::from_micros(50));
        assert_eq!(a0.assigned.get(&DeviceKind::Nic), Some(&DeviceId(5)));
        assert_eq!(a0.stats().assigns, 1);
    }

    #[test]
    fn assign_for_other_host_is_ignored() {
        let (mut f, mut a0, mut a1) = duo();
        a1.send_to(
            &mut f,
            Peer::Host(HostId(0)),
            &Msg::Assign {
                host: HostId(3),
                kind: DeviceKind::Nic.as_u8(),
                dev: DeviceId(5),
            },
        )
        .expect("send");
        a0.pump(&mut f, Nanos::from_micros(50));
        assert!(a0.assigned.is_empty());
    }

    #[test]
    fn pump_without_links_just_advances_clock() {
        let mut f = Fabric::new(PodConfig::new(2, 2, 2));
        let mut a = Agent::new(HostId(0));
        a.pump(&mut f, Nanos::from_micros(10));
        assert_eq!(a.clock(), Nanos::from_micros(10));
    }
}
