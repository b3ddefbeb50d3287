//! The SPSC cache-line ring: the paper's shared-memory channel (§4.1).
//!
//! Layout in shared CXL memory (`capacity` slots + one credit line):
//!
//! ```text
//! base + 0*64 .. base + cap*64   message slots, 64 B each
//! base + cap*64                  credit line (receiver → sender)
//! ```
//!
//! Each slot is one cache line: `[seq: u64][len: u16][payload: 54 B]`.
//! The sender stamps message *m* into slot `m % cap` with `seq = m + 1`
//! using a single 64 B non-temporal store — one line, so the store is
//! atomic on the fabric and no separate "valid" flag or ordering
//! barrier is needed. The receiver knows which `seq` to expect in which
//! slot, so stale lines (from `cap` messages ago) can never be confused
//! with fresh ones.
//!
//! Flow control is credit-based: the receiver periodically publishes its
//! consumed count on the credit line (also one non-temporal store); the
//! sender refreshes its cached view only when the ring *looks* full,
//! keeping the common-case send to exactly one CXL write.
//!
//! Besides the pool bytes, the two endpoints share one piece of
//! simulator metadata: the time each published slot becomes visible.
//! It carries no data, only *when* a poll would find the next slot
//! ([`RingReceiver::next_visible`]), so idle poll loops can jump to
//! that poll instead of simulating every empty one before it. The
//! slot itself is still read by a timed invalidate + load.

use std::cell::Cell;
use std::rc::Rc;

use cxl_fabric::{Fabric, FabricError, HostId, Segment};
use simkit::Nanos;

/// Bytes of payload carried by one slot.
pub const SLOT_PAYLOAD: usize = 54;
/// Slot size: one cache line.
pub const SLOT: u64 = 64;

/// CPU cost of assembling/stamping a message before the NT store.
const SEND_CPU_NS: u64 = 15;
/// CPU cost of one poll iteration (branch, compare, loop).
pub const POLL_CPU_NS: u64 = 20;

/// Idle-fabric timing of one poll of a ring's next slot: what
/// [`RingReceiver::poll`] costs when every pipe on the path is free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PollCost {
    /// From poll start to the slot load sampling pool memory. A poll
    /// started at `t` observes a slot visible at `v` iff
    /// `t + sees_at >= v`.
    pub sees_at: Nanos,
    /// From poll start to the [`PollOutcome::Empty`] time.
    pub total: Nanos,
}

/// Visible times of published slots, written by the sender and read by
/// the receiver. Not pool memory: nothing here is charged or audited.
struct Publications {
    /// Messages published so far.
    sent: Cell<u64>,
    /// `visible_at[m % capacity]`: when message `m` lands in pool DRAM.
    visible_at: Box<[Cell<Nanos>]>,
}

/// The outcome of [`plan_idle_skip`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdleSkip {
    /// When the poll loop next runs a pass through the fabric, or the
    /// first pass boundary at or after `until` if none is due before.
    pub resume: Nanos,
    /// The sample time of the last poll skipped, if any pass was.
    pub last_sample: Option<Nanos>,
    /// The cost of one empty pass: the sum of the pollable rings' idle
    /// poll costs (zero with no pollable ring). A loop skipping to any
    /// `t` samples nothing at or after `t + pass`.
    pub pass: Nanos,
    /// The earliest time from which a poll observes the next slot of a
    /// pollable ring, if any ring has one published.
    pub first_visible: Option<Nanos>,
}

/// Plans a poll loop's jump over the empty passes before its next work.
///
/// The loop polls some rings round-robin, one pass after another,
/// starting a pass at `clock` and then whenever the previous pass ends,
/// for as long as a pass starts before `until`. `rings` gives each
/// ring's [`PollCost`] (`None`: the poll fails and takes no time) and
/// the time from which a poll observes its next slot
/// ([`RingReceiver::next_visible`]).
///
/// Every pass that observes nothing costs the same `P`, the sum of the
/// rings' idle poll costs, so pass `k` starts at `clock + k·P` and ring
/// `i` samples its slot at `clock + k·P + (P of rings before i) +
/// sees_at`. The plan resumes at the start of the first pass in which
/// some ring samples a slot at or after its visible time, if that pass
/// starts before `until`; otherwise at the end of the last pass that
/// does. With no pollable ring a pass takes no time and the loop is
/// idle until `until`.
pub fn plan_idle_skip(
    clock: Nanos,
    until: Nanos,
    rings: impl IntoIterator<Item = (Option<PollCost>, Option<Nanos>)>,
) -> IdleSkip {
    let mut pass = Nanos::ZERO;
    let mut wait: Option<Nanos> = None;
    let mut first_visible: Option<Nanos> = None;
    let mut last: Option<PollCost> = None;
    for (cost, visible) in rings {
        let Some(cost) = cost else { continue };
        if let Some(v) = visible {
            let w = v.saturating_sub(clock + pass + cost.sees_at);
            wait = Some(wait.map_or(w, |x| x.min(w)));
            first_visible = Some(first_visible.map_or(v, |x| x.min(v)));
        }
        pass += cost.total;
        last = Some(cost);
    }
    let Some(last) = last else {
        return IdleSkip {
            resume: clock.max(until),
            last_sample: None,
            pass,
            first_visible,
        };
    };
    let passes = |span: Nanos| span.as_nanos().div_ceil(pass.as_nanos());
    let to_until = passes(until.saturating_sub(clock));
    let k = wait.map_or(to_until, |w| passes(w).min(to_until));
    let resume = clock + pass * k;
    IdleSkip {
        resume,
        // The last ring's poll ends the pass: it sampled its slot
        // `total - sees_at` before the next pass starts.
        last_sample: (k > 0).then(|| resume - (last.total - last.sees_at)),
        pass,
        first_visible,
    }
}

/// A shared ring allocated in pool memory, not yet split into endpoints.
pub struct RingBuf {
    seg: Segment,
    capacity: u64,
    sender: HostId,
    receiver: HostId,
}

/// Result of a send attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// Message written; visible to the receiver at this time.
    Sent(Nanos),
    /// Ring full even after refreshing credits; retry after this time
    /// (the time the credit check completed).
    Full(Nanos),
}

/// Result of a poll attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PollOutcome {
    /// No new message; the poll completed at this time.
    Empty(Nanos),
    /// A message arrived.
    Msg {
        /// Payload bytes (at most [`SLOT_PAYLOAD`]).
        data: Vec<u8>,
        /// Time the receiver had the payload in hand.
        at: Nanos,
    },
}

impl RingBuf {
    /// Allocates a ring of `capacity` slots in memory shared by the two
    /// endpoint hosts.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a power of two or is zero.
    pub fn allocate(
        fabric: &mut Fabric,
        sender: HostId,
        receiver: HostId,
        capacity: u64,
    ) -> Result<RingBuf, FabricError> {
        assert!(
            capacity.is_power_of_two(),
            "capacity must be a power of two, got {capacity}"
        );
        let seg = fabric.alloc_shared(&[sender, receiver], (capacity + 1) * SLOT)?;
        // Slot sequence numbers and the credit line transfer ordering:
        // a receiver observing a slot's seq acquires everything the
        // sender did before publishing it (and vice versa for
        // credits). Registering the ring keeps the vector-clock
        // auditor's happens-before graph in step with the protocol.
        fabric.mark_sync_range(seg.base(), (capacity + 1) * SLOT);
        Ok(RingBuf {
            seg,
            capacity,
            sender,
            receiver,
        })
    }

    /// Like [`RingBuf::allocate`] but backed by a *single* MHD
    /// (`ways = 1`): an interleaved ring dies with any of its MHDs,
    /// while isolated rings fail independently — the control plane
    /// allocates this way so λ-redundant pods can rebuild after a pool
    /// device failure (§5, "highly-available CXL pods").
    pub fn allocate_isolated(
        fabric: &mut Fabric,
        sender: HostId,
        receiver: HostId,
        capacity: u64,
    ) -> Result<RingBuf, FabricError> {
        assert!(
            capacity.is_power_of_two(),
            "capacity must be a power of two, got {capacity}"
        );
        let seg = fabric.alloc_interleaved(&[sender, receiver], (capacity + 1) * SLOT, 1)?;
        fabric.mark_sync_range(seg.base(), (capacity + 1) * SLOT);
        Ok(RingBuf {
            seg,
            capacity,
            sender,
            receiver,
        })
    }

    /// Splits into the two endpoints.
    pub fn split(self) -> (RingSender, RingReceiver) {
        let credit_every = (self.capacity / 4).max(1);
        let pubs = Rc::new(Publications {
            sent: Cell::new(0),
            visible_at: (0..self.capacity).map(|_| Cell::new(Nanos::ZERO)).collect(),
        });
        (
            RingSender {
                base: self.seg.base(),
                capacity: self.capacity,
                host: self.sender,
                next: 0,
                credits_seen: 0,
                pubs: Rc::clone(&pubs),
            },
            RingReceiver {
                base: self.seg.base(),
                capacity: self.capacity,
                host: self.receiver,
                next: 0,
                published: 0,
                credit_every,
                pubs,
                cost: Cell::new(None),
            },
        )
    }

    /// The backing segment (for freeing later).
    pub fn segment(&self) -> &Segment {
        &self.seg
    }
}

/// The producing endpoint of a ring.
pub struct RingSender {
    base: u64,
    capacity: u64,
    host: HostId,
    /// Index of the next message to send.
    next: u64,
    /// Receiver's consumed count as last observed.
    credits_seen: u64,
    pubs: Rc<Publications>,
}

impl RingSender {
    fn slot_addr(&self, m: u64) -> u64 {
        self.base + (m % self.capacity) * SLOT
    }

    fn credit_addr(&self) -> u64 {
        self.base + self.capacity * SLOT
    }

    /// Number of in-flight (unacknowledged) messages under the current
    /// credit view.
    pub fn in_flight(&self) -> u64 {
        self.next - self.credits_seen
    }

    /// Base address of the ring in pool memory. Stable for the ring's
    /// lifetime, so it doubles as the channel-track identity in trace
    /// exports (see [`simkit::trace::Track::Channel`]).
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Sends one message of at most [`SLOT_PAYLOAD`] bytes.
    ///
    /// Fast path: one non-temporal 64 B store. If the ring looks full,
    /// the sender refreshes the credit line (one invalidate + load) and
    /// either proceeds or reports [`SendOutcome::Full`].
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`SLOT_PAYLOAD`] bytes.
    pub fn send(
        &mut self,
        fabric: &mut Fabric,
        now: Nanos,
        payload: &[u8],
    ) -> Result<SendOutcome, FabricError> {
        assert!(
            payload.len() <= SLOT_PAYLOAD,
            "payload {} exceeds slot capacity {SLOT_PAYLOAD}",
            payload.len()
        );
        let mut now = now;
        if self.in_flight() >= self.capacity {
            // Slow path: refresh credits from the pool.
            let t = fabric.invalidate(now, self.host, self.credit_addr(), SLOT);
            let mut line = [0u8; 8];
            now = fabric.load(t, self.host, self.credit_addr(), &mut line)?;
            self.credits_seen = u64::from_le_bytes(line);
            if self.in_flight() >= self.capacity {
                return Ok(SendOutcome::Full(now));
            }
        }
        let m = self.next;
        let mut slot = [0u8; SLOT as usize];
        slot[0..8].copy_from_slice(&(m + 1).to_le_bytes());
        slot[8..10].copy_from_slice(&(payload.len() as u16).to_le_bytes());
        // simlint: allow(unwrap-in-datapath) -- payload.len() <= SLOT_PAYLOAD asserted at send entry; header + payload fits SLOT
        slot[10..10 + payload.len()].copy_from_slice(payload);
        let done = fabric.nt_store(
            now + Nanos(SEND_CPU_NS),
            self.host,
            self.slot_addr(m),
            &slot,
        )?;
        self.next = m + 1;
        self.pubs.visible_at[(m % self.capacity) as usize].set(done);
        self.pubs.sent.set(self.next);
        Ok(SendOutcome::Sent(done))
    }
}

/// The consuming endpoint of a ring.
pub struct RingReceiver {
    base: u64,
    capacity: u64,
    host: HostId,
    /// Index of the next message to receive.
    next: u64,
    /// Consumed count last published on the credit line.
    published: u64,
    /// Publish credits every this many messages.
    credit_every: u64,
    pubs: Rc<Publications>,
    /// [`RingReceiver::idle_poll_cost`] for `(topology epoch, next)`.
    cost: Cell<Option<(u64, u64, Option<PollCost>)>>,
}

impl RingReceiver {
    fn slot_addr(&self, m: u64) -> u64 {
        self.base + (m % self.capacity) * SLOT
    }

    fn credit_addr(&self) -> u64 {
        self.base + self.capacity * SLOT
    }

    /// Polls for the next message: invalidate + load of the expected
    /// slot line. Publishes credits as a side effect when due.
    pub fn poll(&mut self, fabric: &mut Fabric, now: Nanos) -> Result<PollOutcome, FabricError> {
        let m = self.next;
        let addr = self.slot_addr(m);
        // Freshness: drop any locally cached copy before loading.
        let t = fabric.invalidate(now + Nanos(POLL_CPU_NS), self.host, addr, SLOT);
        let mut slot = [0u8; SLOT as usize];
        let t = fabric.load(t, self.host, addr, &mut slot)?;
        let seq = u64::from_le_bytes(slot[0..8].try_into().expect("8 bytes"));
        if seq != m + 1 {
            return Ok(PollOutcome::Empty(t));
        }
        let len = u16::from_le_bytes(slot[8..10].try_into().expect("2 bytes")) as usize;
        // simlint: allow(unwrap-in-datapath) -- len is min-clamped to SLOT_PAYLOAD; 10 + SLOT_PAYLOAD == SLOT
        let data = slot[10..10 + len.min(SLOT_PAYLOAD)].to_vec();
        self.next = m + 1;
        let mut at = t;
        if self.next - self.published >= self.credit_every {
            // Publish consumed count; the send completes asynchronously
            // but we charge the issue cost to the receiver's timeline.
            let line = self.next.to_le_bytes();
            fabric.nt_store(at, self.host, self.credit_addr(), &line)?;
            at += Nanos(SEND_CPU_NS);
            self.published = self.next;
        }
        Ok(PollOutcome::Msg { data, at })
    }

    /// The earliest time a [`RingReceiver::poll`] sampling the pool
    /// would find the next slot this receiver expects: the slot's
    /// visible time, or [`Nanos::ZERO`] once another access has already
    /// landed it in pool memory (see [`Fabric::in_flight`]). `None` if
    /// the sender has not published the slot yet.
    ///
    /// A scheduling hint only: it says when to poll, and the poll still
    /// reads the slot through the timed fabric.
    pub fn next_visible(&self, fabric: &Fabric) -> Option<Nanos> {
        if self.pubs.sent.get() <= self.next {
            return None;
        }
        let v = self.pubs.visible_at[(self.next % self.capacity) as usize].get();
        Some(if fabric.in_flight(self.slot_addr(self.next), v) {
            v
        } else {
            Nanos::ZERO
        })
    }

    /// The cost of the next poll on an idle fabric, or `None` if the
    /// poll would fail (no path to the slot's MHD). Cached until the
    /// topology changes ([`Fabric::topology_epoch`]) or the receiver
    /// moves on to another slot.
    pub fn idle_poll_cost(&self, fabric: &Fabric) -> Option<PollCost> {
        let epoch = fabric.topology_epoch();
        if let Some((e, m, cost)) = self.cost.get() {
            if (e, m) == (epoch, self.next) {
                return cost;
            }
        }
        let addr = self.slot_addr(self.next);
        let sees_at = Nanos(POLL_CPU_NS) + Fabric::invalidate_cost(addr, SLOT);
        let cost = fabric
            .idle_load_latency(self.host, addr, SLOT)
            .ok()
            .map(|load| PollCost {
                sees_at,
                total: sees_at + load,
            });
        self.cost.set(Some((epoch, self.next, cost)));
        cost
    }

    /// Number of messages consumed so far.
    pub fn consumed(&self) -> u64 {
        self.next
    }

    /// Base address of the ring in pool memory (see
    /// [`RingSender::base`]).
    pub fn base(&self) -> u64 {
        self.base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_fabric::{fabric, PodConfig};

    fn setup(cap: u64) -> (Fabric, RingSender, RingReceiver) {
        let mut f = Fabric::new(PodConfig::new(2, 2, 2));
        let ring = RingBuf::allocate(&mut f, HostId(0), HostId(1), cap).expect("alloc");
        let (tx, rx) = ring.split();
        (f, tx, rx)
    }

    fn send_ok(f: &mut Fabric, tx: &mut RingSender, now: Nanos, data: &[u8]) -> Nanos {
        match tx.send(f, now, data).expect("send") {
            SendOutcome::Sent(t) => t,
            SendOutcome::Full(t) => panic!("unexpected full at {t:?}"),
        }
    }

    #[test]
    fn message_roundtrip() {
        let (mut f, mut tx, mut rx) = setup(8);
        let t = send_ok(&mut f, &mut tx, Nanos(0), b"ping");
        match rx.poll(&mut f, t).expect("poll") {
            PollOutcome::Msg { data, at } => {
                assert_eq!(data, b"ping");
                assert!(at > t);
            }
            PollOutcome::Empty(_) => panic!("message should be visible"),
        }
    }

    #[test]
    fn poll_before_visibility_sees_nothing() {
        let (mut f, mut tx, mut rx) = setup(8);
        let vis = send_ok(&mut f, &mut tx, Nanos(0), b"x");
        // Poll at t=0: the NT store has not landed yet.
        match rx.poll(&mut f, Nanos(0)).expect("poll") {
            PollOutcome::Empty(_) => {}
            PollOutcome::Msg { .. } => panic!("saw message before visibility"),
        }
        // Poll after visibility sees it.
        match rx.poll(&mut f, vis).expect("poll") {
            PollOutcome::Msg { data, .. } => assert_eq!(data, b"x"),
            PollOutcome::Empty(_) => panic!("should see message at {vis:?}"),
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let (mut f, mut tx, mut rx) = setup(8);
        let mut t = Nanos(0);
        for i in 0..6u8 {
            t = send_ok(&mut f, &mut tx, t, &[i]);
        }
        for i in 0..6u8 {
            match rx.poll(&mut f, t).expect("poll") {
                PollOutcome::Msg { data, at } => {
                    assert_eq!(data, &[i]);
                    t = at;
                }
                PollOutcome::Empty(_) => panic!("expected message {i}"),
            }
        }
    }

    #[test]
    fn ring_reports_full_and_recovers_via_credits() {
        let (mut f, mut tx, mut rx) = setup(4);
        let mut t = Nanos(0);
        for i in 0..4u8 {
            t = send_ok(&mut f, &mut tx, t, &[i]);
        }
        // Fifth send: ring is full, credit refresh finds no progress.
        match tx.send(&mut f, t, b"v").expect("send") {
            SendOutcome::Full(ft) => assert!(ft > t),
            SendOutcome::Sent(_) => panic!("ring should be full"),
        }
        // Receiver drains all four; with credit_every = 1 (cap/4), it
        // publishes credits as it goes.
        for _ in 0..4 {
            match rx.poll(&mut f, t).expect("poll") {
                PollOutcome::Msg { at, .. } => t = at,
                PollOutcome::Empty(_) => panic!("expected message"),
            }
        }
        // Give the credit store time to land, then send succeeds.
        let t = t + Nanos(1000);
        match tx.send(&mut f, t, b"v").expect("send") {
            SendOutcome::Sent(_) => {}
            SendOutcome::Full(_) => panic!("credits should have arrived"),
        }
    }

    #[test]
    fn wraparound_many_laps() {
        let (mut f, mut tx, mut rx) = setup(4);
        let mut t = Nanos(0);
        for i in 0..64u32 {
            // Send then immediately receive: never more than one in
            // flight, so credits stay fresh enough.
            t = send_ok(&mut f, &mut tx, t, &i.to_le_bytes());
            match rx.poll(&mut f, t).expect("poll") {
                PollOutcome::Msg { data, at } => {
                    assert_eq!(data, i.to_le_bytes());
                    t = at;
                }
                PollOutcome::Empty(_) => panic!("expected message {i}"),
            }
        }
        assert_eq!(rx.consumed(), 64);
    }

    #[test]
    fn stale_slot_from_previous_lap_is_not_replayed() {
        let (mut f, mut tx, mut rx) = setup(4);
        let mut t = Nanos(0);
        // One full lap.
        for i in 0..4u8 {
            t = send_ok(&mut f, &mut tx, t, &[i]);
        }
        for _ in 0..4 {
            match rx.poll(&mut f, t).expect("poll") {
                PollOutcome::Msg { at, .. } => t = at,
                PollOutcome::Empty(_) => panic!("expected message"),
            }
        }
        // Slot 0 still holds seq=1 from lap 0; the receiver now expects
        // seq=5 there and must report Empty.
        match rx.poll(&mut f, t).expect("poll") {
            PollOutcome::Empty(_) => {}
            PollOutcome::Msg { .. } => panic!("replayed stale slot"),
        }
    }

    #[test]
    #[should_panic(expected = "exceeds slot capacity")]
    fn oversized_payload_panics() {
        let (mut f, mut tx, _rx) = setup(4);
        let _ = tx.send(&mut f, Nanos(0), &[0u8; 60]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_capacity_panics() {
        let mut f = Fabric::new(PodConfig::new(2, 2, 2));
        let _ = RingBuf::allocate(&mut f, HostId(0), HostId(1), 6);
    }

    #[test]
    fn empty_payload_is_legal() {
        let (mut f, mut tx, mut rx) = setup(4);
        let t = send_ok(&mut f, &mut tx, Nanos(0), b"");
        match rx.poll(&mut f, t).expect("poll") {
            PollOutcome::Msg { data, .. } => assert!(data.is_empty()),
            PollOutcome::Empty(_) => panic!("expected empty message"),
        }
    }

    #[test]
    fn next_visible_tracks_the_published_slot() {
        let (mut f, mut tx, mut rx) = setup(4);
        assert_eq!(rx.next_visible(&f), None, "nothing published");
        let v = send_ok(&mut f, &mut tx, Nanos(0), b"a");
        assert_eq!(rx.next_visible(&f), Some(v));
        // An empty poll before visibility leaves the hint alone.
        assert!(matches!(
            rx.poll(&mut f, Nanos(0)),
            Ok(PollOutcome::Empty(_))
        ));
        assert_eq!(rx.next_visible(&f), Some(v));
        // Once any access lands the store, a poll at any time finds it.
        f.settle(v);
        assert_eq!(rx.next_visible(&f), Some(Nanos::ZERO));
        assert!(matches!(
            rx.poll(&mut f, Nanos(0)),
            Ok(PollOutcome::Msg { .. })
        ));
        assert_eq!(rx.next_visible(&f), None, "consumed");
    }

    #[test]
    fn idle_poll_cost_is_one_empty_poll_on_an_idle_fabric() {
        let (mut f, _tx, mut rx) = setup(8);
        let cost = rx.idle_poll_cost(&f).expect("reachable");
        assert_eq!(cost.sees_at, Nanos(POLL_CPU_NS + fabric::INVALIDATE_NS));
        let loads = f.stats().loads;
        for start in [Nanos(1_000), Nanos(50_000)] {
            match rx.poll(&mut f, start).expect("poll") {
                PollOutcome::Empty(t) => assert_eq!(t - start, cost.total),
                PollOutcome::Msg { .. } => panic!("nothing was sent"),
            }
        }
        assert_eq!(f.stats().loads, loads + 2);
        // Asking costs no fabric access.
        rx.idle_poll_cost(&f);
        assert_eq!(f.stats().loads, loads + 2);
    }

    #[test]
    fn idle_poll_cost_follows_the_topology() {
        let (mut f, _tx, rx) = setup(8);
        let up = rx.idle_poll_cost(&f);
        assert!(up.is_some());
        for m in 0..f.topology().mhds() {
            f.topology_mut().fail_mhd(cxl_fabric::MhdId(m));
        }
        assert_eq!(rx.idle_poll_cost(&f), None, "no path while down");
        for m in 0..f.topology().mhds() {
            f.topology_mut().restore_mhd(cxl_fabric::MhdId(m));
        }
        assert_eq!(rx.idle_poll_cost(&f), up);
    }

    fn cost(sees: u64, total: u64) -> Option<PollCost> {
        Some(PollCost {
            sees_at: Nanos(sees),
            total: Nanos(total),
        })
    }

    #[test]
    fn plan_skips_to_the_first_pass_that_samples_a_visible_slot() {
        // Two rings, 200 ns per poll: P = 400. Ring 1 samples at
        // 222 ns into a pass, so a slot visible at 2000 is first seen
        // by the pass starting at 1800 (sample 2022), not 1400 (1622).
        let rings = [(cost(22, 200), None), (cost(22, 200), Some(Nanos(2_000)))];
        let plan = plan_idle_skip(Nanos(1_000), Nanos(5_000), rings);
        assert_eq!(plan.resume, Nanos(1_800));
        assert_eq!(plan.last_sample, Some(Nanos(1_622)));
        assert_eq!(plan.pass, Nanos(400));
        assert_eq!(plan.first_visible, Some(Nanos(2_000)));
        // The earliest of several slots wins.
        let rings = [
            (cost(22, 200), Some(Nanos(1_300))),
            (cost(22, 200), Some(Nanos(2_000))),
        ];
        assert_eq!(
            plan_idle_skip(Nanos(1_000), Nanos(5_000), rings).resume,
            Nanos(1_400)
        );
    }

    #[test]
    fn plan_runs_a_visible_slot_at_once() {
        let rings = [(cost(22, 200), Some(Nanos::ZERO))];
        let plan = plan_idle_skip(Nanos(1_000), Nanos(5_000), rings);
        assert_eq!(plan.resume, Nanos(1_000));
        assert_eq!(plan.last_sample, None, "nothing skipped");
    }

    #[test]
    fn plan_without_work_ends_on_the_first_boundary_past_until() {
        let rings = [(cost(22, 200), None), (cost(22, 200), Some(Nanos(9_000)))];
        assert_eq!(
            plan_idle_skip(Nanos(1_000), Nanos(5_000), rings).resume,
            Nanos(5_000)
        );
        assert_eq!(
            plan_idle_skip(Nanos(1_000), Nanos(5_001), rings).resume,
            Nanos(5_400)
        );
    }

    #[test]
    fn plan_ignores_unreachable_rings() {
        // The failing ring costs nothing and its slot is never seen.
        let rings = [(None, Some(Nanos::ZERO)), (cost(22, 200), None)];
        assert_eq!(
            plan_idle_skip(Nanos(0), Nanos(1_000), rings).resume,
            Nanos(1_000)
        );
        let rings = [(None, Some(Nanos::ZERO))];
        let plan = plan_idle_skip(Nanos(0), Nanos(1_000), rings);
        assert_eq!(plan.resume, Nanos(1_000));
        assert_eq!(plan.last_sample, None);
        assert_eq!(plan.pass, Nanos::ZERO);
        assert_eq!(
            plan.first_visible, None,
            "an unreachable slot bounds nothing"
        );
    }

    #[test]
    fn send_latency_is_one_nt_store() {
        let (mut f, mut tx, _rx) = setup(8);
        let t = send_ok(&mut f, &mut tx, Nanos(0), b"m");
        // One 64 B NT store: ~117 ns idle + 15 ns CPU. Allow slack.
        let ns = t.as_nanos();
        assert!((100..250).contains(&ns), "send visibility {ns} ns");
    }
}
