//! Message framing over the slot ring: arbitrary-size messages.
//!
//! Control-plane messages (MMIO forwards, orchestrator RPCs) can exceed
//! one slot's 54 B payload. The channel layer splits a message into
//! fragments, each tagged with a 2-byte header `[more: u8][frag_len:
//! u8]`, leaving 52 B of message payload per slot. The ring's FIFO
//! guarantee makes reassembly trivial.

use cxl_fabric::{Fabric, FabricError, HostId};
use simkit::trace::Track;
use simkit::Nanos;

use crate::ring::{
    plan_idle_skip, IdleSkip, PollCost, PollOutcome, RingBuf, RingReceiver, RingSender,
    SendOutcome, SLOT_PAYLOAD,
};

/// Per-fragment header bytes.
const FRAG_HDR: usize = 2;
/// Message payload bytes per fragment.
pub const FRAG_PAYLOAD: usize = SLOT_PAYLOAD - FRAG_HDR;

/// A bidirectional pair of rings between two hosts.
pub struct Channel {
    /// a → b direction.
    pub ab: (ChannelSender, ChannelReceiver),
    /// b → a direction.
    pub ba: (ChannelSender, ChannelReceiver),
    /// Backing segments `(a→b, b→a)`, for failure tracking.
    pub segments: (cxl_fabric::SegmentId, cxl_fabric::SegmentId),
}

impl Channel {
    /// Allocates both directions with `capacity` slots each.
    pub fn allocate(
        fabric: &mut Fabric,
        a: HostId,
        b: HostId,
        capacity: u64,
    ) -> Result<Channel, FabricError> {
        let fwd = RingBuf::allocate(fabric, a, b, capacity)?;
        let rev = RingBuf::allocate(fabric, b, a, capacity)?;
        let segments = (fwd.segment().id(), rev.segment().id());
        let (ftx, frx) = fwd.split();
        let (rtx, rrx) = rev.split();
        Ok(Channel {
            ab: (ChannelSender::new(ftx), ChannelReceiver::new(frx)),
            ba: (ChannelSender::new(rtx), ChannelReceiver::new(rrx)),
            segments,
        })
    }

    /// Allocates both directions on single MHDs (failure-isolated; see
    /// [`RingBuf::allocate_isolated`]).
    pub fn allocate_isolated(
        fabric: &mut Fabric,
        a: HostId,
        b: HostId,
        capacity: u64,
    ) -> Result<Channel, FabricError> {
        let fwd = RingBuf::allocate_isolated(fabric, a, b, capacity)?;
        let rev = RingBuf::allocate_isolated(fabric, b, a, capacity)?;
        let segments = (fwd.segment().id(), rev.segment().id());
        let (ftx, frx) = fwd.split();
        let (rtx, rrx) = rev.split();
        Ok(Channel {
            ab: (ChannelSender::new(ftx), ChannelReceiver::new(frx)),
            ba: (ChannelSender::new(rtx), ChannelReceiver::new(rrx)),
            segments,
        })
    }
}

/// Result of a channel send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelSend {
    /// All fragments written; last is visible at this time.
    Sent(Nanos),
    /// Ring filled up mid-message after this many fragments; retry the
    /// remainder later. (The receiver will reassemble correctly because
    /// fragments of one message are never interleaved with another's on
    /// an SPSC ring.)
    Blocked {
        /// Fragments successfully written.
        sent_frags: usize,
        /// When the failed credit check completed.
        at: Nanos,
    },
}

/// Counters kept by a channel endpoint. Backpressure used to be
/// invisible: a `Blocked` → `resume` cycle left no trace in any
/// statistic. These counters make stalls first-class. A
/// [`ChannelSender`] fills the send-side fields and a
/// [`ChannelReceiver`] the receive-side ones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Messages fully sent (all fragments written).
    pub sends: u64,
    /// Times a send or resume returned [`ChannelSend::Blocked`].
    pub blocked_events: u64,
    /// Cumulative nanoseconds messages spent stalled between the first
    /// `Blocked` and the start of the resume that completed them.
    pub stall_ns: u64,
    /// Received fragments dropped as malformed (a header that does not
    /// fit its slot), together with the partial message they belonged
    /// to.
    pub malformed: u64,
}

/// Sending half: fragments and writes messages.
pub struct ChannelSender {
    ring: RingSender,
    /// Resume state for a blocked multi-fragment send.
    pending: Option<(Vec<u8>, usize)>,
    /// When the pending message first blocked (cleared on completion).
    blocked_since: Option<Nanos>,
    stats: ChannelStats,
}

impl ChannelSender {
    fn new(ring: RingSender) -> ChannelSender {
        ChannelSender {
            ring,
            pending: None,
            blocked_since: None,
            stats: ChannelStats::default(),
        }
    }

    /// Backpressure and throughput counters for this direction.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Sends `msg`, fragmenting as needed. If a previous send blocked,
    /// call [`ChannelSender::resume`] first; starting a new message
    /// while one is pending panics.
    ///
    /// # Panics
    ///
    /// Panics if a blocked message is pending.
    pub fn send(
        &mut self,
        fabric: &mut Fabric,
        now: Nanos,
        msg: &[u8],
    ) -> Result<ChannelSend, FabricError> {
        assert!(
            self.pending.is_none(),
            "resume() the blocked message before sending a new one"
        );
        self.send_from(fabric, now, msg.to_vec(), 0)
    }

    /// Resumes a blocked send. No-op returning `Sent(now)` if nothing is
    /// pending.
    pub fn resume(&mut self, fabric: &mut Fabric, now: Nanos) -> Result<ChannelSend, FabricError> {
        match self.pending.take() {
            Some((msg, done)) => self.send_from(fabric, now, msg, done),
            None => Ok(ChannelSend::Sent(now)),
        }
    }

    /// True if a blocked message awaits [`ChannelSender::resume`].
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    fn send_from(
        &mut self,
        fabric: &mut Fabric,
        now: Nanos,
        msg: Vec<u8>,
        first_frag: usize,
    ) -> Result<ChannelSend, FabricError> {
        let frags: Vec<&[u8]> = if msg.is_empty() {
            vec![&[][..]]
        } else {
            msg.chunks(FRAG_PAYLOAD).collect()
        };
        let mut t = now;
        for (i, frag) in frags.iter().enumerate().skip(first_frag) {
            let more = if i + 1 < frags.len() { 1u8 } else { 0u8 };
            let mut slot = Vec::with_capacity(FRAG_HDR + frag.len());
            slot.push(more);
            slot.push(frag.len() as u8);
            slot.extend_from_slice(frag);
            match self.ring.send(fabric, t, &slot)? {
                SendOutcome::Sent(at) => t = at,
                SendOutcome::Full(at) => {
                    self.pending = Some((msg.clone(), i));
                    self.stats.blocked_events += 1;
                    if self.blocked_since.is_none() {
                        self.blocked_since = Some(at);
                    }
                    if let Some(tr) = fabric.trace_mut() {
                        tr.instant(Track::Channel(self.ring.base()), "chan/blocked", at);
                    }
                    return Ok(ChannelSend::Blocked { sent_frags: i, at });
                }
            }
        }
        if let Some(blocked_at) = self.blocked_since.take() {
            self.stats.stall_ns += now.saturating_sub(blocked_at).as_nanos();
            if let Some(tr) = fabric.trace_mut() {
                tr.span(
                    Track::Channel(self.ring.base()),
                    "chan/stall",
                    blocked_at,
                    now,
                );
            }
        }
        self.stats.sends += 1;
        if let Some(tr) = fabric.trace_mut() {
            tr.span(Track::Channel(self.ring.base()), "chan/send", now, t);
        }
        Ok(ChannelSend::Sent(t))
    }
}

/// Receiving half: polls fragments and reassembles messages.
pub struct ChannelReceiver {
    ring: RingReceiver,
    partial: Vec<u8>,
    stats: ChannelStats,
}

impl ChannelReceiver {
    fn new(ring: RingReceiver) -> ChannelReceiver {
        ChannelReceiver {
            ring,
            partial: Vec::new(),
            stats: ChannelStats::default(),
        }
    }

    /// Receive-side counters for this direction.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// When a poll would first find the next fragment, if one is
    /// published (see [`RingReceiver::next_visible`]).
    pub fn next_visible(&self, fabric: &Fabric) -> Option<Nanos> {
        self.ring.next_visible(fabric)
    }

    /// Idle-fabric cost of the next poll (see
    /// [`RingReceiver::idle_poll_cost`]).
    pub fn idle_poll_cost(&self, fabric: &Fabric) -> Option<PollCost> {
        self.ring.idle_poll_cost(fabric)
    }

    /// Polls once. Returns a complete message if this poll finished one;
    /// `Empty` covers "no fragment", "got a non-final fragment" and "got
    /// a malformed fragment". The fragment header comes from pool
    /// memory, so a length that overruns its slot is dropped and
    /// counted in [`ChannelStats::malformed`] instead of trusted, and
    /// the message it belonged to is abandoned.
    pub fn poll(&mut self, fabric: &mut Fabric, now: Nanos) -> Result<PollOutcome, FabricError> {
        match self.ring.poll(fabric, now)? {
            PollOutcome::Empty(t) => Ok(PollOutcome::Empty(t)),
            PollOutcome::Msg { data, at } => {
                let frag = match data.get(..FRAG_HDR) {
                    Some(&[more, len]) => data
                        .get(FRAG_HDR..FRAG_HDR + len as usize)
                        .map(|body| (more, body)),
                    _ => None,
                };
                let Some((more, body)) = frag else {
                    self.partial.clear();
                    self.stats.malformed += 1;
                    if let Some(tr) = fabric.trace_mut() {
                        tr.instant(Track::Channel(self.ring.base()), "chan/malformed", at);
                    }
                    return Ok(PollOutcome::Empty(at));
                };
                self.partial.extend_from_slice(body);
                if more == 1 {
                    Ok(PollOutcome::Empty(at))
                } else {
                    if let Some(tr) = fabric.trace_mut() {
                        tr.instant(Track::Channel(self.ring.base()), "chan/recv", at);
                    }
                    Ok(PollOutcome::Msg {
                        data: std::mem::take(&mut self.partial),
                        at,
                    })
                }
            }
        }
    }

    /// Polls back to back from `now` until a message completes or a
    /// poll would start after `deadline`. Returns the message and
    /// receipt time, or `None` at the deadline.
    ///
    /// Empty polls before the next published fragment are skipped with
    /// [`skip_idle_passes`]: only polls that can observe a fragment go
    /// through the fabric.
    pub fn poll_until(
        &mut self,
        fabric: &mut Fabric,
        mut now: Nanos,
        deadline: Nanos,
    ) -> Result<Option<(Vec<u8>, Nanos)>, FabricError> {
        let until = deadline.checked_add(Nanos(1)).unwrap_or(Nanos::MAX);
        loop {
            now = skip_idle_passes(fabric, now, until, [&*self]);
            if now > deadline {
                return Ok(None);
            }
            match self.poll(fabric, now)? {
                PollOutcome::Msg { data, at } => return Ok(Some((data, at))),
                PollOutcome::Empty(t) => {
                    if t > deadline {
                        return Ok(None);
                    }
                    now = t;
                }
            }
        }
    }
}

/// Plans a poll loop's jump over its empty passes over `rxs` (polled
/// round-robin in this order) from `clock` toward `until`, without
/// touching the fabric: [`plan_idle_skip`] fed with each receiver's
/// idle poll cost and next visible slot.
pub fn plan_idle_passes<'a>(
    fabric: &Fabric,
    clock: Nanos,
    until: Nanos,
    rxs: impl IntoIterator<Item = &'a ChannelReceiver>,
) -> IdleSkip {
    plan_idle_skip(
        clock,
        until,
        rxs.into_iter()
            .map(|rx| (rx.idle_poll_cost(fabric), rx.next_visible(fabric))),
    )
}

/// Skips a poll loop's empty passes over `rxs` and returns when its
/// next pass through the fabric starts, or the first pass boundary at
/// or after `until` if none is due before; see [`plan_idle_passes`].
/// The skipped polls are settled ([`Fabric::settle`]) up to the last
/// one's sample time, so the pool contents other actors read afterwards
/// are the ones a simulated poll would have left; no skipped poll books
/// pipe time, touches a cache or is audited.
pub fn skip_idle_passes<'a>(
    fabric: &mut Fabric,
    clock: Nanos,
    until: Nanos,
    rxs: impl IntoIterator<Item = &'a ChannelReceiver>,
) -> Nanos {
    let plan = plan_idle_passes(fabric, clock, until, rxs);
    if let Some(t) = plan.last_sample {
        fabric.settle(t);
    }
    plan.resume
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_fabric::PodConfig;

    fn setup(cap: u64) -> (Fabric, ChannelSender, ChannelReceiver) {
        let mut f = Fabric::new(PodConfig::new(2, 2, 2));
        let ch = Channel::allocate(&mut f, HostId(0), HostId(1), cap).expect("alloc");
        (f, ch.ab.0, ch.ab.1)
    }

    #[test]
    fn small_message_single_fragment() {
        let (mut f, mut tx, mut rx) = setup(8);
        let t = match tx.send(&mut f, Nanos(0), b"hello").expect("send") {
            ChannelSend::Sent(t) => t,
            ChannelSend::Blocked { .. } => panic!("blocked"),
        };
        let (msg, _) = rx
            .poll_until(&mut f, t, t + Nanos(10_000))
            .expect("poll")
            .expect("message");
        assert_eq!(msg, b"hello");
    }

    #[test]
    fn large_message_reassembles() {
        let (mut f, mut tx, mut rx) = setup(64);
        let msg: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let t = match tx.send(&mut f, Nanos(0), &msg).expect("send") {
            ChannelSend::Sent(t) => t,
            ChannelSend::Blocked { .. } => panic!("blocked"),
        };
        let (got, _) = rx
            .poll_until(&mut f, t, t + Nanos(1_000_000))
            .expect("poll")
            .expect("message");
        assert_eq!(got, msg);
    }

    #[test]
    fn empty_message_roundtrips() {
        let (mut f, mut tx, mut rx) = setup(8);
        let t = match tx.send(&mut f, Nanos(0), b"").expect("send") {
            ChannelSend::Sent(t) => t,
            ChannelSend::Blocked { .. } => panic!("blocked"),
        };
        let (msg, _) = rx
            .poll_until(&mut f, t, t + Nanos(10_000))
            .expect("poll")
            .expect("message");
        assert!(msg.is_empty());
    }

    #[test]
    fn blocked_send_resumes_cleanly() {
        // Capacity 4 slots, message needs 8 fragments -> must block.
        let (mut f, mut tx, mut rx) = setup(4);
        let msg: Vec<u8> = (0..8 * FRAG_PAYLOAD).map(|i| i as u8).collect();
        let r = tx.send(&mut f, Nanos(0), &msg).expect("send");
        let (sent, mut t) = match r {
            ChannelSend::Blocked { sent_frags, at } => (sent_frags, at),
            ChannelSend::Sent(_) => panic!("should block on a tiny ring"),
        };
        assert!(sent >= 3, "should have written some fragments");
        assert!(tx.has_pending());
        // Drain + resume until the whole message lands.
        let mut got = None;
        for _ in 0..100 {
            if let Some((m, _at)) = rx.poll_until(&mut f, t, t + Nanos(50_000)).expect("poll") {
                got = Some(m);
                break;
            }
            t += Nanos(1_000);
            match tx.resume(&mut f, t).expect("resume") {
                ChannelSend::Sent(at) => t = at,
                ChannelSend::Blocked { at, .. } => t = at + Nanos(1_000),
            }
        }
        assert_eq!(got.expect("message completes"), msg);
        assert!(!tx.has_pending());
    }

    #[test]
    fn bidirectional_channels_are_independent() {
        let mut f = Fabric::new(PodConfig::new(2, 2, 2));
        let ch = Channel::allocate(&mut f, HostId(0), HostId(1), 8).expect("alloc");
        let (mut atx, mut arx) = (ch.ab.0, ch.ab.1);
        let (mut btx, mut brx) = (ch.ba.0, ch.ba.1);
        let t1 = match atx.send(&mut f, Nanos(0), b"fwd").expect("send") {
            ChannelSend::Sent(t) => t,
            ChannelSend::Blocked { .. } => panic!(),
        };
        let t2 = match btx.send(&mut f, Nanos(0), b"rev").expect("send") {
            ChannelSend::Sent(t) => t,
            ChannelSend::Blocked { .. } => panic!(),
        };
        let (m1, _) = arx
            .poll_until(&mut f, t1, t1 + Nanos(10_000))
            .expect("poll")
            .expect("fwd");
        let (m2, _) = brx
            .poll_until(&mut f, t2, t2 + Nanos(10_000))
            .expect("poll")
            .expect("rev");
        assert_eq!(m1, b"fwd");
        assert_eq!(m2, b"rev");
    }

    /// NT-stores raw slot `m` of the ring at `base`: sequence number
    /// `m + 1`, ring length `ring_len`, then `body` (the fragment header
    /// onward).
    fn write_slot(f: &mut Fabric, base: u64, m: u64, ring_len: u16, body: &[u8]) -> Nanos {
        let mut slot = [0u8; 64];
        slot[0..8].copy_from_slice(&(m + 1).to_le_bytes());
        slot[8..10].copy_from_slice(&ring_len.to_le_bytes());
        slot[10..10 + body.len()].copy_from_slice(body);
        f.nt_store(Nanos(0), HostId(0), base + m * 64, &slot)
            .expect("store")
    }

    #[test]
    fn malformed_fragment_is_dropped_and_counted() {
        let mut f = Fabric::new(PodConfig::new(2, 2, 2));
        let ch = Channel::allocate(&mut f, HostId(0), HostId(1), 8).expect("alloc");
        let base = f.segment(ch.segments.0).expect("live").base();
        let mut rx = ch.ab.1;
        // A first fragment that leaves a partial message behind...
        let mut first = vec![1u8, FRAG_PAYLOAD as u8];
        first.extend_from_slice(&[7u8; FRAG_PAYLOAD]);
        write_slot(&mut f, base, 0, SLOT_PAYLOAD as u16, &first);
        // ...a fragment whose length overruns its slot (valid sequence
        // number, so the ring delivers it)...
        write_slot(&mut f, base, 1, SLOT_PAYLOAD as u16, &[0, 200]);
        // ...one too short to hold a header, then a good message.
        write_slot(&mut f, base, 2, 1, &[0]);
        write_slot(&mut f, base, 3, 4, &[0, 2, b'o', b'k']);
        let mut t = Nanos(10_000);
        let mut got = Vec::new();
        for _ in 0..4 {
            match rx.poll(&mut f, t).expect("poll") {
                PollOutcome::Msg { data, at } => {
                    got.push(data);
                    t = at;
                }
                PollOutcome::Empty(at) => t = at,
            }
        }
        assert_eq!(rx.stats().malformed, 2);
        assert_eq!(
            got,
            vec![b"ok".to_vec()],
            "the partial message died with its bad fragment"
        );
    }

    #[test]
    fn skipped_polls_land_the_writes_they_would_have_read_past() {
        let mut f = Fabric::new(PodConfig::new(2, 2, 2));
        let ch = Channel::allocate(&mut f, HostId(0), HostId(1), 8).expect("alloc");
        let other = f.segment(ch.segments.1).expect("live").base();
        let (mut tx, idle_rx) = (ch.ba.0, ch.ab.1);
        let v = match tx.send(&mut f, Nanos(0), b"x").expect("send") {
            ChannelSend::Sent(v) => v,
            ChannelSend::Blocked { .. } => panic!("blocked"),
        };
        // Skipping one poll that samples before v lands nothing...
        let t = skip_idle_passes(&mut f, Nanos(0), Nanos(1), [&idle_rx]);
        assert!(f.in_flight(other, v));
        // ...while skipping past v lands the store, as a busy poll's
        // own load would have.
        let t = skip_idle_passes(&mut f, t, v + Nanos(5_000), [&idle_rx]);
        assert!(t >= v + Nanos(5_000));
        assert!(!f.in_flight(other, v));
    }

    #[test]
    #[should_panic(expected = "resume")]
    fn new_send_while_pending_panics() {
        let (mut f, mut tx, _rx) = setup(4);
        let msg = vec![1u8; 8 * FRAG_PAYLOAD];
        match tx.send(&mut f, Nanos(0), &msg).expect("send") {
            ChannelSend::Blocked { .. } => {}
            ChannelSend::Sent(_) => panic!("should block"),
        }
        let _ = tx.send(&mut f, Nanos(1_000_000), b"new");
    }
}
