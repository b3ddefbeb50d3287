//! The event queue and run loop.
//!
//! The [`Scheduler`] is a binary heap over `(time, insertion seq)`.
//! Its only users (the Fig 2 churn and Fig 3 UDP experiments) keep at
//! most a few thousand events pending, where a heap is as fast as any
//! bucketed queue; see `docs/PERFORMANCE.md` §1 for the measurements.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Nanos;

/// A simulation world: owns all mutable state and dispatches events.
///
/// Implementors define a domain-specific `Event` enum; the run loop pops
/// events in `(time, insertion order)` order and hands them to
/// [`World::handle`], which may schedule further events.
pub trait World {
    /// The domain-specific event type dispatched by this world.
    type Event;

    /// Handles one event at simulated time `now`.
    fn handle(&mut self, now: Nanos, ev: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// One queued event: fire time, insertion sequence, payload. The pair
/// `(at, seq)` is the queue's total order; `seq` is unique, so the
/// order has no ties.
struct Entry<E> {
    at: Nanos,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic future-event queue.
///
/// Events with equal timestamps are delivered in the order they were
/// scheduled (FIFO tie-break), which keeps simulations reproducible.
pub struct Scheduler<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: Nanos,
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at time zero.
    pub fn new() -> Scheduler<E> {
        Scheduler {
            heap: BinaryHeap::new(),
            seq: 0,
            now: Nanos::ZERO,
        }
    }

    /// Schedules `ev` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time:
    /// scheduling into the past would violate causality.
    pub fn schedule(&mut self, at: Nanos, ev: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at:?} < now {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, ev }));
    }

    /// The current simulation time (the timestamp of the event being
    /// dispatched, or of the last dispatched event).
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        let Reverse(e) = self.heap.pop()?;
        debug_assert!(e.at >= self.now, "event queue went backwards");
        self.now = e.at;
        Some((e.at, e.ev))
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler::new()
    }
}

/// Runs the world until the event queue drains or the next event would
/// fire after `until`. Returns the final simulation time (the timestamp
/// of the last dispatched event).
///
/// Events scheduled exactly at `until` are still dispatched.
pub fn run<W: World>(world: &mut W, sched: &mut Scheduler<W::Event>, until: Nanos) -> Nanos {
    let mut last = sched.now();
    while let Some(next) = sched.peek_time() {
        if next > until {
            break;
        }
        let (now, ev) = sched.pop().expect("peeked event must pop");
        world.handle(now, ev, sched);
        last = now;
    }
    last
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;

    struct Recorder {
        seen: Vec<u32>,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, _now: Nanos, ev: u32, _s: &mut Scheduler<u32>) {
            self.seen.push(ev);
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut w = Recorder { seen: vec![] };
        let mut s = Scheduler::new();
        s.schedule(Nanos(30), 3);
        s.schedule(Nanos(10), 1);
        s.schedule(Nanos(20), 2);
        run(&mut w, &mut s, Nanos::MAX);
        assert_eq!(w.seen, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_fire_fifo() {
        let mut w = Recorder { seen: vec![] };
        let mut s = Scheduler::new();
        for i in 0..100 {
            s.schedule(Nanos(5), i);
        }
        run(&mut w, &mut s, Nanos::MAX);
        assert_eq!(w.seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn run_respects_horizon() {
        let mut w = Recorder { seen: vec![] };
        let mut s = Scheduler::new();
        s.schedule(Nanos(10), 1);
        s.schedule(Nanos(20), 2);
        s.schedule(Nanos(21), 3);
        let end = run(&mut w, &mut s, Nanos(20));
        assert_eq!(w.seen, vec![1, 2]);
        assert_eq!(end, Nanos(20));
        assert_eq!(s.pop(), Some((Nanos(21), 3)));
        assert_eq!(s.pop(), None);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        struct Bad;
        impl World for Bad {
            type Event = ();
            fn handle(&mut self, now: Nanos, _: (), s: &mut Scheduler<()>) {
                s.schedule(now - Nanos(1), ());
            }
        }
        let mut s = Scheduler::new();
        s.schedule(Nanos(10), ());
        run(&mut Bad, &mut s, Nanos::MAX);
    }

    /// Drives a scheduler through a seeded workload of interleaved
    /// bursts of schedules and pops, checking every pop (and the final
    /// drain) against a model: the pending list stably sorted by time,
    /// so equal times come out in the order they were scheduled.
    fn differential(seed: u64, ops: usize, burst: u64, gap: impl Fn(&mut crate::rng::Rng) -> u64) {
        let mut rng = crate::rng::Rng::new(seed);
        let mut sched: Scheduler<u64> = Scheduler::new();
        // Kept stably sorted by time after every burst of schedules.
        let mut model: VecDeque<(Nanos, u64)> = VecDeque::new();
        let mut payload = 0u64;
        for _ in 0..ops {
            let r = rng.next_u64();
            if r % 100 < 60 || model.is_empty() {
                // Schedule 1..=burst events at (possibly equal) times
                // at or after the current clock.
                for _ in 0..1 + r % burst {
                    let at = Nanos(sched.now().0 + gap(&mut rng));
                    sched.schedule(at, payload);
                    model.push_back((at, payload));
                    payload += 1;
                }
                model.make_contiguous().sort_by_key(|&(at, _)| at);
            } else {
                assert_eq!(
                    sched.pop(),
                    model.pop_front(),
                    "divergent pop (seed {seed})"
                );
            }
            let next = model.front().map(|&(at, _)| at);
            assert_eq!(sched.peek_time(), next, "divergent peek (seed {seed})");
        }
        while let Some(want) = model.pop_front() {
            assert_eq!(sched.pop(), Some(want), "divergent drain (seed {seed})");
        }
        assert_eq!(sched.pop(), None);
    }

    #[test]
    fn pops_match_a_stable_sort_by_time() {
        // Dense ns-scale gaps with heavy same-time bursts.
        differential(1, 4_000, 8, |rng| rng.next_u64() % 50);
        // Sparse ms-scale gaps: ties are rare, order is by time alone.
        differential(2, 2_000, 2, |rng| rng.next_u64() % 5_000_000);
        // Gap magnitudes spanning 9 decades; the smallest decade is a
        // zero gap, so bursts also land on the current instant.
        differential(7, 3_000, 4, |rng| {
            let mag = 10u64.pow((rng.next_u64() % 9) as u32);
            rng.next_u64() % mag
        });
    }
}
