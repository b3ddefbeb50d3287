//! The event queue and run loop, plus the wall-clock DES
//! self-profiler ([`Profiler`]).
//!
//! The [`Scheduler`] is a binary heap over `(time, insertion seq)`.
//! Its only users (the Fig 2 churn and Fig 3 UDP experiments) keep at
//! most a few thousand events pending, where a heap is as fast as any
//! bucketed queue; see `docs/PERFORMANCE.md` §2 for the measurements.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::collections::BinaryHeap;
use std::time::Duration;

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

/// Wall-clock DES self-profiler: how fast is the simulator itself?
///
/// Per subsystem (a caller-chosen phase or component name) it records
/// events dispatched, simulated nanoseconds covered, and wall-clock
/// time burned — sampled **outside** simulated time, so determinism is
/// untouched: a profiled run and an unprofiled run produce bit-identical
/// simulated results. The derived rates (events/wall-s,
/// simulated-ns/wall-s) are the baseline and regression gate for the
/// ROADMAP's sharded-DES work; `bench workload` lands them in
/// `BENCH_workload.json` as `sim_rate`.
///
/// This type is the sanctioned home of `Instant::now` in simulation
/// crates — wall clock *is* the measurement target here. simlint's
/// wall-clock allowlist self-check pins the number of such sites.
pub struct Profiler {
    rows: BTreeMap<&'static str, ProfRow>,
    started: std::time::Instant,
}

/// Accumulated totals for one profiled subsystem.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProfRow {
    /// Wall-clock time spent inside [`Profiler::measure`] calls.
    pub wall: Duration,
    /// Events (or operations) attributed via [`Profiler::add_events`].
    pub events: u64,
    /// Simulated time covered, attributed via [`Profiler::add_sim`].
    pub sim: Nanos,
}

/// One rendered row of a [`ProfilerReport`].
#[derive(Clone, Debug)]
pub struct ProfiledSubsystem {
    /// Subsystem name.
    pub name: &'static str,
    /// Events dispatched.
    pub events: u64,
    /// Wall-clock nanoseconds burned.
    pub wall_ns: u64,
    /// Simulated nanoseconds covered.
    pub sim_ns: u64,
    /// Events per wall-clock second.
    pub events_per_wall_s: f64,
    /// Simulated nanoseconds per wall-clock second (the DES "speed of
    /// light": 1e9 means real time).
    pub sim_ns_per_wall_s: f64,
}

/// Totals + per-subsystem rows from a [`Profiler`], sorted by name.
#[derive(Clone, Debug)]
pub struct ProfilerReport {
    /// Per-subsystem rows, sorted by subsystem name.
    pub rows: Vec<ProfiledSubsystem>,
    /// Total wall-clock nanoseconds since [`Profiler::start`].
    pub wall_ns: u64,
    /// Total events across subsystems.
    pub events: u64,
    /// Total simulated nanoseconds across subsystems.
    pub sim_ns: u64,
    /// Total events per wall-clock second.
    pub events_per_wall_s: f64,
    /// Total simulated nanoseconds per wall-clock second.
    pub sim_ns_per_wall_s: f64,
}

impl Profiler {
    /// Starts profiling; the wall clock runs from here.
    pub fn start() -> Profiler {
        Profiler {
            rows: BTreeMap::new(),
            // simlint: allow(wall-clock) -- DES self-profiler: wall clock is the measurement target, sampled outside simulated time
            started: std::time::Instant::now(),
        }
    }

    /// Runs `f`, charging its wall-clock time to `subsystem`.
    pub fn measure<R>(&mut self, subsystem: &'static str, f: impl FnOnce() -> R) -> R {
        // simlint: allow(wall-clock) -- DES self-profiler: wall clock is the measurement target, sampled outside simulated time
        let t0 = std::time::Instant::now();
        let r = f();
        let elapsed = t0.elapsed();
        self.rows.entry(subsystem).or_default().wall += elapsed;
        r
    }

    /// Attributes `n` dispatched events (or completed operations) to
    /// `subsystem`.
    pub fn add_events(&mut self, subsystem: &'static str, n: u64) {
        self.rows.entry(subsystem).or_default().events += n;
    }

    /// Attributes `d` of simulated-time coverage to `subsystem`.
    pub fn add_sim(&mut self, subsystem: &'static str, d: Nanos) {
        self.rows.entry(subsystem).or_default().sim += d;
    }

    /// Raw accumulated rows, sorted by subsystem name.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &ProfRow)> {
        self.rows.iter().map(|(&k, v)| (k, v))
    }

    /// Renders the report: per-subsystem rates plus totals. Zero wall
    /// time clamps to 1 ns so rates stay finite (and strictly positive
    /// whenever any simulated time was covered).
    pub fn report(&self) -> ProfilerReport {
        let per_s = |n: f64, wall_ns: u64| n * 1e9 / wall_ns.max(1) as f64;
        let rows: Vec<ProfiledSubsystem> = self
            .rows
            .iter()
            .map(|(&name, r)| {
                let wall_ns = r.wall.as_nanos().min(u128::from(u64::MAX)) as u64;
                ProfiledSubsystem {
                    name,
                    events: r.events,
                    wall_ns,
                    sim_ns: r.sim.as_nanos(),
                    events_per_wall_s: per_s(r.events as f64, wall_ns),
                    sim_ns_per_wall_s: per_s(r.sim.as_nanos() as f64, wall_ns),
                }
            })
            .collect();
        let wall_ns = self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let events: u64 = rows.iter().map(|r| r.events).sum();
        let sim_ns: u64 = rows.iter().map(|r| r.sim_ns).sum();
        ProfilerReport {
            rows,
            wall_ns,
            events,
            sim_ns,
            events_per_wall_s: per_s(events as f64, wall_ns),
            sim_ns_per_wall_s: per_s(sim_ns as f64, wall_ns),
        }
    }
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

    #[test]
    fn profiler_accumulates_and_reports() {
        let mut p = Profiler::start();
        let v = p.measure("pump", || 40 + 2);
        assert_eq!(v, 42);
        p.add_events("pump", 10);
        p.add_sim("pump", Nanos::from_millis(5));
        p.add_events("search", 1);
        let rep = p.report();
        assert_eq!(rep.rows.len(), 2);
        // BTreeMap order: "pump" < "search".
        assert_eq!(rep.rows[0].name, "pump");
        assert_eq!(rep.rows[0].events, 10);
        assert_eq!(rep.rows[0].sim_ns, 5_000_000);
        assert_eq!(rep.events, 11);
        assert_eq!(rep.sim_ns, 5_000_000);
        assert!(rep.wall_ns > 0);
        assert!(rep.sim_ns_per_wall_s > 0.0);
        assert!(rep.events_per_wall_s > 0.0);
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
