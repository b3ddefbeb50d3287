//! The traced run's own spans: one per call into a layer's public
//! entry point, kept in memory and written once when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are host ns since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called, e.g. `Engine::run`.
    pub name: &'static str,
    /// Start, host ns.
    pub start: u64,
    /// End, host ns (equal to `start` while open).
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Span recorder for one benchmark run.
pub struct Spans {
    t0: Instant,
    run: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals from [`Spans::self_times`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times (duration minus the time their child
    /// spans cover), ns.
    pub self_ns: u64,
}

impl Spans {
    /// A recorder whose spans all carry run id `run`.
    pub fn new(run: String) -> Spans {
        Spans {
            t0: Instant::now(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn exit(&mut self) -> u64 {
        let end = self.now();
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end = end;
        end - self.spans[i].start
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in ns.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        self.enter(name);
        let r = f();
        (r, self.exit())
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Totals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end - s.start;
            let covered = covered_ns(&mut children[i], s.start, s.end);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur - covered;
        }
        out
    }

    /// The spans as one JSON document (`podbench-spans/v1`).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"schema\":\"podbench-spans/v1\",\"run\":\"{}\",\"spans\":[",
            self.run
        );
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":\"{}\"}}",
                sp.name, sp.start, sp.end, self.run
            );
        }
        s.push_str("]}\n");
        s
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered_ns(&mut [(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered_ns(&mut [(50, 150)], 0, 100), 50);
        assert_eq!(covered_ns(&mut [], 0, 100), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut sp = Spans::new("t".into());
        sp.enter("outer");
        sp.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        sp.exit();
        let t = sp.self_times();
        let (outer, inner) = (t["outer"], t["inner"]);
        assert_eq!((outer.count, inner.count), (1, 1));
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(sp.spans()[1].parent, Some(0));
        assert!(sp.to_json().contains("\"name\":\"inner\""));
    }
}
