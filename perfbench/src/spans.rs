//! In-memory span recorder for the traced run.
//!
//! Spans are taken from the benchmark's own code around each public call
//! into the program (no spans inside the program). Each span records a
//! name, start, end and parent; all spans of one run share a run id. A
//! span's self time is its duration minus the durations of its children.
//! Spans stay in memory until the run ends and are then written out once.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans while `on`; when off, [`Tracer::time`] only
/// measures the duration it returns.
pub struct Tracer {
    run_id: u64,
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(run_id: u64, on: bool) -> Self {
        Self {
            run_id,
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off; returns the previous state.
    pub fn set_on(&mut self, on: bool) -> bool {
        std::mem::replace(&mut self.on, on)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one (no-op when off).
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            let top = self.open.pop();
            assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span and returns its result with its wall time in
    /// seconds (measured whether or not spans are recorded).
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let id = self.enter(name);
        let start = Instant::now();
        let r = f(self);
        let secs = start.elapsed().as_secs_f64();
        self.exit(id);
        (r, secs)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the children's durations.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(s, c)| s.duration_ns().saturating_sub(*c))
            .collect()
    }

    /// Self time in seconds per span name, summed over the subtree rooted
    /// at span `root` (the root itself included).
    pub fn self_seconds_by_name(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let self_ns = self.self_times_ns();
        let mut inside = vec![false; self.spans.len()];
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            // Parents precede children, so one forward sweep marks the subtree.
            inside[i] = i == root || s.parent.is_some_and(|p| inside[p]);
            if inside[i] {
                *out.entry(s.name).or_insert(0.0) += self_ns[i] as f64 / 1e9;
            }
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":{},\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                self.run_id, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(1, true);
        let root = tr.enter("root");
        tr.time("a", |tr| {
            tr.time("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        tr.exit(root);
        let by_name = tr.self_seconds_by_name(0);
        let total: f64 = by_name.values().sum();
        let wall = tr.spans()[0].duration_ns() as f64 / 1e9;
        assert!((total - wall).abs() < 1e-9);
        assert!(by_name["b"] >= 0.002);
        assert!(by_name["a"] < by_name["b"]);
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut tr = Tracer::new(1, false);
        let ((), secs) = tr.time("x", |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(secs >= 0.001);
        assert!(tr.spans().is_empty());
    }
}
