//! The benchmark's own spans, recorded around its calls into the engine.
//!
//! Spans are kept in memory and written out when the workload ends. A
//! disabled tracer records nothing but still times, so the traced and the
//! untraced run share every line of measuring code.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// The batch index the span belongs to, or -1.
    pub op: i64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` as a child span of the innermost open span and return its
    /// result with its wall time.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: i64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        if !self.enabled {
            let t0 = Instant::now();
            let out = f(self);
            return (out, t0.elapsed());
        }
        let id = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            op,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        let wall = start.elapsed();
        self.open.pop();
        self.spans[id].end_ns = self.spans[id].start_ns + wall.as_nanos() as u64;
        (out, wall)
    }

    /// After a panic unwound through open spans: close them where the
    /// panic left them, so the spans recorded so far stay a tree.
    pub fn close_all(&mut self) {
        let now = self.origin.elapsed().as_nanos() as u64;
        for id in self.open.drain(..) {
            self.spans[id].end_ns = now;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part its child spans cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Total wall time of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    pub fn to_json(&self, workload: &str) -> String {
        let own = self.self_times_ns();
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(out, "{{\"workload\": \"{workload}\", \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"op\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.id, s.name, s.op, s.start_ns, s.end_ns, own[i]
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_times_sum_to_the_root() {
        let mut t = Tracer::new(true);
        t.span("root", -1, |t| {
            t.span("a", 0, |t| {
                t.span("a1", 0, |_| std::thread::sleep(Duration::from_millis(2)));
            });
            t.span("b", 1, |_| std::thread::sleep(Duration::from_millis(1)));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        for s in spans {
            if let Some(p) = s.parent {
                assert!(spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns);
            }
        }
        let own: u64 = t.self_times_ns().iter().sum();
        assert_eq!(own, spans[0].duration_ns());
    }

    #[test]
    fn a_disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let ((), wall) = t.span("x", -1, |_| std::thread::sleep(Duration::from_millis(1)));
        assert!(wall >= Duration::from_millis(1));
        assert!(t.spans().is_empty());
    }
}
