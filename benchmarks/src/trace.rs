//! Spans around the adapter calls, recorded from the benchmark's side.
//!
//! Every timed call goes through [`Spans::begin`] / [`Spans::end`] in both
//! modes, so the untraced and traced runs execute the same replayer code;
//! the traced run additionally keeps each span (name, start, end, parent,
//! round) in memory and writes them out as Chrome trace events at exit.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub round: u32,
}

/// A span in flight; hand it back to [`Spans::end`].
#[must_use]
pub struct Open {
    kept: Option<u32>,
    start: Instant,
}

pub struct Spans {
    keep: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the kept spans currently open, innermost last.
    stack: Vec<u32>,
}

impl Spans {
    pub fn new(keep: bool) -> Self {
        Self { keep, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    pub fn begin(&mut self, name: &'static str, round: u32) -> Open {
        let start = Instant::now();
        let kept = self.keep.then(|| {
            let idx = self.spans.len() as u32;
            let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
            let start_ns = (start - self.origin).as_nanos() as u64;
            self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, round });
            self.stack.push(idx);
            idx
        });
        Open { kept, start }
    }

    /// Closes the span and returns its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let elapsed = open.start.elapsed();
        if let Some(idx) = open.kept {
            let span = &mut self.spans[idx as usize];
            span.end_ns = span.start_ns + elapsed.as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
        elapsed
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The kept spans in Chrome trace-event format (complete "X" events
    /// on one thread track), loadable in Perfetto.
    pub fn chrome_json(&self, process: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 128 + 256);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{{\"name\":\"{process}\"}}}}"
        );
        for (idx, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                NO_PARENT => "null".to_string(),
                p => p.to_string(),
            };
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{idx},\"parent\":{parent},\"round\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.round
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
    fn untraced_spans_time_but_keep_nothing() {
        let mut spans = Spans::new(false);
        let open = spans.begin("tick", 0);
        assert!(spans.end(open) < Duration::from_secs(1));
        assert_eq!(spans.len(), 0);
    }

    #[test]
    fn traced_spans_nest_under_the_open_parent() {
        let mut spans = Spans::new(true);
        let hour = spans.begin("hour", 3);
        let tick = spans.begin("ingest_tick", 3);
        spans.end(tick);
        let round = spans.begin("round", 3);
        let inner = spans.begin("update_clusters", 3);
        spans.end(inner);
        spans.end(round);
        spans.end(hour);
        let parents: Vec<u32> = spans.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 0, 2]);
        assert!(spans.spans.iter().all(|s| s.end_ns >= s.start_ns && s.round == 3));
        let outer = spans.spans[0];
        assert!(spans.spans[1..].iter().all(|s| s.start_ns >= outer.start_ns));
    }

    #[test]
    fn chrome_export_lists_every_span() {
        let mut spans = Spans::new(true);
        let a = spans.begin("hour", 0);
        let b = spans.begin("round", 0);
        spans.end(b);
        spans.end(a);
        let text = spans.chrome_json("unit");
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert!(text.contains("\"name\":\"round\"") && text.contains("\"parent\":0"));
        assert!(text.trim_end().ends_with("]}"));
    }
}
