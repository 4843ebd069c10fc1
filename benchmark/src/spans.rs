//! The benchmark's own spans: kept in memory during the traced run and
//! written out as JSONL when it ends.
//!
//! A span has a name, a start, an end, the span that caused it, and the
//! identifier of the operation (one round, one restart, one steady pair,
//! the replay) all its spans share. A span's self time is its duration
//! minus its children's.

use crate::timed_face::CallTotal;
use obs::json::escape;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
struct Span {
    op: String,
    name: String,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

#[derive(Debug, Clone, PartialEq)]
struct Calls {
    parent: usize,
    name: String,
    total: CallTotal,
}

pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    calls: Vec<Calls>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            calls: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> Duration {
        t.saturating_duration_since(self.origin)
    }

    /// A span nothing caused: the whole of operation `op`.
    pub fn root(&mut self, op: &str, name: &str, start: Instant, end: Instant) -> usize {
        self.spans.push(Span {
            op: op.to_owned(),
            name: name.to_owned(),
            parent: None,
            start: self.at(start),
            end: self.at(end),
        });
        self.spans.len() - 1
    }

    pub fn child(&mut self, parent: usize, name: &str, start: Instant, end: Instant) -> usize {
        self.spans.push(Span {
            op: self.spans[parent].op.clone(),
            name: name.to_owned(),
            parent: Some(parent),
            start: self.at(start),
            end: self.at(end),
        });
        self.spans.len() - 1
    }

    /// A child whose edges are nanoseconds on another clock that started
    /// at `clock_origin` (the flight recorder's).
    pub fn child_ns(
        &mut self,
        parent: usize,
        name: &str,
        clock_origin: Instant,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.child(
            parent,
            name,
            clock_origin + Duration::from_nanos(start_ns),
            clock_origin + Duration::from_nanos(end_ns),
        )
    }

    /// Summed face calls of one class inside `parent`: too many to keep
    /// one span each, so the count and busy time are recorded instead.
    pub fn calls(&mut self, parent: usize, name: &str, total: CallTotal) {
        self.calls.push(Calls {
            parent,
            name: name.to_owned(),
            total,
        });
    }

    pub fn close(&mut self, id: usize, end: Instant) {
        self.spans[id].end = self.at(end);
    }

    fn self_time(&self, id: usize) -> Duration {
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end.saturating_sub(s.start))
            .sum();
        let own = self.spans[id].end.saturating_sub(self.spans[id].start);
        own.saturating_sub(children)
    }

    pub fn to_jsonl(&self) -> String {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"id\":{id},\"parent\":{parent},\"op\":\"{}\",\"name\":\"{}\",\
                 \"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                escape(&s.op),
                escape(&s.name),
                us(s.start),
                us(s.end),
                us(self.self_time(id)),
            );
        }
        for c in &self.calls {
            let _ = writeln!(
                out,
                "{{\"type\":\"calls\",\"parent\":{},\"op\":\"{}\",\"name\":\"{}\",\"calls\":{},\"busy_us\":{:.3}}}",
                c.parent,
                escape(&self.spans[c.parent].op),
                escape(&c.name),
                c.total.calls,
                us(c.total.busy),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::{parse, Json};

    #[test]
    fn self_time_is_span_minus_children() {
        let mut log = SpanLog::new();
        let t = log.origin;
        let ms = |n| t + Duration::from_millis(n);
        let root = log.root("round:3", "stall", ms(10), ms(110));
        log.child(root, "drain", ms(20), ms(50));
        log.child_ns(root, "image_write", ms(50), 0, 40_000_000);
        assert_eq!(log.self_time(root), Duration::from_millis(30));
        log.calls(
            root,
            "mpisim.p2p",
            CallTotal {
                calls: 7,
                busy: Duration::from_micros(70),
            },
        );
        let lines: Vec<Json> = log.to_jsonl().lines().map(|l| parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].get("op").and_then(Json::as_str), Some("round:3"));
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(lines[2].get("op").and_then(Json::as_str), Some("round:3"));
        assert_eq!(lines[3].get("calls").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn close_moves_the_end() {
        let mut log = SpanLog::new();
        let t = log.origin;
        let id = log.root("replay", "replay", t, t);
        log.close(id, t + Duration::from_millis(5));
        assert_eq!(log.self_time(id), Duration::from_millis(5));
    }
}
