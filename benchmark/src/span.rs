//! Spans recorded by the benchmark around its calls into the program's
//! public functions. Kept in memory, written out when the run ends.
//!
//! A span covers one call or one batch of calls (`count` says how many) and
//! names the span that caused it, so `run -> workload -> round -> batch`
//! nest. Nothing inside the program is instrumented: a layer's self time is
//! the span of its stack prefix minus the span of the prefix beneath it.

use std::time::Instant;

use crate::alloc::{counted, AllocCount};
use crate::json::Json;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The enclosing span, `None` for the root.
    pub parent: Option<u32>,
    /// The public function (or benchmark phase) the span wraps.
    pub name: &'static str,
    /// What it was called on: a stack, a rung, a workload.
    pub label: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls the span covers.
    pub count: u64,
    /// Allocations made inside the span while the allocator was armed.
    pub alloc: AllocCount,
}

/// The span recorder. Disabled (the untraced run), [`Tracer::span`] is a
/// plain call of its closure.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span `name`/`label` covering `count` calls.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        label: &'static str,
        count: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let alloc0 = counted();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            label,
            start_ns,
            end_ns: start_ns,
            count,
            alloc: AllocCount::default(),
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.alloc = counted().since(alloc0);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace as a JSON array, one object per span in start order.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::from(u64::from(s.id))),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::from(u64::from(p))),
                        ),
                        ("name", Json::from(format!("{}/{}", s.name, s.label))),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                        ("count", Json::from(s.count)),
                        ("allocs", Json::from(s.alloc.allocs)),
                        ("alloc_bytes", Json::from(s.alloc.bytes)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_their_parent() {
        let mut tr = Tracer::new(true);
        let got = tr.span("run", "t", 1, |tr| {
            tr.span("round", "t", 10, |tr| tr.span("batch", "a", 5, |_| 7))
                + tr.span("round", "t", 10, |_| 1)
        });
        assert_eq!(got, 8);
        let s = tr.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].parent, Some(0), "siblings share the parent");
        assert_eq!((s[2].name, s[2].label, s[2].count), ("batch", "a", 5));
        for sp in s {
            assert!(sp.end_ns >= sp.start_ns);
        }
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("run", "t", 1, |tr| tr.span("x", "y", 1, |_| 3)), 3);
        assert!(tr.spans().is_empty());
    }
}
