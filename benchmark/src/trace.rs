//! The benchmark's own span recorder. Spans are recorded here, around the
//! calls in `layers.rs`, and never inside the crates under test; they stay
//! in memory until the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its recorder. [`NO_SPAN`] when tracing is off or the
/// span has no parent.
pub type SpanId = u32;
pub const NO_SPAN: SpanId = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Spans of one request share this identifier.
    pub request: u32,
}

/// One thread's span buffer. A disabled tracer reads no clock and records
/// nothing, so the untraced pass runs the same code as the traced one.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread, on the same clock and switch.
    pub fn sibling(&self) -> Tracer {
        Tracer {
            epoch: self.epoch,
            on: self.on,
            spans: Vec::new(),
        }
    }

    pub fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    #[inline]
    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u32) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let start_ns = self.ns_since_epoch(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    #[inline]
    pub fn close(&mut self, id: SpanId) {
        if id != NO_SPAN {
            self.spans[id as usize].end_ns = self.ns_since_epoch(Instant::now());
        }
    }

    /// Records a span whose ends were timed elsewhere (an open-loop request
    /// starts when it was due, on another thread than the one that ends it).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        request: u32,
    ) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns_since_epoch(start),
            end_ns: self.ns_since_epoch(end),
            parent,
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_SPAN {
                s.parent += base;
            }
            s
        }));
    }

    /// Parents every span that has none, and is not itself a `root`, to the
    /// `root` span of its request: spans recorded on another thread than
    /// their request's root are linked this way after the threads join.
    pub fn adopt_orphans(&mut self, root: &str) {
        let roots: BTreeMap<u32, SpanId> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(i, s)| (s.request, i as SpanId))
            .collect();
        for s in &mut self.spans {
            if s.parent == NO_SPAN && s.name != root {
                s.parent = roots.get(&s.request).copied().unwrap_or(NO_SPAN);
            }
        }
    }
}

/// Per-name totals of a finished trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of the interval the span's children cover.
    pub self_ns: u64,
}

/// Self time per span name. A child is clipped to its parent's interval, and
/// overlapping children (sends and receives on two threads) count once.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_SPAN {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for &(lo, hi) in kids.iter() {
            let lo = lo.max(reach);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
        }
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// Summed self time of every span ÷ summed duration of the `root` spans:
/// 1.0 when the trace accounts for all of the requests' time.
pub fn coverage(totals: &BTreeMap<&'static str, NameTotal>, root: &str) -> f64 {
    let all_self: u64 = totals.values().map(|t| t.self_ns).sum();
    let root_total = totals.get(root).map_or(0, |t| t.total_ns);
    if root_total == 0 {
        return 0.0;
    }
    all_self as f64 / root_total as f64
}

pub fn totals_json(totals: &BTreeMap<&'static str, NameTotal>) -> Json {
    Json::obj(totals.iter().map(|(name, t)| {
        (
            *name,
            Json::obj([
                ("count", Json::Num(t.count as f64)),
                ("total_us", Json::Num(t.total_ns as f64 / 1e3)),
                ("self_us", Json::Num(t.self_ns as f64 / 1e3)),
            ]),
        )
    }))
}

/// The spans as a JSON array, one object per span, `parent` as an index
/// into the array (`null` for roots).
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        if s.parent == NO_SPAN {
                            Json::Null
                        } else {
                            Json::Num(s.parent as f64)
                        },
                    ),
                    ("request", Json::Num(s.request as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId, request: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", 0, 100, NO_SPAN, 1),
            span("a", 10, 40, 0, 1),
            span("b", 30, 60, 0, 1),  // overlaps a: union is 10..60
            span("c", 90, 120, 0, 1), // clipped to 90..100
            span("leaf", 12, 20, 1, 1),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"].self_ns, 100 - 50 - 10);
        assert_eq!(t["a"].self_ns, 30 - 8);
        assert_eq!(t["leaf"].self_ns, 8);
        // 40 + 22 + 30 + 30 + 8 over the root's 100: the overlap of a and b
        // and the part of c outside its parent count twice.
        assert!((coverage(&t, "request") - 1.3).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.open("request", NO_SPAN, 0);
        tr.close(id);
        assert_eq!(id, NO_SPAN);
        assert!(tr.spans.is_empty());
    }

    #[test]
    fn orphans_join_their_request_root_after_absorb() {
        let mut main = Tracer::new(true);
        let mut other = main.sibling();
        let root = other.open("request", NO_SPAN, 7);
        let child = other.open("client.recv", root, 7);
        other.close(child);
        other.close(root);
        let orphan = main.open("client.send", NO_SPAN, 7);
        main.close(orphan);
        main.absorb(other);
        main.adopt_orphans("request");
        assert_eq!(main.spans[0].parent, 1); // client.send → request
        assert_eq!(main.spans[2].parent, 1); // client.recv kept its link
        assert_eq!(main.spans[1].parent, NO_SPAN);
    }
}
