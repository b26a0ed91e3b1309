//! Immutable snapshots of a recording: span records, metric values, and
//! their human (`Display`) and JSON representations.

use std::collections::BTreeMap;
use std::fmt;

use crate::hist::{bucket_upper, NUM_BUCKETS};
use crate::window::{WindowCounterSnapshot, WindowSnapshot};

/// One finished span as captured by [`crate::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Id of the parent span, 0 for roots.
    pub parent: u64,
    /// Static name the span was opened with, e.g. `"bitmap.fetch"`.
    pub name: String,
    /// Small dense id of the thread that recorded the span.
    pub thread: u64,
    /// Start time in nanoseconds since the process recording epoch.
    pub start_ns: u64,
    /// Monotonic wall time the span was open for.
    pub elapsed_ns: u64,
    /// Named values attached via [`crate::SpanGuard::add_field`], in
    /// insertion order (duplicate names accumulate).
    pub fields: Vec<(String, u64)>,
}

/// Frozen form of a [`crate::Histogram`]: exact count/min/max/sum plus the
/// sparse non-empty log-linear buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Smallest recorded sample (0 when empty).
    pub min: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
    /// `(bucket index, count)` for every non-empty bucket, ascending.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Value at quantile `q` in `[0, 1]`, within 12.5% relative error and
    /// clamped to the exact observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(bucket, count) in &self.buckets {
            seen = seen.saturating_add(count);
            if seen >= target {
                return bucket_upper(bucket as usize).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    pub(crate) fn is_valid(&self) -> bool {
        let mut prev = None;
        let mut total = 0u64;
        for &(b, c) in &self.buckets {
            if (b as usize) >= NUM_BUCKETS || c == 0 || prev.is_some_and(|p| b <= p) {
                return false;
            }
            total = total.saturating_add(c);
            prev = Some(b);
        }
        total == self.count
    }
}

/// Everything the recorder held at the moment [`crate::snapshot`] was
/// called. Comparable (`PartialEq`), renderable (`Display`), and
/// round-trippable through [`Snapshot::to_json`] / [`Snapshot::from_json`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Finished spans ordered by start time.
    pub spans: Vec<SpanRecord>,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name (always finite).
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Rolling windowed histograms by name (live buckets only).
    pub windows: BTreeMap<String, WindowSnapshot>,
    /// Rolling windowed counters by name (live buckets only).
    pub window_counters: BTreeMap<String, WindowCounterSnapshot>,
}

impl Snapshot {
    /// Ids of spans without a recorded parent, in start order.
    pub fn roots(&self) -> Vec<u64> {
        let have: std::collections::HashSet<u64> = self.spans.iter().map(|s| s.id).collect();
        self.spans
            .iter()
            .filter(|s| s.parent == 0 || !have.contains(&s.parent))
            .map(|s| s.id)
            .collect()
    }

    /// The span with the given id, if present.
    pub fn span(&self, id: u64) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// Restrict to the spans reachable from `root` (metrics are kept).
    /// Useful to isolate one query's trace out of a shared recording.
    pub fn subtree(&self, root: u64) -> Snapshot {
        let mut keep: std::collections::HashSet<u64> = std::collections::HashSet::new();
        keep.insert(root);
        // Spans are start-ordered, so parents generally precede children;
        // loop until closure to be safe about cross-thread timing skew.
        loop {
            let before = keep.len();
            for s in &self.spans {
                if keep.contains(&s.parent) {
                    keep.insert(s.id);
                }
            }
            if keep.len() == before {
                break;
            }
        }
        Snapshot {
            spans: self
                .spans
                .iter()
                .filter(|s| keep.contains(&s.id))
                .cloned()
                .collect(),
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
            windows: self.windows.clone(),
            window_counters: self.window_counters.clone(),
        }
    }

    fn children_of(&self, id: u64) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent == id).collect()
    }

    /// Render the tree under `root` with inclusive and exclusive times.
    /// Exclusive ("self") time is the span's elapsed time minus its
    /// children's; for cross-thread fan-out children overlap in wall time,
    /// so self time is clamped at zero.
    pub fn render_tree(&self, root: u64) -> String {
        let mut out = String::new();
        if let Some(s) = self.span(root) {
            self.render_node(&mut out, s, "", "", true);
        }
        out
    }

    fn render_node(
        &self,
        out: &mut String,
        s: &SpanRecord,
        lead: &str,
        child_lead: &str,
        _last: bool,
    ) {
        let kids = self.children_of(s.id);
        let kid_ns: u64 = kids.iter().map(|k| k.elapsed_ns).sum();
        let exclusive = s.elapsed_ns.saturating_sub(kid_ns);
        // Pad prefix + name together so the time columns stay aligned at
        // every depth (format width counts chars, so the box-drawing lead
        // contributes its visible width).
        let label = format!("{lead}{}", s.name);
        let mut line = format!(
            "{label:<28} {:>10}  (self {:>10})  [t{}]",
            fmt_ns(s.elapsed_ns),
            fmt_ns(exclusive),
            s.thread,
        );
        if !s.fields.is_empty() {
            let fields: Vec<String> = s.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
            line.push_str(&format!("  {{{}}}", fields.join(" ")));
        }
        line.push('\n');
        out.push_str(&line);
        let n = kids.len();
        for (i, k) in kids.into_iter().enumerate() {
            let last = i + 1 == n;
            let (tee, bar) = if last {
                ("└─ ", "   ")
            } else {
                ("├─ ", "│  ")
            };
            self.render_node(
                out,
                k,
                &format!("{child_lead}{tee}"),
                &format!("{child_lead}{bar}"),
                last,
            );
        }
    }

    /// Serialize to a single-line JSON document. The exact schema is stable
    /// and parsed back by [`Snapshot::from_json`].
    pub fn to_json(&self) -> String {
        crate::json::to_json(self)
    }

    /// Parse a document produced by [`Snapshot::to_json`].
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let snap = crate::json::from_json(text)?;
        for (name, h) in &snap.histograms {
            if !h.is_valid() {
                return Err(format!("histogram {name:?}: inconsistent buckets"));
            }
        }
        for (name, w) in &snap.windows {
            if !w.is_valid() {
                return Err(format!("window {name:?}: inconsistent buckets"));
            }
        }
        for (name, w) in &snap.window_counters {
            if !w.is_valid() {
                return Err(format!("window counter {name:?}: inconsistent buckets"));
            }
        }
        Ok(snap)
    }

    /// Export in Prometheus text exposition format (see `crate::prom`).
    pub fn to_prometheus(&self) -> String {
        crate::prom::to_prometheus(self)
    }
}

/// `1234` → `"1.23 µs"`, etc. Two significant decimals, fixed width-friendly.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (k, v) in &self.counters {
                writeln!(f, "  {k:<32} {v:>14}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "gauges:")?;
            for (k, v) in &self.gauges {
                writeln!(f, "  {k:<32} {v:>14.3}")?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(f, "histograms:")?;
            writeln!(
                f,
                "  {:<24} {:>8} {:>10} {:>10} {:>10} {:>10}",
                "name", "count", "p50", "p90", "p99", "max"
            )?;
            for (k, h) in &self.histograms {
                writeln!(
                    f,
                    "  {k:<24} {:>8} {:>10} {:>10} {:>10} {:>10}",
                    h.count,
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.max
                )?;
            }
        }
        if !self.windows.is_empty() {
            writeln!(f, "windows:")?;
            writeln!(
                f,
                "  {:<24} {:>8} {:>8} {:>10} {:>10} {:>10}",
                "name", "buckets", "count", "p50", "p99", "max"
            )?;
            for (k, w) in &self.windows {
                let m = w.merged();
                writeln!(
                    f,
                    "  {k:<24} {:>8} {:>8} {:>10} {:>10} {:>10}",
                    w.buckets.len(),
                    m.count,
                    m.p50(),
                    m.p99(),
                    m.max
                )?;
            }
        }
        if !self.window_counters.is_empty() {
            writeln!(f, "window counters:")?;
            for (k, w) in &self.window_counters {
                writeln!(
                    f,
                    "  {k:<32} {:>14}  ({:>10.1}/s)",
                    w.total(),
                    w.rate_per_sec()
                )?;
            }
        }
        if !self.spans.is_empty() {
            writeln!(f, "spans:")?;
            for root in self.roots() {
                f.write_str(&self.render_tree(root))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans_fixture() -> Snapshot {
        let mk = |id, parent, name: &str, start_ns, elapsed_ns| SpanRecord {
            id,
            parent,
            name: name.to_string(),
            thread: 0,
            start_ns,
            elapsed_ns,
            fields: vec![("rows".to_string(), id)],
        };
        Snapshot {
            spans: vec![
                mk(1, 0, "query", 0, 1000),
                mk(2, 1, "fetch", 10, 300),
                mk(3, 1, "fetch", 320, 200),
                mk(4, 3, "leaf", 330, 50),
                mk(5, 0, "other_root", 2000, 10),
            ],
            ..Snapshot::default()
        }
    }

    #[test]
    fn subtree_isolates_one_root() {
        let snap = spans_fixture();
        assert_eq!(snap.roots(), vec![1, 5]);
        let sub = snap.subtree(1);
        let ids: Vec<u64> = sub.spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4]);
    }

    #[test]
    fn tree_render_shows_inclusive_and_exclusive() {
        let snap = spans_fixture();
        let tree = snap.render_tree(1);
        assert!(tree.contains("query"), "{tree}");
        // query self = 1000 - (300 + 200) = 500ns
        assert!(tree.contains("(self     500 ns)"), "{tree}");
        assert!(tree.contains("├─ fetch"), "{tree}");
        assert!(tree.contains("└─ fetch"), "{tree}");
        assert!(tree.contains("   └─ leaf"), "{tree}");
        assert!(tree.contains("{rows=4}"), "{tree}");
    }
}
