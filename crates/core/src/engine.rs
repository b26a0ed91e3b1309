//! The unified engine layer: one execution trait and one work-counter type
//! shared by every index family.
//!
//! The paper's claims are comparative — BEE vs BRE vs VA-file vs the tree
//! baselines, under both missing-data semantics — so every access method
//! answers the same queries through the same surface: [`AccessMethod`].
//! Costs are reported in one [`WorkCounters`] struct, spelled the same in
//! every crate: each family fills the fields that describe its physical
//! work and leaves the rest at zero.

use crate::{Answer, RangeQuery, Result, RowSet};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, AddAssign};

/// Work performed while answering one query, across every index family.
///
/// Each family fills the counters that describe its physical work and
/// leaves the rest at zero; [`WorkCounters::words_processed`] is the common
/// currency (64-bit words touched) that makes families comparable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Bitmaps read from the index (bitmap families; the paper's primary
    /// §6 cost metric).
    pub bitmaps_accessed: usize,
    /// Logical bitmap operations performed (AND/OR/XOR/NOT).
    pub logical_ops: usize,
    /// 64-bit words touched — bitmap words read, approximation bits
    /// scanned, or raw cells compared, normalized to words.
    pub words_processed: usize,
    /// Tree nodes visited (R-tree, B+-tree families).
    pub nodes_visited: usize,
    /// Entries scanned inside visited nodes or pages.
    pub entries_scanned: usize,
    /// Rewritten subqueries executed (the 2^k expansion of the R-tree and
    /// bitstring baselines, MOSAIC's per-attribute lookups).
    pub subqueries: usize,
    /// Row-id set unions/intersections between subquery results.
    pub set_ops: usize,
    /// Approximation fields read during a VA-file filter scan.
    pub approx_fields_read: usize,
    /// Candidate rows surviving the filter step (VA families).
    pub candidates: usize,
    /// Candidate rows re-checked against the base data.
    pub rows_refined: usize,
    /// Refined candidates that turned out not to match.
    pub false_positives: usize,
    /// Array-shaped containers touched (adaptive bitmap backend).
    pub containers_array: usize,
    /// Bitmap-shaped containers touched (adaptive bitmap backend).
    pub containers_bitmap: usize,
    /// Run-shaped containers touched (adaptive bitmap backend).
    pub containers_run: usize,
}

impl WorkCounters {
    /// Counter field names, in declaration order — the shared vocabulary
    /// between [`WorkCounters::fields`], [`WorkCounters::field_mut`], the
    /// `Display` table, and the span fields profiles attach.
    pub const FIELD_NAMES: [&'static str; 14] = [
        "bitmaps_accessed",
        "logical_ops",
        "words_processed",
        "nodes_visited",
        "entries_scanned",
        "subqueries",
        "set_ops",
        "approx_fields_read",
        "candidates",
        "rows_refined",
        "false_positives",
        "containers_array",
        "containers_bitmap",
        "containers_run",
    ];

    /// All counters at zero.
    pub fn zero() -> WorkCounters {
        WorkCounters::default()
    }

    /// Records one bitmap read.
    pub fn read_bitmap(&mut self) {
        self.bitmaps_accessed = self.bitmaps_accessed.saturating_add(1);
    }

    /// Records `n` bitmap reads.
    pub fn read_bitmaps(&mut self, n: usize) {
        self.bitmaps_accessed = self.bitmaps_accessed.saturating_add(n);
    }

    /// Records one logical bitmap operation.
    pub fn op(&mut self) {
        self.logical_ops = self.logical_ops.saturating_add(1);
    }

    /// Folds another counter set into this one, field by field. Partitioned
    /// execution gives each worker its own `WorkCounters`; because every
    /// field is a (saturating) sum, merging partials in any order reproduces
    /// the counters a sequential run would have reported — the
    /// associativity the parallel conformance tests assert.
    pub fn merge(&mut self, other: WorkCounters) {
        *self += other;
    }

    /// Counter values in [`WorkCounters::FIELD_NAMES`] order.
    pub fn fields(&self) -> [(&'static str, usize); 14] {
        [
            ("bitmaps_accessed", self.bitmaps_accessed),
            ("logical_ops", self.logical_ops),
            ("words_processed", self.words_processed),
            ("nodes_visited", self.nodes_visited),
            ("entries_scanned", self.entries_scanned),
            ("subqueries", self.subqueries),
            ("set_ops", self.set_ops),
            ("approx_fields_read", self.approx_fields_read),
            ("candidates", self.candidates),
            ("rows_refined", self.rows_refined),
            ("false_positives", self.false_positives),
            ("containers_array", self.containers_array),
            ("containers_bitmap", self.containers_bitmap),
            ("containers_run", self.containers_run),
        ]
    }

    /// Mutable access to a counter by its [`WorkCounters::FIELD_NAMES`]
    /// name; `None` for anything else. Lets profile readers rebuild a
    /// counter set from named span fields without a 14-arm match at every
    /// call site.
    pub fn field_mut(&mut self, name: &str) -> Option<&mut usize> {
        Some(match name {
            "bitmaps_accessed" => &mut self.bitmaps_accessed,
            "logical_ops" => &mut self.logical_ops,
            "words_processed" => &mut self.words_processed,
            "nodes_visited" => &mut self.nodes_visited,
            "entries_scanned" => &mut self.entries_scanned,
            "subqueries" => &mut self.subqueries,
            "set_ops" => &mut self.set_ops,
            "approx_fields_read" => &mut self.approx_fields_read,
            "candidates" => &mut self.candidates,
            "rows_refined" => &mut self.rows_refined,
            "false_positives" => &mut self.false_positives,
            "containers_array" => &mut self.containers_array,
            "containers_bitmap" => &mut self.containers_bitmap,
            "containers_run" => &mut self.containers_run,
            _ => return None,
        })
    }

    /// Rebuilds a counter set from `(name, value)` pairs, accumulating
    /// duplicates and ignoring names that are not counters (span fields
    /// like `attr` or `items` ride alongside counter deltas in profiles).
    pub fn from_fields<'n>(pairs: impl IntoIterator<Item = (&'n str, u64)>) -> WorkCounters {
        let mut c = WorkCounters::zero();
        for (name, value) in pairs {
            if let Some(f) = c.field_mut(name) {
                *f = f.saturating_add(usize::try_from(value).unwrap_or(usize::MAX));
            }
        }
        c
    }

    /// Aggregates a span tree into per-phase totals — `(span name, spans,
    /// total inclusive ns, counter deltas)` for every span name except
    /// `root`'s own span, by descending total time.
    ///
    /// Counter deltas are read with [`WorkCounters::from_fields`], so
    /// non-counter span fields (`shards`, `rows`, …) never pollute them.
    /// Aggregation layers re-record counters their children already
    /// carried (`db.shard` re-records its access method's span, for
    /// example), so a flat sum over-counts. Each span is therefore charged
    /// only its *self* delta — its own counter fields minus its direct
    /// children's — which puts every counted unit in exactly one phase and
    /// makes the phases sum back to the query's final counters. A child
    /// that carries no counters (a `pool.worker` chunk) passes up its own
    /// children's, so a fan-out between a span and the work it re-records
    /// hides none of it.
    pub fn phases(
        spans: &[ibis_obs::SpanRecord],
        root: u64,
    ) -> Vec<(String, u64, u64, WorkCounters)> {
        let own = |s: &ibis_obs::SpanRecord| {
            WorkCounters::from_fields(s.fields.iter().map(|(k, v)| (k.as_str(), *v)))
        };
        let mut children: BTreeMap<u64, Vec<&ibis_obs::SpanRecord>> = BTreeMap::new();
        for s in spans {
            children.entry(s.parent).or_default().push(s);
        }
        // What the direct children of span `id` carry, through those that
        // carry nothing.
        fn below(
            id: u64,
            children: &BTreeMap<u64, Vec<&ibis_obs::SpanRecord>>,
            own: &dyn Fn(&ibis_obs::SpanRecord) -> WorkCounters,
        ) -> WorkCounters {
            let mut sum = WorkCounters::zero();
            for c in children.get(&id).into_iter().flatten() {
                let carried = own(c);
                sum += if carried.is_zero() {
                    below(c.id, children, own)
                } else {
                    carried
                };
            }
            sum
        }
        let mut by_name: BTreeMap<&str, (u64, u64, WorkCounters)> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.id != root) {
            let children = below(s.id, &children, &own);
            let e = by_name.entry(s.name.as_str()).or_default();
            e.0 += 1;
            e.1 = e.1.saturating_add(s.elapsed_ns);
            e.2 += own(s).diff(&children);
        }
        let mut phases: Vec<_> = by_name
            .into_iter()
            .map(|(name, (spans, total_ns, work))| (name.to_string(), spans, total_ns, work))
            .collect();
        phases.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        phases
    }

    /// The work this counter set reports beyond `earlier`, field by field
    /// (saturating at zero, so a caller diffing snapshots from different
    /// queries never underflows). `earlier + diff == self` whenever
    /// `earlier` really is a prefix of `self`'s work.
    pub fn diff(&self, earlier: &WorkCounters) -> WorkCounters {
        WorkCounters {
            bitmaps_accessed: self
                .bitmaps_accessed
                .saturating_sub(earlier.bitmaps_accessed),
            logical_ops: self.logical_ops.saturating_sub(earlier.logical_ops),
            words_processed: self.words_processed.saturating_sub(earlier.words_processed),
            nodes_visited: self.nodes_visited.saturating_sub(earlier.nodes_visited),
            entries_scanned: self.entries_scanned.saturating_sub(earlier.entries_scanned),
            subqueries: self.subqueries.saturating_sub(earlier.subqueries),
            set_ops: self.set_ops.saturating_sub(earlier.set_ops),
            approx_fields_read: self
                .approx_fields_read
                .saturating_sub(earlier.approx_fields_read),
            candidates: self.candidates.saturating_sub(earlier.candidates),
            rows_refined: self.rows_refined.saturating_sub(earlier.rows_refined),
            false_positives: self.false_positives.saturating_sub(earlier.false_positives),
            containers_array: self
                .containers_array
                .saturating_sub(earlier.containers_array),
            containers_bitmap: self
                .containers_bitmap
                .saturating_sub(earlier.containers_bitmap),
            containers_run: self.containers_run.saturating_sub(earlier.containers_run),
        }
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == WorkCounters::zero()
    }

    /// Attaches every non-zero counter as a named field on `span`, the
    /// convention profiles use for per-phase counter deltas (a no-op when
    /// the recorder is disabled or the counters are all zero).
    pub fn record_into(&self, span: &mut ibis_obs::SpanGuard) {
        if !span.is_recording() {
            return;
        }
        for (name, value) in self.fields() {
            if value != 0 {
                span.add_field(name, value as u64);
            }
        }
    }
}

/// Aligned `name value` table of the non-zero counters (the whole table
/// when everything is zero reads `(no work recorded)`), shared by the CLI,
/// the bench report, and the oracle instead of three hand-rolled formats.
impl fmt::Display for WorkCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "  (no work recorded)");
        }
        let mut first = true;
        for (name, value) in self.fields() {
            if value == 0 {
                continue;
            }
            if !first {
                writeln!(f)?;
            }
            first = false;
            write!(f, "  {name:<20} {value:>14}")?;
        }
        Ok(())
    }
}

impl Add for WorkCounters {
    type Output = WorkCounters;

    fn add(mut self, rhs: WorkCounters) -> WorkCounters {
        self += rhs;
        self
    }
}

impl AddAssign for WorkCounters {
    /// Saturating, field-by-field: adversarial or synthetic workloads can
    /// legitimately drive per-worker partials near `usize::MAX`, and a
    /// merge must never panic in debug builds or wrap in release builds.
    fn add_assign(&mut self, rhs: WorkCounters) {
        self.bitmaps_accessed = self.bitmaps_accessed.saturating_add(rhs.bitmaps_accessed);
        self.logical_ops = self.logical_ops.saturating_add(rhs.logical_ops);
        self.words_processed = self.words_processed.saturating_add(rhs.words_processed);
        self.nodes_visited = self.nodes_visited.saturating_add(rhs.nodes_visited);
        self.entries_scanned = self.entries_scanned.saturating_add(rhs.entries_scanned);
        self.subqueries = self.subqueries.saturating_add(rhs.subqueries);
        self.set_ops = self.set_ops.saturating_add(rhs.set_ops);
        self.approx_fields_read = self
            .approx_fields_read
            .saturating_add(rhs.approx_fields_read);
        self.candidates = self.candidates.saturating_add(rhs.candidates);
        self.rows_refined = self.rows_refined.saturating_add(rhs.rows_refined);
        self.false_positives = self.false_positives.saturating_add(rhs.false_positives);
        self.containers_array = self.containers_array.saturating_add(rhs.containers_array);
        self.containers_bitmap = self.containers_bitmap.saturating_add(rhs.containers_bitmap);
        self.containers_run = self.containers_run.saturating_add(rhs.containers_run);
    }
}

/// One queryable index structure: the execution surface shared by the
/// bitmap encodings, the VA-files, the tree baselines, and the sequential
/// scan.
///
/// Required: [`AccessMethod::name`], [`AccessMethod::size_bytes`], and
/// [`AccessMethod::answer`] — the one execute a family implements, which
/// returns the rows in the form the family computed them (an [`Answer`]).
/// Every other form derives from it, so a family has one execution body;
/// specialized structures override the planner hooks and, where they can
/// do better, [`AccessMethod::execute_count_with_cost`] (the bitmap
/// families fuse their last AND with the popcount, never materializing the
/// final bitmap).
///
/// A minimal implementation — the semantic scan as an access method:
///
/// ```
/// use ibis_core::{scan, AccessMethod, Answer, Dataset, RangeQuery, Result, WorkCounters};
/// use std::sync::Arc;
///
/// struct TruthScan(Arc<Dataset>);
///
/// impl AccessMethod for TruthScan {
///     fn name(&self) -> &'static str {
///         "truth-scan"
///     }
///     fn size_bytes(&self) -> usize {
///         0 // scans store nothing beyond the data itself
///     }
///     fn answer(&self, query: &RangeQuery, _threads: usize) -> Result<(Answer, WorkCounters)> {
///         query.validate(&self.0)?;
///         let mut cost = WorkCounters::zero();
///         cost.entries_scanned = self.0.n_rows();
///         let rows = 0..self.0.n_rows();
///         Ok((Answer::Bits(scan::mask(&self.0, query, rows)), cost))
///     }
/// }
///
/// let d = Arc::new(ibis_core::gen::census_scaled(200, 7));
/// let m = TruthScan(Arc::clone(&d));
/// let q = RangeQuery::new(
///     vec![ibis_core::Predicate::point(0, 1)],
///     ibis_core::MissingPolicy::IsMatch,
/// )
/// .unwrap();
/// // The provided methods all follow from answer…
/// assert_eq!(m.execute(&q).unwrap(), scan::execute(&d, &q));
/// assert_eq!(m.execute_count(&q).unwrap(), m.execute(&q).unwrap().len());
/// // …including the thread-degree contract: same rows, same counters.
/// assert_eq!(
///     m.execute_with_cost_threads(&q, 8).unwrap(),
///     m.execute_with_cost(&q).unwrap(),
/// );
/// ```
pub trait AccessMethod: Send + Sync {
    /// Stable identifier used by the planner, `explain()` output, and
    /// experiment tables (e.g. `"bitmap-range"`).
    fn name(&self) -> &'static str;

    /// Heap bytes of the index structure — the paper's size metric.
    fn size_bytes(&self) -> usize;

    /// Answers `query` exactly, in the form the method computes it (a
    /// bit-vector or ascending ids, row `0` being the method's first row),
    /// and returns the work counters. Up to `threads` workers may split the
    /// work (the partitioned scans run one row slice per worker; degree 1
    /// is one slice). The contract, enforced by the conformance suite: for
    /// any `threads`, the rows answered and the counters returned are the
    /// same.
    fn answer(&self, query: &RangeQuery, threads: usize) -> Result<(Answer, WorkCounters)>;

    /// Whether this method can answer `query` at all. Most methods answer
    /// everything; the §4.2 rejected in-band encodings hard-wire one
    /// [`crate::MissingPolicy`] and decline the other.
    fn supports(&self, query: &RangeQuery) -> bool {
        let _ = query;
        true
    }

    /// Estimated time of answering `query` — the planner's ranking key
    /// (§6 generalized beyond BEE/BRE) — in one unit every family shares:
    /// the time the plain kernel spends on one 64-bit word. A bitmap index
    /// prices the containers its plan would read, a scan its cells at
    /// [`SCAN_CELL_PRICE`]. The default charges one unit per word of the
    /// whole structure; real families override it.
    fn estimated_cost(&self, query: &RangeQuery) -> f64 {
        let _ = query;
        self.size_bytes() as f64 / 8.0
    }

    /// Answers `query` exactly into a caller's buffer: appends the matching
    /// row ids, each plus `base`, ascending, after whatever `out` already
    /// holds, and returns the work counters of
    /// [`answer`](AccessMethod::answer). For any `threads` and `base`, the
    /// ids written and the counters returned are the same.
    fn execute_into(
        &self,
        query: &RangeQuery,
        threads: usize,
        base: u32,
        out: &mut Vec<u32>,
    ) -> Result<WorkCounters> {
        let (answer, cost) = self.answer(query, threads)?;
        answer.write_rows(base, out);
        Ok(cost)
    }

    /// Answers `query` exactly with up to `threads` workers, also reporting
    /// the work performed: [`AccessMethod::answer`] as a [`RowSet`]. Rows
    /// and counters are the same for any `threads`.
    fn execute_with_cost_threads(
        &self,
        query: &RangeQuery,
        threads: usize,
    ) -> Result<(RowSet, WorkCounters)> {
        let (answer, cost) = self.answer(query, threads)?;
        Ok((answer.into_rows(), cost))
    }

    /// Answers `query` exactly on the calling thread, also reporting the
    /// work performed.
    fn execute_with_cost(&self, query: &RangeQuery) -> Result<(RowSet, WorkCounters)> {
        self.execute_with_cost_threads(query, 1)
    }

    /// Answers `query` exactly.
    fn execute(&self, query: &RangeQuery) -> Result<RowSet> {
        Ok(self.execute_with_cost(query)?.0)
    }

    /// Counts matching rows — a `COUNT(*)` aggregation — on the calling
    /// thread, also reporting the work performed: the
    /// [`count`](Answer::count) of [`answer`](AccessMethod::answer), a
    /// popcount where the answer is a bit-vector. The bitmap families
    /// override it to fuse their last AND with the popcount.
    fn execute_count_with_cost(&self, query: &RangeQuery) -> Result<(usize, WorkCounters)> {
        let (answer, cost) = self.answer(query, 1)?;
        Ok((answer.count(), cost))
    }

    /// Counts matching rows.
    fn execute_count(&self, query: &RangeQuery) -> Result<usize> {
        Ok(self.execute_count_with_cost(query)?.0)
    }
}

/// What scanning one cell costs in the unit of
/// [`AccessMethod::estimated_cost`]: reading one row's value of one queried
/// attribute and testing it took 1.8 ns at k = 4 over 50,000 census rows
/// on a 2-vCPU Xeon VM, 11 times the plain kernel's 0.16 ns per word.
pub const SCAN_CELL_PRICE: f64 = 11.0;

/// Partitions a FIFO queue of queries into batches of *compatible* queries,
/// returning groups of indexes into `queries`.
///
/// Two queries are compatible when they share a [`crate::MissingPolicy`].
/// The grouping is greedy and order-preserving:
///
/// * the oldest unbatched query opens a batch and fixes its policy;
/// * every later query with the same policy joins, up to `max_batch`
///   (`0` is treated as `1` — no coalescing);
/// * queries of the other policy are never reordered *within* their own
///   policy class, so per-policy FIFO fairness is preserved.
///
/// Every index in `0..queries.len()` appears in exactly one batch. Nothing
/// in this workspace calls it: the grouping shares no work between the
/// queries of a batch (each still validates, plans and executes on its
/// own), and the network server answers its queue in arrival order
/// instead. It stays because the benchmark's `core.coalesce_us` probe
/// times it.
///
/// ```
/// use ibis_core::engine::coalesce_compatible;
/// use ibis_core::{MissingPolicy, Predicate, RangeQuery};
///
/// let q = |policy| RangeQuery::new(vec![Predicate::point(0, 1)], policy).unwrap();
/// let queue = vec![
///     q(MissingPolicy::IsMatch),
///     q(MissingPolicy::IsNotMatch),
///     q(MissingPolicy::IsMatch),
/// ];
/// let batches = coalesce_compatible(&queue, 8);
/// assert_eq!(batches, vec![vec![0, 2], vec![1]]);
/// ```
pub fn coalesce_compatible(queries: &[RangeQuery], max_batch: usize) -> Vec<Vec<usize>> {
    let max_batch = max_batch.max(1);
    let mut batches: Vec<Vec<usize>> = Vec::new();
    let mut batched = vec![false; queries.len()];
    for start in 0..queries.len() {
        if batched[start] {
            continue;
        }
        let policy = queries[start].policy();
        let mut batch = vec![start];
        batched[start] = true;
        for (later, seen) in batched.iter_mut().enumerate().skip(start + 1) {
            if batch.len() >= max_batch {
                break;
            }
            if !*seen && queries[later].policy() == policy {
                *seen = true;
                batch.push(later);
            }
        }
        batches.push(batch);
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Interval, MissingPolicy, Predicate};

    #[test]
    fn counters_accumulate_and_add() {
        let mut c = WorkCounters::zero();
        c.read_bitmap();
        c.read_bitmaps(2);
        c.op();
        assert_eq!(c.bitmaps_accessed, 3);
        assert_eq!(c.logical_ops, 1);

        let mut d = WorkCounters::zero();
        d.subqueries = 4;
        d.rows_refined = 7;
        let sum = c + d;
        assert_eq!(sum.bitmaps_accessed, 3);
        assert_eq!(sum.subqueries, 4);
        assert_eq!(sum.rows_refined, 7);

        let mut e = WorkCounters::zero();
        e += sum;
        e += sum;
        assert_eq!(e.logical_ops, 2);
    }

    /// A trivial in-memory method exercising every default implementation.
    struct Everything {
        n_rows: u32,
    }

    impl AccessMethod for Everything {
        fn name(&self) -> &'static str {
            "everything"
        }

        fn size_bytes(&self) -> usize {
            64
        }

        fn answer(&self, _query: &RangeQuery, _threads: usize) -> Result<(Answer, WorkCounters)> {
            let mut c = WorkCounters::zero();
            c.entries_scanned = self.n_rows as usize;
            let all = ibis_bitvec::BitVec64::ones(self.n_rows as usize);
            Ok((Answer::Bits(all), c))
        }
    }

    fn q(lo: u16, hi: u16) -> RangeQuery {
        RangeQuery::new(
            vec![Predicate {
                attr: 0,
                interval: Interval::new(lo, hi),
            }],
            MissingPolicy::IsMatch,
        )
        .unwrap()
    }

    #[test]
    fn provided_methods_derive_from_answer() {
        let m = Everything { n_rows: 9 };
        assert_eq!(m.execute(&q(1, 3)).unwrap(), RowSet::all(9));
        assert_eq!(m.execute_with_cost(&q(1, 3)).unwrap().1.entries_scanned, 9);
        assert_eq!(m.execute_count(&q(1, 3)).unwrap(), 9);
        assert!(m.supports(&q(1, 3)));
        assert_eq!(m.estimated_cost(&q(1, 3)), 8.0);
    }

    #[test]
    fn phases_see_through_spans_that_carry_no_counters() {
        // A shard re-records its VA scan, whose one chunk ran under a
        // `pool.worker` fan-out span that carries no counters.
        let span = |id, parent, name: &str, fields: &[(&str, u64)]| ibis_obs::SpanRecord {
            id,
            parent,
            name: name.into(),
            thread: 0,
            start_ns: 0,
            elapsed_ns: 1,
            fields: fields.iter().map(|&(k, v)| (k.into(), v)).collect(),
        };
        let carried = [("candidates", 5), ("words_processed", 2)];
        let spans = [
            span(1, 0, "query", &carried),
            span(2, 1, "db.shard", &carried),
            span(3, 2, "va.scan", &carried),
            span(4, 3, "pool.worker", &[("items", 1)]),
            span(5, 4, "va.chunk", &[("candidates", 5)]),
        ];
        let phases = WorkCounters::phases(&spans, 1);
        let mut sum = WorkCounters::zero();
        for (.., c) in &phases {
            sum += *c;
        }
        assert_eq!((sum.candidates, sum.words_processed), (5, 2));
        let self_of = |name: &str| phases.iter().find(|p| p.0 == name).unwrap().3;
        assert!(self_of("db.shard").is_zero());
        assert_eq!(self_of("va.scan").words_processed, 2);
        assert_eq!(self_of("va.chunk").candidates, 5);
    }

    #[test]
    fn trait_is_object_safe() {
        let boxed: Box<dyn AccessMethod> = Box::new(Everything { n_rows: 2 });
        assert_eq!(boxed.name(), "everything");
        assert_eq!(boxed.execute_count(&q(1, 1)).unwrap(), 2);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        // Every field at usize::MAX merged with itself: a wrapping add
        // would panic in debug builds and report garbage in release.
        let mut maxed = WorkCounters::zero();
        for name in WorkCounters::FIELD_NAMES {
            *maxed.field_mut(name).unwrap() = usize::MAX;
        }
        let mut merged = maxed;
        merged.merge(maxed);
        assert_eq!(merged, maxed);

        let mut c = maxed;
        c.read_bitmap();
        c.read_bitmaps(3);
        c.op();
        assert_eq!(c.bitmaps_accessed, usize::MAX);
        assert_eq!(c.logical_ops, usize::MAX);
        assert_eq!(c.words_processed, usize::MAX);
    }

    #[test]
    fn diff_inverts_merge() {
        let mut earlier = WorkCounters::zero();
        earlier.read_bitmaps(2);
        earlier.candidates = 10;
        let mut delta = WorkCounters::zero();
        delta.op();
        delta.candidates = 5;
        delta.rows_refined = 3;

        let total = earlier + delta;
        assert_eq!(total.diff(&earlier), delta);
        // Diffing in the wrong order clamps at zero instead of wrapping.
        assert_eq!(earlier.diff(&total), WorkCounters::zero());
    }

    #[test]
    fn display_is_an_aligned_table_of_nonzero_fields() {
        let mut c = WorkCounters::zero();
        c.read_bitmaps(12);
        c.words_processed = 4096;
        let text = c.to_string();
        assert_eq!(
            text,
            "  bitmaps_accessed                 12\n  words_processed                4096"
        );
        assert_eq!(WorkCounters::zero().to_string(), "  (no work recorded)");
    }

    #[test]
    fn fields_round_trip_through_names() {
        let mut c = WorkCounters::zero();
        for (i, name) in WorkCounters::FIELD_NAMES.iter().enumerate() {
            *c.field_mut(name).unwrap() = i + 1;
        }
        assert!(c.field_mut("not_a_counter").is_none());
        let pairs = c.fields();
        assert_eq!(pairs.len(), WorkCounters::FIELD_NAMES.len());
        let back = WorkCounters::from_fields(pairs.iter().map(|&(n, v)| (n, v as u64)));
        assert_eq!(back, c);
        // Unknown names are ignored, duplicates accumulate.
        let twice =
            WorkCounters::from_fields([("logical_ops", 2), ("attr", 9), ("logical_ops", 3)]);
        assert_eq!(twice.logical_ops, 5);
        assert_eq!(twice, {
            let mut w = WorkCounters::zero();
            w.logical_ops = 5;
            w
        });
    }

    #[test]
    fn merge_equals_add_assign() {
        let mut a = WorkCounters::zero();
        a.read_bitmaps(2);
        a.candidates = 5;
        let mut b = WorkCounters::zero();
        b.op();
        b.candidates = 3;
        let mut merged = a;
        merged.merge(b);
        assert_eq!(merged, a + b);
        assert_eq!(merged.candidates, 8);
    }

    #[test]
    fn threaded_defaults_match_sequential() {
        let m = Everything { n_rows: 31 };
        let query = q(1, 4);
        let (seq_rows, seq_cost) = m.execute_with_cost(&query).unwrap();
        for threads in [1, 2, 8] {
            let (rows, cost) = m.execute_with_cost_threads(&query, threads).unwrap();
            assert_eq!(rows, seq_rows);
            assert_eq!(cost, seq_cost);
            // Written into a buffer: after its prefix, shifted by the base.
            let mut out = vec![3, 5];
            assert_eq!(
                m.execute_into(&query, threads, 100, &mut out).unwrap(),
                seq_cost
            );
            assert_eq!(out[..2], [3, 5]);
            assert!(out[2..]
                .iter()
                .copied()
                .eq(seq_rows.iter().map(|r| r + 100)));
        }
    }

    fn qp(policy: MissingPolicy) -> RangeQuery {
        RangeQuery::new(vec![Predicate::point(0, 1)], policy).unwrap()
    }

    #[test]
    fn coalesce_groups_by_policy_preserving_fifo_order() {
        use MissingPolicy::{IsMatch as M, IsNotMatch as N};
        let queue: Vec<RangeQuery> = [M, N, M, N, N, M].into_iter().map(qp).collect();
        let batches = coalesce_compatible(&queue, 8);
        assert_eq!(batches, vec![vec![0, 2, 5], vec![1, 3, 4]]);
        // Every index exactly once.
        let mut all: Vec<usize> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..queue.len()).collect::<Vec<_>>());
    }

    #[test]
    fn coalesce_respects_max_batch_and_zero_means_one() {
        use MissingPolicy::IsMatch as M;
        let queue: Vec<RangeQuery> = std::iter::repeat_with(|| qp(M)).take(5).collect();
        let batches = coalesce_compatible(&queue, 2);
        assert_eq!(batches, vec![vec![0, 1], vec![2, 3], vec![4]]);
        let singles = coalesce_compatible(&queue, 0);
        assert_eq!(singles.len(), 5);
        assert!(singles.iter().all(|b| b.len() == 1));
        assert!(coalesce_compatible(&[], 4).is_empty());
    }
}
