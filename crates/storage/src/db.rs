//! The shard: one incomplete relation with its indexes, its planner and
//! its append delta — the bottom of the database's three layers.
//!
//! [`IncompleteDb`] owns everything one row range is made of: the indexed
//! base relation, the unindexed delta rows, the tombstones, the
//! access-method registry and the [`ShardSynopsis`] that brackets what the
//! rows can contain. It keeps them consistent inside its own
//! `insert`/`delete`/`compact`, and it reads and writes its half of the
//! snapshot image itself. The router above it ([`ShardedDb`], in
//! [`crate::sharded`]) lives in another module so that the compiler, not
//! convention, keeps it away from these fields; a monolithic database is
//! the one-shard case. The crate docs have the whole layering.
//!
//! Planning is the paper's §6 made executable. Every index family
//! implements the engine-layer [`AccessMethod`] trait, so the shard holds
//! one uniform registry and ranks it with a single rule: among the methods
//! that support the query's semantics, take the lowest
//! [`estimated_cost`](AccessMethod::estimated_cost) (a time, in the plain
//! kernel's time per 64-bit word: a bitmap index prices the containers of
//! the exact bitmaps its plan reads), breaking ties by smaller
//! [`size_bytes`](AccessMethod::size_bytes), then by registration order.
//! That generalizes the paper's conclusions instead of hard-coding them:
//!
//! * equality encoding is "optimal for point queries" — it reads
//!   `min(w, C−w) + 1` bitmaps, two for a point;
//! * range encoding "typically offers the best time performance" for range
//!   queries — ≤ 3 bitmaps per dimension regardless of width, and its
//!   dense thresholds are bitmap containers, the cheapest words to read;
//! * interval encoding, the default's range index, reads ≤ 3 bitmaps too
//!   (at most two windows plus `B_0`), each priced at its containers, and
//!   stores about half of range encoding's bitmaps;
//! * VA-files trade query time for by-far-the-smallest index, so they take
//!   over when no bitmap index is maintained;
//! * a bound [`SequentialScan`] is always registered last, so every query
//!   has a finite-cost path even with no indexes at all.
//!
//! The ranking runs once per query and yields the winner's *position* in
//! the registry: [`IncompleteDb::execute`] dispatches on it directly, and
//! [`IncompleteDb::explain`] renders the same pass as the decision table,
//! so what is explained is what runs. Each entry's name and size are
//! constants of the built index and are recorded when the registry is
//! built, not re-derived per query.
//!
//! Queries merge results from the unindexed *delta store* so rows can be
//! appended without rebuilding — the update scenario the paper raises when
//! it notes index size "becomes important as database updates become more
//! frequent". [`IncompleteDb::compact`] folds the delta back into the
//! indexes.

use ibis_baseline::SequentialScan;
use ibis_bitmap::{build_sorted, DecomposedBitmapIndex, RangeBitmapIndex};
use ibis_bitvec::{Adaptive, BitVec64};
use ibis_core::synopsis::ShardSynopsis;
use ibis_core::{
    scan, wire, AccessMethod, Cell, Dataset, RangeQuery, Result, RowSet, WorkCounters,
};
use ibis_vafile::{VaFile, VaPlusFile};
use std::sync::Arc;

pub use crate::sharded::{ShardExecution, ShardedDb};

/// Which indexes an [`IncompleteDb`] maintains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DbConfig {
    /// Maintain an equality-encoded bitmap index (point-query specialist).
    pub bee: bool,
    /// Maintain a range-encoded bitmap index (range-query specialist).
    pub bre: bool,
    /// Maintain an interval-encoded bitmap index (range encoding's reads at
    /// roughly half the storage).
    pub bie: bool,
    /// Maintain an attribute-value-decomposed bitmap index.
    pub decomposed: bool,
    /// Maintain a VA-file (smallest footprint).
    pub va: bool,
    /// Maintain a VA+-file (equi-depth bins for skewed data).
    pub vaplus: bool,
    /// Another name for [`bee`](DbConfig::bee): either flag registers the
    /// one equality index, never two. Set without `bee`, the index is
    /// listed as `"bitmap-adaptive"` rather than `"bitmap-equality"`. Both
    /// the flag and that label stay only because the repository's benchmark
    /// (`benchmark/src/layers.rs`) configures its compact database by the
    /// one and files its plans under the other.
    pub adaptive: bool,
}

impl Default for DbConfig {
    /// Equality and interval encoding: the planner's index for points and
    /// its index for ranges. Interval encoding answers any interval from at
    /// most two windows plus `B_0`, as the paper's §6 pair answers it from
    /// range encoding's thresholds, with about half their bitmaps, and both
    /// are built from one counting sort per column (DESIGN §8 has the
    /// rule that picked the pair). A VA-file is never cheaper than one of
    /// the two, so it is not built unless asked for (`va: true`, as
    /// [`DbConfig::compact_profile`] does).
    fn default() -> DbConfig {
        DbConfig {
            bee: true,
            bie: true,
            ..DbConfig::none()
        }
    }
}

impl DbConfig {
    /// No indexes at all: every query falls back to the registered
    /// sequential scan.
    pub fn none() -> DbConfig {
        DbConfig {
            bee: false,
            bre: false,
            bie: false,
            decomposed: false,
            va: false,
            vaplus: false,
            adaptive: false,
        }
    }

    /// Every index family the workspace offers.
    pub fn all() -> DbConfig {
        DbConfig {
            bee: true,
            bre: true,
            bie: true,
            decomposed: true,
            va: true,
            vaplus: true,
            adaptive: true,
        }
    }

    /// Memory-constrained profile: VA-file only (the paper's
    /// smallest-index regime).
    pub fn compact_profile() -> DbConfig {
        DbConfig {
            va: true,
            ..DbConfig::none()
        }
    }

    /// Packs the flags into one byte for the snapshot format.
    pub(crate) fn to_bits(self) -> u8 {
        u8::from(self.bee)
            | u8::from(self.bre) << 1
            | u8::from(self.bie) << 2
            | u8::from(self.decomposed) << 3
            | u8::from(self.va) << 4
            | u8::from(self.vaplus) << 5
            | u8::from(self.adaptive) << 6
    }

    /// Inverse of [`DbConfig::to_bits`]; rejects unknown flag bits so a
    /// snapshot written by a future format can't silently misconfigure.
    pub(crate) fn from_bits(bits: u8) -> std::io::Result<DbConfig> {
        if bits >= 1 << 7 {
            return Err(invalid(format!("unknown index-config bits {bits:#x}")));
        }
        Ok(DbConfig {
            bee: bits & 1 != 0,
            bre: bits & 2 != 0,
            bie: bits & 4 != 0,
            decomposed: bits & 8 != 0,
            va: bits & 16 != 0,
            vaplus: bits & 32 != 0,
            adaptive: bits & 64 != 0,
        })
    }
}

/// One access method the planner considered, with its cost-model inputs.
#[derive(Clone, Debug, PartialEq)]
pub struct CandidatePlan {
    /// The method's registry name (e.g. `"bitmap-equality"`).
    pub name: &'static str,
    /// Estimated time of the method's answer, in plain-kernel words
    /// ([`AccessMethod::estimated_cost`]).
    pub estimated_cost: f64,
    /// The method's storage footprint (the tie-breaker).
    pub size_bytes: usize,
}

/// The planner's decision and its cost model inputs.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// Name of the chosen access method for the indexed (base) rows.
    pub chosen: &'static str,
    /// Every registered method that supports the query, in registration
    /// order, with its estimated cost — the full §6 decision table.
    pub candidates: Vec<CandidatePlan>,
    /// Rows the delta store will scan on top of the index.
    pub delta_rows: usize,
    /// Histogram-based estimate of matching base rows (independence
    /// assumption across attributes; exact for one-attribute keys).
    pub estimated_rows: f64,
}

/// One registry entry: a built access method plus the two constants of it
/// the planner reads on every query. They are taken once, when the index
/// is built — a bitmap index's `size_bytes` walks every stored bitmap.
#[derive(Clone)]
struct Registered {
    method: Arc<dyn AccessMethod>,
    name: &'static str,
    size_bytes: usize,
}

/// An incomplete relation with maintained indexes and an append delta:
/// one shard of a [`ShardedDb`], or a whole database on its own.
///
/// ```
/// use ibis::prelude::*;
///
/// let data = Dataset::from_rows(
///     &[("a", 9)],
///     &[vec![Cell::present(2)], vec![Cell::MISSING], vec![Cell::present(7)]],
/// )
/// .unwrap();
/// let mut db = IncompleteDb::new(data);
/// db.insert(&[Cell::present(3)]).unwrap(); // lands in the delta, id 3
///
/// let q = RangeQuery::new(vec![Predicate::range(0, 2, 4)], MissingPolicy::IsMatch).unwrap();
/// assert_eq!(db.execute(&q).unwrap().rows(), &[0, 1, 3]); // missing matches
/// assert!(db.compact());  // folds the delta into the indexes…
/// assert!(!db.compact()); // …and a clean db is a no-op
/// assert_eq!(db.execute(&q).unwrap().rows(), &[0, 1, 3]);
/// ```
#[derive(Clone)]
pub struct IncompleteDb {
    config: DbConfig,
    base: Arc<Dataset>,
    /// The engine-layer registry: one entry per maintained index, plus the
    /// always-on sequential scan in last position.
    methods: Vec<Registered>,
    /// Appended rows not yet folded into the indexes: a relation in the
    /// base's schema, read by the same scan kernel as any dataset.
    delta: Dataset,
    /// Tombstoned rows, taken out of every answer in bit space until the
    /// next compaction renumbers the survivors.
    dead: Tombstones,
    /// Per-column value histograms of the base dataset, cached so the
    /// planner's cardinality estimates don't rescan columns on every query.
    /// Only a build or a compaction makes them, so a copy of the shard
    /// shares them.
    histograms: Arc<Vec<Vec<usize>>>,
    /// Per-attribute present-value envelope and missing count over base +
    /// delta: exact after a build or compaction, widened by every insert,
    /// never narrowed by a delete — always a sound over-approximation.
    synopsis: ShardSynopsis,
}

impl std::fmt::Debug for IncompleteDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncompleteDb")
            .field("config", &self.config)
            .field("methods", &self.method_names())
            .field("n_rows", &self.n_rows())
            .field("delta_rows", &self.delta.n_rows())
            .field("deleted", &self.dead.count)
            .finish()
    }
}

/// Builds the access-method registry for `base` under `config`. Every
/// bitmap family is stored over [`Adaptive`] containers; the equality and
/// interval indexes share one counting sort per column, whose count pass
/// is `histograms`, base's value counts. The sequential scan always comes
/// last, so indexes win registration-order ties against it.
fn build_methods(
    config: DbConfig,
    base: &Arc<Dataset>,
    histograms: &[Vec<usize>],
) -> Vec<Registered> {
    let (bee, bie) =
        build_sorted::<Adaptive>(base, histograms, config.bee || config.adaptive, config.bie);
    let mut methods = Vec::new();
    let mut register_as = |name: &'static str, method: Arc<dyn AccessMethod>| {
        methods.push(Registered {
            name,
            size_bytes: method.size_bytes(),
            method,
        })
    };
    if let Some(bee) = bee {
        let name = if config.bee {
            "bitmap-equality"
        } else {
            "bitmap-adaptive"
        };
        register_as(name, Arc::new(bee));
    }
    let mut register = |method: Arc<dyn AccessMethod>| register_as(method.name(), method);
    if config.bre {
        register(Arc::new(RangeBitmapIndex::<Adaptive>::build(base)));
    }
    if let Some(bie) = bie {
        register(Arc::new(bie));
    }
    if config.decomposed {
        register(Arc::new(DecomposedBitmapIndex::<Adaptive>::build(base)));
    }
    if config.va {
        register(Arc::new(VaFile::build(base).bind(Arc::clone(base))));
    }
    if config.vaplus {
        register(Arc::new(VaPlusFile::build(base).bind(Arc::clone(base))));
    }
    register(Arc::new(SequentialScan.bind(Arc::clone(base))));
    methods
}

/// The error every reader in this crate raises for bytes that parse but
/// cannot be right.
pub(crate) fn invalid(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

/// The error every mutation in this crate raises for a value the caller
/// supplied that cannot be accepted (as opposed to [`invalid`] bytes read
/// back from disk).
pub(crate) fn invalid_input(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
}

/// A shard's deleted rows as two dead-row bit-vectors, each word-aligned
/// with the answer it filters: bit `i` of `base` is base row `i` (what the
/// planned method answers), bit `i` of `delta` is delta row `i` (what the
/// delta mask answers). So a tombstone leaves an answer by one AND NOT
/// before any id is written ([`ibis_core::Answer::and_not`]). Both are
/// empty until their first delete; `base` then spans the base rows, and
/// `delta` the delta rows there were at its last delete (a row inserted
/// since reads alive).
#[derive(Clone)]
struct Tombstones {
    base: BitVec64,
    delta: BitVec64,
    /// Set bits across both vectors.
    count: usize,
}

impl Tombstones {
    fn none() -> Tombstones {
        Tombstones {
            base: BitVec64::zeros(0),
            delta: BitVec64::zeros(0),
            count: 0,
        }
    }

    /// Marks `row` of a shard with `base_rows` base rows and `delta_rows`
    /// delta rows dead, growing its vector to hold it. Returns whether the
    /// row was alive.
    fn insert(&mut self, row: usize, base_rows: usize, delta_rows: usize) -> bool {
        let (bits, bit, len) = if row < base_rows {
            (&mut self.base, row, base_rows)
        } else {
            (&mut self.delta, row - base_rows, delta_rows)
        };
        bits.grow(len);
        if bits.get(bit) {
            return false;
        }
        bits.set(bit, true);
        self.count += 1;
        true
    }

    /// Whether `row` of a shard with `base_rows` base rows is deleted.
    fn contains(&self, row: usize, base_rows: usize) -> bool {
        let (bits, bit) = if row < base_rows {
            (&self.base, row)
        } else {
            (&self.delta, row - base_rows)
        };
        bit < bits.len() && bits.get(bit)
    }

    /// The deleted row ids, ascending: base rows, then delta rows after
    /// the `base_rows` base rows.
    fn ids(&self, base_rows: usize) -> impl Iterator<Item = u32> + '_ {
        let delta = self.delta.iter_ones().map(move |i| i + base_rows as u32);
        self.base.iter_ones().chain(delta)
    }
}

impl IncompleteDb {
    /// Builds over `dataset` with the default config.
    pub fn new(dataset: Dataset) -> IncompleteDb {
        IncompleteDb::with_config(dataset, DbConfig::default())
    }

    /// Builds over `dataset`, maintaining only the configured indexes.
    pub fn with_config(dataset: Dataset, config: DbConfig) -> IncompleteDb {
        let delta = dataset.slice_rows(0..0);
        let base = Arc::new(dataset);
        // One counting pass per column: the planner's histograms, the
        // synopsis read off them, and the equality index's counting sort.
        let histograms: Vec<Vec<usize>> = base.columns().iter().map(|c| c.value_counts()).collect();
        IncompleteDb {
            config,
            methods: build_methods(config, &base, &histograms),
            synopsis: ShardSynopsis::from_counts(base.n_rows(), &histograms),
            histograms: Arc::new(histograms),
            base,
            delta,
            dead: Tombstones::none(),
        }
    }

    /// Total live rows (indexed base + unindexed delta − tombstones).
    ///
    /// Saturating: the tombstone count can never push the count below
    /// zero, even if a caller-visible invariant breaks elsewhere (the oracle
    /// tombstones far more aggressively than any generator, and this must
    /// stay total).
    pub fn n_rows(&self) -> usize {
        self.id_width().saturating_sub(self.dead.count)
    }

    /// Width of the row-id space: base + delta, tombstones included
    /// (tombstoned ids stay allocated until compaction).
    pub(crate) fn id_width(&self) -> usize {
        self.base.n_rows() + self.delta.n_rows()
    }

    /// Whether a [`compact`](IncompleteDb::compact) would change anything:
    /// pending delta rows or tombstones.
    pub(crate) fn is_dirty(&self) -> bool {
        !(self.delta.n_rows() == 0 && self.dead.count == 0)
    }

    /// Tombstoned rows awaiting compaction.
    pub fn deleted_len(&self) -> usize {
        self.dead.count
    }

    /// Deletes a row by id. Returns `true` if the row existed and was
    /// alive. Deleted rows disappear from query results immediately; their
    /// storage is reclaimed (and surviving rows are **renumbered**) at the
    /// next [`compact`](IncompleteDb::compact). The synopsis is *not*
    /// narrowed — it stays a sound over-approximation until then.
    pub fn delete(&mut self, row: u32) -> bool {
        let row = row as usize;
        row < self.id_width()
            && self
                .dead
                .insert(row, self.base.n_rows(), self.delta.n_rows())
    }

    /// Rows awaiting compaction.
    pub fn delta_len(&self) -> usize {
        self.delta.n_rows()
    }

    /// The schema width.
    pub fn n_attrs(&self) -> usize {
        self.base.n_attrs()
    }

    /// The schema carrier: the base relation, whose column names and
    /// cardinalities every row of this database obeys.
    pub fn schema(&self) -> &Dataset {
        &self.base
    }

    /// What the rows here can contain (attribute envelopes, missing
    /// counts) — what a router consults before visiting this shard.
    pub fn synopsis(&self) -> &ShardSynopsis {
        &self.synopsis
    }

    /// The registered access methods and their names, in planning order:
    /// what [`explain`](IncompleteDb::explain) ranks. Each answers the base
    /// rows only; the delta is the database's to merge.
    pub fn methods(&self) -> impl Iterator<Item = (&'static str, &dyn AccessMethod)> {
        self.methods.iter().map(|m| (m.name, &*m.method))
    }

    /// Names of the registered access methods, in planning order.
    pub fn method_names(&self) -> Vec<&'static str> {
        self.methods().map(|(name, _)| name).collect()
    }

    /// Total bytes held by the maintained indexes.
    pub fn index_bytes(&self) -> usize {
        self.methods.iter().map(|m| m.size_bytes).sum()
    }

    /// Validates `row` against the schema without inserting it.
    pub fn validate_row(&self, row: &[Cell]) -> Result<()> {
        ibis_core::validate_row(
            row,
            |a| self.base.column(a).cardinality(),
            self.base.n_attrs(),
        )
    }

    /// Appends one row (validated against the schema). The row lands in the
    /// delta store and is folded into the synopsis immediately, so queries
    /// see it — and pruning stays sound for it — before any compaction;
    /// indexes pick it up at the next [`compact`](IncompleteDb::compact).
    /// A refused row changes neither the delta nor the synopsis.
    pub fn insert(&mut self, row: &[Cell]) -> Result<()> {
        self.delta.push_row(row)?;
        self.synopsis.observe_row(row);
        Ok(())
    }

    /// Folds the delta store into the base dataset, drops tombstoned rows
    /// (renumbering the survivors), rebuilds the maintained indexes and
    /// recomputes the synopsis exactly.
    ///
    /// Returns `true` if there was anything to fold — a clean database is a
    /// no-op and keeps its indexes, which is what makes per-shard compaction
    /// in [`ShardedDb`] O(dirty shards) instead of O(all rows).
    pub fn compact(&mut self) -> bool {
        if !self.is_dirty() {
            return false;
        }
        let base_rows = self.base.n_rows();
        let columns = self
            .base
            .columns()
            .iter()
            .zip(self.delta.columns())
            .map(|(col, delta)| {
                let raw: Vec<u16> = col
                    .raw()
                    .iter()
                    .chain(delta.raw())
                    .enumerate()
                    .filter(|&(row, _)| !self.dead.contains(row, base_rows))
                    .map(|(_, &v)| v)
                    .collect();
                ibis_core::Column::from_raw(col.name(), col.cardinality(), raw)
                    .expect("delta rows validated on insert")
            })
            .collect();
        let base = Dataset::new(columns).expect("equal lengths by construction");
        *self = IncompleteDb::with_config(base, self.config);
        true
    }

    /// Estimated matching base rows from the cached histograms (product of
    /// exact per-attribute selectivities; the independence assumption of the
    /// paper's GS formula).
    fn estimate_rows(&self, query: &RangeQuery) -> f64 {
        let n = self.base.n_rows();
        if n == 0 {
            return 0.0;
        }
        let sel: f64 = query
            .predicates()
            .iter()
            .map(|p| {
                let counts = &self.histograms[p.attr];
                let mut hits: usize = counts[p.interval.lo as usize..=p.interval.hi as usize]
                    .iter()
                    .sum();
                if query.policy() == ibis_core::MissingPolicy::IsMatch {
                    hits += counts[0];
                }
                hits as f64 / n as f64
            })
            .product();
        sel * n as f64
    }

    /// The planner: one pass over the registry that ranks every method
    /// supporting `query` by `(estimated_cost, size_bytes, registration
    /// order)` and returns the winner's position in `self.methods`. Each
    /// candidate is also handed to `table` in registration order, which is
    /// how [`explain`](IncompleteDb::explain) renders the very ranking
    /// [`execute`](IncompleteDb::execute) dispatches on.
    pub(crate) fn plan(
        &self,
        query: &RangeQuery,
        mut table: impl FnMut(CandidatePlan),
    ) -> Result<usize> {
        let mut span = ibis_obs::span("db.plan");
        query.validate(&self.base)?;
        let mut considered = 0u64;
        let mut best: Option<(usize, f64, usize)> = None;
        for (position, m) in self.methods.iter().enumerate() {
            if !m.method.supports(query) {
                continue;
            }
            let cost = m.method.estimated_cost(query);
            let wins = best.is_none_or(|(_, best_cost, best_size)| {
                cost < best_cost || (cost == best_cost && m.size_bytes < best_size)
            });
            if wins {
                best = Some((position, cost, m.size_bytes));
            }
            considered += 1;
            table(CandidatePlan {
                name: m.name,
                estimated_cost: cost,
                size_bytes: m.size_bytes,
            });
        }
        // Deliberately NOT named `candidates`: span fields that reuse a
        // `WorkCounters` field name are treated as counter deltas by the
        // profile/slow-log attribution, and this one is a plan-table size.
        span.add_field("plan_candidates", considered);
        let (winner, ..) = best.expect("the sequential scan supports every query");
        Ok(winner)
    }

    /// Plans a query without running it and reports the whole decision
    /// table: every registered access method that supports it, with the
    /// cost and size it was ranked by.
    pub fn explain(&self, query: &RangeQuery) -> Result<Plan> {
        let mut candidates = Vec::with_capacity(self.methods.len());
        let winner = self.plan(query, |c| candidates.push(c))?;
        Ok(Plan {
            chosen: self.methods[winner].name,
            candidates,
            delta_rows: self.delta.n_rows(),
            estimated_rows: self.estimate_rows(query),
        })
    }

    /// Executes a query over base + delta, via the planned access method,
    /// at the configured parallelism degree.
    pub fn execute(&self, query: &RangeQuery) -> Result<RowSet> {
        self.execute_threads(query, ibis_core::parallel::configured_threads())
    }

    /// [`Self::execute`] with an explicit intra-query parallelism degree.
    /// The answer is identical for any `threads`.
    pub fn execute_threads(&self, query: &RangeQuery, threads: usize) -> Result<RowSet> {
        Ok(self.execute_with_cost_threads(query, threads)?.0)
    }

    /// [`Self::execute_threads`] that also reports the work performed: the
    /// chosen method's [`WorkCounters`] plus the delta scan (counted under
    /// `entries_scanned`). Both the rows and the counters are identical for
    /// any `threads` — the engine-layer conformance contract, which is what
    /// lets [`ShardedDb`] fan shards out without changing what it reports.
    pub fn execute_with_cost_threads(
        &self,
        query: &RangeQuery,
        threads: usize,
    ) -> Result<(RowSet, WorkCounters)> {
        let winner = self.plan(query, |_| {})?;
        let mut rows = Vec::new();
        let counters = self.execute_into(query, winner, threads, 0, &mut rows)?;
        Ok((RowSet::from_sorted(rows), counters))
    }

    /// The [`estimated_cost`](AccessMethod::estimated_cost) of `query` on
    /// the registry method at `winner`, a position [`plan`](Self::plan)
    /// returned here or on a shard of the same config: what a router
    /// prices a visit to this shard by.
    pub(crate) fn estimated_cost(&self, query: &RangeQuery, winner: usize) -> f64 {
        self.methods[winner].method.estimated_cost(query)
    }

    /// Appends the ids of the live rows matching `query`, each plus `base`,
    /// ascending, after whatever `out` holds: the [`ibis_core::Answer`] of
    /// the registry method at position `winner`, then the delta's mask, each
    /// with its dead rows ANDed out before any id is written. `winner` is what
    /// [`plan`](Self::plan) returned here or on a shard of the same config
    /// (one registry order), which is how a router plans once per query.
    /// The tombstone masking is not charged to the counters.
    pub(crate) fn execute_into(
        &self,
        query: &RangeQuery,
        winner: usize,
        threads: usize,
        base: u32,
        out: &mut Vec<u32>,
    ) -> Result<WorkCounters> {
        let method = &self.methods[winner].method;
        let (mut answer, mut counters) = method.answer(query, threads)?;
        if !self.dead.base.is_empty() {
            answer.and_not(&self.dead.base);
        }
        answer.write_rows(base, out);
        // Delta ids start where the base ids end, so the union is an append.
        if let Some(mask) = self.live_delta_mask(query, &mut counters) {
            mask.ones_positions_into(base + self.base.n_rows() as u32, out);
        }
        Ok(counters)
    }

    /// The delta rows that satisfy `query`, as the scan kernel's mask over
    /// the delta (bit `i` is row `base rows + i`), with the scan charged to
    /// `counters` and to the `db.delta` span. An empty delta builds no
    /// mask.
    fn delta_mask(&self, query: &RangeQuery, counters: &mut WorkCounters) -> Option<BitVec64> {
        let delta_rows = self.delta.n_rows();
        counters.entries_scanned = counters.entries_scanned.saturating_add(delta_rows);
        let mut span = ibis_obs::span("db.delta");
        span.add_field("delta_rows", delta_rows as u64);
        // The delta scan is charged to `entries_scanned` above; record the
        // same delta on this span so per-phase attribution stays exact.
        span.add_field("entries_scanned", delta_rows as u64);
        (delta_rows > 0).then(|| scan::mask(&self.delta, query, 0..delta_rows))
    }

    /// [`delta_mask`](Self::delta_mask) with the dead delta rows ANDed out.
    fn live_delta_mask(&self, query: &RangeQuery, counters: &mut WorkCounters) -> Option<BitVec64> {
        let mut mask = self.delta_mask(query, counters)?;
        mask.and_not_assign(&self.dead.delta);
        Some(mask)
    }

    /// Counts matching rows without building their ids, by the rule
    /// [`execute`](Self::execute) follows: the popcount of the planned
    /// method's answer AND NOT the dead base rows, plus that of the delta's
    /// mask AND NOT the dead delta rows. A shard with no dead base row
    /// keeps the method's own
    /// [`execute_count_with_cost`](AccessMethod::execute_count_with_cost),
    /// which the bitmap families fuse with their last AND.
    pub fn count(&self, query: &RangeQuery) -> Result<usize> {
        let winner = self.plan(query, |_| {})?;
        Ok(self.count_with(query, winner)?.0)
    }

    /// [`count`](Self::count) with the registry method at `winner`, a
    /// position [`plan`](Self::plan) returned (see
    /// [`execute_into`](Self::execute_into)), and the work it did: the
    /// method's counters plus the delta scan, charged as `execute_into`
    /// charges it.
    pub(crate) fn count_with(
        &self,
        query: &RangeQuery,
        winner: usize,
    ) -> Result<(usize, WorkCounters)> {
        let method = &self.methods[winner].method;
        let (base, mut counters) = if self.dead.base.is_empty() {
            method.execute_count_with_cost(query)?
        } else {
            let (mut answer, counters) = method.answer(query, 1)?;
            answer.and_not(&self.dead.base);
            (answer.count(), counters)
        };
        let delta = self
            .live_delta_mask(query, &mut counters)
            .map_or(0, |mask| mask.count_ones());
        Ok((base + delta, counters))
    }

    /// The cell at (`row`, `attr`), addressing base then delta.
    pub fn cell(&self, row: usize, attr: usize) -> Cell {
        if row < self.base.n_rows() {
            self.base.cell(row, attr)
        } else {
            self.delta.cell(row - self.base.n_rows(), attr)
        }
    }

    /// Writes this shard's logical state — base dataset, delta rows,
    /// tombstones — as its section of a snapshot image. Indexes, histograms
    /// and the synopsis are rebuildable caches and are **not** written.
    pub(crate) fn write_state(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        self.base.write_to(w)?;
        // The delta's section stays row-major: one row's cells after another.
        wire::write_len(w, self.delta.n_rows())?;
        for row in 0..self.delta.n_rows() {
            for column in self.delta.columns() {
                wire::write_u16(w, column.raw()[row])?;
            }
        }
        // The tombstones stay an ascending list of row ids.
        let deleted: Vec<u32> = self.dead.ids(self.base.n_rows()).collect();
        wire::write_vec_u32(w, &deleted)
    }

    /// Parses one [`write_state`](IncompleteDb::write_state) section,
    /// rebuilding every index and the synopsis under `config`.
    ///
    /// Hardened against a crafted image: the base must carry `schema`'s
    /// column names and cardinalities when one is given (checked before any
    /// index is built, so later query dispatch can't index out of bounds);
    /// allocations are capped (a lying length field hits a clean EOF, never
    /// a huge reservation); delta rows re-validate against the schema; and
    /// tombstones must be in range.
    pub(crate) fn read_state(
        r: &mut impl std::io::Read,
        config: DbConfig,
        schema: Option<&Dataset>,
    ) -> std::io::Result<IncompleteDb> {
        let base = Dataset::read_from(r)?;
        let columns = |d: &Dataset| -> Vec<(String, u16)> {
            d.columns()
                .iter()
                .map(|c| (c.name().to_string(), c.cardinality()))
                .collect()
        };
        if schema.is_some_and(|s| columns(s) != columns(&base)) {
            return Err(invalid("snapshot shards disagree on the schema"));
        }
        let mut db = IncompleteDb::with_config(base, config);
        let width = db.n_attrs();
        let n_delta = wire::read_len(r)?;
        for _ in 0..n_delta {
            // The cap mirrors wal.rs: a lying width in a crafted image
            // must hit a clean EOF, never a huge reservation.
            let mut row = Vec::with_capacity(width.min(1 << 16));
            for _ in 0..width {
                row.push(Cell::from_raw(wire::read_u16(r)?));
            }
            db.insert(&row)
                .map_err(|e| invalid(format!("snapshot delta row invalid: {e}")))?;
        }
        for id in wire::read_vec_u32(r)? {
            if (id as usize) >= db.id_width() {
                return Err(invalid("snapshot tombstone out of range"));
            }
            db.delete(id);
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_core::gen::{census_scaled, synthetic_scaled, workload, QuerySpec};
    use ibis_core::{scan, MissingPolicy, Predicate};

    fn v(x: u16) -> Cell {
        Cell::present(x)
    }
    fn m() -> Cell {
        Cell::MISSING
    }

    fn db() -> IncompleteDb {
        IncompleteDb::new(census_scaled(400, 401))
    }

    /// The paper's §6 pair, {BEE, BRE}: the default before interval
    /// encoding took range encoding's place.
    fn paper_pair() -> DbConfig {
        DbConfig {
            bee: true,
            bre: true,
            ..DbConfig::none()
        }
    }

    #[test]
    fn planner_prefers_bee_for_points_and_bre_for_ranges() {
        let d = IncompleteDb::with_config(census_scaled(400, 401), paper_pair());
        let attr = (0..d.n_attrs())
            .find(|&a| d.base.column(a).cardinality() >= 50 && d.base.column(a).missing_count() > 0)
            .unwrap();
        let c = d.base.column(attr).cardinality();
        // A mid-domain point under is-match: equality reads `B_v` and
        // `B_0`, range encoding `B_v`, `B_{v−1}` and `B_0`.
        let point =
            RangeQuery::new(vec![Predicate::point(attr, c / 2)], MissingPolicy::IsMatch).unwrap();
        assert_eq!(d.explain(&point).unwrap().chosen, "bitmap-equality");
        // Half the domain on the same attribute: equality ORs about C/2
        // bitmaps on either side, range encoding reads at most 3.
        let range = RangeQuery::new(
            vec![Predicate::range(attr, c / 4, 3 * c / 4)],
            MissingPolicy::IsMatch,
        )
        .unwrap();
        assert_eq!(d.explain(&range).unwrap().chosen, "bitmap-range");
    }

    #[test]
    fn the_default_plans_points_on_bee_and_ranges_on_bie() {
        let d = db();
        assert_eq!(
            d.method_names(),
            vec!["bitmap-equality", "bitmap-interval", "sequential-scan"]
        );
        let attr = (0..d.n_attrs())
            .find(|&a| d.base.column(a).cardinality() >= 50 && d.base.column(a).missing_count() > 0)
            .unwrap();
        let c = d.base.column(attr).cardinality();
        // Equality reads `B_v` and `B_0` for a point, interval encoding two
        // windows and `B_0`; for half the domain equality ORs about C/2
        // bitmaps, interval encoding still reads two windows and `B_0`.
        let point =
            RangeQuery::new(vec![Predicate::point(attr, c / 2)], MissingPolicy::IsMatch).unwrap();
        assert_eq!(d.explain(&point).unwrap().chosen, "bitmap-equality");
        let range = RangeQuery::new(
            vec![Predicate::range(attr, c / 4, 3 * c / 4)],
            MissingPolicy::IsMatch,
        )
        .unwrap();
        assert_eq!(d.explain(&range).unwrap().chosen, "bitmap-interval");
    }

    #[test]
    fn planner_respects_config() {
        let data = census_scaled(200, 402);
        let vonly = IncompleteDb::with_config(data.clone(), DbConfig::compact_profile());
        let q = RangeQuery::new(vec![Predicate::point(0, 1)], MissingPolicy::IsMatch).unwrap();
        assert_eq!(vonly.explain(&q).unwrap().chosen, "va-file");
        let none = IncompleteDb::with_config(data, DbConfig::none());
        assert_eq!(none.explain(&q).unwrap().chosen, "sequential-scan");
        assert_eq!(none.index_bytes(), 0);
        assert_eq!(none.method_names(), vec!["sequential-scan"]);
        // All paths agree regardless of config.
        assert_eq!(vonly.execute(&q).unwrap(), none.execute(&q).unwrap());
    }

    #[test]
    fn planner_prefers_a_three_read_encoding_for_wide_ranges() {
        // The §6 acceptance case: interval and range encoding answer an
        // interval in ≤ 3 bitmap reads per dimension, where equality needs
        // about C/2 on a half-domain range. Range encoding prices its
        // thresholds one by one, interval encoding its windows; with
        // everything registered, one of them takes the plan.
        let d = IncompleteDb::with_config(census_scaled(400, 407), DbConfig::all());
        let attr = (0..d.n_attrs())
            .find(|&a| d.base.column(a).cardinality() >= 50 && d.base.column(a).missing_count() > 0)
            .unwrap();
        let c = d.base.column(attr).cardinality();
        let range = RangeQuery::new(
            vec![Predicate::range(attr, c / 4, 3 * c / 4)],
            MissingPolicy::IsMatch,
        )
        .unwrap();
        let plan = d.explain(&range).unwrap();
        assert!(
            ["bitmap-interval", "bitmap-range"].contains(&plan.chosen),
            "{plan:?}"
        );
        // Mid-domain points still go to the equality encoding: two reads
        // against range encoding's three.
        let point =
            RangeQuery::new(vec![Predicate::point(attr, c / 2)], MissingPolicy::IsMatch).unwrap();
        assert_eq!(d.explain(&point).unwrap().chosen, "bitmap-equality");
    }

    #[test]
    fn the_adaptive_flag_registers_the_one_equality_index() {
        // Same index under either flag, listed under the benchmark's label
        // when `adaptive` stands alone; never registered twice.
        let data = census_scaled(300, 419);
        let q = |policy| {
            RangeQuery::new(
                vec![Predicate::range(0, 1, 2), Predicate::range(1, 1, 3)],
                policy,
            )
            .unwrap()
        };
        let mut answers = Vec::new();
        for (bee, adaptive, name) in [
            (true, false, "bitmap-equality"),
            (false, true, "bitmap-adaptive"),
            (true, true, "bitmap-equality"),
        ] {
            let db = IncompleteDb::with_config(
                data.clone(),
                DbConfig {
                    bee,
                    adaptive,
                    ..DbConfig::none()
                },
            );
            assert_eq!(db.method_names(), vec![name, "sequential-scan"]);
            for policy in MissingPolicy::ALL {
                let (rows, counters) = db.execute_with_cost_threads(&q(policy), 1).unwrap();
                assert_eq!(db.explain(&q(policy)).unwrap().chosen, name);
                assert_eq!(rows, scan::execute(&data, &q(policy)), "{policy}");
                answers.push((policy, rows, counters));
            }
        }
        assert_eq!(answers[0..2], answers[2..4]);
        assert_eq!(answers[0..2], answers[4..6]);
        let all = IncompleteDb::with_config(data, DbConfig::all()).method_names();
        assert_eq!(
            all,
            vec![
                "bitmap-equality",
                "bitmap-range",
                "bitmap-interval",
                "bitmap-decomposed",
                "va-file",
                "va-plus-file",
                "sequential-scan"
            ]
        );
    }

    #[test]
    fn explain_reports_every_candidate() {
        let config = DbConfig {
            va: true,
            ..paper_pair()
        };
        let d = IncompleteDb::with_config(census_scaled(400, 401), config);
        let q = RangeQuery::new(vec![Predicate::point(0, 1)], MissingPolicy::IsMatch).unwrap();
        let plan = d.explain(&q).unwrap();
        let names: Vec<&str> = plan.candidates.iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            vec![
                "bitmap-equality",
                "bitmap-range",
                "va-file",
                "sequential-scan"
            ]
        );
        for c in &plan.candidates {
            assert!(c.estimated_cost.is_finite(), "{c:?}");
            assert!(c.estimated_cost > 0.0, "{c:?}");
        }
        // The scan is costed but stores nothing.
        assert_eq!(plan.candidates.last().unwrap().size_bytes, 0);
    }

    #[test]
    fn execute_matches_scan_on_workloads() {
        let data = census_scaled(500, 403);
        let d = IncompleteDb::new(data.clone());
        for policy in MissingPolicy::ALL {
            let spec = QuerySpec {
                n_queries: 10,
                k: 4,
                global_selectivity: 0.03,
                policy,
                candidate_attrs: vec![],
            };
            for q in workload(&data, &spec, 404) {
                assert_eq!(d.execute(&q).unwrap(), scan::execute(&data, &q), "{policy}");
            }
        }
    }

    #[test]
    fn answers_are_degree_independent() {
        let data = census_scaled(300, 411);
        let mut d = IncompleteDb::new(data.clone());
        d.insert(&vec![m(); data.n_attrs()]).unwrap();
        d.delete(0);
        let q = RangeQuery::new(
            vec![Predicate::range(0, 1, 2), Predicate::range(1, 1, 3)],
            MissingPolicy::IsMatch,
        )
        .unwrap();
        let seq = d.execute_threads(&q, 1).unwrap();
        for threads in [2, 4, 8] {
            assert_eq!(d.execute_threads(&q, threads).unwrap(), seq, "t={threads}");
        }
        assert_eq!(d.execute(&q).unwrap(), seq);
    }

    #[test]
    fn inserts_are_visible_before_and_after_compaction() {
        let data = Dataset::from_rows(&[("a", 5), ("b", 5)], &[vec![v(1), v(2)], vec![v(3), m()]])
            .unwrap();
        let mut d = IncompleteDb::new(data);
        d.insert(&[v(5), v(5)]).unwrap();
        d.insert(&[m(), v(1)]).unwrap();
        assert_eq!(d.n_rows(), 4);
        assert_eq!(d.delta_len(), 2);

        let q = RangeQuery::new(vec![Predicate::range(0, 4, 5)], MissingPolicy::IsMatch).unwrap();
        // Row 2 (value 5) and row 3 (missing, match policy).
        assert_eq!(d.execute(&q).unwrap().rows(), &[2, 3]);
        assert_eq!(d.explain(&q).unwrap().delta_rows, 2);

        d.compact();
        assert_eq!(d.delta_len(), 0);
        assert_eq!(d.n_rows(), 4);
        assert_eq!(d.execute(&q).unwrap().rows(), &[2, 3]);
        assert_eq!(d.cell(2, 0), v(5));
        assert_eq!(d.cell(3, 0), m());
    }

    #[test]
    fn insert_validates_schema() {
        let mut d = db();
        assert!(d.insert(&[v(1)]).is_err(), "wrong width");
        let card0 = d.base.column(0).cardinality();
        let mut row = vec![m(); d.n_attrs()];
        row[0] = v(card0 + 1);
        assert!(d.insert(&row).is_err(), "out of domain");
        assert_eq!(d.delta_len(), 0, "failed inserts leave no residue");
    }

    /// A refused row is checked whole before the delta or the synopsis
    /// moves: the last attribute's value is the one out of its domain, so
    /// a push or an observe that ran first would leave a trace.
    #[test]
    fn a_refused_insert_changes_nothing() {
        let mut d = db();
        let width = d.n_attrs();
        d.insert(&d.base.row(0)).unwrap();
        let last = width - 1;
        let card = d.base.column(last).cardinality();
        let q = RangeQuery::new(
            vec![Predicate::range(last, 1, card)],
            MissingPolicy::IsMatch,
        )
        .unwrap();
        let state = |d: &IncompleteDb| {
            let answer = d.execute(&q).unwrap();
            (d.delta_len(), d.n_rows(), d.synopsis().clone(), answer)
        };
        let before = state(&d);
        let mut out_of_domain = vec![v(1); width];
        out_of_domain[last] = v(card + 1);
        for row in [vec![v(1); width - 1], vec![v(1); width + 1], out_of_domain] {
            assert!(d.insert(&row).is_err());
            assert_eq!(state(&d), before);
        }
        // The next accepted row reads back whole at the next id.
        let row = d.base.row(1);
        d.insert(&row).unwrap();
        let id = d.n_rows() - 1;
        assert_eq!((0..width).map(|a| d.cell(id, a)).collect::<Vec<_>>(), row);
    }

    #[test]
    fn heavy_insert_then_compact_differential() {
        let data = census_scaled(200, 405);
        let mut d = IncompleteDb::new(data.clone());
        // Append 100 rows sampled (shifted) from the same distribution.
        for i in 0..100usize {
            let src = i % data.n_rows();
            let row: Vec<Cell> = (0..data.n_attrs()).map(|a| data.cell(src, a)).collect();
            d.insert(&row).unwrap();
        }
        let spec = QuerySpec {
            n_queries: 8,
            k: 3,
            global_selectivity: 0.05,
            policy: MissingPolicy::IsNotMatch,
            candidate_attrs: vec![],
        };
        let queries = workload(&data, &spec, 406);
        let before: Vec<RowSet> = queries.iter().map(|q| d.execute(q).unwrap()).collect();
        d.compact();
        let after: Vec<RowSet> = queries.iter().map(|q| d.execute(q).unwrap()).collect();
        assert_eq!(before, after, "compaction must not change answers");
    }

    #[test]
    fn count_matches_execute() {
        let d = db();
        let q = RangeQuery::new(vec![Predicate::point(1, 1)], MissingPolicy::IsNotMatch).unwrap();
        assert_eq!(d.count(&q).unwrap(), d.execute(&q).unwrap().len());
    }

    #[test]
    fn count_matches_execute_through_delta_tombstones_and_shards() {
        let data = census_scaled(300, 416);
        let extra: Vec<Vec<Cell>> = (0..40).map(|i| data.row(i * 7)).collect();
        let compact = DbConfig {
            adaptive: true,
            va: true,
            ..DbConfig::none()
        };
        for config in [DbConfig::default(), compact, DbConfig::none()] {
            let mut mono = IncompleteDb::with_config(data.clone(), config);
            // 300 rows in shards of 64: boundaries at 64, 128, 192, 256.
            let mut sharded = ShardedDb::with_config(data.clone(), 64, config);
            for row in &extra {
                mono.insert(row).unwrap();
                sharded.insert(row).unwrap();
            }
            // Base ids either side of every shard boundary, and delta ids.
            for id in [0, 63, 64, 127, 128, 129, 255, 256, 299, 300, 317, 339] {
                assert!(mono.delete(id));
                assert!(sharded.delete(id));
            }
            for policy in MissingPolicy::ALL {
                let spec = QuerySpec {
                    n_queries: 8,
                    k: 2,
                    global_selectivity: 0.2,
                    policy,
                    candidate_attrs: vec![],
                };
                let mut queries = workload(&data, &spec, 417);
                queries.push(RangeQuery::new(vec![], policy).unwrap());
                for q in &queries {
                    let rows = mono.execute(q).unwrap();
                    assert!(!rows.contains(64) && !rows.contains(317), "{policy}");
                    assert_eq!(mono.count(q).unwrap(), rows.len(), "{config:?} {policy}");
                    assert_eq!(sharded.execute(q).unwrap(), rows, "{config:?} {policy}");
                    assert_eq!(sharded.count(q).unwrap(), rows.len(), "{config:?} {policy}");
                }
            }
        }
    }

    /// The delta's word mask against the scan truth of the whole logical
    /// relation, through tombstones either side of the delta's word
    /// boundaries and in the base, for deltas that end inside, on and just
    /// past a word.
    #[test]
    fn delta_execute_and_count_equal_the_scan_through_tombstones() {
        let data = census_scaled(200, 5);
        let extra = census_scaled(1_000, 6);
        for n_delta in [63usize, 64, 65, 1_000] {
            let mut db = IncompleteDb::new(data.clone());
            let mut all = data.clone();
            for i in 0..n_delta {
                db.insert(&extra.row(i)).unwrap();
                all.push_row(&extra.row(i)).unwrap();
            }
            let delta_dead = [0, 62, 63, 64, 65, 999]
                .into_iter()
                .filter(|&i| i < n_delta);
            let dead: Vec<u32> = [3, 199]
                .into_iter()
                .chain(delta_dead.map(|i| 200 + i as u32))
                .collect();
            for &id in &dead {
                assert!(db.delete(id));
            }
            for policy in MissingPolicy::ALL {
                let spec = QuerySpec {
                    n_queries: 6,
                    k: 2,
                    global_selectivity: 0.3,
                    policy,
                    candidate_attrs: vec![],
                };
                let mut queries = workload(&data, &spec, 7);
                queries.push(RangeQuery::new(vec![], policy).unwrap());
                for q in &queries {
                    let live: Vec<u32> = scan::execute_rowwise(&all, q)
                        .iter()
                        .filter(|id| !dead.contains(id))
                        .collect();
                    let what = format!("{n_delta} delta rows, {policy}, {q}");
                    assert_eq!(db.execute(q).unwrap().rows(), &live[..], "{what}");
                    assert_eq!(db.count(q).unwrap(), live.len(), "{what}");
                }
            }
        }
    }

    /// A shard with an empty delta — every shard of a database that is not
    /// taking inserts, 64 per query on a 64-shard database — answers from
    /// its index alone: the delta builds no mask.
    #[test]
    fn an_empty_delta_builds_no_mask() {
        let data = census_scaled(300, 8);
        let mut db = IncompleteDb::new(data.clone());
        let q = RangeQuery::new(vec![Predicate::range(0, 1, 1)], MissingPolicy::IsMatch).unwrap();
        let mut counters = WorkCounters::zero();
        assert!(db.delta_mask(&q, &mut counters).is_none());
        assert_eq!(counters, WorkCounters::zero());
        db.insert(&data.row(0)).unwrap();
        let mask = db.delta_mask(&q, &mut counters).expect("one delta row");
        assert_eq!(mask.len(), 1);
        assert_eq!(counters.entries_scanned, 1);
    }

    #[test]
    fn plan_carries_cardinality_estimate() {
        let data = census_scaled(1_000, 410);
        let db = IncompleteDb::new(data.clone());
        // One-attribute estimates are exact.
        let q = RangeQuery::new(vec![Predicate::point(0, 1)], MissingPolicy::IsNotMatch).unwrap();
        let plan = db.explain(&q).unwrap();
        let actual = db.execute(&q).unwrap().len() as f64;
        assert!(
            (plan.estimated_rows - actual).abs() < 1e-9,
            "{plan:?} vs {actual}"
        );
    }

    #[test]
    fn independence_assumption_close_on_synthetic_data() {
        // Columns are generated independently, so the product rule should
        // land near the truth.
        let d = synthetic_scaled(8_000, 91);
        let db = IncompleteDb::new(d.clone());
        for policy in MissingPolicy::ALL {
            let spec = QuerySpec {
                n_queries: 15,
                k: 4,
                global_selectivity: 0.05,
                policy,
                candidate_attrs: vec![],
            };
            let (mut sum_est, mut sum_act) = (0.0f64, 0.0f64);
            for q in workload(&d, &spec, 92) {
                sum_est += db.explain(&q).unwrap().estimated_rows;
                sum_act += scan::execute(&d, &q).len() as f64;
            }
            let rel = (sum_est - sum_act).abs() / sum_act.max(1.0);
            assert!(rel < 0.25, "{policy}: est {sum_est} vs actual {sum_act}");
        }
    }

    #[test]
    fn empty_column_estimates_zero() {
        let col = ibis_core::Column::from_raw("a", 3, vec![]).unwrap();
        let db = IncompleteDb::new(Dataset::new(vec![col]).unwrap());
        let q = RangeQuery::new(vec![Predicate::range(0, 1, 3)], MissingPolicy::IsMatch).unwrap();
        assert_eq!(db.explain(&q).unwrap().estimated_rows, 0.0);
    }

    fn small_db() -> IncompleteDb {
        let data = Dataset::from_rows(
            &[("a", 5)],
            &[vec![v(1)], vec![v(3)], vec![m()], vec![v(3)], vec![v(5)]],
        )
        .unwrap();
        IncompleteDb::new(data)
    }

    #[test]
    fn deletes_hide_rows_immediately() {
        let mut d = small_db();
        let q = RangeQuery::new(vec![Predicate::point(0, 3)], MissingPolicy::IsMatch).unwrap();
        assert_eq!(d.execute(&q).unwrap().rows(), &[1, 2, 3]);
        assert!(d.delete(1));
        assert!(!d.delete(1), "double delete is a no-op");
        assert!(!d.delete(99), "unknown row");
        assert_eq!(d.execute(&q).unwrap().rows(), &[2, 3]);
        assert_eq!(d.n_rows(), 4);
        assert_eq!(d.deleted_len(), 1);
    }

    #[test]
    fn deletes_apply_to_delta_rows_too() {
        let mut d = small_db();
        d.insert(&[v(3)]).unwrap(); // row id 5
        let q = RangeQuery::new(vec![Predicate::point(0, 3)], MissingPolicy::IsNotMatch).unwrap();
        assert_eq!(d.execute(&q).unwrap().rows(), &[1, 3, 5]);
        assert!(d.delete(5));
        assert_eq!(d.execute(&q).unwrap().rows(), &[1, 3]);
    }

    #[test]
    fn compaction_renumbers_and_preserves_answers() {
        let mut d = small_db();
        d.insert(&[v(2)]).unwrap(); // id 5
        d.delete(0); // value 1
        d.delete(3); // one of the 3s
        let q =
            RangeQuery::new(vec![Predicate::range(0, 1, 5)], MissingPolicy::IsNotMatch).unwrap();
        let live_before = d.count(&q).unwrap();
        d.compact();
        assert_eq!(d.deleted_len(), 0);
        assert_eq!(d.delta_len(), 0);
        assert_eq!(d.n_rows(), 4);
        assert_eq!(d.count(&q).unwrap(), live_before);
        // Survivors renumbered 0..4: values 3, ∅, 5, 2 in original order.
        assert_eq!(d.cell(0, 0), v(3));
        assert_eq!(d.cell(1, 0), m());
        assert_eq!(d.cell(2, 0), v(5));
        assert_eq!(d.cell(3, 0), v(2));
        // And the rebuilt index agrees with a scan over the new base.
        let q = RangeQuery::new(vec![Predicate::point(0, 3)], MissingPolicy::IsMatch).unwrap();
        assert_eq!(d.execute(&q).unwrap(), scan::execute(&d.base, &q));
    }

    #[test]
    fn delete_everything() {
        let mut d = small_db();
        for r in 0..5 {
            assert!(d.delete(r));
        }
        assert_eq!(d.n_rows(), 0);
        let q = RangeQuery::new(vec![Predicate::range(0, 1, 5)], MissingPolicy::IsMatch).unwrap();
        assert!(d.execute(&q).unwrap().is_empty());
        d.compact();
        assert_eq!(d.n_rows(), 0);
        assert!(d.execute(&q).unwrap().is_empty());
    }
}
