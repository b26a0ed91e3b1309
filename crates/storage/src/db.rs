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
//! [`estimated_cost`](AccessMethod::estimated_cost) (in 64-bit words of
//! index data touched), breaking ties by smaller
//! [`size_bytes`](AccessMethod::size_bytes), then by registration order.
//! That generalizes the paper's conclusions instead of hard-coding them:
//!
//! * equality encoding is "optimal for point queries" — its estimate
//!   `Σ (min(w, C−w) + 1)` bitmaps is smallest when `w = 1`;
//! * range encoding "typically offers the best time performance" for range
//!   queries — ≤ 3 bitmaps per dimension regardless of width;
//! * interval encoding ties range encoding on reads and wins the size
//!   tie-break with roughly half the bitmaps, when it is registered;
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
use ibis_bitmap::{
    DecomposedBitmapIndex, EqualityBitmapIndex, IntervalBitmapIndex, RangeBitmapIndex,
};
use ibis_bitvec::Adaptive;
use ibis_core::synopsis::ShardSynopsis;
use ibis_core::{wire, AccessMethod, Cell, Dataset, RangeQuery, Result, RowSet, WorkCounters};
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
    /// The paper's §6 trio — equality, range, and VA — so the planner
    /// always has its preferred index for points, ranges, and memory
    /// pressure alike.
    fn default() -> DbConfig {
        DbConfig {
            bee: true,
            bre: true,
            va: true,
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
    /// Estimated 64-bit words of index data the method would touch.
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
    /// Worker threads the executor will use for this query (the configured
    /// degree: `set_threads` override, else `IBIS_THREADS`, else the
    /// machine default). Results are identical for any value.
    pub parallelism: usize,
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
    /// Appended rows not yet folded into the indexes, row-major.
    delta: Vec<Vec<Cell>>,
    /// Tombstoned row ids (base or delta numbering), applied as a result
    /// filter until the next compaction renumbers the survivors.
    deleted: std::collections::BTreeSet<u32>,
    /// Per-column value histograms of the base dataset, cached so the
    /// planner's cardinality estimates don't rescan columns on every query.
    histograms: Vec<Vec<usize>>,
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
            .field("delta_rows", &self.delta.len())
            .field("deleted", &self.deleted.len())
            .finish()
    }
}

/// Builds the access-method registry for `base` under `config`. Every
/// bitmap family is stored over [`Adaptive`] containers. The sequential scan
/// always comes last, so indexes win registration-order ties against it.
fn build_methods(config: DbConfig, base: &Arc<Dataset>) -> Vec<Registered> {
    let mut methods = Vec::new();
    let mut register_as = |name: &'static str, method: Arc<dyn AccessMethod>| {
        methods.push(Registered {
            name,
            size_bytes: method.size_bytes(),
            method,
        })
    };
    if config.bee || config.adaptive {
        let name = if config.bee {
            "bitmap-equality"
        } else {
            "bitmap-adaptive"
        };
        register_as(name, Arc::new(EqualityBitmapIndex::<Adaptive>::build(base)));
    }
    let mut register = |method: Arc<dyn AccessMethod>| register_as(method.name(), method);
    if config.bre {
        register(Arc::new(RangeBitmapIndex::<Adaptive>::build(base)));
    }
    if config.bie {
        register(Arc::new(IntervalBitmapIndex::<Adaptive>::build(base)));
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

impl IncompleteDb {
    /// Builds over `dataset` with the default config.
    pub fn new(dataset: Dataset) -> IncompleteDb {
        IncompleteDb::with_config(dataset, DbConfig::default())
    }

    /// Builds over `dataset`, maintaining only the configured indexes.
    pub fn with_config(dataset: Dataset, config: DbConfig) -> IncompleteDb {
        let base = Arc::new(dataset);
        IncompleteDb {
            config,
            methods: build_methods(config, &base),
            histograms: base.columns().iter().map(|c| c.value_counts()).collect(),
            synopsis: ShardSynopsis::of(&base),
            base,
            delta: Vec::new(),
            deleted: std::collections::BTreeSet::new(),
        }
    }

    /// Total live rows (indexed base + unindexed delta − tombstones).
    ///
    /// Saturating: `deleted` can never push the count below zero, even if a
    /// caller-visible invariant breaks elsewhere (the oracle tombstones far
    /// more aggressively than any generator, and this must stay total).
    pub fn n_rows(&self) -> usize {
        self.id_width().saturating_sub(self.deleted.len())
    }

    /// Width of the row-id space: base + delta, tombstones included
    /// (tombstoned ids stay allocated until compaction).
    pub(crate) fn id_width(&self) -> usize {
        self.base.n_rows() + self.delta.len()
    }

    /// Whether a [`compact`](IncompleteDb::compact) would change anything:
    /// pending delta rows or tombstones.
    pub(crate) fn is_dirty(&self) -> bool {
        !(self.delta.is_empty() && self.deleted.is_empty())
    }

    /// Tombstoned rows awaiting compaction.
    pub fn deleted_len(&self) -> usize {
        self.deleted.len()
    }

    /// Deletes a row by id. Returns `true` if the row existed and was
    /// alive. Deleted rows disappear from query results immediately; their
    /// storage is reclaimed (and surviving rows are **renumbered**) at the
    /// next [`compact`](IncompleteDb::compact). The synopsis is *not*
    /// narrowed — it stays a sound over-approximation until then.
    pub fn delete(&mut self, row: u32) -> bool {
        (row as usize) < self.id_width() && self.deleted.insert(row)
    }

    /// Rows awaiting compaction.
    pub fn delta_len(&self) -> usize {
        self.delta.len()
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

    /// Names of the registered access methods, in planning order.
    pub fn method_names(&self) -> Vec<&'static str> {
        self.methods.iter().map(|m| m.name).collect()
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
    pub fn insert(&mut self, row: &[Cell]) -> Result<()> {
        self.validate_row(row)?;
        self.synopsis.observe_row(row);
        self.delta.push(row.to_vec());
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
            .enumerate()
            .map(|(attr, col)| {
                let mut raw: Vec<u16> = col
                    .raw()
                    .iter()
                    .enumerate()
                    .filter(|(row, _)| !self.deleted.contains(&(*row as u32)))
                    .map(|(_, &v)| v)
                    .collect();
                raw.extend(self.delta.iter().enumerate().filter_map(|(i, row)| {
                    let id = (base_rows + i) as u32;
                    (!self.deleted.contains(&id)).then(|| row[attr].raw())
                }));
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
    fn plan(&self, query: &RangeQuery, mut table: impl FnMut(CandidatePlan)) -> Result<usize> {
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
            delta_rows: self.delta.len(),
            estimated_rows: self.estimate_rows(query),
            parallelism: ibis_core::parallel::configured_threads(),
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
        let method = &self.methods[winner].method;
        let (mut rows, mut counters) = method.execute_with_cost_threads(query, threads)?;
        counters.entries_scanned = counters.entries_scanned.saturating_add(self.delta.len());
        // Delta rows are scanned with the semantic definition directly.
        let mut span = ibis_obs::span("db.delta");
        span.add_field("delta_rows", self.delta.len() as u64);
        // The delta scan is charged to `entries_scanned` above; record the
        // same delta on this span so per-phase attribution stays exact.
        span.add_field("entries_scanned", self.delta.len() as u64);
        // Delta ids start where the base ids end, so the union is an append.
        rows.append_ascending(self.delta_hits(query));
        if !self.deleted.is_empty() {
            rows.remove_ascending(self.deleted.iter().copied());
        }
        Ok((rows, counters))
    }

    /// The ids of the delta rows that satisfy `query`, ascending: each row
    /// checked cell by cell against the semantic definition.
    fn delta_hits<'a>(&'a self, query: &'a RangeQuery) -> impl Iterator<Item = u32> + 'a {
        let offset = self.base.n_rows() as u32;
        let policy = query.policy();
        self.delta.iter().enumerate().filter_map(move |(i, row)| {
            let ok = query
                .predicates()
                .iter()
                .all(|p| policy.cell_matches(row[p.attr], p.interval));
            ok.then_some(offset + i as u32)
        })
    }

    /// Counts matching rows without building their ids: the planned
    /// method's [`execute_count`](AccessMethod::execute_count) over the
    /// base, plus the delta rows that match and are alive, minus the
    /// tombstoned base rows that match — the last two checked cell by cell,
    /// a handful of rows.
    pub fn count(&self, query: &RangeQuery) -> Result<usize> {
        let winner = self.plan(query, |_| {})?;
        let base = self.methods[winner].method.execute_count(query)?;
        let mut span = ibis_obs::span("db.delta");
        span.add_field("delta_rows", self.delta.len() as u64);
        let delta_live = self
            .delta_hits(query)
            .filter(|id| !self.deleted.contains(id))
            .count();
        let base_dead = self
            .deleted
            .range(..self.base.n_rows() as u32)
            .filter(|&&id| query.matches_row(&self.base, id as usize))
            .count();
        Ok(base + delta_live - base_dead)
    }

    /// The cell at (`row`, `attr`), addressing base then delta.
    pub fn cell(&self, row: usize, attr: usize) -> Cell {
        if row < self.base.n_rows() {
            self.base.cell(row, attr)
        } else {
            self.delta[row - self.base.n_rows()][attr]
        }
    }

    /// Writes this shard's logical state — base dataset, delta rows,
    /// tombstones — as its section of a snapshot image. Indexes, histograms
    /// and the synopsis are rebuildable caches and are **not** written.
    pub(crate) fn write_state(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        self.base.write_to(w)?;
        wire::write_len(w, self.delta.len())?;
        for row in &self.delta {
            for cell in row {
                wire::write_u16(w, cell.raw())?;
            }
        }
        let deleted: Vec<u32> = self.deleted.iter().copied().collect();
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
    use ibis_core::gen::{census_scaled, workload, QuerySpec};
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

    #[test]
    fn planner_prefers_bee_for_points_and_bre_for_ranges() {
        let d = db();
        let point = RangeQuery::new(vec![Predicate::point(0, 1)], MissingPolicy::IsMatch).unwrap();
        assert_eq!(d.explain(&point).unwrap().chosen, "bitmap-equality");
        // Half the domain of a high-cardinality attribute: equality ORs
        // about C/2 bitmaps on either side, range encoding reads at most 3.
        let attr = (0..d.n_attrs())
            .find(|&a| d.base.column(a).cardinality() >= 50)
            .unwrap();
        let c = d.base.column(attr).cardinality();
        let range = RangeQuery::new(
            vec![Predicate::range(attr, c / 4, 3 * c / 4)],
            MissingPolicy::IsMatch,
        )
        .unwrap();
        assert_eq!(d.explain(&range).unwrap().chosen, "bitmap-range");
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
        // about C/2 on a half-domain range. Each estimate scales those reads
        // by the index's mean stored container words, so which of the two
        // wins follows how each compresses; with everything registered, one
        // of them takes the plan.
        let d = IncompleteDb::with_config(census_scaled(400, 407), DbConfig::all());
        let attr = (0..d.n_attrs())
            .find(|&a| d.base.column(a).cardinality() >= 50)
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
        // Points still go to the equality encoding.
        let point = RangeQuery::new(vec![Predicate::point(0, 1)], MissingPolicy::IsMatch).unwrap();
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
        let d = db();
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
    fn plan_reports_parallelism_and_answers_are_degree_independent() {
        let data = census_scaled(300, 411);
        let mut d = IncompleteDb::new(data.clone());
        d.insert(&vec![m(); data.n_attrs()]).unwrap();
        d.delete(0);
        let q = RangeQuery::new(
            vec![Predicate::range(0, 1, 2), Predicate::range(1, 1, 3)],
            MissingPolicy::IsMatch,
        )
        .unwrap();
        let plan = d.explain(&q).unwrap();
        assert!(plan.parallelism >= 1);
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
