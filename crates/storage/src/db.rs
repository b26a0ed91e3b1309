//! A small database layer over the paper's indexes: index selection per
//! query (the paper's §6 insights, made executable) plus append support via
//! a delta store.
//!
//! Every index family in the workspace implements the engine-layer
//! [`AccessMethod`] trait, so [`IncompleteDb`] holds one uniform registry of
//! boxed access methods and plans each query with a single rule: among the
//! methods that support the query's semantics, take the lowest
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
//! [`IncompleteDb::explain`] shows the decision — every candidate with its
//! cost — and queries merge results from an unindexed *delta store* so rows
//! can be appended without rebuilding — the update scenario the paper
//! raises when it notes index size "becomes important as database updates
//! become more frequent". [`IncompleteDb::compact`] folds the delta back
//! into the indexes.

use ibis_baseline::SequentialScan;
use ibis_bitmap::{
    DecomposedBitmapIndex, EqualityBitmapIndex, IntervalBitmapIndex, RangeBitmapIndex,
};
use ibis_bitvec::{Adaptive, Wah};
use ibis_core::synopsis::ShardSynopsis;
use ibis_core::{wire, AccessMethod, Cell, Dataset, RangeQuery, Result, RowSet, WorkCounters};
use ibis_vafile::{VaFile, VaPlusFile};
use std::sync::Arc;

const SNAPSHOT_MAGIC: &[u8; 4] = b"IBSS";
const SNAPSHOT_VERSION: u16 = 1;

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
    /// Maintain an equality index over adaptive containers
    /// ([`ibis_bitmap::AdaptiveBitmapIndex`], planned as
    /// `"bitmap-adaptive"`): per-chunk array/bitmap/run containers
    /// with container-exact work counters and a compression-scaled cost
    /// estimate.
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
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unknown index-config bits {bits:#x}"),
            ));
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

/// An incomplete relation with maintained indexes and an append delta.
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
    methods: Vec<Arc<dyn AccessMethod>>,
    /// Appended rows not yet folded into the indexes, row-major.
    delta: Vec<Vec<Cell>>,
    /// Tombstoned row ids (base or delta numbering), applied as a result
    /// filter until the next compaction renumbers the survivors.
    deleted: std::collections::BTreeSet<u32>,
    /// Per-column value histograms of the base dataset, cached so the
    /// planner's cardinality estimates don't rescan columns on every query.
    histograms: Vec<Vec<usize>>,
}

impl std::fmt::Debug for IncompleteDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncompleteDb")
            .field("config", &self.config)
            .field(
                "methods",
                &self.methods.iter().map(|m| m.name()).collect::<Vec<_>>(),
            )
            .field("n_rows", &self.n_rows())
            .field("delta_rows", &self.delta.len())
            .field("deleted", &self.deleted.len())
            .finish()
    }
}

/// Builds the access-method registry for `base` under `config`. The
/// sequential scan always comes last, so indexes win registration-order
/// ties against it.
fn build_methods(config: DbConfig, base: &Arc<Dataset>) -> Vec<Arc<dyn AccessMethod>> {
    let mut methods: Vec<Arc<dyn AccessMethod>> = Vec::new();
    if config.bee {
        methods.push(Arc::new(EqualityBitmapIndex::<Wah>::build(base)));
    }
    if config.bre {
        methods.push(Arc::new(RangeBitmapIndex::<Wah>::build(base)));
    }
    if config.bie {
        methods.push(Arc::new(IntervalBitmapIndex::<Wah>::build(base)));
    }
    if config.decomposed {
        methods.push(Arc::new(DecomposedBitmapIndex::<Wah>::build(base)));
    }
    if config.adaptive {
        methods.push(Arc::new(EqualityBitmapIndex::<Adaptive>::build(base)));
    }
    if config.va {
        methods.push(Arc::new(VaFile::build(base).bind(Arc::clone(base))));
    }
    if config.vaplus {
        methods.push(Arc::new(VaPlusFile::build(base).bind(Arc::clone(base))));
    }
    methods.push(Arc::new(SequentialScan.bind(Arc::clone(base))));
    methods
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
        (self.base.n_rows() + self.delta.len()).saturating_sub(self.deleted.len())
    }

    /// Tombstoned rows awaiting compaction.
    pub fn deleted_len(&self) -> usize {
        self.deleted.len()
    }

    /// Deletes a row by id. Returns `true` if the row existed and was
    /// alive. Deleted rows disappear from query results immediately; their
    /// storage is reclaimed (and surviving rows are **renumbered**) at the
    /// next [`compact`](IncompleteDb::compact).
    pub fn delete(&mut self, row: u32) -> bool {
        if (row as usize) < self.base.n_rows() + self.delta.len() {
            self.deleted.insert(row)
        } else {
            false
        }
    }

    /// Rows awaiting compaction.
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// The schema width.
    pub fn n_attrs(&self) -> usize {
        self.base.n_attrs()
    }

    /// Names of the registered access methods, in planning order.
    pub fn method_names(&self) -> Vec<&'static str> {
        self.methods.iter().map(|m| m.name()).collect()
    }

    /// Total bytes held by the maintained indexes.
    pub fn index_bytes(&self) -> usize {
        self.methods.iter().map(|m| m.size_bytes()).sum()
    }

    /// Appends one row (validated against the schema). The row lands in the
    /// delta store; queries see it immediately, indexes pick it up at the
    /// next [`compact`](IncompleteDb::compact).
    pub fn insert(&mut self, row: &[Cell]) -> Result<()> {
        ibis_core::validate_row(
            row,
            |a| self.base.column(a).cardinality(),
            self.base.n_attrs(),
        )?;
        self.delta.push(row.to_vec());
        Ok(())
    }

    /// Folds the delta store into the base dataset, drops tombstoned rows
    /// (renumbering the survivors), and rebuilds the maintained indexes.
    ///
    /// Returns `true` if there was anything to fold — a clean database is a
    /// no-op and keeps its indexes, which is what makes per-shard compaction
    /// in [`ShardedDb`] O(dirty shards) instead of O(all rows).
    pub fn compact(&mut self) -> bool {
        if self.delta.is_empty() && self.deleted.is_empty() {
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
        self.base = Arc::new(Dataset::new(columns).expect("equal lengths by construction"));
        self.histograms = self
            .base
            .columns()
            .iter()
            .map(|c| c.value_counts())
            .collect();
        self.delta.clear();
        self.deleted.clear();
        self.methods = build_methods(self.config, &self.base);
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

    /// Plans a query: ranks every registered access method that supports it
    /// by `(estimated_cost, size_bytes, registration order)` and reports
    /// the whole decision table.
    pub fn explain(&self, query: &RangeQuery) -> Result<Plan> {
        let mut span = ibis_obs::span("db.plan");
        query.validate(&self.base)?;
        let candidates: Vec<CandidatePlan> = self
            .methods
            .iter()
            .filter(|m| m.supports(query))
            .map(|m| CandidatePlan {
                name: m.name(),
                estimated_cost: m.estimated_cost(query),
                size_bytes: m.size_bytes(),
            })
            .collect();
        let mut best = 0;
        for (i, c) in candidates.iter().enumerate().skip(1) {
            let b = &candidates[best];
            if c.estimated_cost < b.estimated_cost
                || (c.estimated_cost == b.estimated_cost && c.size_bytes < b.size_bytes)
            {
                best = i;
            }
        }
        // Deliberately NOT named `candidates`: span fields that reuse a
        // `WorkCounters` field name are treated as counter deltas by the
        // profile/slow-log attribution, and this one is a plan-table size.
        span.add_field("plan_candidates", candidates.len() as u64);
        Ok(Plan {
            chosen: candidates[best].name,
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
        let plan = self.explain(query)?;
        let method = self
            .methods
            .iter()
            .find(|m| m.name() == plan.chosen)
            .expect("chosen from this registry");
        let (base_rows, mut counters) = method.execute_with_cost_threads(query, threads)?;
        counters.entries_scanned = counters.entries_scanned.saturating_add(self.delta.len());
        // Delta rows are scanned with the semantic definition directly.
        let mut span = ibis_obs::span("db.delta");
        span.add_field("delta_rows", self.delta.len() as u64);
        // The delta scan is charged to `entries_scanned` above; record the
        // same delta on this span so per-phase attribution stays exact.
        span.add_field("entries_scanned", self.delta.len() as u64);
        let offset = self.base.n_rows() as u32;
        let policy = query.policy();
        let delta_hits = self.delta.iter().enumerate().filter_map(|(i, row)| {
            let ok = query
                .predicates()
                .iter()
                .all(|p| policy.cell_matches(row[p.attr], p.interval));
            ok.then_some(offset + i as u32)
        });
        let combined = base_rows.union(&RowSet::from_sorted(delta_hits.collect()));
        if self.deleted.is_empty() {
            return Ok((combined, counters));
        }
        Ok((
            RowSet::from_sorted(
                combined
                    .iter()
                    .filter(|r| !self.deleted.contains(r))
                    .collect(),
            ),
            counters,
        ))
    }

    /// Executes a batch of queries, planning each independently and fanning
    /// the work out across the configured worker pool (delta and tombstone
    /// merging included). A panic on any worker surfaces as
    /// [`ibis_core::Error::WorkerPanicked`] instead of aborting.
    pub fn execute_batch(&self, queries: &[RangeQuery]) -> Result<Vec<RowSet>> {
        self.execute_batch_threads(queries, ibis_core::parallel::configured_threads())
    }

    /// [`Self::execute_batch`] with an explicit fan-out degree. Queries run
    /// whole (planning included) on the pool's workers; results come back
    /// in input order regardless of `threads`. Each worker runs its query
    /// sequentially — the batch itself is the parallelism, so fanning out
    /// again inside each query would only oversubscribe the pool.
    pub fn execute_batch_threads(
        &self,
        queries: &[RangeQuery],
        threads: usize,
    ) -> Result<Vec<RowSet>> {
        ibis_core::parallel::ExecPool::new(threads)
            .try_map(queries.iter().collect(), |q| self.execute_threads(q, 1))
    }

    /// Counts matching rows.
    pub fn count(&self, query: &RangeQuery) -> Result<usize> {
        Ok(self.execute(query)?.len())
    }

    /// The cell at (`row`, `attr`), addressing base then delta.
    pub fn cell(&self, row: usize, attr: usize) -> Cell {
        if row < self.base.n_rows() {
            self.base.cell(row, attr)
        } else {
            self.delta[row - self.base.n_rows()][attr]
        }
    }
}

/// Copies rows `start..end` of `dataset` into a standalone dataset with the
/// same schema (an `end` of `start` yields an empty, schema-only dataset).
fn slice_dataset(dataset: &Dataset, start: usize, end: usize) -> Dataset {
    let columns = dataset
        .columns()
        .iter()
        .map(|col| {
            ibis_core::Column::from_raw(
                col.name(),
                col.cardinality(),
                col.raw()[start..end].to_vec(),
            )
            .expect("slice of a valid column is valid")
        })
        .collect();
    Dataset::new(columns).expect("equal lengths by construction")
}

/// One shard: a full [`IncompleteDb`] over a contiguous row range, plus the
/// synopsis the planner consults before touching any of its indexes.
///
/// Shards are held behind [`Arc`] by [`ShardedDb`], so cloning a whole
/// database (what snapshot publication does on every mutation) is one
/// pointer bump per shard; mutators go through [`Arc::make_mut`], which
/// deep-copies only a shard that is still shared with a live snapshot.
#[derive(Clone, Debug)]
struct Shard {
    db: IncompleteDb,
    synopsis: ShardSynopsis,
}

impl Shard {
    /// Width of this shard's row-id space: base + delta, tombstones
    /// included (tombstoned ids stay allocated until compaction).
    fn id_width(&self) -> usize {
        self.db.base.n_rows() + self.db.delta.len()
    }

    fn over(dataset: Dataset, config: DbConfig) -> Shard {
        Shard {
            synopsis: ShardSynopsis::of(&dataset),
            db: IncompleteDb::with_config(dataset, config),
        }
    }
}

/// The result of one sharded query, with the pruning decisions exposed.
#[derive(Clone, Debug)]
pub struct ShardExecution {
    /// Matching rows, in global row-id order.
    pub rows: RowSet,
    /// Work counters summed (saturating) over the executed shards.
    pub counters: WorkCounters,
    /// Number of shards the database currently holds.
    pub shards_total: usize,
    /// Shards skipped because their synopsis proved no row can match.
    pub shards_pruned: usize,
}

impl ShardExecution {
    /// Shards that actually executed (`shards_total − shards_pruned`).
    pub fn shards_executed(&self) -> usize {
        self.shards_total.saturating_sub(self.shards_pruned)
    }
}

/// An incomplete relation partitioned into fixed-capacity shards, each a
/// full [`IncompleteDb`] (own per-family indexes, own append delta) plus a
/// [`ShardSynopsis`] used to prune shards that cannot contain an answer.
///
/// Row ids are global and deterministic: shard `i` owns the contiguous id
/// range after shards `0..i`, so a sharded database returns **bit-identical
/// rows** to a monolithic [`IncompleteDb`] over the same data — the
/// metamorphic relation the oracle and conformance tests assert. Appends
/// route to the last shard, opening a fresh one when it reaches capacity,
/// and [`ShardedDb::compact`] rebuilds only dirty shards.
///
/// Pruning follows the two missing-data semantics (see
/// [`ShardSynopsis::can_prune`]): under `IsNotMatch` an all-missing queried
/// attribute eliminates a shard outright; under `IsMatch` a shard with any
/// missing value on a queried attribute can never be pruned on it.
///
/// ```
/// use ibis::prelude::*;
///
/// // Six rows whose values grow with the row id → 3 shards of 2 rows,
/// // each covering a distinct value band.
/// let rows: Vec<Vec<Cell>> = (1u16..=6).map(|v| vec![Cell::present(v)]).collect();
/// let data = Dataset::from_rows(&[("a", 9)], &rows).unwrap();
/// let db = ShardedDb::new(data, 2);
/// assert_eq!(db.shard_count(), 3);
///
/// // [5,6] misses the first two shards' envelopes: both are pruned.
/// let q = RangeQuery::new(vec![Predicate::range(0, 5, 6)], MissingPolicy::IsNotMatch).unwrap();
/// let exec = db.execute_with_stats(&q).unwrap();
/// assert_eq!(exec.rows.rows(), &[4, 5]);
/// assert_eq!(exec.shards_pruned, 2);
/// assert_eq!(exec.shards_executed(), 1);
/// ```
#[derive(Clone)]
pub struct ShardedDb {
    config: DbConfig,
    shard_rows: usize,
    /// Shards behind `Arc` so a database clone (one snapshot publication)
    /// shares every shard; mutation copies-on-write only the touched shard.
    shards: Vec<Arc<Shard>>,
    /// Memoized global-id start offset of each shard (`offsets[i]` = sum of
    /// `id_width` over shards `0..i`), so delete and query resolve a shard
    /// without walking all earlier ones. Appends to the last shard never
    /// move a start; only opening a shard or compacting (which renumbers)
    /// touches this.
    offsets: Vec<usize>,
}

impl std::fmt::Debug for ShardedDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDb")
            .field("config", &self.config)
            .field("shard_rows", &self.shard_rows)
            .field("shards", &self.shards.len())
            .field("n_rows", &self.n_rows())
            .finish()
    }
}

impl ShardedDb {
    /// Partitions `dataset` into shards of at most `shard_rows` rows (in
    /// row order, so global ids equal monolithic ids) under the default
    /// index config. A `shard_rows` of 0 is treated as 1.
    pub fn new(dataset: Dataset, shard_rows: usize) -> ShardedDb {
        ShardedDb::with_config(dataset, shard_rows, DbConfig::default())
    }

    /// [`ShardedDb::new`] with an explicit index configuration, applied to
    /// every shard. An empty dataset still gets one (empty) shard so the
    /// schema is always available.
    pub fn with_config(dataset: Dataset, shard_rows: usize, config: DbConfig) -> ShardedDb {
        let shard_rows = shard_rows.max(1);
        let n = dataset.n_rows();
        let mut shards = Vec::with_capacity(n.div_ceil(shard_rows).max(1));
        let mut start = 0;
        while start < n {
            let end = (start + shard_rows).min(n);
            shards.push(Arc::new(Shard::over(
                slice_dataset(&dataset, start, end),
                config,
            )));
            start = end;
        }
        if shards.is_empty() {
            shards.push(Arc::new(Shard::over(slice_dataset(&dataset, 0, 0), config)));
        }
        let mut db = ShardedDb {
            config,
            shard_rows,
            shards,
            offsets: Vec::new(),
        };
        db.recompute_offsets();
        db
    }

    /// The per-shard index configuration.
    pub fn config(&self) -> DbConfig {
        self.config
    }

    /// Rebuilds the memoized shard start offsets from scratch (needed only
    /// when shard widths change: shard creation and compaction).
    fn recompute_offsets(&mut self) {
        self.offsets.clear();
        self.offsets.reserve(self.shards.len());
        let mut off = 0usize;
        for shard in &self.shards {
            self.offsets.push(off);
            off += shard.id_width();
        }
    }

    /// Total live rows across all shards.
    pub fn n_rows(&self) -> usize {
        self.shards
            .iter()
            .fold(0usize, |acc, s| acc.saturating_add(s.db.n_rows()))
    }

    /// The schema width.
    pub fn n_attrs(&self) -> usize {
        self.shards[0].db.n_attrs()
    }

    /// The schema carrier: shard 0's base relation, whose column names and
    /// cardinalities are shared by every shard (query parsers resolve
    /// attribute names against this).
    pub fn schema(&self) -> &Dataset {
        &self.shards[0].db.base
    }

    /// Number of shards currently held (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The configured shard capacity.
    pub fn shard_rows(&self) -> usize {
        self.shard_rows
    }

    /// The synopsis of shard `i` (attribute envelopes, missing counts).
    pub fn synopsis(&self, i: usize) -> &ShardSynopsis {
        &self.shards[i].synopsis
    }

    /// Total bytes held by the maintained indexes, over all shards.
    pub fn index_bytes(&self) -> usize {
        self.shards
            .iter()
            .fold(0usize, |acc, s| acc.saturating_add(s.db.index_bytes()))
    }

    /// Appends one row. It lands in the last shard's delta — or in a fresh
    /// shard when the last one has reached capacity — and is folded into
    /// that shard's synopsis immediately, so pruning stays sound for rows
    /// that have never seen a compaction.
    pub fn insert(&mut self, row: &[Cell]) -> Result<()> {
        let last = self.shards.last().expect("≥ 1 shard");
        if last.id_width() >= self.shard_rows {
            let next_offset = self.offsets.last().expect("≥ 1 shard") + last.id_width();
            let schema_only = slice_dataset(&self.shards[0].db.base, 0, 0);
            self.shards
                .push(Arc::new(Shard::over(schema_only, self.config)));
            self.offsets.push(next_offset);
        }
        // Copy-on-write: only the receiving shard is cloned, and only when a
        // published snapshot still shares it.
        let shard = Arc::make_mut(self.shards.last_mut().expect("≥ 1 shard"));
        shard.db.insert(row)?;
        shard.synopsis.observe_row(row);
        Ok(())
    }

    /// Validates `row` against the schema without inserting it (the durable
    /// engine checks before logging, so invalid rows never reach the WAL).
    pub fn validate_row(&self, row: &[Cell]) -> Result<()> {
        let base = &self.shards[0].db.base;
        ibis_core::validate_row(row, |a| base.column(a).cardinality(), base.n_attrs())
    }

    /// Deletes a row by global id. Returns `true` if the row existed and
    /// was alive. The synopsis is *not* narrowed — it stays a sound
    /// over-approximation until the owning shard is compacted.
    pub fn delete(&mut self, row: u32) -> bool {
        let row = row as usize;
        // Tombstones don't shrink id_width, so the memoized offsets stay
        // valid across deletes; binary search finds the owning shard in
        // O(log k) instead of walking every earlier shard.
        let i = self.offsets.partition_point(|&o| o <= row) - 1;
        if row >= self.offsets[i] + self.shards[i].id_width() {
            return false; // beyond the last shard's id space
        }
        // A miss never clones; only a real tombstone copies-on-write.
        Arc::make_mut(&mut self.shards[i])
            .db
            .delete((row - self.offsets[i]) as u32)
    }

    /// Compacts every **dirty** shard (pending delta rows or tombstones),
    /// rebuilding its indexes and recomputing its synopsis exactly; clean
    /// shards are untouched. Returns the number of shards rebuilt — the
    /// cost is O(dirty shards), not O(all rows).
    ///
    /// Compaction renumbers survivors within each shard, which shifts the
    /// global ids of later shards' rows exactly as a monolithic
    /// [`IncompleteDb::compact`] would: the global order of survivors is
    /// preserved, so sharded and monolithic answers stay identical.
    pub fn compact(&mut self) -> usize {
        let mut rebuilt = 0;
        for shard in &mut self.shards {
            // Cheap cleanliness probe first, so clean shards are never
            // copied-on-write (they stay shared with every live snapshot).
            if shard.db.delta.is_empty() && shard.db.deleted.is_empty() {
                continue;
            }
            let shard = Arc::make_mut(shard);
            if shard.db.compact() {
                shard.synopsis = ShardSynopsis::of(&shard.db.base);
                rebuilt += 1;
            }
        }
        if rebuilt > 0 {
            // Compaction reclaims tombstoned ids, shifting every later
            // shard's start.
            self.recompute_offsets();
        }
        rebuilt
    }

    /// Executes a query at the configured parallelism degree.
    pub fn execute(&self, query: &RangeQuery) -> Result<RowSet> {
        self.execute_threads(query, ibis_core::parallel::configured_threads())
    }

    /// [`ShardedDb::execute`] with an explicit thread degree. Rows and
    /// counters are identical for any `threads`.
    pub fn execute_threads(&self, query: &RangeQuery, threads: usize) -> Result<RowSet> {
        Ok(self.execute_with_stats_threads(query, threads)?.rows)
    }

    /// Executes and reports the merged [`WorkCounters`].
    pub fn execute_with_cost_threads(
        &self,
        query: &RangeQuery,
        threads: usize,
    ) -> Result<(RowSet, WorkCounters)> {
        let exec = self.execute_with_stats_threads(query, threads)?;
        Ok((exec.rows, exec.counters))
    }

    /// [`ShardedDb::execute_with_stats_threads`] at the configured degree.
    pub fn execute_with_stats(&self, query: &RangeQuery) -> Result<ShardExecution> {
        self.execute_with_stats_threads(query, ibis_core::parallel::configured_threads())
    }

    /// The full sharded execution pipeline: consult every shard's synopsis,
    /// skip the provably-empty shards (recorded on the `shards.pruned`
    /// counter and the `db.shards` span), fan the survivors out over the
    /// worker pool (one `db.shard` span each), and merge — rows offset into
    /// global-id order, counters summed saturatingly in shard order.
    pub fn execute_with_stats_threads(
        &self,
        query: &RangeQuery,
        threads: usize,
    ) -> Result<ShardExecution> {
        query.validate(&self.shards[0].db.base)?;
        let mut span = ibis_obs::span("db.shards");
        debug_assert_eq!(self.offsets.len(), self.shards.len());
        let mut work: Vec<(usize, usize, &Shard)> = Vec::new();
        let mut pruned = 0usize;
        for (i, shard) in self.shards.iter().enumerate() {
            if shard.synopsis.can_prune(query) {
                pruned += 1;
            } else {
                work.push((i, self.offsets[i], shard));
            }
        }
        ibis_obs::counter_add("shards.pruned", pruned as u64);
        span.add_field("shards", self.shards.len() as u64);
        span.add_field("pruned", pruned as u64);
        // With more than one live shard the shards *are* the parallelism;
        // fanning out again inside each shard would oversubscribe the pool.
        // Counters are thread-degree-independent either way, so this choice
        // never shows up in the merged result.
        let inner = if work.len() > 1 { 1 } else { threads.max(1) };
        let parts =
            ibis_core::parallel::ExecPool::new(threads).try_map(work, |(i, off, shard)| {
                let mut shard_span = ibis_obs::span("db.shard");
                shard_span.add_field("shard", i as u64);
                let (rows, counters) = shard.db.execute_with_cost_threads(query, inner)?;
                shard_span.add_field("rows", rows.len() as u64);
                counters.record_into(&mut shard_span);
                let global = rows.iter().map(|r| r + off as u32).collect();
                Ok((RowSet::from_sorted(global), counters))
            })?;
        let mut counters = WorkCounters::zero();
        let mut sets = Vec::with_capacity(parts.len());
        for (rows, c) in parts {
            counters.merge(c);
            sets.push(rows);
        }
        let rows = RowSet::concat_sorted(sets);
        span.add_field("rows", rows.len() as u64);
        Ok(ShardExecution {
            rows,
            counters,
            shards_total: self.shards.len(),
            shards_pruned: pruned,
        })
    }

    /// Counts matching rows.
    pub fn count(&self, query: &RangeQuery) -> Result<usize> {
        Ok(self.execute(query)?.len())
    }

    /// Executes a batch of queries across the configured worker pool.
    pub fn execute_batch(&self, queries: &[RangeQuery]) -> Result<Vec<RowSet>> {
        self.execute_batch_threads(queries, ibis_core::parallel::configured_threads())
    }

    /// [`ShardedDb::execute_batch`] with an explicit fan-out degree.
    /// Queries run whole (synopsis pruning and shard merge included) on the
    /// pool's workers, each internally single-threaded — the batch itself
    /// is the parallelism — and results come back in input order at any
    /// `threads`. This is the server's coalesced-dispatch entry point: one
    /// pool submission amortizes pool wake-up over the whole batch instead
    /// of paying it per query.
    pub fn execute_batch_threads(
        &self,
        queries: &[RangeQuery],
        threads: usize,
    ) -> Result<Vec<RowSet>> {
        ibis_core::parallel::ExecPool::new(threads)
            .try_map(queries.iter().collect(), |q| self.execute_threads(q, 1))
    }

    /// Serializes the logical state — per-shard base dataset, delta rows,
    /// and tombstones — as one checksummed image (magic `IBSS`). Indexes
    /// and synopses are rebuildable caches and are **not** written;
    /// [`ShardedDb::read_snapshot`] recomputes them. Serialization is
    /// deterministic, so equal logical states produce identical bytes.
    pub fn write_snapshot(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        let mut body = Vec::new();
        wire::write_u8(&mut body, self.config.to_bits())?;
        wire::write_len(&mut body, self.shard_rows)?;
        wire::write_len(&mut body, self.shards.len())?;
        for shard in &self.shards {
            shard.db.base.write_to(&mut body)?;
            wire::write_len(&mut body, shard.db.delta.len())?;
            for row in &shard.db.delta {
                for cell in row {
                    wire::write_u16(&mut body, cell.raw())?;
                }
            }
            let deleted: Vec<u32> = shard.db.deleted.iter().copied().collect();
            wire::write_vec_u32(&mut body, &deleted)?;
        }
        wire::write_header(w, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
        wire::write_u32(w, crate::crc::crc32(&body))?;
        wire::write_bytes(w, &body)
    }

    /// Parses a snapshot image, rebuilding every index and synopsis.
    ///
    /// Hardened against corruption: the body is checksummed; allocations
    /// are capped (a lying length field hits a clean EOF, never a huge
    /// reservation); delta rows re-validate against the schema; tombstones
    /// must be in range; and all shards must share shard 0's schema, so a
    /// crafted image can't make later query dispatch index out of bounds.
    pub fn read_snapshot(r: &mut impl std::io::Read) -> std::io::Result<ShardedDb> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        wire::read_header(r, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
        let crc = wire::read_u32(r)?;
        let body = wire::read_bytes(r)?;
        if crate::crc::crc32(&body) != crc {
            return Err(bad("snapshot checksum mismatch"));
        }
        let r = &mut body.as_slice();
        let config = DbConfig::from_bits(wire::read_u8(r)?)?;
        let shard_rows = wire::read_len(r)?.max(1);
        let n_shards = wire::read_len(r)?;
        let mut shards: Vec<Arc<Shard>> = Vec::with_capacity(n_shards.min(1 << 16));
        for _ in 0..n_shards {
            let base = Dataset::read_from(r)?;
            if let Some(first) = shards.first() {
                let schema = |d: &Dataset| -> Vec<(String, u16)> {
                    d.columns()
                        .iter()
                        .map(|c| (c.name().to_string(), c.cardinality()))
                        .collect()
                };
                if schema(&base) != schema(&first.db.base) {
                    return Err(bad("snapshot shards disagree on the schema"));
                }
            }
            let mut shard = Shard::over(base, config);
            let width = shard.db.n_attrs();
            let n_delta = wire::read_len(r)?;
            for _ in 0..n_delta {
                // The cap mirrors wal.rs: a lying width in a crafted image
                // must hit a clean EOF, never a huge reservation.
                let mut row = Vec::with_capacity(width.min(1 << 16));
                for _ in 0..width {
                    row.push(Cell::from_raw(wire::read_u16(r)?));
                }
                shard
                    .db
                    .insert(&row)
                    .map_err(|e| bad(&format!("snapshot delta row invalid: {e}")))?;
                shard.synopsis.observe_row(&row);
            }
            let limit = shard.id_width();
            for id in wire::read_vec_u32(r)? {
                if (id as usize) >= limit {
                    return Err(bad("snapshot tombstone out of range"));
                }
                shard.db.deleted.insert(id);
            }
            shards.push(Arc::new(shard));
        }
        if shards.is_empty() {
            return Err(bad("snapshot holds no shards"));
        }
        if !r.is_empty() {
            return Err(bad("trailing bytes in snapshot body"));
        }
        let mut db = ShardedDb {
            config,
            shard_rows,
            shards,
            offsets: Vec::new(),
        };
        db.recompute_offsets();
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
        // A wide range on a high-cardinality attribute.
        let attr = (0..d.n_attrs())
            .find(|&a| d.base.column(a).cardinality() >= 50)
            .unwrap();
        let c = d.base.column(attr).cardinality();
        let range = RangeQuery::new(
            vec![Predicate::range(attr, 5, c - 4)],
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
    fn planner_prefers_interval_encoding_when_registered() {
        // The §6 acceptance case: interval encoding ties range encoding at
        // ≤ 3 bitmap reads per dimension but stores roughly half the
        // bitmaps, so once registered it must win the size tie-break
        // against range encoding. The adaptive index prices queries with
        // its compression-scaled exact model rather than the uncompressed
        // §6 bound, so with `all()` it undercuts both and takes the plan —
        // the interval-vs-range ordering still shows in the candidates.
        let data = census_scaled(400, 407);
        let d = IncompleteDb::with_config(data, DbConfig::all());
        let attr = (0..d.n_attrs())
            .find(|&a| d.base.column(a).cardinality() >= 50)
            .unwrap();
        let c = d.base.column(attr).cardinality();
        let range = RangeQuery::new(
            vec![Predicate::range(attr, 5, c - 4)],
            MissingPolicy::IsMatch,
        )
        .unwrap();
        let plan = d.explain(&range).unwrap();
        assert_eq!(plan.chosen, "bitmap-adaptive");
        let cost = |name: &str| {
            plan.candidates
                .iter()
                .find(|cand| cand.name == name)
                .unwrap()
                .estimated_cost
        };
        assert_eq!(cost("bitmap-interval"), cost("bitmap-range"));
        assert!(cost("bitmap-adaptive") < cost("bitmap-interval"));
        // Without the adaptive index the §6 winner is restored.
        let derived = IncompleteDb::with_config(
            census_scaled(400, 407),
            DbConfig {
                adaptive: false,
                ..DbConfig::all()
            },
        );
        assert_eq!(derived.explain(&range).unwrap().chosen, "bitmap-interval");
        // Points still go to an equality encoding even with everything on
        // (the adaptive index *is* equality-encoded).
        let point = RangeQuery::new(vec![Predicate::point(0, 1)], MissingPolicy::IsMatch).unwrap();
        let chosen = d.explain(&point).unwrap().chosen;
        assert!(
            chosen == "bitmap-adaptive" || chosen == "bitmap-equality",
            "point query planned on {chosen}"
        );
    }

    #[test]
    fn adaptive_config_plans_and_answers_like_the_rest() {
        let data = census_scaled(300, 419);
        let adaptive_only = IncompleteDb::with_config(
            data.clone(),
            DbConfig {
                adaptive: true,
                ..DbConfig::none()
            },
        );
        assert_eq!(
            adaptive_only.method_names(),
            vec!["bitmap-adaptive", "sequential-scan"]
        );
        let reference = IncompleteDb::new(data.clone());
        for policy in MissingPolicy::ALL {
            let q = RangeQuery::new(
                vec![Predicate::range(0, 1, 2), Predicate::range(1, 1, 3)],
                policy,
            )
            .unwrap();
            assert_eq!(adaptive_only.explain(&q).unwrap().chosen, "bitmap-adaptive");
            assert_eq!(
                adaptive_only.execute(&q).unwrap(),
                reference.execute(&q).unwrap(),
                "{policy}"
            );
            assert_eq!(
                adaptive_only.execute(&q).unwrap(),
                scan::execute(&data, &q),
                "{policy}"
            );
        }
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
    fn execute_batch_matches_sequential_execution() {
        let data = census_scaled(300, 408);
        let mut d = IncompleteDb::new(data.clone());
        d.insert(&vec![m(); data.n_attrs()]).unwrap();
        d.delete(0);
        let spec = QuerySpec {
            n_queries: 12,
            k: 3,
            global_selectivity: 0.05,
            policy: MissingPolicy::IsMatch,
            candidate_attrs: vec![],
        };
        let queries = workload(&data, &spec, 409);
        let sequential: Vec<RowSet> = queries.iter().map(|q| d.execute(q).unwrap()).collect();
        assert_eq!(d.execute_batch(&queries).unwrap(), sequential);
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
    fn execute_batch_threads_matches_at_any_degree() {
        let data = census_scaled(200, 412);
        let d = IncompleteDb::new(data.clone());
        let spec = QuerySpec {
            n_queries: 9,
            k: 2,
            global_selectivity: 0.05,
            policy: MissingPolicy::IsNotMatch,
            candidate_attrs: vec![],
        };
        let queries = workload(&data, &spec, 413);
        let sequential: Vec<RowSet> = queries.iter().map(|q| d.execute(q).unwrap()).collect();
        for threads in [1, 2, 8] {
            assert_eq!(
                d.execute_batch_threads(&queries, threads).unwrap(),
                sequential,
                "t={threads}"
            );
        }
    }

    #[test]
    fn sharded_execute_batch_threads_matches_at_any_degree() {
        let data = census_scaled(300, 414);
        let mut d = ShardedDb::new(data.clone(), 64);
        d.insert(&vec![m(); data.n_attrs()]).unwrap();
        d.delete(2);
        let spec = QuerySpec {
            n_queries: 10,
            k: 2,
            global_selectivity: 0.05,
            policy: MissingPolicy::IsMatch,
            candidate_attrs: vec![],
        };
        let queries = workload(&data, &spec, 415);
        let sequential: Vec<RowSet> = queries.iter().map(|q| d.execute(q).unwrap()).collect();
        assert_eq!(d.execute_batch(&queries).unwrap(), sequential);
        for threads in [1, 2, 8] {
            assert_eq!(
                d.execute_batch_threads(&queries, threads).unwrap(),
                sequential,
                "t={threads}"
            );
        }
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
}

#[cfg(test)]
mod estimate_tests {
    use super::*;
    use ibis_core::gen::census_scaled;
    use ibis_core::{MissingPolicy, Predicate};

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
}

#[cfg(test)]
mod sharded_tests {
    use super::*;
    use ibis_core::gen::{census_scaled, workload, QuerySpec};
    use ibis_core::{MissingPolicy, Predicate};

    fn v(x: u16) -> Cell {
        Cell::present(x)
    }
    fn m() -> Cell {
        Cell::MISSING
    }

    fn banded() -> Dataset {
        // Values grow with the row id, so 2-row shards cover disjoint bands.
        let rows: Vec<Vec<Cell>> = (1u16..=8).map(|x| vec![v(x)]).collect();
        Dataset::from_rows(&[("a", 9)], &rows).unwrap()
    }

    #[test]
    fn sharded_matches_monolithic_on_workloads() {
        let data = census_scaled(300, 420);
        let mono = IncompleteDb::new(data.clone());
        for shard_rows in [47, 100, 1000] {
            let sharded = ShardedDb::new(data.clone(), shard_rows);
            for policy in MissingPolicy::ALL {
                let spec = QuerySpec {
                    n_queries: 6,
                    k: 3,
                    global_selectivity: 0.05,
                    policy,
                    candidate_attrs: vec![],
                };
                for q in workload(&data, &spec, 421) {
                    assert_eq!(
                        sharded.execute(&q).unwrap(),
                        mono.execute(&q).unwrap(),
                        "{policy} shard_rows={shard_rows}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruning_skips_out_of_band_shards() {
        let db = ShardedDb::new(banded(), 2);
        assert_eq!(db.shard_count(), 4);
        let q =
            RangeQuery::new(vec![Predicate::range(0, 3, 4)], MissingPolicy::IsNotMatch).unwrap();
        let exec = db.execute_with_stats(&q).unwrap();
        assert_eq!(exec.rows.rows(), &[2, 3]);
        assert_eq!(exec.shards_pruned, 3);
        assert_eq!(exec.shards_executed(), 1);
    }

    #[test]
    fn is_match_semantics_disable_pruning_on_attrs_with_missing() {
        // One missing value per shard on the queried attribute: under
        // IsMatch no shard may ever be pruned on it, under IsNotMatch the
        // envelope still prunes.
        let rows: Vec<Vec<Cell>> = vec![vec![v(1)], vec![m()], vec![v(8)], vec![m()]];
        let data = Dataset::from_rows(&[("a", 9)], &rows).unwrap();
        let db = ShardedDb::new(data, 2);
        assert_eq!(db.shard_count(), 2);
        let key = vec![Predicate::range(0, 4, 5)]; // misses both envelopes
        let is_match = RangeQuery::new(key.clone(), MissingPolicy::IsMatch).unwrap();
        let exec = db.execute_with_stats(&is_match).unwrap();
        assert_eq!(
            exec.shards_pruned, 0,
            "missing ⇒ never prunable under IsMatch"
        );
        assert_eq!(exec.rows.rows(), &[1, 3]);
        let not_match = RangeQuery::new(key, MissingPolicy::IsNotMatch).unwrap();
        let exec = db.execute_with_stats(&not_match).unwrap();
        assert_eq!(exec.shards_pruned, 2);
        assert!(exec.rows.is_empty());
    }

    #[test]
    fn appends_open_new_shards_and_compaction_is_dirty_only() {
        let mut db = ShardedDb::new(banded(), 2);
        assert_eq!(db.shard_count(), 4);
        db.insert(&[v(9)]).unwrap(); // last shard full → opens shard 5
        assert_eq!(db.shard_count(), 5);
        db.insert(&[v(9)]).unwrap(); // rides in shard 5's delta
        assert_eq!(db.shard_count(), 5);
        assert_eq!(db.n_rows(), 10);
        let q = RangeQuery::new(vec![Predicate::point(0, 9)], MissingPolicy::IsNotMatch).unwrap();
        assert_eq!(db.execute(&q).unwrap().rows(), &[8, 9]);
        // Only the one dirty shard rebuilds.
        assert_eq!(db.compact(), 1);
        assert_eq!(db.compact(), 0, "clean db compacts nothing");
        assert_eq!(db.execute(&q).unwrap().rows(), &[8, 9]);
    }

    #[test]
    fn deletes_route_to_the_owning_shard() {
        let mut db = ShardedDb::new(banded(), 3); // shards: [0..3), [3..6), [6..8)
        assert!(db.delete(4));
        assert!(!db.delete(4), "double delete is a no-op");
        assert!(!db.delete(99), "unknown global id");
        let q = RangeQuery::new(vec![Predicate::range(0, 1, 9)], MissingPolicy::IsMatch).unwrap();
        assert_eq!(db.execute(&q).unwrap().rows(), &[0, 1, 2, 3, 5, 6, 7]);
        assert_eq!(db.n_rows(), 7);
        assert_eq!(db.compact(), 1, "only the shard owning row 4 was dirty");
        // Survivors renumbered 0..7, order preserved.
        assert_eq!(db.execute(&q).unwrap().rows(), &[0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn delete_routing_matches_monolithic_at_every_boundary() {
        // Regression test for O(log k) delete routing via the memoized
        // base-offset table: exercise every global id — shard starts, shard
        // ends, delta rows past the last base row, and ids beyond the id
        // space — against a monolithic twin.
        let data = census_scaled(100, 423);
        let mut mono = IncompleteDb::new(data.clone());
        let mut db = ShardedDb::new(data, 7); // 15 shards, last one ragged
        for _ in 0..5 {
            let row = vec![v(1); mono.base.n_attrs()];
            mono.insert(&row).unwrap();
            db.insert(&row).unwrap(); // ids 100..105 live in shard deltas
        }
        let q = RangeQuery::new(vec![Predicate::range(0, 1, 2)], MissingPolicy::IsMatch).unwrap();
        for id in [0u32, 6, 7, 13, 14, 69, 70, 99, 100, 104, 105, 400] {
            assert_eq!(db.delete(id), mono.delete(id), "first delete of {id}");
            assert_eq!(db.delete(id), mono.delete(id), "double delete of {id}");
            assert_eq!(db.n_rows(), mono.n_rows(), "after {id}");
        }
        assert_eq!(db.execute(&q).unwrap(), mono.execute(&q).unwrap());
    }

    #[test]
    fn clones_share_shards_until_mutated() {
        // A `ShardedDb` clone is what snapshot publication hands to readers:
        // it must be O(shards) pointer bumps, and later mutations must
        // copy-on-write only the touched shard.
        let mut db = ShardedDb::new(banded(), 2); // 4 shards
        let snap = db.clone();
        assert!((0..4).all(|i| Arc::ptr_eq(&db.shards[i], &snap.shards[i])));
        assert!(!db.delete(99), "a routing miss must not copy anything");
        assert!((0..4).all(|i| Arc::ptr_eq(&db.shards[i], &snap.shards[i])));
        assert!(db.delete(5)); // shard 2 copies; 0, 1, 3 stay shared
        db.insert(&[v(9)]).unwrap(); // shard 3 is full → opens a fresh shard 4
        assert_eq!(db.shard_count(), 5);
        for (i, shared) in [(0, true), (1, true), (2, false), (3, true)] {
            assert_eq!(Arc::ptr_eq(&db.shards[i], &snap.shards[i]), shared, "{i}");
        }
        // The clone still answers from the pre-mutation state.
        let q = RangeQuery::new(vec![Predicate::range(0, 1, 9)], MissingPolicy::IsMatch).unwrap();
        assert_eq!(snap.execute(&q).unwrap().rows(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(db.execute(&q).unwrap().rows(), &[0, 1, 2, 3, 4, 6, 7, 8]);
        // Compacting the clone's twin leaves clean shards shared.
        let mut twin = snap.clone();
        assert_eq!(twin.compact(), 0, "clean db: no shard rebuilt");
        assert!((0..4).all(|i| Arc::ptr_eq(&twin.shards[i], &snap.shards[i])));
    }

    #[test]
    fn counters_are_thread_degree_independent() {
        let data = census_scaled(240, 422);
        let db = ShardedDb::new(data, 60);
        let q = RangeQuery::new(
            vec![Predicate::range(0, 1, 2), Predicate::range(1, 1, 3)],
            MissingPolicy::IsMatch,
        )
        .unwrap();
        let (rows1, c1) = db.execute_with_cost_threads(&q, 1).unwrap();
        for threads in [2, 8] {
            let (rows, c) = db.execute_with_cost_threads(&q, threads).unwrap();
            assert_eq!(rows, rows1, "t={threads}");
            assert_eq!(c, c1, "t={threads}");
        }
    }

    #[test]
    fn empty_dataset_gets_one_empty_shard() {
        let data = slice_dataset(&banded(), 0, 0);
        let mut db = ShardedDb::new(data, 4);
        assert_eq!(db.shard_count(), 1);
        assert_eq!(db.n_rows(), 0);
        let q = RangeQuery::new(vec![Predicate::range(0, 1, 9)], MissingPolicy::IsMatch).unwrap();
        let exec = db.execute_with_stats(&q).unwrap();
        assert!(exec.rows.is_empty());
        assert_eq!(exec.shards_pruned, 1, "an empty shard is always prunable");
        db.insert(&[v(5)]).unwrap();
        assert_eq!(db.execute(&q).unwrap().rows(), &[0]);
    }

    #[test]
    fn invalid_queries_error_regardless_of_pruning() {
        let db = ShardedDb::new(banded(), 2);
        let over =
            RangeQuery::new(vec![Predicate::range(0, 1, 10)], MissingPolicy::IsMatch).unwrap();
        assert!(db.execute(&over).is_err(), "hi beyond cardinality");
        let out = RangeQuery::new(vec![Predicate::point(7, 1)], MissingPolicy::IsMatch).unwrap();
        assert!(db.execute(&out).is_err(), "attr beyond schema");
    }
}

#[cfg(test)]
mod delete_tests {
    use super::*;
    use ibis_core::{scan, MissingPolicy, Predicate};

    fn v(x: u16) -> Cell {
        Cell::present(x)
    }
    fn m() -> Cell {
        Cell::MISSING
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
