//! The router: [`ShardedDb`] partitions a relation into fixed-capacity
//! shards and does routing only — global-id offsets, synopsis pruning, one
//! plan per query, a priced fan-out over the worker pool, merge, and
//! copy-on-write of the one shard a mutation touches.
//!
//! Every shard is a whole [`IncompleteDb`], which owns its rows, indexes,
//! planner and synopsis (see [`crate::db`]). This module sits beside that
//! one rather than inside it, so a shard's fields are out of reach here:
//! the router can only ask a shard what any caller can ask — its id
//! width, whether it is dirty, its synopsis, its answer to a query, its
//! section of a snapshot image.

use crate::db::{invalid, DbConfig, IncompleteDb};
use ibis_core::parallel::{partition, priced_degree, ExecPool};
use ibis_core::synopsis::ShardSynopsis;
use ibis_core::{wire, Cell, Dataset, RangeQuery, Result, RowSet, WorkCounters};
use std::sync::Arc;

/// One shard a query visits: its position, its global-id offset, and the
/// shard itself, shared so the pool's workers may hold it.
type Visit = (usize, usize, Arc<IncompleteDb>);

/// What a shard visit costs beyond its plan's `estimated_cost`, in the
/// same unit (the plain kernel's time per 64-bit word): its span, its
/// answer's conversion and its ids, priced as the per-visit time of a
/// 2,000-row visit that its words do not explain, measured by `figures
/// fanout` (DESIGN.md §9).
pub const VISIT_PRICE: f64 = 4_500.0;

const SNAPSHOT_MAGIC: &[u8; 4] = b"IBSS";
const SNAPSHOT_VERSION: u16 = 1;

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
    /// The degree the router ran the surviving shards at: the caller's
    /// `threads` at most, and 1 unless their priced work pays for the
    /// workers it wakes (DESIGN.md §9).
    pub degree: usize,
}

impl ShardExecution {
    /// Shards that actually executed (`shards_total − shards_pruned`).
    pub fn shards_executed(&self) -> usize {
        self.shards_total.saturating_sub(self.shards_pruned)
    }
}

/// An incomplete relation partitioned into fixed-capacity shards, each a
/// full [`IncompleteDb`] (own per-family indexes, own append delta, own
/// [`ShardSynopsis`]), with the synopses used to prune shards that cannot
/// contain an answer.
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
    /// is one pointer bump per shard; mutators go through
    /// [`Arc::make_mut`], which deep-copies only a shard that is still
    /// shared with a live snapshot.
    shards: Vec<Arc<IncompleteDb>>,
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
        let shards = if n <= shard_rows {
            // One shard holds every row: it takes the dataset as it is.
            vec![Arc::new(IncompleteDb::with_config(dataset, config))]
        } else {
            (0..n.div_ceil(shard_rows))
                .map(|i| {
                    let rows = i * shard_rows..((i + 1) * shard_rows).min(n);
                    Arc::new(IncompleteDb::with_config(dataset.slice_rows(rows), config))
                })
                .collect()
        };
        ShardedDb::assemble(config, shard_rows, shards)
    }

    /// Wraps already-built shards, deriving the offset table from them.
    fn assemble(config: DbConfig, shard_rows: usize, shards: Vec<Arc<IncompleteDb>>) -> ShardedDb {
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
            .fold(0usize, |acc, s| acc.saturating_add(s.n_rows()))
    }

    /// The schema width.
    pub fn n_attrs(&self) -> usize {
        self.shards[0].n_attrs()
    }

    /// The schema carrier: shard 0's base relation, whose column names and
    /// cardinalities are shared by every shard (query parsers resolve
    /// attribute names against this).
    pub fn schema(&self) -> &Dataset {
        self.shards[0].schema()
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
        self.shards[i].synopsis()
    }

    /// Total bytes held by the maintained indexes, over all shards.
    pub fn index_bytes(&self) -> usize {
        self.shards
            .iter()
            .fold(0usize, |acc, s| acc.saturating_add(s.index_bytes()))
    }

    /// Appends one row. It lands in the last shard's delta — or in a fresh
    /// shard when the last one has reached capacity — and the receiving
    /// shard folds it into its synopsis, so pruning stays sound for rows
    /// that have never seen a compaction.
    pub fn insert(&mut self, row: &[Cell]) -> Result<()> {
        let last = self.shards.last().expect("≥ 1 shard");
        if last.id_width() >= self.shard_rows {
            let next_offset = self.offsets.last().expect("≥ 1 shard") + last.id_width();
            let schema_only = self.schema().slice_rows(0..0);
            self.shards.push(Arc::new(IncompleteDb::with_config(
                schema_only,
                self.config,
            )));
            self.offsets.push(next_offset);
        }
        // Copy-on-write: only the receiving shard is cloned, and only when a
        // published snapshot still shares it.
        Arc::make_mut(self.shards.last_mut().expect("≥ 1 shard")).insert(row)
    }

    /// Validates `row` against the schema without inserting it (the durable
    /// engine checks before logging, so invalid rows never reach the WAL).
    pub fn validate_row(&self, row: &[Cell]) -> Result<()> {
        self.shards[0].validate_row(row)
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
        Arc::make_mut(&mut self.shards[i]).delete((row - self.offsets[i]) as u32)
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
            if shard.is_dirty() && Arc::make_mut(shard).compact() {
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
    /// counter and the `db.shards` span), plan once, price the survivors
    /// into a degree of at most `threads` (each visit at the plan's
    /// `estimated_cost` plus [`VISIT_PRICE`], through
    /// [`priced_degree`]), split them into that many contiguous groups
    /// fanned out over the worker pool, and concatenate. Each group fills
    /// one id buffer: every shard (one `db.shard` span each) writes its ids
    /// there once, at its global offset. Counters are summed saturatingly.
    pub fn execute_with_stats_threads(
        &self,
        query: &RangeQuery,
        threads: usize,
    ) -> Result<ShardExecution> {
        query.validate(self.schema())?;
        let mut span = ibis_obs::span("db.shards");
        let mut work = self.unpruned(query, &mut span);
        let pruned = self.shards.len() - work.len();
        let mut rows = Vec::new();
        let mut counters = WorkCounters::zero();
        let mut degree = 1;
        if let Some((winner, planner)) = plan(query, &work)? {
            degree = fan_out_degree(query, winner, planner, work.len(), threads);
            // With more than one shard the shards *are* the parallelism,
            // even when pruning leaves one: a capacity-bounded shard costs
            // less to evaluate inline than starting threads to fan it out
            // again. Counters are thread-degree-independent either way, so
            // this choice never shows up in the merged result.
            let inner = if self.shards.len() == 1 {
                threads.max(1)
            } else {
                1
            };
            let ranges = partition(work.len(), degree);
            let mut groups: Vec<Vec<Visit>> = ranges
                .iter()
                .rev()
                .map(|r| work.split_off(r.start))
                .collect();
            groups.reverse();
            let query = Arc::new(query.clone());
            let parts = ExecPool::new(degree).try_map(groups, move |group| {
                let mut ids = Vec::new();
                let mut counters = WorkCounters::zero();
                for (i, off, shard) in group {
                    let mut shard_span = ibis_obs::span("db.shard");
                    shard_span.add_field("shard", i as u64);
                    let start = ids.len();
                    let c = shard.execute_into(&query, winner, inner, off as u32, &mut ids)?;
                    shard_span.add_field("rows", (ids.len() - start) as u64);
                    c.record_into(&mut shard_span);
                    counters.merge(c);
                }
                Ok((ids, counters))
            })?;
            for (ids, c) in parts {
                counters.merge(c);
                if rows.is_empty() {
                    rows = ids; // the first non-empty buffer is taken, not copied
                } else {
                    rows.extend_from_slice(&ids);
                }
            }
        }
        span.add_field("rows", rows.len() as u64);
        span.add_field("degree", degree as u64);
        Ok(ShardExecution {
            rows: RowSet::from_sorted(rows),
            counters,
            shards_total: self.shards.len(),
            shards_pruned: pruned,
            degree,
        })
    }

    /// The shards whose synopsis cannot prove `query` empty, in shard
    /// order; what was skipped goes on the `shards.pruned` counter and the
    /// `db.shards` span.
    fn unpruned(&self, query: &RangeQuery, span: &mut ibis_obs::SpanGuard) -> Vec<Visit> {
        debug_assert_eq!(self.offsets.len(), self.shards.len());
        let shards = self.shards.iter().zip(&self.offsets).enumerate();
        let work: Vec<Visit> = shards
            .filter(|(_, (shard, _))| !shard.synopsis().can_prune(query))
            .map(|(i, (shard, &off))| (i, off, Arc::clone(shard)))
            .collect();
        let pruned = self.shards.len() - work.len();
        ibis_obs::counter_add("shards.pruned", pruned as u64);
        span.add_field("shards", self.shards.len() as u64);
        span.add_field("pruned", pruned as u64);
        work
    }

    /// Counts matching rows at the configured parallelism degree: no row
    /// id is built or merged.
    pub fn count(&self, query: &RangeQuery) -> Result<usize> {
        let threads = ibis_core::parallel::configured_threads();
        Ok(self.count_with_cost_threads(query, threads)?.0)
    }

    /// [`ShardedDb::count`] with an explicit thread degree, also reporting
    /// the merged [`WorkCounters`]: the sum of the unpruned shards' counts
    /// under the one plan, fanned over the same pool `execute` uses at the
    /// degree `execute` prices. The count and the counters are identical
    /// for any `threads`.
    pub fn count_with_cost_threads(
        &self,
        query: &RangeQuery,
        threads: usize,
    ) -> Result<(usize, WorkCounters)> {
        query.validate(self.schema())?;
        let mut span = ibis_obs::span("db.shards");
        let work = self.unpruned(query, &mut span);
        let Some((winner, planner)) = plan(query, &work)? else {
            span.add_field("rows", 0);
            return Ok((0, WorkCounters::zero()));
        };
        let degree = fan_out_degree(query, winner, planner, work.len(), threads);
        span.add_field("degree", degree as u64);
        let query = Arc::new(query.clone());
        let counts = ExecPool::new(degree).try_map(work, move |(i, _, shard)| {
            let mut shard_span = ibis_obs::span("db.shard");
            shard_span.add_field("shard", i as u64);
            let (n, c) = shard.count_with(&query, winner)?;
            shard_span.add_field("rows", n as u64);
            c.record_into(&mut shard_span);
            Ok((n, c))
        })?;
        let mut total = (0, WorkCounters::zero());
        for (n, c) in counts {
            total.0 += n;
            total.1.merge(c);
        }
        span.add_field("rows", total.0 as u64);
        Ok(total)
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
            shard.write_state(&mut body)?;
        }
        wire::write_header(w, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
        wire::write_u32(w, crate::crc::crc32(&body))?;
        wire::write_bytes(w, &body)
    }

    /// Parses a snapshot image, rebuilding every index and synopsis.
    ///
    /// Hardened against corruption: the body is checksummed; the shard
    /// table's allocation is capped (a lying count hits a clean EOF, never
    /// a huge reservation); every shard section is checked by
    /// [`IncompleteDb`]'s own reader — delta rows re-validate, tombstones
    /// must be in range — and must share shard 0's schema, so a crafted
    /// image can't make later query dispatch index out of bounds.
    pub fn read_snapshot(r: &mut impl std::io::Read) -> std::io::Result<ShardedDb> {
        wire::read_header(r, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
        let crc = wire::read_u32(r)?;
        let body = wire::read_bytes(r)?;
        if crate::crc::crc32(&body) != crc {
            return Err(invalid("snapshot checksum mismatch"));
        }
        let r = &mut body.as_slice();
        let config = DbConfig::from_bits(wire::read_u8(r)?)?;
        let shard_rows = wire::read_len(r)?.max(1);
        let n_shards = wire::read_len(r)?;
        let mut shards: Vec<Arc<IncompleteDb>> = Vec::with_capacity(n_shards.min(1 << 16));
        for _ in 0..n_shards {
            let schema = shards.first().map(|first| first.schema());
            let shard = IncompleteDb::read_state(r, config, schema)?;
            shards.push(Arc::new(shard));
        }
        if shards.is_empty() {
            return Err(invalid("snapshot holds no shards"));
        }
        if !r.is_empty() {
            return Err(invalid("trailing bytes in snapshot body"));
        }
        Ok(ShardedDb::assemble(config, shard_rows, shards))
    }
}

/// The one plan a sharded query runs: the registry position chosen by the
/// first shard in `work` that holds base rows (a shard with an empty base
/// has nothing to price), or by the first shard when none does, with that
/// planning shard; `None` when every shard was pruned. Every shard is
/// built under the router's one config, so a position names the same
/// method on each.
fn plan<'w>(query: &RangeQuery, work: &'w [Visit]) -> Result<Option<(usize, &'w IncompleteDb)>> {
    let Some(first) = work.first() else {
        return Ok(None);
    };
    let (_, _, planner) = work
        .iter()
        .find(|(_, _, shard)| shard.schema().n_rows() > 0)
        .unwrap_or(first);
    let winner = planner.plan(query, |_| {})?;
    debug_assert!(
        work.iter()
            .all(|(_, _, s)| s.method_names()[winner] == planner.method_names()[winner]),
        "shards of one config share one registry order"
    );
    Ok(Some((winner, planner)))
}

/// The degree `visits` surviving shards run at under the plan `winner`, at
/// most `threads`: [`priced_degree`] over their summed price, each visit
/// priced at the plan's `estimated_cost` on the shard that planned it
/// (shards are capacity-bounded, so one stands for all) plus
/// [`VISIT_PRICE`]. Fewer than two visits (so every one-shard database)
/// run inline unpriced, as does a ceiling of 1.
fn fan_out_degree(
    query: &RangeQuery,
    winner: usize,
    planner: &IncompleteDb,
    visits: usize,
    threads: usize,
) -> usize {
    if visits < 2 || threads < 2 {
        return 1;
    }
    let price = planner.estimated_cost(query, winner) + VISIT_PRICE;
    priced_degree(price * visits as f64, threads).min(visits)
}

#[cfg(test)]
mod tests {
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
            let row = vec![v(1); mono.n_attrs()];
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

    /// The router at the edges of its degree rule: 64 shards of 64 rows,
    /// `a` banded by shard (no missing, so a range on it prunes to a known
    /// number of shards under both semantics), `b` varying inside each
    /// shard with missing values; the last shard short, holding a delta
    /// and tombstones in both its base and its delta.
    fn priced_fixture() -> (ShardedDb, IncompleteDb) {
        let rows: Vec<Vec<Cell>> = (0u16..64 * 64 - 8)
            .map(|r| {
                let b = if r % 7 == 3 { m() } else { v(r % 8 + 1) };
                vec![v(r / 64 + 1), b]
            })
            .collect();
        let data = Dataset::from_rows(&[("a", 80), ("b", 8)], &rows).unwrap();
        let mut db = ShardedDb::new(data.clone(), 64);
        let mut mono = IncompleteDb::new(data);
        for i in 0u16..6 {
            let row = [v(64), if i == 2 { m() } else { v(i + 2) }];
            db.insert(&row).unwrap();
            mono.insert(&row).unwrap();
        }
        for id in [64 * 63, 64 * 63 + 5, 64 * 64 - 9, 64 * 64 - 7, 64 * 64 - 4] {
            assert!(db.delete(id) && mono.delete(id), "{id} was live");
        }
        assert_eq!(db.shard_count(), 64);
        assert_eq!(db.shards[63].delta_len(), 6);
        (db, mono)
    }

    /// `a ∈ [lo, hi] ∧ b ∈ [2, 5]`.
    fn band_query(lo: u16, hi: u16, policy: MissingPolicy) -> RangeQuery {
        RangeQuery::new(
            vec![Predicate::range(0, lo, hi), Predicate::range(1, 2, 5)],
            policy,
        )
        .unwrap()
    }

    /// The degree the router prices `q` at under a ceiling of `threads`.
    fn priced(db: &ShardedDb, q: &RangeQuery, threads: usize) -> usize {
        let work = db.unpruned(q, &mut ibis_obs::span("test"));
        plan(q, &work).unwrap().map_or(1, |(winner, planner)| {
            fan_out_degree(q, winner, planner, work.len(), threads)
        })
    }

    #[test]
    fn the_priced_degree_never_changes_rows_or_counters() {
        let (db, mono) = priced_fixture();
        for policy in MissingPolicy::ALL {
            // The fewest leading shards whose work affords a second chunk.
            let flip = (1..=64)
                .find(|&n| priced(&db, &band_query(1, n, policy), 2) == 2)
                .expect("all 64 shards price above the threshold");
            assert!(flip > 4, "a few shards run inline: flips at {flip}");
            // Pruned to 0 (no shard holds 70..80), 1, a few, just below and
            // just above the threshold, and all 64 shards.
            let spans = [(70, 80), (5, 5), (9, 12), (1, flip - 1), (1, flip), (1, 64)];
            for (lo, hi) in spans {
                let q = band_query(lo, hi, policy);
                let want = mono.execute(&q).unwrap();
                let (rows1, c1) = db.execute_with_cost_threads(&q, 1).unwrap();
                let (count1, n1) = db.count_with_cost_threads(&q, 1).unwrap();
                assert_eq!(rows1, want, "{policy} a∈[{lo},{hi}]");
                assert_eq!(count1, want.len(), "{policy} a∈[{lo},{hi}]");
                for threads in [1, 2, 3, 8] {
                    let exec = db.execute_with_stats_threads(&q, threads).unwrap();
                    let at = format!("{policy} a∈[{lo},{hi}] t={threads}");
                    assert_eq!(exec.rows, want, "{at}");
                    assert_eq!(exec.counters, c1, "{at}");
                    assert_eq!(exec.degree, priced(&db, &q, threads), "{at}");
                    assert!(exec.degree <= threads.max(1), "{at}");
                    let below = hi < flip || lo > 1;
                    assert_eq!(exec.degree == 1, below || threads == 1, "{at}");
                    let (count, n) = db.count_with_cost_threads(&q, threads).unwrap();
                    assert_eq!((count, n), (count1, n1), "{at}");
                }
            }
        }
    }

    #[test]
    fn the_one_plan_comes_from_a_shard_holding_base_rows() {
        // Shard 0 is pruned, shard 1 holds only delta rows, shard 2 holds
        // base rows: shard 2 plans, and shard 1 runs what it chose.
        let schema = &[("a", 9)];
        let base = |vals: &[u16]| {
            let rows: Vec<Vec<Cell>> = vals.iter().map(|&x| vec![v(x)]).collect();
            IncompleteDb::new(Dataset::from_rows(schema, &rows).unwrap())
        };
        let mut delta_only = base(&[]);
        delta_only.insert(&[v(7)]).unwrap();
        delta_only.insert(&[v(2)]).unwrap();
        let cycle: Vec<u16> = (0..400).map(|i| 1 + i % 8).collect();
        let shards = vec![base(&[1, 2]), delta_only, base(&cycle)];
        let shards: Vec<Arc<IncompleteDb>> = shards.into_iter().map(Arc::new).collect();
        let db = ShardedDb::assemble(DbConfig::default(), 400, shards);
        let q =
            RangeQuery::new(vec![Predicate::range(0, 6, 8)], MissingPolicy::IsNotMatch).unwrap();
        let work = db.unpruned(&q, &mut ibis_obs::span("test"));
        assert_eq!(work.iter().map(|w| w.0).collect::<Vec<_>>(), [1, 2]);
        let (winner, planner) = plan(&q, &work).unwrap().unwrap();
        assert!(std::ptr::eq(planner, &*db.shards[2]));
        let names = db.shards[2].method_names();
        assert_eq!(names[winner], db.shards[2].explain(&q).unwrap().chosen);
        assert_ne!(names[winner], db.shards[1].explain(&q).unwrap().chosen);
        let exec = db.execute_with_stats(&q).unwrap();
        let in_base = (0..400u32)
            .filter(|&i| cycle[i as usize] >= 6)
            .map(|i| 4 + i);
        assert_eq!(
            exec.rows.into_rows(),
            [2].into_iter().chain(in_base).collect::<Vec<_>>()
        );
        assert_eq!(exec.shards_pruned, 1);
    }

    #[test]
    fn empty_dataset_gets_one_empty_shard() {
        let data = banded().slice_rows(0..0);
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
