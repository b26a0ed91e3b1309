//! Query profiling: run one query under the [`ibis_obs`] recorder and
//! package the result as a [`QueryProfile`] — the answer, the final
//! [`WorkCounters`], and the span tree whose per-phase counter deltas sum
//! back to those finals.
//!
//! This is the engine behind `ibis query --profile` / `--profile-json`, and
//! usable directly:
//!
//! ```
//! use ibis::prelude::*;
//! use std::sync::Arc;
//!
//! let data = ibis::core::gen::census_scaled(500, 42);
//! let bee = EqualityBitmapIndex::<Wah>::build(&data);
//! let q = RangeQuery::new(
//!     vec![Predicate::range(0, 1, 2), Predicate::point(1, 1)],
//!     MissingPolicy::IsMatch,
//! )
//! .unwrap();
//!
//! let prof = ibis::profile::profile_method(&bee, &q, 2).unwrap();
//! assert_eq!(prof.method, "bitmap-equality");
//! // The span tree's counter deltas account for every counted unit.
//! assert_eq!(prof.span_counter_sum(), prof.counters);
//! let _ = Arc::new(prof.to_json()); // machine-readable form
//! ```

use crate::db::ShardedDb;
use ibis_core::{AccessMethod, RangeQuery, Result, RowSet, WorkCounters};
use ibis_obs as obs;

/// The name of the root span a profile opens around the query.
pub const ROOT_SPAN: &str = "query";

/// One profiled query execution.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// Name of the access method that answered the query.
    pub method: &'static str,
    /// The query's answer.
    pub rows: RowSet,
    /// Final work counters, as reported by the access method.
    pub counters: WorkCounters,
    /// Id of the root span (named [`ROOT_SPAN`]) in [`Self::snapshot`].
    pub root: u64,
    /// The spans of this query only (subtree of the root), plus whatever
    /// metrics the recorder held at snapshot time.
    pub snapshot: obs::Snapshot,
}

impl QueryProfile {
    /// Sums the per-phase counter deltas of [`Self::phases`]. When the
    /// instrumentation's invariant holds — every counted unit is recorded
    /// by some span below the root — this equals [`Self::counters`].
    pub fn span_counter_sum(&self) -> WorkCounters {
        let mut sum = WorkCounters::zero();
        for (.., counters) in self.phases() {
            sum += counters;
        }
        sum
    }

    /// Per-phase totals: `(span name, spans, total ns, counter deltas)`
    /// aggregated over the tree below the root, by descending total time.
    /// Deltas are *self* deltas ([`WorkCounters::phases`]): a layer that
    /// re-records its children's work, like `db.shard`, is charged nothing
    /// for it, so the phases never count a unit twice.
    pub fn phases(&self) -> Vec<(String, u64, u64, WorkCounters)> {
        WorkCounters::phases(&self.snapshot.spans, self.root)
    }

    /// Human-readable report: method, hits, final counters, span tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "profile: {} ({} hits)\nwork counters:\n{}\n",
            self.method,
            self.rows.len(),
            self.counters
        ));
        out.push_str("span tree (inclusive, self):\n");
        out.push_str(&self.snapshot.render_tree(self.root));
        out
    }

    /// Machine-readable profile (the [`obs::Snapshot`] JSON schema);
    /// [`obs::Snapshot::from_json`] parses it back.
    pub fn to_json(&self) -> String {
        self.snapshot.to_json()
    }
}

/// Executes `query` on `method` with `threads` workers under the recorder,
/// returning the answer plus its isolated span tree.
///
/// If the global recorder is disabled it is enabled for the duration and
/// disabled again afterwards (recording already in progress is left alone —
/// the profile's subtree isolation keeps concurrent spans out).
pub fn profile_method(
    method: &dyn AccessMethod,
    query: &RangeQuery,
    threads: usize,
) -> Result<QueryProfile> {
    profile_with(method.name(), || {
        method.execute_with_cost_threads(query, threads)
    })
}

/// [`profile_method`] for a sharded database: executes `query` over
/// [`ShardedDb`] under the recorder, so the profile's span tree carries the
/// per-shard `db.shard` spans and its snapshot the `shards.pruned` counter.
///
/// ```
/// use ibis::prelude::*;
///
/// let data = ibis::core::gen::census_scaled(400, 42);
/// let db = ShardedDb::new(data, 100);
/// let q = RangeQuery::new(vec![Predicate::point(0, 1)], MissingPolicy::IsMatch).unwrap();
/// let prof = ibis::profile::profile_sharded(&db, &q, 2).unwrap();
/// assert_eq!(prof.method, "sharded-db");
/// assert!(prof.snapshot.spans.iter().any(|s| s.name == "db.shard"));
/// ```
pub fn profile_sharded(db: &ShardedDb, query: &RangeQuery, threads: usize) -> Result<QueryProfile> {
    profile_with("sharded-db", || {
        db.execute_with_cost_threads(query, threads)
    })
}

/// The shared recorder dance: enable recording if needed, run `exec` under
/// a fresh [`ROOT_SPAN`], and package the isolated subtree.
fn profile_with(
    method: &'static str,
    exec: impl FnOnce() -> Result<(RowSet, WorkCounters)>,
) -> Result<QueryProfile> {
    let was_enabled = obs::is_enabled();
    if !was_enabled {
        obs::Recorder::enabled().install();
    }
    let mut root_span = obs::span(ROOT_SPAN);
    let root = root_span.id();
    let result = exec();
    let (rows, counters) = match result {
        Ok(ok) => ok,
        Err(e) => {
            drop(root_span);
            if !was_enabled {
                obs::Recorder::disabled().install();
            }
            return Err(e);
        }
    };
    counters.record_into(&mut root_span);
    drop(root_span);
    let snapshot = obs::snapshot().subtree(root);
    if !was_enabled {
        obs::Recorder::disabled().install();
    }
    Ok(QueryProfile {
        method,
        rows,
        counters,
        root,
        snapshot,
    })
}
