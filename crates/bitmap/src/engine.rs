//! The one query driver and the one work accounting behind every bitmap
//! family's [`ibis_core::AccessMethod`] implementation.
//!
//! Every encoding (BEE, BRE, BIE, decomposed, the §4.2 rejected in-band
//! pair) on every backend executes a query the same way: validate the
//! search key against the schema, evaluate each predicate's interval to a
//! bitmap, and AND the per-predicate answers together (§4.1). [`run`] is
//! that driver; the families differ only in how one interval is evaluated
//! ([`BitmapExec::exec_interval`]).
//!
//! Work is measured in the bit-vector substrate, not derived here: the
//! charged operations below ([`fetch`], [`and`], [`or`], [`xor`], [`not`])
//! add [`BitStore::tally_read`] of a stored bitmap that is copied, of both
//! operands of every binary operation and of the operand of every NOT, and
//! `words_processed` / `containers_*` are the sum of those tallies. The
//! plain, WAH and BBC backends tally the uncompressed `⌈n/64⌉` words per
//! read (the unit of the paper's §6 rules); the adaptive backend tallies
//! the container payload it stores.

use ibis_bitvec::{BitStore, OpTally};
use ibis_core::parallel::ExecPool;
use ibis_core::{Interval, MissingPolicy, RangeQuery, Result, RowSet, WorkCounters};
use std::sync::OnceLock;

/// The uniform internal view of a bitmap index: just enough structure for
/// the shared driver — schema dimensions plus per-interval evaluation.
pub(crate) trait BitmapExec: Sync {
    /// Bitmap backend.
    type Store: BitStore;

    /// Number of indexed rows.
    fn exec_rows(&self) -> usize;

    /// Number of indexed attributes.
    fn exec_attrs(&self) -> usize;

    /// Cardinality of attribute `attr`.
    fn exec_cardinality(&self, attr: usize) -> u16;

    /// Every stored bitmap, in any order.
    fn exec_stored(&self) -> impl Iterator<Item = &Self::Store>;

    /// Where [`words_per_read`] keeps its answer between planner calls; an
    /// index that changes its stored bitmaps replaces it with a fresh cell.
    fn exec_read_words(&self) -> &OnceLock<f64>;

    /// Evaluates one (validated) interval over one attribute, accumulating
    /// bitmap reads, logical ops and their read tallies into `cost`.
    fn exec_interval(
        &self,
        attr: usize,
        iv: Interval,
        policy: MissingPolicy,
        cost: &mut WorkCounters,
    ) -> Self::Store;
}

/// Folds a read tally into the query's work counters.
fn charge(cost: &mut WorkCounters, t: OpTally) {
    cost.words_processed = cost.words_processed.saturating_add(t.words as usize);
    cost.containers_array = cost.containers_array.saturating_add(t.array as usize);
    cost.containers_bitmap = cost.containers_bitmap.saturating_add(t.bitmap as usize);
    cost.containers_run = cost.containers_run.saturating_add(t.run as usize);
}

fn charge_read<B: BitStore>(b: &B, cost: &mut WorkCounters) {
    let mut t = OpTally::default();
    b.tally_read(&mut t);
    charge(cost, t);
}

/// Copies a stored bitmap that is itself (the start of) an answer.
pub(crate) fn fetch<B: BitStore>(b: &B, cost: &mut WorkCounters) -> B {
    charge_read(b, cost);
    b.clone()
}

fn binary<B: BitStore>(a: &B, b: &B, cost: &mut WorkCounters, f: fn(&B, &B) -> B) -> B {
    cost.op();
    charge_read(a, cost);
    charge_read(b, cost);
    f(a, b)
}

/// `a AND b`, charged as one logical op reading both operands.
pub(crate) fn and<B: BitStore>(a: &B, b: &B, cost: &mut WorkCounters) -> B {
    binary(a, b, cost, B::and)
}

/// `a OR b`, charged as one logical op reading both operands.
pub(crate) fn or<B: BitStore>(a: &B, b: &B, cost: &mut WorkCounters) -> B {
    binary(a, b, cost, B::or)
}

/// `a XOR b`, charged as one logical op reading both operands.
pub(crate) fn xor<B: BitStore>(a: &B, b: &B, cost: &mut WorkCounters) -> B {
    binary(a, b, cost, B::xor)
}

/// `NOT a`, charged as one logical op reading its operand.
pub(crate) fn not<B: BitStore>(a: &B, cost: &mut WorkCounters) -> B {
    cost.op();
    charge_read(a, cost);
    a.not()
}

/// ORs a sequence of stored bitmaps, counting each as one bitmap read —
/// the shared inner step of equality-style interval evaluation.
pub(crate) fn or_all<'a, B: BitStore + 'a>(
    bitmaps: impl Iterator<Item = &'a B>,
    cost: &mut WorkCounters,
) -> Option<B> {
    let mut acc: Option<B> = None;
    for b in bitmaps {
        cost.read_bitmap();
        acc = Some(match acc {
            None => fetch(b, cost),
            Some(x) => or(&x, b, cost),
        });
    }
    acc
}

/// Evaluates `query` over `ix` with up to `threads` workers, returning the
/// final bitmap (`None` for an empty search key: all rows match) and the
/// work counters. Rows and counters are identical at every degree.
///
/// Each per-predicate interval evaluation runs under a `bitmap.fetch` span
/// (fanned over the pool, each accruing into its own counters before an
/// ordered merge) and the AND of the per-predicate answers under one
/// `bitmap.and_reduce` span; both carry their counter deltas, so a profile's
/// phases sum exactly to the query's final counters. The reduce is a left
/// fold in predicate order at every degree: a tree reduce would combine
/// different *intermediate* shapes, and the measured tallies would then
/// depend on the thread count. It is `k − 1` ANDs over already-combined
/// answers — the cheap tail of the query.
fn run<T: BitmapExec>(
    ix: &T,
    query: &RangeQuery,
    threads: usize,
) -> Result<(Option<T::Store>, WorkCounters)> {
    query.validate_schema(ix.exec_attrs(), |a| ix.exec_cardinality(a))?;
    let policy = query.policy();
    let partials = ExecPool::new(threads).map(query.predicates().to_vec(), |p| {
        // Nested under the pool.worker span of whichever thread runs it.
        let mut span = ibis_obs::span("bitmap.fetch");
        let mut c = WorkCounters::zero();
        let b = ix.exec_interval(p.attr, p.interval, policy, &mut c);
        span.add_field("attr", p.attr as u64);
        c.record_into(&mut span);
        (b, c)
    });
    let mut partials = partials.into_iter();
    let Some((first, mut cost)) = partials.next() else {
        return Ok((None, WorkCounters::zero()));
    };
    let mut span = ibis_obs::span("bitmap.and_reduce");
    let mut reduce_cost = WorkCounters::zero();
    let acc = partials.fold(first, |a, (b, c)| {
        cost += c;
        and(&a, &b, &mut reduce_cost)
    });
    reduce_cost.record_into(&mut span);
    cost += reduce_cost;
    Ok((Some(acc), cost))
}

/// Executes `query`, materializing the matching row ids.
pub(crate) fn run_rows<T: BitmapExec>(
    ix: &T,
    query: &RangeQuery,
    threads: usize,
) -> Result<(RowSet, WorkCounters)> {
    let (acc, cost) = run(ix, query, threads)?;
    let rows = match acc {
        None => RowSet::all(ix.exec_rows() as u32),
        Some(b) => RowSet::from_sorted(b.ones_positions()),
    };
    Ok((rows, cost))
}

/// Counts matching rows without materializing row ids — a COUNT(*) straight
/// off the final bitmap's population count. This is the popcount override
/// every bitmap family plugs into [`ibis_core::AccessMethod::execute_count`].
pub(crate) fn run_count<T: BitmapExec>(ix: &T, query: &RangeQuery) -> Result<usize> {
    let (acc, _) = run(ix, query, 1)?;
    Ok(acc.map_or(ix.exec_rows(), |b| b.count_ones()))
}

/// What reading every stored bitmap once would touch, and how many bitmaps
/// that is.
pub(crate) fn stored_tally<T: BitmapExec>(ix: &T) -> (usize, OpTally) {
    let mut tally = OpTally::default();
    let mut n = 0;
    for b in ix.exec_stored() {
        b.tally_read(&mut tally);
        n += 1;
    }
    (n, tally)
}

/// Mean 64-bit words one stored-bitmap read is charged — the unit the
/// families' planner cost estimates are stated in, taken from the same
/// tally as the counter they predict. For the plain, WAH and BBC backends
/// this is exactly the uncompressed `⌈n/64⌉` of the paper's §6 rules; for
/// the adaptive backend it scales with the index's compression. Summed
/// once per index, not once per plan.
pub(crate) fn words_per_read<T: BitmapExec>(ix: &T) -> f64 {
    *ix.exec_read_words().get_or_init(|| match stored_tally(ix) {
        (0, _) => ix.exec_rows().div_ceil(64) as f64,
        (n, tally) => tally.words as f64 / n as f64,
    })
}

/// Sums a per-predicate bitmap-read estimate over the search key and scales
/// it to words; out-of-schema predicates price as infinite so the planner
/// never picks a method that would just error.
pub(crate) fn estimate_words<T: BitmapExec>(
    ix: &T,
    query: &RangeQuery,
    reads_for: impl Fn(f64, f64) -> f64,
) -> f64 {
    let wpr = words_per_read(ix);
    query
        .predicates()
        .iter()
        .map(|p| {
            if p.attr >= ix.exec_attrs() {
                return f64::INFINITY;
            }
            let c = ix.exec_cardinality(p.attr) as f64;
            let w = (p.interval.hi.saturating_sub(p.interval.lo)) as f64 + 1.0;
            if w > c {
                return f64::INFINITY;
            }
            reads_for(w, c) * wpr
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bee::EqualityBitmapIndex;
    use crate::bre::RangeBitmapIndex;
    use ibis_bitvec::{Adaptive, Wah};
    use ibis_core::{Cell, Dataset, Predicate, RangeQuery};

    fn data() -> Dataset {
        let m = Cell::MISSING;
        let v = Cell::present;
        Dataset::from_rows(
            &[("a", 6), ("b", 6), ("c", 6)],
            &[
                vec![v(5), v(2), v(1)],
                vec![m, v(5), v(4)],
                vec![v(3), m, v(2)],
                vec![v(2), v(4), m],
                vec![v(6), v(1), v(6)],
                vec![v(1), v(3), v(3)],
                vec![m, m, m],
                vec![v(4), v(6), v(5)],
            ],
        )
        .unwrap()
    }

    fn degree_invariant<T: BitmapExec>(ix: &T, q: &RangeQuery, what: &str) {
        let seq = run_rows(ix, q, 1).unwrap();
        for threads in [2, 3, 8] {
            assert_eq!(run_rows(ix, q, threads).unwrap(), seq, "{what} t={threads}");
        }
        assert_eq!(run_count(ix, q).unwrap(), seq.0.len(), "{what} count");
    }

    #[test]
    fn rows_and_counters_do_not_depend_on_the_degree() {
        let d = data();
        for policy in ibis_core::MissingPolicy::ALL {
            for preds in [
                vec![],
                vec![Predicate::point(1, 4)],
                vec![
                    Predicate::range(0, 2, 5),
                    Predicate::range(1, 1, 4),
                    Predicate::range(2, 2, 6),
                ],
            ] {
                let q = RangeQuery::new(preds, policy).unwrap();
                let what = format!("{policy} k={}", q.dimensionality());
                degree_invariant(&EqualityBitmapIndex::<Wah>::build(&d), &q, &what);
                degree_invariant(&RangeBitmapIndex::<Wah>::build(&d), &q, &what);
                degree_invariant(&EqualityBitmapIndex::<Adaptive>::build(&d), &q, &what);
                degree_invariant(&RangeBitmapIndex::<Adaptive>::build(&d), &q, &what);
            }
        }
    }

    #[test]
    fn rule_charged_words_are_the_operand_reads() {
        // 8 rows → 1 word per read. BEE [2,5] of 6 under not-match takes the
        // complement side: fetch B_1, OR B_6, OR B_0, NOT = 1 + 2 + 2 + 1.
        let bee = EqualityBitmapIndex::<Wah>::build(&data());
        let q = RangeQuery::new(
            vec![Predicate::range(0, 2, 5)],
            ibis_core::MissingPolicy::IsNotMatch,
        )
        .unwrap();
        let (_, cost) = run_rows(&bee, &q, 1).unwrap();
        assert_eq!((cost.bitmaps_accessed, cost.logical_ops), (3, 3));
        assert_eq!(cost.words_processed, 6);
        // Each reduce AND reads both of its operands.
        let q = RangeQuery::new(
            vec![Predicate::point(0, 2), Predicate::point(1, 4)],
            ibis_core::MissingPolicy::IsNotMatch,
        )
        .unwrap();
        let (_, cost) = run_rows(&bee, &q, 1).unwrap();
        assert_eq!((cost.bitmaps_accessed, cost.logical_ops), (2, 1));
        assert_eq!(cost.words_processed, 1 + 1 + 2);
        assert_eq!(
            cost.containers_array + cost.containers_bitmap + cost.containers_run,
            0
        );
    }
}
