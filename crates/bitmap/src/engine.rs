//! The one query driver and the one work accounting behind
//! [`BitmapIndex`]'s [`ibis_core::AccessMethod`] implementation.
//!
//! Every encoding (BEE, BRE, BIE, decomposed, the §4.2 rejected in-band
//! pair) on every backend executes a query the same way: validate the
//! search key against the schema, evaluate each predicate's interval to a
//! bitmap, and AND the per-predicate answers together (§4.1). `run` is
//! that driver; the encodings differ only in how one interval is evaluated
//! ([`Encoding::interval`]).
//!
//! Work is measured in the bit-vector substrate, not derived here: the
//! charged operations below ([`fetch`], [`and`], [`or`], [`xor`], [`not`])
//! add [`BitStore::tally_read`] of a stored bitmap that is copied, of both
//! operands of every binary operation and of the operand of every NOT, and
//! `words_processed` / `containers_*` are the sum of those tallies. The
//! plain, WAH and BBC backends tally the uncompressed `⌈n/64⌉` words per
//! read (the unit of the paper's §6 rules); the adaptive backend tallies
//! the container payload it stores. An [`Encoding`] builds its interval
//! answers out of these operations and nothing else.

use crate::index::{BitmapIndex, Encoding};
use ibis_bitvec::{BitStore, OpTally};
use ibis_core::parallel::ExecPool;
use ibis_core::{Error, RangeQuery, Result, WorkCounters};

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
pub fn fetch<B: BitStore>(b: &B, cost: &mut WorkCounters) -> B {
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
pub fn and<B: BitStore>(a: &B, b: &B, cost: &mut WorkCounters) -> B {
    binary(a, b, cost, B::and)
}

/// `a OR b`, charged as one logical op reading both operands.
pub fn or<B: BitStore>(a: &B, b: &B, cost: &mut WorkCounters) -> B {
    binary(a, b, cost, B::or)
}

/// `a XOR b`, charged as one logical op reading both operands.
pub fn xor<B: BitStore>(a: &B, b: &B, cost: &mut WorkCounters) -> B {
    binary(a, b, cost, B::xor)
}

/// `NOT a`, charged as one logical op reading its operand.
pub fn not<B: BitStore>(a: &B, cost: &mut WorkCounters) -> B {
    cost.op();
    charge_read(a, cost);
    a.not()
}

/// ORs a sequence of stored bitmaps, counting each as one bitmap read —
/// the shared inner step of equality-style interval evaluation.
pub fn or_all<'a, B: BitStore + 'a>(
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
pub(crate) fn run<E: Encoding, B: BitStore>(
    ix: &BitmapIndex<E, B>,
    query: &RangeQuery,
    threads: usize,
) -> Result<(Option<B>, WorkCounters)> {
    let policy = query.policy();
    if !E::supports(policy) {
        return Err(Error::UnsupportedPolicy {
            method: E::name::<B>(),
        });
    }
    query.validate_schema(ix.attrs.len(), |a| ix.attrs[a].cardinality)?;
    let partials = ExecPool::new(threads).map(query.predicates().to_vec(), |p| {
        // Nested under the pool.worker span of whichever thread runs it.
        let mut span = ibis_obs::span("bitmap.fetch");
        let mut c = WorkCounters::zero();
        let b = E::interval(&ix.attrs[p.attr], ix.n_rows, p.interval, policy, &mut c);
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

#[cfg(test)]
mod tests {
    use crate::{EqualityBitmapIndex, RangeBitmapIndex};
    use ibis_bitvec::{Adaptive, Wah};
    use ibis_core::{AccessMethod, Cell, Dataset, Predicate, RangeQuery};

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

    fn degree_invariant(ix: &dyn AccessMethod, q: &RangeQuery, what: &str) {
        let seq = ix.execute_with_cost(q).unwrap();
        for threads in [2, 3, 8] {
            let par = ix.execute_with_cost_threads(q, threads).unwrap();
            assert_eq!(par, seq, "{what} t={threads}");
        }
        assert_eq!(ix.execute_count(q).unwrap(), seq.0.len(), "{what} count");
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
        let (_, cost) = bee.execute_with_cost(&q).unwrap();
        assert_eq!((cost.bitmaps_accessed, cost.logical_ops), (3, 3));
        assert_eq!(cost.words_processed, 6);
        // Each reduce AND reads both of its operands.
        let q = RangeQuery::new(
            vec![Predicate::point(0, 2), Predicate::point(1, 4)],
            ibis_core::MissingPolicy::IsNotMatch,
        )
        .unwrap();
        let (_, cost) = bee.execute_with_cost(&q).unwrap();
        assert_eq!((cost.bitmaps_accessed, cost.logical_ops), (2, 1));
        assert_eq!(cost.words_processed, 1 + 1 + 2);
        assert_eq!(
            cost.containers_array + cost.containers_bitmap + cost.containers_run,
            0
        );
    }
}
