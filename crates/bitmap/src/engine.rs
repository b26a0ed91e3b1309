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
//! Every intermediate is a plain [`BitVec64`] *accumulator*; the stored
//! bitmaps, in whatever backend, are operands that combine themselves into
//! it ([`BitStore::or_into`] and its siblings), so an interval costs one
//! accumulator however many stored bitmaps it reads, and nothing is ever
//! re-encoded. The charged operations below are the accumulator forms an
//! [`Encoding`] builds its interval answers from, and nothing else: [`load`]
//! a stored bitmap, combine a stored bitmap or another accumulator *into* an
//! accumulator ([`or_into`], [`and_into`], [`xor_into`]), combine two stored
//! bitmaps ([`or`], [`and`], [`xor`]), complement a stored bitmap
//! ([`complement`]) or an accumulator in place ([`not`]).
//!
//! Work is measured in the bit-vector substrate, not derived here. The
//! charging rule: a stored bitmap that is loaded, **every operand of every
//! logical operation**, and the operand of every NOT each add one
//! [`BitStore::tally_read`], and `words_processed` / `containers_*` are the
//! sum of those tallies. The plain, WAH and BBC backends tally the
//! uncompressed `⌈n/64⌉` words per read (the unit of the paper's §6 rules);
//! the adaptive backend tallies the container payload it stores. An
//! accumulator is a plain vector, so as an operand it is charged `⌈n/64⌉`
//! words and no container, whatever backend the index is stored in.

use crate::index::{BitmapIndex, Encoding};
use ibis_bitvec::{BitStore, BitVec64, OpTally};
use ibis_core::{Error, RangeQuery, Result, WorkCounters};

fn charge_read<S: BitStore>(b: &S, cost: &mut WorkCounters) {
    let mut t = OpTally::default();
    b.tally_read(&mut t);
    cost.words_processed = cost.words_processed.saturating_add(t.words as usize);
    cost.containers_array = cost.containers_array.saturating_add(t.array as usize);
    cost.containers_bitmap = cost.containers_bitmap.saturating_add(t.bitmap as usize);
    cost.containers_run = cost.containers_run.saturating_add(t.run as usize);
}

/// One logical operation reading both of its operands.
fn charge_op<S: BitStore, T: BitStore>(a: &S, b: &T, cost: &mut WorkCounters) {
    cost.op();
    charge_read(a, cost);
    charge_read(b, cost);
}

/// Starts an accumulator from a stored bitmap that is itself (the start
/// of) an answer, charged as one read.
pub fn load<S: BitStore>(b: &S, cost: &mut WorkCounters) -> BitVec64 {
    charge_read(b, cost);
    b.to_bitvec()
}

/// `acc |= b` for a stored bitmap or another accumulator `b`, charged as
/// one logical op reading both operands.
pub fn or_into<S: BitStore>(acc: &mut BitVec64, b: &S, cost: &mut WorkCounters) {
    charge_op(acc, b, cost);
    acc.or_assign(b);
}

/// `acc &= b`; charged like [`or_into`].
pub fn and_into<S: BitStore>(acc: &mut BitVec64, b: &S, cost: &mut WorkCounters) {
    charge_op(acc, b, cost);
    acc.and_assign(b);
}

/// `acc ^= b`; charged like [`or_into`].
pub fn xor_into<S: BitStore>(acc: &mut BitVec64, b: &S, cost: &mut WorkCounters) {
    charge_op(acc, b, cost);
    acc.xor_assign(b);
}

/// One logical op over two stored bitmaps: `a` is decoded into a fresh
/// accumulator and `b` combined into it, both charged as operands.
fn of_stored<S: BitStore>(
    a: &S,
    b: &S,
    cost: &mut WorkCounters,
    combine: fn(&mut BitVec64, &S),
) -> BitVec64 {
    charge_op(a, b, cost);
    let mut acc = a.to_bitvec();
    combine(&mut acc, b);
    acc
}

/// `a OR b` of two stored bitmaps as a fresh accumulator, charged as one
/// logical op reading both operands.
pub fn or<S: BitStore>(a: &S, b: &S, cost: &mut WorkCounters) -> BitVec64 {
    of_stored(a, b, cost, BitVec64::or_assign)
}

/// `a AND b` of two stored bitmaps; charged like [`or`].
pub fn and<S: BitStore>(a: &S, b: &S, cost: &mut WorkCounters) -> BitVec64 {
    of_stored(a, b, cost, BitVec64::and_assign)
}

/// `a XOR b` of two stored bitmaps; charged like [`or`].
pub fn xor<S: BitStore>(a: &S, b: &S, cost: &mut WorkCounters) -> BitVec64 {
    of_stored(a, b, cost, BitVec64::xor_assign)
}

/// `NOT acc` in place (the tail past the last row stays clear), charged as
/// one logical op reading its operand.
pub fn not(acc: &mut BitVec64, cost: &mut WorkCounters) {
    cost.op();
    charge_read(acc, cost);
    acc.not_assign();
}

/// `NOT b` of a stored bitmap as a fresh accumulator, charged as one
/// logical op reading its operand.
pub fn complement<S: BitStore>(b: &S, cost: &mut WorkCounters) -> BitVec64 {
    cost.op();
    charge_read(b, cost);
    let mut acc = b.to_bitvec();
    acc.not_assign();
    acc
}

/// ORs a sequence of stored bitmaps into one accumulator, counting each as
/// one bitmap read — the shared inner step of equality-style interval
/// evaluation, and the many-operand OR of FastBit: however long the
/// sequence, one allocation and no compressed intermediate.
pub fn or_all<'a, S: BitStore + 'a>(
    mut bitmaps: impl Iterator<Item = &'a S>,
    cost: &mut WorkCounters,
) -> Option<BitVec64> {
    let first = bitmaps.next()?;
    cost.read_bitmap();
    let mut acc = load(first, cost);
    for b in bitmaps {
        cost.read_bitmap();
        or_into(&mut acc, b, cost);
    }
    Some(acc)
}

/// The last step of the AND-reduce when rows are wanted: completes the
/// fold and keeps the bitmap.
pub(crate) fn and_rows(
    mut acc: BitVec64,
    last: Option<&BitVec64>,
    cost: &mut WorkCounters,
) -> BitVec64 {
    if let Some(last) = last {
        and_into(&mut acc, last, cost);
    }
    acc
}

/// The last step of the AND-reduce when only the count is wanted: the same
/// logical op on the same operands, fused with the population count, so no
/// final bitmap is built.
pub(crate) fn and_count(acc: BitVec64, last: Option<&BitVec64>, cost: &mut WorkCounters) -> usize {
    match last {
        Some(last) => {
            charge_op(&acc, last, cost);
            acc.and_count(last)
        }
        None => acc.count_ones(),
    }
}

/// Evaluates `query` over `ix`, returning what `finish` makes of the
/// AND-reduce's last step (`None` for an empty search key: all rows match)
/// and the work counters.
///
/// The predicates are evaluated in a plain loop on the calling thread, each
/// interval under a `bitmap.fetch` span, and the AND of the per-predicate
/// answers runs under one `bitmap.and_reduce` span; both carry their
/// counter deltas, so a profile's phases sum exactly to the query's final
/// counters. The reduce is a left fold in predicate order — `k − 1`
/// in-place ANDs over the per-predicate accumulators — and its last AND is
/// `finish(acc, last, cost)`, with `last` absent for a one-predicate key:
/// [`and_rows`] or [`and_count`]. A query's parallelism lives above the
/// index, across shards.
pub(crate) fn run<E: Encoding, B: BitStore, T>(
    ix: &BitmapIndex<E, B>,
    query: &RangeQuery,
    finish: impl FnOnce(BitVec64, Option<&BitVec64>, &mut WorkCounters) -> T,
) -> Result<(Option<T>, WorkCounters)> {
    let policy = query.policy();
    if !E::supports(policy) {
        return Err(Error::UnsupportedPolicy { method: E::NAME });
    }
    query.validate_schema(ix.attrs.len(), |a| ix.attrs[a].cardinality)?;
    let mut cost = WorkCounters::zero();
    let mut answers: Vec<BitVec64> = Vec::with_capacity(query.dimensionality());
    for p in query.predicates() {
        let mut span = ibis_obs::span("bitmap.fetch");
        let mut c = WorkCounters::zero();
        let b = E::interval(&ix.attrs[p.attr], ix.n_rows, p.interval, policy, &mut c);
        span.add_field("attr", p.attr as u64);
        c.record_into(&mut span);
        cost += c;
        answers.push(b);
    }
    let last = if answers.len() > 1 {
        answers.pop()
    } else {
        None
    };
    let mut answers = answers.into_iter();
    let Some(mut acc) = answers.next() else {
        return Ok((None, cost));
    };
    let mut span = ibis_obs::span("bitmap.and_reduce");
    let mut reduce_cost = WorkCounters::zero();
    for b in answers {
        and_into(&mut acc, &b, &mut reduce_cost);
    }
    let out = finish(acc, last.as_ref(), &mut reduce_cost);
    reduce_cost.record_into(&mut span);
    cost += reduce_cost;
    Ok((Some(out), cost))
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
