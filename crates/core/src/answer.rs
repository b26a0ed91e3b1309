//! One access method's answer over its own rows, in the form it computed.

use crate::RowSet;
use ibis_bitvec::BitVec64;

/// The rows one access method found over its own row range (row `0` is its
/// first row), kept in the form the method computed them: the bitmap
/// families and the scan end in a bit-vector, the VA-files and the tree and
/// bitstring baselines in ascending ids. Nothing is converted on the way
/// out. A database takes its tombstones out in bit space
/// ([`and_not`](Answer::and_not)), a count is a popcount
/// ([`count`](Answer::count)), and ids are built once, by the caller that
/// wants them, at its own offset ([`write_rows`](Answer::write_rows)).
///
/// ```
/// use ibis_bitvec::BitVec64;
/// use ibis_core::{Answer, RowSet};
///
/// let mut bits = Answer::Bits(BitVec64::from_ones(70, [1u32, 64, 69]));
/// let mut ids = Answer::Ids(RowSet::from_sorted(vec![1, 64, 69]));
/// let dead = BitVec64::from_ones(65, [64u32]);
/// bits.and_not(&dead);
/// ids.and_not(&dead);
/// let mut out = vec![7];
/// bits.write_rows(100, &mut out);
/// assert_eq!(out, [7, 101, 169]);
/// assert_eq!((bits.count(), bits.into_rows()), (ids.count(), ids.into_rows()));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    /// Bit `i` is set iff row `i` matches.
    Bits(BitVec64),
    /// The matching row ids, ascending.
    Ids(RowSet),
}

impl Answer {
    /// How many rows match.
    pub fn count(&self) -> usize {
        match self {
            Answer::Bits(bits) => bits.count_ones(),
            Answer::Ids(ids) => ids.len(),
        }
    }

    /// Drops every row whose bit is set in `dead`. `dead` may be shorter or
    /// longer than the rows answered: the rows past its end stay, and its
    /// bits past the last row change nothing. A bit answer is one AND NOT
    /// over the shared words; an id answer probes `dead` once per id.
    pub fn and_not(&mut self, dead: &BitVec64) {
        match self {
            Answer::Bits(bits) => bits.and_not_assign(dead),
            Answer::Ids(ids) => {
                let is_dead = |id: u32| (id as usize) < dead.len() && dead.get(id as usize);
                ids.retain(|id| !is_dead(id));
            }
        }
    }

    /// Appends each matching row plus `base`, ascending, after whatever
    /// `out` already holds: how a shard writes its ids once, at its global
    /// offset.
    pub fn write_rows(&self, base: u32, out: &mut Vec<u32>) {
        match self {
            Answer::Bits(bits) => bits.ones_positions_into(base, out),
            Answer::Ids(ids) => out.extend(ids.iter().map(|id| id + base)),
        }
    }

    /// The matching rows as a [`RowSet`]; an id answer is handed on without
    /// a copy.
    pub fn into_rows(self) -> RowSet {
        match self {
            Answer::Bits(bits) => RowSet::from_sorted(bits.ones_positions()),
            Answer::Ids(ids) => ids,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both forms of the same rows, over lengths that end inside, on and
    /// just past a word, against tombstones shorter than, as long as and
    /// longer than the answer.
    #[test]
    fn and_not_over_unaligned_lengths_agrees_in_both_forms() {
        for len in [0usize, 1, 63, 64, 65, 127, 129, 200] {
            let hits: Vec<u32> = (0..len as u32).filter(|i| i % 3 != 1).collect();
            for dead_len in [0usize, 1, len / 2, len, len + 1, len + 70] {
                let dead_ids = (0..dead_len as u32).filter(|i| i % 5 == 0 || i % 64 == 63);
                let dead = BitVec64::from_ones(dead_len, dead_ids);
                let expect: Vec<u32> = hits
                    .iter()
                    .copied()
                    .filter(|&i| (i as usize) >= dead_len || !dead.get(i as usize))
                    .collect();
                let mut bits = Answer::Bits(BitVec64::from_ones(len, hits.iter().copied()));
                let mut ids = Answer::Ids(RowSet::from_sorted(hits.clone()));
                bits.and_not(&dead);
                ids.and_not(&dead);
                let what = format!("len {len}, dead {dead_len}");
                assert_eq!(bits.count(), expect.len(), "{what}");
                assert_eq!(ids.count(), expect.len(), "{what}");
                for answer in [&bits, &ids] {
                    let mut out = vec![u32::MAX];
                    answer.write_rows(1 << 20, &mut out);
                    assert_eq!(out[0], u32::MAX, "{what}");
                    assert!(out[1..]
                        .iter()
                        .copied()
                        .eq(expect.iter().map(|i| i + (1 << 20))));
                }
                if let Answer::Bits(b) = &bits {
                    // No bit past the last row, whatever `dead` held there.
                    assert_eq!(b.len(), len, "{what}");
                    let tail = len % 64;
                    assert!(tail == 0 || b.words()[len / 64] >> tail == 0, "{what}");
                }
                assert_eq!(bits.into_rows().rows(), &expect[..], "{what}");
                assert_eq!(ids.into_rows().rows(), &expect[..], "{what}");
            }
        }
    }
}
