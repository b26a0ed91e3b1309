//! Query result sets.

/// A set of matching record ids, kept sorted and deduplicated.
///
/// `RowSet` is the lingua franca between indexes and the verification layer:
/// every index's query path produces one, and differential tests compare them
/// with `==`. It also provides the set algebra (union / intersection /
/// difference) that the MOSAIC baseline pays for at query time — the cost the
/// paper's bitmap approach avoids by staying in bit-vector space.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct RowSet {
    rows: Vec<u32>,
}

impl RowSet {
    /// The empty set.
    pub fn new() -> RowSet {
        RowSet::default()
    }

    /// Builds from row ids, sorting and deduplicating.
    pub fn from_unsorted(mut rows: Vec<u32>) -> RowSet {
        rows.sort_unstable();
        rows.dedup();
        RowSet { rows }
    }

    /// Builds from already sorted, deduplicated ids.
    ///
    /// # Panics
    /// Panics (in debug builds) if the input is not strictly increasing.
    pub fn from_sorted(rows: Vec<u32>) -> RowSet {
        debug_assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "rows must be strictly increasing"
        );
        RowSet { rows }
    }

    /// The full set `0..n`.
    pub fn all(n: u32) -> RowSet {
        RowSet {
            rows: (0..n).collect(),
        }
    }

    /// Number of rows in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The sorted row ids.
    #[inline]
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Keeps the rows `keep` accepts, in place: still sorted and distinct.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        self.rows.retain(|&row| keep(row));
    }

    /// The sorted row ids, by value: hands the buffer on without a copy.
    #[inline]
    pub fn into_rows(self) -> Vec<u32> {
        self.rows
    }

    /// Membership test (binary search).
    pub fn contains(&self, row: u32) -> bool {
        self.rows.binary_search(&row).is_ok()
    }

    /// Iterator over row ids in ascending order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.rows.iter().copied()
    }

    /// Set intersection (merge join).
    pub fn intersect(&self, other: &RowSet) -> RowSet {
        let (mut a, mut b) = (self.rows.iter().peekable(), other.rows.iter().peekable());
        let mut out = Vec::with_capacity(self.len().min(other.len()));
        while let (Some(&&x), Some(&&y)) = (a.peek(), b.peek()) {
            match x.cmp(&y) {
                std::cmp::Ordering::Less => {
                    a.next();
                }
                std::cmp::Ordering::Greater => {
                    b.next();
                }
                std::cmp::Ordering::Equal => {
                    out.push(x);
                    a.next();
                    b.next();
                }
            }
        }
        RowSet { rows: out }
    }

    /// Set union (merge).
    pub fn union(&self, other: &RowSet) -> RowSet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.rows.len() && j < other.rows.len() {
            match self.rows[i].cmp(&other.rows[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.rows[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.rows[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.rows[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.rows[i..]);
        out.extend_from_slice(&other.rows[j..]);
        RowSet { rows: out }
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &RowSet) -> RowSet {
        let mut out = Vec::with_capacity(self.len());
        let mut j = 0;
        for &x in &self.rows {
            while j < other.rows.len() && other.rows[j] < x {
                j += 1;
            }
            if j == other.rows.len() || other.rows[j] != x {
                out.push(x);
            }
        }
        RowSet { rows: out }
    }

    /// Complement within `0..n`.
    pub fn complement(&self, n: u32) -> RowSet {
        let mut out = Vec::with_capacity(n as usize - self.len());
        let mut j = 0;
        for x in 0..n {
            if j < self.rows.len() && self.rows[j] == x {
                j += 1;
            } else {
                out.push(x);
            }
        }
        RowSet { rows: out }
    }

    /// Global selectivity of this result over `n` records.
    pub fn selectivity(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.len() as f64 / n as f64
        }
    }
}

impl FromIterator<u32> for RowSet {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> RowSet {
        RowSet::from_unsorted(iter.into_iter().collect())
    }
}

impl From<Vec<u32>> for RowSet {
    fn from(rows: Vec<u32>) -> RowSet {
        RowSet::from_unsorted(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(v: &[u32]) -> RowSet {
        RowSet::from_unsorted(v.to_vec())
    }

    #[test]
    fn from_unsorted_sorts_and_dedups() {
        assert_eq!(rs(&[3, 1, 3, 2]).rows(), &[1, 2, 3]);
    }

    #[test]
    fn intersect_union_difference() {
        let a = rs(&[1, 3, 5, 7]);
        let b = rs(&[3, 4, 5, 8]);
        assert_eq!(a.intersect(&b).rows(), &[3, 5]);
        assert_eq!(a.union(&b).rows(), &[1, 3, 4, 5, 7, 8]);
        assert_eq!(a.difference(&b).rows(), &[1, 7]);
        assert_eq!(b.difference(&a).rows(), &[4, 8]);
    }

    #[test]
    fn ops_with_empty() {
        let a = rs(&[1, 2]);
        let e = RowSet::new();
        assert_eq!(a.intersect(&e), e);
        assert_eq!(a.union(&e), a);
        assert_eq!(a.difference(&e), a);
        assert_eq!(e.difference(&a), e);
    }

    #[test]
    fn complement_within_n() {
        assert_eq!(rs(&[0, 2, 4]).complement(5).rows(), &[1, 3]);
        assert_eq!(RowSet::new().complement(3).rows(), &[0, 1, 2]);
        assert_eq!(RowSet::all(3).complement(3).rows(), &[] as &[u32]);
    }

    #[test]
    fn contains_and_selectivity() {
        let a = rs(&[1, 5, 9]);
        assert!(a.contains(5) && !a.contains(4));
        assert!((a.selectivity(30) - 0.1).abs() < 1e-12);
        assert_eq!(RowSet::new().selectivity(0), 0.0);
    }

    #[test]
    fn all_builds_range() {
        assert_eq!(RowSet::all(4).rows(), &[0, 1, 2, 3]);
        assert_eq!(RowSet::all(0).len(), 0);
    }

    #[test]
    fn from_iterator() {
        let s: RowSet = [5u32, 1, 5].into_iter().collect();
        assert_eq!(s.rows(), &[1, 5]);
    }
}
