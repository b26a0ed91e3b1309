//! Column-major attribute storage.

use crate::{Cell, Error, Result};
use std::sync::Arc;

/// One attribute of an incomplete relation: a name, a declared cardinality
/// `C` (domain `1..=C`), and the cell values of every row.
///
/// Storage is a dense `Vec<u16>` using the in-band encoding of [`Cell`]
/// (`0` = missing). All indexes in the workspace are built column-at-a-time
/// from this type, mirroring the paper's attribute-independent design.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Column {
    /// Shared, so that a copy of the column (a shard's copy on write, a
    /// slice) does not allocate its name again.
    name: Arc<str>,
    cardinality: u16,
    data: Vec<u16>,
}

impl Column {
    /// Builds a column from cells, validating every value against `cardinality`.
    pub fn new(
        name: impl Into<String>,
        cardinality: u16,
        cells: impl IntoIterator<Item = Cell>,
    ) -> Result<Column> {
        let raw = cells.into_iter().map(Cell::raw).collect();
        Column::from_raw(name, cardinality, raw)
    }

    /// Builds a column from the raw in-band encoding (`0` = missing). A
    /// lone column is attribute 0, which is the index its errors name.
    pub fn from_raw(name: impl Into<String>, cardinality: u16, raw: Vec<u16>) -> Result<Column> {
        Column::of_attr(0, name, cardinality, raw)
    }

    /// [`Column::from_raw`] for attribute `attr` of a relation: a zero
    /// cardinality or an out-of-domain value is reported against `attr`.
    pub(crate) fn of_attr(
        attr: usize,
        name: impl Into<String>,
        cardinality: u16,
        raw: Vec<u16>,
    ) -> Result<Column> {
        if cardinality == 0 {
            return Err(Error::ZeroCardinality { attr });
        }
        if let Some(&bad) = raw.iter().find(|&&v| v > cardinality) {
            return Err(Error::ValueOutOfDomain {
                attr,
                value: bad,
                cardinality,
            });
        }
        Ok(Column {
            name: name.into().into(),
            cardinality,
            data: raw,
        })
    }

    /// Appends one raw value. The caller has checked it against the
    /// domain ([`crate::Dataset::push_row`] validates the whole row first).
    pub(crate) fn push_raw(&mut self, raw: u16) {
        self.data.push(raw);
    }

    /// Rows `rows` as a column of their own. Every value is already in the
    /// domain, so none is checked again.
    pub(crate) fn slice(&self, rows: std::ops::Range<usize>) -> Column {
        Column {
            name: self.name.clone(),
            cardinality: self.cardinality,
            data: self.data[rows].to_vec(),
        }
    }

    /// The attribute name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared cardinality `C`; domain values are `1..=C`.
    #[inline]
    pub fn cardinality(&self) -> u16 {
        self.cardinality
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the column has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The cell at `row`.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn cell(&self, row: usize) -> Cell {
        Cell::from_raw(self.data[row])
    }

    /// The raw in-band values (`0` = missing). Hot loops in the index
    /// builders iterate this directly.
    #[inline]
    pub fn raw(&self) -> &[u16] {
        &self.data
    }

    /// Iterator over all cells.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Cell> + '_ {
        self.data.iter().map(|&v| Cell::from_raw(v))
    }

    /// Number of missing cells.
    pub fn missing_count(&self) -> usize {
        self.data.iter().filter(|&&v| v == 0).count()
    }

    /// Fraction of cells that are missing (`P_m` in the paper), in `[0, 1]`.
    pub fn missing_rate(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.missing_count() as f64 / self.data.len() as f64
        }
    }

    /// Histogram of value occurrences: `counts[0]` is the missing count and
    /// `counts[v]` for `v in 1..=C` the count of value `v`.
    pub fn value_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.cardinality as usize + 1];
        for &v in &self.data {
            counts[v as usize] += 1;
        }
        counts
    }

    /// Number of *distinct non-missing* values actually present. The paper's
    /// `C_i` is defined over observed values; generators may leave some domain
    /// slots unused.
    pub fn distinct_present(&self) -> usize {
        self.value_counts()[1..].iter().filter(|&&c| c > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(vals: &[u16]) -> Column {
        Column::from_raw("a", 5, vals.to_vec()).unwrap()
    }

    #[test]
    fn rejects_out_of_domain() {
        let err = Column::from_raw("a", 5, vec![1, 6]).unwrap_err();
        assert!(matches!(
            err,
            Error::ValueOutOfDomain {
                value: 6,
                cardinality: 5,
                ..
            }
        ));
    }

    #[test]
    fn rejects_zero_cardinality() {
        assert!(matches!(
            Column::from_raw("a", 0, vec![]).unwrap_err(),
            Error::ZeroCardinality { .. }
        ));
    }

    #[test]
    fn missing_stats() {
        let c = col(&[0, 1, 0, 5]);
        assert_eq!(c.missing_count(), 2);
        assert!((c.missing_rate() - 0.5).abs() < 1e-12);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn value_counts_bucket_zero_is_missing() {
        let c = col(&[0, 1, 1, 5, 3]);
        assert_eq!(c.value_counts(), vec![1, 2, 0, 1, 0, 1]);
        assert_eq!(c.distinct_present(), 3);
    }

    #[test]
    fn new_matches_from_raw() {
        let cells = [0u16, 3, 5].map(Cell::from_raw);
        assert_eq!(Column::new("a", 5, cells).unwrap(), col(&[0, 3, 5]));
        assert!(Column::new("a", 2, [Cell::present(3)]).is_err());
    }

    #[test]
    fn cell_accessor_roundtrips() {
        let c = col(&[0, 4]);
        assert!(c.cell(0).is_missing());
        assert_eq!(c.cell(1).value(), Some(4));
        let cells: Vec<_> = c.iter().collect();
        assert_eq!(cells, vec![Cell::MISSING, Cell::present(4)]);
    }

    #[test]
    fn empty_column_missing_rate_is_zero() {
        let c = Column::from_raw("a", 5, vec![]).unwrap();
        assert_eq!(c.missing_rate(), 0.0);
        assert!(c.is_empty());
    }
}
