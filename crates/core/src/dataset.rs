//! Column-major incomplete relations.

use crate::{Cell, Column, Error, Result};

/// An incomplete relation: `d` columns of equal length.
///
/// The dataset is the unit every index is built from. Rows are addressed by
/// `u32` record ids (`0..n_rows`), matching the bit positions used by the
/// bitmap indexes and the slot order of the VA-file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dataset {
    columns: Vec<Column>,
    n_rows: usize,
}

impl Dataset {
    /// Builds a dataset from columns, validating that all lengths agree.
    pub fn new(columns: Vec<Column>) -> Result<Dataset> {
        let n_rows = columns.first().map_or(0, Column::len);
        for (attr, c) in columns.iter().enumerate() {
            if c.len() != n_rows {
                return Err(Error::ColumnLengthMismatch {
                    expected: n_rows,
                    actual: c.len(),
                    attr,
                });
            }
        }
        Ok(Dataset { columns, n_rows })
    }

    /// Builds a dataset from rows of cells, with one `(name, cardinality)`
    /// pair per attribute: the schema's empty columns, then
    /// [`push_row`](Dataset::push_row) for each row. Mostly used in
    /// examples and tests; generators build columns directly.
    pub fn from_rows(schema: &[(&str, u16)], rows: &[Vec<Cell>]) -> Result<Dataset> {
        let columns = schema
            .iter()
            .enumerate()
            .map(|(attr, &(name, card))| Column::of_attr(attr, name, card, Vec::new()))
            .collect::<Result<Vec<_>>>()?;
        let mut d = Dataset { columns, n_rows: 0 };
        for row in rows {
            d.push_row(row)?;
        }
        Ok(d)
    }

    /// Appends one row. The whole row — its width and every value's domain
    /// — is checked before any column changes, so a refused row leaves the
    /// dataset as it was.
    pub fn push_row(&mut self, row: &[Cell]) -> Result<()> {
        validate_row(row, |a| self.columns[a].cardinality(), self.columns.len())?;
        for (column, &cell) in self.columns.iter_mut().zip(row) {
            column.push_raw(cell.raw());
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes (`d`).
    #[inline]
    pub fn n_attrs(&self) -> usize {
        self.columns.len()
    }

    /// The columns, in schema order.
    #[inline]
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The column for attribute `attr`.
    ///
    /// # Panics
    /// Panics if `attr` is out of range.
    #[inline]
    pub fn column(&self, attr: usize) -> &Column {
        &self.columns[attr]
    }

    /// The cell at (`row`, `attr`).
    #[inline]
    pub fn cell(&self, row: usize, attr: usize) -> Cell {
        self.columns[attr].cell(row)
    }

    /// Materializes one row (used by refinement steps and examples; hot paths
    /// stay columnar).
    pub fn row(&self, row: usize) -> Vec<Cell> {
        self.columns.iter().map(|c| c.cell(row)).collect()
    }

    /// Total number of cells (`n_rows × n_attrs`).
    pub fn n_cells(&self) -> usize {
        self.n_rows * self.columns.len()
    }

    /// In-memory size of the raw column data, in bytes. This is the paper's
    /// "database size" yardstick for index-size comparisons.
    pub fn raw_bytes(&self) -> usize {
        self.n_cells() * std::mem::size_of::<u16>()
    }

    /// Copies rows `rows` into a standalone dataset with the same schema
    /// (an empty range yields an empty, schema-only dataset). Shard
    /// partitioning cuts relations this way.
    ///
    /// # Panics
    /// Panics if the range reaches past `n_rows`.
    pub fn slice_rows(&self, rows: std::ops::Range<usize>) -> Dataset {
        Dataset {
            columns: self.columns.iter().map(|c| c.slice(rows.clone())).collect(),
            n_rows: rows.len(),
        }
    }

    /// Reorders rows in place according to `perm`, where `perm[new] = old`.
    ///
    /// Used by the row-reordering ablation (the paper's future-work item on
    /// improving run-length compression by permuting rows).
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..n_rows`.
    pub fn permute_rows(&self, perm: &[u32]) -> Dataset {
        assert_eq!(perm.len(), self.n_rows, "permutation length mismatch");
        let mut seen = vec![false; self.n_rows];
        for &p in perm {
            assert!(
                !std::mem::replace(&mut seen[p as usize], true),
                "duplicate row {p} in permutation"
            );
        }
        let columns = self
            .columns
            .iter()
            .map(|c| {
                let raw = c.raw();
                let data: Vec<u16> = perm.iter().map(|&old| raw[old as usize]).collect();
                Column::from_raw(c.name(), c.cardinality(), data)
                    .expect("permuted values stay in domain")
            })
            .collect();
        Dataset {
            columns,
            n_rows: self.n_rows,
        }
    }
}

impl Dataset {
    const MAGIC: &'static [u8; 4] = b"IBDS";
    const VERSION: u16 = 1;

    /// Serializes the dataset to the workspace binary format (see
    /// [`crate::wire`]).
    pub fn write_to(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        use crate::wire::*;
        write_header(w, Self::MAGIC, Self::VERSION)?;
        write_len(w, self.n_rows)?;
        write_len(w, self.columns.len())?;
        for c in &self.columns {
            write_str(w, c.name())?;
            write_u16(w, c.cardinality())?;
            write_vec_u16(w, c.raw())?;
        }
        Ok(())
    }

    /// Deserializes a dataset written by [`Dataset::write_to`], re-running
    /// full domain validation.
    pub fn read_from(r: &mut impl std::io::Read) -> std::io::Result<Dataset> {
        use crate::wire::*;
        read_header(r, Self::MAGIC, Self::VERSION)?;
        let n_rows = read_len(r)?;
        let n_cols = read_len(r)?;
        let mut columns = Vec::with_capacity(n_cols.min(1 << 20));
        for attr in 0..n_cols {
            let name = read_str(r)?;
            let cardinality = read_u16(r)?;
            let raw = read_vec_u16(r)?;
            let col = Column::of_attr(attr, name, cardinality, raw)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            columns.push(col);
        }
        let d = Dataset::new(columns)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        if d.n_rows() != n_rows {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "row-count header disagrees with column data",
            ));
        }
        Ok(d)
    }

    /// Writes the dataset to `path` (buffered).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut w)?;
        use std::io::Write as _;
        w.flush()
    }

    /// Reads a dataset from `path` (buffered).
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Dataset> {
        let mut r = std::io::BufReader::new(std::fs::File::open(path)?);
        Dataset::read_from(&mut r)
    }
}

/// Validates one row against a schema given as per-attribute cardinalities:
/// correct width and every present value within its domain. Shared by
/// [`Dataset::push_row`] and the database layer's pre-checks.
pub fn validate_row(
    row: &[Cell],
    cardinality_of: impl Fn(usize) -> u16,
    width: usize,
) -> Result<()> {
    if row.len() != width {
        return Err(Error::ColumnLengthMismatch {
            expected: width,
            actual: row.len(),
            attr: 0,
        });
    }
    for (attr, &cell) in row.iter().enumerate() {
        let c = cardinality_of(attr);
        if cell.raw() > c {
            return Err(Error::ValueOutOfDomain {
                attr,
                value: cell.raw(),
                cardinality: c,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> Cell {
        Cell::MISSING
    }
    fn v(x: u16) -> Cell {
        Cell::present(x)
    }

    fn sample() -> Dataset {
        Dataset::from_rows(
            &[("a", 5), ("b", 3)],
            &[vec![v(5), v(1)], vec![m(), v(3)], vec![v(2), m()]],
        )
        .unwrap()
    }

    #[test]
    fn shape_and_access() {
        let d = sample();
        assert_eq!(d.n_rows(), 3);
        assert_eq!(d.n_attrs(), 2);
        assert_eq!(d.cell(0, 0), v(5));
        assert!(d.cell(1, 0).is_missing());
        assert_eq!(d.row(2), vec![v(2), m()]);
        assert_eq!(d.n_cells(), 6);
        assert_eq!(d.raw_bytes(), 12);
    }

    #[test]
    fn mismatched_column_lengths_rejected() {
        let a = Column::from_raw("a", 5, vec![1, 2]).unwrap();
        let b = Column::from_raw("b", 5, vec![1]).unwrap();
        assert!(matches!(
            Dataset::new(vec![a, b]).unwrap_err(),
            Error::ColumnLengthMismatch {
                expected: 2,
                actual: 1,
                attr: 1
            }
        ));
    }

    #[test]
    fn from_rows_rejects_ragged_rows() {
        let err = Dataset::from_rows(&[("a", 5), ("b", 5)], &[vec![v(1)]]).unwrap_err();
        assert!(matches!(err, Error::ColumnLengthMismatch { .. }));
    }

    #[test]
    fn from_rows_validates_domains() {
        let err = Dataset::from_rows(&[("a", 2)], &[vec![v(3)]]).unwrap_err();
        assert!(matches!(err, Error::ValueOutOfDomain { value: 3, .. }));
    }

    #[test]
    fn push_row_equivalent_to_from_rows() {
        let mut d = Dataset::from_rows(&[("a", 5), ("b", 3)], &[]).unwrap();
        d.push_row(&[v(5), v(1)]).unwrap();
        d.push_row(&[m(), v(3)]).unwrap();
        d.push_row(&[v(2), m()]).unwrap();
        assert_eq!(d, sample());
    }

    #[test]
    fn refused_push_row_changes_nothing() {
        let mut d = sample();
        assert!(d.push_row(&[v(1)]).is_err());
        let err = d.push_row(&[v(1), v(4)]).unwrap_err();
        assert_eq!(err, out_of_domain(1, 4, 3));
        assert_eq!(d, sample());
    }

    fn out_of_domain(attr: usize, value: u16, cardinality: u16) -> Error {
        Error::ValueOutOfDomain {
            attr,
            value,
            cardinality,
        }
    }

    #[test]
    fn column_errors_name_their_attribute() {
        let err = Dataset::from_rows(&[("a", 5), ("b", 2)], &[vec![v(1), v(3)]]).unwrap_err();
        assert_eq!(err, out_of_domain(1, 3, 2));
        let err = Dataset::from_rows(&[("a", 5), ("b", 0)], &[]).unwrap_err();
        assert_eq!(err, Error::ZeroCardinality { attr: 1 });
        // A crafted image whose column 1 holds a value past its domain:
        // the reader's error names attribute 1.
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        let pos = buf.windows(2).rposition(|w| w == [3u8, 0]).unwrap();
        buf[pos] = 4;
        let err = Dataset::read_from(&mut buf.as_slice()).unwrap_err();
        let inner = err.get_ref().expect("carries the domain error");
        assert_eq!(inner.to_string(), out_of_domain(1, 4, 3).to_string());
    }

    #[test]
    fn permute_rows_reorders_all_columns() {
        let d = sample();
        let p = d.permute_rows(&[2, 0, 1]);
        assert_eq!(p.row(0), vec![v(2), m()]);
        assert_eq!(p.row(1), vec![v(5), v(1)]);
        assert_eq!(p.row(2), vec![m(), v(3)]);
    }

    #[test]
    #[should_panic(expected = "duplicate row")]
    fn permute_rejects_non_permutation() {
        sample().permute_rows(&[0, 0, 1]);
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::new(vec![]).unwrap();
        assert_eq!(d.n_rows(), 0);
        assert_eq!(d.n_attrs(), 0);
    }

    #[test]
    fn persistence_roundtrip() {
        let d = sample();
        let mut buf = Vec::new();
        d.write_to(&mut buf).unwrap();
        let back = Dataset::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, d);
        // Column names and cardinalities survive.
        assert_eq!(back.column(0).name(), "a");
        assert_eq!(back.column(1).cardinality(), 3);
    }

    #[test]
    fn persistence_rejects_corruption() {
        let d = sample();
        let mut buf = Vec::new();
        d.write_to(&mut buf).unwrap();
        // Flip the magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(Dataset::read_from(&mut bad.as_slice()).is_err());
        // Truncate mid-column.
        let mut bad = buf.clone();
        bad.truncate(buf.len() - 3);
        assert!(Dataset::read_from(&mut bad.as_slice()).is_err());
        // Out-of-domain value: find the raw cell for value 5 in column "a"
        // (cardinality 5) and bump it to 6.
        let pos = buf.windows(2).rposition(|w| w == [5u8, 0]).unwrap();
        let mut bad = buf.clone();
        bad[pos] = 6;
        assert!(Dataset::read_from(&mut bad.as_slice()).is_err());
    }

    #[test]
    fn save_and_load_files() {
        let d = sample();
        let dir = std::env::temp_dir().join(format!("ibis_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dataset.ibds");
        d.save(&path).unwrap();
        assert_eq!(Dataset::load(&path).unwrap(), d);
        std::fs::remove_dir_all(&dir).ok();
    }
}
