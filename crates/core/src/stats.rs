//! Dataset composition summaries (the paper's Table 7).

use crate::Dataset;
use std::fmt::Write as _;

/// Per-column statistics used in composition tables and size accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnStats {
    /// Attribute name.
    pub name: String,
    /// Declared cardinality.
    pub cardinality: u16,
    /// Distinct non-missing values actually observed.
    pub distinct_present: usize,
    /// Number of missing cells.
    pub missing: usize,
    /// Fraction of missing cells.
    pub missing_rate: f64,
}

/// Computes [`ColumnStats`] for every column.
pub fn column_stats(dataset: &Dataset) -> Vec<ColumnStats> {
    dataset
        .columns()
        .iter()
        .map(|c| ColumnStats {
            name: c.name().to_string(),
            cardinality: c.cardinality(),
            distinct_present: c.distinct_present(),
            missing: c.missing_count(),
            missing_rate: c.missing_rate(),
        })
        .collect()
}

/// A cardinality × missing-rate cross-tabulation of column counts, the shape
/// of the paper's Table 7.
#[derive(Clone, Debug, PartialEq)]
pub struct CompositionTable {
    /// Upper-inclusive cardinality bucket edges, e.g. `[9, 50, 100, u16::MAX]`
    /// renders as `<10`, `10-50`, `51-100`, `>100`.
    pub card_edges: Vec<u16>,
    /// Upper-inclusive missing-percent bucket edges (0..=100).
    pub missing_edges: Vec<u8>,
    /// `counts[c][m]` = number of columns in cardinality bucket `c` and
    /// missing bucket `m`.
    pub counts: Vec<Vec<usize>>,
}

impl CompositionTable {
    /// Cross-tabulates a dataset.
    pub fn new(
        dataset: &Dataset,
        card_edges: Vec<u16>,
        missing_edges: Vec<u8>,
    ) -> CompositionTable {
        assert!(!card_edges.is_empty() && !missing_edges.is_empty());
        assert!(card_edges.windows(2).all(|w| w[0] < w[1]));
        assert!(missing_edges.windows(2).all(|w| w[0] < w[1]));
        let mut counts = vec![vec![0usize; missing_edges.len()]; card_edges.len()];
        for col in dataset.columns() {
            let ci = card_edges
                .iter()
                .position(|&e| col.cardinality() <= e)
                .unwrap_or(card_edges.len() - 1);
            let pct = (col.missing_rate() * 100.0).round() as u8;
            let mi = missing_edges
                .iter()
                .position(|&e| pct <= e)
                .unwrap_or(missing_edges.len() - 1);
            counts[ci][mi] += 1;
        }
        CompositionTable {
            card_edges,
            missing_edges,
            counts,
        }
    }

    /// The bucket edges used by the paper for its census table:
    /// cardinality `<10, 10-50, 51-100, >100`; missing `0, ≤10, ≤40, ≤70, ≤100` (%).
    pub fn census_buckets(dataset: &Dataset) -> CompositionTable {
        CompositionTable::new(
            dataset,
            vec![9, 50, 100, u16::MAX],
            vec![0, 10, 40, 70, 100],
        )
    }

    /// Total number of columns counted.
    pub fn total(&self) -> usize {
        self.counts.iter().flatten().sum()
    }

    /// Renders an ASCII table in the style of the paper's Table 7.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = write!(s, "{:>10} |", "card \\ %m");
        let mut prev = None::<u8>;
        for &e in &self.missing_edges {
            let label = match prev {
                None if e == 0 => "0".to_string(),
                None => format!("<={e}"),
                Some(_) => format!("<={e}"),
            };
            let _ = write!(s, "{label:>7}");
            prev = Some(e);
        }
        let _ = writeln!(s, "{:>7}", "total");
        let mut prev_card = 0u32;
        for (ci, row) in self.counts.iter().enumerate() {
            let hi = self.card_edges[ci];
            let label = if hi == u16::MAX {
                format!(">{prev_card}")
            } else if prev_card + 1 == hi as u32 + 1 && ci == 0 {
                format!("<={hi}")
            } else {
                format!("{}-{}", prev_card + 1, hi)
            };
            prev_card = hi as u32;
            let _ = write!(s, "{label:>10} |");
            for &c in row {
                let _ = write!(s, "{c:>7}");
            }
            let _ = writeln!(s, "{:>7}", row.iter().sum::<usize>());
        }
        let _ = write!(s, "{:>10} |", "total");
        for m in 0..self.missing_edges.len() {
            let col_sum: usize = self.counts.iter().map(|r| r[m]).sum();
            let _ = write!(s, "{col_sum:>7}");
        }
        let _ = writeln!(s, "{:>7}", self.total());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Column;

    fn dataset() -> Dataset {
        // 4 columns: card 5 w/ 0% missing, card 5 w/ 50%, card 60 w/ 25%,
        // card 200 w/ 100%.
        let n = 4usize;
        let cols = vec![
            Column::from_raw("a", 5, vec![1, 2, 3, 4]).unwrap(),
            Column::from_raw("b", 5, vec![0, 0, 1, 2]).unwrap(),
            Column::from_raw("c", 60, vec![0, 10, 20, 30]).unwrap(),
            Column::from_raw("d", 200, vec![0, 0, 0, 0]).unwrap(),
        ];
        assert!(cols.iter().all(|c| c.len() == n));
        Dataset::new(cols).unwrap()
    }

    #[test]
    fn column_stats_report_missing() {
        let stats = column_stats(&dataset());
        assert_eq!(stats.len(), 4);
        assert_eq!(stats[0].missing, 0);
        assert_eq!(stats[1].missing, 2);
        assert!((stats[2].missing_rate - 0.25).abs() < 1e-12);
        assert_eq!(stats[3].missing_rate, 1.0);
        assert_eq!(stats[0].distinct_present, 4);
        assert_eq!(stats[3].distinct_present, 0);
    }

    #[test]
    fn census_bucket_crosstab() {
        let t = CompositionTable::census_buckets(&dataset());
        assert_eq!(t.total(), 4);
        // card 5 / 0% missing → bucket (0, 0)
        assert_eq!(t.counts[0][0], 1);
        // card 5 / 50% missing → bucket (0, <=70)
        assert_eq!(t.counts[0][3], 1);
        // card 60 / 25% → (51-100, <=40)
        assert_eq!(t.counts[2][2], 1);
        // card 200 / 100% → (>100, <=100)
        assert_eq!(t.counts[3][4], 1);
    }

    #[test]
    fn render_contains_totals() {
        let t = CompositionTable::census_buckets(&dataset());
        let s = t.render();
        assert!(s.contains("total"), "{s}");
        // 4 columns total appears in the bottom-right corner.
        assert!(s.trim_end().ends_with('4'), "{s}");
    }

    #[test]
    #[should_panic]
    fn unsorted_edges_rejected() {
        CompositionTable::new(&dataset(), vec![50, 9], vec![0, 100]);
    }
}
