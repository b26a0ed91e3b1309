//! Value-domain quantization: the VA-file lookup table.

/// Maps domain values `1..=C` onto bins `1..=n_bins`; bin `0` is reserved
/// for missing data by the callers (this type never produces it).
///
/// Internally a sorted list of inclusive upper bounds, one per bin: bin `k`
/// covers `(upper[k-2], upper[k-1]]`. This single representation serves both
/// the uniform (equal-width) quantizer of the basic VA-file and the
/// equi-depth quantizer of the VA+ extension.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Quantizer {
    uppers: Vec<u16>,
}

impl Quantizer {
    /// Equal-width bins: `bin(v) = 1 + ⌊(v − 1)·n_bins / C⌋` — the lookup
    /// table of the paper's Table 6 (`C = 6`, 2 bits: `01 → 1-2`,
    /// `10 → 3-4`, `11 → 5-6`).
    ///
    /// # Panics
    /// Panics if `n_bins == 0` or `cardinality == 0`.
    pub fn uniform(cardinality: u16, n_bins: u16) -> Quantizer {
        assert!(
            n_bins > 0 && cardinality > 0,
            "need at least one bin and one value"
        );
        let n_bins = n_bins.min(cardinality);
        let uppers = (1..=n_bins as u32)
            .map(|k| (k * cardinality as u32 / n_bins as u32) as u16)
            .collect();
        Quantizer { uppers }
    }

    /// Equi-depth bins from a value histogram: bin boundaries are chosen so
    /// every bin holds roughly the same number of *present* rows. `counts[v]`
    /// is the number of rows with value `v` (`counts[0]`, the missing count,
    /// is ignored — missing has its own code).
    ///
    /// # Panics
    /// Panics if `n_bins == 0` or `counts` has no value slots.
    pub fn equi_depth(counts: &[usize], n_bins: u16) -> Quantizer {
        assert!(n_bins > 0, "need at least one bin");
        assert!(counts.len() >= 2, "counts must cover values 1..=C");
        let c = (counts.len() - 1) as u16;
        let n_bins = n_bins.min(c);
        let total: usize = counts[1..].iter().sum();
        if total == 0 {
            // Degenerate: no present values; fall back to uniform widths.
            return Quantizer::uniform(c, n_bins);
        }
        let mut uppers: Vec<u16> = Vec::with_capacity(n_bins as usize);
        let mut acc = 0u64;
        for v in 1..=c {
            let bins_done = uppers.len() as u32;
            if bins_done == n_bins as u32 {
                break;
            }
            acc += counts[v as usize] as u64;
            let bins_left = n_bins as u32 - bins_done; // including the open one
            let values_left = (c - v) as u32;
            // Close the open bin at `v` once its cumulative mass target is
            // reached (never closing the final bin early), or when forced
            // because each remaining value must close one remaining bin.
            let target = total as u64 * (bins_done as u64 + 1) / n_bins as u64;
            if (acc >= target && bins_done + 1 < n_bins as u32) || values_left < bins_left {
                uppers.push(v);
            }
        }
        debug_assert_eq!(uppers.len(), n_bins as usize);
        debug_assert_eq!(*uppers.last().expect("non-empty"), c);
        Quantizer { uppers }
    }

    /// Rebuilds a quantizer from its serialized upper bounds, validating
    /// that they are strictly increasing and start above zero.
    pub fn from_uppers(uppers: Vec<u16>) -> Result<Quantizer, String> {
        if uppers.is_empty() {
            return Err("quantizer needs at least one bin".into());
        }
        if uppers[0] == 0 {
            return Err("bin upper bounds start at 1".into());
        }
        if !uppers.windows(2).all(|w| w[0] < w[1]) {
            return Err("bin upper bounds must be strictly increasing".into());
        }
        Ok(Quantizer { uppers })
    }

    /// The inclusive per-bin upper bounds (the serialized lookup table).
    pub fn uppers(&self) -> &[u16] {
        &self.uppers
    }

    /// Number of bins.
    pub fn n_bins(&self) -> u16 {
        self.uppers.len() as u16
    }

    /// Cardinality of the underlying domain.
    pub fn cardinality(&self) -> u16 {
        *self.uppers.last().expect("at least one bin")
    }

    /// The bin (1-based) holding value `v`.
    ///
    /// # Panics
    /// Panics if `v` is 0 or above the domain.
    #[inline]
    pub fn bin_of(&self, v: u16) -> u16 {
        assert!(v >= 1 && v <= self.cardinality(), "value {v} out of domain");
        self.uppers.partition_point(|&u| u < v) as u16 + 1
    }

    /// Every raw cell's code, indexed by the raw value: `0` (missing) keeps
    /// the reserved code 0, and value `v` gets [`Self::bin_of`]`(v)`. A
    /// build looks each cell up here instead of searching the bins.
    pub fn code_table(&self) -> Vec<u16> {
        let mut codes = vec![0];
        for (k, &hi) in self.uppers.iter().enumerate() {
            codes.resize(hi as usize + 1, k as u16 + 1);
        }
        codes
    }

    /// The inclusive value range `(lo, hi)` covered by bin `k` (1-based).
    ///
    /// # Panics
    /// Panics if `k` is 0 or above [`Self::n_bins`].
    pub fn bin_range(&self, k: u16) -> (u16, u16) {
        assert!(k >= 1 && k <= self.n_bins(), "bin {k} out of range");
        let hi = self.uppers[k as usize - 1];
        let lo = if k == 1 {
            1
        } else {
            self.uppers[k as usize - 2] + 1
        };
        (lo, hi)
    }

    /// `true` if bin `k` lies entirely inside `[v1, v2]` — records in such
    /// bins are definite matches and skip refinement.
    pub fn bin_inside(&self, k: u16, v1: u16, v2: u16) -> bool {
        let (lo, hi) = self.bin_range(k);
        v1 <= lo && hi <= v2
    }

    /// Approximate memory footprint of the lookup table.
    pub fn size_bytes(&self) -> usize {
        self.uppers.len() * std::mem::size_of::<u16>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_lookup_reproduced() {
        // Paper Table 6: C = 6, two bits → 3 value bins.
        let q = Quantizer::uniform(6, 3);
        assert_eq!(q.bin_range(1), (1, 2));
        assert_eq!(q.bin_range(2), (3, 4));
        assert_eq!(q.bin_range(3), (5, 6));
        assert_eq!(q.bin_of(1), 1);
        assert_eq!(q.bin_of(2), 1);
        assert_eq!(q.bin_of(3), 2);
        assert_eq!(q.bin_of(6), 3);
    }

    #[test]
    fn identity_when_bins_cover_domain() {
        let q = Quantizer::uniform(5, 7);
        assert_eq!(q.n_bins(), 5); // clamped to cardinality
        for v in 1..=5 {
            assert_eq!(q.bin_of(v), v);
            assert_eq!(q.bin_range(v), (v, v));
        }
    }

    #[test]
    fn bins_partition_domain() {
        for (c, b) in [(10u16, 3u16), (100, 7), (165, 31), (7, 7), (2, 1)] {
            let q = Quantizer::uniform(c, b);
            let mut next = 1u16;
            for k in 1..=q.n_bins() {
                let (lo, hi) = q.bin_range(k);
                assert_eq!(lo, next, "C={c} b={b} bin {k}");
                assert!(hi >= lo);
                next = hi + 1;
            }
            assert_eq!(next, c + 1);
            for v in 1..=c {
                let k = q.bin_of(v);
                let (lo, hi) = q.bin_range(k);
                assert!(lo <= v && v <= hi);
            }
        }
    }

    #[test]
    fn equi_depth_balances_mass() {
        // ~76% of mass on value 1 (Zipf-like): equi-depth isolates it.
        let counts = vec![0usize, 800, 50, 50, 50, 50, 50];
        let q = Quantizer::equi_depth(&counts, 3);
        assert_eq!(q.n_bins(), 3);
        assert_eq!(q.bin_range(1), (1, 1), "hot value gets its own bin");
        // Compare against uniform: bin 1 of uniform(6,3) covers 1..=2,
        // lumping 850 of 1050 rows together.
        let u = Quantizer::uniform(6, 3);
        assert_eq!(u.bin_range(1), (1, 2));
    }

    #[test]
    fn equi_depth_degenerates_gracefully() {
        // All mass missing → uniform fallback.
        let counts = vec![10usize, 0, 0, 0];
        let q = Quantizer::equi_depth(&counts, 2);
        assert_eq!(q.n_bins(), 2);
        assert_eq!(q.cardinality(), 3);
        // More bins than values → one value per bin.
        let counts = vec![0usize, 5, 5];
        let q = Quantizer::equi_depth(&counts, 8);
        assert_eq!(q.n_bins(), 2);
    }

    #[test]
    fn bin_inside_detects_interior_bins() {
        let q = Quantizer::uniform(10, 5); // bins of width 2
        assert!(q.bin_inside(2, 3, 6)); // bin 2 = [3,4] ⊆ [3,6]
        assert!(!q.bin_inside(3, 3, 5)); // bin 3 = [5,6] ⊄ [3,5]
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn zero_value_rejected() {
        Quantizer::uniform(5, 5).bin_of(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn equi_depth_always_partitions_domain(
            counts in proptest::collection::vec(0usize..500, 2..40),
            n_bins in 1u16..20,
        ) {
            // counts[0] = missing; values 1..=C.
            let c = (counts.len() - 1) as u16;
            let q = Quantizer::equi_depth(&counts, n_bins);
            prop_assert_eq!(q.cardinality(), c);
            prop_assert!(q.n_bins() <= n_bins.min(c));
            // Bins tile 1..=C with no gaps or overlaps.
            let mut next = 1u16;
            for k in 1..=q.n_bins() {
                let (lo, hi) = q.bin_range(k);
                prop_assert_eq!(lo, next);
                prop_assert!(hi >= lo);
                next = hi + 1;
            }
            prop_assert_eq!(next, c + 1);
            // bin_of is consistent with bin_range.
            for v in 1..=c {
                let k = q.bin_of(v);
                let (lo, hi) = q.bin_range(k);
                prop_assert!(lo <= v && v <= hi);
            }
        }

        #[test]
        fn uniform_always_partitions_domain(c in 1u16..300, n_bins in 1u16..40) {
            let q = Quantizer::uniform(c, n_bins);
            let mut next = 1u16;
            for k in 1..=q.n_bins() {
                let (lo, hi) = q.bin_range(k);
                prop_assert_eq!(lo, next);
                next = hi + 1;
            }
            prop_assert_eq!(next, c + 1);
        }

        #[test]
        fn code_table_holds_every_values_bin(
            counts in proptest::collection::vec(0usize..500, 2..300),
            n_bins in 1u16..300,
        ) {
            let c = (counts.len() - 1) as u16;
            for q in [Quantizer::uniform(c, n_bins), Quantizer::equi_depth(&counts, n_bins)] {
                let codes = q.code_table();
                prop_assert_eq!(codes.len(), c as usize + 1);
                prop_assert_eq!(codes[0], 0);
                for v in 1..=c {
                    prop_assert_eq!(codes[v as usize], q.bin_of(v));
                }
            }
        }

        #[test]
        fn serialization_roundtrip(c in 1u16..200, n_bins in 1u16..30) {
            let q = Quantizer::uniform(c, n_bins);
            let back = Quantizer::from_uppers(q.uppers().to_vec()).unwrap();
            prop_assert_eq!(back, q);
        }
    }
}
