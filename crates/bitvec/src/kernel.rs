//! Word-level kernels for the bitmap hot loops.
//!
//! Every bulk bitwise operation in this crate — [`crate::BitVec64`]'s
//! word-parallel ops, the literal-run segments of [`crate::Wah`]'s
//! compressed-form operations, and the bitmap containers of
//! [`crate::Adaptive`] — funnels through these functions, so the choice of
//! loop shape here decides whether the fetch/AND-reduce paths run at
//! hardware speed.
//!
//! The loops are lane-unrolled (u64×8 main body, u64×4 step-down, scalar
//! tail), a shape LLVM autovectorizes without any `unsafe` (this crate is
//! `#![forbid(unsafe_code)]`, and `std::simd` is nightly-only) to whatever
//! the build's target allows. The workspace sets no `target-cpu` or
//! `target-feature`, so on x86-64 that is the baseline: SSE2, 128-bit
//! registers (two words per instruction), and no POPCNT — `count_ones`
//! compiles to a bit-counting sequence (`psadbw` in the vector loops). A
//! build for a newer CPU would get 256-bit loops and POPCNT from the same
//! source, but measured on the repository's benchmark it sped one workload
//! up and slowed another (DESIGN.md §17). The loops are safe portable Rust,
//! so there is exactly one source; the proptests below check them against
//! inline one-element-per-iteration reference loops.
//!
//! [`kernel_name`] names the loop shape, so benchmark CSVs and `--profile`
//! output can record the lane width alongside the numbers.
//!
//! ```
//! use ibis_bitvec::kernel;
//!
//! let a = [0xFFu64, 0x0F, 0xF0];
//! let b = [0x0Fu64, 0x0F, 0x0F];
//! let mut out = [0u64; 3];
//! kernel::zip_words(&a, &b, &mut out, |x, y| x & y);
//! assert_eq!(out, [0x0F, 0x0F, 0x00]);
//! assert_eq!(kernel::popcount_words(&out), 8);
//! assert_eq!(kernel::and_popcount(&a, &b), 8);
//! ```

/// Number of lanes the kernels unroll by.
pub const LANES: usize = 8;

/// Name of the kernel loop shape (`"u64x8"`); recorded in benchmark output.
pub fn kernel_name() -> &'static str {
    "u64x8"
}

/// `out[i] = op(a[i], b[i])` over equal-length word slices.
///
/// # Panics
/// Panics if the slice lengths differ.
#[inline]
pub fn zip_words(a: &[u64], b: &[u64], out: &mut [u64], op: impl Fn(u64, u64) -> u64) {
    assert!(
        a.len() == b.len() && a.len() == out.len(),
        "kernel operands must have equal word counts"
    );
    let mut ai = a.chunks_exact(8);
    let mut bi = b.chunks_exact(8);
    let mut oi = out.chunks_exact_mut(8);
    for ((ca, cb), co) in (&mut ai).zip(&mut bi).zip(&mut oi) {
        co[0] = op(ca[0], cb[0]);
        co[1] = op(ca[1], cb[1]);
        co[2] = op(ca[2], cb[2]);
        co[3] = op(ca[3], cb[3]);
        co[4] = op(ca[4], cb[4]);
        co[5] = op(ca[5], cb[5]);
        co[6] = op(ca[6], cb[6]);
        co[7] = op(ca[7], cb[7]);
    }
    let (ra, rb, ro) = (ai.remainder(), bi.remainder(), oi.into_remainder());
    if ra.len() >= 4 {
        ro[0] = op(ra[0], rb[0]);
        ro[1] = op(ra[1], rb[1]);
        ro[2] = op(ra[2], rb[2]);
        ro[3] = op(ra[3], rb[3]);
        for i in 4..ra.len() {
            ro[i] = op(ra[i], rb[i]);
        }
    } else {
        for i in 0..ra.len() {
            ro[i] = op(ra[i], rb[i]);
        }
    }
}

/// `dst[i] = op(dst[i], src[i])` in place over equal-length word slices.
///
/// # Panics
/// Panics if the slice lengths differ.
#[inline]
pub fn zip_words_in_place(dst: &mut [u64], src: &[u64], op: impl Fn(u64, u64) -> u64) {
    assert_eq!(
        dst.len(),
        src.len(),
        "kernel operands must have equal word counts"
    );
    let mut di = dst.chunks_exact_mut(8);
    let mut si = src.chunks_exact(8);
    for (cd, cs) in (&mut di).zip(&mut si) {
        cd[0] = op(cd[0], cs[0]);
        cd[1] = op(cd[1], cs[1]);
        cd[2] = op(cd[2], cs[2]);
        cd[3] = op(cd[3], cs[3]);
        cd[4] = op(cd[4], cs[4]);
        cd[5] = op(cd[5], cs[5]);
        cd[6] = op(cd[6], cs[6]);
        cd[7] = op(cd[7], cs[7]);
    }
    let (rd, rs) = (di.into_remainder(), si.remainder());
    for i in 0..rd.len() {
        rd[i] = op(rd[i], rs[i]);
    }
}

/// Total set bits across a word slice.
#[inline]
pub fn popcount_words(words: &[u64]) -> usize {
    let mut it = words.chunks_exact(8);
    let mut acc = [0u32; 8];
    for c in &mut it {
        acc[0] += c[0].count_ones();
        acc[1] += c[1].count_ones();
        acc[2] += c[2].count_ones();
        acc[3] += c[3].count_ones();
        acc[4] += c[4].count_ones();
        acc[5] += c[5].count_ones();
        acc[6] += c[6].count_ones();
        acc[7] += c[7].count_ones();
    }
    let tail: u32 = it.remainder().iter().map(|w| w.count_ones()).sum();
    acc.iter().sum::<u32>() as usize + tail as usize
}

/// Set bits of `a[i] & b[i]` without materializing the AND — the fused
/// kernel behind COUNT-only queries.
///
/// # Panics
/// Panics if the slice lengths differ.
#[inline]
pub fn and_popcount(a: &[u64], b: &[u64]) -> usize {
    assert_eq!(
        a.len(),
        b.len(),
        "kernel operands must have equal word counts"
    );
    let mut ai = a.chunks_exact(8);
    let mut bi = b.chunks_exact(8);
    let mut acc = [0u32; 8];
    for (ca, cb) in (&mut ai).zip(&mut bi) {
        acc[0] += (ca[0] & cb[0]).count_ones();
        acc[1] += (ca[1] & cb[1]).count_ones();
        acc[2] += (ca[2] & cb[2]).count_ones();
        acc[3] += (ca[3] & cb[3]).count_ones();
        acc[4] += (ca[4] & cb[4]).count_ones();
        acc[5] += (ca[5] & cb[5]).count_ones();
        acc[6] += (ca[6] & cb[6]).count_ones();
        acc[7] += (ca[7] & cb[7]).count_ones();
    }
    let tail: u32 = ai
        .remainder()
        .iter()
        .zip(bi.remainder())
        .map(|(x, y)| (x & y).count_ones())
        .sum();
    acc.iter().sum::<u32>() as usize + tail as usize
}

/// `words[i] = op(words[i], mask)` over the bit range `start..end`, where
/// `mask` holds the bits of word `i` that lie inside the range: how a run
/// (a WAH fill, an adaptive run container) is combined into an accumulator
/// — `|w, m| w | m` sets the range, `|w, m| w & !m` clears it, `|w, m| w ^ m`
/// flips it. An empty range touches nothing.
///
/// # Panics
/// Panics if `end` exceeds the slice's `64 · len` bits.
#[inline]
pub fn apply_range(words: &mut [u64], start: usize, end: usize, op: impl Fn(u64, u64) -> u64) {
    if start >= end {
        return;
    }
    let (first, last) = (start / 64, (end - 1) / 64);
    let head = !0u64 << (start % 64);
    let tail = !0u64 >> (63 - (end - 1) % 64);
    if first == last {
        words[first] = op(words[first], head & tail);
        return;
    }
    words[first] = op(words[first], head);
    for w in &mut words[first + 1..last] {
        *w = op(*w, !0);
    }
    words[last] = op(words[last], tail);
}

/// `out[i] = op(a[i], b[i])` over equal-length `u32` slices — the kernel
/// behind WAH's literal-run batches, where each element is one 31-bit group.
///
/// # Panics
/// Panics if the slice lengths differ.
#[inline]
pub fn zip_groups(a: &[u32], b: &[u32], out: &mut [u32], op: impl Fn(u32, u32) -> u32) {
    assert!(
        a.len() == b.len() && a.len() == out.len(),
        "kernel operands must have equal word counts"
    );
    let mut ai = a.chunks_exact(8);
    let mut bi = b.chunks_exact(8);
    let mut oi = out.chunks_exact_mut(8);
    for ((ca, cb), co) in (&mut ai).zip(&mut bi).zip(&mut oi) {
        co[0] = op(ca[0], cb[0]);
        co[1] = op(ca[1], cb[1]);
        co[2] = op(ca[2], cb[2]);
        co[3] = op(ca[3], cb[3]);
        co[4] = op(ca[4], cb[4]);
        co[5] = op(ca[5], cb[5]);
        co[6] = op(ca[6], cb[6]);
        co[7] = op(ca[7], cb[7]);
    }
    let (ra, rb, ro) = (ai.remainder(), bi.remainder(), oi.into_remainder());
    for i in 0..ra.len() {
        ro[i] = op(ra[i], rb[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn kernel_name_matches_build() {
        assert_eq!(kernel_name(), format!("u64x{LANES}"));
    }

    #[test]
    fn empty_slices_are_fine() {
        let mut out: [u64; 0] = [];
        zip_words(&[], &[], &mut out, |a, b| a & b);
        let mut empty: [u64; 0] = [];
        zip_words_in_place(&mut empty, &[], |a, b| a | b);
        assert_eq!(popcount_words(&[]), 0);
        assert_eq!(and_popcount(&[], &[]), 0);
        let mut out32: [u32; 0] = [];
        zip_groups(&[], &[], &mut out32, |a, b| a ^ b);
    }

    #[test]
    #[should_panic(expected = "equal word counts")]
    fn length_mismatch_panics() {
        let mut out = [0u64; 2];
        zip_words(&[1, 2], &[3], &mut out, |a, b| a & b);
    }

    proptest! {
        #[test]
        fn zip_matches_scalar_loop(
            pairs in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..64)
        ) {
            let a: Vec<u64> = pairs.iter().map(|p| p.0).collect();
            let b: Vec<u64> = pairs.iter().map(|p| p.1).collect();
            for op in [|x: u64, y: u64| x & y, |x, y| x | y, |x, y| x ^ y] {
                let expect: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| op(x, y)).collect();
                let mut out = vec![0u64; a.len()];
                zip_words(&a, &b, &mut out, op);
                prop_assert_eq!(&out, &expect);
                let mut dst = a.clone();
                zip_words_in_place(&mut dst, &b, op);
                prop_assert_eq!(&dst, &expect);
            }
        }

        #[test]
        fn popcounts_match_scalar_loop(
            pairs in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..64)
        ) {
            let a: Vec<u64> = pairs.iter().map(|p| p.0).collect();
            let b: Vec<u64> = pairs.iter().map(|p| p.1).collect();
            let pop: usize = a.iter().map(|w| w.count_ones() as usize).sum();
            prop_assert_eq!(popcount_words(&a), pop);
            let anded: usize = a.iter().zip(&b).map(|(&x, &y)| (x & y).count_ones() as usize).sum();
            prop_assert_eq!(and_popcount(&a, &b), anded);
        }

        #[test]
        fn apply_range_matches_bit_loop(
            words in proptest::collection::vec(any::<u64>(), 1..6),
            a in 0usize..400,
            b in 0usize..400,
        ) {
            let bits = words.len() * 64;
            let (start, end) = (a.min(b) % (bits + 1), a.max(b) % (bits + 1));
            for op in [|w: u64, m: u64| w | m, |w: u64, m: u64| w & !m, |w: u64, m: u64| w ^ m] {
                let mut expect = words.clone();
                for i in start..end {
                    expect[i / 64] = op(expect[i / 64], 1 << (i % 64));
                }
                let mut got = words.clone();
                apply_range(&mut got, start, end, op);
                prop_assert_eq!(got, expect);
            }
        }

        #[test]
        fn group_zip_matches_scalar_loop(
            pairs in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..64)
        ) {
            let a: Vec<u32> = pairs.iter().map(|p| p.0).collect();
            let b: Vec<u32> = pairs.iter().map(|p| p.1).collect();
            let expect: Vec<u32> = a.iter().zip(&b).map(|(&x, &y)| x & y).collect();
            let mut out = vec![0u32; a.len()];
            zip_groups(&a, &b, &mut out, |x, y| x & y);
            prop_assert_eq!(out, expect);
        }
    }
}
