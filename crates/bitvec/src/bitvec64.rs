//! Plain uncompressed bit vectors backed by `u64` words.

use crate::{kernel, BitStore};
use std::fmt;

/// An uncompressed bit vector of fixed length with word-parallel logical
/// operations.
///
/// This is both a [`crate::BitStore`] backend in its own right (the
/// "uncompressed bitmap index" ablation), the intermediate representation
/// every compressed store encodes from / decodes to, and the accumulator a
/// bitmap query is evaluated in: [`and_assign`](BitVec64::and_assign),
/// [`or_assign`](BitVec64::or_assign) and [`xor_assign`](BitVec64::xor_assign)
/// take any store as their operand and let it combine itself in place.
///
/// Bits beyond `len` inside the last word are kept zero by every operation
/// (`not` masks the tail), so `count_ones`/`iter_ones` never see padding.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec64 {
    words: Vec<u64>,
    len: usize,
}

impl BitVec64 {
    /// An all-zeros vector of `len` bits.
    pub fn zeros(len: usize) -> BitVec64 {
        BitVec64 {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// An all-ones vector of `len` bits.
    pub fn ones(len: usize) -> BitVec64 {
        let mut v = BitVec64 {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        v.mask_tail();
        v
    }

    /// Builds from the positions of set bits. Positions must be `< len`.
    ///
    /// # Panics
    /// Panics if any position is out of range.
    pub fn from_ones(len: usize, ones: impl IntoIterator<Item = u32>) -> BitVec64 {
        let mut v = BitVec64::zeros(len);
        for pos in ones {
            v.set(pos as usize, true);
        }
        v
    }

    /// The `64 · words.len()` bits of `words`, taken as they are: bit `b` of
    /// word `w` is position `64w + b`. How a bitmap read off the wire
    /// becomes positions.
    pub fn from_words(words: Vec<u64>) -> BitVec64 {
        BitVec64 {
            len: words.len() * 64,
            words,
        }
    }

    /// Joins `parts` end to end, each part's words copied as they are: how a
    /// scan cut at multiples of 64 rows becomes one answer. One part is
    /// returned whole; none is the empty vector.
    ///
    /// # Panics
    /// Panics if a part other than the last ends inside a word.
    pub fn concat(parts: Vec<BitVec64>) -> BitVec64 {
        let mut parts = parts.into_iter();
        let mut out = parts.next().unwrap_or_else(|| BitVec64::zeros(0));
        for part in parts {
            assert!(
                out.len.is_multiple_of(64),
                "only the last part may end inside a word"
            );
            out.words.extend_from_slice(&part.words);
            out.len += part.len;
        }
        out
    }

    /// Lengthens the vector to `len` bits, the new bits clear; a `len` no
    /// longer than the vector changes nothing.
    pub fn grow(&mut self, len: usize) {
        if len > self.len {
            self.words.resize(len.div_ceil(64), 0);
            self.len = len;
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the vector has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words (tail padding is zero).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range for length {}",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range for length {}",
            self.len
        );
        let (w, b) = (i / 64, i % 64);
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Flips the bit at each of `positions`, which ascend: how a sliding
    /// window drops the rows that leave it and takes the rows that enter.
    ///
    /// # Panics
    /// Panics if a position is out of range.
    pub fn toggle(&mut self, positions: &[u32]) {
        debug_assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "positions must ascend"
        );
        assert!(
            positions.last().is_none_or(|&p| (p as usize) < self.len),
            "bit index out of range for length {}",
            self.len
        );
        for &p in positions {
            self.words[p as usize / 64] ^= 1 << (p % 64);
        }
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    fn zip_with(&self, other: &BitVec64, f: impl Fn(u64, u64) -> u64) -> BitVec64 {
        assert_eq!(self.len, other.len, "bit vectors must have equal length");
        let mut words = vec![0u64; self.words.len()];
        kernel::zip_words(&self.words, &other.words, &mut words, f);
        let mut out = BitVec64 {
            words,
            len: self.len,
        };
        out.mask_tail(); // f may set padding bits (e.g. a XOR with NOT-like f)
        out
    }

    /// Bitwise AND.
    pub fn and(&self, other: &BitVec64) -> BitVec64 {
        self.zip_with(other, |a, b| a & b)
    }

    /// Bitwise OR.
    pub fn or(&self, other: &BitVec64) -> BitVec64 {
        self.zip_with(other, |a, b| a | b)
    }

    /// Bitwise XOR.
    pub fn xor(&self, other: &BitVec64) -> BitVec64 {
        self.zip_with(other, |a, b| a ^ b)
    }

    /// Bitwise NOT (complement within `len`).
    pub fn not(&self) -> BitVec64 {
        let words = self.words.iter().map(|&w| !w).collect();
        let mut out = BitVec64 {
            words,
            len: self.len,
        };
        out.mask_tail();
        out
    }

    /// In-place AND with any store: the operand combines itself into this
    /// vector's words ([`BitStore::and_into`]), so nothing is allocated and
    /// a compressed operand costs its compressed size.
    pub fn and_assign<S: BitStore>(&mut self, other: &S) {
        assert_eq!(self.len, other.len(), "bit vectors must have equal length");
        other.and_into(&mut self.words);
    }

    /// In-place OR with any store ([`BitStore::or_into`]).
    pub fn or_assign<S: BitStore>(&mut self, other: &S) {
        assert_eq!(self.len, other.len(), "bit vectors must have equal length");
        other.or_into(&mut self.words);
    }

    /// In-place XOR with any store ([`BitStore::xor_into`]).
    pub fn xor_assign<S: BitStore>(&mut self, other: &S) {
        assert_eq!(self.len, other.len(), "bit vectors must have equal length");
        other.xor_into(&mut self.words);
    }

    /// ANDs word `i` with `mask(i)`, for every word that is not already
    /// zero (`mask` is not called for those): how a scan narrows its answer
    /// one predicate at a time without revisiting the words an earlier
    /// predicate emptied. An AND sets no bit, so the tail stays masked.
    pub fn and_words_with(&mut self, mut mask: impl FnMut(usize) -> u64) {
        for (i, w) in self.words.iter_mut().enumerate() {
            if *w != 0 {
                *w &= mask(i);
            }
        }
    }

    /// Clears every bit set in `dead` (`self AND NOT dead`), over the words
    /// the two share: bits past `dead`'s length are kept, and `dead`'s bits
    /// past this vector's length change nothing. How tombstones leave an
    /// answer before any id is written. An AND NOT sets no bit, so the tail
    /// stays masked.
    pub fn and_not_assign(&mut self, dead: &BitVec64) {
        let n = self.words.len().min(dead.words.len());
        kernel::zip_words_in_place(&mut self.words[..n], &dead.words[..n], |a, d| a & !d);
    }

    /// In-place NOT (complement within `len`; the tail stays masked).
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        kernel::popcount_words(&self.words)
    }

    /// Set bits of `self AND other` without building the AND — the last
    /// step of a COUNT-only query.
    pub fn and_count(&self, other: &BitVec64) -> usize {
        assert_eq!(self.len, other.len, "bit vectors must have equal length");
        kernel::and_popcount(&self.words, &other.words)
    }

    /// Positions of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros();
                    w &= w - 1;
                    Some((wi * 64) as u32 + b)
                }
            })
        })
    }

    /// Positions of set bits, ascending, as one vector.
    pub fn ones_positions(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.ones_positions_into(0, &mut out);
        out
    }

    /// Appends `base` plus the position of every set bit, ascending, after
    /// whatever `out` already holds — how a query's final bitmap becomes
    /// row ids, written once at the shard's global offset.
    ///
    /// Words go eight at a time, an all-zero block in one test. A word's
    /// first two positions are taken branch-free — written whether or not a
    /// bit is left, kept only if one was — because on a sparse answer "is
    /// this word zero?" is a coin toss that costs more mispredicted than
    /// the two stores do; words holding more bits finish in a loop.
    pub fn ones_positions_into(&self, base: u32, out: &mut Vec<u32>) {
        const BLOCK: usize = 8;
        let mut kept = out.len(); // out[..kept] are positions; the rest is scratch
        for (bi, block) in self.words.chunks(BLOCK).enumerate() {
            if block.iter().fold(0, |any, &w| any | w) == 0 {
                continue;
            }
            // Room for every bit of the block, and the one slot a
            // branch-free store may scribble on past the last position.
            // Only the missing tail is zeroed; `Vec`'s growth amortises the
            // reallocation.
            let need = kept + BLOCK * 64 + 1;
            if out.len() < need {
                out.resize(need, 0);
            }
            for (j, &word) in block.iter().enumerate() {
                let at = base.wrapping_add(((bi * BLOCK + j) * 64) as u32);
                let mut w = word;
                for _ in 0..2 {
                    out[kept] = at.wrapping_add(w.trailing_zeros());
                    kept += usize::from(w != 0);
                    w &= w.wrapping_sub(1);
                }
                while w != 0 {
                    out[kept] = at + w.trailing_zeros();
                    kept += 1;
                    w &= w - 1;
                }
            }
        }
        out.truncate(kept);
    }

    /// Heap size of the backing storage, in bytes.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Builds from raw backing words (deserialization path). Rejects a
    /// mismatched word count or padding bits set past `len`.
    pub(crate) fn from_raw_words(words: Vec<u64>, len: usize) -> std::io::Result<BitVec64> {
        if words.len() != len.div_ceil(64) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "word count disagrees with bit length",
            ));
        }
        let tail = len % 64;
        if tail != 0 {
            if let Some(&last) = words.last() {
                if last >> tail != 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "set bits past the declared bit length",
                    ));
                }
            }
        }
        Ok(BitVec64 { words, len })
    }
}

impl fmt::Debug for BitVec64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec64[{}; ", self.len)?;
        for i in 0..self.len.min(128) {
            write!(f, "{}", self.get(i) as u8)?;
        }
        if self.len > 128 {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv(bits: &str) -> BitVec64 {
        let mut v = BitVec64::zeros(bits.len());
        for (i, c) in bits.chars().enumerate() {
            v.set(i, c == '1');
        }
        v
    }

    #[test]
    fn get_set_roundtrip() {
        let mut v = BitVec64::zeros(130);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1) && !v.get(128));
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn logical_ops() {
        let a = bv("1100");
        let b = bv("1010");
        assert_eq!(a.and(&b), bv("1000"));
        assert_eq!(a.or(&b), bv("1110"));
        assert_eq!(a.xor(&b), bv("0110"));
        assert_eq!(a.not(), bv("0011"));
    }

    #[test]
    fn not_masks_tail_padding() {
        let v = BitVec64::zeros(70);
        let n = v.not();
        assert_eq!(n.count_ones(), 70);
        // Padding bits in the second word must stay clear.
        assert_eq!(n.words()[1] >> 6, 0);
        assert_eq!(n.not(), v);
    }

    #[test]
    fn ones_constructor_masks_tail() {
        let v = BitVec64::ones(65);
        assert_eq!(v.count_ones(), 65);
        assert_eq!(BitVec64::ones(0).count_ones(), 0);
    }

    #[test]
    fn toggle_flips_each_position() {
        let mut v = BitVec64::from_ones(130, [1u32, 64, 129]);
        v.toggle(&[0, 1, 129]);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![0, 64]);
        v.toggle(&[]);
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn toggle_refuses_a_position_past_the_end() {
        BitVec64::zeros(65).toggle(&[3, 65]);
    }

    #[test]
    fn and_words_with_skips_empty_words_and_keeps_the_tail() {
        let mut v = BitVec64::from_ones(130, [1u32, 129]);
        let mut asked = Vec::new();
        v.and_words_with(|i| {
            asked.push(i);
            u64::MAX
        });
        assert_eq!(asked, vec![0, 2], "word 1 is zero and is not asked for");
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![1, 129]);
        v.and_words_with(|i| if i == 0 { 0 } else { u64::MAX });
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![129]);
    }

    #[test]
    fn iter_ones_ascending_across_words() {
        let v = BitVec64::from_ones(200, [0u32, 63, 64, 127, 199]);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 127, 199]);
    }

    #[test]
    fn ones_positions_match_iter_ones_at_every_density() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for len in [0usize, 1, 63, 64, 65, 511, 512, 513, 5_000] {
            // One bit in 2^shift: from all-ones words down to mostly-zero blocks.
            for shift in [0u32, 1, 3, 6, 9, 12] {
                let v = BitVec64::from_ones(
                    len,
                    (0..len as u32).filter(|_| next().trailing_zeros() >= shift),
                );
                let expect: Vec<u32> = v.iter_ones().collect();
                assert_eq!(v.ones_positions(), expect, "len {len} shift {shift}");
                assert_eq!(v.count_ones(), expect.len());
            }
            assert_eq!(BitVec64::ones(len).ones_positions().len(), len);
        }
    }

    #[test]
    fn ones_positions_into_appends_at_a_base() {
        let prior = [3u32, 17, 40];
        for len in [0usize, 1, 64, 65, 2_000] {
            let every_third = BitVec64::from_ones(len, (0..len as u32).step_by(3));
            for v in [BitVec64::zeros(len), BitVec64::ones(len), every_third] {
                for base in [0u32, 41, 1 << 20] {
                    let mut out = prior.to_vec();
                    v.ones_positions_into(base, &mut out);
                    let shifted = v.ones_positions().into_iter().map(|p| p + base);
                    let expect: Vec<u32> = prior.iter().copied().chain(shifted).collect();
                    assert_eq!(out, expect, "len {len} base {base}");
                }
            }
        }
    }

    #[test]
    fn ones_positions_into_appends_shard_after_shard() {
        // A sharded answer: 64 vectors of 2,000 bits appended into one
        // buffer, each at its global offset, equal their concatenation.
        let mut out = Vec::new();
        let mut expect = Vec::new();
        for s in 0..64u32 {
            let v = BitVec64::from_ones(2_000, (s % 7..2_000).step_by(1 + s as usize % 5));
            let base = s * 2_000;
            v.ones_positions_into(base, &mut out);
            expect.extend(v.iter_ones().map(|p| p + base));
            assert_eq!(out.len(), expect.len(), "after shard {s}");
        }
        assert_eq!(out, expect);
    }

    #[test]
    fn in_place_ops_match_pure_ops() {
        let a = bv("110011");
        let b = bv("101010");
        let mut x = a.clone();
        x.and_assign(&b);
        assert_eq!(x, a.and(&b));
        let mut y = a.clone();
        y.or_assign(&b);
        assert_eq!(y, a.or(&b));
        let mut z = a.clone();
        z.xor_assign(&b);
        assert_eq!(z, a.xor(&b));
        z.not_assign();
        assert_eq!(z, a.xor(&b).not());
        assert_eq!(a.and_count(&b), a.and(&b).count_ones());
    }

    #[test]
    fn and_not_clears_the_shared_words_only() {
        let mut answer = BitVec64::ones(130);
        // A shorter operand: the bits past it stay.
        answer.and_not_assign(&BitVec64::from_ones(70, [0u32, 69]));
        assert_eq!(answer.count_ones(), 128);
        assert!(!answer.get(0) && !answer.get(69) && answer.get(70) && answer.get(129));
        // A longer one: its bits past the answer touch no padding.
        answer.and_not_assign(&BitVec64::from_ones(200, [129u32, 130, 199]));
        assert_eq!(answer.count_ones(), 127);
        assert_eq!(answer.words()[2] >> 2, 0);
    }

    #[test]
    fn concat_and_grow_keep_every_bit_in_place() {
        let head = BitVec64::from_ones(128, [0u32, 127]);
        let tail = BitVec64::from_ones(5, [4u32]);
        let joined = BitVec64::concat(vec![head, BitVec64::zeros(64), tail]);
        assert_eq!(joined.len(), 197);
        assert_eq!(joined.iter_ones().collect::<Vec<_>>(), vec![0, 127, 196]);
        assert_eq!(BitVec64::concat(Vec::new()), BitVec64::zeros(0));
        let mut grown = joined.clone();
        grown.grow(300);
        assert_eq!(grown.len(), 300);
        assert_eq!(grown.iter_ones().collect::<Vec<_>>(), vec![0, 127, 196]);
        grown.grow(10);
        assert_eq!(grown.len(), 300, "growing never shortens");
    }

    #[test]
    #[should_panic(expected = "inside a word")]
    fn concat_refuses_an_unaligned_inner_part() {
        let _ = BitVec64::concat(vec![BitVec64::zeros(65), BitVec64::zeros(1)]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn length_mismatch_panics() {
        let _ = bv("10").and(&bv("100"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        bv("10").get(2);
    }

    #[test]
    fn size_accounting() {
        assert_eq!(BitVec64::zeros(1).size_bytes(), 8);
        assert_eq!(BitVec64::zeros(64).size_bytes(), 8);
        assert_eq!(BitVec64::zeros(65).size_bytes(), 16);
        assert_eq!(BitVec64::zeros(0).size_bytes(), 0);
    }
}
