//! Word-Aligned Hybrid (WAH) compressed bit vectors.
//!
//! WAH (Wu, Otoo, Shoshani — the paper's reference [16]) encodes a bit
//! vector as a sequence of 32-bit words of two kinds, discriminated by the
//! most significant bit exactly as described in §4.4 of the paper:
//!
//! * **literal** (`MSB = 0`): the low 31 bits hold 31 consecutive bitmap
//!   bits;
//! * **fill** (`MSB = 1`): the second-most-significant bit is the fill value
//!   and the remaining 30 bits count how many *31-bit groups* the fill
//!   spans. The word-alignment of fills is what lets logical operations work
//!   word-at-a-time without bit shifting.
//!
//! Logical operations ([`Wah::and`], [`or`](Wah::or), [`xor`](Wah::xor),
//! [`not`](Wah::not)) run directly over the compressed words and produce a
//! compressed result, which is the property the paper's query evaluation
//! relies on ("Logical operations are performed over the compressed bitmaps
//! resulting in another compressed bitmap").

use crate::{kernel, BitStore, BitVec64};

const GROUP_BITS: usize = 31;
const LITERAL_MASK: u32 = 0x7FFF_FFFF;
const FILL_FLAG: u32 = 0x8000_0000;
const FILL_VALUE_FLAG: u32 = 0x4000_0000;
const FILL_COUNT_MASK: u32 = 0x3FFF_FFFF;

/// A WAH-compressed bit vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Wah {
    /// Encoded words. Every group of 31 bitmap bits is represented exactly
    /// once, either inside a literal or inside a fill; the final group is
    /// zero-padded past `n_bits`.
    words: Vec<u32>,
    n_bits: usize,
}

/// Compression statistics for a [`Wah`] vector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WahStats {
    /// Encoded 32-bit words.
    pub n_words: usize,
    /// Literal words among them.
    pub n_literals: usize,
    /// Fill words among them.
    pub n_fills: usize,
    /// Total 31-bit groups covered by fills.
    pub fill_groups: u64,
    /// `size_bytes / ceil(n_bits / 8)` — the paper's compression ratio
    /// (values slightly above 1, e.g. 1.03 ≈ 32/31, mean "incompressible").
    pub compression_ratio: f64,
}

impl Wah {
    /// Encodes an uncompressed bit vector.
    pub fn encode(bits: &BitVec64) -> Wah {
        let n_bits = bits.len();
        let n_groups = n_bits.div_ceil(GROUP_BITS);
        let mut b = Builder::new();
        let words = bits.words();
        for g in 0..n_groups {
            b.push_group(group_at(words, g * GROUP_BITS));
        }
        Wah {
            words: b.words,
            n_bits,
        }
    }

    /// Number of bits in the (logical) bitmap.
    pub fn len(&self) -> usize {
        self.n_bits
    }

    /// `true` if the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.n_bits == 0
    }

    /// The encoded words (for size accounting and tests).
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Compression statistics.
    pub fn stats(&self) -> WahStats {
        let n_fills = self.words.iter().filter(|&&w| w & FILL_FLAG != 0).count();
        let fill_groups: u64 = self
            .words
            .iter()
            .filter(|&&w| w & FILL_FLAG != 0)
            .map(|&w| (w & FILL_COUNT_MASK) as u64)
            .sum();
        let uncompressed = self.n_bits.div_ceil(8).max(1);
        WahStats {
            n_words: self.words.len(),
            n_literals: self.words.len() - n_fills,
            n_fills,
            fill_groups,
            compression_ratio: (self.words.len() * 4) as f64 / uncompressed as f64,
        }
    }

    /// Decodes to an uncompressed bit vector.
    pub fn decode(&self) -> BitVec64 {
        let mut out = BitVec64::zeros(self.n_bits);
        out.or_assign(self);
        out
    }

    /// Combines this vector into the words of a plain accumulator in one
    /// walk over the encoding: `word = f(word, bits, window)`, where `window`
    /// masks the positions of `word` the call covers and `bits` holds this
    /// vector's values there. Literals are shifted into a pending word that
    /// is combined once it is full, so a run of them costs one read-modify-
    /// write per 64 bits; a fill is one [`kernel::apply_range`] over its
    /// span — skipped outright when its value is `identity_fill`, the
    /// operation's neutral element. Both are clamped to `n_bits`, so the
    /// padding of the final group (ones after a [`Wah::not`]) never reaches
    /// `acc`.
    fn combine_into(&self, acc: &mut [u64], identity_fill: bool, f: impl Fn(u64, u64, u64) -> u64) {
        assert_eq!(
            acc.len(),
            self.n_bits.div_ceil(64),
            "accumulator must hold the vector's uncompressed words"
        );
        // Literal bits not yet combined: `pending` holds offsets
        // `from..start % 64` of word `start / 64`.
        let (mut pending, mut from) = (0u64, 0usize);
        let mut start = 0usize; // first bit of the next group
        let flush_partial = |acc: &mut [u64], pending: u64, from: usize, end: usize| {
            let off = end % 64;
            if off > from {
                let window = (!0u64 << from) & ((1u64 << off) - 1);
                acc[end / 64] = f(acc[end / 64], pending & window, window);
            }
        };
        for &w in &self.words {
            if w & FILL_FLAG != 0 {
                flush_partial(acc, pending, from, start);
                let span = (w & FILL_COUNT_MASK) as usize * GROUP_BITS;
                let end = (start + span).min(self.n_bits);
                let ones = w & FILL_VALUE_FLAG != 0;
                if ones != identity_fill {
                    kernel::apply_range(acc, start, end, |word, m| {
                        f(word, if ones { m } else { 0 }, m)
                    });
                }
                start = end;
                (pending, from) = (0, start % 64);
            } else {
                // Only the vector's last group can be short of GROUP_BITS.
                let valid = (self.n_bits - start).min(GROUP_BITS);
                let group = w as u64 & ((1u64 << valid) - 1);
                let off = start % 64;
                pending |= group << off;
                if off + valid >= 64 {
                    // The word is complete; what spilled starts the next.
                    acc[start / 64] = f(acc[start / 64], pending, !0u64 << from);
                    (pending, from) = ((group >> 1) >> (63 - off), 0);
                }
                start += GROUP_BITS;
            }
        }
        flush_partial(acc, pending, from, start.min(self.n_bits));
    }

    /// Bitwise AND over the compressed form.
    pub fn and(&self, other: &Wah) -> Wah {
        self.binary(other, |a, b| a & b)
    }

    /// Bitwise OR over the compressed form.
    pub fn or(&self, other: &Wah) -> Wah {
        self.binary(other, |a, b| a | b)
    }

    /// Bitwise XOR over the compressed form.
    pub fn xor(&self, other: &Wah) -> Wah {
        self.binary(other, |a, b| a ^ b)
    }

    /// Bitwise NOT over the compressed form. Complement is computed within
    /// `len`; padding bits in the final group are masked on read, so they
    /// never become visible.
    pub fn not(&self) -> Wah {
        let words = self
            .words
            .iter()
            .map(|&w| {
                if w & FILL_FLAG != 0 {
                    w ^ FILL_VALUE_FLAG
                } else {
                    (!w) & LITERAL_MASK
                }
            })
            .collect();
        Wah {
            words,
            n_bits: self.n_bits,
        }
    }

    fn binary(&self, other: &Wah, op: impl Fn(u32, u32) -> u32) -> Wah {
        assert_eq!(
            self.n_bits, other.n_bits,
            "bit vectors must have equal length"
        );
        let mut ca = Cursor::new(&self.words);
        let mut cb = Cursor::new(&other.words);
        let mut out = Builder::new();
        let mut scratch: Vec<u32> = Vec::new();
        let mut remaining = self.n_bits.div_ceil(GROUP_BITS) as u64;
        while remaining > 0 {
            if ca.in_fill() && cb.in_fill() {
                let n = ca.fill_left().min(cb.fill_left());
                let w = op(fill_pattern(ca.fill_bit()), fill_pattern(cb.fill_bit())) & LITERAL_MASK;
                out.push_run(w == LITERAL_MASK, w != 0 && w != LITERAL_MASK, w, n);
                ca.consume(n);
                cb.consume(n);
                remaining -= n as u64;
            } else if ca.on_literal() && cb.on_literal() {
                // Both sides sit on a run of literal words: combine the
                // whole common run in one lane-unrolled kernel pass instead
                // of one group per loop iteration. This is the hot segment
                // of fetch/AND-reduce on dense, incompressible bitmaps.
                let ra = ca.literal_run();
                let rb = cb.literal_run();
                let n = ra.len().min(rb.len()).min(remaining as usize);
                scratch.resize(n, 0);
                kernel::zip_groups(&ra[..n], &rb[..n], &mut scratch, &op);
                for &g in &scratch {
                    out.push_group(g & LITERAL_MASK);
                }
                ca.advance_literals(n);
                cb.advance_literals(n);
                remaining -= n as u64;
            } else {
                let ga = ca.take_group();
                let gb = cb.take_group();
                out.push_group(op(ga, gb) & LITERAL_MASK);
                remaining -= 1;
            }
        }
        Wah {
            words: out.words,
            n_bits: self.n_bits,
        }
    }

    /// Number of set bits (padding past `len` is excluded).
    pub fn count_ones(&self) -> usize {
        let mut count = 0usize;
        let mut group = 0usize;
        for &w in &self.words {
            if w & FILL_FLAG != 0 {
                let n = (w & FILL_COUNT_MASK) as usize;
                if w & FILL_VALUE_FLAG != 0 {
                    let start = group * GROUP_BITS;
                    let end = ((group + n) * GROUP_BITS).min(self.n_bits);
                    count += end.saturating_sub(start);
                }
                group += n;
            } else {
                let base = group * GROUP_BITS;
                let valid = (self.n_bits - base.min(self.n_bits)).min(GROUP_BITS);
                let mask = if valid == GROUP_BITS {
                    LITERAL_MASK
                } else {
                    (1u32 << valid) - 1
                };
                count += (w & mask).count_ones() as usize;
                group += 1;
            }
        }
        count
    }

    /// Positions of set bits, ascending.
    pub fn ones_positions(&self) -> Vec<u32> {
        let mut out = Vec::new();
        let mut group = 0usize;
        for &w in &self.words {
            if w & FILL_FLAG != 0 {
                let n = (w & FILL_COUNT_MASK) as usize;
                if w & FILL_VALUE_FLAG != 0 {
                    let start = group * GROUP_BITS;
                    let end = ((group + n) * GROUP_BITS).min(self.n_bits);
                    out.extend((start as u32)..(end as u32));
                }
                group += n;
            } else {
                let base = (group * GROUP_BITS) as u32;
                let mut bits = w & LITERAL_MASK;
                while bits != 0 {
                    let j = bits.trailing_zeros();
                    bits &= bits - 1;
                    let pos = base + j;
                    if (pos as usize) < self.n_bits {
                        out.push(pos);
                    }
                }
                group += 1;
            }
        }
        out
    }
}

#[inline]
fn fill_pattern(bit: bool) -> u32 {
    if bit {
        LITERAL_MASK
    } else {
        0
    }
}

/// Extracts the 31-bit group starting at bit `start` from `u64` words
/// (zero-padded past the end).
#[inline]
fn group_at(words: &[u64], start: usize) -> u32 {
    let wi = start / 64;
    let off = start % 64;
    let lo = words.get(wi).copied().unwrap_or(0) >> off;
    let combined = if off > 64 - GROUP_BITS {
        lo | (words.get(wi + 1).copied().unwrap_or(0) << (64 - off))
    } else {
        lo
    };
    (combined as u32) & LITERAL_MASK
}

/// Append-side compressor: merges all-zero / all-one groups into fills.
struct Builder {
    words: Vec<u32>,
}

impl Builder {
    fn new() -> Builder {
        Builder { words: Vec::new() }
    }

    #[inline]
    fn push_group(&mut self, g: u32) {
        if g == 0 {
            self.push_fill(false, 1);
        } else if g == LITERAL_MASK {
            self.push_fill(true, 1);
        } else {
            self.words.push(g);
        }
    }

    /// Pushes either a homogeneous run (`n` groups of `fill_pattern`) or, if
    /// `is_literal`, one literal group `lit` repeated `n` times.
    #[inline]
    fn push_run(&mut self, ones: bool, is_literal: bool, lit: u32, n: u32) {
        if is_literal {
            for _ in 0..n {
                self.words.push(lit);
            }
        } else {
            self.push_fill(ones, n);
        }
    }

    #[inline]
    fn push_fill(&mut self, bit: bool, mut n: u32) {
        if n == 0 {
            return;
        }
        let value_flag = if bit { FILL_VALUE_FLAG } else { 0 };
        if let Some(last) = self.words.last_mut() {
            if *last & FILL_FLAG != 0 && *last & FILL_VALUE_FLAG == value_flag {
                let have = *last & FILL_COUNT_MASK;
                let room = FILL_COUNT_MASK - have;
                let add = n.min(room);
                *last += add;
                n -= add;
            }
        }
        while n > 0 {
            let chunk = n.min(FILL_COUNT_MASK);
            self.words.push(FILL_FLAG | value_flag | chunk);
            n -= chunk;
        }
    }
}

/// Read cursor over encoded words, exposing one 31-bit group at a time and
/// fast-forwarding through fills.
struct Cursor<'a> {
    words: &'a [u32],
    idx: usize,
    /// Groups left in the current fill (0 when positioned on a literal).
    fill_left: u32,
    fill_bit: bool,
    literal: u32,
    on_literal: bool,
    /// One-past-the-end word index of the literal run containing the
    /// current position, found lazily by [`Cursor::literal_run`] and cached
    /// so a run truncated by the other operand is never rescanned (that
    /// rescan is quadratic when a long literal run meets an alternating
    /// fill/literal operand). Zero means "not computed for this run".
    lit_run_end: usize,
}

impl<'a> Cursor<'a> {
    fn new(words: &'a [u32]) -> Cursor<'a> {
        let mut c = Cursor {
            words,
            idx: 0,
            fill_left: 0,
            fill_bit: false,
            literal: 0,
            on_literal: false,
            lit_run_end: 0,
        };
        c.load();
        c
    }

    fn load(&mut self) {
        self.on_literal = false;
        self.fill_left = 0;
        while self.idx < self.words.len() {
            let w = self.words[self.idx];
            self.idx += 1;
            if w & FILL_FLAG != 0 {
                let n = w & FILL_COUNT_MASK;
                if n == 0 {
                    continue; // tolerate (never produced) empty fills
                }
                self.fill_bit = w & FILL_VALUE_FLAG != 0;
                self.fill_left = n;
                return;
            }
            self.literal = w;
            self.on_literal = true;
            return;
        }
    }

    #[inline]
    fn in_fill(&self) -> bool {
        self.fill_left > 0
    }

    #[inline]
    fn fill_left(&self) -> u32 {
        self.fill_left
    }

    #[inline]
    fn fill_bit(&self) -> bool {
        self.fill_bit
    }

    #[inline]
    fn on_literal(&self) -> bool {
        self.on_literal
    }

    /// The run of consecutive literal words starting at the current
    /// position (empty unless positioned on a literal). The slice borrows
    /// the underlying encoding, not the cursor, so callers may keep it
    /// across a subsequent [`Cursor::advance_literals`].
    fn literal_run(&mut self) -> &'a [u32] {
        if !self.on_literal {
            return &[];
        }
        let start = self.idx - 1;
        if self.lit_run_end <= start {
            self.lit_run_end = self.words[start..]
                .iter()
                .position(|&w| w & FILL_FLAG != 0)
                .map_or(self.words.len(), |p| start + p);
        }
        &self.words[start..self.lit_run_end]
    }

    /// Consumes `n ≥ 1` literal words previously observed via
    /// [`Cursor::literal_run`].
    #[inline]
    fn advance_literals(&mut self, n: usize) {
        debug_assert!(self.on_literal && n >= 1);
        self.idx = self.idx - 1 + n;
        self.load();
    }

    /// Consumes `n` groups from the current fill.
    #[inline]
    fn consume(&mut self, n: u32) {
        debug_assert!(self.in_fill() && n <= self.fill_left);
        self.fill_left -= n;
        if self.fill_left == 0 {
            self.load();
        }
    }

    /// Takes one group as a literal pattern, whatever run kind we're in.
    #[inline]
    fn take_group(&mut self) -> u32 {
        if self.in_fill() {
            let g = fill_pattern(self.fill_bit);
            self.consume(1);
            g
        } else if self.on_literal {
            let g = self.literal;
            self.load();
            g
        } else {
            // Past the end: callers bound iteration by group count, but a
            // zero-length operand hits this in the degenerate n_bits = 0 case.
            0
        }
    }
}

impl BitStore for Wah {
    fn from_bitvec(bits: &BitVec64) -> Self {
        Wah::encode(bits)
    }

    fn to_bitvec(&self) -> BitVec64 {
        self.decode()
    }

    fn len(&self) -> usize {
        self.n_bits
    }

    fn and(&self, other: &Self) -> Self {
        self.and(other)
    }

    fn or(&self, other: &Self) -> Self {
        self.or(other)
    }

    fn xor(&self, other: &Self) -> Self {
        self.xor(other)
    }

    fn not(&self) -> Self {
        self.not()
    }

    fn or_into(&self, acc: &mut [u64]) {
        self.combine_into(acc, false, |w, bits, _| w | bits);
    }

    fn and_into(&self, acc: &mut [u64]) {
        self.combine_into(acc, true, |w, bits, window| w & (bits | !window));
    }

    fn xor_into(&self, acc: &mut [u64]) {
        self.combine_into(acc, false, |w, bits, _| w ^ bits);
    }

    fn count_ones(&self) -> usize {
        self.count_ones()
    }

    fn ones_positions(&self) -> Vec<u32> {
        self.ones_positions()
    }

    fn size_bytes(&self) -> usize {
        self.words.len() * 4
    }

    fn backend_name() -> &'static str {
        "wah"
    }

    fn write_to(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        crate::io::write_u64(w, self.n_bits as u64)?;
        crate::io::write_u64(w, self.words.len() as u64)?;
        for &word in &self.words {
            crate::io::write_u32(w, word)?;
        }
        Ok(())
    }

    fn read_from(r: &mut dyn std::io::Read) -> std::io::Result<Self> {
        let n_bits = crate::io::read_u64(r)? as usize;
        let n_words = crate::io::read_u64(r)? as usize;
        let mut words = Vec::with_capacity(n_words.min(1 << 24));
        for _ in 0..n_words {
            words.push(crate::io::read_u32(r)?);
        }
        // Validate: the encoded groups must cover exactly the declared
        // length (otherwise decode/ops would misbehave silently).
        let mut groups = 0u64;
        for &w in &words {
            if w & FILL_FLAG != 0 {
                let count = (w & FILL_COUNT_MASK) as u64;
                if count == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "zero-length fill word",
                    ));
                }
                groups += count;
            } else {
                groups += 1;
            }
        }
        if groups != n_bits.div_ceil(GROUP_BITS) as u64 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "WAH payload covers {groups} groups, header implies {}",
                    n_bits.div_ceil(GROUP_BITS)
                ),
            ));
        }
        Ok(Wah { words, n_bits })
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

    fn sparse(len: usize, ones: &[u32]) -> BitVec64 {
        BitVec64::from_ones(len, ones.iter().copied())
    }

    #[test]
    fn roundtrip_small() {
        for s in ["", "1", "0", "10110", "0000000", "1111111"] {
            let v = bv(s);
            assert_eq!(Wah::encode(&v).decode(), v, "{s:?}");
        }
    }

    #[test]
    fn roundtrip_multiword() {
        let v = sparse(1000, &[0, 30, 31, 62, 63, 93, 500, 999]);
        let w = Wah::encode(&v);
        assert_eq!(w.decode(), v);
        assert_eq!(w.len(), 1000);
        assert_eq!(w.count_ones(), 8);
        assert_eq!(w.ones_positions(), vec![0, 30, 31, 62, 63, 93, 500, 999]);
    }

    #[test]
    fn sparse_vector_compresses_to_few_words() {
        // 10^6 bits with 3 set bits → a handful of words, not 32k.
        let v = sparse(1_000_000, &[10, 500_000, 999_999]);
        let w = Wah::encode(&v);
        assert!(w.words().len() <= 8, "got {} words", w.words().len());
        assert!(w.stats().compression_ratio < 0.001);
        assert_eq!(w.decode(), v);
    }

    #[test]
    fn dense_random_vector_is_nearly_incompressible() {
        // Alternating bits defeat RLE: ratio ≈ 32/31 ≈ 1.03 — exactly the
        // paper's observed worst case.
        let mut v = BitVec64::zeros(100_000);
        for i in (0..100_000).step_by(2) {
            v.set(i, true);
        }
        let r = Wah::encode(&v).stats().compression_ratio;
        assert!((r - 32.0 / 31.0).abs() < 0.01, "ratio {r}");
    }

    #[test]
    fn all_ones_and_all_zeros_become_single_fills() {
        let w = Wah::encode(&BitVec64::ones(31 * 1000));
        assert_eq!(w.words().len(), 1);
        assert_eq!(w.count_ones(), 31_000);
        let w = Wah::encode(&BitVec64::zeros(31 * 1000));
        assert_eq!(w.words().len(), 1);
        assert_eq!(w.count_ones(), 0);
    }

    #[test]
    fn binary_ops_match_plain() {
        let a = sparse(300, &[1, 31, 64, 100, 200, 299]);
        let b = sparse(300, &[0, 31, 99, 100, 250, 299]);
        let (wa, wb) = (Wah::encode(&a), Wah::encode(&b));
        assert_eq!(wa.and(&wb).decode(), a.and(&b));
        assert_eq!(wa.or(&wb).decode(), a.or(&b));
        assert_eq!(wa.xor(&wb).decode(), a.xor(&b));
    }

    #[test]
    fn fill_on_fill_fast_path() {
        // Large aligned fills against each other must not explode into
        // literals.
        let a = Wah::encode(&BitVec64::ones(31 * 10_000));
        let b = Wah::encode(&BitVec64::zeros(31 * 10_000));
        let c = a.or(&b);
        assert_eq!(c.words().len(), 1);
        assert_eq!(c.count_ones(), 31 * 10_000);
        let d = a.and(&b);
        assert_eq!(d.words().len(), 1);
        assert_eq!(d.count_ones(), 0);
    }

    #[test]
    fn not_respects_length() {
        let v = sparse(100, &[0, 50]);
        let w = Wah::encode(&v).not();
        assert_eq!(w.count_ones(), 98);
        assert_eq!(w.decode(), v.not());
        // Double complement is identity on the decoded form.
        assert_eq!(w.not().decode(), v);
    }

    #[test]
    fn not_of_all_ones_is_empty() {
        let w = Wah::encode(&BitVec64::ones(97)).not();
        assert_eq!(w.count_ones(), 0);
        assert_eq!(w.ones_positions(), Vec::<u32>::new());
    }

    #[test]
    fn ops_on_compressed_form_stay_compressed() {
        // OR of two sparse bitmaps is sparse; the result must be small
        // without any re-encode step.
        let a = Wah::encode(&sparse(1_000_000, &[5]));
        let b = Wah::encode(&sparse(1_000_000, &[999_000]));
        let c = a.or(&b);
        assert!(c.words().len() <= 8, "{} words", c.words().len());
        assert_eq!(c.count_ones(), 2);
    }

    #[test]
    fn stats_count_fills_and_literals() {
        // 31 zeros, then a mixed group, then 62 ones.
        let mut v = BitVec64::zeros(31 + 31 + 62);
        v.set(35, true);
        for i in 62..124 {
            v.set(i, true);
        }
        let s = Wah::encode(&v).stats();
        assert_eq!(s.n_words, 3);
        assert_eq!(s.n_fills, 2);
        assert_eq!(s.n_literals, 1);
        assert_eq!(s.fill_groups, 3); // 1 zero-fill group + 2 one-fill groups
    }

    #[test]
    fn zero_length_vectors() {
        let w = Wah::encode(&BitVec64::zeros(0));
        assert!(w.is_empty());
        assert_eq!(w.count_ones(), 0);
        assert_eq!(w.and(&w).decode(), BitVec64::zeros(0));
        assert_eq!(w.not().count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn length_mismatch_panics() {
        let a = Wah::encode(&BitVec64::zeros(10));
        let b = Wah::encode(&BitVec64::zeros(11));
        let _ = a.and(&b);
    }

    #[test]
    fn bitstore_impl_roundtrips() {
        let v = sparse(500, &[1, 100, 499]);
        let w = <Wah as BitStore>::from_bitvec(&v);
        assert_eq!(w.to_bitvec(), v);
        assert_eq!(Wah::from_bitvec(&BitVec64::zeros(40)).count_ones(), 0);
        assert_eq!(Wah::from_bitvec(&BitVec64::ones(40)).count_ones(), 40);
        assert_eq!(<Wah as BitStore>::backend_name(), "wah");
        assert!(BitStore::size_bytes(&w) > 0);
    }
}

#[cfg(test)]
pub(crate) mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_bitvec(max_len: usize) -> impl Strategy<Value = BitVec64> {
        (1..max_len).prop_flat_map(|len| {
            proptest::collection::vec(any::<bool>(), len).prop_map(|bits| {
                let mut v = BitVec64::zeros(bits.len());
                for (i, b) in bits.into_iter().enumerate() {
                    v.set(i, b);
                }
                v
            })
        })
    }

    /// Runny bitmaps (biased bits in blocks) exercise the fill paths.
    pub(crate) fn arb_runny(max_len: usize) -> impl Strategy<Value = BitVec64> {
        proptest::collection::vec((any::<bool>(), 1usize..200), 1..20)
            .prop_map(|runs| {
                let total: usize = runs.iter().map(|(_, n)| n).sum();
                let mut v = BitVec64::zeros(total.clamp(1, 4000));
                let mut pos = 0usize;
                for (bit, n) in runs {
                    for _ in 0..n {
                        if pos >= v.len() {
                            break;
                        }
                        v.set(pos, bit);
                        pos += 1;
                    }
                }
                v
            })
            .prop_filter("respect max_len", move |v| v.len() <= max_len)
    }

    proptest! {
        #[test]
        fn encode_decode_roundtrip(v in arb_bitvec(600)) {
            prop_assert_eq!(Wah::encode(&v).decode(), v);
        }

        #[test]
        fn runny_roundtrip(v in arb_runny(4000)) {
            let w = Wah::encode(&v);
            prop_assert_eq!(w.decode(), v.clone());
            prop_assert_eq!(w.count_ones(), v.count_ones());
        }

        #[test]
        fn ops_agree_with_plain(a in arb_runny(4000), b in arb_runny(4000)) {
            // Trim to a common length so the operands are compatible.
            let len = a.len().min(b.len());
            let ta = BitVec64::from_ones(len, a.iter_ones().filter(|&p| (p as usize) < len));
            let tb = BitVec64::from_ones(len, b.iter_ones().filter(|&p| (p as usize) < len));
            let (wa, wb) = (Wah::encode(&ta), Wah::encode(&tb));
            prop_assert_eq!(wa.and(&wb).decode(), ta.and(&tb));
            prop_assert_eq!(wa.or(&wb).decode(), ta.or(&tb));
            prop_assert_eq!(wa.xor(&wb).decode(), ta.xor(&tb));
            prop_assert_eq!(wa.not().decode(), ta.not());
        }

        #[test]
        fn count_matches_positions(v in arb_runny(4000)) {
            let w = Wah::encode(&v);
            prop_assert_eq!(w.count_ones(), w.ones_positions().len());
        }
    }
}
