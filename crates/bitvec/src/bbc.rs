//! Byte-aligned bitmap compression.
//!
//! The paper (§4.4) cites Antoshenkov's Byte-aligned Bitmap Code (BBC) as
//! the main alternative to WAH — better compression (byte granularity beats
//! 31-bit granularity on short runs) but slower logical operations — and
//! lists BBC for the range-encoded bitmaps as future work. [`Bbc`] is a
//! byte-aligned code in that family:
//!
//! * **fill byte** (`1 v nnnnnn`): `n ∈ 1..=62` bytes of `0x00` (`v = 0`) or
//!   `0xFF` (`v = 1`); `n = 63` marks an *extended* fill whose byte count
//!   follows as a LEB128 varint (this is what lets a million-bit empty
//!   bitmap cost 3 bytes instead of ~2000);
//! * **literal header** (`0 nnnnnnn`): `n ∈ 1..=127` verbatim payload bytes
//!   follow.
//!
//! Logical operations run on the compressed byte stream (fill × fill runs
//! are merged without expansion), mirroring the WAH implementation one
//! level finer. The `ablation_compression` experiment compares the two on
//! size and operation speed.

use crate::{BitStore, BitVec64};

const FILL_FLAG: u8 = 0x80;
const FILL_VALUE_FLAG: u8 = 0x40;
const FILL_COUNT_MASK: u8 = 0x3F;
/// Fill count value marking an extended (LEB128-counted) fill.
const FILL_EXTENDED: u8 = 0x3F;
/// Largest inline fill count (one control byte, no varint).
const MAX_INLINE_FILL: usize = 62;
const MAX_LITERAL_RUN: usize = 127;

fn write_leb128(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bounds-checked LEB128 read for untrusted input (deserialization).
fn try_read_leb128(bytes: &[u8], idx: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*idx)?;
        *idx += 1;
        if shift >= 64 {
            return None;
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Reads a LEB128 varint starting at `bytes[*idx]`, advancing `idx`.
fn read_leb128(bytes: &[u8], idx: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = bytes[*idx];
        *idx += 1;
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Decodes the fill run starting at control byte `bytes[*idx - 1]` (already
/// consumed); returns its byte count, advancing past any varint.
#[inline]
fn fill_count(control: u8, bytes: &[u8], idx: &mut usize) -> usize {
    let n = control & FILL_COUNT_MASK;
    if n == FILL_EXTENDED {
        read_leb128(bytes, idx) as usize
    } else {
        n as usize
    }
}

/// A byte-aligned compressed bit vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bbc {
    bytes: Vec<u8>,
    n_bits: usize,
}

impl Bbc {
    /// Encodes an uncompressed bit vector.
    pub fn encode(bits: &BitVec64) -> Bbc {
        let n_bits = bits.len();
        let n_bytes = n_bits.div_ceil(8);
        let mut b = Builder::new();
        for i in 0..n_bytes {
            b.push_byte(byte_at(bits.words(), i));
        }
        Bbc {
            bytes: b.finish(),
            n_bits,
        }
    }

    /// Number of bits in the logical bitmap.
    pub fn len(&self) -> usize {
        self.n_bits
    }

    /// `true` if the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.n_bits == 0
    }

    /// The encoded byte stream.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// `size_bytes / ceil(n_bits / 8)` — same convention as
    /// [`crate::WahStats::compression_ratio`].
    pub fn compression_ratio(&self) -> f64 {
        self.bytes.len() as f64 / self.n_bits.div_ceil(8).max(1) as f64
    }

    /// Decodes to an uncompressed bit vector.
    pub fn decode(&self) -> BitVec64 {
        let mut out = BitVec64::zeros(self.n_bits);
        let mut byte_pos = 0usize;
        self.for_each_byte(|b| {
            if b != 0 {
                let base = byte_pos * 8;
                for j in 0..8 {
                    if b & (1 << j) != 0 && base + j < self.n_bits {
                        out.set(base + j, true);
                    }
                }
            }
            byte_pos += 1;
        });
        out
    }

    fn for_each_byte(&self, mut f: impl FnMut(u8)) {
        let mut i = 0usize;
        while i < self.bytes.len() {
            let c = self.bytes[i];
            i += 1;
            if c & FILL_FLAG != 0 {
                let count = fill_count(c, &self.bytes, &mut i);
                let v = if c & FILL_VALUE_FLAG != 0 { 0xFF } else { 0x00 };
                for _ in 0..count {
                    f(v);
                }
            } else {
                let n = c as usize;
                for j in 0..n {
                    f(self.bytes[i + j]);
                }
                i += n;
            }
        }
    }

    /// Bitwise AND over the compressed form.
    pub fn and(&self, other: &Bbc) -> Bbc {
        self.binary(other, |a, b| a & b)
    }

    /// Bitwise OR over the compressed form.
    pub fn or(&self, other: &Bbc) -> Bbc {
        self.binary(other, |a, b| a | b)
    }

    /// Bitwise XOR over the compressed form.
    pub fn xor(&self, other: &Bbc) -> Bbc {
        self.binary(other, |a, b| a ^ b)
    }

    /// Bitwise NOT within `len`; tail padding is masked on read.
    pub fn not(&self) -> Bbc {
        let mut out = Vec::with_capacity(self.bytes.len());
        let mut i = 0usize;
        while i < self.bytes.len() {
            let c = self.bytes[i];
            i += 1;
            if c & FILL_FLAG != 0 {
                out.push(c ^ FILL_VALUE_FLAG);
                if c & FILL_COUNT_MASK == FILL_EXTENDED {
                    // Copy the varint count unchanged.
                    let start = i;
                    let _ = read_leb128(&self.bytes, &mut i);
                    out.extend_from_slice(&self.bytes[start..i]);
                }
            } else {
                out.push(c);
                let n = c as usize;
                for j in 0..n {
                    out.push(!self.bytes[i + j]);
                }
                i += n;
            }
        }
        Bbc {
            bytes: out,
            n_bits: self.n_bits,
        }
    }

    fn binary(&self, other: &Bbc, op: impl Fn(u8, u8) -> u8) -> Bbc {
        assert_eq!(
            self.n_bits, other.n_bits,
            "bit vectors must have equal length"
        );
        let mut ca = Cursor::new(&self.bytes);
        let mut cb = Cursor::new(&other.bytes);
        let mut out = Builder::new();
        let mut remaining = self.n_bits.div_ceil(8);
        while remaining > 0 {
            if ca.fill_left > 0 && cb.fill_left > 0 {
                let n = ca.fill_left.min(cb.fill_left).min(remaining);
                let v = op(ca.fill_value, cb.fill_value);
                out.push_repeated(v, n);
                ca.consume_fill(n);
                cb.consume_fill(n);
                remaining -= n;
            } else {
                let a = ca.take_byte();
                let b = cb.take_byte();
                out.push_byte(op(a, b));
                remaining -= 1;
            }
        }
        Bbc {
            bytes: out.finish(),
            n_bits: self.n_bits,
        }
    }

    /// Number of set bits (padding past `len` excluded).
    pub fn count_ones(&self) -> usize {
        let n_bytes = self.n_bits.div_ceil(8);
        let mut count = 0usize;
        let mut byte_pos = 0usize;
        self.for_each_byte(|b| {
            let masked = if byte_pos + 1 == n_bytes && !self.n_bits.is_multiple_of(8) {
                b & ((1u16 << (self.n_bits % 8)) - 1) as u8
            } else {
                b
            };
            count += masked.count_ones() as usize;
            byte_pos += 1;
        });
        count
    }

    /// Positions of set bits, ascending.
    pub fn ones_positions(&self) -> Vec<u32> {
        let mut out = Vec::new();
        let mut byte_pos = 0usize;
        self.for_each_byte(|b| {
            if b != 0 {
                let base = (byte_pos * 8) as u32;
                for j in 0..8u32 {
                    if b & (1 << j) != 0 && ((base + j) as usize) < self.n_bits {
                        out.push(base + j);
                    }
                }
            }
            byte_pos += 1;
        });
        out
    }
}

#[inline]
fn byte_at(words: &[u64], byte_index: usize) -> u8 {
    let wi = byte_index / 8;
    let off = (byte_index % 8) * 8;
    words.get(wi).map_or(0, |w| (w >> off) as u8)
}

/// Append-side byte compressor. Fill runs accumulate in `pending` (value,
/// count) and are emitted lazily, so arbitrarily long runs collapse into one
/// (possibly extended) fill regardless of how they were pushed.
struct Builder {
    out: Vec<u8>,
    lit: Vec<u8>,
    pending: Option<(u8, usize)>,
}

impl Builder {
    fn new() -> Builder {
        Builder {
            out: Vec::new(),
            lit: Vec::new(),
            pending: None,
        }
    }

    #[inline]
    fn push_byte(&mut self, b: u8) {
        if b == 0x00 || b == 0xFF {
            self.push_repeated(b, 1);
        } else {
            self.flush_fill();
            self.lit.push(b);
            if self.lit.len() == MAX_LITERAL_RUN {
                self.flush_literals();
            }
        }
    }

    #[inline]
    fn push_repeated(&mut self, b: u8, n: usize) {
        if n == 0 {
            return;
        }
        if b != 0x00 && b != 0xFF {
            for _ in 0..n {
                self.push_byte(b);
            }
            return;
        }
        match &mut self.pending {
            Some((v, count)) if *v == b => *count += n,
            _ => {
                self.flush_fill();
                self.flush_literals();
                self.pending = Some((b, n));
            }
        }
    }

    fn flush_fill(&mut self) {
        if let Some((v, count)) = self.pending.take() {
            let value_flag = if v == 0xFF { FILL_VALUE_FLAG } else { 0 };
            if count <= MAX_INLINE_FILL {
                self.out.push(FILL_FLAG | value_flag | count as u8);
            } else {
                self.out.push(FILL_FLAG | value_flag | FILL_EXTENDED);
                write_leb128(&mut self.out, count as u64);
            }
        }
    }

    fn flush_literals(&mut self) {
        if !self.lit.is_empty() {
            debug_assert!(self.lit.len() <= MAX_LITERAL_RUN);
            self.out.push(self.lit.len() as u8);
            self.out.extend_from_slice(&self.lit);
            self.lit.clear();
        }
    }

    fn finish(mut self) -> Vec<u8> {
        self.flush_fill();
        self.flush_literals();
        self.out
    }
}

/// Read cursor exposing one payload byte at a time with a fill fast path.
struct Cursor<'a> {
    bytes: &'a [u8],
    idx: usize,
    fill_left: usize,
    fill_value: u8,
    lit_left: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        let mut c = Cursor {
            bytes,
            idx: 0,
            fill_left: 0,
            fill_value: 0,
            lit_left: 0,
        };
        c.load();
        c
    }

    fn load(&mut self) {
        self.fill_left = 0;
        self.lit_left = 0;
        if self.idx >= self.bytes.len() {
            return;
        }
        let c = self.bytes[self.idx];
        self.idx += 1;
        if c & FILL_FLAG != 0 {
            self.fill_value = if c & FILL_VALUE_FLAG != 0 { 0xFF } else { 0x00 };
            self.fill_left = fill_count(c, self.bytes, &mut self.idx);
            if self.fill_left == 0 {
                self.load();
            }
        } else {
            self.lit_left = c as usize;
            if self.lit_left == 0 {
                self.load();
            }
        }
    }

    #[inline]
    fn consume_fill(&mut self, n: usize) {
        debug_assert!(n <= self.fill_left);
        self.fill_left -= n;
        if self.fill_left == 0 {
            self.load();
        }
    }

    #[inline]
    fn take_byte(&mut self) -> u8 {
        if self.fill_left > 0 {
            let v = self.fill_value;
            self.consume_fill(1);
            v
        } else if self.lit_left > 0 {
            let v = self.bytes[self.idx];
            self.idx += 1;
            self.lit_left -= 1;
            if self.lit_left == 0 {
                self.load();
            }
            v
        } else {
            0 // past the end (degenerate zero-length operands)
        }
    }
}

impl BitStore for Bbc {
    fn from_bitvec(bits: &BitVec64) -> Self {
        Bbc::encode(bits)
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

    fn count_ones(&self) -> usize {
        self.count_ones()
    }

    fn ones_positions(&self) -> Vec<u32> {
        self.ones_positions()
    }

    fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    fn backend_name() -> &'static str {
        "bbc"
    }

    fn write_to(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        crate::io::write_u64(w, self.n_bits as u64)?;
        crate::io::write_u64(w, self.bytes.len() as u64)?;
        w.write_all(&self.bytes)
    }

    fn read_from(r: &mut dyn std::io::Read) -> std::io::Result<Self> {
        let n_bits = crate::io::read_u64(r)? as usize;
        let n_bytes = crate::io::read_u64(r)? as usize;
        // Chunked read: a corrupted length header must hit EOF, not OOM.
        let mut bytes = Vec::with_capacity(n_bytes.min(1 << 20));
        let mut remaining = n_bytes;
        let mut chunk = [0u8; 64 * 1024];
        while remaining > 0 {
            let take = remaining.min(chunk.len());
            r.read_exact(&mut chunk[..take])?;
            bytes.extend_from_slice(&chunk[..take]);
            remaining -= take;
        }
        // Validate structure: walk the control stream and check coverage.
        let mut covered = 0u64;
        let mut i = 0usize;
        while i < bytes.len() {
            let c = bytes[i];
            i += 1;
            if c & FILL_FLAG != 0 {
                let n = c & FILL_COUNT_MASK;
                let run = if n == FILL_EXTENDED {
                    try_read_leb128(&bytes, &mut i).ok_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "truncated extended fill",
                        )
                    })?
                } else {
                    n as u64
                };
                covered = covered.checked_add(run).ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "fill counts overflow the bitmap length",
                    )
                })?;
            } else {
                let n = c as usize;
                if i + n > bytes.len() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "literal run overruns payload",
                    ));
                }
                covered += n as u64;
                i += n;
            }
        }
        if covered != n_bits.div_ceil(8) as u64 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "BBC payload covers {covered} bytes, header implies {}",
                    n_bits.div_ceil(8)
                ),
            ));
        }
        Ok(Bbc { bytes, n_bits })
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
        for s in [
            "",
            "1",
            "0",
            "10110101",
            "000000000000",
            "1111111111111111",
            "101",
        ] {
            let v = bv(s);
            assert_eq!(Bbc::encode(&v).decode(), v, "{s:?}");
        }
    }

    #[test]
    fn sparse_compresses_better_than_wah_granularity() {
        // A run of 40 zero bits then one set bit: BBC wastes ≤ a few bytes.
        let v = sparse(1_000_000, &[500_000]);
        let b = Bbc::encode(&v);
        assert!(b.bytes().len() <= 10, "{} bytes", b.bytes().len());
        assert_eq!(b.count_ones(), 1);
        assert_eq!(b.ones_positions(), vec![500_000]);
    }

    #[test]
    fn binary_ops_match_plain() {
        let a = sparse(300, &[1, 31, 64, 100, 200, 299]);
        let b = sparse(300, &[0, 31, 99, 100, 250, 299]);
        let (xa, xb) = (Bbc::encode(&a), Bbc::encode(&b));
        assert_eq!(xa.and(&xb).decode(), a.and(&b));
        assert_eq!(xa.or(&xb).decode(), a.or(&b));
        assert_eq!(xa.xor(&xb).decode(), a.xor(&b));
    }

    #[test]
    fn not_respects_length() {
        let v = sparse(100, &[0, 50]);
        let b = Bbc::encode(&v).not();
        assert_eq!(b.count_ones(), 98);
        assert_eq!(b.decode(), v.not());
    }

    #[test]
    fn long_fills_use_extended_counts() {
        // 1000 zero bytes → one extended fill: control byte + 2-byte LEB128.
        let v = BitVec64::zeros(8 * 1000);
        let b = Bbc::encode(&v);
        assert_eq!(b.bytes().len(), 3, "{:02x?}", b.bytes());
        assert_eq!(b.decode(), v);
        // Short fills stay single-byte.
        let v = BitVec64::zeros(8 * 10);
        assert_eq!(Bbc::encode(&v).bytes().len(), 1);
    }

    #[test]
    fn literal_runs_longer_than_127_split() {
        // 200 "incompressible" bytes (alternating 0xAA) must split into two
        // literal runs and still roundtrip.
        let mut v = BitVec64::zeros(8 * 200);
        for i in (0..8 * 200).step_by(2) {
            v.set(i + 1, true); // 0xAA pattern
        }
        let b = Bbc::encode(&v);
        assert_eq!(b.decode(), v);
        assert!(b.compression_ratio() > 1.0); // headers add overhead
    }

    #[test]
    fn mixed_fill_literal_ops() {
        let mut a = BitVec64::zeros(2048);
        let mut b = BitVec64::zeros(2048);
        for i in 0..2048 {
            if i % 97 == 0 {
                a.set(i, true);
            }
            if i / 512 == 1 || i % 89 == 3 {
                b.set(i, true);
            }
        }
        let (xa, xb) = (Bbc::encode(&a), Bbc::encode(&b));
        assert_eq!(xa.or(&xb).decode(), a.or(&b));
        assert_eq!(xa.and(&xb).decode(), a.and(&b));
        assert_eq!(xa.xor(&xb).decode(), a.xor(&b));
    }

    #[test]
    fn zero_length() {
        let b = Bbc::encode(&BitVec64::zeros(0));
        assert!(b.is_empty());
        assert_eq!(b.and(&b).count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn length_mismatch_panics() {
        let a = Bbc::encode(&BitVec64::zeros(8));
        let b = Bbc::encode(&BitVec64::zeros(16));
        let _ = a.or(&b);
    }

    #[test]
    fn bitstore_impl() {
        assert_eq!(<Bbc as BitStore>::backend_name(), "bbc");
        assert_eq!(Bbc::from_bitvec(&BitVec64::ones(13)).count_ones(), 13);
        assert_eq!(Bbc::from_bitvec(&BitVec64::zeros(13)).count_ones(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_runny() -> impl Strategy<Value = BitVec64> {
        proptest::collection::vec((any::<bool>(), 1usize..120), 1..25).prop_map(|runs| {
            let total: usize = runs.iter().map(|(_, n)| n).sum();
            let mut v = BitVec64::zeros(total);
            let mut pos = 0usize;
            for (bit, n) in runs {
                for _ in 0..n {
                    v.set(pos, bit);
                    pos += 1;
                }
            }
            v
        })
    }

    proptest! {
        #[test]
        fn roundtrip(v in arb_runny()) {
            let b = Bbc::encode(&v);
            prop_assert_eq!(b.decode(), v.clone());
            prop_assert_eq!(b.count_ones(), v.count_ones());
        }

        #[test]
        fn ops_agree_with_plain(a in arb_runny(), b in arb_runny()) {
            let len = a.len().min(b.len());
            let ta = BitVec64::from_ones(len, a.iter_ones().filter(|&p| (p as usize) < len));
            let tb = BitVec64::from_ones(len, b.iter_ones().filter(|&p| (p as usize) < len));
            let (xa, xb) = (Bbc::encode(&ta), Bbc::encode(&tb));
            prop_assert_eq!(xa.and(&xb).decode(), ta.and(&tb));
            prop_assert_eq!(xa.or(&xb).decode(), ta.or(&tb));
            prop_assert_eq!(xa.xor(&xb).decode(), ta.xor(&tb));
            prop_assert_eq!(xa.not().decode(), ta.not());
        }

        #[test]
        fn wah_and_bbc_agree(a in arb_runny()) {
            let w = crate::Wah::encode(&a);
            let b = Bbc::encode(&a);
            prop_assert_eq!(w.ones_positions(), b.ones_positions());
        }
    }
}
