//! The backend abstraction the bitmap indexes are generic over.

use crate::{kernel, BitVec64};

/// What one full read of a bit vector touches — the unit every bitmap
/// index's `words_processed` and `containers_*` work counters are summed
/// from (see [`BitStore::tally_read`]).
///
/// `words` is the number of `u64`-word-equivalents of payload read; the
/// per-kind fields count [`crate::Adaptive`] containers by their shape and
/// stay zero for every other backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpTally {
    /// `u64`-word-equivalents of payload read.
    pub words: u64,
    /// Array-shaped containers read.
    pub array: u64,
    /// Bitmap-shaped containers read.
    pub bitmap: u64,
    /// Run-shaped containers read.
    pub run: u64,
}

impl OpTally {
    /// Total containers read, over all three kinds.
    pub fn containers(&self) -> u64 {
        self.array + self.bitmap + self.run
    }
}

/// A fixed-length bit vector supporting the logical operations the paper's
/// query-evaluation formulas need (OR, AND, XOR, NOT — §4.1).
///
/// Implementations: [`BitVec64`] (uncompressed), [`crate::Wah`],
/// [`crate::Bbc`] and [`crate::Adaptive`] (compressed, with operations on
/// the compressed form). Operands of a binary operation must have equal bit
/// length.
///
/// There are two ways to combine vectors. [`and`](BitStore::and),
/// [`or`](BitStore::or), [`xor`](BitStore::xor) and [`not`](BitStore::not)
/// stay in the store's own encoding and allocate their result.
/// [`or_into`](BitStore::or_into), [`and_into`](BitStore::and_into) and
/// [`xor_into`](BitStore::xor_into) combine a stored vector into the words
/// of a plain accumulator in place — what the bitmap query driver does, so
/// that a query of `k` predicates allocates `k` accumulators however many
/// stored bitmaps it reads.
///
/// `Send + Sync` are supertraits so indexes generic over a store are
/// shareable access methods (`Arc<dyn>` registries); every store is plain
/// owned data, so this costs nothing.
pub trait BitStore: Clone + Send + Sync {
    /// Encodes an uncompressed bit vector.
    fn from_bitvec(bits: &BitVec64) -> Self;

    /// Encodes the `len`-bit vector whose set bits are `positions` —
    /// ascending, each `< len` — equal to `from_bitvec` of the same bits.
    /// How the equality encoding stores a column's rows grouped by value.
    ///
    /// The default goes through a plain vector. [`crate::Adaptive`]
    /// overrides it to build each chunk's container straight from its slice
    /// of the positions.
    fn from_positions(len: usize, positions: &[u32]) -> Self {
        Self::from_bitvec(&BitVec64::from_ones(len, positions.iter().copied()))
    }

    /// Decodes back to an uncompressed bit vector.
    fn to_bitvec(&self) -> BitVec64;

    /// Number of bits.
    fn len(&self) -> usize;

    /// `true` if the vector has zero bits.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bitwise AND.
    fn and(&self, other: &Self) -> Self;

    /// Bitwise OR.
    fn or(&self, other: &Self) -> Self;

    /// Bitwise XOR.
    fn xor(&self, other: &Self) -> Self;

    /// Bitwise NOT within the vector's length.
    fn not(&self) -> Self;

    /// `acc |= self`, decoding as it goes: `acc` holds the `⌈len / 64⌉`
    /// words of a plain vector of the same length. Stores override the
    /// default (a full decode) with a walk over their encoded form, so the
    /// cost follows the *compressed* size; no implementation may let a bit
    /// at position `≥ len` reach `acc`.
    ///
    /// # Panics
    /// Panics if `acc` is not `⌈len / 64⌉` words long.
    fn or_into(&self, acc: &mut [u64]) {
        kernel::zip_words_in_place(acc, self.to_bitvec().words(), |a, b| a | b);
    }

    /// `acc &= self`; see [`BitStore::or_into`].
    fn and_into(&self, acc: &mut [u64]) {
        kernel::zip_words_in_place(acc, self.to_bitvec().words(), |a, b| a & b);
    }

    /// `acc ^= self`; see [`BitStore::or_into`].
    fn xor_into(&self, acc: &mut [u64]) {
        kernel::zip_words_in_place(acc, self.to_bitvec().words(), |a, b| a ^ b);
    }

    /// Number of set bits.
    fn count_ones(&self) -> usize;

    /// Positions of set bits, ascending.
    fn ones_positions(&self) -> Vec<u32>;

    /// Heap bytes used by the encoded form — the paper's *index size* metric.
    fn size_bytes(&self) -> usize;

    /// Short backend name used in experiment output (e.g. `"wah"`).
    fn backend_name() -> &'static str;

    /// Serializes the encoded form (used by index persistence).
    fn write_to(&self, w: &mut dyn std::io::Write) -> std::io::Result<()>;

    /// Deserializes a vector written by [`BitStore::write_to`].
    fn read_from(r: &mut dyn std::io::Read) -> std::io::Result<Self>;

    /// Accounts one full read of this vector into `tally`. The bitmap query
    /// driver calls this for every stored bitmap it loads and every
    /// operand of a logical operation — its plain accumulators included —
    /// so the reported work is measured where it happens.
    ///
    /// The default charges the uncompressed `⌈len / 64⌉` words — the bound
    /// the paper's §6 cost rules are stated in, and what the plain, WAH and
    /// BBC backends report. [`crate::Adaptive`] overrides it with the
    /// payload words and shapes of the containers it actually stores.
    fn tally_read(&self, tally: &mut OpTally) {
        tally.words += self.len().div_ceil(64) as u64;
    }

    /// What one read of this vector into a plain accumulator costs, in the
    /// planner's unit: the time the plain kernel spends on one 64-bit word
    /// (0.16–0.26 ns for an in-place OR on a 2-vCPU Xeon VM).
    ///
    /// The default is the uncompressed `⌈len / 64⌉` — the plain, WAH and
    /// BBC backends are priced by the paper's §6 word count.
    /// [`crate::Adaptive`] prices each container by its shape: an array
    /// entry at [`crate::ARRAY_ENTRY_PRICE`], a bitmap word at 1, a run at
    /// [`crate::RUN_PRICE`].
    fn read_price(&self) -> f64 {
        self.len().div_ceil(64) as f64
    }
}

impl BitStore for BitVec64 {
    fn from_bitvec(bits: &BitVec64) -> Self {
        bits.clone()
    }

    fn to_bitvec(&self) -> BitVec64 {
        self.clone()
    }

    fn len(&self) -> usize {
        self.len()
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
        kernel::zip_words_in_place(acc, self.words(), |a, b| a | b);
    }

    fn and_into(&self, acc: &mut [u64]) {
        kernel::zip_words_in_place(acc, self.words(), |a, b| a & b);
    }

    fn xor_into(&self, acc: &mut [u64]) {
        kernel::zip_words_in_place(acc, self.words(), |a, b| a ^ b);
    }

    fn count_ones(&self) -> usize {
        self.count_ones()
    }

    fn ones_positions(&self) -> Vec<u32> {
        self.ones_positions()
    }

    fn size_bytes(&self) -> usize {
        self.size_bytes()
    }

    fn backend_name() -> &'static str {
        "plain"
    }

    fn write_to(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        crate::io::write_u64(w, self.len() as u64)?;
        crate::io::write_u64(w, self.words().len() as u64)?;
        for &word in self.words() {
            crate::io::write_u64(w, word)?;
        }
        Ok(())
    }

    fn read_from(r: &mut dyn std::io::Read) -> std::io::Result<Self> {
        let n_bits = crate::io::read_u64(r)? as usize;
        let n_words = crate::io::read_u64(r)? as usize;
        if n_words != n_bits.div_ceil(64) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "word count disagrees with bit length",
            ));
        }
        // Allocation grows with the payload actually present, so a huge
        // (corrupted) n_bits header fails with EOF instead of an OOM abort.
        let mut words = Vec::with_capacity(n_words.min(1 << 20));
        for _ in 0..n_words {
            words.push(crate::io::read_u64(r)?);
        }
        BitVec64::from_raw_words(words, n_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitvec64_implements_store_faithfully() {
        let v = BitVec64::from_ones(100, [3u32, 50, 99]);
        let w = <BitVec64 as BitStore>::from_bitvec(&v);
        assert_eq!(w.to_bitvec(), v);
        assert_eq!(BitStore::count_ones(&w), 3);
        assert_eq!(w.ones_positions(), vec![3, 50, 99]);
        assert_eq!(BitStore::count_ones(&BitVec64::zeros(10)), 0);
        assert_eq!(BitStore::count_ones(&BitVec64::ones(10)), 10);
        assert_eq!(<BitVec64 as BitStore>::backend_name(), "plain");
    }

    #[test]
    fn default_read_price_is_the_uncompressed_words() {
        assert_eq!(BitVec64::zeros(130).read_price(), 3.0);
        assert_eq!(
            crate::Wah::from_bitvec(&BitVec64::zeros(64)).read_price(),
            1.0
        );
        assert_eq!(
            crate::Bbc::from_bitvec(&BitVec64::ones(65)).read_price(),
            2.0
        );
    }

    #[test]
    fn default_tally_charges_the_uncompressed_words() {
        let mut tally = OpTally::default();
        BitVec64::zeros(130).tally_read(&mut tally);
        crate::Wah::from_bitvec(&BitVec64::zeros(64)).tally_read(&mut tally);
        assert_eq!(tally.words, 3 + 1);
        assert_eq!(tally.containers(), 0);
    }
}

#[cfg(test)]
mod persist_tests {
    use super::*;
    use crate::{Adaptive, Bbc, Wah};

    fn sample() -> BitVec64 {
        let mut v = BitVec64::zeros(1000);
        for i in (0..1000).step_by(7) {
            v.set(i, true);
        }
        for i in 300..500 {
            v.set(i, true);
        }
        v
    }

    fn roundtrip<B: BitStore + PartialEq + std::fmt::Debug>() {
        let b = B::from_bitvec(&sample());
        let mut buf: Vec<u8> = Vec::new();
        b.write_to(&mut buf).unwrap();
        let back = B::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, b);
        // Truncation errors cleanly.
        let mut cut = buf.clone();
        cut.truncate(buf.len() - 1);
        assert!(B::read_from(&mut cut.as_slice()).is_err());
        // Zero-length vector roundtrips too.
        let z = B::from_bitvec(&BitVec64::zeros(0));
        let mut buf: Vec<u8> = Vec::new();
        z.write_to(&mut buf).unwrap();
        assert_eq!(B::read_from(&mut buf.as_slice()).unwrap(), z);
    }

    #[test]
    fn plain_roundtrip() {
        roundtrip::<BitVec64>();
    }

    #[test]
    fn wah_roundtrip() {
        roundtrip::<Wah>();
    }

    #[test]
    fn bbc_roundtrip() {
        roundtrip::<Bbc>();
    }

    #[test]
    fn adaptive_roundtrip() {
        roundtrip::<Adaptive>();
    }

    #[test]
    fn plain_rejects_padding_bits() {
        let v = BitVec64::zeros(70); // 2 words, 6 valid bits in word 1
        let mut buf: Vec<u8> = Vec::new();
        BitStore::write_to(&v, &mut buf).unwrap();
        let last = buf.len() - 1;
        buf[last] = 0x80; // set a padding bit in the final word
        assert!(<BitVec64 as BitStore>::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn wah_rejects_wrong_group_coverage() {
        let w = Wah::encode(&sample());
        let mut buf: Vec<u8> = Vec::new();
        w.write_to(&mut buf).unwrap();
        // Claim a longer bitmap than the payload covers.
        buf[0] = buf[0].wrapping_add(64);
        assert!(<Wah as BitStore>::read_from(&mut buf.as_slice()).is_err());
    }
}

/// The accumulator forms against the plain operations, for every store.
#[cfg(test)]
mod into_tests {
    use super::*;
    use crate::adaptive::proptests::arb_textured;
    use crate::wah::proptests::arb_runny;
    use crate::{Adaptive, Bbc, Wah};
    use proptest::prelude::*;

    /// `acc op= stored` must equal `acc op plain` on plain vectors, where
    /// `stored` holds the bits of `plain`.
    fn check_store<B: BitStore>(stored: &B, plain: &BitVec64, acc: &BitVec64) {
        let what = format!("{} len {}", B::backend_name(), acc.len());
        let mut got = acc.clone();
        got.or_assign(stored);
        assert_eq!(got, acc.or(plain), "or_into {what}");
        let mut got = acc.clone();
        got.and_assign(stored);
        assert_eq!(got, acc.and(plain), "and_into {what}");
        let mut got = acc.clone();
        got.xor_assign(stored);
        assert_eq!(got, acc.xor(plain), "xor_into {what}");
    }

    /// The operand as stored and its complement — over WAH the complement's
    /// final group carries padding ones.
    fn check<B: BitStore>(operand: &BitVec64, acc: &BitVec64) {
        let stored = B::from_bitvec(operand);
        check_store(&stored.not(), &operand.not(), acc);
        check_store(&stored, operand, acc);
    }

    fn check_all_stores(operand: &BitVec64, acc: &BitVec64) {
        check::<BitVec64>(operand, acc);
        check::<Wah>(operand, acc);
        check::<Bbc>(operand, acc);
        check::<Adaptive>(operand, acc);
    }

    /// `v` cut or zero-extended to `len` bits.
    fn resized(v: &BitVec64, len: usize) -> BitVec64 {
        BitVec64::from_ones(len, v.iter_ones().filter(|&p| (p as usize) < len))
    }

    #[test]
    fn into_ops_match_plain_at_the_boundary_lengths() {
        // Around the 31-bit group, the 64-bit word and the 2^16-bit chunk.
        for len in [
            0,
            1,
            31,
            62,
            63,
            64,
            65,
            (1 << 16) - 1,
            1 << 16,
            (1 << 16) + 1,
        ] {
            let every = |step: usize| BitVec64::from_ones(len, (0..len as u32).step_by(step));
            let mut runs = BitVec64::zeros(len);
            for i in (0..len).filter(|i| (i / 97) % 3 == 0 || (40_000..50_000).contains(i)) {
                runs.set(i, true);
            }
            let operands = [BitVec64::zeros(len), every(1), every(2), every(1009), runs];
            for operand in &operands {
                for acc in [every(3), BitVec64::ones(len), BitVec64::zeros(len)] {
                    check_all_stores(operand, &acc);
                }
            }
        }
    }

    #[test]
    fn padding_ones_of_a_negated_wah_vector_stay_out_of_the_accumulator() {
        // 41 bits fill one 31-bit group and 10 bits of the next; NOT leaves
        // ones in that final group's 21 padding bits.
        let bits = BitVec64::from_ones(41, [0u32, 5]);
        let w = Wah::encode(&bits).not();
        check_store(&w, &bits.not(), &BitVec64::from_ones(41, [1u32, 5, 40]));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn a_shorter_operand_is_refused() {
        BitVec64::zeros(65).or_assign(&Wah::encode(&BitVec64::zeros(64)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn into_ops_match_plain_on_textured(a in arb_textured(), b in arb_textured()) {
            let len = a.len().min(b.len());
            check_all_stores(&resized(&a, len), &resized(&b, len));
        }

        #[test]
        fn into_ops_match_plain_on_runny(a in arb_runny(4000), b in arb_runny(4000)) {
            let len = a.len().min(b.len());
            check_all_stores(&resized(&a, len), &resized(&b, len));
        }
    }
}

/// `from_positions` against `from_bitvec` of the same bits, for every store.
#[cfg(test)]
mod positions_tests {
    use super::*;
    use crate::adaptive::proptests::arb_textured;
    use crate::{Adaptive, Bbc, Wah, ARRAY_MAX, CHUNK_BITS};
    use proptest::prelude::*;

    fn check<B: BitStore + PartialEq + std::fmt::Debug>(len: usize, positions: &[u32]) {
        let plain = BitVec64::from_ones(len, positions.iter().copied());
        assert_eq!(
            B::from_positions(len, positions),
            B::from_bitvec(&plain),
            "{} len {len}, {} bits",
            B::backend_name(),
            positions.len()
        );
    }

    fn check_all_stores(len: usize, positions: &[u32]) {
        check::<BitVec64>(len, positions);
        check::<Wah>(len, positions);
        check::<Bbc>(len, positions);
        check::<Adaptive>(len, positions);
    }

    #[test]
    fn positions_build_what_the_plain_vector_encodes() {
        let chunk = CHUNK_BITS as u32;
        let two_chunks = 2 * CHUNK_BITS;
        let cases: Vec<(usize, Vec<u32>)> = vec![
            (0, vec![]),
            (two_chunks, vec![]),
            (two_chunks, vec![70_000]),
            (two_chunks, (0..chunk).collect()),
            (two_chunks, (0..ARRAY_MAX as u32).map(|i| 3 * i).collect()),
            (two_chunks, (0..=ARRAY_MAX as u32).map(|i| 3 * i).collect()),
            (two_chunks, (0..chunk).step_by(2).collect()),
            (two_chunks, (1_000..60_000).collect()),
            (two_chunks, vec![chunk - 1, chunk]),
            (
                CHUNK_BITS + 1_000,
                (0..CHUNK_BITS as u32 + 1_000).step_by(7).collect(),
            ),
            (CHUNK_BITS + 1_000, (chunk - 10..chunk + 1_000).collect()),
        ];
        for (len, positions) in &cases {
            check_all_stores(*len, positions);
        }
    }

    #[test]
    #[should_panic(expected = "past the vector")]
    fn adaptive_refuses_a_position_past_the_end() {
        Adaptive::from_positions(10, &[3, 10]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn positions_match_the_plain_encoding_on_textured(v in arb_textured()) {
            check_all_stores(v.len(), &v.ones_positions());
        }
    }
}
