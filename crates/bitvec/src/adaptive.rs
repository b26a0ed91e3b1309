//! Roaring-style adaptive container bitmaps.
//!
//! An [`Adaptive`] vector splits its bit space into chunks of 2^16
//! positions and stores each chunk in whichever of three container shapes
//! is smallest for that chunk's population (the per-chunk adaptation rule
//! of Chambi et al.'s Roaring bitmaps, applied to the paper's
//! missing-value bitmaps):
//!
//! * **array** — the sorted `u16` positions of the set bits; chosen for
//!   sparse chunks (≤ [`ARRAY_MAX`] bits set) at 2 bytes per set bit;
//! * **bitmap** — the chunk's raw `u64` words, `⌈valid / 64⌉` of them for
//!   a chunk of `valid` positions (2^16 for every chunk but the vector's
//!   last); chosen for dense, incompressible chunks at 8 bytes per 64
//!   positions — never more than the plain vector it replaces — and
//!   operated on by the [`crate::kernel`] wide kernels;
//! * **run** — sorted `(start, end)` intervals; chosen for clustered
//!   chunks at 4 bytes per run.
//!
//! A container's shape is chosen when the vector is *stored*. The bitmap
//! query driver never builds an adaptive intermediate: it evaluates into a
//! plain word accumulator and each stored operand combines itself into it
//! ([`BitStore::or_into`], [`and_into`](BitStore::and_into),
//! [`xor_into`](BitStore::xor_into)) container by container — an array sets,
//! keeps or flips its listed bits, a bitmap is one u64×8 kernel pass, a run
//! is a range fill — at a cost that follows the container's payload, not
//! the 2^16 positions it covers. [`BitStore::tally_read`] reports exactly
//! what such a read touches — payload words and containers by shape — and
//! the driver sums that [`OpTally`] over every operand into the work
//! counters `ibis query --profile` surfaces.
//!
//! The container-to-container operations ([`BitStore::and`],
//! [`or`](BitStore::or), [`xor`](BitStore::xor), [`not`](BitStore::not))
//! remain for callers that want an adaptive result: they dispatch on the
//! container *pair* (array∩array is a sorted merge, array∩bitmap probes
//! bits, bitmap∩bitmap is one kernel pass, runs intersect as intervals) and
//! re-apply the adaptation rule to what they produce.
//!
//! ```
//! use ibis_bitvec::{Adaptive, BitStore, BitVec64, ContainerKind, OpTally};
//!
//! // 2^20 bits: a sparse chunk, then a solid run — each chunk picks its
//! // own shape.
//! let mut plain = BitVec64::zeros(1 << 20);
//! plain.set(40, true);
//! for i in (1 << 16)..(1 << 16) + 50_000 {
//!     plain.set(i, true);
//! }
//! let a = Adaptive::from_bitvec(&plain);
//! assert_eq!(a.container_kind(0), Some(ContainerKind::Array));
//! assert_eq!(a.container_kind(1), Some(ContainerKind::Run));
//! assert!(a.size_bytes() < 200); // vs 128 KiB uncompressed
//!
//! // A read tally says exactly what an operand costs.
//! let mut tally = OpTally::default();
//! a.tally_read(&mut tally);
//! assert_eq!(tally.containers(), 16); // one per chunk
//! assert_eq!((tally.array, tally.run), (15, 1)); // empty chunks are arrays
//! assert_eq!(tally.words, 2); // vs 16 384 uncompressed
//! ```

use crate::{kernel, BitStore, BitVec64, OpTally};

/// Bits per chunk (one container covers this many positions).
pub const CHUNK_BITS: usize = 1 << 16;
/// `u64` words of a full chunk.
const CHUNK_WORDS: usize = CHUNK_BITS / 64;
/// Maximum set bits a chunk may hold in array form: past it the array
/// would outweigh even a full chunk's bitmap container.
pub const ARRAY_MAX: usize = 4096;

/// [`BitStore::read_price`] of one array-container entry, in plain-kernel
/// words: scattering an entry into an accumulator took 1.0–1.6 ns against
/// 0.16–0.26 ns for a bitmap word's in-place OR on a 2-vCPU Xeon VM.
pub const ARRAY_ENTRY_PRICE: f64 = 6.0;

/// [`BitStore::read_price`] of one run-container interval, in plain-kernel
/// words: a range fill took 3.9–6.5 ns per run of 16–48 bits on the same
/// host.
pub const RUN_PRICE: f64 = 24.0;

/// The shape an [`Adaptive`] chunk is currently stored in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContainerKind {
    /// Sorted `u16` positions (sparse chunks).
    Array,
    /// The chunk's raw `u64` words (dense chunks).
    Bitmap,
    /// Sorted disjoint `(start, end)` intervals (clustered chunks).
    Run,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Container {
    /// Sorted ascending, strictly increasing, `len ≤ ARRAY_MAX`.
    Array(Vec<u16>),
    /// Exactly `⌈valid / 64⌉` words for a chunk of `valid` positions;
    /// padding past them in the last word is zero.
    Bitmap(Vec<u64>),
    /// Sorted, disjoint `(start, end)` inclusive intervals.
    Run(Vec<(u16, u16)>),
}

/// A bit vector stored as one adaptive container per 2^16-bit chunk.
///
/// Implements [`BitStore`], so every bitmap index in `ibis-bitmap` can be
/// instantiated over it, and its [`BitStore::tally_read`] override makes
/// their work counters container-exact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Adaptive {
    n_bits: usize,
    containers: Vec<Container>,
}

/// Set bits and runs of consecutive ones (0→1 transitions) of a word
/// slice, counted in one pass over it.
fn ones_and_runs(words: &[u64]) -> (usize, usize) {
    let (mut ones, mut runs) = (0u32, 0u32);
    let mut prev = 0u64;
    for &w in words {
        ones += w.count_ones();
        runs += (w & !((w << 1) | prev)).count_ones();
        prev = w >> 63;
    }
    (ones as usize, runs as usize)
}

/// Representation chosen by the per-chunk adaptation rule for a chunk of
/// `words` words: the smallest of `2·card` (array, only when
/// `card ≤ ARRAY_MAX`), `4·runs` (run) and `8·words` (bitmap); ties prefer
/// array, then run.
fn choose_kind(card: usize, runs: usize, words: usize) -> ContainerKind {
    let array = if card <= ARRAY_MAX {
        2 * card
    } else {
        usize::MAX
    };
    let run = 4 * runs;
    let bitmap = 8 * words;
    if array <= run && array <= bitmap {
        ContainerKind::Array
    } else if run < bitmap {
        ContainerKind::Run
    } else {
        ContainerKind::Bitmap
    }
}

fn words_to_array(words: &[u64]) -> Vec<u16> {
    let mut out = Vec::new();
    for (wi, &w) in words.iter().enumerate() {
        let mut w = w;
        while w != 0 {
            let b = w.trailing_zeros();
            w &= w - 1;
            out.push((wi * 64) as u16 + b as u16);
        }
    }
    out
}

fn words_to_runs(words: &[u64]) -> Vec<(u16, u16)> {
    let mut starts: Vec<u16> = Vec::new();
    let mut prev = 0u64;
    for (wi, &w) in words.iter().enumerate() {
        let mut m = w & !((w << 1) | prev);
        while m != 0 {
            let b = m.trailing_zeros();
            m &= m - 1;
            starts.push((wi * 64) as u16 + b as u16);
        }
        prev = w >> 63;
    }
    let mut ends: Vec<u16> = Vec::new();
    for (wi, &w) in words.iter().enumerate() {
        let next_low = words.get(wi + 1).map_or(0, |n| n & 1);
        let mut m = w & !(w >> 1);
        if next_low == 1 {
            m &= !(1u64 << 63);
        }
        while m != 0 {
            let b = m.trailing_zeros();
            m &= m - 1;
            ends.push((wi * 64) as u16 + b as u16);
        }
    }
    debug_assert_eq!(starts.len(), ends.len());
    starts.into_iter().zip(ends).collect()
}

/// Sets the bits of the inclusive run `start..=end`.
fn set_run(words: &mut [u64], start: u16, end: u16) {
    kernel::apply_range(words, start as usize, end as usize + 1, |w, m| w | m);
}

/// Clears every bit of `chunk` outside the ascending, disjoint inclusive
/// `runs`: the gaps between them go as ranges, the runs are left alone.
fn keep_runs(chunk: &mut [u64], runs: impl Iterator<Item = (u16, u16)>) {
    let clear = |chunk: &mut [u64], from, to| kernel::apply_range(chunk, from, to, |w, m| w & !m);
    let mut settled = 0usize;
    for (s, e) in runs {
        clear(chunk, settled, s as usize);
        settled = e as usize + 1;
    }
    clear(chunk, settled, chunk.len() * 64);
}

/// Positions chunk `c` of an `n_bits`-bit vector covers.
fn chunk_bits(n_bits: usize, c: usize) -> usize {
    (n_bits - c * CHUNK_BITS).min(CHUNK_BITS)
}

/// The bits of a chunk's last word that lie past its `valid` positions.
fn tail_padding(valid: usize) -> u64 {
    match valid % 64 {
        0 => 0,
        t => !((1u64 << t) - 1),
    }
}

impl Container {
    /// Adapts one chunk given as its `⌈valid / 64⌉` words, padding clear.
    fn from_words(words: &[u64]) -> Container {
        let (card, runs) = ones_and_runs(words);
        match choose_kind(card, runs, words.len()) {
            ContainerKind::Array => Container::Array(words_to_array(words)),
            ContainerKind::Run => Container::Run(words_to_runs(words)),
            ContainerKind::Bitmap => Container::Bitmap(words.to_vec()),
        }
    }

    /// Adapts one chunk of `words` words given as the ascending positions
    /// of its set bits (their low 16 bits are the offsets in the chunk) by
    /// the same rule as [`Container::from_words`]: a run starts at the
    /// first position and after every gap.
    fn from_positions(pos: &[u32], words: usize) -> Container {
        let runs = match pos {
            [] => 0,
            _ => 1 + pos.windows(2).filter(|w| w[1] != w[0] + 1).count(),
        };
        match choose_kind(pos.len(), runs, words) {
            ContainerKind::Array => Container::Array(pos.iter().map(|&p| p as u16).collect()),
            ContainerKind::Run => {
                let mut out: Vec<(u16, u16)> = Vec::with_capacity(runs);
                for &p in pos {
                    let at = p as u16;
                    match out.last_mut() {
                        Some((_, end)) if u32::from(*end) + 1 == u32::from(at) => *end = at,
                        _ => out.push((at, at)),
                    }
                }
                Container::Run(out)
            }
            ContainerKind::Bitmap => {
                let mut out = vec![0u64; words];
                for &p in pos {
                    let p = p as u16 as usize;
                    out[p / 64] |= 1u64 << (p % 64);
                }
                Container::Bitmap(out)
            }
        }
    }

    /// Materializes into `out`, the chunk's `⌈valid / 64⌉` words.
    fn write_words(&self, out: &mut [u64]) {
        out.fill(0);
        self.or_into(out);
    }

    /// `chunk |= self`, where `chunk` is this container's window of an
    /// accumulator: its `⌈valid / 64⌉` words. Positions are always below
    /// the chunk's valid bits, so nothing lands past it.
    fn or_into(&self, chunk: &mut [u64]) {
        match self {
            Container::Array(v) => {
                for &p in v {
                    chunk[p as usize / 64] |= 1u64 << (p % 64);
                }
            }
            Container::Bitmap(w) => kernel::zip_words_in_place(chunk, w, |a, b| a | b),
            Container::Run(runs) => {
                for &(s, e) in runs {
                    set_run(chunk, s, e);
                }
            }
        }
    }

    /// `chunk ^= self`; see [`Container::or_into`].
    fn xor_into(&self, chunk: &mut [u64]) {
        match self {
            Container::Array(v) => {
                for &p in v {
                    chunk[p as usize / 64] ^= 1u64 << (p % 64);
                }
            }
            Container::Bitmap(w) => kernel::zip_words_in_place(chunk, w, |a, b| a ^ b),
            Container::Run(runs) => {
                for &(s, e) in runs {
                    kernel::apply_range(chunk, s as usize, e as usize + 1, |w, m| w ^ m);
                }
            }
        }
    }

    /// `chunk &= self`; see [`Container::or_into`].
    fn and_into(&self, chunk: &mut [u64]) {
        match self {
            Container::Array(v) => keep_runs(chunk, v.iter().map(|&p| (p, p))),
            Container::Bitmap(w) => kernel::zip_words_in_place(chunk, w, |a, b| a & b),
            Container::Run(runs) => keep_runs(chunk, runs.iter().copied()),
        }
    }

    fn kind(&self) -> ContainerKind {
        match self {
            Container::Array(_) => ContainerKind::Array,
            Container::Bitmap(_) => ContainerKind::Bitmap,
            Container::Run(_) => ContainerKind::Run,
        }
    }

    fn cardinality(&self) -> usize {
        match self {
            Container::Array(v) => v.len(),
            Container::Bitmap(w) => kernel::popcount_words(w),
            Container::Run(runs) => runs.iter().map(|&(s, e)| e as usize - s as usize + 1).sum(),
        }
    }

    /// `u64`-word-equivalents of payload a reader touches.
    fn size_words(&self) -> u64 {
        match self {
            Container::Array(v) => v.len().div_ceil(4) as u64,
            Container::Bitmap(w) => w.len() as u64,
            Container::Run(runs) => runs.len().div_ceil(2) as u64,
        }
    }

    /// What combining this container into an accumulator costs, in
    /// plain-kernel words (see [`BitStore::read_price`]).
    fn read_price(&self) -> f64 {
        match self {
            Container::Array(v) => v.len() as f64 * ARRAY_ENTRY_PRICE,
            Container::Bitmap(w) => w.len() as f64,
            Container::Run(runs) => runs.len() as f64 * RUN_PRICE,
        }
    }

    fn payload_bytes(&self) -> usize {
        match self {
            Container::Array(v) => 2 * v.len(),
            Container::Bitmap(w) => 8 * w.len(),
            Container::Run(runs) => 4 * runs.len(),
        }
    }

    /// Re-applies the adaptation rule to an op result over a chunk of
    /// `words` words.
    fn optimize(self, words: usize) -> Container {
        let (card, runs) = match &self {
            Container::Array(v) => {
                let mut runs = 0usize;
                let mut prev: Option<u16> = None;
                for &p in v {
                    if prev != p.checked_sub(1) {
                        runs += 1;
                    }
                    prev = Some(p);
                }
                (v.len(), runs)
            }
            Container::Run(r) => (
                r.iter().map(|&(s, e)| e as usize - s as usize + 1).sum(),
                r.len(),
            ),
            Container::Bitmap(w) => ones_and_runs(w),
        };
        let want = choose_kind(card, runs, words);
        if want == self.kind() {
            return self;
        }
        let mut out = vec![0u64; words];
        self.write_words(&mut out);
        match want {
            ContainerKind::Array => Container::Array(words_to_array(&out)),
            ContainerKind::Run => Container::Run(words_to_runs(&out)),
            ContainerKind::Bitmap => Container::Bitmap(out),
        }
    }

    /// `self AND other` over a chunk of `words` words.
    fn and(&self, other: &Container, words: usize) -> Container {
        use Container::*;
        match (self, other) {
            (Array(a), Array(b)) => {
                let (mut i, mut j) = (0, 0);
                let mut out = Vec::new();
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            out.push(a[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                Array(out).optimize(words)
            }
            (Array(a), Bitmap(w)) | (Bitmap(w), Array(a)) => {
                let out = a
                    .iter()
                    .copied()
                    .filter(|&p| w[p as usize / 64] >> (p % 64) & 1 == 1)
                    .collect();
                Array(out).optimize(words)
            }
            (Array(a), Run(runs)) | (Run(runs), Array(a)) => {
                let mut out = Vec::new();
                let mut ri = 0usize;
                for &p in a {
                    while ri < runs.len() && runs[ri].1 < p {
                        ri += 1;
                    }
                    if ri < runs.len() && runs[ri].0 <= p {
                        out.push(p);
                    }
                }
                Array(out).optimize(words)
            }
            (Bitmap(x), Bitmap(y)) => {
                let mut out = vec![0u64; words];
                kernel::zip_words(x, y, &mut out, |a, b| a & b);
                Container::from_words(&out)
            }
            (Bitmap(w), Run(runs)) | (Run(runs), Bitmap(w)) => {
                let mut out = vec![0u64; words];
                for &(s, e) in runs {
                    set_run(&mut out, s, e);
                }
                kernel::zip_words_in_place(&mut out, w, |a, b| a & b);
                Container::from_words(&out)
            }
            (Run(a), Run(b)) => {
                let (mut i, mut j) = (0, 0);
                let mut out = Vec::new();
                while i < a.len() && j < b.len() {
                    let s = a[i].0.max(b[j].0);
                    let e = a[i].1.min(b[j].1);
                    if s <= e {
                        out.push((s, e));
                    }
                    if a[i].1 <= b[j].1 {
                        i += 1;
                    } else {
                        j += 1;
                    }
                }
                Run(out).optimize(words)
            }
        }
    }

    /// `self OR other` over a chunk of `words` words.
    fn or(&self, other: &Container, words: usize) -> Container {
        use Container::*;
        match (self, other) {
            (Array(a), Array(b)) => {
                let mut out = Vec::with_capacity(a.len() + b.len());
                let (mut i, mut j) = (0, 0);
                while i < a.len() || j < b.len() {
                    let next = match (a.get(i), b.get(j)) {
                        (Some(&x), Some(&y)) if x == y => {
                            i += 1;
                            j += 1;
                            x
                        }
                        (Some(&x), Some(&y)) if x < y => {
                            i += 1;
                            x
                        }
                        (_, Some(&y)) => {
                            j += 1;
                            y
                        }
                        (Some(&x), None) => {
                            i += 1;
                            x
                        }
                        (None, None) => unreachable!(),
                    };
                    out.push(next);
                }
                Array(out).optimize(words)
            }
            (Array(a), Bitmap(w)) | (Bitmap(w), Array(a)) => {
                let mut out = w.clone();
                for &p in a {
                    out[p as usize / 64] |= 1u64 << (p % 64);
                }
                Container::from_words(&out)
            }
            (Run(a), Run(b)) => {
                let mut merged: Vec<(u16, u16)> = Vec::with_capacity(a.len() + b.len());
                let (mut i, mut j) = (0, 0);
                while i < a.len() || j < b.len() {
                    let take_a = j >= b.len() || (i < a.len() && a[i].0 <= b[j].0);
                    let (s, e) = if take_a {
                        i += 1;
                        a[i - 1]
                    } else {
                        j += 1;
                        b[j - 1]
                    };
                    match merged.last_mut() {
                        Some(last) if s as usize <= last.1 as usize + 1 => {
                            last.1 = last.1.max(e);
                        }
                        _ => merged.push((s, e)),
                    }
                }
                Run(merged).optimize(words)
            }
            (Bitmap(x), Bitmap(y)) => {
                let mut out = vec![0u64; words];
                kernel::zip_words(x, y, &mut out, |a, b| a | b);
                Container::from_words(&out)
            }
            (lhs, rhs) => {
                // Remaining mixed shapes (run×array, run×bitmap): materialize
                // one, OR the other in, and re-optimize.
                let mut out = vec![0u64; words];
                lhs.write_words(&mut out);
                rhs.or_into(&mut out);
                Container::from_words(&out)
            }
        }
    }
}

impl Adaptive {
    /// Encodes an uncompressed bit vector, picking each chunk's container
    /// by the adaptation rule.
    pub fn encode(bits: &BitVec64) -> Adaptive {
        // A plain vector's padding is clear, so each chunk's slice of its
        // words is exactly what the chunk's container adapts.
        Adaptive {
            n_bits: bits.len(),
            containers: bits
                .words()
                .chunks(CHUNK_WORDS)
                .map(Container::from_words)
                .collect(),
        }
    }

    /// Decodes back to an uncompressed bit vector.
    pub fn decode(&self) -> BitVec64 {
        let mut out = BitVec64::zeros(self.n_bits);
        out.or_assign(self);
        out
    }

    /// Hands every container its window of the accumulator `acc`.
    fn combine_into(&self, acc: &mut [u64], f: impl Fn(&Container, &mut [u64])) {
        assert_eq!(
            acc.len(),
            self.n_bits.div_ceil(64),
            "accumulator must hold the vector's uncompressed words"
        );
        for (cont, chunk) in self.containers.iter().zip(acc.chunks_mut(CHUNK_WORDS)) {
            f(cont, chunk);
        }
    }

    /// Number of chunk containers (`⌈len / 2^16⌉`).
    pub fn n_containers(&self) -> usize {
        self.containers.len()
    }

    /// The shape chunk `i` is stored in, or `None` past the end.
    pub fn container_kind(&self, i: usize) -> Option<ContainerKind> {
        self.containers.get(i).map(|c| c.kind())
    }

    fn binary(
        &self,
        other: &Adaptive,
        f: impl Fn(&Container, &Container, usize) -> Container,
    ) -> Adaptive {
        assert_eq!(
            self.n_bits, other.n_bits,
            "bit vectors must have equal length"
        );
        Adaptive {
            n_bits: self.n_bits,
            containers: self
                .containers
                .iter()
                .zip(&other.containers)
                .enumerate()
                .map(|(c, (a, b))| f(a, b, chunk_bits(self.n_bits, c).div_ceil(64)))
                .collect(),
        }
    }

    fn via_words(&self, other: Option<&Adaptive>, op: impl Fn(&mut [u64], &[u64])) -> Adaptive {
        if let Some(o) = other {
            assert_eq!(self.n_bits, o.n_bits, "bit vectors must have equal length");
        }
        let mut a = vec![0u64; CHUNK_WORDS];
        let mut b = vec![0u64; CHUNK_WORDS];
        let containers = self
            .containers
            .iter()
            .enumerate()
            .map(|(c, cont)| {
                let valid = chunk_bits(self.n_bits, c);
                let words = valid.div_ceil(64);
                let (a, b) = (&mut a[..words], &mut b[..words]);
                cont.write_words(a);
                match other {
                    Some(o) => o.containers[c].write_words(b),
                    None => b.fill(0),
                }
                op(a, b);
                a[words - 1] &= !tail_padding(valid);
                Container::from_words(a)
            })
            .collect();
        Adaptive {
            n_bits: self.n_bits,
            containers,
        }
    }
}

impl BitStore for Adaptive {
    fn from_bitvec(bits: &BitVec64) -> Self {
        Adaptive::encode(bits)
    }

    /// Each chunk's container is built from its slice of `positions`,
    /// with no plain intermediate.
    fn from_positions(len: usize, positions: &[u32]) -> Self {
        assert!(
            positions.last().is_none_or(|&p| (p as usize) < len),
            "set bit past the vector's {len} bits"
        );
        debug_assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "positions must ascend"
        );
        let mut rest = positions;
        let containers = (0..len.div_ceil(CHUNK_BITS))
            .map(|c| {
                let split = rest.partition_point(|&p| (p as usize) < (c + 1) * CHUNK_BITS);
                let (chunk, after) = rest.split_at(split);
                rest = after;
                Container::from_positions(chunk, chunk_bits(len, c).div_ceil(64))
            })
            .collect();
        Adaptive {
            n_bits: len,
            containers,
        }
    }

    fn to_bitvec(&self) -> BitVec64 {
        self.decode()
    }

    fn len(&self) -> usize {
        self.n_bits
    }

    fn and(&self, other: &Self) -> Self {
        self.binary(other, Container::and)
    }

    fn or(&self, other: &Self) -> Self {
        self.binary(other, Container::or)
    }

    fn xor(&self, other: &Self) -> Self {
        self.via_words(Some(other), |a, b| {
            kernel::zip_words_in_place(a, b, |x, y| x ^ y)
        })
    }

    fn not(&self) -> Self {
        self.via_words(None, |a, _| {
            for w in a.iter_mut() {
                *w = !*w;
            }
        })
    }

    fn or_into(&self, acc: &mut [u64]) {
        self.combine_into(acc, Container::or_into);
    }

    fn and_into(&self, acc: &mut [u64]) {
        self.combine_into(acc, Container::and_into);
    }

    fn xor_into(&self, acc: &mut [u64]) {
        self.combine_into(acc, Container::xor_into);
    }

    fn count_ones(&self) -> usize {
        self.containers.iter().map(Container::cardinality).sum()
    }

    fn ones_positions(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for (c, cont) in self.containers.iter().enumerate() {
            let base = (c * CHUNK_BITS) as u32;
            match cont {
                Container::Array(v) => out.extend(v.iter().map(|&p| base + p as u32)),
                Container::Run(runs) => {
                    for &(s, e) in runs {
                        out.extend(base + s as u32..=base + e as u32);
                    }
                }
                Container::Bitmap(w) => {
                    for p in words_to_array(w) {
                        out.push(base + p as u32);
                    }
                }
            }
        }
        out
    }

    fn size_bytes(&self) -> usize {
        // Payload plus one kind tag per container — the honest encoded
        // footprint, comparable with WAH/BBC word counts.
        self.containers.iter().map(|c| c.payload_bytes() + 1).sum()
    }

    fn backend_name() -> &'static str {
        "adaptive"
    }

    /// The payload words and shape of every stored container — what the
    /// container kernels read, not the uncompressed bound.
    fn tally_read(&self, tally: &mut OpTally) {
        for c in &self.containers {
            tally.words += c.size_words();
            match c.kind() {
                ContainerKind::Array => tally.array += 1,
                ContainerKind::Bitmap => tally.bitmap += 1,
                ContainerKind::Run => tally.run += 1,
            }
        }
    }

    /// Every container priced by its shape, not the uncompressed bound.
    fn read_price(&self) -> f64 {
        self.containers.iter().map(Container::read_price).sum()
    }

    fn write_to(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        crate::io::write_u64(w, self.n_bits as u64)?;
        crate::io::write_u64(w, self.containers.len() as u64)?;
        for cont in &self.containers {
            match cont {
                Container::Array(v) => {
                    w.write_all(&[0u8])?;
                    crate::io::write_u32(w, v.len() as u32)?;
                    for &p in v {
                        w.write_all(&p.to_le_bytes())?;
                    }
                }
                Container::Bitmap(words) => {
                    w.write_all(&[1u8])?;
                    crate::io::write_u32(w, words.len() as u32)?;
                    for &word in words {
                        crate::io::write_u64(w, word)?;
                    }
                }
                Container::Run(runs) => {
                    w.write_all(&[2u8])?;
                    crate::io::write_u32(w, runs.len() as u32)?;
                    for &(s, e) in runs {
                        w.write_all(&s.to_le_bytes())?;
                        w.write_all(&e.to_le_bytes())?;
                    }
                }
            }
        }
        Ok(())
    }

    fn read_from(r: &mut dyn std::io::Read) -> std::io::Result<Self> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let read_u16 = |r: &mut dyn std::io::Read| -> std::io::Result<u16> {
            let mut b = [0u8; 2];
            r.read_exact(&mut b)?;
            Ok(u16::from_le_bytes(b))
        };
        let n_bits = crate::io::read_u64(r)? as usize;
        let n_containers = crate::io::read_u64(r)? as usize;
        if n_containers != n_bits.div_ceil(CHUNK_BITS) {
            return Err(bad("container count disagrees with bit length"));
        }
        // Every container is bounded (arrays ≤ 4096 entries, bitmaps exactly
        // ⌈valid / 64⌉ ≤ 1024 words, runs ≤ 2^15), so a lying count fails
        // validation before any oversized allocation.
        let mut containers = Vec::with_capacity(n_containers.min(1 << 16));
        for c in 0..n_containers {
            let valid = chunk_bits(n_bits, c);
            let mut kind = [0u8; 1];
            r.read_exact(&mut kind)?;
            let count = crate::io::read_u32(r)? as usize;
            let cont = match kind[0] {
                0 => {
                    if count > ARRAY_MAX {
                        return Err(bad("array container over capacity"));
                    }
                    let mut v = Vec::with_capacity(count);
                    for _ in 0..count {
                        v.push(read_u16(r)?);
                    }
                    if v.windows(2).any(|w| w[0] >= w[1]) {
                        return Err(bad("array container not strictly ascending"));
                    }
                    if v.last().is_some_and(|&p| p as usize >= valid) {
                        return Err(bad("array position past the chunk's valid bits"));
                    }
                    Container::Array(v)
                }
                1 => {
                    if count != valid.div_ceil(64) {
                        return Err(bad(&format!(
                            "bitmap container of {count} words for a chunk of {valid} bits"
                        )));
                    }
                    let mut words = Vec::with_capacity(count);
                    for _ in 0..count {
                        words.push(crate::io::read_u64(r)?);
                    }
                    if words[count - 1] & tail_padding(valid) != 0 {
                        return Err(bad("set bits past the chunk's valid bits"));
                    }
                    Container::Bitmap(words)
                }
                2 => {
                    if count > CHUNK_BITS / 2 {
                        return Err(bad("run container over capacity"));
                    }
                    let mut runs = Vec::with_capacity(count);
                    for _ in 0..count {
                        let s = read_u16(r)?;
                        let e = read_u16(r)?;
                        if s > e {
                            return Err(bad("run interval is inverted"));
                        }
                        runs.push((s, e));
                    }
                    if runs.windows(2).any(|w| w[0].1 >= w[1].0) {
                        return Err(bad("run intervals unsorted or overlapping"));
                    }
                    if runs.last().is_some_and(|&(_, e)| e as usize >= valid) {
                        return Err(bad("run interval past the chunk's valid bits"));
                    }
                    Container::Run(runs)
                }
                k => return Err(bad(&format!("unknown container kind {k}"))),
            };
            containers.push(cont);
        }
        Ok(Adaptive { n_bits, containers })
    }
}

/// What every encoded vector must satisfy, or the first invariant `a`
/// breaks as the encoding of `v`: it decodes to `v`, each bitmap container
/// holds exactly its chunk's `⌈valid / 64⌉` words, the whole is never larger
/// than the plain vector plus one tag byte per container, and its image
/// reads back as itself.
#[cfg(test)]
fn broken_invariant(v: &BitVec64, a: &Adaptive) -> Option<String> {
    if a.decode() != *v {
        return Some("does not decode to its input".into());
    }
    for (c, cont) in a.containers.iter().enumerate() {
        let want = chunk_bits(a.n_bits, c).div_ceil(64);
        if let Container::Bitmap(w) = cont {
            if w.len() != want {
                return Some(format!(
                    "chunk {c}: bitmap of {} words, not {want}",
                    w.len()
                ));
            }
        }
    }
    let bound = 8 * v.len().div_ceil(64) + a.n_containers();
    if a.size_bytes() > bound {
        return Some(format!("{} bytes, over the bound {bound}", a.size_bytes()));
    }
    let mut buf: Vec<u8> = Vec::new();
    a.write_to(&mut buf).unwrap();
    match <Adaptive as BitStore>::read_from(&mut buf.as_slice()) {
        Ok(back) if back == *a => None,
        Ok(_) => Some("image reads back as another vector".into()),
        Err(e) => Some(format!("image refused: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse(len: usize, ones: &[u32]) -> BitVec64 {
        BitVec64::from_ones(len, ones.iter().copied())
    }

    /// `len` bits of one texture — sparse, dense, runny or all-ones — drawn
    /// from a fixed xorshift stream.
    fn textured(len: usize, texture: &str) -> BitVec64 {
        let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ len as u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let positions = 0..len as u32;
        match texture {
            "sparse" => BitVec64::from_ones(len, positions.filter(|_| next() % 500 == 0)),
            "dense" => BitVec64::from_ones(len, positions.filter(|_| next() & 1 == 1)),
            "runny" => {
                // Alternating gaps and runs of 1..=300 positions.
                let mut v = BitVec64::zeros(len);
                let (mut at, mut on) = (0, false);
                while at < len {
                    let end = (at + 1 + (next() % 300) as usize).min(len);
                    if on {
                        (at..end).for_each(|p| v.set(p, true));
                    }
                    (at, on) = (end, !on);
                }
                v
            }
            _ => BitVec64::ones(len),
        }
    }

    #[test]
    fn containers_never_outweigh_their_chunk() {
        let mut broken = Vec::new();
        for len in [
            1,
            63,
            64,
            65,
            2_000,
            8_192,
            (1 << 16) - 1,
            1 << 16,
            (1 << 16) + 1,
            100_000,
        ] {
            for texture in ["sparse", "dense", "runny", "all-ones"] {
                let v = textured(len, texture);
                if let Some(why) = broken_invariant(&v, &Adaptive::encode(&v)) {
                    broken.push(format!("{texture} × {len}: {why}"));
                }
            }
        }
        assert!(broken.is_empty(), "{broken:#?}");
    }

    #[test]
    fn a_partial_chunk_bitmap_of_any_other_length_is_refused() {
        // 2,000 dense bits: one bitmap container of ⌈2000/64⌉ = 32 words.
        let v = textured(2_000, "dense");
        let a = Adaptive::encode(&v);
        assert_eq!(a.container_kind(0), Some(ContainerKind::Bitmap));
        let mut buf: Vec<u8> = Vec::new();
        a.write_to(&mut buf).unwrap();
        // n_bits, n_containers, kind tag, then the word count at byte 17.
        assert_eq!(buf[17..21], 32u32.to_le_bytes());
        for words in [31u32, 33, 1024] {
            let mut lying = buf[..17].to_vec();
            lying.extend_from_slice(&words.to_le_bytes());
            lying.extend(std::iter::repeat_n(0u8, 8 * words as usize));
            let err = <Adaptive as BitStore>::read_from(&mut lying.as_slice()).unwrap_err();
            assert!(err.to_string().contains("chunk of 2000 bits"), "{err}");
        }
        // A set padding bit past position 1,999 is refused too.
        let mut padded = buf.clone();
        let last = padded.len() - 1;
        padded[last] |= 0x80;
        assert!(<Adaptive as BitStore>::read_from(&mut padded.as_slice()).is_err());
    }

    #[test]
    fn chunk_shapes_follow_the_adaptation_rule() {
        let mut v = BitVec64::zeros(3 * CHUNK_BITS);
        v.set(5, true); // chunk 0: 1 bit → array
        for i in CHUNK_BITS..CHUNK_BITS + 10_000 {
            v.set(i, true); // chunk 1: one long run
        }
        for i in (2 * CHUNK_BITS..3 * CHUNK_BITS).step_by(3) {
            v.set(i, true); // chunk 2: ~21k scattered bits → bitmap
        }
        let a = Adaptive::encode(&v);
        assert_eq!(a.container_kind(0), Some(ContainerKind::Array));
        assert_eq!(a.container_kind(1), Some(ContainerKind::Run));
        assert_eq!(a.container_kind(2), Some(ContainerKind::Bitmap));
        let mut census = OpTally::default();
        a.tally_read(&mut census);
        assert_eq!((census.array, census.bitmap, census.run), (1, 1, 1));
        assert_eq!(a.decode(), v);
    }

    #[test]
    fn ops_match_plain_across_shape_pairs() {
        // Build operands that pair every container shape with every other.
        let len = 4 * CHUNK_BITS;
        let mut a = BitVec64::zeros(len);
        let mut b = BitVec64::zeros(len);
        for c in 0..4 {
            let base = c * CHUNK_BITS;
            match c {
                0 => {
                    // array × run
                    for i in 0..40 {
                        a.set(base + i * 1000, true);
                    }
                    for i in 100..20_000 {
                        b.set(base + i, true);
                    }
                }
                1 => {
                    // bitmap × bitmap
                    for i in (0..CHUNK_BITS).step_by(3) {
                        a.set(base + i, true);
                    }
                    for i in (0..CHUNK_BITS).step_by(5) {
                        b.set(base + i, true);
                    }
                }
                2 => {
                    // run × bitmap
                    for i in 1000..50_000 {
                        a.set(base + i, true);
                    }
                    for i in (0..CHUNK_BITS).step_by(3) {
                        b.set(base + i, true);
                    }
                }
                _ => {
                    // array × array
                    for i in 0..30 {
                        a.set(base + i * 7, true);
                        b.set(base + i * 11, true);
                    }
                }
            }
        }
        let (ea, eb) = (Adaptive::encode(&a), Adaptive::encode(&b));
        assert_eq!(BitStore::and(&ea, &eb).decode(), a.and(&b));
        assert_eq!(BitStore::or(&ea, &eb).decode(), a.or(&b));
        assert_eq!(BitStore::xor(&ea, &eb).decode(), a.xor(&b));
        assert_eq!(BitStore::not(&ea).decode(), a.not());
    }

    #[test]
    fn results_readapt_their_shape() {
        // Two dense bitmaps whose AND is empty: the result chunk must
        // collapse back to an (empty) array, not stay a bitmap.
        let len = CHUNK_BITS;
        let mut a = BitVec64::zeros(len);
        let mut b = BitVec64::zeros(len);
        for i in (0..len).step_by(2) {
            a.set(i, true);
            b.set(i + 1, true);
        }
        let (ea, eb) = (Adaptive::encode(&a), Adaptive::encode(&b));
        assert_eq!(ea.container_kind(0), Some(ContainerKind::Bitmap));
        let anded = BitStore::and(&ea, &eb);
        assert_eq!(anded.count_ones(), 0);
        assert_eq!(anded.container_kind(0), Some(ContainerKind::Array));
        // And their OR is all-ones → a single run.
        let ored = BitStore::or(&ea, &eb);
        assert_eq!(ored.container_kind(0), Some(ContainerKind::Run));
        assert_eq!(ored.count_ones(), len);
    }

    #[test]
    fn tallies_are_exact() {
        let len = 2 * CHUNK_BITS;
        let a = Adaptive::encode(&sparse(len, &[1, 9, 33, 70_000]));
        let b = Adaptive::from_bitvec(&BitVec64::ones(len));
        // Both operands of an AND, as the query driver charges them.
        let mut tally = OpTally::default();
        a.tally_read(&mut tally);
        b.tally_read(&mut tally);
        // a: two array containers (3 + 1 entries → 1 + 1 words);
        // b: two run containers (1 run each → 1 + 1 words).
        assert_eq!(tally.array, 2);
        assert_eq!(tally.run, 2);
        assert_eq!(tally.bitmap, 0);
        assert_eq!(tally.words, 4);
        assert_eq!(tally.containers(), 4);

        let mut read = OpTally::default();
        a.tally_read(&mut read);
        assert_eq!((read.array, read.words), (2, 2));
    }

    #[test]
    fn read_prices_follow_the_container_shapes() {
        let len = 2 * CHUNK_BITS;
        // Two arrays of 3 and 1 entries.
        let a = Adaptive::encode(&sparse(len, &[1, 9, 33, 70_000]));
        assert_eq!(a.read_price(), 4.0 * ARRAY_ENTRY_PRICE);
        // One run per chunk.
        assert_eq!(
            Adaptive::from_bitvec(&BitVec64::ones(len)).read_price(),
            2.0 * RUN_PRICE
        );
        // Every other bit: one bitmap container of a chunk's 1,024 words.
        let every_other = BitVec64::from_ones(CHUNK_BITS, (0..CHUNK_BITS as u32).step_by(2));
        let b = Adaptive::encode(&every_other);
        assert_eq!(b.container_kind(0), Some(ContainerKind::Bitmap));
        assert_eq!(b.read_price(), CHUNK_WORDS as f64);
        // The plain vector the bitmap container replaces prices the same.
        assert_eq!(every_other.read_price(), b.read_price());
    }

    #[test]
    fn tail_chunk_is_masked() {
        let len = CHUNK_BITS + 100;
        let v = sparse(len, &[50, (CHUNK_BITS + 3) as u32]);
        let a = Adaptive::encode(&v);
        let n = BitStore::not(&a);
        assert_eq!(n.count_ones(), len - 2);
        assert_eq!(n.decode(), v.not());
        let ones = Adaptive::from_bitvec(&BitVec64::ones(len));
        assert_eq!(ones.count_ones(), len);
        assert_eq!(BitStore::xor(&ones, &a).count_ones(), len - 2);
    }

    #[test]
    fn zero_length_and_empty() {
        let z = Adaptive::from_bitvec(&BitVec64::zeros(0));
        assert!(BitStore::is_empty(&z));
        assert_eq!(z.n_containers(), 0);
        assert_eq!(BitStore::and(&z, &z).count_ones(), 0);
        let z10 = Adaptive::from_bitvec(&BitVec64::zeros(10));
        assert_eq!(z10.count_ones(), 0);
        assert_eq!(BitStore::not(&z10).count_ones(), 10);
    }

    #[test]
    fn ones_positions_ascending_across_chunks() {
        let pos = [0u32, 65_535, 65_536, 70_000, 200_000];
        let a = Adaptive::encode(&sparse(3 * CHUNK_BITS + 7_000, &pos));
        assert_eq!(BitStore::ones_positions(&a), pos.to_vec());
        assert_eq!(BitStore::count_ones(&a), 5);
    }

    #[test]
    fn size_favors_each_shape_where_it_should() {
        // Sparse: array beats a raw bitmap by orders of magnitude.
        let sparse_v = Adaptive::encode(&sparse(1 << 20, &[9, 100_000]));
        assert!(BitStore::size_bytes(&sparse_v) < 100);
        // Clustered: runs beat both.
        let mut run_v = BitVec64::zeros(1 << 20);
        for i in 10_000..600_000 {
            run_v.set(i, true);
        }
        let run_e = Adaptive::encode(&run_v);
        assert!(BitStore::size_bytes(&run_e) < 200);
        // Alternating (incompressible): falls back to bitmaps ≈ raw size.
        let mut alt = BitVec64::zeros(1 << 20);
        for i in (0..1 << 20).step_by(2) {
            alt.set(i, true);
        }
        let alt_e = Adaptive::encode(&alt);
        assert!(BitStore::size_bytes(&alt_e) >= (1 << 20) / 8);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn length_mismatch_panics() {
        let a = Adaptive::from_bitvec(&BitVec64::zeros(10));
        let b = Adaptive::from_bitvec(&BitVec64::zeros(11));
        let _ = BitStore::and(&a, &b);
    }

    #[test]
    fn serialization_rejects_tampering() {
        let v = sparse(2 * CHUNK_BITS, &[1, 2, 3, 70_000, 70_001]);
        let a = Adaptive::encode(&v);
        let mut buf: Vec<u8> = Vec::new();
        a.write_to(&mut buf).unwrap();
        assert_eq!(
            <Adaptive as BitStore>::read_from(&mut buf.as_slice()).unwrap(),
            a
        );
        // Unknown container kind.
        let mut bad = buf.clone();
        bad[16] = 7;
        assert!(<Adaptive as BitStore>::read_from(&mut bad.as_slice()).is_err());
        // Lying container count.
        let mut bad = buf.clone();
        bad[8] = 9;
        assert!(<Adaptive as BitStore>::read_from(&mut bad.as_slice()).is_err());
        // Truncation.
        let mut cut = buf.clone();
        cut.truncate(buf.len() - 1);
        assert!(<Adaptive as BitStore>::read_from(&mut cut.as_slice()).is_err());
    }

    #[test]
    fn read_rejects_out_of_bounds_and_unsorted_payloads() {
        // Hand-built image: 100 bits, one array container with position 100
        // (past the valid 100 bits) must be rejected.
        let mut buf: Vec<u8> = Vec::new();
        crate::io::write_u64(&mut buf, 100).unwrap();
        crate::io::write_u64(&mut buf, 1).unwrap();
        buf.push(0u8);
        crate::io::write_u32(&mut buf, 1).unwrap();
        buf.extend_from_slice(&100u16.to_le_bytes());
        assert!(<Adaptive as BitStore>::read_from(&mut buf.as_slice()).is_err());

        // Unsorted array.
        let mut buf: Vec<u8> = Vec::new();
        crate::io::write_u64(&mut buf, 100).unwrap();
        crate::io::write_u64(&mut buf, 1).unwrap();
        buf.push(0u8);
        crate::io::write_u32(&mut buf, 2).unwrap();
        buf.extend_from_slice(&9u16.to_le_bytes());
        buf.extend_from_slice(&3u16.to_le_bytes());
        assert!(<Adaptive as BitStore>::read_from(&mut buf.as_slice()).is_err());

        // Inverted run.
        let mut buf: Vec<u8> = Vec::new();
        crate::io::write_u64(&mut buf, 100).unwrap();
        crate::io::write_u64(&mut buf, 1).unwrap();
        buf.push(2u8);
        crate::io::write_u32(&mut buf, 1).unwrap();
        buf.extend_from_slice(&9u16.to_le_bytes());
        buf.extend_from_slice(&3u16.to_le_bytes());
        assert!(<Adaptive as BitStore>::read_from(&mut buf.as_slice()).is_err());

        // Array container claiming more than ARRAY_MAX entries: must fail
        // on the cap, not allocate.
        let mut buf: Vec<u8> = Vec::new();
        crate::io::write_u64(&mut buf, 100).unwrap();
        crate::io::write_u64(&mut buf, 1).unwrap();
        buf.push(0u8);
        crate::io::write_u32(&mut buf, u32::MAX).unwrap();
        assert!(<Adaptive as BitStore>::read_from(&mut buf.as_slice()).is_err());
    }
}

#[cfg(test)]
pub(crate) mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Mixed-texture vectors: per-chunk biased fills, runs and scatters.
    pub(crate) fn arb_textured() -> impl Strategy<Value = BitVec64> {
        (
            1usize..(2 * CHUNK_BITS + 1234),
            proptest::collection::vec((0usize..3, any::<u64>()), 1..4),
        )
            .prop_map(|(len, chunks)| {
                let mut v = BitVec64::zeros(len);
                for (c, (texture, seed)) in chunks.into_iter().enumerate() {
                    let base = c * CHUNK_BITS;
                    if base >= len {
                        break;
                    }
                    let top = (base + CHUNK_BITS).min(len);
                    let mut x = seed | 1;
                    let mut next = move || {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x
                    };
                    match texture {
                        0 => {
                            for _ in 0..(next() % 60) {
                                v.set(base + (next() as usize % (top - base)), true);
                            }
                        }
                        1 => {
                            let s = base + next() as usize % (top - base);
                            let e = (s + 1 + next() as usize % 30_000).min(top);
                            for i in s..e {
                                v.set(i, true);
                            }
                        }
                        _ => {
                            let step = 2 + (next() % 5) as usize;
                            for i in (base..top).step_by(step) {
                                v.set(i, true);
                            }
                        }
                    }
                }
                v
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn roundtrip(v in arb_textured()) {
            let a = Adaptive::encode(&v);
            prop_assert_eq!(broken_invariant(&v, &a), None);
            prop_assert_eq!(BitStore::count_ones(&a), v.count_ones());
        }

        #[test]
        fn one_pass_counts_the_ones_and_runs_bit_by_bit(v in arb_textured()) {
            let bits: Vec<bool> = (0..v.len()).map(|i| v.get(i)).collect();
            let runs = (0..bits.len()).filter(|&i| bits[i] && (i == 0 || !bits[i - 1])).count();
            prop_assert_eq!(ones_and_runs(v.words()), (v.count_ones(), runs));
        }

        #[test]
        fn ops_agree_with_plain(a in arb_textured(), b in arb_textured()) {
            let len = a.len().min(b.len());
            let ta = BitVec64::from_ones(len, a.iter_ones().filter(|&p| (p as usize) < len));
            let tb = BitVec64::from_ones(len, b.iter_ones().filter(|&p| (p as usize) < len));
            let (ea, eb) = (Adaptive::encode(&ta), Adaptive::encode(&tb));
            prop_assert_eq!(BitStore::and(&ea, &eb).decode(), ta.and(&tb));
            prop_assert_eq!(BitStore::or(&ea, &eb).decode(), ta.or(&tb));
            prop_assert_eq!(BitStore::xor(&ea, &eb).decode(), ta.xor(&tb));
            prop_assert_eq!(BitStore::not(&ea).decode(), ta.not());
        }

        #[test]
        fn mutated_image_never_panics(v in arb_textured(), pos in 0usize..4096, byte in any::<u8>()) {
            let a = Adaptive::encode(&v);
            let mut buf: Vec<u8> = Vec::new();
            a.write_to(&mut buf).unwrap();
            let i = pos % buf.len();
            buf[i] ^= byte;
            let _ = <Adaptive as BitStore>::read_from(&mut buf.as_slice());
        }
    }
}
