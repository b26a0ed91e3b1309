//! The one bitmap index type. [`BitmapIndex`] owns what every family
//! shares — per-attribute storage, the row count, building, size
//! accounting, query execution through [`crate::engine`] and the on-disk
//! format — and an [`Encoding`] supplies what the paper varies:
//! which bitmaps are stored and how one interval is answered under the two
//! missing-data semantics.

use crate::engine;
use crate::size::{AttrSize, SizeReport};
use ibis_bitvec::{Adaptive, Bbc, BitStore, BitVec64, OpTally, Wah};
use ibis_core::{
    AccessMethod, Answer, Column, Dataset, Error, Interval, MissingPolicy, RangeQuery, Result,
    WorkCounters,
};
use std::io;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::OnceLock;

/// One attribute's share of an index: the bitmaps its encoding stores.
#[derive(Clone, Debug)]
pub struct AttrBitmaps<B> {
    /// Domain size `C` of the attribute.
    pub cardinality: u16,
    /// The encoding's per-attribute parameter: the interval encoding's
    /// window width, the decomposition's digit base, the in-band encodings'
    /// "column has missing rows" flag; 0 for encodings that need none.
    pub param: u16,
    /// `B_{i,0}`, the missing-rows bitmap; `None` when the column has no
    /// missing rows (the paper only adds the extra bitmap "for each
    /// attribute with missing data") or the encoding keeps none.
    pub missing: Option<B>,
    /// The encoding's own bitmaps, in the order the encoding defines.
    pub stored: Vec<B>,
}

/// Fixed price of one stored-bitmap read, in plain-kernel words: the call
/// and the container loop around even a tiny operand (6–9 ns per
/// `or_into` of a one-entry array on a 2-vCPU Xeon VM).
pub(crate) const READ_PRICE: f64 = 40.0;

/// Fixed price of a fresh accumulator (42–80 ns to allocate a small one)…
pub(crate) const FRESH_PRICE: f64 = 250.0;

/// …plus its zero-fill, per word (0.07–0.1 ns).
pub(crate) const FRESH_WORD_PRICE: f64 = 0.4;

/// One NOT or AND pass over a plain accumulator, per word: the unit.
pub(crate) const PASS_WORD_PRICE: f64 = 1.0;

/// Every attribute's read prices ([`BitStore::read_price`]), summed once
/// per index.
#[derive(Clone, Debug)]
struct PriceTable {
    attrs: Vec<AttrSums>,
    /// Words of one plain accumulator, `⌈n/64⌉`.
    words: f64,
}

/// One attribute's entry of the [`PriceTable`], in `f32`: the prices are
/// estimates, and the table stays half the size.
#[derive(Clone, Debug)]
struct AttrSums {
    cardinality: u16,
    param: u16,
    /// `B_0`'s read price, when the attribute stores one.
    missing: Option<f32>,
    /// `prefix[j]` is the summed read price of `stored[..j]`.
    prefix: Vec<f32>,
}

impl PriceTable {
    fn of<B: BitStore>(attrs: &[AttrBitmaps<B>], n_rows: usize) -> PriceTable {
        let attrs = attrs
            .iter()
            .map(|a| {
                let mut sum = 0.0;
                let mut prefix = vec![0.0];
                for b in &a.stored {
                    sum += b.read_price();
                    prefix.push(sum as f32);
                }
                AttrSums {
                    cardinality: a.cardinality,
                    param: a.param,
                    missing: a.missing.as_ref().map(|b| b.read_price() as f32),
                    prefix,
                }
            })
            .collect();
        PriceTable {
            attrs,
            words: n_rows.div_ceil(64) as f64,
        }
    }

    #[inline]
    fn attr(&self, a: usize) -> Option<AttrPrices<'_>> {
        Some(AttrPrices {
            sums: self.attrs.get(a)?,
            words: self.words,
        })
    }
}

/// One attribute's read prices ([`BitStore::read_price`]), summed once per
/// index: what an [`Encoding`] prices its intervals from.
#[derive(Clone, Copy, Debug)]
pub struct AttrPrices<'a> {
    sums: &'a AttrSums,
    words: f64,
}

impl AttrPrices<'_> {
    /// Domain size `C` of the attribute.
    pub fn cardinality(&self) -> u16 {
        self.sums.cardinality
    }

    /// The encoding's per-attribute parameter ([`AttrBitmaps::param`]).
    pub fn param(&self) -> u16 {
        self.sums.param
    }

    /// Read price of `B_0`, when the attribute stores one.
    pub fn missing(&self) -> Option<f64> {
        self.sums.missing.map(f64::from)
    }

    /// The summed read price of `stored[range]`.
    pub fn stored(&self, range: Range<usize>) -> f64 {
        let prefix = &self.sums.prefix;
        (prefix[range.end] - prefix[range.start]) as f64
    }

    /// A fresh accumulator and nothing read yet: where every interval
    /// evaluation starts.
    pub fn fresh(&self) -> Price {
        Price {
            reads: 0,
            units: FRESH_PRICE + FRESH_WORD_PRICE * self.words,
            words: self.words,
        }
    }

    /// `reads` reads at the attribute's mean read price into a fresh
    /// accumulator — the §6 read count, priced, for an encoding that does
    /// not price its bitmaps one by one.
    pub fn by_mean(&self, reads: usize) -> Price {
        let stored = self.sums.prefix.len() - 1;
        let n = stored + self.missing().is_some() as usize;
        let total = self.stored(0..stored) + self.missing().unwrap_or(0.0);
        let mean = if n == 0 { self.words } else { total / n as f64 };
        self.fresh().reads(reads, reads as f64 * mean)
    }
}

/// The planner's price of one interval evaluation ([`Encoding::price`]).
#[derive(Clone, Copy, Debug)]
pub struct Price {
    /// Stored bitmaps read: what the evaluation adds to
    /// `WorkCounters::bitmaps_accessed`.
    pub reads: usize,
    /// The evaluation's time, in plain-kernel words.
    pub units: f64,
    /// Words of the accumulator the passes run over.
    words: f64,
}

impl Price {
    /// Adds one read of a stored bitmap whose read price is `price`.
    pub fn read(self, price: f64) -> Price {
        self.reads(1, price)
    }

    /// Adds `n` stored-bitmap reads whose read prices sum to `total`.
    pub fn reads(self, n: usize, total: f64) -> Price {
        Price {
            reads: self.reads + n,
            units: self.units + n as f64 * READ_PRICE + total,
            ..self
        }
    }

    /// Adds one NOT pass over the accumulator.
    pub fn not_pass(self) -> Price {
        Price {
            units: self.units + PASS_WORD_PRICE * self.words,
            ..self
        }
    }
}

/// What the paper varies between bitmap indexes (§4.2, §4.3): which bitmaps
/// are stored for a column and how an interval is answered from them under
/// the two missing-data semantics. Everything else is [`BitmapIndex`].
pub trait Encoding: Copy + std::fmt::Debug + Send + Sync + 'static {
    /// File magic of a saved index of this encoding.
    const MAGIC: &'static [u8; 4];

    /// The access-method name the planner and `explain()` report for this
    /// encoding, over whichever backend it is stored in.
    const NAME: &'static str;

    /// Builds one column's bitmaps in one pass over its rows.
    fn build_attr<B: BitStore>(col: &Column) -> AttrBitmaps<B>;

    /// Answers one in-domain interval over one attribute of an `n_rows`-row
    /// index, as a plain accumulator the stored bitmaps were combined into.
    /// Every stored bitmap read and every logical operation goes through
    /// the charged operations of [`crate::engine`], so `cost` carries the
    /// work.
    fn interval<B: BitStore>(
        a: &AttrBitmaps<B>,
        n_rows: usize,
        iv: Interval,
        policy: MissingPolicy,
        cost: &mut WorkCounters,
    ) -> BitVec64;

    /// The planner's price of [`Encoding::interval`] over one in-domain
    /// interval: a fresh accumulator, every stored bitmap the evaluation
    /// reads at its read price, and its NOT passes. An encoding that does
    /// not price its bitmaps one by one charges its §6 read count at the
    /// attribute's mean ([`AttrPrices::by_mean`]).
    fn price(p: &AttrPrices<'_>, iv: Interval, policy: MissingPolicy) -> Price;

    /// How many bitmaps [`AttrBitmaps::stored`] holds for an attribute of
    /// this shape, or `None` when the encoding never writes that shape — the
    /// loader's check on a file's per-attribute header.
    fn stored_count(cardinality: u16, param: u16, has_b0: bool) -> Option<usize>;

    /// Whether the encoding answers queries under `policy`. Only the §4.2
    /// in-band encodings hard-wire one semantics.
    fn supports(policy: MissingPolicy) -> bool {
        let _ = policy;
        true
    }

    /// Why `col` cannot be indexed under this encoding, if it cannot.
    fn unrepresentable(col: &Column) -> Option<&'static str> {
        let _ = col;
        None
    }
}

/// A bitmap index over an incomplete relation: encoding `E`'s bitmaps for
/// every attribute, held in backend `B`.
#[derive(Clone, Debug)]
pub struct BitmapIndex<E: Encoding, B: BitStore> {
    pub(crate) attrs: Vec<AttrBitmaps<B>>,
    pub(crate) n_rows: usize,
    /// Cached [`Self::prices`], built by the first estimate.
    prices: OnceLock<PriceTable>,
    encoding: PhantomData<E>,
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl<E: Encoding, B: BitStore> BitmapIndex<E, B> {
    pub(crate) fn new(attrs: Vec<AttrBitmaps<B>>, n_rows: usize) -> Self {
        BitmapIndex {
            attrs,
            n_rows,
            prices: OnceLock::new(),
            encoding: PhantomData,
        }
    }

    /// Builds every column with `build_attr`.
    pub(crate) fn from_columns(
        dataset: &Dataset,
        build_attr: impl Fn(&Column) -> AttrBitmaps<B>,
    ) -> Result<Self> {
        for (attr, col) in dataset.columns().iter().enumerate() {
            if let Some(reason) = E::unrepresentable(col) {
                return Err(Error::UnrepresentableColumn { attr, reason });
            }
        }
        let attrs = dataset.columns().iter().map(build_attr).collect();
        Ok(Self::new(attrs, dataset.n_rows()))
    }

    /// Builds the index over every column of `dataset`.
    ///
    /// # Panics
    /// Panics if the encoding cannot represent a column (see
    /// [`Self::try_build`]); of the encodings in this crate only
    /// [`crate::rejected::MissingAsOnes`] ever refuses one.
    pub fn build(dataset: &Dataset) -> Self {
        Self::try_build(dataset).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the index, or reports the first column the encoding cannot
    /// represent.
    ///
    /// # Errors
    /// [`Error::UnrepresentableColumn`] — under the in-band all-ones
    /// encoding a cardinality-1 attribute with missing data cannot tell
    /// "value 1" from "missing" (the paper's objection #2).
    pub fn try_build(dataset: &Dataset) -> Result<Self> {
        Self::from_columns(dataset, E::build_attr)
    }

    /// Number of indexed rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of indexed attributes.
    pub fn n_attrs(&self) -> usize {
        self.attrs.len()
    }

    /// Every stored bitmap, `B_0`s included.
    fn bitmaps(&self) -> impl Iterator<Item = &B> {
        self.attrs
            .iter()
            .flat_map(|a| a.stored.iter().chain(a.missing.iter()))
    }

    /// Total number of stored bitmaps.
    pub fn n_bitmaps(&self) -> usize {
        self.bitmaps().count()
    }

    /// Per-attribute and total size accounting.
    pub fn size_report(&self) -> SizeReport {
        let per_attr = self
            .attrs
            .iter()
            .enumerate()
            .map(|(attr, a)| {
                let stored = a.stored.iter().chain(a.missing.iter());
                let bytes = stored.clone().map(B::size_bytes).sum();
                AttrSize::new(attr, stored.count(), bytes, self.n_rows)
            })
            .collect();
        SizeReport { per_attr }
    }

    /// Total bytes of all stored bitmaps.
    pub fn size_bytes(&self) -> usize {
        self.size_report().total_bytes()
    }

    /// What one read of every stored bitmap touches: the payload words and,
    /// over the adaptive backend, how many stored containers sit in each
    /// shape — the census the containers experiment reports.
    pub fn stored_tally(&self) -> OpTally {
        let mut tally = OpTally::default();
        self.bitmaps().for_each(|b| b.tally_read(&mut tally));
        tally
    }

    /// Every attribute's read prices, summed once per index, not once per
    /// plan.
    fn prices(&self) -> &PriceTable {
        self.prices
            .get_or_init(|| PriceTable::of(&self.attrs, self.n_rows))
    }

    /// Evaluates one interval over one attribute, accumulating bitmap
    /// reads, logical operations and their read tallies into `cost`.
    ///
    /// # Panics
    /// Panics if `attr` or the interval is out of range;
    /// [`AccessMethod::execute`] validates first.
    pub fn evaluate_interval(
        &self,
        attr: usize,
        iv: Interval,
        policy: MissingPolicy,
        cost: &mut WorkCounters,
    ) -> BitVec64 {
        let a = &self.attrs[attr];
        assert!(
            iv.lo >= 1 && iv.hi <= a.cardinality,
            "interval [{},{}] outside domain 1..={}",
            iv.lo,
            iv.hi,
            a.cardinality
        );
        E::interval(a, self.n_rows, iv, policy, cost)
    }
}

impl<E: Encoding, B: BitStore> AccessMethod for BitmapIndex<E, B> {
    fn name(&self) -> &'static str {
        E::NAME
    }

    fn supports(&self, query: &RangeQuery) -> bool {
        E::supports(query.policy())
    }

    // The predicates run in a plain loop at every degree, so `threads` is
    // not consulted; the answer is the final bitmap itself (every row for
    // an empty search key).
    fn answer(&self, query: &RangeQuery, _threads: usize) -> Result<(Answer, WorkCounters)> {
        let (acc, cost) = engine::run(self, query, engine::and_rows)?;
        let bits = acc.unwrap_or_else(|| BitVec64::ones(self.n_rows));
        Ok((Answer::Bits(bits), cost))
    }

    fn size_bytes(&self) -> usize {
        BitmapIndex::size_bytes(self)
    }

    // A COUNT(*) with the last AND fused into the population count:
    // neither the final bitmap nor any row id is materialized.
    fn execute_count_with_cost(&self, query: &RangeQuery) -> Result<(usize, WorkCounters)> {
        let (count, cost) = engine::run(self, query, engine::and_count)?;
        Ok((count.unwrap_or(self.n_rows), cost))
    }

    // The encoding's price of each predicate's interval plus the k − 1
    // ANDs of the reduce, in plain-kernel words; out-of-schema predicates
    // price as infinite so the planner never picks a method that would
    // just error.
    fn estimated_cost(&self, query: &RangeQuery) -> f64 {
        let prices = self.prices();
        let ands = query.dimensionality().saturating_sub(1) as f64;
        let reduce = ands * PASS_WORD_PRICE * prices.words;
        let intervals: f64 = query
            .predicates()
            .iter()
            .map(|p| match prices.attr(p.attr) {
                Some(a) if p.interval.hi <= a.cardinality() => {
                    E::price(&a, p.interval, query.policy()).units
                }
                _ => f64::INFINITY,
            })
            .sum();
        intervals + reduce
    }
}

/// Index file format version, shared by every encoding: magic, version,
/// backend name, row and attribute counts, then per attribute its
/// cardinality, parameter, optional `B_0` and stored bitmaps. Version 3
/// sizes an adaptive bitmap container to its chunk; a version-2 adaptive
/// file padded every one to a full chunk.
const VERSION: u16 = 3;

/// Reads the part of an index file that says what it is: the magic and the
/// backend name.
fn read_preamble(r: &mut impl io::Read) -> io::Result<([u8; 4], String)> {
    use ibis_core::wire::*;
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    let version = read_u16(r)?;
    if version != VERSION {
        return Err(invalid(format!(
            "index format version {version}, this build reads version {VERSION}"
        )));
    }
    // Backend names are a few bytes; a length beyond that is corruption,
    // refused before anything is read or reserved for it.
    let len = read_len(r)?;
    if len > 32 {
        return Err(invalid("backend name length out of range"));
    }
    let mut name = vec![0u8; len];
    r.read_exact(&mut name)?;
    let name = String::from_utf8(name).map_err(|e| invalid(e.to_string()))?;
    Ok((magic, name))
}

impl<E: Encoding, B: BitStore> BitmapIndex<E, B> {
    /// Serializes the index (paper metric: "size of the requisite index
    /// files on disk").
    pub fn write_to(&self, w: &mut impl io::Write) -> io::Result<()> {
        use ibis_core::wire::*;
        write_header(w, E::MAGIC, VERSION)?;
        write_str(w, B::backend_name())?;
        write_len(w, self.n_rows)?;
        write_len(w, self.attrs.len())?;
        for a in self.attrs.iter() {
            write_u16(w, a.cardinality)?;
            write_u16(w, a.param)?;
            write_u8(w, a.missing.is_some() as u8)?;
            if let Some(m) = &a.missing {
                m.write_to(w)?;
            }
            write_len(w, a.stored.len())?;
            for b in &a.stored {
                b.write_to(w)?;
            }
        }
        Ok(())
    }

    /// Deserializes an index written by [`Self::write_to`]. The encoding
    /// and the backend recorded in the file must match `E` and `B`.
    pub fn read_from(r: &mut impl io::Read) -> io::Result<Self> {
        let (magic, backend) = read_preamble(r)?;
        if &magic != E::MAGIC {
            return Err(invalid(format!(
                "bad magic {magic:02x?}, expected {:02x?}",
                E::MAGIC
            )));
        }
        if backend != B::backend_name() {
            return Err(invalid(format!(
                "index stored with backend {backend:?}, loading as {:?}",
                B::backend_name()
            )));
        }
        Self::read_body(r)
    }

    /// Reads everything after the preamble, trusting none of it.
    fn read_body(r: &mut impl io::Read) -> io::Result<Self> {
        use ibis_core::wire::*;
        let (n_rows, n_attrs) = (read_len(r)?, read_len(r)?);
        let mut attrs = Vec::with_capacity(n_attrs.min(1 << 20));
        for _ in 0..n_attrs {
            let cardinality = read_u16(r)?;
            if cardinality == 0 {
                return Err(invalid("zero cardinality in index file"));
            }
            let param = read_u16(r)?;
            let missing = match read_u8(r)? {
                0 => None,
                _ => Some(B::read_from(r)?),
            };
            let n_stored = read_len(r)?;
            if E::stored_count(cardinality, param, missing.is_some()) != Some(n_stored) {
                return Err(invalid(
                    "bitmap count disagrees with cardinality and encoding parameter",
                ));
            }
            // Validated against the u16 cardinality above, but keep the
            // preallocation capped so a corrupt header can never trigger an
            // unbounded reservation (same guard as `BitVec64::read_from`).
            let mut stored = Vec::with_capacity(n_stored.min(1 << 16));
            for _ in 0..n_stored {
                stored.push(B::read_from(r)?);
            }
            if stored
                .iter()
                .chain(missing.iter())
                .any(|b| b.len() != n_rows)
            {
                return Err(invalid("bitmap length disagrees with row count"));
            }
            attrs.push(AttrBitmaps {
                cardinality,
                param,
                missing,
                stored,
            });
        }
        Ok(Self::new(attrs, n_rows))
    }

    /// Writes the index to `path` (buffered).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut w)?;
        io::Write::flush(&mut w)
    }

    /// Reads an index from `path` (buffered).
    pub fn load(path: impl AsRef<std::path::Path>) -> io::Result<Self> {
        Self::read_from(&mut io::BufReader::new(std::fs::File::open(path)?))
    }
}

/// Something to do for one (encoding, backend) pair; see [`for_each_pair`].
pub trait PairVisitor {
    /// Called once per pair.
    fn visit<E: Encoding, B: BitStore + 'static>(&mut self);
}

/// Calls `v` for every encoding of this crate over every backend of
/// `ibis-bitvec` — the one enumeration behind the dynamic loader, the
/// oracle's registry and the conformance suites.
pub fn for_each_pair(v: &mut impl PairVisitor) {
    fn backends<E: Encoding>(v: &mut impl PairVisitor) {
        v.visit::<E, BitVec64>();
        v.visit::<E, Wah>();
        v.visit::<E, Bbc>();
        v.visit::<E, Adaptive>();
    }
    backends::<crate::Equality>(v);
    backends::<crate::Range>(v);
    backends::<crate::IntervalWindows>(v);
    backends::<crate::Decomposed>(v);
    backends::<crate::rejected::MissingAsOnes>(v);
    backends::<crate::rejected::MissingAsZeros>(v);
}

/// Loads a saved index of whichever encoding and backend its header names,
/// as an engine-layer [`AccessMethod`], with the number of rows it covers.
pub fn read_any(r: &mut impl io::Read) -> io::Result<(usize, Box<dyn AccessMethod>)> {
    struct Load<'a, R> {
        magic: [u8; 4],
        backend: String,
        r: &'a mut R,
        out: Option<io::Result<(usize, Box<dyn AccessMethod>)>>,
    }
    impl<R: io::Read> PairVisitor for Load<'_, R> {
        fn visit<E: Encoding, B: BitStore + 'static>(&mut self) {
            if E::MAGIC == &self.magic && B::backend_name() == self.backend {
                let ix = BitmapIndex::<E, B>::read_body(self.r);
                self.out = Some(ix.map(|ix| (ix.n_rows, Box::new(ix) as _)));
            }
        }
    }
    let (magic, backend) = read_preamble(r)?;
    let mut load = Load {
        magic,
        backend,
        r,
        out: None,
    };
    for_each_pair(&mut load);
    load.out.unwrap_or_else(|| {
        Err(invalid(format!(
            "unrecognized index magic {:02x?} or backend {:?}",
            load.magic, load.backend
        )))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Equality, Range};
    use ibis_core::gen::census_scaled;
    use ibis_core::Predicate;

    /// Every interval of every attribute, under both semantics: the stored
    /// bitmaps `E::price` charges are exactly those `E::interval` reads.
    fn price_reads_what_execution_reads<E: Encoding>() {
        let ix = BitmapIndex::<E, Adaptive>::build(&census_scaled(300, 5));
        for (attr, a) in ix.attrs.iter().enumerate() {
            let p = ix.prices().attr(attr).expect("in the schema");
            for policy in MissingPolicy::ALL {
                for lo in 1..=a.cardinality {
                    for hi in lo..=a.cardinality {
                        let iv = Interval::new(lo, hi);
                        let mut cost = WorkCounters::zero();
                        E::interval(a, ix.n_rows, iv, policy, &mut cost);
                        let priced = E::price(&p, iv, policy);
                        assert_eq!(
                            priced.reads,
                            cost.bitmaps_accessed,
                            "{} attr {attr} [{lo},{hi}] {policy}",
                            E::NAME
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bee_prices_the_bitmaps_it_reads() {
        price_reads_what_execution_reads::<Equality>();
    }

    #[test]
    fn bre_prices_the_bitmaps_it_reads() {
        price_reads_what_execution_reads::<Range>();
    }

    #[test]
    fn bie_prices_the_bitmaps_it_reads() {
        price_reads_what_execution_reads::<crate::IntervalWindows>();
    }

    #[test]
    fn points_favour_equality_and_prefix_ranges_favour_range_encoding() {
        let d = census_scaled(2_000, 6);
        let bee = BitmapIndex::<Equality, Adaptive>::build(&d);
        let bre = BitmapIndex::<Range, Adaptive>::build(&d);
        let attr = (0..d.n_attrs())
            .find(|&a| d.column(a).cardinality() >= 20 && d.column(a).missing_count() > 0)
            .expect("a wide attribute with missing rows");
        let c = d.column(attr).cardinality();
        let q = |p| RangeQuery::new(vec![p], MissingPolicy::IsMatch).unwrap();
        // BEE reads `B_v` and `B_0` for the point and half the domain for
        // the range; BRE reads three thresholds for the point and one for
        // the range.
        let point = q(Predicate::point(attr, c / 2));
        let half = q(Predicate::range(attr, 1, c / 2));
        assert!(bee.estimated_cost(&point) < bee.estimated_cost(&half));
        assert!(bre.estimated_cost(&half) < bre.estimated_cost(&point));
    }

    #[test]
    fn the_price_table_is_built_once_per_index() {
        let d = census_scaled(200, 7);
        let ix = BitmapIndex::<Equality, Adaptive>::build(&d);
        let q = RangeQuery::new(vec![Predicate::point(0, 1)], MissingPolicy::IsMatch).unwrap();
        assert!(ix.prices.get().is_none(), "built before it is asked for");
        let first = ix.estimated_cost(&q);
        let table = ix
            .prices
            .get()
            .expect("built by the first estimate")
            .attrs
            .as_ptr();
        assert_eq!(ix.estimated_cost(&q), first);
        assert_eq!(
            ix.prices.get().unwrap().attrs.as_ptr(),
            table,
            "built twice"
        );
    }
}
