//! The one bitmap index type. [`BitmapIndex`] owns what every family
//! shares — per-attribute storage, the row count, building, size
//! accounting, query execution through [`crate::engine`], row appends and
//! the on-disk format — and an [`Encoding`] supplies what the paper varies:
//! which bitmaps are stored and how one interval is answered under the two
//! missing-data semantics.

use crate::engine;
use crate::size::{AttrSize, SizeReport};
use ibis_bitvec::{Adaptive, Bbc, BitStore, BitVec64, OpTally, Wah};
use ibis_core::{
    AccessMethod, Cell, Column, Dataset, Error, Interval, MissingPolicy, RangeQuery, Result,
    RowSet, WorkCounters,
};
use std::io;
use std::marker::PhantomData;
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

    /// The planner's §6 estimate: stored-bitmap reads for an interval of
    /// `w` values over a domain of `c`, given the attribute's
    /// [`AttrBitmaps::param`].
    fn reads_for(w: f64, c: f64, param: u16) -> f64;

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

/// An encoding whose stored bitmaps can grow one row at a time.
pub trait AppendEncoding: Encoding {
    /// The bit a new row with raw value `raw` (0 = missing) sets in
    /// `stored[k]`.
    fn stored_bit(k: usize, raw: u16) -> bool;
}

/// A bitmap index over an incomplete relation: encoding `E`'s bitmaps for
/// every attribute, held in backend `B`.
#[derive(Clone, Debug)]
pub struct BitmapIndex<E: Encoding, B: BitStore> {
    pub(crate) attrs: Vec<AttrBitmaps<B>>,
    pub(crate) n_rows: usize,
    /// Cached [`Self::words_per_read`]; appends replace it with a fresh cell.
    read_words: OnceLock<f64>,
    encoding: PhantomData<E>,
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl<E: Encoding, B: BitStore> BitmapIndex<E, B> {
    fn new(attrs: Vec<AttrBitmaps<B>>, n_rows: usize) -> Self {
        BitmapIndex {
            attrs,
            n_rows,
            read_words: OnceLock::new(),
            encoding: PhantomData,
        }
    }

    /// Builds every column with `build_attr`, fanned over `n_threads`.
    pub(crate) fn from_columns(
        dataset: &Dataset,
        n_threads: usize,
        build_attr: impl Fn(&Column) -> AttrBitmaps<B> + Sync,
    ) -> Result<Self> {
        for (attr, col) in dataset.columns().iter().enumerate() {
            if let Some(reason) = E::unrepresentable(col) {
                return Err(Error::UnrepresentableColumn { attr, reason });
            }
        }
        let attrs = ibis_core::parallel::ExecPool::new(n_threads)
            .scoped_map(dataset.columns().iter().collect(), build_attr);
        Ok(Self::new(attrs, dataset.n_rows()))
    }

    /// Builds the index over every column of `dataset`.
    ///
    /// # Panics
    /// Panics if the encoding cannot represent a column (see
    /// [`Self::try_build`]); of the encodings in this crate only
    /// [`crate::rejected::MissingAsOnes`] ever refuses one.
    pub fn build(dataset: &Dataset) -> Self {
        Self::build_parallel(dataset, 1)
    }

    /// Like [`Self::build`], but fanning columns over `n_threads` OS
    /// threads (the paper's synthetic set has 450 independent attributes).
    pub fn build_parallel(dataset: &Dataset, n_threads: usize) -> Self {
        Self::from_columns(dataset, n_threads, E::build_attr).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the index, or reports the first column the encoding cannot
    /// represent.
    ///
    /// # Errors
    /// [`Error::UnrepresentableColumn`] — under the in-band all-ones
    /// encoding a cardinality-1 attribute with missing data cannot tell
    /// "value 1" from "missing" (the paper's objection #2).
    pub fn try_build(dataset: &Dataset) -> Result<Self> {
        Self::from_columns(dataset, 1, E::build_attr)
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

    /// Mean 64-bit words one stored-bitmap read is charged — the unit the
    /// planner's cost estimates are stated in, taken from the same tally as
    /// the counter they predict. For the plain, WAH and BBC backends this is
    /// exactly the uncompressed `⌈n/64⌉` of the paper's §6 rules; for the
    /// adaptive backend it scales with the index's compression. Summed once
    /// per index, not once per plan.
    fn words_per_read(&self) -> f64 {
        *self.read_words.get_or_init(|| match self.n_bitmaps() {
            0 => self.n_rows.div_ceil(64) as f64,
            n => self.stored_tally().words as f64 / n as f64,
        })
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

    /// Appends one record in place: every stored bitmap grows by one bit
    /// (`O(Σ C_i)` pushes; with the WAH backend each push is amortized
    /// O(1)). The first missing value on a previously-complete attribute
    /// materializes its `B_0`, all-zeros so far.
    ///
    /// # Errors
    /// Rejects rows of the wrong width or with out-of-domain values,
    /// leaving the index unchanged.
    pub fn append_row(&mut self, row: &[Cell]) -> Result<()>
    where
        E: AppendEncoding,
    {
        ibis_core::validate_row(row, |a| self.attrs[a].cardinality, self.attrs.len())?;
        for (&cell, a) in row.iter().zip(&mut self.attrs) {
            let raw = cell.raw();
            if raw == 0 && a.missing.is_none() {
                a.missing = Some(B::zeros(self.n_rows));
            }
            if let Some(m) = &mut a.missing {
                m.push_bit(raw == 0);
            }
            for (k, b) in a.stored.iter_mut().enumerate() {
                b.push_bit(E::stored_bit(k, raw));
            }
        }
        self.n_rows += 1;
        self.read_words = OnceLock::new();
        Ok(())
    }
}

impl<E: Encoding, B: BitStore> AccessMethod for BitmapIndex<E, B> {
    fn name(&self) -> &'static str {
        E::NAME
    }

    fn supports(&self, query: &RangeQuery) -> bool {
        E::supports(query.policy())
    }

    fn execute_with_cost(&self, query: &RangeQuery) -> Result<(RowSet, WorkCounters)> {
        self.execute_with_cost_threads(query, 1)
    }

    fn execute_with_cost_threads(
        &self,
        query: &RangeQuery,
        threads: usize,
    ) -> Result<(RowSet, WorkCounters)> {
        let (acc, cost) = engine::run(self, query, threads, engine::and_rows)?;
        let rows = match acc {
            None => RowSet::all(self.n_rows as u32),
            Some(b) => RowSet::from_sorted(b.ones_positions()),
        };
        Ok((rows, cost))
    }

    fn size_bytes(&self) -> usize {
        BitmapIndex::size_bytes(self)
    }

    // A COUNT(*) with the last AND fused into the population count:
    // neither the final bitmap nor any row id is materialized.
    fn execute_count(&self, query: &RangeQuery) -> Result<usize> {
        let (count, _) = engine::run(self, query, 1, engine::and_count)?;
        Ok(count.unwrap_or(self.n_rows))
    }

    // The encoding's per-predicate read estimate summed over the search key
    // and scaled to words; out-of-schema predicates price as infinite so
    // the planner never picks a method that would just error.
    fn estimated_cost(&self, query: &RangeQuery) -> f64 {
        let wpr = self.words_per_read();
        query
            .predicates()
            .iter()
            .map(|p| {
                let Some(a) = self.attrs.get(p.attr) else {
                    return f64::INFINITY;
                };
                let c = a.cardinality as f64;
                let w = (p.interval.hi.saturating_sub(p.interval.lo)) as f64 + 1.0;
                if w > c {
                    return f64::INFINITY;
                }
                E::reads_for(w, c, a.param) * wpr
            })
            .sum()
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
        for a in &self.attrs {
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
