//! The method registry the oracle drives: every [`AccessMethod`] in the
//! workspace, plus the persistence-round-trip and row-append variants of
//! the families that support them.

use ibis_baseline::{BitstringAugmented, Mosaic, RTreeIncomplete, SequentialScan};
use ibis_bitmap::{
    for_each_pair, AppendEncoding, BitmapIndex, Encoding, Equality, PairVisitor, Range,
};
use ibis_bitvec::{Adaptive, Bbc, BitStore, BitVec64, Wah};
use ibis_core::{AccessMethod, Cell, Column, Dataset};
use ibis_vafile::{VaFile, VaPlusFile};
use std::sync::Arc;

/// One index rebuilt some other way than a one-shot build — read back from
/// its wire format, or grown row by row — or the error that stopped it,
/// which the checker reports as a failure.
type Variant<E> = (String, Result<Box<dyn AccessMethod>, E>);

/// Every access method in the workspace, bound where binding is needed —
/// the same list the engine-layer conformance suite uses: every bitmap
/// encoding over every backend, then the VA-files and the baselines — and,
/// beside it, every persistable family serialized and read back, which the
/// checker asserts answers exactly like the scan. The in-band match encoder
/// can refuse datasets it cannot represent, so a pair joins only when its
/// build succeeds; each pair is built once and feeds both lists.
pub fn methods_and_roundtripped(
    d: &Arc<Dataset>,
) -> (Vec<Box<dyn AccessMethod>>, Vec<Variant<std::io::Error>>) {
    struct Build<'a> {
        d: &'a Dataset,
        methods: Vec<Box<dyn AccessMethod>>,
        roundtripped: Vec<Variant<std::io::Error>>,
    }
    impl PairVisitor for Build<'_> {
        fn visit<E: Encoding, B: BitStore + 'static>(&mut self) {
            let Ok(built) = BitmapIndex::<E, B>::try_build(self.d) else {
                return;
            };
            let mut buf = Vec::new();
            let back = built
                .write_to(&mut buf)
                .and_then(|()| BitmapIndex::<E, B>::read_from(&mut buf.as_slice()))
                .map(|ix| Box::new(ix) as Box<dyn AccessMethod>);
            let name = format!("{}-{}/roundtrip", E::NAME, B::backend_name());
            self.roundtripped.push((name, back));
            self.methods.push(Box::new(built));
        }
    }
    let mut bitmaps = Build {
        d,
        methods: Vec::new(),
        roundtripped: Vec::new(),
    };
    for_each_pair(&mut bitmaps);
    let (mut methods, mut roundtripped) = (bitmaps.methods, bitmaps.roundtripped);

    let va = VaFile::build(d);
    let mut buf = Vec::new();
    let back = va
        .write_to(&mut buf)
        .and_then(|()| VaFile::read_from(&mut buf.as_slice()))
        .map(|va| Box::new(va.bind(Arc::clone(d))) as Box<dyn AccessMethod>);
    roundtripped.push(("va-file/roundtrip".to_string(), back));
    methods.push(Box::new(va.bind(Arc::clone(d))));
    methods.push(Box::new(VaPlusFile::build(d).bind(Arc::clone(d))));
    methods.push(Box::new(Mosaic::build(d)));
    methods.push(Box::new(RTreeIncomplete::build(d)));
    methods.push(Box::new(BitstringAugmented::build(d)));
    methods.push(Box::new(SequentialScan.bind(Arc::clone(d))));
    (methods, roundtripped)
}

/// A zero-row dataset with the same schema as `d` — the starting point for
/// the row-by-row append replay.
fn empty_like(d: &Dataset) -> Dataset {
    Dataset::new(
        d.columns()
            .iter()
            .map(|c| {
                Column::from_raw(c.name(), c.cardinality(), Vec::new())
                    .expect("empty column is valid")
            })
            .collect(),
    )
    .expect("empty schema clone is valid")
}

/// The appendable families, rebuilt by starting from the empty relation and
/// replaying every row of `d` through `append_row`; the result must answer
/// exactly like an index built over `d` in one shot.
pub fn appended(d: &Arc<Dataset>) -> Vec<Variant<ibis_core::Error>> {
    let empty = empty_like(d);
    let rows: Vec<Vec<Cell>> = (0..d.n_rows()).map(|r| d.row(r)).collect();

    fn replay<E: AppendEncoding, B: BitStore + 'static>(
        empty: &Dataset,
        rows: &[Vec<Cell>],
    ) -> Variant<ibis_core::Error> {
        let mut ix = BitmapIndex::<E, B>::build(empty);
        let ix = rows
            .iter()
            .try_for_each(|row| ix.append_row(row))
            .map(|()| Box::new(ix) as Box<dyn AccessMethod>);
        let name = format!("{}-{}/appended", E::NAME, B::backend_name());
        (name, ix)
    }
    fn backends<E: AppendEncoding>(
        empty: &Dataset,
        rows: &[Vec<Cell>],
    ) -> [Variant<ibis_core::Error>; 4] {
        [
            replay::<E, BitVec64>(empty, rows),
            replay::<E, Wah>(empty, rows),
            replay::<E, Bbc>(empty, rows),
            replay::<E, Adaptive>(empty, rows),
        ]
    }
    let mut out = Vec::from(backends::<Equality>(&empty, &rows));
    out.extend(backends::<Range>(&empty, &rows));

    let mut va = VaFile::build(&empty);
    let va = rows
        .iter()
        .try_for_each(|row| va.append_row(row))
        .map(|()| Box::new(va.bind(Arc::clone(d))) as Box<dyn AccessMethod>);
    out.push(("va-file/appended".to_string(), va));

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn registry_covers_every_family() {
        let d = Arc::new(gen::gen_case(1, 2).dataset);
        let (ms, _) = methods_and_roundtripped(&d);
        assert!(ms.len() >= 14, "registry shrank to {}", ms.len());
        let names: Vec<&str> = ms.iter().map(|m| m.name()).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        // Store variants of the same family share a name; just require the
        // major families to all be present.
        for family in ["scan", "va"] {
            assert!(
                names.iter().any(|n| n.contains(family)),
                "family {family} missing from {names:?}"
            );
        }
        assert!(unique.len() >= 8, "too few distinct names: {names:?}");
    }

    #[test]
    fn roundtrip_and_append_variants_build_on_a_normal_case() {
        let d = Arc::new(gen::gen_case(1, 0).dataset);
        for (name, m) in methods_and_roundtripped(&d).1 {
            assert!(m.is_ok(), "{name} failed to round-trip");
        }
        for (name, m) in appended(&d) {
            assert!(m.is_ok(), "{name} failed to append-replay");
        }
    }
}
