//! The method registry the oracle drives: every [`AccessMethod`] in the
//! workspace, plus the persistence-round-trip and row-append variants of
//! the families that support them.

use ibis_baseline::{BitstringAugmented, Mosaic, RTreeIncomplete, SequentialScan};
use ibis_bitmap::rejected::{InBandMatchEquality, InBandNotMatchEquality};
use ibis_bitmap::{
    DecomposedBitmapIndex, EqualityBitmapIndex, IntervalBitmapIndex, RangeBitmapIndex,
};
use ibis_bitvec::{Adaptive, Bbc, BitVec64, Wah};
use ibis_core::{AccessMethod, Column, Dataset};
use ibis_vafile::{VaFile, VaPlusFile};
use std::sync::Arc;

/// Every access method in the workspace, bound where binding is needed —
/// the same list the engine-layer conformance suite uses. The in-band
/// match encoder can refuse datasets it cannot represent, so it joins
/// only when its build succeeds.
pub fn methods(d: &Arc<Dataset>) -> Vec<Box<dyn AccessMethod>> {
    let mut methods: Vec<Box<dyn AccessMethod>> = vec![
        Box::new(EqualityBitmapIndex::<Wah>::build(d)),
        Box::new(EqualityBitmapIndex::<BitVec64>::build(d)),
        Box::new(EqualityBitmapIndex::<Bbc>::build(d)),
        Box::new(EqualityBitmapIndex::<Adaptive>::build(d)),
        Box::new(RangeBitmapIndex::<Wah>::build(d)),
        Box::new(RangeBitmapIndex::<Bbc>::build(d)),
        Box::new(RangeBitmapIndex::<Adaptive>::build(d)),
        Box::new(IntervalBitmapIndex::<Wah>::build(d)),
        Box::new(DecomposedBitmapIndex::<Wah>::build(d)),
        Box::new(InBandNotMatchEquality::<Wah>::build(d)),
        Box::new(VaFile::build(d).bind(Arc::clone(d))),
        Box::new(VaPlusFile::build(d).bind(Arc::clone(d))),
        Box::new(Mosaic::build(d)),
        Box::new(RTreeIncomplete::build(d)),
        Box::new(BitstringAugmented::build(d)),
        Box::new(SequentialScan.bind(Arc::clone(d))),
    ];
    if let Ok(im) = InBandMatchEquality::<Wah>::try_build(d) {
        methods.push(Box::new(im));
    }
    methods
}

/// Round-trips one index through its wire format and returns the loaded
/// copy (or the I/O error, which the checker reports as a failure).
fn roundtrip<T, B, R>(
    built: T,
    write: impl Fn(&T, &mut Vec<u8>) -> std::io::Result<()>,
    read: R,
) -> std::io::Result<B>
where
    R: Fn(&mut &[u8]) -> std::io::Result<B>,
{
    let mut buf = Vec::new();
    write(&built, &mut buf)?;
    read(&mut buf.as_slice())
}

/// Every persistable family, built over `d`, serialized, and read back.
/// The checker asserts the loaded copies answer exactly like the scan.
pub fn roundtripped(
    d: &Arc<Dataset>,
) -> Vec<(&'static str, std::io::Result<Box<dyn AccessMethod>>)> {
    // Every bitmap `<family>::<backend>` pair persists the same way.
    macro_rules! bitmap {
        ($name:literal, $ty:ty) => {
            (
                $name,
                roundtrip(
                    <$ty>::build(d),
                    |i, buf| i.write_to(buf),
                    |r| <$ty>::read_from(r),
                )
                .map(|i| Box::new(i) as Box<dyn AccessMethod>),
            )
        };
    }
    vec![
        bitmap!("bee-wah/roundtrip", EqualityBitmapIndex<Wah>),
        bitmap!("bee-bbc/roundtrip", EqualityBitmapIndex<Bbc>),
        bitmap!("bee-adaptive/roundtrip", EqualityBitmapIndex<Adaptive>),
        bitmap!("bre-wah/roundtrip", RangeBitmapIndex<Wah>),
        bitmap!("bre-adaptive/roundtrip", RangeBitmapIndex<Adaptive>),
        bitmap!("bie-wah/roundtrip", IntervalBitmapIndex<Wah>),
        bitmap!("dec-wah/roundtrip", DecomposedBitmapIndex<Wah>),
        (
            "va-file/roundtrip",
            roundtrip(
                VaFile::build(d),
                |i, buf| i.write_to(buf),
                |r| VaFile::read_from(r),
            )
            .map(|i| Box::new(i.bind(Arc::clone(d))) as Box<dyn AccessMethod>),
        ),
    ]
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
pub fn appended(d: &Arc<Dataset>) -> Vec<(&'static str, ibis_core::Result<Box<dyn AccessMethod>>)> {
    let empty = empty_like(d);
    let rows: Vec<Vec<ibis_core::Cell>> = (0..d.n_rows()).map(|r| d.row(r)).collect();

    let mut out: Vec<(&'static str, ibis_core::Result<Box<dyn AccessMethod>>)> = Vec::new();

    // Every appendable bitmap `<family>::<backend>` pair replays the same way.
    macro_rules! bitmap {
        ($name:literal, $ty:ty) => {{
            let mut ix = <$ty>::build(&empty);
            let ix = rows
                .iter()
                .try_for_each(|row| ix.append_row(row))
                .map(|()| Box::new(ix) as Box<dyn AccessMethod>);
            out.push(($name, ix));
        }};
    }
    bitmap!("bee-wah/appended", EqualityBitmapIndex<Wah>);
    bitmap!("bee-adaptive/appended", EqualityBitmapIndex<Adaptive>);
    bitmap!("bre-wah/appended", RangeBitmapIndex<Wah>);
    bitmap!("bre-adaptive/appended", RangeBitmapIndex<Adaptive>);

    let mut va = VaFile::build(&empty);
    let va = rows
        .iter()
        .try_for_each(|row| va.append_row(row))
        .map(|()| Box::new(va.bind(Arc::clone(d))) as Box<dyn AccessMethod>);
    out.push(("va-file/appended", va));

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn registry_covers_every_family() {
        let d = Arc::new(gen::gen_case(1, 2).dataset);
        let ms = methods(&d);
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
        for (name, m) in roundtripped(&d) {
            assert!(m.is_ok(), "{name} failed to round-trip");
        }
        for (name, m) in appended(&d) {
            assert!(m.is_ok(), "{name} failed to append-replay");
        }
    }
}
