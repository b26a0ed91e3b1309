//! The method registry the oracle drives: every [`AccessMethod`] in the
//! workspace, plus the persistence-round-trip variants of the families
//! that support it.

use ibis_baseline::{BitstringAugmented, Mosaic, RTreeIncomplete, SequentialScan};
use ibis_bitmap::{for_each_pair, BitmapIndex, Encoding, PairVisitor};
use ibis_bitvec::BitStore;
use ibis_core::{AccessMethod, Dataset};
use ibis_vafile::{VaFile, VaPlusFile};
use std::sync::Arc;

/// One index read back from its wire format, or the error that stopped
/// it, which the checker reports as a failure.
type Variant = (String, Result<Box<dyn AccessMethod>, std::io::Error>);

/// Every access method in the workspace, bound where binding is needed —
/// the same list the engine-layer conformance suite uses: every bitmap
/// encoding over every backend, then the VA-files and the baselines — and,
/// beside it, every persistable family serialized and read back, which the
/// checker asserts answers exactly like the scan. The in-band match encoder
/// can refuse datasets it cannot represent, so a pair joins only when its
/// build succeeds; each pair is built once and feeds both lists.
pub fn methods_and_roundtripped(d: &Arc<Dataset>) -> (Vec<Box<dyn AccessMethod>>, Vec<Variant>) {
    struct Build<'a> {
        d: &'a Dataset,
        methods: Vec<Box<dyn AccessMethod>>,
        roundtripped: Vec<Variant>,
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
    fn roundtrip_variants_build_on_a_normal_case() {
        let d = Arc::new(gen::gen_case(1, 0).dataset);
        for (name, m) in methods_and_roundtripped(&d).1 {
            assert!(m.is_ok(), "{name} failed to round-trip");
        }
    }
}
