//! The paper's motivating analyte/disease scenario (§1, example 3).
//!
//! Records are diseases; attributes are analyte ranges (a substance
//! measured in blood or urine, discretized into bands). A disease stores a
//! band only for the analytes relevant to its diagnosis — everything else
//! is *missing*, and missing must count as a match: "the act of taking an
//! analyte's measurement has no bearing on if a patient has a disease that
//! is not relevant to that particular analyte."
//!
//! A patient's panel of analyte readings becomes a point query under
//! missing-is-match semantics; the answer is the differential-diagnosis
//! list.
//!
//! ```text
//! cargo run --example medical_diagnosis
//! ```

use ibis::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

const ANALYTES: [&str; 8] = [
    "glucose",
    "creatinine",
    "sodium",
    "potassium",
    "alt",
    "ast",
    "crp",
    "tsh",
];
/// Bands per analyte (the attribute cardinality).
const BANDS: u16 = 5;
const N_DISEASES: usize = 5_000;

fn main() {
    // Synthesize a disease knowledge base: each disease cares about 1..=4
    // analytes and stores the band range it expects... the paper's model
    // stores one band per analyte, so we store the *center* band.
    let mut rng = StdRng::seed_from_u64(2006);
    let schema: Vec<(&str, u16)> = ANALYTES.iter().map(|&a| (a, BANDS)).collect();
    let mut kb = Dataset::from_rows(&schema, &[]).expect("valid schema");
    for _ in 0..N_DISEASES {
        let relevant = rng.gen_range(1..=4usize);
        let mut row = vec![Cell::MISSING; ANALYTES.len()];
        for _ in 0..relevant {
            let a = rng.gen_range(0..ANALYTES.len());
            row[a] = Cell::present(rng.gen_range(1..=BANDS));
        }
        kb.push_row(&row).expect("row in domain");
    }

    let missing_share: f64 =
        kb.columns().iter().map(|c| c.missing_rate()).sum::<f64>() / kb.n_attrs() as f64;
    println!(
        "knowledge base: {} diseases × {} analytes, {:.0}% of entries not relevant (missing)",
        kb.n_rows(),
        kb.n_attrs(),
        missing_share * 100.0
    );

    // Index once with the equality-encoded bitmap index — the paper shows
    // BEE is optimal for point queries like a patient panel.
    let index = EqualityBitmapIndex::<Wah>::build(&kb);
    println!(
        "BEE index: {} bitmaps, {} bytes\n",
        index.n_bitmaps(),
        index.size_bytes()
    );

    // A patient arrives with three measured analytes.
    let panel = [("glucose", 4u16), ("potassium", 2), ("crp", 5)];
    let predicates: Vec<Predicate> = panel
        .iter()
        .map(|&(name, band)| {
            let attr = ANALYTES
                .iter()
                .position(|&a| a == name)
                .expect("known analyte");
            Predicate::point(attr, band)
        })
        .collect();

    // Missing-is-match: diseases that do not track an analyte stay in the
    // differential.
    let diagnosis =
        RangeQuery::new(predicates.clone(), MissingPolicy::IsMatch).expect("valid panel");
    let candidates = index.execute(&diagnosis).expect("schema-valid");
    println!(
        "panel {:?}\n→ {} candidate diseases remain in the differential",
        panel,
        candidates.len()
    );

    // The WRONG semantics for this workload, shown for contrast: requiring
    // every analyte to be tracked and matching discards almost everything.
    let strict = diagnosis.with_policy(MissingPolicy::IsNotMatch);
    let strict_rows = index.execute(&strict).expect("schema-valid");
    println!(
        "→ under missing-is-not-match only {} diseases would survive (diseases \
         that happen to track all three analytes at exactly those bands)",
        strict_rows.len()
    );
    assert!(strict_rows.len() <= candidates.len());

    // Every strict answer is also a match-semantics answer.
    assert_eq!(strict_rows.intersect(&candidates), strict_rows);

    // Cross-check the index against the scan ground truth.
    assert_eq!(candidates, ibis::core::scan::execute(&kb, &diagnosis));
    println!("\nindex agrees with sequential-scan ground truth ✓");
}
