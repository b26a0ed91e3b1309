//! The paper's survey scenario (§1, example 2): skip-logic surveys where
//! answering one question causes others to be skipped, and analysts count
//! respondents who *definitely* answered specific questions with specific
//! answers — missing-is-NOT-match semantics.
//!
//! "… a count of respondents that answered question 5 with answer A and
//! question 8 with answer C."
//!
//! ```text
//! cargo run --example survey_counts
//! ```

use ibis::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

const N_QUESTIONS: usize = 12;
/// Answers are A..E (cardinality 5).
const N_ANSWERS: u16 = 5;
const N_RESPONDENTS: usize = 20_000;

fn answer_name(v: u16) -> char {
    (b'A' + (v - 1) as u8) as char
}

fn main() {
    // Skip logic: answering question q with answer >= 4 skips question q+1
    // (a branch in the survey). This makes missingness *informative* — it
    // depends on other attributes, the "not ignorable" case the paper
    // targets.
    let mut rng = StdRng::seed_from_u64(1984);
    let schema: Vec<(String, u16)> = (1..=N_QUESTIONS)
        .map(|q| (format!("q{q}"), N_ANSWERS))
        .collect();
    let schema_refs: Vec<(&str, u16)> = schema.iter().map(|(n, c)| (n.as_str(), *c)).collect();
    let mut survey = Dataset::from_rows(&schema_refs, &[]).expect("valid schema");
    for _ in 0..N_RESPONDENTS {
        let mut row = Vec::with_capacity(N_QUESTIONS);
        let mut skip_next = false;
        for _ in 0..N_QUESTIONS {
            if skip_next {
                row.push(Cell::MISSING);
                skip_next = false;
                continue;
            }
            let answer = rng.gen_range(1..=N_ANSWERS);
            skip_next = answer >= 4;
            row.push(Cell::present(answer));
        }
        survey.push_row(&row).expect("row in domain");
    }
    println!(
        "survey: {} respondents × {} questions; per-question skip rates:",
        survey.n_rows(),
        survey.n_attrs()
    );
    for col in survey.columns() {
        println!(
            "  {:>4}: {:>5.1}% skipped",
            col.name(),
            col.missing_rate() * 100.0
        );
    }

    // Range-encoded bitmaps: the analyst's filters are often ranges
    // ("answered B or worse"), where BRE reads at most 2 bitmaps per
    // question under not-match semantics.
    let index = RangeBitmapIndex::<Wah>::build(&survey);
    println!(
        "\nBRE index: {} bitmaps, {:.1} KB\n",
        index.n_bitmaps(),
        index.size_bytes() as f64 / 1024.0
    );

    // The paper's literal example: q5 = A AND q8 = C, counted strictly.
    let q5 = 4usize; // 0-based attribute index of question 5
    let q8 = 7usize;
    let query = RangeQuery::new(
        vec![Predicate::point(q5, 1), Predicate::point(q8, 3)],
        MissingPolicy::IsNotMatch,
    )
    .expect("valid key");
    let strict = index.execute(&query).expect("schema-valid");
    println!(
        "respondents with q5 = {} and q8 = {}: {}",
        answer_name(1),
        answer_name(3),
        strict.len()
    );

    // The same key under missing-is-match counts respondents who *could*
    // have answered that way (skipped counts as compatible).
    let loose = query.with_policy(MissingPolicy::IsMatch);
    let could = index.execute(&loose).expect("schema-valid");
    println!(
        "respondents compatible with that answer pattern (skips count): {}",
        could.len()
    );
    assert!(could.len() >= strict.len());

    // A range filter: q2 answered D or E (the skip-triggering answers),
    // and q3 therefore skipped — demonstrating informative missingness.
    let pattern = RangeQuery::new(vec![Predicate::range(1, 4, 5)], MissingPolicy::IsNotMatch)
        .expect("valid key");
    let d_or_e = index.execute(&pattern).expect("schema-valid");
    let q3_missing: usize = d_or_e
        .iter()
        .filter(|&r| survey.cell(r as usize, 2).is_missing())
        .count();
    println!(
        "\nrespondents answering q2 ∈ {{D, E}}: {} — of those, {} skipped q3 \
         (skip logic makes missingness non-ignorable)",
        d_or_e.len(),
        q3_missing
    );
    assert_eq!(q3_missing, d_or_e.len(), "skip logic is deterministic");

    // Ground truth check.
    assert_eq!(strict, ibis::core::scan::execute(&survey, &query));
    println!("\nindex agrees with sequential-scan ground truth ✓");
}
