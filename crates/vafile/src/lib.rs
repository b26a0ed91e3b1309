//! # ibis-vafile
//!
//! The paper's second index family (§4.5): **VA-files** (vector
//! approximations, Weber/Schek/Blott) adapted to incomplete databases.
//!
//! Each attribute `A_i` is quantized into `2^{b_i}` bins. The all-zeros code
//! `0^{b_i}` is **reserved for missing data**; the remaining `2^{b_i} − 1`
//! codes cover the value domain through a lookup table. The paper sets
//! `b_i = ⌈log₂(C_i + 1)⌉` (every value distinguishable, so the filter step
//! is already exact); [`VaFile::with_bits`] also supports coarser codes —
//! the classic lossy VA-file of the paper's Table 5/6 example — where a
//! refinement step against the actual data removes false positives.
//!
//! Query translation (§4.5): `v1 ≤ A_i ≤ v2` becomes
//! `VA(v1) ≤ VA(A_i) ≤ VA(v2)`, ORed with `VA(A_i) = 0^b` when missing data
//! is a match. Execution is a sequential scan of the packed approximation
//! file — the design that gives VA-files their dimensionality-robustness —
//! followed by refinement of boundary-bin candidates.
//!
//! [`VaPlusFile`] implements the paper's closing future-work item: VA+-style
//! equi-depth quantization for skewed data (its reference \[6\]), which evens
//! out bin populations and cuts the refinement workload.
//!
//! ```
//! use ibis_vafile::VaFile;
//! use ibis_core::{Cell, Dataset, MissingPolicy, Predicate, RangeQuery};
//!
//! // The paper's Table 5 example: C = 6, values {6, 1, 3, missing}.
//! let data = Dataset::from_rows(
//!     &[("a", 6)],
//!     &[vec![Cell::present(6)], vec![Cell::present(1)],
//!       vec![Cell::present(3)], vec![Cell::MISSING]],
//! )?;
//! let va = VaFile::with_bits(&data, &[2]); // the paper's 2-bit codes
//! let q = RangeQuery::new(vec![Predicate::range(0, 4, 5)], MissingPolicy::IsMatch)?;
//! assert_eq!(va.execute(&data, &q)?.rows(), &[3]); // only the missing row
//! # Ok::<(), ibis_core::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bound;
mod packed;
mod quantizer;
mod vafile;
mod vaplus;

pub use bound::BoundVaFile;
pub use packed::PackedMatrix;
pub use quantizer::Quantizer;
pub use vafile::VaFile;
pub use vaplus::VaPlusFile;
