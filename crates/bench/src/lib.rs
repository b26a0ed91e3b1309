//! # ibis-bench
//!
//! The benchmark harness that regenerates **every table and figure** of the
//! paper's evaluation (§5), plus the ablations and the serving and
//! recorder-overhead experiments listed in DESIGN.md §3.
//!
//! Each experiment is a library function in [`experiments`] returning
//! [`report::Table`]s. The `figures` binary runs the named experiments (all
//! of them when none is named), prints the paper-style tables and writes
//! one CSV per table under `results/`; the smoke test runs every one at a
//! tiny scale. Experiments assert what they measure (answers agree with
//! each other or with the scan) before they report a number.
//!
//! ## Scale
//!
//! Experiments default to the paper's dataset sizes (100,000 synthetic
//! rows; 463,733 census-like rows) but honour environment variables so CI
//! and laptops can shrink them without touching code:
//!
//! * `IBIS_ROWS` — synthetic row count (default 100000);
//! * `IBIS_CENSUS_ROWS` — census-like row count (default 463733);
//! * `IBIS_QUERIES` — queries per timing point (default 100, the paper's
//!   choice).
//!
//! Absolute milliseconds differ from the paper's 2005 hardware, so tables
//! also carry the machine-independent work counters (bitmaps touched,
//! approximation fields scanned, tree nodes visited) that determine the
//! curve *shapes*.

#![forbid(unsafe_code)]

pub mod config;
pub mod experiments;
pub mod report;

use std::time::Instant;

/// Times a closure, returning its result and elapsed milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}
