//! The repo's benchmark: five workloads, end-to-end numbers per missing-data
//! semantics, and per-layer numbers for every crate. See `README.md`.

pub mod cli;
pub mod compare;
pub mod host;
pub mod json;
pub mod layers;
pub mod probes;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Metrics by name; a `BTreeMap`, so output order repeats.
pub type Metrics = BTreeMap<String, stats::Stat>;

/// Checked answers: every answer the benchmark obtains, in a workload or in
/// a probe, is compared with scan truth and counted here.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// What a run carries through its phases and probes.
pub struct Bench<'a> {
    pub opts: &'a Opts,
    pub tally: Tally,
}

impl<'a> Bench<'a> {
    pub fn new(opts: &'a Opts) -> Bench<'a> {
        Bench {
            opts,
            tally: Tally::default(),
        }
    }
}

/// What one run was asked to do.
#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Also make the traced pass and run the layer probes.
    pub trace: bool,
    /// 1/20-size inputs: checks the harness, measures nothing worth keeping.
    pub smoke: bool,
    /// Where traces, results and the durable databases go.
    pub out_dir: PathBuf,
}

impl Opts {
    fn shrink(&self, n: usize, floor: usize) -> usize {
        if self.smoke {
            (n / 20).max(floor)
        } else {
            n
        }
    }

    pub fn rows(&self, n: usize) -> usize {
        self.shrink(n, 64)
    }

    /// Queries per (k, semantics) class.
    pub fn per_class(&self, n: usize) -> usize {
        self.shrink(n, 4)
    }

    pub fn ops(&self, n: usize) -> usize {
        self.shrink(n, 8)
    }

    /// Set-up is repeated and its median reported, so that one slow page
    /// fault does not decide `setup_s`; a traced run needs no such care.
    pub fn setup_reps(&self) -> usize {
        if self.trace || self.smoke {
            1
        } else {
            7
        }
    }
}
