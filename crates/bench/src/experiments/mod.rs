//! Experiment implementations, one module per paper figure/table plus the
//! ablations and the beyond-paper experiments. See DESIGN.md §3 for the
//! experiment index.

pub mod ablations;
pub mod containers;
pub mod fig1;
pub mod fig4;
pub mod fig5;
pub mod harness;
pub mod obs_overhead;
pub mod real_data;
pub mod serving;
pub mod sharding;
pub mod table7;

use crate::config::Scale;
use crate::report::Table;

/// An experiment entry point: scale in, result tables out.
pub type Runner = fn(&Scale) -> Vec<Table>;

/// Every experiment in DESIGN.md order, as `(name, runner)` pairs. The
/// `figures` binary and the smoke test iterate this list.
pub fn all() -> Vec<(&'static str, Runner)> {
    vec![
        ("fig1", fig1::run as Runner),
        ("fig4a", fig4::run_4a),
        ("fig4b", fig4::run_4b),
        ("fig5a", fig5::run_5a),
        ("fig5b", fig5::run_5b),
        ("fig5c", fig5::run_5c),
        ("table7", table7::run),
        ("real_data", real_data::run),
        ("sharding", sharding::run),
        ("ablation_compression", ablations::compression),
        ("ablation_encoding", ablations::encoding),
        ("ablation_decomposition", ablations::decomposition),
        ("ablation_reorder", ablations::reorder),
        ("ablation_vaplus", ablations::vaplus),
        ("ablation_semantics", ablations::semantics),
        ("ablation_relatedwork", ablations::related_work),
        ("containers", containers::run),
        ("serving", serving::run),
        ("obs_overhead", obs_overhead::run),
    ]
}
