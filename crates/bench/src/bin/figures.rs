//! Runs the experiments of DESIGN.md §3, printing each table and writing
//! CSVs under `results/`. This is the one reproduction entry point: the
//! paper's figures and tables, the ablations, the sharding and containers
//! sweeps, the served latency-against-load curve, the recorder's overhead
//! and the planner's regret all come from it.
//!
//! ```text
//! cargo run --release -p ibis-bench --bin figures                  # everything, paper scale
//! cargo run --release -p ibis-bench --bin figures -- fig5b table7  # just the named ones
//! IBIS_ROWS=10000 IBIS_CENSUS_ROWS=20000 \
//!     cargo run --release -p ibis-bench --bin figures              # laptop scale
//! cargo run --release -p ibis-bench --bin figures -- containers serving obs_overhead planner --test
//! cargo run --release -p ibis-bench --bin figures -- --threads 8
//! ```
//!
//! Names are those of [`ibis_bench::experiments::all`]; none means all.
//! `--test` runs at smoke scale (seconds, not minutes — what CI's
//! bench-smoke job uses) instead of the `IBIS_*` environment scale.
//! Every experiment asserts what it measures, so a wrong answer, a server
//! whose `STATS` disagrees with its client, or a recorder mode that records
//! what it must not fails the run.
//! `--threads N` pins the parallel execution degree for every timed query
//! (equivalent to setting `IBIS_THREADS=N`); answers and work counters are
//! identical across degrees, only wall-clock moves.

#![forbid(unsafe_code)]

use ibis_bench::config::Scale;

fn usage(message: &str) -> ! {
    eprintln!("{message}\nusage: figures [NAME…] [--test] [--threads N]");
    std::process::exit(2);
}

fn main() {
    let experiments = ibis_bench::experiments::all();
    let mut names: Vec<String> = Vec::new();
    let mut scale = Scale::from_env();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--test" => scale = Scale::smoke(),
            "--threads" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => ibis_core::parallel::set_threads(n),
                _ => usage("--threads needs a positive integer"),
            },
            name if experiments.iter().any(|(n, _)| *n == name) => names.push(arg),
            other => usage(&format!("unknown experiment or flag {other:?}")),
        }
    }
    eprintln!(
        "running {} at scale {scale:?} with {} thread(s)",
        if names.is_empty() {
            "all experiments".to_string()
        } else {
            names.join(", ")
        },
        ibis_core::parallel::configured_threads()
    );
    for (name, runner) in experiments {
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        eprintln!("--- {name}");
        let (tables, ms) = ibis_bench::time_ms(|| runner(&scale));
        for table in tables {
            table
                .emit(std::path::Path::new("results"))
                .expect("write results/");
        }
        eprintln!("    ({ms:.0} ms)");
    }
}
