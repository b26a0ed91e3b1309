//! Command line: one run as the driver asks for it, all five workloads as
//! a person does, `compare`, and `--spec`.

use crate::json::Json;
use crate::workloads::{self, RunResult};
use crate::{compare, layers, report, spec, Metrics, Opts};
use std::path::{Path, PathBuf};
use std::process::Command;

const USAGE: &str = "\
usage:
  ibis-benchmark [--seed N] [--seconds S] [--smoke] [--out DIR]
      all five workloads, untraced then traced; writes <out>/result.json
  ibis-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
      one run; the last line of output is the result as one JSON object
  ibis-benchmark compare A.json B.json
      B judged against A; exits 1 if any metric got worse. Either side may be
      several runs of one commit, comma-separated: their median is judged
  ibis-benchmark --spec
      the workload and metric names, as JSON";

/// The degree the engine's default entry points run a query at, pinned to
/// one thread so that neither the host's core count nor `IBIS_THREADS`
/// changes what is measured; `sharded_semantics` asks for its two threads
/// explicitly, and the server of `served` has its own pool of two workers.
const DEFAULT_DEGREE: usize = 1;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: spec::SEED_DEVELOPMENT,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn spec_json() -> Json {
    let metrics = |v: Vec<spec::MetricSpec>| {
        Json::Arr(
            v.into_iter()
                .map(|m| {
                    Json::obj([
                        ("name", Json::Str(m.name)),
                        ("unit", Json::str(m.unit)),
                        (
                            "better",
                            Json::str(if m.better == spec::Better::Lower {
                                "lower"
                            } else {
                                "higher"
                            }),
                        ),
                        (
                            "bound",
                            match m.check {
                                spec::Check::Share(b) => Json::Num(b),
                                _ => Json::Null,
                            },
                        ),
                        ("exact", Json::Bool(m.check == spec::Check::Exact)),
                        ("moves", Json::str(m.moves)),
                    ])
                })
                .collect(),
        )
    };
    Json::obj([
        (
            "workloads",
            Json::Arr(
                spec::WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::str(w.name)),
                            ("why", Json::str(w.why)),
                            ("threads", report::threads_json(w)),
                            (
                                "specific",
                                Json::Arr(w.specific.iter().map(|s| Json::str(*s)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", metrics(spec::end_to_end())),
        ("specific", metrics(spec::specific())),
        ("per_layer", metrics(spec::per_layer())),
        (
            "seeds",
            Json::obj([
                ("development", Json::Num(spec::SEED_DEVELOPMENT as f64)),
                ("held_out", Json::Num(spec::SEED_HELD_OUT as f64)),
            ]),
        ),
        (
            "frozen_rates",
            Json::obj([
                (
                    "ingest_mutations_per_s",
                    Json::Num(spec::INGEST_MUTATIONS_PER_S),
                ),
                ("served_hi_rps", Json::Num(spec::SERVED_HI_RPS)),
            ]),
        ),
    ])
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn environment(opts: &Opts) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("kernel_name", Json::str(layers::kernel_name())),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(opts.seed as f64)),
        ("default_degree", Json::Num(DEFAULT_DEGREE as f64)),
        (
            "wal_flush_policy",
            Json::str("the engine's own: one fsync per WAL append"),
        ),
        ("profile", Json::str("release")),
    ])
}

fn default_out() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn run_one(name: &str, opts: &Opts, shared: &mut Option<Metrics>) -> Result<RunResult, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    workloads::run(name, opts, shared)
}

fn run_all(opts: &Opts) -> Result<bool, String> {
    let mut shared = None;
    let mut entries = Vec::new();
    let mut all_correct = true;
    for w in &spec::WORKLOADS {
        let untraced = run_one(
            w.name,
            &Opts {
                trace: false,
                ..opts.clone()
            },
            &mut shared,
        )?;
        print!("{}", report::text(&untraced, false, None));
        let traced = run_one(
            w.name,
            &Opts {
                trace: true,
                ..opts.clone()
            },
            &mut shared,
        )?;
        print!("{}", report::text(&traced, true, shared.as_ref()));
        all_correct &= untraced.failed == 0 && traced.failed == 0;
        entries.push((w.name, report::workload_json(w, &untraced, &traced)));
    }
    if let Some(shared) = &shared {
        println!("== stand-alone layer probes (the same in every workload's per-layer set)");
        let mut table = String::new();
        for (name, s) in shared {
            report::line(&mut table, name, s);
        }
        print!("{table}");
    }
    let result = Json::obj([
        ("schema", Json::str("ibis-benchmark/1")),
        ("env", environment(opts)),
        ("seconds", Json::Num(opts.seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        ("workloads", Json::obj(entries)),
        ("claim", Json::Null),
    ]);
    let path = opts.out_dir.join("result.json");
    std::fs::write(&path, result.render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    println!(
        "{}",
        Json::obj([("correct", Json::Bool(all_correct)), ("claim", Json::Null)]).render()
    );
    Ok(all_correct)
}

/// The result files named by one side of `compare`, comma-separated.
fn read_runs(paths: &str) -> Result<Vec<Json>, String> {
    paths
        .split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

/// Runs the command line; returns the process exit code.
pub fn main(args: Vec<String>) -> i32 {
    let fail = |msg: String| {
        eprintln!("ibis-benchmark: {msg}");
        2
    };
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return fail(format!("compare takes two result files\n{USAGE}"));
            };
            let judged = read_runs(a)
                .and_then(|a| Ok((a, read_runs(b)?)))
                .and_then(|(a, b)| compare::compare(&a, &b));
            return match judged {
                Ok((table, any_worse)) => {
                    print!("{table}");
                    i32::from(any_worse)
                }
                Err(e) => fail(e),
            };
        }
        Some("--spec") => {
            println!("{}", spec_json().render());
            return 0;
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return 0;
        }
        _ => {}
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => return fail(format!("{e}\n{USAGE}")),
    };
    if cfg!(debug_assertions) {
        return fail("refusing to measure a debug build; run with --release".into());
    }
    layers::pin_threads(DEFAULT_DEGREE);
    let opts = Opts {
        seed: args.seed,
        seconds: args
            .seconds
            .unwrap_or(if args.smoke { 0.5 } else { spec::RUN_SECONDS }),
        trace: args.trace,
        smoke: args.smoke,
        out_dir: args.out.unwrap_or_else(default_out),
    };
    let outcome = match &args.workload {
        None => run_all(&opts).map(|_| ()),
        Some(name) => run_one(name, &opts, &mut None).map(|r| {
            print!("{}", report::text(&r, opts.trace, None));
            println!("{}", report::driver_line(&r, opts.trace));
        }),
    };
    match outcome {
        Ok(()) => 0,
        Err(e) => fail(e),
    }
}
