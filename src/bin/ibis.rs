//! `ibis` — command-line front end for the incomplete-database toolkit.
//!
//! ```text
//! ibis generate --kind synthetic --rows 20000 --seed 7 --out data.ibds
//! ibis stats data.ibds
//! ibis index data.ibds --encoding bre --out data.bre
//! ibis query data.ibds "age between 2 and 5 and income = 3" --not-match
//! ibis query data.ibds "q5 = 1" --index data.bre --count
//! ibis race data.ibds --queries 50 --k 4
//! ```
//!
//! Queries use the textual language of [`ibis::core::parse`]; missing-data
//! semantics default to *missing-is-match* (`--not-match` flips it), the
//! same two modes the paper defines.
//!
//! Each subcommand is declared once, as a `Command` in `COMMANDS`: its
//! flags with their kinds, defaults and lower bounds. The parser and
//! `ibis help` both read that table, so a flag's help, parse and check
//! cannot drift apart.

#![forbid(unsafe_code)]

use ibis::bitmap::{BitmapIndex, Decomposed, Encoding, Equality, IntervalWindows, Range};
use ibis::bitvec::BitStore;
use ibis::core::csv::{export_csv, import_csv, load_dictionaries, save_dictionaries, CsvOptions};
use ibis::core::gen::{census_scaled, synthetic_scaled, workload, QuerySpec};
use ibis::core::parallel::configured_threads;
use ibis::core::parse::{parse_query, parse_query_with_dictionaries};
use ibis::core::stats::{column_stats, CompositionTable};
use ibis::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Read as _;
use std::process::ExitCode;
use std::sync::Arc;

/// A CLI failure, split by who is at fault: a bad invocation (malformed
/// flag value, missing argument, unknown command — exit 2, the
/// conventional usage-error code) versus a failure while carrying out a
/// well-formed command (exit 1).
#[derive(Debug)]
enum CliError {
    Usage(String),
    Runtime(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Runtime(_) => 1,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Runtime(m) => m,
        }
    }
}

/// Plain `format!`/`to_string` errors are runtime failures…
impl From<String> for CliError {
    fn from(m: String) -> CliError {
        CliError::Runtime(m)
    }
}

/// …while every `&str` literal in this file is a usage message.
impl From<&str> for CliError {
    fn from(m: &str) -> CliError {
        CliError::Usage(m.to_string())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(name) = args.first().filter(|&name| name != "help") else {
        print!("{}", help());
        return Ok(());
    };
    let command = COMMANDS
        .iter()
        .find(|c| c.name() == name)
        .ok_or_else(|| CliError::Usage(format!("unknown command {name:?}; try `ibis help`")))?;
    (command.run)(&command.parse(&args[1..])?)
}

/// How a flag's value is read.
enum Kind {
    /// On when given; takes no value.
    Switch,
    Text,
    /// A decimal integer no larger than the given maximum: that of the
    /// field the flag fills (`U32`, `U64` or `USIZE`).
    Int(u64),
    /// A comma-separated list of `usize` integers.
    Ints,
}

const U32: u64 = u32::MAX as u64;
const U64: u64 = u64::MAX;
const USIZE: u64 = usize::MAX as u64;

/// What a flag reads as when the command line leaves it out.
enum Absent {
    /// Nothing: the command decides what its absence means.
    Unset,
    /// The command cannot run without it.
    Required,
    /// This value, read as if it had been given.
    Is(&'static str),
}

use {Absent::*, Kind::*};

/// One flag of one command: all that the parser, its checks and
/// `ibis help` know about it.
struct Flag {
    name: &'static str,
    /// What `ibis help` calls the value (empty for a switch).
    meta: &'static str,
    kind: Kind,
    absent: Absent,
    /// The smallest number, or list element, the flag accepts.
    min: u64,
}

const fn flag(name: &'static str, meta: &'static str, kind: Kind, absent: Absent) -> Flag {
    Flag {
        name,
        meta,
        kind,
        absent,
        min: 0,
    }
}

const fn switch(name: &'static str) -> Flag {
    flag(name, "", Switch, Unset)
}

impl Flag {
    const fn at_least(self, min: u64) -> Flag {
        Flag { min, ..self }
    }

    /// `given` as this flag's value, or what is wrong with it.
    fn read(&self, given: &str) -> Result<Value, String> {
        let (name, min) = (self.name, self.min);
        let int = |s: &str, max: u64| match s.parse::<u64>() {
            Ok(n) if n > max => Err(format!("--{name} takes at most {max}, not {n}")),
            Ok(n) if n < min => Err(format!("--{name} must be at least {min}, not {n}")),
            Ok(n) => Ok(n),
            Err(_) => Err(format!("--{name} takes a number, not {s:?}")),
        };
        Ok(match self.kind {
            Switch => unreachable!("a switch takes no value"),
            Text => Value::Text(given.to_string()),
            Int(max) => Value::Int(int(given, max)?),
            Ints => {
                let list = given.split(',').map(|t| int(t.trim(), USIZE).map(narrow));
                Value::Ints(list.collect::<Result<_, _>>()?)
            }
        })
    }

    /// The flag as `ibis help` shows it: bracketed when it may be left out,
    /// with its default in parentheses.
    fn synopsis(&self) -> String {
        let shown = format!("--{} {}", self.name, self.meta);
        let shown = shown.trim_end();
        match self.absent {
            Required => shown.to_string(),
            Unset => format!("[{shown}]"),
            Is(value) => format!("[{shown} ({value})]"),
        }
    }
}

/// One subcommand: its synopsis and prose for `ibis help`, the flags it
/// takes, and the function that runs it on a parsed command line.
struct Command {
    /// The name, then the positional arguments.
    usage: &'static str,
    flags: &'static [Flag],
    about: &'static str,
    run: fn(&Args) -> Result<(), CliError>,
}

impl Command {
    fn name(&self) -> &'static str {
        self.usage.split(' ').next().unwrap_or_default()
    }

    /// The usage line and then each flag, as `ibis help` and usage errors
    /// print them.
    fn usage_words(&self) -> impl Iterator<Item = String> + '_ {
        let flags = self.flags.iter().map(Flag::synopsis);
        std::iter::once(self.usage.to_string()).chain(flags)
    }

    /// Splits `args` into positionals and this command's flags —
    /// getopt-style, space-separated: `--rows 100`, a bare `--count`. An
    /// unknown flag, a missing value, a malformed number, a value below the
    /// flag's bound or a missing required flag is a usage error that lists
    /// what the command takes: a typo must never silently run the command
    /// without the flag.
    fn parse(&'static self, args: &[String]) -> Result<Args, CliError> {
        let usage = |problem: String| {
            let takes: String = match self.flags {
                [] => " no flags".to_string(),
                flags => flags.iter().map(|f| format!(" --{}", f.name)).collect(),
            };
            CliError::Usage(format!("{problem}; this command takes{takes}"))
        };
        let mut parsed = Args {
            command: self,
            positional: Vec::new(),
            given: BTreeSet::new(),
            values: BTreeMap::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                parsed.positional.push(arg.clone());
                continue;
            };
            let Some(flag) = self.flags.iter().find(|f| f.name == name) else {
                return Err(usage(format!("unknown flag --{name}")));
            };
            parsed.given.insert(flag.name);
            if let Switch = flag.kind {
                continue;
            }
            let value = match args.next() {
                Some(v) if !v.starts_with("--") => flag.read(v).map_err(usage)?,
                _ => return Err(usage(format!("flag --{name} needs a value"))),
            };
            parsed.values.insert(flag.name, value);
        }
        for flag in self.flags.iter().filter(|f| !parsed.given.contains(f.name)) {
            let value = match flag.absent {
                Unset => continue,
                Required => return Err(usage(format!("missing required flag --{}", flag.name))),
                Is(value) => flag.read(value).expect("a declared default is valid"),
            };
            parsed.values.insert(flag.name, value);
        }
        Ok(parsed)
    }
}

/// A command line parsed against its `Command`: the positionals, the flags
/// given, and the value of every flag that has one, given or defaulted.
struct Args {
    command: &'static Command,
    positional: Vec<String>,
    given: BTreeSet<&'static str>,
    values: BTreeMap<&'static str, Value>,
}

/// A flag's value, typed by its `Kind`.
enum Value {
    Text(String),
    Int(u64),
    Ints(Vec<usize>),
}

/// `n` as the type of the field its flag was declared to fit.
fn narrow<T: TryFrom<u64>>(n: u64) -> T {
    let fits = T::try_from(n).ok();
    fits.expect("a flag's declared maximum fits the field it fills")
}

impl Args {
    /// Whether `--name` was on the command line; a switch is on exactly then.
    fn has(&self, name: &str) -> bool {
        self.given.contains(name)
    }

    fn opt_text(&self, name: &str) -> Option<&str> {
        match self.values.get(name)? {
            Value::Text(s) => Some(s),
            _ => panic!("--{name} is not declared as text"),
        }
    }

    fn opt_num<T: TryFrom<u64>>(&self, name: &str) -> Option<T> {
        match self.values.get(name)? {
            Value::Int(n) => Some(narrow(*n)),
            _ => panic!("--{name} is not declared as a number"),
        }
    }

    /// A required or defaulted text flag.
    fn text(&self, name: &str) -> &str {
        self.opt_text(name).expect("required or defaulted")
    }

    /// A required or defaulted number flag.
    fn num<T: TryFrom<u64>>(&self, name: &str) -> T {
        self.opt_num(name).expect("required or defaulted")
    }

    /// A defaulted list flag.
    fn nums(&self, name: &str) -> Vec<usize> {
        match self.values.get(name) {
            Some(Value::Ints(list)) => list.clone(),
            _ => panic!("--{name} is not declared as a defaulted list"),
        }
    }

    /// The `i`th positional argument, or the command's usage line.
    fn arg(&self, i: usize) -> Result<&str, CliError> {
        let arg = self.positional.get(i).map(String::as_str);
        arg.ok_or_else(|| self.usage())
    }

    fn usage(&self) -> CliError {
        let words: Vec<String> = self.command.usage_words().collect();
        CliError::Usage(format!("usage: ibis {}", words.join(" ")))
    }
}

/// `--threads N`: the parallel degree, `IBIS_THREADS` or the machine's
/// cores when left out.
const THREADS: Flag = flag("threads", "N", Int(USIZE), Unset).at_least(1);
/// `--threads A,B`: every degree a harness checks at.
const DEGREES: Flag = flag("threads", "A,B", Ints, Is("1,8")).at_least(1);
const SHARD_ROWS: Flag = flag("shard-rows", "N", Int(USIZE), Is("4096")).at_least(1);

const COMMANDS: &[Command] = &[
    Command {
        usage: "generate",
        flags: &[
            flag("kind", "synthetic|census", Text, Required),
            flag("rows", "N", Int(USIZE), Required),
            flag("seed", "S", Int(U64), Is("42")),
            flag("out", "FILE", Text, Required),
        ],
        about: "write a generated dataset (binary .ibds format)",
        run: generate,
    },
    Command {
        usage: "import FILE.csv",
        flags: &[
            flag("out", "FILE.ibds", Text, Required),
            flag("delimiter", "C", Text, Unset),
            switch("no-header"),
        ],
        about: "dictionary-encode a CSV (blank/NA/?/NULL cells become missing)",
        run: import,
    },
    Command {
        usage: "export FILE.ibds",
        flags: &[flag("out", "FILE.csv", Text, Required)],
        about: "write a dataset back out as CSV (numeric codes, missing = empty)",
        run: export,
    },
    Command {
        usage: "stats [FILE]",
        flags: &[
            flag("addr", "HOST:PORT", Text, Unset),
            switch("json"),
            switch("prom"),
            switch("slow"),
        ],
        about: "per-column stats and the Table-7 cross-tab of FILE, or with --addr \
                a running server's summary, metrics (--json, --prom) or slow-query \
                log (--slow; empty under --trace-sample 0)",
        run: stats,
    },
    Command {
        usage: "index FILE",
        flags: &[
            flag("encoding", "bee|bre|bie|dec|va|adaptive", Text, Required),
            flag("backend", "wah|bbc|plain|adaptive", Text, Unset),
            flag("out", "FILE", Text, Required),
        ],
        about: "build and save an index over wah unless --backend says otherwise \
                (va takes none; encoding adaptive means bee over backend adaptive)",
        run: index,
    },
    Command {
        usage: "query [FILE] QUERY",
        flags: &[
            flag("index", "IDXFILE", Text, Unset),
            switch("not-match"),
            switch("count"),
            flag("limit", "N", Int(USIZE), Is("20")),
            THREADS,
            flag("shard-rows", "N", Int(USIZE), Unset).at_least(1),
            switch("profile"),
            flag("profile-json", "FILE", Text, Unset),
            flag("addr", "HOST:PORT", Text, Unset),
            flag("deadline-ms", "MS", Int(U32), Is("0")),
            flag("data-dir", "DIR", Text, Unset),
        ],
        about: "run a textual query (e.g. \"age between 2 and 5 and q5 = 1\") over \
                FILE by scan, a saved --index or --shard-rows shards; or send it to \
                a server at --addr (0 ms = its default deadline); or run it on the \
                durable database in --data-dir in place of FILE",
        run: query,
    },
    Command {
        usage: "race FILE",
        flags: &[
            flag("queries", "N", Int(USIZE), Is("50")),
            flag("k", "K", Int(USIZE), Is("4")),
            flag("seed", "S", Int(U64), Is("7")),
            THREADS,
            switch("profile"),
            flag("live", "N", Int(USIZE), Unset),
            SHARD_ROWS,
        ],
        about: "time BEE/BRE/VA on a generated workload of K-attribute queries, or \
                with --live race snapshot readers against N streamed mutations",
        run: race,
    },
    Command {
        usage: "stress",
        flags: &[
            flag("seed", "S", Int(U64), Is("1")),
            flag("rows", "N", Int(USIZE), Is("96")),
            flag("readers", "N", Int(USIZE), Is("8")).at_least(1),
            flag("mutations", "N", Int(USIZE), Is("10000")),
            DEGREES,
            switch("durable"),
            flag("checkpoint-every", "N", Int(USIZE), Is("0")),
            switch("no-writer"),
        ],
        about: "run the snapshot-isolation stress harness: every snapshot readers \
                acquire under a racing writer must match its watermark prefix",
        run: stress,
    },
    Command {
        usage: "oracle",
        flags: &[
            flag("cases", "N", Int(USIZE), Is("200")),
            flag("seed", "S", Int(U64), Is("1")),
            flag("corpus", "DIR", Text, Is("tests/regressions")),
            flag("max-failures", "N", Int(USIZE), Is("3")),
            flag("case-budget-ms", "MS", Int(U64), Is("10000")),
        ],
        about: "check every access method against the scan on generated cases; \
                failures, too-slow cases included, are shrunk into the corpus",
        run: oracle,
    },
    Command {
        usage: "init DIR",
        flags: &[flag("from", "FILE.ibds", Text, Required), SHARD_ROWS],
        about: "initialize a durable data directory (WAL + snapshot + MANIFEST)",
        run: init,
    },
    Command {
        usage: "checkpoint DIR",
        flags: &[],
        about: "recover DIR, roll its WAL into a fresh snapshot, truncate the log",
        run: checkpoint,
    },
    Command {
        usage: "backup DIR",
        flags: &[flag("out", "FILE.ibbk", Text, Required)],
        about: "write DIR's logical state as one checksummed, deterministic file",
        run: backup,
    },
    Command {
        usage: "restore FILE.ibbk",
        flags: &[flag("into", "DIR", Text, Required)],
        about: "initialize a fresh data directory from a backup file",
        run: restore,
    },
    Command {
        usage: "validate DIR",
        flags: &[],
        about: "verify checksums and report generation, watermark and torn tail",
        run: validate,
    },
    Command {
        usage: "crash",
        flags: &[
            flag("seed", "S", Int(U64), Is("1")),
            flag("rows", "N", Int(USIZE), Is("96")),
            flag("kill-points", "N", Int(USIZE), Is("24")),
            flag("bit-flips", "N", Int(USIZE), Is("8")),
            DEGREES,
        ],
        about: "run the crash-recovery harness: a workload killed at every WAL \
                frame boundary, or bit-flipped, must recover its durable prefix",
        run: crash,
    },
    Command {
        usage: "serve [FILE.ibds]",
        flags: &[
            flag("addr", "HOST:PORT", Text, Is("127.0.0.1:7431")),
            SHARD_ROWS,
            flag("data-dir", "DIR", Text, Unset),
            // The defaults are `ServerConfig::default()`'s (a test pins them).
            flag("workers", "N", Int(USIZE), Is("4")).at_least(1),
            flag("max-batch", "N", Int(USIZE), Is("8")).at_least(1),
            flag("queue-high-water", "N", Int(USIZE), Is("256")).at_least(1),
            flag("deadline-ms", "MS", Int(U64), Is("10000")).at_least(1),
            flag("duration-secs", "N", Int(U64), Unset),
            flag("addr-file", "PATH", Text, Unset),
            flag("trace-sample", "N", Int(U64), Is("8")),
            flag("slow-log", "N", Int(USIZE), Is("16")).at_least(1),
        ],
        about: "serve FILE, or the durable --data-dir, over IBQP until killed or \
                for --duration-secs; every --trace-sample'th request feeds the \
                --slow-log, so 0 (no tracing) with --slow-log is a usage error",
        run: serve,
    },
    Command {
        usage: "top",
        flags: &[
            flag("addr", "HOST:PORT", Text, Required),
            flag("interval-ms", "MS", Int(U64), Is("1000")).at_least(1),
            flag("iterations", "N", Int(U64), Unset).at_least(1),
        ],
        about: "live dashboard of a running server's STATS, until Ctrl-C",
        run: top,
    },
];

/// `ibis help`, rendered from `COMMANDS`.
fn help() -> String {
    let mut out = String::from("ibis — indexing incomplete databases (EDBT 2006)\n\ncommands:\n");
    for c in COMMANDS {
        fill(&mut out, "  ", "        ", c.usage_words());
        let about = c.about.split(' ').map(String::from);
        fill(&mut out, "      ", "      ", about);
    }
    out + "\nflags in brackets may be left out; a default is in parentheses; README.md\n\
           has the details; exit status: 0 on success, 1 on a failure, 2 on a usage\n\
           error (an unknown, missing or malformed command, flag or value)\n"
}

/// Appends `words` to `out` in lines of at most 78 columns, the first
/// starting with `first` and the rest with `rest`.
fn fill(out: &mut String, first: &str, rest: &str, words: impl Iterator<Item = String>) {
    let mut line = first.to_string();
    for (i, word) in words.enumerate() {
        if i > 0 && line.chars().count() + 1 + word.chars().count() > 78 {
            *out += &format!("{line}\n");
            line = rest.to_string();
        } else if i > 0 {
            line.push(' ');
        }
        line.push_str(&word);
    }
    *out += &format!("{line}\n");
}

fn load_dataset(path: &str) -> Result<Dataset, String> {
    Dataset::load(path).map_err(|e| format!("cannot load dataset {path:?}: {e}"))
}

/// The dictionaries `ibis import` wrote beside `path`, when they still fit
/// `d` (one per column, one token per code); a stale or mismatched sidecar
/// is ignored.
fn sidecar(path: &str, d: &Dataset) -> Option<Vec<Vec<String>>> {
    load_dictionaries(format!("{path}.dict")).ok().filter(|dd| {
        dd.len() == d.n_attrs()
            && dd
                .iter()
                .zip(d.columns())
                .all(|(dict, col)| dict.len() == col.cardinality() as usize)
    })
}

fn generate(a: &Args) -> Result<(), CliError> {
    let (rows, seed, out) = (a.num("rows"), a.num("seed"), a.text("out"));
    let d = match a.text("kind") {
        "synthetic" => synthetic_scaled(rows, seed),
        "census" => census_scaled(rows, seed),
        other => {
            return Err(CliError::Usage(format!(
                "unknown kind {other:?} (synthetic|census)"
            )))
        }
    };
    d.save(out)
        .map_err(|e| format!("cannot write {out:?}: {e}"))?;
    println!(
        "wrote {} rows × {} attrs ({:.1} MB raw) to {out}",
        d.n_rows(),
        d.n_attrs(),
        d.raw_bytes() as f64 / 1e6
    );
    Ok(())
}

fn import(a: &Args) -> Result<(), CliError> {
    let (path, out) = (a.arg(0)?, a.text("out"));
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let mut opts = CsvOptions {
        has_header: !a.has("no-header"),
        ..CsvOptions::default()
    };
    if let Some(d) = a.opt_text("delimiter") {
        let mut chars = d.chars();
        opts.delimiter = chars.next().ok_or("empty --delimiter")?;
        if chars.next().is_some() {
            return Err("--delimiter must be a single character".into());
        }
    }
    let report = import_csv(&text, &opts).map_err(|e| e.to_string())?;
    report.dataset.save(out).map_err(|e| e.to_string())?;
    let dict_path = format!("{out}.dict");
    save_dictionaries(&report.dictionaries, &dict_path).map_err(|e| e.to_string())?;
    println!(
        "imported {} rows × {} attrs → {out} (+ {dict_path})",
        report.dataset.n_rows(),
        report.dataset.n_attrs()
    );
    for (col, dict) in report.dataset.columns().iter().zip(&report.dictionaries) {
        println!(
            "  {:>20}: {} distinct values, {:.1}% missing",
            col.name(),
            dict.len(),
            col.missing_rate() * 100.0
        );
    }
    Ok(())
}

fn export(a: &Args) -> Result<(), CliError> {
    let (path, out) = (a.arg(0)?, a.text("out"));
    let d = load_dataset(path)?;
    // The sidecar makes import → export round-trip the original strings.
    let dicts = sidecar(path, &d);
    std::fs::write(out, export_csv(&d, dicts.as_deref())).map_err(|e| e.to_string())?;
    println!(
        "wrote {} rows to {out}{}",
        d.n_rows(),
        if dicts.is_some() {
            " (original tokens via .dict sidecar)"
        } else {
            ""
        }
    );
    Ok(())
}

fn stats(a: &Args) -> Result<(), CliError> {
    if let Some(addr) = a.opt_text("addr") {
        if !a.positional.is_empty() {
            return Err("--addr asks a running server; it cannot be combined \
                        with a dataset file"
                .into());
        }
        return server_stats(addr, a);
    }
    let path = a.arg(0)?;
    let d = load_dataset(path)?;
    println!("{}: {} rows × {} attrs\n", path, d.n_rows(), d.n_attrs());
    println!(
        "{:>20} {:>6} {:>9} {:>9}",
        "attribute", "card", "distinct", "missing%"
    );
    for s in column_stats(&d) {
        println!(
            "{:>20} {:>6} {:>9} {:>8.1}%",
            s.name,
            s.cardinality,
            s.distinct_present,
            s.missing_rate * 100.0
        );
    }
    println!("\n{}", CompositionTable::census_buckets(&d).render());
    Ok(())
}

fn index(a: &Args) -> Result<(), CliError> {
    let path = a.arg(0)?;
    let (encoding, backend, out) = (a.text("encoding"), a.opt_text("backend"), a.text("out"));
    let (encoding, backend) = if encoding == "adaptive" {
        if let Some(b) = backend.filter(|&b| b != "adaptive") {
            return Err(CliError::Usage(format!(
                "--encoding adaptive means --encoding bee --backend adaptive; \
                 it cannot be combined with --backend {b}"
            )));
        }
        ("bee", "adaptive")
    } else {
        (encoding, backend.unwrap_or("wah"))
    };
    let d = load_dataset(path)?;
    let (n_bitmaps, bytes) = match encoding {
        "va" => {
            let va = VaFile::build(&d);
            va.save(out).map_err(|e| e.to_string())?;
            (0, va.size_bytes())
        }
        "bee" => save_bitmap::<Equality>(backend, &d, out)?,
        "bre" => save_bitmap::<Range>(backend, &d, out)?,
        "bie" => save_bitmap::<IntervalWindows>(backend, &d, out)?,
        "dec" => save_bitmap::<Decomposed>(backend, &d, out)?,
        other => {
            return Err(CliError::Usage(format!(
                "unknown encoding {other:?} (bee|bre|bie|dec|va|adaptive)"
            )))
        }
    };
    if n_bitmaps > 0 {
        println!(
            "wrote {encoding}/{backend} index: {n_bitmaps} bitmaps, {:.1} KB → {out}",
            bytes as f64 / 1024.0
        );
    } else {
        println!("wrote va index: {:.1} KB → {out}", bytes as f64 / 1024.0);
    }
    Ok(())
}

/// Builds encoding `E` over the named backend and saves it to `out`,
/// returning the bitmap count and the stored bytes.
fn save_bitmap<E: Encoding>(
    backend: &str,
    d: &Dataset,
    out: &str,
) -> Result<(usize, usize), CliError> {
    fn save<E: Encoding, B: BitStore>(d: &Dataset, out: &str) -> Result<(usize, usize), CliError> {
        let idx = BitmapIndex::<E, B>::build(d);
        idx.save(out)
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        Ok((idx.n_bitmaps(), idx.size_bytes()))
    }
    match backend {
        "wah" => save::<E, Wah>(d, out),
        "bbc" => save::<E, Bbc>(d, out),
        "plain" => save::<E, BitVec64>(d, out),
        "adaptive" => save::<E, Adaptive>(d, out),
        other => Err(CliError::Usage(format!(
            "unknown backend {other:?} (wah|bbc|plain|adaptive)"
        ))),
    }
}

/// Loads a saved index — a VA-file, or whichever bitmap encoding and
/// backend the file's header names — as an engine-layer [`AccessMethod`],
/// so the query path downstream is encoding-agnostic.
fn load_access_method(path: &str, d: &Arc<Dataset>) -> Result<Box<dyn AccessMethod>, String> {
    let load = || -> std::io::Result<(usize, Box<dyn AccessMethod>)> {
        let mut r = std::io::BufReader::new(std::fs::File::open(path)?);
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        let mut r = magic.as_slice().chain(r);
        if &magic == b"IBVA" {
            let va = VaFile::read_from(&mut r)?;
            Ok((va.n_rows(), Box::new(va.bind(Arc::clone(d)))))
        } else {
            ibis::bitmap::read_any(&mut r)
        }
    };
    let (idx_rows, method) = load().map_err(|e| {
        format!("cannot load index {path:?}: {e} — rebuild the index with `ibis index`")
    })?;
    if idx_rows != d.n_rows() {
        return Err(format!(
            "index {path:?} covers {idx_rows} rows but the dataset has {} — \
             rebuild the index with `ibis index`",
            d.n_rows()
        ));
    }
    Ok(method)
}

fn query(a: &Args) -> Result<(), CliError> {
    let mut locals = "data-dir index shard-rows profile profile-json threads".split(' ');
    if let Some(local) = locals.find(|&l| a.has("addr") && a.has(l)) {
        return Err(CliError::Usage(format!(
            "--addr sends the query to a running server; it cannot be \
             combined with --{local}"
        )));
    }
    if a.has("data-dir") {
        return query_durable(a);
    }
    let [path, text] = a.positional.as_slice() else {
        return Err(a.usage());
    };
    let d = Arc::new(load_dataset(path)?);
    let policy = policy_flag(a);
    // The sidecar enables string literals like city = "london".
    let dicts = sidecar(path, &d);
    let q = match &dicts {
        Some(dicts) => parse_query_with_dictionaries(&d, dicts, text, policy),
        None => parse_query(&d, text, policy),
    }
    .map_err(|e| e.to_string())?;
    if let Some(addr) = a.opt_text("addr") {
        return server_query(addr, &q, a.num("deadline-ms"), a);
    }
    let threads = a.opt_num("threads").unwrap_or_else(configured_threads);
    let shard_rows: Option<usize> = a.opt_num("shard-rows");
    if shard_rows.is_some() && a.has("index") {
        return Err(
            "--shard-rows builds per-shard indexes; it cannot be combined with --index".into(),
        );
    }
    let profile_json = a.opt_text("profile-json");
    // Without a saved index the scan baseline is the method (its chunks
    // are spans too).
    let method = || -> Result<Box<dyn AccessMethod>, String> {
        Ok(match a.opt_text("index") {
            Some(idx) => load_access_method(idx, &d)?,
            None => Box::new(SequentialScan.bind(Arc::clone(&d))),
        })
    };
    let rows = if a.has("profile") || profile_json.is_some() {
        // Profile through the engine trait. With --shard-rows the whole
        // sharded pipeline is profiled instead: per-shard `db.shard` spans
        // plus the `shards.pruned` counter.
        let prof = match shard_rows {
            Some(n) => {
                let db = ShardedDb::new(Dataset::clone(&d), n);
                ibis::profile::profile_sharded(&db, &q, threads)
            }
            None => ibis::profile::profile_method(method()?.as_ref(), &q, threads),
        }
        .map_err(|e| e.to_string())?;
        print!("{}", prof.render());
        println!("per-phase totals (spans, time, counter deltas):");
        print_phases(prof.phases(), "  ");
        if shard_rows.is_some() {
            let pruned = prof.snapshot.counters.get("shards.pruned").copied();
            println!("shards pruned: {}", pruned.unwrap_or(0));
        }
        if let Some(path) = profile_json {
            std::fs::write(path, prof.to_json())
                .map_err(|e| format!("cannot write profile {path:?}: {e}"))?;
            println!("profile JSON written to {path}");
        }
        prof.rows
    } else if let Some(n) = shard_rows {
        let db = ShardedDb::new(Dataset::clone(&d), n);
        let exec = db
            .execute_with_stats_threads(&q, threads)
            .map_err(|e| e.to_string())?;
        println!(
            "shards: {} total, {} pruned, {} executed",
            exec.shards_total,
            exec.shards_pruned,
            exec.shards_executed()
        );
        exec.rows
    } else {
        method()?
            .execute_threads(&q, threads)
            .map_err(|e| e.to_string())?
    };
    print_matches(a, &rows, d.n_rows(), policy, |r| {
        let cells: Vec<String> = q
            .predicates()
            .iter()
            .map(|p| {
                let cell = d.cell(r as usize, p.attr);
                let shown = match (&dicts, cell.value()) {
                    // Stale/mismatched sidecar → fall back to the code.
                    (Some(dicts), Some(v)) => dicts
                        .get(p.attr)
                        .and_then(|dict| dict.get(v as usize - 1))
                        .cloned()
                        .unwrap_or_else(|| cell.to_string()),
                    _ => cell.to_string(),
                };
                format!("{}={shown}", d.column(p.attr).name())
            })
            .collect();
        format!("row {r}: {}", cells.join(" "))
    });
    Ok(())
}

/// One line per profiled phase (spans, total time), each followed by its
/// counter deltas, all after `indent`.
fn print_phases(phases: Vec<(String, u64, u64, WorkCounters)>, indent: &str) {
    for (name, count, total_ns, counters) in phases {
        println!(
            "{indent}{name:<20} ×{count:<5} {:>9.3} ms",
            total_ns as f64 / 1e6
        );
        if !counters.is_zero() {
            for line in counters.to_string().lines() {
                println!("{indent}{line}");
            }
        }
    }
}

/// The `--not-match` flag as the policy it selects.
fn policy_flag(a: &Args) -> MissingPolicy {
    if a.has("not-match") {
        MissingPolicy::IsNotMatch
    } else {
        MissingPolicy::IsMatch
    }
}

/// The tail of a local `ibis query`: the match line, then the rows unless
/// `--count` asked for the line alone.
fn print_matches(
    a: &Args,
    rows: &RowSet,
    n_rows: usize,
    policy: MissingPolicy,
    show: impl Fn(u32) -> String,
) {
    println!(
        "{} rows match under {policy} (selectivity {:.3}%)",
        rows.len(),
        rows.selectivity(n_rows) * 100.0
    );
    if !a.has("count") {
        print_rows(a, rows.rows(), show);
    }
}

/// The first `--limit` of `rows`, one line each as `show` renders it, and
/// how many were left out.
fn print_rows(a: &Args, rows: &[u32], show: impl Fn(u32) -> String) {
    let limit: usize = a.num("limit");
    for &r in rows.iter().take(limit) {
        println!("  {}", show(r));
    }
    if rows.len() > limit {
        println!("  … {} more (use --limit)", rows.len() - limit);
    }
}

/// `ibis query --data-dir DIR "QUERY"` — recover the durable database,
/// acquire a serving snapshot, and query it through the sharded
/// executor (pruning stats included).
fn query_durable(a: &Args) -> Result<(), CliError> {
    let dir = a.text("data-dir");
    let text = a.arg(0)?;
    if a.has("index") || a.has("shard-rows") {
        return Err("--data-dir queries the directory's own per-shard indexes; \
                    it cannot be combined with --index or --shard-rows"
            .into());
    }
    let db = ConcurrentDb::open_durable(std::path::Path::new(dir))
        .map_err(|e| format!("cannot open data directory {dir:?}: {e}"))?;
    let replayed = db.with_durable(|d| d.replayed_on_open()).unwrap_or(0);
    if replayed > 0 {
        println!("recovered {dir}: replayed {replayed} WAL record(s) past the checkpoint");
    }
    let snap = db.snapshot();
    let policy = policy_flag(a);
    let q = parse_query(snap.db().schema(), text, policy).map_err(|e| e.to_string())?;
    let threads = a.opt_num("threads").unwrap_or_else(configured_threads);
    let rows = if a.has("profile") {
        let prof =
            ibis::profile::profile_sharded(snap.db(), &q, threads).map_err(|e| e.to_string())?;
        print!("{}", prof.render());
        let pruned = prof.snapshot.counters.get("shards.pruned").copied();
        println!("shards pruned: {}", pruned.unwrap_or(0));
        prof.rows
    } else {
        let exec = snap
            .execute_with_stats_threads(&q, threads)
            .map_err(|e| e.to_string())?;
        println!(
            "snapshot watermark {}; shards: {} total, {} pruned, {} executed",
            snap.watermark(),
            exec.shards_total,
            exec.shards_pruned,
            exec.shards_executed()
        );
        exec.rows
    };
    print_matches(a, &rows, snap.n_rows(), policy, |r| format!("row {r}"));
    Ok(())
}

fn init(a: &Args) -> Result<(), CliError> {
    let dir = a.arg(0)?;
    let d = load_dataset(a.text("from"))?;
    let db = DurableDb::create(
        std::path::Path::new(dir),
        d,
        a.num("shard-rows"),
        DbConfig::default(),
    )
    .map_err(|e| format!("cannot initialize {dir:?}: {e}"))?;
    println!(
        "initialized {dir}: generation {}, {} rows × {} attrs in {} shard(s)",
        db.generation(),
        db.n_rows(),
        db.n_attrs(),
        db.shard_count()
    );
    Ok(())
}

fn checkpoint(a: &Args) -> Result<(), CliError> {
    let dir = a.arg(0)?;
    let mut db = DurableDb::open(std::path::Path::new(dir))
        .map_err(|e| format!("cannot open data directory {dir:?}: {e}"))?;
    let replayed = db.replayed_on_open();
    db.checkpoint().map_err(|e| e.to_string())?;
    println!(
        "checkpointed {dir}: generation {}, {replayed} WAL record(s) folded in, \
         log truncated to {} bytes",
        db.generation(),
        db.wal_bytes()
    );
    Ok(())
}

fn backup(a: &Args) -> Result<(), CliError> {
    let (dir, out) = (a.arg(0)?, a.text("out"));
    let db = DurableDb::open(std::path::Path::new(dir))
        .map_err(|e| format!("cannot open data directory {dir:?}: {e}"))?;
    db.backup(std::path::Path::new(out))
        .map_err(|e| format!("cannot write backup {out:?}: {e}"))?;
    println!(
        "backed up {dir} ({} rows, generation {}) → {out}",
        db.n_rows(),
        db.generation()
    );
    Ok(())
}

fn restore(a: &Args) -> Result<(), CliError> {
    let (file, into) = (a.arg(0)?, a.text("into"));
    let db = DurableDb::restore(std::path::Path::new(file), std::path::Path::new(into))
        .map_err(|e| format!("cannot restore {file:?} into {into:?}: {e}"))?;
    println!(
        "restored {file} → {into}: {} rows × {} attrs, generation {}",
        db.n_rows(),
        db.n_attrs(),
        db.generation()
    );
    Ok(())
}

fn validate(a: &Args) -> Result<(), CliError> {
    let dir = a.arg(0)?;
    let r = DurableDb::validate(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
    println!(
        "{dir}: generation {}, watermark {}",
        r.generation, r.watermark
    );
    println!(
        "  snapshot: {} shard(s), {} row(s)",
        r.snapshot_shards, r.snapshot_rows
    );
    println!(
        "  wal: {} replayable record(s) in {} well-formed byte(s), {} torn byte(s)",
        r.wal_records, r.wal_bytes, r.torn_tail_bytes
    );
    if r.torn_tail_bytes > 0 {
        println!("  note: the torn tail will be repaired by the next open");
    }
    Ok(())
}

fn crash(a: &Args) -> Result<(), CliError> {
    let cfg = ibis::oracle::CrashConfig {
        seed: a.num("seed"),
        rows: a.num("rows"),
        kill_points: a.num("kill-points"),
        bit_flips: a.num("bit-flips"),
        threads: a.nums("threads"),
        ..ibis::oracle::CrashConfig::default()
    };
    println!(
        "crash harness: seed {}, {} rows, {} extra kill points, {} bit flips, threads {:?}",
        cfg.seed, cfg.rows, cfg.kill_points, cfg.bit_flips, cfg.threads
    );
    let start = std::time::Instant::now();
    let report =
        ibis::oracle::crash::run(&cfg).map_err(|e| format!("harness scaffolding failed: {e}"))?;
    let clean = "every recovery matched its durable prefix exactly";
    verdict(report.summary(), start, &report.failures, clean)
}

/// A harness run's last words: its summary and time since `start`, then
/// either `clean` or the first ten failed checks and an error counting them.
fn verdict(
    summary: String,
    start: std::time::Instant,
    failures: &[ibis::oracle::Failure],
    clean: &str,
) -> Result<(), CliError> {
    println!("{summary} in {:.1}s", start.elapsed().as_secs_f64());
    if failures.is_empty() {
        println!("{clean}");
        return Ok(());
    }
    for f in failures.iter().take(10) {
        println!(
            "FAILED {}: {}",
            f.check,
            f.detail.lines().next().unwrap_or("")
        );
    }
    Err(CliError::Runtime(format!(
        "{} failing check(s)",
        failures.len()
    )))
}

fn race(a: &Args) -> Result<(), CliError> {
    let path = a.arg(0)?;
    let d = load_dataset(path)?;
    let (n, k): (usize, usize) = (a.num("queries"), a.num("k"));
    let threads = a.opt_num("threads").unwrap_or_else(configured_threads);
    if k > d.n_attrs() {
        let width = d.n_attrs();
        return Err(CliError::Usage(format!(
            "--k {k} exceeds the schema of {path:?}, which has {width} attributes"
        )));
    }
    let spec = QuerySpec {
        n_queries: n,
        k,
        global_selectivity: 0.01,
        policy: MissingPolicy::IsMatch,
        candidate_attrs: vec![],
    };
    let queries = workload(&d, &spec, a.num("seed"));
    if let Some(mutations) = a.opt_num("live") {
        return race_live(d, &queries, threads, mutations, a.num("shard-rows"));
    }
    let d = Arc::new(d);
    // The contenders, all through the one engine-layer trait (the scan
    // rides along as the index-free baseline).
    let methods: Vec<Box<dyn AccessMethod>> = vec![
        Box::new(EqualityBitmapIndex::<Wah>::build(&d)),
        Box::new(RangeBitmapIndex::<Wah>::build(&d)),
        Box::new(VaFile::build(&d).bind(Arc::clone(&d))),
        Box::new(SequentialScan.bind(Arc::clone(&d))),
    ];
    println!(
        "{n} queries, k={k}, missing-is-match, {threads} thread(s) over {} rows:",
        d.n_rows()
    );
    let profile = a.has("profile");
    if profile {
        println!("  (profiling on: timings include recorder overhead)");
    }
    let mut hit_totals = Vec::new();
    for m in &methods {
        if profile {
            Recorder::enabled().install();
        }
        let start = std::time::Instant::now();
        let hits: usize = queries
            .iter()
            .map(|q| {
                m.execute_threads(q, threads)
                    .expect("valid workload query")
                    .len()
            })
            .sum();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        hit_totals.push(hits);
        println!(
            "  {:<16} {ms:>9.2} ms   ({:.1} KB)",
            m.name(),
            m.size_bytes() as f64 / 1024.0
        );
        if profile {
            let snap = ibis::obs::snapshot();
            Recorder::disabled().install();
            // No root to leave out: every query of the run is its own tree.
            print_phases(WorkCounters::phases(&snap.spans, 0), "      ");
        }
    }
    assert!(
        hit_totals.windows(2).all(|w| w[0] == w[1]),
        "access methods disagree: {hit_totals:?}"
    );
    Ok(())
}

/// `ibis race FILE --live N` — readers loop the workload over frozen
/// snapshots while one writer streams mutations; throughput per reader.
fn race_live(
    d: Dataset,
    queries: &[RangeQuery],
    threads: usize,
    mutations: usize,
    shard_rows: usize,
) -> Result<(), CliError> {
    use std::sync::atomic::{AtomicBool, Ordering};
    let n_attrs = d.n_attrs();
    let cards: Vec<u16> = (0..n_attrs).map(|a| d.column(a).cardinality()).collect();
    let base_rows = d.n_rows();
    let db = ConcurrentDb::new_mem(d, shard_rows);
    println!(
        "live race: {threads} reader(s) × {} queries/loop vs 1 writer × {mutations} mutation(s), \
         {} shard(s) of {shard_rows}",
        queries.len(),
        db.snapshot().shard_count()
    );
    let done = AtomicBool::new(false);
    let start = std::time::Instant::now();
    std::thread::scope(|s| -> Result<(), String> {
        let writer = s.spawn(|| -> Result<(), String> {
            // A deterministic mutation stream: mostly appends, a steady
            // trickle of deletes, an occasional compaction.
            for i in 0..mutations {
                match i % 16 {
                    3 | 11 => {
                        db.delete((i % (base_rows.max(1) + i / 2)) as u32)
                            .map_err(|e| format!("writer delete: {e}"))?;
                    }
                    15 if i % 256 == 255 => {
                        db.compact().map_err(|e| format!("writer compact: {e}"))?;
                    }
                    _ => {
                        let row: Vec<Cell> = cards
                            .iter()
                            .enumerate()
                            .map(|(a, &c)| {
                                if (i + a) % 7 == 0 {
                                    Cell::MISSING
                                } else {
                                    Cell::present(((i + a) % c as usize) as u16 + 1)
                                }
                            })
                            .collect();
                        db.insert(&row).map_err(|e| format!("writer insert: {e}"))?;
                    }
                }
            }
            done.store(true, Ordering::SeqCst);
            Ok(())
        });
        // Each reader loops the whole workload over a fresh snapshot per
        // pass until the writer finishes (at least one pass always runs).
        let tallies = ibis::core::parallel::ExecPool::new(threads).broadcast(|r| {
            let mut passes = 0u64;
            let mut rows_seen = 0u64;
            let (mut w_lo, mut w_hi) = (u64::MAX, 0u64);
            loop {
                let snap = db.snapshot();
                let w = snap.watermark();
                w_lo = w_lo.min(w);
                w_hi = w_hi.max(w);
                for q in queries {
                    match snap.execute(q) {
                        Ok(rows) => rows_seen += rows.len() as u64,
                        Err(e) => return Err(format!("reader {r}: {e}")),
                    }
                }
                passes += 1;
                if done.load(Ordering::SeqCst) {
                    return Ok((passes, rows_seen, w_lo, w_hi));
                }
            }
        });
        writer.join().expect("writer thread panicked")?;
        let secs = start.elapsed().as_secs_f64();
        let mut total_q = 0u64;
        for (r, t) in tallies.into_iter().enumerate() {
            let (passes, rows_seen, w_lo, w_hi) = t?;
            total_q += passes * queries.len() as u64;
            println!(
                "  reader {r}: {passes} workload pass(es), {rows_seen} rows read, \
                 watermarks {w_lo}..={w_hi}"
            );
        }
        println!(
            "{} queries answered in {secs:.2}s ({:.0} q/s) while the writer applied {} mutations \
             ({:.0} mut/s); final watermark {}",
            total_q,
            total_q as f64 / secs,
            mutations,
            mutations as f64 / secs,
            db.snapshot().watermark()
        );
        Ok(())
    })
    .map_err(CliError::from)
}

/// `ibis stress` — the snapshot-isolation stress harness (differentially
/// checked; see [`ibis::oracle::stress`]).
fn stress(a: &Args) -> Result<(), CliError> {
    let cfg = ibis::oracle::StressConfig {
        seed: a.num("seed"),
        rows: a.num("rows"),
        readers: a.num("readers"),
        mutations: if a.has("no-writer") {
            0
        } else {
            a.num("mutations")
        },
        checkpoint_every: a.num("checkpoint-every"),
        threads: a.nums("threads"),
        durable: a.has("durable"),
        ..ibis::oracle::StressConfig::default()
    };
    println!(
        "stress harness: seed {}, {} rows, {} reader(s) vs {}, {} backend, degrees {:?}",
        cfg.seed,
        cfg.rows,
        cfg.readers,
        if cfg.mutations == 0 {
            "no writer".to_string()
        } else {
            format!("1 writer × {} mutation(s)", cfg.mutations)
        },
        if cfg.durable { "durable" } else { "in-memory" },
        cfg.threads
    );
    let start = std::time::Instant::now();
    let report =
        ibis::oracle::stress::run(&cfg).map_err(|e| format!("harness scaffolding failed: {e}"))?;
    let clean = "every snapshot matched its schedule prefix exactly";
    verdict(report.summary(), start, &report.failures, clean)
}

fn oracle(a: &Args) -> Result<(), CliError> {
    let cfg = ibis::oracle::OracleConfig {
        cases: a.num("cases"),
        seed: a.num("seed"),
        corpus_dir: Some(a.text("corpus").into()),
        max_failures: a.num("max-failures"),
        case_budget_ms: a.num("case-budget-ms"),
        ..ibis::oracle::OracleConfig::default()
    };
    println!(
        "oracle: {} cases, seed {}, repros → {}",
        cfg.cases,
        cfg.seed,
        cfg.corpus_dir
            .as_deref()
            .unwrap_or_else(|| std::path::Path::new("-"))
            .display()
    );
    let start = std::time::Instant::now();
    let report = ibis::oracle::run(&cfg);
    println!(
        "ran {} cases / {} checks in {:.1}s",
        report.cases_run,
        report.checks_run,
        start.elapsed().as_secs_f64()
    );
    println!("{}", report.timing_summary());
    if let Some(&(idx, ms)) = report.slowest.first() {
        println!("slowest case: #{idx} at {ms} ms");
    }
    if report.ok() {
        println!("all checks passed");
        return Ok(());
    }
    for bug in &report.bugs {
        println!("FAILED case {}: {}", bug.case_idx, bug.failure.check);
        println!("  {}", bug.failure.detail.lines().next().unwrap_or(""));
        println!(
            "  minimized to {} rows × {} attrs, {} queries{}",
            bug.minimized.dataset.n_rows(),
            bug.minimized.dataset.n_attrs(),
            bug.minimized.queries.len(),
            match &bug.repro_path {
                Some(p) => format!(" — repro written to {}", p.display()),
                None => String::new(),
            }
        );
    }
    Err(CliError::Runtime(format!(
        "{} failing case(s)",
        report.bugs.len()
    )))
}

/// `ibis serve` — expose a database over the `IBQP` wire protocol (see
/// `ibis::server`): snapshot reads on a fixed worker pool with
/// per-request deadlines and admission control.
fn serve(a: &Args) -> Result<(), CliError> {
    let config = ServerConfig {
        workers: a.num("workers"),
        max_batch: a.num("max-batch"),
        queue_high_water: a.num("queue-high-water"),
        default_deadline_ms: a.num("deadline-ms"),
        trace_sample: a.num("trace-sample"),
        slow_log_size: a.num("slow-log"),
    };
    if config.trace_sample == 0 && a.has("slow-log") {
        return Err(
            "--trace-sample 0 disables request tracing, so the slow-query \
             log never fills and --slow-log is useless; drop --slow-log or \
             use a non-zero --trace-sample"
                .into(),
        );
    }
    let db = if let Some(dir) = a.opt_text("data-dir") {
        if !a.positional.is_empty() {
            return Err("--data-dir serves the durable directory; \
                        it cannot be combined with a dataset file"
                .into());
        }
        ConcurrentDb::open_durable(std::path::Path::new(dir))
            .map_err(|e| format!("cannot open data directory {dir:?}: {e}"))?
    } else {
        let d = load_dataset(a.arg(0)?)?;
        ConcurrentDb::new_mem(d, a.num("shard-rows"))
    };
    let addr = a.text("addr");
    let snap = db.snapshot();
    let handle = Server::start(Arc::new(db), addr, config.clone())
        .map_err(|e| format!("cannot bind {addr:?}: {e}"))?;
    println!(
        "serving {} rows × {} attrs on {} ({} worker(s), batch ≤ {}, \
         queue high-water {}, default deadline {} ms)",
        snap.n_rows(),
        snap.n_attrs(),
        handle.addr(),
        config.workers,
        config.max_batch,
        config.queue_high_water,
        config.default_deadline_ms
    );
    drop(snap);
    // Scripts and tests read the bound address from this file; with
    // `--addr 127.0.0.1:0` it is the only way to learn the chosen port.
    if let Some(path) = a.opt_text("addr-file") {
        std::fs::write(path, handle.addr().to_string())
            .map_err(|e| format!("cannot write address file {path:?}: {e}"))?;
    }
    match a.opt_num::<u64>("duration-secs") {
        Some(secs) => {
            std::thread::sleep(std::time::Duration::from_secs(secs));
            handle.shutdown();
            println!("served for {secs}s, shut down cleanly");
        }
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
    Ok(())
}

/// `ibis query … --addr` — send an already-parsed query to a running
/// server over IBQP. The local FILE supplies only the schema; answers
/// come from (and are labelled with) the server's snapshot watermark, so
/// row ids are printed without re-reading cells from the possibly-stale
/// local file.
fn server_query(addr: &str, q: &RangeQuery, deadline_ms: u32, a: &Args) -> Result<(), CliError> {
    let mut client = ibis::server::Client::connect(addr)
        .map_err(|e| format!("cannot connect to {addr:?}: {e}"))?;
    let response = if a.has("count") {
        client.count(q, deadline_ms)
    } else {
        client.query(q, deadline_ms)
    }
    .map_err(|e| format!("query request to {addr:?} failed: {e}"))?;
    match response {
        ibis::server::Response::Count { watermark, count } => {
            println!(
                "{count} rows match under {} (server watermark {watermark})",
                q.policy()
            );
        }
        ibis::server::Response::Rows { watermark, rows } => {
            println!(
                "{} rows match under {} (server watermark {watermark})",
                rows.len(),
                q.policy()
            );
            print_rows(a, &rows, |r| format!("row {r}"));
        }
        ibis::server::Response::Error { code, message } => {
            return Err(CliError::Runtime(format!(
                "server refused the query ({code:?}): {message}"
            )));
        }
        other => {
            return Err(CliError::Runtime(format!(
                "unexpected response from {addr:?}: {other:?}"
            )));
        }
    }
    Ok(())
}

/// `ibis stats --addr` — one `STATS` request against a running server,
/// rendered in the requested view (summary, `--json`, `--prom`, `--slow`).
fn server_stats(addr: &str, a: &Args) -> Result<(), CliError> {
    let mut client = ibis::server::Client::connect(addr)
        .map_err(|e| format!("cannot connect to {addr:?}: {e}"))?;
    let want_slow = a.has("slow");
    let report = client
        .stats(want_slow)
        .map_err(|e| format!("STATS request to {addr:?} failed: {e}"))?;
    if a.has("json") {
        println!("{}", report.metrics_json);
        return Ok(());
    }
    let snap = ibis::obs::Snapshot::from_json(&report.metrics_json)
        .map_err(|e| format!("malformed metrics from {addr:?}: {e}"))?;
    if a.has("prom") {
        print!("{}", snap.to_prometheus());
        return Ok(());
    }
    if want_slow {
        print!("{}", render_slow_queries(&report.slow_queries));
        return Ok(());
    }
    print!("{}", render_server_stats(addr, &report, &snap));
    Ok(())
}

/// `ibis top` — poll `STATS` and redraw a terminal dashboard.
fn top(a: &Args) -> Result<(), CliError> {
    if !a.positional.is_empty() {
        return Err(a.usage());
    }
    let addr = a.text("addr");
    let interval_ms: u64 = a.num("interval-ms");
    let iterations: Option<u64> = a.opt_num("iterations");
    let mut client = ibis::server::Client::connect(addr)
        .map_err(|e| format!("cannot connect to {addr:?}: {e}"))?;
    let mut drawn = 0u64;
    loop {
        let report = client
            .stats(true)
            .map_err(|e| format!("STATS request to {addr:?} failed: {e}"))?;
        let snap = ibis::obs::Snapshot::from_json(&report.metrics_json)
            .map_err(|e| format!("malformed metrics from {addr:?}: {e}"))?;
        // Clear the screen and park the cursor before every frame; a
        // dumb-terminal consumer just sees frames separated by escapes.
        print!("\x1b[2J\x1b[H{}", render_top(addr, &report, &snap));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        drawn += 1;
        if iterations.is_some_and(|n| drawn >= n) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
    println!();
    Ok(())
}

/// `12345` µs → `"12.3 ms"`; sub-millisecond values keep µs resolution.
fn fmt_us(us: u64) -> String {
    if us >= 1000 {
        format!("{:.1} ms", us as f64 / 1000.0)
    } else {
        format!("{us} µs")
    }
}

/// The `ibis stats --addr` summary view: headline serving gauges plus the
/// windowed (rolling) throughput and latency quantiles.
fn render_server_stats(
    addr: &str,
    report: &ibis::server::StatsReport,
    snap: &ibis::obs::Snapshot,
) -> String {
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "stats for {addr} — watermark {}, uptime {:.1}s",
        report.watermark,
        report.uptime_ms as f64 / 1000.0
    );
    let _ = writeln!(
        out,
        "queue {} (high-water {})   workers {}/{} busy",
        report.queue_depth, report.queue_high_water, report.workers_busy, report.workers
    );
    let rate = snap
        .window_counters
        .get("server.responses")
        .map_or(0.0, |w| w.rate_per_sec());
    if let Some(w) = snap.windows.get("server.request_us") {
        let h = w.merged();
        let _ = writeln!(
            out,
            "window (last ~{}s): {rate:.1} req/s, p50 {}, p99 {}",
            w.bucket_ms * u64::from(w.capacity) / 1000,
            fmt_us(h.p50()),
            fmt_us(h.p99()),
        );
    } else {
        let _ = writeln!(out, "window: no requests yet ({rate:.1} req/s)");
    }
    let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let _ = writeln!(
        out,
        "lifetime: {} requests, {} admitted, {} shed, {} expired, {} traced",
        c("server.requests"),
        c("server.admitted"),
        c("server.shed_overload"),
        c("server.shed_deadline"),
        c("server.traced"),
    );
    let wc = |name: &str| snap.window_counters.get(name).map_or(0, |w| w.total());
    let (m, nm) = (
        wc("server.policy_is_match"),
        wc("server.policy_is_not_match"),
    );
    if m + nm > 0 {
        let _ = writeln!(
            out,
            "policy split (window): is-match {:.1}%, is-not-match {:.1}%",
            100.0 * m as f64 / (m + nm) as f64,
            100.0 * nm as f64 / (m + nm) as f64,
        );
    }
    out
}

/// The `ibis stats --addr --slow` view: the server's slow-query log,
/// worst-first, with the queue/execute split and per-phase counter deltas.
fn render_slow_queries(slow: &[ibis::server::SlowQuery]) -> String {
    use std::fmt::Write as _;
    if slow.is_empty() {
        return "slow-query log is empty (is the server tracing? see serve --trace-sample)\n"
            .to_string();
    }
    let mut out = String::new();
    for (i, s) in slow.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>2}. request {}  total {} (queue {} + exec {})  watermark {}",
            i + 1,
            s.request_id,
            fmt_us(s.total_us),
            fmt_us(s.queue_us),
            fmt_us(s.exec_us),
            s.watermark
        );
        let _ = writeln!(out, "    plan: {}", s.plan);
        let counters: Vec<String> = s.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(out, "    counters: {}", counters.join(" "));
        for p in &s.phases {
            let pc: Vec<String> = p.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(
                out,
                "      {:<12} ×{:<4} {:>10}  {}",
                p.name,
                p.spans,
                fmt_us(p.total_ns / 1000),
                pc.join(" ")
            );
        }
    }
    out
}

/// One `ibis top` frame: the stats summary plus the worst slow queries.
fn render_top(
    addr: &str,
    report: &ibis::server::StatsReport,
    snap: &ibis::obs::Snapshot,
) -> String {
    use std::fmt::Write as _;
    let mut out = format!("ibis top — {addr}\n\n");
    out.push_str(&render_server_stats(addr, report, snap));
    if !report.slow_queries.is_empty() {
        let _ = writeln!(out, "\nslow queries (worst {}):", report.slow_queries.len());
        for s in report.slow_queries.iter().take(5) {
            let _ = writeln!(
                out,
                "  {:>10}  (queue {} + exec {})  {}",
                fmt_us(s.total_us),
                fmt_us(s.queue_us),
                fmt_us(s.exec_us),
                s.plan
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing() {
        let strings =
            |args: &[&str]| -> Vec<String> { args.iter().map(|s| s.to_string()).collect() };
        const TABLE: Command = Command {
            usage: "t FILE",
            flags: &[
                flag("rows", "N", Int(USIZE), Unset).at_least(1),
                switch("count"),
                flag("out", "FILE", Text, Unset),
                flag("limit", "N", Int(U32), Is("20")),
            ],
            about: "",
            run: |_| Ok(()),
        };
        let args = strings(&["data.ibds", "--rows", "100", "--count", "--out", "x"]);
        let a = TABLE.parse(&args).unwrap();
        assert_eq!(a.positional, vec!["data.ibds"]);
        assert_eq!(a.num::<usize>("rows"), 100);
        assert!(a.has("count"));
        assert_eq!(a.text("out"), "x");
        // Defaults are filled in but not counted as given.
        assert_eq!((a.num::<u32>("limit"), a.has("limit")), (20, false));
        // A flag outside the table, a value-taking flag with nothing (or
        // another flag) after it, a malformed number, or one out of the
        // declared range is refused with the table in the message.
        for bad in [
            &["--cuont"][..],
            &["--"],
            &["--rows"],
            &["--rows", "--count"],
            &["--out", "x", "--match"],
            &["--rows", "ten"],
            &["--rows", "0"],
            &["--limit", "4294967296"],
        ] {
            let err = TABLE.parse(&strings(bad)).err().unwrap();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?}: {err:?}");
            assert!(
                err.message().contains("--rows --count --out --limit"),
                "{err:?}"
            );
        }
        const BARE: Command = Command {
            flags: &[],
            ..TABLE
        };
        let err = BARE.parse(&strings(&["--force"])).err().unwrap();
        assert!(err.message().contains("no flags"), "{err:?}");
        // Every declared default is a valid value of its flag.
        for c in COMMANDS {
            for f in c.flags {
                if let Is(value) = f.absent {
                    assert!(f.read(value).is_ok(), "{} --{}", c.usage, f.name);
                }
            }
        }
    }

    #[test]
    fn serve_defaults_are_the_server_config_defaults() {
        let serve = COMMANDS.iter().find(|c| c.name() == "serve").unwrap();
        let (a, d) = (serve.parse(&[]).unwrap(), ServerConfig::default());
        let counts: [usize; 4] = [
            a.num("workers"),
            a.num("max-batch"),
            a.num("queue-high-water"),
            a.num("slow-log"),
        ];
        let expected = [d.workers, d.max_batch, d.queue_high_water, d.slow_log_size];
        assert_eq!(counts, expected);
        let rest: [u64; 2] = [a.num("deadline-ms"), a.num("trace-sample")];
        assert_eq!(rest, [d.default_deadline_ms, d.trace_sample]);
    }

    /// `line` split into words as a shell would split these simple lines:
    /// quotes group, and a `#` that starts a word ends the line.
    fn shell_words(line: &str) -> Vec<String> {
        let (mut words, mut word, mut quote) = (Vec::new(), None::<String>, None);
        for c in line.chars() {
            match (quote, c) {
                (Some(q), c) if c == q => quote = None,
                (None, '"' | '\'') => {
                    quote = Some(c);
                    word.get_or_insert_with(String::new);
                }
                (None, c) if c.is_whitespace() => words.extend(word.take()),
                (None, '#') if word.is_none() => break,
                _ => word.get_or_insert_with(String::new).push(c),
            }
        }
        words.extend(word);
        words
    }

    #[test]
    fn documented_command_lines_parse() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let read = |path: &str| std::fs::read_to_string(root.join(path)).unwrap();
        let module_doc: String = read("src/bin/ibis.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//!"))
            .map(|l| format!("{}\n", l.strip_prefix(' ').unwrap_or(l)))
            .collect();
        for (doc, text, at_least) in [
            ("README.md", read("README.md"), 20),
            ("module doc", module_doc, 6),
        ] {
            // The lines of shell and text code blocks, `\` continuations
            // joined; `shell` is `Some` inside a block.
            let (mut lines, mut shell, mut pending) = (Vec::new(), None, String::new());
            for line in text.lines() {
                if let Some(tag) = line.trim_start().strip_prefix("```") {
                    shell = match shell {
                        None => Some(matches!(tag, "bash" | "sh" | "text")),
                        Some(_) => None,
                    };
                } else if shell == Some(true) {
                    pending.push_str(line.trim_end());
                    if pending.ends_with('\\') {
                        pending.pop();
                    } else {
                        lines.push(std::mem::take(&mut pending));
                    }
                }
            }
            let mut checked = 0;
            for line in lines {
                let line = line.trim_start();
                let words = shell_words(line.strip_prefix("$ ").unwrap_or(line));
                let args = match words.first().map(String::as_str) {
                    Some("ibis") => &words[1..],
                    Some("cargo") => {
                        match words.windows(3).position(|w| w == ["--bin", "ibis", "--"]) {
                            Some(at) => &words[at + 3..],
                            None => continue,
                        }
                    }
                    _ => continue,
                };
                let command = COMMANDS
                    .iter()
                    .find(|c| c.name() == args[0])
                    .unwrap_or_else(|| panic!("{doc}: unknown command in {line:?}"));
                if let Err(e) = command.parse(&args[1..]) {
                    panic!("{doc}: {line:?} does not parse: {}", e.message());
                }
                checked += 1;
            }
            assert!(
                checked >= at_least,
                "{doc}: only {checked} ibis lines found"
            );
        }
    }

    #[test]
    fn help_names_every_command_and_flag() {
        let help = help();
        for c in COMMANDS {
            assert!(help.contains(&format!("\n  {}", c.usage)), "{}", c.usage);
            for f in c.flags {
                assert!(help.contains(&f.synopsis()), "{} --{}", c.usage, f.name);
            }
        }
        assert!(help.lines().all(|l| l.chars().count() <= 78), "{help}");
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&["frobnicate".to_string()]).is_err());
        assert!(run(&[]).is_ok()); // help
    }

    #[test]
    fn malformed_flags_are_usage_errors_with_exit_code_2() {
        let s = |x: &str| x.to_string();
        // Malformed numeric values, missing required flags, unknown
        // commands and enum values: all usage errors → exit code 2. One
        // command line per case, split on spaces (no case gets as far as
        // parsing its query, so `a=1` needs no quoting).
        let usage_cases = [
            "generate --rows abc --kind census --out x",
            "generate --rows -4 --kind census --out x",
            "generate --rows 10 --kind census",
            "generate --rows 10 --kind martian --out x",
            "stress --mutations 1e5",
            "stress --threads 1,x",
            "oracle --cases many",
            "crash --bit-flips 2.5",
            "serve --workers zero",
            "serve",
            "serve x.ibds --slow-log 0",
            "serve x.ibds --trace-sample often",
            // Tracing disabled + an explicit slow-log size: the log could
            // never fill, so the combination is rejected up front.
            "serve x.ibds --trace-sample 0 --slow-log 4",
            // A zero deadline expires every query while it is queued, and
            // a zero high-water mark admits nothing.
            "serve x.ibds --deadline-ms 0",
            "serve x.ibds --queue-high-water 0",
            // Misspelt flags must not be swallowed: each of these used to
            // run (or generate) as if the flag had not been given.
            "query x.ibds a=1 --not-mach",
            "query x.ibds a=1 --treads 3",
            "generate --rows 10 --kind census --out x --sed 9",
            "query x.ibds a=1 --limit",
            "checkpoint dir --force",
            "top",
            "top --addr h:1 --interval-ms 0",
            "top --addr h:1 --iterations 0",
            "top stray --addr h:1",
            "stats x.ibds --addr h:1",
            "query x.ibds a=1 --addr h:1 --index x.bre",
            "query x.ibds a=1 --addr h:1 --profile",
            "query --data-dir d a=1 --addr h:1",
            // `--encoding adaptive` is shorthand for bee over the adaptive
            // backend; any other backend contradicts it.
            "index x.ibds --encoding adaptive --backend wah --out x",
            "frobnicate",
        ];
        for case in usage_cases {
            let args: Vec<String> = case.split(' ').map(s).collect();
            let err = run(&args).unwrap_err();
            assert!(
                matches!(err, CliError::Usage(_)),
                "{args:?} should be a usage error, got {err:?}"
            );
            assert_eq!(err.exit_code(), 2, "{args:?}");
        }
        // A well-formed command that fails while running exits with 1.
        let err = run(&[s("stats"), s("/no/such/file.ibds")]).unwrap_err();
        assert!(matches!(err, CliError::Runtime(_)), "got {err:?}");
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn serve_subcommand_answers_queries_over_loopback() {
        let dir = std::env::temp_dir().join(format!("ibis_cli_serve_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.ibds").to_string_lossy().into_owned();
        let addr_file = dir.join("addr.txt").to_string_lossy().into_owned();
        let s = |x: &str| x.to_string();
        run(&[
            s("generate"),
            s("--kind"),
            s("census"),
            s("--rows"),
            s("300"),
            s("--out"),
            data.clone(),
        ])
        .unwrap();
        let serve_args: Vec<String> = vec![
            s("serve"),
            data.clone(),
            s("--addr"),
            s("127.0.0.1:0"),
            s("--addr-file"),
            addr_file.clone(),
            s("--shard-rows"),
            s("64"),
            s("--workers"),
            s("2"),
            s("--duration-secs"),
            s("3"),
        ];
        let server = std::thread::spawn(move || run(&serve_args));
        // The server writes its bound address once the listener is up.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(a) = std::fs::read_to_string(&addr_file) {
                if !a.is_empty() {
                    break a;
                }
            }
            assert!(std::time::Instant::now() < deadline, "no address file");
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        let mut client = ibis::server::Client::connect(&addr).unwrap();
        assert_eq!(client.ping().unwrap(), ibis::server::Response::Pong);
        let q = RangeQuery::new(vec![Predicate::range(0, 1, 2)], MissingPolicy::IsMatch).unwrap();
        match client.query(&q, 0).unwrap() {
            ibis::server::Response::Rows { rows, .. } => assert!(!rows.is_empty()),
            other => panic!("expected rows, got {other:?}"),
        }
        drop(client);
        server.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_views_and_top_poll_a_live_server() {
        let s = |x: &str| x.to_string();
        let data = census_scaled(500, 11);
        let db = ConcurrentDb::new_mem(data.clone(), 128);
        let config = ibis::server::ServerConfig {
            workers: 2,
            trace_sample: 1,
            ..Default::default()
        };
        let handle = ibis::server::Server::start(Arc::new(db), "127.0.0.1:0", config).unwrap();
        let addr = handle.addr().to_string();
        let mut client = ibis::server::Client::connect(&addr).unwrap();
        let q = RangeQuery::new(vec![Predicate::range(0, 1, 2)], MissingPolicy::IsMatch).unwrap();
        for _ in 0..5 {
            client.count(&q, 10_000).unwrap();
        }
        // `ibis query --addr` sends traffic through the CLI path: FILE
        // supplies the schema, the answer comes from the server.
        let dir = std::env::temp_dir().join(format!("ibis_cli_netq_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("d.ibds");
        data.save(&file).unwrap();
        let fpath = file.to_str().unwrap().to_string();
        let query_text = format!("{} between 1 and 2", data.column(0).name());
        run(&[
            s("query"),
            fpath.clone(),
            query_text.clone(),
            s("--addr"),
            addr.clone(),
            s("--count"),
        ])
        .unwrap();
        run(&[
            s("query"),
            fpath,
            query_text,
            s("--addr"),
            addr.clone(),
            s("--limit"),
            s("2"),
        ])
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        for view in [None, Some("--json"), Some("--prom"), Some("--slow")] {
            let mut args = vec![s("stats"), s("--addr"), addr.clone()];
            if let Some(v) = view {
                args.push(s(v));
            }
            run(&args).unwrap_or_else(|e| panic!("stats {view:?} failed: {e:?}"));
        }
        run(&[
            s("top"),
            s("--addr"),
            addr.clone(),
            s("--interval-ms"),
            s("5"),
            s("--iterations"),
            s("2"),
        ])
        .unwrap();
        handle.shutdown();
    }

    #[test]
    fn server_stat_views_render_the_wire_report() {
        let report = ibis::server::StatsReport {
            watermark: 42,
            queue_depth: 3,
            queue_high_water: 64,
            workers: 4,
            workers_busy: 2,
            uptime_ms: 34_200,
            metrics_json: String::new(),
            slow_queries: vec![ibis::server::SlowQuery {
                request_id: 17,
                watermark: 42,
                plan: "a0∈[1,3] (IsNotMatch)".into(),
                queue_us: 120,
                exec_us: 3400,
                total_us: 3520,
                counters: vec![("bitmaps_accessed".into(), 8)],
                phases: vec![ibis::server::SlowPhase {
                    name: "db.shard".into(),
                    spans: 4,
                    total_ns: 3_200_000,
                    counters: vec![("bitmaps_accessed".into(), 8)],
                }],
            }],
        };
        let mut snap = ibis::obs::Snapshot::default();
        snap.counters.insert("server.requests".into(), 100);
        snap.counters.insert("server.admitted".into(), 95);
        snap.counters.insert("server.shed_overload".into(), 5);
        let summary = render_server_stats("h:1", &report, &snap);
        assert!(summary.contains("watermark 42"), "{summary}");
        assert!(summary.contains("queue 3 (high-water 64)"), "{summary}");
        assert!(summary.contains("95 admitted, 5 shed"), "{summary}");
        let slow = render_slow_queries(&report.slow_queries);
        assert!(slow.contains("request 17"), "{slow}");
        assert!(slow.contains("queue 120 µs + exec 3.4 ms"), "{slow}");
        assert!(slow.contains("db.shard"), "{slow}");
        assert!(slow.contains("bitmaps_accessed=8"), "{slow}");
        let frame = render_top("h:1", &report, &snap);
        assert!(frame.starts_with("ibis top — h:1"), "{frame}");
        assert!(frame.contains("slow queries (worst 1):"), "{frame}");
        assert!(render_slow_queries(&[]).contains("log is empty"));
    }

    #[test]
    fn oracle_subcommand_runs_a_small_clean_batch() {
        let dir = std::env::temp_dir().join(format!("ibis_cli_oracle_{}", std::process::id()));
        let s = |x: &str| x.to_string();
        run(&[
            s("oracle"),
            s("--cases"),
            s("4"),
            s("--seed"),
            s("99"),
            s("--corpus"),
            dir.to_string_lossy().into_owned(),
        ])
        .unwrap();
        // A clean run writes nothing into the corpus directory.
        assert!(!dir.exists() || std::fs::read_dir(&dir).unwrap().next().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_generate_index_query() {
        let dir = std::env::temp_dir().join(format!("ibis_cli_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.ibds").to_string_lossy().into_owned();
        let idx = dir.join("d.bre").to_string_lossy().into_owned();
        let s = |x: &str| x.to_string();
        run(&[
            s("generate"),
            s("--kind"),
            s("census"),
            s("--rows"),
            s("300"),
            s("--out"),
            data.clone(),
        ])
        .unwrap();
        run(&[s("stats"), data.clone()]).unwrap();
        run(&[
            s("index"),
            data.clone(),
            s("--encoding"),
            s("bre"),
            s("--out"),
            idx.clone(),
        ])
        .unwrap();
        // Query through the saved index and by scan; the printed counts are
        // not captured here, but both paths must succeed.
        let d = Dataset::load(&data).unwrap();
        let attr = d.column(0).name().to_string();
        let text = format!("{attr} = 1");
        run(&[s("query"), data.clone(), text.clone(), s("--count")]).unwrap();
        run(&[
            s("query"),
            data.clone(),
            text.clone(),
            s("--index"),
            idx,
            s("--not-match"),
            s("--threads"),
            s("2"),
        ])
        .unwrap();
        assert!(
            run(&[s("query"), data.clone(), text, s("--threads"), s("0")]).is_err(),
            "zero threads rejected"
        );
        run(&[
            s("race"),
            data.clone(),
            s("--queries"),
            s("5"),
            s("--k"),
            s("2"),
            s("--threads"),
            s("2"),
        ])
        .unwrap();
        // More attributes per query than the schema has is a usage error
        // that names the schema width (census data has 48 attributes).
        let err = run(&[s("race"), data, s("--k"), s("500")]).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err:?}");
        assert!(err.message().contains("48 attributes"), "{}", err.message());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn adaptive_index_round_trips_through_the_cli() {
        let dir = std::env::temp_dir().join(format!("ibis_cli_adaptive_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.ibds").to_string_lossy().into_owned();
        let s = |x: &str| x.to_string();
        run(&[
            s("generate"),
            s("--kind"),
            s("census"),
            s("--rows"),
            s("300"),
            s("--out"),
            data.clone(),
        ])
        .unwrap();
        let d = Dataset::load(&data).unwrap();
        let text = format!("{} = 1", d.column(0).name());
        // `--encoding adaptive` is shorthand for bee over the adaptive
        // backend: both spellings write the same IBEE file.
        let mut written = Vec::new();
        for (encoding, backend) in [
            ("adaptive", None),
            ("bee", Some("adaptive")),
            ("bre", Some("adaptive")),
        ] {
            let idx = dir
                .join(format!("d.{encoding}.ad"))
                .to_string_lossy()
                .into_owned();
            let mut args = vec![
                s("index"),
                data.clone(),
                s("--encoding"),
                s(encoding),
                s("--out"),
                idx.clone(),
            ];
            if let Some(b) = backend {
                args.extend([s("--backend"), s(b)]);
            }
            run(&args).unwrap();
            written.push(std::fs::read(&idx).unwrap());
            run(&[
                s("query"),
                data.clone(),
                text.clone(),
                s("--index"),
                idx,
                s("--count"),
                s("--profile"),
            ])
            .unwrap();
        }
        assert_eq!(&written[0][..4], b"IBEE");
        assert_eq!(written[0], written[1]);
        assert_eq!(&written[2][..4], b"IBRE");

        // A file from before the adaptive index joined the generic format
        // is a runtime failure that says what to do, not a second reader.
        let stale = dir.join("stale.ad").to_string_lossy().into_owned();
        let mut bytes = written[0].clone();
        bytes[..4].copy_from_slice(b"IBAD");
        std::fs::write(&stale, bytes).unwrap();
        let err = run(&[s("query"), data.clone(), text.clone(), s("--index"), stale]).unwrap_err();
        assert!(matches!(err, CliError::Runtime(_)), "got {err:?}");
        assert_eq!(err.exit_code(), 1);
        assert!(
            err.message().contains("unrecognized index magic")
                && err
                    .message()
                    .contains("rebuild the index with `ibis index`"),
            "{}",
            err.message()
        );
        // So is a version-2 file, whose adaptive bitmap containers were all
        // padded to a full chunk.
        assert_eq!(written[0][4..6], 3u16.to_le_bytes());
        let old = dir.join("old.ad").to_string_lossy().into_owned();
        let mut bytes = written[0].clone();
        bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
        std::fs::write(&old, bytes).unwrap();
        let err = run(&[s("query"), data.clone(), text, s("--index"), old]).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(
            err.message()
                .contains("index format version 2, this build reads version 3")
                && err
                    .message()
                    .contains("rebuild the index with `ibis index`"),
            "{}",
            err.message()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_flags_render_and_write_parseable_json() {
        let dir = std::env::temp_dir().join(format!("ibis_cli_prof_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.ibds").to_string_lossy().into_owned();
        let idx = dir.join("d.bee").to_string_lossy().into_owned();
        let json = dir.join("prof.json").to_string_lossy().into_owned();
        let s = |x: &str| x.to_string();
        run(&[
            s("generate"),
            s("--kind"),
            s("census"),
            s("--rows"),
            s("250"),
            s("--out"),
            data.clone(),
        ])
        .unwrap();
        run(&[
            s("index"),
            data.clone(),
            s("--encoding"),
            s("bee"),
            s("--out"),
            idx.clone(),
        ])
        .unwrap();
        let d = Dataset::load(&data).unwrap();
        let text = format!("{} = 1", d.column(0).name());
        // Span tree + phase table through a saved index, and the JSON file
        // must parse back through the snapshot parser.
        run(&[
            s("query"),
            data.clone(),
            text.clone(),
            s("--index"),
            idx,
            s("--profile"),
            s("--profile-json"),
            json.clone(),
            s("--threads"),
            s("2"),
        ])
        .unwrap();
        let written = std::fs::read_to_string(&json).unwrap();
        let snap = ibis::obs::Snapshot::from_json(&written).unwrap();
        assert!(snap.spans.iter().any(|sp| sp.name == "query"));
        assert!(snap.spans.iter().any(|sp| sp.name == "bitmap.fetch"));
        // --profile with no index profiles the scan baseline.
        run(&[s("query"), data.clone(), text, s("--profile")]).unwrap();
        // And the race phase table.
        run(&[
            s("race"),
            data,
            s("--queries"),
            s("3"),
            s("--k"),
            s("2"),
            s("--threads"),
            s("2"),
            s("--profile"),
        ])
        .unwrap();
        assert!(!ibis::obs::is_enabled(), "recorder left enabled");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn import_export_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ibis_cli_csv_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv_in = dir.join("in.csv").to_string_lossy().into_owned();
        let ibds = dir.join("d.ibds").to_string_lossy().into_owned();
        let csv_out = dir.join("out.csv").to_string_lossy().into_owned();
        std::fs::write(&csv_in, "age,city\n30,london\nNA,paris\n41,?\n").unwrap();
        let s = |x: &str| x.to_string();
        run(&[s("import"), csv_in, s("--out"), ibds.clone()]).unwrap();
        let d = Dataset::load(&ibds).unwrap();
        assert_eq!(d.n_rows(), 3);
        assert_eq!(d.column(0).missing_count(), 1);
        run(&[s("query"), ibds.clone(), s("age between 1 and 2")]).unwrap();
        run(&[s("query"), ibds.clone(), s("city = \"london\"")]).unwrap();
        assert!(run(&[s("query"), ibds.clone(), s("city = \"atlantis\"")]).is_err());
        run(&[s("export"), ibds, s("--out"), csv_out.clone()]).unwrap();
        assert!(std::fs::read_to_string(&csv_out)
            .unwrap()
            .starts_with("age,city"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_cli_cycle() {
        let dir = std::env::temp_dir().join(format!("ibis_cli_durable_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.ibds").to_string_lossy().into_owned();
        let db_dir = dir.join("db").to_string_lossy().into_owned();
        let db_dir2 = dir.join("db2").to_string_lossy().into_owned();
        let bak = dir.join("d.ibbk").to_string_lossy().into_owned();
        let s = |x: &str| x.to_string();
        run(&[
            s("generate"),
            s("--kind"),
            s("census"),
            s("--rows"),
            s("200"),
            s("--out"),
            data.clone(),
        ])
        .unwrap();
        run(&[
            s("init"),
            db_dir.clone(),
            s("--from"),
            data.clone(),
            s("--shard-rows"),
            s("64"),
        ])
        .unwrap();
        // Initializing over an existing database is refused.
        assert!(run(&[s("init"), db_dir.clone(), s("--from"), data.clone()]).is_err());
        let d = Dataset::load(&data).unwrap();
        let text = format!("{} = 1", d.column(0).name());
        run(&[
            s("query"),
            s("--data-dir"),
            db_dir.clone(),
            text.clone(),
            s("--count"),
            s("--threads"),
            s("2"),
        ])
        .unwrap();
        assert!(
            run(&[
                s("query"),
                s("--data-dir"),
                db_dir.clone(),
                text.clone(),
                s("--shard-rows"),
                s("8"),
            ])
            .is_err(),
            "--data-dir excludes --shard-rows"
        );
        run(&[s("validate"), db_dir.clone()]).unwrap();
        run(&[s("checkpoint"), db_dir.clone()]).unwrap();
        run(&[s("backup"), db_dir.clone(), s("--out"), bak.clone()]).unwrap();
        run(&[s("restore"), bak.clone(), s("--into"), db_dir2.clone()]).unwrap();
        run(&[
            s("query"),
            s("--data-dir"),
            db_dir2.clone(),
            text,
            s("--not-match"),
            s("--profile"),
        ])
        .unwrap();
        // Restoring over the now-populated directory is refused.
        assert!(run(&[s("restore"), bak, s("--into"), db_dir2]).is_err());
        assert!(run(&[s("validate"), s("/no/such/dir")]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stress_subcommand_runs_a_small_schedule() {
        let s = |x: &str| x.to_string();
        run(&[
            s("stress"),
            s("--seed"),
            s("3"),
            s("--rows"),
            s("40"),
            s("--readers"),
            s("2"),
            s("--mutations"),
            s("120"),
            s("--threads"),
            s("1,2"),
        ])
        .unwrap();
        // Durable backend with interleaved checkpoints, and the
        // writer-off mode (readers race each other over watermark 0).
        run(&[
            s("stress"),
            s("--rows"),
            s("40"),
            s("--readers"),
            s("2"),
            s("--mutations"),
            s("80"),
            s("--durable"),
            s("--checkpoint-every"),
            s("32"),
            s("--threads"),
            s("1,2"),
        ])
        .unwrap();
        run(&[
            s("stress"),
            s("--rows"),
            s("30"),
            s("--readers"),
            s("2"),
            s("--no-writer"),
            s("--threads"),
            s("1"),
        ])
        .unwrap();
        assert!(
            run(&[s("stress"), s("--readers"), s("0")]).is_err(),
            "zero readers rejected"
        );
        assert!(
            run(&[s("stress"), s("--threads"), s("0")]).is_err(),
            "zero thread degree rejected"
        );
    }

    #[test]
    fn race_live_serves_under_a_streaming_writer() {
        let dir = std::env::temp_dir().join(format!("ibis_cli_live_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.ibds").to_string_lossy().into_owned();
        let s = |x: &str| x.to_string();
        run(&[
            s("generate"),
            s("--kind"),
            s("census"),
            s("--rows"),
            s("200"),
            s("--out"),
            data.clone(),
        ])
        .unwrap();
        run(&[
            s("race"),
            data,
            s("--live"),
            s("400"),
            s("--shard-rows"),
            s("64"),
            s("--queries"),
            s("4"),
            s("--k"),
            s("2"),
            s("--threads"),
            s("2"),
        ])
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_subcommand_runs_a_small_schedule() {
        let s = |x: &str| x.to_string();
        run(&[
            s("crash"),
            s("--seed"),
            s("11"),
            s("--rows"),
            s("40"),
            s("--kill-points"),
            s("4"),
            s("--bit-flips"),
            s("2"),
            s("--threads"),
            s("1,2"),
        ])
        .unwrap();
        assert!(
            run(&[s("crash"), s("--threads"), s("0")]).is_err(),
            "zero thread degree rejected"
        );
    }

    #[test]
    fn query_errors_are_reported() {
        let dir = std::env::temp_dir().join(format!("ibis_cli_err_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.ibds").to_string_lossy().into_owned();
        let s = |x: &str| x.to_string();
        run(&[
            s("generate"),
            s("--kind"),
            s("synthetic"),
            s("--rows"),
            s("50"),
            s("--out"),
            data.clone(),
        ])
        .unwrap();
        assert!(run(&[s("query"), data.clone(), s("nonexistent_attr = 1")]).is_err());
        assert!(run(&[s("query"), s("/no/such/file.ibds"), s("a = 1")]).is_err());
        assert!(run(&[
            s("index"),
            data,
            s("--encoding"),
            s("zzz"),
            s("--out"),
            s("/tmp/x")
        ])
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
