//! The names this benchmark fixes: workloads, end-to-end metrics and
//! per-layer metrics, with unit, direction, regression check and the
//! end-to-end metric each layer metric is expected to move. `BENCHMARK.json`
//! lists the same names (`tests/selfcheck.rs` holds the two together).

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// How `compare` decides that a metric got worse.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Check {
    /// Worse by more than this share of the first run's value.
    Share(f64),
    /// Any difference: the value is a count that repeats exactly.
    Exact,
    /// `failed_share`: higher by more than this absolute amount on the
    /// workload that [`MAY_SHED`]; above 0 at all on the others.
    Rise(f64),
    /// Reported, never judged.
    Unjudged,
}

#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub check: Check,
    /// The end-to-end metric and workload this one is expected to move.
    pub moves: &'static str,
}

fn m(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    check: Check,
    moves: &'static str,
) -> MetricSpec {
    MetricSpec {
        name: name.into(),
        unit,
        better,
        check,
        moves,
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// The workload-specific user-facing metrics this workload measures.
    pub specific: &'static [&'static str],
    /// Benchmark threads that issue operations during the measured phase.
    pub load_threads: u32,
    /// Threads of the program under test that execute them: the degree a
    /// query runs at in-process, the worker pool of the server.
    pub engine_threads: u32,
    pub connections: u32,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "paper_mixed",
        why: "one shard, BEE-WAH + BRE-WAH + VA, rows materialised: the paper's regime; sharding, WAL and sockets idle",
        specific: &[],
        load_threads: 1,
        engine_threads: 1,
        connections: 0,
    },
    WorkloadSpec {
        name: "compact_count",
        why: "same rows and queries on adaptive containers + VA, count only: the memory-constrained path; WAH idle",
        specific: &[],
        load_threads: 1,
        engine_threads: 1,
        connections: 0,
    },
    WorkloadSpec {
        name: "sharded_semantics",
        why: "64 shards of 2,000 clustered rows, 2 threads: fan-out, pruning and merge dominate; is-match prunes nothing",
        specific: &[],
        load_threads: 1,
        engine_threads: 2,
        connections: 0,
    },
    WorkloadSpec {
        name: "ingest_while_query",
        why: "durable database, paced inserts, deletes and checkpoints beside a closed-loop reader: the write path is busy",
        specific: &[
            "insert_us_p50",
            "insert_us_p99",
            "inserts_per_s",
            "recovery_s",
            "disk_bytes_per_row",
        ],
        load_threads: 2, // the writer and the reader
        engine_threads: 1,
        connections: 0,
    },
    WorkloadSpec {
        name: "served",
        why: "IBQP server over loopback, 4 callers in a closed loop on one connection: framing, admission, queueing and coalescing are on the path",
        specific: &["capacity_rps", "hi_rate_us_p99"],
        // One thread sends and receives in the closed loops; the open-loop
        // phase of the traced run splits it into a generator and a receiver.
        load_threads: 1,
        engine_threads: 2,
        connections: 1,
    },
];

/// The one workload whose program may refuse or expire a request under
/// load; on the others `failed_share` must be 0.
pub const MAY_SHED: &str = "served";

/// The workload-specific metrics every workload measures.
pub const COMMON_SPECIFIC: [&str; 3] = ["failed_share", "match_us_p99", "notmatch_us_p99"];

/// Seconds one run measures: `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 15.0;

pub const SEED_DEVELOPMENT: u64 = 42;
pub const SEED_HELD_OUT: u64 = 7;

/// Mutations per second the `ingest_while_query` writer is paced at.
pub const INGEST_MUTATIONS_PER_S: f64 = 400.0;
/// Requests per second of the `served` open-loop phase, frozen at
/// calibration (see CALIBRATION.md): about a third of what the flood phase
/// sustained at this commit.
pub const SERVED_HI_RPS: f64 = 400.0;

use Better::{Higher, Lower};

/// The check on every time and rate: a quarter, the most the driver
/// accepts. Ten seeds of one commit on this host spread by 3–15% between
/// quartiles (CALIBRATION.md: the host itself has two speeds 27% apart), and
/// a bound has to clear the spread or it fails good changes.
const TIMING: Check = Check::Share(0.25);

/// The metrics every workload reports from its untraced pass; the
/// `end_to_end` list of `BENCHMARK.json`, whose bounds `compare` reads.
pub fn end_to_end() -> Vec<MetricSpec> {
    let t = TIMING;
    vec![
        m("setup_s", "s", Lower, t, ""),
        m("match_us_p50", "us", Lower, t, ""),
        m("notmatch_us_p50", "us", Lower, t, ""),
        m("queries_per_s", "1/s", Higher, t, ""),
        m("index_bytes_per_row", "B", Lower, Check::Exact, ""),
    ]
}

/// User-facing metrics the driver's end-to-end list cannot hold: it wants
/// every end-to-end metric from every workload, never 0, and steady within
/// its bound on all of them. Most of these only one workload can measure (0
/// elsewhere); the two p99s every workload measures, but on `compact_count`
/// and `sharded_semantics` they spread by 17–24% between seeds
/// (CALIBRATION.md), which a 25% bound cannot hold. They are reported with
/// the per-layer set, and `compare` still judges them, by the checks given
/// here.
pub fn specific() -> Vec<MetricSpec> {
    let t = TIMING;
    vec![
        m("failed_share", "ratio", Lower, Check::Rise(0.001), ""),
        m("match_us_p99", "us", Lower, t, ""),
        m("notmatch_us_p99", "us", Lower, t, ""),
        m("insert_us_p50", "us", Lower, t, ""),
        m("insert_us_p99", "us", Lower, t, ""),
        m("inserts_per_s", "1/s", Higher, t, ""),
        m("recovery_s", "s", Lower, t, ""),
        m("disk_bytes_per_row", "B", Lower, Check::Exact, ""),
        m("capacity_rps", "1/s", Higher, t, ""),
        m("hi_rate_us_p99", "us", Lower, t, ""),
    ]
}

/// What a traced run reports, in order: the user-facing metrics the
/// end-to-end list cannot hold, then the layers' own.
pub fn per_layer_set() -> Vec<MetricSpec> {
    specific().into_iter().chain(per_layer()).collect()
}

pub const BACKENDS: [&str; 3] = ["plain", "wah", "adaptive"];
pub const SHAPES: [&str; 3] = ["sparse", "dense", "runny"];
pub const INDEXES: [&str; 5] = ["bee_wah", "bre_wah", "bee_plain", "bre_plain", "adaptive"];
pub const PLAN_CLASSES: [&str; 5] = ["bee", "bre", "va", "adaptive", "scan"];

/// The 116 single-layer metrics of the issue, and the host's health figure.
/// `compare` judges none of them: they explain a change in an end-to-end
/// metric, they do not gate one. Those marked [`Check::Exact`] are counts,
/// which two runs on one seed must repeat digit for digit.
pub fn per_layer() -> Vec<MetricSpec> {
    let (u, x) = (Check::Unjudged, Check::Exact);
    let mut v = Vec::new();

    let kernel = "compact_count *_us_p50 (bitmap containers, fused counts); paper_mixed slightly; served not at all";
    for name in ["memcpy", "and", "or_in_place", "popcount", "and_popcount"] {
        v.push(m(
            format!("bitvec.kernel.{name}_gbps"),
            "GB/s",
            Higher,
            u,
            kernel,
        ));
    }

    let bitvec = "wah.* moves paper_mixed *_us_p50 and queries_per_s; adaptive.* moves compact_count; bytes_per_kbit moves index_bytes_per_row";
    for backend in BACKENDS {
        for shape in SHAPES {
            for op in ["and", "or_fold16", "not"] {
                v.push(m(
                    format!("bitvec.{backend}.{op}_ns_per_word.{shape}"),
                    "ns",
                    Lower,
                    u,
                    bitvec,
                ));
            }
            v.push(m(
                format!("bitvec.{backend}.bytes_per_kbit.{shape}"),
                "B",
                Lower,
                x,
                bitvec,
            ));
        }
        v.push(m(
            format!("bitvec.{backend}.positions_ns_per_hit"),
            "ns",
            Lower,
            u,
            "paper_mixed *_us_p50 (rows materialised); not compact_count",
        ));
    }
    v.push(m(
        "bitvec.bbc.and_ns_per_word.sparse",
        "ns",
        Lower,
        u,
        "nothing: the frozen BBC ablation row",
    ));

    let bitmap = "bee_wah/bre_wah query_us moves paper_mixed; adaptive.count_us moves compact_count; build_ms moves setup_s and recovery_s; *_plain is the ROADMAP item 2 yardstick";
    for index in INDEXES {
        v.push(m(
            format!("bitmap.{index}.query_us"),
            "us",
            Lower,
            u,
            bitmap,
        ));
        v.push(m(
            format!("bitmap.{index}.count_us"),
            "us",
            Lower,
            u,
            bitmap,
        ));
        v.push(m(
            format!("bitmap.{index}.words_per_query"),
            "count",
            Lower,
            x,
            bitmap,
        ));
        v.push(m(
            format!("bitmap.{index}.bytes_per_row"),
            "B",
            Lower,
            x,
            bitmap,
        ));
        v.push(m(
            format!("bitmap.{index}.build_ms"),
            "ms",
            Lower,
            u,
            bitmap,
        ));
    }
    for index in ["bee_wah", "bre_wah"] {
        v.push(m(
            format!("bitmap.{index}.bitmaps_per_query"),
            "count",
            Lower,
            x,
            "the paper's own cost count; moves bitmap.*.query_us",
        ));
    }

    let va =
        "the k = 8 tail (*_us_p99) of paper_mixed and compact_count, when the planner picks VA";
    v.push(m("vafile.va.query_us", "us", Lower, u, va));
    v.push(m("vafile.va.count_us", "us", Lower, u, va));
    v.push(m("vafile.va.fields_per_query", "count", Lower, x, va));
    v.push(m("vafile.va.false_positive_share", "ratio", Lower, x, va));
    v.push(m("vafile.va.bytes_per_row", "B", Lower, x, va));
    v.push(m("vafile.va.build_ms", "ms", Lower, u, va));

    v.push(m(
        "baseline.seqscan.query_us",
        "us",
        Lower,
        u,
        "nothing: the truth oracle's cost, the ceiling any index must beat",
    ));

    v.push(m(
        "core.parallel.dispatch_us",
        "us",
        Lower,
        u,
        "sharded_semantics match_us_p50; served capacity_rps",
    ));
    v.push(m("core.coalesce_us", "us", Lower, u, "served capacity_rps"));
    v.push(m(
        "core.gen.dataset_ms",
        "ms",
        Lower,
        u,
        "setup_s everywhere",
    ));

    let plan = "every workload a little; paper_mixed k = 1 most";
    v.push(m("storage.plan_us", "us", Lower, u, plan));
    v.push(m("storage.db_overhead_us", "us", Lower, u, plan));
    for class in PLAN_CLASSES {
        v.push(m(
            format!("storage.plan_share.{class}"),
            "ratio",
            Higher,
            x,
            plan,
        ));
    }
    let shards = "sharded_semantics: shard_visit_us moves match_us_p50, pruned_share.notmatch guards notmatch_us_p50";
    v.push(m("storage.shard_visit_us", "us", Lower, u, shards));
    v.push(m("storage.pruned_share.match", "ratio", Higher, x, shards));
    v.push(m(
        "storage.pruned_share.notmatch",
        "ratio",
        Higher,
        x,
        shards,
    ));
    v.push(m(
        "storage.shards_executed_per_query",
        "count",
        Lower,
        x,
        shards,
    ));
    v.push(m("storage.sharded_build_ms", "ms", Lower, u, "setup_s"));
    let wal = "ingest_while_query: wal.* and publish_us move insert_us_p50; checkpoint_ms moves insert_us_p99 and inserts_per_s; replay and snapshot_read move recovery_s; wal.bytes_per_row moves disk_bytes_per_row";
    v.push(m("storage.wal.append_us", "us", Lower, u, wal));
    v.push(m("storage.wal.bytes_per_row", "B", Lower, x, wal));
    v.push(m("storage.wal.fsyncs_per_insert", "count", Lower, x, wal));
    v.push(m("storage.checkpoint_ms", "ms", Lower, u, wal));
    v.push(m("storage.publish_us", "us", Lower, u, wal));
    v.push(m("storage.snapshot_acquire_ns", "ns", Lower, u, wal));
    v.push(m("storage.delta_query_penalty", "ratio", Lower, u, wal));
    v.push(m("storage.compact_ms", "ms", Lower, u, wal));
    v.push(m("storage.replay_us_per_record", "us", Lower, u, wal));
    v.push(m("storage.snapshot_write_mbps", "MB/s", Higher, u, wal));
    v.push(m("storage.snapshot_read_mbps", "MB/s", Higher, u, wal));

    let server = "served only; a bitvec or bitmap change should move served little, because server.overhead_us dominates";
    v.push(m(
        "server.protocol.request_encode_ns",
        "ns",
        Lower,
        u,
        server,
    ));
    v.push(m(
        "server.protocol.request_decode_ns",
        "ns",
        Lower,
        u,
        server,
    ));
    v.push(m(
        "server.protocol.rows_encode_ns_per_row",
        "ns",
        Lower,
        u,
        server,
    ));
    v.push(m(
        "server.protocol.rows_decode_ns_per_row",
        "ns",
        Lower,
        u,
        server,
    ));
    v.push(m("server.ping_rtt_us", "us", Lower, u, server));
    v.push(m("server.overhead_us", "us", Lower, u, server));
    v.push(m("server.shed_share", "ratio", Lower, u, server));
    v.push(m("server.expired_share", "ratio", Lower, u, server));
    v.push(m(
        "server.generator_late_us_p99",
        "us",
        Lower,
        u,
        "nothing: how late the open-loop generator ran, a benchmark-health figure",
    ));

    v.push(m(
        "obs.recorder_overhead_share",
        "ratio",
        Lower,
        u,
        "every workload, if a Recorder is installed (served always installs one)",
    ));
    v.push(m(
        "host.kernel_us",
        "us",
        Lower,
        u,
        "nothing: a fixed compute kernel timed just before and after the measured phase, program idle; a benchmark-health figure that says whether two runs saw the same host",
    ));
    v.push(m(
        "trace.overhead_share",
        "ratio",
        Lower,
        u,
        "nothing: the cost of the benchmark's own spans",
    ));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn counts_and_names_are_within_the_contract() {
        assert_eq!(per_layer().len(), 117);
        assert!(per_layer().len() + specific().len() <= 128);
        assert!(end_to_end().len() <= 16 && WORKLOADS.len() <= 8);
        let all: Vec<String> = end_to_end()
            .into_iter()
            .chain(specific())
            .chain(per_layer())
            .map(|s| s.name)
            .collect();
        let unique: BTreeSet<&String> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "a metric name is used twice");
        for name in &all {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let specific_names: BTreeSet<String> = specific().into_iter().map(|s| s.name).collect();
        for w in &WORKLOADS {
            for s in w.specific {
                assert!(specific_names.contains(*s), "{s} is not a specific metric");
            }
        }
    }
}
