//! Many-reader/one-writer stress harness for snapshot-isolated serving.
//!
//! The harness precomputes a seeded mutation schedule, starts one writer
//! pushing it through a [`ConcurrentDb`] (insert/delete/compact, plus
//! periodic checkpoints on the durable backend), and races N reader
//! threads against it. Every snapshot a reader acquires is checked
//! **differentially**: the snapshot's watermark `w` says "exactly the
//! first `w` scheduled mutations are visible", so the reader replays
//! `schedule[..w]` into a private in-memory twin and demands the probe
//! battery — rows **and** [work counters](ibis_core::WorkCounters), plus
//! shard totals and pruning counts — come back bit-identical at every
//! configured thread degree, under both missing-data semantics.
//!
//! What this proves, mechanically:
//!
//! * **no torn reads** — a snapshot that interleaved two mutations, or
//!   caught a shard mid-compaction, cannot match any schedule prefix;
//! * **prefix consistency** — watermarks are checked monotonic per
//!   reader, so every reader observes some serial history of the writer;
//! * **degree independence survives concurrency** — the same snapshot
//!   answers identically at thread degrees 1 and 8 while the writer
//!   races on.
//!
//! Checkpoints are deliberately *not* logical mutations: on the durable
//! backend the writer interleaves them to shake the WAL-roll path under
//! concurrent readers, and the twin ignores them.

use crate::check::Failure;
use crate::workload::{apply_concurrent, gen_op, probe_queries};
use ibis_core::gen::census_scaled;
use ibis_core::RangeQuery;
use ibis_storage::{engine, ConcurrentDb, DbConfig, DbSnapshot, ShardedDb, WalRecord};
use rand::{rngs::StdRng, SeedableRng};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Configuration for one stress run.
#[derive(Clone, Debug)]
pub struct StressConfig {
    /// Master seed; the same config replays the identical schedule.
    pub seed: u64,
    /// Rows in the initial relation.
    pub rows: usize,
    /// Shard capacity of the store under test.
    pub shard_rows: usize,
    /// Concurrent reader threads.
    pub readers: usize,
    /// Scheduled mutations the writer applies. `0` disables the writer
    /// (readers still race each other over the initial snapshot).
    pub mutations: usize,
    /// Checkpoint every this many mutations (durable backend only; `0`
    /// never checkpoints).
    pub checkpoint_every: usize,
    /// Thread degrees every probe query is executed at.
    pub threads: Vec<usize>,
    /// Serve through the WAL-backed durable engine instead of in-memory.
    pub durable: bool,
    /// Every reader keeps checking until it has acquired at least this
    /// many snapshots *and* seen the final watermark.
    pub min_reads: usize,
    /// Scratch directory for the durable backend; `None` uses the system
    /// temp dir.
    pub dir: Option<PathBuf>,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            seed: 1,
            rows: 96,
            shard_rows: 40,
            readers: 8,
            mutations: 10_000,
            checkpoint_every: 0,
            threads: vec![1, 8],
            durable: false,
            min_reads: 8,
            dir: None,
        }
    }
}

/// Outcome of one stress run.
#[derive(Debug, Default)]
pub struct StressReport {
    /// Mutations the writer applied.
    pub mutations: usize,
    /// Snapshots acquired across all readers.
    pub reads: u64,
    /// Distinct watermarks observed across all readers.
    pub watermarks_seen: u64,
    /// Individual assertions evaluated.
    pub checks: u64,
    /// Assertions violated.
    pub failures: Vec<Failure>,
}

impl StressReport {
    /// `true` when every acquired snapshot matched its schedule prefix.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// One-line summary for CLI output.
    pub fn summary(&self) -> String {
        format!(
            "{} mutations, {} snapshot reads ({} distinct watermarks), {} checks, {} failures",
            self.mutations,
            self.reads,
            self.watermarks_seen,
            self.checks,
            self.failures.len()
        )
    }
}

/// One reader's tally, merged into the report at join time.
struct ReaderTally {
    reads: u64,
    watermarks: Vec<u64>,
    checks: u64,
    failures: Vec<Failure>,
}

/// Checks one acquired snapshot against the twin holding its exact
/// schedule prefix.
fn check_snapshot(
    tally: &mut ReaderTally,
    reader: usize,
    snap: &DbSnapshot,
    twin: &ShardedDb,
    queries: &[RangeQuery],
    threads: &[usize],
) {
    let w = snap.watermark();
    let mut push = |name: String, outcome: Result<(), String>| {
        tally.checks += 1;
        if let Err(detail) = outcome {
            tally.failures.push(Failure {
                check: name,
                detail,
            });
        }
    };
    push(
        format!("stress/r{reader}/w{w}/rowcount"),
        if snap.n_rows() == twin.n_rows() {
            Ok(())
        } else {
            Err(format!(
                "snapshot holds {} rows, twin prefix holds {}",
                snap.n_rows(),
                twin.n_rows()
            ))
        },
    );
    for (qi, q) in queries.iter().enumerate() {
        let mut first: Option<ibis_storage::ShardExecution> = None;
        for &t in threads {
            push(
                format!("stress/r{reader}/w{w}/q{qi}/t{t}"),
                (|| {
                    let got = snap
                        .execute_with_stats_threads(q, t)
                        .map_err(|e| format!("snapshot: {e}"))?;
                    let want = twin
                        .execute_with_stats_threads(q, t)
                        .map_err(|e| format!("twin: {e}"))?;
                    if got.rows != want.rows {
                        return Err(format!(
                            "rows diverge: snapshot {:?}, twin prefix {:?}",
                            got.rows.rows(),
                            want.rows.rows()
                        ));
                    }
                    if got.counters != want.counters {
                        return Err(format!(
                            "work counters diverge; snapshot\n{}\ntwin\n{}",
                            got.counters, want.counters
                        ));
                    }
                    if (got.shards_total, got.shards_pruned)
                        != (want.shards_total, want.shards_pruned)
                    {
                        return Err(format!(
                            "shard stats diverge: snapshot {}/{} pruned, twin {}/{}",
                            got.shards_pruned,
                            got.shards_total,
                            want.shards_pruned,
                            want.shards_total
                        ));
                    }
                    if let Some(f) = &first {
                        if (got.rows != f.rows) || (got.counters != f.counters) {
                            return Err(format!(
                                "thread degree {t} disagrees with degree {}",
                                threads[0]
                            ));
                        }
                    } else {
                        first = Some(got);
                    }
                    Ok(())
                })(),
            );
        }
    }
}

/// Runs the full stress schedule. `Err` means the harness scaffolding
/// itself failed (temp dirs, writer I/O); snapshot-isolation violations
/// are reported through [`StressReport::failures`].
pub fn run(cfg: &StressConfig) -> io::Result<StressReport> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0005_712E_55C0_FFEE);
    let schema = census_scaled(cfg.rows.max(1), cfg.seed);
    let queries = probe_queries(&schema);

    // The whole logical history, precomputed: op i moves the database
    // from watermark i to watermark i+1, so a snapshot's watermark names
    // its exact schedule prefix.
    let schedule: Vec<WalRecord> = (0..cfg.mutations)
        .map(|i| gen_op(&mut rng, &schema, (cfg.rows + i / 2) as u32))
        .collect();
    let target = schedule.len() as u64;

    let scratch = cfg.durable.then(|| {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        cfg.dir
            .clone()
            .unwrap_or_else(std::env::temp_dir)
            .join(format!(
                "ibis_stress_{}_{}_{}",
                std::process::id(),
                cfg.seed,
                NONCE.fetch_add(1, Relaxed)
            ))
    });
    let db = match &scratch {
        Some(dir) => {
            std::fs::remove_dir_all(dir).ok();
            std::fs::create_dir_all(dir)?;
            ConcurrentDb::create_durable(dir, schema.clone(), cfg.shard_rows, DbConfig::default())?
        }
        None => ConcurrentDb::new_mem(schema.clone(), cfg.shard_rows),
    };
    let twin_base = ShardedDb::with_config(schema.clone(), cfg.shard_rows, DbConfig::default());

    let mut report = StressReport {
        mutations: schedule.len(),
        ..StressReport::default()
    };

    let mut writer_result: io::Result<()> = Ok(());
    let mut tallies: Vec<ReaderTally> = Vec::with_capacity(cfg.readers);

    std::thread::scope(|s| {
        let writer = (!schedule.is_empty()).then(|| {
            let db = &db;
            let schedule = &schedule;
            s.spawn(move || -> io::Result<()> {
                for (i, op) in schedule.iter().enumerate() {
                    apply_concurrent(db, op)?;
                    if cfg.checkpoint_every != 0 && (i + 1) % cfg.checkpoint_every == 0 {
                        db.checkpoint()?;
                    }
                }
                Ok(())
            })
        });

        let readers: Vec<_> = (0..cfg.readers)
            .map(|r| {
                let db = &db;
                let queries = &queries;
                let twin_base = &twin_base;
                let schedule = &schedule;
                s.spawn(move || {
                    let mut tally = ReaderTally {
                        reads: 0,
                        watermarks: Vec::new(),
                        checks: 0,
                        failures: Vec::new(),
                    };
                    // The private twin advances monotonically through the
                    // schedule, so a whole run replays each op once per
                    // reader, not once per snapshot.
                    let mut twin = twin_base.clone();
                    let mut applied: u64 = 0;
                    loop {
                        let snap = db.snapshot();
                        let w = snap.watermark();
                        tally.reads += 1;
                        if tally.watermarks.last() != Some(&w) {
                            if let Some(&last) = tally.watermarks.last() {
                                if w < last {
                                    tally.checks += 1;
                                    tally.failures.push(Failure {
                                        check: format!("stress/r{r}/monotonic"),
                                        detail: format!("watermark went backwards: {last} → {w}"),
                                    });
                                    break;
                                }
                            }
                            tally.watermarks.push(w);
                        }
                        while applied < w {
                            engine::apply(&mut twin, &schedule[applied as usize])
                                .expect("twin replays a validated row");
                            applied += 1;
                        }
                        check_snapshot(
                            &mut tally,
                            r,
                            &snap,
                            &twin,
                            queries,
                            cfg.threads.as_slice(),
                        );
                        if w >= target && tally.reads >= cfg.min_reads as u64 {
                            break;
                        }
                    }
                    tally
                })
            })
            .collect();

        if let Some(h) = writer {
            writer_result = h.join().expect("writer thread panicked");
        }
        for h in readers {
            tallies.push(h.join().expect("reader thread panicked"));
        }
    });
    writer_result?;

    let mut distinct = std::collections::BTreeSet::new();
    for t in tallies {
        report.reads += t.reads;
        report.checks += t.checks;
        report.failures.extend(t.failures);
        distinct.extend(t.watermarks);
    }
    report.watermarks_seen = distinct.len() as u64;

    // The end state must equal the full-schedule twin, exactly.
    {
        let snap = db.snapshot();
        let mut twin = twin_base.clone();
        for op in &schedule {
            engine::apply(&mut twin, op).expect("twin replays a validated row");
        }
        let mut tally = ReaderTally {
            reads: 0,
            watermarks: Vec::new(),
            checks: 0,
            failures: Vec::new(),
        };
        if snap.watermark() != target {
            tally.checks += 1;
            tally.failures.push(Failure {
                check: "stress/final/watermark".to_string(),
                detail: format!(
                    "final watermark {} ≠ schedule length {target}",
                    snap.watermark()
                ),
            });
        }
        check_snapshot(
            &mut tally,
            usize::MAX,
            &snap,
            &twin,
            &queries,
            cfg.threads.as_slice(),
        );
        report.checks += tally.checks + 1;
        report.failures.extend(tally.failures);
    }

    if let Some(dir) = &scratch {
        std::fs::remove_dir_all(dir).ok();
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> StressConfig {
        StressConfig {
            seed: 11,
            rows: 48,
            shard_rows: 20,
            readers: 4,
            mutations: 300,
            threads: vec![1, 8],
            min_reads: 4,
            ..StressConfig::default()
        }
    }

    #[test]
    fn readers_racing_a_writer_see_only_schedule_prefixes() {
        let report = run(&small()).expect("harness scaffolding");
        assert!(report.ok(), "failures: {:#?}", report.failures);
        assert_eq!(report.mutations, 300);
        assert!(report.reads >= 16, "{}", report.summary());
        assert!(report.watermarks_seen >= 2, "{}", report.summary());
    }

    #[test]
    fn durable_backend_with_checkpoints_serves_identically() {
        let report = run(&StressConfig {
            durable: true,
            checkpoint_every: 64,
            mutations: 200,
            readers: 2,
            ..small()
        })
        .expect("harness scaffolding");
        assert!(report.ok(), "failures: {:#?}", report.failures);
    }

    #[test]
    fn writer_off_still_checks_the_initial_snapshot() {
        let report = run(&StressConfig {
            mutations: 0,
            readers: 2,
            min_reads: 3,
            ..small()
        })
        .expect("harness scaffolding");
        assert!(report.ok(), "failures: {:#?}", report.failures);
        assert_eq!(report.watermarks_seen, 1, "only watermark 0 exists");
        assert!(report.reads >= 6);
    }
}
