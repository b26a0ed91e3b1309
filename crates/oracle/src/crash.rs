//! Crash-recovery harness for the durable engine.
//!
//! The harness writes one seeded workload into a [`DurableDb`] data
//! directory — initial load, a first batch of mutations, a checkpoint, then
//! a second batch whose WAL byte boundaries it records — and then *crashes*
//! it hundreds of ways: the WAL is truncated at arbitrary byte offsets
//! (every frame boundary, every boundary ± 1, mid-frame, inside the header,
//! plus seeded random offsets) or hit with single-bit flips. Each mangled
//! copy is reopened and compared against an uncrashed in-memory twin
//! holding exactly the durable prefix: the ops whose WAL frames survive the
//! damage in full.
//!
//! The comparison is total: every probe query, under both missing-data
//! semantics, at every configured thread degree, must return rows **and**
//! [work counters](ibis_core::WorkCounters) bit-identical to the twin's.
//! Recovery must also report exactly the durable-suffix record count, and a
//! post-recovery [`DurableDb::validate`] must find a clean directory (the
//! torn tail repaired). Any divergence, error, or panic becomes a
//! [`Failure`] record; the run itself only errors when the harness's own
//! scaffolding (temp directories, file copies) fails.

use crate::check::Failure;
use crate::workload::{apply_durable, gen_op, probe_queries};
use ibis_core::gen::census_scaled;
use ibis_core::RangeQuery;
use ibis_storage::wal::WAL_HEADER_LEN;
use ibis_storage::{engine, DbConfig, DurableDb, ShardedDb, WalRecord};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeSet;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Configuration for one crash-recovery run.
#[derive(Clone, Debug)]
pub struct CrashConfig {
    /// Master seed; the same config replays the identical kill schedule.
    pub seed: u64,
    /// Rows in the initial (checkpointed) relation.
    pub rows: usize,
    /// Shard capacity of the store under test.
    pub shard_rows: usize,
    /// Mutations applied before the checkpoint.
    pub phase1_ops: usize,
    /// Mutations applied after the checkpoint (these live in the WAL and
    /// are what the crashes destroy).
    pub phase2_ops: usize,
    /// Extra random truncation offsets beyond the structured schedule
    /// (every frame boundary, boundary ± 1, mid-frame, header bytes).
    pub kill_points: usize,
    /// Single-bit corruptions injected at seeded random WAL bytes.
    pub bit_flips: usize,
    /// Thread degrees every probe query is executed at.
    pub threads: Vec<usize>,
    /// Scratch directory; `None` uses the system temp dir.
    pub dir: Option<PathBuf>,
}

impl Default for CrashConfig {
    fn default() -> Self {
        CrashConfig {
            seed: 1,
            rows: 96,
            shard_rows: 40,
            phase1_ops: 12,
            phase2_ops: 16,
            kill_points: 24,
            bit_flips: 8,
            threads: vec![1, 8],
            dir: None,
        }
    }
}

/// Outcome of a crash-recovery run.
#[derive(Debug, Default)]
pub struct CrashReport {
    /// Distinct truncation offsets tested.
    pub kill_offsets: usize,
    /// Single-bit corruptions tested.
    pub bit_flips: usize,
    /// Individual assertions evaluated.
    pub checks: u64,
    /// Assertions violated.
    pub failures: Vec<Failure>,
}

impl CrashReport {
    /// `true` when every crash recovered to the durable prefix exactly.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// One-line summary for CLI output.
    pub fn summary(&self) -> String {
        format!(
            "{} truncation offsets + {} bit flips, {} checks, {} failures",
            self.kill_offsets,
            self.bit_flips,
            self.checks,
            self.failures.len()
        )
    }
}

/// Recursively copies every file of a (flat) data directory.
fn copy_dir(src: &Path, dst: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        std::fs::copy(entry.path(), dst.join(entry.file_name()))?;
    }
    Ok(())
}

/// Runs the full kill schedule. `Err` means the harness scaffolding itself
/// failed; engine misbehavior is reported through `CrashReport::failures`.
pub fn run(cfg: &CrashConfig) -> io::Result<CrashReport> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC4A5_11F1_0C0F_FEE5);
    let schema = census_scaled(cfg.rows.max(1), cfg.seed);
    let queries = probe_queries(&schema);

    // A process-wide nonce keeps concurrent runs (e.g. two tests with the
    // same seed in one test binary) out of each other's scratch space.
    static NONCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let nonce = NONCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let base = cfg
        .dir
        .clone()
        .unwrap_or_else(std::env::temp_dir)
        .join(format!(
            "ibis_crash_{}_{}_{nonce}",
            std::process::id(),
            cfg.seed
        ));
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&base)?;
    let primary = base.join("primary");

    let mut report = CrashReport::default();

    // Phase 1: load, mutate, checkpoint. The checkpoint is the durable
    // floor — every crash below must recover at least this state.
    let mut db = DurableDb::create(
        &primary,
        schema.clone(),
        cfg.shard_rows,
        DbConfig::default(),
    )?;
    for _ in 0..cfg.phase1_ops {
        apply_durable(&mut db, &gen_op(&mut rng, &schema, cfg.rows as u32))?;
    }
    db.checkpoint()?;
    record(
        &mut report,
        "crash/checkpoint-truncates".to_string(),
        if db.wal_bytes() == WAL_HEADER_LEN {
            Ok(())
        } else {
            Err(format!(
                "WAL holds {} bytes after checkpoint, want the {WAL_HEADER_LEN}-byte header",
                db.wal_bytes()
            ))
        },
    );
    let twin_base = db.db().clone();

    // Phase 2: mutations whose WAL frames the crashes will destroy. The
    // log length after each op is that op's durability boundary: a kill at
    // offset k preserves exactly the ops with boundary ≤ k.
    let mut ops = Vec::with_capacity(cfg.phase2_ops);
    let mut boundaries = Vec::with_capacity(cfg.phase2_ops);
    for _ in 0..cfg.phase2_ops {
        let op = gen_op(&mut rng, &schema, (cfg.rows + cfg.phase2_ops) as u32);
        apply_durable(&mut db, &op)?;
        boundaries.push(db.wal_bytes());
        ops.push(op);
    }
    drop(db); // crash the primary; everything below works on copies

    let final_len = std::fs::metadata(engine::wal_path(&primary))?.len();

    // The kill schedule: header bytes, every frame boundary ± 1, mid-frame,
    // plus seeded random offsets.
    let mut offsets: BTreeSet<u64> = BTreeSet::new();
    offsets.extend([0, WAL_HEADER_LEN / 2, WAL_HEADER_LEN - 1, WAL_HEADER_LEN]);
    let mut prev = WAL_HEADER_LEN;
    for &b in &boundaries {
        offsets.extend([b.saturating_sub(1), b, b + 1, prev + (b - prev) / 2]);
        prev = b;
    }
    for _ in 0..cfg.kill_points {
        offsets.insert(rng.gen_range(0..=final_len));
    }
    offsets.retain(|&k| k <= final_len);

    for &kill in &offsets {
        let scratch = base.join(format!("kill-{kill}"));
        copy_dir(&primary, &scratch)?;
        let wal = engine::wal_path(&scratch);
        let f = std::fs::OpenOptions::new().write(true).open(&wal)?;
        f.set_len(kill)?;
        drop(f);
        let durable = boundaries.iter().filter(|&&b| b <= kill).count();
        verify_recovery(
            &mut report,
            &scratch,
            &format!("truncate@{kill}"),
            durable,
            &twin_base,
            &ops,
            &queries,
            &cfg.threads,
        );
        std::fs::remove_dir_all(&scratch).ok();
    }
    report.kill_offsets = offsets.len();

    // Single-bit corruption: a flip at byte p tears the log at the frame
    // containing p, so the durable prefix is every op whose frame ends at
    // or before p. The CRC must catch every flip — a 1-bit error that
    // survives to replay is a checksum bug.
    let mut flips = 0usize;
    if final_len > WAL_HEADER_LEN {
        for _ in 0..cfg.bit_flips {
            let pos = rng.gen_range(WAL_HEADER_LEN..final_len);
            let bit = rng.gen_range(0..8u8);
            let scratch = base.join(format!("flip-{pos}-{bit}"));
            copy_dir(&primary, &scratch)?;
            let wal = engine::wal_path(&scratch);
            let mut image = std::fs::read(&wal)?;
            image[pos as usize] ^= 1 << bit;
            std::fs::write(&wal, &image)?;
            let durable = boundaries.iter().filter(|&&b| b <= pos).count();
            verify_recovery(
                &mut report,
                &scratch,
                &format!("flip@{pos}.{bit}"),
                durable,
                &twin_base,
                &ops,
                &queries,
                &cfg.threads,
            );
            std::fs::remove_dir_all(&scratch).ok();
            flips += 1;
        }
    }
    report.bit_flips = flips;

    std::fs::remove_dir_all(&base).ok();
    Ok(report)
}

/// Records one assertion outcome.
fn record(report: &mut CrashReport, name: String, outcome: Result<(), String>) {
    report.checks += 1;
    if let Err(detail) = outcome {
        report.failures.push(Failure {
            check: name,
            detail,
        });
    }
}

/// Opens one mangled copy and holds it against the uncrashed twin of its
/// durable prefix: replayed-record count, rows + counters on every probe at
/// every thread degree, and a clean post-recovery `validate`.
#[allow(clippy::too_many_arguments)]
fn verify_recovery(
    report: &mut CrashReport,
    dir: &Path,
    tag: &str,
    durable: usize,
    twin_base: &ShardedDb,
    ops: &[WalRecord],
    queries: &[RangeQuery],
    threads: &[usize],
) {
    let opened = catch_unwind(AssertUnwindSafe(|| DurableDb::open(dir)));
    let recovered = match opened {
        Err(p) => {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string payload>".to_string());
            record(
                report,
                format!("crash/open/{tag}"),
                Err(format!("open panicked: {msg}")),
            );
            return;
        }
        Ok(Err(e)) => {
            record(
                report,
                format!("crash/open/{tag}"),
                Err(format!("open failed: {e}")),
            );
            return;
        }
        Ok(Ok(db)) => db,
    };
    record(
        report,
        format!("crash/replayed/{tag}"),
        if recovered.replayed_on_open() == durable as u64 {
            Ok(())
        } else {
            Err(format!(
                "replayed {} records, want the durable prefix of {durable}",
                recovered.replayed_on_open()
            ))
        },
    );

    let mut twin = twin_base.clone();
    for op in &ops[..durable] {
        engine::apply(&mut twin, op).expect("twin replays a validated row");
    }
    for (qi, q) in queries.iter().enumerate() {
        for &t in threads {
            record(
                report,
                format!("crash/differential/{tag}/q{qi}/t{t}"),
                (|| {
                    let got = recovered
                        .execute_with_cost_threads(q, t)
                        .map_err(|e| format!("recovered: {e}"))?;
                    let want = twin
                        .execute_with_cost_threads(q, t)
                        .map_err(|e| format!("twin: {e}"))?;
                    if got.0 != want.0 {
                        Err(format!(
                            "rows diverge: recovered {:?}, twin {:?}",
                            got.0.rows(),
                            want.0.rows()
                        ))
                    } else if got.1 != want.1 {
                        Err(format!(
                            "work counters diverge; recovered\n{}\ntwin\n{}",
                            got.1, want.1
                        ))
                    } else {
                        Ok(())
                    }
                })(),
            );
        }
    }

    // Recovery repaired the torn tail on disk: a strict validate must now
    // find a clean directory whose replayable suffix is the durable prefix.
    drop(recovered);
    record(
        report,
        format!("crash/validate/{tag}"),
        match DurableDb::validate(dir) {
            Err(e) => Err(format!("post-recovery validate failed: {e}")),
            Ok(r) if r.torn_tail_bytes != 0 => Err(format!(
                "{} torn bytes survived recovery",
                r.torn_tail_bytes
            )),
            Ok(r) if r.wal_records != durable as u64 => Err(format!(
                "validate counts {} replayable records, want {durable}",
                r.wal_records
            )),
            Ok(_) => Ok(()),
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CrashConfig {
        CrashConfig {
            seed: 7,
            rows: 48,
            shard_rows: 20,
            phase1_ops: 6,
            phase2_ops: 8,
            kill_points: 6,
            bit_flips: 4,
            threads: vec![1, 8],
            ..CrashConfig::default()
        }
    }

    #[test]
    fn every_kill_point_recovers_the_durable_prefix() {
        let report = run(&small()).expect("harness scaffolding");
        assert!(report.ok(), "failures: {:#?}", report.failures);
        // The structured schedule alone covers headers, boundaries, and
        // mid-frame cuts: 8 ops contribute ≥ 2 distinct offsets each.
        assert!(report.kill_offsets >= 16, "{}", report.summary());
        assert_eq!(report.bit_flips, 4);
        assert!(report.checks > report.kill_offsets as u64);
    }

    #[test]
    fn the_schedule_is_deterministic() {
        let a = run(&small()).unwrap();
        let b = run(&small()).unwrap();
        assert_eq!(a.kill_offsets, b.kill_offsets);
        assert_eq!(a.checks, b.checks);
    }
}
