//! Tombstones in bit space: a deleted row leaves every answer by an AND NOT
//! over the shard's dead-row bit-vectors, before any id is written. These
//! tests hold that to the scan truth of the live rows (execute and count,
//! monolithic and sharded, under both policies, on every answer form), and
//! hold the snapshot image, the backup round trip and `delete`'s return
//! value to what they were when tombstones were a set of ids.

use ibis::core::scan;
use ibis::prelude::*;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::path::PathBuf;

/// Four attributes of cardinality 1–9, about a third of the cells missing.
fn relation(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let cards = [1u16, 3, 6, 9];
    let columns = cards
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let raw = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.3) {
                        0
                    } else {
                        rng.gen_range(1..=c)
                    }
                })
                .collect();
            Column::from_raw(format!("a{i}"), c, raw).expect("in domain")
        })
        .collect();
    Dataset::new(columns).expect("equal lengths")
}

/// Point and range queries over one and two attributes, both policies,
/// plus the empty search key.
fn queries(d: &Dataset, seed: u64) -> Vec<RangeQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for policy in MissingPolicy::ALL {
        out.push(RangeQuery::new(vec![], policy).unwrap());
        for k in [1usize, 1, 2, 2] {
            let preds = (0..k)
                .map(|j| {
                    let attr = (rng.gen_range(0..d.n_attrs()) + j) % d.n_attrs();
                    let c = d.column(attr).cardinality();
                    let lo = rng.gen_range(1..=c);
                    Predicate::range(attr, lo, rng.gen_range(lo..=c))
                })
                .collect::<Vec<_>>();
            let mut attrs: Vec<usize> = preds.iter().map(|p| p.attr).collect();
            attrs.dedup();
            if attrs.len() == preds.len() {
                out.push(RangeQuery::new(preds, policy).unwrap());
            }
        }
    }
    out
}

/// Every logical row in id order and which of them are dead: the truth a
/// database is held to.
struct Truth {
    rows: Dataset,
    dead: Vec<bool>,
}

impl Truth {
    fn live(&self, q: &RangeQuery) -> Vec<u32> {
        let hits = scan::execute_rowwise(&self.rows, q);
        hits.iter().filter(|&id| !self.dead[id as usize]).collect()
    }

    /// The live rows only, renumbered in order: what a compaction leaves.
    fn compacted(&self) -> Truth {
        let mut rows = self.rows.slice_rows(0..0);
        for id in (0..self.dead.len()).filter(|&id| !self.dead[id]) {
            rows.push_row(&self.rows.row(id)).unwrap();
        }
        let dead = vec![false; rows.n_rows()];
        Truth { rows, dead }
    }
}

/// The databases under test, each holding the same logical rows.
struct Under {
    mono: IncompleteDb,
    sharded: Vec<ShardedDb>,
}

impl Under {
    fn insert(&mut self, truth: &mut Truth, row: &[Cell]) {
        self.mono.insert(row).unwrap();
        for s in &mut self.sharded {
            s.insert(row).unwrap();
        }
        truth.rows.push_row(row).unwrap();
        truth.dead.push(false);
    }

    fn delete(&mut self, truth: &mut Truth, id: u32) {
        let fresh = (id as usize) < truth.dead.len() && !truth.dead[id as usize];
        assert_eq!(self.mono.delete(id), fresh, "delete {id}");
        for s in &mut self.sharded {
            assert_eq!(
                s.delete(id),
                fresh,
                "delete {id} at {} shards",
                s.shard_count()
            );
        }
        if fresh {
            truth.dead[id as usize] = true;
        }
    }

    fn compact(&mut self) {
        self.mono.compact();
        for s in &mut self.sharded {
            s.compact();
        }
    }

    fn check(&self, truth: &Truth, queries: &[RangeQuery], what: &str) {
        let live_rows = truth.dead.iter().filter(|&&d| !d).count();
        assert_eq!(self.mono.n_rows(), live_rows, "{what}");
        for q in queries {
            let live = truth.live(q);
            let what = format!("{what}, {q}");
            assert_eq!(self.mono.execute(q).unwrap().rows(), &live[..], "{what}");
            assert_eq!(self.mono.count(q).unwrap(), live.len(), "{what}");
            for s in &self.sharded {
                let at = format!("{what}, {} shards", s.shard_count());
                assert_eq!(s.n_rows(), live_rows, "{at}");
                assert_eq!(s.execute_threads(q, 1).unwrap().rows(), &live[..], "{at}");
                assert_eq!(s.execute_threads(q, 3).unwrap().rows(), &live[..], "{at}");
                assert_eq!(s.count(q).unwrap(), live.len(), "{at}");
            }
        }
    }
}

/// Bit answers (bitmap indexes, the scan) and id answers (the VA-file).
fn configs() -> [DbConfig; 3] {
    let va = DbConfig {
        va: true,
        ..DbConfig::none()
    };
    [DbConfig::default(), va, DbConfig::none()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tombstones_in_bit_space_equal_the_scan(
        n_base in 66usize..=300,
        n_delta in 2usize..=140,
        seed in 0u64..1_000_000,
        scattered in proptest::collection::vec(0.0f64..1.0, 0..=10),
        late in proptest::collection::vec(0.0f64..1.0, 1..=6),
    ) {
        let data = relation(n_base, seed);
        let extra = relation(n_delta + 40, seed + 1);
        let queries = queries(&data, seed + 2);
        for config in configs() {
            // 1, 3 and 7 shards over the base rows; the inserts fill the
            // last shard's delta and open more.
            let sharded = [1usize, 3, 7]
                .map(|k| ShardedDb::with_config(data.clone(), n_base.div_ceil(k), config))
                .to_vec();
            let mut under = Under {
                mono: IncompleteDb::with_config(data.clone(), config),
                sharded,
            };
            let mut truth = Truth { rows: data.clone(), dead: vec![false; n_base] };
            for i in 0..n_delta {
                under.insert(&mut truth, &extra.row(i));
            }
            // Word edges, the last base row, the first and last delta row,
            // a repeat and ids past the end.
            let width = (n_base + n_delta) as u32;
            let edges = [0, 63, 64, 65, n_base as u32 - 1, n_base as u32, width - 1];
            for id in edges.into_iter().chain([64, width, u32::MAX]) {
                under.delete(&mut truth, id);
            }
            for &x in &scattered {
                under.delete(&mut truth, (x * width as f64) as u32);
            }
            // Every row of the 7-shard database's second shard.
            let shard_rows = n_base.div_ceil(7);
            for id in shard_rows..(2 * shard_rows).min(n_base) {
                under.delete(&mut truth, id as u32);
            }
            let what = format!("{config:?}, {n_base} base + {n_delta} delta rows");
            under.check(&truth, &queries, &what);

            // After a compaction renumbers the survivors, new tombstones
            // land in the rebuilt shards and in a fresh delta.
            under.compact();
            truth = truth.compacted();
            under.check(&truth, &queries, &format!("{what}, compacted"));
            for i in n_delta..n_delta + 40 {
                under.insert(&mut truth, &extra.row(i));
            }
            let width = truth.dead.len();
            for &x in &late {
                under.delete(&mut truth, (x * width as f64) as u32);
            }
            under.delete(&mut truth, width as u32 - 1);
            under.check(&truth, &queries, &format!("{what}, compacted, then deleted"));
        }
    }
}

/// `delete` says whether it took a live row: a repeat, an id past the end
/// and an id past every shard all return `false`, at every layer, and an
/// id that an insert brings into range can then be deleted.
#[test]
fn delete_refuses_repeated_and_out_of_range_ids() {
    let data = relation(100, 9);
    let mut mono = IncompleteDb::new(data.clone());
    let mut sharded = ShardedDb::new(data.clone(), 30);
    let dir = tmp_dir("delete");
    let mut durable = DurableDb::create(&dir, data.clone(), 30, DbConfig::default()).unwrap();
    for id in [0u32, 64, 99] {
        assert!(mono.delete(id));
        assert!(sharded.delete(id));
        assert!(durable.delete(id).unwrap());
    }
    for id in [0u32, 64, 99, 100, 101, u32::MAX] {
        assert!(!mono.delete(id), "{id}");
        assert!(!sharded.delete(id), "{id}");
        assert!(!durable.delete(id).unwrap(), "{id}");
    }
    assert_eq!(mono.deleted_len(), 3);
    assert_eq!(mono.n_rows(), 97);
    assert_eq!(sharded.n_rows(), 97);
    mono.insert(&data.row(5)).unwrap();
    sharded.insert(&data.row(5)).unwrap();
    durable.insert(&data.row(5)).unwrap();
    assert!(mono.delete(100));
    assert!(sharded.delete(100));
    assert!(durable.delete(100).unwrap());
    assert!(!mono.delete(100));
    assert_eq!((mono.n_rows(), mono.deleted_len()), (97, 4));
    drop(durable);
    std::fs::remove_dir_all(&dir).ok();
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ibis_tombstones_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// 200 base rows in shards of 130, then 70 inserts: 60 fill the second
/// shard's delta and 10 open a third. The tombstones sit on word edges, on
/// the last base row of each shard, on the first and last delta row, and
/// cover the whole third shard; they are deleted out of order, one twice.
fn fixture_mutations() -> (Dataset, Vec<Vec<Cell>>, Vec<u32>) {
    let data = relation(200, 44);
    let extra = relation(70, 45);
    let rows = (0..70).map(|i| extra.row(i)).collect();
    let mut dead = vec![269, 64, 0, 200, 65, 199, 63, 129, 259, 64, 130];
    dead.extend(260..269);
    (data, rows, dead)
}

/// The IBSS image of the fixture, recorded (length and CRC-32) while the
/// tombstones were still a set of ids written in ascending order: keeping
/// them as bit-vectors must not move a byte, so `SNAPSHOT_VERSION` stays.
#[test]
fn a_snapshot_with_tombstones_keeps_its_bytes() {
    let (data, rows, dead) = fixture_mutations();
    let mut db = ShardedDb::with_config(data, 130, DbConfig::default());
    for row in &rows {
        db.insert(row).unwrap();
    }
    for &id in &dead {
        db.delete(id);
    }
    assert_eq!(db.shard_count(), 3);
    let mut image = Vec::new();
    db.write_snapshot(&mut image).unwrap();
    let crc = ibis::storage::crc::crc32;
    assert_eq!((image.len(), crc(&image)), (2_625, 0x4b69_3288));
    let back = ShardedDb::read_snapshot(&mut image.as_slice()).unwrap();
    let mut again = Vec::new();
    back.write_snapshot(&mut again).unwrap();
    assert_eq!(again, image);
}

/// A backup of the fixture restores to a database whose own backup has
/// the same bytes, and which answers with the same rows and counters.
#[test]
fn backup_restore_backup_is_byte_identical_with_tombstones() {
    let (data, rows, dead) = fixture_mutations();
    let (src, dst) = (tmp_dir("bak_src"), tmp_dir("bak_dst"));
    let mut db = DurableDb::create(&src, data.clone(), 130, DbConfig::default()).unwrap();
    for row in &rows {
        db.insert(row).unwrap();
    }
    for &id in &dead {
        db.delete(id).unwrap();
    }
    let (b1, b2) = (src.join("a.ibbk"), src.join("b.ibbk"));
    db.backup(&b1).unwrap();
    let restored = DurableDb::restore(&b1, &dst).unwrap();
    restored.backup(&b2).unwrap();
    assert_eq!(std::fs::read(&b1).unwrap(), std::fs::read(&b2).unwrap());
    for q in queries(&data, 46) {
        assert_eq!(
            restored.execute_with_cost_threads(&q, 3).unwrap(),
            db.execute_with_cost_threads(&q, 3).unwrap(),
            "{q}"
        );
    }
    drop((db, restored));
    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&dst).ok();
}
