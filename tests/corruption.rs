//! Failure-injection tests on the persistence layer: single-byte
//! mutations and truncations of every on-disk format must never panic —
//! each read either fails with a clean `io::Error` or (rarely, when the
//! mutation is benign) yields a structurally valid object.

use ibis::core::gen::census_scaled;
use ibis::prelude::*;
use ibis::storage::Manifest;
use proptest::prelude::*;
use std::sync::LazyLock;

// Each helper's build (48-attr census dataset plus an index over it — the
// interval index alone is ~C/2 window bitmaps per attribute) is far more
// expensive than the read it feeds, and the proptest bodies run 128 times
// per test; build each byte image once per process and hand out clones.

fn dataset_bytes() -> Vec<u8> {
    static BYTES: LazyLock<Vec<u8>> = LazyLock::new(|| {
        let d = census_scaled(60, 501);
        let mut buf = Vec::new();
        d.write_to(&mut buf).unwrap();
        buf
    });
    BYTES.clone()
}

fn bee_bytes() -> Vec<u8> {
    static BYTES: LazyLock<Vec<u8>> = LazyLock::new(|| {
        let d = census_scaled(60, 502);
        let mut buf = Vec::new();
        EqualityBitmapIndex::<Wah>::build(&d)
            .write_to(&mut buf)
            .unwrap();
        buf
    });
    BYTES.clone()
}

fn bre_bytes() -> Vec<u8> {
    static BYTES: LazyLock<Vec<u8>> = LazyLock::new(|| {
        let d = census_scaled(60, 503);
        let mut buf = Vec::new();
        RangeBitmapIndex::<Bbc>::build(&d)
            .write_to(&mut buf)
            .unwrap();
        buf
    });
    BYTES.clone()
}

fn va_bytes() -> Vec<u8> {
    static BYTES: LazyLock<Vec<u8>> = LazyLock::new(|| {
        let d = census_scaled(60, 504);
        let mut buf = Vec::new();
        VaFile::build(&d).write_to(&mut buf).unwrap();
        buf
    });
    BYTES.clone()
}

fn bie_bytes() -> Vec<u8> {
    static BYTES: LazyLock<Vec<u8>> = LazyLock::new(|| {
        let d = census_scaled(60, 505);
        let mut buf = Vec::new();
        IntervalBitmapIndex::<Wah>::build(&d)
            .write_to(&mut buf)
            .unwrap();
        buf
    });
    BYTES.clone()
}

fn dec_bytes() -> Vec<u8> {
    static BYTES: LazyLock<Vec<u8>> = LazyLock::new(|| {
        let d = census_scaled(60, 506);
        let mut buf = Vec::new();
        DecomposedBitmapIndex::<Wah>::build(&d)
            .write_to(&mut buf)
            .unwrap();
        buf
    });
    BYTES.clone()
}

/// The equality index over the adaptive backend: the generic IBEE image
/// whose bitmap payloads are in the container format.
fn adaptive_bytes() -> Vec<u8> {
    static BYTES: LazyLock<Vec<u8>> = LazyLock::new(|| {
        let d = census_scaled(60, 509);
        let mut buf = Vec::new();
        EqualityBitmapIndex::<Adaptive>::build(&d)
            .write_to(&mut buf)
            .unwrap();
        buf
    });
    BYTES.clone()
}

/// Byte images of every durable-engine format, in order: snapshot, WAL,
/// MANIFEST, backup.
type StorageImages = (Vec<u8>, Vec<u8>, Vec<u8>, Vec<u8>);

/// Byte images of every durable-engine format — snapshot, WAL, MANIFEST,
/// backup — captured from one real data directory with deltas, tombstones,
/// and logged mutations.
fn storage_images() -> StorageImages {
    static IMAGES: LazyLock<StorageImages> = LazyLock::new(|| {
        let dir = std::env::temp_dir().join(format!("ibis_corrupt_store_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let d = census_scaled(60, 507);
        let row: Vec<Cell> = (0..d.n_attrs()).map(|a| d.cell(0, a)).collect();
        let mut db = DurableDb::create(&dir, d, 24, DbConfig::default()).unwrap();
        db.insert(&row).unwrap();
        db.delete(3).unwrap();
        db.insert(&row).unwrap();
        let backup_path = dir.join("b.ibbk");
        db.backup(&backup_path).unwrap();
        let mut snapshot = Vec::new();
        db.db().write_snapshot(&mut snapshot).unwrap();
        let wal = std::fs::read(ibis::storage::engine::wal_path(&dir)).unwrap();
        let manifest = std::fs::read(dir.join(ibis::storage::manifest::MANIFEST_FILE)).unwrap();
        let backup = std::fs::read(&backup_path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        (snapshot, wal, manifest, backup)
    });
    IMAGES.clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mutated_dataset_never_panics(pos in 0usize..4096, byte in any::<u8>()) {
        let mut buf = dataset_bytes();
        let i = pos % buf.len();
        buf[i] ^= byte;
        let _ = Dataset::read_from(&mut buf.as_slice()); // must not panic
    }

    #[test]
    fn truncated_dataset_never_panics(cut in 0usize..4096) {
        let buf = dataset_bytes();
        let cut = cut % buf.len();
        let _ = Dataset::read_from(&mut &buf[..cut]);
    }

    #[test]
    fn mutated_bee_never_panics(pos in 0usize..8192, byte in any::<u8>()) {
        let mut buf = bee_bytes();
        let i = pos % buf.len();
        buf[i] ^= byte;
        let _ = EqualityBitmapIndex::<Wah>::read_from(&mut buf.as_slice());
    }

    #[test]
    fn mutated_bre_never_panics(pos in 0usize..8192, byte in any::<u8>()) {
        let mut buf = bre_bytes();
        let i = pos % buf.len();
        buf[i] ^= byte;
        let _ = RangeBitmapIndex::<Bbc>::read_from(&mut buf.as_slice());
    }

    #[test]
    fn mutated_va_never_panics(pos in 0usize..8192, byte in any::<u8>()) {
        let mut buf = va_bytes();
        let i = pos % buf.len();
        buf[i] ^= byte;
        let _ = VaFile::read_from(&mut buf.as_slice());
    }

    #[test]
    fn mutated_bie_never_panics(pos in 0usize..8192, byte in any::<u8>()) {
        let mut buf = bie_bytes();
        let i = pos % buf.len();
        buf[i] ^= byte;
        let _ = IntervalBitmapIndex::<Wah>::read_from(&mut buf.as_slice());
    }

    #[test]
    fn mutated_decomposed_never_panics(pos in 0usize..8192, byte in any::<u8>()) {
        let mut buf = dec_bytes();
        let i = pos % buf.len();
        buf[i] ^= byte;
        let _ = DecomposedBitmapIndex::<Wah>::read_from(&mut buf.as_slice());
    }

    #[test]
    fn mutated_adaptive_never_panics(pos in 0usize..8192, byte in any::<u8>()) {
        let mut buf = adaptive_bytes();
        let i = pos % buf.len();
        buf[i] ^= byte;
        let _ = EqualityBitmapIndex::<Adaptive>::read_from(&mut buf.as_slice());
    }

    #[test]
    fn header_length_fields_never_cause_huge_preallocation(word in any::<u64>()) {
        // Overwrite each reader's length-bearing header fields (row count,
        // attr count, and the first per-attr count that drives the
        // `Vec::with_capacity` at the top of the payload loop) with an
        // arbitrary u64 — reads must fail cleanly without first reserving
        // the claimed amount. Allocation-failure aborts would show up here
        // as crashes under the default allocator once the claimed length
        // exceeded memory; the capped readers never get that far.
        let le = word.to_le_bytes();
        for (make, sniff_len) in [
            (dataset_bytes as fn() -> Vec<u8>, 6usize),
            (bee_bytes, 6),
            (bre_bytes, 6),
            (bie_bytes, 6),
            (dec_bytes, 6),
            (va_bytes, 6),
            (adaptive_bytes, 6),
        ] {
            let base = make();
            // Length fields start right after magic(4)+version(2); also hit
            // two later offsets that land inside per-attr length prefixes.
            for off in [sniff_len, sniff_len + 8, sniff_len + 24] {
                if off + 8 > base.len() {
                    continue;
                }
                let mut buf = base.clone();
                buf[off..off + 8].copy_from_slice(&le);
                let _ = Dataset::read_from(&mut buf.as_slice());
                let _ = EqualityBitmapIndex::<Wah>::read_from(&mut buf.as_slice());
                let _ = RangeBitmapIndex::<Bbc>::read_from(&mut buf.as_slice());
                let _ = IntervalBitmapIndex::<Wah>::read_from(&mut buf.as_slice());
                let _ = DecomposedBitmapIndex::<Wah>::read_from(&mut buf.as_slice());
                let _ = VaFile::read_from(&mut buf.as_slice());
                let _ = EqualityBitmapIndex::<Adaptive>::read_from(&mut buf.as_slice());
            }
        }
    }

    #[test]
    fn mutated_snapshot_never_panics(pos in 0usize..8192, byte in any::<u8>()) {
        let (mut buf, _, _, _) = storage_images();
        let i = pos % buf.len();
        buf[i] ^= byte;
        let _ = ShardedDb::read_snapshot(&mut buf.as_slice()); // must not panic
    }

    #[test]
    fn truncated_snapshot_always_errors(cut_frac in 0.0f64..0.999) {
        // The snapshot is CRC'd and length-prefixed throughout: any strict
        // truncation must be rejected, never mis-parsed.
        let (buf, _, _, _) = storage_images();
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        prop_assert!(ShardedDb::read_snapshot(&mut &buf[..cut]).is_err());
    }

    #[test]
    fn mutated_wal_never_panics_and_keeps_a_wellformed_prefix(
        pos in 0usize..8192, byte in any::<u8>()
    ) {
        let (_, mut buf, _, _) = storage_images();
        let i = pos % buf.len();
        buf[i] ^= byte;
        let scan = ibis::storage::wal::scan_bytes(&buf); // total: never errors, never panics
        prop_assert!(scan.valid_len as usize <= buf.len());
        // Sequence numbers of whatever survives stay consecutive.
        for w in scan.records.windows(2) {
            prop_assert_eq!(w[1].0, w[0].0 + 1);
        }
    }

    #[test]
    fn wal_lying_length_fields_never_allocate(word in any::<u32>()) {
        // Overwrite the first frame's length prefix with an arbitrary u32:
        // the scan must tear there (or parse a benign value) without ever
        // reserving the claimed amount.
        let (_, mut buf, _, _) = storage_images();
        let off = ibis::storage::wal::WAL_HEADER_LEN as usize;
        buf[off..off + 4].copy_from_slice(&word.to_le_bytes());
        let scan = ibis::storage::wal::scan_bytes(&buf);
        prop_assert!(scan.valid_len as usize <= buf.len());
    }

    #[test]
    fn mutated_manifest_never_panics(pos in 0usize..256, byte in any::<u8>()) {
        let (_, _, mut buf, _) = storage_images();
        let i = pos % buf.len();
        buf[i] ^= byte;
        let _ = Manifest::read_from(&mut buf.as_slice());
    }

    #[test]
    fn truncated_manifest_always_errors(cut_frac in 0.0f64..0.999) {
        let (_, _, buf, _) = storage_images();
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        prop_assert!(Manifest::read_from(&mut &buf[..cut]).is_err());
    }

    #[test]
    fn mutated_backup_never_panics(pos in 0usize..8192, byte in any::<u8>()) {
        let (_, _, _, mut buf) = storage_images();
        let i = pos % buf.len();
        buf[i] ^= byte;
        let _ = DurableDb::read_backup(&mut buf.as_slice());
    }

    #[test]
    fn truncated_backup_always_errors(cut_frac in 0.0f64..0.999) {
        let (_, _, _, buf) = storage_images();
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        prop_assert!(DurableDb::read_backup(&mut &buf[..cut]).is_err());
    }

    #[test]
    fn storage_length_fields_never_cause_huge_preallocation(word in any::<u64>()) {
        // Same CPU/memory-DoS probe as the index formats: stamp an
        // arbitrary u64 over the length-bearing fields right after each
        // header (and two later offsets that land inside per-shard counts)
        // — every reader must fail cleanly without reserving the claim.
        let le = word.to_le_bytes();
        let (snapshot, _, manifest, backup) = storage_images();
        for base in [&snapshot, &manifest, &backup] {
            for off in [6usize, 14, 30] {
                if off + 8 > base.len() {
                    continue;
                }
                let mut buf = base.clone();
                buf[off..off + 8].copy_from_slice(&le);
                let _ = ShardedDb::read_snapshot(&mut buf.as_slice());
                let _ = Manifest::read_from(&mut buf.as_slice());
                let _ = DurableDb::read_backup(&mut buf.as_slice());
            }
        }
    }

    #[test]
    fn truncated_indexes_always_error(cut_frac in 0.0f64..0.999) {
        // Unlike mutation (which can be benign), any strict truncation must
        // be rejected: the formats are length-prefixed throughout.
        let buf = bee_bytes();
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        prop_assert!(EqualityBitmapIndex::<Wah>::read_from(&mut &buf[..cut]).is_err());
        let buf = va_bytes();
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        prop_assert!(VaFile::read_from(&mut &buf[..cut]).is_err());
        let buf = adaptive_bytes();
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        prop_assert!(EqualityBitmapIndex::<Adaptive>::read_from(&mut &buf[..cut]).is_err());
    }
}

#[test]
fn adaptive_lying_container_counts_and_kinds_fail_cleanly() {
    // The adaptive container format carries a kind byte and a count per
    // 2^16-row chunk. Stamp every kind byte with each invalid value and
    // every count with huge/hostile values: reads must reject with a clean
    // error (or, for a benign coincidence, a structurally valid index) —
    // never panic, never reserve the claimed amount. The container payload
    // starts after the IBEE header, backend name, row/attr counts, and the
    // per-attr preamble, so rather than hand-computing offsets we sweep all
    // plausible positions.
    let base = adaptive_bytes();
    // Kind bytes are 0/1/2 today; 3..=255 must all be rejected wherever a
    // kind byte actually lives. Sweeping every offset also hits counts and
    // payload bytes, which must be equally safe.
    for off in (0..base.len()).step_by(97) {
        for stamp in [3u8, 0x7F, 0xFF] {
            let mut buf = base.clone();
            buf[off] = stamp;
            let _ = EqualityBitmapIndex::<Adaptive>::read_from(&mut buf.as_slice());
        }
    }
    // Hostile 32-bit counts stamped across the image (aligned and not).
    for off in (0..base.len().saturating_sub(4)).step_by(61) {
        for n in [u32::MAX, 1 << 30, 65_537] {
            let mut buf = base.clone();
            buf[off..off + 4].copy_from_slice(&n.to_le_bytes());
            let _ = EqualityBitmapIndex::<Adaptive>::read_from(&mut buf.as_slice());
        }
    }
}

#[test]
fn lying_length_fields_behind_a_valid_checksum_fail_cleanly() {
    // The proptest mutations above almost always die at the CRC gate. This
    // battery *fixes up* the checksum after the lie, so the corrupt counts
    // reach the body parser itself — in particular the per-delta-row
    // `Vec::with_capacity(width)` in `ShardedDb::read_snapshot`, which must
    // stay capped (db.rs) exactly like the WAL reader (wal.rs).
    use ibis::storage::crc::crc32;
    // Single shard, no deltas, no tombstones: the body tail is exactly
    // [n_delta u64][tombstone count u64] = 16 known zero bytes.
    let db = ShardedDb::new(census_scaled(60, 508), 100);
    let mut image = Vec::new();
    db.write_snapshot(&mut image).unwrap();
    // Image layout: magic+version (6) | crc u32 (4) | body len u64 (8) | body.
    let body_len = u64::from_le_bytes(image[10..18].try_into().unwrap()) as usize;
    assert_eq!(image.len(), 18 + body_len);

    // Re-seals the image with `n` stamped over 8 body bytes at `off` and
    // the checksum recomputed so the lie survives CRC verification.
    let reseal = |off: usize, n: u64| {
        let mut body = image[18..].to_vec();
        body[off..off + 8].copy_from_slice(&n.to_le_bytes());
        let mut out = image[..6].to_vec();
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        out.extend_from_slice(&body);
        out
    };

    // A lying delta count drives the capacity-per-row loop: it must hit a
    // clean EOF, never reserve count × width cells.
    let lying = reseal(body_len - 16, u64::MAX);
    assert!(ShardedDb::read_snapshot(&mut lying.as_slice()).is_err());
    // Lying tombstone count likewise.
    let lying = reseal(body_len - 8, u64::MAX);
    assert!(ShardedDb::read_snapshot(&mut lying.as_slice()).is_err());

    // Body layout starts config u8 (0) | shard_rows u64 (1) | n_shards u64
    // (9) | first dataset image (17): stamp those headers, the dataset's
    // own row/attr counts (6 and 14 bytes past its header), and a coarse
    // sweep across the rest of the body. Every read must either error
    // cleanly or yield a structurally valid database — never panic, never
    // reserve the claimed amount.
    let targeted = [1usize, 9, 17 + 6, 17 + 14];
    let sweep = (0..body_len.saturating_sub(8)).step_by(131);
    for off in targeted.into_iter().chain(sweep) {
        for n in [u64::MAX, 1 << 40, (1 << 32) + 7] {
            let img = reseal(off, n);
            let _ = ShardedDb::read_snapshot(&mut img.as_slice());
        }
    }
}

#[test]
fn loaded_after_benign_roundtrip_still_answers_correctly() {
    // Sanity anchor for the fuzz suite: the unmutated bytes load and agree
    // with the source index.
    let d = census_scaled(60, 502);
    let idx = EqualityBitmapIndex::<Wah>::build(&d);
    let back = EqualityBitmapIndex::<Wah>::read_from(&mut bee_bytes().as_slice()).unwrap();
    let q = RangeQuery::new(vec![Predicate::point(0, 1)], MissingPolicy::IsMatch).unwrap();
    assert_eq!(back.execute(&q).unwrap(), idx.execute(&q).unwrap());
}
