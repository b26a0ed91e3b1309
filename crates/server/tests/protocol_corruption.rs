//! Failure-injection battery for the `IBQP` wire format, mirroring the
//! repo-level `tests/corruption.rs` discipline: truncated, bit-flipped,
//! and lying-length frames must yield a clean protocol error — never a
//! panic, a hang, or a huge allocation. A ROWS reply is fuzzed in both of
//! its forms: ids, and a bitmap over the ids' span.

use ibis_core::{MissingPolicy, Predicate, RangeQuery};
use ibis_server::protocol::{read_frame, response_kind, write_frame, Frame, Request, Response};
use ibis_server::{SlowPhase, SlowQuery, StatsReport};
use proptest::prelude::*;
use std::sync::LazyLock;

fn request_image() -> Vec<u8> {
    static BYTES: LazyLock<Vec<u8>> = LazyLock::new(|| {
        let query = RangeQuery::new(
            vec![Predicate::range(0, 1, 3), Predicate::range(4, 2, 2)],
            MissingPolicy::IsNotMatch,
        )
        .unwrap();
        let (kind, body) = Request::Query {
            query,
            count_only: false,
            deadline_ms: 500,
        }
        .encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, kind, &body).unwrap();
        buf
    });
    BYTES.clone()
}

/// Where a ROWS frame's form byte lies: after the 8-byte frame head, the
/// 9-byte id/kind prefix and the 8-byte watermark.
const FORM_AT: usize = 8 + 9 + 8;

fn rows_image(rows: Vec<u32>) -> Vec<u8> {
    let (kind, body) = Response::Rows {
        watermark: 12,
        rows,
    }
    .encode();
    let mut buf = Vec::new();
    write_frame(&mut buf, 7, kind, &body).unwrap();
    buf
}

/// Rows `0..200`: dense, so sent as a 4-word bitmap.
fn response_image() -> Vec<u8> {
    static BYTES: LazyLock<Vec<u8>> = LazyLock::new(|| {
        let buf = rows_image((0..200).collect());
        assert_eq!(buf[FORM_AT], 1, "dense rows go as a bitmap");
        buf
    });
    BYTES.clone()
}

/// 40 rows a thousand apart: sparse, so sent as ids.
fn sparse_response_image() -> Vec<u8> {
    static BYTES: LazyLock<Vec<u8>> = LazyLock::new(|| {
        let buf = rows_image((0..40).map(|i| 17 + i * 1000).collect());
        assert_eq!(buf[FORM_AT], 0, "sparse rows go as ids");
        buf
    });
    BYTES.clone()
}

/// The body of `response_image` with its bitmap header restamped.
fn bitmap_body(count: u32, first: u32, n_words: u64, words: &[u64]) -> Vec<u8> {
    let mut body = 12u64.to_le_bytes().to_vec();
    body.push(1);
    body.extend_from_slice(&count.to_le_bytes());
    body.extend_from_slice(&first.to_le_bytes());
    body.extend_from_slice(&n_words.to_le_bytes());
    for w in words {
        body.extend_from_slice(&w.to_le_bytes());
    }
    body
}

/// The four words of rows `0..200`.
const WORDS_0_200: [u64; 4] = [u64::MAX, u64::MAX, u64::MAX, 0xFF];

fn decode_rows(body: Vec<u8>) -> std::io::Result<Vec<u32>> {
    let frame = Frame {
        request_id: 7,
        kind: response_kind::ROWS,
        body,
    };
    match Response::decode(&frame)? {
        Response::Rows { rows, .. } => Ok(rows),
        other => panic!("ROWS decoded as {other:?}"),
    }
}

/// A populated STATS response — the richest message on the wire (nested
/// slow-query list, counter pairs, embedded JSON), so the best fuzz bait.
fn stats_image() -> Vec<u8> {
    static BYTES: LazyLock<Vec<u8>> = LazyLock::new(|| {
        let (kind, body) = Response::Stats(Box::new(StatsReport {
            watermark: 42,
            queue_depth: 3,
            queue_high_water: 64,
            workers: 4,
            workers_busy: 2,
            uptime_ms: 9000,
            metrics_json: "{\"counters\":{}}".into(),
            slow_queries: vec![SlowQuery {
                request_id: 17,
                watermark: 42,
                plan: "a0∈[1,3] (IsNotMatch)".into(),
                queue_us: 120,
                exec_us: 3400,
                total_us: 3520,
                counters: vec![("bitmaps_accessed".into(), 8)],
                phases: vec![SlowPhase {
                    name: "db.shard".into(),
                    spans: 4,
                    total_ns: 3_200_000,
                    counters: vec![("bitmaps_accessed".into(), 8)],
                }],
            }],
        }))
        .encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, kind, &body).unwrap();
        buf
    });
    BYTES.clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_request_frames_never_panic(pos in 0usize..4096, byte in any::<u8>()) {
        let mut buf = request_image();
        let i = pos % buf.len();
        buf[i] ^= byte;
        // Either the frame tears (io error) or — for a benign flip that
        // dodges the CRC — it decodes; both without panicking.
        if let Ok(frame) = read_frame(&mut buf.as_slice()) {
            let _ = Request::decode(&frame);
        }
    }

    #[test]
    fn mutated_response_frames_never_panic(pos in 0usize..4096, byte in any::<u8>()) {
        for mut buf in [response_image(), sparse_response_image()] {
            let i = pos % buf.len();
            buf[i] ^= byte;
            if let Ok(frame) = read_frame(&mut buf.as_slice()) {
                let _ = Response::decode(&frame);
            }
        }
    }

    #[test]
    fn mutated_row_bodies_never_panic(pos in 0usize..4096, byte in any::<u8>()) {
        // Flips inside a checksummed body reach the row decoder itself
        // (a flip in a frame is almost always caught by its CRC first).
        for image in [response_image(), sparse_response_image()] {
            let mut body = read_frame(&mut image.as_slice()).unwrap().body;
            let i = pos % body.len();
            body[i] ^= byte;
            let _ = decode_rows(body);
        }
    }

    #[test]
    fn lying_row_bitmap_headers_never_allocate(
        count in any::<u32>(),
        first in any::<u32>(),
        n_words in any::<u64>(),
        keep in 0u32..8,
    ) {
        // Restamp the header of rows 0..200's four words, each field kept
        // true more often than not. Only the true count and word count over
        // a `first` low enough to hold 200 ids decode, to first..first+200;
        // everything else is a clean error.
        let count = if keep & 1 != 0 { 200 } else { count };
        // A lying word count is small, up to 2^20 words, or anything.
        let n_words = match (keep & 2, n_words % 3) {
            (2, _) => 4,
            (_, 0) => n_words % 8,
            (_, 1) => n_words >> 44,
            _ => n_words,
        };
        let first = if keep & 4 != 0 { first.min(u32::MAX - 199) } else { first };
        let decoded = decode_rows(bitmap_body(count, first, n_words, &WORDS_0_200));
        if count == 200 && n_words == 4 && first <= u32::MAX - 199 {
            let rows = decoded.map_err(|e| e.to_string())?;
            prop_assert_eq!(rows, (first..=first + 199).collect::<Vec<u32>>());
        } else {
            prop_assert!(decoded.is_err(), "count {count} from {first} over {n_words} words parsed");
        }
    }

    #[test]
    fn mutated_stats_frames_never_panic(pos in 0usize..4096, byte in any::<u8>()) {
        let mut buf = stats_image();
        let i = pos % buf.len();
        buf[i] ^= byte;
        if let Ok(frame) = read_frame(&mut buf.as_slice()) {
            let _ = Response::decode(&frame);
        }
    }

    #[test]
    fn truncated_frames_always_error(cut_frac in 0.0f64..0.999) {
        // The frame is length-prefixed and checksummed: every strict
        // truncation must be rejected, never mis-parsed or blocked on.
        for image in [request_image(), response_image(), sparse_response_image(), stats_image()] {
            let cut = ((image.len() as f64) * cut_frac) as usize;
            prop_assert!(read_frame(&mut &image[..cut]).is_err());
        }
    }

    #[test]
    fn lying_slow_query_counts_stay_capped(n in any::<u16>()) {
        // Stamp an arbitrary slow-query count over a STATS body holding
        // exactly one entry: decode must fail on the missing bytes, never
        // reserve n entries up front.
        let image = stats_image();
        let frame = read_frame(&mut image.as_slice()).unwrap();
        // Body layout: watermark u64, 4×u32, uptime u64, metrics string
        // (u64 len + bytes), then the u16 slow-query count.
        let json_len =
            u64::from_le_bytes(frame.body[32..40].try_into().unwrap()) as usize;
        let count_at = 40 + json_len;
        let mut body = frame.body.clone();
        body[count_at..count_at + 2].copy_from_slice(&n.to_le_bytes());
        let mut buf = Vec::new();
        write_frame(&mut buf, frame.request_id, frame.kind, &body).unwrap();
        let reread = read_frame(&mut buf.as_slice()).unwrap();
        let decoded = Response::decode(&reread);
        if n == 1 {
            prop_assert!(decoded.is_ok());
        } else {
            prop_assert!(decoded.is_err(), "count {n} must not parse one entry");
        }
    }

    #[test]
    fn lying_length_fields_never_allocate(word in any::<u32>()) {
        // Stamp an arbitrary u32 over the length prefix: the reader must
        // fail cleanly (cap check or EOF or CRC) without reserving the
        // claimed amount.
        for image in [request_image(), response_image(), sparse_response_image()] {
            let true_len = image.len() - 8;
            let mut buf = image;
            buf[..4].copy_from_slice(&word.to_le_bytes());
            let parsed = read_frame(&mut buf.as_slice());
            if word as usize != true_len {
                // Cap check, EOF, or CRC mismatch — always a clean error.
                prop_assert!(parsed.is_err(), "lying length {word} parsed");
            } else {
                prop_assert!(parsed.is_ok());
            }
        }
    }

    #[test]
    fn lying_predicate_counts_stay_capped(n in any::<u16>()) {
        // Rebuild a query body whose predicate count lies: decode must
        // fail cleanly on the missing bytes, never reserve n predicates.
        let mut body = Vec::new();
        body.push(0u8); // policy
        body.push(0u8); // count flag
        body.extend_from_slice(&100u32.to_le_bytes()); // deadline
        body.extend_from_slice(&n.to_le_bytes()); // lying predicate count
        body.extend_from_slice(&1u32.to_le_bytes()); // one real predicate…
        body.extend_from_slice(&1u16.to_le_bytes());
        body.extend_from_slice(&2u16.to_le_bytes());
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, 1, &body).unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        let decoded = Request::decode(&frame);
        if n != 1 {
            prop_assert!(decoded.is_err(), "count {n} must not parse one predicate");
        }
    }
}

#[test]
fn unknown_kinds_are_soft_errors() {
    for kind in [0u8, 9, 200] {
        let mut buf = Vec::new();
        write_frame(&mut buf, 3, kind, b"").unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert!(Request::decode(&frame).unwrap_err().contains("unknown"));
        assert!(Response::decode(&frame).is_err());
    }
}

#[test]
fn row_bitmaps_that_lie_are_refused_before_any_id_is_written() {
    use std::io::ErrorKind::{InvalidData, UnexpectedEof};
    let kind = |body: Vec<u8>| decode_rows(body).map_err(|e| e.kind());
    // The true image decodes.
    let rows = decode_rows(bitmap_body(200, 0, 4, &WORDS_0_200)).unwrap();
    assert_eq!(rows, (0..200).collect::<Vec<u32>>());
    // A last word that starts past u32::MAX is refused at the header, before
    // any word is read; so is a bitmap of no words.
    for (first, n_words) in [
        (u32::MAX - 100, 4),
        (u32::MAX, 2),
        (1 << 31, (1 << 25) + 1),
        (0, (1 << 26) + 1),
        (0, u64::MAX),
        (0, 0),
    ] {
        assert_eq!(
            kind(bitmap_body(200, first, n_words, &[])),
            Err(InvalidData)
        );
    }
    // A header within u32 that claims more words than are there runs out of
    // bytes: the words are read a chunk at a time, never reserved whole
    // (2^26 words would be 512 MiB).
    assert_eq!(
        kind(bitmap_body(200, 0, 1 << 26, &WORDS_0_200)),
        Err(UnexpectedEof)
    );
    // A last word that starts at an id but sets one past u32::MAX.
    let first = u32::MAX - 64 * 3 - 3;
    assert_eq!(
        kind(bitmap_body(200, first, 4, &WORDS_0_200)),
        Err(InvalidData)
    );
    assert!(decode_rows(bitmap_body(
        196,
        first,
        4,
        &[u64::MAX, u64::MAX, u64::MAX, 0xF]
    ))
    .is_ok());
    // A count the popcount does not vouch for, u32::MAX included: the ids
    // are reserved only after the words agree with the count, so a lie
    // never becomes a 16 GiB reservation.
    for count in [0, 1, 199, 201, 256, u32::MAX] {
        assert_eq!(
            kind(bitmap_body(count, 0, 4, &WORDS_0_200)),
            Err(InvalidData)
        );
    }
    // Zero edge words, and a first word that does not start at `first`: a
    // set has exactly one bitmap.
    let shifted = [u64::MAX << 1, u64::MAX, u64::MAX, 0x1FF];
    for words in [
        &[0, u64::MAX, u64::MAX, u64::MAX, 0xFF][..],
        &[u64::MAX, u64::MAX, u64::MAX, 0xFF, 0][..],
        &shifted[..],
    ] {
        let n_words = words.len() as u64;
        assert_eq!(kind(bitmap_body(200, 0, n_words, words)), Err(InvalidData));
    }
    // Unknown forms and trailing bytes.
    for form in [2u8, 7, 255] {
        let mut body = bitmap_body(200, 0, 4, &WORDS_0_200);
        body[8] = form;
        assert_eq!(kind(body), Err(InvalidData));
    }
    let mut body = bitmap_body(200, 0, 4, &WORDS_0_200);
    body.push(0);
    assert_eq!(kind(body), Err(InvalidData));
}
