//! Append-only write-ahead log.
//!
//! The WAL is the durability root: every mutation is appended (and fsynced)
//! here *before* it touches the in-memory [`ShardedDb`](crate::ShardedDb),
//! so a crash at any instant loses at most the un-acknowledged tail. The
//! file layout is a 6-byte header (magic `IBWL`, version) followed by
//! frames:
//!
//! ```text
//! [u32 payload_len][u32 crc32(payload)][payload]
//! payload = [u64 seq][u8 kind][kind-specific body]
//! ```
//!
//! Recovery reads frames in order and stops at the first sign of a torn
//! tail — short frame, out-of-range length, checksum mismatch, undecodable
//! payload, or a non-consecutive sequence number — and reports how many
//! bytes were well-formed so the engine can truncate the damage away. A
//! corrupted length field can therefore never trigger a huge allocation or
//! a scan past the mapped file: payloads are capped at [`MAX_FRAME_LEN`]
//! and every access is bounds-checked against the bytes actually present.

use crate::crc::crc32;
use ibis_core::{wire, Cell};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

pub(crate) const WAL_MAGIC: &[u8; 4] = b"IBWL";
pub(crate) const WAL_VERSION: u16 = 1;

/// Bytes of magic + version heading every WAL file.
pub const WAL_HEADER_LEN: u64 = 6;

/// Upper bound on one frame's payload. A frame holds one logical record (a
/// single row, a delete, or a compaction marker), so anything larger is
/// corruption by definition — treated as a torn tail, never allocated.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// A record whose encoded payload exceeds [`MAX_FRAME_LEN`]. Raised by
/// [`WalWriter::append`] *before* anything hits the file: writing the frame
/// would truncate its length header to `len as u32`, and the log would then
/// tear at this record on every replay. Surfaces as an
/// [`io::ErrorKind::InvalidInput`] error whose source downcasts to this type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameTooLarge {
    /// The encoded payload length that exceeded the cap.
    pub len: usize,
}

impl std::fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WAL record payload of {} bytes exceeds MAX_FRAME_LEN ({MAX_FRAME_LEN})",
            self.len
        )
    }
}

impl std::error::Error for FrameTooLarge {}

/// One logged mutation. Replaying the record sequence against the snapshot
/// it extends reproduces the pre-crash database exactly — including
/// [`Compact`](WalRecord::Compact), which renumbers rows deterministically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// Append one row (raw cell codes; 0 = missing).
    Insert(Vec<Cell>),
    /// Tombstone one global row id. No-op deletes are logged too: replaying
    /// a miss is a miss again, so the outcome stays deterministic.
    Delete(u32),
    /// Fold deltas/tombstones into the shards, renumbering survivors.
    Compact,
}

impl WalRecord {
    /// Encodes the record as one whole frame, `[len][crc][payload]`: the
    /// payload is written after an 8-byte gap and checksummed where it lies.
    /// Fails with [`FrameTooLarge`] before the length is cast to `u32`.
    fn frame(&self, seq: u64) -> io::Result<Vec<u8>> {
        let mut p = vec![0u8; 8];
        wire::write_u64(&mut p, seq).expect("vec write");
        match self {
            WalRecord::Insert(row) => {
                wire::write_u8(&mut p, 1).expect("vec write");
                wire::write_u32(&mut p, row.len() as u32).expect("vec write");
                for c in row {
                    wire::write_u16(&mut p, c.raw()).expect("vec write");
                }
            }
            WalRecord::Delete(id) => {
                wire::write_u8(&mut p, 2).expect("vec write");
                wire::write_u32(&mut p, *id).expect("vec write");
            }
            WalRecord::Compact => wire::write_u8(&mut p, 3).expect("vec write"),
        }
        let len = p.len() - 8;
        if len > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                FrameTooLarge { len },
            ));
        }
        let crc = crc32(&p[8..]);
        p[..4].copy_from_slice(&(len as u32).to_le_bytes());
        p[4..8].copy_from_slice(&crc.to_le_bytes());
        Ok(p)
    }

    fn decode(payload: &[u8]) -> io::Result<(u64, WalRecord)> {
        let r = &mut &payload[..];
        let seq = wire::read_u64(r)?;
        let kind = wire::read_u8(r)?;
        let record = match kind {
            1 => {
                let n = wire::read_u32(r)? as usize;
                // The cap mirrors the wire readers; a lying count still hits
                // EOF cleanly because the payload itself is length-bounded.
                let mut row = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    row.push(Cell::from_raw(wire::read_u16(r)?));
                }
                WalRecord::Insert(row)
            }
            2 => WalRecord::Delete(wire::read_u32(r)?),
            3 => WalRecord::Compact,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown WAL record kind {other}"),
                ))
            }
        };
        if !r.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "trailing bytes in WAL payload",
            ));
        }
        Ok((seq, record))
    }
}

/// The open, append-only log. Each [`append`](WalWriter::append) writes one
/// checksummed frame and fsyncs before returning (counted on
/// `wal.append_bytes` / `wal.fsyncs`).
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    next_seq: u64,
    bytes: u64,
}

impl WalWriter {
    /// Creates (truncating) a fresh WAL whose first record will carry
    /// `next_seq`, and fsyncs the header.
    pub fn create(path: &Path, next_seq: u64) -> io::Result<WalWriter> {
        let mut file = File::create(path)?;
        wire::write_header(&mut file, WAL_MAGIC, WAL_VERSION)?;
        file.sync_all()?;
        Ok(WalWriter {
            file,
            next_seq,
            bytes: WAL_HEADER_LEN,
        })
    }

    /// Opens an existing WAL for appending. `len` is the validated length
    /// (the caller has already truncated any torn tail to it).
    pub fn open_at(path: &Path, next_seq: u64, len: u64) -> io::Result<WalWriter> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.seek(SeekFrom::Start(len))?;
        Ok(WalWriter {
            file,
            next_seq,
            bytes: len,
        })
    }

    /// Appends one record, fsyncs, and returns its sequence number.
    ///
    /// Fails with [`FrameTooLarge`] (as an `InvalidInput` io error) when the
    /// encoded payload exceeds [`MAX_FRAME_LEN`] — the frame's `as u32`
    /// length cast would otherwise silently truncate and corrupt the log on
    /// replay.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<u64> {
        let seq = self.next_seq;
        let frame = record.frame(seq)?;
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        self.bytes += frame.len() as u64;
        self.next_seq += 1;
        ibis_obs::counter_add("wal.append_bytes", frame.len() as u64);
        ibis_obs::counter_add("wal.fsyncs", 1);
        ibis_obs::gauge_set("wal.bytes", self.bytes as f64);
        Ok(seq)
    }

    /// Discards every frame (after a checkpoint has made them redundant),
    /// keeping the header and the sequence counter.
    pub fn truncate_to_header(&mut self) -> io::Result<()> {
        self.file.set_len(WAL_HEADER_LEN)?;
        self.file.seek(SeekFrom::Start(WAL_HEADER_LEN))?;
        self.file.sync_all()?;
        self.bytes = WAL_HEADER_LEN;
        ibis_obs::gauge_set("wal.bytes", self.bytes as f64);
        Ok(())
    }

    /// Sequence number of the last appended record (0 if none ever).
    pub fn last_seq(&self) -> u64 {
        self.next_seq.saturating_sub(1)
    }

    /// Current file length in bytes (header included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// The result of scanning a WAL file: every well-formed frame in order,
/// plus where the well-formed prefix ends.
#[derive(Debug)]
pub struct WalScan {
    /// Decoded records of the valid prefix, in append order.
    pub records: Vec<(u64, WalRecord)>,
    /// Whether the 6-byte header parsed. A missing/garbled header yields an
    /// empty scan (`valid_len` = 0) rather than an error: the engine treats
    /// it as "no durable tail" and rewrites the header on open.
    pub header_ok: bool,
    /// Bytes of the well-formed prefix (header + intact frames).
    pub valid_len: u64,
    /// Total bytes in the file; `> valid_len` means a torn tail.
    pub file_len: u64,
}

impl WalScan {
    /// True when the file ends exactly at the last intact frame.
    pub fn clean(&self) -> bool {
        self.header_ok && self.valid_len == self.file_len
    }
}

/// Scans `path`, stopping at the first torn/corrupt frame. Never panics and
/// never allocates more than the bytes actually present.
pub fn scan(path: &Path) -> io::Result<WalScan> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    Ok(scan_bytes(&buf))
}

/// [`scan`] over an in-memory image (what the corruption battery drives).
pub fn scan_bytes(buf: &[u8]) -> WalScan {
    let file_len = buf.len() as u64;
    let header_ok = wire::read_header(&mut &buf[..], WAL_MAGIC, WAL_VERSION).is_ok();
    if !header_ok {
        return WalScan {
            records: Vec::new(),
            header_ok,
            valid_len: 0,
            file_len,
        };
    }
    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    let mut prev_seq: Option<u64> = None;
    while let Some(head) = buf.get(pos..pos + 8) {
        let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
        // seq(8) + kind(1) is the smallest possible payload.
        if !(9..=MAX_FRAME_LEN).contains(&len) {
            break;
        }
        let Some(payload) = buf.get(pos + 8..pos + 8 + len) else {
            break;
        };
        let crc = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
        if crc32(payload) != crc {
            break;
        }
        let Ok((seq, record)) = WalRecord::decode(payload) else {
            break;
        };
        if prev_seq.is_some_and(|p| seq != p + 1) {
            break;
        }
        prev_seq = Some(seq);
        records.push((seq, record));
        pos += 8 + len;
    }
    WalScan {
        records,
        header_ok,
        valid_len: pos as u64,
        file_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ibis_wal_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert(vec![Cell::present(3), Cell::MISSING]),
            WalRecord::Delete(7),
            WalRecord::Compact,
            WalRecord::Insert(vec![Cell::present(1), Cell::present(2)]),
        ]
    }

    #[test]
    fn append_scan_roundtrip() {
        let path = tmp("roundtrip");
        let mut w = WalWriter::create(&path, 1).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        assert_eq!(w.last_seq(), 4);
        let s = scan(&path).unwrap();
        assert!(s.clean());
        assert_eq!(s.records.len(), 4);
        assert_eq!(
            s.records.iter().map(|(q, _)| *q).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        assert_eq!(
            s.records.into_iter().map(|(_, r)| r).collect::<Vec<_>>(),
            sample_records()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_at_every_offset_keeps_the_intact_prefix() {
        let path = tmp("trunc");
        let mut w = WalWriter::create(&path, 1).unwrap();
        let mut boundaries = vec![w.bytes()];
        for r in sample_records() {
            w.append(&r).unwrap();
            boundaries.push(w.bytes());
        }
        let image = std::fs::read(&path).unwrap();
        for cut in 0..=image.len() {
            let s = scan_bytes(&image[..cut]);
            let expect = boundaries.iter().filter(|&&b| b <= cut as u64).count();
            // boundaries[0] is the bare header; frames completed after it.
            let expect_records = expect.saturating_sub(1);
            assert_eq!(s.records.len(), expect_records, "cut {cut}");
            if cut >= WAL_HEADER_LEN as usize {
                assert!(s.header_ok);
                assert!(s.valid_len <= cut as u64);
            } else {
                assert!(!s.header_ok, "cut {cut}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flips_tear_at_the_damaged_frame() {
        let path = tmp("flip");
        let mut w = WalWriter::create(&path, 1).unwrap();
        let mut boundaries = vec![w.bytes()];
        for r in sample_records() {
            w.append(&r).unwrap();
            boundaries.push(w.bytes());
        }
        let image = std::fs::read(&path).unwrap();
        for pos in WAL_HEADER_LEN as usize..image.len() {
            let mut broken = image.clone();
            broken[pos] ^= 0x40;
            let s = scan_bytes(&broken);
            // Frames wholly before the flipped byte must survive.
            let durable = boundaries
                .iter()
                .filter(|&&b| b <= pos as u64)
                .count()
                .saturating_sub(1);
            assert_eq!(s.records.len(), durable, "flip at {pos}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lying_length_fields_never_allocate_or_scan_far() {
        let path = tmp("len");
        let mut w = WalWriter::create(&path, 1).unwrap();
        w.append(&WalRecord::Delete(1)).unwrap();
        let image = std::fs::read(&path).unwrap();
        for word in [0u32, 8, u32::MAX, MAX_FRAME_LEN as u32 + 1, 1 << 30] {
            let mut broken = image.clone();
            broken[6..10].copy_from_slice(&word.to_le_bytes());
            let s = scan_bytes(&broken);
            assert!(s.records.is_empty(), "len {word}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn nonmonotonic_sequence_numbers_tear() {
        let mut buf = Vec::new();
        wire::write_header(&mut buf, WAL_MAGIC, WAL_VERSION).unwrap();
        for seq in [5u64, 6, 8] {
            buf.extend_from_slice(&WalRecord::Compact.frame(seq).unwrap());
        }
        let s = scan_bytes(&buf);
        assert_eq!(s.records.len(), 2, "the seq-8 frame breaks the chain");
        assert!(s.valid_len < s.file_len);
    }

    #[test]
    fn append_rejects_frames_over_the_cap_at_the_boundary() {
        let path = tmp("cap");
        let mut w = WalWriter::create(&path, 1).unwrap();
        // Insert payload = seq(8) + kind(1) + count(4) + 2 bytes/cell.
        let cells_at_cap = (MAX_FRAME_LEN - 13) / 2;
        let fits = WalRecord::Insert(vec![Cell::MISSING; cells_at_cap]);
        w.append(&fits).unwrap();
        let bytes_after_ok = w.bytes();

        let over = WalRecord::Insert(vec![Cell::MISSING; cells_at_cap + 1]);
        let err = w.append(&over).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let frame_err = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<FrameTooLarge>())
            .expect("source downcasts to FrameTooLarge");
        assert!(frame_err.len > MAX_FRAME_LEN);

        // Nothing reached the file, and the sequence counter did not burn:
        // the next append continues the chain and the log replays cleanly.
        assert_eq!(w.bytes(), bytes_after_ok);
        w.append(&WalRecord::Delete(4)).unwrap();
        let s = scan(&path).unwrap();
        assert!(s.clean());
        assert_eq!(
            s.records.iter().map(|(q, _)| *q).collect::<Vec<_>>(),
            vec![1, 2]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncate_to_header_preserves_the_sequence_counter() {
        let path = tmp("reset");
        let mut w = WalWriter::create(&path, 1).unwrap();
        w.append(&WalRecord::Compact).unwrap();
        w.append(&WalRecord::Compact).unwrap();
        w.truncate_to_header().unwrap();
        assert_eq!(w.bytes(), WAL_HEADER_LEN);
        assert_eq!(w.last_seq(), 2);
        let seq = w.append(&WalRecord::Delete(0)).unwrap();
        assert_eq!(seq, 3);
        let s = scan(&path).unwrap();
        assert!(s.clean());
        assert_eq!(s.records, vec![(3, WalRecord::Delete(0))]);
        std::fs::remove_file(&path).ok();
    }
}
