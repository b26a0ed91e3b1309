//! Minimal little-endian wire format helpers shared by every crate's
//! persistence code.
//!
//! The paper measures index size "as the size of the requisite index files
//! on disk"; the workspace therefore gives every index a compact binary
//! on-disk form. The format is deliberately simple: each file starts with a
//! 4-byte magic and a `u16` version, then type-specific payload. All
//! integers are little-endian; vectors are a `u64` length followed by raw
//! elements. No serde — the formats are a handful of primitive fields.

use ibis_bitvec::BitVec64;
use std::io::{self, Read, Write};

/// Writes a magic tag and format version.
pub fn write_header(w: &mut impl Write, magic: &[u8; 4], version: u16) -> io::Result<()> {
    w.write_all(magic)?;
    write_u16(w, version)
}

/// Reads and checks a magic tag and version.
pub fn read_header(r: &mut impl Read, magic: &[u8; 4], version: u16) -> io::Result<()> {
    let mut got = [0u8; 4];
    r.read_exact(&mut got)?;
    if &got != magic {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad magic {:02x?}, expected {:02x?}", got, magic),
        ));
    }
    let v = read_u16(r)?;
    if v != version {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported format version {v}, expected {version}"),
        ));
    }
    Ok(())
}

macro_rules! prim {
    ($write:ident, $read:ident, $ty:ty) => {
        /// Writes one little-endian value.
        pub fn $write(w: &mut impl Write, v: $ty) -> io::Result<()> {
            w.write_all(&v.to_le_bytes())
        }
        /// Reads one little-endian value.
        pub fn $read(r: &mut impl Read) -> io::Result<$ty> {
            let mut buf = [0u8; std::mem::size_of::<$ty>()];
            r.read_exact(&mut buf)?;
            Ok(<$ty>::from_le_bytes(buf))
        }
    };
}

prim!(write_u8, read_u8, u8);
prim!(write_u16, read_u16, u16);
prim!(write_u32, read_u32, u32);
prim!(write_u64, read_u64, u64);

/// Writes a `usize` as `u64`.
pub fn write_len(w: &mut impl Write, v: usize) -> io::Result<()> {
    write_u64(w, v as u64)
}

/// Reads a `u64` length back into `usize`, guarding against absurd values.
pub fn read_len(r: &mut impl Read) -> io::Result<usize> {
    let v = read_u64(r)?;
    usize::try_from(v)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "length overflows usize"))
}

/// Bytes the vector helpers convert per `write_all` / `read_exact`, through
/// a stack buffer; a vector reader reserves at most this far ahead.
const CHUNK: usize = 4096;

/// The most [`read_exact_vec`] grows its vector by before the bytes arrive.
const BYTE_STEP: usize = 64 * 1024;

/// Reads exactly `n` bytes into a new vector. The vector grows in steps of
/// at most 64 KiB as the bytes arrive, so a corrupted (huge) `n` fails with
/// an EOF error instead of attempting a giant allocation.
pub fn read_exact_vec(r: &mut impl Read, n: usize) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    while out.len() < n {
        let start = out.len();
        out.resize(n.min(start + BYTE_STEP), 0);
        r.read_exact(&mut out[start..])?;
    }
    Ok(out)
}

macro_rules! vec_io {
    ($write:ident, $read:ident, $ty:ty) => {
        /// Writes a length-prefixed vector of little-endian values.
        pub fn $write(w: &mut impl Write, v: &[$ty]) -> io::Result<()> {
            const N: usize = std::mem::size_of::<$ty>();
            write_len(w, v.len())?;
            let mut buf = [0u8; CHUNK];
            for part in v.chunks(CHUNK / N) {
                for (dst, x) in buf.chunks_exact_mut(N).zip(part) {
                    dst.copy_from_slice(&x.to_le_bytes());
                }
                w.write_all(&buf[..part.len() * N])?;
            }
            Ok(())
        }
        /// Reads a length-prefixed vector of little-endian values. It
        /// reserves at most one chunk ahead of the bytes read, so a lying
        /// count fails with an EOF error, never a huge reservation.
        pub fn $read(r: &mut impl Read) -> io::Result<Vec<$ty>> {
            let n = read_len(r)?;
            read_values(r, n, <$ty>::from_le_bytes)
        }
    };
}

/// Reads `n` little-endian values of `N` bytes each through a stack buffer,
/// reserving at most one chunk ahead of the bytes read.
fn read_values<T, const N: usize>(
    r: &mut impl Read,
    n: usize,
    from_le: impl Fn([u8; N]) -> T,
) -> io::Result<Vec<T>> {
    let mut out = Vec::with_capacity(n.min(CHUNK / N));
    let mut buf = [0u8; CHUNK];
    while out.len() < n {
        let bytes = &mut buf[..(n - out.len()).min(CHUNK / N) * N];
        r.read_exact(bytes)?;
        out.extend(
            bytes
                .chunks_exact(N)
                .map(|b| from_le(b.try_into().expect("N bytes"))),
        );
    }
    Ok(out)
}

vec_io!(write_vec_u16, read_vec_u16, u16);
vec_io!(write_vec_u32, read_vec_u32, u32);
vec_io!(write_vec_u64, read_vec_u64, u64);

/// Form byte of a row-id set written as its ids: `[u64 count][u32 × count]`,
/// the layout of [`write_vec_u32`].
pub const ROWS_AS_IDS: u8 = 0;

/// Form byte of a row-id set written as a bitmap over its span:
/// `[u32 count][u32 first][u64 n_words][u64 × n_words]`, where bit `i` set
/// means id `first + i`.
pub const ROWS_AS_BITS: u8 = 1;

/// How many words the bitmap form of `ids` takes, if that is the form to
/// write: the ids strictly ascend and the bitmap, 16 + 8 · words bytes, is
/// strictly smaller than the ids, 8 + 4 · count.
fn bitmap_words(ids: &[u32]) -> Option<usize> {
    let (&first, &last) = (ids.first()?, ids.last()?);
    let n_words = (last.checked_sub(first)? / 64) as usize + 1;
    u32::try_from(ids.len()).ok()?;
    let smaller = 16 + 8 * n_words < 8 + 4 * ids.len();
    // One pass with no early exit, so that it vectorises.
    let ascending = || {
        !ids.iter()
            .zip(&ids[1..])
            .fold(false, |bad, (a, b)| bad | (b <= a))
    };
    (smaller && ascending()).then_some(n_words)
}

/// Appends a row-id set in the smaller of its two forms, a form byte first:
/// [`ROWS_AS_BITS`] when the ids strictly ascend and the bitmap over
/// `[ids[0], ids[last]]` takes fewer bytes than they do, otherwise (a tie
/// included) [`ROWS_AS_IDS`], which carries any order. [`read_row_ids`]
/// reads either back.
///
/// The bitmap is built in place in the output: zeroed, then each id's bit
/// set in its byte. That costs 0.65–0.69 ns an id at every density from 4%
/// to 90% on a 2-vCPU x86 host; holding the word being filled in a register
/// and writing it once done cost 0.9–2.1 ns (the branch on "next word?"
/// mispredicts between those densities), and OR-ing into whole `u64`
/// words 0.8–1.2 ns. The order check is a pass of its own, 0.1 ns an id.
pub fn write_row_ids(out: &mut Vec<u8>, ids: &[u32]) {
    let Some(n_words) = bitmap_words(ids) else {
        out.reserve(1 + 8 + 4 * ids.len());
        out.push(ROWS_AS_IDS);
        write_vec_u32(out, ids).expect("vec write");
        return;
    };
    let first = ids[0];
    out.reserve(1 + 16 + 8 * n_words);
    out.push(ROWS_AS_BITS);
    out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    out.extend_from_slice(&first.to_le_bytes());
    out.extend_from_slice(&(n_words as u64).to_le_bytes());
    let start = out.len();
    out.resize(start + 8 * n_words, 0);
    let bytes = &mut out[start..];
    for &id in ids {
        let off = (id - first) as usize;
        bytes[off >> 3] |= 1 << (off & 7);
    }
}

/// Reads a row-id set written by [`write_row_ids`], in either form.
///
/// A bitmap is checked before its ids are written: it must set no id past
/// `u32::MAX`, begin with the id `first` and end with a non-zero word (so a
/// set has one bitmap), and hold exactly `count` ids. Its last word may
/// reach past `u32::MAX` (a set ending there need not start on a multiple
/// of 64), but no bit it sets may. Anything else, or an unknown form byte,
/// is `InvalidData`. Nothing is reserved ahead of the bytes read: the words
/// arrive a chunk at a time, and the ids are reserved only once the words'
/// popcount has vouched for `count`.
pub fn read_row_ids(r: &mut impl Read) -> io::Result<Vec<u32>> {
    let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    match read_u8(r)? {
        ROWS_AS_IDS => read_vec_u32(r),
        ROWS_AS_BITS => {
            let count = read_u32(r)? as usize;
            let first = read_u32(r)?;
            let n_words = read_u64(r)?;
            // The last word must start at an id; its top set bit is
            // checked once it has been read.
            if n_words == 0 || n_words - 1 > u64::from(u32::MAX - first) / 64 {
                return Err(bad(format!(
                    "row bitmap of {n_words} words from id {first} is empty or passes u32::MAX"
                )));
            }
            let bits = BitVec64::from_words(read_values(r, n_words as usize, u64::from_le_bytes)?);
            let words = bits.words();
            let last = words[words.len() - 1];
            if words[0] & 1 == 0 || last == 0 {
                return Err(bad(format!(
                    "row bitmap from id {first} does not start at it or ends in a zero word"
                )));
            }
            let top = u64::from(first) + 64 * (n_words - 1) + u64::from(63 - last.leading_zeros());
            if top > u64::from(u32::MAX) {
                return Err(bad(format!("row bitmap sets id {top}, past u32::MAX")));
            }
            let ones = bits.count_ones();
            if ones != count {
                return Err(bad(format!("row bitmap holds {ones} ids, not {count}")));
            }
            // `ones_positions_into` may write one block (512 positions) and
            // a slot past the last id it keeps.
            let mut ids = Vec::with_capacity(count + 513);
            bits.ones_positions_into(first, &mut ids);
            Ok(ids)
        }
        form => Err(bad(format!("unknown row-id form {form}"))),
    }
}

/// Writes a length-prefixed byte vector.
pub fn write_bytes(w: &mut impl Write, v: &[u8]) -> io::Result<()> {
    write_len(w, v.len())?;
    w.write_all(v)
}

/// Reads a length-prefixed byte vector (see [`read_exact_vec`]).
pub fn read_bytes(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let n = read_len(r)?;
    read_exact_vec(r, n)
}

/// Writes a length-prefixed UTF-8 string.
pub fn write_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    write_bytes(w, s.as_bytes())
}

/// Reads a length-prefixed UTF-8 string.
pub fn read_str(r: &mut impl Read) -> io::Result<String> {
    String::from_utf8(read_bytes(r)?).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn primitive_roundtrip() {
        let mut buf = Vec::new();
        write_u8(&mut buf, 7).unwrap();
        write_u16(&mut buf, 0xBEEF).unwrap();
        write_u32(&mut buf, 0xDEAD_BEEF).unwrap();
        write_u64(&mut buf, u64::MAX - 1).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_u8(&mut r).unwrap(), 7);
        assert_eq!(read_u16(&mut r).unwrap(), 0xBEEF);
        assert_eq!(read_u32(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(read_u64(&mut r).unwrap(), u64::MAX - 1);
    }

    #[test]
    fn vector_and_string_roundtrip() {
        let mut buf = Vec::new();
        write_vec_u16(&mut buf, &[1, 2, 65535]).unwrap();
        write_vec_u64(&mut buf, &[u64::MAX]).unwrap();
        write_str(&mut buf, "incomplete ∅ databases").unwrap();
        write_bytes(&mut buf, b"").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_vec_u16(&mut r).unwrap(), vec![1, 2, 65535]);
        assert_eq!(read_vec_u64(&mut r).unwrap(), vec![u64::MAX]);
        assert_eq!(read_str(&mut r).unwrap(), "incomplete ∅ databases");
        assert_eq!(read_bytes(&mut r).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn header_checks_magic_and_version() {
        let mut buf = Vec::new();
        write_header(&mut buf, b"IBIS", 1).unwrap();
        let mut r = Cursor::new(buf.clone());
        assert!(read_header(&mut r, b"IBIS", 1).is_ok());
        let mut r = Cursor::new(buf.clone());
        assert!(read_header(&mut r, b"XXXX", 1).is_err());
        let mut r = Cursor::new(buf);
        assert!(read_header(&mut r, b"IBIS", 2).is_err());
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let mut buf = Vec::new();
        write_vec_u16(&mut buf, &[1, 2, 3]).unwrap();
        buf.truncate(buf.len() - 1);
        let mut r = Cursor::new(buf);
        assert!(read_vec_u16(&mut r).is_err());
    }

    #[test]
    fn bulk_vectors_roundtrip_with_per_element_bytes_across_chunk_edges() {
        // 1023..=1025 straddle one u32 chunk (1,024 values); 4097 crosses
        // several chunks for every width.
        for n in [0usize, 1, 1023, 1024, 1025, 4097] {
            let v16: Vec<u16> = (0..n).map(|i| (i * 40_503) as u16).collect();
            let v32: Vec<u32> = (0..n)
                .map(|i| (i as u32).wrapping_mul(2_654_435_761))
                .collect();
            let v64: Vec<u64> = (0..n)
                .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            let mut buf = Vec::new();
            write_vec_u16(&mut buf, &v16).unwrap();
            write_vec_u32(&mut buf, &v32).unwrap();
            write_vec_u64(&mut buf, &v64).unwrap();

            let mut expect = (n as u64).to_le_bytes().to_vec();
            expect.extend(v16.iter().flat_map(|x| x.to_le_bytes()));
            expect.extend((n as u64).to_le_bytes());
            expect.extend(v32.iter().flat_map(|x| x.to_le_bytes()));
            expect.extend((n as u64).to_le_bytes());
            expect.extend(v64.iter().flat_map(|x| x.to_le_bytes()));
            assert_eq!(buf, expect, "n {n}: bytes moved");

            let r = &mut buf.as_slice();
            assert_eq!(read_vec_u16(r).unwrap(), v16, "n {n}");
            assert_eq!(read_vec_u32(r).unwrap(), v32, "n {n}");
            assert_eq!(read_vec_u64(r).unwrap(), v64, "n {n}");
            assert!(r.is_empty());
        }
    }

    #[test]
    fn lying_counts_over_a_short_body_hit_eof() {
        for count in [1u64 << 24, 1 << 40, u64::MAX] {
            let mut buf = count.to_le_bytes().to_vec();
            buf.extend_from_slice(&[7u8; 16]);
            let kind = |e: io::Error| e.kind();
            let eof = io::ErrorKind::UnexpectedEof;
            assert_eq!(read_vec_u16(&mut buf.as_slice()).map_err(kind), Err(eof));
            assert_eq!(read_vec_u32(&mut buf.as_slice()).map_err(kind), Err(eof));
            assert_eq!(read_vec_u64(&mut buf.as_slice()).map_err(kind), Err(eof));
            assert_eq!(read_bytes(&mut buf.as_slice()).map_err(kind), Err(eof));
        }
    }

    #[test]
    fn row_bitmap_layout_is_count_first_words() {
        let mut buf = Vec::new();
        let ids: Vec<u32> = (64..74).chain([130, 200]).collect();
        write_row_ids(&mut buf, &ids);
        let mut expect = vec![ROWS_AS_BITS];
        expect.extend(12u32.to_le_bytes());
        expect.extend(64u32.to_le_bytes());
        expect.extend(3u64.to_le_bytes());
        for word in [0x3FFu64, 1 << 2, 1 << 8] {
            expect.extend(word.to_le_bytes());
        }
        assert_eq!(buf, expect);
        assert_eq!(read_row_ids(&mut buf.as_slice()).unwrap(), ids);
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, &[0xFF, 0xFE]).unwrap();
        let mut r = Cursor::new(buf);
        assert!(read_str(&mut r).is_err());
    }
}
