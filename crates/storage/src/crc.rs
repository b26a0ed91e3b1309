//! CRC-32 (IEEE 802.3 polynomial, reflected) for frame and snapshot
//! checksums: the same polynomial and conventions as zlib/PNG. Hand-rolled
//! so the storage layer stays dependency-free.
//!
//! The kernel is slicing-by-16 (Kounavis & Berry, ISCC 2005). Sixteen
//! 256-entry tables (16 KiB, built at compile time) hold the CRC of each
//! byte value followed by 0..=15 zero bytes, so one step folds 16 input
//! bytes — read as four little-endian `u32` words — with 16 independent
//! table lookups instead of a chain of 16 dependent ones. A byte-at-a-time
//! loop over table 0 finishes the last `len % 16` bytes. On 24 KiB buffers
//! (the mean served `ROWS` reply while replies carried 4-byte ids; sent as
//! the smaller of ids and a bitmap it is about 2.8 KB) this runs at 0.38
//! ns/byte on a 2-vCPU Intel Xeon VM, against 2.05 ns/byte for the
//! byte-at-a-time loop over the whole buffer and 0.52 for slicing-by-8.
//!
//! Every checksum in the system goes through [`crc32_update`]: IBQP and WAL
//! frames, IBSS snapshots, IBMF manifests and IBBK backups.

const POLY: u32 = 0xEDB8_8320;

const fn make_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    // t[s][i]: byte i followed by s zero bytes.
    let mut s = 1;
    while s < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

static TABLES: [[u32; 256]; 16] = make_tables();

/// The CRC-32 of `bytes` (same polynomial and conventions as zlib/PNG).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Extends `crc`, the CRC-32 of some prefix, over `bytes`:
/// `crc32_update(crc32(a), b) == crc32(a ++ b)`, and `crc32_update(0, b)`
/// is `crc32(b)`. A checksum over several pieces needs no copy to join them.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let mut c = !crc;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let (w0, w1, w2, w3) = (
            word(&b[0..]) ^ c,
            word(&b[4..]),
            word(&b[8..]),
            word(&b[12..]),
        );
        c = t[15][(w0 & 0xFF) as usize]
            ^ t[14][((w0 >> 8) & 0xFF) as usize]
            ^ t[13][((w0 >> 16) & 0xFF) as usize]
            ^ t[12][(w0 >> 24) as usize]
            ^ t[11][(w1 & 0xFF) as usize]
            ^ t[10][((w1 >> 8) & 0xFF) as usize]
            ^ t[9][((w1 >> 16) & 0xFF) as usize]
            ^ t[8][(w1 >> 24) as usize]
            ^ t[7][(w2 & 0xFF) as usize]
            ^ t[6][((w2 >> 8) & 0xFF) as usize]
            ^ t[5][((w2 >> 16) & 0xFF) as usize]
            ^ t[4][(w2 >> 24) as usize]
            ^ t[3][(w3 & 0xFF) as usize]
            ^ t[2][((w3 >> 8) & 0xFF) as usize]
            ^ t[1][((w3 >> 16) & 0xFF) as usize]
            ^ t[0][(w3 >> 24) as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time table loop slicing-by-16 replaced: the reference
    /// every input below is checked against.
    fn reference(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// `n` deterministic pseudo-random bytes (xorshift64*).
    fn seeded_bytes(n: usize, mut s: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_answer() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(reference(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn matches_the_byte_at_a_time_loop_at_every_length_and_alignment() {
        let buf = seeded_bytes(16 + 300, 7);
        for start in 0..16 {
            for len in 0..=300 {
                let b = &buf[start..start + len];
                assert_eq!(crc32(b), reference(b), "start {start} len {len}");
            }
        }
        let big = seeded_bytes(1 << 20, 42);
        assert_eq!(crc32(&big), reference(&big));
    }

    #[test]
    fn update_over_every_split_equals_one_shot() {
        let buf = seeded_bytes(100, 3);
        let whole = crc32(&buf);
        for cut in 0..=buf.len() {
            let (a, b) = buf.split_at(cut);
            assert_eq!(crc32_update(crc32(a), b), whole, "cut {cut}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let base = b"incomplete databases".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "byte {i} bit {bit}");
            }
        }
    }
}
