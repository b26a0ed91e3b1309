//! Bit-packed approximation storage.

/// A row-major matrix of bit-packed fields — the VA *file* itself.
///
/// Each row is `row_bits` wide and rows are laid out back to back in a
/// `u64` buffer, so a full scan walks memory sequentially exactly like the
/// paper's sequential read of the approximation file. Fields are written
/// once at build time and read with [`get`](PackedMatrix::get).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedMatrix {
    data: Vec<u64>,
    row_bits: usize,
    n_rows: usize,
}

/// One column as [`PackedMatrix::pack`] writes it: a field `width` bits
/// wide, and the code of every raw value.
pub(crate) struct CodedColumn<'a> {
    pub(crate) width: usize,
    /// `codes[v]` is the code of raw value `v`.
    pub(crate) codes: &'a [u16],
    /// The column's raw values, one per row.
    pub(crate) values: &'a [u16],
}

impl PackedMatrix {
    /// Allocates an all-zeros matrix (`0…0` is the missing code, so rows
    /// start out "all missing"). A zero-width matrix (no attributes) is
    /// valid and empty.
    pub fn new(n_rows: usize, row_bits: usize) -> PackedMatrix {
        let total_bits = n_rows
            .checked_mul(row_bits)
            .expect("VA-file size overflows usize");
        PackedMatrix {
            data: vec![0; total_bits.div_ceil(64)],
            row_bits,
            n_rows,
        }
    }

    /// Packs one field per column, in column order from bit 0 of each row:
    /// row `r`'s field of column `c` holds `c.codes[c.values[r]]`. Sixty-four
    /// rows fill exactly `row_bits` words, so each block of 64 rows is
    /// written column by column into its own words, which stay in cache.
    pub(crate) fn pack(n_rows: usize, columns: &[CodedColumn<'_>]) -> PackedMatrix {
        let row_bits = columns.iter().map(|c| c.width).sum();
        let mut m = PackedMatrix::new(n_rows, row_bits);
        if row_bits == 0 {
            return m;
        }
        for (block, words) in m.data.chunks_mut(row_bits).enumerate() {
            let rows = block * 64..(block * 64 + 64).min(n_rows);
            let mut offset = 0;
            for c in columns {
                for (i, &raw) in c.values[rows.clone()].iter().enumerate() {
                    let code = u64::from(c.codes[raw as usize]);
                    debug_assert!(code >> c.width == 0, "code wider than its field");
                    let start = i * row_bits + offset;
                    let (wi, off) = (start / 64, start % 64);
                    words[wi] |= code << off;
                    if off + c.width > 64 {
                        words[wi + 1] |= code >> (64 - off);
                    }
                }
                offset += c.width;
            }
        }
        m
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Bits per row (`Σ_i b_i`).
    pub fn row_bits(&self) -> usize {
        self.row_bits
    }

    /// Heap bytes of the packed buffer — the paper's VA-file size metric.
    pub fn size_bytes(&self) -> usize {
        self.data.len() * 8
    }

    /// Writes `width ≤ 16` bits of `value` at (`row`, `offset` bits into the
    /// row). The target bits must still be zero (write-once build).
    ///
    /// # Panics
    /// Panics on out-of-range coordinates or `value >= 2^width` (debug).
    pub fn set(&mut self, row: usize, offset: usize, width: usize, value: u16) {
        debug_assert!((1..=16).contains(&width));
        debug_assert!(offset + width <= self.row_bits, "field overflows the row");
        debug_assert!(row < self.n_rows, "row out of range");
        debug_assert!((value as u32) < (1u32 << width), "value wider than field");
        let start = row * self.row_bits + offset;
        let (wi, off) = (start / 64, start % 64);
        self.data[wi] |= (value as u64) << off;
        if off + width > 64 {
            self.data[wi + 1] |= (value as u64) >> (64 - off);
        }
    }

    /// Serializes the raw packed words (header-less; the owner writes
    /// shape information).
    pub fn write_payload(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        ibis_core::wire::write_vec_u64(w, &self.data)
    }

    /// Deserializes words written by [`Self::write_payload`] for a matrix
    /// of the given shape.
    pub fn read_payload(
        r: &mut impl std::io::Read,
        n_rows: usize,
        row_bits: usize,
    ) -> std::io::Result<PackedMatrix> {
        let data = ibis_core::wire::read_vec_u64(r)?;
        let total_bits = n_rows.checked_mul(row_bits).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "matrix size overflow")
        })?;
        if data.len() != total_bits.div_ceil(64) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "packed payload length disagrees with matrix shape",
            ));
        }
        let tail = total_bits % 64;
        if tail != 0 {
            if let Some(&last) = data.last() {
                if last >> tail != 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "set bits past the end of the packed matrix",
                    ));
                }
            }
        }
        Ok(PackedMatrix {
            data,
            row_bits,
            n_rows,
        })
    }

    /// Reads `width ≤ 16` bits at (`row`, `offset`).
    #[inline]
    pub fn get(&self, row: usize, offset: usize, width: usize) -> u16 {
        debug_assert!(offset + width <= self.row_bits && row < self.n_rows);
        let start = row * self.row_bits + offset;
        let (wi, off) = (start / 64, start % 64);
        let mut bits = self.data[wi] >> off;
        if off + width > 64 {
            bits |= self.data[wi + 1] << (64 - off);
        }
        (bits & ((1u64 << width) - 1)) as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_within_word() {
        let mut m = PackedMatrix::new(4, 10);
        m.set(0, 0, 3, 0b101);
        m.set(0, 3, 7, 0b1111111);
        m.set(3, 0, 3, 0b010);
        assert_eq!(m.get(0, 0, 3), 0b101);
        assert_eq!(m.get(0, 3, 7), 0b1111111);
        assert_eq!(m.get(3, 0, 3), 0b010);
        assert_eq!(m.get(1, 0, 3), 0); // untouched rows read as missing
    }

    #[test]
    fn fields_straddle_word_boundaries() {
        // 13-bit rows: row 5 starts at bit 65, fields cross the u64 seam.
        let mut m = PackedMatrix::new(8, 13);
        for row in 0..8 {
            m.set(row, 0, 6, (row as u16 * 7) % 64);
            m.set(row, 6, 7, (row as u16 * 11) % 128);
        }
        for row in 0..8 {
            assert_eq!(m.get(row, 0, 6), (row as u16 * 7) % 64, "row {row}");
            assert_eq!(m.get(row, 6, 7), (row as u16 * 11) % 128, "row {row}");
        }
    }

    #[test]
    fn sixteen_bit_fields() {
        let mut m = PackedMatrix::new(3, 16);
        m.set(1, 0, 16, u16::MAX);
        assert_eq!(m.get(1, 0, 16), u16::MAX);
        assert_eq!(m.get(0, 0, 16), 0);
        assert_eq!(m.get(2, 0, 16), 0);
    }

    #[test]
    fn size_accounting() {
        // 1000 rows × 9 bits = 9000 bits = 141 u64 words.
        let m = PackedMatrix::new(1000, 9);
        assert_eq!(m.size_bytes(), 9000usize.div_ceil(64) * 8);
        assert_eq!(m.n_rows(), 1000);
        assert_eq!(m.row_bits(), 9);
    }
}
