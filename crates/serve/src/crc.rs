//! CRC-32 (IEEE 802.3, the zlib/PNG polynomial) for snapshot section
//! integrity, delta-log frames and compaction markers.
//!
//! Slicing-by-16: sixteen 256-entry tables, built in a `const` context
//! (no runtime initialization to synchronize), let one step fold sixteen
//! input bytes into the state with sixteen independent lookups instead of
//! sixteen dependent ones. `TABLES[0]` is the classic bytewise table and
//! finishes the sub-16-byte tail; the unit tests hold the kernel to the
//! bytewise loop at every length, alignment and split point.

/// Bytes folded per step of [`Crc32::update`].
const STRIDE: usize = 16;

/// `TABLES[0][b]` is the CRC state after byte `b`; `TABLES[k][b]` is the
/// state after byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; STRIDE] {
    let mut tables = [[0u32; 256]; STRIDE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < STRIDE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; STRIDE] = build_tables();

/// A running CRC-32: feed it the bytes in any number of pieces, in
/// order, and [`Crc32::finish`] is the CRC of their concatenation.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut blocks = bytes.chunks_exact(STRIDE);
        for block in &mut blocks {
            // The state folds into the first four bytes; every byte then
            // looks up the table for its distance from the block's end.
            let head = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
            crc = TABLES[15][(head & 0xFF) as usize]
                ^ TABLES[14][((head >> 8) & 0xFF) as usize]
                ^ TABLES[13][((head >> 16) & 0xFF) as usize]
                ^ TABLES[12][(head >> 24) as usize]
                ^ TABLES[11][block[4] as usize]
                ^ TABLES[10][block[5] as usize]
                ^ TABLES[9][block[6] as usize]
                ^ TABLES[8][block[7] as usize]
                ^ TABLES[7][block[8] as usize]
                ^ TABLES[6][block[9] as usize]
                ^ TABLES[5][block[10] as usize]
                ^ TABLES[4][block[11] as usize]
                ^ TABLES[3][block[12] as usize]
                ^ TABLES[2][block[13] as usize]
                ^ TABLES[1][block[14] as usize]
                ^ TABLES[0][block[15] as usize];
        }
        for &b in blocks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The one-table, one-byte-per-step loop the kernel replaced.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen::<u8>()).collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(reference(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"flowcube"), crc32(b"flowcube"));
        assert_ne!(crc32(b"flowcube"), crc32(b"flowcubf"));
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = vec![0u8; 1024];
        let base = crc32(&data);
        data[512] ^= 0x01;
        assert_ne!(crc32(&data), base);
    }

    /// Every length across four strides, at every start offset of a
    /// word: no tail length or alignment takes a different path.
    #[test]
    fn kernel_matches_bytewise_reference_at_every_length_and_offset() {
        let buf = random_bytes(67 + 8, 22);
        for start in 0..8 {
            for len in 0..=67 {
                let piece = &buf[start..start + len];
                assert_eq!(crc32(piece), reference(piece), "start={start} len={len}");
            }
        }
    }

    #[test]
    fn kernel_matches_bytewise_reference_on_a_mebibyte() {
        let buf = random_bytes(1 << 20, 23);
        assert_eq!(crc32(&buf), reference(&buf));
        assert_eq!(crc32(&buf[3..]), reference(&buf[3..]));
    }

    #[test]
    fn update_split_anywhere_equals_one_shot() {
        let buf = random_bytes(64, 24);
        let whole = crc32(&buf);
        assert_eq!(whole, reference(&buf));
        for split in 0..=buf.len() {
            let mut crc = Crc32::new();
            crc.update(&buf[..split]);
            crc.update(&buf[split..]);
            assert_eq!(crc.finish(), whole, "split={split}");
        }
    }
}
