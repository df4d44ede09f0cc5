//! CRC-32 (IEEE 802.3, the zlib/PNG polynomial) for snapshot section
//! integrity, delta-log frames and compaction markers.
//!
//! Slicing-by-16: sixteen 256-entry tables, built in a `const` context
//! (no runtime initialization to synchronize), let one step fold sixteen
//! input bytes into the state with sixteen independent lookups instead of
//! sixteen dependent ones. `TABLES[0]` is the classic bytewise table and
//! finishes the sub-16-byte tail; the unit tests hold the kernel to the
//! bytewise loop at every length, alignment and split point.
//!
//! [`crc32_combine`] joins the CRCs of two pieces into the CRC of their
//! concatenation without the bytes: the snapshot writer builds a file's
//! CRC from its header's, index's and sections' CRCs.

/// Bytes folded per step of [`Crc32::update`].
const STRIDE: usize = 16;

/// The generator polynomial, bit-reflected.
const POLY: u32 = 0xEDB8_8320;

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
                (crc >> 1) ^ POLY
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
/// Pieces that are CRC'd apart join with [`crc32_combine`].
struct Crc32 {
    state: u32,
}

impl Crc32 {
    fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    fn update(&mut self, bytes: &[u8]) {
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

    fn finish(&self) -> u32 {
        !self.state
    }
}

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// `a · b mod P` over GF(2), both reflected (bit 31 is x⁰). `a` must not
/// be zero — every power of x the callers pass is not.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0u32;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
}

/// `X2N[k]` is x^(2^k) mod P.
static X2N: [u32; 32] = {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x¹
    table[0] = p;
    let mut k = 1;
    while k < 32 {
        p = multmodp(p, p);
        table[k] = p;
        k += 1;
    }
    table
};

/// x^(n · 2^k) mod P.
fn x2nmodp(mut n: u64, mut k: usize) -> u32 {
    let mut p = 1u32 << 31; // x⁰
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// The CRC-32 of `a ++ b` from `crc32(a)`, `crc32(b)` and `b.len()`,
/// without the bytes (zlib's `crc32_combine`): shifting `a`'s CRC past
/// `len_b` bytes is multiplying it by x^(8·len_b) mod P, and the
/// pre- and post-conditioning cancel. O(log len_b).
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    multmodp(x2nmodp(len_b, 3), crc_a) ^ crc_b
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

    /// Its definition: combining the CRCs of the two halves of a buffer,
    /// split anywhere (either half empty too), is the CRC of the whole.
    #[test]
    fn combine_of_a_split_equals_one_shot() {
        for (len, seed) in [(0, 30), (1, 31), (67, 32), (300, 33), (4099, 34)] {
            let buf = random_bytes(len, seed);
            let whole = crc32(&buf);
            for split in 0..=buf.len() {
                let (a, b) = buf.split_at(split);
                assert_eq!(
                    crc32_combine(crc32(a), crc32(b), b.len() as u64),
                    whole,
                    "len={len} split={split}"
                );
            }
        }
    }

    /// Folded over many parts of uneven sizes, empty ones among them,
    /// combining gives the one-shot CRC: how the writer computes a
    /// file's CRC from its pieces.
    #[test]
    fn combine_folded_over_many_parts_equals_one_shot() {
        let mut rng = StdRng::seed_from_u64(35);
        for round in 0..20 {
            let buf = random_bytes(rng.gen_range(0..20_000usize), 36 + round);
            let mut crc = crc32(b"");
            let mut rest = &buf[..];
            while !rest.is_empty() {
                let take = rng.gen_range(0..=rest.len().min(3000));
                let (part, tail) = rest.split_at(take);
                crc = crc32_combine(crc, crc32(part), part.len() as u64);
                rest = tail;
            }
            assert_eq!(crc, crc32(&buf), "round={round}");
        }
    }
}
