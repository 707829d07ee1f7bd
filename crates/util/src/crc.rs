//! CRC-32 (IEEE 802.3) checksums for checkpoint integrity.
//!
//! A checkpoint that is half-written when a node dies must be detected as
//! invalid during recovery; the storage layer stamps every record with a
//! CRC32 and `CheckpointStore::latest_valid` skips corrupt files.
//!
//! The hot path uses the *slicing-by-8* technique: eight 256-entry lookup
//! tables let the hasher consume 8 input bytes per iteration instead of 1,
//! which matters now that the bulk codec hands it whole multi-hundred-MB
//! checkpoint buffers in one call. Output is identical to the classic
//! byte-at-a-time table walk (`crc32_bytewise` in the dev-only
//! `lowdiff-testkit` crate, the oracle for equivalence tests and
//! benchmarks).

/// Lazily-built slicing-by-8 tables (reflected polynomial 0xEDB88320).
/// `tables()[0]` is the classic single-byte table.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        for k in 1..8 {
            for i in 0..256usize {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// Compute the CRC32 of `data` in one shot.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Hasher::new();
    h.update(data);
    h.finalize()
}

/// Streaming CRC32 hasher for data produced in chunks (the checkpoint codec
/// serializes tensor-by-tensor without materializing one big buffer).
#[derive(Clone, Debug)]
pub struct Hasher {
    state: u32,
}

impl Hasher {
    /// Fresh hasher.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feed more bytes (slicing-by-8: 8 bytes per table round).
    pub fn update(&mut self, data: &[u8]) {
        let t = tables();
        let mut c = self.state;
        let mut chunks = data.chunks_exact(8);
        for ch in chunks.by_ref() {
            let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
            let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Final digest.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/IEEE.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut h = Hasher::new();
        for chunk in data.chunks(37) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), crc32(&data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data: Vec<u8> = (0..1024u32).map(|x| x as u8).collect();
        let clean = crc32(&data);
        for bit in [0usize, 100 * 8 + 3, 1023 * 8 + 7] {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&data), clean, "flip at bit {bit} undetected");
            data[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(crc32(&data), clean);
    }
}
