//! CRC-32 (IEEE 802.3 polynomial) — integrity checksum for the payload.
//!
//! Slice-by-8 over eight tables computed at compile time: each step folds
//! eight input bytes into the register with eight independent lookups, and
//! a bytewise tail handles the last `len % 8` bytes. The values are the
//! plain bytewise table CRC's, bit for bit. The superblock stores the CRC
//! of everything after itself; a mismatch on load is a hard
//! [`crate::Error::Malformed`], never silent acceptance — a fault injector's
//! own storage must be able to distinguish *intended* corruption (applied to
//! decoded values and re-encoded) from accidental file damage.

const POLY: u32 = 0xEDB8_8320; // reflected IEEE polynomial

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// state contribution of byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 { (c >> 1) ^ POLY } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 of a byte slice (init 0xFFFF_FFFF, final XOR, reflected — the
/// standard zlib/PNG variant).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
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
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original bytewise table CRC, frozen as the reference.
    fn reference_crc32(bytes: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 { (c >> 1) ^ POLY } else { c >> 1 };
            }
            *slot = c;
        }
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// Deterministic pseudo-random bytes (xorshift64*).
    fn bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut s = seed | 1;
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
    fn known_vectors() {
        // Standard test vectors for CRC-32/IEEE.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(b"checkpoint");
        let b = crc32(b"checkpoInt");
        assert_ne!(a, b);
    }

    #[test]
    fn matches_bytewise_reference_at_every_short_length_and_offset() {
        let buf = bytes(0xC0FFEE, 64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), reference_crc32(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn matches_bytewise_reference_on_a_megabyte() {
        let buf = bytes(0x5EED, (1 << 20) + 5);
        assert_eq!(crc32(&buf), reference_crc32(&buf));
    }
}
