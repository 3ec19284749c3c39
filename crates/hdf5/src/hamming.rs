//! Extended Hamming(72,64): 64 data bits + 7 Hamming parity bits + 1
//! overall parity bit, the classic DRAM SEC-DED word.

/// Outcome of decoding one protected word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeResult {
    /// No error.
    Clean(u64),
    /// A single-bit error was corrected. The flipped codeword position is
    /// reported (a parity-bit error leaves the data untouched).
    Corrected {
        /// The repaired data word.
        data: u64,
        /// True when the error hit a data bit (false: parity bit).
        data_bit: bool,
    },
    /// An even number (≥2) of flips: detected, not correctable. The data
    /// returned is the *stored* word, known to be unreliable.
    DoubleError(u64),
}

/// Data bit `b` lives at codeword position `DATA_POS[b]`: positions
/// 1..=71 in order, skipping the seven Hamming parity positions (the
/// powers of two). The 72nd codeword bit is the overall parity, carried in
/// bit 7 of the parity byte.
const DATA_POS: [u8; 64] = {
    let mut out = [0u8; 64];
    let mut bit = 0;
    let mut pos = 1u8;
    while pos <= 71 {
        if !pos.is_power_of_two() {
            out[bit] = pos;
            bit += 1;
        }
        pos += 1;
    }
    out
};

/// `PARITY_MASK[i]` selects the data bits whose codeword position has bit
/// `i` set — exactly the bits Hamming parity `i` (position 2^i) covers.
const PARITY_MASK: [u64; 7] = {
    let mut out = [0u64; 7];
    let mut bit = 0;
    while bit < 64 {
        let mut i = 0;
        while i < 7 {
            if DATA_POS[bit] & (1 << i) != 0 {
                out[i] |= 1 << bit;
            }
            i += 1;
        }
        bit += 1;
    }
    out
};

/// Marks a codeword position that holds no data bit (0 or a parity
/// position) in [`POS_TO_BIT`].
const NOT_DATA: u8 = u8::MAX;

/// Inverse of [`DATA_POS`]: codeword position → data bit, or [`NOT_DATA`].
const POS_TO_BIT: [u8; 72] = {
    let mut out = [NOT_DATA; 72];
    let mut bit = 0;
    while bit < 64 {
        out[DATA_POS[bit] as usize] = bit as u8;
        bit += 1;
    }
    out
};

/// The seven Hamming parities of a data word, parity `i` in bit `i`.
fn hamming7(data: u64) -> u8 {
    let mut out = 0u8;
    for (i, &mask) in PARITY_MASK.iter().enumerate() {
        out |= (((data & mask).count_ones() & 1) as u8) << i;
    }
    out
}

/// Encode a data word into its 8-bit parity byte: bits 0–6 the Hamming
/// parities, bit 7 the overall parity of data+parities.
pub fn encode(data: u64) -> u8 {
    let parities = hamming7(data);
    let overall = (data.count_ones() + parities.count_ones()) & 1;
    parities | ((overall as u8) << 7)
}

/// Decode a (possibly corrupted) data word against its stored parity byte.
pub fn decode(data: u64, parity: u8) -> DecodeResult {
    // Syndrome bit i stands for position 2^i, so the syndrome is itself
    // the codeword position of a single error.
    let syndrome = hamming7(data) ^ (parity & 0x7F);
    // Overall parity over data + stored parity byte (all 8 bits: the
    // overall bit protects itself by inclusion).
    let overall_ok = (data.count_ones() + parity.count_ones()) & 1 == 0;

    match (syndrome, overall_ok) {
        (0, true) => DecodeResult::Clean(data),
        (0, false) => {
            // The overall parity bit itself flipped; data is intact.
            DecodeResult::Corrected { data, data_bit: false }
        }
        (s, false) => match POS_TO_BIT.get(s as usize) {
            // Syndrome outside the codeword: multi-bit corruption that
            // aliased; report as uncorrectable.
            None => DecodeResult::DoubleError(data),
            // A Hamming parity bit flipped; data is intact.
            Some(&NOT_DATA) => DecodeResult::Corrected { data, data_bit: false },
            Some(&bit) => DecodeResult::Corrected { data: data ^ (1u64 << bit), data_bit: true },
        },
        (_, true) => DecodeResult::DoubleError(data),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original bit-serial codec, frozen as the reference the
    /// word-parallel one must match exactly.
    mod reference {
        use super::super::DecodeResult;

        const PARITY_POSITIONS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

        fn is_parity_pos(pos: u32) -> bool {
            pos.is_power_of_two()
        }

        fn spread(data: u64) -> u128 {
            let mut cw = 0u128;
            let mut bit = 0u32;
            for pos in 1u32..=71 {
                if is_parity_pos(pos) {
                    continue;
                }
                if (data >> bit) & 1 == 1 {
                    cw |= 1u128 << pos;
                }
                bit += 1;
            }
            cw
        }

        fn gather(cw: u128) -> u64 {
            let mut data = 0u64;
            let mut bit = 0u32;
            for pos in 1u32..=71 {
                if is_parity_pos(pos) {
                    continue;
                }
                if (cw >> pos) & 1 == 1 {
                    data |= 1u64 << bit;
                }
                bit += 1;
            }
            data
        }

        fn hamming_parities(cw: u128) -> u8 {
            let mut out = 0u8;
            for (i, &p) in PARITY_POSITIONS.iter().enumerate() {
                let mut acc = 0u32;
                for pos in 1u32..=71 {
                    if !is_parity_pos(pos) && pos & p != 0 && (cw >> pos) & 1 == 1 {
                        acc ^= 1;
                    }
                }
                out |= (acc as u8) << i;
            }
            out
        }

        pub fn encode(data: u64) -> u8 {
            let cw = spread(data);
            let parities = hamming_parities(cw);
            let overall = (data.count_ones() + parities.count_ones()) & 1;
            parities | ((overall as u8) << 7)
        }

        pub fn decode(data: u64, parity: u8) -> DecodeResult {
            let cw = spread(data);
            let computed = hamming_parities(cw);
            let stored_hamming = parity & 0x7F;
            let syndrome_bits = computed ^ stored_hamming;
            let mut syndrome = 0u32;
            for (i, &p) in PARITY_POSITIONS.iter().enumerate() {
                if (syndrome_bits >> i) & 1 == 1 {
                    syndrome |= p;
                }
            }
            let overall_ok = (data.count_ones() + parity.count_ones()) & 1 == 0;
            match (syndrome, overall_ok) {
                (0, true) => DecodeResult::Clean(data),
                (0, false) => DecodeResult::Corrected { data, data_bit: false },
                (s, false) => {
                    if s > 71 {
                        return DecodeResult::DoubleError(data);
                    }
                    if is_parity_pos(s) {
                        DecodeResult::Corrected { data, data_bit: false }
                    } else {
                        let repaired = gather(cw ^ (1u128 << s));
                        DecodeResult::Corrected { data: repaired, data_bit: true }
                    }
                }
                (_, true) => DecodeResult::DoubleError(data),
            }
        }
    }

    /// SplitMix64: a seeded word stream for the equivalence sweeps.
    fn words(seed: u64, n: usize) -> impl Iterator<Item = u64> {
        let mut state = seed;
        (0..n).map(move |_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
    }

    /// 0, all ones, every single-bit word, and `random` seeded words.
    fn sample_words(random: usize) -> Vec<u64> {
        let mut out = vec![0, u64::MAX];
        out.extend((0..64).map(|b| 1u64 << b));
        out.extend(words(0x5EF1_ECC0, random));
        out
    }

    #[test]
    fn encode_matches_bit_serial_reference() {
        for data in sample_words(100_000) {
            assert_eq!(encode(data), reference::encode(data), "{data:#x}");
        }
    }

    #[test]
    fn decode_matches_reference_under_every_parity_byte() {
        for data in sample_words(200) {
            for parity in 0..=u8::MAX {
                assert_eq!(
                    decode(data, parity),
                    reference::decode(data, parity),
                    "data {data:#x} parity {parity:#04x}"
                );
            }
        }
    }

    #[test]
    fn decode_matches_reference_under_every_single_and_double_flip() {
        // Codeword bits 0..64 are the data word, 64..72 the parity byte.
        let flip = |(data, parity): (u64, u8), bit: u32| {
            if bit < 64 {
                (data ^ (1u64 << bit), parity)
            } else {
                (data, parity ^ (1u8 << (bit - 64)))
            }
        };
        for data in sample_words(16) {
            let clean = (data, encode(data));
            for a in 0..72 {
                let one = flip(clean, a);
                assert_eq!(decode(one.0, one.1), reference::decode(one.0, one.1), "a={a}");
                for b in (a + 1)..72 {
                    let two = flip(one, b);
                    assert_eq!(
                        decode(two.0, two.1),
                        reference::decode(two.0, two.1),
                        "data {data:#x} a={a} b={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn clean_roundtrip() {
        for data in [0u64, u64::MAX, 0x0123_4567_89AB_CDEF, 1 << 63, 1] {
            let p = encode(data);
            assert_eq!(decode(data, p), DecodeResult::Clean(data), "{data:#x}");
        }
    }

    #[test]
    fn every_single_data_bit_flip_is_corrected() {
        let data = 0xDEAD_BEEF_CAFE_F00Du64;
        let parity = encode(data);
        for bit in 0..64 {
            let corrupted = data ^ (1u64 << bit);
            match decode(corrupted, parity) {
                DecodeResult::Corrected { data: repaired, data_bit: true } => {
                    assert_eq!(repaired, data, "bit {bit}");
                }
                other => panic!("bit {bit}: {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_parity_bit_flip_is_harmless() {
        let data = 0x0F1E_2D3C_4B5A_6978u64;
        let parity = encode(data);
        for bit in 0..8 {
            let bad_parity = parity ^ (1u8 << bit);
            match decode(data, bad_parity) {
                DecodeResult::Corrected { data: d, data_bit: false } => assert_eq!(d, data),
                other => panic!("parity bit {bit}: {other:?}"),
            }
        }
    }

    #[test]
    fn double_flips_are_detected_not_miscorrected() {
        let data = 0x1111_2222_3333_4444u64;
        let parity = encode(data);
        let mut detected = 0;
        let mut checked = 0;
        for a in 0..64u32 {
            for b in (a + 1)..64 {
                let corrupted = data ^ (1u64 << a) ^ (1u64 << b);
                checked += 1;
                match decode(corrupted, parity) {
                    DecodeResult::DoubleError(_) => detected += 1,
                    DecodeResult::Corrected { data: d, .. } => {
                        // SEC-DED never "corrects" a double error into
                        // silently wrong data claiming it is fine.
                        assert_ne!(d, corrupted, "a={a} b={b} left corrupted data as-is");
                        panic!("double error miscorrected at a={a} b={b}");
                    }
                    DecodeResult::Clean(_) => panic!("double error missed at a={a} b={b}"),
                }
            }
        }
        assert_eq!(detected, checked, "all two-bit data errors must be flagged");
    }

    #[test]
    fn triple_flips_are_never_silently_clean() {
        // Odd-weight errors ≥3 look like single errors to SEC-DED and get
        // "corrected" to a wrong word — the known limit the paper's
        // multi-bit masks probe. What must NOT happen is Clean.
        let data = 0xAAAA_5555_AAAA_5555u64;
        let parity = encode(data);
        let mut clean = 0;
        for a in 0..20u32 {
            for b in (a + 1)..20 {
                for c in (b + 1)..20 {
                    let corrupted = data ^ (1 << a) ^ (1 << b) ^ (1 << c);
                    if matches!(decode(corrupted, parity), DecodeResult::Clean(_)) {
                        clean += 1;
                    }
                }
            }
        }
        assert_eq!(clean, 0);
    }
}
