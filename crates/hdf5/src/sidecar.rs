//! ECC parity sidecar for the sectioned v2 container.
//!
//! ```text
//! header:      magic "SEFIECC\x89" (8) | version u32 LE |
//!              index_crc u32 LE | section_count u64 LE    (24 bytes total)
//! per section: word_count u64 LE | parity bytes…
//! ```
//!
//! One Hamming(72,64) parity byte per 64-bit little-endian word of each
//! dataset section, sections in index (tree) order; a short trailing word
//! is zero-padded before encoding, exactly as [`crate::hamming`] expects.
//! The sidecar binds to one specific checkpoint through the stored
//! `index_crc` — the CRC-32 of the checkpoint's index bytes — so a sidecar
//! can never be applied to a structurally different file.
//!
//! Deliberately there is **no whole-sidecar checksum**: the SEC-DED code
//! itself tolerates a flipped parity byte (it decodes as a harmless
//! parity-bit correction), so payload-region damage to the sidecar must
//! stay *masked* rather than render the whole sidecar unusable. Damage to
//! the 24-byte header or a `word_count` field is structural and is
//! detected by [`EccSidecar::from_bytes`] validation instead.

use crate::error::{Error, Result};
use crate::format_v2::{read_u32_le, read_u64_le};
use crate::hamming::{decode, encode, DecodeResult};
use crate::limits::MAX_LEN;
use crate::FileIndex;

use std::path::{Path, PathBuf};

/// Magic prefix of a serialized sidecar.
pub const SIDECAR_MAGIC: &[u8; 8] = b"SEFIECC\x89";

const SIDECAR_VERSION: u32 = 1;

/// Byte length of the fixed sidecar header (magic, version, index CRC,
/// section count).
pub const SIDECAR_HEADER_LEN: usize = 24;

/// Per-section parity arrays protecting one specific v2 checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EccSidecar {
    index_crc: u32,
    sections: Vec<Vec<u8>>,
}

/// Outcome of one section repair pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SectionRepair {
    /// 64-bit code words whose data was rewritten by SEC correction.
    pub corrected_words: usize,
    /// Code words flagged uncorrectable (even-weight multi-bit damage);
    /// their stored bytes were left untouched.
    pub uncorrectable_words: usize,
    /// Words whose *parity byte* (in the sidecar) was the corrupted side:
    /// the data is intact, but the sidecar should be re-minted.
    pub parity_faults: usize,
}

/// Where a byte offset into the serialized sidecar lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParityLocation {
    /// The fixed header or a per-section `word_count` field — structural
    /// bytes whose corruption fails [`EccSidecar::from_bytes`].
    Header,
    /// A parity byte proper.
    Word {
        /// Section ordinal (index/tree order).
        section: usize,
        /// Code-word index within the section.
        word: usize,
    },
}

impl EccSidecar {
    /// Compute parities over every dataset section of complete v2
    /// checkpoint bytes. The checkpoint must parse strictly (intact
    /// superblock, index, and payload coverage) — minting parities for an
    /// already-damaged file would notarize the damage.
    pub fn protect(ckpt_bytes: &[u8]) -> Result<Self> {
        let index = FileIndex::parse(ckpt_bytes)?;
        let sections = index
            .entries()
            .iter()
            .map(|e| {
                let section = &ckpt_bytes[e.offset..e.offset + e.byte_len];
                section.chunks(8).map(word_of).map(encode).collect()
            })
            .collect();
        Ok(EccSidecar { index_crc: index.index_crc(), sections })
    }

    /// CRC-32 of the protected checkpoint's index bytes — the binding
    /// identity checked before any repair is attempted.
    pub fn index_crc(&self) -> u32 {
        self.index_crc
    }

    /// Number of protected sections.
    pub fn section_count(&self) -> usize {
        self.sections.len()
    }

    /// Parity bytes of one section.
    pub fn section_parities(&self, ordinal: usize) -> Option<&[u8]> {
        self.sections.get(ordinal).map(|s| s.as_slice())
    }

    /// Total parity bytes across all sections.
    pub fn parity_bytes(&self) -> usize {
        self.sections.iter().map(|s| s.len()).sum()
    }

    /// Repair a copy of one section's stored bytes. Returns `None` when
    /// the ordinal is out of range or the byte length disagrees with the
    /// recorded word count (the sidecar describes a different file).
    /// A `Some` return is *not* a guarantee of recovery: callers must
    /// re-verify the section CRC — uncorrectable words keep their stored
    /// bytes, and odd-weight multi-bit damage can miscorrect.
    pub fn repaired_section_with_report(
        &self,
        ordinal: usize,
        stored: &[u8],
    ) -> Option<(Vec<u8>, SectionRepair)> {
        let parities = self.sections.get(ordinal)?;
        if stored.len().div_ceil(8) != parities.len() {
            return None;
        }
        let mut fixed = stored.to_vec();
        let mut repair = SectionRepair::default();
        for (w, &parity) in parities.iter().enumerate() {
            let end = ((w + 1) * 8).min(fixed.len());
            let chunk = &fixed[w * 8..end];
            match decode(word_of(chunk), parity) {
                DecodeResult::Clean(_) => {}
                DecodeResult::Corrected { data, data_bit } => {
                    if data_bit {
                        let le = data.to_le_bytes();
                        fixed[w * 8..end].copy_from_slice(&le[..end - w * 8]);
                        repair.corrected_words += 1;
                    } else {
                        // The flip lives in the sidecar's parity byte, not
                        // the section: the data is already right.
                        repair.parity_faults += 1;
                    }
                }
                DecodeResult::DoubleError(_) => repair.uncorrectable_words += 1,
            }
        }
        Some((fixed, repair))
    }

    /// [`EccSidecar::repaired_section_with_report`] without the tally.
    pub fn repaired_section(&self, ordinal: usize, stored: &[u8]) -> Option<Vec<u8>> {
        self.repaired_section_with_report(ordinal, stored).map(|(fixed, _)| fixed)
    }

    /// Decode every word of a section against its parities without
    /// rewriting anything — the scrub a health scan wants. Returns `None`
    /// on ordinal/length mismatch.
    pub fn scrub_section(&self, ordinal: usize, stored: &[u8]) -> Option<SectionRepair> {
        self.repaired_section_with_report(ordinal, stored).map(|(_, repair)| repair)
    }

    /// Serialize to the sidecar binary layout (see module docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let total: usize = self.sections.iter().map(|s| 8 + s.len()).sum();
        let mut out = Vec::with_capacity(SIDECAR_HEADER_LEN + total);
        out.extend_from_slice(SIDECAR_MAGIC);
        out.extend_from_slice(&SIDECAR_VERSION.to_le_bytes());
        out.extend_from_slice(&self.index_crc.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u64).to_le_bytes());
        for s in &self.sections {
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            out.extend_from_slice(s);
        }
        out
    }

    /// Deserialize, with checked arithmetic throughout: truncated headers,
    /// absurd counts, and trailing bytes are all clean errors.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < SIDECAR_HEADER_LEN {
            return Err(Error::Malformed(format!("sidecar too short: {} bytes", bytes.len())));
        }
        if &bytes[..8] != SIDECAR_MAGIC {
            return Err(Error::Malformed("bad magic — not an ECC sidecar".to_string()));
        }
        let version = read_u32_le(bytes, 8)?;
        if version != SIDECAR_VERSION {
            return Err(Error::Malformed(format!("unknown sidecar version {version}")));
        }
        let index_crc = read_u32_le(bytes, 12)?;
        let section_count = read_u64_le(bytes, 16)?;
        if section_count > MAX_LEN {
            return Err(Error::Malformed(format!("section count {section_count} exceeds limit")));
        }
        let mut sections = Vec::new();
        let mut at = SIDECAR_HEADER_LEN;
        for _ in 0..section_count {
            let word_count = read_u64_le(bytes, at)?;
            if word_count > MAX_LEN / 8 + 1 {
                return Err(Error::Malformed(format!("word count {word_count} exceeds limit")));
            }
            let start = at
                .checked_add(8)
                .ok_or_else(|| Error::Malformed("sidecar offset overflow".to_string()))?;
            let end =
                start.checked_add(word_count as usize).filter(|&e| e <= bytes.len()).ok_or_else(
                    || Error::Malformed("sidecar section extends past end of file".to_string()),
                )?;
            sections.push(bytes[start..end].to_vec());
            at = end;
        }
        if at != bytes.len() {
            return Err(Error::Malformed(format!(
                "{} trailing bytes in sidecar",
                bytes.len() - at
            )));
        }
        Ok(EccSidecar { index_crc, sections })
    }

    /// Write to a file, atomically (temporary file + rename).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        crate::write_atomic(path.as_ref(), &self.to_bytes())
    }

    /// Read from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| Error::Io(path.as_ref().display().to_string(), e.to_string()))?;
        Self::from_bytes(&bytes)
    }

    /// Conventional sidecar filename for a checkpoint: `<ckpt>.ecc`.
    pub fn sidecar_path(ckpt: impl AsRef<Path>) -> PathBuf {
        let mut name = ckpt.as_ref().as_os_str().to_os_string();
        name.push(".ecc");
        PathBuf::from(name)
    }

    /// Classify a byte offset into the *serialized* sidecar: structural
    /// header/word-count bytes vs a parity byte of a specific code word.
    /// `None` for offsets past the end.
    pub fn locate(&self, offset: usize) -> Option<ParityLocation> {
        if offset < SIDECAR_HEADER_LEN {
            return Some(ParityLocation::Header);
        }
        let mut at = SIDECAR_HEADER_LEN;
        for (section, s) in self.sections.iter().enumerate() {
            if offset < at + 8 {
                return Some(ParityLocation::Header);
            }
            at += 8;
            if offset < at + s.len() {
                return Some(ParityLocation::Word { section, word: offset - at });
            }
            at += s.len();
        }
        None
    }
}

/// Zero-pad a ≤8-byte chunk into a little-endian u64 code word.
fn word_of(chunk: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf[..chunk.len()].copy_from_slice(chunk);
    u64::from_le_bytes(buf)
}

/// Verify sidecar↔checkpoint binding and coverage against a parsed index.
/// An `Ok` sidecar has one parity array per section with matching word
/// counts, so repairs can never write out of bounds.
pub fn check_binding(sidecar: &EccSidecar, index: &FileIndex) -> Result<()> {
    if sidecar.index_crc() != index.index_crc() {
        return Err(Error::Malformed(format!(
            "ECC sidecar binds to index CRC {:#010x}, checkpoint has {:#010x}",
            sidecar.index_crc(),
            index.index_crc()
        )));
    }
    if sidecar.section_count() != index.entries().len() {
        return Err(Error::Malformed(format!(
            "ECC sidecar covers {} sections, checkpoint has {}",
            sidecar.section_count(),
            index.entries().len()
        )));
    }
    for (i, e) in index.entries().iter().enumerate() {
        let words = sidecar.section_parities(i).map(|p| p.len()).unwrap_or(0);
        if words != e.byte_len.div_ceil(8) {
            return Err(Error::Malformed(format!(
                "ECC sidecar section {i} has {words} words, {:?} needs {}",
                e.path,
                e.byte_len.div_ceil(8)
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dataset, Dtype, H5File, LoadPolicy};

    fn sample() -> H5File {
        let mut f = H5File::new();
        let w: Vec<f32> = (0..37).map(|i| (i as f32) * 0.5 - 9.0).collect();
        f.create_dataset(
            "model_weights/conv1/W",
            Dataset::from_f32(&w, &[37], Dtype::F32).unwrap(),
        )
        .unwrap();
        f.create_dataset(
            "model_weights/conv1/b",
            Dataset::from_f32(&[1.5; 3], &[3], Dtype::F64).unwrap(),
        )
        .unwrap();
        f.create_dataset("meta/epoch", Dataset::scalar_i64(20)).unwrap();
        f
    }

    #[test]
    fn sidecar_roundtrips_byte_deterministically() {
        let bytes = sample().to_bytes_v2();
        let sc = EccSidecar::protect(&bytes).unwrap();
        let ser = sc.to_bytes();
        let back = EccSidecar::from_bytes(&ser).unwrap();
        assert_eq!(back, sc);
        assert_eq!(back.to_bytes(), ser);
    }

    #[test]
    fn binding_matches_the_protected_checkpoint_only() {
        let bytes = sample().to_bytes_v2();
        let sc = EccSidecar::protect(&bytes).unwrap();
        let index = FileIndex::parse(&bytes).unwrap();
        check_binding(&sc, &index).unwrap();

        let mut other = sample();
        other.create_dataset("extra", Dataset::scalar_i64(1)).unwrap();
        let other_index = FileIndex::parse(&other.to_bytes_v2()).unwrap();
        assert!(check_binding(&sc, &other_index).is_err());
    }

    #[test]
    fn correct_policy_repairs_single_bit_payload_flips() {
        let f = sample();
        let bytes = f.to_bytes_v2();
        let sc = EccSidecar::protect(&bytes).unwrap();
        let index = FileIndex::parse(&bytes).unwrap();
        // One flip in every section, all repaired in one load.
        let mut bad = bytes.clone();
        for e in index.entries() {
            bad[e.offset + e.byte_len / 2] ^= 0x20;
        }
        let (g, report) = H5File::from_bytes_with_ecc(&bad, LoadPolicy::Correct, &sc).unwrap();
        assert_eq!(g, f, "repair must restore the original data");
        assert_eq!(report.corrected.len(), index.entries().len());
        assert!(report.quarantined.is_empty());
        assert!(!report.is_clean(), "a repaired load is not a clean load");
    }

    #[test]
    fn double_bit_damage_in_one_word_falls_back_to_quarantine() {
        let f = sample();
        let bytes = f.to_bytes_v2();
        let sc = EccSidecar::protect(&bytes).unwrap();
        let index = FileIndex::parse(&bytes).unwrap();
        let e = index.entry("model_weights/conv1/W").unwrap();
        let mut bad = bytes.clone();
        bad[e.offset] ^= 0x41; // two flips in the same code word
        let (g, report) = H5File::from_bytes_with_ecc(&bad, LoadPolicy::Correct, &sc).unwrap();
        assert_eq!(report.quarantined, vec!["model_weights/conv1/W".to_string()]);
        assert!(report.corrected.is_empty());
        assert!(g.dataset("model_weights/conv1/W").is_err());
    }

    #[test]
    fn mismatched_sidecar_is_rejected_up_front() {
        let bytes = sample().to_bytes_v2();
        let mut other = sample();
        other.create_dataset("extra", Dataset::scalar_i64(1)).unwrap();
        let sc = EccSidecar::protect(&other.to_bytes_v2()).unwrap();
        assert!(matches!(
            H5File::from_bytes_with_ecc(&bytes, LoadPolicy::Correct, &sc),
            Err(Error::Malformed(m)) if m.contains("binds to index CRC")
        ));
    }

    #[test]
    fn correct_without_flips_reports_clean() {
        let f = sample();
        let bytes = f.to_bytes_v2();
        let sc = EccSidecar::protect(&bytes).unwrap();
        let (g, report) = H5File::from_bytes_with_ecc(&bytes, LoadPolicy::Correct, &sc).unwrap();
        assert_eq!(g, f);
        assert!(report.is_clean());
    }

    #[test]
    fn truncated_or_mutated_sidecar_structure_is_a_clean_error() {
        let bytes = sample().to_bytes_v2();
        let ser = EccSidecar::protect(&bytes).unwrap().to_bytes();
        for cut in [0, 7, 12, SIDECAR_HEADER_LEN, ser.len() - 1] {
            assert!(EccSidecar::from_bytes(&ser[..cut]).is_err(), "cut at {cut}");
        }
        let mut magic = ser.clone();
        magic[0] ^= 0xFF;
        assert!(EccSidecar::from_bytes(&magic).is_err());
        let mut count = ser.clone();
        count[16] ^= 0xFF; // section_count
        assert!(EccSidecar::from_bytes(&count).is_err());
        let mut trailing = ser.clone();
        trailing.push(0);
        assert!(EccSidecar::from_bytes(&trailing).is_err());
    }

    #[test]
    fn flipped_parity_byte_is_masked_not_fatal() {
        // A flip in a parity byte of the sidecar itself decodes as a
        // harmless parity-bit correction: the checkpoint still loads
        // bit-exact and the damaged word is not rewritten.
        let f = sample();
        let bytes = f.to_bytes_v2();
        let sc = EccSidecar::protect(&bytes).unwrap();
        let mut ser = sc.to_bytes();
        let off = (0..ser.len())
            .find(|&o| matches!(sc.locate(o), Some(ParityLocation::Word { .. })))
            .unwrap();
        ser[off] ^= 0x04;
        let damaged = EccSidecar::from_bytes(&ser).unwrap();
        let (g, report) =
            H5File::from_bytes_with_ecc(&bytes, LoadPolicy::Correct, &damaged).unwrap();
        assert_eq!(g, f);
        assert!(report.is_clean(), "clean CRCs mean the sidecar is never consulted");
        // A scrub still attributes the damage to the sidecar side.
        let index = FileIndex::parse(&bytes).unwrap();
        let (mut data_events, mut parity_events) = (0usize, 0usize);
        for (i, e) in index.entries().iter().enumerate() {
            let stored = &bytes[e.offset..e.offset + e.byte_len];
            let scrub = damaged.scrub_section(i, stored).unwrap();
            data_events += scrub.corrected_words + scrub.uncorrectable_words;
            parity_events += scrub.parity_faults;
        }
        assert_eq!(data_events, 0, "the checkpoint data is untouched");
        assert_eq!(parity_events, 1, "the scrub pins the flip on the parity byte");
    }

    #[test]
    fn locate_classifies_every_sidecar_byte() {
        let bytes = sample().to_bytes_v2();
        let sc = EccSidecar::protect(&bytes).unwrap();
        let ser = sc.to_bytes();
        let mut words = 0usize;
        let mut headers = 0usize;
        for o in 0..ser.len() {
            match sc.locate(o).expect("in bounds") {
                ParityLocation::Header => headers += 1,
                ParityLocation::Word { section, word } => {
                    assert!(word < sc.section_parities(section).unwrap().len());
                    words += 1;
                }
            }
        }
        assert_eq!(words, sc.parity_bytes());
        assert_eq!(headers, SIDECAR_HEADER_LEN + 8 * sc.section_count());
        assert!(sc.locate(ser.len()).is_none());
    }

    #[test]
    fn sidecar_path_appends_ecc() {
        assert_eq!(
            EccSidecar::sidecar_path("/tmp/ckpt.sefi5"),
            PathBuf::from("/tmp/ckpt.sefi5.ecc")
        );
    }

    #[test]
    fn protect_rejects_damaged_checkpoints() {
        let mut bytes = sample().to_bytes_v2();
        let n = bytes.len();
        bytes.truncate(n - 1);
        assert!(EccSidecar::protect(&bytes).is_err());
    }

    /// A fixed multi-dtype fixture with ragged trailing words.
    fn pinned_fixture() -> H5File {
        let mut f = H5File::new();
        let w: Vec<f32> = (0..4099).map(|i| ((i * 7919 % 1000) as f32) * 0.013 - 6.5).collect();
        f.create_dataset("model/dense/W", Dataset::from_f32(&w, &[4099], Dtype::F32).unwrap())
            .unwrap();
        let b: Vec<f32> = (0..777).map(|i| (i as f32) * -0.125 + 7.5).collect();
        f.create_dataset("model/dense/b", Dataset::from_f32(&b, &[777], Dtype::F64).unwrap())
            .unwrap();
        let h: Vec<f32> = (0..301).map(|i| ((i * 31 % 97) as f32) / 13.0).collect();
        f.create_dataset("model/head/W", Dataset::from_f32(&h, &[301], Dtype::F16).unwrap())
            .unwrap();
        f.create_dataset("meta/epoch", Dataset::scalar_i64(30)).unwrap();
        f
    }

    #[test]
    fn sidecar_digest_is_pinned() {
        // Digests recorded with the original bit-serial Hamming codec and
        // bytewise CRC-32: any codec drift changes a byte here.
        let bytes = pinned_fixture().to_bytes_v2();
        assert_eq!((bytes.len(), crate::crc::crc32(&bytes)), (23476, 0xB461_DA15));
        let ser = EccSidecar::protect(&bytes).unwrap().to_bytes();
        assert_eq!((ser.len(), crate::crc::crc32(&ser)), (2960, 0x850C_09E1));
    }
}
