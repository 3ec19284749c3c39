//! A flat, NPZ-style serialization of the same object tree.
//!
//! Chainer "saves checkpoints in native NPZ format (NumPy's compressed
//! array format) and in HDF5 format" (paper Section III-C), and the paper
//! closes by noting that "different checkpoint file formats could also be
//! explored" (Section VII). This module provides that second format: a
//! flat archive of `(name, array)` pairs — NPZ's data model — for the same
//! in-memory [`H5File`]. Group structure round-trips through the names
//! (`predictor/conv1/W`), exactly as NPZ keys carry slashes.
//!
//! The injector is format-agnostic by construction: corrupt the
//! [`H5File`], then serialize to whichever container the experiment needs.
//!
//! ```text
//! flat file: magic "SEFINPZ\n" | version u32 LE | crc32 u32 LE | payload
//! payload:   count u32 | count × (name str | dataset)
//! ```
//! (str and dataset encodings are shared with the hierarchical format.)

use crate::crc::crc32;
use crate::dataset::{Dataset, Dtype};
use crate::error::{Error, Result};
use crate::limits::{MAX_LEN, MAX_NAME_LEN, MAX_RANK};
use crate::node::Node;
use crate::H5File;

const MAGIC: &[u8; 8] = b"SEFINPZ\n";
const VERSION: u32 = 1;

/// Serialize to the flat archive format. Attributes do not survive (NPZ
/// has no attribute concept); datasets and their paths round-trip exactly.
pub fn to_flat_bytes(file: &H5File) -> Vec<u8> {
    let paths = file.dataset_paths();
    let mut payload = Vec::new();
    payload.extend_from_slice(&(paths.len() as u32).to_le_bytes());
    for path in &paths {
        let ds = file.dataset(path).expect("path came from dataset_paths");
        payload.extend_from_slice(&(path.len() as u32).to_le_bytes());
        payload.extend_from_slice(path.as_bytes());
        payload.push(ds.dtype().tag_public());
        payload.extend_from_slice(&(ds.shape().len() as u32).to_le_bytes());
        for &d in ds.shape() {
            payload.extend_from_slice(&(d as u64).to_le_bytes());
        }
        if ds.dtype() == Dtype::I8Q {
            payload.extend_from_slice(&ds.scale().to_bits().to_le_bytes());
        }
        payload.extend_from_slice(&(ds.bytes().len() as u64).to_le_bytes());
        payload.extend_from_slice(ds.bytes());
    }
    let mut out = Vec::with_capacity(16 + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Deserialize a flat archive back into a hierarchical file (names with
/// `/` recreate the group tree, as when loading an NPZ into h5py).
pub fn from_flat_bytes(bytes: &[u8]) -> Result<H5File> {
    if bytes.len() < 16 {
        return Err(Error::Malformed(format!("flat file too short: {} bytes", bytes.len())));
    }
    if &bytes[..8] != MAGIC {
        return Err(Error::Malformed("bad magic — not a SEFI-NPZ file".to_string()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(Error::Malformed(format!("unsupported flat version {version}")));
    }
    let stored = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    let payload = &bytes[16..];
    if stored != crc32(payload) {
        return Err(Error::Malformed("flat archive checksum mismatch".to_string()));
    }

    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
        if payload.len() - *pos < n {
            return Err(Error::Malformed("flat archive truncated".to_string()));
        }
        let s = &payload[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    let u32_at = |pos: &mut usize| -> Result<u32> {
        Ok(u32::from_le_bytes(take(pos, 4)?.try_into().expect("4 bytes")))
    };
    let u64_at = |pos: &mut usize| -> Result<u64> {
        Ok(u64::from_le_bytes(take(pos, 8)?.try_into().expect("8 bytes")))
    };

    let count = u32_at(&mut pos)?;
    let mut file = H5File::new();
    for _ in 0..count {
        let name_len = u32_at(&mut pos)? as usize;
        if name_len as u64 > MAX_NAME_LEN {
            return Err(Error::Malformed(format!("flat name length {name_len} exceeds limit")));
        }
        let name = String::from_utf8(take(&mut pos, name_len)?.to_vec())
            .map_err(|_| Error::Malformed("non-UTF-8 flat name".to_string()))?;
        let dtype = Dtype::from_tag_public(take(&mut pos, 1)?[0])?;
        let rank = u32_at(&mut pos)?;
        if rank > MAX_RANK {
            return Err(Error::Malformed(format!("flat rank {rank} exceeds limit")));
        }
        let mut shape = Vec::with_capacity(rank as usize);
        for _ in 0..rank {
            let d = u64_at(&mut pos)?;
            if d > MAX_LEN {
                return Err(Error::Malformed(format!("flat dimension {d} exceeds limit")));
            }
            shape.push(d as usize);
        }
        let scale = if dtype == Dtype::I8Q {
            let s = f32::from_bits(u32_at(&mut pos)?);
            if !s.is_finite() || s <= 0.0 {
                return Err(Error::Malformed(format!("invalid I8Q quantization scale {s}")));
            }
            s
        } else {
            1.0
        };
        let byte_len = u64_at(&mut pos)?;
        if byte_len > MAX_LEN {
            return Err(Error::Malformed(format!("flat data length {byte_len} exceeds limit")));
        }
        let data = take(&mut pos, byte_len as usize)?.to_vec();
        let ds = Dataset::from_raw_public(dtype, shape, data)?.with_scale(scale);
        file.create_dataset(&name, ds)?;
    }
    if pos != payload.len() {
        return Err(Error::Malformed("trailing bytes in flat archive".to_string()));
    }
    Ok(file)
}

impl H5File {
    /// Write the flat (NPZ-style) serialization to disk, atomically.
    pub fn save_flat(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        crate::write_atomic(path.as_ref(), &to_flat_bytes(self))
    }

    /// Read a flat (NPZ-style) archive from disk.
    pub fn load_flat(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| Error::Io(path.as_ref().display().to_string(), e.to_string()))?;
        from_flat_bytes(&bytes)
    }
}

/// Drop group attributes explicitly (documented NPZ lossiness) so callers
/// can assert what survives: everything the injector can touch.
pub fn strip_attrs(file: &H5File) -> H5File {
    let mut out = H5File::new();
    for path in file.dataset_paths() {
        if let Some(Node::Dataset(ds)) = file.get(&path) {
            out.create_dataset(&path, ds.clone()).expect("paths are unique");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Attr;

    fn sample() -> H5File {
        let mut f = H5File::new();
        f.create_dataset(
            "predictor/conv1/W",
            Dataset::from_f32(&[1.0, -2.5, 3.25], &[3], Dtype::F64).unwrap(),
        )
        .unwrap();
        f.create_dataset("updater/epoch", Dataset::scalar_i64(20)).unwrap();
        f
    }

    #[test]
    fn flat_roundtrip_preserves_datasets_and_paths() {
        let f = sample();
        let g = from_flat_bytes(&to_flat_bytes(&f)).unwrap();
        assert_eq!(f.dataset_paths(), g.dataset_paths());
        for p in f.dataset_paths() {
            assert_eq!(f.dataset(&p).unwrap(), g.dataset(&p).unwrap(), "{p}");
        }
    }

    #[test]
    fn attributes_are_documented_lossy() {
        let mut f = sample();
        f.root_mut().set_attr("framework", Attr::Str("chainer".into()));
        let g = from_flat_bytes(&to_flat_bytes(&f)).unwrap();
        assert!(g.root().attr("framework").is_none());
        assert_eq!(g, strip_attrs(&f));
    }

    #[test]
    fn flat_corruption_is_detected() {
        let mut bytes = to_flat_bytes(&sample());
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert!(from_flat_bytes(&bytes).is_err());
        assert!(from_flat_bytes(&bytes[..10]).is_err());
        assert!(from_flat_bytes(b"garbage").is_err());
        // Hierarchical magic is not flat magic.
        let h = sample().to_bytes();
        assert!(from_flat_bytes(&h).is_err());
    }

    #[test]
    fn disk_roundtrip() {
        let dir = crate::testutil::TestDir::new("flat");
        let p = dir.file("ckpt.sefinpz");
        let f = sample();
        f.save_flat(&p).unwrap();
        let g = H5File::load_flat(&p).unwrap();
        assert_eq!(strip_attrs(&f), g);
    }
}
