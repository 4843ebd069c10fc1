//! Checkpoint image files.
//!
//! One image per rank, exactly as MANA writes one image per MPI process.
//! Layout (all integers little-endian):
//!
//! ```text
//! magic      [8]  b"MANA2CKP"
//! version    u32
//! rank       u64
//! world      u64
//! round      u64   (checkpoint round number, for Fig. 3's repeated C/R)
//! upper_len  u64
//! meta_len   u64
//! upper_crc  u32
//! meta_crc   u32
//! upper      [upper_len]   (serialized UpperHalf — application memory)
//! meta       [meta_len]    (serialized MANA metadata: virtual-ID tables,
//!                           active communicator list, pending requests,
//!                           drain buffers)
//! ```

use crate::codec::{crc32, crc32_combine};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"MANA2CKP";
const VERSION: u32 = 2;
pub(crate) const HEADER_LEN: usize = 8 + 4 + 8 * 5 + 4 * 2;

/// Errors reading or writing checkpoint images.
#[derive(Debug)]
pub enum ImageError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file does not start with the image magic.
    BadMagic,
    /// Unsupported image version.
    BadVersion(u32),
    /// Payload CRC mismatch (corrupt or truncated image).
    BadCrc {
        /// Which section failed ("upper" or "meta").
        section: &'static str,
    },
    /// Header fields inconsistent with file size.
    Truncated,
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::Io(e) => write!(f, "image I/O error: {e}"),
            ImageError::BadMagic => write!(f, "not a MANA-2.0 checkpoint image"),
            ImageError::BadVersion(v) => write!(f, "unsupported image version {v}"),
            ImageError::BadCrc { section } => write!(f, "CRC mismatch in {section} section"),
            ImageError::Truncated => write!(f, "image truncated"),
        }
    }
}

impl std::error::Error for ImageError {}

impl From<io::Error> for ImageError {
    fn from(e: io::Error) -> Self {
        ImageError::Io(e)
    }
}

/// One rank's checkpoint image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptImage {
    /// World rank this image belongs to.
    pub rank: usize,
    /// World size at checkpoint time (restart validates it).
    pub world_size: usize,
    /// Checkpoint round (0-based; Fig. 3 runs ten rounds).
    pub round: u64,
    /// Serialized upper-half memory.
    pub upper: Vec<u8>,
    /// Serialized MANA metadata.
    pub meta: Vec<u8>,
}

impl CkptImage {
    /// Total serialized size (header + payloads) — the per-rank number that
    /// aggregates into Fig. 3's checkpoint-size line.
    pub fn size_bytes(&self) -> usize {
        HEADER_LEN + self.upper.len() + self.meta.len()
    }

    /// Conventional file name for a rank's image in `dir`.
    pub fn path_for(dir: &Path, rank: usize) -> PathBuf {
        dir.join(format!("ckpt_rank_{rank:05}.mana"))
    }

    /// Serialize to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_with_crc().0
    }

    /// Serialize to bytes, and return the file's CRC-32 with them. The
    /// section checksums the header stores anyway are combined with the
    /// header's own ([`crc32_combine`]), so no payload byte is read a
    /// second time for it.
    pub fn to_bytes_with_crc(&self) -> (Vec<u8>, u32) {
        let (upper_crc, meta_crc) = (crc32(&self.upper), crc32(&self.meta));
        let mut out = Vec::with_capacity(self.size_bytes());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.rank as u64).to_le_bytes());
        out.extend_from_slice(&(self.world_size as u64).to_le_bytes());
        out.extend_from_slice(&self.round.to_le_bytes());
        out.extend_from_slice(&(self.upper.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.meta.len() as u64).to_le_bytes());
        out.extend_from_slice(&upper_crc.to_le_bytes());
        out.extend_from_slice(&meta_crc.to_le_bytes());
        let file_crc = file_crc(
            &out,
            (upper_crc, self.upper.len()),
            (meta_crc, self.meta.len()),
        );
        out.extend_from_slice(&self.upper);
        out.extend_from_slice(&self.meta);
        (out, file_crc)
    }

    /// Parse from bytes, verifying magic, version, sizes, and CRCs.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, ImageError> {
        Self::from_bytes_with_crc(buf).map(|(image, _)| image)
    }

    /// Parse from bytes, verifying magic, version, sizes, and CRCs, and
    /// return the CRC-32 of all of `buf` with the image: combined from the
    /// section checksums just verified, so a caller holding the file's
    /// expected checksum (the store, from the manifest) need not read the
    /// payloads again. The payloads are copied out only after both CRCs
    /// pass, so a corrupt image costs only the CRC pass that exposes it.
    pub fn from_bytes_with_crc(buf: &[u8]) -> Result<(Self, u32), ImageError> {
        if buf.len() < HEADER_LEN {
            return Err(ImageError::Truncated);
        }
        if &buf[0..8] != MAGIC {
            return Err(ImageError::BadMagic);
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(ImageError::BadVersion(version));
        }
        let rd_u64 = |off: usize| u64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
        let (upper_len, meta_len) = (rd_u64(36) as usize, rd_u64(44) as usize);
        let upper_crc = u32::from_le_bytes(buf[52..56].try_into().unwrap());
        let meta_crc = u32::from_le_bytes(buf[56..60].try_into().unwrap());
        // checked_add: a corrupt header can claim lengths whose sum wraps
        // usize, which would otherwise pass the size check in release
        // builds and panic (or worse) on the slices below.
        let expected = HEADER_LEN
            .checked_add(upper_len)
            .and_then(|n| n.checked_add(meta_len))
            .ok_or(ImageError::Truncated)?;
        if buf.len() != expected {
            return Err(ImageError::Truncated);
        }
        let (upper, meta) = buf[HEADER_LEN..].split_at(upper_len);
        if crc32(upper) != upper_crc {
            return Err(ImageError::BadCrc { section: "upper" });
        }
        if crc32(meta) != meta_crc {
            return Err(ImageError::BadCrc { section: "meta" });
        }
        let image = CkptImage {
            rank: rd_u64(12) as usize,
            world_size: rd_u64(20) as usize,
            round: rd_u64(28),
            upper: upper.to_vec(),
            meta: meta.to_vec(),
        };
        let header = &buf[..HEADER_LEN];
        let file_crc = file_crc(header, (upper_crc, upper_len), (meta_crc, meta_len));
        Ok((image, file_crc))
    }
}

/// CRC-32 of the file `header ‖ upper ‖ meta`, from the header's bytes and
/// each section's `(checksum, length)`.
fn file_crc(header: &[u8], upper: (u32, usize), meta: (u32, usize)) -> u32 {
    let crc = crc32_combine(crc32(header), upper.0, upper.1 as u64);
    crc32_combine(crc, meta.0, meta.1 as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CkptImage {
        CkptImage {
            rank: 3,
            world_size: 16,
            round: 2,
            upper: vec![1, 2, 3, 4, 5],
            meta: vec![9, 9],
        }
    }

    #[test]
    fn roundtrip_bytes() {
        let img = sample();
        let bytes = img.to_bytes();
        assert_eq!(bytes.len(), img.size_bytes());
        assert_eq!(CkptImage::from_bytes(&bytes).unwrap(), img);
    }

    #[test]
    fn returned_file_crc_is_the_crc_of_the_file() {
        // Payload sizes from nothing to 1 MiB, across block and
        // power-of-two boundaries, in both sections.
        let sizes = [0, 1, 15, 16, 17, 4095, 4096, 65_537, 1 << 20];
        let fill = |n: usize, salt: u32| -> Vec<u8> {
            (0..n as u32)
                .map(|i| (i.wrapping_mul(2654435761).wrapping_add(salt) >> 13) as u8)
                .collect()
        };
        for (i, &upper_len) in sizes.iter().enumerate() {
            let img = CkptImage {
                rank: i,
                world_size: 16,
                round: 7,
                upper: fill(upper_len, 1),
                meta: fill(sizes[sizes.len() - 1 - i], 2),
            };
            let (bytes, crc) = img.to_bytes_with_crc();
            assert_eq!(crc, crc32(&bytes), "write side, upper {upper_len}");
            assert_eq!(bytes, img.to_bytes());
            let (back, read_crc) = CkptImage::from_bytes_with_crc(&bytes).unwrap();
            assert_eq!(read_crc, crc, "read side, upper {upper_len}");
            assert_eq!(back, img);
        }
    }

    #[test]
    fn corrupt_payload_detected() {
        let mut bytes = sample().to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // flip a meta byte
        assert!(matches!(
            CkptImage::from_bytes(&bytes),
            Err(ImageError::BadCrc { section: "meta" })
        ));
        let mut bytes2 = sample().to_bytes();
        bytes2[61] ^= 0xFF; // flip an upper byte
        assert!(matches!(
            CkptImage::from_bytes(&bytes2),
            Err(ImageError::BadCrc { section: "upper" })
        ));
    }

    #[test]
    fn bad_magic_and_truncation() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            CkptImage::from_bytes(&bytes),
            Err(ImageError::BadMagic)
        ));
        let bytes = sample().to_bytes();
        assert!(matches!(
            CkptImage::from_bytes(&bytes[..bytes.len() - 1]),
            Err(ImageError::Truncated)
        ));
        assert!(matches!(
            CkptImage::from_bytes(&bytes[..10]),
            Err(ImageError::Truncated)
        ));
    }

    #[test]
    fn overflowing_header_lengths_rejected() {
        // Adversarial header whose claimed lengths wrap usize: must come
        // back Truncated, not overflow the size arithmetic.
        let mut bytes = sample().to_bytes();
        bytes[36..44].copy_from_slice(&u64::MAX.to_le_bytes()); // upper_len
        bytes[44..52].copy_from_slice(&u64::MAX.to_le_bytes()); // meta_len
        assert!(matches!(
            CkptImage::from_bytes(&bytes),
            Err(ImageError::Truncated)
        ));
    }
}
