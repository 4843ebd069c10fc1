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
//!
//! The format has one writer and one reader. [`ImageHead::encode_into`]
//! encodes the two sections into a caller's buffer behind a header gap and
//! [`EncodedImage::seal`] fills the gap in; a rank keeps that buffer across
//! rounds, and [`CkptImage::to_bytes_with_crc`] is the same encoder on a
//! fresh one. `verify` checks a file, and the sections it vouches for are
//! then copied out ([`CkptImage::from_bytes_with_crc`]) or, by the store's
//! reader, carved out of the file buffer itself (`Verified::carve`).

use crate::codec::{crc32, crc32_combine, Encode};
use std::borrow::Cow;
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

/// The header fields of an image that are not about its payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageHead {
    /// World rank the image belongs to.
    pub rank: usize,
    /// World size at checkpoint time.
    pub world_size: usize,
    /// Checkpoint round.
    pub round: u64,
}

impl ImageHead {
    /// The one encoder of the image format: clear `buf` (its capacity is
    /// kept), leave a header-sized gap, and append the encodings of
    /// `upper` and `meta` behind it — straight from the values, so a
    /// buffer a rank keeps across rounds allocates nothing once it has
    /// grown. The header is written by [`EncodedImage::seal`].
    ///
    /// The buffer never keeps more than twice what it holds: an image that
    /// fills less than half the capacity shrinks the buffer to fit.
    pub fn encode_into<'a>(
        self,
        buf: &'a mut Vec<u8>,
        upper: &impl Encode,
        meta: &impl Encode,
    ) -> EncodedImage<'a> {
        buf.clear();
        buf.resize(HEADER_LEN, 0);
        upper.encode(buf);
        let upper_len = buf.len() - HEADER_LEN;
        meta.encode(buf);
        if buf.len() < buf.capacity() / 2 {
            buf.shrink_to_fit();
        }
        EncodedImage {
            head: self,
            sections: Sections::InBuffer { buf, upper_len },
        }
    }
}

/// An encoded image not yet sealed: its header fields and its two
/// sections, either in a buffer behind a header gap
/// ([`ImageHead::encode_into`]) or borrowed from a [`CkptImage`]
/// ([`CkptImage::encoded`]). It is what the store's one write routine
/// takes: a flat write seals it, a chunked write reads its sections where
/// they lie.
pub struct EncodedImage<'a> {
    head: ImageHead,
    sections: Sections<'a>,
}

enum Sections<'a> {
    InBuffer {
        buf: &'a mut Vec<u8>,
        upper_len: usize,
    },
    Borrowed {
        upper: &'a [u8],
        meta: &'a [u8],
    },
}

/// Raw section bytes, appended as they are (a `Vec<u8>`'s encoding would
/// prefix the length).
struct Raw<'a>(&'a [u8]);

impl Encode for Raw<'_> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.0);
    }
}

impl<'a> EncodedImage<'a> {
    /// The image [`ImageHead::encode_into`] left in `buf`, taken up again
    /// from the length of its upper section ([`EncodedImage::upper_len`])
    /// — how an encoded buffer travels without its borrow: a rank freezes
    /// its image and lends the buffer to the writer that seals it.
    ///
    /// # Panics
    ///
    /// If `buf` is too short to hold a header and `upper_len` bytes.
    pub fn in_buffer(head: ImageHead, buf: &'a mut Vec<u8>, upper_len: usize) -> EncodedImage<'a> {
        assert!(
            buf.len() >= HEADER_LEN + upper_len,
            "{} bytes cannot hold an image with a {upper_len}-byte upper half",
            buf.len()
        );
        EncodedImage {
            head,
            sections: Sections::InBuffer { buf, upper_len },
        }
    }

    /// Length of the serialized upper half.
    pub fn upper_len(&self) -> usize {
        self.sections().0.len()
    }

    /// The image's header fields.
    pub(crate) fn head(&self) -> ImageHead {
        self.head
    }

    /// The serialized upper half and MANA metadata.
    pub(crate) fn sections(&self) -> (&[u8], &[u8]) {
        match &self.sections {
            Sections::InBuffer { buf, upper_len } => buf[HEADER_LEN..].split_at(*upper_len),
            Sections::Borrowed { upper, meta } => (*upper, *meta),
        }
    }

    /// Size of the image file (header + payloads).
    pub(crate) fn size_bytes(&self) -> usize {
        let (upper, meta) = self.sections();
        HEADER_LEN + upper.len() + meta.len()
    }

    /// The image file and its CRC-32. A buffered image is sealed in
    /// place: one CRC pass per section, then the header (which stores
    /// both) into the gap; the file's CRC is combined from the header's
    /// and the sections' ([`crc32_combine`]), so no payload byte is read
    /// for it. Borrowed sections are first encoded into a fresh buffer.
    pub fn seal(self) -> (Cow<'a, [u8]>, u32) {
        let (buf, upper_len) = match self.sections {
            Sections::InBuffer { buf, upper_len } => (buf, upper_len),
            Sections::Borrowed { upper, meta } => {
                let mut file = Vec::with_capacity(HEADER_LEN + upper.len() + meta.len());
                let crc = self
                    .head
                    .encode_into(&mut file, &Raw(upper), &Raw(meta))
                    .seal()
                    .1;
                return (Cow::Owned(file), crc);
            }
        };
        let (upper, meta) = buf[HEADER_LEN..].split_at(upper_len);
        let upper = (crc32(upper), upper.len());
        let meta = (crc32(meta), meta.len());
        let head = self.head;
        let mut at = 0;
        let mut put = |field: &[u8]| {
            buf[at..at + field.len()].copy_from_slice(field);
            at += field.len();
        };
        put(MAGIC);
        put(&VERSION.to_le_bytes());
        put(&(head.rank as u64).to_le_bytes());
        put(&(head.world_size as u64).to_le_bytes());
        put(&head.round.to_le_bytes());
        put(&(upper.1 as u64).to_le_bytes());
        put(&(meta.1 as u64).to_le_bytes());
        put(&upper.0.to_le_bytes());
        put(&meta.0.to_le_bytes());
        let crc = file_crc(&buf[..HEADER_LEN], upper, meta);
        (Cow::Borrowed(buf), crc)
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

    /// The image's header fields.
    pub fn head(&self) -> ImageHead {
        ImageHead {
            rank: self.rank,
            world_size: self.world_size,
            round: self.round,
        }
    }

    /// This image as the store's write routine takes it, its sections
    /// borrowed where they lie.
    pub(crate) fn encoded(&self) -> EncodedImage<'_> {
        EncodedImage {
            head: self.head(),
            sections: Sections::Borrowed {
                upper: &self.upper,
                meta: &self.meta,
            },
        }
    }

    /// Serialize to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_with_crc().0
    }

    /// Serialize to bytes, and return the file's CRC-32 with them: the
    /// one encoder ([`ImageHead::encode_into`]) writing into a fresh
    /// buffer, sealed ([`EncodedImage::seal`]).
    pub fn to_bytes_with_crc(&self) -> (Vec<u8>, u32) {
        let (file, crc) = self.encoded().seal();
        (file.into_owned(), crc)
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
        let file = verify(buf)?;
        let (upper, meta) = buf[HEADER_LEN..].split_at(file.upper_len);
        Ok((file.image(upper.to_vec(), meta.to_vec()), file.crc))
    }
}

/// What [`verify`] found in a file whose magic, version, sizes and section
/// CRCs all check out.
pub(crate) struct Verified {
    head: ImageHead,
    upper_len: usize,
    /// CRC-32 of the whole file, combined from the verified sections'.
    pub(crate) crc: u32,
}

impl Verified {
    fn image(&self, upper: Vec<u8>, meta: Vec<u8>) -> CkptImage {
        CkptImage {
            rank: self.head.rank,
            world_size: self.head.world_size,
            round: self.head.round,
            upper,
            meta,
        }
    }

    /// The image, carved out of the verified file `buf` instead of copied
    /// out of it: the meta section is split off and the header moved out
    /// in place, so what is left of the buffer is the upper section and
    /// it needs no allocation of its own.
    pub(crate) fn carve(self, mut buf: Vec<u8>) -> CkptImage {
        let meta = buf.split_off(HEADER_LEN + self.upper_len);
        buf.drain(..HEADER_LEN);
        self.image(buf, meta)
    }
}

/// The one parser of the image format: check magic, version, sizes and
/// both section CRCs of the file `buf`, reading each payload byte once.
pub(crate) fn verify(buf: &[u8]) -> Result<Verified, ImageError> {
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
    let header = &buf[..HEADER_LEN];
    Ok(Verified {
        head: ImageHead {
            rank: rd_u64(12) as usize,
            world_size: rd_u64(20) as usize,
            round: rd_u64(28),
        },
        upper_len,
        crc: file_crc(header, (upper_crc, upper_len), (meta_crc, meta_len)),
    })
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
    use crate::UpperHalf;

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

    /// An upper half of one `len`-byte segment and a metadata value, and
    /// the image a fresh encoding of them gives.
    fn state(len: usize, round: u64) -> (UpperHalf, (Vec<u8>, u64), CkptImage) {
        let mut upper = UpperHalf::new();
        let bytes = (0..len as u32).map(|i| (i.wrapping_mul(2654435761) >> 11) as u8);
        upper.write_segment("state", bytes.collect());
        let meta = (vec![round as u8; 33], round);
        let image = CkptImage {
            rank: 5,
            world_size: 8,
            round,
            upper: upper.to_bytes(),
            meta: meta.to_bytes(),
        };
        (upper, meta, image)
    }

    #[test]
    fn encode_into_is_the_fresh_encoding_in_a_fresh_or_reused_buffer() {
        let sizes = [0, 1 << 10, (2 << 20) + 37];
        let mut kept = Vec::new();
        // Largest first, so every later encode reuses a buffer with room
        // to spare (and must leave none of the earlier image behind).
        for (round, &len) in sizes.iter().rev().enumerate() {
            let (upper, meta, want) = state(len, round as u64);
            let (want_file, want_crc) = want.to_bytes_with_crc();
            for reused in [false, true] {
                let mut fresh = Vec::new();
                let buf = if reused { &mut kept } else { &mut fresh };
                let encoded = want.head().encode_into(buf, &upper, &meta);
                assert_eq!(encoded.sections(), (&want.upper[..], &want.meta[..]));
                assert_eq!(encoded.size_bytes(), want.size_bytes());
                let (file, crc) = encoded.seal();
                assert_eq!((&file[..], crc), (&want_file[..], want_crc), "{len} B");
                assert_eq!(crc, crc32(&file));
            }
            assert_eq!(kept, want_file, "no stale tail after {len} B");
        }
    }

    #[test]
    fn a_same_size_encode_reuses_the_buffer_in_place() {
        let (upper, meta, image) = state((2 << 20) + 37, 1);
        let mut buf = Vec::new();
        image.head().encode_into(&mut buf, &upper, &meta).seal();
        let (ptr, cap) = (buf.as_ptr(), buf.capacity());
        let (file, _) = image.head().encode_into(&mut buf, &upper, &meta).seal();
        assert_eq!(file, image.to_bytes());
        assert_eq!((buf.as_ptr(), buf.capacity()), (ptr, cap));
    }

    #[test]
    fn an_image_taken_up_again_from_its_buffer_seals_as_encoded() {
        let (upper, meta, image) = state(3 << 10, 2);
        let mut buf = Vec::new();
        let upper_len = image
            .head()
            .encode_into(&mut buf, &upper, &meta)
            .upper_len();
        assert_eq!(upper_len, image.upper.len());
        let ptr = buf.as_ptr();
        let (file, crc) = EncodedImage::in_buffer(image.head(), &mut buf, upper_len).seal();
        assert_eq!((&file[..], crc), (&image.to_bytes()[..], crc32(&file)));
        assert_eq!(file.as_ptr(), ptr, "sealed where it was encoded");
    }

    #[test]
    fn an_image_under_half_the_capacity_shrinks_the_buffer() {
        let (big_upper, big_meta, big) = state(64 << 10, 0);
        let mut buf = Vec::new();
        big.head().encode_into(&mut buf, &big_upper, &big_meta);
        let cap = buf.capacity();
        // Above half the capacity: kept as it is.
        let (upper, meta, image) = state(cap / 2 + 100, 1);
        image.head().encode_into(&mut buf, &upper, &meta);
        assert_eq!(buf.capacity(), cap);
        assert!(buf.len() >= cap / 2);
        // Just below half: shrunk to what the image needs.
        let (upper, meta, image) = state(cap / 2 - 200, 2);
        assert!(image.size_bytes() < cap / 2);
        let (file, _) = image.head().encode_into(&mut buf, &upper, &meta).seal();
        assert_eq!(file, image.to_bytes());
        assert!(buf.capacity() < cap / 2, "{} of {cap}", buf.capacity());
        assert!(buf.len() >= buf.capacity() / 2);
    }

    #[test]
    fn carving_gives_what_the_copying_parse_gives() {
        for len in [0, 1 << 10, (2 << 20) + 37] {
            let (_, _, image) = state(len, 3);
            let (file, crc) = image.to_bytes_with_crc();
            let copied = CkptImage::from_bytes_with_crc(&file).unwrap();
            let verified = verify(&file).unwrap();
            let carved = (verified.crc, verified.carve(file));
            assert_eq!((carved.1, carved.0), copied);
            assert_eq!(copied, (image, crc));
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
