//! Checkpoint image files.
//!
//! One image per rank, exactly as MANA writes one image per MPI process.
//! A flat image file is an [`ImageHeader`] behind the [`IMAGE`] prefix
//! (magic `MANA2CKP`, version 2), written and read through the codec,
//! then the two sections the header measures: the serialized
//! [`UpperHalf`](crate::UpperHalf) (application memory) and the
//! serialized MANA metadata (virtual-ID tables, active communicators,
//! pending requests, drain buffers). A chunked generation's recipe opens with the same header.
//! The file has no trailer: the section CRCs vouch for the sections and
//! the manifest's whole-file CRC for the rest (DESIGN §7, "Files on
//! disk").
//!
//! The format has one writer and one reader, and one shape both ways: an
//! [`ImageBuf`]. [`ImageHead::encode_into`] writes the sections into a
//! rank's kept buffer behind a header gap, and [`ImageBuf::seal`] fills the
//! gap in. Restart reads a flat file as the buffer it lies in, or assembles
//! a chunked image behind a zero gap, and `ImageBuf::verified` checksums
//! every block and holds both section CRCs against the header, leaving the
//! buffer as a sealed one is. [`CkptImage`], the
//! decoded form tools and the benchmark replay use, is copied out of a
//! buffer or into a fresh one (`CkptImage::buf`).
//!
//! **The block table.** An [`ImageBuf`] keeps, beside its bytes, a
//! CRC-32 for each 64 KiB block (`CRC_BLOCK`) of the upper section (counted
//! from the section's start; the last block may be short). A block's CRC
//! is trusted only while it was computed from the bytes the block holds
//! now, and nothing but the writer can change those bytes: the buffer
//! hands out no `&mut` to them, and [`ImageHead::encode_into`] writes the
//! new upper section over the previous one, copying — and marking stale —
//! only the blocks whose bytes differ. It finds them by comparing block by
//! block, except where the upper half vouches for them: a rank's tracked
//! freeze (the upper half lent as `&mut`) skips the 64 KiB windows no save
//! changed since that upper half's previous freeze, when the buffer's
//! stamp says that freeze wrote it and the segments' names and lengths are
//! as it wrote them ([`UpperHalf`](crate::UpperHalf)'s doc says what makes
//! a segment unknown and what the tracking costs). A skipped window holds
//! the bytes the compare would have found, so the image and its stale
//! blocks are what the compare gives; a debug build makes the compare
//! anyway and asserts it. A block whose extent changes (the section now
//! ends inside it, or ended inside it before) is stale too. Sealing
//! checksums the stale blocks alone and joins all block CRCs into the
//! section's ([`crc32_combine`]), so a round that rewrote 2 % of a 2 MiB
//! image checksums about that much, and a table
//! that is empty — a rank's first round, a restored rank, a decoded
//! image's fresh buffer — is checksummed in full. The metadata section has
//! no table: it is encoded afresh every round (it holds the drain buffers
//! and request tables of that round), so it is checksummed whole at every
//! seal. The section CRCs are kept with the buffer until the next encode,
//! so the store's write and the seal it makes share one checksum.
//! A checksum also notes which blocks were fresh when it began (unchanged
//! since the checksum before, whose header the buffer keeps), so a chunked
//! write can take those blocks' chunk keys from that checksum's recipe
//! (`ImageBuf::unchanged`; DESIGN §7), and a chunked store lands an image
//! none of whose blocks were fresh as one flat file (`ImageBuf::rewritten`).

use crate::codec::{crc32, crc32_combine, CrcShift, Decode, Encode, Format, FormatError, Reader};
use crate::upperhalf::Stamp;
use crate::UpperRef;
use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// The flat image's framing: its header behind this prefix.
pub(crate) const IMAGE: Format = Format {
    file: "image",
    prefix: Some((*b"MANA2CKP", 2)),
};

/// Bytes ahead of the upper section: the prefix and the header, whose
/// fields all have a fixed width, so its fewest bytes are all of them.
pub(crate) const HEADER_LEN: usize = 8 + 4 + <ImageHeader as Decode>::MIN_LEN;

/// Block size of an [`ImageBuf`]'s CRC table: a constant, not a knob. A
/// 2 MiB upper section has 32 blocks, so a 2 % edit stales one or two,
/// and the table costs 8 bytes per block.
pub(crate) const CRC_BLOCK: usize = 64 << 10;

/// Errors reading checkpoint images.
#[derive(Debug)]
pub enum ImageError {
    /// Payload CRC mismatch (corrupt or truncated image).
    BadCrc {
        /// Which section failed ("upper" or "meta").
        section: &'static str,
    },
    /// Not an image header (magic, version), or its section lengths
    /// disagree with the file's size.
    Format(FormatError),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::BadCrc { section } => write!(f, "CRC mismatch in {section} section"),
            ImageError::Format(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ImageError {}

impl From<FormatError> for ImageError {
    fn from(e: FormatError) -> Self {
        ImageError::Format(e)
    }
}

/// The header fields of an image that are not about its payloads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImageHead {
    /// World rank the image belongs to.
    pub rank: usize,
    /// World size at checkpoint time.
    pub world_size: usize,
    /// Checkpoint round.
    pub round: u64,
}

crate::wire!(ImageHead {
    rank,
    world_size,
    round
});

impl ImageHead {
    /// The one encoder of the image format: write the encodings of `upper`
    /// and `meta` into `buf` behind a header-sized gap, over the image the
    /// buffer held before — straight from the values, so a buffer a rank
    /// keeps across rounds allocates nothing once it has grown. The upper
    /// section is compared block by block as it is written — one pass,
    /// which costs what the plain copy did — and only the blocks whose
    /// bytes differ are copied and marked stale; the metadata section is
    /// encoded afresh. An upper half lent as `&mut` is a rank's tracked
    /// freeze: where the buffer holds its previous freeze's image, the
    /// windows no save changed since are skipped, not compared (see the
    /// module doc). The buffer records `self` for the header, which
    /// [`ImageBuf::seal`] writes, and which freeze, if any, wrote it.
    ///
    /// The buffer never keeps more than twice what it holds: an image that
    /// fills less than half the capacity shrinks the buffer to fit.
    pub fn encode_into<'a, 'u>(
        self,
        buf: &'a mut ImageBuf,
        upper: impl Into<UpperRef<'u>>,
        meta: &impl Encode,
    ) -> &'a mut ImageBuf {
        let bytes = &mut buf.bytes;
        if bytes.len() < HEADER_LEN {
            bytes.resize(HEADER_LEN, 0);
        }
        let mut w = Overwrite {
            start: HEADER_LEN,
            at: HEADER_LEN,
            old: bytes.len(),
            buf: bytes,
            table: Some(&mut buf.blocks),
        };
        buf.written_by = upper.into().write(&mut w, buf.written_by);
        let end = w.at;
        buf.upper_len = end - HEADER_LEN;
        buf.blocks.refit(buf.upper_len);
        bytes.truncate(end);
        meta.encode(bytes);
        if bytes.len() < bytes.capacity() / 2 {
            bytes.shrink_to_fit();
        }
        buf.head = self;
        buf.previous = buf.checksummed.take().map_or(buf.previous, |c| Some(c.0));
        buf
    }
}

/// What an image's header records: whose image of which round
/// ([`ImageHead`]), and each section's length and CRC-32. Behind the
/// image prefix (`IMAGE`) it is a flat file's header; behind the recipe
/// prefix it opens a recipe (`chunk::Recipe`). Every field is a `u64` on
/// disk but the CRCs, which are `u32`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageHeader {
    /// Rank, world size and round.
    pub head: ImageHead,
    /// Length of the upper section.
    pub upper_len: usize,
    /// Length of the metadata section.
    pub meta_len: usize,
    /// CRC-32 of the upper section.
    pub upper_crc: u32,
    /// CRC-32 of the metadata section.
    pub meta_crc: u32,
}

impl ImageHeader {
    /// The header of the flat image file `file`, whose sections must be
    /// exactly the rest of the file. No payload byte is read.
    pub(crate) fn of_file(file: &[u8]) -> Result<ImageHeader, ImageError> {
        let mut r = Reader::new(file);
        let header: ImageHeader = IMAGE.decode(&mut r)?;
        // Each section is taken from what is left, so a claimed length can
        // neither overflow the size arithmetic nor reach past the file.
        for len in [header.upper_len, header.meta_len] {
            r.take(len).map_err(|e| IMAGE.malformed(e))?;
        }
        r.finish().map_err(|e| IMAGE.malformed(e))?;
        Ok(header)
    }

    /// CRC-32 of the flat file `header ‖ upper ‖ meta`, from the encoded
    /// header and the section CRCs it carries: no payload byte is read.
    pub(crate) fn file_crc(&self, header: &[u8]) -> u32 {
        let crc = crc32_combine(crc32(header), self.upper_crc, self.upper_len as u64);
        crc32_combine(crc, self.meta_crc, self.meta_len as u64)
    }
}

crate::wire!(ImageHeader {
    head,
    upper_len,
    meta_len,
    upper_crc,
    meta_crc
});

/// A rank's kept image buffer: the bytes of the image last encoded into
/// it (header gap, upper section, metadata section), the [`ImageHead`] it
/// was encoded for, and the CRC-32 of each 64 KiB block of its upper
/// section, trusted block by block only while computed from the bytes the
/// block holds now (see the module doc). Only [`ImageHead::encode_into`]
/// (or restart's reader, or `CkptImage::buf`) writes the sections and only
/// [`ImageBuf::seal`] the header; everyone else reads. The store's write
/// routine takes this shape and its reader returns it.
#[derive(Default)]
#[cfg_attr(test, derive(Clone))]
pub struct ImageBuf {
    bytes: Vec<u8>,
    head: ImageHead,
    upper_len: usize,
    blocks: BlockCrcs,
    /// What `ImageBuf::checksum` found for the image encoded last, once it
    /// has run.
    checksummed: Option<(ImageHeader, usize)>,
    /// What it found for the last image checksummed before that one.
    previous: Option<ImageHeader>,
    /// The tracked freeze whose encode wrote the sections, if one did.
    written_by: Option<Stamp>,
}

impl ImageBuf {
    /// Size of the image it holds (header + payloads); 0 before the first
    /// encode.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True before the first encode.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The bytes it holds: the header (a gap until sealed) and both
    /// sections.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The allocation's capacity.
    pub fn capacity(&self) -> usize {
        self.bytes.capacity()
    }

    /// Whose image of which round it holds.
    pub fn head(&self) -> ImageHead {
        self.head
    }

    /// The serialized upper half and MANA metadata.
    pub fn sections(&self) -> (&[u8], &[u8]) {
        (self.bytes.get(HEADER_LEN..).unwrap_or_default()).split_at(self.upper_len)
    }

    /// `bytes` (a header gap and two sections) with every block stale.
    fn holding(head: ImageHead, upper_len: usize, bytes: Vec<u8>) -> ImageBuf {
        let mut blocks = BlockCrcs::default();
        blocks.refit(upper_len);
        ImageBuf {
            bytes,
            head,
            upper_len,
            blocks,
            ..ImageBuf::default()
        }
    }

    /// `bytes` — a header gap and the sections `header` measures — as a
    /// sealed buffer holds them: one pass fills every block CRC, and both
    /// section CRCs must be `header`'s. It stays checksummed, so the next
    /// encode records `header` as [`ImageBuf::previous`].
    pub(crate) fn verified(header: ImageHeader, bytes: Vec<u8>) -> Result<ImageBuf, ImageError> {
        assert_eq!(bytes.len(), HEADER_LEN + header.upper_len + header.meta_len);
        let mut buf = ImageBuf::holding(header.head, header.upper_len, bytes);
        let (found, _) = buf.checksum();
        let section = match found {
            _ if found.upper_crc != header.upper_crc => "upper",
            _ if found.meta_crc != header.meta_crc => "meta",
            _ => return Ok(buf),
        };
        Err(ImageError::BadCrc { section })
    }

    /// The image's header — the fields it was encoded for, and both
    /// sections' lengths and CRCs — with the payload bytes read for the
    /// CRCs: the upper section's comes from the block table, reading only
    /// the stale blocks, the metadata's from one full pass. Computed once
    /// per encode; a debug build checks the table's against a full pass.
    ///
    /// # Panics
    ///
    /// If no image was encoded into the buffer.
    pub(crate) fn checksum(&mut self) -> (ImageHeader, usize) {
        assert!(!self.is_empty(), "no image was encoded into this buffer");
        if let Some(done) = self.checksummed {
            return done;
        }
        let (upper, meta) = self.bytes[HEADER_LEN..].split_at(self.upper_len);
        let (upper_crc, read) = self.blocks.checksum(upper);
        let header = ImageHeader {
            head: self.head,
            upper_len: upper.len(),
            meta_len: meta.len(),
            upper_crc,
            meta_crc: crc32(meta),
        };
        #[cfg(debug_assertions)]
        {
            let crcs = (header.upper_crc, header.meta_crc);
            assert_eq!(
                crcs,
                (crc32(upper), crc32(meta)),
                "block CRC table out of date"
            );
        }
        let done = (header, read + meta.len());
        self.checksummed = Some(done);
        done
    }

    /// Seal the image in place — the header from `ImageBuf::checksum`
    /// behind the prefix, into the gap — and return the file and its
    /// CRC-32, combined from the header's and the sections'
    /// ([`crc32_combine`]), so no payload byte is read for it.
    pub fn seal(&mut self) -> (&[u8], u32) {
        let (header, _) = self.checksum();
        let mut encoded = Vec::with_capacity(HEADER_LEN);
        IMAGE.encode(&header, &mut encoded);
        self.bytes[..HEADER_LEN].copy_from_slice(&encoded);
        (&self.bytes, header.file_crc(&encoded))
    }

    /// Once this image is checksummed, the header of the one checksummed
    /// before it: what [`ImageBuf::unchanged`] is measured from.
    pub(crate) fn previous(&self) -> Option<ImageHeader> {
        self.checksummed.and(self.previous)
    }

    /// Whether the upper-section bytes `span` are as they were at the
    /// [`ImageBuf::previous`] checksum (every block it touches was fresh).
    pub(crate) fn unchanged(&self, span: Range<usize>) -> bool {
        let was = |k: usize| self.blocks.each.get(k).is_some_and(|block| block.was);
        let mut blocks = span.start / CRC_BLOCK..span.end.div_ceil(CRC_BLOCK);
        self.previous().is_some() && !span.is_empty() && blocks.all(was)
    }

    /// Whether no upper-section block is as it was at the
    /// [`ImageBuf::previous`] checksum: an image rewritten since it, which
    /// shares no block with the image before.
    pub(crate) fn rewritten(&self) -> bool {
        self.previous().is_some() && self.blocks.each.iter().all(|block| !block.was)
    }
}

/// The one reader of a flat image file: the file itself is the buffer.
impl TryFrom<Vec<u8>> for ImageBuf {
    type Error = ImageError;

    fn try_from(file: Vec<u8>) -> Result<ImageBuf, ImageError> {
        ImageBuf::verified(ImageHeader::of_file(&file)?, file)
    }
}

impl fmt::Debug for ImageBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ImageBuf")
            .field("bytes", &self.bytes.len())
            .field("upper_len", &self.upper_len)
            .finish()
    }
}

/// The CRC-32s of an upper section's `CRC_BLOCK`-byte blocks.
#[derive(Debug, Default)]
#[cfg_attr(test, derive(Clone))]
struct BlockCrcs {
    /// Length of the section the table is fitted to.
    len: usize,
    each: Vec<Block>,
}

/// One block's CRC-32, trusted only while `fresh`.
#[derive(Debug, Default, Clone, Copy)]
struct Block {
    crc: u32,
    fresh: bool,
    /// `fresh` as the last `checksum` found it.
    was: bool,
}

impl BlockCrcs {
    /// Block `k`'s bytes changed (a block past the table is no-one's).
    fn stale(&mut self, k: usize) {
        if let Some(block) = self.each.get_mut(k) {
            block.fresh = false;
        }
    }

    /// Fit the table to a section of `len` bytes. A block keeps its CRC
    /// only if it covers the same bytes as before: the blocks both lengths
    /// fill do; from the first block either leaves short, none does.
    fn refit(&mut self, len: usize) {
        let blocks = len.div_ceil(CRC_BLOCK);
        self.each.resize(blocks, Block::default());
        if len != self.len {
            (len.min(self.len) / CRC_BLOCK..blocks).for_each(|k| self.stale(k));
            self.len = len;
        }
    }

    /// The CRC-32 of `section` (the `len` bytes the table is fitted to):
    /// each stale block checksummed and marked fresh, then every block's
    /// CRC joined in order, one multiply per full block. Returns it with
    /// the bytes checksummed.
    fn checksum(&mut self, section: &[u8]) -> (u32, usize) {
        assert_eq!(section.len(), self.len, "table fitted to another section");
        let full = CrcShift::of(CRC_BLOCK as u64);
        let (mut crc, mut read) = (0, 0);
        for (block, bytes) in self.each.iter_mut().zip(section.chunks(CRC_BLOCK)) {
            block.was = block.fresh;
            if !block.fresh {
                (block.crc, block.fresh) = (crc32(bytes), true);
                read += bytes.len();
            }
            crc = match bytes.len() {
                CRC_BLOCK => full.join(crc, block.crc),
                short => crc32_combine(crc, block.crc, short as u64),
            };
        }
        (crc, read)
    }
}

/// The writer of an upper section: appends an encoding to a buffer, or —
/// over bytes the buffer already holds — compares it with them, copying
/// and staling in the section's block table only the blocks that differ.
/// What [`UpperHalf`](crate::UpperHalf) encodes through, into a rank's
/// [`ImageBuf`] or (with no table and nothing to compare) onto any
/// `Vec<u8>`.
pub(crate) struct Overwrite<'a> {
    buf: &'a mut Vec<u8>,
    /// Where the section starts (its block 0's first byte).
    start: usize,
    /// Where the next byte goes.
    at: usize,
    /// End of the bytes held before: the writer compares below it and
    /// appends at or above it.
    old: usize,
    table: Option<&'a mut BlockCrcs>,
}

impl<'a> Overwrite<'a> {
    /// A writer that appends to `out`.
    pub(crate) fn append(out: &'a mut Vec<u8>) -> Overwrite<'a> {
        let end = out.len();
        Overwrite {
            buf: out,
            start: end,
            at: end,
            old: end,
            table: None,
        }
    }

    /// Make room for `len` more bytes at the cursor.
    pub(crate) fn reserve(&mut self, len: usize) {
        let short = (self.at + len).saturating_sub(self.buf.len());
        self.buf.reserve(short);
    }

    /// Write `bytes` at the cursor.
    pub(crate) fn put(&mut self, mut bytes: &[u8]) {
        while self.at < self.old && !bytes.is_empty() {
            let off = self.at - self.start;
            let n = (CRC_BLOCK - off % CRC_BLOCK)
                .min(self.old - self.at)
                .min(bytes.len());
            let (now, rest) = bytes.split_at(n);
            let held = &mut self.buf[self.at..self.at + n];
            if held != now {
                held.copy_from_slice(now);
                if let Some(table) = self.table.as_deref_mut() {
                    table.stale(off / CRC_BLOCK);
                }
            }
            self.at += n;
            bytes = rest;
        }
        self.buf.extend_from_slice(bytes);
        self.at += bytes.len();
    }

    /// Move the cursor over `bytes`, which the buffer already holds at it:
    /// no compare, no copy, no block staled. A debug build makes the
    /// compare [`Overwrite::put`] would have made, so every skipping encode
    /// is checked against a full one.
    pub(crate) fn skip(&mut self, bytes: &[u8]) {
        let end = self.at + bytes.len();
        debug_assert!(end <= self.old, "skipped past the bytes held");
        debug_assert!(
            self.buf[self.at..end] == *bytes,
            "skipped a window that changed"
        );
        self.at = end;
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

    /// This image as the store's write routine takes it: its two sections
    /// copied behind a header gap into a fresh [`ImageBuf`], whose empty
    /// block table leaves every block stale.
    pub(crate) fn buf(&self) -> ImageBuf {
        let mut bytes = Vec::with_capacity(self.size_bytes());
        bytes.resize(HEADER_LEN, 0);
        bytes.extend_from_slice(&self.upper);
        bytes.extend_from_slice(&self.meta);
        ImageBuf::holding(self.head(), self.upper.len(), bytes)
    }

    /// Serialize to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_with_crc().0
    }

    /// Serialize to bytes, and return the file's CRC-32 with them: the
    /// image in a fresh buffer (`CkptImage::buf`), sealed in place
    /// ([`ImageBuf::seal`]).
    pub fn to_bytes_with_crc(&self) -> (Vec<u8>, u32) {
        let mut buf = self.buf();
        let crc = buf.seal().1;
        (buf.bytes, crc)
    }

    /// Parse from bytes, verifying magic, version, sizes, and CRCs.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, ImageError> {
        ImageBuf::try_from(buf.to_vec()).map(|image| CkptImage::from(&image))
    }
}

/// The image a buffer holds, copied out of it.
impl From<&ImageBuf> for CkptImage {
    fn from(buf: &ImageBuf) -> CkptImage {
        let (upper, meta) = buf.sections();
        let head = buf.head;
        CkptImage {
            rank: head.rank,
            world_size: head.world_size,
            round: head.round,
            upper: upper.to_vec(),
            meta: meta.to_vec(),
        }
    }
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
            let header = ImageHeader::of_file(&bytes).unwrap();
            assert_eq!(header.file_crc(&bytes[..HEADER_LEN]), crc, "read side");
            let back = ImageBuf::verified(header, bytes).unwrap();
            assert_eq!(CkptImage::from(&back), img);
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
        let mut kept = ImageBuf::default();
        // Largest first, so every later encode reuses a buffer with room
        // to spare (and must leave none of the earlier image behind).
        for (round, &len) in sizes.iter().rev().enumerate() {
            let (upper, meta, want) = state(len, round as u64);
            let (want_file, want_crc) = want.to_bytes_with_crc();
            for reused in [false, true] {
                let mut fresh = ImageBuf::default();
                let buf = if reused { &mut kept } else { &mut fresh };
                let encoded = want.head().encode_into(buf, &upper, &meta);
                assert_eq!(encoded.sections(), (&want.upper[..], &want.meta[..]));
                assert_eq!(encoded.len(), want.size_bytes());
                let (file, crc) = encoded.seal();
                assert_eq!((file, crc), (&want_file[..], want_crc), "{len} B");
                assert_eq!(crc, crc32(file));
            }
            assert_eq!(kept.bytes(), want_file, "no stale tail after {len} B");
        }
    }

    #[test]
    fn a_same_size_encode_reuses_the_buffer_in_place() {
        let (upper, meta, image) = state((2 << 20) + 37, 1);
        let mut buf = ImageBuf::default();
        image.head().encode_into(&mut buf, &upper, &meta).seal();
        let (ptr, cap) = (buf.bytes().as_ptr(), buf.capacity());
        let (file, _) = image.head().encode_into(&mut buf, &upper, &meta).seal();
        assert_eq!(file, image.to_bytes());
        assert_eq!((buf.bytes().as_ptr(), buf.capacity()), (ptr, cap));
    }

    #[test]
    fn an_image_under_half_the_capacity_shrinks_the_buffer() {
        let (big_upper, big_meta, big) = state(64 << 10, 0);
        let mut buf = ImageBuf::default();
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

    /// The payload bytes the next seal of `buf` checksums, and the file.
    fn seal_read(buf: &mut ImageBuf, head: ImageHead, upper: &UpperHalf) -> (usize, Vec<u8>) {
        let image = head.encode_into(buf, upper, &7u64);
        let read = image.checksum().1;
        (read, image.seal().0.to_vec())
    }

    #[test]
    fn only_the_blocks_an_encode_rewrote_are_checksummed_again() {
        let (mut upper, _, image) = state(4 * CRC_BLOCK, 0);
        let head = image.head();
        let mut buf = ImageBuf::default();
        let meta = 8;
        let all = image.upper.len() + meta;
        assert_eq!(seal_read(&mut buf, head, &upper).0, all, "first round");
        assert_eq!(seal_read(&mut buf, head, &upper).0, meta, "unchanged");
        // One byte in the section's third block (the segment's payload
        // starts 29 bytes into it: count, name length, name, length).
        upper.segment_mut("state")[2 * CRC_BLOCK] ^= 1;
        let (read, file) = seal_read(&mut buf, head, &upper);
        assert_eq!(read, CRC_BLOCK + meta, "one block");
        assert_eq!(file, CkptImage::from_bytes(&file).unwrap().to_bytes());
        // One byte more: the last block now ends elsewhere.
        upper.segment_mut("state").push(0);
        let (read, _) = seal_read(&mut buf, head, &upper);
        // The segment's length field (block 0) and the last block.
        assert_eq!(read, CRC_BLOCK + 30 + meta, "the length and the last block");
        // An encode that was never sealed leaves its blocks stale.
        upper.segment_mut("state")[10] ^= 1;
        head.encode_into(&mut buf, &upper, &7u64);
        upper.segment_mut("state")[3 * CRC_BLOCK] ^= 1;
        assert_eq!(seal_read(&mut buf, head, &upper).0, 2 * CRC_BLOCK + meta);
    }

    #[test]
    fn a_buffer_read_back_is_the_sealed_buffer_it_was_written_from() {
        for (len, flat) in [(0, true), (1 << 10, false), ((2 << 20) + 37, true)] {
            let (upper, meta, image) = state(len, 3);
            let (file, crc) = image.to_bytes_with_crc();
            let header = ImageHeader::of_file(&file).unwrap();
            let mut back = match flat {
                true => ImageBuf::try_from(file.clone()).unwrap(),
                // A chunked image is assembled behind a zero gap.
                false => {
                    let mut bytes = file.clone();
                    bytes[..HEADER_LEN].fill(0);
                    ImageBuf::verified(header, bytes).unwrap()
                }
            };
            assert_eq!(CkptImage::from(&back), image);
            assert_eq!(
                back.checksum(),
                (header, image.upper.len() + image.meta.len())
            );
            // The next encode of the same state rewrites nothing: its seal
            // reads the metadata alone, in the same allocation, and the
            // image read back is the previous checksum's.
            let (ptr, cap) = (back.bytes().as_ptr(), back.capacity());
            let next = image.head().encode_into(&mut back, &upper, &meta);
            assert_eq!(next.checksum().1, image.meta.len(), "{len} B");
            assert_eq!(next.previous(), Some(header));
            assert!(next.unchanged(0..image.upper.len()));
            assert_eq!(next.seal(), (&file[..], crc));
            assert_eq!((back.bytes().as_ptr(), back.capacity()), (ptr, cap));
        }
    }

    use proptest::prelude::*;

    /// One step of a rank's life between two encodes (see
    /// `the_block_table_never_lies`), decoded from four numbers.
    fn step(upper: &mut UpperHalf, buf: &mut ImageBuf, (op, a, b, v): (u8, u32, u32, u8)) {
        let slab_len = upper.segment("slab").map_or(0, <[u8]>::len);
        let ahead = format!("a{}", a % 4);
        match op {
            // Rewrite a range of the slab.
            0 | 1 => {
                let start = a as usize % slab_len.max(1);
                let end = (start + b as usize % (2 * CRC_BLOCK)).min(slab_len);
                upper.segment_mut("slab")[start..end].fill(v);
            }
            // Grow or shrink the slab, or a segment ahead of it.
            2 => upper
                .segment_mut("slab")
                .resize(a as usize % (4 * CRC_BLOCK), v),
            3 => upper.segment_mut(&ahead).resize(b as usize % 300, v),
            // Insert or remove a segment ahead of the slab.
            4 => upper.write_segment(&ahead, vec![v; b as usize % 100]),
            5 => {
                upper.remove_segment(&ahead);
            }
            // A restore into an empty buffer.
            6 => *buf = ImageBuf::default(),
            // A save through `write_segment`, as the application makes
            // one: a range of the slab rewritten, or a segment ahead of it
            // replaced.
            9 => {
                let mut slab = upper.segment("slab").unwrap_or_default().to_vec();
                let start = a as usize % slab_len.max(1);
                let end = (start + b as usize % (2 * CRC_BLOCK)).min(slab_len);
                slab[start..end].fill(v);
                upper.write_segment("slab", slab);
            }
            10 => upper.write_segment(&ahead, vec![v; b as usize % 100]),
            // A restart: the buffer is what the reader makes of a sealed
            // image of the rank's state — the flat file itself (7), or its
            // sections assembled behind a zero gap (8).
            _ => {
                let head = ImageHead {
                    rank: 1,
                    world_size: 2,
                    round: 0,
                };
                let meta = vec![v; b as usize % 70];
                let mut sealed = ImageBuf::default();
                let file = head.encode_into(&mut sealed, upper, &meta).seal().0;
                let mut file = file.to_vec();
                *buf = match op {
                    7 => ImageBuf::try_from(file).unwrap(),
                    _ => {
                        let header = ImageHeader::of_file(&file).unwrap();
                        file[..HEADER_LEN].fill(0);
                        ImageBuf::verified(header, file).unwrap()
                    }
                };
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// After any sequence of edits, resizes, segment inserts and
        /// removals ahead of the slab, saves through `write_segment`,
        /// buffer drops, restarts into a buffer read back from a flat file
        /// or an assembled recipe, and skipped seals, every seal's section
        /// CRCs and file CRC are those of its bytes — whether the encode
        /// compared every block or was a rank's tracked freeze.
        #[test]
        fn the_block_table_never_lies(
            steps in proptest::collection::vec(
                ((0u8..11, any::<u32>(), any::<u32>(), any::<u8>()), any::<bool>(), any::<bool>()),
                1..10,
            ),
        ) {
            let mut upper = UpperHalf::new();
            let slab = (0..3 * CRC_BLOCK as u32 + 77).map(|i| (i.wrapping_mul(31) >> 3) as u8);
            upper.write_segment("slab", slab.collect());
            let mut buf = ImageBuf::default();
            for (round, (op, sealed, tracked)) in steps.into_iter().enumerate() {
                step(&mut upper, &mut buf, op);
                let head = ImageHead { rank: 1, world_size: 2, round: round as u64 };
                let meta = vec![op.3; op.1 as usize % 70];
                let image = match tracked {
                    true => head.encode_into(&mut buf, &mut upper, &meta),
                    false => head.encode_into(&mut buf, &upper, &meta),
                };
                // A store-less job never seals.
                if !sealed {
                    continue;
                }
                let (file, crc) = image.seal();
                let (upper_len, meta_len) = (upper.to_bytes().len(), meta.to_bytes().len());
                let (u, m) = file[HEADER_LEN..].split_at(upper_len);
                prop_assert_eq!(m.len(), meta_len);
                prop_assert_eq!(&file[52..56], &crc32(u).to_le_bytes()[..]);
                prop_assert_eq!(&file[56..60], &crc32(m).to_le_bytes()[..]);
                prop_assert_eq!(crc, crc32(file));
                prop_assert_eq!(u, &upper.to_bytes()[..]);
            }
        }
    }

    /// Which upper blocks of `buf` are stale.
    fn stale(buf: &ImageBuf) -> Vec<bool> {
        buf.blocks.each.iter().map(|block| !block.fresh).collect()
    }

    /// One step of a rank's life between two tracked freezes (see
    /// `a_tracked_freeze_is_a_full_encode`), decoded from four numbers.
    /// Returns whether the next freeze must skip the windows no save
    /// changed (`Some(true)`), must compare every block (`Some(false)`),
    /// or either may be right (`None`).
    fn save_step(
        upper: &mut UpperHalf,
        others: &mut (UpperHalf, ImageBuf),
        buf: &mut ImageBuf,
        (op, a, b, v): (u8, u32, u32, u8),
    ) -> Option<bool> {
        let head = ImageHead {
            rank: 1,
            world_size: 2,
            round: 9,
        };
        let name = ["a_head", "slab", "z_tail"][b as usize % 3];
        let mut bytes = upper.segment(name).unwrap_or_default().to_vec();
        let at = a as usize % bytes.len().max(1);
        let window = at..(at + b as usize % CRC_BLOCK).min(bytes.len());
        match op {
            // Same-length saves that change nothing, a window, every window.
            0 => upper.write_segment(name, bytes),
            1 => {
                bytes[window].fill(v);
                upper.write_segment(name, bytes);
            }
            2 => {
                bytes.iter_mut().for_each(|x| *x ^= v | 1);
                upper.write_segment(name, bytes);
            }
            // A change and then its revert.
            3 => {
                let mut changed = bytes.clone();
                changed[window].iter_mut().for_each(|x| *x ^= 1);
                upper.write_segment(name, changed);
                upper.write_segment(name, bytes);
            }
            // A write nobody sees, the segment's length kept.
            4 => {
                if let Some(x) = upper.segment_mut(name).get_mut(at) {
                    *x ^= v | 1;
                }
            }
            // A resize; a segment inserted or removed.
            5 => {
                bytes.resize(bytes.len() + 1 + a as usize % 300, v);
                upper.write_segment(name, bytes);
                return Some(false);
            }
            6 => {
                bytes.truncate(bytes.len().saturating_sub(1 + a as usize % 300));
                upper.segment_mut(name).clone_from(&bytes);
            }
            7 => upper.write_value(&format!("n{}", a % 3), &u64::from(v)),
            8 => {
                upper.remove_segment(&format!("n{}", a % 3));
            }
            // A clone; a restart: a decoded upper half and the buffer the
            // reader verified.
            9 => *upper = upper.clone(),
            10 => {
                let mut sealed = ImageBuf::default();
                let file = head.encode_into(&mut sealed, &*upper, &7u64).seal().0;
                *buf = ImageBuf::try_from(file.to_vec()).unwrap();
                *upper = UpperHalf::from_bytes(buf.sections().0).unwrap();
            }
            // A buffer last written by another upper half's freeze, or by
            // an encode that compared.
            11 => {
                let (other, _) = others;
                other.write_segment("slab", vec![v; a as usize % (2 * CRC_BLOCK)]);
                head.encode_into(buf, other, &7u64).seal();
            }
            12 => {
                head.encode_into(buf, &*upper, &7u64).seal();
            }
            // This upper half's last freeze went to another buffer.
            13 => {
                let (_, spare) = others;
                head.encode_into(spare, &mut *upper, &7u64);
                bytes[window].fill(v);
                upper.write_segment(name, bytes);
            }
            // An empty buffer: a flush that panicked lends none back.
            _ => *buf = ImageBuf::default(),
        }
        match op {
            0..=4 => Some(true),
            9.. => Some(false),
            _ => None,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A rank's tracked freeze writes what an encode comparing every
        /// block writes into the same buffer: the upper half's bytes, and
        /// exactly the stale blocks the compare marks. It skips the
        /// unchanged windows exactly when the buffer holds its previous
        /// freeze's image in the same layout.
        #[test]
        fn a_tracked_freeze_is_a_full_encode(
            steps in proptest::collection::vec(
                ((0u8..15, any::<u32>(), any::<u32>(), any::<u8>()), any::<bool>()),
                1..12,
            ),
        ) {
            let fill = |len: u32, salt: u32| -> Vec<u8> {
                (0..len).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8 ^ salt as u8).collect()
            };
            let mut upper = UpperHalf::new();
            upper.write_segment("a_head", fill(100, 1));
            upper.write_segment("slab", fill(3 * CRC_BLOCK as u32 + 77, 2));
            upper.write_segment("z_tail", fill(CRC_BLOCK as u32 + 5, 3));
            let mut others = (upper.clone(), ImageBuf::default());
            let mut buf = ImageBuf::default();
            let head = ImageHead { rank: 1, world_size: 2, round: 0 };
            head.encode_into(&mut buf, &mut upper, &7u64).seal();
            for (op, sealed) in steps {
                let skips = save_step(&mut upper, &mut others, &mut buf, op);
                if let Some(skips) = skips {
                    prop_assert_eq!(upper.skips(buf.written_by), skips, "op {}", op.0);
                }
                let mut compared = buf.clone();
                head.encode_into(&mut compared, &upper, &7u64);
                let frozen = head.encode_into(&mut buf, &mut upper, &7u64);
                prop_assert_eq!(frozen.sections().0, &upper.to_bytes()[..]);
                prop_assert_eq!(frozen.bytes(), compared.bytes());
                prop_assert_eq!(stale(frozen), stale(&compared));
                if sealed {
                    prop_assert_eq!(frozen.seal(), compared.seal());
                }
            }
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
            Err(ImageError::Format(FormatError::BadMagic(_)))
        ));
        let bytes = sample().to_bytes();
        assert!(matches!(
            CkptImage::from_bytes(&bytes[..bytes.len() - 1]),
            Err(ImageError::Format(FormatError::Malformed(..)))
        ));
        assert!(matches!(
            CkptImage::from_bytes(&bytes[..10]),
            Err(ImageError::Format(FormatError::Malformed(..)))
        ));
    }

    #[test]
    fn overflowing_header_lengths_rejected() {
        // Adversarial header whose claimed lengths wrap usize: must come
        // back malformed, not overflow the size arithmetic.
        let mut bytes = sample().to_bytes();
        bytes[36..44].copy_from_slice(&u64::MAX.to_le_bytes()); // upper_len
        bytes[44..52].copy_from_slice(&u64::MAX.to_le_bytes()); // meta_len
        assert!(matches!(
            CkptImage::from_bytes(&bytes),
            Err(ImageError::Format(FormatError::Malformed(..)))
        ));
    }
}
