//! The one binary grammar of everything the checkpoint writes.
//!
//! The offline dependency set has no serde *format* crate, so checkpoint
//! serialization is a small hand-rolled codec: little-endian, length-
//! prefixed, no self-description. Every MANA table that must survive the
//! checkpoint-restart barrier implements [`Encode`]/[`Decode`], and so
//! does every file the store writes (DESIGN §7, "Files on disk"): each is
//! one `Format` — a fixed prefix (magic and version, so a format bump is
//! one constant per file) and, but for the flat image, a CRC-32 trailer
//! checked before anything is decoded — and refused with one
//! [`FormatError`].

use std::collections::BTreeMap;
use std::fmt;

/// Codec failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Ran out of bytes mid-value.
    UnexpectedEof {
        /// Bytes needed by the failing read.
        needed: usize,
        /// Bytes remaining.
        remaining: usize,
    },
    /// An enum discriminant or sentinel byte was invalid.
    InvalidTag(u8),
    /// A declared length was implausible for the remaining input.
    BadLength(u64),
    /// A string was not valid UTF-8.
    BadUtf8,
    /// Trailing bytes remained after a complete decode.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected EOF: needed {needed} bytes, {remaining} remain"
                )
            }
            CodecError::InvalidTag(t) => write!(f, "invalid tag byte {t}"),
            CodecError::BadLength(l) => write!(f, "implausible length {l}"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Cursor over a byte buffer being decoded.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Fail if any bytes remain (top-level decode completeness check).
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            Err(CodecError::TrailingBytes(self.remaining()))
        } else {
            Ok(())
        }
    }
}

/// A value that can be serialized into a checkpoint image.
pub trait Encode {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Append the encodings of `items`, in order and with no length
    /// prefix (in the style of `Hash::hash_slice`): what `Vec<T>` calls
    /// for its elements. The default encodes them one by one; a type whose
    /// encoding is its memory (`u8`) overrides it with one bulk copy.
    fn encode_slice(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for v in items {
            v.encode(out);
        }
    }

    /// Convenience: encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::new();
        self.encode(&mut v);
        v
    }
}

/// A value that can be deserialized from a checkpoint image.
pub trait Decode: Sized {
    /// The fewest bytes one encoded value takes (at least 1). A `Vec<T>`
    /// refuses a count that the bytes left cannot hold at this size
    /// before it reserves anything.
    const MIN_LEN: usize = 1;

    /// Read one value from the cursor.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Read `len` consecutive values: the counterpart of
    /// [`Encode::encode_slice`], what `Vec<T>` calls after it has read and
    /// bounded its length prefix. The default decodes them one by one.
    fn decode_vec(r: &mut Reader<'_>, len: usize) -> Result<Vec<Self>, CodecError> {
        let mut out = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            out.push(Self::decode(r)?);
        }
        Ok(out)
    }

    /// Convenience: decode a whole buffer, requiring full consumption.
    fn from_bytes(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

macro_rules! impl_codec_int {
    ($t:ty) => {
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Decode for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();

            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(<$t>::from_le_bytes(
                    r.take(std::mem::size_of::<$t>())?.try_into().unwrap(),
                ))
            }
        }
    };
}

impl_codec_int!(u16);
impl_codec_int!(u32);
impl_codec_int!(u64);
impl_codec_int!(i32);
impl_codec_int!(i64);
impl_codec_int!(f64);

/// A byte is its own encoding, so a run of them moves as one copy: the
/// byte path every `Vec<u8>` payload (upper-half segments, drained
/// messages, window regions) takes through `Vec<T>`.
impl Encode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn encode_slice(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
}
impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(r.take(1)?[0])
    }

    fn decode_vec(r: &mut Reader<'_>, len: usize) -> Result<Vec<u8>, CodecError> {
        Ok(r.take(len)?.to_vec())
    }
}

impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
}
impl Decode for usize {
    const MIN_LEN: usize = u64::MIN_LEN;

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(u64::decode(r)? as usize)
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}
impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::InvalidTag(t)),
        }
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
}
impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = u64::decode(r)?;
        if len as usize > r.remaining() {
            return Err(CodecError::BadLength(len));
        }
        std::str::from_utf8(r.take(len as usize)?)
            .map(|s| s.to_owned())
            .map_err(|_| CodecError::BadUtf8)
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        T::encode_slice(self, out);
    }
}
impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = u64::decode(r)?;
        if len > (r.remaining() / T::MIN_LEN) as u64 {
            return Err(CodecError::BadLength(len));
        }
        T::decode_vec(r, len as usize)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}
impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(CodecError::InvalidTag(t)),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}
impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
}
impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<K: Encode + Ord, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
}
impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = u64::decode(r)?;
        if len as usize > r.remaining() && len > 0 {
            return Err(CodecError::BadLength(len));
        }
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

/// Why a file the store writes was refused: the one error of every
/// parser of those files (flat image header, recipe, manifest, journal
/// record). Each variant names the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// It does not start with its magic.
    BadMagic(&'static str),
    /// Its version (the `u32`) is not the one this build reads.
    BadVersion(&'static str, u32),
    /// Its CRC-32 trailer does not match its body: a torn or rotted file
    /// (every truncation of a trailered file lands here).
    BadChecksum(&'static str),
    /// It does not decode to exactly one value: it ends early, holds a
    /// count or tag it cannot, or runs on past the value.
    Malformed(&'static str, CodecError),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::BadMagic(file) => write!(f, "not a MANA-2.0 {file}"),
            FormatError::BadVersion(file, v) => write!(f, "unsupported {file} version {v}"),
            FormatError::BadChecksum(file) => write!(f, "{file} CRC mismatch"),
            FormatError::Malformed(file, cause) => write!(f, "{file} malformed: {cause}"),
        }
    }
}

impl std::error::Error for FormatError {}

/// One kind of file the store writes: the name its errors give it, and
/// the fixed prefix it opens with — an 8-byte magic, then the one `u32`
/// version this build reads and writes (none for a journal record, whose
/// blob name says what it is).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Format {
    /// Name of the file kind in errors.
    pub(crate) file: &'static str,
    /// Its magic and version, written ahead of the value.
    pub(crate) prefix: Option<([u8; 8], u32)>,
}

impl Format {
    /// Append the prefix, then `value`.
    pub(crate) fn encode(&self, value: &impl Encode, out: &mut Vec<u8>) {
        if let Some((magic, version)) = self.prefix {
            out.extend_from_slice(&magic);
            version.encode(out);
        }
        value.encode(out);
    }

    /// Check the prefix, then decode one value.
    pub(crate) fn decode<T: Decode>(&self, r: &mut Reader<'_>) -> Result<T, FormatError> {
        if let Some((magic, version)) = self.prefix {
            if r.take(8).map_err(|e| self.malformed(e))? != magic {
                return Err(FormatError::BadMagic(self.file));
            }
            let found = u32::decode(r).map_err(|e| self.malformed(e))?;
            if found != version {
                return Err(FormatError::BadVersion(self.file, found));
            }
        }
        T::decode(r).map_err(|e| self.malformed(e))
    }

    /// The whole file of `value` under a CRC-32 trailer:
    /// `body ‖ crc32(body)`, the body being the prefix and the value.
    pub(crate) fn seal(&self, value: &impl Encode) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(value, &mut out);
        crc32(&out).encode(&mut out);
        out
    }

    /// Open a file [`Format::seal`] wrote: its length and CRC-32 are
    /// checked before anything is decoded, then the prefix and the value,
    /// which must take the whole body.
    pub(crate) fn open<T: Decode>(&self, bytes: &[u8]) -> Result<T, FormatError> {
        let (body, crc) = bytes.split_at(bytes.len().saturating_sub(4));
        if crc32(body) != u32::from_bytes(crc).map_err(|e| self.malformed(e))? {
            return Err(FormatError::BadChecksum(self.file));
        }
        let mut r = Reader::new(body);
        let value = self.decode(&mut r)?;
        r.finish().map_err(|e| self.malformed(e))?;
        Ok(value)
    }

    /// This file's [`FormatError::Malformed`].
    pub(crate) fn malformed(&self, cause: CodecError) -> FormatError {
        FormatError::Malformed(self.file, cause)
    }
}

/// Reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 lookup tables. `CRC_TABLES[0]` is the classic
/// byte-at-a-time table; `CRC_TABLES[k][b]` is the CRC contribution of
/// byte `b` followed by `k` zero bytes, which is what lets sixteen input
/// bytes be folded with sixteen independent loads per step.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                (c >> 1) ^ CRC_POLY
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][b] = c;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// Buffers at least this long are folded as [`LANES`] interleaved lanes.
/// Joining them costs a fixed ≈ 0.1 µs (the power of x and three
/// carry-less multiplies, about one `crc32_combine`), which the lanes only
/// repay from ≈ 512 bytes; at 4 KiB they take 1.2 µs against the single
/// lane's 2.5. 4 KiB is also the smallest chunk, so every payload-sized
/// checksum clears it, while manifests, recipes, journal frames and 1 KiB
/// images keep the loop they always had.
const LANE_MIN: usize = 4096;

/// Lanes in flight. Each lane is one serial chain of table loads: two
/// chains read ≈ 2.9 GB/s on 2 MiB, three or four ≈ 3.6, eight ≈ 2.6 (the
/// sixteen-load steps of eight chains no longer fit in registers).
const LANES: usize = 4;

/// Streaming CRC-32 (IEEE 802.3, reflected): feed a payload piece by
/// piece with [`update`](Crc32::update) and read the checksum with
/// [`finish`](Crc32::finish). Any split of the same bytes yields the same
/// value as one [`crc32`] call over their concatenation.
///
/// The kernel is slicing-by-16: one table load per input byte. One lane
/// of it is latency-bound — every 16-byte step waits on the previous
/// step's CRC — and reads ≈ 1.7–1.9 GB/s. A buffer of at least `LANE_MIN`
/// bytes is therefore cut into four contiguous lanes of equal length (a
/// multiple of 16) that advance in lockstep, so four dependency chains
/// overlap, and a tail of fewer than 64 bytes that follows on one lane.
/// The first lane starts from the running state and the others from zero;
/// a CRC register is linear, so lane `i + 1` is joined by multiplying the
/// running register by x^(8·lane length) mod P and adding the lane's
/// register — the power is computed once per call, then one multiply per
/// lane. That reads ≈ 3.8 GB/s on a 2 MiB buffer (2-vCPU x86-64 host,
/// `integrity_kernels`), close to what one table load per byte allows;
/// memcpy runs at ≈ 10–14 GB/s on the same core.
///
/// Neither hardware CRC is used: SSE4.2's `crc32` instruction computes
/// CRC-32C (Castagnoli), a different polynomial, so adopting it changes
/// every checksum on disk; PCLMULQDQ folding needs `unsafe` intrinsics and
/// runtime feature dispatch, and every crate forbids `unsafe`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Checksum of the empty input so far.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Fold `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        if data.len() < LANE_MIN {
            self.state = fold(self.state, data);
            return;
        }
        let lane = data.len() / (16 * LANES) * 16;
        let (lanes, tail) = data.split_at(LANES * lane);
        let (blocks, _) = lanes.as_chunks::<16>();
        let (b0, rest) = blocks.split_at(lane / 16);
        let (b1, rest) = rest.split_at(lane / 16);
        let (b2, b3) = rest.split_at(lane / 16);
        let mut c = [self.state, 0, 0, 0];
        for (((x0, x1), x2), x3) in b0.iter().zip(b1).zip(b2).zip(b3) {
            c[0] = fold16(c[0], x0);
            c[1] = fold16(c[1], x1);
            c[2] = fold16(c[2], x2);
            c[3] = fold16(c[3], x3);
        }
        let shift = x_pow_8n(lane as u64);
        let joined = c[1..]
            .iter()
            .fold(c[0], |acc, &lane_crc| mul_mod_p(shift, acc) ^ lane_crc);
        self.state = fold(joined, tail);
    }

    /// The checksum of everything fed so far.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// One slicing-by-16 step: the register after `crc` has absorbed `b`.
#[inline(always)]
fn fold16(crc: u32, b: &[u8; 16]) -> u32 {
    let t = &CRC_TABLES;
    // The running CRC only touches the first four bytes of the block; the
    // other twelve index their tables directly. Every index is a `u8`, so
    // the table loads need no bounds checks.
    let lo = (crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]])).to_le_bytes();
    t[15][lo[0] as usize]
        ^ t[14][lo[1] as usize]
        ^ t[13][lo[2] as usize]
        ^ t[12][lo[3] as usize]
        ^ t[11][b[4] as usize]
        ^ t[10][b[5] as usize]
        ^ t[9][b[6] as usize]
        ^ t[8][b[7] as usize]
        ^ t[7][b[8] as usize]
        ^ t[6][b[9] as usize]
        ^ t[5][b[10] as usize]
        ^ t[4][b[11] as usize]
        ^ t[3][b[12] as usize]
        ^ t[2][b[13] as usize]
        ^ t[1][b[14] as usize]
        ^ t[0][b[15] as usize]
}

/// The single-lane loop: 16-byte steps, then the tail a byte at a time.
fn fold(mut crc: u32, data: &[u8]) -> u32 {
    let (blocks, tail) = data.as_chunks::<16>();
    for b in blocks {
        crc = fold16(crc, b);
    }
    for &byte in tail {
        crc = (crc >> 8) ^ CRC_TABLES[0][(crc as u8 ^ byte) as usize];
    }
    crc
}

/// CRC-32 (IEEE 802.3, reflected) — integrity check for image payloads.
/// Payload-sized inputs take the four-lane path described on [`Crc32`].
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// `a · b mod P` over GF(2), both operands and the result in the CRC's
/// reflected bit order (bit 31 is the coefficient of x^0).
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 1u32 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        bit >>= 1;
        b = if b & 1 != 0 {
            (b >> 1) ^ CRC_POLY
        } else {
            b >> 1
        };
    }
    product
}

/// `X_POW_2K[k]` is x^(2^k) mod P. x has odd order modulo P, so
/// x^(2^32) = x and the table is used cyclically (`k & 31`).
static X_POW_2K: [u32; 32] = {
    let mut t = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        t[k] = p;
        p = mul_mod_p(p, p);
        k += 1;
    }
    t
};

/// The CRC-32 of `a ‖ b` from `crc32(a)`, `crc32(b)` and `b.len()`,
/// reading neither. Appending `len_b` bytes multiplies `a`'s checksum by
/// x^(8·`len_b`) mod P (the pre- and post-inversions cancel against
/// `crc_b`'s), and that power is the product of the `X_POW_2K` entries the
/// set bits of `len_b` select: one carry-less 32-bit multiply per set bit
/// plus one, a few dozen nanoseconds at any length — which is what lets an
/// image's whole-file checksum fall out of its section checksums.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    CrcShift::of(len_b).join(crc_a, crc_b)
}

/// [`crc32_combine`] for any number of appended pieces of one length: the
/// shift x^(8·len) mod P is computed once, so each join is one multiply —
/// how an image's section CRC is joined from its block CRCs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CrcShift(u32);

impl CrcShift {
    /// The shift that appending `len` bytes applies.
    pub(crate) fn of(len: u64) -> CrcShift {
        CrcShift(x_pow_8n(len))
    }

    /// The CRC-32 of `a ‖ b` from `crc32(a)` and `crc32(b)`, `b` being as
    /// long as the shift says.
    pub(crate) fn join(self, crc_a: u32, crc_b: u32) -> u32 {
        mul_mod_p(self.0, crc_a) ^ crc_b
    }
}

/// x^(8·`n`) mod P: the shift that appending `n` bytes applies to a CRC.
fn x_pow_8n(n: u64) -> u32 {
    let mut shift = 1u32 << 31; // x^0
    let (mut n, mut k) = (n, 3); // bytes → bits: start at x^(2^3)
    while n != 0 {
        if n & 1 != 0 {
            shift = mul_mod_p(X_POW_2K[k & 31], shift);
        }
        n >>= 1;
        k += 1;
    }
    shift
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives() {
        roundtrip(0u8);
        roundtrip(u16::MAX);
        roundtrip(123456789u32);
        roundtrip(u64::MAX);
        roundtrip(-77i32);
        roundtrip(i64::MIN);
        roundtrip(1.234567f64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(42usize);
    }

    #[test]
    fn strings_and_containers() {
        roundtrip(String::from("héllo wörld"));
        roundtrip(String::new());
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(9u32));
        roundtrip(None::<u32>);
        roundtrip((1u8, String::from("x")));
        roundtrip((1u8, 2u16, 3u32));
        let mut m = BTreeMap::new();
        m.insert(String::from("a"), vec![1u8, 2]);
        m.insert(String::from("b"), vec![]);
        roundtrip(m);
    }

    #[test]
    fn nested() {
        roundtrip(vec![Some((1u64, String::from("s"))), None]);
    }

    #[test]
    fn eof_detected() {
        let bytes = 12345u64.to_bytes();
        assert!(matches!(
            u64::from_bytes(&bytes[..4]),
            Err(CodecError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = 1u8.to_bytes();
        bytes.push(99);
        assert!(matches!(
            u8::from_bytes(&bytes),
            Err(CodecError::TrailingBytes(1))
        ));
    }

    #[test]
    fn hostile_length_rejected() {
        // A Vec claiming u64::MAX elements must not attempt allocation.
        let mut bytes = Vec::new();
        u64::MAX.encode(&mut bytes);
        assert!(matches!(
            Vec::<u64>::from_bytes(&bytes),
            Err(CodecError::BadLength(_))
        ));
    }

    #[test]
    fn hostile_byte_vector_lengths_rejected_before_any_copy() {
        // The bulk path takes `len` bytes in one go; a length the input
        // cannot hold must be refused first, not handed to an allocator.
        let mut bytes = Vec::new();
        u64::MAX.encode(&mut bytes);
        bytes.extend_from_slice(&[1, 2, 3]);
        assert_eq!(
            Vec::<u8>::from_bytes(&bytes),
            Err(CodecError::BadLength(u64::MAX))
        );
        let mut bytes = Vec::new();
        4u64.encode(&mut bytes); // remaining + 1
        bytes.extend_from_slice(&[1, 2, 3]);
        assert_eq!(Vec::<u8>::from_bytes(&bytes), Err(CodecError::BadLength(4)));
        // The hook itself is bounded by the reader, whoever calls it.
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(
            u8::decode_vec(&mut r, usize::MAX),
            Err(CodecError::UnexpectedEof {
                needed: usize::MAX,
                remaining: 3
            })
        );
    }

    /// A byte that keeps the trait's default slice hooks: `Vec<Byte>` is
    /// encoded and decoded by the per-element loop, the reference the
    /// bulk `u8` path must agree with byte for byte.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Byte(u8);
    impl Encode for Byte {
        fn encode(&self, out: &mut Vec<u8>) {
            out.push(self.0);
        }
    }
    impl Decode for Byte {
        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            Ok(Byte(r.take(1)?[0]))
        }
    }

    fn looped(v: &[u8]) -> Vec<Byte> {
        v.iter().copied().map(Byte).collect()
    }

    #[test]
    fn invalid_bool_tag() {
        assert!(matches!(
            bool::from_bytes(&[7]),
            Err(CodecError::InvalidTag(7))
        ));
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut bytes = Vec::new();
        2u64.encode(&mut bytes);
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            String::from_bytes(&bytes),
            Err(CodecError::BadUtf8)
        ));
    }

    /// Bit-at-a-time CRC-32: the definition the table kernel is checked
    /// against.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        !data.iter().fold(!0u32, |crc, &b| bitwise_step(crc, b))
    }

    fn bitwise_step(mut crc: u32, b: u8) -> u32 {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC_POLY
            } else {
                crc >> 1
            };
        }
        crc
    }

    fn mixed(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 19) as u8)
            .collect()
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32("123456789") = 0xCBF43926 (classic check value).
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(Crc32::new().finish(), 0);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF43926);
    }

    #[test]
    fn crc32_detects_flip() {
        let a = crc32(b"checkpoint image payload");
        let b = crc32(b"checkpoint image payloae");
        assert_ne!(a, b);
    }

    #[test]
    fn crc32_matches_reference_at_every_alignment_and_tail() {
        // Every (start offset mod 16, length) pair up to a few blocks:
        // all block counts 0..=18 against all 16 tail lengths.
        let buf: Vec<u8> = (0..16 + 300u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        for start in 0..16 {
            for len in 0..=300 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn crc32_matches_reference_across_the_lane_threshold() {
        // Every length from just under the threshold to just past four
        // times it — every lane length and tail around the cut-over — at
        // all 16 start offsets. The reference for one start is a single
        // bitwise pass, read off after each prefix length.
        let (lo, hi) = (LANE_MIN - 64, 4 * LANE_MIN + 64);
        let buf = mixed(16 + hi);
        for start in 0..16 {
            let mut reg = !0u32;
            for (len, &b) in (1..=hi).zip(&buf[start..]) {
                reg = bitwise_step(reg, b);
                if len >= lo {
                    let s = &buf[start..start + len];
                    assert_eq!(crc32(s), !reg, "start {start} len {len}");
                }
            }
        }
    }

    #[test]
    fn crc32_matches_reference_on_a_two_mib_buffer() {
        let buf = mixed((2 << 20) + 37);
        assert_eq!(crc32(&buf), crc32_bitwise(&buf));
    }

    #[test]
    fn crc32_combine_across_power_of_two_lengths() {
        let buf: Vec<u8> = (0..61 + (1u32 << 21) + 1)
            .map(|i| (i.wrapping_mul(2654435761) >> 11) as u8)
            .collect();
        let head = crc32(&buf[..61]);
        assert_eq!(crc32_combine(head, 0, 0), head);
        assert_eq!(crc32_combine(0, head, 61), head);
        for k in 0..=21 {
            for len in [(1usize << k) - 1, 1 << k, (1 << k) + 1] {
                let tail = &buf[61..61 + len];
                assert_eq!(
                    crc32_combine(head, crc32(tail), len as u64),
                    crc32(&buf[..61 + len]),
                    "len {len}"
                );
            }
        }
        // Lengths beyond the table's 32 entries wrap around it: 2^32
        // zero bytes, checked against 2^16 appends of 2^16.
        let zeros = vec![0u8; 1 << 16];
        let z16 = crc32(&zeros);
        let mut stepped = head;
        for _ in 0..1 << 16 {
            stepped = crc32_combine(stepped, z16, 1 << 16);
        }
        let mut z32 = 0;
        for _ in 0..1 << 16 {
            z32 = crc32_combine(z32, z16, 1 << 16);
        }
        assert_eq!(crc32_combine(head, z32, 1 << 32), stepped);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn crc32_combine_equals_crc_of_concatenation(
            a in proptest::collection::vec(any::<u8>(), 0..=2048),
            b in proptest::collection::vec(any::<u8>(), 0..=2048),
            c in proptest::collection::vec(any::<u8>(), 0..=64),
        ) {
            let ab = [&a[..], &b[..]].concat();
            let abc = [&ab[..], &c[..]].concat();
            let combined = crc32_combine(crc32(&a), crc32(&b), b.len() as u64);
            prop_assert_eq!(combined, crc32(&ab));
            // Associative: the image combines header, upper, meta in turn.
            prop_assert_eq!(crc32_combine(combined, crc32(&c), c.len() as u64), crc32(&abc));
            let bc = crc32_combine(crc32(&b), crc32(&c), c.len() as u64);
            prop_assert_eq!(
                crc32_combine(crc32(&a), bc, (b.len() + c.len()) as u64),
                crc32(&abc)
            );
        }

        #[test]
        fn byte_vectors_encode_exactly_as_the_per_element_loop(
            v in proptest::collection::vec(any::<u8>(), 0..=600),
            m in proptest::collection::btree_map(
                ".{0,6}", proptest::collection::vec(any::<u8>(), 0..=80), 0..6),
        ) {
            let bytes = v.to_bytes();
            prop_assert_eq!(&bytes, &looped(&v).to_bytes());
            prop_assert_eq!(Vec::<u8>::from_bytes(&bytes).unwrap(), v.clone());
            prop_assert_eq!(Vec::<Byte>::from_bytes(&bytes).unwrap(), looped(&v));
            let reference: BTreeMap<String, Vec<Byte>> =
                m.iter().map(|(k, v)| (k.clone(), looped(v))).collect();
            let bytes = m.to_bytes();
            prop_assert_eq!(&bytes, &reference.to_bytes());
            prop_assert_eq!(BTreeMap::<String, Vec<u8>>::from_bytes(&bytes).unwrap(), m);
            // Truncated anywhere, both paths fail the same way.
            for cut in 0..bytes.len().min(40) {
                prop_assert_eq!(
                    BTreeMap::<String, Vec<u8>>::from_bytes(&bytes[..cut]).err(),
                    BTreeMap::<String, Vec<Byte>>::from_bytes(&bytes[..cut]).err()
                );
            }
        }

        // Three quarters of the lengths below take the four-lane path.
        #[test]
        fn crc32_differential_lengths_and_alignments(
            buf in proptest::collection::vec(any::<u8>(), 16..=16 + 4 * LANE_MIN),
        ) {
            let len = buf.len() - 16;
            for start in 0..16 {
                let s = &buf[start..start + len];
                prop_assert_eq!(crc32(s), crc32_bitwise(s), "start {} len {}", start, len);
            }
        }

        #[test]
        fn crc32_streaming_equals_one_shot_at_any_split(
            data in proptest::collection::vec(any::<u8>(), 0..=4 * LANE_MIN),
            cuts in proptest::collection::vec((any::<usize>(), any::<bool>()), 0..8),
        ) {
            // A cut lands anywhere — usually inside a lane of the one-shot
            // layout — or exactly on one of that layout's lane boundaries.
            let lane = data.len() / (16 * LANES) * 16;
            let mut cuts: Vec<usize> = cuts
                .iter()
                .map(|&(c, on_boundary)| {
                    if on_boundary {
                        c % (LANES + 1) * lane
                    } else {
                        c % (data.len() + 1)
                    }
                })
                .collect();
            cuts.sort_unstable();
            let mut c = Crc32::new();
            let mut from = 0;
            for cut in cuts {
                c.update(&data[from..cut]);
                from = cut;
            }
            c.update(&data[from..]);
            let streamed = c.finish();
            prop_assert_eq!(streamed, crc32(&data));
            prop_assert_eq!(streamed, crc32_bitwise(&data));
        }
    }
}
