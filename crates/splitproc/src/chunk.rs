//! Content-defined chunking and content addressing for the checkpoint store.
//!
//! A rank image's `upper`/`meta` payloads are split at rolling-hash
//! boundaries (gear hash), each chunk is keyed by a 256-bit content hash
//! ([`chunk_id`]), and chunks live in a pool shared by every generation
//! under the store root:
//!
//! ```text
//! <root>/chunks/<first-two-hex>/<64-hex>.chunk
//! ```
//!
//! A chunk whose key already exists on disk is never rewritten, so a
//! slowly-mutating workload pays only for the bytes that actually changed
//! since the previous committed generation. Generations written in chunked
//! mode store a *recipe* file per rank (`ckpt_rank_%05d.cref`) that lists
//! the chunk keys needed to reassemble the image; see [`Recipe`].
//!
//! Finding cut points is the dearest pass (the gear hash costs 3–4 × the
//! CRC per byte and ≈ 15 × the key), and in a slowly-mutating image almost
//! every cut is where it was last round. So [`chunk_payload`] takes the
//! previous recipe's refs as a *guide*: where an old chunk starts at the
//! current offset and the same-length span keys to the old id, the bytes
//! are the old chunk's and the cut is reused; elsewhere the gear hash cuts
//! and the walk resynchronizes at the next cut that lands on an old
//! boundary. Under the same [`ChunkParams`] a guided pass returns exactly
//! the unguided pass's refs, so the guide changes no byte on disk.
//!
//! The key is **not** cryptographic. Dedup needs two different chunks to
//! get different names *by accident*, not against an adversary who picks
//! the bytes, so the key is a four-lane multiply-fold hash that runs at
//! memory speed. A key collision would make a write skip a chunk it should
//! have stored; the chunk length in the ref and the CRC-32 of each
//! reassembled payload are taken from the true bytes, independently of the
//! key, so the cost is that generation being rejected at restart
//! validation, never a silently wrong restore (DESIGN §14).
//!
//! A recipe is the image's header (`image::ImageHeader`) and both
//! sections' chunk refs behind the `RECIPE` prefix, inside a CRC-32
//! trailer, all through the codec (DESIGN §7, "Files on disk"). It is read
//! only at [`RECIPE_VERSION`], the version whose refs [`chunk_id`] keyed;
//! a version 1 recipe (keyed by SHA-256, which this build no longer
//! carries) is a [`FormatError::BadVersion`], so its generation is
//! rejected at restart, never misread, and GC collects its chunks.
//!
//! Everything here is safe Rust with no dependency outside the workspace:
//! the key is hand-rolled (same spirit as the table CRC-32 in `codec`),
//! and the gear table is derived at compile time from `mpisim`'s
//! splitmix64 so boundaries are deterministic across builds and platforms.

use std::fmt;
use std::ops::Range;

use crate::codec::{CodecError, Decode, Encode, Format, FormatError, Reader};
use crate::image::ImageHeader;
use mpisim::splitmix64;

/// 256-bit content hash of a chunk. Displayed as 64 lowercase hex chars.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId(
    /// Raw digest bytes, as the keying function laid them out.
    pub [u8; 32],
);

impl ChunkId {
    /// Hex form used for pool filenames.
    pub fn to_hex(self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
            s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
        }
        s
    }

    /// Parse the 64-hex-char form back into an id (inspect tooling).
    pub fn from_hex(s: &str) -> Option<ChunkId> {
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        let bytes = s.as_bytes();
        for (i, slot) in out.iter_mut().enumerate() {
            let hi = (bytes[2 * i] as char).to_digit(16)?;
            let lo = (bytes[2 * i + 1] as char).to_digit(16)?;
            *slot = ((hi << 4) | lo) as u8;
        }
        Some(ChunkId(out))
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl fmt::Debug for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChunkId({})", self.to_hex())
    }
}

/// An id is written raw: its 32 bytes, no length prefix.
impl Encode for ChunkId {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
}

impl Decode for ChunkId {
    const MIN_LEN: usize = 32;

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ChunkId(r.take(32)?.try_into().expect("took 32 bytes")))
    }
}

// ---------------------------------------------------------------------------
// The chunk key: a four-lane multiply-fold hash with a 256-bit digest.
// ---------------------------------------------------------------------------

/// Lane seeds (`[..4]`) and per-lane multiplier masks (`[4..]`): the first
/// 512 fractional bits of π. Fixed forever — they are part of the on-disk
/// name of every chunk — and never seeded from the process or
/// the environment, so the same bytes get the same name on every host.
const KEY_PI: [u64; 8] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
    0x4528_21e6_38d0_1377,
    0xbe54_66cf_34e9_0c6c,
    0xc0ac_29b7_c97c_50dd,
    0x3f84_d5b5_b547_0917,
];

/// Zero stripes absorbed after the input. Four are what it takes for every
/// lane to reach every other (each round moves a lane's high half one lane
/// over) and measure as full avalanche from the last input byte; two more
/// are margin.
const KEY_FINAL_ROUNDS: usize = 6;

/// Absorb one 64-byte stripe: lane `i` takes little-endian words `2i` and
/// `2i + 1`, multiplies one (masked by a constant) with the other (masked
/// by the lane), keeps the low half of the 128-bit product and hands the
/// high half to lane `i − 1`. Four independent multiplies per stripe, one
/// per lane, so the lanes overlap in the pipeline; the hand-over is what
/// spreads a one-word difference over all 256 bits of state within four
/// stripes instead of leaving it in one 64-bit lane.
#[inline(always)]
fn key_round(acc: &mut [u64; 4], stripe: &[u8; 64]) {
    let (w, _) = stripe.as_chunks::<8>();
    let mul = |i: usize| {
        let a = u64::from_le_bytes(w[2 * i]) ^ KEY_PI[4 + i];
        let b = u64::from_le_bytes(w[2 * i + 1]) ^ acc[i];
        u128::from(a) * u128::from(b)
    };
    let m = [mul(0), mul(1), mul(2), mul(3)];
    for i in 0..4 {
        acc[i] = m[i] as u64 ^ (m[(i + 1) % 4] >> 64) as u64;
    }
}

/// Content hash of a chunk — the pool key of everything the store writes
/// (recipe version 2). Non-cryptographic: see the module docs for what a
/// collision can and cannot cost.
///
/// The length seeds lane 0, whole 64-byte stripes are absorbed by
/// `key_round`, a partial last stripe is zero-padded (the length already
/// in the state tells `"a"` from `"a\0"`), and `KEY_FINAL_ROUNDS` zero
/// stripes finish the mixing. The digest is the four lanes, little-endian,
/// so every digest bit depends on every input byte and on the length.
pub fn chunk_id(data: &[u8]) -> ChunkId {
    let mut acc = [
        KEY_PI[0] ^ data.len() as u64,
        KEY_PI[1],
        KEY_PI[2],
        KEY_PI[3],
    ];
    let (stripes, tail) = data.as_chunks::<64>();
    for stripe in stripes {
        key_round(&mut acc, stripe);
    }
    if !tail.is_empty() {
        let mut last = [0u8; 64];
        last[..tail.len()].copy_from_slice(tail);
        key_round(&mut acc, &last);
    }
    for _ in 0..KEY_FINAL_ROUNDS {
        key_round(&mut acc, &[0u8; 64]);
    }
    let mut out = [0u8; 32];
    for (slot, lane) in out.as_chunks_mut::<8>().0.iter_mut().zip(acc) {
        *slot = lane.to_le_bytes();
    }
    ChunkId(out)
}

// ---------------------------------------------------------------------------
// Gear-hash content-defined chunking.
// ---------------------------------------------------------------------------

/// Min/avg/max chunk sizes for the content-defined chunker. The average is
/// a target, not a guarantee: boundaries fire when the rolling hash masks to
/// zero, clamped to [min, max].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkParams {
    /// No boundary fires before this many bytes (floor 64).
    pub min_size: usize,
    /// Target average chunk size (sets the boundary mask).
    pub avg_size: usize,
    /// A chunk is force-cut at this many bytes.
    pub max_size: usize,
}

impl Default for ChunkParams {
    fn default() -> Self {
        ChunkParams {
            min_size: 4 * 1024,
            avg_size: 16 * 1024,
            max_size: 64 * 1024,
        }
    }
}

impl ChunkParams {
    /// Clamp to a sane ordering so a hostile config cannot wedge the
    /// chunker (min ≥ 64 B, min ≤ avg ≤ max).
    pub fn normalized(self) -> ChunkParams {
        let min = self.min_size.max(64);
        let avg = self.avg_size.max(min);
        let max = self.max_size.max(avg);
        ChunkParams {
            min_size: min,
            avg_size: avg,
            max_size: max,
        }
    }

    /// Boundary mask: the largest `2^k - 1` not exceeding avg_size - 1, so
    /// the expected gap between boundary hits is ~avg_size bytes. Call on
    /// [`normalized`](ChunkParams::normalized) params (avg ≥ 64).
    fn mask(&self) -> u64 {
        (1u64 << self.avg_size.ilog2()) - 1
    }
}

/// Gear table: 256 pseudo-random u64s fixed at compile time (splitmix64 of
/// the byte value) so chunk boundaries never depend on build or platform.
static GEAR: [u64; 256] = build_gear();

const fn build_gear() -> [u64; 256] {
    let mut t = [0u64; 256];
    let mut i = 0usize;
    while i < 256 {
        t[i] = splitmix64(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1));
        i += 1;
    }
    t
}

/// The content-defined cutter of one payload: where the chunk starting at
/// a given offset ends. [`split`] walks it from offset 0; [`chunk_payload`]
/// asks it only where the previous recipe's cut points cannot be reused.
///
/// Deterministic: the same bytes always produce the same boundary set.
/// With `hash = (hash << 1) + GEAR[b]`, bit `j` of the hash depends on the
/// last `j + 1` bytes only, so a cut decision under a `k`-bit mask sees the
/// last `k` bytes (14 at the default sizes): an edit invalidates at most
/// the chunks overlapping it plus a bounded resynchronization tail.
struct Chunker<'a> {
    data: &'a [u8],
    params: ChunkParams,
    mask: u64,
}

impl<'a> Chunker<'a> {
    /// Chunk `data` under `params` (normalized here).
    fn new(data: &'a [u8], params: ChunkParams) -> Chunker<'a> {
        let params = params.normalized();
        Chunker {
            data,
            mask: params.mask(),
            params,
        }
    }

    /// Exclusive end of the chunk that starts at `start` (< `data.len()`).
    /// A function of `data[start..end]` and of whether the payload ends
    /// at `end` alone: nothing before `start` and nothing after the cut
    /// is read.
    fn cut(&self, start: usize) -> usize {
        let (data, p) = (self.data, self.params);
        let window_end = (start + p.max_size).min(data.len());
        if data.len() - start > p.min_size {
            // No boundary can fire before min_size, and the masked bits of
            // the gear state forget everything older than the mask is wide,
            // so rolling from 64 bytes before the first legal cut point
            // gives the same decisions as rolling from the chunk start.
            let roll_from = (start + p.min_size).saturating_sub(64).max(start);
            let mut hash = 0u64;
            for (i, &b) in data[roll_from..window_end].iter().enumerate() {
                hash = (hash << 1).wrapping_add(GEAR[b as usize]);
                let pos = roll_from + i + 1; // exclusive end of the candidate chunk
                if pos - start >= p.min_size && (hash & self.mask) == 0 {
                    return pos;
                }
            }
        }
        window_end
    }
}

/// Split `data` at gear-hash boundaries: the byte range of each chunk, in
/// order, covering `data` exactly; empty input yields no chunks.
pub fn split(data: &[u8], params: ChunkParams) -> Vec<std::ops::Range<usize>> {
    let chunker = Chunker::new(data, params);
    let (mut ranges, mut start) = (Vec::new(), 0);
    while start < data.len() {
        let end = chunker.cut(start);
        ranges.push(start..end);
        start = end;
    }
    ranges
}

// ---------------------------------------------------------------------------
// Recipe: the chunked-mode replacement for a flat image file.
// ---------------------------------------------------------------------------

/// The one recipe version this build reads and writes: refs keyed by
/// [`chunk_id`]. Any other number is a [`FormatError::BadVersion`].
pub const RECIPE_VERSION: u32 = 2;

/// The recipe's framing: magic `MANA2CRF` ("MANA2 Chunk ReF"),
/// [`RECIPE_VERSION`], and a CRC-32 trailer.
pub(crate) const RECIPE: Format = Format {
    file: "recipe",
    prefix: Some((*b"MANA2CRF", RECIPE_VERSION)),
};

/// Reference to one chunk of a payload: its content id plus its length
/// (the length is redundant with the pool file but lets validation detect
/// truncation without hashing and lets tooling compute logical sizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRef {
    /// Content address of the chunk.
    pub id: ChunkId,
    /// Chunk length in bytes.
    pub len: u64,
}

crate::wire!(ChunkRef { id, len });

/// Per-rank recipe stored as `ckpt_rank_%05d.cref` inside a chunked
/// generation directory. Opens with the flat image's header (rank, world,
/// round, section lengths and CRCs) so the restart path can cross-check
/// the reassembled image against the manifest without decoding chunks
/// twice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recipe {
    /// The header a flat file of the image would carry.
    pub header: ImageHeader,
    /// Chunks of the upper payload, in order.
    pub upper_chunks: Vec<ChunkRef>,
    /// Chunks of the meta payload, in order.
    pub meta_chunks: Vec<ChunkRef>,
}

impl Recipe {
    /// The recipe file: the `RECIPE` prefix and the recipe, inside its
    /// CRC-32 trailer.
    pub fn to_bytes(&self) -> Vec<u8> {
        RECIPE.seal(self)
    }

    /// Parse and verify a recipe file. Only [`RECIPE_VERSION`] is read:
    /// its refs are the ones [`chunk_id`] can vouch for.
    pub fn from_bytes(bytes: &[u8]) -> Result<Recipe, FormatError> {
        RECIPE.open(bytes)
    }
}

crate::wire!(Recipe {
    header,
    upper_chunks,
    meta_chunks
});

/// What [`chunk_payload`] made of one payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunked<'a> {
    /// Each chunk's ref beside its bytes (borrowed, nothing is copied),
    /// in order, covering the payload exactly.
    pub chunks: Vec<(ChunkRef, &'a [u8])>,
    /// Cuts taken from the guide instead of the gear hash.
    pub guided: usize,
    /// Bytes run through [`chunk_id`] (a span twice if a guess missed).
    pub keyed: usize,
}

/// One pass over a payload: cut it as [`split`] does and key each chunk
/// while the cut has just pulled it through the cache. It takes no CRC:
/// the payload's CRC-32 comes from the image's block table
/// (`ImageBuf::checksum`), which reads only the blocks the rank
/// rewrote.
///
/// `guide` is the same section's refs in an earlier recipe (empty: no
/// guide). Where one of its chunks starts at the current offset, the
/// same-length span of `data` is keyed first; if the key is that chunk's
/// id the bytes are the ones the chunker cut there before, so it cuts them
/// there again and the gear hash is skipped. The guide's last chunk ended
/// its section, a cut a longer payload would not make, so it is reused
/// only if `data` ends with it. Anywhere else the gear hash cuts, and the
/// walk picks the guide up again at the next cut that lands on one of its
/// boundaries. Ids and lengths always come from `data` itself: a
/// guide from other bytes or other params can cost speed or give valid
/// but differently placed cuts, never a wrong ref.
///
/// But one: a guided span for which `unchanged` vouches — it holds the
/// bytes the guide was keyed from — takes the guide's id unkeyed, trusted
/// from the caller's state (a debug build keys it and panics on a
/// difference). `|_| false` vouches for none.
pub fn chunk_payload<'a>(
    data: &'a [u8],
    params: ChunkParams,
    guide: &[ChunkRef],
    unchanged: impl Fn(Range<usize>) -> bool,
) -> Chunked<'a> {
    let chunker = Chunker::new(data, params);
    let p = chunker.params;
    let guide_end = guide.iter().fold(0u64, |end, r| end.saturating_add(r.len));
    let (mut chunks, mut guided, mut keyed) = (Vec::new(), 0, 0);
    let mut key = |span: Range<usize>| {
        keyed += span.len();
        chunk_id(&data[span])
    };
    // `old` is where `guide[g]` starts in the guide's payload.
    let (mut start, mut g, mut old) = (0usize, 0usize, 0u64);
    while start < data.len() {
        while g < guide.len() && old < start as u64 {
            old = old.saturating_add(guide[g].len);
            g += 1;
        }
        // The span the guide's chunk would cover here, keyed, if it is one
        // the chunker could have cut.
        let guess = guide.get(g).filter(|_| old == start as u64).and_then(|r| {
            let len = usize::try_from(r.len).ok()?;
            let end = start.checked_add(len).filter(|&end| end <= data.len())?;
            let shaped =
                (1..=p.max_size).contains(&len) && (len >= p.min_size || end == data.len());
            let ended_guide = end as u64 == guide_end && end != data.len();
            (shaped && !ended_guide).then(|| {
                let reused = unchanged(start..end);
                debug_assert!(!reused || chunk_id(&data[start..end]) == r.id, "bad reuse");
                (end, r.id, if reused { r.id } else { key(start..end) })
            })
        });
        let (end, id) = match guess {
            Some((end, want, id)) if id == want => {
                guided += 1;
                (end, id)
            }
            // The span just keyed is reused when the gear hash cuts it too.
            missed => {
                let end = chunker.cut(start);
                match missed {
                    Some((keyed_end, _, id)) if keyed_end == end => (end, id),
                    _ => (end, key(start..end)),
                }
            }
        };
        let slice = &data[start..end];
        let cref = ChunkRef {
            id,
            len: slice.len() as u64,
        };
        chunks.push((cref, slice));
        start = end;
    }
    Chunked {
        chunks,
        guided,
        keyed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::crc32;

    #[test]
    fn chunk_id_hex_round_trips() {
        let id = chunk_id(b"round trip");
        assert_eq!(ChunkId::from_hex(&id.to_hex()), Some(id));
        assert_eq!(ChunkId::from_hex("zz"), None);
        assert_eq!(ChunkId::from_hex(&"g".repeat(64)), None);
    }

    fn pseudo_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn split_covers_input_exactly() {
        let params = ChunkParams {
            min_size: 256,
            avg_size: 1024,
            max_size: 4096,
        };
        for len in [0usize, 1, 255, 256, 1024, 50_000] {
            let data = pseudo_bytes(len, 42);
            let ranges = split(&data, params);
            let mut pos = 0;
            for r in &ranges {
                assert_eq!(r.start, pos);
                assert!(r.end > r.start);
                pos = r.end;
            }
            assert_eq!(pos, len);
            if len > 0 {
                for r in &ranges[..ranges.len() - 1] {
                    assert!(r.end - r.start >= params.min_size || r.end == len);
                    assert!(r.end - r.start <= params.max_size);
                }
            } else {
                assert!(ranges.is_empty());
            }
        }
    }

    #[test]
    fn split_is_deterministic() {
        let data = pseudo_bytes(100_000, 7);
        let params = ChunkParams {
            min_size: 512,
            avg_size: 2048,
            max_size: 8192,
        };
        assert_eq!(split(&data, params), split(&data, params));
    }

    #[test]
    fn chunker_actually_finds_content_boundaries() {
        // Random-ish data with a ~2 KiB average must produce more than
        // len/max chunks, i.e. boundaries come from content, not the clamp.
        let data = pseudo_bytes(200_000, 99);
        let params = ChunkParams {
            min_size: 512,
            avg_size: 2048,
            max_size: 8192,
        };
        let ranges = split(&data, params);
        let forced_min = data.len() / params.max_size;
        assert!(
            ranges.len() > forced_min + 5,
            "only {} chunks for {} bytes — mask never fired",
            ranges.len(),
            data.len()
        );
    }

    #[test]
    fn single_edit_preserves_most_chunk_ids() {
        let params = ChunkParams {
            min_size: 512,
            avg_size: 2048,
            max_size: 8192,
        };
        let a = pseudo_bytes(150_000, 3);
        let mut b = a.clone();
        b[70_000] ^= 0xff;
        let ids = |d: &[u8]| -> std::collections::HashSet<ChunkId> {
            let chunks = chunk_payload(d, params, &[], |_| false).chunks;
            chunks.into_iter().map(|(r, _)| r.id).collect()
        };
        let ia = ids(&a);
        let ib = ids(&b);
        let changed = ia.symmetric_difference(&ib).count();
        // The edit may split/merge a few chunks around the edit point but
        // must leave the rest of the stream untouched.
        assert!(changed <= 6, "edit invalidated {changed} chunk ids");
        assert!(ia.intersection(&ib).count() > ia.len() / 2);
    }

    fn recipe_of(data: &[u8]) -> Recipe {
        let chunks = chunk_payload(data, ChunkParams::default(), &[], |_| false).chunks;
        let head = crate::ImageHead {
            rank: 3,
            world_size: 8,
            round: 2,
        };
        Recipe {
            header: ImageHeader {
                head,
                upper_len: data.len(),
                meta_len: 0,
                upper_crc: crc32(data),
                meta_crc: crc32(&[]),
            },
            upper_chunks: chunks.iter().map(|(r, _)| *r).collect(),
            meta_chunks: Vec::new(),
        }
    }

    const REF_BYTES: usize = ChunkRef::MIN_LEN;

    #[test]
    fn recipe_round_trips() {
        let data = pseudo_bytes(40_000, 11);
        let recipe = recipe_of(&data);
        let mut bytes = recipe.to_bytes();
        assert_eq!(bytes[8..12], 2u32.to_le_bytes());
        assert_eq!(Recipe::from_bytes(&bytes).unwrap(), recipe);
        // The same bytes under version 1 (SHA-256-keyed refs) are refused,
        // not read with a key that did not name them.
        let body = bytes.len() - 4;
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            Recipe::from_bytes(&bytes),
            Err(FormatError::BadVersion("recipe", 1))
        );
    }

    #[test]
    fn recipe_rejects_corruption() {
        let recipe = recipe_of(b"hello");
        let mut bytes = recipe.to_bytes();
        bytes[20] ^= 0x40;
        assert!(matches!(
            Recipe::from_bytes(&bytes),
            Err(FormatError::BadChecksum(_))
        ));
        let short = &recipe.to_bytes()[..10];
        assert!(Recipe::from_bytes(short).is_err());
    }

    #[test]
    fn recipe_ref_count_is_bounded_by_the_bytes_left() {
        // The upper list's count sits after the fixed header; the bytes
        // after it hold `n` refs and the meta list's 8-byte count. Counts
        // up to the whole body's length used to pass the bound and reserve
        // 40 bytes per claimed ref before the first missing one failed.
        let recipe = recipe_of(&pseudo_bytes(40_000, 5));
        let n = recipe.upper_chunks.len() as u64;
        let bytes = recipe.to_bytes();
        let body = bytes.len() - 4;
        for claim in [n + 1, body as u64, u64::MAX] {
            let mut forged = bytes.clone();
            forged[60..68].copy_from_slice(&claim.to_le_bytes());
            let crc = crc32(&forged[..body]);
            forged[body..].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(
                Recipe::from_bytes(&forged),
                Err(RECIPE.malformed(CodecError::BadLength(claim))),
                "claim {claim}"
            );
        }
        assert_eq!((body - 68 - 8) as u64 / REF_BYTES as u64, n);
    }

    #[test]
    fn recipe_rejects_versions_it_cannot_verify() {
        // A version is a promise about which function keyed the refs; one
        // this build does not know must not be read with its own key.
        for unknown in [0u32, 3, u32::MAX] {
            let mut bytes = recipe_of(b"hello").to_bytes();
            let body = bytes.len() - 4;
            bytes[8..12].copy_from_slice(&unknown.to_le_bytes());
            let crc = crc32(&bytes[..body]);
            bytes[body..].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(
                Recipe::from_bytes(&bytes),
                Err(FormatError::BadVersion("recipe", unknown))
            );
        }
        assert_eq!(RECIPE_VERSION, 2);
    }

    #[test]
    fn mask_is_the_largest_power_of_two_not_above_avg() {
        let mask = |avg_size: usize| {
            let p = ChunkParams {
                min_size: 64,
                avg_size,
                max_size: 1 << 20,
            };
            p.normalized().mask()
        };
        // A power of two keeps its own mask (so no existing pool is re-cut)…
        assert_eq!(mask(16 * 1024), (1 << 14) - 1);
        assert_eq!(mask(64), 63);
        // …anything between two powers takes the lower one's, never the
        // upper's: 24 KiB must not cut on a 32 KiB mask.
        assert_eq!(mask(24 * 1024), (1 << 14) - 1);
        assert_eq!(mask(32 * 1024 - 1), (1 << 14) - 1);
        assert_eq!(mask(32 * 1024), (1 << 15) - 1);
        assert_eq!(mask(65), 63);
    }

    // ---- the version 2 key: pinned values and statistical quality ----------
    //
    // Nobody else maintains this function, and its output is the on-disk
    // name of every chunk, so it is pinned twice: by value (a refactor that
    // changes one bit of one digest orphans every pool) and by behaviour
    // (the properties dedup relies on are measured, not assumed).

    #[test]
    fn chunk_id_pinned_digests() {
        let pattern = |len: usize| -> Vec<u8> { (0..len).map(|i| (i * 7 + 3) as u8).collect() };
        let hex = |d: &[u8]| chunk_id(d).to_hex();
        assert_eq!(
            hex(b""),
            "e5da2ec6592b2100628cfc915e2c7cdf1518ab2617a9a7485e37e98bc66c50af"
        );
        assert_eq!(
            hex(b"a"),
            "4147241b0c565430d2f67992868e432859de337bd2bccf59cca5ae80bacf3764"
        );
        assert_eq!(
            hex(&pattern(63)),
            "75f4c54ddaf32559187c65e38d5ba8f7d47ce5cfceede9f3ab360a214f902491"
        );
        assert_eq!(
            hex(&pattern(64)),
            "00a1fb5d2675d162bc63aa5cec955a78cce0e925f8d7e5211da251a22633a7c5"
        );
        assert_eq!(
            hex(&pattern(65)),
            "76a54bf71bc9bb0f6aab124206778918c427249e17498e537685728f97cc3278"
        );
        assert_eq!(
            hex(&pattern(1 << 20)),
            "1d9eef928a4cbf6b366d9e1a8d7bcd1c2a6313cf8e396890dfe91ae449d43c4a"
        );
    }

    /// Fail if any two digests agree in any one 64-bit quarter (one lane)
    /// alone — which also rules out agreeing in full. A dead or weak lane
    /// shows in its quarter long before it shows in all 256 bits.
    fn assert_no_collisions(family: &str, digests: &[ChunkId]) {
        for quarter in 0..4 {
            let mut lane: Vec<u64> = digests
                .iter()
                .map(|d| u64::from_le_bytes(d.0.as_chunks::<8>().0[quarter]))
                .collect();
            lane.sort_unstable();
            assert!(
                lane.windows(2).all(|w| w[0] != w[1]),
                "{family}: two digests agree in quarter {quarter}"
            );
        }
    }

    #[test]
    fn chunk_id_no_collisions_over_counters() {
        let digests: Vec<ChunkId> = (0..1u64 << 20)
            .map(|i| chunk_id(&i.to_le_bytes()))
            .collect();
        assert_no_collisions("2^20 little-endian counters", &digests);
    }

    /// Digest of `block` with the given bits (indexed LSB-first from byte
    /// 0) flipped; `block` is restored before returning.
    fn flipped(block: &mut [u8], bits: &[usize]) -> ChunkId {
        for &b in bits {
            block[b / 8] ^= 1 << (b % 8);
        }
        let id = chunk_id(block);
        for &b in bits {
            block[b / 8] ^= 1 << (b % 8);
        }
        id
    }

    #[test]
    fn chunk_id_no_collisions_over_bit_flips_of_a_zero_block() {
        // Every 1- and 2-bit flip of two whole stripes, exhaustively…
        let mut small = [0u8; 128];
        let nbits = small.len() * 8;
        let mut digests = vec![chunk_id(&small)];
        for i in 0..nbits {
            digests.push(flipped(&mut small, &[i]));
            for j in i + 1..nbits {
                digests.push(flipped(&mut small, &[i, j]));
            }
        }
        assert_eq!(digests.len(), 1 + nbits + nbits * (nbits - 1) / 2);
        assert_no_collisions("1- and 2-bit flips of 128 zero bytes", &digests);

        // …and of a 4 KiB zero block every 1-bit flip, plus every 2-bit
        // flip at the distances where the structure could cancel: the
        // neighbouring bit, byte and word (the two operands of one
        // multiply), the same word one lane over and one stripe on. (All
        // 5.4 × 10^8 pairs would be 2 TB of hashing.)
        let mut block = vec![0u8; 4096];
        let nbits = block.len() * 8;
        let mut digests = vec![chunk_id(&block)];
        for i in 0..nbits {
            digests.push(flipped(&mut block, &[i]));
            for d in [1, 8, 64, 128, 512] {
                if i + d < nbits {
                    digests.push(flipped(&mut block, &[i, i + d]));
                }
            }
        }
        assert_no_collisions("bit flips of 4 KiB of zeros", &digests);
    }

    #[test]
    fn chunk_id_tells_zero_blocks_of_every_length_apart() {
        // Zero pages force-cut at max_size are the commonest chunk of a
        // real image: equal ones must dedup, and no two lengths may share a
        // name although every stripe they absorb is the same.
        let zeros = vec![0u8; 65_536];
        let digests: Vec<ChunkId> = (0..=zeros.len()).map(|n| chunk_id(&zeros[..n])).collect();
        assert_no_collisions("zero blocks of length 0..=65536", &digests);
        assert_eq!(chunk_id(&vec![0u8; 65_536]), digests[65_536]);
    }

    #[test]
    fn chunk_id_avalanche() {
        // Flipping any one input bit must flip each digest bit with
        // probability one half. Measured over random bases at lengths from
        // one byte to a max-size chunk: every input bit of the short
        // lengths (where a partial stripe and the final rounds do all the
        // work), 64 spread bits (first and last byte included) of the long
        // ones. Tolerance: six standard deviations of a fair coin over the
        // number of trials behind each rate — per (input bit, digest bit)
        // cell, per digest bit over all input bits, and per input bit over
        // all digest bits.
        let within = |flips: u64, trials: u64, what: &str| {
            let rate = flips as f64 / trials as f64;
            let tol = 3.0 / (trials as f64).sqrt();
            assert!(
                (rate - 0.5).abs() <= tol,
                "{what}: flip rate {rate:.4} over {trials} trials (tolerance ±{tol:.4})"
            );
        };
        let mut seed = 0x00c0_ffee_u64;
        let mut next = || {
            seed = seed.wrapping_add(1);
            splitmix64(seed)
        };
        let lengths = [
            1usize, 2, 3, 7, 8, 9, 16, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1000, 4096, 16_384,
            65_536,
        ];
        for len in lengths {
            let nbits = len * 8;
            let (in_bits, trials): (Vec<usize>, u64) = if len <= 129 {
                ((0..nbits).collect(), 128)
            } else {
                let spread = (0..48).map(|k| 8 + k * (nbits - 16) / 48);
                ((0..8).chain(spread).chain(nbits - 8..nbits).collect(), 32)
            };
            let mut per_out = [0u64; 256];
            for &bit in &in_bits {
                let mut cell = [0u64; 256];
                for _ in 0..trials {
                    let mut base = vec![0u8; len];
                    for w in base.chunks_mut(8) {
                        w.copy_from_slice(&next().to_le_bytes()[..w.len()]);
                    }
                    let before = chunk_id(&base);
                    let after = flipped(&mut base, &[bit]);
                    for (o, slot) in cell.iter_mut().enumerate() {
                        *slot += u64::from((before.0[o / 8] ^ after.0[o / 8]) >> (o % 8) & 1);
                    }
                }
                for (o, &flips) in cell.iter().enumerate() {
                    within(
                        flips,
                        trials,
                        &format!("len {len} in-bit {bit} out-bit {o}"),
                    );
                    per_out[o] += flips;
                }
                let what = format!("len {len} in-bit {bit} (all digest bits)");
                within(cell.iter().sum(), 256 * trials, &what);
            }
            for (o, &flips) in per_out.iter().enumerate() {
                let what = format!("len {len} out-bit {o} (all input bits)");
                within(flips, in_bits.len() as u64 * trials, &what);
            }
        }
    }
}
