//! Property-based tests for the checkpoint codec and image format.

use proptest::prelude::*;
use splitproc::journal::{JournalRecord, JournalStep};
use splitproc::store::{Manifest, ManifestEntry};
use splitproc::{crc32, CkptImage, Decode, Encode, ImageError, UpperHalf};
use splitproc::{FormatError, ImageHead, ImageHeader, Recipe};
use std::collections::BTreeMap;
use std::fmt::Debug;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn codec_roundtrip_nested(
        v in proptest::collection::vec(
            (any::<u64>(), proptest::option::of(any::<i64>()),
             proptest::collection::vec(any::<u8>(), 0..16)),
            0..16)
    ) {
        let bytes = v.to_bytes();
        let back = Vec::<(u64, Option<i64>, Vec<u8>)>::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn codec_roundtrip_strings(s in proptest::collection::vec(".*", 0..8)) {
        let bytes = s.to_bytes();
        prop_assert_eq!(Vec::<String>::from_bytes(&bytes).unwrap(), s);
    }

    #[test]
    fn codec_roundtrip_map(
        m in proptest::collection::btree_map(any::<u64>(), any::<i64>(), 0..32)
    ) {
        let bytes = m.to_bytes();
        prop_assert_eq!(BTreeMap::<u64, i64>::from_bytes(&bytes).unwrap(), m);
    }

    #[test]
    fn truncated_codec_input_never_panics(
        v in proptest::collection::vec(any::<u64>(), 0..16),
        cut in any::<usize>(),
    ) {
        let bytes = v.to_bytes();
        let cut = cut % (bytes.len() + 1);
        // Must return an error or a (possibly different) value — never panic.
        let _ = Vec::<u64>::from_bytes(&bytes[..cut]);
    }

    #[test]
    fn random_bytes_never_panic_decoders(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Vec::<String>::from_bytes(&bytes);
        let _ = Vec::<(u64, Vec<u8>)>::from_bytes(&bytes);
        let _ = UpperHalf::from_bytes(&bytes);
        let _ = CkptImage::from_bytes(&bytes);
        // The store's trailered files, once as they come (almost always a
        // checksum mismatch) and once under a trailer that holds, so the
        // random bytes reach the body decoders.
        let sealed = [&bytes[..], &crc32(&bytes).to_le_bytes()].concat();
        for file in [&bytes, &sealed] {
            let _ = Manifest::from_bytes(file);
            let _ = Recipe::from_bytes(file);
            let _ = JournalRecord::from_bytes(file);
        }
    }

    #[test]
    fn upperhalf_roundtrip(
        segs in proptest::collection::btree_map(
            "[a-z]{1,8}", proptest::collection::vec(any::<u8>(), 0..64), 0..8)
    ) {
        let mut uh = UpperHalf::new();
        for (k, v) in &segs {
            uh.write_segment(k, v.clone());
        }
        let back = UpperHalf::from_bytes(&uh.to_bytes()).unwrap();
        prop_assert_eq!(&back, &uh);
        prop_assert_eq!(back.total_bytes(), segs.values().map(|v| v.len()).sum::<usize>());
    }

    #[test]
    fn image_roundtrip(
        rank in 0usize..4096,
        world in 1usize..8192,
        round in any::<u64>(),
        upper in proptest::collection::vec(any::<u8>(), 0..128),
        meta in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let img = CkptImage { rank, world_size: world, round, upper, meta };
        let (file, crc) = img.to_bytes_with_crc();
        prop_assert_eq!(&file, &img.to_bytes());
        // The combined checksum is the one a pass over the file gives.
        prop_assert_eq!(crc, crc32(&file));
        let back = ImageBuf::try_from(file.clone()).unwrap();
        prop_assert_eq!(CkptImage::from(&back), img.clone());
        prop_assert_eq!(CkptImage::from_bytes(&file).unwrap(), img);
    }

    #[test]
    fn single_bitflip_in_payload_is_detected(
        upper in proptest::collection::vec(any::<u8>(), 1..64),
        meta in proptest::collection::vec(any::<u8>(), 1..64),
        flip_byte in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let img = CkptImage { rank: 1, world_size: 2, round: 0, upper, meta };
        let mut bytes = img.to_bytes();
        let header = bytes.len() - img.upper.len() - img.meta.len();
        let idx = header + flip_byte % (img.upper.len() + img.meta.len());
        bytes[idx] ^= 1 << flip_bit;
        let corrupt_detected = matches!(
            CkptImage::from_bytes(&bytes),
            Err(ImageError::BadCrc { .. })
        );
        prop_assert!(corrupt_detected, "bit flip went undetected");
    }

    #[test]
    fn crc_differs_on_append(data in proptest::collection::vec(any::<u8>(), 0..128), extra in any::<u8>()) {
        let a = crc32(&data);
        let mut d2 = data.clone();
        d2.push(extra);
        // Appending a byte changes the CRC (always true for CRC-32 with
        // nonzero init).
        prop_assert_ne!(a, crc32(&d2));
    }
}

// ---- damaged store files are refused, typed ----------------------------------

/// Every proper prefix and every single-bit flip of `file` is refused by
/// `parse` with a [`FormatError`] — never read as some other value.
fn damage_is_refused<T: Debug>(
    file: &[u8],
    parse: impl Fn(&[u8]) -> Result<T, FormatError>,
) -> Result<(), TestCaseError> {
    for cut in 0..file.len() {
        let got = parse(&file[..cut]);
        prop_assert!(got.is_err(), "a {}-byte prefix parsed: {:?}", cut, got);
    }
    let mut flipped = file.to_vec();
    for bit in 0..file.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        let got = parse(&flipped);
        prop_assert!(got.is_err(), "bit {} flipped parsed: {:?}", bit, got);
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A manifest, a recipe and one record of each journal step kind: each
    /// parses back, and no truncation or bit flip of it parses at all. A
    /// flat image is held to the truncation half only: a flip in its rank,
    /// world or round field leaves a well-formed image that no check of
    /// its own can tell from the original — the manifest's whole-file CRC
    /// catches it at selection, not `CkptImage::from_bytes`.
    #[test]
    fn damaged_store_files_are_refused_with_the_format_error(
        counts in (any::<u64>(), any::<u64>()),
        entries in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u32>()), 0..4),
        head in (any::<usize>(), any::<usize>(), any::<u64>()),
        sections in (any::<usize>(), any::<usize>(), any::<u32>(), any::<u32>()),
        refs in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<bool>()), 0..5),
        steps in (any::<u64>(), any::<u64>(), any::<u64>()),
        failed in proptest::collection::vec(any::<u64>(), 0..4),
        upper in proptest::collection::vec(any::<u8>(), 0..48),
        meta in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let entries = entries.into_iter().map(|(rank, bytes, crc)| ManifestEntry { rank, bytes, crc });
        let (round, world_size) = counts;
        let manifest = Manifest { round, world_size, entries: entries.collect() };
        let file = manifest.to_bytes();
        prop_assert_eq!(Manifest::from_bytes(&file), Ok(manifest));
        damage_is_refused(&file, Manifest::from_bytes)?;

        let head = ImageHead { rank: head.0, world_size: head.1, round: head.2 };
        let (upper_len, meta_len, upper_crc, meta_crc) = sections;
        let chunk_ref = |&(seed, len, _): &(u64, u64, bool)| splitproc::ChunkRef {
            id: splitproc::chunk::chunk_id(&seed.to_le_bytes()),
            len,
        };
        let recipe = Recipe {
            header: ImageHeader {
                head,
                upper_len,
                meta_len,
                upper_crc,
                meta_crc,
            },
            upper_chunks: refs.iter().filter(|r| r.2).map(chunk_ref).collect(),
            meta_chunks: refs.iter().filter(|r| !r.2).map(chunk_ref).collect(),
        };
        let file = recipe.to_bytes();
        prop_assert_eq!(Recipe::from_bytes(&file), Ok(recipe));
        damage_is_refused(&file, Recipe::from_bytes)?;

        let (epoch, gen, rank) = steps;
        for step in [
            JournalStep::RestartIntent { gen, failed },
            JournalStep::GenValidated { gen },
            JournalStep::RankRestored { rank },
            JournalStep::CommsRebuilt,
            JournalStep::RestartCommitted,
        ] {
            let record = JournalRecord { epoch, step };
            let file = record.to_bytes();
            prop_assert_eq!(JournalRecord::from_bytes(&file), Ok(record));
            damage_is_refused(&file, JournalRecord::from_bytes)?;
        }

        let image = CkptImage {
            rank: head.rank,
            world_size: head.world_size,
            round: head.round,
            upper,
            meta,
        };
        let file = image.to_bytes();
        for cut in 0..file.len() {
            let got = CkptImage::from_bytes(&file[..cut]);
            prop_assert!(matches!(got, Err(ImageError::Format(_))), "{}-byte prefix: {:?}", cut, got);
        }
    }
}

// ---- content-defined chunker properties ------------------------------------

use splitproc::chunk::{self, ChunkParams, ChunkRef};

/// Small bounds so even modest random payloads produce several chunks.
fn tiny_params() -> ChunkParams {
    ChunkParams {
        min_size: 16,
        avg_size: 64,
        max_size: 256,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn chunk_split_reassembles_byte_identically(
        data in proptest::collection::vec(any::<u8>(), 0..4096)
    ) {
        let ranges = chunk::split(&data, tiny_params());
        // Ranges tile the input: contiguous, in order, full coverage.
        let mut pos = 0usize;
        for r in &ranges {
            prop_assert_eq!(r.start, pos);
            prop_assert!(r.end > r.start);
            pos = r.end;
        }
        prop_assert_eq!(pos, data.len());
        // Reassembling the chunk contents reproduces the input exactly.
        let rebuilt: Vec<u8> = chunk::chunk_payload(&data, tiny_params(), &[], |_| false)
            .chunks
            .iter()
            .flat_map(|(_, bytes)| bytes.iter().copied())
            .collect();
        prop_assert_eq!(rebuilt, data);
    }

    #[test]
    fn chunk_boundaries_are_deterministic_and_bounded(
        data in proptest::collection::vec(any::<u8>(), 1..4096)
    ) {
        let p = tiny_params();
        let a = chunk::split(&data, p);
        let b = chunk::split(&data, p);
        prop_assert_eq!(&a, &b, "same input, same params, same boundaries");
        // Every chunk except possibly the last respects [min, max]; the
        // last may be shorter than min (payload tail).
        for (i, r) in a.iter().enumerate() {
            prop_assert!(r.end - r.start <= p.max_size);
            if i + 1 < a.len() {
                prop_assert!(r.end - r.start >= p.min_size);
            }
        }
    }

    #[test]
    fn single_byte_edit_invalidates_bounded_chunk_set(
        data in proptest::collection::vec(any::<u8>(), 512..4096),
        edit_at in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let p = tiny_params();
        let mut edited = data.clone();
        let at = edit_at % edited.len();
        edited[at] ^= xor;

        let ids = |d: &[u8]| -> Vec<chunk::ChunkId> {
            chunk::chunk_payload(d, p, &[], |_| false).chunks.iter().map(|(r, _)| r.id).collect()
        };
        let before = ids(&data);
        let after = ids(&edited);
        let before_set: std::collections::BTreeSet<_> = before.iter().copied().collect();
        let changed = after.iter().filter(|id| !before_set.contains(id)).count();
        // A cut decision sees only as many trailing bytes as the mask has
        // bits, so a single-byte edit can move boundaries only within the
        // edited chunk and its immediate successors until the cut
        // sequence resynchronizes.
        // With max_size = 256 the damage is confined to a handful of
        // chunks — nothing close to a whole-stream invalidation.
        prop_assert!(
            changed <= 6,
            "single-byte edit invalidated {} of {} chunks",
            changed,
            after.len()
        );
    }

    #[test]
    fn fused_chunk_payload_equals_split_then_key(
        data in proptest::collection::vec(any::<u8>(), 0..8192),
        min_size in 0usize..600,
        avg_size in 0usize..2000,
        max_size in 0usize..5000,
    ) {
        // Arbitrary (also unordered, also tiny) params: the one pass must
        // agree with the two it replaced, whatever `normalized` makes of
        // them.
        let params = ChunkParams { min_size, avg_size, max_size };
        let chunk::Chunked { chunks, guided, keyed } =
            chunk::chunk_payload(&data, params, &[], |_| false);
        prop_assert_eq!(guided, 0);
        prop_assert_eq!(keyed, data.len(), "an unguided pass keys every byte once");
        let ranges = chunk::split(&data, params);
        prop_assert_eq!(chunks.len(), ranges.len());
        for ((cref, bytes), range) in chunks.iter().zip(ranges) {
            prop_assert_eq!(*bytes, &data[range]);
            prop_assert_eq!(cref.len, bytes.len() as u64);
            prop_assert_eq!(cref.id, chunk::chunk_id(bytes));
        }
    }
}

// ---- guided chunking: the previous recipe's cut points ---------------------

/// The refs of `data` as an unguided pass cuts them: what a recipe holds.
fn refs_of(data: &[u8], params: ChunkParams) -> Vec<ChunkRef> {
    let chunks = chunk::chunk_payload(data, params, &[], |_| false).chunks;
    chunks.iter().map(|(cref, _)| *cref).collect()
}

/// Params from three raw sizes, small enough that a few KiB cut many times.
fn params_from((min_size, avg_size, max_size): (usize, usize, usize)) -> ChunkParams {
    ChunkParams {
        min_size,
        avg_size,
        max_size,
    }
}

/// What any chunking of `data` must be, guided or not: refs in order that
/// cover `data` exactly, each the id and length of its own bytes, shaped
/// as the chunker shapes them.
fn assert_recipe_of(
    data: &[u8],
    params: ChunkParams,
    out: &chunk::Chunked<'_>,
) -> Result<(), TestCaseError> {
    let p = params.normalized();
    let mut pos = 0usize;
    for (i, (cref, bytes)) in out.chunks.iter().enumerate() {
        let len = bytes.len();
        prop_assert_eq!(*bytes, &data[pos..pos + len]);
        prop_assert_eq!(cref.len, len as u64);
        prop_assert_eq!(cref.id, chunk::chunk_id(bytes));
        prop_assert!(
            (1..=p.max_size).contains(&len),
            "chunk {} is {} bytes",
            i,
            len
        );
        prop_assert!(
            len >= p.min_size || pos + len == data.len(),
            "short chunk {}",
            i
        );
        pos += len;
    }
    prop_assert_eq!(pos, data.len());
    prop_assert!(out.guided <= out.chunks.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// (a) Same params, same length, 0–3 rewritten windows plus optional
    /// edits of the first and the last byte: the guided pass is the
    /// unguided pass, ref for ref — only faster.
    #[test]
    fn guided_chunking_equals_unguided_after_window_edits(
        old in proptest::collection::vec(any::<u8>(), 1..6000),
        sizes in (0usize..300, 0usize..1000, 0usize..3000),
        windows in proptest::collection::vec((any::<usize>(), 1usize..400, 1u8..=255), 0..=3),
        first in any::<bool>(),
        last in any::<bool>(),
    ) {
        let params = params_from(sizes);
        let guide = refs_of(&old, params);
        let mut new = old.clone();
        let n = new.len();
        for &(at, width, xor) in &windows {
            let at = at % n;
            for b in &mut new[at..(at + width).min(n)] {
                *b ^= xor;
            }
        }
        if first {
            new[0] ^= 0x80;
        }
        if last {
            new[n - 1] ^= 0x01;
        }
        let guided = chunk::chunk_payload(&new, params, &guide, |_| false);
        let unguided = chunk::chunk_payload(&new, params, &[], |_| false);
        prop_assert_eq!(&guided.chunks, &unguided.chunks);
        assert_recipe_of(&new, params, &guided)?;
        if new == old {
            prop_assert_eq!(guided.guided, guided.chunks.len(), "an unchanged payload re-cuts nothing");
        }
    }

    /// (b) Whatever the guide — made-up refs, refs of spans of this very
    /// payload at arbitrary offsets, another payload's, other params',
    /// truncated, longer than the data, or this section before it grew or
    /// shrank — the result is a valid recipe of `data`.
    #[test]
    fn any_guide_gives_a_valid_recipe(
        data in proptest::collection::vec(any::<u8>(), 0..5000),
        other in proptest::collection::vec(any::<u8>(), 0..5000),
        sizes in (0usize..300, 0usize..1000, 0usize..3000),
        other_sizes in (0usize..300, 0usize..1000, 0usize..3000),
        made_up in proptest::collection::vec((any::<u64>(), 0u64..4000), 0..40),
        cuts in proptest::collection::vec(any::<usize>(), 0..24),
        at in any::<usize>(),
        kind in 0usize..8,
    ) {
        let params = params_from(sizes);
        let at = at % (data.len() + 1);
        let guide: Vec<ChunkRef> = match kind {
            // Ids that name no span of `data`.
            0 => made_up.iter().map(|&(seed, len)| ChunkRef {
                id: chunk::chunk_id(&seed.to_le_bytes()),
                len,
            }).collect(),
            1 => {
                // True ids at cut points no chunker chose.
                let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
                cuts.extend([0, data.len()]);
                cuts.sort_unstable();
                cuts.dedup();
                cuts.windows(2).map(|w| ChunkRef {
                    id: chunk::chunk_id(&data[w[0]..w[1]]),
                    len: (w[1] - w[0]) as u64,
                }).collect()
            }
            2 => refs_of(&other, params),
            3 => refs_of(&data, params_from(other_sizes)),
            4 => {
                let mut refs = refs_of(&data, params);
                refs.truncate(at % (refs.len() + 1));
                refs
            }
            5 => refs_of(&[&data[..], &other[..]].concat(), params),
            6 => refs_of(&data[..at], params),
            _ => refs_of(&[&data[..at], &other[..], &data[at..]].concat(), params),
        };
        let out = chunk::chunk_payload(&data, params, &guide, |_| false);
        assert_recipe_of(&data, params, &out)?;
    }
}

// ---- key reuse: chunked writes from a kept buffer ---------------------------

use splitproc::blobs::{BlobEntry, PutCost, PutMode};
use splitproc::store::generation_dir;
use splitproc::{Blobs, ImageBuf, LocalFs, Store, StoreConfig, StoreMode};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The local filesystem, but `remove` fails while `refuse` is set: an
/// aborted round whose generation stays behind.
struct StuckRemove {
    refuse: Arc<AtomicBool>,
}

impl Blobs for StuckRemove {
    fn put_atomic(
        &self,
        path: &Path,
        bytes: &[u8],
        mode: PutMode,
    ) -> (PutCost, std::io::Result<()>) {
        LocalFs.put_atomic(path, bytes, mode)
    }

    fn get(&self, path: &Path, into: Option<&mut Vec<u8>>) -> std::io::Result<u64> {
        LocalFs.get(path, into)
    }

    fn list(&self, dir: &Path) -> std::io::Result<Vec<BlobEntry>> {
        LocalFs.list(dir)
    }

    fn remove(&self, path: &Path) -> std::io::Result<()> {
        if self.refuse.load(Ordering::Relaxed) {
            return Err(std::io::Error::other("removal refused"));
        }
        LocalFs.remove(path)
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        LocalFs.sync_dir(dir)
    }
}

/// Upper-section blocks of a kept buffer's CRC table.
const BLOCK: usize = 64 << 10;

/// Every ref is the key of the bytes it covers in `section`, and the refs
/// are the ones an unguided pass cuts.
fn assert_keys_of(
    section: &[u8],
    refs: &[ChunkRef],
    params: ChunkParams,
) -> Result<(), TestCaseError> {
    let mut at = 0;
    for r in refs {
        let end = at + r.len as usize;
        prop_assert_eq!(r.id, chunk::chunk_id(&section[at..end]), "ref at {}", at);
        at = end;
    }
    prop_assert_eq!(at, section.len());
    prop_assert_eq!(refs, &refs_of(section, params)[..]);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One rank's kept buffer written to a chunked store over any sequence
    /// of window edits, whole-slab rewrites, resizes, rounds encoded but
    /// never written, writes committed or aborted (their generation removed
    /// or, the removal failing, left behind), restarts into a fresh buffer
    /// or into the buffer restart reads the last committed round back
    /// into, and foreign guides — a recipe of a round the rank skipped that
    /// carries its last write's header, but that round, and wrong ids.
    /// After every write that lands a recipe every ref is the key of its
    /// bytes, and the recipe is the one an unguided write lands. A write
    /// that lands flat is the image's file and CRC, from a buffer
    /// checksummed before whose every block was stale (every payload byte
    /// checksummed, none keyed).
    #[test]
    fn reused_keys_are_the_keys_of_the_bytes(
        steps in proptest::collection::vec((0u8..12, any::<u32>(), any::<u32>(), any::<u8>()), 1..14),
    ) {
        let root = std::env::temp_dir()
            .join(format!("mana2_prop_key_reuse_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let params = ChunkParams { min_size: 1 << 10, avg_size: 4 << 10, max_size: 16 << 10 };
        let cfg = StoreConfig { mode: StoreMode::Chunked, chunk: params, ..StoreConfig::default() };
        let refuse = Arc::new(AtomicBool::new(false));
        let blobs = Box::new(StuckRemove { refuse: refuse.clone() });
        let store = Store::new(&root, cfg, obs::Telemetry::off(), blobs);
        let mut upper = UpperHalf::new();
        let slab = (0..5 * BLOCK as u32 + 77).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8);
        upper.write_segment("slab", slab.collect());
        let mut buf = ImageBuf::default();
        let (mut round, mut last, mut committed) = (0u64, None::<Recipe>, None);
        // Has the buffer been checksummed (written, or read back) since it
        // was fresh?
        let mut checksummed = false;
        for (op, a, b, v) in steps {
            let len = upper.segment("slab").map_or(0, <[u8]>::len);
            let head = ImageHead { rank: 0, world_size: 1, round };
            let meta = vec![v; a as usize % 70];
            match op {
                // Rewrite a window of the slab, up to a block wide.
                0..=2 => {
                    let start = a as usize % len.max(1);
                    let end = (start + b as usize % BLOCK).min(len);
                    upper.segment_mut("slab")[start..end].fill(v);
                }
                3 => upper.segment_mut("slab").resize(b as usize % (6 * BLOCK), v),
                // Rewrite every byte of the slab.
                11 => upper.segment_mut("slab").iter_mut().for_each(|x| *x ^= v | 1),
                // A restore into an empty buffer.
                4 => (buf, checksummed) = (ImageBuf::default(), false),
                // A restart from the last committed round: the rank's
                // state and buffer are what restart read back, and rounds
                // go on from the one after it.
                10 => {
                    let Some(at) = committed else { continue };
                    buf = store.load_image(at, 0).unwrap();
                    upper = UpperHalf::from_bytes(buf.sections().0).unwrap();
                    (round, checksummed) = (at + 1, true);
                }
                // A round encoded but never written, with (6) or without a
                // foreign recipe in its generation.
                5 | 6 => {
                    head.encode_into(&mut buf, &upper, &meta);
                    if let Some(mut foreign) = last.clone().filter(|_| op == 6) {
                        foreign.header.head.round = round;
                        let refs = foreign.upper_chunks.iter_mut().chain(&mut foreign.meta_chunks);
                        refs.for_each(|r| r.id = chunk::chunk_id(&r.id.0));
                        let path = store.recipe_path(round, 0);
                        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                        std::fs::write(path, foreign.to_bytes()).unwrap();
                    }
                    round += 1;
                }
                // A write, committed (7) or aborted, its removal failing (9).
                _ => {
                    let out = store.write_encoded(head.encode_into(&mut buf, &upper, &meta)).unwrap();
                    let (upper_bytes, meta_bytes) = (upper.to_bytes(), meta.to_bytes());
                    let flat = CkptImage::path_for(&generation_dir(&root, round), 0);
                    let recipe = match std::fs::read(&flat) {
                        Ok(file) => {
                            let payload = upper_bytes.len() + meta_bytes.len();
                            prop_assert!(checksummed, "a first image landed flat");
                            prop_assert_eq!((out.crc_bytes, out.key_bytes), (payload, 0));
                            prop_assert!(!store.recipe_path(round, 0).exists());
                            let image = CkptImage {
                                rank: 0,
                                world_size: 1,
                                round,
                                upper: upper_bytes.clone(),
                                meta: meta_bytes.clone(),
                            };
                            prop_assert_eq!((file, out.crc), image.to_bytes_with_crc());
                            // What a recipe of this write would have been:
                            // a later foreign guide carries its header.
                            let header = ImageHeader {
                                head,
                                upper_len: upper_bytes.len(),
                                meta_len: meta_bytes.len(),
                                upper_crc: crc32(&upper_bytes),
                                meta_crc: crc32(&meta_bytes),
                            };
                            let upper_chunks = refs_of(&upper_bytes, params);
                            let meta_chunks = refs_of(&meta_bytes, params);
                            Recipe { header, upper_chunks, meta_chunks }
                        }
                        Err(_) => {
                            let file = std::fs::read(store.recipe_path(round, 0)).unwrap();
                            let recipe = Recipe::from_bytes(&file).unwrap();
                            assert_keys_of(&upper_bytes, &recipe.upper_chunks, params)?;
                            assert_keys_of(&meta_bytes, &recipe.meta_chunks, params)?;
                            prop_assert_eq!(recipe.header.upper_crc, crc32(&upper_bytes));
                            recipe
                        }
                    };
                    checksummed = true;
                    if op == 7 {
                        let entries = vec![ManifestEntry { rank: 0, bytes: out.bytes as u64, crc: out.crc }];
                        store.commit(&Manifest { round, world_size: 1, entries }).unwrap();
                        committed = Some(round);
                    } else {
                        refuse.store(op == 9, Ordering::Relaxed);
                        prop_assert_eq!(store.abort(round).is_err(), op == 9);
                        refuse.store(false, Ordering::Relaxed);
                    }
                    last = Some(recipe);
                    round += 1;
                }
            }
        }
        std::fs::remove_dir_all(&root).ok();
    }
}
