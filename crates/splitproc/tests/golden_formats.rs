//! Format stability: bytes written by the commit *before* the CRC kernel
//! was replaced must still parse and validate. Each image literal below
//! was produced by that commit's `write_image` / `commit_generation` (one
//! rank, round 2; upper 48 B, meta 5 B — small enough that each payload
//! is a single chunk in the chunked layout). A change to the CRC
//! polynomial, a table, a record layout or a header field breaks these.
//!
//! `JOURNAL` is the single-file restart journal of the same commit (three
//! framed records of an open epoch 3). The blob layout that replaced it
//! must ignore it, never misread it, and collect it; `JOURNAL_BLOB` is
//! the first of those records as one record blob of that layout.
//!
//! The chunked fixture of that commit is recipe version 1: its two pool
//! chunks are named by SHA-256, which this build no longer carries, so it
//! must be refused — never misread — and its generation passed over.
//! `CHUNKED_V2_RANK_FILE` is the same image as the commit that replaced
//! the chunk key wrote it (recipe version 2); a change to the key
//! function's constants, rounds or byte order breaks it.
//!
//! The fixtures after `JOURNAL_BLOB` were written by the commit before
//! the store's four file grammars moved onto the codec, so that move is
//! checked against bytes the hand-rolled writers produced: a recipe with
//! two refs in each list, a three-rank manifest, and one record blob of
//! each journal step kind `JOURNAL_BLOB` does not cover.

use splitproc::journal::{self, Journal, JournalRecord, JournalStep};
use splitproc::store::{self, Manifest, Store, StoreConfig, StoreError, StoreMode};
use splitproc::{
    chunk, crc32, ChunkId, ChunkRef, CkptImage, FormatError, ImageHead, ImageHeader, Recipe,
};
use std::fs;
use std::path::PathBuf;

const UPPER: &[u8] = &[
    0x0b, 0x30, 0x55, 0x7a, 0x9f, 0xc4, 0xe9, 0x0e, 0x33, 0x58, 0x7d, 0xa2, 0xc7, 0xec, 0x11, 0x36,
    0x5b, 0x80, 0xa5, 0xca, 0xef, 0x14, 0x39, 0x5e, 0x83, 0xa8, 0xcd, 0xf2, 0x17, 0x3c, 0x61, 0x86,
    0xab, 0xd0, 0xf5, 0x1a, 0x3f, 0x64, 0x89, 0xae, 0xd3, 0xf8, 0x1d, 0x42, 0x67, 0x8c, 0xb1, 0xd6,
];
const META: &[u8] = &[0xa5, 0x5a, 0x00, 0xff, 0x42];
const FLAT_RANK_FILE: &[u8] = &[
    0x4d, 0x41, 0x4e, 0x41, 0x32, 0x43, 0x4b, 0x50, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0xa2, 0x82, 0x66, 0xff, 0xf3, 0xd5, 0xa3, 0xd1, 0x0b, 0x30, 0x55, 0x7a,
    0x9f, 0xc4, 0xe9, 0x0e, 0x33, 0x58, 0x7d, 0xa2, 0xc7, 0xec, 0x11, 0x36, 0x5b, 0x80, 0xa5, 0xca,
    0xef, 0x14, 0x39, 0x5e, 0x83, 0xa8, 0xcd, 0xf2, 0x17, 0x3c, 0x61, 0x86, 0xab, 0xd0, 0xf5, 0x1a,
    0x3f, 0x64, 0x89, 0xae, 0xd3, 0xf8, 0x1d, 0x42, 0x67, 0x8c, 0xb1, 0xd6, 0xa5, 0x5a, 0x00, 0xff,
    0x42,
];
const FLAT_MANIFEST: &[u8] = &[
    0x4d, 0x41, 0x4e, 0x41, 0x32, 0x4d, 0x41, 0x4e, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x71, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0xb4, 0xa7, 0x11, 0x12, 0x43, 0x77, 0x0b, 0x02,
];
const CHUNKED_RANK_FILE: &[u8] = &[
    0x4d, 0x41, 0x4e, 0x41, 0x32, 0x43, 0x52, 0x46, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0xa2, 0x82, 0x66, 0xff, 0xf3, 0xd5, 0xa3, 0xd1, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0xa6, 0x25, 0x0d, 0xa1, 0xe7, 0xca, 0x14, 0x4a, 0xf7, 0xfd, 0xac, 0x8f,
    0xd7, 0x37, 0xc2, 0xe8, 0x8e, 0x87, 0xcc, 0x08, 0xe2, 0x32, 0xb1, 0x6b, 0x53, 0x45, 0x22, 0x27,
    0xa5, 0x6d, 0x5d, 0xde, 0x30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x22, 0xd8, 0x5f, 0x93, 0xa0, 0xe2, 0xd9, 0x4e, 0x96, 0x66, 0x24, 0x82,
    0xe5, 0xb7, 0x7e, 0xc1, 0x4c, 0x11, 0x97, 0xae, 0x48, 0x8c, 0x45, 0x2f, 0x9e, 0x27, 0x89, 0x02,
    0x6c, 0xc2, 0xc4, 0x68, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4b, 0xaa, 0x27, 0x40,
];
const CHUNKED_V2_RANK_FILE: &[u8] = &[
    0x4d, 0x41, 0x4e, 0x41, 0x32, 0x43, 0x52, 0x46, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0xa2, 0x82, 0x66, 0xff, 0xf3, 0xd5, 0xa3, 0xd1, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0xc2, 0x9e, 0x2f, 0x66, 0x69, 0xc3, 0x6c, 0x38, 0x11, 0x5e, 0x0a, 0xdb,
    0xad, 0xe1, 0xe2, 0x96, 0xd2, 0x2c, 0x79, 0xc8, 0xe6, 0x32, 0x51, 0x01, 0xf9, 0x48, 0x06, 0xf2,
    0xcd, 0x56, 0xa9, 0x9a, 0x30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0xad, 0xfe, 0x6f, 0x45, 0xbe, 0x1e, 0x7a, 0xc9, 0x35, 0xda, 0xf5, 0x1e,
    0x5b, 0x89, 0x12, 0xdc, 0x47, 0xe5, 0x9c, 0xa1, 0xef, 0x59, 0xcf, 0xa4, 0xc4, 0xc3, 0x00, 0x70,
    0x1e, 0x1c, 0xfe, 0x09, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x63, 0x77, 0xa8, 0x1c,
];
/// Serves both recipe versions: the two rank files have the same size, and
/// the CRC-32 of any file that ends in its own CRC-32 is the same residue
/// (`0x2144df1c`), so the two manifests are the same bytes.
const CHUNKED_MANIFEST: &[u8] = &[
    0x4d, 0x41, 0x4e, 0x41, 0x32, 0x4d, 0x41, 0x4e, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xa0, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x1c, 0xdf, 0x44, 0x21, 0xc5, 0xce, 0x33, 0x6f,
];
const JOURNAL: &[u8] = &[
    0x4d, 0x41, 0x4e, 0x41, 0x32, 0x4a, 0x4e, 0x4c, 0x01, 0x00, 0x00, 0x00, 0x29, 0x00, 0x00, 0x00,
    0x6c, 0xfe, 0x50, 0xab, 0x01, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x11, 0x00, 0x00,
    0x00, 0xf5, 0xd2, 0x3e, 0x76, 0x02, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x11, 0x00, 0x00, 0x00, 0x55, 0x1e, 0x17, 0x7f, 0x03, 0x03,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
];

/// Where `Journal::append` lands epoch 3's first step, and its bytes.
const JOURNAL_BLOB_NAME: &str = "restart/e00003/00000-restart_intent-0";
const JOURNAL_BLOB: &[u8] = &[
    0x01, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x6c, 0xfe, 0x50, 0xab,
];

/// `UPPER` cut at 20 and `META` at 2: two refs per list, version 2.
const RECIPE_FOUR_REFS: &[u8] = &[
    0x4d, 0x41, 0x4e, 0x41, 0x32, 0x43, 0x52, 0x46, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0xa2, 0x82, 0x66, 0xff, 0xf3, 0xd5, 0xa3, 0xd1, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0xe4, 0x32, 0x78, 0x47, 0xfa, 0x25, 0x21, 0x1e, 0x47, 0xbd, 0xca, 0xca,
    0x31, 0xa5, 0x8e, 0x75, 0x1d, 0x2e, 0x56, 0x80, 0x82, 0xa1, 0x04, 0x7a, 0xa5, 0x40, 0x1e, 0x88,
    0x4b, 0x75, 0xa4, 0x73, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x17, 0xc1, 0x39, 0x8f,
    0xad, 0xb6, 0xfb, 0x2d, 0xb6, 0x59, 0xb8, 0x41, 0xcb, 0xd6, 0x05, 0x16, 0x67, 0x33, 0x75, 0x4d,
    0x49, 0xd9, 0x3f, 0x02, 0x9d, 0xf6, 0xf1, 0x1d, 0xec, 0x3d, 0xc1, 0x15, 0x1c, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4c, 0x10, 0xdd, 0xe6,
    0x6d, 0xd1, 0xa8, 0x2d, 0x47, 0xd4, 0xac, 0x56, 0x5e, 0xf3, 0x52, 0xce, 0x30, 0x7d, 0xe0, 0xfa,
    0x59, 0x73, 0xf0, 0x71, 0xf8, 0x25, 0xf8, 0xec, 0x47, 0x9b, 0x08, 0xde, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x92, 0xf9, 0x4d, 0xae, 0x8d, 0x74, 0xc9, 0x64, 0x47, 0x86, 0x18, 0xcc,
    0x1a, 0x8c, 0xf1, 0xd5, 0xe6, 0xbf, 0x53, 0xe8, 0x0f, 0xc8, 0xa0, 0x83, 0x1c, 0xcf, 0x8b, 0xc8,
    0x6d, 0xae, 0x24, 0x9c, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x9a, 0xf2, 0xa1, 0xd0,
];
/// Round 7 of a three-rank world (`three_rank_manifest`).
const MANIFEST_THREE_RANKS: &[u8] = &[
    0x4d, 0x41, 0x4e, 0x41, 0x32, 0x4d, 0x41, 0x4e, 0x01, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x71, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x43, 0x77, 0x02, 0x0b, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xef, 0xbe, 0xad, 0xde, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x78, 0x56, 0x34, 0x12,
    0xbf, 0x2c, 0x0c, 0xe6,
];
/// Epoch 3's later steps, as `Journal::append` lands them after
/// `JOURNAL_BLOB`: each blob's name and bytes.
const BLOB_VALIDATED: &[u8] = &[
    0x02, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0xf5, 0xd2, 0x3e, 0x76,
];
const BLOB_RESTORED: &[u8] = &[
    0x03, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0xaf, 0x10, 0x5d, 0xfb,
];
const BLOB_REBUILT: &[u8] = &[
    0x04, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x41, 0x42, 0x6a, 0x35,
];
const BLOB_COMMITTED: &[u8] = &[
    0x05, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x56, 0x11, 0x22,
];

/// The pool names `CHUNKED_RANK_FILE` gives `UPPER` and `META`: their
/// SHA-256, as the version 1 key named them.
fn v1_chunk_ids() -> [ChunkId; 2] {
    [
        "a6250da1e7ca144af7fdac8fd737c2e88e87cc08e232b16b53452227a56d5dde",
        "22d85f93a0e2d94e96662482e5b77ec14c1197ae488c452f9e2789026cc2c468",
    ]
    .map(|hex| ChunkId::from_hex(hex).unwrap())
}

fn expected_image() -> CkptImage {
    CkptImage {
        rank: 0,
        world_size: 1,
        round: 2,
        upper: UPPER.to_vec(),
        meta: META.to_vec(),
    }
}

fn tdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mana2_golden_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

#[test]
fn golden_flat_image_and_manifest_parse() {
    assert_eq!(
        CkptImage::from_bytes(FLAT_RANK_FILE).unwrap(),
        expected_image()
    );
    assert_eq!(expected_image().to_bytes(), FLAT_RANK_FILE);
    let m = Manifest::from_bytes(FLAT_MANIFEST).unwrap();
    assert_eq!((m.round, m.world_size, m.entries.len()), (2, 1, 1));
    assert_eq!(m.entries[0].bytes, FLAT_RANK_FILE.len() as u64);
    assert_eq!(m.entries[0].crc, crc32(FLAT_RANK_FILE));
    assert_eq!(m.to_bytes(), FLAT_MANIFEST);
}

#[test]
fn golden_recipe_parses() {
    let r = Recipe::from_bytes(CHUNKED_V2_RANK_FILE).unwrap();
    let h = r.header;
    assert_eq!((h.head.rank, h.head.world_size, h.head.round), (0, 1, 2));
    assert_eq!((h.upper_len, h.meta_len), (48, 5));
    assert_eq!((h.upper_crc, h.meta_crc), (crc32(UPPER), crc32(META)));
    assert_eq!((r.upper_chunks.len(), r.meta_chunks.len()), (1, 1));
    assert_eq!(r.upper_chunks[0].id, chunk::chunk_id(UPPER));
    assert_eq!(r.meta_chunks[0].id, chunk::chunk_id(META));
    assert_eq!(r.to_bytes(), CHUNKED_V2_RANK_FILE);
    // The version 1 recipe is intact (its own CRC holds, and it names its
    // chunks by SHA-256) but no longer read.
    assert_eq!(
        Recipe::from_bytes(CHUNKED_RANK_FILE),
        Err(FormatError::BadVersion("recipe", 1))
    );
    for (id, at) in v1_chunk_ids().into_iter().zip([68, 116]) {
        assert_eq!(id.0, CHUNKED_RANK_FILE[at..at + 32]);
    }
    for file in [CHUNKED_RANK_FILE, CHUNKED_V2_RANK_FILE] {
        let m = Manifest::from_bytes(CHUNKED_MANIFEST).unwrap();
        assert_eq!(m.entries[0].bytes, file.len() as u64);
        assert_eq!(m.entries[0].crc, crc32(file));
    }
}

#[test]
fn golden_v2_recipe_is_what_the_store_writes() {
    let root = tdir("v2_write");
    let cfg = StoreConfig {
        mode: StoreMode::Chunked,
        ..StoreConfig::default()
    };
    let handle = Store::open(&root, cfg);
    let out = handle.write_image(&expected_image()).unwrap();
    assert_eq!(
        fs::read(handle.recipe_path(2, 0)).unwrap(),
        CHUNKED_V2_RANK_FILE
    );
    assert_eq!(out.bytes, CHUNKED_V2_RANK_FILE.len());
    for payload in [UPPER, META] {
        let path = handle.chunk_path(chunk::chunk_id(payload));
        assert_eq!(fs::read(path).unwrap(), payload);
    }
    fs::remove_dir_all(&root).ok();
}

#[test]
fn golden_stores_validate_and_select_in_both_layouts() {
    // Flat: image + manifest laid out as the old commit left them.
    let flat = tdir("flat");
    let dir = store::generation_dir(&flat, 2);
    fs::create_dir_all(&dir).unwrap();
    fs::write(CkptImage::path_for(&dir, 0), FLAT_RANK_FILE).unwrap();
    fs::write(Manifest::path_in(&dir), FLAT_MANIFEST).unwrap();
    // Chunked, once per recipe version: recipe + manifest, plus the two
    // pool chunks under the content addresses that version's key function
    // gave them (for version 1, the old commit's SHA-256).
    let chunked = |name: &str, file: &[u8], ids: [ChunkId; 2]| {
        let chunked = tdir(name);
        let handle = Store::open(&chunked, StoreConfig::default());
        let dir = store::generation_dir(&chunked, 2);
        fs::create_dir_all(&dir).unwrap();
        fs::write(handle.recipe_path(2, 0), file).unwrap();
        fs::write(Manifest::path_in(&dir), CHUNKED_MANIFEST).unwrap();
        for (id, data) in ids.into_iter().zip([UPPER, META]) {
            let path = handle.chunk_path(id);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, data).unwrap();
        }
        chunked
    };
    let v1 = chunked("chunked_v1", CHUNKED_RANK_FILE, v1_chunk_ids());
    let v2_ids = [chunk::chunk_id(UPPER), chunk::chunk_id(META)];
    let v2 = chunked("chunked_v2", CHUNKED_V2_RANK_FILE, v2_ids);
    // The version 1 generation is refused as a bad image naming its
    // version; with nothing older to fall back to, restart has nothing.
    let handle = Store::open(&v1, StoreConfig::default());
    match handle.select(Some(1), None) {
        Err(StoreError::NoUsableGeneration { rejected, .. }) => {
            assert_eq!(rejected.len(), 1);
            assert_eq!(rejected[0].round, 2);
            assert_eq!(rejected[0].code.name(), "bad_image");
            assert_eq!(
                rejected[0].reason,
                "rank 0 recipe invalid: unsupported recipe version 1"
            );
        }
        other => panic!("a version 1 generation was selected: {other:?}"),
    }
    fs::remove_dir_all(&v1).ok();
    for root in &[flat, v2] {
        let handle = Store::open(root, StoreConfig::default());
        handle.validate(2, Some(1), None).unwrap();
        let sel = handle.select(Some(1), None).unwrap();
        assert_eq!(sel.round, 2);
        assert!(sel.rejected.is_empty());
        assert_eq!(sel.images, vec![Some(expected_image())]);
        assert_eq!(handle.load_image(2, 0).unwrap(), expected_image());
        fs::remove_dir_all(root).ok();
    }
}

#[test]
fn golden_journal_record_blob_replays() {
    let intent = JournalStep::RestartIntent {
        gen: 2,
        failed: vec![1, 5],
    };
    let rec = JournalRecord {
        epoch: 3,
        step: intent.clone(),
    };
    // Read: the fixture blob under its name replays as that record, and
    // its epoch is the open one.
    let root = tdir("journal_blob");
    let path = root.join(JOURNAL_BLOB_NAME);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(&path, JOURNAL_BLOB).unwrap();
    assert_eq!(journal::read_records(&root).unwrap(), vec![rec.clone()]);
    let j = Journal::open(&root).unwrap();
    let open = j.open_epoch().unwrap();
    assert_eq!(
        (open.epoch, open.gen, open.failed),
        (3, Some(2), vec![1, 5])
    );
    assert_eq!(j.next_epoch(), 4);
    fs::remove_dir_all(&root).ok();
    // Write: appending the step lands exactly these bytes under this name.
    let mut j = Journal::open(&root).unwrap();
    assert!(j.append(3, intent).unwrap());
    assert_eq!(
        fs::read(root.join(JOURNAL_BLOB_NAME)).unwrap(),
        JOURNAL_BLOB
    );
    assert_eq!(rec.to_bytes(), JOURNAL_BLOB);
    fs::remove_dir_all(&root).ok();
}

#[test]
fn legacy_journal_file_is_ignored_then_collected() {
    let root = tdir("journal_legacy");
    fs::create_dir_all(&root).unwrap();
    let legacy = root.join(journal::LEGACY_JOURNAL_FILE);
    fs::write(&legacy, JOURNAL).unwrap();
    // Its open epoch 3 is not resumed: a restart opens epoch 0 of the
    // blob layout.
    let mut j = Journal::open(&root).unwrap();
    assert!(j.open_epoch().is_none());
    assert_eq!(j.next_epoch(), 0);
    assert!(journal::verify(&root).unwrap().legacy);
    let steps = [
        JournalStep::RestartIntent {
            gen: 2,
            failed: vec![],
        },
        JournalStep::GenValidated { gen: 2 },
        JournalStep::RankRestored { rank: 0 },
        JournalStep::CommsRebuilt,
    ];
    for step in steps {
        assert!(j.append(0, step).unwrap());
    }
    // GC leaves the file alone while no epoch of the new layout has
    // committed...
    let store = Store::open(&root, StoreConfig::default());
    store.gc(1).unwrap();
    assert_eq!(fs::read(&legacy).unwrap(), JOURNAL);
    // ...and removes it once one has.
    assert!(j.append(0, JournalStep::RestartCommitted).unwrap());
    store.gc(1).unwrap();
    assert!(!legacy.exists());
    assert!(!journal::verify(&root).unwrap().legacy);
    assert_eq!(
        journal::replay_epochs(&journal::read_records(&root).unwrap()).len(),
        1
    );
    fs::remove_dir_all(&root).ok();
}

/// The 2 MiB buffer `integrity_kernels` measures: an LCG's high bits.
fn lcg_buffer(len: usize) -> Vec<u8> {
    let mut state = 0x5eed_u64;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

/// Payload-sized checksums, pinned with the single-lane kernel the
/// multi-lane one replaced: every literal above is ≤ 48 bytes, under the
/// size at which `crc32` splits a buffer into lanes.
const LCG_2MIB_CRC: u32 = 0xf936_69bb;
const LARGE_IMAGE_UPPER_CRC: u32 = LCG_2MIB_CRC;
const LARGE_IMAGE_META_CRC: u32 = 0x298f_39e2;
const LARGE_IMAGE_FILE_CRC: u32 = 0x660e_b2e7;

#[test]
fn golden_large_payload_checksums_and_store_roundtrip() {
    let buf = lcg_buffer(2 << 20);
    assert_eq!(crc32(&buf), LCG_2MIB_CRC);
    let image = CkptImage {
        rank: 0,
        world_size: 1,
        round: 2,
        upper: buf.clone(),
        meta: buf[..1024].to_vec(),
    };
    let (file, file_crc) = image.to_bytes_with_crc();
    let section = |at: usize| u32::from_le_bytes(file[at..at + 4].try_into().unwrap());
    assert_eq!(
        (section(52), section(56), file_crc),
        (
            LARGE_IMAGE_UPPER_CRC,
            LARGE_IMAGE_META_CRC,
            LARGE_IMAGE_FILE_CRC
        )
    );
    assert_eq!(crc32(&file), file_crc);

    let root = tdir("large_flat");
    let handle = Store::open(&root, StoreConfig::default());
    let out = handle.write_image(&image).unwrap();
    assert_eq!((out.bytes, out.crc), (file.len(), file_crc));
    let entry = store::ManifestEntry {
        rank: 0,
        bytes: out.bytes as u64,
        crc: out.crc,
    };
    handle
        .commit(&Manifest {
            round: 2,
            world_size: 1,
            entries: vec![entry],
        })
        .unwrap();
    let sel = handle.select(Some(1), None).unwrap();
    assert_eq!(sel.round, 2);
    assert!(sel.rejected.is_empty());
    assert_eq!(sel.images, vec![Some(image.clone())]);
    assert_eq!(handle.load_image(2, 0).unwrap(), image);
    fs::remove_dir_all(&root).ok();
}

/// The recipe `RECIPE_FOUR_REFS` holds.
fn four_ref_recipe() -> Recipe {
    let refs = |pieces: [&[u8]; 2]| -> Vec<ChunkRef> {
        let each = pieces.map(|p| ChunkRef {
            id: chunk::chunk_id(p),
            len: p.len() as u64,
        });
        each.to_vec()
    };
    let head = ImageHead {
        rank: 0,
        world_size: 1,
        round: 2,
    };
    Recipe {
        header: ImageHeader {
            head,
            upper_len: 48,
            meta_len: 5,
            upper_crc: crc32(UPPER),
            meta_crc: crc32(META),
        },
        upper_chunks: refs([&UPPER[..20], &UPPER[20..]]),
        meta_chunks: refs([&META[..2], &META[2..]]),
    }
}

#[test]
fn golden_recipe_with_several_refs_per_list() {
    let recipe = four_ref_recipe();
    assert_eq!(Recipe::from_bytes(RECIPE_FOUR_REFS).unwrap(), recipe);
    assert_eq!(recipe.to_bytes(), RECIPE_FOUR_REFS);
}

/// The manifest `MANIFEST_THREE_RANKS` holds.
fn three_rank_manifest() -> Manifest {
    let entry = |rank, bytes, crc| store::ManifestEntry { rank, bytes, crc };
    Manifest {
        round: 7,
        world_size: 3,
        entries: vec![
            entry(0, 113, 0x0b02_7743),
            entry(1, 4096, 0xdead_beef),
            entry(2, 1 << 33, 0x1234_5678),
        ],
    }
}

#[test]
fn golden_manifest_with_three_entries() {
    let manifest = three_rank_manifest();
    assert_eq!(
        Manifest::from_bytes(MANIFEST_THREE_RANKS).unwrap(),
        manifest
    );
    assert_eq!(manifest.to_bytes(), MANIFEST_THREE_RANKS);
}

/// Every step kind of epoch 3 after its intent: blob name, step, bytes.
fn later_steps() -> [(&'static str, JournalStep, &'static [u8]); 4] {
    [
        (
            "restart/e00003/00001-gen_validated-0",
            JournalStep::GenValidated { gen: 2 },
            BLOB_VALIDATED,
        ),
        (
            "restart/e00003/00002-rank_restored-5",
            JournalStep::RankRestored { rank: 5 },
            BLOB_RESTORED,
        ),
        (
            "restart/e00003/00003-comms_rebuilt-0",
            JournalStep::CommsRebuilt,
            BLOB_REBUILT,
        ),
        (
            "restart/e00003/00004-restart_committed-0",
            JournalStep::RestartCommitted,
            BLOB_COMMITTED,
        ),
    ]
}

#[test]
fn golden_journal_blobs_of_every_step_kind() {
    let intent = JournalStep::RestartIntent {
        gen: 2,
        failed: vec![1, 5],
    };
    let record = |step| JournalRecord { epoch: 3, step };
    let mut want = vec![record(intent.clone())];
    want.extend(later_steps().map(|(_, step, _)| record(step)));
    // Read: the five blobs under their names replay as the five records.
    let root = tdir("journal_kinds");
    let mut blobs = vec![(JOURNAL_BLOB_NAME, JOURNAL_BLOB)];
    blobs.extend(later_steps().map(|(name, _, bytes)| (name, bytes)));
    for (name, bytes) in &blobs {
        let path = root.join(name);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, bytes).unwrap();
    }
    assert_eq!(journal::read_records(&root).unwrap(), want);
    fs::remove_dir_all(&root).ok();
    // Write: appending the same steps lands exactly these blobs.
    let mut j = Journal::open(&root).unwrap();
    for (rec, (name, bytes)) in want.iter().zip(&blobs) {
        assert!(j.append(3, rec.step.clone()).unwrap());
        assert_eq!(fs::read(root.join(name)).unwrap(), *bytes, "{name}");
        assert_eq!(rec.to_bytes(), *bytes, "{name}");
    }
    fs::remove_dir_all(&root).ok();
}
