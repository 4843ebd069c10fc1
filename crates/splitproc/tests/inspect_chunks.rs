//! End-to-end tests of `mana2-inspect <dir> chunks [--verify]`: build a
//! real chunked store with the library, then drive the operator binary
//! and check its exit codes against clean, corrupted, and torn pools.

use splitproc::store::{self, Store, StoreConfig, StoreMode};
use splitproc::{chunk, crc32, ChunkId, CkptImage};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn chunked_cfg() -> StoreConfig {
    StoreConfig {
        mode: StoreMode::Chunked,
        chunk: chunk::ChunkParams {
            min_size: 64,
            avg_size: 256,
            max_size: 1024,
        },
        ..StoreConfig::default()
    }
}

/// Deterministic slowly-mutating payload, same shape as the store's own
/// unit tests: a fixed pseudo-random base with `round + 1` byte edits.
fn image(rank: usize, world: usize, round: u64) -> CkptImage {
    let mut upper = vec![0u8; 20_000];
    let mut x = 0x9E37_79B9u32;
    for b in upper.iter_mut() {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        *b = (x >> 24) as u8;
    }
    let len = upper.len();
    for i in 0..=round as usize {
        upper[i * 997 % len] ^= (round as u8).wrapping_add(1);
    }
    CkptImage {
        rank,
        world_size: world,
        round,
        upper,
        meta: vec![0xA5; 200],
    }
}

fn commit_round(root: &Path, world: usize, round: u64) {
    let cfg = chunked_cfg();
    let mut entries = Vec::new();
    for rank in 0..world {
        let out = store::write_image(root, &image(rank, world, round), &cfg, None).unwrap();
        entries.push(store::ManifestEntry {
            rank: rank as u64,
            bytes: out.bytes as u64,
            crc: out.crc,
        });
    }
    let manifest = store::Manifest {
        round,
        world_size: world as u64,
        entries,
    };
    store::commit_generation(root, &manifest, &cfg).unwrap();
}

fn inspect(root: &Path, args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mana2-inspect"))
        .arg(root)
        .args(args)
        .output()
        .expect("run mana2-inspect");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().unwrap_or(-1), text)
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mana2_inspect_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Any `.chunk` file in the pool (deterministic order).
fn some_chunk(root: &Path) -> PathBuf {
    let pool = root.join("chunks");
    let mut chunks: Vec<PathBuf> = Vec::new();
    for shard in std::fs::read_dir(&pool).unwrap().flatten() {
        if !shard.path().is_dir() {
            continue;
        }
        for ent in std::fs::read_dir(shard.path()).unwrap().flatten() {
            if ent.path().extension().is_some_and(|x| x == "chunk") {
                chunks.push(ent.path());
            }
        }
    }
    chunks.sort();
    chunks.into_iter().next().expect("pool has chunks")
}

#[test]
fn chunks_reports_pool_stats_and_verifies_clean_store() {
    let root = temp_store("clean");
    commit_round(&root, 3, 0);
    commit_round(&root, 3, 1);

    let (code, text) = inspect(&root, &["chunks"]);
    assert_eq!(code, 0, "clean pool must pass: {text}");
    assert!(text.contains("chunk pool"), "{text}");
    assert!(text.contains("dedup ratio"), "{text}");
    assert!(text.contains("orphans: 0"), "{text}");

    let (code, text) = inspect(&root, &["chunks", "--verify"]);
    assert_eq!(code, 0, "verify of clean pool must pass: {text}");
    assert!(text.contains("0 damaged, 0 missing"), "{text}");

    // Round 1 deduped against round 0, so logical > physical.
    let ratio_line = text
        .lines()
        .find(|l| l.contains("dedup ratio"))
        .expect("ratio line");
    let x: f64 = ratio_line
        .split_whitespace()
        .find_map(|w| w.strip_suffix('x').and_then(|n| n.parse().ok()))
        .expect("parse ratio");
    assert!(
        x > 1.5,
        "two near-identical rounds should dedup: {ratio_line}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn chunks_verify_flags_corrupt_chunk() {
    let root = temp_store("corrupt");
    commit_round(&root, 2, 0);
    let victim = some_chunk(&root);
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&victim, &bytes).unwrap();

    // Stats alone don't hash contents, so the flip is invisible...
    let (code, _) = inspect(&root, &["chunks"]);
    assert_eq!(code, 0);
    // ...but --verify re-hashes every chunk and must fail.
    let (code, text) = inspect(&root, &["chunks", "--verify"]);
    assert_ne!(code, 0, "bit-flipped chunk must fail verify: {text}");
    assert!(text.contains("CORRUPT chunk"), "{text}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn chunks_flags_missing_chunk_even_without_verify() {
    let root = temp_store("missing");
    commit_round(&root, 2, 0);
    std::fs::remove_file(some_chunk(&root)).unwrap();

    let (code, text) = inspect(&root, &["chunks"]);
    assert_ne!(code, 0, "referenced-but-missing chunk must fail: {text}");
    assert!(text.contains("MISSING chunk"), "{text}");
    let _ = std::fs::remove_dir_all(&root);
}

/// Recipe version 1 of a one-rank round-2 image (`golden_formats.rs`'s
/// `CHUNKED_RANK_FILE`): its two chunks, `V1_UPPER` and `V1_META`, are
/// named by their SHA-256, `V1_CHUNK_IDS`.
const V1_RECIPE: &[u8] = &[
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
const V1_UPPER: &[u8] = &[
    0x0b, 0x30, 0x55, 0x7a, 0x9f, 0xc4, 0xe9, 0x0e, 0x33, 0x58, 0x7d, 0xa2, 0xc7, 0xec, 0x11, 0x36,
    0x5b, 0x80, 0xa5, 0xca, 0xef, 0x14, 0x39, 0x5e, 0x83, 0xa8, 0xcd, 0xf2, 0x17, 0x3c, 0x61, 0x86,
    0xab, 0xd0, 0xf5, 0x1a, 0x3f, 0x64, 0x89, 0xae, 0xd3, 0xf8, 0x1d, 0x42, 0x67, 0x8c, 0xb1, 0xd6,
];
const V1_META: &[u8] = &[0xa5, 0x5a, 0x00, 0xff, 0x42];
const V1_CHUNK_IDS: [&str; 2] = [
    "a6250da1e7ca144af7fdac8fd737c2e88e87cc08e232b16b53452227a56d5dde",
    "22d85f93a0e2d94e96662482e5b77ec14c1197ae488c452f9e2789026cc2c468",
];

/// Every chunk in the pool, by hex name.
fn pool_chunks(root: &Path) -> BTreeSet<String> {
    let shards = Store::open(root, chunked_cfg()).pool_inventory().unwrap();
    let chunks = shards.iter().flat_map(|s| &s.chunks);
    chunks.map(|(id, _)| id.to_hex()).collect()
}

#[test]
fn chunks_verify_checks_each_chunk_with_its_recipes_key_function() {
    // Generation 1 is written today (recipe v2); generation 2 is a round
    // a build with the SHA-256 key left behind (v1), in the same pool.
    // This build has one key: the v1 recipe is refused, its chunks are
    // damage nothing vouches for, and GC collects them.
    let root = temp_store("mixed");
    commit_round(&root, 1, 1);
    let handle = Store::open(&root, chunked_cfg());
    let gen1_chunks = pool_chunks(&root);
    for (id, data) in V1_CHUNK_IDS.iter().zip([V1_UPPER, V1_META]) {
        let path = handle.chunk_path(ChunkId::from_hex(id).unwrap());
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, data).unwrap();
    }
    let path = handle.recipe_path(2, 0);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, V1_RECIPE).unwrap();
    let manifest = store::Manifest {
        round: 2,
        world_size: 1,
        entries: vec![store::ManifestEntry {
            rank: 0,
            bytes: V1_RECIPE.len() as u64,
            crc: crc32(V1_RECIPE),
        }],
    };
    handle.commit(&manifest).unwrap();

    // Restart passes over generation 2 to generation 1.
    let sel = handle.select(Some(1), None).unwrap();
    assert_eq!(sel.round, 1);
    let rejected: Vec<_> = sel
        .rejected
        .iter()
        .map(|r| (r.round, r.code.name()))
        .collect();
    assert_eq!(rejected, [(2, "bad_image")]);
    assert!(
        sel.rejected[0]
            .reason
            .contains("unsupported recipe version 1"),
        "{:?}",
        sel.rejected
    );

    let (code, text) = inspect(&root, &["chunks", "--verify"]);
    assert_eq!(code, 1, "{text}");
    assert_eq!(text.matches("BAD RECIPE").count(), 1, "{text}");
    assert!(text.contains("unsupported recipe version 1"), "{text}");
    for id in V1_CHUNK_IDS {
        assert!(text.contains(&format!("CORRUPT chunk {id}")), "{text}");
    }
    assert!(
        text.contains("2 damaged, 0 missing, 1 bad recipe(s)"),
        "{text}"
    );

    // GC keeps both generations (the refused one is the newest committed)
    // but nothing references generation 2's chunks: exactly those go.
    let gc = handle.gc(2).unwrap();
    assert!(gc.generations.is_empty());
    assert_eq!(gc.chunks.removed, 2);
    assert_eq!(pool_chunks(&root), gen1_chunks);
    let (code, text) = inspect(&root, &["chunks", "--verify"]);
    assert_eq!(code, 1, "the refused recipe is still there: {text}");
    assert!(
        text.contains("0 damaged, 0 missing, 1 bad recipe(s)"),
        "{text}"
    );

    // Once retention passes generation 2, the store is clean.
    commit_round(&root, 1, 3);
    handle.gc(1).unwrap();
    let (code, text) = inspect(&root, &["chunks", "--verify"]);
    assert_eq!(code, 0, "{text}");
    assert!(
        text.contains("0 damaged, 0 missing, 0 bad recipe(s)"),
        "{text}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn chunks_on_flat_store_is_a_noop() {
    let root = temp_store("flat");
    let cfg = StoreConfig::default();
    store::write_image(&root, &image(0, 1, 0), &cfg, None).unwrap();
    let (code, text) = inspect(&root, &["chunks"]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("no chunk pool"), "{text}");
    let _ = std::fs::remove_dir_all(&root);
}

/// A chunked store whose generations mix layouts: rank 0 rewrites its
/// whole state every round, so from its second round on its kept buffer
/// lands flat beside rank 1's recipe. Restart validation and the pool
/// walk both read it cleanly.
#[test]
fn verify_reads_a_chunked_store_with_flat_ranks_cleanly() {
    use splitproc::{ImageBuf, ImageHead, UpperHalf};
    let root = temp_store("mixed_layouts");
    let handle = Store::open(&root, chunked_cfg());
    let mut bufs = [ImageBuf::default(), ImageBuf::default()];
    for round in 0..3u64 {
        let mut entries = Vec::new();
        for (rank, buf) in bufs.iter_mut().enumerate() {
            let mut slab = image(rank, 2, 0).upper;
            if rank == 0 {
                slab.iter_mut().for_each(|b| *b ^= round as u8 + 1);
            }
            let mut upper = UpperHalf::new();
            upper.write_segment("slab", slab);
            let head = ImageHead {
                rank,
                world_size: 2,
                round,
            };
            head.encode_into(buf, &upper, &vec![round as u8; 40]);
            let out = handle.write_encoded(buf).unwrap();
            entries.push(store::ManifestEntry {
                rank: rank as u64,
                bytes: out.bytes as u64,
                crc: out.crc,
            });
        }
        let manifest = store::Manifest {
            round,
            world_size: 2,
            entries,
        };
        handle.commit(&manifest).unwrap();
    }
    handle.gc(2).unwrap();
    for round in [1, 2] {
        let dir = store::generation_dir(&root, round);
        assert!(CkptImage::path_for(&dir, 0).is_file(), "round {round}");
        assert!(handle.recipe_path(round, 1).is_file(), "round {round}");
        assert!(!handle.recipe_path(round, 0).exists(), "round {round}");
    }

    let (code, text) = inspect(&root, &["--verify"]);
    assert_eq!(code, 0, "{text}");
    assert_eq!(
        text.matches(": OK (world 2, 2 rank image(s)").count(),
        2,
        "{text}"
    );
    assert!(text.contains("restart would use generation 2"), "{text}");
    let (code, text) = inspect(&root, &["chunks", "--verify"]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("orphans: 0"), "{text}");
    assert!(
        text.contains("0 damaged, 0 missing, 0 bad recipe(s)"),
        "{text}"
    );
    let (code, text) = inspect(&root, &["0"]);
    assert_eq!(code, 0, "{text}");
    assert_eq!(text.matches("segment slab").count(), 1, "{text}");
    let _ = std::fs::remove_dir_all(&root);
}
