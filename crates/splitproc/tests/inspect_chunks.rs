//! End-to-end tests of `mana2-inspect <dir> chunks [--verify]`: build a
//! real chunked store with the library, then drive the operator binary
//! and check its exit codes against clean, corrupted, and torn pools.

use splitproc::store::{self, Store, StoreConfig, StoreMode};
use splitproc::{chunk, crc32, ChunkRef, CkptImage, Recipe, RecipeVersion};
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

/// Lay a one-rank generation down the way a build before the chunk key
/// changed did: version 1 recipe, pool chunks named by SHA-256, manifest.
/// Returns the pool paths of its chunks.
fn commit_v1_round(root: &Path, round: u64) -> Vec<PathBuf> {
    let cfg = chunked_cfg();
    let handle = Store::open(root, cfg.clone());
    let image = image(0, 1, round);
    let mut paths = Vec::new();
    let mut refs = |payload: &[u8]| -> Vec<ChunkRef> {
        chunk::split(payload, cfg.chunk)
            .into_iter()
            .map(|range| {
                let data = &payload[range];
                let id = chunk::chunk_id_v1(data);
                let path = handle.chunk_path(id);
                std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                std::fs::write(&path, data).unwrap();
                paths.push(path);
                ChunkRef {
                    id,
                    len: data.len() as u64,
                }
            })
            .collect()
    };
    let recipe = Recipe {
        version: RecipeVersion::V1,
        rank: 0,
        world_size: 1,
        round,
        upper_len: image.upper.len() as u64,
        meta_len: image.meta.len() as u64,
        upper_crc: crc32(&image.upper),
        meta_crc: crc32(&image.meta),
        upper_chunks: refs(&image.upper),
        meta_chunks: refs(&image.meta),
    };
    let bytes = recipe.to_bytes();
    let path = handle.recipe_path(round, 0);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, &bytes).unwrap();
    let manifest = store::Manifest {
        round,
        world_size: 1,
        entries: vec![store::ManifestEntry {
            rank: 0,
            bytes: bytes.len() as u64,
            crc: crc32(&bytes),
        }],
    };
    store::commit_generation(root, &manifest, &cfg).unwrap();
    paths
}

#[test]
fn chunks_verify_checks_each_chunk_with_its_recipes_key_function() {
    // Generation 0 is SHA-keyed (recipe v1), generation 1 is written today
    // (v2), both in one pool. Checking every chunk with one function would
    // flag every chunk of the other generation.
    let root = temp_store("mixed");
    let v1_chunks = commit_v1_round(&root, 0);
    commit_round(&root, 1, 1);

    let (code, text) = inspect(&root, &["chunks", "--verify"]);
    assert_eq!(code, 0, "clean mixed pool must pass: {text}");
    assert!(text.contains("0 damaged, 0 missing"), "{text}");
    let gen_line = |round: u64| -> &str {
        let tag = format!("gen {round:>5}  recipe ");
        text.lines()
            .find(|l| l.contains(&tag))
            .unwrap_or_else(|| panic!("no line for generation {round}: {text}"))
    };
    assert!(gen_line(0).contains("recipe v1 "), "{text}");
    assert!(gen_line(1).contains("recipe v2 "), "{text}");

    // Rot in a SHA-keyed chunk is still caught — by SHA-256.
    let victim = &v1_chunks[v1_chunks.len() / 2];
    let mut bytes = std::fs::read(victim).unwrap();
    bytes[0] ^= 0x01;
    std::fs::write(victim, &bytes).unwrap();
    let (code, text) = inspect(&root, &["chunks", "--verify"]);
    assert_ne!(code, 0, "{text}");
    let name = victim.file_stem().unwrap().to_str().unwrap();
    assert!(text.contains(&format!("CORRUPT chunk {name}")), "{text}");
    assert!(text.contains("1 damaged, 0 missing"), "{text}");
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
