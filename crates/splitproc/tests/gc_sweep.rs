//! `Store::gc` sweeps the chunks its retired generations' recipes named,
//! and the whole pool only where no recipe names the garbage. One chunked
//! handle runs 24 rounds that mix a killed process's litter, window
//! edits, refills (which land flat), an aborted round, a journal-pinned generation, a corrupted
//! retired recipe, a pass whose first chunk removal is refused and a rerun
//! that replaces a recipe. After every pass the pool is exactly what a
//! whole-pool sweep would leave, and a counting backend shows which passes
//! listed the pool.

use splitproc::blobs::{BlobEntry, PutCost, PutMode};
use splitproc::journal::{Journal, JournalStep};
use splitproc::store::{self, generation_dir};
use splitproc::{
    Blobs, ChunkId, ChunkParams, ImageBuf, ImageHead, LocalFs, Manifest, ManifestEntry, Store,
    StoreConfig, StoreMode, UpperHalf, WriteOutcome,
};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const WORLD: usize = 3;
const RETAIN: usize = 2;

/// [`LocalFs`] that records every directory it lists and, when armed,
/// refuses the next removal of a chunk.
#[derive(Clone, Default)]
struct Counting {
    lists: Arc<Mutex<Vec<PathBuf>>>,
    refuse_chunk_remove: Arc<AtomicBool>,
}

impl Counting {
    /// The directories listed since the last call.
    fn take_lists(&self) -> Vec<PathBuf> {
        std::mem::take(&mut *self.lists.lock().unwrap())
    }
}

impl Blobs for Counting {
    fn put_atomic(&self, path: &Path, bytes: &[u8], mode: PutMode) -> (PutCost, io::Result<()>) {
        LocalFs.put_atomic(path, bytes, mode)
    }
    fn get(&self, path: &Path, into: Option<&mut Vec<u8>>) -> io::Result<u64> {
        LocalFs.get(path, into)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<BlobEntry>> {
        self.lists.lock().unwrap().push(dir.to_path_buf());
        LocalFs.list(dir)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        let chunk = path.extension().is_some_and(|x| x == "chunk");
        if chunk && self.refuse_chunk_remove.swap(false, Ordering::Relaxed) {
            return Err(io::Error::other("remove refused"));
        }
        LocalFs.remove(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        LocalFs.sync_dir(dir)
    }
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mana2_gc_sweep_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(mode: StoreMode) -> StoreConfig {
    StoreConfig {
        mode,
        chunk: ChunkParams {
            min_size: 256,
            avg_size: 1024,
            max_size: 4096,
        },
        ..StoreConfig::default()
    }
}

/// Encode round `round` of `rank` into its kept buffer: a 200 000-byte
/// slab (four 64 KiB blocks), a 300-byte window of it edited at a place
/// `salt` moves, or every byte of it when `refill`.
fn encode(buf: &mut ImageBuf, rank: usize, round: u64, salt: u64, refill: bool) {
    let mut state = 0x9e37_79b9u64 + rank as u64;
    let mut slab: Vec<u8> = (0..200_000)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u8
        })
        .collect();
    let at = (round * 7_919 + salt * 31_337) as usize % 150_000;
    let span = if refill { 0..slab.len() } else { at..at + 300 };
    let mark = (round * 3 + salt) as u8 | 1;
    slab[span].iter_mut().for_each(|b| *b ^= mark);
    let mut upper = UpperHalf::new();
    upper.write_segment("slab", slab);
    let head = ImageHead {
        rank,
        world_size: WORLD,
        round,
    };
    head.encode_into(buf, &upper, &vec![round as u8; 30]);
}

/// Does `rank` refill its whole image in `round`?
fn refills(rank: usize, round: u64) -> bool {
    (rank == 0 && round % 5 == 3) || (rank == 2 && round % 7 == 6)
}

/// Encode and write every rank's image of `round`.
fn write_round(store: &Store, bufs: &mut [ImageBuf], round: u64, salt: u64) -> Vec<WriteOutcome> {
    let mut outs = Vec::new();
    for (rank, buf) in bufs.iter_mut().enumerate() {
        encode(buf, rank, round, salt, refills(rank, round));
        outs.push(store.write_encoded(buf).unwrap());
    }
    outs
}

fn commit(store: &Store, round: u64, outs: &[WriteOutcome]) {
    let entries = (outs.iter().enumerate())
        .map(|(rank, out)| ManifestEntry {
            rank: rank as u64,
            bytes: out.bytes as u64,
            crc: out.crc,
        })
        .collect();
    let manifest = Manifest {
        round,
        world_size: WORLD as u64,
        entries,
    };
    store.commit(&manifest).unwrap();
}

/// What a whole-pool sweep would remove, read from a fresh handle
/// without removing anything: pool chunks no parsed recipe names.
fn orphans(root: &Path) -> BTreeSet<ChunkId> {
    let fresh = Store::open(root, StoreConfig::default());
    let pool = fresh.pool_inventory().unwrap().into_iter();
    let held: BTreeSet<ChunkId> = pool.flat_map(|s| s.chunks).map(|(id, _)| id).collect();
    let gens = fresh.recipes().unwrap();
    let named: BTreeSet<ChunkId> = gens.iter().flat_map(|g| g.refs().map(|c| c.id)).collect();
    &held - &named
}

/// The pool's shard directories, as on disk.
fn shards(store: &Store) -> BTreeSet<PathBuf> {
    let dirs = std::fs::read_dir(store.chunks_dir()).unwrap();
    dirs.map(|e| e.unwrap().path())
        .filter(|p| p.is_dir())
        .collect()
}

/// The directories among `lists` that lie under the pool, the pool
/// directory itself included.
fn under_pool(store: &Store, lists: &[PathBuf]) -> BTreeSet<PathBuf> {
    let pool = store.chunks_dir();
    lists
        .iter()
        .filter(|d| d.starts_with(&pool))
        .cloned()
        .collect()
}

/// The pool after a successful pass is the one a whole-pool sweep leaves,
/// and every surviving committed generation restores.
fn check_swept(store: &Store, round: u64) {
    let root = store.root();
    assert_eq!(orphans(root), BTreeSet::new(), "round {round}: orphans");
    assert_eq!(store::gc_chunks(root).unwrap().removed, 0, "round {round}");
    for gen in store.list().unwrap().iter().filter(|g| g.committed) {
        let sel = store.select_at(gen.round, Some(WORLD), None);
        assert!(sel.is_ok(), "round {round}: gen {}: {sel:?}", gen.round);
    }
}

#[test]
fn gc_sweeps_what_retired_recipes_named_and_the_whole_pool_only_when_due() {
    let root = temp_root("mixed");
    let blobs = Counting::default();
    let store = Store::new(
        &root,
        cfg(StoreMode::Chunked),
        obs::Telemetry::off(),
        Box::new(blobs.clone()),
    );
    let mut bufs: Vec<ImageBuf> = (0..WORLD).map(|_| ImageBuf::default()).collect();
    let (mut flat, mut whole_passes) = (0, Vec::new());
    for round in 0..24u64 {
        // Whether this round's pass must sweep the whole pool, and why.
        let mut due = match round {
            0 => Some("the handle's first pass"),
            _ => None,
        };
        if round == 6 {
            // A round lands fresh chunks, then is scrapped.
            let outs = write_round(&store, &mut bufs, round, 1);
            assert!(outs.iter().any(|o| o.chunks_written > 0));
            store.abort(round).unwrap();
            due = Some("the first pass after an abort");
        }
        if round == 9 {
            // A restart of generation 8 is in flight until round 12.
            let mut j = Journal::open(&root).unwrap();
            let intent = JournalStep::RestartIntent {
                gen: 8,
                failed: vec![],
            };
            j.append(0, intent).unwrap();
            j.append(0, JournalStep::GenValidated { gen: 8 }).unwrap();
        }
        if round == 12 {
            let mut j = Journal::open(&root).unwrap();
            j.append(0, JournalStep::RestartCommitted).unwrap();
        }
        let mut outs = write_round(&store, &mut bufs, round, 0);
        if round == 20 {
            // A rerun of rank 1's write with another edit replaces its
            // recipe: the first recipe's own chunks are named by none.
            encode(&mut bufs[1], 1, round, 2, false);
            outs[1] = store.write_encoded(&mut bufs[1]).unwrap();
            assert!(outs[1].chunks_written > 0);
            due = Some("the first pass after a recipe was replaced");
        }
        flat += outs
            .iter()
            .filter(|o| o.chunks_written + o.chunks_deduped == 0)
            .count();
        commit(&store, round, &outs);
        if round == 14 {
            // The generation this pass retires has a recipe that does not
            // parse.
            let recipe = store.recipe_path(round - RETAIN as u64, 1);
            let mut bytes = std::fs::read(&recipe).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            std::fs::write(&recipe, bytes).unwrap();
            due = Some("a retired recipe that does not parse");
        }
        if round == 18 {
            due = Some("the first pass after a failed one");
        }
        let litter = store.chunks_dir().join("ab").join(".tmp-0-litter");
        if round == 0 {
            // A killed process left a chunk no recipe names, and litter.
            let orphan = store.chunk_path(ChunkId([0xab; 32]));
            std::fs::create_dir_all(orphan.parent().unwrap()).unwrap();
            std::fs::write(orphan, b"orphan").unwrap();
            std::fs::write(&litter, b"junk").unwrap();
        }
        let before = shards(&store);
        blobs.take_lists();
        if round == 17 {
            // The pass's first chunk removal is refused: it fails with its
            // generation gone and that generation's chunks left behind.
            blobs.refuse_chunk_remove.store(true, Ordering::Relaxed);
            assert!(store.gc(RETAIN).is_err());
            assert!(!orphans(&root).is_empty(), "round {round}: nothing left");
            continue;
        }
        let gc = store.gc(RETAIN).unwrap();
        let lists = blobs.take_lists();
        let roots = lists.iter().filter(|d| **d == root).count();
        assert_eq!(roots, 1, "round {round}: the root is listed once");
        let listed = under_pool(&store, &lists);
        match due {
            Some(why) => {
                let mut all = before.clone();
                all.insert(store.chunks_dir());
                assert_eq!(listed, all, "round {round}: {why} lists every shard");
                whole_passes.push(round);
            }
            None => assert_eq!(listed, BTreeSet::new(), "round {round}: steady state"),
        }
        assert!(!litter.exists(), "round {round}: tmp litter");
        if (2..=5).contains(&round) || round == 12 {
            assert!(gc.chunks.removed > 0, "round {round}: nothing swept");
        }
        if (10..12).contains(&round) {
            assert!(!gc.generations.contains(&8), "round {round}: 8 is pinned");
        }
        check_swept(&store, round);
    }
    assert_eq!(whole_passes, [0, 6, 14, 18, 20]);
    assert!(flat >= 6, "refills land flat: {flat}");
    assert!(!generation_dir(&root, 8).exists());
    std::fs::remove_dir_all(&root).ok();
}

/// A flat store has no pool: GC lists the root once and nothing under a
/// pool, reads no recipe, and sweeps nothing.
#[test]
fn a_flat_store_lists_its_root_once_and_no_pool() {
    let root = temp_root("flat");
    let blobs = Counting::default();
    let store = Store::new(
        &root,
        cfg(StoreMode::Flat),
        obs::Telemetry::off(),
        Box::new(blobs.clone()),
    );
    let mut bufs: Vec<ImageBuf> = (0..WORLD).map(|_| ImageBuf::default()).collect();
    for round in 0..4u64 {
        let outs = write_round(&store, &mut bufs, round, 0);
        commit(&store, round, &outs);
        blobs.take_lists();
        let gc = store.gc(RETAIN).unwrap();
        let lists = blobs.take_lists();
        assert_eq!(lists.iter().filter(|d| **d == root).count(), 1);
        assert_eq!(under_pool(&store, &lists), BTreeSet::new());
        let gen_dir = |d: &PathBuf| d.starts_with(&root) && d.to_string_lossy().contains("gen_");
        assert!(
            !lists.iter().any(gen_dir),
            "a recipe was looked for: {lists:?}"
        );
        assert_eq!(gc.chunks.removed, 0);
        assert_eq!(gc.generations.len(), usize::from(round >= RETAIN as u64));
    }
    assert!(!store.chunks_dir().exists());
    std::fs::remove_dir_all(&root).ok();
}
