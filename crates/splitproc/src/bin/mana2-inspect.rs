//! `mana2-inspect` — dump the contents of MANA-2.0 checkpoint stores.
//!
//! ```text
//! mana2-inspect <ckpt_dir>            list generations, print manifests,
//!                                     dump the newest committed images
//! mana2-inspect <ckpt_dir> <rank>     dump one rank's image
//! mana2-inspect <ckpt_dir> --verify   validate every generation the way
//!                                     restart would; exit 0 iff usable
//! mana2-inspect <ckpt_dir> journal    list restart-journal epochs and
//!                                     steps, flag pinned generations
//! mana2-inspect <ckpt_dir> journal --verify
//!                                     CRC-check every record blob; exit
//!                                     0 iff all are intact, else name
//!                                     each bad one's epoch and seq
//! mana2-inspect <ckpt_dir> chunks     chunk-pool stats: chunk count,
//!                                     physical vs logical bytes, dedup
//!                                     ratio, orphans, per-generation
//!                                     reference counts
//! mana2-inspect <ckpt_dir> chunks --verify
//!                                     additionally hash-check every pool
//!                                     chunk against its name and confirm
//!                                     every chunk any surviving
//!                                     generation (including journal-
//!                                     pinned ones) references is present
//!                                     and intact; exit 0 iff so
//! ```
//!
//! Prints, per image: header fields, CRC status, upper-half segment names
//! and sizes, and metadata-section size — the operational tool an admin
//! reaches for when a restart misbehaves.

use splitproc::{chunk, journal, store};
use splitproc::{Blobs, Decode, LocalFs, Store, StoreConfig, UpperHalf};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Print, ignoring broken pipes (`mana2-inspect … | head` must not panic).
macro_rules! out {
    ($($arg:tt)*) => {
        let _ = writeln!(std::io::stdout(), $($arg)*);
    };
}

fn inspect(store: &Store, round: u64, rank: usize) -> Result<(), String> {
    // Layout-aware: flat `.mana` images are read directly, `.cref`
    // recipes are reassembled from the chunk pool with per-chunk hash
    // verification.
    let img = store.load_image(round, rank).map_err(|e| e.to_string())?;
    out!(
        "rank {:>5}: world {:>5}  round {:>3}  upper {:>9} B  meta {:>9} B  total {:>9} B",
        img.rank,
        img.world_size,
        img.round,
        img.upper.len(),
        img.meta.len(),
        img.size_bytes()
    );
    match UpperHalf::from_bytes(&img.upper) {
        Err(e) => {
            out!("    upper half: UNPARSEABLE ({e})");
        }
        Ok(uh) => {
            for name in uh.names() {
                let len = uh.segment(name).map(|s| s.len()).unwrap_or(0);
                out!("    segment {name:<24} {len:>9} B");
            }
        }
    }
    Ok(())
}

/// Walk the ranks of generation `round` until a missing file.
fn inspect_all(store: &Store, round: u64) {
    let mut rank = 0usize;
    while inspect(store, round, rank).is_ok() {
        rank += 1;
    }
}

/// Print the generation table and the manifest of each committed round.
fn list_store(store: &Store, gens: &[store::GenInfo]) {
    out!(
        "checkpoint store {}: {} generation(s)",
        store.root().display(),
        gens.len()
    );
    for g in gens {
        match store.read_manifest(g.round) {
            Ok(m) => {
                out!(
                    "  gen {:>5}  committed  world {:>5}  {:>12} B total",
                    g.round,
                    m.world_size,
                    m.total_bytes()
                );
                for e in &m.entries {
                    out!(
                        "      rank {:>5}  {:>12} B  crc {:08x}",
                        e.rank,
                        e.bytes,
                        e.crc
                    );
                }
            }
            Err(_) if !g.committed => {
                out!(
                    "  gen {:>5}  PARTIAL (no MANIFEST — aborted or in flight)",
                    g.round
                );
            }
            Err(e) => {
                out!("  gen {:>5}  BAD MANIFEST: {e}", g.round);
            }
        }
    }
}

/// `--verify`: validate every generation exactly the way restart would,
/// newest first, then report which one restart would use.
fn verify(store: &Store, gens: &[store::GenInfo]) -> i32 {
    for g in gens.iter().rev() {
        match store.validate(g.round, None, None) {
            Ok(m) => {
                out!(
                    "gen {:>5}: OK (world {}, {} rank image(s), {} B)",
                    g.round,
                    m.world_size,
                    m.entries.len(),
                    m.total_bytes()
                );
            }
            Err(rej) => {
                out!("gen {:>5}: REJECTED ({}): {rej}", g.round, rej.code.name());
            }
        }
    }
    match store.select(None, None) {
        Ok(sel) => {
            out!("restart would use generation {}", sel.round);
            0
        }
        Err(e) => {
            eprintln!("no usable generation: {e}");
            1
        }
    }
}

/// `chunks [--verify]`: chunk-pool statistics from the two halves of GC
/// (`Store::pool_inventory`, `Store::recipes`) and, with `--verify`, every
/// pool chunk re-hashed with [`chunk::chunk_id`] against its name (a chunk
/// a version 1 recipe named is damaged until GC removes it). Every chunk a
/// surviving generation references, journal-pinned ones included, must be
/// present at the referenced length. Exit 0 iff no damage was found.
fn chunks_cmd(store: &Store, do_verify: bool) -> i32 {
    let pool_dir = store.chunks_dir();
    let (shards, gens) = match (store.pool_inventory(), store.recipes()) {
        (Ok(shards), _) if shards.is_empty() => {
            out!("no chunk pool at {} (flat store)", pool_dir.display());
            return 0;
        }
        (Ok(shards), Ok(gens)) => (shards, gens),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("cannot read {}: {e}", store.root().display());
            return 1;
        }
    };
    // Pool inventory: id -> (path, on-disk length).
    let mut on_disk: BTreeMap<chunk::ChunkId, (PathBuf, u64)> = BTreeMap::new();
    for shard in &shards {
        for (id, name) in &shard.chunks {
            let path = shard.dir.join(name);
            let len = LocalFs.get(&path, None).unwrap_or(0);
            on_disk.insert(*id, (path, len));
        }
    }
    // References: every recipe of every surviving generation, and the
    // length those recipes give each chunk.
    let pinned = journal::pinned_generations(store.root());
    let mut ref_len: BTreeMap<chunk::ChunkId, u64> = BTreeMap::new();
    let mut logical: u64 = 0;
    let mut bad_recipes = 0usize;
    for g in &gens {
        for (path, recipe) in &g.recipes {
            if let Err(e) = recipe {
                out!(
                    "  gen {:>5}  BAD RECIPE {}: {e}",
                    g.gen.round,
                    path.display()
                );
                bad_recipes += 1;
            }
        }
        ref_len.extend(g.refs().map(|r| (r.id, r.len)));
        let gen_refs = g.refs().count();
        let gen_logical: u64 = g.refs().map(|r| r.len).sum();
        if gen_refs > 0 {
            out!(
                "  gen {:>5}  recipe v{}  {:>8} chunk ref(s)  {:>12} B logical{}",
                g.gen.round,
                chunk::RECIPE_VERSION,
                gen_refs,
                gen_logical,
                if pinned.contains(&g.gen.round) {
                    "  [journal-pinned]"
                } else {
                    ""
                }
            );
        }
        logical += gen_logical;
    }
    let physical: u64 = on_disk.values().map(|(_, len)| len).sum();
    let orphans = on_disk
        .keys()
        .filter(|id| !ref_len.contains_key(id))
        .count();
    let missing: Vec<_> = ref_len
        .keys()
        .filter(|id| !on_disk.contains_key(id))
        .collect();
    out!(
        "chunk pool {}: {} chunk(s), {} B physical",
        pool_dir.display(),
        on_disk.len(),
        physical
    );
    out!(
        "  referenced: {} unique chunk(s), {} B logical across {} generation(s)",
        ref_len.len(),
        logical,
        gens.len()
    );
    if physical > 0 {
        out!(
            "  dedup ratio: {:.2}x (logical/physical)",
            logical as f64 / physical as f64
        );
    }
    let tmp_litter: usize = shards.iter().map(|s| s.tmp.len()).sum();
    let foreign: usize = shards.iter().map(|s| s.foreign).sum();
    out!("  orphans: {orphans}  tmp litter: {tmp_litter}  foreign files: {foreign}");
    let mut damage = bad_recipes + missing.len();
    for id in &missing {
        out!("  MISSING chunk {id} (referenced but not in pool)");
    }
    if do_verify {
        // Re-hash every pool chunk against its name, and check referenced
        // lengths agree with what is on disk.
        let mut corrupt = 0usize;
        let mut data = Vec::new();
        for (id, (path, len)) in &on_disk {
            data.clear();
            let problem = match (LocalFs.get(path, Some(&mut data)), ref_len.get(id)) {
                (Err(e), _) => format!("UNREADABLE chunk {id}: {e}"),
                _ if chunk::chunk_id(&data) != *id => {
                    format!("CORRUPT chunk {id}: content hash mismatch")
                }
                (_, Some(want)) if want != len => {
                    format!("TORN chunk {id}: {len} B on disk, {want} B referenced")
                }
                _ => continue,
            };
            out!("  {problem}");
            corrupt += 1;
        }
        damage += corrupt;
        out!(
            "verify: {} chunk(s) hashed, {} damaged, {} missing, {} bad recipe(s)",
            on_disk.len(),
            corrupt,
            missing.len(),
            bad_recipes
        );
    }
    i32::from(damage > 0)
}

/// `journal`: list restart-journal epochs and steps (read-only). With
/// `do_verify`, exit non-zero when a record blob fails its CRC.
fn journal_cmd(root: &Path, do_verify: bool) -> i32 {
    let report = match journal::verify(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("journal: {e}");
            return 1;
        }
    };
    if report.legacy {
        out!(
            "legacy {} present: ignored, removed by GC once an epoch commits",
            journal::LEGACY_JOURNAL_FILE
        );
    }
    if report.records.is_empty() && report.unreadable.is_empty() {
        out!("no restart journal at {}", report.dir.display());
        return 0;
    }
    let epochs = journal::replay_epochs(&report.records);
    out!(
        "restart journal {}: {} record(s) in {} epoch(s)",
        report.dir.display(),
        report.records.len(),
        epochs.len()
    );
    let pinned = journal::pinned_generations(root);
    for ep in epochs {
        let status = if ep.committed {
            "committed"
        } else if ep.superseded {
            "superseded"
        } else if report.unreadable.iter().any(|b| b.epoch == ep.epoch) {
            "UNREADABLE"
        } else {
            "OPEN"
        };
        out!(
            "  epoch {:>3}  {status:<10}  gen {:<9}  failed {:?}  {} rank(s) restored{}{}",
            ep.epoch,
            ep.gen.map(|g| g.to_string()).unwrap_or_else(|| "?".into()),
            ep.failed,
            ep.restored.len(),
            if ep.comms_rebuilt {
                ", comms rebuilt"
            } else {
                ""
            },
            if ep.gen.is_some_and(|g| pinned.contains(&g))
                || ep.validated_gen.is_some_and(|g| pinned.contains(&g))
            {
                "  [pins generation against GC]"
            } else {
                ""
            }
        );
        for rec in report.records.iter().filter(|r| r.epoch == ep.epoch) {
            out!("      {}", describe_step(rec));
        }
    }
    for bad in &report.unreadable {
        out!(
            "UNREADABLE record: epoch {} seq {}: {}",
            bad.epoch,
            bad.seq,
            bad.reason
        );
    }
    if do_verify && report.unreadable.is_empty() {
        out!(
            "verify: clean ({} record(s) CRC-checked)",
            report.records.len()
        );
    }
    i32::from(do_verify && !report.unreadable.is_empty())
}

/// One human line per journal record: the step's name, then its fields.
fn describe_step(rec: &journal::JournalRecord) -> String {
    use journal::JournalStep as S;
    let fields = match &rec.step {
        S::RestartIntent { gen, failed } if failed.is_empty() => {
            format!("gen {gen} (full restart)")
        }
        S::RestartIntent { gen, failed } => format!("gen {gen} (partial, failed {failed:?})"),
        S::GenValidated { gen } => format!("gen {gen}"),
        S::RankRestored { rank } => format!("rank {rank}"),
        S::CommsRebuilt | S::RestartCommitted => return rec.step.name().into(),
    };
    format!("{:<18} {fields}", rec.step.name())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(dir) = args.get(1) else {
        eprintln!(
            "usage: mana2-inspect <ckpt_dir> [rank | --verify | journal [--verify] | chunks [--verify]]"
        );
        std::process::exit(2);
    };
    let root = Path::new(dir);
    let store = Store::open(root, StoreConfig::default());
    if args.get(2).is_some_and(|a| a == "journal") {
        let do_verify = args.iter().any(|a| a == "--verify");
        std::process::exit(journal_cmd(root, do_verify));
    }
    if args.get(2).is_some_and(|a| a == "chunks") {
        let do_verify = args.iter().any(|a| a == "--verify");
        std::process::exit(chunks_cmd(&store, do_verify));
    }
    let gens = store.list().unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", root.display());
        std::process::exit(1);
    });
    if args.iter().any(|a| a == "--verify") {
        std::process::exit(verify(&store, &gens));
    }
    let newest = gens.iter().rev().find(|g| g.committed).map(|g| g.round);
    if let Some(rank) = args.get(2).and_then(|s| s.parse().ok()) {
        // Rank dump, from the newest committed generation.
        let dumped = newest
            .ok_or_else(|| "no committed generation".to_string())
            .and_then(|round| inspect(&store, round, rank));
        if let Err(e) = dumped {
            eprintln!("rank {rank}: {e}");
            std::process::exit(1);
        }
        return;
    }
    if gens.is_empty() {
        eprintln!("no checkpoint generations under {}", root.display());
        std::process::exit(1);
    }
    list_store(&store, &gens);
    if let Some(round) = newest {
        out!("images of newest committed generation ({round}):");
        inspect_all(&store, round);
    }
}
