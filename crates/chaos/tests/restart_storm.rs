//! Restart-storm chaos: crash the restart at journal-step boundaries —
//! singly, in sequences, and crossed with storage faults — and demand
//! convergence. `chaos::run_restart_kill_case` documents the oracle every
//! case is held to (each armed kill fires; the clean restart equals the
//! native reference and an uncrashed baseline; `mana_core::check_journal`
//! passes — a resume never redoes a completed step; the final epoch
//! commits with exactly the restart scope).
//!
//! Sweep sizes respect `CHAOS_BASE_SEED` / `CHAOS_SWEEP_COUNT` so the
//! nightly `restart-storm` job can run fresh seeds at higher volume.

use chaos::{run_restart_kill_case, Knobs, RestartKillCase};
use mana_core::{obs, DrainMode, ManaConfig, RuntimeError};
use mpisim::{CoopCfg, EngineKind, StorageFaultKind, WorldCfg};
use splitproc::{journal, store};
use std::time::Duration;
use workloads::{gromacs, under_mana, Launch};

/// The `MANA2_*` environment: the CI matrix steers what a test does not pin.
fn env() -> mana_core::EnvConfig {
    mana_core::from_env().expect("MANA2_* environment")
}

/// The default engine (auto workers) and two tokens under a seeded
/// schedule.
fn engines(seed: u64) -> [EngineKind; 2] {
    [
        WorldCfg::default().engine,
        EngineKind::Coop(CoopCfg {
            workers: 2,
            sched_seed: seed,
        }),
    ]
}

fn check(case: &RestartKillCase) {
    if let Err(failure) = run_restart_kill_case(case) {
        panic!("{failure}");
    }
}

/// One storm per gating that dies at *every* journal-step boundary in
/// sequence: attempt 0 is killed at boundary 0, its resume at boundary 1,
/// and so on through the final boundary, before the converging clean
/// restart. Besides covering each kill point, consecutive attempts form
/// every adjacent double-crash pair.
fn storm_through_every_boundary(base_seed: u64, partial: bool) {
    for (i, engine) in engines(base_seed).into_iter().enumerate() {
        let mut case = RestartKillCase::derive(base_seed + i as u64, None, partial, engine);
        case.kills = (0..case.boundaries()).collect();
        check(&case);
    }
}

#[test]
fn storm_through_every_boundary_converges() {
    storm_through_every_boundary(7_000, false);
}

/// Same storm, but for a partial restart: only the failed ranks' restores
/// are journaled, so the boundary space is smaller and the committed
/// epoch must list exactly the failed set.
#[test]
fn partial_restart_storm_through_every_boundary() {
    storm_through_every_boundary(7_100, true);
}

/// Single crash against a fresh journal at each boundary — unlike the
/// sequential storm, every kill here lands on an empty journal, so this
/// covers "first crash at step k" for every k.
#[test]
fn single_kill_at_each_boundary_full_restart() {
    let case0 = RestartKillCase::derive(7_200, None, false, WorldCfg::default().engine);
    for k in 0..case0.boundaries() {
        let mut case = case0.clone();
        case.kills = vec![k];
        check(&case);
    }
}

/// Non-adjacent double-crash pairs (the sequential storm already covers
/// all adjacent ones): first, middle, and last boundary in all orders.
#[test]
fn double_crash_pairs_converge() {
    let case0 = RestartKillCase::derive(7_300, None, false, WorldCfg::default().engine);
    let last = case0.boundaries() - 1;
    let mid = case0.boundaries() / 2;
    for &(a, b) in &[
        (0, mid),
        (0, last),
        (mid, 0),
        (last, 0),
        (last, mid),
        (mid, mid),
    ] {
        let mut case = case0.clone();
        case.kills = vec![a, b];
        check(&case);
    }
}

/// Restart kills crossed with the storage-fault matrix: the newest
/// generation is damaged (torn / bit-flipped / its round aborted by a
/// write error) before the storm, so recovery must fall back past it *and*
/// survive the kills, under both gatings, full and partial.
#[test]
fn restart_kill_storage_cross_matrix() {
    let kinds = [
        StorageFaultKind::WriteError,
        StorageFaultKind::TornWrite,
        StorageFaultKind::BitFlip,
    ];
    let mut seed = 7_400u64;
    for kind in kinds {
        for partial in [false, true] {
            let engine = engines(seed)[(seed % 2) as usize];
            let case = RestartKillCase::derive(seed, Some(kind), partial, engine);
            check(&case);
            seed += 1;
        }
    }
}

/// Fresh-seed sweep (the nightly entry point): fully-derived cases —
/// seeded kill count and boundaries, alternating full/partial and
/// engines, cycling storage-fault crosses.
#[test]
fn seeded_restart_kill_sweep() {
    let knobs = Knobs::from_env();
    let (base, count) = (knobs.base_seed, knobs.sweep_count);
    let kinds = [
        None,
        Some(StorageFaultKind::TornWrite),
        Some(StorageFaultKind::BitFlip),
        Some(StorageFaultKind::WriteError),
    ];
    for i in 0..count {
        let seed = base.wrapping_add(0x9_0000).wrapping_add(i);
        let engine = engines(seed)[(i % 2) as usize];
        let case = RestartKillCase::derive(
            seed,
            kinds[(i % kinds.len() as u64) as usize],
            i % 3 == 1,
            engine,
        );
        check(&case);
    }
}

/// Acceptance check from the issue: a partial restart of k of 64 ranks
/// journals exactly those k ranks as restored and converges. (No kills —
/// this is the scale test for the partial path itself.)
#[test]
fn partial_restart_of_64_ranks_restores_only_failed() {
    let case = RestartKillCase {
        seed: 7_640,
        ranks: 64,
        kills: vec![],
        partial: Some(vec![3, 17, 40, 41, 63]),
        storage: None,
        // A run token per rank: 64 kernel-preempted rank threads.
        engine: EngineKind::Coop(CoopCfg {
            workers: 64,
            sched_seed: 0,
        }),
        drain: DrainMode::Alltoall,
    };
    check(&case);
}

/// The survivor-preserving property, end to end at the runtime level: rot
/// a survivor's manifest entry after commit. A *full* restart must refuse
/// the store entirely (no usable generation), while a *partial* restart
/// replacing only the other ranks proceeds — the survivor's image is read
/// leniently and its manifest damage cannot veto.
#[test]
fn survivor_manifest_damage_blocks_full_but_not_partial_restart() {
    let ranks = 3;
    let survivor = 2usize;
    let dir = std::env::temp_dir().join(format!(
        "mana2_restart_storm_survivor_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let base = ManaConfig {
        ckpt_dir: dir.clone(),
        deadlock_timeout: Some(Duration::from_secs(30)),
        ..env().mana
    };
    let gcfg = |ckpt_at: Option<u64>| gromacs::GromacsConfig {
        atoms_per_rank: 96,
        steps: 8,
        compute_per_step: 0,
        energy_interval: 2,
        halo: 8,
        ckpt_at_step: ckpt_at,
        ckpt_round: 0,
    };
    let run = |how: Launch<'_>| under_mana(&env().runtime(ranks, base.clone()), how, &gcfg(None));
    // Commit generation 0, then rot the survivor's manifest entry (the
    // image itself stays intact, so a lenient read still succeeds).
    {
        let exit_cfg = ManaConfig {
            exit_after_ckpt: true,
            ..base.clone()
        };
        let rt = env().runtime(ranks, exit_cfg);
        let rep = under_mana(&rt, Launch::Fresh, &gcfg(Some(2))).expect("checkpoint leg");
        assert!(rep.all_checkpointed());
    }
    let ckpts = store::Store::open(&dir, base.store.clone());
    let gdir = store::generation_dir(&dir, 0);
    let mut manifest = ckpts.read_manifest(0).expect("manifest");
    manifest.entries[survivor].crc ^= 0xDEAD_BEEF;
    std::fs::write(gdir.join(store::MANIFEST_FILE), manifest.to_bytes()).expect("rewrite");
    // The survivor's image must still parse — the damage is manifest-only.
    // (Layout-aware load: flat image or chunk-pool reassembly.)
    ckpts
        .load_image(0, survivor)
        .expect("survivor image intact");
    // Full restart: the damaged entry vetoes the only generation.
    match run(Launch::Restart) {
        Err(RuntimeError::Store(e)) => {
            assert!(e.to_string().contains("rank 2"), "{e}");
        }
        other => panic!("full restart should fail on the store, got {other:?}"),
    }
    // Partial restart replacing ranks {0, 1}: survivors cannot veto.
    let rep = run(Launch::Partial(&[0, 1])).expect("partial restart");
    assert!(rep.all_finished());
    assert_eq!(rep.restored_round, Some(0));
    assert_eq!(rep.restored_ranks, Some(vec![0, 1]));
    // Exactly the failed ranks were journaled as restored.
    let records = journal::read_records(&dir).expect("journal");
    assert!(mana_core::check_journal(&records).is_empty());
    let epochs = journal::replay_epochs(&records);
    let last = epochs.last().expect("an epoch");
    assert!(last.committed);
    assert_eq!(
        last.restored.iter().copied().collect::<Vec<_>>(),
        vec![0, 1]
    );
    // Now rot the survivor's *image* (one payload byte, flat file or first
    // upper chunk). Partial validation still does not read it, so the
    // damage surfaces when the survivor loads its own image — and must
    // reach the caller typed, with its reject code, not as an I/O error
    // and not masked by the collateral errors of the aborted peers.
    let flat = splitproc::CkptImage::path_for(&gdir, survivor);
    let victim = if flat.is_file() {
        flat
    } else {
        let recipe = std::fs::read(ckpts.recipe_path(0, survivor)).expect("recipe");
        let recipe = splitproc::Recipe::from_bytes(&recipe).expect("recipe parses");
        ckpts.chunk_path(recipe.upper_chunks[0].id)
    };
    let mut bytes = std::fs::read(&victim).expect("victim");
    let last_byte = bytes.len() - 1;
    bytes[last_byte] ^= 0xFF;
    std::fs::write(&victim, &bytes).expect("rot");
    match run(Launch::Partial(&[0, 1])) {
        Err(RuntimeError::Store(store::StoreError::Rejected { rank, code, .. })) => {
            assert_eq!(rank, survivor);
            assert!(
                matches!(
                    code,
                    obs::RejectCode::BadImage | obs::RejectCode::CorruptImage
                ),
                "{code:?}"
            );
        }
        other => panic!("rotted survivor must be a typed rejection, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
