//! The seeded chaos suite: sweep deterministic fault plans across the
//! (workload × drain-mode) matrix and demand transparency — identical
//! results to the native run — under every plan.
//!
//! Each sweep uses a disjoint seed range, so the six matrix tests cover
//! 54 distinct seeds. A failure shrinks itself to a minimal fault spec
//! and prints a one-line repro of exactly the scenario that failed:
//!
//! ```text
//! CHAOS_CASE='<spec>' cargo test -p chaos --test chaos_suite case_replay -- --exact --nocapture
//! ```

use chaos::{check_case, env_case, ChaosCase, Knobs, Scenario, StorageCase, Workload};
use mana_core::DrainMode;
use mpisim::StorageFaultKind;
use splitproc::StoreMode;

const KINDS: [StorageFaultKind; 3] = [
    StorageFaultKind::WriteError,
    StorageFaultKind::TornWrite,
    StorageFaultKind::BitFlip,
];

/// The case passes under the plan derived from its seed, or the test dies
/// with the failure report.
fn check(case: &ChaosCase) -> chaos::CaseReport {
    check_case(case, None).unwrap_or_else(|msg| panic!("{msg}"))
}

fn sweep(base: u64, count: u64, workload: Workload, drain: DrainMode) {
    let mut triggered = 0usize;
    for seed in base..base + count {
        if check(&ChaosCase::derive(seed, workload, drain)).rounds > 0 {
            triggered += 1;
        }
    }
    // The sweep is only meaningful if the adversarial trigger actually
    // lands checkpoints; an all-quiet sweep means the plan generator broke.
    assert!(
        triggered > 0,
        "no seed in {base}..{} produced a checkpoint round",
        base + count
    );
}

#[test]
fn gromacs_alltoall_seeds() {
    sweep(1_000, 9, Workload::Gromacs, DrainMode::Alltoall);
}

#[test]
fn gromacs_coordinator_seeds() {
    sweep(2_000, 9, Workload::Gromacs, DrainMode::Coordinator);
}

#[test]
fn cg_alltoall_seeds() {
    sweep(3_000, 9, Workload::Cg, DrainMode::Alltoall);
}

#[test]
fn cg_coordinator_seeds() {
    sweep(4_000, 9, Workload::Cg, DrainMode::Coordinator);
}

#[test]
fn gromacs_toposort_seeds() {
    sweep(7_000, 9, Workload::Gromacs, DrainMode::TopoSort);
}

#[test]
fn cg_toposort_seeds() {
    sweep(8_000, 9, Workload::Cg, DrainMode::TopoSort);
}

/// Worker count × seed matrix: fully-derived chaos cases must pass
/// across worker counts of 1, 2, and 3 (1 is the strongest schedule:
/// every blocking point must release its run token or the world wedges).
/// The sweeps above run under the default engine; the dedicated
/// `engine_equivalence` suite checks gating equivalence.
#[test]
fn coop_engine_seed_matrix() {
    use mpisim::{CoopCfg, EngineKind};
    for (i, seed) in (6_000u64..6_006).enumerate() {
        let engine = EngineKind::Coop(CoopCfg {
            workers: 1 + (i % 3),
            sched_seed: seed,
        });
        if let Err(msg) = check_case(&ChaosCase::from_seed(seed), Some(engine)) {
            panic!("{msg}");
        }
    }
}

fn check_storage(case: &StorageCase) {
    if let Err(failure) = chaos::run_storage_case(case) {
        panic!("{failure}");
    }
}

/// Sweep one (storage-fault kind × mode) cell over a few seeds; each seed
/// varies world size, victim rank, and the damaged byte offset.
fn storage_sweep(base: u64, count: u64, kind: StorageFaultKind, restart: bool) {
    for seed in base..base + count {
        check_storage(&StorageCase::derive(seed, kind, restart));
    }
}

#[test]
fn storage_write_error_resume_seeds() {
    storage_sweep(5_000, 3, StorageFaultKind::WriteError, false);
}

#[test]
fn storage_write_error_restart_seeds() {
    storage_sweep(5_100, 3, StorageFaultKind::WriteError, true);
}

#[test]
fn storage_torn_write_resume_seeds() {
    storage_sweep(5_200, 3, StorageFaultKind::TornWrite, false);
}

#[test]
fn storage_torn_write_restart_seeds() {
    storage_sweep(5_300, 3, StorageFaultKind::TornWrite, true);
}

#[test]
fn storage_bit_flip_resume_seeds() {
    storage_sweep(5_400, 3, StorageFaultKind::BitFlip, false);
}

#[test]
fn storage_bit_flip_restart_seeds() {
    storage_sweep(5_500, 3, StorageFaultKind::BitFlip, true);
}

/// Chunked layout, static content: a chunk torn after round N committed
/// must cost round N alone. Round N+1 carries the same bytes, and used to
/// deduplicate against the torn file — with retention full, every
/// generation then referenced it and restart found nothing usable, where
/// the flat layout loses one generation. The job resumes after the
/// faulted round and commits N+1, and the selection a restart performs
/// must then pick N+1, rejecting nothing but N. (The oracle stops at the
/// selection: restarting a *run* from a generation written in resume mode
/// — not at an agreed `step_commit` cut — is not something the runtime
/// supports today.)
#[test]
fn storage_torn_chunk_costs_only_its_own_generation() {
    use mana_core::{Mana, ManaConfig};
    use mpisim::{FaultPlan, FaultSpec, ReduceOp, StorageFaultSpec};
    use splitproc::{ChunkParams, Store, StoreConfig, StoreMode};
    let (ranks, victim) = (3, 1);
    let env = mana_core::from_env().expect("MANA2_* environment");
    let dir = std::env::temp_dir().join(format!("mana2_torn_chunk_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut spec = FaultSpec::quiet();
    spec.storage = Some(StorageFaultSpec {
        rank: victim,
        round: 0,
        kind: StorageFaultKind::TornWrite,
    });
    let cfg = ManaConfig {
        ckpt_dir: dir.clone(),
        store: StoreConfig {
            mode: StoreMode::Chunked,
            chunk: ChunkParams {
                min_size: 64,
                avg_size: 256,
                max_size: 1024,
            },
            ..StoreConfig::default()
        },
        fault: Some(std::sync::Arc::new(FaultPlan::new(5_600, spec))),
        ..env.mana.clone()
    };
    // A step loop over a large segment that never changes (what nearly
    // every chunk is cut from), checkpointing at steps 2 and 5.
    let work = |m: &mut Mana<'_>| -> mana_core::Result<u64> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ m.rank() as u64;
        let bytes = (0..16 * 1024).map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u8
        });
        m.upper_mut().write_segment("static", bytes.collect());
        let w = m.comm_world();
        let mut acc = 0;
        for step in 0..8u64 {
            if m.rank() == 0 && [(2, 0), (5, 1)].contains(&(step, m.round())) {
                m.request_checkpoint()?;
            }
            acc += m.allreduce_t(w, ReduceOp::Sum, &[step * 10 + m.rank() as u64])?[0];
        }
        Ok(acc)
    };
    let run = env
        .runtime(ranks, cfg.clone())
        .run_fresh(work)
        .expect("faulted run");
    assert!(run.all_finished(), "{:?}", run.outcomes);
    assert_eq!(run.coord.rounds.len(), 2, "both rounds commit");
    let store = Store::open(&dir, cfg.store.clone());
    let sel = store
        .select(Some(ranks), None)
        .expect("round 1 must be usable");
    assert_eq!(sel.round, 1);
    assert!(
        sel.rejected.iter().all(|r| r.round == 0),
        "{:?}",
        sel.rejected
    );
    for rank in 0..ranks {
        let head = sel.images[rank].as_ref().expect("full selection").head();
        assert_eq!((head.rank, head.round), (rank, 1));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// CI fresh-seed storage sweep: like `fresh_sweep`, but cycling through
/// every (fault kind × mode) cell, each seed under both store layouts, so
/// each night's window exercises the whole durability matrix — every
/// fault kind landing on whole images *and* on chunk files — on brand-new
/// seeds.
#[test]
fn fresh_storage_sweep() {
    let knobs = Knobs::from_env();
    let base = knobs.base_seed ^ 0x57A6_57A6;
    for i in 0..knobs.sweep_count {
        let kind = KINDS[(i % 3) as usize];
        let mut case = StorageCase::derive(base.wrapping_add(i), kind, (i / 3) % 2 == 0);
        for store in [StoreMode::Flat, StoreMode::Chunked] {
            case.store = store;
            check_storage(&case);
        }
    }
}

/// Nightly drain crossing: every quiesce protocol across the same window
/// of fresh fault *and* storage seeds. The regular fresh sweeps derive the
/// protocol from the seed, so each covers only ~1/3 of any one protocol
/// per night; this test pins each in turn.
#[test]
fn fresh_drain_sweep() {
    let knobs = Knobs::from_env();
    let base = knobs.base_seed ^ 0xD4A1_D4A1;
    for i in 0..knobs.sweep_count {
        let seed = base.wrapping_add(i);
        let workload = if i % 2 == 0 {
            Workload::Gromacs
        } else {
            Workload::Cg
        };
        let mut storage = StorageCase::derive(seed, KINDS[(i % 3) as usize], i % 2 == 0);
        for drain in [
            DrainMode::Alltoall,
            DrainMode::Coordinator,
            DrainMode::TopoSort,
        ] {
            check(&ChaosCase::derive(seed, workload, drain));
            storage.drain = drain;
            check_storage(&storage);
        }
    }
}

/// Replay hook: `CHAOS_CASE='<spec>'` reruns exactly the scenario a
/// failure report named, of any family. A spec that does not parse fails
/// the test; unset, two committed specs replay — one fixed schedule, so
/// the hook itself stays exercised, and the message-fault case derived
/// from seed `0x00C0FFEE`.
#[test]
fn case_replay() {
    let committed = [
        "schedule seed=13655789 ranks=4 drain=alltoall workers=1 workload=gromacs choices=020001",
        "faults seed=12648430 ranks=2 drain=alltoall workload=cg restart=true",
    ];
    let scenarios: Vec<Scenario> = match env_case() {
        Some(parsed) => vec![parsed.unwrap_or_else(|e| panic!("{e}"))],
        None => committed
            .map(|spec| spec.parse().expect("committed spec"))
            .to_vec(),
    };
    for scenario in scenarios {
        eprintln!("case_replay: {scenario}");
        match scenario.check() {
            Ok(summary) => eprintln!("case_replay: {summary}"),
            Err(msg) => panic!("{msg}"),
        }
    }
}

/// CI fresh-seed sweep: `CHAOS_BASE_SEED` (the nightly job passes its run
/// id) selects a window of brand-new seeds, `CHAOS_SWEEP_COUNT` its width.
/// Defaults keep routine runs fast; nightly asks for 32.
#[test]
fn fresh_sweep() {
    let knobs = Knobs::from_env();
    for i in 0..knobs.sweep_count {
        check(&ChaosCase::from_seed(knobs.base_seed.wrapping_add(i)));
    }
}
