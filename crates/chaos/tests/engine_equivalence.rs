//! Satellite check (pluggable engines): a fixed `(seed, schedule)` pair
//! must behave identically under `ThreadEngine` and `CoopEngine`.
//!
//! For each seed the same full checkpoint-and-restart chaos case runs
//! once per engine, and the suite demands:
//!
//! - identical [`chaos::CaseReport`]s (committed rounds, restart taken);
//! - identical per-rank schedule-invariant `ManaStats` totals (summed
//!   across the checkpoint and restart legs — where the checkpoint lands
//!   in a non-trigger rank's call stream is itself schedule-dependent,
//!   so only the sum is comparable; see
//!   `ManaStats::schedule_invariant`);
//! - identical per-actor `mana2-trace` determinism-token sequences
//!   (modulo timestamps — the same projection the single-engine
//!   determinism suite uses).
//!
//! Result correctness against the fault-free native reference is already
//! asserted inside [`chaos::run_compared`] for every leg.

use chaos::{assert_equivalent, run_compared, trigger_plan, ChaosCase, Workload};
use mana_core::DrainMode;
use mpisim::{CoopCfg, EngineKind};

fn check_equivalence(case: &ChaosCase, trigger: (usize, u64)) {
    let seed = case.seed;
    let plan = trigger_plan(seed, trigger.0, trigger.1);
    let coop = EngineKind::Coop(CoopCfg {
        workers: 2,
        sched_seed: seed,
    });
    let thread = run_compared(case, &plan, Some(EngineKind::Thread));
    let coop = run_compared(case, &plan, Some(coop));
    assert_equivalent(&format!("seed {seed:#x}: engines"), &thread, &coop);
}

#[test]
fn checkpoint_restart_equivalent_across_engines_seed1() {
    let case = ChaosCase {
        seed: 0xE9_0001,
        ranks: 3,
        workload: Workload::Cg,
        drain: DrainMode::Alltoall,
        restart: true,
    };
    check_equivalence(&case, (1, 12));
}

#[test]
fn checkpoint_restart_equivalent_across_engines_seed2() {
    let case = ChaosCase {
        seed: 0xE9_0002,
        ranks: 4,
        workload: Workload::Gromacs,
        drain: DrainMode::Coordinator,
        restart: true,
    };
    check_equivalence(&case, (2, 9));
}

#[test]
fn checkpoint_restart_equivalent_across_engines_seed3() {
    let case = ChaosCase {
        seed: 0xE9_0003,
        ranks: 3,
        workload: Workload::Cg,
        drain: DrainMode::Coordinator,
        restart: true,
    };
    check_equivalence(&case, (0, 17));
}

/// Resume-mode coverage: no restart leg, so the invariant totals compare
/// single-leg stats directly.
#[test]
fn resume_mode_equivalent_across_engines() {
    let case = ChaosCase {
        seed: 0xE9_0004,
        ranks: 3,
        workload: Workload::Gromacs,
        drain: DrainMode::Alltoall,
        restart: false,
    };
    check_equivalence(&case, (1, 14));
}

/// The restart legs actually ran: with the trigger armed the case must
/// commit a round and go through restart, otherwise the equivalence
/// above compared two trivial (checkpoint-free) executions.
#[test]
fn equivalence_cases_exercise_restart() {
    let case = ChaosCase {
        seed: 0xE9_0005,
        ranks: 3,
        workload: Workload::Cg,
        drain: DrainMode::Alltoall,
        restart: true,
    };
    let plan = trigger_plan(case.seed, 1, 12);
    let coop = EngineKind::Coop(CoopCfg {
        workers: 2,
        sched_seed: case.seed,
    });
    let (out, _) = run_compared(&case, &plan, Some(coop));
    assert!(
        out.report.restarted,
        "trigger never fired: {:?}",
        out.report
    );
    assert!(out.report.rounds >= 1);
    assert!(out.restart_stats.is_some());
}

/// Satellite (schedule exploration): the checked-in corpus of
/// explorer-found adversarial choice vectors replays clean, and for every
/// vector the Coop+Replay run agrees with a Thread-engine run of the same
/// workload on the schedule-invariant stats and the determinism-token
/// rings. Each corpus schedule also carries its own built-in oracle stack
/// (native-reference transparency, exactly one committed round) inside
/// [`chaos::explore::ExploreTarget::run_schedule`].
#[test]
fn adversarial_schedule_corpus_equivalent_across_engines() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/adversarial_schedules.txt");
    let fixtures = chaos::explore::load_fixtures(&path).expect("corpus parses");
    assert!(!fixtures.is_empty(), "corpus is empty");
    for fx in &fixtures {
        let target = fx
            .target()
            .unwrap_or_else(|e| panic!("fixture {}: {e}", fx.to_line()));
        let coop = target.run_schedule(&fx.choices);
        assert!(
            coop.error.is_none(),
            "fixture {} failed under coop replay: {:?}\n  repro: {}",
            fx.to_line(),
            coop.error,
            target.repro_command(&fx.choices)
        );
        let thread = target.run_thread_reference();
        assert!(
            thread.error.is_none(),
            "fixture {} failed under thread engine: {:?}",
            fx.to_line(),
            thread.error
        );
        assert_eq!(
            coop.invariant,
            thread.invariant,
            "fixture {}: schedule-invariant ManaStats diverged between engines",
            fx.to_line()
        );
        assert_eq!(
            coop.det_rings,
            thread.det_rings,
            "fixture {}: determinism-token rings diverged between engines",
            fx.to_line()
        );
    }
}
