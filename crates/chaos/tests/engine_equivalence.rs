//! Gating equivalence: a fixed `(seed, schedule)` case must behave
//! identically at the engine's two gating extremes — `workers = 1`, one
//! run token, every interleaving chosen by the seeded scheduler, and
//! `workers = ranks`, a token per rank, the gate never contended and the
//! kernel preempting the ranks.
//!
//! For each seed the same full checkpoint-and-restart chaos case runs
//! once at each extreme, and the suite demands:
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

use chaos::{assert_equivalent, run_compared, trigger_plan, ChaosCase, Scenario, Workload};
use mana_core::DrainMode;
use mpisim::{CoopCfg, EngineKind};

fn coop(workers: usize, sched_seed: u64) -> EngineKind {
    EngineKind::Coop(CoopCfg {
        workers,
        sched_seed,
    })
}

fn check_equivalence(case: &ChaosCase, trigger: (usize, u64)) {
    let seed = case.seed;
    let plan = trigger_plan(seed, trigger.0, trigger.1);
    let serial = run_compared(case, &plan, Some(coop(1, seed)));
    let ungated = run_compared(case, &plan, Some(coop(case.ranks, seed)));
    assert_equivalent(
        &format!("seed {seed:#x}: workers 1 and {}", case.ranks),
        &serial,
        &ungated,
    );
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
    let (out, _) = run_compared(&case, &plan, Some(coop(2, case.seed)));
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
/// vector the scripted run agrees with an ungated (`workers = ranks`) run
/// of the same workload on the schedule-invariant stats and the
/// determinism-token rings. Each corpus schedule also carries its own built-in oracle stack
/// (native-reference transparency, exactly one committed round) inside
/// [`chaos::explore::ExploreTarget::run_schedule`].
#[test]
fn adversarial_schedule_corpus_equivalent_across_engines() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/adversarial_schedules.txt");
    let fixtures = chaos::explore::load_fixtures(&path).expect("corpus parses");
    assert!(!fixtures.is_empty(), "corpus is empty");
    for fx in &fixtures {
        let spec = Scenario::Schedule(fx.clone());
        let target = fx
            .target()
            .unwrap_or_else(|e| panic!("fixture {}: {e}", spec));
        let scripted = target.run_schedule(&fx.choices);
        assert!(
            scripted.error.is_none(),
            "fixture {} failed under replay: {:?}\n  repro: {}",
            spec,
            scripted.error,
            target.repro_command(&fx.choices)
        );
        let ungated = target.run_ungated_reference();
        assert!(
            ungated.error.is_none(),
            "fixture {} failed ungated: {:?}",
            spec,
            ungated.error
        );
        assert_eq!(
            scripted.invariant, ungated.invariant,
            "fixture {}: schedule-invariant ManaStats diverged from the ungated run",
            spec
        );
        assert_eq!(
            scripted.det_rings, ungated.det_rings,
            "fixture {}: determinism-token rings diverged from the ungated run",
            spec
        );
    }
}
