//! Satellite check (pluggable drain strategies): the same `(seed, fault
//! plan)` chaos case must behave identically whether the checkpoint
//! window quiesces with the alltoall drain or the topological-sort drain.
//!
//! The quiesce protocol decides *how* in-flight traffic is counted and
//! captured, never *what* state survives the checkpoint. So for each seed
//! the full checkpoint-and-restart case runs once per strategy — ungated
//! and gated to two run tokens — and the suite demands:
//!
//! - identical [`chaos::CaseReport`]s (committed rounds, restart taken);
//! - identical per-rank schedule-invariant `ManaStats` totals (summed
//!   across the checkpoint and restart legs, see
//!   `ManaStats::schedule_invariant`);
//! - identical per-actor determinism-token rings — the projection already
//!   excludes the strategy-specific count exchange (`drain_exchange`,
//!   `drain_plan`, `drain_schedule`) exactly so this comparison is
//!   meaningful.
//!
//! Result correctness against the fault-free native reference is already
//! asserted inside [`chaos::run_compared`] for every leg.

use chaos::{assert_equivalent, run_compared, trigger_plan, ChaosCase, Workload};
use mana_core::DrainMode;
use mpisim::{CoopCfg, EngineKind};

fn coop(workers: usize, sched_seed: u64) -> EngineKind {
    EngineKind::Coop(CoopCfg {
        workers,
        sched_seed,
    })
}

/// Run `case` under both drain strategies, ungated (a run token per rank)
/// and gated to two tokens, and demand the observable checkpoint-window
/// behavior is strategy-invariant.
fn check_drain_equivalence(case: &ChaosCase, trigger: (usize, u64)) {
    let seed = case.seed;
    let plan = trigger_plan(seed, trigger.0, trigger.1);
    for engine in [coop(case.ranks, 0), coop(2, seed)] {
        let [alltoall, toposort] = [DrainMode::Alltoall, DrainMode::TopoSort].map(|drain| {
            let case = ChaosCase {
                drain,
                ..case.clone()
            };
            run_compared(&case, &plan, Some(engine))
        });
        let what = format!("seed {seed:#x} under {engine}: strategies");
        assert_equivalent(&what, &alltoall, &toposort);
    }
}

#[test]
fn drain_equivalent_seed1_cg_restart() {
    let case = ChaosCase {
        seed: 0xD4_0001,
        ranks: 3,
        workload: Workload::Cg,
        drain: DrainMode::Alltoall,
        restart: true,
    };
    check_drain_equivalence(&case, (1, 12));
}

#[test]
fn drain_equivalent_seed2_gromacs_restart() {
    let case = ChaosCase {
        seed: 0xD4_0002,
        ranks: 4,
        workload: Workload::Gromacs,
        drain: DrainMode::Alltoall,
        restart: true,
    };
    check_drain_equivalence(&case, (2, 9));
}

#[test]
fn drain_equivalent_seed3_cg_resume() {
    let case = ChaosCase {
        seed: 0xD4_0003,
        ranks: 3,
        workload: Workload::Cg,
        drain: DrainMode::Alltoall,
        restart: false,
    };
    check_drain_equivalence(&case, (0, 17));
}

#[test]
fn drain_equivalent_seed4_gromacs_resume() {
    let case = ChaosCase {
        seed: 0xD4_0004,
        ranks: 3,
        workload: Workload::Gromacs,
        drain: DrainMode::Alltoall,
        restart: false,
    };
    check_drain_equivalence(&case, (1, 14));
}

/// The restart leg actually ran under the topo-sort drain: with the
/// trigger armed the case must commit a round and rebuild every rank
/// from its image, otherwise the equivalence above compared two trivial
/// (checkpoint-free) executions.
#[test]
fn toposort_cases_exercise_restart() {
    let case = ChaosCase {
        seed: 0xD4_0005,
        ranks: 3,
        workload: Workload::Cg,
        drain: DrainMode::TopoSort,
        restart: true,
    };
    let plan = trigger_plan(case.seed, 1, 12);
    let (out, _) = run_compared(&case, &plan, Some(coop(case.ranks, 0)));
    assert!(
        out.report.restarted,
        "trigger never fired: {:?}",
        out.report
    );
    assert!(out.report.rounds >= 1);
    assert!(out.restart_stats.is_some());
}
