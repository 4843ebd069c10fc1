//! Tests of the harness itself: the oracle vocabulary must still say no,
//! the spec must round-trip, and the repro line of a failure — of every
//! family — must replay the scenario that failed.

use chaos::explore::{load_fixtures, ExploreTarget, Oracle, ScheduleFixture, ScheduleRun};
use chaos::{
    run_case_with_plan, run_restart_kill_case, run_storage_case, CaseFailure, ChaosCase, Leg,
    RestartKillCase, Scenario, StorageCase, Workload,
};
use mana_core::{AppOutcome, CoordReport, DrainMode, RunReport};
use mpisim::{CoopCfg, EngineKind, FaultPlan, FaultSpec, StorageFaultKind, World, WorldCfg};
use std::sync::Arc;

fn corpus() -> Vec<ScheduleFixture> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/adversarial_schedules.txt");
    load_fixtures(&path).expect("corpus parses")
}

/// One scenario of each family, awkward fields included.
fn one_of_each() -> Vec<Scenario> {
    let coop = EngineKind::Coop(CoopCfg {
        workers: 2,
        sched_seed: 7_401,
    });
    let storm = RestartKillCase::derive(7_403, Some(StorageFaultKind::BitFlip), true, coop);
    vec![
        Scenario::Faults {
            case: ChaosCase::derive(1_000, Workload::Gromacs, DrainMode::Alltoall),
            engine: None,
        },
        Scenario::Faults {
            case: ChaosCase::from_seed(6_001),
            engine: Some(coop),
        },
        Scenario::Storage(StorageCase::derive(
            5_300,
            StorageFaultKind::TornWrite,
            true,
        )),
        // Multi-kill, partial, storage-crossed.
        Scenario::RestartKill(RestartKillCase {
            kills: vec![3, 0, 11],
            partial: Some(vec![1, 2]),
            ..storm
        }),
        Scenario::RestartKill(RestartKillCase::derive(
            7_200,
            None,
            false,
            WorldCfg::default().engine,
        )),
        Scenario::Schedule(ScheduleFixture {
            choices: vec![2, 0, 0, 1, 255],
            ..corpus().remove(0)
        }),
    ]
}

#[test]
fn scenario_specs_round_trip() {
    let corpus = corpus().into_iter().map(Scenario::Schedule);
    for scenario in one_of_each().into_iter().chain(corpus) {
        let spec = scenario.to_string();
        assert!(!spec.contains('\''), "the repro line quotes it: {spec}");
        assert_eq!(spec.parse::<Scenario>().as_ref(), Ok(&scenario), "{spec}");
    }
}

#[test]
fn malformed_specs_are_errors_naming_the_field() {
    let good =
        "storage seed=5 ranks=3 drain=alltoall store=flat kind=BitFlip restart=false victim=1";
    assert!(good.parse::<Scenario>().is_ok());
    for (bad, names) in [
        (String::new(), "empty"),
        (good.replace("storage", "storms"), "family"),
        (good.replace(" victim=1", ""), "victim"),
        (good.replace("drain=alltoall", "drain=topsort"), "drain"),
        (format!("{good} victim=2"), "victim"),
        (format!("{good} workload=cg"), "workload"),
        (format!("{good} chunked"), "key=value"),
        // The retired thread engine is refused with the accepted forms.
        (
            "restart_kill seed=7 ranks=3 drain=alltoall engine=thread".into(),
            "engine: \"thread\" (want coop | coop:<workers> |",
        ),
    ] {
        let err = bad.parse::<Scenario>().expect_err(&bad);
        assert!(err.contains(names), "{bad:?} -> {err}");
    }
}

/// A report no run produced: `outcomes` as given, restored from `restored`.
fn fabricated(outcomes: Vec<AppOutcome<u64>>, restored: Option<u64>) -> Leg<u64> {
    Leg {
        stage: "leg 7".into(),
        report: RunReport {
            outcomes,
            world_stats: World::new(1, WorldCfg::default()).stats(),
            rank_stats: Vec::new(),
            coord: CoordReport::default(),
            restored_round: restored,
            restored_ranks: None,
            metrics: None,
        },
    }
}

#[test]
fn every_expectation_still_says_no() {
    use AppOutcome::{Checkpointed, Finished};
    let finished = fabricated(vec![Finished(4), Finished(5)], Some(1));
    let exited = fabricated(vec![Checkpointed, Checkpointed], None);
    let mixed = fabricated(vec![Finished(4), Checkpointed], None);

    assert_eq!(finished.expect_finished(), Ok(()));
    assert_eq!(exited.expect_checkpointed(), Ok(()));
    assert_eq!(finished.expect_restored(1), Ok(()));
    assert_eq!(finished.expect_values(&[4, 5]), Ok(()));

    let rejections = [
        (exited.expect_finished(), "did not finish"),
        (mixed.expect_finished(), "did not finish"),
        (finished.expect_checkpointed(), "did not checkpoint"),
        (mixed.expect_checkpointed(), "did not checkpoint"),
        (
            finished.expect_restored(0),
            "restored Some(1), want round 0",
        ),
        (exited.expect_restored(0), "restored None"),
        (finished.expect_values(&[4, 6]), "diverged"),
        (finished.expect_values(&[4]), "diverged"),
        (mixed.expect_values(&[4, 5]), "diverged"),
    ];
    for (verdict, why) in rejections {
        let msg = verdict.expect_err(why);
        assert!(msg.starts_with("leg 7: ") && msg.contains(why), "{msg}");
    }
}

/// The spec between the quotes of a report's `CHAOS_CASE='…'`, parsed the
/// way `case_replay` parses the variable.
fn replayed(report: &str) -> Scenario {
    let (_, rest) = report.split_once("CHAOS_CASE='").expect(report);
    let (spec, rest) = rest.split_once('\'').expect(report);
    assert!(rest.contains("case_replay"), "{report}");
    spec.parse().unwrap_or_else(|e| panic!("{spec}: {e}"))
}

fn assert_faithful(failure: CaseFailure, failed: Scenario, why: &str) {
    assert!(failure.error.contains(why), "{}", failure.error);
    assert_eq!(*failure.scenario, failed);
    assert_eq!(replayed(&failure.to_string()), failed);
}

/// One deliberately failing case per family; each report's repro line must
/// name exactly the scenario that failed — not one re-derived from its
/// seed, and not another family's.
#[test]
fn repro_lines_replay_what_failed() {
    // Message faults, in a (workload, drain) cell `from_seed` does not
    // derive: the restart leg is killed at its first journal boundary.
    let case = ChaosCase::derive(0xFA_17, Workload::Cg, DrainMode::Coordinator);
    let case = ChaosCase {
        restart: true,
        ..case
    };
    assert_ne!(ChaosCase::from_seed(case.seed), case);
    let mut spec = FaultSpec::quiet();
    spec.trigger_at_call = Some((1, 12));
    spec.restart_kill = Some(0);
    let plan = Arc::new(FaultPlan::new(case.seed, spec));
    let failure = run_case_with_plan(&case, plan, None).expect_err("killed restart");
    let failed = Scenario::Faults { case, engine: None };
    assert_faithful(failure, failed, "restart run: ");

    // Storage: the victim is outside the world, so the write error never
    // lands and the round commits instead of aborting.
    let mut case = StorageCase::derive(0xFA_18, StorageFaultKind::WriteError, false);
    case.victim = case.ranks;
    let failure = run_storage_case(&case).expect_err("fault cannot land");
    assert_faithful(failure, Scenario::Storage(case), "protocol: ");

    // Restart kills: a boundary past the last one never fires.
    let mut case = RestartKillCase::derive(0xFA_19, None, true, WorldCfg::default().engine);
    case.kills = vec![case.boundaries() + 7];
    let failure = run_restart_kill_case(&case).expect_err("kill cannot fire");
    assert_faithful(failure, Scenario::RestartKill(case), "survived an armed");

    // Schedules: an injected oracle, as the explorer's own suite uses.
    let oracle: Oracle = Arc::new(|_: &ScheduleRun| Err("injected".into()));
    let target = ExploreTarget::new(0xFA_1A, 3, 1, Workload::Gromacs, DrainMode::Alltoall)
        .expect("target")
        .with_oracle(oracle);
    let run = target.run_schedule(&[1, 0]);
    assert!(run.error.as_deref().is_some_and(|e| e.contains("injected")));
    let failed = Scenario::Schedule(target.fixture(&run.scripted));
    assert_eq!(replayed(&target.repro_command(&run.scripted)), failed);
}
