//! Schedule-space exploration suite: the Record→Replay round trip, the
//! exploration coverage bar, and the injected-oracle find-and-minimize
//! smoke test. (One explicit schedule replays through
//! `chaos_suite::case_replay` with a `CHAOS_CASE='schedule …'` spec.)

use chaos::explore::{encode_choices, explore, ExploreCfg, ExploreTarget, Oracle, ScheduleRun};
use chaos::Workload;
use mana_core::DrainMode;
use std::sync::Arc;
use std::time::Duration;

/// Satellite: choices recorded from a seeded run replay to byte-identical
/// trace-token rings across 6 seeds × worker counts 1–3.
///
/// The recording run *is* the seeded schedule (an empty script defers
/// every pick to the seeded policy while recording the full decision
/// log); the replay drives the recorded choice vector back through the
/// scheduler. The determinism-token rings and the schedule-invariant
/// stats must come back byte-identical at every worker count; at
/// workers=1 the decision-level choice vector itself must survive the
/// round trip (kernel racing between worker threads makes decision logs
/// legitimately differ at workers ≥ 2).
#[test]
fn record_replay_round_trip() {
    let seeds = [
        0x5EED_0001u64,
        0x5EED_0002,
        0x5EED_0003,
        0xBADC_0FFE,
        0x1234_5678,
        0xFEED_FACE,
    ];
    for (i, &seed) in seeds.iter().enumerate() {
        let ranks = 2 + i % 3;
        let workload = if i % 2 == 0 {
            Workload::Gromacs
        } else {
            Workload::Cg
        };
        let drain = if i % 4 < 2 {
            DrainMode::Alltoall
        } else {
            DrainMode::Coordinator
        };
        for workers in 1..=3usize {
            // Every message ends in the spec that replays the run: it
            // names the seed, the shape and the choices.
            let target = ExploreTarget::new(seed, ranks, workers, workload, drain).expect("target");
            let rec = target.run_schedule(&[]);
            let seeded = target.repro_command(&[]);
            assert!(
                rec.error.is_none(),
                "seeded run failed: {:?}\n  repro: {seeded}",
                rec.error
            );
            assert!(
                !rec.taken.is_empty(),
                "seeded run recorded no decisions\n  repro: {seeded}"
            );
            let rep = target.run_schedule(&rec.taken);
            let repro = target.repro_command(&rec.taken);
            assert!(
                rep.error.is_none(),
                "replay failed: {:?}\n  repro: {repro}",
                rep.error
            );
            assert_eq!(
                rec.det_rings, rep.det_rings,
                "trace-token rings diverged across record→replay\n  repro: {repro}"
            );
            assert_eq!(
                rec.invariant, rep.invariant,
                "schedule-invariant stats diverged across record→replay\n  repro: {repro}"
            );
        }
    }
}

/// Acceptance bar: ≥ 100 distinct interleavings (distinct full token
/// rings) of a 4-rank checkpoint round within a 10 s budget at workers=1,
/// with the pruning ratio reported.
#[test]
fn explorer_visits_100_interleavings_in_10s() {
    let target =
        ExploreTarget::new(20260807, 4, 1, Workload::Gromacs, DrainMode::Alltoall).expect("target");
    let cfg = ExploreCfg {
        budget: Duration::from_secs(10),
        ..ExploreCfg::default()
    };
    let report = explore(&target, &cfg);
    eprintln!("{}", report.summary());
    assert!(
        report.failures.is_empty(),
        "exploration found real failures: {:?}",
        report.failures
    );
    assert!(
        report.unique_interleavings >= 100,
        "visited only {} distinct interleavings in {:?} ({} schedules)",
        report.unique_interleavings,
        report.elapsed,
        report.schedules_run
    );
    assert_eq!(
        report.unique_equiv_classes, 1,
        "schedule-invariant outcome split into {} equivalence classes",
        report.unique_equiv_classes
    );
    assert!(report.prune.candidates > 0);
    let ratio = report.prune.ratio();
    assert!((0.0..=1.0).contains(&ratio), "pruning ratio {ratio}");
}

/// Acceptance bar: an injected ordering-sensitive assertion is found by
/// the search and minimized to a ≤ 8-choice repro that is prefix-minimal.
#[test]
fn injected_oracle_found_and_minimized() {
    // The "bug": the first two scheduling decisions grant ranks (3, 2) in
    // that order. The seeded schedule grants rank 0 first, so the search
    // has to steer the first decision (the seeded pick among the three
    // ranks left then happens to grant rank 2).
    let oracle: Oracle = Arc::new(|run: &ScheduleRun| {
        let first_two: Vec<usize> = run
            .decisions
            .iter()
            .take(2)
            .map(|d| d.chosen_rank)
            .collect();
        if first_two == [3, 2] {
            Err("injected: ranks (3,2) granted first".into())
        } else {
            Ok(())
        }
    });
    let target = ExploreTarget::new(0xAB_5E11, 4, 1, Workload::Gromacs, DrainMode::Alltoall)
        .expect("target")
        .with_oracle(oracle);

    // The pure seeded schedule must pass — otherwise nothing is "hunted".
    let baseline = target.run_schedule(&[]);
    assert!(
        baseline.error.is_none(),
        "baseline seeded schedule already trips the oracle: {:?}",
        baseline.error
    );

    // The search is bounded to the two decisions the oracle looks at. The
    // explorer draws uniformly from a frontier that gains ~36 prefixes per
    // expanded run (one per untried choice at each of up to 24 decisions),
    // and how many decisions a run takes can vary from run to run (park
    // caps expire on the wall clock; DESIGN §10 lists what else is left
    // outside the schedule), so the walk is not guaranteed to be a
    // function of its seed: left unbounded, the one-choice
    // prefix `03` that trips the oracle was simply never drawn in about
    // half of all 60 s runs, on an idle machine as much as a loaded one.
    // Bounded, the whole space is a dozen schedules and is exhausted.
    let cfg = ExploreCfg {
        budget: Duration::from_secs(60),
        max_depth: 2,
        sterile_pruning: false, // don't let the heuristic starve a tiny search
        ..ExploreCfg::default()
    };
    let report = explore(&target, &cfg);
    eprintln!("{}", report.summary());
    assert_eq!(
        report.failures.len(),
        1,
        "explorer did not find the injected bug in {} schedules / {:?}",
        report.schedules_run,
        report.elapsed
    );
    let failure = &report.failures[0];
    assert!(failure.error.contains("injected"), "{}", failure.error);

    let min = failure.minimized.as_ref().expect("minimizer ran").clone();
    eprintln!(
        "minimized to {} choice(s) in {} tests: {}",
        min.choices.len(),
        min.tests,
        encode_choices(&min.choices)
    );
    assert!(
        min.choices.len() <= 8,
        "minimized repro has {} choices: {}",
        min.choices.len(),
        encode_choices(&min.choices)
    );

    // Shrinker contract: the minimized vector still fails…
    let replay = target.run_schedule(&min.choices);
    assert!(
        replay.failed(),
        "minimized choice vector no longer fails: {}",
        encode_choices(&min.choices)
    );
    assert!(replay.error.as_deref().unwrap_or("").contains("injected"));

    // …and is prefix-minimal: dropping the last choice passes.
    assert!(
        !min.choices.is_empty(),
        "empty vector cannot trip the oracle"
    );
    let shorter = &min.choices[..min.choices.len() - 1];
    let pass = target.run_schedule(shorter);
    assert!(
        pass.error.is_none(),
        "dropping the last choice still fails — not prefix-minimal: {:?}",
        pass.error
    );
}
