//! Satellite check: for a fixed chaos seed the flight recorder captures
//! the *same checkpoint-window event sequence* on every run.
//!
//! The comparison projects each ring through [`chaos::determinism_token`],
//! which documents exactly what may legitimately vary between runs of the
//! same seed (intent landing position, drain window) and is shared with
//! the gating equivalence suite.

use chaos::{run_compared, trigger_plan, ChaosCase, Workload};
use mana_core::DrainMode;

#[test]
fn fixed_seed_records_identical_checkpoint_sequences() {
    let seed = 0x5EED_0001u64;
    let case = ChaosCase {
        seed,
        ranks: 3,
        workload: Workload::Cg,
        drain: DrainMode::Alltoall,
        restart: false,
    };
    // Quiet except for the checkpoint trigger: delays and reorders only
    // shift timing, but the trigger is what makes the trace interesting.
    let plan = trigger_plan(seed, 1, 12);

    let (_, a) = run_compared(&case, &plan, None);
    let (_, b) = run_compared(&case, &plan, None);
    for ((actor_a, toks_a), (actor_b, toks_b)) in a.iter().zip(b.iter()) {
        assert_eq!(actor_a, actor_b);
        assert_eq!(
            toks_a, toks_b,
            "actor {actor_a}: checkpoint-window sequence diverged between two runs of seed {seed:#x}"
        );
    }
    // The trace actually covered a checkpoint round: the coordinator and
    // every rank committed, and the trigger rank recorded its firing.
    let coord = &a[0].1;
    assert!(
        coord.contains(&"begin:commit".to_string()),
        "coordinator ring should show a committed round: {coord:?}"
    );
    for (actor, toks) in &a[1..] {
        assert!(
            toks.contains(&"end:commit".to_string()),
            "rank {actor} should have committed: {toks:?}"
        );
    }
    assert!(
        a[2].1.contains(&"fault_fired:trigger".to_string()),
        "trigger rank should record the firing: {:?}",
        a[2].1
    );
}
