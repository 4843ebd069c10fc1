//! Engine gating and deterministic replay.
//!
//! Part 1 runs the same world twice under the cooperative engine with one
//! worker and a fixed schedule seed: the rank interleaving is a pure
//! function of the seed, so the two observed execution orders are
//! identical — and a different seed picks a different order.
//!
//! Part 2 runs a checkpoint-and-resume round ungated (`coop:4`, a run
//! token per rank, kernel-preempted) and serialized under a seeded
//! schedule (`coop:1:42`), and shows the schedule-invariant per-rank
//! stats agree.
//!
//! ```text
//! cargo run --example engine_replay
//! ```

use mana2::mana_core::{from_env, ConfigError, EnvConfig, ManaConfig};
use mana2::mpisim::{CoopCfg, EngineKind, ReduceOp, SrcSel, TagSel, World, WorldCfg};
use std::sync::{Arc, Mutex};

fn coop(workers: usize, sched_seed: u64) -> EngineKind {
    EngineKind::Coop(CoopCfg {
        workers,
        sched_seed,
    })
}

/// Run a 6-rank ring token pass under `coop:1:<seed>` and record the
/// order in which ranks execute. With one worker, exactly one rank runs
/// at a time and the scheduler's seeded hash picks who goes next, so
/// this order is the schedule.
fn schedule_trace(sched_seed: u64) -> Vec<usize> {
    let order = Arc::new(Mutex::new(Vec::new()));
    let cfg = WorldCfg {
        engine: coop(1, sched_seed),
        ..WorldCfg::default()
    };
    let w = World::new(6, cfg);
    let o = Arc::clone(&order);
    w.launch(move |p| {
        let world = p.comm_world();
        let n = p.world_size();
        let right = (p.rank() + 1) % n;
        let left = (p.rank() + n - 1) % n;
        for lap in 0..3u64 {
            o.lock().unwrap().push(p.rank());
            p.send(world, right, 0, &lap.to_le_bytes()).unwrap();
            p.recv(world, SrcSel::Rank(left), TagSel::Tag(0)).unwrap();
        }
    })
    .expect("world run");
    Arc::try_unwrap(order).unwrap().into_inner().unwrap()
}

/// A small checkpoint-and-resume app: ring traffic + allreduce, with a
/// checkpoint requested mid-run.
fn app(m: &mut mana2::mana_core::Mana<'_>) -> mana2::mana_core::Result<u64> {
    let world = m.comm_world();
    let n = m.world_size();
    let me = m.rank();
    let mut acc = 0u64;
    for step in 0..6u64 {
        if step == 2 && me == 0 && m.round() == 0 {
            m.request_checkpoint()?;
        }
        m.send_t(world, (me + 1) % n, 1, &[step + me as u64])?;
        let (_, got) = m.recv_t::<u64>(world, SrcSel::Rank((me + n - 1) % n), TagSel::Tag(1))?;
        let sum = m.allreduce_t(world, ReduceOp::Sum, &got)?;
        acc += sum[0];
    }
    Ok(acc)
}

fn run_app_under(
    env: &EnvConfig,
    engine: EngineKind,
    dir: &std::path::Path,
) -> Vec<[(&'static str, u64); 8]> {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = ManaConfig {
        ckpt_dir: dir.to_path_buf(),
        ..env.mana.clone()
    };
    let wc = WorldCfg {
        engine,
        ..env.world.clone()
    };
    let report = env
        .runtime(4, cfg)
        .with_world_cfg(wc)
        .run_fresh(app)
        .expect("app run");
    assert!(report.all_finished());
    let stats = report
        .rank_stats
        .iter()
        .map(|s| s.schedule_invariant())
        .collect();
    let _ = std::fs::remove_dir_all(dir);
    stats
}

fn main() -> Result<(), ConfigError> {
    // Engine, drain and store layout come from the MANA2_* environment; a
    // value that does not parse ends the run here, before any rank starts.
    let env = from_env()?;
    println!("-- Part 1: the coop schedule is a function of the seed --");
    let a = schedule_trace(42);
    let b = schedule_trace(42);
    let c = schedule_trace(7);
    println!("coop:1:42  run 1: {a:?}");
    println!("coop:1:42  run 2: {b:?}");
    println!("coop:1:7   run 1: {c:?}");
    assert_eq!(a, b, "same seed must replay the same schedule");
    println!(
        "same seed → identical schedule; seed 7 {} from seed 42\n",
        if a == c { "did not differ" } else { "differs" }
    );

    println!("-- Part 2: gatings agree on schedule-invariant stats --");
    let dir = std::env::temp_dir().join("mana2_engine_replay");
    let ungated = run_app_under(&env, coop(4, 0), &dir);
    let serial = run_app_under(&env, coop(1, 42), &dir);
    assert_eq!(
        ungated, serial,
        "coop:4 and coop:1:42 must agree on invariant stats"
    );
    for (rank, stats) in ungated.iter().enumerate() {
        let line: Vec<String> = stats
            .iter()
            .filter(|(_, v)| *v > 0)
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("rank {rank}: {}", line.join(" "));
    }
    println!("\nboth gatings: identical rounds, sends/recvs/collectives, checkpoints.");
    println!("try MANA2_ENGINE=coop:1:123 cargo test --workspace for a seeded full run.");
    Ok(())
}
