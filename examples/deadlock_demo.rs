//! Demonstration of the §III-E deadlock: the original MANA's
//! barrier-before-every-collective turns a legal MPI program into a
//! deadlock, while MANA-2.0's hybrid protocol preserves the standard's
//! "root need not wait" broadcast semantics.
//!
//! ```text
//! cargo run --example deadlock_demo
//! ```

use mana2::mana_core::{from_env, ConfigError, EnvConfig, ManaConfig, TpcMode};
use mana2::mpisim::WorldCfg;
use mana2::workloads::{scenarios, under_mana, Launch};
use std::time::Duration;

fn run_mode(env: &EnvConfig, tpc: TpcMode) -> Result<Vec<u64>, String> {
    let cfg = ManaConfig {
        tpc,
        ckpt_dir: std::env::temp_dir().join("mana2_deadlock_demo"),
        ..env.mana.clone()
    };
    // The watchdog converts the hang into an error after one second.
    let wcfg = WorldCfg {
        watchdog: Some(Duration::from_secs(1)),
        ..env.world.clone()
    };
    let rt = env.runtime(2, cfg).with_world_cfg(wcfg);
    under_mana(&rt, Launch::Fresh, &scenarios::Deadlock(123))
        .map(|r| r.values())
        .map_err(|e| e.to_string())
}

fn main() -> Result<(), ConfigError> {
    // Engine, drain and store layout come from the MANA2_* environment; a
    // value that does not parse ends the run here, before any rank starts.
    let env = from_env()?;
    println!("The §III-E pattern:");
    println!("  rank 0: MPI_Bcast(root=0); MPI_Send(->1)");
    println!("  rank 1: MPI_Recv(<-0);     MPI_Bcast");
    println!("Legal MPI: the root does not wait for receivers.\n");

    print!("Hybrid 2PC (MANA-2.0) ... ");
    match run_mode(&env, TpcMode::Hybrid) {
        Ok(vals) => println!("completed, bcast value everywhere: {vals:?} ✓"),
        Err(e) => println!("UNEXPECTED failure: {e}"),
    }

    print!("Original 2PC (barrier before every collective) ... ");
    match run_mode(&env, TpcMode::Original) {
        Ok(_) => println!("UNEXPECTEDLY completed"),
        Err(e) => println!("deadlocked as the paper predicts (watchdog: {e}) ✓"),
    }

    // Bonus: the paper's conclusion proposes a deadlock detector on the
    // MPI tools interface. Run the same hang under the detector and show
    // its per-rank report.
    println!("\nSame hang, diagnosed by the tools-interface deadlock detector:");
    let cfg = ManaConfig {
        tpc: TpcMode::Original,
        deadlock_timeout: Some(Duration::from_millis(500)),
        ckpt_dir: std::env::temp_dir().join("mana2_deadlock_demo2"),
        ..env.mana.clone()
    };
    let rt = env.runtime(2, cfg);
    let res = under_mana(&rt, Launch::Fresh, &scenarios::Deadlock(123));
    match res {
        Err(mana2::mana_core::RuntimeError::Deadlock(report)) => {
            for line in report.lines() {
                println!("  {line}");
            }
            println!("detector fired ✓");
        }
        other => println!("UNEXPECTED outcome: {other:?}"),
    }
    Ok(())
}
