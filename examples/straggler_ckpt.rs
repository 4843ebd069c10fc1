//! The §III-J straggler scenario: a checkpoint is requested while one rank
//! is deep in compute and every other rank is already waiting inside a
//! collective. MANA-2.0 checkpoints immediately — the waiting ranks are in
//! interruptible MANA-level state and report the globally-unique ID of the
//! collective they are parked in (§III-K).
//!
//! ```text
//! cargo run --release --example straggler_ckpt
//! ```

use mana2::mana_core::{from_env, ConfigError, ManaConfig};
use mana2::mpisim::{MachineProfile, WorldCfg};
use mana2::workloads::{scenarios, under_mana, Launch};
use std::time::Instant;

fn main() -> Result<(), ConfigError> {
    // Engine, drain and store layout come from the MANA2_* environment; a
    // value that does not parse ends the run here, before any rank starts.
    let env = from_env()?;
    let n = 4;
    let dir = std::env::temp_dir().join("mana2_straggler_demo");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ManaConfig {
        ckpt_dir: dir.clone(),
        ..env.mana.clone()
    };
    let wcfg = WorldCfg {
        profile: MachineProfile::haswell(),
        ..env.world.clone()
    };

    println!("{n} ranks; rank 0 computes ~0.5s while ranks 1..{n} wait in an allreduce.");
    println!("A checkpoint is requested at the start of the compute.\n");

    let t = Instant::now();
    let straggler = scenarios::Straggler {
        units: 50_000_000,
        request_ckpt: true,
    };
    let rt = env.runtime(n, cfg).with_world_cfg(wcfg);
    let report = under_mana(&rt, Launch::Fresh, &straggler).unwrap();
    let total = t.elapsed();

    let round = &report.coord.rounds[0];
    println!("total run time       : {total:.2?}");
    println!("checkpoint quiesce   : {:?}", round.quiesce);
    println!("checkpoint write     : {:?}", round.write);
    println!("image bytes (total)  : {}", round.total_image_bytes);
    println!(
        "collectives in flight: {} distinct gid(s) reported by parked ranks",
        round.gids_in_flight.len()
    );
    assert!(
        !round.gids_in_flight.is_empty(),
        "waiting ranks should be inside the collective"
    );
    assert_eq!(report.values(), vec![10, 10, 10, 10]);
    println!("\nresult correct after resume on all ranks ✓");
    println!("(the checkpoint did NOT wait for the straggler to reach the collective)");
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
