//! The GROMACS-like halo-exchange workload (paper Fig. 2/3 application),
//! run natively and under MANA with a mid-run checkpoint+restart, printing
//! a runtime/overhead comparison.
//!
//! ```text
//! cargo run --release --example gromacs_halo -- [ranks] [steps]
//! ```

use mana2::mana_core::{from_env, ConfigError, ManaConfig};
use mana2::mpisim::{MachineProfile, World, WorldCfg};
use mana2::workloads::{gromacs, native, under_mana, Launch};
use std::time::Instant;

fn main() -> Result<(), ConfigError> {
    // Engine, drain and store layout come from the MANA2_* environment; a
    // value that does not parse ends the run here, before any rank starts.
    let env = from_env()?;
    let args: Vec<String> = std::env::args().collect();
    let ranks: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let steps: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(30);

    let cfg = gromacs::GromacsConfig {
        atoms_per_rank: 2048,
        steps,
        compute_per_step: 20_000,
        energy_interval: 5,
        halo: 64,
        ckpt_at_step: None,
        ckpt_round: 0,
    };
    let wcfg = WorldCfg {
        profile: MachineProfile::haswell(),
        ..env.world.clone()
    };

    println!("GROMACS-like MD: {ranks} ranks × {steps} steps, haswell profile");

    // Native baseline.
    let t = Instant::now();
    let reference = native(&World::new(ranks, wcfg.clone()), &cfg).unwrap();
    let native_time = t.elapsed();
    println!(
        "  native : {:>9.1?}  energy={:.6}",
        native_time, reference[0].energy
    );

    // Under MANA (hybrid 2PC), with one checkpoint mid-run.
    let dir = std::env::temp_dir().join("mana2_gromacs_halo");
    let _ = std::fs::remove_dir_all(&dir);
    let mut mc = cfg.clone();
    mc.ckpt_at_step = Some(steps / 2);
    let mcfg = ManaConfig {
        ckpt_dir: dir.clone(),
        ..env.mana.clone()
    };
    let t = Instant::now();
    let rt = env.runtime(ranks, mcfg).with_world_cfg(wcfg);
    let report = under_mana(&rt, Launch::Fresh, &mc).unwrap();
    let mana_time = t.elapsed();
    let rounds = report.coord.rounds.clone();
    let mana_res = report.values();
    println!(
        "  MANA   : {:>9.1?}  energy={:.6}  (ratio {:.2}x)",
        mana_time,
        mana_res[0].energy,
        mana_time.as_secs_f64() / native_time.as_secs_f64()
    );
    assert_eq!(reference, mana_res, "MANA must be transparent");
    println!("  results identical native vs MANA ✓");
    for r in &rounds {
        println!(
            "  checkpoint round {}: quiesce {:?}, write {:?}, {} image bytes",
            r.round, r.quiesce, r.write, r.total_image_bytes
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
