//! The VASP-like SCF workload over the paper's Table I case matrix:
//! checkpoint and restart every case, printing a robustness report
//! (the Table I experiment in miniature).
//!
//! ```text
//! cargo run --release --example vasp_collectives -- [ranks]
//! ```

use mana2::mana_core::{from_env, ConfigError, ManaConfig};
use mana2::mpisim::World;
use mana2::workloads::{native, under_mana, vasp, Launch};

fn main() -> Result<(), ConfigError> {
    // Engine, drain and store layout come from the MANA2_* environment; a
    // value that does not parse ends the run here, before any rank starts.
    let env = from_env()?;
    let args: Vec<String> = std::env::args().collect();
    let ranks: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4);

    println!("VASP Table I robustness matrix, {ranks} ranks, C/R at SCF step 1:");
    println!(
        "{:<12} {:>9} {:>6} {:>10} {:>12} {:>8}",
        "case", "electrons", "ions", "functional", "colls/rank", "C/R"
    );

    for case in vasp::table1_cases() {
        let name = case.name;
        let functional = format!("{:?}", case.functional);
        let electrons = case.electrons;
        let ions = case.ions;
        let mut vcfg = vasp::VaspConfig::small(case);
        vcfg.scf_steps = 4;

        // Native reference.
        let reference = native(&World::new(ranks, env.world.clone()), &vcfg).unwrap();

        // Checkpoint-and-kill at step 1, restart, compare.
        let dir = std::env::temp_dir().join(format!("mana2_vasp_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mcfg = ManaConfig {
            ckpt_dir: dir.clone(),
            exit_after_ckpt: true,
            ..env.mana.clone()
        };
        let mut vc1 = vcfg.clone();
        vc1.ckpt_at_step = Some(1);
        let rt = env.runtime(ranks, mcfg);
        let ckpted = under_mana(&rt, Launch::Fresh, &vc1)
            .unwrap()
            .all_checkpointed();
        let restored = under_mana(&rt, Launch::Restart, &vcfg).unwrap().values();
        let ok = ckpted
            && reference
                .iter()
                .zip(restored.iter())
                .all(|(a, b)| a.energy == b.energy && a.steps_done == b.steps_done);
        println!(
            "{:<12} {:>9} {:>6} {:>10} {:>12} {:>8}",
            name,
            electrons,
            ions,
            functional,
            restored[0].collective_calls,
            if ok { "PASS" } else { "FAIL" }
        );
        let _ = std::fs::remove_dir_all(&dir);
        assert!(ok, "case {name} failed the C/R transparency check");
    }
    println!("all nine Table I cases checkpoint and restart transparently ✓");
    Ok(())
}
