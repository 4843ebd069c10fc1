//! The transparency oracle: every workload must produce *identical*
//! results natively, under MANA, and across checkpoint/restart cycles.
//! This is the observable definition of "transparent checkpointing".

use mana_core::{ManaConfig, ManaRuntime, RuntimeError, TpcMode};
use mpisim::{World, WorldCfg};
use std::path::{Path, PathBuf};
use std::time::Duration;
use workloads::{cg, gromacs, native, scenarios, under_mana, vasp, Launch};

/// The `MANA2_*` environment: the CI matrix steers what a test does not pin.
fn env() -> mana_core::EnvConfig {
    mana_core::from_env().expect("MANA2_* environment")
}

fn ckpt_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mana2_wl_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn wcfg() -> WorldCfg {
    WorldCfg {
        watchdog: Some(Duration::from_secs(90)),
        ..env().world
    }
}

/// A runtime for `cfg` under the test world.
fn rt(n: usize, cfg: ManaConfig) -> ManaRuntime {
    ManaRuntime::new(n, cfg).with_world_cfg(wcfg())
}

fn cfg_in(dir: &Path, exit_after_ckpt: bool) -> ManaConfig {
    ManaConfig {
        ckpt_dir: dir.to_path_buf(),
        exit_after_ckpt,
        ..env().mana
    }
}

fn small_md(ckpt_at: Option<u64>) -> gromacs::GromacsConfig {
    gromacs::GromacsConfig {
        atoms_per_rank: 96,
        steps: 8,
        compute_per_step: 0,
        energy_interval: 2,
        halo: 8,
        ckpt_at_step: ckpt_at,
        ckpt_round: 0,
    }
}

fn native_md(n: usize) -> Vec<gromacs::GromacsResult> {
    native(&World::new(n, wcfg()), &small_md(None)).unwrap()
}

#[test]
fn gromacs_native_equals_mana() {
    let n = 4;
    let dir = ckpt_dir("md_equal");
    let mana = under_mana(&rt(n, cfg_in(&dir, false)), Launch::Fresh, &small_md(None)).unwrap();
    assert_eq!(native_md(n), mana.values());
}

#[test]
fn gromacs_resume_checkpoint_preserves_results() {
    let n = 4;
    let dir = ckpt_dir("md_resume");
    // Checkpoint mid-run, resume.
    let report = under_mana(
        &rt(n, cfg_in(&dir, false)),
        Launch::Fresh,
        &small_md(Some(3)),
    )
    .unwrap();
    assert_eq!(report.coord.rounds.len(), 1);
    assert_eq!(native_md(n), report.values());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gromacs_restart_preserves_results() {
    let n = 4;
    let dir = ckpt_dir("md_restart");
    let md = small_md(Some(4));
    let pass1 = under_mana(&rt(n, cfg_in(&dir, true)), Launch::Fresh, &md).unwrap();
    assert!(pass1.all_checkpointed(), "{:?}", pass1.outcomes);
    let pass2 = under_mana(&rt(n, cfg_in(&dir, true)), Launch::Restart, &md).unwrap();
    assert_eq!(native_md(n), pass2.values());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn vasp_all_table1_cases_survive_restart() {
    // Table I is the paper's robustness matrix: every case must
    // checkpoint and restart with results identical to the native run.
    let n = 4;
    for case in vasp::table1_cases() {
        let name = case.name;
        let mut vcfg = vasp::VaspConfig::small(case);
        vcfg.scf_steps = 3;
        vcfg.compute_per_sweep = 0;
        let reference = native(&World::new(n, wcfg()), &vcfg).unwrap();

        // MANA with checkpoint-and-kill at step 1, then restart.
        let dir = ckpt_dir(&format!("vasp_{name}"));
        let mut vc1 = vcfg.clone();
        vc1.ckpt_at_step = Some(1);
        let pass1 = under_mana(&rt(n, cfg_in(&dir, true)), Launch::Fresh, &vc1).unwrap();
        assert!(
            pass1.all_checkpointed(),
            "case {name}: {:?}",
            pass1.outcomes
        );
        let pass2 = under_mana(&rt(n, cfg_in(&dir, true)), Launch::Restart, &vcfg).unwrap();
        for (a, b) in reference.iter().zip(pass2.values().iter()) {
            assert_eq!(a.energy, b.energy, "case {name} energy mismatch");
            assert_eq!(a.steps_done, b.steps_done, "case {name} steps");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn cg_converges_across_restart() {
    let n = 3;
    let ccfg = cg::CgConfig {
        local_n: 16,
        max_iters: 100,
        tol: 1e-10,
        ckpt_at_iter: Some(5),
        ckpt_round: 0,
    };
    let dir = ckpt_dir("cg_restart");
    let pass1 = under_mana(&rt(n, cfg_in(&dir, true)), Launch::Fresh, &ccfg).unwrap();
    assert!(pass1.all_checkpointed());
    let pass2 = under_mana(&rt(n, cfg_in(&dir, true)), Launch::Restart, &ccfg).unwrap();
    for r in pass2.values() {
        assert!(r.converged, "CG must converge through a restart: {r:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deadlock_scenario_under_both_tpc_modes() {
    let watchdog = WorldCfg {
        watchdog: Some(Duration::from_millis(800)),
        ..env().world
    };
    let run = |name: &str, tpc: TpcMode| {
        let cfg = ManaConfig {
            tpc,
            ..cfg_in(&ckpt_dir(name), false)
        };
        let rt = ManaRuntime::new(3, cfg).with_world_cfg(watchdog.clone());
        under_mana(&rt, Launch::Fresh, &scenarios::Deadlock(7))
    };
    // Hybrid: completes with the broadcast value everywhere.
    assert_eq!(
        run("dl_h", TpcMode::Hybrid).unwrap().values(),
        vec![7, 7, 7]
    );
    // Original: deadlock → watchdog error.
    assert!(matches!(
        run("dl_o", TpcMode::Original),
        Err(RuntimeError::Rank(_, _)) | Err(RuntimeError::World(_))
    ));
}

#[test]
fn straggler_scenario_checkpoints_without_waiting() {
    let n = 4;
    let dir = ckpt_dir("straggler_wl");
    let straggler = scenarios::Straggler {
        units: 500_000,
        request_ckpt: true,
    };
    let report = under_mana(&rt(n, cfg_in(&dir, false)), Launch::Fresh, &straggler).unwrap();
    assert_eq!(report.coord.rounds.len(), 1);
    assert_eq!(report.values(), vec![10, 10, 10, 10]);
    std::fs::remove_dir_all(&dir).ok();
}
