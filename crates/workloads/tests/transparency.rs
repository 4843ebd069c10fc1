//! The transparency oracle: every workload must produce *identical*
//! results natively, under MANA, and across checkpoint/restart cycles.
//! This is the observable definition of "transparent checkpointing".

use mana_core::{DrainMode, ManaConfig, ManaRuntime, RuntimeError, TpcMode};
use mpisim::{World, WorldCfg};
use std::path::PathBuf;
use std::time::Duration;
use workloads::{cg, gromacs, scenarios, vasp, ManaFace, NativeFace};

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

fn native_gromacs(n: usize, cfg: &gromacs::GromacsConfig) -> Vec<gromacs::GromacsResult> {
    let w = World::new(n, wcfg());
    let cfg = cfg.clone();
    w.launch(move |p| {
        let mut f = NativeFace::new(p);
        gromacs::run(&mut f, &cfg).unwrap()
    })
    .unwrap()
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

#[test]
fn gromacs_native_equals_mana() {
    let n = 4;
    let native = native_gromacs(n, &small_md(None));
    let rt = ManaRuntime::new(
        n,
        ManaConfig {
            ckpt_dir: ckpt_dir("md_equal"),
            ..env().mana
        },
    )
    .with_world_cfg(wcfg());
    let cfg = small_md(None);
    let mana = rt
        .run_fresh(move |m| {
            let mut f = ManaFace::new(m);
            gromacs::run(&mut f, &cfg).map_err(|e| e.into_mana())
        })
        .unwrap()
        .values();
    assert_eq!(native, mana);
}

#[test]
fn gromacs_resume_checkpoint_preserves_results() {
    let n = 4;
    let native = native_gromacs(n, &small_md(None));
    let cfg = small_md(Some(3)); // checkpoint mid-run, resume
    let dir = ckpt_dir("md_resume");
    let rt = ManaRuntime::new(
        n,
        ManaConfig {
            ckpt_dir: dir.clone(),
            ..env().mana
        },
    )
    .with_world_cfg(wcfg());
    let report = rt
        .run_fresh(move |m| {
            let mut f = ManaFace::new(m);
            gromacs::run(&mut f, &cfg).map_err(|e| e.into_mana())
        })
        .unwrap();
    assert_eq!(report.coord.rounds.len(), 1);
    assert_eq!(native, report.values());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gromacs_restart_preserves_results() {
    let n = 4;
    let native = native_gromacs(n, &small_md(None));
    let dir = ckpt_dir("md_restart");
    let mcfg = ManaConfig {
        ckpt_dir: dir.clone(),
        exit_after_ckpt: true,
        ..env().mana
    };
    let cfg = small_md(Some(4));
    let rt = ManaRuntime::new(n, mcfg.clone()).with_world_cfg(wcfg());
    let c2 = cfg.clone();
    let pass1 = rt
        .run_fresh(move |m| {
            let mut f = ManaFace::new(m);
            gromacs::run(&mut f, &c2).map_err(|e| e.into_mana())
        })
        .unwrap();
    assert!(pass1.all_checkpointed(), "{:?}", pass1.outcomes);

    let rt2 = ManaRuntime::new(n, mcfg).with_world_cfg(wcfg());
    let pass2 = rt2
        .run_restart(move |m| {
            let mut f = ManaFace::new(m);
            gromacs::run(&mut f, &cfg).map_err(|e| e.into_mana())
        })
        .unwrap();
    assert_eq!(native, pass2.values());
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

        // Native reference.
        let w = World::new(n, wcfg());
        let vc = vcfg.clone();
        let native = w
            .launch(move |p| {
                let mut f = NativeFace::new(p);
                vasp::run(&mut f, &vc).unwrap()
            })
            .unwrap();

        // MANA with checkpoint-and-kill at step 1, then restart.
        let dir = ckpt_dir(&format!("vasp_{name}"));
        let mcfg = ManaConfig {
            ckpt_dir: dir.clone(),
            exit_after_ckpt: true,
            ..env().mana
        };
        let mut vc1 = vcfg.clone();
        vc1.ckpt_at_step = Some(1);
        let pass1 = ManaRuntime::new(n, mcfg.clone())
            .with_world_cfg(wcfg())
            .run_fresh(move |m| {
                let mut f = ManaFace::new(m);
                vasp::run(&mut f, &vc1).map_err(|e| e.into_mana())
            })
            .unwrap();
        assert!(
            pass1.all_checkpointed(),
            "case {name}: {:?}",
            pass1.outcomes
        );

        let vc2 = vcfg.clone();
        let pass2 = ManaRuntime::new(n, mcfg)
            .with_world_cfg(wcfg())
            .run_restart(move |m| {
                let mut f = ManaFace::new(m);
                vasp::run(&mut f, &vc2).map_err(|e| e.into_mana())
            })
            .unwrap();
        let restored = pass2.values();
        for (a, b) in native.iter().zip(restored.iter()) {
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
    let mcfg = ManaConfig {
        ckpt_dir: dir.clone(),
        exit_after_ckpt: true,
        ..env().mana
    };
    let c1 = ccfg.clone();
    let pass1 = ManaRuntime::new(n, mcfg.clone())
        .with_world_cfg(wcfg())
        .run_fresh(move |m| {
            let mut f = ManaFace::new(m);
            cg::run(&mut f, &c1).map_err(|e| e.into_mana())
        })
        .unwrap();
    assert!(pass1.all_checkpointed());

    let pass2 = ManaRuntime::new(n, mcfg)
        .with_world_cfg(wcfg())
        .run_restart(move |m| {
            let mut f = ManaFace::new(m);
            cg::run(&mut f, &ccfg).map_err(|e| e.into_mana())
        })
        .unwrap();
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
    // Hybrid: completes with the broadcast value everywhere.
    let hybrid = ManaRuntime::new(
        3,
        ManaConfig {
            ckpt_dir: ckpt_dir("dl_h"),
            ..env().mana
        },
    )
    .with_world_cfg(watchdog.clone())
    .run_fresh(|m| {
        let mut f = ManaFace::new(m);
        scenarios::deadlock_pattern(&mut f, 7).map_err(|e| e.into_mana())
    })
    .unwrap();
    assert_eq!(hybrid.values(), vec![7, 7, 7]);

    // Original: deadlock → watchdog error. The drain is pinned because
    // the deadlock is the alltoall strategy's pre-collective barrier,
    // which the toposort drain (e.g. via MANA2_DRAIN) removes by design.
    let res = ManaRuntime::new(
        3,
        ManaConfig {
            tpc: TpcMode::Original,
            drain: DrainMode::Alltoall,
            ckpt_dir: ckpt_dir("dl_o"),
            ..env().mana
        },
    )
    .with_world_cfg(watchdog)
    .run_fresh(|m| {
        let mut f = ManaFace::new(m);
        scenarios::deadlock_pattern(&mut f, 7).map_err(|e| e.into_mana())
    });
    assert!(matches!(
        res,
        Err(RuntimeError::Rank(_, _)) | Err(RuntimeError::World(_))
    ));
}

#[test]
fn straggler_scenario_checkpoints_without_waiting() {
    let n = 4;
    let dir = ckpt_dir("straggler_wl");
    let report = ManaRuntime::new(
        n,
        ManaConfig {
            ckpt_dir: dir.clone(),
            ..env().mana
        },
    )
    .with_world_cfg(wcfg())
    .run_fresh(|m| {
        let mut f = ManaFace::new(m);
        scenarios::straggler_pattern(&mut f, 500_000, true).map_err(|e| e.into_mana())
    })
    .unwrap();
    assert_eq!(report.coord.rounds.len(), 1);
    assert_eq!(report.values(), vec![10, 10, 10, 10]);
    std::fs::remove_dir_all(&dir).ok();
}
