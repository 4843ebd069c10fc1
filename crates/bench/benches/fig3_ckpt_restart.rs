//! Fig. 3 microbench: time of one checkpoint round (resume mode) and one
//! restart, on the MD workload.

use criterion::{criterion_group, criterion_main, Criterion};
use mana_bench::{env_or_exit, runtime, scratch_dir};
use mana_core::{EnvConfig, ManaConfig};
use mpisim::MachineProfile;
use workloads::{gromacs, ManaFace};

fn md(ckpt: Option<u64>) -> gromacs::GromacsConfig {
    gromacs::GromacsConfig {
        atoms_per_rank: 512,
        steps: 4,
        compute_per_step: 0,
        energy_interval: 2,
        halo: 16,
        ckpt_at_step: ckpt,
        ckpt_round: 0,
    }
}

fn ckpt_round(env: &EnvConfig, ranks: usize) {
    let cfg = ManaConfig {
        ckpt_dir: scratch_dir("fig3b"),
        ..env.mana.clone()
    };
    let rt = runtime(env, ranks, cfg, MachineProfile::zero());
    let c = md(Some(1));
    rt.run_fresh(move |m| {
        let mut f = ManaFace::new(m);
        gromacs::run(&mut f, &c).map_err(|e| e.into_mana())
    })
    .expect("ckpt round");
}

fn restart_cycle(env: &EnvConfig, ranks: usize) {
    let dir = scratch_dir("fig3b_rs");
    let cfg = ManaConfig {
        ckpt_dir: dir.clone(),
        exit_after_ckpt: true,
        ..env.mana.clone()
    };
    let c1 = md(Some(1));
    runtime(env, ranks, cfg.clone(), MachineProfile::zero())
        .run_fresh(move |m| {
            let mut f = ManaFace::new(m);
            gromacs::run(&mut f, &c1).map_err(|e| e.into_mana())
        })
        .expect("pass1");
    let c2 = md(None);
    runtime(env, ranks, cfg, MachineProfile::zero())
        .run_restart(move |m| {
            let mut f = ManaFace::new(m);
            gromacs::run(&mut f, &c2).map_err(|e| e.into_mana())
        })
        .expect("pass2");
    let _ = std::fs::remove_dir_all(dir);
}

fn bench(c: &mut Criterion) {
    let env = &env_or_exit();
    let mut g = c.benchmark_group("fig3_ckpt_restart");
    g.sample_size(10);
    g.bench_function("checkpoint_resume_run", |b| b.iter(|| ckpt_round(env, 4)));
    g.bench_function("checkpoint_kill_restart_cycle", |b| {
        b.iter(|| restart_cycle(env, 4))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
