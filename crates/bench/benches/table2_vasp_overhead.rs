//! Table II microbench: CaPOH under native / master-branch (original 2PC,
//! lambda wrappers, BTree tables, kernel-call FS) / feature-2pc branch
//! (hybrid 2PC, prepared wrappers, Fx tables, FS workaround).
//!
//! Expected shape: native < feature/2pc < master — the paper's overhead
//! reduction (Haswell 64%→40%, KNL 99%→46%).

use criterion::{criterion_group, criterion_main, Criterion};
use mana_bench::{env_or_exit, scratch_dir, vasp_mana, vasp_native};
use mana_core::ManaConfig;
use mpisim::MachineProfile;
use std::hint::black_box;
use workloads::vasp;

fn capoh() -> vasp::VaspConfig {
    let case = vasp::table1_cases()
        .into_iter()
        .find(|c| c.name == "CaPOH")
        .unwrap();
    let mut cfg = vasp::VaspConfig::small(case);
    cfg.scf_steps = 3;
    cfg.compute_per_sweep = 500;
    cfg
}

fn bench(c: &mut Criterion) {
    let env = &env_or_exit();
    let mut g = c.benchmark_group("table2_capoh");
    g.sample_size(10);
    let ranks = 4;
    let profile = MachineProfile::haswell();
    let p = profile.clone();
    g.bench_function("native", move |b| {
        b.iter(|| black_box(vasp_native(env, ranks, &capoh(), p.clone())))
    });
    let p = profile.clone();
    g.bench_function("master_branch", move |b| {
        b.iter(|| {
            let cfg = ManaConfig {
                ckpt_dir: scratch_dir("t2bm"),
                store: env.mana.store.clone(),
                ..ManaConfig::master_branch()
            };
            black_box(vasp_mana(env, ranks, &capoh(), p.clone(), cfg))
        })
    });
    let p = profile;
    g.bench_function("feature_2pc_branch", move |b| {
        b.iter(|| {
            let cfg = ManaConfig {
                ckpt_dir: scratch_dir("t2bf"),
                drain: env.mana.drain,
                store: env.mana.store.clone(),
                ..ManaConfig::feature_2pc_branch()
            };
            black_box(vasp_mana(env, ranks, &capoh(), p.clone(), cfg))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
