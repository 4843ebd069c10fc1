//! Fig. 2 microbench: GROMACS-like MD, native vs under MANA (hybrid 2PC),
//! on both machine profiles. The `experiments fig2` binary prints the full
//! rank sweep; this bench tracks the fixed-size overhead ratio over time.

use criterion::{criterion_group, criterion_main, Criterion};
use mana_bench::{env_or_exit, gromacs_mana, gromacs_native, scratch_dir};
use mana_core::ManaConfig;
use mpisim::MachineProfile;
use std::hint::black_box;
use workloads::gromacs::GromacsConfig;

fn md() -> GromacsConfig {
    GromacsConfig {
        atoms_per_rank: 256,
        steps: 6,
        compute_per_step: 2_000,
        energy_interval: 3,
        halo: 16,
        ckpt_at_step: None,
        ckpt_round: 0,
    }
}

fn bench(c: &mut Criterion) {
    let env = &env_or_exit();
    let mut g = c.benchmark_group("fig2_gromacs");
    g.sample_size(10);
    let ranks = 4;
    for profile in [MachineProfile::haswell(), MachineProfile::knl()] {
        let p1 = profile.clone();
        g.bench_function(format!("native_{}", profile.name), move |b| {
            b.iter(|| black_box(gromacs_native(env, ranks, &md(), p1.clone())))
        });
        let p2 = profile.clone();
        g.bench_function(format!("mana_{}", profile.name), move |b| {
            b.iter(|| {
                let cfg = ManaConfig {
                    ckpt_dir: scratch_dir("fig2b"),
                    ..env.mana.clone()
                };
                black_box(gromacs_mana(env, ranks, &md(), p2.clone(), cfg))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
