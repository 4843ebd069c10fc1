//! Fig. 4 microbench: collective throughput of the VASP-like SCF loop.
//! The `experiments fig4` binary prints the per-rank-count rate table;
//! this bench tracks the fixed-size collective-heavy step time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mana_bench::{env_or_exit, vasp_native};
use mpisim::MachineProfile;
use std::hint::black_box;
use workloads::vasp;

fn bench(c: &mut Criterion) {
    let env = &env_or_exit();
    let mut g = c.benchmark_group("fig4_collective_rate");
    g.sample_size(10);
    for ranks in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::new("capoh_scf", ranks), &ranks, |b, &r| {
            let capoh = vasp::table1_cases()
                .into_iter()
                .find(|c| c.name == "CaPOH")
                .unwrap();
            let mut cfg = vasp::VaspConfig::small(capoh);
            cfg.scf_steps = 2;
            cfg.compute_per_sweep = 0;
            b.iter(|| black_box(vasp_native(env, r, &cfg, MachineProfile::zero())))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
