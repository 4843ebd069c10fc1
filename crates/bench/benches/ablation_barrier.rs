//! Ablation F (paper §III-D): the cost of the Original 2PC's
//! barrier-before-every-collective.
//!
//! The paper measures MPI_Bcast running 2-3× slower with the inserted
//! barrier (the root must wait for all members), while MPI_Allreduce is
//! roughly neutral (it synchronizes anyway). Reproduced by timing a
//! bcast-heavy loop and an allreduce-heavy loop under both TPC modes.

use criterion::{criterion_group, criterion_main, Criterion};
use mana_bench::{env_or_exit, runtime, scratch_dir};
use mana_core::{EnvConfig, ManaConfig, TpcMode};
use mpisim::{MachineProfile, ReduceOp};

fn bcast_loop(env: &EnvConfig, tpc: TpcMode, ranks: usize, iters: u64) {
    let cfg = ManaConfig {
        tpc,
        ckpt_dir: scratch_dir("abl_barrier"),
        ..env.mana.clone()
    };
    let rt = runtime(env, ranks, cfg, MachineProfile::haswell());
    rt.run_fresh(move |m| {
        let w = m.comm_world();
        for i in 0..iters {
            // Root naturally "ahead": it does no pre-work, non-roots do a
            // little compute before joining — with a barrier the root waits.
            if m.rank() != 0 {
                m.compute(2_000)?;
            }
            let mut data = if m.rank() == 0 {
                vec![i; 32]
            } else {
                Vec::new()
            };
            m.bcast_t(w, 0, &mut data)?;
        }
        Ok(())
    })
    .expect("bcast loop");
}

fn allreduce_loop(env: &EnvConfig, tpc: TpcMode, ranks: usize, iters: u64) {
    let cfg = ManaConfig {
        tpc,
        ckpt_dir: scratch_dir("abl_barrier2"),
        ..env.mana.clone()
    };
    let rt = runtime(env, ranks, cfg, MachineProfile::haswell());
    rt.run_fresh(move |m| {
        let w = m.comm_world();
        for i in 0..iters {
            m.allreduce_t(w, ReduceOp::Sum, &[i])?;
        }
        Ok(())
    })
    .expect("allreduce loop");
}

fn bench(c: &mut Criterion) {
    let env = &env_or_exit();
    let mut g = c.benchmark_group("ablation_barrier");
    g.sample_size(10);
    let ranks = 4;
    for tpc in [TpcMode::Hybrid, TpcMode::Original] {
        g.bench_function(format!("bcast_{tpc:?}"), |b| {
            b.iter(|| bcast_loop(env, tpc, ranks, 20))
        });
        g.bench_function(format!("allreduce_{tpc:?}"), |b| {
            b.iter(|| allreduce_loop(env, tpc, ranks, 20))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
