//! Ablation D (paper §III-B): alltoall drain vs legacy coordinator drain.
//!
//! Expected shape: the coordinator drain pays extra round trips through
//! the centralized coordinator per checkpoint; the alltoall drain settles
//! with one collective plus purely local work.

use criterion::{criterion_group, criterion_main, Criterion};
use mana_bench::{env_or_exit, runtime, scratch_dir};
use mana_core::{DrainMode, EnvConfig, ManaConfig};
use mpisim::MachineProfile;

/// One checkpoint with in-flight p2p traffic, under the given drain mode.
fn ckpt_with_traffic(env: &EnvConfig, drain: DrainMode, ranks: usize) {
    let cfg = ManaConfig {
        drain,
        ckpt_dir: scratch_dir("abl_drain"),
        ..env.mana.clone()
    };
    let rt = runtime(env, ranks, cfg, MachineProfile::zero());
    rt.run_fresh(move |m| {
        let w = m.comm_world();
        let n = m.world_size();
        let right = (m.rank() + 1) % n;
        let left = (m.rank() + n - 1) % n;
        // Flood a few messages, checkpoint while they are in flight.
        for i in 0..8i32 {
            m.send(w, right, i, &vec![0u8; 256])?;
        }
        if m.rank() == 0 {
            m.request_checkpoint()?;
        }
        m.barrier(w)?;
        for i in 0..8i32 {
            let _ = m.recv(w, mpisim::SrcSel::Rank(left), mpisim::TagSel::Tag(i))?;
        }
        Ok(())
    })
    .expect("drain bench run");
}

fn bench(c: &mut Criterion) {
    let env = &env_or_exit();
    let mut g = c.benchmark_group("ablation_drain");
    g.sample_size(10);
    for (name, mode) in [
        ("alltoall", DrainMode::Alltoall),
        ("coordinator", DrainMode::Coordinator),
    ] {
        g.bench_function(name, |b| b.iter(|| ckpt_with_traffic(env, mode, 4)));
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
