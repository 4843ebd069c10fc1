//! Ablation E (paper §III-C, §III-I.4): active-list restart vs replay-log
//! restart after communicator churn.
//!
//! Expected shape: replay-log restart re-creates every constructor result
//! (including long-freed communicators) and grows with history length;
//! active-list restart only pays for live communicators.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mana_bench::{env_or_exit, runtime};
use mana_core::{CommRestore, EnvConfig, ManaConfig};
use mpisim::{MachineProfile, ReduceOp};
use std::path::PathBuf;

/// Prepare images for a run that created (and freed) `churn` communicators,
/// then return the checkpoint dir.
fn prepare(env: &EnvConfig, churn: u64, mode: CommRestore, tag: &str) -> (PathBuf, ManaConfig) {
    let dir = mana_bench::scratch_dir(tag);
    let cfg = ManaConfig {
        comm_restore: mode,
        exit_after_ckpt: true,
        ckpt_dir: dir.clone(),
        ..env.mana.clone()
    };
    let rt = runtime(env, 4, cfg.clone(), MachineProfile::zero());
    rt.run_fresh(move |m| {
        let w = m.comm_world();
        let done = m
            .upper()
            .read_value::<u64>("done")
            .transpose()?
            .unwrap_or(0);
        if done == 0 {
            for _ in 0..churn {
                let d = m.comm_dup(w)?;
                m.barrier(d)?;
                m.comm_free(d)?;
            }
            let keep = m.comm_dup(w)?;
            m.upper_mut().write_value("keep", &keep.0);
            m.upper_mut().write_value("done", &1u64);
            if m.rank() == 0 {
                m.request_checkpoint()?;
            }
            m.step_commit()?;
        }
        Ok(())
    })
    .expect("prepare pass");
    (dir, cfg)
}

fn restart_once(env: &EnvConfig, cfg: &ManaConfig) {
    let rt = runtime(env, 4, cfg.clone(), MachineProfile::zero());
    rt.run_restart(|m| {
        let keep = mana_core::VComm(m.upper().read_value::<u64>("keep").transpose()?.unwrap());
        m.allreduce_t(keep, ReduceOp::Sum, &[1u64])?;
        Ok(())
    })
    .expect("restart pass");
}

fn bench(c: &mut Criterion) {
    let env = &env_or_exit();
    let mut g = c.benchmark_group("ablation_restart");
    g.sample_size(10);
    for churn in [4u64, 16] {
        let (dir_a, cfg_a) = prepare(env, churn, CommRestore::ActiveList, "abl_rs_active");
        g.bench_with_input(BenchmarkId::new("active_list", churn), &churn, |b, _| {
            b.iter(|| restart_once(env, &cfg_a))
        });
        let (dir_b, cfg_b) = prepare(env, churn, CommRestore::ReplayLog, "abl_rs_replay");
        g.bench_with_input(BenchmarkId::new("replay_log", churn), &churn, |b, _| {
            b.iter(|| restart_once(env, &cfg_b))
        });
        let _ = std::fs::remove_dir_all(dir_a);
        let _ = std::fs::remove_dir_all(dir_b);
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
