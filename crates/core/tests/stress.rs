//! Stress and invariant tests: randomized traffic across a checkpoint
//! (drain conservation), and the §III-A request-table growth regression.

mod common;

use common::env;
use mana_core::{ManaConfig, ManaRuntime};
use mpisim::{splitmix64, ReduceOp, SrcSel, TagSel, WorldCfg};
use std::time::Duration;

fn rt(name: &str, n: usize) -> ManaRuntime {
    ManaRuntime::new(
        n,
        ManaConfig {
            ckpt_dir: std::env::temp_dir()
                .join(format!("mana2_stress_{name}_{}", std::process::id())),
            ..env().mana
        },
    )
    .with_world_cfg(WorldCfg {
        watchdog: Some(Duration::from_secs(60)),
        ..env().world
    })
}

/// `plan[i][j]`: how many messages rank `i` sends rank `j` (0..5), drawn
/// from `seed`.
fn plan(seed: u64, n: usize) -> Vec<Vec<u64>> {
    let mut x = seed;
    let mut draw = || {
        x = splitmix64(x);
        x % 5
    };
    (0..n).map(|_| (0..n).map(|_| draw()).collect()).collect()
}

#[test]
fn randomized_traffic_conserved_across_checkpoint() {
    // Every rank sends a deterministic-random plan of messages, a
    // checkpoint fires while much of it is in flight, and every byte must
    // still arrive exactly once with content intact.
    let n = 4;
    for seed in [1u64, 7, 42] {
        let report = rt(&format!("conserve{seed}"), n)
            .run_fresh(move |m| {
                let w = m.comm_world();
                let me = m.rank();
                let plan = plan(seed, n);
                // Phase 1: fire all sends.
                for (dst, &planned) in plan[me].iter().enumerate() {
                    if dst == me {
                        continue;
                    }
                    for k in 0..planned {
                        let body = vec![(me * 13 + dst * 7 + k as usize) as u8; 16];
                        m.send(w, dst, k as i32, &body)?;
                    }
                }
                // Checkpoint while messages are outstanding.
                if me == 0 && m.round() == 0 {
                    m.request_checkpoint()?;
                }
                m.barrier(w)?;
                // Phase 2: receive everything, verifying content.
                let mut got = 0u64;
                for (src, row) in plan.iter().enumerate() {
                    if src == me {
                        continue;
                    }
                    for k in 0..row[me] {
                        let (st, data) = m.recv(w, SrcSel::Rank(src), TagSel::Tag(k as i32))?;
                        assert_eq!(st.source, src);
                        assert_eq!(data, vec![(src * 13 + me * 7 + k as usize) as u8; 16]);
                        got += 1;
                    }
                }
                m.barrier(w)?;
                assert_eq!(m.live_requests(), 0, "no leaked requests");
                Ok(got)
            })
            .unwrap();
        assert_eq!(report.coord.rounds.len(), 1, "seed {seed}");
        let vals = report.values();
        let total: u64 = vals.iter().sum();
        // Recompute the plan to know the expected total.
        let plan = plan(seed, n);
        let expected: u64 = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|(i, j)| i != j)
            .map(|(i, j)| plan[i][j])
            .sum();
        assert_eq!(total, expected, "seed {seed}: every message exactly once");
    }
}

#[test]
fn request_table_stays_bounded() {
    // §III-A: without aggressive retirement the virtual-request table
    // grows without bound. Issue thousands of p2p + non-blocking
    // collective ops and assert the live count stays flat.
    let n = 3;
    let report = rt("bounded", n)
        .run_fresh(|m| {
            let w = m.comm_world();
            let right = (m.rank() + 1) % m.world_size();
            let left = (m.rank() + m.world_size() - 1) % m.world_size();
            let mut max_live = 0usize;
            for i in 0..500u64 {
                let r = m.irecv(w, SrcSel::Rank(left), TagSel::Tag(1))?;
                m.send_t(w, right, 1, &[i])?;
                let mut r = r;
                m.wait(&mut r)?;
                if i % 50 == 0 {
                    let mut req = m.iallreduce(
                        w,
                        mpisim::Datatype::U64,
                        ReduceOp::Sum,
                        &mpisim::encode_slice(&[i]),
                    )?;
                    m.wait(&mut req)?;
                }
                max_live = max_live.max(m.live_requests());
            }
            assert_eq!(m.live_requests(), 0, "all requests retired");
            assert!(
                max_live <= 4,
                "table must stay flat under churn, peaked at {max_live}"
            );
            assert_eq!(m.live_collops(), 0, "collective ops pruned");
            Ok(m.stats().wrapper_calls)
        })
        .unwrap();
    assert!(report.values().iter().all(|&c| c > 1500));
}

#[test]
fn many_rounds_many_workers() {
    // Heavier composition: 6 ranks, sub-communicators, five checkpoint
    // rounds interleaved with mixed traffic.
    let n = 6;
    let report = rt("many", n)
        .run_fresh(|m| {
            let w = m.comm_world();
            let sub = m.comm_split(w, (m.rank() % 2) as i32, 0)?.unwrap();
            let mut acc = 0u64;
            for step in 0..15u64 {
                if m.rank() == 0 && step % 3 == 0 && m.round() == step / 3 {
                    m.request_checkpoint()?;
                }
                let right = (m.rank() + 1) % n;
                let left = (m.rank() + n - 1) % n;
                m.send_t(w, right, 2, &[step])?;
                let (_, v) = m.recv_t::<u64>(w, SrcSel::Rank(left), TagSel::Tag(2))?;
                acc += m.allreduce_t(sub, ReduceOp::Sum, &v)?[0];
            }
            Ok(acc)
        })
        .unwrap();
    assert_eq!(report.coord.rounds.len(), 5);
    let vals = report.values();
    // Sub-communicators are even/odd: two distinct values, consistent
    // within each parity class.
    assert_eq!(vals[0], vals[2]);
    assert_eq!(vals[1], vals[3]);
}
