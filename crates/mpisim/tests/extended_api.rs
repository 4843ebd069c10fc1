//! Tests for the extended MPI surface: waitany/testall, v-variant
//! collectives, reduce_scatter_block, exscan, sendrecv_replace, and a
//! randomized p2p stress test with a conservation invariant.

mod common;

use common::env_cfg;
use mpisim::{run, splitmix64, Datatype, ReduceOp, SrcSel, TagSel, World, WorldCfg};
use std::time::Duration;

fn cfg() -> WorldCfg {
    WorldCfg {
        watchdog: Some(Duration::from_secs(30)),
        ..env_cfg()
    }
}

#[test]
fn waitany_returns_first_ready() {
    let (out, _) = run(3, cfg(), |p| {
        let w = p.comm_world();
        if p.rank() == 0 {
            // Two pending recvs; rank 2's message arrives first (rank 1
            // sends only after seeing rank 2's ack relayed by rank 0).
            let r1 = p.irecv(w, SrcSel::Rank(1), TagSel::Tag(1)).unwrap();
            let r2 = p.irecv(w, SrcSel::Rank(2), TagSel::Tag(2)).unwrap();
            let (idx, c) = p.waitany(&[r1, r2]).unwrap();
            assert_eq!(idx, 1);
            assert_eq!(c.data, vec![22]);
            p.send(w, 1, 3, &[0]).unwrap(); // release rank 1
            let (idx2, c2) = p.waitany(&[r1]).unwrap();
            assert_eq!(idx2, 0);
            assert_eq!(c2.data, vec![11]);
            1
        } else if p.rank() == 1 {
            let _ = p.recv(w, SrcSel::Rank(0), TagSel::Tag(3)).unwrap();
            p.send(w, 0, 1, &[11]).unwrap();
            0
        } else {
            p.send(w, 0, 2, &[22]).unwrap();
            0
        }
    })
    .unwrap();
    assert_eq!(out[0], 1);
}

#[test]
fn testall_is_all_or_nothing() {
    let (_, _) = run(2, cfg(), |p| {
        let w = p.comm_world();
        if p.rank() == 0 {
            let r1 = p.irecv(w, SrcSel::Rank(1), TagSel::Tag(1)).unwrap();
            let r2 = p.irecv(w, SrcSel::Rank(1), TagSel::Tag(2)).unwrap();
            // Only tag 1 has been sent: testall must consume nothing.
            loop {
                assert!(p.testall(&[r1, r2]).unwrap().is_none());
                if p.peek_status(r1).unwrap().is_some() {
                    break;
                }
                p.park(Duration::from_millis(1)).unwrap();
            }
            assert_eq!(p.live_requests(), 2, "nothing consumed yet");
            p.send(w, 1, 3, &[0]).unwrap(); // ask for the second message
            loop {
                if let Some(cs) = p.testall(&[r1, r2]).unwrap() {
                    assert_eq!(cs[0].data, vec![1]);
                    assert_eq!(cs[1].data, vec![2]);
                    break;
                }
                p.park(Duration::from_millis(1)).unwrap();
            }
            assert_eq!(p.live_requests(), 0);
        } else {
            p.send(w, 0, 1, &[1]).unwrap();
            let _ = p.recv(w, SrcSel::Rank(0), TagSel::Tag(3)).unwrap();
            p.send(w, 0, 2, &[2]).unwrap();
        }
    })
    .unwrap();
}

#[test]
fn scatterv_gatherv_variable_sizes() {
    let n = 4;
    let (out, _) = run(n, cfg(), |p| {
        let w = p.comm_world();
        let me = p.rank();
        // Root scatters chunks of size rank+1.
        let chunks: Option<Vec<Vec<u8>>> =
            (me == 0).then(|| (0..n).map(|i| vec![i as u8; i + 1]).collect());
        let mine = p.scatterv(w, 0, chunks.as_deref()).unwrap();
        assert_eq!(mine, vec![me as u8; me + 1]);
        // Gatherv them back.
        let back = p.gatherv(w, 0, &mine).unwrap();
        if me == 0 {
            let back = back.unwrap();
            for (i, c) in back.iter().enumerate() {
                assert_eq!(c, &vec![i as u8; i + 1]);
            }
        }
        me
    })
    .unwrap();
    assert_eq!(out, vec![0, 1, 2, 3]);
}

#[test]
fn reduce_scatter_block_distributes_sums() {
    let n = 3;
    let (out, _) = run(n, cfg(), |p| {
        let w = p.comm_world();
        // Each rank contributes n blocks of one u64: block i = rank*10 + i.
        let contrib: Vec<u64> = (0..n).map(|i| (p.rank() * 10 + i) as u64).collect();
        let got = p
            .reduce_scatter_block(
                w,
                Datatype::U64,
                ReduceOp::Sum,
                &mpisim::encode_slice(&contrib),
                8,
            )
            .unwrap();
        mpisim::decode_slice::<u64>(&got).unwrap()[0]
    })
    .unwrap();
    // Block i = Σ_r (10r + i) = 10*(0+1+2) + 3i = 30 + 3i.
    assert_eq!(out, vec![30, 33, 36]);
}

#[test]
fn exscan_is_exclusive_prefix() {
    let n = 5;
    let (out, _) = run(n, cfg(), |p| {
        let w = p.comm_world();
        let got = p
            .exscan(
                w,
                Datatype::I64,
                ReduceOp::Sum,
                &mpisim::encode_slice(&[(p.rank() + 1) as i64]),
            )
            .unwrap();
        if p.rank() == 0 {
            assert!(got.is_empty(), "rank 0 exscan is undefined/empty");
            0
        } else {
            mpisim::decode_slice::<i64>(&got).unwrap()[0]
        }
    })
    .unwrap();
    // Exclusive prefix of [1,2,3,4,5]: _,1,3,6,10.
    assert_eq!(out, vec![0, 1, 3, 6, 10]);
}

#[test]
fn sendrecv_replace_ring() {
    let n = 4;
    let (out, _) = run(n, cfg(), |p| {
        let w = p.comm_world();
        let right = (p.rank() + 1) % n;
        let left = (p.rank() + n - 1) % n;
        let mut buf = vec![p.rank() as u8];
        p.sendrecv_replace(w, right, 5, &mut buf, SrcSel::Rank(left), TagSel::Tag(5))
            .unwrap();
        buf[0] as usize
    })
    .unwrap();
    assert_eq!(out, vec![3, 0, 1, 2]);
}

/// `plan[i][j]`: how many messages rank `i` sends rank `j` (0..6), drawn
/// from `seed`.
fn plan(seed: u64, n: usize) -> Vec<Vec<u64>> {
    let mut x = seed;
    let mut draw = || {
        x = splitmix64(x);
        x % 6
    };
    (0..n).map(|_| (0..n).map(|_| draw()).collect()).collect()
}

#[test]
fn randomized_p2p_conservation() {
    // Stress: every rank sends a random number of random-size messages to
    // random peers, then all receive exactly what was sent (counts agreed
    // via alltoall). Invariant: network drains to zero and per-pair stats
    // match the plan.
    let n = 5;
    let seed = 0xC0FFEE;
    let world = World::new(n, cfg());
    world
        .launch(move |p| {
            let w = p.comm_world();
            let me = p.rank();
            // Deterministic shared plan: plan[i][j] = messages i sends to j.
            let plan = plan(seed, n);
            // Sends.
            for (dst, &planned) in plan[me].iter().enumerate() {
                if dst == me {
                    continue;
                }
                for k in 0..planned {
                    let payload = vec![(me * 31 + k as usize) as u8; (k as usize % 7) + 1];
                    p.send(w, dst, k as i32, &payload).unwrap();
                }
            }
            // Receives: from each source, the planned number, any order of tags.
            for (src, row) in plan.iter().enumerate() {
                if src == me {
                    continue;
                }
                for _ in 0..row[me] {
                    let (st, _data) = p.recv(w, SrcSel::Rank(src), TagSel::Any).unwrap();
                    assert_eq!(st.source, src);
                }
            }
            p.barrier(w).unwrap();
        })
        .unwrap();
    // After every rank returned, nothing may remain in the network
    // (user messages all received; collective plumbing all consumed).
    assert_eq!(world.in_flight(), (0, 0), "network fully drained");
    let stats = world.stats();
    // Per-pair user bytes are nonzero exactly where the plan says.
    for (i, row) in plan(seed, n).iter().enumerate() {
        for (j, &planned) in row.iter().enumerate() {
            if i != j {
                assert_eq!(stats.pair(i, j) > 0, planned > 0, "pair {i}->{j}");
            }
        }
    }
}
