//! Cross-module integration tests for the simulated MPI runtime.

mod common;

use common::env_cfg;
use mpisim::{
    run, Comm, CoopCfg, Datatype, EngineKind, Group, MpiError, ReduceOp, SchedulePolicy,
    ScheduleRecorder, SrcSel, TagSel, World, WorldCfg, WorldError,
};
use std::time::Duration;

fn cfg() -> WorldCfg {
    WorldCfg {
        watchdog: Some(Duration::from_secs(30)),
        ..env_cfg()
    }
}

#[test]
fn ring_send_recv() {
    let n = 6;
    let (out, stats) = run(n, cfg(), |p| {
        let w = p.comm_world();
        let right = (p.rank() + 1) % n;
        let left = (p.rank() + n - 1) % n;
        p.send_t(w, right, 1, &[p.rank() as u64]).unwrap();
        let (st, data) = p
            .recv_t::<u64>(w, SrcSel::Rank(left), TagSel::Tag(1))
            .unwrap();
        assert_eq!(st.source, left);
        data[0]
    })
    .unwrap();
    assert_eq!(out, vec![5, 0, 1, 2, 3, 4]);
    assert_eq!(stats.user_msgs, n as u64);
}

#[test]
fn nonovertaking_same_pair() {
    // Two messages same (src,dst,tag) must arrive in send order.
    let (out, _) = run(2, cfg(), |p| {
        let w = p.comm_world();
        if p.rank() == 0 {
            p.send_t(w, 1, 5, &[10u64]).unwrap();
            p.send_t(w, 1, 5, &[20u64]).unwrap();
            vec![]
        } else {
            let (_, a) = p.recv_t::<u64>(w, SrcSel::Rank(0), TagSel::Tag(5)).unwrap();
            let (_, b) = p.recv_t::<u64>(w, SrcSel::Rank(0), TagSel::Tag(5)).unwrap();
            vec![a[0], b[0]]
        }
    })
    .unwrap();
    assert_eq!(out[1], vec![10, 20]);
}

#[test]
fn tag_selective_matching_out_of_order() {
    // Receiver asks for tag 2 first even though tag 1 arrived first.
    let (out, _) = run(2, cfg(), |p| {
        let w = p.comm_world();
        if p.rank() == 0 {
            p.send_t(w, 1, 1, &[111u64]).unwrap();
            p.send_t(w, 1, 2, &[222u64]).unwrap();
            0
        } else {
            let (_, b) = p.recv_t::<u64>(w, SrcSel::Rank(0), TagSel::Tag(2)).unwrap();
            let (_, a) = p.recv_t::<u64>(w, SrcSel::Rank(0), TagSel::Tag(1)).unwrap();
            assert_eq!((a[0], b[0]), (111, 222));
            1
        }
    })
    .unwrap();
    assert_eq!(out, vec![0, 1]);
}

#[test]
fn any_source_any_tag() {
    let n = 4;
    let (out, _) = run(n, cfg(), |p| {
        let w = p.comm_world();
        if p.rank() == 0 {
            let mut sum = 0u64;
            for _ in 1..n {
                let (st, d) = p.recv_t::<u64>(w, SrcSel::Any, TagSel::Any).unwrap();
                assert!(st.source >= 1 && st.source < n);
                sum += d[0];
            }
            sum
        } else {
            p.send_t(w, 0, p.rank() as i32, &[p.rank() as u64]).unwrap();
            0
        }
    })
    .unwrap();
    assert_eq!(out[0], 1 + 2 + 3);
}

#[test]
fn isend_irecv_test_loop() {
    let (out, _) = run(2, cfg(), |p| {
        let w = p.comm_world();
        if p.rank() == 0 {
            let r = p.isend_t(w, 1, 3, &[7.5f64]).unwrap();
            let c = p.wait(r).unwrap();
            assert_eq!(c.status.len, 8);
            0.0
        } else {
            let r = p.irecv(w, SrcSel::Rank(0), TagSel::Tag(3)).unwrap();
            let mut spins = 0u32;
            loop {
                if let Some(c) = p.test(r).unwrap() {
                    break mpisim::decode_slice::<f64>(&c.data).unwrap()[0];
                }
                p.park(Duration::from_millis(1)).unwrap();
                spins += 1;
                assert!(spins < 100_000);
            }
        }
    })
    .unwrap();
    assert_eq!(out[1], 7.5);
}

#[test]
fn iprobe_invisible_after_irecv_posted() {
    // The §III-B subtlety: once an irecv claims a message (via progress),
    // iprobe no longer sees it.
    let (out, _) = run(2, cfg(), |p| {
        let w = p.comm_world();
        if p.rank() == 0 {
            p.send_t(w, 1, 9, &[1u64]).unwrap();
            true
        } else {
            // Wait until the message is visible to iprobe.
            while p
                .iprobe(w, SrcSel::Rank(0), TagSel::Tag(9))
                .unwrap()
                .is_none()
            {
                p.park(Duration::from_millis(1)).unwrap();
            }
            let r = p.irecv(w, SrcSel::Rank(0), TagSel::Tag(9)).unwrap();
            // Drive progress via test; after that iprobe must see nothing.
            while p.test(r).unwrap().is_none() {
                p.park(Duration::from_millis(1)).unwrap();
            }
            p.iprobe(w, SrcSel::Rank(0), TagSel::Tag(9))
                .unwrap()
                .is_none()
        }
    })
    .unwrap();
    assert!(out[1]);
}

#[test]
fn truncation_error() {
    let (out, _) = run(2, cfg(), |p| {
        let w = p.comm_world();
        if p.rank() == 0 {
            p.send(w, 1, 0, &[0u8; 64]).unwrap();
            None
        } else {
            let r = p
                .irecv_cap(w, SrcSel::Rank(0), TagSel::Tag(0), Some(16))
                .unwrap();
            Some(p.wait(r))
        }
    })
    .unwrap();
    assert!(matches!(
        out[1],
        Some(Err(MpiError::Truncated {
            message_len: 64,
            buffer_len: 16
        }))
    ));
}

#[test]
fn barrier_synchronizes() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let counter = AtomicUsize::new(0);
    let n = 8;
    run(n, cfg(), |p| {
        counter.fetch_add(1, Ordering::SeqCst);
        p.barrier(p.comm_world()).unwrap();
        // After the barrier everyone must observe all n increments.
        assert_eq!(counter.load(Ordering::SeqCst), n);
    })
    .unwrap();
}

#[test]
fn bcast_various_roots_and_sizes() {
    for n in [1, 2, 3, 5, 8] {
        for root in [0, n - 1, n / 2] {
            let (out, _) = run(n, cfg(), move |p| {
                let mut data = if p.comm_rank(p.comm_world()).unwrap() == root {
                    vec![42u64, root as u64]
                } else {
                    vec![]
                };
                p.bcast_t(p.comm_world(), root, &mut data).unwrap();
                data
            })
            .unwrap();
            for d in out {
                assert_eq!(d, vec![42, root as u64], "n={n} root={root}");
            }
        }
    }
}

#[test]
fn bcast_root_returns_before_receivers() {
    // MPI-3.1 semantics: the root is not required to wait for receivers.
    // Rank 0 (root) bcasts then sends the "go" message rank 1 needs before
    // it ever enters the bcast. This deadlocks if bcast is a barrier.
    let (out, _) = run(2, cfg(), |p| {
        let w = p.comm_world();
        if p.rank() == 0 {
            let mut data = vec![5u64];
            p.bcast_t(w, 0, &mut data).unwrap(); // returns immediately
            p.send_t(w, 1, 1, &[9u64]).unwrap();
            0
        } else {
            let (_, go) = p.recv_t::<u64>(w, SrcSel::Rank(0), TagSel::Tag(1)).unwrap();
            assert_eq!(go[0], 9);
            let mut data = vec![];
            p.bcast_t(w, 0, &mut data).unwrap();
            data[0]
        }
    })
    .unwrap();
    assert_eq!(out[1], 5);
}

#[test]
fn reduce_and_allreduce() {
    let n = 7;
    let (out, _) = run(n, cfg(), |p| {
        let w = p.comm_world();
        let r = p.rank() as i64;
        let reduced = p.reduce_t(w, 2, ReduceOp::Sum, &[r, r * r]).unwrap();
        if p.rank() == 2 {
            assert_eq!(reduced, Some(vec![21, 91])); // Σ0..6, Σi²
        } else {
            assert_eq!(reduced, None);
        }
        let all = p.allreduce_t(w, ReduceOp::Max, &[r]).unwrap();
        all[0]
    })
    .unwrap();
    assert_eq!(out, vec![6; n]);
}

/// The chunk world rank `src` sends world rank `dst` in call `call`:
/// 0, 1 or 17 bytes, so one frame mixes empty, short and long chunks.
fn a2a_chunk(src: usize, dst: usize, call: usize) -> Vec<u8> {
    let len = [0, 1, 17][(src + 2 * dst + call) % 3];
    (0..len)
        .map(|k| (src * 31 + dst * 7 + call + k) as u8)
        .collect()
}

#[test]
fn alltoall_exchanges_pairwise() {
    for n in [1, 2, 3, 64] {
        let (out, _) = run(n, cfg(), |p| {
            let w = p.comm_world();
            let chunks: Vec<Vec<u8>> = (0..n).map(|j| a2a_chunk(p.rank(), j, 0)).collect();
            let vals: Vec<u64> = (0..n).map(|j| (p.rank() * 100 + j) as u64).collect();
            (
                p.alltoall(w, &chunks).unwrap(),
                p.alltoall_u64(w, &vals).unwrap(),
            )
        })
        .unwrap();
        for (me, (bytes, vals)) in out.iter().enumerate() {
            for j in 0..n {
                assert_eq!(bytes[j], a2a_chunk(j, me, 0), "n={n}: {j} -> {me}");
                assert_eq!(vals[j], (j * 100 + me) as u64);
            }
        }
    }
}

#[test]
fn alltoall_on_a_split_communicator_rooted_away_from_world_rank_0() {
    // Reversed keys make local rank 0 the highest world rank of each half:
    // world 4 for the evens, world 3 for the odds. Two calls back to back
    // on one communicator must not take each other's rows.
    let n = 5;
    let (out, _) = run(n, cfg(), |p| {
        let me = p.rank();
        let sub = p
            .comm_split(p.comm_world(), (me % 2) as i32, -(me as i32))
            .unwrap()
            .unwrap();
        let members = p.group_of(sub).unwrap();
        let world_of = |l: usize| members.world_rank(l).unwrap();
        let m = members.size();
        let calls: Vec<Vec<Vec<u8>>> = (0..2)
            .map(|call| {
                let chunks: Vec<Vec<u8>> =
                    (0..m).map(|l| a2a_chunk(me, world_of(l), call)).collect();
                p.alltoall(sub, &chunks).unwrap()
            })
            .collect();
        (world_of(0), (0..m).map(world_of).collect::<Vec<_>>(), calls)
    })
    .unwrap();
    for (me, (root, members, calls)) in out.iter().enumerate() {
        assert_eq!(*root, if me % 2 == 0 { 4 } else { 3 });
        for (call, got) in calls.iter().enumerate() {
            for (l, &src) in members.iter().enumerate() {
                assert_eq!(
                    got[l],
                    a2a_chunk(src, me, call),
                    "call {call}: {src} -> {me}"
                );
            }
        }
    }
}

#[test]
fn alltoall_leaves_a_pending_user_wildcard_receive_alone() {
    // The root's any-source receive of rows must neither satisfy nor be
    // satisfied by the application's ANY_SOURCE / ANY_TAG receive.
    let n = 4;
    let (out, _) = run(n, cfg(), |p| {
        let w = p.comm_world();
        let me = p.rank();
        let user = (me == 0).then(|| p.irecv(w, SrcSel::Any, TagSel::Any).unwrap());
        let vals: Vec<u64> = (0..n).map(|j| (me * 100 + j) as u64).collect();
        let got = p.alltoall_u64(w, &vals).unwrap();
        let untouched = user.map(|r| p.test(r).unwrap().is_none());
        p.barrier(w).unwrap();
        if me == 1 {
            p.send(w, 0, 7, b"user").unwrap();
        }
        let delivered = user.map(|r| {
            let c = p.wait(r).unwrap();
            (c.status.source, c.status.tag, c.data)
        });
        (got, untouched, delivered)
    })
    .unwrap();
    for (me, (got, _, _)) in out.iter().enumerate() {
        for (j, &v) in got.iter().enumerate() {
            assert_eq!(v, (j * 100 + me) as u64);
        }
    }
    assert_eq!(out[0].1, Some(true));
    assert_eq!(out[0].2, Some((1, 7, b"user".to_vec())));
}

#[test]
fn alltoall_u64_refuses_a_chunk_that_is_not_eight_bytes() {
    // Ranks 1 and 2 feed the same collective raw chunks of 3 and 9 bytes.
    let (out, _) = run(3, cfg(), |p| {
        let w = p.comm_world();
        match p.rank() {
            0 => p.alltoall_u64(w, &[0, 1, 2]).map(|_| ()),
            r => p.alltoall(w, &vec![vec![0u8; 6 * r - 3]; 3]).map(|_| ()),
        }
    })
    .unwrap();
    assert_eq!(
        out[0],
        Err(MpiError::LengthMismatch {
            expected: 8,
            got: 3
        })
    );
    assert_eq!(out[1..], [Ok(()), Ok(())]);
}

#[test]
fn alltoall_hands_the_run_token_over_a_bounded_number_of_times_per_rank() {
    // Rows gathered at local rank 0 and columns scattered back: each
    // non-root rank parks once, waiting for its column, so a call takes
    // ≈ 2 n decisions (129–131 at n = 64) in 2 (n − 1) messages. The
    // pairwise exchange this replaced took 234–308 decisions in n (n − 1)
    // messages. One worker, so the count is a pure function of the seed.
    let n = 64;
    for seed in 1..=4u64 {
        let rec = ScheduleRecorder::new();
        let world_cfg = WorldCfg {
            watchdog: Some(Duration::from_secs(30)),
            engine: EngineKind::Coop(CoopCfg {
                workers: 1,
                sched_seed: seed,
            }),
            schedule: SchedulePolicy::Record(rec.clone()),
            ..WorldCfg::default()
        };
        let (out, stats) = run(n, world_cfg, |p| {
            let vals: Vec<u64> = (0..n).map(|j| (p.rank() * 100 + j) as u64).collect();
            p.alltoall_u64(p.comm_world(), &vals).unwrap()
        })
        .unwrap();
        for (me, row) in out.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, (j * 100 + me) as u64);
            }
        }
        assert_eq!(stats.internal_msgs, 2 * (n as u64 - 1), "seed {seed}");
        // Decisions are token grants: n at the start barrier, then one per
        // resumption of a parked rank.
        assert!(
            rec.len() <= 2 * n + 8,
            "seed {seed}: {} scheduling decisions for one {n}-rank alltoall",
            rec.len()
        );
    }
}

#[test]
fn gather_scatter_allgather_scan() {
    let n = 4;
    let (out, _) = run(n, cfg(), |p| {
        let w = p.comm_world();
        let me = p.rank();
        // gather
        let g = p.gather(w, 1, &[me as u8]).unwrap();
        if me == 1 {
            let g = g.unwrap();
            assert_eq!(g, vec![vec![0u8], vec![1], vec![2], vec![3]]);
        } else {
            assert!(g.is_none());
        }
        // scatter
        let chunks: Option<Vec<Vec<u8>>> =
            (me == 1).then(|| (0..n).map(|i| vec![i as u8 * 2]).collect());
        let mine = p.scatter(w, 1, chunks.as_deref()).unwrap();
        assert_eq!(mine, vec![me as u8 * 2]);
        // allgather
        let all = p.allgather(w, &[me as u8; 2]).unwrap();
        assert_eq!(all.len(), n);
        for (i, c) in all.iter().enumerate() {
            assert_eq!(c, &vec![i as u8; 2]);
        }
        // scan (inclusive prefix sum of ranks)
        let s = p.scan_t(w, ReduceOp::Sum, &[me as i64]).unwrap();
        s[0]
    })
    .unwrap();
    assert_eq!(out, vec![0, 1, 3, 6]);
}

#[test]
fn comm_split_colors_and_keys() {
    let n = 6;
    let (out, _) = run(n, cfg(), |p| {
        let w = p.comm_world();
        // Even/odd split; key reverses order within each color.
        let color = (p.rank() % 2) as i32;
        let key = -(p.rank() as i32);
        let sub = p.comm_split(w, color, key).unwrap().unwrap();
        let size = p.comm_size(sub).unwrap();
        let local = p.comm_rank(sub).unwrap();
        // Group sums confirm disjointness.
        let total = p
            .allreduce_t(sub, ReduceOp::Sum, &[p.rank() as u64])
            .unwrap()[0];
        (size, local, total)
    })
    .unwrap();
    // Evens: {0,2,4} sum 6; odds: {1,3,5} sum 9. Key reverses rank order.
    assert_eq!(out[0], (3, 2, 6));
    assert_eq!(out[4], (3, 0, 6));
    assert_eq!(out[1], (3, 2, 9));
    assert_eq!(out[5], (3, 0, 9));
}

#[test]
fn comm_split_undefined_color() {
    let (out, _) = run(3, cfg(), |p| {
        let w = p.comm_world();
        let color = if p.rank() == 1 { -1 } else { 0 };
        p.comm_split(w, color, 0).unwrap().is_none()
    })
    .unwrap();
    assert_eq!(out, vec![false, true, false]);
}

#[test]
fn comm_dup_isolates_traffic() {
    let (out, _) = run(2, cfg(), |p| {
        let w = p.comm_world();
        let dup = p.comm_dup(w).unwrap();
        assert_ne!(dup.ctx(), w.ctx());
        if p.rank() == 0 {
            p.send_t(w, 1, 4, &[1u64]).unwrap();
            p.send_t(dup, 1, 4, &[2u64]).unwrap();
            0
        } else {
            // Same src+tag, different communicators: matching must respect ctx.
            let (_, on_dup) = p
                .recv_t::<u64>(dup, SrcSel::Rank(0), TagSel::Tag(4))
                .unwrap();
            let (_, on_w) = p.recv_t::<u64>(w, SrcSel::Rank(0), TagSel::Tag(4)).unwrap();
            assert_eq!((on_w[0], on_dup[0]), (1, 2));
            1
        }
    })
    .unwrap();
    assert_eq!(out, vec![0, 1]);
}

#[test]
fn comm_create_from_group_subset() {
    let n = 5;
    let (out, _) = run(n, cfg(), |p| {
        let group = Group::new(vec![0, 2, 4]).unwrap();
        if group.contains(p.rank()) {
            let c = p.comm_create_from_group(&group, 77).unwrap();
            let sum = p.allreduce_t(c, ReduceOp::Sum, &[p.rank() as u64]).unwrap()[0];
            Some(sum)
        } else {
            None
        }
    })
    .unwrap();
    assert_eq!(out, vec![Some(6), None, Some(6), None, Some(6)]);
}

#[test]
fn comm_free_releases() {
    let w = World::new(2, cfg());
    w.launch_result(|p| {
        let dup = p.comm_dup(p.comm_world())?;
        p.barrier(dup)?;
        p.comm_free(dup)?;
        Ok(())
    })
    .unwrap();
    assert_eq!(w.live_comms(), 1); // only the world remains
}

#[test]
fn watchdog_turns_deadlock_into_timeout() {
    // Classic head-to-head blocking recv deadlock.
    let wcfg = WorldCfg {
        watchdog: Some(Duration::from_millis(300)),
        ..env_cfg()
    };
    let w = World::new(2, wcfg);
    let r = w.launch_result(|p| {
        let world = p.comm_world();
        let peer = 1 - p.rank();
        let _ = p.recv(world, SrcSel::Rank(peer), TagSel::Tag(0))?;
        Ok(())
    });
    match r {
        Err(WorldError::RankErrors(errs)) => {
            assert!(errs
                .iter()
                .all(|(_, e)| matches!(e, MpiError::Timeout | MpiError::Poisoned)));
        }
        other => panic!("expected rank errors, got {other:?}"),
    }
}

#[test]
fn in_flight_accounting_across_ranks() {
    let w = World::new(2, cfg());
    w.launch(|p| {
        let world = p.comm_world();
        if p.rank() == 0 {
            p.send(world, 1, 0, &[0u8; 100]).unwrap();
            p.send(world, 1, 1, &[0u8; 28]).unwrap();
        }
        p.barrier(world).unwrap();
        if p.rank() == 1 {
            let (_msgs, bytes) = p.in_flight();
            assert!(bytes >= 128, "both messages still in network");
            let _ = p.recv(world, SrcSel::Rank(0), TagSel::Tag(0)).unwrap();
            let _ = p.recv(world, SrcSel::Rank(0), TagSel::Tag(1)).unwrap();
        }
        p.barrier(world).unwrap();
    })
    .unwrap();
    assert_eq!(w.in_flight(), (0, 0));
}

#[test]
fn stats_pair_matrix_tracks_user_bytes() {
    let (_, stats) = run(3, cfg(), |p| {
        let w = p.comm_world();
        if p.rank() == 0 {
            p.send(w, 1, 0, &[0u8; 10]).unwrap();
            p.send(w, 2, 0, &[0u8; 20]).unwrap();
        } else {
            let _ = p.recv(w, SrcSel::Rank(0), TagSel::Tag(0)).unwrap();
        }
    })
    .unwrap();
    assert_eq!(stats.pair(0, 1), 10);
    assert_eq!(stats.pair(0, 2), 20);
    assert_eq!(stats.pair(1, 2), 0);
    assert_eq!(stats.user_bytes, 30);
}

#[test]
fn collective_counters_count_entries() {
    let n = 4;
    let (_, stats) = run(n, cfg(), |p| {
        let w = p.comm_world();
        p.barrier(w).unwrap();
        p.allreduce_t(w, ReduceOp::Sum, &[1u64]).unwrap();
        p.allreduce_t(w, ReduceOp::Sum, &[1u64]).unwrap();
    })
    .unwrap();
    assert_eq!(
        stats.collectives[mpisim::CollKind::Barrier as usize],
        n as u64
    );
    assert_eq!(
        stats.collectives[mpisim::CollKind::Allreduce as usize],
        2 * n as u64
    );
}

#[test]
fn sendrecv_pairs() {
    let n = 4;
    let (out, _) = run(n, cfg(), |p| {
        let w = p.comm_world();
        let right = (p.rank() + 1) % n;
        let left = (p.rank() + n - 1) % n;
        let (_, data) = p
            .sendrecv(
                w,
                right,
                2,
                &[p.rank() as u8],
                SrcSel::Rank(left),
                TagSel::Tag(2),
            )
            .unwrap();
        data[0] as usize
    })
    .unwrap();
    assert_eq!(out, vec![3, 0, 1, 2]);
}

#[test]
fn reduce_f64_on_subcomm() {
    let n = 4;
    let (out, _) = run(n, cfg(), |p| {
        let w = p.comm_world();
        let sub = p.comm_split(w, (p.rank() / 2) as i32, 0).unwrap().unwrap();
        p.allreduce_t(sub, ReduceOp::Sum, &[p.rank() as f64])
            .unwrap()[0]
    })
    .unwrap();
    assert_eq!(out, vec![1.0, 1.0, 5.0, 5.0]);
}

#[test]
fn datatype_mismatch_in_reduce() {
    let w = World::new(1, cfg());
    let r = w.launch_result(|p| {
        // 7 bytes is not a whole number of f64.
        p.reduce(p.comm_world(), 0, Datatype::F64, ReduceOp::Sum, &[0u8; 7])?;
        Ok(())
    });
    assert!(matches!(r, Err(WorldError::RankErrors(_))));
}

#[test]
fn invalid_comm_rejected() {
    run(1, cfg(), |p| {
        let bogus = Comm::from_ctx(9999);
        assert!(matches!(
            p.send(bogus, 0, 0, &[]),
            Err(MpiError::InvalidComm(9999))
        ));
        assert!(p.comm_size(bogus).is_err());
    })
    .unwrap();
}

#[test]
fn user_tag_range_enforced() {
    run(1, cfg(), |p| {
        let w = p.comm_world();
        assert!(matches!(
            p.send(w, 0, -3, &[]),
            Err(MpiError::TagOutOfRange(-3))
        ));
        assert!(matches!(
            p.send(w, 0, mpisim::MAX_USER_TAG, &[]),
            Err(MpiError::TagOutOfRange(_))
        ));
    })
    .unwrap();
}

#[test]
fn peek_status_is_nondestructive() {
    let (out, _) = run(2, cfg(), |p| {
        let w = p.comm_world();
        if p.rank() == 0 {
            p.send_t(w, 1, 8, &[3u64]).unwrap();
            0
        } else {
            let r = p.irecv(w, SrcSel::Rank(0), TagSel::Tag(8)).unwrap();
            // Poll non-destructively until complete.
            loop {
                if let Some(st) = p.peek_status(r).unwrap() {
                    assert_eq!(st.len, 8);
                    break;
                }
                p.park(Duration::from_millis(1)).unwrap();
            }
            // Request must still be alive and consumable.
            assert_eq!(p.live_requests(), 1);
            let c = p.wait(r).unwrap();
            mpisim::decode_slice::<u64>(&c.data).unwrap()[0]
        }
    })
    .unwrap();
    assert_eq!(out[1], 3);
}

#[test]
fn cancel_pending_recv() {
    run(1, cfg(), |p| {
        let w = p.comm_world();
        let r = p.irecv(w, SrcSel::Any, TagSel::Any).unwrap();
        assert_eq!(p.pending_recvs(), 1);
        p.cancel(r).unwrap();
        assert_eq!(p.pending_recvs(), 0);
        assert_eq!(p.live_requests(), 0);
        assert!(p.test(r).is_err(), "handle is stale after cancel");
    })
    .unwrap();
}

#[test]
fn scale_smoke_64_ranks() {
    // 64 threads on one core: mostly-parked ranks must still make progress.
    let n = 64;
    let (out, _) = run(n, cfg(), |p| {
        let w = p.comm_world();
        let sum = p.allreduce_t(w, ReduceOp::Sum, &[1u64]).unwrap()[0];
        p.barrier(w).unwrap();
        sum
    })
    .unwrap();
    assert_eq!(out, vec![n as u64; n]);
}
