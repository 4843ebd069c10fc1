//! End-to-end checkpoint/restart integration tests for the MANA-2.0 layer.

mod common;

use common::env;
use mana_core::{
    CallbackStyle, CommRestore, DrainMode, ManaConfig, ManaRuntime, RuntimeError, TpcMode, VReq,
    VtBackend,
};
use mpisim::{Named, ReduceOp, SrcSel, TagSel, WorldCfg};
use splitproc::FsMode;
use std::path::PathBuf;
use std::time::Duration;

fn ckpt_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mana2_test_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn cfg(name: &str) -> ManaConfig {
    ManaConfig {
        ckpt_dir: ckpt_dir(name),
        ..env().mana
    }
}

fn wcfg() -> WorldCfg {
    WorldCfg {
        watchdog: Some(Duration::from_secs(60)),
        ..env().world
    }
}

#[test]
fn mana_matches_native_semantics() {
    // Ring p2p + allreduce under MANA gives the same numbers as raw mpisim.
    let n = 5;
    let rt = ManaRuntime::new(n, cfg("native_match")).with_world_cfg(wcfg());
    let report = rt
        .run_fresh(|m| {
            let w = m.comm_world();
            let right = (m.rank() + 1) % m.world_size();
            let left = (m.rank() + m.world_size() - 1) % m.world_size();
            m.send_t(w, right, 3, &[m.rank() as u64 * 7])?;
            let (st, got) = m.recv_t::<u64>(w, SrcSel::Rank(left), TagSel::Tag(3))?;
            assert_eq!(st.source, left);
            let sum = m.allreduce_t(w, ReduceOp::Sum, &got)?;
            Ok(sum[0])
        })
        .unwrap();
    let expect: u64 = (0..n as u64).map(|r| r * 7).sum();
    assert_eq!(report.values(), vec![expect; n]);
}

#[test]
fn resume_checkpoint_mid_run() {
    let n = 4;
    let config = cfg("resume_mid");
    let dir = config.ckpt_dir.clone();
    let rt = ManaRuntime::new(n, config).with_world_cfg(wcfg());
    let report = rt
        .run_fresh(|m| {
            let w = m.comm_world();
            let mut acc = 0u64;
            for step in 0..6u64 {
                if step == 2 && m.rank() == 0 && m.round() == 0 {
                    m.request_checkpoint()?;
                }
                let s = m.allreduce_t(w, ReduceOp::Sum, &[step + m.rank() as u64])?;
                acc += s[0];
            }
            Ok(acc)
        })
        .unwrap();
    assert!(report.all_finished());
    // All ranks computed identical sums.
    let vals = report.values();
    assert!(vals.windows(2).all(|w| w[0] == w[1]));
    // Exactly one checkpoint round happened; the committed generation
    // holds a valid image per rank.
    let sel = splitproc::store::select_generation(&dir, Some(n)).expect("committed generation");
    assert_eq!(sel.round, 0);
    for r in 0..n {
        // Layout-aware: loads the flat `.mana` file or reassembles the
        // `.cref` recipe from the chunk pool, whichever the configured
        // `MANA2_STORE` mode wrote.
        assert!(
            splitproc::store::load_image(&sel.dir, r).is_ok(),
            "image for rank {r}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drain_captures_in_flight_messages() {
    let n = 2;
    let config = cfg("drain_inflight");
    let dir = config.ckpt_dir.clone();
    let rt = ManaRuntime::new(n, config).with_world_cfg(wcfg());
    let report = rt
        .run_fresh(|m| {
            let w = m.comm_world();
            if m.rank() == 0 {
                for i in 0..3i32 {
                    m.send(w, 1, i, &vec![i as u8; 10 * (i as usize + 1)])?;
                }
                m.request_checkpoint()?;
                m.barrier(w)?;
                Ok(0usize)
            } else {
                // Messages are in flight while rank 1 sits in the barrier.
                m.barrier(w)?;
                let mut total = 0usize;
                for i in 0..3i32 {
                    let (st, data) = m.recv(w, SrcSel::Rank(0), TagSel::Tag(i))?;
                    assert_eq!(st.tag, i);
                    assert_eq!(data, vec![i as u8; 10 * (i as usize + 1)]);
                    total += data.len();
                }
                Ok(total)
            }
        })
        .unwrap();
    assert_eq!(report.outcomes.len(), 2);
    // Rank 1 must have drained the three messages at checkpoint time.
    assert_eq!(report.rank_stats[1].drained_msgs, 3);
    assert_eq!(report.rank_stats[1].drained_bytes, 10 + 20 + 30);
    assert_eq!(report.coord.rounds.len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn two_step_retirement_of_drained_irecv() {
    // An irecv posted before the checkpoint is completed *by the drain*;
    // the application's later wait observes the nulled binding (step two)
    // and its request variable is overwritten with MPI_REQUEST_NULL.
    let n = 2;
    let config = cfg("two_step");
    let dir = config.ckpt_dir.clone();
    let rt = ManaRuntime::new(n, config).with_world_cfg(wcfg());
    rt.run_fresh(|m| {
        let w = m.comm_world();
        if m.rank() == 1 {
            let mut req = m.irecv(w, SrcSel::Rank(0), TagSel::Tag(9))?;
            m.barrier(w)?; // let rank 0 send + trigger
            m.barrier(w)?; // checkpoint happens inside this barrier window
            let c = m.wait(&mut req)?;
            assert_eq!(c.data, vec![42u8; 8]);
            assert!(req.is_null(), "request variable must be nulled");
            assert_eq!(m.live_requests(), 0, "table fully pruned");
        } else {
            m.barrier(w)?;
            m.send(w, 1, 9, &[42u8; 8])?;
            m.request_checkpoint()?;
            m.barrier(w)?;
        }
        Ok(())
    })
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Step-loop workload shared by the restart tests: accumulates allreduce
/// results into upper-half state, requests a checkpoint at step 3 on the
/// first pass, and resumes from the recorded step after restart.
fn step_workload(m: &mut mana_core::Mana<'_>, total_steps: u64) -> mana_core::Result<u64> {
    let w = m.comm_world();
    let mut step = m
        .upper()
        .read_value::<u64>("step")
        .transpose()?
        .unwrap_or(0);
    let mut acc = m.upper().read_value::<u64>("acc").transpose()?.unwrap_or(0);
    while step < total_steps {
        if step == 3 && m.round() == 0 && m.rank() == 0 {
            m.request_checkpoint()?;
        }
        let s = m.allreduce_t(w, ReduceOp::Sum, &[step * 10 + m.rank() as u64])?;
        acc += s[0];
        step += 1;
        m.upper_mut().write_value("step", &step);
        m.upper_mut().write_value("acc", &acc);
        m.step_commit()?;
    }
    Ok(acc)
}

#[test]
fn checkpoint_exit_and_restart_continues() {
    let n = 4;
    let mut config = cfg("exit_restart");
    config.exit_after_ckpt = true;
    let dir = config.ckpt_dir.clone();
    let total = 8u64;

    // Reference: uninterrupted run.
    let ref_cfg = ManaConfig {
        ckpt_dir: ckpt_dir("exit_restart_ref"),
        ..env().mana
    };
    let reference = ManaRuntime::new(n, ref_cfg)
        .with_world_cfg(wcfg())
        .run_fresh(|m| step_workload(m, total))
        .unwrap()
        .values();

    // Pass 1: checkpoint at step 4 boundary, exit.
    let rt = ManaRuntime::new(n, config.clone()).with_world_cfg(wcfg());
    let pass1 = rt.run_fresh(|m| step_workload(m, total)).unwrap();
    assert!(pass1.all_checkpointed(), "{:?}", pass1.outcomes);
    assert_eq!(pass1.coord.rounds.len(), 1);

    // Pass 2: restart from images; the workload resumes at the recorded
    // step and finishes.
    let rt2 = ManaRuntime::new(n, config).with_world_cfg(wcfg());
    let pass2 = rt2.run_restart(|m| step_workload(m, total)).unwrap();
    assert!(pass2.all_finished());
    assert_eq!(pass2.values(), reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// tpc × drain are orthogonal axes: `TpcMode::Original` barriers before
/// every collective whatever protocol quiesces the checkpoint window, the
/// config record names what ran, and the round still checkpoints and
/// restarts transparently.
#[test]
fn original_tpc_barriers_under_toposort_drain() {
    let n = 3;
    let mut config = cfg("orig_toposort");
    config.tpc = TpcMode::Original;
    config.drain = DrainMode::TopoSort;
    config.exit_after_ckpt = true;
    let dir = config.ckpt_dir.clone();
    let total = 8u64;
    let record = config.record(&wcfg().engine).0;
    for pair in [("tpc", "original"), ("drain", "toposort")] {
        assert!(
            record.contains(&(pair.0.into(), pair.1.into())),
            "{record:?}"
        );
    }

    let reference = ManaRuntime::new(n, cfg("orig_toposort_ref"))
        .with_world_cfg(wcfg())
        .run_fresh(|m| step_workload(m, total))
        .unwrap()
        .values();

    let pass1 = ManaRuntime::new(n, config.clone())
        .with_world_cfg(wcfg())
        .run_fresh(|m| step_workload(m, total))
        .unwrap();
    assert!(pass1.all_checkpointed(), "{:?}", pass1.outcomes);
    let pass2 = ManaRuntime::new(n, config)
        .with_world_cfg(wcfg())
        .run_restart(|m| step_workload(m, total))
        .unwrap();
    for leg in [&pass1, &pass2] {
        for (rank, s) in leg.rank_stats.iter().enumerate() {
            assert!(s.tpc_barriers > 0, "rank {rank} ran no phase-1 barrier");
        }
    }
    assert_eq!(pass2.values(), reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restart_rebuilds_subcommunicators_from_active_list() {
    let n = 4;
    let mut config = cfg("subcomm_restart");
    config.exit_after_ckpt = true;
    let dir = config.ckpt_dir.clone();

    let work = |m: &mut mana_core::Mana<'_>| -> mana_core::Result<u64> {
        let w = m.comm_world();
        let phase = m
            .upper()
            .read_value::<u64>("phase")
            .transpose()?
            .unwrap_or(0);
        if phase == 0 {
            // Build comms: a dup (freed before ckpt) and an even/odd split
            // (kept). Store the split's *virtual id* in upper-half memory —
            // virtual IDs are restart-stable (§II-C).
            let dup = m.comm_dup(w)?;
            m.barrier(dup)?;
            m.comm_free(dup)?;
            let sub = m.comm_split(w, (m.rank() % 2) as i32, 0)?.unwrap();
            m.upper_mut().write_value("sub_vid", &sub.0);
            let gid = m.comm_gid(sub)?;
            m.upper_mut().write_value("sub_gid", &gid);
            m.upper_mut().write_value("phase", &1u64);
            if m.rank() == 0 {
                m.request_checkpoint()?;
            }
            m.step_commit()?;
        }
        // Phase 1 (after restart): use the stored virtual communicator.
        let sub = mana_core::VComm(
            m.upper()
                .read_value::<u64>("sub_vid")
                .transpose()?
                .expect("sub_vid saved"),
        );
        // §III-K: the communicator's global id is a function of its
        // membership — the rebuilt communicator has the id the original
        // had, every member computes the same one, and it is not the
        // world's.
        let gid = m.comm_gid(sub)?;
        let saved = m.upper().read_value::<u64>("sub_gid").transpose()?;
        assert_eq!(saved, Some(gid));
        assert_eq!(m.allreduce_t(sub, ReduceOp::Max, &[gid])?, vec![gid]);
        assert_ne!(gid, m.comm_gid(w)?);
        let sum = m.allreduce_t(sub, ReduceOp::Sum, &[m.rank() as u64])?;
        Ok(sum[0])
    };

    let pass1 = ManaRuntime::new(n, config.clone())
        .with_world_cfg(wcfg())
        .run_fresh(work)
        .unwrap();
    assert!(pass1.all_checkpointed());

    let pass2 = ManaRuntime::new(n, config)
        .with_world_cfg(wcfg())
        .run_restart(work)
        .unwrap();
    // Evens {0,2} sum=2; odds {1,3} sum=4.
    assert_eq!(pass2.values(), vec![2, 4, 2, 4]);
    // Active-list restart recreated only the split comm (dup was freed):
    // restored_comms == 1 per rank.
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_log_restart_recreates_freed_comms() {
    let n = 2;
    let mut config = cfg("replay_restart");
    config.exit_after_ckpt = true;
    config.comm_restore = CommRestore::ReplayLog;
    let dir = config.ckpt_dir.clone();

    let work = |m: &mut mana_core::Mana<'_>| -> mana_core::Result<(u64, u64)> {
        let w = m.comm_world();
        let phase = m
            .upper()
            .read_value::<u64>("phase")
            .transpose()?
            .unwrap_or(0);
        if phase == 0 {
            for _ in 0..3 {
                let d = m.comm_dup(w)?;
                m.barrier(d)?;
                m.comm_free(d)?;
            }
            let keep = m.comm_dup(w)?;
            m.upper_mut().write_value("keep", &keep.0);
            m.upper_mut().write_value("phase", &1u64);
            if m.rank() == 0 {
                m.request_checkpoint()?;
            }
            m.step_commit()?;
        }
        let keep = mana_core::VComm(m.upper().read_value::<u64>("keep").transpose()?.unwrap());
        let sum = m.allreduce_t(keep, ReduceOp::Sum, &[1u64])?;
        let stats = m.stats();
        Ok((sum[0], stats.replayed_calls))
    };

    ManaRuntime::new(n, config.clone())
        .with_world_cfg(wcfg())
        .run_fresh(work)
        .unwrap();
    let pass2 = ManaRuntime::new(n, config)
        .with_world_cfg(wcfg())
        .run_restart(work)
        .unwrap();
    let vals = pass2.values();
    for (sum, replayed) in vals {
        assert_eq!(sum, n as u64);
        // 3 freed dups (create+free) + 1 kept dup = 7 logged calls replayed.
        assert_eq!(replayed, 7, "replay-log baseline replays freed comms");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn original_tpc_deadlocks_hybrid_does_not() {
    // Paper §III-E: rank 0 bcasts (as root) then sends; rank 1 receives
    // then bcasts. Legal MPI; deadlocks iff a barrier precedes the bcast.
    let scenario = |m: &mut mana_core::Mana<'_>| -> mana_core::Result<u64> {
        let w = m.comm_world();
        if m.rank() == 0 {
            let mut data = vec![5u64];
            m.bcast_t(w, 0, &mut data)?; // root: must not wait for rank 1
            m.send_t(w, 1, 1, &[9u64])?;
            Ok(0)
        } else {
            let (_, go) = m.recv_t::<u64>(w, SrcSel::Rank(0), TagSel::Tag(1))?;
            assert_eq!(go[0], 9);
            let mut data: Vec<u64> = vec![];
            m.bcast_t(w, 0, &mut data)?;
            Ok(data[0])
        }
    };

    let deadline = WorldCfg {
        watchdog: Some(Duration::from_millis(700)),
        ..env().world
    };

    // Hybrid: completes.
    let hybrid = ManaRuntime::new(2, cfg("deadlock_hybrid"))
        .with_world_cfg(deadline.clone())
        .run_fresh(scenario)
        .unwrap();
    assert_eq!(hybrid.values(), vec![0, 5]);

    // Original: the injected barrier deadlocks; the watchdog converts the
    // hang into an error.
    let mut oc = cfg("deadlock_original");
    oc.tpc = TpcMode::Original;
    let res = ManaRuntime::new(2, oc)
        .with_world_cfg(deadline)
        .run_fresh(scenario);
    assert!(
        matches!(
            res,
            Err(RuntimeError::Rank(_, _)) | Err(RuntimeError::World(_))
        ),
        "original 2PC must deadlock here"
    );
}

#[test]
fn straggler_checkpoint_while_peers_wait_in_collective() {
    let n = 3;
    let config = cfg("straggler");
    let dir = config.ckpt_dir.clone();
    let rt = ManaRuntime::new(n, config).with_world_cfg(wcfg());
    let report = rt
        .run_fresh(|m| {
            let w = m.comm_world();
            if m.rank() == 0 {
                // The straggler: give peers time to park inside the
                // (emulated, checkpointable) barrier, then request the
                // checkpoint and keep computing. The checkpoint must
                // proceed while ranks 1,2 wait in the barrier.
                std::thread::sleep(Duration::from_millis(150));
                m.request_checkpoint()?;
                m.compute(2_000_000)?;
            }
            m.barrier(w)?;
            Ok(m.stats().ckpts)
        })
        .unwrap();
    assert!(report.all_finished());
    assert_eq!(report.coord.rounds.len(), 1);
    // Peers parked inside a collective reported its gid (§III-K).
    assert!(
        !report.coord.rounds[0].gids_in_flight.is_empty(),
        "waiting ranks must report their collective gid"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn nonblocking_collective_across_resume() {
    let n = 4;
    let config = cfg("nb_resume");
    let dir = config.ckpt_dir.clone();
    let rt = ManaRuntime::new(n, config).with_world_cfg(wcfg());
    let report = rt
        .run_fresh(|m| {
            let w = m.comm_world();
            let contrib = mpisim::encode_slice(&[m.rank() as u64 + 1]);
            let mut req = m.iallreduce(w, mpisim::Datatype::U64, ReduceOp::Sum, &contrib)?;
            if m.rank() == 0 {
                m.request_checkpoint()?;
            }
            // The wait services the checkpoint mid-collective.
            let c = m.wait(&mut req)?;
            assert!(req.is_null());
            let v = mpisim::decode_slice::<u64>(&c.data).unwrap();
            Ok(v[0])
        })
        .unwrap();
    assert_eq!(report.values(), vec![10, 10, 10, 10]); // 1+2+3+4
    std::fs::remove_dir_all(&dir).ok();
}

/// The non-blocking collectives the paper lists (§III-A log-and-replay).
#[derive(Clone, Copy, Debug)]
enum NbColl {
    Allreduce,
    Barrier,
    Bcast,
    Allgather,
}

const NB_COLLS: [NbColl; 4] = [
    NbColl::Allreduce,
    NbColl::Barrier,
    NbColl::Bcast,
    NbColl::Allgather,
];

impl NbColl {
    fn contribution(rank: usize) -> Vec<u8> {
        mpisim::encode_slice(&[(rank as u64 + 1) * 100])
    }

    /// Post the collective on MANA's world communicator.
    fn post(self, m: &mut mana_core::Mana<'_>) -> mana_core::Result<VReq> {
        let w = m.comm_world();
        let mine = Self::contribution(m.rank());
        match self {
            NbColl::Allreduce => m.iallreduce(w, mpisim::Datatype::U64, ReduceOp::Sum, &mine),
            NbColl::Barrier => m.ibarrier(w),
            NbColl::Bcast => m.ibcast(w, 1, mine),
            NbColl::Allgather => m.iallgather(w, &mine),
        }
    }

    /// What a completed request of this collective delivered.
    fn delivered(self, c: mpisim::Completion) -> Vec<Vec<u8>> {
        match self {
            NbColl::Allgather => mpisim::unframe_chunks(&c.data).unwrap(),
            _ => vec![c.data],
        }
    }

    /// The same collective, blocking, on the bare simulator.
    fn native(self, p: &mpisim::Proc) -> mpisim::Result<Vec<Vec<u8>>> {
        let w = mpisim::Comm::WORLD;
        let mut mine = Self::contribution(p.rank());
        match self {
            NbColl::Allreduce => p
                .allreduce(w, mpisim::Datatype::U64, ReduceOp::Sum, &mine)
                .map(|v| vec![v]),
            NbColl::Barrier => p.barrier(w).map(|()| vec![Vec::new()]),
            NbColl::Bcast => p.bcast(w, 1, &mut mine).map(|()| vec![mine]),
            NbColl::Allgather => p.allgather(w, &mine),
        }
    }
}

/// The §III-A log-and-replay showcase: one request of every non-blocking
/// collective is in flight at checkpoint-and-exit; after restart the
/// stored *virtual request ids* (kept in upper-half memory) are still
/// valid and complete — one `wait` each, or one `waitall` — with what the
/// bare simulator computes for the same collectives.
fn nonblocking_collectives_across_restart(name: &str, tpc: TpcMode, waitall: bool) {
    let n = 3;
    let mut config = cfg(name);
    config.exit_after_ckpt = true;
    config.tpc = tpc;
    let dir = config.ckpt_dir.clone();

    let work = move |m: &mut mana_core::Mana<'_>| -> mana_core::Result<Vec<Vec<Vec<u8>>>> {
        if m.upper().segment("reqs").is_none() {
            let mut ids = Vec::new();
            for coll in NB_COLLS {
                ids.push(coll.post(m)?.0);
            }
            m.upper_mut().write_value("reqs", &ids);
            if m.rank() == 0 {
                m.request_checkpoint()?;
            }
            m.step_commit()?; // checkpoint-and-exit happens here
        }
        let ids = m
            .upper()
            .read_value::<Vec<u64>>("reqs")
            .transpose()?
            .expect("saved request ids");
        let mut reqs: Vec<VReq> = ids.into_iter().map(VReq).collect();
        let done = if waitall {
            m.waitall(&mut reqs)?
        } else {
            let mut done = Vec::new();
            for req in &mut reqs {
                done.push(m.wait(req)?);
            }
            done
        };
        assert!(reqs.iter().all(|r| r.is_null()));
        Ok(NB_COLLS
            .iter()
            .zip(done)
            .map(|(coll, c)| coll.delivered(c))
            .collect())
    };

    let pass1 = ManaRuntime::new(n, config.clone())
        .with_world_cfg(wcfg())
        .run_fresh(work)
        .unwrap();
    assert!(pass1.all_checkpointed());
    assert_eq!(pass1.coord.rounds.len(), 1);

    let pass2 = ManaRuntime::new(n, config)
        .with_world_cfg(wcfg())
        .run_restart(work)
        .unwrap();
    let native: Vec<Vec<Vec<Vec<u8>>>> = mpisim::World::new(n, wcfg())
        .launch_result(|p| NB_COLLS.iter().map(|coll| coll.native(p)).collect())
        .unwrap();
    let got = pass2.values();
    assert_eq!(got, native, "{tpc:?}, waitall = {waitall}");
    // 100+200+300, and rank 1's contribution from the broadcast.
    assert_eq!(got[0][0], vec![mpisim::encode_slice(&[600u64])]);
    assert_eq!(got[2][2], vec![NbColl::contribution(1)]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn nonblocking_collective_across_restart() {
    nonblocking_collectives_across_restart("nb_restart", TpcMode::Hybrid, false);
}

#[test]
fn nonblocking_collective_across_restart_original_2pc() {
    nonblocking_collectives_across_restart("nb_restart_orig", TpcMode::Original, false);
}

#[test]
fn nonblocking_collectives_complete_by_waitall_across_restart() {
    nonblocking_collectives_across_restart("nb_waitall", TpcMode::Hybrid, true);
}

#[test]
fn nonblocking_collectives_complete_by_waitall_across_restart_original_2pc() {
    nonblocking_collectives_across_restart("nb_waitall_orig", TpcMode::Original, true);
}

#[test]
fn pending_irecv_reposts_after_restart() {
    // A pending irecv at checkpoint-and-exit whose message was never sent:
    // after restart the (re-executed) sender provides it and the stored
    // virtual request completes via lazy re-posting.
    let n = 2;
    let mut config = cfg("repost_restart");
    config.exit_after_ckpt = true;
    let dir = config.ckpt_dir.clone();

    let work = |m: &mut mana_core::Mana<'_>| -> mana_core::Result<u64> {
        let w = m.comm_world();
        let phase = m
            .upper()
            .read_value::<u64>("phase")
            .transpose()?
            .unwrap_or(0);
        if phase == 0 {
            if m.rank() == 1 {
                // Post a receive whose message only arrives after restart.
                let req = m.irecv(w, SrcSel::Rank(0), TagSel::Tag(5))?;
                m.upper_mut().write_value("req", &req.0);
            }
            m.upper_mut().write_value("phase", &1u64);
            if m.rank() == 0 {
                m.request_checkpoint()?;
            }
            m.step_commit()?;
        }
        if m.rank() == 0 {
            m.send_t(w, 1, 5, &[77u64])?;
            Ok(0)
        } else {
            let mut req = VReq(m.upper().read_value::<u64>("req").transpose()?.unwrap());
            let c = m.wait(&mut req)?;
            Ok(mpisim::decode_slice::<u64>(&c.data).unwrap()[0])
        }
    };

    let pass1 = ManaRuntime::new(n, config.clone())
        .with_world_cfg(wcfg())
        .run_fresh(work)
        .unwrap();
    assert!(pass1.all_checkpointed());
    let pass2 = ManaRuntime::new(n, config)
        .with_world_cfg(wcfg())
        .run_restart(work)
        .unwrap();
    assert_eq!(pass2.values(), vec![0, 77]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drained_irecv_completion_survives_restart() {
    // §III-A two-step retirement split across an exit-restart cycle.
    // Step one happens before the exit: the drain completes the posted
    // irecv and parks the payload as a stored completion inside the
    // image. Step two happens in the *restarted* process: the
    // application's wait observes the nulled binding, hands the stored
    // payload over, and retires the virtual request.
    let n = 2;
    let mut config = cfg("two_step_restart");
    config.exit_after_ckpt = true;
    let dir = config.ckpt_dir.clone();

    let work = |m: &mut mana_core::Mana<'_>| -> mana_core::Result<u64> {
        let w = m.comm_world();
        let phase = m
            .upper()
            .read_value::<u64>("phase")
            .transpose()?
            .unwrap_or(0);
        if phase == 0 {
            if m.rank() == 1 {
                let req = m.irecv(w, SrcSel::Rank(0), TagSel::Tag(9))?;
                m.upper_mut().write_value("req", &req.0);
            } else {
                // Counted in the sent row before the trigger, so rank 1's
                // drain cannot finish without claiming this message.
                m.send_t(w, 1, 9, &[0xBEEFu64, 0xCAFE])?;
                m.request_checkpoint()?;
            }
            m.upper_mut().write_value("phase", &1u64);
            m.step_commit()?; // checkpoint-and-exit happens here
        }
        if m.rank() == 1 {
            let mut req = VReq(
                m.upper()
                    .read_value::<u64>("req")
                    .transpose()?
                    .expect("saved request id"),
            );
            let c = m.wait(&mut req)?;
            assert!(req.is_null(), "step two must null the request variable");
            assert_eq!(m.live_requests(), 0, "table fully pruned after step two");
            Ok(mpisim::decode_slice::<u64>(&c.data).unwrap()[0])
        } else {
            Ok(0)
        }
    };

    let pass1 = ManaRuntime::new(n, config.clone())
        .with_world_cfg(wcfg())
        .run_fresh(work)
        .unwrap();
    assert!(pass1.all_checkpointed(), "{:?}", pass1.outcomes);
    assert!(
        pass1.rank_stats[1].drained_msgs >= 1,
        "the irecv must be completed by the drain (step one), not the app"
    );

    let pass2 = ManaRuntime::new(n, config)
        .with_world_cfg(wcfg())
        .run_restart(work)
        .unwrap();
    assert_eq!(pass2.values(), vec![0, 0xBEEF]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn legacy_coordinator_drain_works_but_is_chattier() {
    let n = 2;
    let mut legacy = cfg("legacy_drain");
    legacy.drain = DrainMode::Coordinator;
    let dir = legacy.ckpt_dir.clone();
    let work = |m: &mut mana_core::Mana<'_>| -> mana_core::Result<Vec<u8>> {
        let w = m.comm_world();
        if m.rank() == 0 {
            m.send(w, 1, 0, &[7u8; 64])?;
            m.request_checkpoint()?;
            m.barrier(w)?;
            Ok(vec![])
        } else {
            m.barrier(w)?;
            let (_, d) = m.recv(w, SrcSel::Rank(0), TagSel::Tag(0))?;
            Ok(d)
        }
    };
    let legacy_report = ManaRuntime::new(n, legacy)
        .with_world_cfg(wcfg())
        .run_fresh(work)
        .unwrap();
    assert_eq!(legacy_report.outcomes.len(), 2);
    let legacy_msgs = legacy_report.coord.rounds[0].coord_msgs;

    let modern_report = ManaRuntime::new(n, cfg("modern_drain"))
        .with_world_cfg(wcfg())
        .run_fresh(work)
        .unwrap();
    let modern_msgs = modern_report.coord.rounds[0].coord_msgs;
    assert!(
        legacy_msgs > modern_msgs,
        "legacy drain must exchange more coordinator messages ({legacy_msgs} vs {modern_msgs})"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn master_branch_config_smoke() {
    // Original 2PC + BTree tables + lambda wrappers + kernel-call FS mode:
    // the paper's "master branch". Collective-only workload (no §III-E
    // pattern), so original 2PC is safe.
    let mut config = ManaConfig::master_branch();
    config.store = env().mana.store;
    config.ckpt_dir = ckpt_dir("master_smoke");
    assert_eq!(config.vtable, VtBackend::BTree);
    assert_eq!(config.callback_style, CallbackStyle::Lambda);
    assert_eq!(config.fs_mode, FsMode::KernelCall);
    let dir = config.ckpt_dir.clone();
    let report = ManaRuntime::new(3, config)
        .with_world_cfg(wcfg())
        .run_fresh(|m| {
            let w = m.comm_world();
            let mut acc = 0u64;
            for i in 0..4u64 {
                if i == 1 && m.rank() == 0 && m.round() == 0 {
                    m.request_checkpoint()?;
                }
                acc += m.allreduce_t(w, ReduceOp::Sum, &[i])?[0];
            }
            Ok(acc)
        })
        .unwrap();
    assert!(report.all_finished());
    assert!(
        report.rank_stats[0].tpc_barriers > 0,
        "original 2PC barriers ran"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repeated_checkpoint_rounds() {
    // Fig. 3 style: several checkpoint/resume rounds in one run.
    let n = 3;
    let config = cfg("repeat_rounds");
    let dir = config.ckpt_dir.clone();
    let rt = ManaRuntime::new(n, config).with_world_cfg(wcfg());
    let report = rt
        .run_fresh(|m| {
            let w = m.comm_world();
            for step in 0..9u64 {
                if m.rank() == 0 && step % 3 == 0 && m.round() == step / 3 {
                    m.request_checkpoint()?;
                }
                m.allreduce_t(w, ReduceOp::Sum, &[step])?;
            }
            Ok(m.round())
        })
        .unwrap();
    assert_eq!(report.coord.rounds.len(), 3);
    // Image sizes recorded per round.
    for r in &report.coord.rounds {
        assert!(r.total_image_bytes > 0);
    }
    assert!(report.values().iter().all(|&r| r == 3));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kept_image_buffer_writes_what_a_fresh_encoding_would() {
    // Each rank encodes every round into one buffer it keeps. Two
    // resume-mode rounds, the second image smaller than the first, must
    // leave on disk exactly the files a fresh `CkptImage` encoding of the
    // same upper half and metadata gives, in both layouts.
    use splitproc::store::{generation_dir, Store, StoreMode};
    use splitproc::{CkptImage, Decode, Encode, UpperHalf};
    let n = 2;
    for mode in [StoreMode::Flat, StoreMode::Chunked] {
        let mut config = cfg(&format!("kept_buf_{}", mode.name()));
        config.store.mode = mode;
        let dir = config.ckpt_dir.clone();
        let report = ManaRuntime::new(n, config.clone())
            .with_world_cfg(wcfg())
            .run_fresh(|m| {
                let w = m.comm_world();
                for step in 0..6u64 {
                    if step % 3 == 0 {
                        let len = (3 - step as usize / 3) * 40_000 + 7 * m.rank();
                        m.upper_mut()
                            .write_segment("state", vec![step as u8 + 1; len]);
                        if m.rank() == 0 && m.round() == step / 3 {
                            m.request_checkpoint()?;
                        }
                    }
                    m.allreduce_t(w, ReduceOp::Sum, &[step])?;
                }
                Ok(m.round())
            })
            .unwrap();
        assert_eq!(report.coord.rounds.len(), 2, "{}", mode.name());
        let store = Store::open(&dir, config.store.clone());
        let mut lens = Vec::new();
        for round in 0..2u64 {
            let manifest = store.read_manifest(round).unwrap();
            for rank in 0..n {
                let image = store.load_image(round, rank).unwrap();
                let upper = UpperHalf::from_bytes(&image.upper).unwrap();
                lens.push(upper.segment("state").unwrap().len());
                let fresh = CkptImage {
                    upper: upper.to_bytes(),
                    meta: mana_core::ManaMeta::from_bytes(&image.meta)
                        .unwrap()
                        .to_bytes(),
                    ..image.clone()
                };
                assert_eq!(image, fresh, "{} round {round} rank {rank}", mode.name());
                if mode == StoreMode::Flat {
                    let path = CkptImage::path_for(&generation_dir(&dir, round), rank);
                    let (file, crc) = fresh.to_bytes_with_crc();
                    assert_eq!(std::fs::read(path).unwrap(), file);
                    assert_eq!(manifest.entries[rank].crc, crc);
                }
            }
        }
        assert_eq!(lens, [120_000, 120_007, 80_000, 80_007]);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn round1_write_failure_aborts_and_restart_uses_round0() {
    // The tentpole robustness scenario: round 0 commits and the job
    // exits; after restart, rank 1's image write fails during round 1
    // (seeded storage fault). The coordinator must abort round 1 — every
    // rank hears Resume, not Exit, no hang, and the job finishes — and
    // gen_0 must survive untouched so a later restart still works.
    let n = 3;
    let total = 8u64;
    let work = |m: &mut mana_core::Mana<'_>| -> mana_core::Result<u64> {
        let w = m.comm_world();
        let mut step = m
            .upper()
            .read_value::<u64>("step")
            .transpose()?
            .unwrap_or(0);
        let mut acc = m.upper().read_value::<u64>("acc").transpose()?.unwrap_or(0);
        while step < total {
            if m.rank() == 0 && ((step == 2 && m.round() == 0) || (step == 5 && m.round() == 1)) {
                m.request_checkpoint()?;
            }
            let s = m.allreduce_t(w, ReduceOp::Sum, &[step * 10 + m.rank() as u64])?;
            acc += s[0];
            step += 1;
            m.upper_mut().write_value("step", &step);
            m.upper_mut().write_value("acc", &acc);
            m.step_commit()?;
        }
        Ok(acc)
    };

    // Reference: fault-free resume-mode run (it checkpoints too; resume
    // is transparent, so values are what a native run computes).
    let reference = ManaRuntime::new(n, cfg("r1fail_ref"))
        .with_world_cfg(wcfg())
        .run_fresh(work)
        .unwrap()
        .values();

    // Pass 1: checkpoint round 0 at the step-3 boundary, exit. gen_0 is
    // the committed baseline everything after must not lose.
    let mut config = cfg("r1fail");
    config.exit_after_ckpt = true;
    let dir = config.ckpt_dir.clone();
    let pass1 = ManaRuntime::new(n, config.clone())
        .with_world_cfg(wcfg())
        .run_fresh(work)
        .unwrap();
    assert!(pass1.all_checkpointed(), "{:?}", pass1.outcomes);
    assert_eq!(pass1.coord.rounds.len(), 1);
    assert_eq!(pass1.coord.rounds[0].round, 0);

    // Pass 2: restart from gen_0 with a dead disk on rank 1 armed for
    // round 1. The round must abort cleanly and the job run to the end.
    let mut spec = mpisim::FaultSpec::quiet();
    spec.storage = Some(mpisim::StorageFaultSpec {
        rank: 1,
        round: 1,
        kind: mpisim::StorageFaultKind::WriteError,
    });
    config.fault = Some(std::sync::Arc::new(mpisim::FaultPlan::new(0xF417, spec)));
    let pass2 = ManaRuntime::new(n, config)
        .with_world_cfg(wcfg())
        .run_restart(work)
        .unwrap();
    assert_eq!(pass2.restored_round, Some(0));
    assert!(pass2.all_finished(), "{:?}", pass2.outcomes);
    assert!(pass2.coord.rounds.is_empty(), "round 1 must not commit");
    assert_eq!(pass2.coord.aborted_rounds.len(), 1);
    assert_eq!(pass2.coord.aborted_rounds[0].round, 1);
    assert_eq!(pass2.coord.aborted_rounds[0].failures[0].0, 1);
    for (r, s) in pass2.rank_stats.iter().enumerate() {
        assert_eq!(s.ckpts, 1, "rank {r} froze round 1 and resumed");
    }
    assert_eq!(pass2.values(), reference);
    // On disk: round 0 committed and intact, round 1 scrapped.
    let sel = splitproc::store::select_generation(&dir, Some(n)).unwrap();
    assert_eq!(sel.round, 0, "round 1's failure must not cost round 0");
    assert!(sel.rejected.is_empty(), "no partial gen_1 left behind");

    // Pass 3: restart again, fault-free, from the surviving round-0
    // generation, and finish with native-identical results.
    let pass3 = ManaRuntime::new(
        n,
        ManaConfig {
            ckpt_dir: dir.clone(),
            ..env().mana
        },
    )
    .with_world_cfg(wcfg())
    .run_restart(work)
    .unwrap();
    assert_eq!(pass3.restored_round, Some(0));
    assert!(pass3.all_finished());
    assert_eq!(pass3.values(), reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_mode_write_failure_after_release_aborts_only_its_round() {
    // Resume mode releases the ranks once their images are frozen; the
    // coordinator's flush lands them afterwards. A dead disk on rank 1 in
    // round 1 fails that flush after every rank is running again: the
    // round is scrapped and reported, no rank is told, and the rounds
    // around it commit as usual.
    let n = 3;
    let total = 7u64;
    let config = cfg("resume_fail_after_release");
    let dir = config.ckpt_dir.clone();
    let mut spec = mpisim::FaultSpec::quiet();
    spec.storage = Some(mpisim::StorageFaultSpec {
        rank: 1,
        round: 1,
        kind: mpisim::StorageFaultKind::WriteError,
    });
    let config = ManaConfig {
        fault: Some(std::sync::Arc::new(mpisim::FaultPlan::new(0xF1A5, spec))),
        ..config
    };
    let report = ManaRuntime::new(n, config)
        .with_world_cfg(wcfg())
        .run_fresh(|m| {
            let w = m.comm_world();
            let mut acc = 0u64;
            for step in 0..total {
                // Rounds 0, 1, 2 at steps 1, 3, 5.
                if m.rank() == 0 && step % 2 == 1 && m.round() == step / 2 {
                    m.request_checkpoint()?;
                }
                let s = m.allreduce_t(w, ReduceOp::Sum, &[step * 10 + m.rank() as u64])?;
                acc += s[0];
            }
            Ok(acc)
        })
        .unwrap();
    let committed: Vec<u64> = report.coord.rounds.iter().map(|r| r.round).collect();
    assert_eq!(committed, [0, 2]);
    let aborted = &report.coord.aborted_rounds;
    assert_eq!(aborted.len(), 1);
    assert_eq!(aborted[0].round, 1);
    assert_eq!(aborted[0].failures.len(), 1);
    assert_eq!(aborted[0].failures[0].0, 1);
    for (r, s) in report.rank_stats.iter().enumerate() {
        assert_eq!(s.ckpts, 3, "rank {r} froze every round and resumed");
    }
    let native: u64 = (0..total)
        .map(|step| (0..n as u64).map(|r| step * 10 + r).sum::<u64>())
        .sum();
    assert_eq!(report.values(), vec![native; n]);
    // On disk: no trace of round 1; restart selects round 2.
    assert!(!splitproc::store::generation_dir(&dir, 1).exists());
    let sel = splitproc::store::select_generation(&dir, Some(n)).unwrap();
    assert_eq!(sel.round, 2);
    assert!(sel.rejected.is_empty(), "{:?}", sel.rejected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restart_falls_back_past_corrupt_newest_generation() {
    // A bit flip lands in the newest committed generation after the job
    // exits; restart must reject it by manifest CRC and fall back to the
    // older committed generation.
    let n = 2;
    let total = 6u64;
    let work = |m: &mut mana_core::Mana<'_>| -> mana_core::Result<u64> {
        let w = m.comm_world();
        let mut step = m
            .upper()
            .read_value::<u64>("step")
            .transpose()?
            .unwrap_or(0);
        let mut acc = m.upper().read_value::<u64>("acc").transpose()?.unwrap_or(0);
        while step < total {
            if m.rank() == 0 && ((step == 1 && m.round() == 0) || (step == 3 && m.round() == 1)) {
                m.request_checkpoint()?;
            }
            let s = m.allreduce_t(w, ReduceOp::Sum, &[step + m.rank() as u64])?;
            acc += s[0];
            step += 1;
            m.upper_mut().write_value("step", &step);
            m.upper_mut().write_value("acc", &acc);
            m.step_commit()?;
        }
        Ok(acc)
    };
    let reference = ManaRuntime::new(n, cfg("fallback_ref"))
        .with_world_cfg(wcfg())
        .run_fresh(work)
        .unwrap()
        .values();

    let mut config = cfg("fallback");
    config.exit_after_ckpt = true;
    let dir = config.ckpt_dir.clone();
    // Two checkpoint-and-exit legs commit gen_0 then gen_1 (the restarted
    // coordinator numbers its round after the restored generation).
    let pass1a = ManaRuntime::new(n, config.clone())
        .with_world_cfg(wcfg())
        .run_fresh(work)
        .unwrap();
    assert!(pass1a.all_checkpointed(), "{:?}", pass1a.outcomes);
    assert_eq!(pass1a.coord.rounds[0].round, 0);
    let pass1b = ManaRuntime::new(n, config)
        .with_world_cfg(wcfg())
        .run_restart(work)
        .unwrap();
    assert!(pass1b.all_checkpointed(), "{:?}", pass1b.outcomes);
    assert_eq!(pass1b.restored_round, Some(0));
    assert_eq!(pass1b.coord.rounds[0].round, 1);

    // Silent post-exit corruption of rank 0's image in gen_1. In flat
    // mode the `.mana` image itself is hit; in chunked mode the `.cref`
    // recipe is (its trailing CRC catches the flip) — either way the
    // damage is confined to gen_1, so gen_0 must still restore.
    let gen1 = splitproc::store::generation_dir(&dir, 1);
    let flat = splitproc::CkptImage::path_for(&gen1, 0);
    let victim = if flat.is_file() {
        flat
    } else {
        splitproc::Store::open(&dir, Default::default()).recipe_path(1, 0)
    };
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();

    let pass2 = ManaRuntime::new(
        n,
        ManaConfig {
            ckpt_dir: dir.clone(),
            ..env().mana
        },
    )
    .with_world_cfg(wcfg())
    .run_restart(work)
    .unwrap();
    assert_eq!(
        pass2.restored_round,
        Some(0),
        "must fall back past corrupt gen_1"
    );
    assert!(pass2.all_finished());
    assert_eq!(pass2.values(), reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resumed_restart_epoch_restores_from_the_images_it_revalidates() {
    // A coordinator died after journaling `GenValidated`: the next
    // restart resumes that epoch, re-validates the generation it vouched
    // for, and restores every rank from the images that validation read.
    use splitproc::journal::{self, Journal, JournalStep};
    let n = 4;
    let total = 8u64;
    let reference = ManaRuntime::new(n, cfg("resumed_epoch_ref"))
        .with_world_cfg(wcfg())
        .run_fresh(|m| step_workload(m, total))
        .unwrap()
        .values();
    let mut config = cfg("resumed_epoch");
    config.exit_after_ckpt = true;
    let dir = config.ckpt_dir.clone();
    let pass1 = ManaRuntime::new(n, config.clone())
        .with_world_cfg(wcfg())
        .run_fresh(|m| step_workload(m, total))
        .unwrap();
    assert!(pass1.all_checkpointed(), "{:?}", pass1.outcomes);
    let mut j = Journal::open(&dir).unwrap();
    let epoch = j.next_epoch();
    let intent = JournalStep::RestartIntent {
        gen: 0,
        failed: vec![],
    };
    j.append(epoch, intent).unwrap();
    j.append(epoch, JournalStep::GenValidated { gen: 0 })
        .unwrap();
    drop(j);

    let pass2 = ManaRuntime::new(n, config)
        .with_world_cfg(wcfg())
        .run_restart(|m| step_workload(m, total))
        .unwrap();
    assert_eq!(pass2.restored_round, Some(0));
    assert!(pass2.all_finished());
    assert_eq!(pass2.values(), reference);
    // The open epoch was resumed and committed, not superseded.
    let epochs = journal::replay_epochs(&journal::read_records(&dir).unwrap());
    assert_eq!(epochs.len(), 1);
    assert_eq!(epochs[0].epoch, epoch);
    assert!(epochs[0].committed);
    assert_eq!(epochs[0].restored.len(), n);
    std::fs::remove_dir_all(&dir).ok();
}

/// A request id the application saw retired before the cut stays dead
/// after the restart: new requests are numbered past it, so a stale copy
/// fails its lookup instead of aliasing a live request.
#[test]
fn restart_never_reissues_a_retired_request_id() {
    let n = 2;
    let mut config = cfg("vreq_reissue");
    config.exit_after_ckpt = true;
    let dir = config.ckpt_dir.clone();
    let work = |m: &mut mana_core::Mana<'_>| -> mana_core::Result<()> {
        let w = m.comm_world();
        let peer = 1 - m.rank();
        let Some(stale) = m.upper().read_value::<u64>("stale").transpose()? else {
            let mut retired = VReq(0);
            for tag in 0..3 {
                m.send(w, peer, tag, &[7])?;
                let mut r = m.irecv(w, SrcSel::Rank(peer), TagSel::Tag(tag))?;
                retired = r;
                m.wait(&mut r)?;
            }
            assert_eq!(m.live_requests(), 0);
            m.upper_mut().write_value("stale", &retired.0);
            if m.rank() == 0 {
                m.request_checkpoint()?;
            }
            return m.step_commit();
        };
        let mut fresh = m.irecv(w, SrcSel::Rank(peer), TagSel::Tag(9))?;
        assert!(fresh.0 > stale, "{fresh:?} re-issues retired id {stale}");
        match m.test(&mut VReq(stale)) {
            Err(mana_core::ManaError::InvalidVReq(v)) => assert_eq!(v, stale),
            other => panic!("stale request {stale} resolved: {other:?}"),
        }
        m.send(w, peer, 9, &[1])?;
        m.wait(&mut fresh)?;
        Ok(())
    };
    let pass1 = ManaRuntime::new(n, config.clone())
        .with_world_cfg(wcfg())
        .run_fresh(work)
        .unwrap();
    assert!(pass1.all_checkpointed());
    let pass2 = ManaRuntime::new(n, config)
        .with_world_cfg(wcfg())
        .run_restart(work)
        .unwrap();
    assert!(pass2.all_finished());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn alloc_mem_survives_checkpoint() {
    let n = 2;
    let mut config = cfg("alloc_mem");
    config.exit_after_ckpt = true;
    let dir = config.ckpt_dir.clone();
    let work = |m: &mut mana_core::Mana<'_>| -> mana_core::Result<u8> {
        let phase = m
            .upper()
            .read_value::<u64>("phase")
            .transpose()?
            .unwrap_or(0);
        if phase == 0 {
            // MPI_Alloc_mem → checkpointable upper-half memory (§III item 2).
            let h = m.alloc_mem(16);
            m.mem_mut(h)[3] = 0xAB;
            m.upper_mut().write_value("h", &h);
            m.upper_mut().write_value("phase", &1u64);
            if m.rank() == 0 {
                m.request_checkpoint()?;
            }
            m.step_commit()?;
        }
        let h = m.upper().read_value::<u64>("h").transpose()?.unwrap();
        let v = m.mem(h).unwrap()[3];
        assert!(m.free_mem(h));
        Ok(v)
    };
    ManaRuntime::new(n, config.clone())
        .with_world_cfg(wcfg())
        .run_fresh(work)
        .unwrap();
    let pass2 = ManaRuntime::new(n, config)
        .with_world_cfg(wcfg())
        .run_restart(work)
        .unwrap();
    assert_eq!(pass2.values(), vec![0xAB, 0xAB]);
    std::fs::remove_dir_all(&dir).ok();
}
