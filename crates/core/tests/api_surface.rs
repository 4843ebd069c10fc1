//! Coverage of the wider MANA API surface: waitany/testall over virtual
//! requests, Fortran-shim entry points, iprobe, and table hygiene.

mod common;

use common::env;
use mana_core::{FortranConstants, ManaConfig, ManaRuntime, NamedConstant};
use mpisim::{ReduceOp, SrcSel, TagSel, WorldCfg};
use std::time::Duration;

fn rt(name: &str, n: usize) -> ManaRuntime {
    ManaRuntime::new(
        n,
        ManaConfig {
            ckpt_dir: std::env::temp_dir().join(format!("mana2_api_{name}_{}", std::process::id())),
            ..env().mana
        },
    )
    .with_world_cfg(WorldCfg {
        watchdog: Some(Duration::from_secs(30)),
        ..env().world
    })
}

#[test]
fn waitany_over_virtual_requests() {
    let out = rt("waitany", 3)
        .run_fresh(|m| {
            let w = m.comm_world();
            if m.rank() == 0 {
                let r1 = m.irecv(w, SrcSel::Rank(1), TagSel::Tag(1))?;
                let r2 = m.irecv(w, SrcSel::Rank(2), TagSel::Tag(2))?;
                let mut reqs = [r1, r2];
                let (i, c) = m.waitany(&mut reqs)?;
                assert!(reqs[i].is_null(), "completed slot nulled");
                let first = c.data[0];
                let (_j, c2) = m.waitany(&mut reqs)?;
                assert!(reqs.iter().all(|r| r.is_null()));
                assert_eq!(m.live_requests(), 0);
                Ok(first as u64 + c2.data[0] as u64)
            } else {
                m.send(w, 0, m.rank() as i32, &[m.rank() as u8 * 7])?;
                Ok(0)
            }
        })
        .unwrap()
        .values();
    assert_eq!(out[0], 7 + 14);
}

#[test]
fn testall_all_or_nothing_virtual() {
    rt("testall", 2)
        .run_fresh(|m| {
            let w = m.comm_world();
            if m.rank() == 0 {
                let r1 = m.irecv(w, SrcSel::Rank(1), TagSel::Tag(1))?;
                let r2 = m.irecv(w, SrcSel::Rank(1), TagSel::Tag(2))?;
                let mut reqs = [r1, r2];
                // Second message is gated on our go-signal: testall must
                // keep returning None without consuming the first.
                let mut saw_none = false;
                for _ in 0..50 {
                    if m.testall(&mut reqs)?.is_none() {
                        saw_none = true;
                        break;
                    }
                }
                assert!(saw_none);
                assert_eq!(m.live_requests(), 2);
                m.send(w, 1, 3, &[0])?;
                loop {
                    if let Some(cs) = m.testall(&mut reqs)? {
                        assert_eq!(cs.len(), 2);
                        assert!(reqs.iter().all(|r| r.is_null()));
                        assert_eq!(m.live_requests(), 0);
                        break;
                    }
                    m.park(Duration::from_millis(1))?;
                }
            } else {
                m.send(w, 0, 1, &[1])?;
                let _ = m.recv(w, SrcSel::Rank(0), TagSel::Tag(3))?;
                m.send(w, 0, 2, &[2])?;
            }
            Ok(())
        })
        .unwrap();
}

#[test]
fn fortran_in_place_allreduce() {
    let out = rt("f_inplace", 4)
        .run_fresh(|m| {
            let fc = FortranConstants::discover();
            let w = m.comm_world();
            let mine = [m.rank() as f64 + 1.0];
            // Fortran caller passing MPI_IN_PLACE: sendbuf address IS the
            // named constant; recvbuf holds the contribution.
            let got = m.f_allreduce(
                &fc,
                fc.address_of(NamedConstant::InPlace),
                None,
                &mine,
                w,
                ReduceOp::Sum,
            )?;
            Ok(got[0])
        })
        .unwrap()
        .values();
    assert_eq!(out, vec![10.0; 4]);
}

#[test]
fn fortran_status_ignore_recv() {
    rt("f_status", 2)
        .run_fresh(|m| {
            let fc = FortranConstants::discover();
            let w = m.comm_world();
            if m.rank() == 0 {
                m.send(w, 1, 4, &[9])?;
            } else {
                let (st, data) = m.f_recv(
                    &fc,
                    w,
                    SrcSel::Rank(0),
                    TagSel::Tag(4),
                    fc.address_of(NamedConstant::StatusIgnore),
                )?;
                assert!(st.is_none(), "status ignored");
                assert_eq!(data, vec![9]);
                // A real (stack) address: status delivered.
                m.send(w, 1, 5, &[8])?; // self-send for the second recv
                let local = 0u64;
                let (st, _d) = m.f_recv(
                    &fc,
                    w,
                    SrcSel::Rank(1),
                    TagSel::Tag(5),
                    &local as *const u64 as usize,
                )?;
                assert!(st.is_some());
            }
            Ok(())
        })
        .unwrap();
}

#[test]
fn iprobe_sees_drain_buffer_after_checkpoint() {
    rt("iprobe_drain", 2)
        .run_fresh(|m| {
            let w = m.comm_world();
            if m.rank() == 0 {
                m.send(w, 1, 6, &[1, 2, 3])?;
                m.request_checkpoint()?;
                m.barrier(w)?;
                Ok(0)
            } else {
                m.barrier(w)?; // message drained during the checkpoint here
                               // iprobe must surface the buffered message.
                let st = m.iprobe(w, SrcSel::Rank(0), TagSel::Tag(6))?;
                let st = st.expect("drained message visible to iprobe");
                assert_eq!(st.len, 3);
                let (_, data) = m.recv(w, SrcSel::Rank(0), TagSel::Tag(6))?;
                assert_eq!(data, vec![1, 2, 3]);
                Ok(1)
            }
        })
        .unwrap();
}
