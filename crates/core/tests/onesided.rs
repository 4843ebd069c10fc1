//! One-sided (`MPI_Win_*`) checkpoint/restart integration tests — the
//! paper's roadmap item (§II-B) implemented and verified.

mod common;

use common::env;
use mana_core::{ManaConfig, ManaRuntime, VWin};
use mpisim::{Datatype, ReduceOp, WorldCfg};
use std::path::PathBuf;
use std::time::Duration;

fn ckpt_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mana2_win_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn wcfg() -> WorldCfg {
    WorldCfg {
        watchdog: Some(Duration::from_secs(60)),
        ..env().world
    }
}

#[test]
fn rma_ring_under_mana() {
    let n = 4;
    let rt = ManaRuntime::new(
        n,
        ManaConfig {
            ckpt_dir: ckpt_dir("ring"),
            ..env().mana
        },
    )
    .with_world_cfg(wcfg());
    let out = rt
        .run_fresh(|m| {
            let w = m.comm_world();
            let win = m.win_create(w, 8)?;
            m.win_fence(win)?;
            let right = (m.rank() + 1) % m.world_size();
            m.win_put(win, right, 0, &[m.rank() as u8 + 1])?;
            m.win_fence(win)?;
            let got = m.win_get(win, m.rank(), 0, 1)?[0];
            m.win_fence(win)?;
            m.win_free(win)?;
            assert_eq!(m.live_wins(), 0);
            Ok(got as usize)
        })
        .unwrap()
        .values();
    assert_eq!(out, vec![4, 1, 2, 3]);
}

#[test]
fn window_contents_survive_resume_checkpoint() {
    let n = 3;
    let dir = ckpt_dir("resume");
    let rt = ManaRuntime::new(
        n,
        ManaConfig {
            ckpt_dir: dir.clone(),
            ..env().mana
        },
    )
    .with_world_cfg(wcfg());
    let report = rt
        .run_fresh(|m| {
            let w = m.comm_world();
            let win = m.win_create(w, 16)?;
            m.win_put(win, m.rank(), 0, &[0xC0 | m.rank() as u8])?;
            m.win_fence(win)?;
            if m.rank() == 0 {
                m.request_checkpoint()?;
            }
            m.barrier(w)?; // checkpoint lands here
                           // Post-resume: contents intact, RMA still works.
            let mine = m.win_get(win, m.rank(), 0, 1)?[0];
            assert_eq!(mine, 0xC0 | m.rank() as u8);
            m.win_accumulate(
                win,
                (m.rank() + 1) % m.world_size(),
                8,
                Datatype::U64,
                ReduceOp::Sum,
                &mpisim::encode_slice(&[1u64]),
            )?;
            m.win_fence(win)?;
            let counter = m.win_get(win, m.rank(), 8, 8)?;
            Ok(u64::from_le_bytes(counter[..8].try_into().unwrap()))
        })
        .unwrap();
    assert_eq!(report.coord.rounds.len(), 1);
    assert_eq!(report.values(), vec![1, 1, 1]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn window_contents_survive_restart() {
    // The full roadmap scenario: window created and filled, checkpoint-
    // and-kill, restart rebuilds the window over the rebuilt communicator
    // and restores every rank's region.
    let n = 3;
    let dir = ckpt_dir("restart");
    let cfg = ManaConfig {
        ckpt_dir: dir.clone(),
        exit_after_ckpt: true,
        ..env().mana
    };
    let work = |m: &mut mana_core::Mana<'_>| -> mana_core::Result<Vec<u8>> {
        let w = m.comm_world();
        let phase = m
            .upper()
            .read_value::<u64>("phase")
            .transpose()?
            .unwrap_or(0);
        if phase == 0 {
            let win = m.win_create(w, 4)?;
            // Everyone writes into everyone (offset = my rank).
            m.win_fence(win)?;
            for t in 0..m.world_size() {
                m.win_put(win, t, m.rank(), &[(10 * m.rank()) as u8 + t as u8])?;
            }
            m.win_fence(win)?;
            m.upper_mut().write_value("win", &win.0);
            m.upper_mut().write_value("phase", &1u64);
            if m.rank() == 0 {
                m.request_checkpoint()?;
            }
            m.step_commit()?; // checkpoint-and-kill here
        }
        let win = VWin(m.upper().read_value::<u64>("win").transpose()?.unwrap());
        // After restart: the stable virtual id still resolves, and the
        // region holds what peers put there before the checkpoint.
        let mine = m.win_get(win, m.rank(), 0, m.world_size())?;
        m.win_fence(win)?;
        m.win_free(win)?;
        Ok(mine)
    };
    let pass1 = ManaRuntime::new(n, cfg.clone())
        .with_world_cfg(wcfg())
        .run_fresh(work)
        .unwrap();
    assert!(pass1.all_checkpointed());
    let pass2 = ManaRuntime::new(n, cfg)
        .with_world_cfg(wcfg())
        .run_restart(work)
        .unwrap();
    let vals = pass2.values();
    for (me, row) in vals.iter().enumerate() {
        for (src, &b) in row.iter().enumerate() {
            assert_eq!(b, (10 * src + me) as u8, "rank {me} slot {src}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rma_out_of_bounds_is_reported() {
    let rt = ManaRuntime::new(
        1,
        ManaConfig {
            ckpt_dir: ckpt_dir("oob"),
            ..env().mana
        },
    )
    .with_world_cfg(wcfg());
    rt.run_fresh(|m| {
        let w = m.comm_world();
        let win = m.win_create(w, 2)?;
        assert!(m.win_put(win, 0, 1, &[0u8; 4]).is_err());
        assert!(m.win_get(win, 0, 0, 3).is_err());
        m.win_free(win)?;
        Ok(())
    })
    .unwrap();
}
