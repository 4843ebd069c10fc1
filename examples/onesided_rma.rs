//! One-sided communication under MANA — the paper's roadmap item
//! (§II-B: "support for the MPI_Win_ family is on the roadmap of MANA";
//! §IV-B: VASP 6 had to disable it) implemented end-to-end: RMA windows
//! are virtualized, their contents are checkpointed, and a restart
//! rebuilds them over the rebuilt communicators.
//!
//! ```text
//! cargo run --example onesided_rma
//! ```

use mana2::mana_core::{from_env, ConfigError, ManaConfig, VWin};
use mana2::mpisim::{Datatype, ReduceOp};

fn main() -> Result<(), ConfigError> {
    // Engine, drain and store layout come from the MANA2_* environment; a
    // value that does not parse ends the run here, before any rank starts.
    let env = from_env()?;
    let n = 4;
    let dir = std::env::temp_dir().join("mana2_rma_demo");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ManaConfig {
        ckpt_dir: dir.clone(),
        exit_after_ckpt: true,
        ..env.mana.clone()
    };

    // A one-sided "histogram" app: every rank accumulates into every
    // other rank's window slot, with a checkpoint-kill-restart in the
    // middle of the epoch sequence.
    let app = |m: &mut mana2::mana_core::Mana<'_>| -> mana2::mana_core::Result<u64> {
        let w = m.comm_world();
        let phase = m
            .upper()
            .read_value::<u64>("phase")
            .transpose()?
            .unwrap_or(0);
        if phase == 0 {
            let win = m.win_create(w, 8)?;
            m.win_fence(win)?;
            // Epoch 1: everyone adds (rank+1) to everyone's counter.
            for t in 0..m.world_size() {
                m.win_accumulate(
                    win,
                    t,
                    0,
                    Datatype::U64,
                    ReduceOp::Sum,
                    &mana2::mpisim::encode_slice(&[(m.rank() + 1) as u64]),
                )?;
            }
            m.win_fence(win)?;
            m.upper_mut().write_value("win", &win.0);
            m.upper_mut().write_value("phase", &1u64);
            if m.rank() == 0 {
                m.request_checkpoint()?;
            }
            m.step_commit()?; // ← checkpoint-and-kill between epochs
        }
        // Epoch 2 (after restart): double everyone's counter again.
        let win = VWin(m.upper().read_value::<u64>("win").transpose()?.unwrap());
        // Open the next access epoch (also the synchronization point that
        // guarantees every restarted rank has its window rebuilt).
        m.win_fence(win)?;
        for t in 0..m.world_size() {
            m.win_accumulate(
                win,
                t,
                0,
                Datatype::U64,
                ReduceOp::Sum,
                &mana2::mpisim::encode_slice(&[(m.rank() + 1) as u64]),
            )?;
        }
        m.win_fence(win)?;
        let bytes = m.win_get(win, m.rank(), 0, 8)?;
        m.win_fence(win)?;
        m.win_free(win)?;
        Ok(u64::from_le_bytes(bytes[..8].try_into().unwrap()))
    };

    println!("pass 1: accumulate epoch, checkpoint-and-kill between fences");
    let pass1 = env.runtime(n, cfg.clone()).run_fresh(app).unwrap();
    assert!(pass1.all_checkpointed());
    println!(
        "  all ranks checkpointed; image bytes total: {}",
        pass1.coord.rounds[0].total_image_bytes
    );

    println!("pass 2: restart — windows rebuilt, contents restored, epoch 2 runs");
    let pass2 = env.runtime(n, cfg).run_restart(app).unwrap();
    let vals = pass2.values();
    // Two epochs of Σ(rank+1) = 2 * (1+2+3+4) = 20 in every counter.
    println!("  per-rank counters: {vals:?}");
    assert_eq!(vals, vec![20, 20, 20, 20]);
    println!("  window contents correct across checkpoint/restart ✓");
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
