//! Quickstart: run a tiny MPI program under MANA-2.0, checkpoint it
//! mid-flight, kill it, and restart it from the images.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use mana2::mana_core::{from_env, ConfigError, ManaConfig};
use mana2::mpisim::{ReduceOp, SrcSel, TagSel};

fn main() -> Result<(), ConfigError> {
    // Engine, drain and store layout come from the MANA2_* environment; a
    // value that does not parse ends the run here, before any rank starts.
    let env = from_env()?;
    let n = 4;
    let dir = std::env::temp_dir().join("mana2_quickstart");
    let _ = std::fs::remove_dir_all(&dir);

    // The application: a step loop mixing p2p ring traffic with an
    // allreduce, keeping its progress in checkpointable upper-half memory.
    let app = |m: &mut mana2::mana_core::Mana<'_>| -> mana2::mana_core::Result<u64> {
        let world = m.comm_world();
        let n = m.world_size();
        let me = m.rank();
        let mut step = m
            .upper()
            .read_value::<u64>("step")
            .transpose()?
            .unwrap_or(0);
        let mut acc = m.upper().read_value::<u64>("acc").transpose()?.unwrap_or(0);
        while step < 10 {
            // Ring: pass a token right.
            m.send_t(world, (me + 1) % n, 7, &[step * 100 + me as u64])?;
            let (_st, token) =
                m.recv_t::<u64>(world, SrcSel::Rank((me + n - 1) % n), TagSel::Tag(7))?;
            // Global sum of the received tokens.
            let sum = m.allreduce_t(world, ReduceOp::Sum, &token)?;
            acc += sum[0];
            // Ask for a checkpoint-and-kill at step 5 (first pass only).
            if step == 5 && me == 0 && m.round() == 0 {
                m.request_checkpoint()?;
            }
            step += 1;
            m.upper_mut().write_value("step", &step);
            m.upper_mut().write_value("acc", &acc);
            m.step_commit()?; // checkpoint location (exit-after-ckpt mode)
        }
        Ok(acc)
    };

    let cfg = ManaConfig {
        ckpt_dir: dir.clone(),
        exit_after_ckpt: true,
        ..env.mana.clone()
    };

    println!("=== pass 1: run fresh, checkpoint at step 6, exit ===");
    let pass1 = env.runtime(n, cfg.clone()).run_fresh(app).unwrap();
    println!(
        "  outcomes: {:?}",
        pass1
            .outcomes
            .iter()
            .map(|o| if o.is_checkpointed() { "ckpt" } else { "done" })
            .collect::<Vec<_>>()
    );
    for r in &pass1.coord.rounds {
        println!(
            "  round {}: quiesce {:?}, write {:?}, images {} bytes total",
            r.round, r.quiesce, r.write, r.total_image_bytes
        );
    }

    println!("=== pass 2: restart from {} ===", dir.display());
    let pass2 = env.runtime(n, cfg).run_restart(app).unwrap();
    let values = pass2.values();
    println!("  final per-rank results: {values:?}");

    // Sanity: an uninterrupted run must agree.
    let reference = env
        .runtime(
            n,
            ManaConfig {
                ckpt_dir: std::env::temp_dir().join("mana2_quickstart_ref"),
                ..env.mana.clone()
            },
        )
        .run_fresh(app)
        .unwrap()
        .values();
    assert_eq!(values, reference, "restart must be transparent");
    println!("  transparent: restart result == uninterrupted result ✓");
    println!(
        "  images kept in {} — inspect with: cargo run -p splitproc --bin mana2-inspect -- {}",
        dir.display(),
        dir.display()
    );
    Ok(())
}
