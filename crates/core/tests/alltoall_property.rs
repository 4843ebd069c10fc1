//! Property test: a checkpoint landing in the middle of an emulated
//! `MPI_Alltoall` must not change the buffers any rank receives.
//!
//! The interrupted run checkpoints while ranks are parked inside the
//! alltoall state machine (resume mode — in `exit_after_ckpt` mode the
//! checkpoint waits for a step boundary by design, so mid-collective
//! windows only exist when resuming). The drain captures whatever chunks
//! were in flight — including zero-length ones, which exercises the
//! per-message accounting in the §III-B row exchange — and the state
//! machines finish from their serialized position after the resume.

mod common;

use common::env;
use mana_core::{ManaConfig, ManaRuntime};
use mpisim::WorldCfg;
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

const N: usize = 3;

fn ckpt_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mana2_a2a_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn wcfg() -> WorldCfg {
    WorldCfg {
        watchdog: Some(Duration::from_secs(60)),
        ..env().world
    }
}

/// Two back-to-back alltoalls (the second proves the fabric and the emu
/// sequence numbers are healthy after the resume). `interrupt` makes rank
/// 0 request a checkpoint and stall so its peers park inside the first
/// alltoall before the intent is serviced.
type TwoRounds = (Vec<Vec<u8>>, Vec<Vec<u8>>);

fn run(chunks: &[Vec<Vec<u8>>], interrupt: bool, name: &str) -> (Vec<TwoRounds>, usize, Vec<u64>) {
    let dir = ckpt_dir(name);
    let rt = ManaRuntime::new(
        N,
        ManaConfig {
            ckpt_dir: dir.clone(),
            ..env().mana
        },
    )
    .with_world_cfg(wcfg());
    let chunks = chunks.to_vec();
    let report = rt
        .run_fresh(move |m| {
            let w = m.comm_world();
            let me = m.rank();
            if interrupt && me == 0 {
                // Let peers enter the alltoall and park mid-state-machine
                // (they need rank 0's chunks to finish), then land the
                // intent while they are parked.
                std::thread::sleep(Duration::from_millis(60));
                m.request_checkpoint()?;
            }
            let out1 = m.alltoall(w, &chunks[me])?;
            let rev: Vec<Vec<u8>> = chunks[me].iter().rev().cloned().collect();
            let out2 = m.alltoall(w, &rev)?;
            Ok((out1, out2))
        })
        .unwrap();
    let rounds = report.coord.rounds.len();
    let gids = report
        .coord
        .rounds
        .first()
        .map(|r| r.gids_in_flight.clone())
        .unwrap_or_default();
    let values = report.values();
    std::fs::remove_dir_all(&dir).ok();
    (values, rounds, gids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn checkpoint_mid_alltoall_preserves_buffers(
        sizes in proptest::collection::vec(0usize..48, N * N),
        fill in any::<u8>(),
    ) {
        // chunks[i][j]: what rank i sends to rank j. Sizes may be zero —
        // exactly the messages a byte-only drain would lose.
        let chunks: Vec<Vec<Vec<u8>>> = (0..N)
            .map(|i| {
                (0..N)
                    .map(|j| vec![fill ^ (i * 16 + j) as u8; sizes[i * N + j]])
                    .collect()
            })
            .collect();

        let (reference, ref_rounds, _) = run(&chunks, false, "ref");
        prop_assert_eq!(ref_rounds, 0, "reference run must not checkpoint");

        let (interrupted, rounds, gids) = run(&chunks, true, "ckpt");
        prop_assert_eq!(rounds, 1, "the interrupted run must checkpoint once");
        prop_assert!(
            !gids.is_empty(),
            "at least one rank must report being parked inside the collective"
        );
        prop_assert_eq!(&interrupted, &reference);

        // Both must match the analytic alltoall semantics: rank j's first
        // output is column j of the chunk matrix.
        for (j, (out1, _)) in reference.iter().enumerate() {
            for i in 0..N {
                prop_assert_eq!(&out1[i], &chunks[i][j]);
            }
        }
    }
}
