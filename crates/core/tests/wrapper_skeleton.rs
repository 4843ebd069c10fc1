//! The one wrapper skeleton (DESIGN §5, "one wrapper skeleton"): a wrapper
//! that fails closes its `DISABLE_CKPT` bracket, every wrapper charges
//! `wrapper_calls` what it always did, and the skeleton stays the only
//! place in `crates/core/src` that charges a call or opens the bracket.

mod common;

use common::env;
use mana_core::{FortranConstants, Mana, ManaConfig, Result, TpcMode, VComm, VREQ_NULL};
use mpisim::{Datatype, ReduceOp, SrcSel, TagSel};
use std::path::Path;
use std::time::Duration;

fn cfg(name: &str) -> ManaConfig {
    ManaConfig {
        ckpt_dir: std::env::temp_dir().join(format!("mana2_skel_{name}_{}", std::process::id())),
        ..env().mana
    }
}

/// Rank 1 fails one communicator call on a stale handle, then the job
/// checkpoints. A bracket left open by that failure makes rank 1 deaf to
/// checkpoint intent for good: it never reports Ready, rank 0 waits for
/// Go, and the job hangs until the coordinator gives up 120 s later — so
/// the run gets two seconds on a thread of its own.
fn checkpoint_after_failed_call(name: &'static str, fail: fn(&mut Mana<'_>) -> bool) {
    let config = cfg(name);
    let dir = config.ckpt_dir.clone();
    let (done, run) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let report = env().runtime(2, config).run_fresh(move |m| {
            let w = m.comm_world();
            if m.rank() == 1 {
                assert!(fail(m), "the stale handle must be refused");
            }
            m.barrier(w)?;
            if m.rank() == 0 {
                m.request_checkpoint()?;
            }
            let mut sum = 0;
            for i in 0..4u64 {
                sum += m.allreduce_t(w, ReduceOp::Sum, &[i])?[0];
            }
            Ok(sum)
        });
        let _ = done.send(report);
    });
    let report = run
        .recv_timeout(Duration::from_secs(2))
        .unwrap_or_else(|_| panic!("{name}: no checkpoint after 2 s; rank 1 ignores intent"))
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(report.coord.rounds.len(), 1, "the checkpoint ran");
    assert!(report.rank_stats.iter().all(|s| s.ckpts == 1));
    assert_eq!(report.values(), vec![12, 12]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_comm_dup_does_not_disable_checkpointing() {
    checkpoint_after_failed_call("dup", |m| m.comm_dup(VComm(9999)).is_err());
}

#[test]
fn failed_comm_split_does_not_disable_checkpointing() {
    checkpoint_after_failed_call("split", |m| m.comm_split(VComm(9999), 0, 0).is_err());
}

/// A refused non-blocking collective must not leave an op in the table: no
/// request points at it and the image-write invariants reject it, so the
/// checkpoint after it would abort.
#[test]
fn failed_ibarrier_leaves_nothing_in_flight() {
    checkpoint_after_failed_call("ibarrier", |m| {
        m.ibarrier(VComm(9999)).is_err() && m.live_collops() == 0
    });
}

/// The same on a handle that was live once: a freed communicator keeps its
/// record, so it gets as far as the op's first send before it is refused.
#[test]
fn failed_iallreduce_on_freed_comm_leaves_nothing_in_flight() {
    let config = cfg("freed");
    let dir = config.ckpt_dir.clone();
    let report = env()
        .runtime(1, config)
        .run_fresh(|m| {
            let w = m.comm_world();
            let dup = m.comm_dup(w)?;
            m.comm_free(dup)?;
            let refused = m.iallreduce(dup, Datatype::U8, ReduceOp::Sum, &[1]);
            assert!(refused.is_err(), "the freed handle must be refused");
            assert_eq!(m.live_collops(), 0);
            m.request_checkpoint()?;
            m.barrier(w)
        })
        .expect("the checkpoint after the refused call goes through");
    assert_eq!(report.rank_stats[0].ckpts, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_blocking_barrier_leaves_nothing_in_flight() {
    checkpoint_after_failed_call("barrier", |m| {
        m.barrier(VComm(9999)).is_err() && m.live_collops() == 0
    });
}

/// One table row: wrapper, `wrapper_calls` charged, lower-half jumps made.
type Row = (&'static str, u64, u64);

/// What one `call` adds to `wrapper_calls` and to `lh_jumps`.
fn charge<T>(
    m: &mut Mana<'_>,
    call: impl FnOnce(&mut Mana<'_>) -> Result<T>,
) -> Result<(u64, u64, T)> {
    let before = m.stats();
    let out = call(m)?;
    let after = m.stats();
    let calls = after.wrapper_calls - before.wrapper_calls;
    Ok((calls, after.lh_jumps - before.lh_jumps, out))
}

/// One call of every wrapper on a 1-rank world (so nothing depends on
/// timing: every message is already there when it is asked for), as
/// [`Row`]s.
fn charges(m: &mut Mana<'_>) -> Result<Vec<Row>> {
    let w = m.comm_world();
    let me = SrcSel::Rank(0);
    let mut t = Vec::new();
    macro_rules! row {
        ($name:expr, $call:expr) => {{
            let (calls, jumps, out) = charge(m, $call)?;
            t.push(($name, calls, jumps));
            out
        }};
    }
    row!("comm_rank", |m| m.comm_rank(w));
    row!("comm_size", |m| m.comm_size(w));
    let dup = row!("comm_dup", |m| m.comm_dup(w));
    let split = row!("comm_split", |m| m.comm_split(w, 0, 0));
    row!("comm_free", |m| m.comm_free(dup));
    row!("comm_free", |m| m.comm_free(split.expect("member")));
    let mut s = row!("isend", |m| m.isend(w, 0, 1, b"x"));
    row!("test(sent)", |m| m.test(&mut s));
    let mut null = VREQ_NULL;
    row!("test(VREQ_NULL)", |m| m.test(&mut null));
    row!("iprobe", |m| m.iprobe(w, me, TagSel::Any));
    let mut r = row!("irecv", |m| m.irecv(w, me, TagSel::Tag(1)));
    row!("test(arrived)", |m| m.test(&mut r));
    row!("send", |m| m.send(w, 0, 2, b"y"));
    row!("recv", |m| m.recv(w, me, TagSel::Tag(2)));
    let mut pair = [m.isend(w, 0, 3, b"z")?, m.irecv(w, me, TagSel::Tag(3))?];
    row!("waitany", |m| m.waitany(&mut pair));
    row!("testall", |m| m.testall(&mut pair));
    let mem = row!("alloc_mem", |m| Ok(m.alloc_mem(8)));
    row!("free_mem", |m| Ok(m.free_mem(mem)));
    let win = row!("win_create", |m| m.win_create(w, 8));
    row!("win_fence", |m| m.win_fence(win));
    row!("win_put", |m| m.win_put(win, 0, 0, &[1]));
    row!("win_get", |m| m.win_get(win, 0, 0, 1));
    row!("win_accumulate", |m| {
        m.win_accumulate(win, 0, 0, Datatype::U8, ReduceOp::Sum, &[1])
    });
    row!("win_free", |m| m.win_free(win));
    row!("barrier", |m| m.barrier(w));
    row!("bcast", |m| m.bcast(w, 0, &mut vec![1]));
    row!("reduce", |m| {
        m.reduce(w, 0, Datatype::U8, ReduceOp::Sum, &[1])
    });
    row!("allreduce", |m| {
        m.allreduce(w, Datatype::U8, ReduceOp::Sum, &[1])
    });
    row!("alltoall", |m| m.alltoall(w, &[vec![1]]));
    row!("gather", |m| m.gather(w, 0, &[1]));
    row!("allgather", |m| m.allgather(w, &[1]));
    let fc = FortranConstants::discover();
    row!("f_allreduce", |m| {
        m.f_allreduce(&fc, 0, Some(&[1.0]), &[0.0], w, ReduceOp::Sum)
    });
    let mut ib = row!("ibarrier", |m| m.ibarrier(w));
    row!("wait(ibarrier)", |m| m.wait(&mut ib));
    let mut nb = [
        row!("ibcast", |m| m.ibcast(w, 0, vec![1])),
        row!("iallreduce", |m| {
            m.iallreduce(w, Datatype::U8, ReduceOp::Sum, &[1])
        }),
        row!("iallgather", |m| m.iallgather(w, &[1])),
    ];
    row!("waitall(3)", |m| m.waitall(&mut nb));
    row!("compute", |m| m.compute(10_000));
    row!("park", |m| m.park(Duration::from_micros(1)));
    row!("step_commit", |m| m.step_commit());
    Ok(t)
}

/// Charges and jumps as they were at the parent of the skeleton (PR 20),
/// where each wrapper counted itself. The chaos fault trigger and every
/// committed `CHAOS_CASE` seed key on `wrapper_calls`; the jumps are the
/// timing-free form of the benchmark's `core.wrapper.lh_jumps_per_call`.
#[test]
fn every_wrapper_charges_what_it_always_did() {
    let one = |name: &str, tpc: TpcMode, exit_after_ckpt: bool| -> Vec<Row> {
        let config = ManaConfig {
            tpc,
            exit_after_ckpt,
            ..cfg(name)
        };
        let report = env().runtime(1, config).run_fresh(charges).unwrap();
        report.values().remove(0)
    };
    let expected = vec![
        ("comm_rank", 0, 0),
        ("comm_size", 0, 0),
        ("comm_dup", 1, 1),
        ("comm_split", 1, 2),
        ("comm_free", 1, 1),
        ("comm_free", 1, 1),
        ("isend", 1, 1),
        ("test(sent)", 1, 1),
        ("test(VREQ_NULL)", 0, 0),
        ("iprobe", 1, 1),
        ("irecv", 1, 1),
        ("test(arrived)", 1, 1),
        ("send", 2, 2),
        ("recv", 2, 2),
        ("waitany", 1, 1),
        ("testall", 1, 2),
        ("alloc_mem", 1, 0),
        ("free_mem", 1, 0),
        ("win_create", 1, 1),
        ("win_fence", 1, 1),
        ("win_put", 1, 1),
        ("win_get", 1, 1),
        ("win_accumulate", 1, 1),
        ("win_free", 1, 1),
        ("barrier", 1, 1),
        ("bcast", 1, 1),
        ("reduce", 1, 1),
        ("allreduce", 1, 1),
        ("alltoall", 1, 1),
        ("gather", 1, 1),
        ("allgather", 1, 1),
        ("f_allreduce", 1, 1),
        ("ibarrier", 1, 1),
        ("wait(ibarrier)", 1, 0),
        ("ibcast", 1, 1),
        ("iallreduce", 1, 1),
        ("iallgather", 1, 1),
        ("waitall(3)", 3, 0),
        ("compute", 0, 0),
        ("park", 0, 0),
        ("step_commit", 1, 0),
    ];
    assert_eq!(one("hybrid", TpcMode::Hybrid, false), expected);
    // The phase-1 barrier of Original 2PC is not a wrapper call.
    assert_eq!(one("original", TpcMode::Original, false), expected);
    // In exit mode a step boundary votes with one allreduce.
    let exit_mode: Vec<_> = expected
        .iter()
        .map(|&(name, calls, jumps)| match name {
            "step_commit" => (name, calls + 1, jumps + 1),
            _ => (name, calls, jumps),
        })
        .collect();
    assert_eq!(one("exit", TpcMode::Hybrid, true), exit_mode);
}

#[test]
fn only_the_skeleton_charges_a_call_or_opens_the_bracket() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let (mut charges, mut brackets, mut hand_rolled) = (Vec::new(), Vec::new(), Vec::new());
    for entry in std::fs::read_dir(&src).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let library = text
            .lines()
            .enumerate()
            .take_while(|(_, l)| !l.trim_start().starts_with("#[cfg(test)]"));
        for (i, line) in library {
            let at = format!("{name}:{}: {}", i + 1, line.trim());
            let squeezed: String = line.split_whitespace().collect();
            if squeezed.contains("wrapper_calls+=") {
                charges.push(at);
            } else if squeezed.contains("::with_commit(") {
                brackets.push(at);
            } else if squeezed.contains("commit.enter(") || squeezed.contains("commit.exit(") {
                hand_rolled.push(at);
            }
        }
    }
    assert_eq!(charges.len(), 1, "Mana::wrapper charges:\n{charges:#?}");
    assert_eq!(brackets.len(), 1, "Mana::wrapper brackets:\n{brackets:#?}");
    assert!(charges[0].starts_with("mana.rs:") && brackets[0].starts_with("mana.rs:"));
    assert!(hand_rolled.is_empty(), "{hand_rolled:#?}");
}
