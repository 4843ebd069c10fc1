//! Pluggable quiesce protocols for the checkpoint window.
//!
//! The checkpoint drain — the step that pulls every in-flight message out
//! of the network before an image is written (paper §III-B) — used to be
//! hard-wired into `mana_ckpt`/`mana_coll`. It is now a [`DrainStrategy`]
//! with three implementations:
//!
//! * [`AlltoallDrain`] — MANA-2.0's protocol: one `MPI_Alltoall` of
//!   per-pair sent-byte rows, then purely local sweeps until the deficits
//!   reach zero.
//! * [`CoordinatorDrain`] — the original MANA baseline: global totals
//!   round-tripped through the centralized coordinator until they balance.
//! * [`TopoSortDrain`] — the 2024 follow-up (arXiv 2408.02218): each rank
//!   ships its sent/received rows to the coordinator once; the
//!   coordinator topologically orders the in-flight send→receive
//!   dependency graph and answers with each rank's exact expected-bytes
//!   column. The count exchange costs two coordinator messages per rank
//!   instead of the alltoall's O(n²) fabric traffic, and — because the
//!   quiesce never runs a collective — no collective-emulation machinery
//!   or pre-collective 2PC barrier is needed at all.
//!
//! Strategy selection is [`crate::config::ManaConfig::drain`], overridable
//! with `MANA2_DRAIN=alltoall|toposort|coordinator`.

use crate::config::{DrainMode, TpcMode};
use crate::coordinator::{CoordMsg, RankMsg};
use crate::error::{ManaError, Result};
use crate::ids::{VComm, VCOMM_WORLD};
use crate::mana::Mana;
use obs::metrics as met;
use obs::{EventKind, Phase};

/// A checkpoint-window quiesce protocol. `quiesce` runs after `Go` and
/// must return only when this rank's share of the network is empty (every
/// in-flight message addressed to it captured); `pre_collective` is the
/// strategy's hook in front of every blocking collective, where the
/// alltoall-family protocols place their `TpcMode::Original` barrier.
pub trait DrainStrategy: Sync {
    /// Stable short name (metrics/artifact label).
    fn name(&self) -> &'static str;

    /// Drain the network for this rank (called with every rank parked).
    fn quiesce(&self, m: &mut Mana<'_>) -> Result<()>;

    /// Hook before every blocking collective. The default honors the
    /// configured two-phase-commit mode: `TpcMode::Original` prepends the
    /// interruptible barrier, `Hybrid` does nothing.
    fn pre_collective(&self, m: &mut Mana<'_>, vc: VComm) -> Result<()> {
        if m.cfg.tpc == TpcMode::Original {
            m.tpc_barrier(vc)?;
        }
        Ok(())
    }
}

/// Resolve the configured [`DrainMode`] to its strategy implementation.
pub fn strategy_for(mode: DrainMode) -> &'static dyn DrainStrategy {
    match mode {
        DrainMode::Alltoall => &AlltoallDrain,
        DrainMode::Coordinator => &CoordinatorDrain,
        DrainMode::TopoSort => &TopoSortDrain,
    }
}

/// The per-strategy quiesce-latency histogram.
pub(crate) fn quiesce_hist(mode: DrainMode) -> met::MetricId {
    match mode {
        DrainMode::Alltoall => met::DRAIN_ALLTOALL_QUIESCE_NS,
        DrainMode::Coordinator => met::DRAIN_COORDINATOR_QUIESCE_NS,
        DrainMode::TopoSort => met::DRAIN_TOPOSORT_QUIESCE_NS,
    }
}

/// The per-strategy completed-quiesce counter.
pub(crate) fn rounds_counter(mode: DrainMode) -> met::MetricId {
    match mode {
        DrainMode::Alltoall => met::DRAIN_ROUNDS_ALLTOALL,
        DrainMode::Coordinator => met::DRAIN_ROUNDS_COORDINATOR,
        DrainMode::TopoSort => met::DRAIN_ROUNDS_TOPOSORT,
    }
}

/// Sweep until every per-peer deficit against `expected` reaches zero.
/// Shared by every strategy that knows its exact expected column
/// (`u64::MAX` entries model the coordinator drain's "everything
/// receivable" sweeps).
fn sweep_until_settled(m: &mut Mana<'_>, expected: &[u64]) -> Result<()> {
    let mut sweep = 0;
    while m.p2p.deficits(expected).iter().any(|&d| d != 0) {
        sweep += 1;
        one_sweep(m, sweep, expected)?;
    }
    Ok(())
}

/// Sweep number `sweep` of this round's drain, as one `Drain` span.
fn one_sweep(m: &mut Mana<'_>, sweep: u32, expected: &[u64]) -> Result<()> {
    m.stats.drain_sweeps += 1;
    let span = m.tel.begin(m.round as i64 - 1, Phase::Drain { sweep });
    let progress = m.drain_sweep(expected)?;
    m.tel.end(span);
    if !progress {
        // Nothing receivable this instant: the bytes are in transit
        // between another rank's send and our mailbox. Park briefly.
        m.lh.sched_park(m.cfg.poll_interval)?;
    }
    Ok(())
}

/// MANA-2.0 drain: one alltoall of sent rows, then purely local work.
pub struct AlltoallDrain;

impl DrainStrategy for AlltoallDrain {
    fn name(&self) -> &'static str {
        "alltoall"
    }

    fn quiesce(&self, m: &mut Mana<'_>) -> Result<()> {
        let round = m.round as i64 - 1;
        let world_real = m.real_comm(VCOMM_WORLD)?;
        let sent_row = m.p2p.sent_row().to_vec();
        let exchange = m.tel.begin(round, Phase::DrainExchange);
        let expected = m.lh.call(|p| p.alltoall_u64(world_real, &sent_row))?;
        m.tel.end(exchange);
        sweep_until_settled(m, &expected)
    }
}

/// Original MANA drain: totals through the coordinator, iterated until
/// global sent equals global received.
pub struct CoordinatorDrain;

impl DrainStrategy for CoordinatorDrain {
    fn name(&self) -> &'static str {
        "coordinator"
    }

    fn quiesce(&self, m: &mut Mana<'_>) -> Result<()> {
        let round = m.round as i64 - 1;
        // No per-pair information: every sweep takes everything receivable.
        let all = vec![u64::MAX; m.world_size()];
        let mut sweep = 0;
        loop {
            let (sent, recvd) = m.p2p.totals();
            let exchange = m.tel.begin(round, Phase::DrainExchange);
            m.coord.send(RankMsg::DrainReport {
                rank: m.rank(),
                sent,
                recvd,
            })?;
            let verdict = m.coord.recv()?;
            m.tel.end(exchange);
            match verdict {
                CoordMsg::DrainVerdict { balanced: true } => return Ok(()),
                CoordMsg::DrainVerdict { balanced: false } => {
                    sweep += 1;
                    one_sweep(m, sweep, &all)?;
                }
                other => {
                    debug_assert!(false, "unexpected drain reply: {other:?}");
                    return Err(ManaError::CoordinatorGone);
                }
            }
        }
    }
}

/// Topological-sort drain (arXiv 2408.02218): one rows→schedule round
/// trip through the coordinator, then the same local deficit sweeps as
/// the alltoall protocol against the exact expected column.
pub struct TopoSortDrain;

impl DrainStrategy for TopoSortDrain {
    fn name(&self) -> &'static str {
        "toposort"
    }

    fn quiesce(&self, m: &mut Mana<'_>) -> Result<()> {
        let round = m.round as i64 - 1;
        let exchange = m.tel.begin(round, Phase::DrainExchange);
        m.coord.send(RankMsg::DrainRows {
            rank: m.rank(),
            sent: m.p2p.sent_row().to_vec(),
            recvd: m.p2p.recvd_row().to_vec(),
        })?;
        let (expected, order, edges, cyclic) = match m.coord.recv()? {
            CoordMsg::DrainSchedule {
                expected,
                order,
                edges,
                cyclic,
            } => (expected, order, edges, cyclic),
            other => {
                debug_assert!(false, "unexpected while awaiting schedule: {other:?}");
                return Err(ManaError::CoordinatorGone);
            }
        };
        m.tel.end(exchange);
        m.tel.event(
            round,
            EventKind::DrainSchedule {
                order,
                edges,
                cyclic,
            },
        );
        sweep_until_settled(m, &expected)
    }

    /// Never a barrier: the topo-sort quiesce orders in-flight traffic
    /// from the `P2pLog` rows alone, so there is nothing for a phase-1
    /// barrier to synchronize — this is exactly the collective-emulation
    /// machinery the protocol exists to avoid, even under
    /// `TpcMode::Original`.
    fn pre_collective(&self, _m: &mut Mana<'_>, _vc: VComm) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_names_match_modes() {
        for mode in [
            DrainMode::Alltoall,
            DrainMode::Coordinator,
            DrainMode::TopoSort,
        ] {
            assert_eq!(strategy_for(mode).name(), mode.name());
        }
    }

    #[test]
    fn per_strategy_metrics_are_distinct() {
        let modes = [
            DrainMode::Alltoall,
            DrainMode::Coordinator,
            DrainMode::TopoSort,
        ];
        for a in modes {
            for b in modes {
                if a != b {
                    assert_ne!(quiesce_hist(a), quiesce_hist(b));
                    assert_ne!(rounds_counter(a), rounds_counter(b));
                }
            }
        }
    }
}
