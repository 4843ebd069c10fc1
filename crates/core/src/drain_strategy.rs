//! The checkpoint window's quiesce protocols.
//!
//! The checkpoint drain — the step that pulls every in-flight message out
//! of the network before an image is written (paper §III-B) — is one
//! `match` on [`DrainMode`] over three protocols:
//!
//! * `Alltoall` — MANA-2.0's protocol: one `MPI_Alltoall` of per-pair
//!   sent-byte rows, then purely local sweeps until the deficits reach
//!   zero.
//! * `Coordinator` — the original MANA baseline: global totals
//!   round-tripped through the centralized coordinator until they balance.
//! * `TopoSort` — the 2024 follow-up (arXiv 2408.02218): each rank ships
//!   its sent/received rows to the coordinator once; the coordinator
//!   topologically orders the in-flight send→receive dependency graph and
//!   answers with each rank's exact expected-bytes column. The count
//!   exchange costs two coordinator messages per rank instead of the
//!   alltoall's 2(n − 1) fabric messages through local rank 0, and the
//!   quiesce never runs a collective.
//!
//! The protocol decides how in-flight traffic is counted, nothing else:
//! whether a barrier precedes every collective is
//! [`crate::config::TpcMode`]'s decision alone, so the two axes are
//! orthogonal. Selection is [`crate::config::ManaConfig::drain`].

use crate::config::DrainMode;
use crate::coordinator::{CoordMsg, RankMsg};
use crate::error::Result;
use crate::ids::VCOMM_WORLD;
use crate::mana::Mana;
use obs::metrics as met;
use obs::{EventKind, Phase};

/// The one place a [`DrainMode`] is resolved: its quiesce routine, its
/// quiesce-latency histogram and its completed-quiesce counter.
type Protocol = (
    fn(&mut Mana<'_>) -> Result<()>,
    met::MetricId,
    met::MetricId,
);

fn protocol(mode: DrainMode) -> Protocol {
    match mode {
        DrainMode::Alltoall => (
            quiesce_alltoall,
            met::DRAIN_ALLTOALL_QUIESCE_NS,
            met::DRAIN_ROUNDS_ALLTOALL,
        ),
        DrainMode::Coordinator => (
            quiesce_coordinator,
            met::DRAIN_COORDINATOR_QUIESCE_NS,
            met::DRAIN_ROUNDS_COORDINATOR,
        ),
        DrainMode::TopoSort => (
            quiesce_toposort,
            met::DRAIN_TOPOSORT_QUIESCE_NS,
            met::DRAIN_ROUNDS_TOPOSORT,
        ),
    }
}

impl Mana<'_> {
    /// Drain the network for this rank under the configured protocol
    /// (called after `Go`, with every rank parked). Returns only when
    /// this rank's share of the network is empty — every in-flight
    /// message addressed to it captured. The whole quiesce (exchange +
    /// sweeps) is timed into a per-protocol histogram and counted, so
    /// the protocols are directly comparable from one metrics series.
    pub(crate) fn quiesce(&mut self) -> Result<()> {
        let (run, hist, rounds) = protocol(self.cfg.drain);
        let t = std::time::Instant::now();
        run(self)?;
        self.tel.observe(hist, t.elapsed());
        self.tel.add(rounds, 1);
        Ok(())
    }
}

/// Sweep until every per-peer deficit against `expected` reaches zero.
/// Shared by the protocols that know their exact expected column.
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
fn quiesce_alltoall(m: &mut Mana<'_>) -> Result<()> {
    let round = m.round as i64 - 1;
    let world_real = m.real_comm(VCOMM_WORLD)?;
    let sent_row = m.p2p.sent_row().to_vec();
    let exchange = m.tel.begin(round, Phase::DrainExchange);
    let expected = m.lh.call(|p| p.alltoall_u64(world_real, &sent_row))?;
    m.tel.end(exchange);
    sweep_until_settled(m, &expected)
}

/// Original MANA drain: totals through the coordinator, iterated
/// until global sent equals global received.
fn quiesce_coordinator(m: &mut Mana<'_>) -> Result<()> {
    let round = m.round as i64 - 1;
    // No per-pair information: every sweep takes everything
    // receivable (`u64::MAX` claims).
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
        let balanced = m.coord.await_reply("DrainVerdict", |v| match v {
            CoordMsg::DrainVerdict { balanced } => Ok(balanced),
            other => Err(other),
        });
        m.tel.end(exchange);
        if balanced? {
            return Ok(());
        }
        sweep += 1;
        one_sweep(m, sweep, &all)?;
    }
}

/// Topological-sort drain (arXiv 2408.02218): one rows→schedule round
/// trip through the coordinator, then the same local deficit sweeps
/// as the alltoall protocol against the exact expected column.
fn quiesce_toposort(m: &mut Mana<'_>) -> Result<()> {
    let round = m.round as i64 - 1;
    let exchange = m.tel.begin(round, Phase::DrainExchange);
    m.coord.send(RankMsg::DrainRows {
        rank: m.rank(),
        sent: m.p2p.sent_row().to_vec(),
        recvd: m.p2p.recvd_row().to_vec(),
    })?;
    let (expected, order, edges, cyclic) = m.coord.await_reply("DrainSchedule", |s| match s {
        CoordMsg::DrainSchedule {
            expected,
            order,
            edges,
            cyclic,
        } => Ok((expected, order, edges, cyclic)),
        other => Err(other),
    })?;
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

#[cfg(test)]
mod tests {
    use super::*;

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
                    assert_ne!(protocol(a).1, protocol(b).1);
                    assert_ne!(protocol(a).2, protocol(b).2);
                }
            }
        }
    }
}
