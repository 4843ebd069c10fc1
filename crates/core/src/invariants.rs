//! Per-rank checkpoint-window invariant checks.
//!
//! The drain algorithm (paper §III-B) ends with a *claim*: every byte this
//! rank was owed has been pulled out of the network, every request it
//! drained is parked for two-step retirement (§III-A), and the
//! active-communicator list (§III-C) describes exactly the communicators a
//! restart must rebuild. These checks turn the claim into an assertion,
//! executed after every drain and before the image is written — so a
//! protocol bug fails the checkpoint loudly instead of writing an image
//! that replays wrong.
//!
//! The coordinator runs a complementary *global* check at the commit point
//! (every image frozen, no rank resumed): user-class in-flight
//! traffic across the whole fabric must be `(0, 0)`. See
//! [`crate::coordinator::CommitCheck`].

use crate::error::{ManaError, Result};
use crate::ids::VComm;
use crate::mana::Mana;
use splitproc::journal::JournalRecord;

/// Check the restart journal's protocol invariants over a replayed record
/// sequence and return every violation found (empty = clean). Used by the
/// chaos suite after kill/resume storms; the properties it encodes are the
/// reentrancy contract:
///
/// 1. **Idempotency** — no `(epoch, step, rank)` key appears twice: a
///    resumed restart never redoes (re-journals) a completed step.
/// 2. **Step order, per epoch** — `restart_intent` opens the epoch;
///    `gen_validated` needs an intent; `rank_restored` needs validation;
///    `comms_rebuilt` needs at least the intent's failed set restored;
///    `restart_committed` is last and needs `comms_rebuilt`.
/// 3. **Epoch monotonicity** — epoch numbers strictly increase in order of
///    first appearance.
pub fn check_journal(records: &[JournalRecord]) -> Vec<String> {
    use splitproc::journal::JournalStep as S;
    use std::collections::BTreeSet;
    #[derive(Default)]
    struct Ep {
        intent: bool,
        validated: bool,
        restored: BTreeSet<u64>,
        comms: bool,
        committed: bool,
        failed: Vec<u64>,
    }
    let mut violations = Vec::new();
    let mut keys = BTreeSet::new();
    let mut epoch_order: Vec<u64> = Vec::new();
    // Per-epoch replay state, keyed by epoch number.
    let mut states: std::collections::BTreeMap<u64, Ep> = Default::default();
    for (i, rec) in records.iter().enumerate() {
        if !keys.insert(rec.key()) {
            violations.push(format!(
                "record {i}: duplicate idempotency key {:?} (epoch {}, step {})",
                rec.key(),
                rec.epoch,
                rec.step.name()
            ));
        }
        if epoch_order.last() != Some(&rec.epoch) {
            if epoch_order.contains(&rec.epoch) {
                violations.push(format!(
                    "record {i}: epoch {} resumed after a newer epoch started",
                    rec.epoch
                ));
            } else if epoch_order.last().is_some_and(|&e| e > rec.epoch) {
                violations.push(format!(
                    "record {i}: epoch {} opened after epoch {}",
                    rec.epoch,
                    epoch_order.last().unwrap()
                ));
            } else {
                epoch_order.push(rec.epoch);
            }
        }
        let ep = states.entry(rec.epoch).or_default();
        let step = &rec.step;
        if ep.committed {
            violations.push(format!(
                "record {i}: step {} after epoch {} committed",
                step.name(),
                rec.epoch
            ));
        }
        match step {
            S::RestartIntent { failed: f, .. } => {
                ep.intent = true;
                ep.failed = f.clone();
            }
            S::GenValidated { .. } => {
                if !ep.intent {
                    violations.push(format!(
                        "record {i}: gen_validated without restart_intent in epoch {}",
                        rec.epoch
                    ));
                }
                ep.validated = true;
            }
            S::RankRestored { rank } => {
                if !ep.validated {
                    violations.push(format!(
                        "record {i}: rank_restored({rank}) before gen_validated in epoch {}",
                        rec.epoch
                    ));
                }
                ep.restored.insert(*rank);
            }
            S::CommsRebuilt => {
                let missing: Vec<u64> = ep
                    .failed
                    .iter()
                    .filter(|r| !ep.restored.contains(r))
                    .copied()
                    .collect();
                if !missing.is_empty() {
                    violations.push(format!(
                        "record {i}: comms_rebuilt with failed ranks {missing:?} \
                         not restored in epoch {}",
                        rec.epoch
                    ));
                }
                ep.comms = true;
            }
            S::RestartCommitted => {
                if !ep.comms {
                    violations.push(format!(
                        "record {i}: restart_committed before comms_rebuilt in epoch {}",
                        rec.epoch
                    ));
                }
                ep.committed = true;
            }
        }
    }
    violations
}

impl Mana<'_> {
    /// Assert the per-rank checkpoint-window invariants. Called after the
    /// drain in the checkpoint body; any violation aborts the checkpoint
    /// with [`ManaError::InvariantViolation`].
    ///
    /// 1. **Drain completeness** — no user-class message is still owed to
    ///    this rank (mailbox or fault-injection limbo). The alltoall row
    ///    exchange said our deficits were zero; the network must agree.
    /// 2. **Request legality** — every live request is in a state two-step
    ///    retirement can handle (see
    ///    [`crate::requests::RequestManager::check_retirement_invariants`]).
    /// 3. **Active-list consistency** — the active-communicator records and
    ///    the live virtual→real bindings describe the same set (see
    ///    [`crate::comm_mgr::CommManager::check_active_bound`]).
    pub(crate) fn check_ckpt_invariants(&mut self) -> Result<()> {
        let me = self.rank();
        let queued = self.lh.call(|p| p.queued_user_msgs());
        if queued != 0 {
            return Err(ManaError::InvariantViolation(format!(
                "rank {me}: drain finished with {queued} user message(s) still owed"
            )));
        }
        self.reqs
            .check_retirement_invariants()
            .map_err(|v| ManaError::InvariantViolation(format!("rank {me}: {v}")))?;
        self.comms
            .check_active_bound(me)
            .map_err(|v| ManaError::InvariantViolation(format!("rank {me}: {v}")))?;
        // Every in-flight emulated collective must reference an active
        // communicator: the restart path replays it over the rebuilt
        // communicator, which only exists if the record is active.
        for id in self.collops.sorted_ids() {
            if let Some(op) = self.collops.get(id) {
                let vc: VComm = op.vcomm;
                match self.comms.record(vc) {
                    Some(rec) if !rec.freed => {}
                    _ => {
                        return Err(ManaError::InvariantViolation(format!(
                            "rank {me}: in-flight collective {id} references \
                             inactive communicator {}",
                            vc.0
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}
