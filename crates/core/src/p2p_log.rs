//! Per-pair point-to-point byte accounting and the drain buffer
//! (paper §III-B).
//!
//! MANA-2.0 keeps a *small-grain* counter per (sender, receiver) pair —
//! the improvement over the original MANA's global totals — so that after
//! one `MPI_Alltoall` of the `sent` rows at checkpoint time, every rank
//! knows locally how many bytes it is still owed from each peer and can
//! drain them without further coordination.

use crate::ids::VComm;
use mpisim::{SrcSel, TagSel};
use splitproc::{CodecError, Decode, Encode, Reader};
use std::collections::VecDeque;

/// Per-rank send/receive byte counters, indexed by *world* rank (the
/// unambiguous global identity §III challenge 5 calls for — communicator-
/// local ranks are translated before counting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct P2pLog {
    sent: Vec<u64>,
    recvd: Vec<u64>,
    msgs_sent: u64,
    msgs_recvd: u64,
}

impl P2pLog {
    /// Zeroed counters for a world of `n`.
    pub fn new(n: usize) -> Self {
        P2pLog {
            sent: vec![0; n],
            recvd: vec![0; n],
            msgs_sent: 0,
            msgs_recvd: 0,
        }
    }

    /// Count an outgoing user message.
    ///
    /// Each message is charged `bytes + 1`: one virtual header byte on top
    /// of the payload. Zero-byte messages (an emulated barrier's chunks,
    /// an empty user send) would otherwise be invisible to the deficit
    /// computation and could survive a "complete" drain inside the
    /// network. Both sides of every pair charge the same way, so deficits
    /// reach zero exactly when byte counts *and* message counts agree.
    pub fn count_send(&mut self, dst_world: usize, bytes: usize) {
        self.sent[dst_world] += bytes as u64 + 1;
        self.msgs_sent += 1;
    }

    /// Count a completed incoming user message (same `bytes + 1` charge
    /// as [`P2pLog::count_send`]).
    pub fn count_recv(&mut self, src_world: usize, bytes: usize) {
        self.recvd[src_world] += bytes as u64 + 1;
        self.msgs_recvd += 1;
    }

    /// The row exchanged by the drain's alltoall: bytes sent to each peer.
    pub fn sent_row(&self) -> &[u64] {
        &self.sent
    }

    /// Bytes received from each peer.
    pub fn recvd_row(&self) -> &[u64] {
        &self.recvd
    }

    /// Totals (the legacy coordinator drain works on these).
    pub fn totals(&self) -> (u64, u64) {
        (self.sent.iter().sum(), self.recvd.iter().sum())
    }

    /// (messages sent, messages received).
    pub fn msg_counts(&self) -> (u64, u64) {
        (self.msgs_sent, self.msgs_recvd)
    }

    /// Given `expected[j]` = bytes peer `j` reports having sent to me,
    /// return the per-peer deficit still in the network (or claimed by a
    /// posted receive).
    pub fn deficits(&self, expected: &[u64]) -> Vec<u64> {
        expected
            .iter()
            .zip(&self.recvd)
            .map(|(e, r)| e.saturating_sub(*r))
            .collect()
    }

    /// Live per-peer deficit: bytes peer `peer` claims to have sent me
    /// that I have not yet counted as received. Unlike a
    /// [`P2pLog::deficits`] snapshot taken before a sweep, this reads the
    /// *current* `recvd` counter — so a message matched mid-sweep (by a
    /// posted receive, or an earlier probe in the same sweep) immediately
    /// drops the peer's remaining claim and cannot be drained twice.
    pub fn deficit_from(&self, expected: &[u64], peer: usize) -> u64 {
        expected
            .get(peer)
            .copied()
            .unwrap_or(0)
            .saturating_sub(self.recvd[peer])
    }

    /// Reset after a successful drain: the network is empty and both sides
    /// of every pair agree, so counters restart from zero (consistently on
    /// all ranks).
    pub fn reset(&mut self) {
        self.sent.iter_mut().for_each(|v| *v = 0);
        self.recvd.iter_mut().for_each(|v| *v = 0);
    }
}

/// One message captured by the drain: it was in the network (or claimed by
/// a pending receive) at checkpoint time and now lives in MANA's memory,
/// to be handed to the application receive that eventually asks for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainedMsg {
    /// Virtual communicator it was sent on (virtual IDs are restart-stable,
    /// unlike real contexts).
    pub vcomm: VComm,
    /// Sender's world rank.
    pub src_world: usize,
    /// Message tag.
    pub tag: i32,
    /// Payload.
    pub payload: Vec<u8>,
}

splitproc::wire!(DrainedMsg {
    vcomm,
    src_world,
    tag,
    payload
});

/// FIFO buffer of drained messages. Receive wrappers consult it *before*
/// touching the lower half; after a restart it is the only place a
/// pre-checkpoint message can be.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrainBuffer {
    msgs: VecDeque<DrainedMsg>,
}

impl DrainBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a drained message (drain order approximates arrival order, so
    /// FIFO matching preserves the non-overtaking guarantee per source).
    pub fn push(&mut self, msg: DrainedMsg) {
        self.msgs.push_back(msg);
    }

    /// Number of buffered messages.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Total buffered payload bytes.
    pub fn bytes(&self) -> usize {
        self.msgs.iter().map(|m| m.payload.len()).sum()
    }

    /// Take the first message matching (vcomm, src, tag). `src` is a world
    /// rank (`None` = `ANY_SOURCE` already translated); `tag` follows
    /// [`TagSel`] semantics.
    pub fn take_match(
        &mut self,
        vcomm: VComm,
        src_world: Option<usize>,
        tag: TagSel,
    ) -> Option<DrainedMsg> {
        let pos = self.msgs.iter().position(|m| {
            m.vcomm == vcomm
                && src_world.is_none_or(|s| m.src_world == s)
                && match tag {
                    TagSel::Tag(t) => m.tag == t,
                    TagSel::Any => true,
                    TagSel::Below(b) => m.tag < b,
                }
        })?;
        self.msgs.remove(pos)
    }

    /// Peek (iprobe against the buffer).
    pub fn peek_match(
        &self,
        vcomm: VComm,
        src_world: Option<usize>,
        tag: TagSel,
    ) -> Option<&DrainedMsg> {
        self.msgs.iter().find(|m| {
            m.vcomm == vcomm
                && src_world.is_none_or(|s| m.src_world == s)
                && match tag {
                    TagSel::Tag(t) => m.tag == t,
                    TagSel::Any => true,
                    TagSel::Below(b) => m.tag < b,
                }
        })
    }
}

/// A `Vec<DrainedMsg>` on the wire. Hand-written: it writes the ring's
/// two halves with no copy, where a declaration would clone every message.
impl Encode for DrainBuffer {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.msgs.len() as u64).encode(out);
        let (front, back) = self.msgs.as_slices();
        DrainedMsg::encode_slice(front, out);
        DrainedMsg::encode_slice(back, out);
    }
}

impl Decode for DrainBuffer {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(DrainBuffer {
            msgs: Vec::<DrainedMsg>::decode(r)?.into(),
        })
    }
}

/// Helper shared by receive paths: translate a communicator-local
/// [`SrcSel`] to a world-rank selector using the record's membership.
pub fn src_to_world(world_ranks: &[usize], src: SrcSel) -> Option<Option<usize>> {
    match src {
        SrcSel::Any => Some(None),
        SrcSel::Rank(local) => world_ranks.get(local).map(|&w| Some(w)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_deficits() {
        let mut log = P2pLog::new(3);
        log.count_send(1, 100);
        log.count_send(1, 50);
        log.count_recv(2, 30);
        // Each message is charged payload + 1 virtual header byte.
        assert_eq!(log.sent_row(), &[0, 152, 0]);
        assert_eq!(log.recvd_row(), &[0, 0, 31]);
        assert_eq!(log.totals(), (152, 31));
        assert_eq!(log.msg_counts(), (2, 1));
        // Peers claim: rank0 sent me 0, rank1 sent me 20, rank2 sent me 80.
        assert_eq!(log.deficits(&[0, 20, 80]), vec![0, 20, 49]);
        log.reset();
        assert_eq!(log.totals(), (0, 0));
    }

    #[test]
    fn live_deficits_reflect_mid_sweep_matches() {
        // Regression: drain_sweep used to trust the deficit snapshot taken
        // at sweep entry. A message matched *during* the sweep (stage (b)
        // testing a posted receive, or a prior probe iteration) left the
        // stale snapshot claiming bytes were still owed, so the sweep kept
        // pulling — double-counting the peer's traffic. The live query
        // must reflect every drained message immediately.
        let mut log = P2pLog::new(2);
        let expected = vec![0, 31];
        assert_eq!(log.deficit_from(&expected, 1), 31);
        let stale = log.deficits(&expected);
        // One 30-byte message (charged 31) is matched mid-sweep.
        log.count_recv(1, 30);
        // The snapshot still claims 31 bytes owed…
        assert_eq!(stale[1], 31);
        // …but the live view knows the peer is settled.
        assert_eq!(log.deficit_from(&expected, 1), 0);
        // Out-of-range peers (sub-communicator padding) owe nothing.
        assert_eq!(log.deficit_from(&expected[..1], 1), 0);
    }

    #[test]
    fn zero_byte_messages_create_deficits() {
        // An empty payload (emulated-barrier chunk, zero-length user send)
        // must still show up in the row exchange, or the drain would leave
        // it in the network and it would be lost across an exit-restart.
        let mut sender = P2pLog::new(2);
        sender.count_send(1, 0);
        assert_eq!(sender.sent_row(), &[0, 1]);
        let receiver = P2pLog::new(2);
        assert_eq!(receiver.deficits(&[1, 0]), vec![1, 0]);
        let mut receiver = receiver;
        receiver.count_recv(0, 0);
        assert_eq!(receiver.deficits(&[1, 0]), vec![0, 0]);
    }

    #[test]
    fn drain_buffer_fifo_per_match() {
        let mut buf = DrainBuffer::new();
        let m = |src, tag, p: &[u8]| DrainedMsg {
            vcomm: VComm(1),
            src_world: src,
            tag,
            payload: p.to_vec(),
        };
        buf.push(m(0, 5, &[1]));
        buf.push(m(0, 5, &[2]));
        buf.push(m(2, 6, &[3]));
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.bytes(), 3);

        // FIFO within the same (src,tag).
        let got = buf.take_match(VComm(1), Some(0), TagSel::Tag(5)).unwrap();
        assert_eq!(got.payload, vec![1]);
        // ANY_SOURCE/ANY_TAG takes earliest remaining.
        let got = buf.take_match(VComm(1), None, TagSel::Any).unwrap();
        assert_eq!(got.payload, vec![2]);
        // Below-band filter.
        assert!(buf.take_match(VComm(1), None, TagSel::Below(6)).is_none());
        assert!(buf.peek_match(VComm(1), Some(2), TagSel::Tag(6)).is_some());
        let got = buf.take_match(VComm(1), Some(2), TagSel::Below(7)).unwrap();
        assert_eq!(got.payload, vec![3]);
        assert!(buf.is_empty());
    }

    #[test]
    fn wrong_vcomm_never_matches() {
        let mut buf = DrainBuffer::new();
        buf.push(DrainedMsg {
            vcomm: VComm(1),
            src_world: 0,
            tag: 0,
            payload: vec![],
        });
        assert!(buf.take_match(VComm(2), None, TagSel::Any).is_none());
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn buffer_roundtrips_codec() {
        let mut buf = DrainBuffer::new();
        buf.push(DrainedMsg {
            vcomm: VComm(3),
            src_world: 7,
            tag: 9,
            payload: vec![1, 2, 3],
        });
        let bytes = buf.to_bytes();
        assert_eq!(DrainBuffer::from_bytes(&bytes).unwrap(), buf);
        // Rotate until the ring wraps: the encoding is still that of a
        // `Vec` of the messages in FIFO order.
        for i in 0..64u8 {
            if !buf.msgs.as_slices().1.is_empty() {
                break;
            }
            buf.push(DrainedMsg {
                vcomm: VComm(3),
                src_world: i as usize,
                tag: 9,
                payload: vec![i; i as usize],
            });
            if buf.len() > 3 {
                buf.take_match(VComm(3), None, TagSel::Any).unwrap();
            }
        }
        assert!(!buf.msgs.as_slices().1.is_empty(), "ring never wrapped");
        let in_order: Vec<DrainedMsg> = buf.msgs.iter().cloned().collect();
        let bytes = buf.to_bytes();
        assert_eq!(bytes, in_order.to_bytes());
        assert_eq!(DrainBuffer::from_bytes(&bytes).unwrap(), buf);
    }

    #[test]
    fn src_translation() {
        let ranks = vec![4, 7, 9];
        assert_eq!(src_to_world(&ranks, SrcSel::Any), Some(None));
        assert_eq!(src_to_world(&ranks, SrcSel::Rank(1)), Some(Some(7)));
        assert_eq!(src_to_world(&ranks, SrcSel::Rank(5)), None);
    }
}
