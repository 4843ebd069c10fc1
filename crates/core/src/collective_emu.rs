//! Point-to-point *emulated* collectives as resumable state machines
//! (paper §III-E, §III-J, §III-L).
//!
//! Two roles:
//!
//! 1. **Checkpoint-window collectives.** Inside the checkpoint window the
//!    hybrid 2PC replaces native collectives with these emulations: their
//!    traffic flows through MANA's *counted* p2p layer, so the drain
//!    algorithm accounts for every byte, and their state is a plain
//!    serializable struct, so a checkpoint can land mid-collective and the
//!    operation finishes after resume or restart. They also restore the
//!    MPI-standard "root need not wait" semantics whose loss caused the
//!    §III-E deadlock.
//! 2. **Non-blocking collectives** (`MPI_Ibarrier`, `MPI_Ibcast`,
//!    `MPI_Iallreduce`, …) are *always* emulated: the virtual request
//!    points at a [`CollOp`], `MPI_Test`/`MPI_Wait` advance it, and
//!    restart replays the incomplete ones — the log-and-replay algorithm
//!    of §III-A.
//!
//! The state machines are pure with respect to I/O: all sends/receives go
//! through the [`EmuIo`] trait, so they are unit-tested against an
//! in-memory mock before ever touching the MANA runtime.

use crate::error::Result;
use crate::ids::VComm;
use mpisim::{reduce_bytes, Datatype, ReduceOp};
use splitproc::{CodecError, Decode, Encode, Reader};
use std::collections::HashMap;

/// Base of the tag band MANA reserves for its own traffic. Application
/// tags must stay below this (wrappers enforce it).
pub const MANA_TAG_BASE: i32 = 1 << 28;

/// Emulated collective kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EmuKind {
    /// Dissemination barrier.
    Barrier = 0,
    /// Binomial-tree broadcast.
    Bcast = 1,
    /// Binomial-tree reduce.
    Reduce = 2,
    /// Reduce-to-0 + broadcast.
    Allreduce = 3,
    /// Direct gather to root.
    Gather = 4,
    /// Pairwise all-to-all.
    Alltoall = 5,
    /// Gather-to-0 + broadcast.
    Allgather = 6,
}

splitproc::wire!(EmuKind {
    Barrier = 0,
    Bcast = 1,
    Reduce = 2,
    Allreduce = 3,
    Gather = 4,
    Alltoall = 5,
    Allgather = 6,
});

/// Tag for one stage of an emulated collective: band base + kind + stage +
/// per-communicator sequence number. The real communicator context
/// disambiguates communicators; the sequence number disambiguates
/// successive collectives on the same communicator (all members call them
/// in the same order, so counters agree).
pub fn emu_tag(kind: EmuKind, stage: u8, seq: u64) -> i32 {
    MANA_TAG_BASE | ((kind as i32) << 20) | ((stage as i32 & 1) << 16) | ((seq as i32) & 0xFFFF)
}

/// A pending internal receive of a state machine. `real` holds a raw
/// lower-half request once posted; it is never serialized (real objects
/// die with the lower half) — after restart the slot re-posts lazily,
/// typically finding its payload in the drain buffer instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IRecvSlot {
    /// Source, local to the collective's communicator.
    pub src_local: usize,
    /// Exact tag.
    pub tag: i32,
    /// Posted lower-half request, if any (never serialized).
    pub real: Option<u64>,
    /// Completed payload.
    pub data: Option<Vec<u8>>,
}

impl IRecvSlot {
    /// Fresh unposted slot.
    pub fn new(src_local: usize, tag: i32) -> Self {
        IRecvSlot {
            src_local,
            tag,
            real: None,
            data: None,
        }
    }
}

/// I/O services a state machine needs; implemented by `Mana` (counted p2p
/// + drain-buffer-aware receives) and by the mock in tests.
pub trait EmuIo {
    /// My local rank in the collective's communicator.
    fn me(&self) -> usize;
    /// Communicator size.
    fn size(&self) -> usize;
    /// Send `data` to a local rank with an exact (reserved-band) tag.
    fn send(&mut self, dst_local: usize, tag: i32, data: &[u8]) -> Result<()>;
    /// Ensure the slot is posted and poll it once; fills `slot.data` and
    /// returns true when complete. Must check the drain buffer before the
    /// live network.
    fn poll_slot(&mut self, slot: &mut IRecvSlot) -> Result<bool>;
}

/// One in-flight emulated collective.
#[derive(Debug, Clone, PartialEq)]
pub struct CollOp {
    /// Stable ID (virtual requests reference it; survives restart).
    pub id: u64,
    /// The communicator (virtual — restart-stable).
    pub vcomm: VComm,
    /// Operation kind.
    pub kind: EmuKind,
    /// Per-communicator collective sequence number (tag component).
    pub seq: u64,
    /// Root (local rank), where applicable.
    pub root: usize,
    /// Element type for reductions.
    pub dt: Datatype,
    /// Reduction operator.
    pub op: ReduceOp,
    /// Composite stage (0 = reduce/gather part, 1 = bcast part).
    pub stage: u8,
    /// Progress within the stage (round / child index).
    pub phase: u32,
    /// Whether this phase's sends have been deposited (guards against
    /// double-sending when resuming after a checkpoint).
    pub sent_phase: bool,
    /// Working buffer (contribution → partial → result).
    pub acc: Vec<u8>,
    /// Input chunks (alltoall only).
    pub inputs: Vec<Vec<u8>>,
    /// Collected per-source chunks (gather/alltoall/allgather).
    pub collected: Vec<Option<Vec<u8>>>,
    /// Pending internal receives of the current phase.
    pub slots: Vec<IRecvSlot>,
    /// Completion flag.
    pub done: bool,
    /// Result for this rank (empty where MPI defines none).
    pub out: Vec<u8>,
}

impl CollOp {
    fn base(id: u64, vcomm: VComm, kind: EmuKind, seq: u64) -> CollOp {
        CollOp {
            id,
            vcomm,
            kind,
            seq,
            root: 0,
            dt: Datatype::U8,
            op: ReduceOp::Sum,
            stage: 0,
            phase: 0,
            sent_phase: false,
            acc: Vec::new(),
            inputs: Vec::new(),
            collected: Vec::new(),
            slots: Vec::new(),
            done: false,
            out: Vec::new(),
        }
    }

    /// New barrier.
    pub fn barrier(id: u64, vcomm: VComm, seq: u64) -> CollOp {
        Self::base(id, vcomm, EmuKind::Barrier, seq)
    }

    /// New broadcast; `data` is the message on the root, ignored elsewhere.
    pub fn bcast(id: u64, vcomm: VComm, seq: u64, root: usize, data: Vec<u8>) -> CollOp {
        let mut op = Self::base(id, vcomm, EmuKind::Bcast, seq);
        op.root = root;
        op.acc = data;
        op
    }

    /// New reduce to `root`.
    pub fn reduce(
        id: u64,
        vcomm: VComm,
        seq: u64,
        root: usize,
        dt: Datatype,
        rop: ReduceOp,
        contrib: Vec<u8>,
    ) -> CollOp {
        let mut op = Self::base(id, vcomm, EmuKind::Reduce, seq);
        op.root = root;
        op.dt = dt;
        op.op = rop;
        op.acc = contrib;
        op
    }

    /// New allreduce.
    pub fn allreduce(
        id: u64,
        vcomm: VComm,
        seq: u64,
        dt: Datatype,
        rop: ReduceOp,
        contrib: Vec<u8>,
    ) -> CollOp {
        let mut op = Self::base(id, vcomm, EmuKind::Allreduce, seq);
        op.dt = dt;
        op.op = rop;
        op.acc = contrib;
        op
    }

    /// New gather to `root`.
    pub fn gather(id: u64, vcomm: VComm, seq: u64, root: usize, contrib: Vec<u8>) -> CollOp {
        let mut op = Self::base(id, vcomm, EmuKind::Gather, seq);
        op.root = root;
        op.acc = contrib;
        op
    }

    /// New alltoall; `inputs[j]` goes to local rank `j`.
    pub fn alltoall(id: u64, vcomm: VComm, seq: u64, inputs: Vec<Vec<u8>>) -> CollOp {
        let mut op = Self::base(id, vcomm, EmuKind::Alltoall, seq);
        op.inputs = inputs;
        op
    }

    /// New allgather.
    pub fn allgather(id: u64, vcomm: VComm, seq: u64, contrib: Vec<u8>) -> CollOp {
        let mut op = Self::base(id, vcomm, EmuKind::Allgather, seq);
        op.acc = contrib;
        op
    }

    /// Advance the state machine one step. Returns `Ok(true)` when done.
    /// Safe to call repeatedly after completion.
    pub fn advance(&mut self, io: &mut dyn EmuIo) -> Result<bool> {
        if self.done {
            return Ok(true);
        }
        let done = match self.kind {
            EmuKind::Barrier => self.step_barrier(io)?,
            EmuKind::Bcast => self.step_bcast(io, 1)?,
            EmuKind::Reduce => {
                let fin = self.step_reduce(io, self.root, 0)?;
                if fin && io.me() == self.root {
                    self.out = self.acc.clone();
                }
                fin
            }
            EmuKind::Allreduce => {
                if self.stage == 0 && self.step_reduce(io, 0, 0)? {
                    self.next_stage();
                }
                if self.stage == 1 && self.step_bcast_from(io, 0, 1)? {
                    self.out = self.acc.clone();
                    true
                } else {
                    false
                }
            }
            EmuKind::Gather => {
                let fin = self.step_gather(io, self.root, 0)?;
                if fin && io.me() == self.root {
                    self.out = self.frame_collected(io.size());
                }
                fin
            }
            EmuKind::Alltoall => self.step_alltoall(io)?,
            EmuKind::Allgather => {
                if self.stage == 0 && self.step_gather(io, 0, 0)? {
                    if io.me() == 0 {
                        self.acc = self.frame_collected(io.size());
                    }
                    self.next_stage();
                }
                if self.stage == 1 && self.step_bcast_from(io, 0, 1)? {
                    self.out = self.acc.clone();
                    true
                } else {
                    false
                }
            }
        };
        if done {
            self.done = true;
            self.slots.clear();
        }
        Ok(done)
    }

    fn next_stage(&mut self) {
        self.stage += 1;
        self.phase = 0;
        self.sent_phase = false;
        self.slots.clear();
    }

    fn frame_collected(&mut self, n: usize) -> Vec<u8> {
        let chunks: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                self.collected
                    .get(i)
                    .and_then(|c| c.clone())
                    .unwrap_or_default()
            })
            .collect();
        mpisim::frame_chunks(&chunks)
    }

    fn step_barrier(&mut self, io: &mut dyn EmuIo) -> Result<bool> {
        let n = io.size();
        if n <= 1 {
            return Ok(true);
        }
        let me = io.me();
        let tag = emu_tag(EmuKind::Barrier, 0, self.seq);
        loop {
            let k = 1usize << self.phase;
            if k >= n {
                return Ok(true);
            }
            if !self.sent_phase {
                io.send((me + k) % n, tag, &[])?;
                self.sent_phase = true;
                self.slots = vec![IRecvSlot::new((me + n - k) % n, tag)];
            }
            if io.poll_slot(&mut self.slots[0])? {
                self.phase += 1;
                self.sent_phase = false;
                self.slots.clear();
            } else {
                return Ok(false);
            }
        }
    }

    /// Binomial bcast rooted at `self.root`.
    fn step_bcast(&mut self, io: &mut dyn EmuIo, stage_tag: u8) -> Result<bool> {
        self.step_bcast_from(io, self.root, stage_tag)
    }

    fn step_bcast_from(&mut self, io: &mut dyn EmuIo, root: usize, stage_tag: u8) -> Result<bool> {
        let n = io.size();
        let me = io.me();
        if n <= 1 {
            self.out = self.acc.clone();
            return Ok(true);
        }
        let tag = emu_tag(self.kind, stage_tag, self.seq);
        let relative = (me + n - root) % n;
        // Phase 0: non-roots receive from the parent.
        if relative != 0 && self.phase == 0 {
            if self.slots.is_empty() {
                let lowbit = relative & relative.wrapping_neg();
                let parent = ((relative - lowbit) + root) % n;
                self.slots.push(IRecvSlot::new(parent, tag));
            }
            if !io.poll_slot(&mut self.slots[0])? {
                return Ok(false);
            }
            self.acc = self.slots[0].data.take().unwrap_or_default();
            self.slots.clear();
            self.phase = 1;
        }
        // Phase 1: relay to children (all at once; sends are eager).
        if !self.sent_phase {
            let top = if relative == 0 {
                n.next_power_of_two()
            } else {
                relative & relative.wrapping_neg()
            };
            let mut mask = top >> 1;
            while mask > 0 {
                if relative + mask < n {
                    let child = (relative + mask + root) % n;
                    io.send(child, tag, &self.acc)?;
                }
                mask >>= 1;
            }
            self.sent_phase = true;
        }
        self.out = self.acc.clone();
        Ok(true)
    }

    /// Binomial reduce toward `root`; on completion the root's `acc` holds
    /// the result.
    fn step_reduce(&mut self, io: &mut dyn EmuIo, root: usize, stage_tag: u8) -> Result<bool> {
        let n = io.size();
        if n <= 1 {
            return Ok(true);
        }
        let me = io.me();
        let tag = emu_tag(self.kind, stage_tag, self.seq);
        let relative = (me + n - root) % n;
        // Child masks in ascending order: every mask below my low bit (or
        // unbounded for the root) whose child exists.
        let mut child_masks = Vec::new();
        let mut mask = 1usize;
        while mask < n {
            if relative & mask != 0 {
                break;
            }
            if relative + mask < n {
                child_masks.push(mask);
            }
            mask <<= 1;
        }
        while (self.phase as usize) < child_masks.len() {
            let m = child_masks[self.phase as usize];
            if self.slots.is_empty() {
                let child = (relative + m + root) % n;
                self.slots.push(IRecvSlot::new(child, tag));
            }
            if !io.poll_slot(&mut self.slots[0])? {
                return Ok(false);
            }
            let part = self.slots[0].data.take().unwrap_or_default();
            reduce_bytes(self.dt, self.op, &mut self.acc, &part)
                .map_err(crate::error::ManaError::Mpi)?;
            self.slots.clear();
            self.phase += 1;
        }
        if relative != 0 && !self.sent_phase {
            let lowbit = relative & relative.wrapping_neg();
            let parent = ((relative - lowbit) + root) % n;
            io.send(parent, tag, &self.acc)?;
            self.sent_phase = true;
        }
        Ok(true)
    }

    /// Direct gather to `root`: non-roots send once; the root polls one
    /// slot per peer (all posted up front, completed in any order).
    fn step_gather(&mut self, io: &mut dyn EmuIo, root: usize, stage_tag: u8) -> Result<bool> {
        let n = io.size();
        let me = io.me();
        let tag = emu_tag(self.kind, stage_tag, self.seq);
        if me != root {
            if !self.sent_phase {
                io.send(root, tag, &self.acc)?;
                self.sent_phase = true;
            }
            return Ok(true);
        }
        if self.collected.len() != n {
            self.collected = vec![None; n];
            self.collected[me] = Some(self.acc.clone());
            self.slots = (0..n)
                .filter(|&r| r != me)
                .map(|r| IRecvSlot::new(r, tag))
                .collect();
        }
        let mut all = true;
        for i in 0..self.slots.len() {
            if self.slots[i].data.is_none() && !io.poll_slot(&mut self.slots[i])? {
                all = false;
            }
        }
        if !all {
            return Ok(false);
        }
        for s in self.slots.drain(..) {
            self.collected[s.src_local] = Some(s.data.unwrap_or_default());
        }
        Ok(true)
    }

    fn step_alltoall(&mut self, io: &mut dyn EmuIo) -> Result<bool> {
        let n = io.size();
        let me = io.me();
        let tag = emu_tag(EmuKind::Alltoall, 0, self.seq);
        if self.collected.len() != n {
            self.collected = vec![None; n];
            self.collected[me] = Some(self.inputs.get(me).cloned().unwrap_or_default());
            self.slots = (0..n)
                .filter(|&r| r != me)
                .map(|r| IRecvSlot::new(r, tag))
                .collect();
        }
        if !self.sent_phase {
            for dst in 0..n {
                if dst != me {
                    let empty = Vec::new();
                    let chunk = self.inputs.get(dst).unwrap_or(&empty).clone();
                    io.send(dst, tag, &chunk)?;
                }
            }
            self.sent_phase = true;
        }
        let mut all = true;
        for i in 0..self.slots.len() {
            if self.slots[i].data.is_none() && !io.poll_slot(&mut self.slots[i])? {
                all = false;
            }
        }
        if !all {
            return Ok(false);
        }
        for s in self.slots.drain(..) {
            self.collected[s.src_local] = Some(s.data.unwrap_or_default());
        }
        self.out = self.frame_collected(n);
        Ok(true)
    }
}

/// Table of in-flight collective operations for one rank.
#[derive(Debug, Default)]
pub struct CollOpTable {
    ops: HashMap<u64, CollOp>,
    next_id: u64,
    completed: u64,
}

impl CollOpTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate an ID for a new op.
    pub fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Insert an op under its ID.
    pub fn insert(&mut self, op: CollOp) {
        self.ops.insert(op.id, op);
    }

    /// Borrow an op.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut CollOp> {
        self.ops.get_mut(&id)
    }

    /// Borrow immutably.
    pub fn get(&self, id: u64) -> Option<&CollOp> {
        self.ops.get(&id)
    }

    /// Temporarily take an op out for polling (no lifecycle accounting);
    /// the caller re-inserts it afterwards.
    pub fn remove_for_poll(&mut self, id: u64) -> Option<CollOp> {
        self.ops.remove(&id)
    }

    /// Remove a completed op (immediate retirement, §III-A collective case).
    pub fn remove(&mut self, id: u64) -> Option<CollOp> {
        let op = self.ops.remove(&id);
        if op.is_some() {
            self.completed += 1;
        }
        op
    }

    /// Live op count.
    pub fn live(&self) -> usize {
        self.ops.len()
    }

    /// IDs in ascending order.
    pub fn sorted_ids(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.ops.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// (allocated, completed) counters.
    pub fn lifecycle(&self) -> (u64, u64) {
        (self.next_id, self.completed)
    }

    /// Serialize all live ops (restart transform: real bindings in slots
    /// are dropped by the slot codec).
    pub fn to_meta(&self) -> CollOpMeta {
        let mut ops: Vec<CollOp> = self.ops.values().cloned().collect();
        ops.sort_by_key(|o| o.id);
        CollOpMeta {
            ops,
            next_id: self.next_id,
            completed: self.completed,
        }
    }

    /// Rebuild from metadata.
    pub fn from_meta(meta: &CollOpMeta) -> Self {
        CollOpTable {
            ops: meta.ops.iter().map(|o| (o.id, o.clone())).collect(),
            next_id: meta.next_id,
            completed: meta.completed,
        }
    }
}

/// Serializable CollOp table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CollOpMeta {
    /// Live ops in id order.
    pub ops: Vec<CollOp>,
    /// ID allocator state.
    pub next_id: u64,
    /// Completed counter.
    pub completed: u64,
}

/// Hand-written: `real` is never on the wire (a lower-half handle dies
/// with the lower half), so it decodes as `None`.
impl Encode for IRecvSlot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.src_local.encode(out);
        self.tag.encode(out);
        self.data.encode(out);
    }
}

impl Decode for IRecvSlot {
    fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        Ok(IRecvSlot {
            src_local: usize::decode(r)?,
            tag: i32::decode(r)?,
            real: None,
            data: Option::decode(r)?,
        })
    }
}

splitproc::wire!(CollOp {
    id,
    vcomm,
    kind,
    seq,
    root,
    dt,
    op,
    stage,
    phase,
    sent_phase,
    acc,
    inputs,
    collected,
    slots,
    done,
    out
});
splitproc::wire!(CollOpMeta {
    ops,
    next_id,
    completed
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VCOMM_WORLD;
    use mpisim::encode_slice;
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    /// In-memory multi-rank fabric for driving state machines.
    #[derive(Default)]
    struct MockNet {
        boxes: RefCell<Boxes>,
    }

    /// (src, dst, tag) -> queued payloads.
    type Boxes = std::collections::HashMap<(usize, usize, i32), VecDeque<Vec<u8>>>;

    struct MockIo {
        me: usize,
        n: usize,
        net: Rc<MockNet>,
    }

    impl EmuIo for MockIo {
        fn me(&self) -> usize {
            self.me
        }
        fn size(&self) -> usize {
            self.n
        }
        fn send(&mut self, dst: usize, tag: i32, data: &[u8]) -> Result<()> {
            self.net
                .boxes
                .borrow_mut()
                .entry((self.me, dst, tag))
                .or_default()
                .push_back(data.to_vec());
            Ok(())
        }
        fn poll_slot(&mut self, slot: &mut IRecvSlot) -> Result<bool> {
            if slot.data.is_some() {
                return Ok(true);
            }
            let mut boxes = self.net.boxes.borrow_mut();
            if let Some(q) = boxes.get_mut(&(slot.src_local, self.me, slot.tag)) {
                if let Some(p) = q.pop_front() {
                    slot.data = Some(p);
                    return Ok(true);
                }
            }
            Ok(false)
        }
    }

    /// Drive all ranks' ops round-robin until everyone is done.
    fn drive(ops: &mut [CollOp], ios: &mut [MockIo]) {
        for _ in 0..10_000 {
            let mut all = true;
            for (op, io) in ops.iter_mut().zip(ios.iter_mut()) {
                if !op.advance(io).unwrap() {
                    all = false;
                }
            }
            if all {
                return;
            }
        }
        panic!("state machines did not converge");
    }

    fn world(n: usize) -> (Vec<MockIo>, Rc<MockNet>) {
        let net = Rc::new(MockNet::default());
        let ios = (0..n)
            .map(|me| MockIo {
                me,
                n,
                net: net.clone(),
            })
            .collect();
        (ios, net)
    }

    #[test]
    fn barrier_completes_all_sizes() {
        for n in [1, 2, 3, 4, 5, 8, 13] {
            let (mut ios, _) = world(n);
            let mut ops: Vec<CollOp> = (0..n).map(|_| CollOp::barrier(0, VCOMM_WORLD, 7)).collect();
            drive(&mut ops, &mut ios);
            assert!(ops.iter().all(|o| o.done), "n={n}");
        }
    }

    #[test]
    fn barrier_waits_for_stragglers() {
        let n = 4;
        let (mut ios, _) = world(n);
        let mut ops: Vec<CollOp> = (0..n).map(|_| CollOp::barrier(0, VCOMM_WORLD, 0)).collect();
        // Drive only ranks 0..3 (rank 3 is a straggler): nobody may finish.
        for _ in 0..100 {
            for i in 0..3 {
                ops[i].advance(&mut ios[i]).unwrap();
            }
        }
        assert!(
            ops[..3].iter().all(|o| !o.done),
            "barrier must not complete without the straggler"
        );
        drive(&mut ops, &mut ios);
        assert!(ops.iter().all(|o| o.done));
    }

    #[test]
    fn bcast_delivers_from_any_root() {
        for n in [2, 3, 6, 9] {
            for root in [0, n - 1, n / 2] {
                let (mut ios, _) = world(n);
                let payload = vec![9u8, 8, 7];
                let mut ops: Vec<CollOp> = (0..n)
                    .map(|me| {
                        let data = if me == root { payload.clone() } else { vec![] };
                        CollOp::bcast(0, VCOMM_WORLD, 3, root, data)
                    })
                    .collect();
                drive(&mut ops, &mut ios);
                for op in &ops {
                    assert_eq!(op.out, payload, "n={n} root={root}");
                }
            }
        }
    }

    #[test]
    fn root_bcast_finishes_without_receivers() {
        // The §III-E property: the root's bcast completes even if no other
        // rank ever advances.
        let n = 4;
        let (mut ios, _) = world(n);
        let mut op = CollOp::bcast(0, VCOMM_WORLD, 0, 0, vec![1]);
        assert!(op.advance(&mut ios[0]).unwrap(), "root must not block");
    }

    #[test]
    fn reduce_sums_to_root() {
        for n in [1, 2, 5, 8] {
            let root = n - 1;
            let (mut ios, _) = world(n);
            let mut ops: Vec<CollOp> = (0..n)
                .map(|me| {
                    CollOp::reduce(
                        0,
                        VCOMM_WORLD,
                        1,
                        root,
                        Datatype::I64,
                        ReduceOp::Sum,
                        encode_slice(&[me as i64, 1i64]),
                    )
                })
                .collect();
            drive(&mut ops, &mut ios);
            let expect: i64 = (0..n as i64).sum();
            let got = mpisim::decode_slice::<i64>(&ops[root].out).unwrap();
            assert_eq!(got, vec![expect, n as i64], "n={n}");
            for (me, op) in ops.iter().enumerate() {
                if me != root {
                    assert!(op.out.is_empty());
                }
            }
        }
    }

    #[test]
    fn allreduce_gives_everyone_the_max() {
        let n = 6;
        let (mut ios, _) = world(n);
        let mut ops: Vec<CollOp> = (0..n)
            .map(|me| {
                CollOp::allreduce(
                    0,
                    VCOMM_WORLD,
                    2,
                    Datatype::F64,
                    ReduceOp::Max,
                    encode_slice(&[me as f64 * 1.5]),
                )
            })
            .collect();
        drive(&mut ops, &mut ios);
        for op in &ops {
            assert_eq!(
                mpisim::decode_slice::<f64>(&op.out).unwrap(),
                vec![7.5],
                "everyone sees max"
            );
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let n = 5;
        let root = 2;
        let (mut ios, _) = world(n);
        let mut ops: Vec<CollOp> = (0..n)
            .map(|me| CollOp::gather(0, VCOMM_WORLD, 0, root, vec![me as u8; me + 1]))
            .collect();
        drive(&mut ops, &mut ios);
        let chunks = mpisim::unframe_chunks(&ops[root].out).unwrap();
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c, &vec![i as u8; i + 1]);
        }
    }

    #[test]
    fn alltoall_permutes() {
        let n = 4;
        let (mut ios, _) = world(n);
        let mut ops: Vec<CollOp> = (0..n)
            .map(|me| {
                let inputs: Vec<Vec<u8>> = (0..n).map(|j| vec![(me * 10 + j) as u8]).collect();
                CollOp::alltoall(0, VCOMM_WORLD, 0, inputs)
            })
            .collect();
        drive(&mut ops, &mut ios);
        for (me, op) in ops.iter().enumerate() {
            let chunks = mpisim::unframe_chunks(&op.out).unwrap();
            for (j, c) in chunks.iter().enumerate() {
                assert_eq!(c, &vec![(j * 10 + me) as u8], "me={me} j={j}");
            }
        }
    }

    #[test]
    fn allgather_everyone_gets_everything() {
        let n = 3;
        let (mut ios, _) = world(n);
        let mut ops: Vec<CollOp> = (0..n)
            .map(|me| CollOp::allgather(0, VCOMM_WORLD, 0, vec![me as u8 + 65]))
            .collect();
        drive(&mut ops, &mut ios);
        for op in &ops {
            let chunks = mpisim::unframe_chunks(&op.out).unwrap();
            assert_eq!(chunks, vec![vec![65u8], vec![66], vec![67]]);
        }
    }

    #[test]
    fn serialization_mid_flight_resumes() {
        // Interrupt a barrier mid-way, serialize, rebuild, and finish —
        // the restart path for in-flight non-blocking collectives.
        let n = 4;
        let (mut ios, _) = world(n);
        let mut ops: Vec<CollOp> = (0..n).map(|_| CollOp::barrier(0, VCOMM_WORLD, 5)).collect();
        // Partial drive: a few steps only.
        for _ in 0..2 {
            for (op, io) in ops.iter_mut().zip(ios.iter_mut()) {
                let _ = op.advance(io).unwrap();
            }
        }
        // Serialize & rebuild every rank's op ("restart": real handles drop,
        // the mock net — standing in for the drain buffer — retains bytes).
        let mut rebuilt: Vec<CollOp> = ops
            .iter()
            .map(|o| CollOp::from_bytes(&o.to_bytes()).unwrap())
            .collect();
        for (a, b) in ops.iter().zip(rebuilt.iter()) {
            assert_eq!(a.phase, b.phase);
            assert_eq!(a.sent_phase, b.sent_phase, "resume must not double-send");
        }
        drive(&mut rebuilt, &mut ios);
        assert!(rebuilt.iter().all(|o| o.done));
    }

    #[test]
    fn table_lifecycle() {
        let mut t = CollOpTable::new();
        let id = t.next_id();
        t.insert(CollOp::barrier(id, VCOMM_WORLD, 0));
        assert_eq!(t.live(), 1);
        assert!(t.get(id).is_some());
        t.remove(id).unwrap();
        assert_eq!(t.live(), 0);
        assert_eq!(t.lifecycle(), (1, 1));
    }

    #[test]
    fn table_meta_roundtrip() {
        let mut t = CollOpTable::new();
        let id = t.next_id();
        t.insert(CollOp::allreduce(
            id,
            VCOMM_WORLD,
            9,
            Datatype::F64,
            ReduceOp::Sum,
            encode_slice(&[1.0f64]),
        ));
        let meta = t.to_meta();
        let back = CollOpMeta::from_bytes(&meta.to_bytes()).unwrap();
        assert_eq!(back, meta);
        let t2 = CollOpTable::from_meta(&back);
        assert_eq!(t2.live(), 1);
        assert_eq!(t2.get(id).unwrap().seq, 9);
    }

    #[test]
    fn a_bad_code_is_reported_as_the_byte_read() {
        let op = CollOp::allreduce(
            1,
            VCOMM_WORLD,
            2,
            Datatype::I64,
            ReduceOp::Max,
            encode_slice(&[3i64]),
        );
        let bytes = op.to_bytes();
        // id and vcomm (8 + 8), then the kind; seq and root (8 + 8), then
        // the datatype and the op.
        for (at, bad) in [(16, 7u8), (33, 0xC6), (34, 9)] {
            let mut corrupt = bytes.clone();
            corrupt[at] = bad;
            assert_eq!(
                CollOp::from_bytes(&corrupt),
                Err(CodecError::InvalidTag(bad)),
                "byte {at}"
            );
        }
    }

    #[test]
    fn emu_tags_are_in_band_and_distinct() {
        let a = emu_tag(EmuKind::Barrier, 0, 1);
        let b = emu_tag(EmuKind::Barrier, 0, 2);
        let c = emu_tag(EmuKind::Bcast, 0, 1);
        let d = emu_tag(EmuKind::Allreduce, 1, 1);
        let e = emu_tag(EmuKind::Allreduce, 0, 1);
        for t in [a, b, c, d, e] {
            assert!(
                (MANA_TAG_BASE..mpisim::MAX_USER_TAG).contains(&t),
                "tag {t}"
            );
        }
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(d, e);
    }
}
