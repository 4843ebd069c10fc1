//! Property-based tests for MANA's pure components: virtual tables,
//! request metadata, drain buffers, the topological drain planner, and
//! serialization invariants.

use mana_core::{
    topo_order, Binding, CollOp, DrainBuffer, DrainedMsg, RequestManager, StoredCompletion, VComm,
    VReqEntry, VReqKind, VirtualTable, VtBackend,
};
use mpisim::TagSel;
use proptest::prelude::*;
use splitproc::{Decode, Encode};

#[derive(Debug, Clone)]
enum TableOp {
    Insert(u64),
    Remove(usize),
    Lookup(usize),
}

fn table_ops() -> impl Strategy<Value = Vec<TableOp>> {
    proptest::collection::vec(
        prop_oneof![
            any::<u64>().prop_map(TableOp::Insert),
            any::<usize>().prop_map(TableOp::Remove),
            any::<usize>().prop_map(TableOp::Lookup),
        ],
        0..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn vtable_backends_are_observably_identical(ops in table_ops()) {
        // Differential testing: Linear, BTree, and FxHash must agree on
        // every observable after every operation (§III-I.1 says they only
        // differ in speed).
        let mut tables: Vec<VirtualTable<u64>> =
            [VtBackend::Linear, VtBackend::BTree, VtBackend::FxHash]
                .into_iter()
                .map(|b| VirtualTable::new(b, 2))
                .collect();
        let mut ids: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                TableOp::Insert(v) => {
                    let new: Vec<u64> = tables.iter_mut().map(|t| t.insert(v)).collect();
                    prop_assert!(new.windows(2).all(|w| w[0] == w[1]));
                    ids.push(new[0]);
                }
                TableOp::Remove(i) if !ids.is_empty() => {
                    let vid = ids[i % ids.len()];
                    let removed: Vec<Option<u64>> =
                        tables.iter_mut().map(|t| t.remove(vid)).collect();
                    prop_assert!(removed.windows(2).all(|w| w[0] == w[1]));
                }
                TableOp::Lookup(i) if !ids.is_empty() => {
                    let vid = ids[i % ids.len()];
                    let found: Vec<Option<u64>> =
                        tables.iter_mut().map(|t| t.lookup(vid).copied()).collect();
                    prop_assert!(found.windows(2).all(|w| w[0] == w[1]));
                }
                _ => {}
            }
        }
        let lens: Vec<usize> = tables.iter().map(|t| t.len()).collect();
        prop_assert!(lens.windows(2).all(|w| w[0] == w[1]));
        let vids: Vec<Vec<u64>> = tables.iter().map(|t| t.sorted_vids()).collect();
        prop_assert_eq!(&vids[0], &vids[1]);
        prop_assert_eq!(&vids[1], &vids[2]);
    }

    #[test]
    fn drain_buffer_preserves_per_source_fifo(
        msgs in proptest::collection::vec((0usize..4, 0i32..8, any::<u8>()), 0..40)
    ) {
        let mut buf = DrainBuffer::new();
        for (src, tag, payload) in &msgs {
            buf.push(DrainedMsg {
                vcomm: VComm(1),
                src_world: *src,
                tag: *tag,
                payload: vec![*payload],
            });
        }
        // Drain everything from source 2 with ANY tag: must come out in
        // push order (non-overtaking per source).
        let expected: Vec<u8> = msgs.iter().filter(|(s, _, _)| *s == 2).map(|(_, _, p)| *p).collect();
        let mut got = Vec::new();
        while let Some(m) = buf.take_match(VComm(1), Some(2), TagSel::Any) {
            got.push(m.payload[0]);
        }
        prop_assert_eq!(got, expected);
        // Everything left is from other sources.
        prop_assert_eq!(buf.len(), msgs.iter().filter(|(s, _, _)| *s != 2).count());
    }

    #[test]
    fn drain_buffer_codec_roundtrip(
        msgs in proptest::collection::vec(
            (any::<u64>(), 0usize..64, 0i32..1000,
             proptest::collection::vec(any::<u8>(), 0..32)), 0..16)
    ) {
        let mut buf = DrainBuffer::new();
        for (vc, src, tag, payload) in msgs {
            buf.push(DrainedMsg { vcomm: VComm(vc), src_world: src, tag, payload });
        }
        let back = DrainBuffer::from_bytes(&buf.to_bytes()).unwrap();
        prop_assert_eq!(back, buf);
    }

    #[test]
    fn vreq_entry_codec_roundtrip(
        dst in 0usize..128,
        tag in 0i32..1000,
        len in 0usize..4096,
        src in proptest::option::of(0usize..128),
        payload in proptest::collection::vec(any::<u8>(), 0..32),
        variant in 0u8..6,
    ) {
        let kind = match variant % 3 {
            0 => VReqKind::SendP2p { dst_world: dst, tag, len },
            1 => VReqKind::RecvP2p {
                vcomm: VComm(7),
                src_world: src,
                tag: if variant >= 3 { TagSel::Any } else { TagSel::Tag(tag) },
            },
            _ => VReqKind::Coll { op_id: len as u64 },
        };
        let binding = match variant % 3 {
            0 => Binding::Real(dst as u64),
            1 => Binding::Unbound,
            _ => Binding::NullPending(Some(StoredCompletion {
                src_world: dst,
                tag,
                payload,
            })),
        };
        let e = VReqEntry { kind, binding };
        prop_assert_eq!(VReqEntry::from_bytes(&e.to_bytes()).unwrap(), e);
    }

    #[test]
    fn request_meta_restart_transform_is_idempotent(
        n_send in 0usize..8,
        n_recv in 0usize..8,
        n_null in 0usize..8,
    ) {
        let mut m = RequestManager::new(VtBackend::FxHash);
        for i in 0..n_send {
            m.create(VReqKind::SendP2p { dst_world: i, tag: 0, len: 8 }, Binding::Real(i as u64));
        }
        for i in 0..n_recv {
            m.create(
                VReqKind::RecvP2p { vcomm: VComm(1), src_world: Some(i), tag: TagSel::Tag(1) },
                Binding::Real(100 + i as u64),
            );
        }
        for _ in 0..n_null {
            m.create(
                VReqKind::RecvP2p { vcomm: VComm(1), src_world: None, tag: TagSel::Any },
                Binding::NullPending(None),
            );
        }
        let meta1 = m.to_meta();
        // Rebuild and re-serialize: the transform must be a fixed point
        // (Real bindings are gone after the first transform).
        let m2 = RequestManager::from_meta(&meta1, VtBackend::BTree);
        let meta2 = m2.to_meta();
        prop_assert_eq!(meta1, meta2);
        prop_assert_eq!(m2.live(), n_send + n_recv + n_null);
        // No Real bindings survive serialization.
        for (_, e) in &m2.to_meta().entries {
            prop_assert!(!matches!(e.binding, Binding::Real(_)));
        }
    }

    #[test]
    fn collop_codec_roundtrip_drops_real_handles(
        phase in any::<u32>(),
        sent in any::<bool>(),
        acc in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut op = CollOp::barrier(3, VComm(1), 9);
        op.phase = phase;
        op.sent_phase = sent;
        op.acc = acc;
        op.slots.push(mana_core::IRecvSlot {
            src_local: 2,
            tag: 123,
            real: Some(0xDEAD), // must NOT survive (lower half dies)
            data: None,
        });
        let back = CollOp::from_bytes(&op.to_bytes()).unwrap();
        prop_assert_eq!(back.phase, op.phase);
        prop_assert_eq!(back.sent_phase, op.sent_phase);
        prop_assert_eq!(&back.acc, &op.acc);
        prop_assert_eq!(back.slots[0].real, None, "real handles must not serialize");
        prop_assert_eq!(back.slots[0].src_local, 2);
    }
    #[test]
    fn topo_order_is_a_topological_plan_of_the_in_flight_graph(
        n in 0usize..=12,
        cells in proptest::collection::vec((0u64..4, 0u64..4), 144),
        forward_only in any::<bool>(),
    ) {
        // Traffic i → j is `sent[i][j]` against `recvd[j][i]`; the generator
        // also produces over-received pairs (no edge). `forward_only`
        // settles every i > j pair, and forward edges alone cannot cycle.
        let mut sent = vec![vec![0u64; n]; n];
        let mut recvd = vec![vec![0u64; n]; n];
        for i in 0..n {
            for j in 0..n {
                let (s, r) = cells[i * 12 + j];
                sent[i][j] = s;
                recvd[j][i] = if forward_only && i > j { r.max(s) } else { r };
            }
        }
        let edge = |i: usize, j: usize| i != j && sent[i][j] > recvd[j][i];
        let plan = topo_order(&sent, &recvd);
        prop_assert_eq!(&plan, &topo_order(&sent, &recvd), "plan is a pure function");

        let mut seen = plan.order.clone();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n as u32).collect::<Vec<_>>(), "order is a permutation");
        let pairs = (0..n).flat_map(|i| (0..n).map(move |j| (i, j)));
        prop_assert_eq!(plan.edges, pairs.clone().filter(|&(i, j)| edge(i, j)).count() as u64);

        // Independent cycle check: some rank reaches itself in the
        // transitive closure.
        let mut reach: Vec<Vec<bool>> =
            (0..n).map(|i| (0..n).map(|j| edge(i, j)).collect()).collect();
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    reach[i][j] |= reach[i][k] && reach[k][j];
                }
            }
        }
        let cyclic = (0..n).any(|i| reach[i][i]);
        prop_assert_eq!(plan.cyclic, cyclic);
        prop_assert!(!(forward_only && cyclic));
        if !cyclic {
            for (i, j) in pairs.filter(|&(i, j)| edge(i, j)) {
                prop_assert!(
                    plan.order[i] < plan.order[j],
                    "in-flight {} → {} but order {:?}", i, j, plan.order
                );
            }
        }
    }
}

// ---- randomized state-machine resumability ------------------------------

mod emu_resume {
    use mana_core::{CollOp, EmuIo, IRecvSlot, VCOMM_WORLD};
    use mpisim::{encode_slice, Datatype, ReduceOp};
    use proptest::prelude::*;
    use splitproc::{Decode, Encode};
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    /// In-memory fabric standing in for the network + drain buffer: bytes
    /// persist across "restarts" exactly like drained messages do.
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
        fn send(&mut self, dst: usize, tag: i32, data: &[u8]) -> mana_core::Result<()> {
            self.net
                .boxes
                .borrow_mut()
                .entry((self.me, dst, tag))
                .or_default()
                .push_back(data.to_vec());
            Ok(())
        }
        fn poll_slot(&mut self, slot: &mut IRecvSlot) -> mana_core::Result<bool> {
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Drive a world of allreduce state machines with a random
        /// rank-interleaving, serializing and rebuilding every op at random
        /// points ("checkpoints"). The final result must always be the true
        /// sum on every rank — regardless of where the interruptions land.
        #[test]
        fn allreduce_survives_random_interruptions(
            n in 2usize..7,
            schedule in proptest::collection::vec((0usize..7, proptest::bool::weighted(0.3)), 10..120),
        ) {
            let net = Rc::new(MockNet::default());
            let mut ios: Vec<MockIo> = (0..n)
                .map(|me| MockIo { me, n, net: net.clone() })
                .collect();
            let mut ops: Vec<CollOp> = (0..n)
                .map(|me| {
                    CollOp::allreduce(
                        0,
                        VCOMM_WORLD,
                        5,
                        Datatype::I64,
                        ReduceOp::Sum,
                        encode_slice(&[(me as i64 + 1) * 3]),
                    )
                })
                .collect();
            // Random interleaving with random mid-flight serialize cycles.
            for (pick, ckpt) in schedule {
                let r = pick % n;
                let _ = ops[r].advance(&mut ios[r]).unwrap();
                if ckpt {
                    // "Checkpoint-and-restart" this rank's op: codec
                    // round-trip drops real handles, keeps logical state.
                    ops[r] = CollOp::from_bytes(&ops[r].to_bytes()).unwrap();
                }
            }
            // Drive everything to completion.
            for _ in 0..10_000 {
                let mut all = true;
                for r in 0..n {
                    if !ops[r].advance(&mut ios[r]).unwrap() {
                        all = false;
                    }
                }
                if all {
                    break;
                }
            }
            let expect: i64 = (1..=n as i64).map(|v| v * 3).sum();
            for (me, op) in ops.iter().enumerate() {
                prop_assert!(op.done, "rank {me} never completed");
                let got = mpisim::decode_slice::<i64>(&op.out).unwrap();
                prop_assert_eq!(got[0], expect, "rank {} wrong sum", me);
            }
        }

        /// Same property for the barrier: no rank may complete before every
        /// rank has entered, under any interleaving with interruptions.
        #[test]
        fn barrier_correct_under_random_interruptions(
            n in 2usize..7,
            schedule in proptest::collection::vec((0usize..7, proptest::bool::weighted(0.25)), 5..80),
        ) {
            let net = Rc::new(MockNet::default());
            let mut ios: Vec<MockIo> = (0..n)
                .map(|me| MockIo { me, n, net: net.clone() })
                .collect();
            let mut ops: Vec<CollOp> =
                (0..n).map(|_| CollOp::barrier(0, VCOMM_WORLD, 9)).collect();
            // Hold rank n-1 back entirely during the random phase: nobody
            // may finish.
            for (pick, ckpt) in &schedule {
                let r = pick % (n - 1);
                let _ = ops[r].advance(&mut ios[r]).unwrap();
                if *ckpt {
                    ops[r] = CollOp::from_bytes(&ops[r].to_bytes()).unwrap();
                }
            }
            prop_assert!(
                ops[..n - 1].iter().all(|o| !o.done),
                "barrier completed without the last rank"
            );
            for _ in 0..10_000 {
                let mut all = true;
                for r in 0..n {
                    if !ops[r].advance(&mut ios[r]).unwrap() {
                        all = false;
                    }
                }
                if all {
                    break;
                }
            }
            prop_assert!(ops.iter().all(|o| o.done));
        }
    }
}
