//! The simulated network fabric: per-rank mailboxes with engine parker
//! wakeups and explicit in-flight accounting.
//!
//! A message deposited by a send stays in its destination mailbox until a
//! matching receive removes it. [`Network::in_flight`] therefore reports
//! exactly the state MANA's drain algorithm must empty before a checkpoint.
//!
//! # Fault injection
//!
//! When built with a fault plan, user-class envelopes may be
//! parked in a per-destination *limbo* buffer instead of being queued
//! immediately. Limbo'd envelopes are still in flight (the drain algorithm
//! must account for them) but are invisible to matching until released.
//! Release happens whenever the destination mailbox is locked — under a
//! fault plan every park is capped at `FAULT_PUMP_SLICE` and re-locks on
//! wake, so a held envelope is delivered within one slice of its deadline.
//!
//! Matching scans the mailbox queue in arrival order and never consults
//! the per-pair sequence number, so MPI's non-overtaking guarantee rests
//! entirely on insertion order. The limbo preserves it two ways: an
//! envelope whose (src, dst) pair already has a held predecessor is
//! always held behind it, and the release scan walks entries in insertion
//! order, skipping every source that still has an earlier held entry.

use crate::engine::{CoopEngine, Parker};
use crate::envelope::{Envelope, MsgClass};
use crate::fault::{FaultPlan, Perturb};
use crate::trace::TraceHookRef;
use crate::unpoisoned;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Upper bound on any single park while a fault plan is active. Limbo
/// deadlines are wall-clock and are only pumped when the destination
/// mailbox is locked, so a receiver must re-lock at least this often for
/// a held envelope to be delivered within a slice of its deadline.
const FAULT_PUMP_SLICE: Duration = Duration::from_millis(2);

/// One rank's incoming message queue. Arrival order is preserved; matching
/// scans in arrival order, which combined with per-(src,dst) sequencing
/// yields MPI's non-overtaking guarantee.
#[derive(Debug, Default)]
pub struct Mailbox {
    /// Envelopes not yet matched by any receive.
    pub queue: Vec<Envelope>,
    /// Total envelopes ever delivered to this mailbox (a park() that saw
    /// this counter move since its caller's last look returns immediately
    /// instead of sleeping — no missed wakeups, no busy spin on stale
    /// unmatched messages).
    pub arrivals: u64,
}

/// An envelope held back by the fault plan. Every entry carries a
/// wall-clock deadline so a quiet destination cannot starve it; reorder
/// entries additionally release early once enough later deliveries have
/// overtaken them.
#[derive(Debug)]
struct LimboEntry {
    env: Envelope,
    deadline: Instant,
    /// Absolute `Mailbox::arrivals` target for reorder releases.
    release_arrivals: Option<u64>,
}

/// The fabric shared by all ranks of a world.
pub struct Network {
    boxes: Vec<Mutex<Mailbox>>,
    /// The world's engine: rank `dst` parks on it, any thread unparks.
    engine: Arc<CoopEngine>,
    /// Per-destination limbo for fault-held envelopes. Lock order is
    /// always mailbox → limbo.
    limbo: Vec<Mutex<Vec<LimboEntry>>>,
    fault: Option<Arc<FaultPlan>>,
    trace: Option<TraceHookRef>,
    arrival: AtomicU64,
    in_flight_msgs: AtomicUsize,
    in_flight_bytes: AtomicUsize,
    poisoned: AtomicBool,
}

impl Network {
    /// Fabric for `n` ranks whose waits park on `engine`, perturbed by
    /// `fault` and observed by `trace` when given.
    pub(crate) fn new(
        n: usize,
        fault: Option<Arc<FaultPlan>>,
        trace: Option<TraceHookRef>,
        engine: Arc<CoopEngine>,
    ) -> Self {
        Network {
            boxes: (0..n).map(|_| Mutex::new(Mailbox::default())).collect(),
            engine,
            limbo: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            fault,
            trace,
            arrival: AtomicU64::new(0),
            in_flight_msgs: AtomicUsize::new(0),
            in_flight_bytes: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.boxes.len()
    }

    /// The active fault plan, if any.
    pub fn fault(&self) -> Option<&Arc<FaultPlan>> {
        self.fault.as_ref()
    }

    /// Rank `rank`'s parker — the handle that rank blocks on. Only the
    /// rank's own thread of execution may park on it.
    pub fn parker(&self, rank: usize) -> Parker {
        self.engine.parker(rank)
    }

    /// Deposit a message into its destination mailbox and wake the receiver.
    /// The envelope's `arrival` stamp is assigned at the moment it becomes
    /// visible to matching — which, under a fault plan, may be after a stay
    /// in limbo.
    pub fn deposit(&self, mut env: Envelope) {
        let dst = env.dst;
        // In-flight accounting happens at send time: a limbo'd envelope is
        // in the network as far as the drain algorithm is concerned.
        self.in_flight_msgs.fetch_add(1, Ordering::Relaxed);
        self.in_flight_bytes
            .fetch_add(env.payload.len(), Ordering::Relaxed);
        if let Some(t) = &self.trace {
            t.hook()
                .on_send(env.src, dst, env.payload.len(), env.class == MsgClass::User);
        }
        let mut mb = unpoisoned(self.boxes[dst].lock());
        let mut released_held = false;
        if let Some(fp) = self.fault.clone() {
            released_held = self.flush_limbo_locked(dst, &mut mb, false);
            if env.class == MsgClass::User {
                let mut limbo = unpoisoned(self.limbo[dst].lock());
                let behind_held_pred = limbo.iter().any(|h| h.env.src == env.src);
                let hold = match fp.perturb(env.src, env.dst, env.seq) {
                    Perturb::None if !behind_held_pred => None,
                    // A held predecessor of the same pair forces this
                    // envelope into limbo too — releasing it first would
                    // break non-overtaking.
                    Perturb::None => Some((Instant::now() + fp.hold_deadline(), None)),
                    Perturb::Delay(d) => Some((Instant::now() + d, None)),
                    Perturb::Reorder { arrivals } => Some((
                        Instant::now() + fp.hold_deadline(),
                        Some(mb.arrivals + arrivals),
                    )),
                };
                if let Some((deadline, release_arrivals)) = hold {
                    if let Some(t) = &self.trace {
                        t.hook().on_hold(env.src, dst, release_arrivals.is_some());
                    }
                    limbo.push(LimboEntry {
                        env,
                        deadline,
                        release_arrivals,
                    });
                    drop(limbo);
                    drop(mb);
                    if released_held {
                        self.engine.unpark(dst);
                    }
                    return;
                }
            }
        }
        env.arrival = self.arrival.fetch_add(1, Ordering::Relaxed);
        mb.queue.push(env);
        mb.arrivals += 1;
        drop(mb);
        let _ = released_held;
        self.engine.unpark(dst);
    }

    /// Lock rank `dst`'s mailbox for matching. Under a fault plan this is
    /// also a limbo pump: envelopes whose hold has expired are moved into
    /// the queue before the guard is returned, so every matching attempt
    /// sees the freshest legal queue.
    pub fn lock_box(&self, dst: usize) -> MutexGuard<'_, Mailbox> {
        let mut mb = unpoisoned(self.boxes[dst].lock());
        if self.fault.is_some() {
            self.flush_limbo_locked(dst, &mut mb, false);
        }
        mb
    }

    /// Move due limbo entries into the mailbox queue. Returns true when at
    /// least one envelope was released. With `force`, every entry is
    /// released regardless of deadlines (used by [`Network::poison`] so no
    /// envelope is stranded). The scan preserves per-(src,dst) FIFO: an
    /// entry is only released if no earlier entry of the same source is
    /// still held.
    fn flush_limbo_locked(&self, dst: usize, mb: &mut Mailbox, force: bool) -> bool {
        let mut limbo = unpoisoned(self.limbo[dst].lock());
        if limbo.is_empty() {
            return false;
        }
        let now = Instant::now();
        let mut held_srcs: Vec<usize> = Vec::new();
        let mut released = false;
        let mut i = 0;
        while i < limbo.len() {
            let e = &limbo[i];
            let blocked = held_srcs.contains(&e.env.src);
            let due = now >= e.deadline || e.release_arrivals.is_some_and(|t| mb.arrivals >= t);
            if force || (!blocked && due) {
                let mut entry = limbo.remove(i);
                entry.env.arrival = self.arrival.fetch_add(1, Ordering::Relaxed);
                mb.queue.push(entry.env);
                mb.arrivals += 1;
                released = true;
            } else {
                held_srcs.push(e.env.src);
                i += 1;
            }
        }
        released
    }

    /// Account for an envelope removed from a mailbox by a match. The caller
    /// holds the mailbox lock and has already taken the envelope out.
    pub fn note_removed(&self, payload_len: usize) {
        self.in_flight_msgs.fetch_sub(1, Ordering::Relaxed);
        self.in_flight_bytes
            .fetch_sub(payload_len, Ordering::Relaxed);
    }

    /// [`Network::note_removed`] with source attribution, so a trace hook
    /// can record *which* pair's message was matched.
    pub fn note_matched(&self, env: &Envelope) {
        self.note_removed(env.payload.len());
        if let Some(t) = &self.trace {
            t.hook().on_match(env.src, env.dst, env.payload.len());
        }
    }

    /// Park rank `dst` until new mail (or a poison notification) arrives,
    /// or `timeout` elapses, then re-lock and return its mailbox. The caller
    /// re-checks its predicate on the returned guard — the wait carries no
    /// payload information, and spurious wakeups are allowed.
    ///
    /// The caller passes in the mailbox guard it checked its predicate
    /// under. Parkers have token semantics: [`Network::deposit`] and
    /// [`Network::poison`] unpark *after* making their state visible under
    /// the mailbox lock, so any wakeup racing with the guard drop here is
    /// banked and consumed by the park — the wakeup cannot be lost between
    /// check and park.
    ///
    /// A poisoned fabric returns without parking. Under a fault plan the
    /// park is capped at `FAULT_PUMP_SLICE` so wall-clock limbo deadlines
    /// are pumped promptly (the re-lock goes through [`Network::lock_box`],
    /// which flushes due limbo entries).
    pub fn wait_on<'a>(
        &'a self,
        dst: usize,
        guard: MutexGuard<'a, Mailbox>,
        timeout: Duration,
    ) -> MutexGuard<'a, Mailbox> {
        if self.is_poisoned() {
            return guard;
        }
        let timeout = if self.fault.is_some() {
            timeout.min(FAULT_PUMP_SLICE)
        } else {
            timeout
        };
        drop(guard);
        self.engine.park(dst, timeout);
        self.lock_box(dst)
    }

    /// (messages, bytes) currently in the network — sent but not received,
    /// including fault-held envelopes.
    pub fn in_flight(&self) -> (usize, usize) {
        (
            self.in_flight_msgs.load(Ordering::Relaxed),
            self.in_flight_bytes.load(Ordering::Relaxed),
        )
    }

    /// (messages, bytes) of *user-class* traffic currently in the network,
    /// counted by walking every mailbox and limbo. This is the quantity
    /// MANA's drain must bring to zero before a checkpoint commits;
    /// internal-class traffic (coordination chatter) is legitimately alive
    /// at that point and excluded.
    pub fn user_in_flight(&self) -> (usize, usize) {
        let mut msgs = 0;
        let mut bytes = 0;
        for dst in 0..self.boxes.len() {
            let mb = unpoisoned(self.boxes[dst].lock());
            for e in mb.queue.iter().filter(|e| e.class == MsgClass::User) {
                msgs += 1;
                bytes += e.payload.len();
            }
            let limbo = unpoisoned(self.limbo[dst].lock());
            for e in limbo.iter().filter(|e| e.env.class == MsgClass::User) {
                msgs += 1;
                bytes += e.env.payload.len();
            }
        }
        (msgs, bytes)
    }

    /// In-flight messages destined for `dst` (diagnostic; used by drain
    /// tests and checkpoint invariants to verify emptiness per rank).
    /// Fault-held envelopes count: they are owed to `dst` even though
    /// matching cannot see them yet.
    pub fn queued_for(&self, dst: usize, class: Option<MsgClass>) -> usize {
        let mut mb = unpoisoned(self.boxes[dst].lock());
        if self.fault.is_some() {
            self.flush_limbo_locked(dst, &mut mb, false);
        }
        let queued = mb
            .queue
            .iter()
            .filter(|e| class.is_none_or(|c| e.class == c))
            .count();
        let held = unpoisoned(self.limbo[dst].lock())
            .iter()
            .filter(|e| class.is_none_or(|c| e.env.class == c))
            .count();
        queued + held
    }

    /// Mark the world poisoned (a rank panicked or timed out) and wake every
    /// waiter so blocking calls can error out instead of hanging. Locks each
    /// mailbox before notifying: a waiter that checked the poison flag under
    /// its mailbox lock is guaranteed to be parked by the time the
    /// notification is sent, so the wakeup is never lost. Limbo'd envelopes
    /// are force-released so post-mortem inspection sees the full queue.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        for dst in 0..self.boxes.len() {
            let mut mb = unpoisoned(self.boxes[dst].lock());
            self.flush_limbo_locked(dst, &mut mb, true);
            drop(mb);
            self.engine.unpark(dst);
        }
    }

    /// Has the world been poisoned?
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("n", &self.boxes.len())
            .field("fault", &self.fault)
            .field("in_flight", &self.in_flight())
            .field("poisoned", &self.is_poisoned())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CoopCfg, SchedulePolicy};
    use crate::fault::FaultSpec;

    fn fabric(n: usize, fault: Option<Arc<FaultPlan>>) -> Network {
        let engine = CoopEngine::new(n, CoopCfg::default(), SchedulePolicy::Seeded);
        Network::new(n, fault, None, engine)
    }

    /// Run `body(rank)` as the ranks of `net`'s engine.
    fn run(net: &Network, body: &(dyn Fn(usize) + Sync)) {
        net.engine.run(crate::WorldCfg::default().stack_size, body);
    }

    fn env(src: usize, dst: usize, tag: i32, len: usize) -> Envelope {
        env_seq(src, dst, tag, 0, len)
    }

    fn env_seq(src: usize, dst: usize, tag: i32, seq: u64, len: usize) -> Envelope {
        Envelope {
            src,
            dst,
            ctx: 0,
            tag,
            seq,
            arrival: 0,
            class: MsgClass::User,
            payload: vec![0u8; len].into_boxed_slice(),
        }
    }

    #[test]
    fn deposit_and_inflight_accounting() {
        let net = fabric(2, None);
        assert_eq!(net.in_flight(), (0, 0));
        net.deposit(env(0, 1, 5, 10));
        net.deposit(env(0, 1, 6, 20));
        assert_eq!(net.in_flight(), (2, 30));
        assert_eq!(net.queued_for(1, None), 2);
        assert_eq!(net.queued_for(0, None), 0);

        let mut mb = net.lock_box(1);
        let e = mb.queue.remove(0);
        drop(mb);
        net.note_removed(e.payload.len());
        assert_eq!(net.in_flight(), (1, 20));
    }

    #[test]
    fn arrival_stamps_monotonic() {
        let net = fabric(1, None);
        net.deposit(env(0, 0, 1, 0));
        net.deposit(env(0, 0, 2, 0));
        let mb = net.lock_box(0);
        assert!(mb.queue[0].arrival < mb.queue[1].arrival);
    }

    #[test]
    fn poison_flags() {
        let net = fabric(1, None);
        assert!(!net.is_poisoned());
        net.poison();
        assert!(net.is_poisoned());
    }

    #[test]
    fn deposit_wakes_waiter() {
        let net = fabric(2, None);
        let got = Mutex::new(None);
        run(&net, &|rank| {
            if rank == 0 {
                std::thread::sleep(Duration::from_millis(30));
                net.deposit(env(0, 1, 9, 4));
                return;
            }
            let mut guard = net.lock_box(1);
            for _ in 0..20 {
                if !guard.queue.is_empty() {
                    break;
                }
                guard = net.wait_on(1, guard, Duration::from_millis(500));
            }
            *got.lock().unwrap() = Some(guard.queue.len());
        });
        assert_eq!(got.into_inner().unwrap(), Some(1), "never woken");
    }

    /// Regression: a rank parked in `wait_on` with a long timeout must
    /// observe `poison()` promptly instead of sleeping the timeout out.
    #[test]
    fn poison_wakes_parked_waiter_promptly() {
        let net = fabric(1, None);
        let waited = Mutex::new(Duration::MAX);
        std::thread::scope(|s| {
            // The poisoner is a supervisor, not a rank (the deadlock
            // monitor's case).
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                net.poison();
            });
            run(&net, &|rank| {
                let start = Instant::now();
                let mut guard = net.lock_box(rank);
                while guard.queue.is_empty() && !net.is_poisoned() {
                    guard = net.wait_on(rank, guard, Duration::from_secs(30));
                }
                *waited.lock().unwrap() = start.elapsed();
            });
        });
        let waited = waited.into_inner().unwrap();
        assert!(
            waited < Duration::from_secs(5),
            "waiter slept {waited:?} after poison instead of waking promptly"
        );
    }

    /// Once poisoned, `wait_on` must not park at all — even with no
    /// notification pending.
    #[test]
    fn wait_on_after_poison_returns_immediately() {
        let net = fabric(1, None);
        net.poison();
        let guard = net.lock_box(0);
        let start = Instant::now();
        let _guard = net.wait_on(0, guard, Duration::from_secs(30));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    fn delay_all_plan() -> Arc<FaultPlan> {
        Arc::new(FaultPlan::new(
            11,
            FaultSpec {
                delay_pct: 100,
                max_delay_us: 500,
                ..FaultSpec::quiet()
            },
        ))
    }

    #[test]
    fn delayed_envelope_counts_in_flight_and_delivers_after_deadline() {
        let net = fabric(2, Some(delay_all_plan()));
        net.deposit(env(0, 1, 7, 16));
        // Held in limbo: in flight and owed to rank 1, but invisible to
        // matching.
        assert_eq!(net.in_flight(), (1, 16));
        assert_eq!(net.user_in_flight(), (1, 16));
        assert_eq!(net.queued_for(1, Some(MsgClass::User)), 1);
        // The deadline is at most 2ms (hold_deadline floor); poll the box
        // the way a receiver would.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mb = net.lock_box(1);
            if !mb.queue.is_empty() {
                assert_eq!(mb.queue[0].tag, 7);
                break;
            }
            drop(mb);
            assert!(Instant::now() < deadline, "held envelope never released");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(net.in_flight(), (1, 16));
    }

    /// Envelopes of one (src, dst) pair are never reordered against each
    /// other, whatever the plan decides per message.
    #[test]
    fn same_pair_fifo_survives_fault_plan() {
        let plan = Arc::new(FaultPlan::new(
            1234,
            FaultSpec {
                delay_pct: 40,
                max_delay_us: 800,
                reorder_pct: 40,
                max_reorder_arrivals: 3,
                ..FaultSpec::quiet()
            },
        ));
        let net = fabric(2, Some(plan));
        for seq in 0..32u64 {
            net.deposit(env_seq(0, 1, seq as i32, seq, 1));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mb = net.lock_box(1);
            if mb.queue.len() == 32 {
                let tags: Vec<i32> = mb.queue.iter().map(|e| e.tag).collect();
                let expect: Vec<i32> = (0..32).collect();
                assert_eq!(tags, expect, "same-pair envelopes were reordered");
                break;
            }
            drop(mb);
            assert!(Instant::now() < deadline, "limbo never fully drained");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Internal-class traffic is never perturbed and is excluded from the
    /// user in-flight count.
    #[test]
    fn internal_class_bypasses_faults() {
        let net = fabric(2, Some(delay_all_plan()));
        let mut e = env(0, 1, 3, 8);
        e.class = MsgClass::Internal;
        net.deposit(e);
        let mb = net.lock_box(1);
        assert_eq!(mb.queue.len(), 1, "internal envelope was held in limbo");
        drop(mb);
        assert_eq!(net.user_in_flight(), (0, 0));
        assert_eq!(net.in_flight(), (1, 8));
    }

    /// Poison force-releases limbo so post-mortem inspection sees every
    /// envelope.
    #[test]
    fn poison_force_flushes_limbo() {
        let net = fabric(
            2,
            Some(Arc::new(FaultPlan::new(
                5,
                FaultSpec {
                    delay_pct: 100,
                    max_delay_us: 60_000_000,
                    ..FaultSpec::quiet()
                },
            ))),
        );
        net.deposit(env(0, 1, 1, 4));
        {
            let mb = net.boxes[1].lock().unwrap();
            assert!(mb.queue.is_empty(), "envelope should still be in limbo");
        }
        net.poison();
        let mb = net.boxes[1].lock().unwrap();
        assert_eq!(mb.queue.len(), 1);
    }
}
