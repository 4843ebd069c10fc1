//! Deterministic fault injection for the simulated fabric and the MANA
//! checkpoint window.
//!
//! A [`FaultPlan`] is a pure function from a single `u64` seed (plus a
//! [`FaultSpec`] describing *which* perturbations are armed) to a set of
//! per-message and per-rank decisions:
//!
//! * **delay** — hold an envelope in a per-destination *limbo* buffer
//!   until a wall-clock deadline, so it is in flight (and counted by
//!   [`crate::Network::in_flight`]) across a longer window;
//! * **reorder** — hold an envelope until a number of *other* messages
//!   have been delivered to the same destination, reordering traffic
//!   between different (src, dst) pairs. Messages of one pair are never
//!   reordered against each other: MPI's non-overtaking guarantee is a
//!   property of the fabric, not of the schedule, and the limbo preserves
//!   it by construction (see [`crate::Network`]);
//! * **ready stall** — one chosen rank sleeps inside the checkpoint
//!   intent window before reporting `Ready`, stretching the quiesce;
//! * **coordinator latency** — rank→coordinator control messages are
//!   delayed, widening the gap between a rank parking and the
//!   coordinator noticing;
//! * **checkpoint trigger** — one chosen rank requests a checkpoint when
//!   its wrapper-call counter crosses a threshold, landing the intent at
//!   an adversarial point (mid-collective, while requests are pending,
//!   while messages are in flight);
//! * **storage fault** — one chosen rank's checkpoint-image write at one
//!   chosen round either fails outright (persistent write error), is torn
//!   at a seeded byte offset (truncated file after an apparent commit), or
//!   suffers a post-write bit flip — exercising the generational store's
//!   round-abort and restart-fallback paths.
//!
//! Every decision is derived by hashing the seed with the message
//! identity `(src, dst, seq)` or the rank number — **not** from any
//! global RNG state. Two runs with the same seed therefore perturb the
//! same messages in the same way even though thread interleaving differs,
//! which is what makes a failing chaos seed replayable.

use std::sync::Arc;
use std::time::Duration;

/// splitmix64: the standard 64-bit finalizer used as a keyed hash. Fault
/// plans, the engine's seeded schedule, chaos case derivation and the
/// chunker's gear table all derive from this one definition, so a
/// committed seed or chunk boundary stays where it is only while it does.
/// `const` so tables can be built at compile time.
pub const fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a (64-bit), fed bytes as they come: the one stable hash of
/// communicator gids, the split / dup / restart tags, the schedule
/// explorer's fingerprints and the GROMACS kernel's checksum. Unlike
/// `DefaultHasher`, its value is pinned by this code, so every committed
/// gid and fingerprint stays where it is only while this does.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Fold `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// How a checkpoint-image write is damaged by a storage fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFaultKind {
    /// Every write attempt fails with an I/O error (a dead or full disk):
    /// the rank reports the failure and the coordinator aborts the round.
    WriteError,
    /// The image file is truncated at a seeded byte offset *after* the
    /// apparent commit — modelling lost sectors behind a lying disk cache.
    /// The rank believes the write succeeded; restart validation must
    /// reject the generation and fall back.
    TornWrite,
    /// One seeded bit of the image is flipped after the write — silent
    /// media corruption, caught only by restart-time CRC validation.
    BitFlip,
}

/// One armed storage fault: which rank's image, at which checkpoint
/// round, and what happens to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageFaultSpec {
    /// Rank whose image write is damaged.
    pub rank: usize,
    /// Checkpoint round (0-based) at which the damage lands.
    pub round: u64,
    /// What kind of damage.
    pub kind: StorageFaultKind,
}

/// A storage-fault decision handed to the checkpoint store: the kind plus
/// a seeded raw offset (the store reduces it modulo the image length to
/// pick the torn-truncation point or the flipped bit's byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageFault {
    /// What happens to the write.
    pub kind: StorageFaultKind,
    /// Seeded raw offset; interpret modulo the image size.
    pub offset: u64,
}

/// Which perturbations are armed, and how hard.
///
/// All probabilities are percentages (0–100) evaluated independently per
/// message; durations are microseconds and deliberately small — the goal
/// is to shift orderings inside the checkpoint window, not to simulate a
/// slow network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Percent of user envelopes held until a wall-clock deadline.
    pub delay_pct: u8,
    /// Upper bound for the per-message delay, microseconds.
    pub max_delay_us: u64,
    /// Percent of user envelopes held for cross-pair reordering.
    pub reorder_pct: u8,
    /// Upper bound for how many later deliveries may overtake a reordered
    /// envelope before it is released.
    pub max_reorder_arrivals: u64,
    /// Rank that stalls inside the intent window before `Ready`, and for
    /// how long.
    pub ready_stall: Option<(usize, Duration)>,
    /// Percent of rank→coordinator messages delayed.
    pub coord_delay_pct: u8,
    /// Upper bound for the coordinator-message delay, microseconds.
    pub max_coord_delay_us: u64,
    /// Rank that requests a checkpoint once its wrapper-call counter
    /// reaches the given value (first run only — restarts do not
    /// re-trigger).
    pub trigger_at_call: Option<(usize, u64)>,
    /// Storage fault armed against one rank's image write at one round.
    /// `None` leaves the checkpoint store undisturbed. (Deliberately not
    /// armed by [`FaultPlan::from_seed`]: the network-fault sweeps assume
    /// every committed round is durable; the storage chaos suite arms this
    /// explicitly.)
    pub storage: Option<StorageFaultSpec>,
    /// Kill the restart at the `k`-th journal-step boundary (a global
    /// 0-based counter over the restart protocol's pre-/post-append
    /// checkpoints). The dying restart leaves the journal exactly as a
    /// crashed coordinator would; a subsequent run must resume from it.
    /// `None` (and any `k` past the last boundary) leaves restart alone.
    /// Not armed by [`FaultPlan::from_seed`] — the restart chaos suite
    /// sweeps `k` explicitly.
    pub restart_kill: Option<u64>,
}

impl FaultSpec {
    /// A spec with every perturbation disarmed (the identity plan).
    pub fn quiet() -> Self {
        FaultSpec {
            delay_pct: 0,
            max_delay_us: 0,
            reorder_pct: 0,
            max_reorder_arrivals: 0,
            ready_stall: None,
            coord_delay_pct: 0,
            max_coord_delay_us: 0,
            trigger_at_call: None,
            storage: None,
            restart_kill: None,
        }
    }

    /// Does this spec perturb anything at all?
    pub fn is_quiet(&self) -> bool {
        self.delay_pct == 0
            && self.reorder_pct == 0
            && self.ready_stall.is_none()
            && self.coord_delay_pct == 0
            && self.trigger_at_call.is_none()
            && self.storage.is_none()
            && self.restart_kill.is_none()
    }
}

/// The decision for one envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturb {
    /// Deliver normally.
    None,
    /// Hold until the duration elapses.
    Delay(Duration),
    /// Hold until `arrivals` later deliveries reached the destination (or
    /// the fallback deadline in [`Perturb::Delay`] units passes, whichever
    /// is first — the network adds the deadline so a quiet destination
    /// cannot starve the envelope).
    Reorder {
        /// How many later deliveries may overtake this envelope.
        arrivals: u64,
    },
}

/// A seeded, immutable fault plan. Shared by the network, the MANA layer
/// and the coordinator via `Arc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    spec: FaultSpec,
}

impl FaultPlan {
    /// Plan from an explicit spec.
    pub fn new(seed: u64, spec: FaultSpec) -> Self {
        FaultPlan { seed, spec }
    }

    /// Derive a full chaos spec from the seed alone, for a world of `n`
    /// ranks. Used by the chaos suite: one `u64` describes the whole
    /// failure scenario.
    pub fn from_seed(seed: u64, n: usize) -> Arc<Self> {
        let h = |salt: u64| splitmix64(seed ^ splitmix64(salt));
        let spec = FaultSpec {
            delay_pct: 10 + (h(1) % 30) as u8,
            max_delay_us: 200 + h(2) % 2_800,
            reorder_pct: 10 + (h(3) % 30) as u8,
            max_reorder_arrivals: 1 + h(4) % 3,
            ready_stall: if h(5) % 2 == 0 {
                Some((
                    (h(6) % n.max(1) as u64) as usize,
                    Duration::from_micros(500 + h(7) % 9_500),
                ))
            } else {
                None
            },
            coord_delay_pct: (h(8) % 40) as u8,
            max_coord_delay_us: 100 + h(9) % 1_900,
            trigger_at_call: Some(((h(10) % n.max(1) as u64) as usize, 5 + h(11) % 35)),
            storage: None,
            restart_kill: None,
        };
        Arc::new(FaultPlan { seed, spec })
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The armed perturbations.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    fn roll(&self, salt: u64, a: u64, b: u64, c: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(salt ^ splitmix64(a ^ splitmix64(b ^ splitmix64(c)))))
    }

    /// The decision for the user envelope identified by `(src, dst, seq)`.
    /// Pure: the same identity always gets the same decision under one
    /// plan.
    pub fn perturb(&self, src: usize, dst: usize, seq: u64) -> Perturb {
        let r = self.roll(0xDE1A_F00D, src as u64, dst as u64, seq);
        let pct = (r % 100) as u8;
        if pct < self.spec.delay_pct && self.spec.max_delay_us > 0 {
            let us =
                1 + self.roll(0x7133_D00D, src as u64, dst as u64, seq) % self.spec.max_delay_us;
            return Perturb::Delay(Duration::from_micros(us));
        }
        if pct < self.spec.delay_pct.saturating_add(self.spec.reorder_pct)
            && self.spec.max_reorder_arrivals > 0
        {
            let arrivals = 1 + self.roll(0x2E02_DE2A, src as u64, dst as u64, seq)
                % self.spec.max_reorder_arrivals;
            return Perturb::Reorder { arrivals };
        }
        Perturb::None
    }

    /// Fallback deadline applied to held envelopes so a quiet destination
    /// cannot starve them.
    pub fn hold_deadline(&self) -> Duration {
        Duration::from_micros(self.spec.max_delay_us.max(2_000))
    }

    /// How long `rank` stalls before reporting `Ready`, if it is the
    /// chosen straggler.
    pub fn ready_stall(&self, rank: usize) -> Option<Duration> {
        match self.spec.ready_stall {
            Some((r, d)) if r == rank => Some(d),
            _ => None,
        }
    }

    /// Delay for the `k`-th rank→coordinator message sent by `rank`.
    pub fn coord_delay(&self, rank: usize, k: u64) -> Option<Duration> {
        if self.spec.coord_delay_pct == 0 || self.spec.max_coord_delay_us == 0 {
            return None;
        }
        let r = self.roll(0xC00D_1A7E, rank as u64, k, 0);
        if (r % 100) as u8 >= self.spec.coord_delay_pct {
            return None;
        }
        let us = 1 + self.roll(0xC00D_DE1A, rank as u64, k, 0) % self.spec.max_coord_delay_us;
        Some(Duration::from_micros(us))
    }

    /// Should `rank` request a checkpoint now, given its wrapper-call
    /// counter?
    pub fn should_trigger(&self, rank: usize, wrapper_calls: u64) -> bool {
        matches!(self.spec.trigger_at_call, Some((r, c)) if r == rank && wrapper_calls >= c)
    }

    /// The journal-step boundary (0-based, pre-/post-append checkpoints
    /// counted globally across the restart protocol) at which the restart
    /// is killed, if armed.
    pub fn restart_kill(&self) -> Option<u64> {
        self.spec.restart_kill
    }

    /// The storage fault hitting `rank`'s image write at checkpoint
    /// `round`, if one is armed there. The offset is seeded from the plan
    /// so a replayed seed tears or flips the exact same byte.
    pub fn storage_fault(&self, rank: usize, round: u64) -> Option<StorageFault> {
        match self.spec.storage {
            Some(s) if s.rank == rank && s.round == round => Some(StorageFault {
                kind: s.kind,
                offset: self.roll(0x5707_A6EF, rank as u64, round, 0),
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_is_pinned() {
        // The first output of the reference SplitMix64 seeded with 0, and
        // one more: every committed seed and chunk boundary rests on these.
        const ZERO: u64 = splitmix64(0);
        assert_eq!(ZERO, 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
    }

    #[test]
    fn fnv1a_known_answers() {
        // The reference FNV-1a 64 vectors, and the value the gid hash
        // returned before it called this one.
        assert_eq!(Fnv1a::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::default().write(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(crate::fnv1a_usizes(&[1, 2, 3]), 0xda2b_fb22_5e0d_1f05);
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::from_seed(42, 4);
        let b = FaultPlan::from_seed(42, 4);
        assert_eq!(a.spec(), b.spec());
        for src in 0..4 {
            for dst in 0..4 {
                for seq in 0..64 {
                    assert_eq!(a.perturb(src, dst, seq), b.perturb(src, dst, seq));
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::from_seed(1, 4);
        let b = FaultPlan::from_seed(2, 4);
        let mut differs = a.spec() != b.spec();
        for seq in 0..256 {
            differs |= a.perturb(0, 1, seq) != b.perturb(0, 1, seq);
        }
        assert!(differs, "seeds 1 and 2 produced identical plans");
    }

    #[test]
    fn quiet_spec_never_perturbs() {
        let p = FaultPlan::new(7, FaultSpec::quiet());
        assert!(p.spec().is_quiet());
        for seq in 0..128 {
            assert_eq!(p.perturb(0, 1, seq), Perturb::None);
        }
        assert_eq!(p.coord_delay(0, 3), None);
        assert_eq!(p.ready_stall(0), None);
        assert!(!p.should_trigger(0, 1_000_000));
        assert_eq!(p.storage_fault(0, 0), None);
    }

    #[test]
    fn storage_fault_targets_one_rank_and_round() {
        let mut spec = FaultSpec::quiet();
        spec.storage = Some(StorageFaultSpec {
            rank: 2,
            round: 1,
            kind: StorageFaultKind::TornWrite,
        });
        assert!(!spec.is_quiet());
        let p = FaultPlan::new(11, spec);
        let f = p.storage_fault(2, 1).expect("armed fault fires");
        assert_eq!(f.kind, StorageFaultKind::TornWrite);
        // Same (rank, round) under the same seed → same seeded offset.
        assert_eq!(p.storage_fault(2, 1), Some(f));
        // Other ranks and rounds are untouched.
        assert_eq!(p.storage_fault(1, 1), None);
        assert_eq!(p.storage_fault(2, 0), None);
        assert_eq!(p.storage_fault(2, 2), None);
    }

    #[test]
    fn seeded_plan_actually_perturbs() {
        let p = FaultPlan::from_seed(3, 4);
        let mut hit = 0;
        for seq in 0..200 {
            if p.perturb(0, 1, seq) != Perturb::None {
                hit += 1;
            }
        }
        // delay_pct + reorder_pct ∈ [20, 80]: a 200-message sample must
        // see some perturbations.
        assert!(hit > 5, "only {hit} of 200 messages perturbed");
    }

    #[test]
    fn trigger_and_stall_target_one_rank() {
        let p = FaultPlan::from_seed(9, 8);
        let (rank, calls) = p.spec().trigger_at_call.unwrap();
        assert!(rank < 8);
        assert!(p.should_trigger(rank, calls));
        assert!(!p.should_trigger(rank, calls - 1));
        assert!(!p.should_trigger((rank + 1) % 8, calls + 100));
        if let Some((r, d)) = p.spec().ready_stall {
            assert_eq!(p.ready_stall(r), Some(d));
            assert_eq!(p.ready_stall((r + 1) % 8), None);
        }
    }
}
