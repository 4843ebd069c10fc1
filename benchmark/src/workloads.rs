//! The four workloads and the application they run.
//!
//! Every workload definition lives in this file: the shapes (rank count,
//! kernel, image size, drain and store mode) and the one application
//! driver that runs a kernel from the `workloads` crate in *segments*,
//! with a checkpoint trigger inside each segment. A later change to a
//! kernel's configuration touches this file and no other.

use crate::inputs::{Inputs, Mutation};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use workloads::face::{MpiFace, WlError, WlResult};
use workloads::{gromacs, vasp};

/// Drain protocol a workload checkpoints with (mapped onto
/// `mana_core::DrainMode` in `layers.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drain {
    Alltoall,
    Coordinator,
    TopoSort,
}

impl Drain {
    pub const ALL: [Drain; 3] = [Drain::Alltoall, Drain::Coordinator, Drain::TopoSort];

    pub fn name(self) -> &'static str {
        match self {
            Drain::Alltoall => "alltoall",
            Drain::Coordinator => "coordinator",
            Drain::TopoSort => "toposort",
        }
    }
}

/// Store layout a workload checkpoints into (mapped onto
/// `splitproc::StoreMode` in `layers.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    Flat,
    Chunked,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// `workloads::gromacs` ring-halo MD kernel: point-to-point heavy.
    GromacsHalo,
    /// `workloads::vasp` CaPOH SCF kernel: collective heavy.
    VaspCapoh,
}

/// A per-rank upper-half segment that gives images their bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slab {
    pub len: usize,
    pub mutation: Mutation,
}

/// One workload: a shape, not a repetition count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub ranks: usize,
    pub kernel: Kernel,
    /// Kernel steps per segment, i.e. between two checkpoint triggers.
    pub steps_per_segment: u64,
    /// Step within the segment at which rank 0 requests the checkpoint.
    /// Not 0, so the segment's first messages are in flight at the trigger.
    pub trigger_step: u64,
    pub slab: Option<Slab>,
    pub drain: Drain,
    pub layout: Layout,
    /// Segments of one steady (no-checkpoint) run.
    pub steady_segments: u64,
}

const SLAB_LEN: usize = 2 * 1024 * 1024;

fn narrow(name: &'static str, why: &'static str, mutation: Mutation, layout: Layout) -> Spec {
    Spec {
        name,
        why,
        ranks: 8,
        kernel: Kernel::VaspCapoh,
        steps_per_segment: 2,
        trigger_step: 1,
        slab: Some(Slab {
            len: SLAB_LEN,
            mutation,
        }),
        drain: Drain::Alltoall,
        layout,
        steady_segments: 60,
    }
}

/// The benchmark's workloads. Names are the ones `BENCHMARK.json` lists.
pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "wide_small",
            why: "64 ranks, 1 KiB images: quiesce, drain exchange, coordinator fan-in and the \
                  per-rank fixed store cost do the work; image bytes are under 1% of the stall",
            ranks: 64,
            kernel: Kernel::GromacsHalo,
            steps_per_segment: 3,
            trigger_step: 1,
            slab: None,
            drain: Drain::Alltoall,
            layout: Layout::Flat,
            steady_segments: 12,
        },
        narrow(
            "narrow_static",
            "8 ranks, 2 MiB images, 2% rewritten per round, chunked store: encode, CRC, chunk, \
             SHA-256 and dedup lookups dominate and almost nothing is written",
            Mutation::Window { denominator: 50 },
            Layout::Chunked,
        ),
        narrow(
            "narrow_churn",
            "as narrow_static but every byte is new each round: every chunk is a fresh file and \
             chunk GC sweeps a full generation, so a dedup fast path that taxes writes shows here",
            Mutation::Refill,
            Layout::Chunked,
        ),
        narrow(
            "narrow_flat",
            "as narrow_static in the default flat layout: one 2 MiB file per rank rewritten every \
             round; the bypass workload for any chunk or hash optimisation",
            Mutation::Window { denominator: 50 },
            Layout::Flat,
        ),
    ]
}

pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

/// How many segments one application run executes and which of them
/// request a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub segments: u64,
    /// Segments in which rank 0 requests a checkpoint.
    pub triggers: Range<u64>,
    /// Whether the slab is mutated at the start of each segment. Steady
    /// runs leave it alone so they time communication, not the PRNG.
    pub mutate: bool,
}

impl Plan {
    /// `rounds` triggered segments and one untriggered tail segment.
    pub fn rounds(rounds: u64) -> Plan {
        Plan {
            segments: rounds + 1,
            triggers: 0..rounds,
            mutate: true,
        }
    }

    /// No checkpoint at all.
    pub fn steady(segments: u64) -> Plan {
        Plan {
            segments,
            triggers: 0..0,
            mutate: false,
        }
    }

    /// The same run with the triggers removed: what a restart executes.
    pub fn without_triggers(&self) -> Plan {
        Plan {
            triggers: 0..0,
            ..self.clone()
        }
    }
}

/// Ends a run of checkpoint rounds by the clock instead of by count: once
/// `at` has passed (and `min_rounds` segments have triggered), rank 0
/// makes the *next* segment the untriggered tail. It decides a segment
/// ahead because every segment ends in a world-wide allreduce: a rank
/// that starts segment k+1 has already exchanged messages with a rank 0
/// that was past its decision in segment k, so every rank reads the same
/// answer. The flag is shared memory of the benchmark process, not a
/// message: it adds nothing to the traffic being measured.
#[derive(Debug)]
pub struct Deadline {
    pub at: Instant,
    pub min_rounds: u64,
    /// The tail segment, `u64::MAX` until rank 0 has decided.
    tail: AtomicU64,
}

impl Deadline {
    pub fn new(at: Instant, min_rounds: u64) -> Deadline {
        Deadline {
            at,
            min_rounds,
            tail: AtomicU64::new(u64::MAX),
        }
    }

    /// Segments that triggered a checkpoint, once the run has ended.
    pub fn rounds(&self, plan: &Plan) -> u64 {
        self.tail.load(Ordering::SeqCst).min(plan.triggers.end)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum KernelResult {
    Gromacs(gromacs::GromacsResult),
    Vasp(vasp::VaspResult),
}

/// What one rank's application run returns; compared rank by rank with
/// the native reference run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppResult {
    pub kernel: KernelResult,
    /// Digest of the final slab (0 without a slab): a restart that
    /// restored the wrong bytes changes it.
    pub slab_digest: u64,
}

const SEGMENT_KEY: &str = "bench_segment";
const SLAB_KEY: &str = "bench_slab";

fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
            .wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn gromacs_cfg(spec: &Spec, steps: u64, ckpt: Option<(u64, u64)>) -> gromacs::GromacsConfig {
    gromacs::GromacsConfig {
        atoms_per_rank: 32,
        steps,
        compute_per_step: 0,
        // One energy allreduce per segment, on its last step: no rank can
        // leave a segment before rank 0 has requested that segment's
        // checkpoint, so every rank checkpoints in the segment it is in.
        energy_interval: spec.steps_per_segment,
        halo: 8,
        ckpt_at_step: ckpt.map(|(step, _)| step),
        ckpt_round: ckpt.map_or(0, |(_, round)| round),
    }
}

fn vasp_cfg(steps: u64, ckpt: Option<(u64, u64)>) -> vasp::VaspConfig {
    let case = vasp::table1_cases()
        .into_iter()
        .find(|c| c.name == "CaPOH")
        .expect("Table I lists CaPOH");
    vasp::VaspConfig {
        case,
        scf_steps: steps,
        state_scale: 0.2,
        compute_per_sweep: 0,
        ckpt_at_step: ckpt.map(|(step, _)| step),
        ckpt_round: ckpt.map_or(0, |(_, round)| round),
    }
}

/// Run the workload's application on any backend. Resumable: after a
/// restart it finds its segment and slab in saved state and continues.
pub fn run_app<M: MpiFace>(
    m: &mut M,
    spec: &Spec,
    inputs: &Inputs,
    plan: &Plan,
    deadline: Option<&Deadline>,
) -> WlResult<AppResult> {
    let rank = m.rank();
    let first = match m.load(SEGMENT_KEY) {
        Some(bytes) => u64::from_le_bytes(
            bytes
                .as_slice()
                .try_into()
                .map_err(|_| WlError::State("corrupt segment marker".into()))?,
        ),
        None => {
            if spec.slab.is_some() {
                m.save(SLAB_KEY, inputs.slabs[rank].clone());
            }
            0
        }
    };
    let mut kernel = None;
    for segment in first..plan.segments {
        let tail = deadline.map_or(u64::MAX, |d| d.tail.load(Ordering::SeqCst));
        if segment > tail {
            break;
        }
        if let Some(d) = deadline {
            let due = segment + 1 >= d.min_rounds && Instant::now() >= d.at;
            if rank == 0 && tail == u64::MAX && due {
                d.tail.store(segment + 1, Ordering::SeqCst);
            }
        }
        m.save(SEGMENT_KEY, segment.to_le_bytes().to_vec());
        if let (Some(slab), true) = (spec.slab, plan.mutate) {
            let mut bytes = m
                .load(SLAB_KEY)
                .ok_or_else(|| WlError::State("slab segment missing".into()))?;
            inputs.mutate(slab.mutation, rank, segment, &mut bytes);
            m.save(SLAB_KEY, bytes);
        }
        let steps = (segment + 1) * spec.steps_per_segment;
        let ckpt = (plan.triggers.contains(&segment) && segment < tail).then(|| {
            (
                segment * spec.steps_per_segment + spec.trigger_step,
                m.round(),
            )
        });
        kernel = Some(match spec.kernel {
            Kernel::GromacsHalo => {
                KernelResult::Gromacs(gromacs::run(m, &gromacs_cfg(spec, steps, ckpt))?)
            }
            Kernel::VaspCapoh => KernelResult::Vasp(vasp::run(m, &vasp_cfg(steps, ckpt))?),
        });
    }
    let kernel = kernel.ok_or_else(|| WlError::State("plan has no segment left to run".into()))?;
    let slab_digest = m.load(SLAB_KEY).map_or(0, |b| digest(&b));
    Ok(AppResult {
        kernel,
        slab_digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_the_normative_four() {
        let names: Vec<_> = all().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["wide_small", "narrow_static", "narrow_churn", "narrow_flat"]
        );
        assert!(by_name("narrow_churn").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn whys_fit_the_contract() {
        for s in all() {
            assert!(
                s.why.len() <= 200,
                "{} why is {} chars",
                s.name,
                s.why.len()
            );
            assert!(!s.why.contains('\n'));
            assert!(s.trigger_step > 0 && s.trigger_step < s.steps_per_segment);
        }
    }

    #[test]
    fn plans() {
        let p = Plan::rounds(5);
        assert_eq!((p.segments, p.triggers.clone()), (6, 0..5));
        assert_eq!(p.without_triggers().triggers, 0..0);
        assert_eq!(p.without_triggers().segments, 6);
        assert!(!Plan::steady(3).mutate);
    }

    #[test]
    fn digest_sees_every_byte() {
        let a = vec![1u8; 19];
        let mut b = a.clone();
        b[18] = 2;
        assert_ne!(digest(&a), digest(&b));
        b[18] = 1;
        b[3] = 9;
        assert_ne!(digest(&a), digest(&b));
    }
}
