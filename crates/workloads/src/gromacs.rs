//! GROMACS-like molecular-dynamics kernel: halo exchange + periodic
//! energy reduction.
//!
//! The paper evaluates MANA-2.0's p2p path with GROMACS on a 407k-atom
//! AuCoo system (Fig. 2, Fig. 3). This kernel reproduces the communication
//! skeleton that matters for those figures: per-step neighbour exchange of
//! boundary particles (`isend`/`irecv` pairs, the dominant traffic),
//! simulated force computation between post and wait, and an
//! `MPI_Allreduce` of the potential energy every few steps.
//!
//! The kernel is deterministic, so the same configuration produces
//! bit-identical results natively, under MANA, and across any number of
//! checkpoint/restart cycles — which is how the C/R tests verify
//! transparency. Halo receives for step *k+1* are posted before step *k*
//! commits, so a checkpoint almost always captures live pending requests
//! and in-flight messages (exercising the §III-A/§III-B machinery for
//! real).

use crate::face::{CommH, MpiFace, ReqH, WlError, WlResult, COMM_WORLD};
use mpisim::ReduceOp;
use splitproc::{Decode, Encode, Reader};

/// MD workload configuration.
#[derive(Debug, Clone)]
pub struct GromacsConfig {
    /// Particles owned by each rank.
    pub atoms_per_rank: usize,
    /// MD steps to run.
    pub steps: u64,
    /// Simulated force-computation units per step.
    pub compute_per_step: u64,
    /// Allreduce the energy every this many steps.
    pub energy_interval: u64,
    /// Boundary width exchanged with each neighbour.
    pub halo: usize,
    /// If set, rank 0 requests a checkpoint at this step (only when the
    /// runtime's completed-round counter equals `ckpt_round`, so re-runs
    /// after a restart do not re-request).
    pub ckpt_at_step: Option<u64>,
    /// Which checkpoint round the request belongs to (see `ckpt_at_step`).
    pub ckpt_round: u64,
}

impl Default for GromacsConfig {
    fn default() -> Self {
        GromacsConfig {
            atoms_per_rank: 512,
            steps: 20,
            compute_per_step: 2_000,
            energy_interval: 5,
            halo: 16,
            ckpt_at_step: None,
            ckpt_round: 0,
        }
    }
}

/// MD workload result.
#[derive(Debug, Clone, PartialEq)]
pub struct GromacsResult {
    /// Final allreduced potential energy.
    pub energy: f64,
    /// Order-stable checksum of the local particle state.
    pub checksum: u64,
    /// Steps executed.
    pub steps_done: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct MdState {
    step: u64,
    energy: f64,
    positions: Vec<f64>,
    // Pipelined halo receives posted for the *next* step (left, right):
    // virtual request ids, restart-stable under MANA (§II-C).
    pending: Option<(u64, u64)>,
}

impl Encode for MdState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.step.encode(out);
        self.energy.encode(out);
        self.positions.encode(out);
        self.pending.encode(out);
    }
}

impl Decode for MdState {
    fn decode(r: &mut Reader<'_>) -> Result<Self, splitproc::CodecError> {
        Ok(MdState {
            step: u64::decode(r)?,
            energy: f64::decode(r)?,
            positions: Vec::decode(r)?,
            pending: Option::<(u64, u64)>::decode(r)?,
        })
    }
}

const STATE_KEY: &str = "gromacs_state";
const TAG_RIGHTWARD: i32 = 100; // payload travelling left→right
const TAG_LEFTWARD: i32 = 102; // payload travelling right→left

fn tag(base: i32, step: u64) -> i32 {
    base + (step % 2) as i32
}

fn init_positions(rank: usize, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((rank * 131 + i * 7) % 1000) as f64 / 250.0 - 2.0)
        .collect()
}

fn checksum(positions: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &p in positions {
        h ^= p.to_bits();
        h = h.wrapping_mul(0x100000001B3);
    }
    h
}

fn post_halo_recvs<M: MpiFace>(m: &mut M, step: u64) -> WlResult<(ReqH, ReqH)> {
    let n = m.size();
    let left = (m.rank() + n - 1) % n;
    let right = (m.rank() + 1) % n;
    let from_left = m.irecv(COMM_WORLD, left, tag(TAG_RIGHTWARD, step))?;
    let from_right = m.irecv(COMM_WORLD, right, tag(TAG_LEFTWARD, step))?;
    Ok((from_left, from_right))
}

/// Run the MD kernel on any backend. Resumes from saved state if present.
pub fn run<M: MpiFace>(m: &mut M, cfg: &GromacsConfig) -> WlResult<GromacsResult> {
    let world: CommH = COMM_WORLD;
    let n = m.size();
    let me = m.rank();
    let left = (me + n - 1) % n;
    let right = (me + 1) % n;
    let halo = cfg.halo.min(cfg.atoms_per_rank);

    let mut st = match m.load(STATE_KEY) {
        Some(bytes) => MdState::from_bytes(&bytes)
            .map_err(|e| WlError::State(format!("corrupt MD state: {e}")))?,
        None => MdState {
            step: 0,
            energy: 0.0,
            positions: init_positions(me, cfg.atoms_per_rank),
            pending: None,
        },
    };

    while st.step < cfg.steps {
        let step = st.step;
        if cfg.ckpt_at_step == Some(step) && m.round() == cfg.ckpt_round && me == 0 {
            m.request_checkpoint()?;
        }

        // Halo receives: use the pipelined pair posted last step, or post
        // fresh ones on the very first step / after a cold start.
        let (from_left, from_right) = match st.pending.take() {
            Some((a, b)) => (ReqH(a), ReqH(b)),
            None => post_halo_recvs(m, step)?,
        };

        // Send boundaries (n == 1 degenerates to self-exchange via ring).
        let right_edge: Vec<f64> = st.positions[st.positions.len() - halo..].to_vec();
        let left_edge: Vec<f64> = st.positions[..halo].to_vec();
        let s1 = m.isend(
            world,
            right,
            tag(TAG_RIGHTWARD, step),
            &mpisim::encode_slice(&right_edge),
        )?;
        let s2 = m.isend(
            world,
            left,
            tag(TAG_LEFTWARD, step),
            &mpisim::encode_slice(&left_edge),
        )?;

        // Force computation overlaps with communication.
        m.compute(cfg.compute_per_step)?;

        let ghost_left: Vec<f64> = mpisim::decode_slice(&m.wait(from_left)?)?;
        let ghost_right: Vec<f64> = mpisim::decode_slice(&m.wait(from_right)?)?;
        m.wait(s1)?;
        m.wait(s2)?;

        // Deterministic stencil "integration" using the ghosts.
        let len = st.positions.len();
        for i in 0..halo {
            st.positions[i] += 1e-3 * (ghost_left[i] - st.positions[i]);
            st.positions[len - halo + i] += 1e-3 * (ghost_right[i] - st.positions[len - halo + i]);
        }
        for i in halo..len - halo {
            let lap = st.positions[i - 1] - 2.0 * st.positions[i] + st.positions[i + 1];
            st.positions[i] += 1e-4 * lap;
        }

        // Periodic global energy.
        if (step + 1) % cfg.energy_interval == 0 {
            let local: f64 = st.positions.iter().map(|p| p * p).sum();
            st.energy = m.allreduce_f64(world, ReduceOp::Sum, &[local])?[0];
        }

        st.step += 1;
        // Pipeline: post next step's halo receives before committing, so a
        // checkpoint at the boundary carries pending virtual requests.
        if st.step < cfg.steps {
            let (a, b) = post_halo_recvs(m, st.step)?;
            st.pending = Some((a.0, b.0));
        }
        m.save(STATE_KEY, st.to_bytes());
        m.step_commit()?;
    }

    Ok(GromacsResult {
        energy: st.energy,
        checksum: checksum(&st.positions),
        steps_done: st.step,
    })
}

/// The Fig. 3 shape: `md` run through `rounds` checkpoint rounds, rank 0
/// requesting round `r` one step into the `r`-th stretch of `stride`
/// steps, then on to `md.steps`. Built from resumable [`run`] calls, so it
/// is itself resumable.
#[derive(Debug, Clone)]
pub struct Periodic {
    /// The underlying MD run (its own `ckpt_*` fields are ignored).
    pub md: GromacsConfig,
    /// Checkpoint rounds to request.
    pub rounds: u64,
    /// Steps between requests.
    pub stride: u64,
}

impl crate::Kernel for Periodic {
    type Out = GromacsResult;
    fn run<F: MpiFace>(&self, f: &mut F) -> WlResult<GromacsResult> {
        let mut cfg = self.md.clone();
        for r in 0..self.rounds {
            cfg.steps = (r + 1) * self.stride;
            cfg.ckpt_at_step = Some(r * self.stride + 1);
            cfg.ckpt_round = r;
            run(f, &cfg)?;
        }
        cfg.steps = self.md.steps;
        cfg.ckpt_at_step = None;
        run(f, &cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn native(n: usize, cfg: GromacsConfig) -> Vec<GromacsResult> {
        crate::native(&mpisim::World::new(n, crate::test_world()), &cfg).unwrap()
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = GromacsConfig {
            atoms_per_rank: 64,
            steps: 6,
            compute_per_step: 0,
            energy_interval: 2,
            halo: 8,
            ckpt_at_step: None,
            ckpt_round: 0,
        };
        let a = native(3, cfg.clone());
        let b = native(3, cfg);
        assert_eq!(a, b);
        // Energy is global: identical on all ranks.
        assert!(a.windows(2).all(|w| w[0].energy == w[1].energy));
        assert!(a[0].energy.is_finite() && a[0].energy > 0.0);
    }

    #[test]
    fn different_scales_give_different_checksums() {
        let cfg = GromacsConfig {
            atoms_per_rank: 64,
            steps: 4,
            compute_per_step: 0,
            energy_interval: 2,
            halo: 4,
            ckpt_at_step: None,
            ckpt_round: 0,
        };
        let a = native(2, cfg.clone());
        let b = native(4, cfg);
        assert_ne!(a[0].energy, b[0].energy);
    }

    #[test]
    fn single_rank_world_works() {
        let cfg = GromacsConfig {
            atoms_per_rank: 32,
            steps: 3,
            compute_per_step: 0,
            energy_interval: 1,
            halo: 4,
            ckpt_at_step: None,
            ckpt_round: 0,
        };
        let out = native(1, cfg);
        assert_eq!(out[0].steps_done, 3);
    }
}
