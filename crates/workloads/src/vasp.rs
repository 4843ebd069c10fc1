//! VASP-like SCF kernel: the collective-intensive workload of the paper.
//!
//! VASP is the paper's robustness vehicle (Table I: nine representative
//! workloads spanning DFT/VDW/HSE/GW0 functionals and RMM/BD/CG iteration
//! schemes) and its collective-rate stressor (Fig. 4: collectives per
//! second per process; Table II: runtime overhead on the CaPOH case).
//! This kernel maps each Table I case onto a synthetic SCF loop whose
//! *communication structure* varies the same way the real code paths do:
//!
//! * the iteration scheme (`Algo`) sets the number of per-band
//!   `MPI_Allreduce`s per SCF step (RMM-DIIS and CG are reduction-heavy);
//! * the functional adds its signature traffic: HSE adds exchange-kernel
//!   broadcasts, VDW adds an alltoall (pairwise dispersion), GW0 adds a
//!   gather (response-function assembly);
//! * `KPOINTS` splits the world into k-point groups, moving most
//!   collectives onto sub-communicators (`KPAR` parallelism).
//!
//! Deterministic; resumable at SCF-step granularity.

use crate::face::{CommH, MpiFace, WlError, WlResult, COMM_WORLD};
use mpisim::ReduceOp;
use splitproc::{Decode, Encode};

/// Exchange-correlation treatment (Table I row "Functional").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Functional {
    /// Plain DFT.
    Dft,
    /// DFT + van-der-Waals dispersion.
    Vdw,
    /// Hybrid functional (HSE).
    Hse,
    /// GW0 (response functions).
    Gw0,
}

/// Electronic minimization scheme (Table I row "Algo").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// RMM-DIIS ("VeryFast").
    Rmm,
    /// Blocked Davidson ("Normal").
    Bd,
    /// Davidson then RMM-DIIS ("Fast").
    BdRmm,
    /// Conjugate gradient / damped ("Damped").
    Cg,
}

impl Algo {
    /// Inner band-iteration sweeps per SCF step.
    pub const fn sweeps(self) -> u64 {
        match self {
            Algo::Rmm => 3,
            Algo::Bd => 2,
            Algo::BdRmm => 4,
            Algo::Cg => 5,
        }
    }
}

/// One benchmark case from Table I.
#[derive(Debug, Clone)]
pub struct VaspCase {
    /// Case label (Table I column header).
    pub name: &'static str,
    /// Electron count (sets state size).
    pub electrons: u32,
    /// Ion count (adds relaxation traffic weight).
    pub ions: u32,
    /// Functional.
    pub functional: Functional,
    /// Iteration scheme.
    pub algo: Algo,
    /// KPOINTS mesh.
    pub kpoints: (u8, u8, u8),
}

impl VaspCase {
    /// Total k-points in the mesh.
    pub fn nkpts(&self) -> usize {
        self.kpoints.0 as usize * self.kpoints.1 as usize * self.kpoints.2 as usize
    }
}

/// The nine representative workloads of Table I.
pub fn table1_cases() -> Vec<VaspCase> {
    vec![
        VaspCase {
            name: "PdO4",
            electrons: 3288,
            ions: 348,
            functional: Functional::Dft,
            algo: Algo::Rmm,
            kpoints: (1, 1, 1),
        },
        VaspCase {
            name: "GaAsBi-64",
            electrons: 266,
            ions: 64,
            functional: Functional::Dft,
            algo: Algo::BdRmm,
            kpoints: (4, 4, 4),
        },
        VaspCase {
            name: "CuC_vdw",
            electrons: 1064,
            ions: 98,
            functional: Functional::Vdw,
            algo: Algo::Rmm,
            kpoints: (3, 3, 1),
        },
        VaspCase {
            name: "Si256_hse",
            electrons: 1020,
            ions: 255,
            functional: Functional::Hse,
            algo: Algo::Cg,
            kpoints: (1, 1, 1),
        },
        VaspCase {
            name: "B.hR105_hse",
            electrons: 315,
            ions: 105,
            functional: Functional::Hse,
            algo: Algo::Cg,
            kpoints: (1, 1, 1),
        },
        VaspCase {
            name: "PdO2",
            electrons: 1644,
            ions: 174,
            functional: Functional::Dft,
            algo: Algo::Rmm,
            kpoints: (1, 1, 1),
        },
        VaspCase {
            name: "CaPOH",
            electrons: 288,
            ions: 44,
            functional: Functional::Dft,
            algo: Algo::Bd,
            kpoints: (2, 1, 1),
        },
        VaspCase {
            name: "WOSiH",
            electrons: 80,
            ions: 18,
            functional: Functional::Hse,
            algo: Algo::BdRmm,
            kpoints: (3, 3, 3),
        },
        VaspCase {
            name: "GaAs-GW0",
            electrons: 8,
            ions: 2,
            functional: Functional::Gw0,
            algo: Algo::Bd,
            kpoints: (3, 3, 3),
        },
    ]
}

/// Runtime configuration for the SCF kernel.
#[derive(Debug, Clone)]
pub struct VaspConfig {
    /// The case to run.
    pub case: VaspCase,
    /// SCF steps.
    pub scf_steps: u64,
    /// Scale factor on state size (keeps CI-sized runs small).
    pub state_scale: f64,
    /// Simulated compute units per sweep.
    pub compute_per_sweep: u64,
    /// If set, rank 0 requests a checkpoint at this SCF step (only when
    /// the completed-round counter equals `ckpt_round`).
    pub ckpt_at_step: Option<u64>,
    /// Which checkpoint round the request belongs to.
    pub ckpt_round: u64,
}

impl VaspConfig {
    /// Reasonable test-sized configuration for a case.
    pub fn small(case: VaspCase) -> Self {
        VaspConfig {
            case,
            scf_steps: 6,
            state_scale: 0.05,
            compute_per_sweep: 500,
            ckpt_at_step: None,
            ckpt_round: 0,
        }
    }
}

/// Result of an SCF run.
#[derive(Debug, Clone, PartialEq)]
pub struct VaspResult {
    /// Final "total energy" (deterministic reduction result).
    pub energy: f64,
    /// Steps executed.
    pub steps_done: u64,
    /// Collective wrapper calls issued by this rank (Fig. 4 numerator).
    pub collective_calls: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct ScfState {
    step: u64,
    energy: f64,
    coll_calls: u64,
    bands: Vec<f64>,
    kgroup_comm: Option<u64>,
}

splitproc::wire!(ScfState {
    step,
    energy,
    coll_calls,
    bands,
    kgroup_comm
});

const STATE_KEY: &str = "vasp_state";

fn init_bands(rank: usize, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| 1.0 + ((rank * 37 + i * 11) % 97) as f64 / 97.0)
        .collect()
}

/// Run the SCF kernel. Resumes from saved state when present; the k-point
/// sub-communicator handle is itself part of the saved state (it is a
/// virtual communicator id under MANA, restart-stable per §II-C).
pub fn run<M: MpiFace>(m: &mut M, cfg: &VaspConfig) -> WlResult<VaspResult> {
    let world: CommH = COMM_WORLD;
    let n = m.size();
    let me = m.rank();
    let state_len = (((cfg.case.electrons as usize * 4) / n).max(16) as f64 * cfg.state_scale)
        .max(8.0) as usize;

    let mut st = match m.load(STATE_KEY) {
        Some(bytes) => ScfState::from_bytes(&bytes)
            .map_err(|e| WlError::State(format!("corrupt SCF state: {e}")))?,
        None => {
            // Setup phase: k-point parallelism. KPAR groups = min(nkpts, n).
            let groups = cfg.case.nkpts().min(n).max(1);
            let color = (me * groups / n) as i32;
            let sub = m.split(world, color, me as i32)?;
            ScfState {
                step: 0,
                energy: 0.0,
                coll_calls: 1, // the split
                bands: init_bands(me, state_len),
                kgroup_comm: sub.map(|c| c.0),
            }
        }
    };
    let kcomm = st.kgroup_comm.map(CommH).unwrap_or(world);

    while st.step < cfg.scf_steps {
        let step = st.step;
        if cfg.ckpt_at_step == Some(step) && m.round() == cfg.ckpt_round && me == 0 {
            m.request_checkpoint()?;
        }

        // Band sweeps: per-sweep residual reductions on the k-group. The
        // band blocks are distributed, so the *number* of reductions per
        // sweep grows roughly logarithmically with scale — the effect
        // behind Fig. 4's growing per-process collective rate.
        let blocks = ((n as f64).log2().ceil() as u64).max(1);
        let chunk = (st.bands.len() / blocks as usize).clamp(1, 16);
        for sweep in 0..cfg.case.algo.sweeps() {
            m.compute(cfg.compute_per_sweep)?;
            for blk in 0..blocks {
                let off = (blk as usize * chunk) % st.bands.len();
                let end = (off + chunk).min(st.bands.len());
                let local: Vec<f64> = st.bands[off..end].to_vec();
                let reduced = m.allreduce_f64(kcomm, ReduceOp::Sum, &local)?;
                st.coll_calls += 1;
                let scale = 1.0 / (1.0 + (sweep + 1) as f64 + blk as f64);
                for (b, r) in st.bands[off..end].iter_mut().zip(reduced.iter()) {
                    *b += 1e-3 * scale * (r / (n as f64) - *b);
                }
            }
        }

        // Functional-specific traffic.
        match cfg.case.functional {
            Functional::Dft => {
                let e = m.allreduce_f64(world, ReduceOp::Sum, &[st.bands[0]])?;
                st.coll_calls += 1;
                st.energy = e[0];
            }
            Functional::Vdw => {
                // Pairwise dispersion: alltoall of small per-peer blocks.
                let wsize = m.comm_size(world)?;
                let chunks: Vec<Vec<u8>> = (0..wsize)
                    .map(|j| mpisim::encode_slice(&[st.bands[j % st.bands.len()]]))
                    .collect();
                let got = m.alltoall(world, &chunks)?;
                st.coll_calls += 1;
                let mut acc = 0.0;
                for c in got {
                    acc += mpisim::decode_slice::<f64>(&c)?[0];
                }
                let e = m.allreduce_f64(world, ReduceOp::Sum, &[acc])?;
                st.coll_calls += 1;
                st.energy = e[0];
            }
            Functional::Hse => {
                // Exact-exchange kernel broadcast from rank 0, then two
                // reductions (HSE is the collective-heaviest path).
                let mut kernel = if me == 0 {
                    mpisim::encode_slice(&vec![st.bands[0]; 32])
                } else {
                    Vec::new()
                };
                m.bcast(world, 0, &mut kernel)?;
                st.coll_calls += 1;
                let k = mpisim::decode_slice::<f64>(&kernel)?;
                let local = st.bands[0] * k[0];
                let e1 = m.allreduce_f64(world, ReduceOp::Sum, &[local])?;
                let e2 = m.allreduce_f64(world, ReduceOp::Max, &[e1[0]])?;
                st.coll_calls += 2;
                st.energy = e2[0];
            }
            Functional::Gw0 => {
                // Response-function assembly: gather to root, bcast result.
                let gathered = m.gather(world, 0, &mpisim::encode_slice(&[st.bands[0]]))?;
                st.coll_calls += 1;
                let mut chi = if let Some(parts) = gathered {
                    let mut acc = 0.0;
                    for p in parts {
                        acc += mpisim::decode_slice::<f64>(&p)?[0];
                    }
                    mpisim::encode_slice(&[acc])
                } else {
                    Vec::new()
                };
                m.bcast(world, 0, &mut chi)?;
                st.coll_calls += 1;
                st.energy = mpisim::decode_slice::<f64>(&chi)?[0];
            }
        }

        // Charge-density mixing across the whole world each step.
        let mix = m.allreduce_f64(world, ReduceOp::Sum, &[st.bands.iter().sum::<f64>()])?;
        st.coll_calls += 1;
        let correction = mix[0] / (n as f64 * st.bands.len() as f64);
        for b in st.bands.iter_mut() {
            *b = 0.999 * *b + 1e-4 * correction;
        }

        st.step += 1;
        m.save(STATE_KEY, st.to_bytes());
        m.step_commit()?;
    }

    Ok(VaspResult {
        energy: st.energy,
        steps_done: st.step,
        collective_calls: st.coll_calls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_golden_bytes() {
        let state = ScfState {
            step: 3,
            energy: -42.75,
            coll_calls: 19,
            bands: vec![1.5, 0.0625],
            kgroup_comm: Some(5),
        };
        // As the hand-paired `Encode` impl wrote it, before the state's
        // layout became one declaration.
        const BYTES: &[u8] = &[
            0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x60,
            0x45, 0xc0, 0x13, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0xb0, 0x3f, 0x01, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00,
        ];
        assert_eq!(state.to_bytes(), BYTES);
        assert_eq!(ScfState::from_bytes(BYTES).unwrap(), state);
    }

    fn native(n: usize, cfg: VaspConfig) -> Vec<VaspResult> {
        crate::native(&mpisim::World::new(n, crate::test_world()), &cfg).unwrap()
    }

    #[test]
    fn table1_has_nine_cases_with_paper_values() {
        let cases = table1_cases();
        assert_eq!(cases.len(), 9);
        assert_eq!(cases[0].name, "PdO4");
        assert_eq!(cases[0].electrons, 3288);
        assert_eq!(cases[0].ions, 348);
        assert_eq!(cases[8].name, "GaAs-GW0");
        assert_eq!(cases[8].electrons, 8);
        assert_eq!(cases[1].nkpts(), 64);
        assert_eq!(cases[6].name, "CaPOH");
        assert_eq!(cases[6].electrons, 288);
    }

    #[test]
    fn all_cases_run_and_are_deterministic() {
        for case in table1_cases() {
            let mut cfg = VaspConfig::small(case);
            cfg.scf_steps = 2;
            cfg.compute_per_sweep = 0;
            let a = native(4, cfg.clone());
            let b = native(4, cfg.clone());
            assert_eq!(a, b, "case {} nondeterministic", cfg.case.name);
            assert!(
                a.iter().all(|r| r.energy.is_finite()),
                "case {} energy",
                cfg.case.name
            );
            // Energy is a world-level reduction: identical everywhere.
            assert!(a.windows(2).all(|w| w[0].energy == w[1].energy));
        }
    }

    #[test]
    fn collective_rate_varies_by_case() {
        // HSE/CG cases must issue more collectives than plain DFT/BD.
        let mut hse = VaspConfig::small(table1_cases()[3].clone()); // Si256_hse CG
        let mut dft = VaspConfig::small(table1_cases()[6].clone()); // CaPOH BD
        hse.scf_steps = 2;
        dft.scf_steps = 2;
        hse.compute_per_sweep = 0;
        dft.compute_per_sweep = 0;
        let h = native(4, hse);
        let d = native(4, dft);
        assert!(
            h[0].collective_calls > d[0].collective_calls,
            "HSE {} <= DFT {}",
            h[0].collective_calls,
            d[0].collective_calls
        );
    }

    #[test]
    fn kpoint_split_produces_subgroups() {
        // GaAsBi-64 has 64 k-points: with 4 ranks → 4 singleton groups.
        let mut cfg = VaspConfig::small(table1_cases()[1].clone());
        cfg.scf_steps = 1;
        cfg.compute_per_sweep = 0;
        let out = native(4, cfg);
        assert!(out.iter().all(|r| r.steps_done == 1));
    }
}
