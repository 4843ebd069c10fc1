//! Distributed conjugate-gradient solver (HPCG-flavoured).
//!
//! The paper's related-work section cites HPCG-scale checkpointing runs;
//! this kernel provides a numerically *verifiable* workload: solve
//! `A x = b` for the 1-D Poisson matrix `A = tridiag(-1, 2, -1)` across
//! ranks. Communication mixes halo exchange (matvec) with dot-product
//! allreduces — the convergence of the residual is a strong end-to-end
//! correctness check across checkpoint/restart cycles (a single corrupted
//! or replayed byte destroys convergence).

use crate::face::{MpiFace, WlError, WlResult, COMM_WORLD};
use mpisim::ReduceOp;
use splitproc::{Decode, Encode, Reader};

/// CG configuration.
#[derive(Debug, Clone)]
pub struct CgConfig {
    /// Unknowns per rank.
    pub local_n: usize,
    /// Maximum iterations.
    pub max_iters: u64,
    /// Convergence tolerance on ‖r‖².
    pub tol: f64,
    /// If set, rank 0 requests a checkpoint at this iteration (only when
    /// the completed-round counter equals `ckpt_round`).
    pub ckpt_at_iter: Option<u64>,
    /// Which checkpoint round the request belongs to.
    pub ckpt_round: u64,
}

impl Default for CgConfig {
    fn default() -> Self {
        CgConfig {
            local_n: 64,
            max_iters: 200,
            tol: 1e-10,
            ckpt_at_iter: None,
            ckpt_round: 0,
        }
    }
}

/// CG result.
#[derive(Debug, Clone, PartialEq)]
pub struct CgResult {
    /// Iterations executed.
    pub iters: u64,
    /// Final squared residual norm.
    pub rnorm2: f64,
    /// Converged under tolerance?
    pub converged: bool,
}

#[derive(Debug, Clone, PartialEq)]
struct CgState {
    iter: u64,
    x: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    rsold: f64,
}

impl Encode for CgState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.iter.encode(out);
        self.x.encode(out);
        self.r.encode(out);
        self.p.encode(out);
        self.rsold.encode(out);
    }
}

impl Decode for CgState {
    fn decode(rd: &mut Reader<'_>) -> Result<Self, splitproc::CodecError> {
        Ok(CgState {
            iter: u64::decode(rd)?,
            x: Vec::decode(rd)?,
            r: Vec::decode(rd)?,
            p: Vec::decode(rd)?,
            rsold: f64::decode(rd)?,
        })
    }
}

const STATE_KEY: &str = "cg_state";
const TAG_UP: i32 = 300;
const TAG_DOWN: i32 = 301;

/// Distributed matvec `y = A p` for the global tridiag(-1,2,-1) with halo
/// exchange of the single boundary value on each side.
fn matvec<M: MpiFace>(m: &mut M, p: &[f64]) -> WlResult<Vec<f64>> {
    let n = m.size();
    let me = m.rank();
    let ln = p.len();
    // Exchange boundary values with linear neighbours (no wraparound).
    let mut lower_ghost = 0.0f64;
    let mut upper_ghost = 0.0f64;
    let mut reqs = Vec::new();
    if me > 0 {
        reqs.push((m.irecv(COMM_WORLD, me - 1, TAG_UP)?, 0u8));
        m.send(COMM_WORLD, me - 1, TAG_DOWN, &mpisim::encode_slice(&[p[0]]))?;
    }
    if me + 1 < n {
        reqs.push((m.irecv(COMM_WORLD, me + 1, TAG_DOWN)?, 1u8));
        m.send(
            COMM_WORLD,
            me + 1,
            TAG_UP,
            &mpisim::encode_slice(&[p[ln - 1]]),
        )?;
    }
    for (r, which) in reqs {
        let data = m.wait(r)?;
        let v = mpisim::decode_slice::<f64>(&data)?[0];
        if which == 0 {
            lower_ghost = v;
        } else {
            upper_ghost = v;
        }
    }
    let mut y = vec![0.0; ln];
    for i in 0..ln {
        let left = if i == 0 { lower_ghost } else { p[i - 1] };
        let right = if i + 1 == ln { upper_ghost } else { p[i + 1] };
        y[i] = 2.0 * p[i] - left - right;
    }
    Ok(y)
}

fn dot<M: MpiFace>(m: &mut M, a: &[f64], b: &[f64]) -> WlResult<f64> {
    let local: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    Ok(m.allreduce_f64(COMM_WORLD, ReduceOp::Sum, &[local])?[0])
}

/// Run CG with `b = 1` everywhere and `x0 = 0`. Resumable per iteration.
pub fn run<M: MpiFace>(m: &mut M, cfg: &CgConfig) -> WlResult<CgResult> {
    let ln = cfg.local_n;
    let mut st = match m.load(STATE_KEY) {
        Some(bytes) => CgState::from_bytes(&bytes)
            .map_err(|e| WlError::State(format!("corrupt CG state: {e}")))?,
        None => {
            let b = vec![1.0f64; ln];
            let x = vec![0.0f64; ln];
            // r = b - A x = b;  p = r.
            let rsold_local: f64 = b.iter().map(|v| v * v).sum();
            let rsold = m.allreduce_f64(COMM_WORLD, ReduceOp::Sum, &[rsold_local])?[0];
            CgState {
                iter: 0,
                r: b.clone(),
                p: b,
                x,
                rsold,
            }
        }
    };

    while st.iter < cfg.max_iters && st.rsold > cfg.tol {
        if cfg.ckpt_at_iter == Some(st.iter) && m.round() == cfg.ckpt_round && m.rank() == 0 {
            m.request_checkpoint()?;
        }
        let ap = matvec(m, &st.p)?;
        let pap = dot(m, &st.p, &ap)?;
        let alpha = st.rsold / pap;
        for (i, a) in ap.iter().enumerate().take(ln) {
            st.x[i] += alpha * st.p[i];
            st.r[i] -= alpha * a;
        }
        let rsnew = dot(m, &st.r, &st.r)?;
        let beta = rsnew / st.rsold;
        for i in 0..ln {
            st.p[i] = st.r[i] + beta * st.p[i];
        }
        st.rsold = rsnew;
        st.iter += 1;
        m.save(STATE_KEY, st.to_bytes());
        m.step_commit()?;
    }

    Ok(CgResult {
        iters: st.iter,
        rnorm2: st.rsold,
        converged: st.rsold <= cfg.tol,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn native(n: usize, cfg: CgConfig) -> Vec<CgResult> {
        crate::native(&mpisim::World::new(n, crate::test_world()), &cfg).unwrap()
    }

    #[test]
    fn converges_on_poisson() {
        let cfg = CgConfig {
            local_n: 16,
            max_iters: 200,
            tol: 1e-10,
            ckpt_at_iter: None,
            ckpt_round: 0,
        };
        let out = native(4, cfg);
        // CG on an SPD tridiagonal of dimension 64 converges in ≤ 64 iters.
        for r in &out {
            assert!(r.converged, "rnorm2={}", r.rnorm2);
            assert!(r.iters <= 64 + 1);
        }
        assert!(out.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn single_rank_matches_tridiagonal_solve() {
        let cfg = CgConfig {
            local_n: 8,
            max_iters: 50,
            tol: 1e-12,
            ckpt_at_iter: None,
            ckpt_round: 0,
        };
        let out = native(1, cfg);
        assert!(out[0].converged);
        // Known solution of tridiag(-1,2,-1) x = 1: x_i = i(n+1-i)/2,
        // 1-indexed. Spot-check via the residual instead (already ~0).
        assert!(out[0].rnorm2 < 1e-12);
    }

    #[test]
    fn codec_roundtrip_preserves_f64_bits() {
        let st = CgState {
            iter: 3,
            x: vec![1.5, -2.25],
            r: vec![0.0],
            p: vec![f64::MIN_POSITIVE],
            rsold: 1e-300,
        };
        assert_eq!(CgState::from_bytes(&st.to_bytes()).unwrap(), st);
    }
}
