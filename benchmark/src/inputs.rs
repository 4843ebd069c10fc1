//! Seeded inputs: slab contents, mutation windows, and the schedule seed.
//!
//! Everything a workload needs that is not fixed by its shape comes from
//! here, and everything here is a pure function of `--seed`. The program
//! under test never sees the seed, only these generated values.

use std::ops::Range;

/// splitmix64: small, fast, and good enough to make slabs incompressible
/// for the content-defined chunker.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fill `buf` with pseudo-random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut words = buf.chunks_exact_mut(8);
        for w in &mut words {
            w.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = words.into_remainder();
        let last = self.next_u64().to_le_bytes();
        tail.copy_from_slice(&last[..tail.len()]);
    }
}

/// Derive an independent stream seed from the run seed and up to three
/// coordinates (purpose, rank, segment).
fn derive(seed: u64, purpose: u64, a: u64, b: u64) -> u64 {
    let mut r = Rng::new(seed ^ purpose.wrapping_mul(0xa076_1d64_78bd_642f));
    let x = r.next_u64() ^ a.wrapping_mul(0xe703_7ed1_a0b4_28db);
    let mut r = Rng::new(x);
    r.next_u64() ^ b.wrapping_mul(0x8ebc_6af0_9c88_c6e3)
}

const PURPOSE_SLAB: u64 = 1;
const PURPOSE_WINDOW: u64 = 2;
const PURPOSE_REFILL: u64 = 3;
const PURPOSE_SCHED: u64 = 4;

/// How a workload's slab changes before each checkpoint trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// One contiguous window covering `1/denominator` of the slab is
    /// rewritten; the rest keeps its bytes.
    Window { denominator: usize },
    /// The whole slab is refilled.
    Refill,
}

/// The generated inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    seed: u64,
    /// Initial slab of every rank (empty when the workload has no slab).
    pub slabs: Vec<Vec<u8>>,
    /// Seed of the cooperative engine's schedule.
    pub sched_seed: u64,
}

impl Inputs {
    pub fn generate(seed: u64, ranks: usize, slab_len: usize) -> Inputs {
        let slabs = (0..ranks)
            .map(|rank| {
                let mut slab = vec![0u8; slab_len];
                Rng::new(derive(seed, PURPOSE_SLAB, rank as u64, 0)).fill(&mut slab);
                slab
            })
            .collect();
        Inputs {
            seed,
            slabs,
            sched_seed: derive(seed, PURPOSE_SCHED, 0, 0),
        }
    }

    /// The byte range `rank` rewrites before the trigger of `segment`.
    pub fn window(
        &self,
        rank: usize,
        segment: u64,
        len: usize,
        denominator: usize,
    ) -> Range<usize> {
        let width = (len / denominator.max(1)).max(1).min(len);
        let span = (len - width + 1) as u64;
        let start = (derive(self.seed, PURPOSE_WINDOW, rank as u64, segment) % span) as usize;
        start..start + width
    }

    /// Apply `mutation` for (`rank`, `segment`) to `slab`. Deterministic:
    /// replaying a segment after a restart rewrites the same bytes.
    pub fn mutate(&self, mutation: Mutation, rank: usize, segment: u64, slab: &mut [u8]) {
        let range = match mutation {
            Mutation::Window { denominator } => self.window(rank, segment, slab.len(), denominator),
            Mutation::Refill => 0..slab.len(),
        };
        Rng::new(derive(self.seed, PURPOSE_REFILL, rank as u64, segment)).fill(&mut slab[range]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_slabs_and_windows() {
        let a = Inputs::generate(7, 3, 4096 + 5);
        let b = Inputs::generate(7, 3, 4096 + 5);
        assert_eq!(a.slabs, b.slabs);
        assert_eq!(a.sched_seed, b.sched_seed);
        for rank in 0..3 {
            for seg in 0..20 {
                assert_eq!(a.window(rank, seg, 4101, 50), b.window(rank, seg, 4101, 50));
            }
        }
        let (mut x, mut y) = (a.slabs[1].clone(), b.slabs[1].clone());
        a.mutate(Mutation::Refill, 1, 4, &mut x);
        b.mutate(Mutation::Refill, 1, 4, &mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn different_seed_differs() {
        let a = Inputs::generate(7, 2, 4096);
        let b = Inputs::generate(8, 2, 4096);
        assert_ne!(a.slabs, b.slabs);
        assert_ne!(a.sched_seed, b.sched_seed);
        let wa: Vec<_> = (0..16).map(|s| a.window(0, s, 1 << 20, 50)).collect();
        let wb: Vec<_> = (0..16).map(|s| b.window(0, s, 1 << 20, 50)).collect();
        assert_ne!(wa, wb);
    }

    #[test]
    fn ranks_and_segments_get_distinct_streams() {
        let a = Inputs::generate(1, 2, 1024);
        assert_ne!(a.slabs[0], a.slabs[1]);
        assert_ne!(a.window(0, 0, 1 << 20, 50), a.window(0, 1, 1 << 20, 50));
    }

    #[test]
    fn window_mutation_touches_only_the_window() {
        let a = Inputs::generate(3, 1, 10_000);
        let before = a.slabs[0].clone();
        let mut after = before.clone();
        a.mutate(Mutation::Window { denominator: 50 }, 0, 9, &mut after);
        let w = a.window(0, 9, 10_000, 50);
        assert_eq!(w.len(), 200);
        assert_eq!(before[..w.start], after[..w.start]);
        assert_eq!(before[w.end..], after[w.end..]);
        assert_ne!(before[w.clone()], after[w]);
    }

    #[test]
    fn fill_handles_lengths_that_are_not_multiples_of_eight() {
        for len in [0usize, 1, 7, 8, 9, 15] {
            let mut buf = vec![0u8; len];
            Rng::new(5).fill(&mut buf);
            assert_eq!(buf.len(), len);
        }
    }
}
