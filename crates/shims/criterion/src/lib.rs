//! Minimal `criterion`-compatible benchmarking surface for offline
//! builds.
//!
//! The build container has no crates.io access, so the workspace vendors
//! the API subset its one bench (`integrity_kernels`) uses: `Criterion`,
//! `benchmark_group`, `bench_function`, `Throughput`, `Bencher::iter`,
//! `Bencher::iter_batched` with `BatchSize`, and the
//! `criterion_group!` / `criterion_main!` macros.
//! Measurement is a simple wall-clock mean over `sample_size` iterations
//! printed as plain text (plus MB/s when a group declares its
//! throughput) — no statistics, plots, or comparison baselines.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion;

impl Criterion {
    /// Apply command-line configuration (accepted and ignored).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        eprintln!("group {name}");
        BenchmarkGroup {
            _c: self,
            name,
            sample_size: 10,
            throughput: None,
        }
    }
}

/// How much data one iteration processes, so a rate can be reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes consumed per iteration.
    Bytes(u64),
}

/// A named group of benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed iterations for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declare what one iteration of the following benchmarks processes;
    /// their report lines then carry MB/s (10^6 bytes per second).
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Run one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(
            &format!("{}/{id}", self.name),
            self.sample_size,
            self.throughput,
            &mut f,
        );
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

/// How many inputs `Bencher::iter_batched` sets up at a time. Accepted for
/// criterion compatibility; this harness sets up one input per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Inputs too large to hold many of.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

/// Timing harness handed to benchmark closures.
pub struct Bencher {
    samples: usize,
    total: Duration,
    iters: u64,
}

impl Bencher {
    /// Time `samples` calls of `f`, accumulating into the report.
    pub fn iter<O, F>(&mut self, mut f: F)
    where
        F: FnMut() -> O,
    {
        // One untimed call to warm caches and lazy state.
        black_box(f());
        let start = Instant::now();
        for _ in 0..self.samples {
            black_box(f());
        }
        self.total += start.elapsed();
        self.iters += self.samples as u64;
    }

    /// Time `samples` calls of `routine`, each on a fresh input from
    /// `setup`, which is not timed.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // One untimed call to warm caches and lazy state.
        black_box(routine(setup()));
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.total += start.elapsed();
        }
        self.iters += self.samples as u64;
    }
}

fn run_bench<F>(label: &str, samples: usize, throughput: Option<Throughput>, f: &mut F)
where
    F: FnMut(&mut Bencher),
{
    let mut b = Bencher {
        samples,
        total: Duration::ZERO,
        iters: 0,
    };
    f(&mut b);
    if b.iters == 0 {
        eprintln!("  {label}: no iterations recorded");
        return;
    }
    let per_iter = b.total.as_nanos() / b.iters as u128;
    let rate = match throughput {
        // bytes per ns × 1000 = 10^6 bytes per second.
        Some(Throughput::Bytes(n)) if per_iter > 0 => {
            format!(", {:.1} MB/s", n as f64 * 1e3 / per_iter as f64)
        }
        _ => String::new(),
    };
    eprintln!("  {label}: {per_iter} ns/iter ({} iters){rate}", b.iters);
}

/// Declare a benchmark group function, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Declare the bench `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_batched_hands_each_call_its_own_input_and_times_only_the_routine() {
        let mut b = Bencher {
            samples: 3,
            total: Duration::ZERO,
            iters: 0,
        };
        let (mut made, mut seen) = (0, Vec::new());
        let setup = || {
            made += 1;
            std::thread::sleep(Duration::from_millis(20));
            made
        };
        b.iter_batched(setup, |input| seen.push(input), BatchSize::PerIteration);
        assert_eq!(seen, [1, 2, 3, 4], "a warm-up call, then the samples");
        assert_eq!(b.iters, 3);
        assert!(b.total < Duration::from_millis(20), "{:?}", b.total);
    }
}
