//! Offline stand-in for the crates.io `criterion` crate.
//!
//! The build environment has no network access, so bench targets link
//! against this minimal harness instead. It exposes the subset of the
//! `criterion` 0.5 API the workspace benches use — [`Criterion`],
//! benchmark groups with `sample_size`, [`Bencher::iter`] /
//! [`Bencher::iter_batched`], [`BatchSize`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros — and measures with
//! plain wall-clock sampling: per benchmark it runs a warm-up call, then
//! times `sample_size` invocations and prints min / median / mean to
//! stdout. There are no plots, no statistical regression analysis, and
//! no baseline files; the `figures` binary in `fdb-bench` is the
//! publication-quality path.

use std::time::{Duration, Instant};

/// Prevents the optimiser from discarding a computed value.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// How `iter_batched` amortises setup cost; the shim times routines
/// individually, so the variants only document intent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
    NumBatches(u64),
    NumIterations(u64),
}

/// Times closures for one benchmark id.
#[derive(Debug, Default)]
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    fn with_sample_size(sample_size: usize) -> Self {
        Bencher {
            samples: Vec::with_capacity(sample_size),
            sample_size,
        }
    }

    /// Times `routine` once per sample after a warm-up invocation.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        black_box(routine());
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            black_box(routine());
            self.samples.push(t0.elapsed());
        }
    }

    /// Times `routine` on fresh inputs from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        black_box(routine(setup()));
        for _ in 0..self.sample_size {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            self.samples.push(t0.elapsed());
        }
    }
}

fn report(id: &str, samples: &mut [Duration]) {
    if samples.is_empty() {
        println!("{id}: no samples");
        return;
    }
    samples.sort_unstable();
    let min = samples[0];
    let median = samples[samples.len() / 2];
    let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
    println!(
        "{id}: min {:?} / median {:?} / mean {:?} ({} samples)",
        min,
        median,
        mean,
        samples.len()
    );
}

/// Top-level benchmark driver (a far smaller `criterion::Criterion`).
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 1, "sample size must be positive");
        self.sample_size = n;
        self
    }

    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = id.into();
        let mut bencher = Bencher::with_sample_size(self.sample_size);
        f(&mut bencher);
        report(&id, &mut bencher.samples);
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            _criterion: self,
        }
    }
}

/// A named group of benchmarks sharing settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 1, "sample size must be positive");
        self.sample_size = n;
        self
    }

    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, id.into());
        let mut bencher = Bencher::with_sample_size(self.sample_size);
        f(&mut bencher);
        report(&id, &mut bencher.samples);
        self
    }

    pub fn finish(self) {}
}

/// Declares a group function invoking each target with a shared
/// [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running each group; ignores harness CLI flags that
/// `cargo bench`/`cargo test` pass through.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo test --benches` probes with `--test`; a benchmark has
            // no #[test] cases, so exit immediately rather than measure.
            if std::env::args().any(|a| a == "--test" || a == "--list") {
                return;
            }
            $($group();)+
        }
    };
}
