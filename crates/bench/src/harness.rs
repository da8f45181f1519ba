//! A minimal micro-benchmark harness with a Criterion-compatible surface.
//!
//! The build is hermetic (no crates.io), so the `criterion` crate is not
//! available; this module provides the subset of its API the bench targets
//! use — `Criterion` config, benchmark groups, `Bencher::iter`, ids,
//! throughput — backed by a simple warm-up + timed-sampling loop that
//! prints min/median/mean per benchmark.

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Benchmark-run configuration (sampling bounds).
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            sample_size: 20,
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_millis(800),
        }
    }
}

impl Criterion {
    /// Target number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Criterion {
        self.sample_size = n.max(1);
        self
    }

    /// Untimed warm-up duration before sampling.
    pub fn warm_up_time(mut self, d: Duration) -> Criterion {
        self.warm_up = d;
        self
    }

    /// Sampling stops once this much time has elapsed (and at least one
    /// sample was taken).
    pub fn measurement_time(mut self, d: Duration) -> Criterion {
        self.measurement = d;
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Display) -> BenchGroup {
        BenchGroup { name: name.to_string(), cfg: self.clone(), throughput: None }
    }
}

/// Work-per-iteration declaration, used to report rates.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// A composite benchmark name (`function/parameter`).
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Builds `function/parameter`.
    pub fn new(function: impl Display, parameter: impl Display) -> BenchmarkId {
        BenchmarkId { id: format!("{function}/{parameter}") }
    }
}

/// A group of benchmarks sharing a name prefix and throughput setting.
pub struct BenchGroup {
    name: String,
    cfg: Criterion,
    throughput: Option<Throughput>,
}

impl BenchGroup {
    /// Declares the work per iteration for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Runs one benchmark.
    pub fn bench_function(&mut self, id: impl Display, mut f: impl FnMut(&mut Bencher)) {
        let mut b = Bencher { cfg: self.cfg.clone(), samples: Vec::new() };
        f(&mut b);
        b.report(&self.name, &id.to_string(), self.throughput);
    }

    /// Runs one benchmark parameterised by `input`.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) {
        let mut b = Bencher { cfg: self.cfg.clone(), samples: Vec::new() };
        f(&mut b, input);
        b.report(&self.name, &id.id, self.throughput);
    }

    /// Ends the group (printing happens per benchmark).
    pub fn finish(self) {}
}

/// Times a closure under the configured sampling policy.
pub struct Bencher {
    cfg: Criterion,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Runs `f` repeatedly: untimed warm-up, then timed samples until the
    /// sample target or the measurement budget is reached.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let t0 = Instant::now();
        while t0.elapsed() < self.cfg.warm_up {
            black_box(f());
        }
        self.samples.clear();
        let t0 = Instant::now();
        loop {
            let s = Instant::now();
            black_box(f());
            self.samples.push(s.elapsed());
            if self.samples.len() >= self.cfg.sample_size || t0.elapsed() >= self.cfg.measurement {
                break;
            }
        }
    }

    /// Like [`Bencher::iter`], but each run consumes a fresh input built
    /// by `setup`, outside the timed span. The routine's output is dropped
    /// inside it.
    pub fn iter_with_setup<I, R>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> R,
    ) {
        let t0 = Instant::now();
        while t0.elapsed() < self.cfg.warm_up {
            black_box(routine(setup()));
        }
        self.samples.clear();
        let t0 = Instant::now();
        loop {
            let input = setup();
            let s = Instant::now();
            black_box(routine(input));
            self.samples.push(s.elapsed());
            if self.samples.len() >= self.cfg.sample_size || t0.elapsed() >= self.cfg.measurement {
                break;
            }
        }
    }

    fn report(&self, group: &str, id: &str, throughput: Option<Throughput>) {
        if self.samples.is_empty() {
            println!("{group}/{id}: no samples");
            return;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        let min = sorted[0];
        let total: Duration = sorted.iter().sum();
        let mean = total / sorted.len() as u32;
        let rate = throughput
            .map(|t| {
                let per_sec = |n: u64| n as f64 / median.as_secs_f64().max(1e-12);
                match t {
                    Throughput::Bytes(n) => {
                        format!("  {:.1} MiB/s", per_sec(n) / (1024.0 * 1024.0))
                    }
                    Throughput::Elements(n) => format!("  {:.0} elem/s", per_sec(n)),
                }
            })
            .unwrap_or_default();
        println!(
            "{group}/{id}: min {min:?}  median {median:?}  mean {mean:?}  (n={}){rate}",
            sorted.len()
        );
    }
}

/// Drop-in for `criterion_group!`: defines a function running the targets
/// against the given config.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $config;
            $( $target(&mut c); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::harness::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Drop-in for `criterion_main!`: a `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
