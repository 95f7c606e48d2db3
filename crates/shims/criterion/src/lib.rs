//! Offline stand-in for `criterion`, used because the build environment has
//! no access to crates.io. Provides the subset the workspace's bench targets
//! use — `Criterion`, benchmark groups with `sample_size` / `warm_up_time` /
//! `measurement_time`, `BenchmarkId`, `Bencher::iter`, and the
//! `criterion_group!` / `criterion_main!` macros — with a simple
//! mean/min/max wall-clock measurement loop instead of criterion's
//! statistical machinery.
//!
//! As in criterion, a bench target measures only when `cargo bench` runs
//! it (cargo passes `--bench`). Otherwise — `cargo test --benches`, which
//! passes no flag, or an explicit `--test` — it is in test mode: every
//! benchmark body runs exactly once, so the benches double as smoke tests.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifier for one benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter` naming.
    pub fn new(function_name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }

    /// Parameter-only naming.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Timing harness handed to benchmark closures.
pub struct Bencher {
    /// `None` while warming up / in test mode; populated per sample.
    samples: Vec<Duration>,
    iters_per_sample: u64,
}

impl Bencher {
    /// Times `f`, recording one sample per configured measurement slot.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        for _ in 0..self.samples.capacity().max(1) {
            let t0 = Instant::now();
            for _ in 0..self.iters_per_sample {
                black_box(f());
            }
            self.samples
                .push(t0.elapsed() / self.iters_per_sample as u32);
        }
    }
}

/// Per-group measurement configuration.
#[derive(Clone, Copy, Debug)]
struct MeasurementConfig {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for MeasurementConfig {
    fn default() -> Self {
        MeasurementConfig {
            sample_size: 10,
            warm_up_time: Duration::from_millis(100),
            measurement_time: Duration::from_millis(500),
        }
    }
}

/// Top-level benchmark driver (mirror of `criterion::Criterion`).
pub struct Criterion {
    test_mode: bool,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let (mut bench, mut test) = (false, false);
        let mut filter = None;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => test = true,
                "--bench" => bench = true,
                a if !a.starts_with('-') => filter = Some(a.to_owned()),
                _ => {}
            }
        }
        // As in criterion: measure only when `cargo bench` asks (`--bench`).
        Criterion {
            test_mode: test || !bench,
            filter,
        }
    }
}

impl Criterion {
    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, group_name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: group_name.into(),
            config: MeasurementConfig::default(),
        }
    }

    /// Benchmarks a single function outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let config = MeasurementConfig::default();
        let name = id.into().id;
        self.run_one(&name, config, f);
        self
    }

    fn run_one<F: FnMut(&mut Bencher)>(&mut self, name: &str, config: MeasurementConfig, mut f: F) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        if self.test_mode {
            // Smoke-run the body once.
            let mut b = Bencher {
                samples: Vec::with_capacity(0),
                iters_per_sample: 1,
            };
            f(&mut b);
            println!("test {name} ... ok");
            return;
        }
        // Warm-up: run until the warm-up budget elapses, counting
        // iterations to size the measurement batches.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        {
            let mut b = Bencher {
                samples: Vec::with_capacity(0),
                iters_per_sample: 1,
            };
            while warm_start.elapsed() < config.warm_up_time {
                f(&mut b);
                warm_iters += 1;
                b.samples.clear();
            }
        }
        let per_iter = config.warm_up_time.as_secs_f64() / warm_iters.max(1) as f64;
        let total_iters =
            (config.measurement_time.as_secs_f64() / per_iter.max(1e-9)).ceil() as u64;
        let iters_per_sample = (total_iters / config.sample_size as u64).max(1);
        let mut b = Bencher {
            samples: Vec::with_capacity(config.sample_size),
            iters_per_sample,
        };
        f(&mut b);
        let n = b.samples.len().max(1) as u32;
        let mean: Duration = b.samples.iter().sum::<Duration>() / n;
        let min = b.samples.iter().min().copied().unwrap_or_default();
        let max = b.samples.iter().max().copied().unwrap_or_default();
        println!("{name:<50} mean {mean:>12.2?}   min {min:>12.2?}   max {max:>12.2?}");
    }
}

/// A named collection of benchmarks sharing measurement settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    config: MeasurementConfig,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of measurement samples.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.config.sample_size = n.max(1);
        self
    }

    /// Sets the warm-up budget.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.config.warm_up_time = d;
        self
    }

    /// Sets the measurement budget.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.config.measurement_time = d;
        self
    }

    /// Benchmarks `f` under `id`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let name = format!("{}/{}", self.name, id.into().id);
        self.criterion.run_one(&name, self.config, f);
        self
    }

    /// Benchmarks `f` under `id`, passing `input` through.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let name = format!("{}/{}", self.name, id.into().id);
        self.criterion.run_one(&name, self.config, |b| f(b, input));
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Declares a group function invoking each benchmark function in turn.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declares `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $($group(&mut c);)+
        }
    };
}
