//! A minimal, dependency-free, offline stand-in for the subset of the
//! `criterion` 0.5 API this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors this shim under the package name `criterion`. It runs each
//! benchmark for a fixed wall-clock budget, reports the median and best
//! per-iteration time as plain text, and emits a machine-readable
//! `name\tmedian_ns\tmin_ns\titers` line per benchmark when
//! `CRITERION_SHIM_TSV` is set — enough to seed `BENCH_*.json` trend files.
//! `CRITERION_SHIM_SAMPLES=n` caps samples per benchmark (smoke runs).
//!
//! Scope: [`black_box`], [`Criterion`] with `benchmark_group`,
//! [`BenchmarkGroup`] with `sample_size`, `bench_function`,
//! `bench_with_input`, `finish`, [`BenchmarkId::new`],
//! [`Bencher::iter`], and the [`criterion_group!`] / [`criterion_main!`]
//! macros. No statistics beyond median/min, no HTML reports, no saved
//! baselines.

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// An opaque identity function that prevents the optimizer from deleting
/// the benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Top-level benchmark driver.
pub struct Criterion {
    /// Samples per benchmark (overridable per group).
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Mirrors upstream's CLI hookup; the shim has no CLI, so this is a
    /// no-op that keeps `criterion_group!`-generated code compiling.
    pub fn configure_from_args(self) -> Criterion {
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        eprintln!("\n== {name} ==");
        let sample_size = self.sample_size;
        BenchmarkGroup { _parent: self, name, sample_size }
    }
}

/// A named set of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Runs a benchmark identified by a plain string.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        run_one(&full, self.sample_size, f);
        self
    }

    /// Runs a benchmark identified by a [`BenchmarkId`], passing `input`
    /// to the closure (upstream signature, kept for drop-in use).
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.0);
        run_one(&full, self.sample_size, |b| f(b, input));
        self
    }

    /// Ends the group (upstream flushes reports here; the shim prints
    /// eagerly, so this only exists for API compatibility).
    pub fn finish(self) {}
}

/// A `function/parameter` benchmark identifier.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Combines a function name and a parameter display value.
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId(format!("{}/{}", function_name.into(), parameter))
    }
}

/// Passed to benchmark closures; [`Bencher::iter`] times the routine.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Times `routine`: calibrates an iteration count targeting ~5 ms per
    /// sample, then records `sample_size` samples.
    #[expect(
        clippy::disallowed_methods,
        reason = "the bench harness measures wall time by definition (warm-up and sample loops)"
    )]
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up + calibration: find iters such that a sample takes ≥ 5 ms
        // (bounded so very slow routines still run once per sample).
        let mut iters = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let el = t.elapsed();
            if el >= Duration::from_millis(5) || iters >= 1 << 20 {
                break;
            }
            iters *= 2;
        }
        self.samples.clear();
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            self.samples.push(t.elapsed() / iters as u32);
        }
    }
}

/// Global sample-count override: `CRITERION_SHIM_SAMPLES=n` caps every
/// benchmark at `n` samples (min 2), regardless of per-group settings.
/// Used by the CI smoke job to run the regression gate in reduced-sample
/// mode without touching the bench sources.
fn sample_override() -> Option<usize> {
    std::env::var("CRITERION_SHIM_SAMPLES")
        .ok()?
        .parse::<usize>()
        .ok()
        .map(|n| n.max(2))
}

fn run_one<F: FnMut(&mut Bencher)>(name: &str, sample_size: usize, mut f: F) {
    let sample_size = sample_override().map_or(sample_size, |n| n.min(sample_size));
    let mut b = Bencher { samples: Vec::new(), sample_size };
    f(&mut b);
    if b.samples.is_empty() {
        eprintln!("{name:<48} (no samples — closure never called iter)");
        return;
    }
    b.samples.sort_unstable();
    let median = b.samples[b.samples.len() / 2];
    let min = b.samples[0];
    eprintln!(
        "{name:<48} median {:>12}  min {:>12}  ({} samples)",
        fmt_ns(median),
        fmt_ns(min),
        b.samples.len()
    );
    if std::env::var_os("CRITERION_SHIM_TSV").is_some() {
        // Machine-readable line on stdout for scripts that seed BENCH_*.json.
        println!("{name}\t{}\t{}\t{}", median.as_nanos(), min.as_nanos(), b.samples.len());
    }
}

fn fmt_ns(d: Duration) -> String {
    let ns = d.as_nanos();
    let mut s = String::new();
    if ns < 1_000 {
        let _ = write!(s, "{ns} ns");
    } else if ns < 1_000_000 {
        let _ = write!(s, "{:.2} µs", ns as f64 / 1e3);
    } else if ns < 1_000_000_000 {
        let _ = write!(s, "{:.2} ms", ns as f64 / 1e6);
    } else {
        let _ = write!(s, "{:.2} s", ns as f64 / 1e9);
    }
    s
}

/// Declares a benchmark group function (mirrors upstream).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $($target(&mut c);)+
        }
    };
}

/// Declares the benchmark entry point (mirrors upstream).
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
    fn bench_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim_selftest");
        group.sample_size(3);
        let mut ran = false;
        group.bench_with_input(BenchmarkId::new("sum", 100), &100u64, |b, &n| {
            ran = true;
            b.iter(|| (0..n).sum::<u64>())
        });
        group.finish();
        assert!(ran);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("build", "L2_r3").0, "build/L2_r3");
    }
}
