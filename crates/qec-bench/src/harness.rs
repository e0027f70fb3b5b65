//! Minimal timing harness — the offline-build substitute for criterion.
//!
//! Protocol per benchmark: a warmup phase sizes the iteration batch so one
//! sample costs ≈ `SAMPLE_TARGET`, then `SAMPLES` batches are timed and
//! the per-iteration **median** (robust to scheduler noise) and minimum are
//! reported. `cargo bench -- --test` runs every closure exactly once and
//! skips timing, which is what CI uses to keep the benches compiling and
//! correct without paying for measurement.
//!
//! Set `QEC_BENCH_JSON=/path/file.jsonl` to also **append** the results as
//! JSON lines (one object per case; append-mode so the independent bench
//! binaries can share one file). `BENCH_baseline.json` at the repo root is
//! the JSON-array form of such a run — see the README for the exact
//! regeneration recipe (fresh `.jsonl`, then a one-line conversion).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall-clock budget per timed sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(10);
/// Timed samples per benchmark.
const SAMPLES: usize = 15;
/// Warmup budget before sampling starts.
const WARMUP: Duration = Duration::from_millis(50);

/// One benchmark's summary statistics.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Fully qualified name, `group/case`.
    pub name: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Minimum nanoseconds per iteration.
    pub min_ns: f64,
    /// Iterations per timed sample.
    pub iters_per_sample: u64,
}

/// Bench registry + runner for one bench binary.
pub struct Harness {
    group: String,
    test_mode: bool,
    filter: Option<String>,
    results: Vec<BenchResult>,
}

impl Harness {
    /// Parses the argv conventions `cargo bench` uses: `--test` selects
    /// smoke mode (criterion's compile-check convention), `--bench` (always
    /// passed by cargo) is ignored, and a bare string filters cases by
    /// substring.
    pub fn new(group: &str) -> Self {
        let mut test_mode = false;
        let mut filter = None;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => test_mode = true,
                "--bench" | "--nocapture" => {}
                s if !s.starts_with('-') => filter = Some(s.to_string()),
                _ => {}
            }
        }
        println!(
            "# {group}{}",
            if test_mode {
                " (--test: smoke mode)"
            } else {
                ""
            }
        );
        Self {
            group: group.to_string(),
            test_mode,
            filter,
            results: Vec::new(),
        }
    }

    /// Whether this run only smoke-tests the closures.
    pub fn test_mode(&self) -> bool {
        self.test_mode
    }

    /// Times `f`, which performs exactly one iteration of the workload per
    /// call. Wrap inputs in [`black_box`] inside the closure as needed.
    pub fn bench<R, F: FnMut() -> R>(&mut self, case: &str, mut f: F) {
        let name = format!("{}/{case}", self.group);
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        if self.test_mode {
            black_box(f());
            println!("{name:<56} ok (smoke)");
            return;
        }

        // Warmup, measuring cost-per-iter to size the sample batches.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < WARMUP || warm_iters < 3 {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        let iters_per_sample = ((SAMPLE_TARGET.as_secs_f64() / per_iter).ceil() as u64).max(1);

        let mut samples_ns: Vec<f64> = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            samples_ns.push(t.elapsed().as_nanos() as f64 / iters_per_sample as f64);
        }
        samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median_ns = samples_ns[samples_ns.len() / 2];
        let min_ns = samples_ns[0];
        println!(
            "{name:<56} median {:>12} min {:>12}  ({iters_per_sample} iters/sample)",
            fmt_ns(median_ns),
            fmt_ns(min_ns),
        );
        self.results.push(BenchResult {
            name,
            median_ns,
            min_ns,
            iters_per_sample,
        });
    }

    /// Median of a finished case, for cross-case comparisons inside a bench
    /// binary (e.g. `bench_pebc`'s cost guard).
    pub fn median_of(&self, case: &str) -> Option<f64> {
        let name = format!("{}/{case}", self.group);
        self.results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns)
    }

    /// Prints the footer and, when `QEC_BENCH_JSON` is set, appends the
    /// group's results to that file as JSON lines.
    pub fn finish(self) {
        if self.test_mode {
            println!("# {}: all cases smoke-tested", self.group);
            return;
        }
        if let Ok(path) = std::env::var("QEC_BENCH_JSON") {
            use std::io::Write;
            let mut out = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .unwrap_or_else(|e| panic!("open {path}: {e}"));
            for r in &self.results {
                writeln!(
                    out,
                    "{{\"name\":\"{}\",\"median_ns\":{:.1},\"min_ns\":{:.1},\"iters_per_sample\":{}}}",
                    r.name, r.median_ns, r.min_ns, r.iters_per_sample
                )
                .expect("write bench json");
            }
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else {
        format!("{:.2} ms", ns / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(12.0), "12 ns");
        assert_eq!(fmt_ns(1_500.0), "1.50 µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.50 ms");
    }
}
