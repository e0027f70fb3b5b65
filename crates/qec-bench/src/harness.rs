//! Minimal timing harness — the offline-build substitute for criterion.
//!
//! Protocol per benchmark: a warmup phase sizes the iteration batch so one
//! sample costs ≈ `SAMPLE_TARGET`, then `SAMPLES` batches are timed and
//! the per-iteration **median** (robust to scheduler noise) and minimum are
//! printed. `cargo bench -- --test` runs every closure exactly once and
//! skips timing, which is what CI uses to keep the benches compiling and
//! correct without paying for measurement.
//!
//! Set `QEC_BENCH_JSON=/path/file.jsonl` to also **append** the results,
//! in the one schema every suite shares: a line
//! `{"suite":…,"case":…,"metric":…,"value":…}` per case — `median_ns`
//! for a timed case, whatever [`Harness::record`] was given for a value
//! the suite measured itself (a snapshot's bytes). The suite that finds
//! the file empty writes one stamp line first
//! (`{"commit":…,"nproc":…,"simd":…,"rustc":…,"date":…}`; the commit
//! carries `-dirty` when tracked files differ from it, `simd` is the widest
//! level the CPU reports), so the six bench binaries of one `cargo bench`
//! share one stamped file. The file is opened (created) when the suite
//! starts, so a path that cannot be written fails before anything is
//! timed. `BENCH_kernels.jsonl` at the repo root is made of such runs — see
//! the README for the command.

use std::fs::File;
use std::hint::black_box;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Wall-clock budget per timed sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(10);
/// Timed samples per benchmark.
const SAMPLES: usize = 15;
/// Warmup budget before sampling starts.
const WARMUP: Duration = Duration::from_millis(50);
/// The metric a timed case reports (and [`Harness::median_of`] reads).
pub const MEDIAN_NS: &str = "median_ns";

/// One emitted line: a case's value under a metric name.
struct Row {
    case: String,
    metric: &'static str,
    value: f64,
}

/// Bench registry + runner for one bench binary.
pub struct Harness {
    suite: String,
    test_mode: bool,
    filter: Option<String>,
    rows: Vec<Row>,
    /// The `QEC_BENCH_JSON` file of a timed run, open for appending.
    out: Option<File>,
}

impl Harness {
    /// Parses the argv conventions `cargo bench` uses: `--test` selects
    /// smoke mode (criterion's compile-check convention), `--bench` (always
    /// passed by cargo) is ignored, and a bare string filters cases by
    /// substring. Panics, naming the path, when `QEC_BENCH_JSON` is set
    /// for a timed run and cannot be opened for appending.
    pub fn new(suite: &str) -> Self {
        let json = std::env::var_os("QEC_BENCH_JSON").map(PathBuf::from);
        Self::with_args(suite, std::env::args().skip(1), json).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Harness::new`] over explicit arguments and output path. A timed
    /// run opens (creates) `json` here, before any case runs; a smoke run
    /// writes nothing, so it opens nothing.
    fn with_args(
        suite: &str,
        args: impl Iterator<Item = String>,
        json: Option<PathBuf>,
    ) -> Result<Self, String> {
        let mut test_mode = false;
        let mut filter = None;
        for arg in args {
            match arg.as_str() {
                "--test" => test_mode = true,
                s if !s.starts_with('-') => filter = Some(s.to_string()),
                _ => {}
            }
        }
        let out = match json {
            Some(path) if !test_mode => {
                let file = File::options().create(true).append(true).open(&path);
                Some(file.map_err(|e| format!("QEC_BENCH_JSON {}: {e}", path.display()))?)
            }
            _ => None,
        };
        println!(
            "# {suite}{}",
            if test_mode {
                " (--test: smoke mode)"
            } else {
                ""
            }
        );
        Ok(Self {
            suite: suite.to_string(),
            test_mode,
            filter,
            rows: Vec::new(),
            out,
        })
    }

    /// Whether this run only smoke-tests the closures.
    pub fn test_mode(&self) -> bool {
        self.test_mode
    }

    /// Times `f`, which performs exactly one iteration of the workload per
    /// call. Wrap inputs in [`black_box`] inside the closure as needed.
    pub fn bench<R, F: FnMut() -> R>(&mut self, case: &str, mut f: F) {
        let name = format!("{}/{case}", self.suite);
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
        println!(
            "{name:<56} median {:>12} min {:>12}  ({iters_per_sample} iters/sample)",
            fmt_ns(median_ns),
            fmt_ns(samples_ns[0]),
        );
        self.record(case, MEDIAN_NS, median_ns);
    }

    /// Adds a value the suite measured itself — a timing too long for
    /// [`Harness::bench`]'s batch sizing (as `median_ns`), or a count such
    /// as a snapshot's bytes — to the emitted rows.
    pub fn record(&mut self, case: &str, metric: &'static str, value: f64) {
        self.rows.push(Row {
            case: case.to_string(),
            metric,
            value,
        });
    }

    /// Median of a finished case, for cross-case comparisons inside a bench
    /// binary (e.g. `bench_pebc`'s cost guard).
    pub fn median_of(&self, case: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.case == case && r.metric == MEDIAN_NS)
            .map(|r| r.value)
    }

    /// Prints the footer and, when `QEC_BENCH_JSON` is set, appends the
    /// suite's rows to that file, under one stamp line when it is empty.
    pub fn finish(self) {
        if self.test_mode {
            println!("# {}: all cases smoke-tested", self.suite);
            return;
        }
        let Some(mut out) = self.out else { return };
        if out.metadata().is_ok_and(|m| m.len() == 0) {
            writeln!(out, "{}", stamp()).expect("write bench json");
        }
        for r in &self.rows {
            writeln!(
                out,
                "{{\"suite\":\"{}\",\"case\":\"{}\",\"metric\":\"{}\",\"value\":{:.1}}}",
                self.suite, r.case, r.metric, r.value
            )
            .expect("write bench json");
        }
    }
}

/// First line of a command's output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The widest SIMD level the CPU reports: `avx512f`, `avx2` or
/// `baseline`, the levels `qec-core`'s lane pass is compiled at. Rows
/// stamped with different levels do not compare.
fn simd_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "baseline"
}

/// What was measured, where and when: the file's first line.
fn stamp() -> String {
    // Exit status 1: some tracked file differs from HEAD.
    let dirty = Command::new("git")
        .args(["diff", "--quiet", "HEAD"])
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.code() == Some(1));
    format!(
        "{{\"commit\":\"{}{}\",\"nproc\":{},\"simd\":\"{}\",\"rustc\":\"{}\",\"date\":\"{}\"}}",
        first_line_of("git", &["rev-parse", "HEAD"]),
        if dirty { "-dirty" } else { "" },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        simd_level(),
        first_line_of("rustc", &["-V"]),
        first_line_of("date", &["-u", "+%F"]),
    )
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

    /// The keys of a flat JSON object's line, in order.
    fn keys_of(line: &str) -> Vec<&str> {
        let body = line
            .strip_prefix('{')
            .and_then(|l| l.strip_suffix('}'))
            .unwrap_or_else(|| panic!("not an object: {line}"));
        // No emitted string holds `,"`, so it separates the members.
        body.split(",\"")
            .map(|member| {
                let key = member.trim_start_matches('"');
                &key[..key.find("\":").expect("key: value")]
            })
            .collect()
    }

    #[test]
    fn suites_share_one_stamped_file_in_one_schema() {
        let path =
            std::env::temp_dir().join(format!("qec-bench-harness-{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();
        let timed = |suite| {
            Harness::with_args(suite, std::iter::empty(), Some(path.clone())).expect("opens")
        };
        let run = || {
            let mut a = timed("first");
            a.bench("spin", || (0..64u64).sum::<u64>());
            assert!(a.median_of("spin").is_some_and(|ns| ns > 0.0));
            a.finish();
            let mut b = timed("second");
            b.bench("spin", || (0..64u64).product::<u64>());
            b.record("size", "bytes", 160_462_484.0);
            assert_eq!(b.median_of("size"), None, "not a timing");
            b.finish();
        };

        run();
        let text = std::fs::read_to_string(&path).expect("emitted");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "one stamp + three rows: {text}");
        assert_eq!(
            keys_of(lines[0]),
            ["commit", "nproc", "simd", "rustc", "date"]
        );
        let simd = ["avx512f", "avx2", "baseline"].map(|l| format!("\"simd\":\"{l}\""));
        assert!(simd.iter().any(|s| lines[0].contains(s)), "{}", lines[0]);
        for row in &lines[1..] {
            assert_eq!(keys_of(row), ["suite", "case", "metric", "value"]);
        }
        assert!(
            lines[1].starts_with("{\"suite\":\"first\",\"case\":\"spin\",\"metric\":\"median_ns\"")
        );
        assert_eq!(
            lines[3],
            "{\"suite\":\"second\",\"case\":\"size\",\"metric\":\"bytes\",\"value\":160462484.0}"
        );

        // A second run into the same path appends rows, not a stamp.
        run();
        let text = std::fs::read_to_string(&path).expect("emitted");
        std::fs::remove_file(&path).ok();
        assert_eq!(text.lines().count(), 7);
        let stamps = text.lines().filter(|l| l.contains("\"commit\"")).count();
        assert_eq!(stamps, 1, "{text}");
    }

    #[test]
    fn an_unwritable_json_path_fails_before_any_case_runs() {
        let dir = std::env::temp_dir().join(format!("qec-bench-missing-{}", std::process::id()));
        let path = dir.join("kernels.jsonl");
        let json = || Some(path.clone());
        let err = Harness::with_args("suite", std::iter::empty(), json())
            .err()
            .expect("a missing directory fails at construction");
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(!dir.exists(), "nothing was created");
        // A smoke run writes nothing, so the path does not matter to it.
        let smoke = Harness::with_args("suite", ["--test".to_string()].into_iter(), json());
        assert!(smoke.is_ok_and(|h| h.test_mode()));
    }
}
