//! The repo's one benchmark: four seeded workloads through the public API
//! of the QEC serving stack, end-to-end metrics from an untraced pass and
//! per-layer metrics from a separate traced pass. See `README.md` here and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one pass, one result line
//! benchmark --seed <n> [--seconds <s>] [--out <report.json>]           every workload, both passes
//! benchmark --compare <a.json> <b.json>                                two reports against the bounds
//! benchmark --describe                                                 prints BENCHMARK.json
//! ```
//! `--smoke` swaps in a 2,000-record corpus (what the unit tests run).

mod check;
mod compare;
mod gen;
mod json;
mod metrics;
mod report;
mod rng;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use workloads::{Config, Outcome};

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    describe: bool,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = argv.into_iter();
    let mut seeded = false;
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .ok_or_else(|| format!("{flag} needs a value: {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !metrics::WORKLOADS.iter().any(|w| w.0 == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
                seeded = true;
            }
            "--seconds" => {
                let s: f64 = value("a positive number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value("a file path")?.into()),
            "--compare" => {
                args.compare = Some((
                    value("two report files")?.into(),
                    value("two report files")?.into(),
                ))
            }
            "--describe" => args.describe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !seeded && args.compare.is_none() && !args.describe {
        return Err("--seed is required: the inputs are a function of it".into());
    }
    Ok(args)
}

/// Scratch space inside the checkout: next to the build when cargo says
/// where that is, under the package's own `target/` otherwise.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark/target"))
        .join("benchmark")
}

fn run_one(workload: &str, trace: bool, cfg: &Config) -> Outcome {
    let inputs = gen::generate(cfg.scale, cfg.seed);
    if trace {
        return trace::run(workload, cfg, &inputs);
    }
    match workload {
        "cold_flat" => workloads::cold_flat(cfg, &inputs),
        "warm_zipf" => workloads::warm_zipf(cfg, &inputs),
        "sharded_cold" => workloads::sharded_cold(cfg, &inputs),
        "ingress_open" => workloads::ingress_open(cfg, &inputs),
        other => unreachable!("parse_args admitted {other:?}"),
    }
}

/// The driver's contract: the last line of standard output is one object
/// with exactly these four keys.
fn result_line(outcome: &Outcome) -> String {
    Json::obj([
        ("correct", Json::Bool(outcome.notes.is_empty())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::obj(
                outcome
                    .metrics
                    .iter()
                    .map(|&(name, value, unit)| (name, metrics::metric(value, unit))),
            ),
        ),
    ])
    .render()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        println!("{}", report::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return match compare::run(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(report::RUN_SECONDS as f64),
        scale: if args.smoke {
            gen::Scale::SMOKE
        } else {
            gen::Scale::FULL
        },
        out_dir: out_dir(),
    };
    let Some(workload) = &args.workload else {
        return match report::run_all(&cfg, args.smoke, args.out.as_deref()) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    };
    let outcome = run_one(workload, args.trace, &cfg);
    println!(
        "workload {workload} seed {} seconds {} trace {} digest {:016x} n {}",
        cfg.seed,
        cfg.seconds,
        u8::from(args.trace),
        outcome.digest,
        outcome.samples
    );
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    for note in &outcome.notes {
        println!("FAILED CHECK: {note}");
    }
    println!("{}", result_line(&outcome));
    if outcome.notes.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_drivers_command_line_and_rejects_the_rest() {
        let a = args("--workload warm_zipf --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("warm_zipf"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), true));
        assert!(args("--seed 1").unwrap().workload.is_none());
        assert!(args("--compare a.json b.json").unwrap().compare.is_some());
        for bad in [
            "",
            "--workload nope --seed 1",
            "--workload cold_flat",
            "--seed x",
            "--seed 1 --seconds 0",
            "--seed 1 --seconds 61",
            "--seed 1 --trace 2",
            "--seed 1 --frobnicate",
            "--compare a.json",
        ] {
            assert!(args(bad).is_err(), "{bad:?} should be refused");
        }
    }

    /// Every workload, both passes, on the small corpus with every check
    /// on. One test, so the workloads run one after another as they do
    /// under the driver: each spawns its own clients and pools, and
    /// `ingress_open` gives every request a 100 ms budget.
    #[test]
    fn smoke_every_workload_is_correct_and_reports_every_metric() {
        let cfg = Config {
            seed: 7,
            seconds: 0.3,
            scale: gen::Scale::SMOKE,
            out_dir: std::env::temp_dir()
                .join(format!("qec-benchmark-smoke-{}", std::process::id())),
        };
        let mut digests = std::collections::HashMap::new();
        for (workload, _) in metrics::WORKLOADS {
            let untraced = run_one(workload, false, &cfg);
            assert!(
                untraced.notes.is_empty(),
                "{workload}: {:?}",
                untraced.notes
            );
            assert_eq!(untraced.failed, 0, "{workload}");
            assert!(
                untraced.attempted >= 50,
                "{workload}: {}",
                untraced.attempted
            );
            let names: Vec<&str> = untraced.metrics.iter().map(|m| m.0).collect();
            assert_eq!(names, metrics::END_TO_END.map(|m| m.name), "{workload}");
            for (name, value, _) in &untraced.metrics {
                assert!(
                    value.is_finite() && *value > 0.0,
                    "{workload}/{name} = {value}"
                );
            }
            digests.insert(workload, untraced.digest);

            let traced = run_one(workload, true, &cfg);
            assert!(
                traced.notes.is_empty(),
                "{workload} traced: {:?}",
                traced.notes
            );
            let names: Vec<&str> = traced.metrics.iter().map(|m| m.0).collect();
            assert_eq!(names, metrics::PER_LAYER.map(|m| m.0), "{workload}");
            for (name, value, _) in &traced.metrics {
                assert!(value.is_finite(), "{workload}/{name} = {value}");
            }
            let trace_file = cfg.out_dir.join(format!("trace-{workload}.jsonl"));
            let spans = std::fs::read_to_string(&trace_file).unwrap();
            assert!(spans.lines().count() > 100, "{workload}");
            assert!(spans.lines().all(|l| Json::parse(l).is_ok()), "{workload}");

            let line = result_line(&traced);
            let parsed = Json::parse(&line).unwrap();
            let keys: Vec<&str> = parsed.entries().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        }
        // The same requests through another deployment: the same bits.
        assert_eq!(digests["cold_flat"], digests["sharded_cold"]);
        assert_eq!(digests["warm_zipf"], digests["ingress_open"]);
        std::fs::remove_dir_all(&cfg.out_dir).unwrap();
    }

    /// The same seed serves the same bits twice; another seed passes the
    /// same checks on other inputs.
    #[test]
    fn digests_repeat_for_a_seed_and_change_with_it() {
        let cfg = |seed| Config {
            seed,
            seconds: 0.1,
            scale: gen::Scale::SMOKE,
            out_dir: std::env::temp_dir()
                .join(format!("qec-benchmark-digest-{}", std::process::id())),
        };
        let a = run_one("cold_flat", false, &cfg(3));
        let b = run_one("cold_flat", false, &cfg(3));
        let c = run_one("cold_flat", false, &cfg(4));
        assert!(
            a.notes.is_empty() && c.notes.is_empty(),
            "{:?} {:?}",
            a.notes,
            c.notes
        );
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
    }
}
