//! The one command that runs everything: every workload, both passes, one
//! process each (so `peak_rss_mb` is the workload's own), collected into a
//! machine-stamped report that `--compare` reads.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::workloads::Config;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 10;

fn better(b: Better) -> Json {
    Json::str(match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    })
}

/// The text of `BENCHMARK.json`, from the tables in `metrics.rs`.
pub fn benchmark_json() -> String {
    let list = |items: Vec<Json>| -> String {
        let lines: Vec<String> = items
            .iter()
            .map(|i| format!("    {}", i.render()))
            .collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let workloads = WORKLOADS
        .iter()
        .map(|&(name, why)| Json::obj([("name", Json::str(name)), ("why", Json::str(why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", better(m.better)),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|&(name, unit, b)| {
            Json::obj([
                ("name", Json::str(name)),
                ("unit", Json::str(unit)),
                ("better", better(b)),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}",
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

/// First line of a command's output, or "unknown" (the driver's checkout
/// is no git repository, for one).
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

/// Today's UTC date as `YYYY-MM-DD` (days-to-civil, Gregorian).
fn utc_date() -> String {
    let days = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs() / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

fn stamp(cfg: &Config, smoke: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        (
            "commit",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::Str(first_line_of("rustc", &["-V"]))),
        ("date", Json::Str(utc_date())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("scale", Json::str(if smoke { "smoke" } else { "full" })),
    ])
}

/// One child pass: its header fields and its parsed result line.
struct Pass {
    digest: String,
    samples: f64,
    result: Json,
    ok: bool,
}

fn run_pass(workload: &str, trace: bool, cfg: &Config, smoke: bool) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with("FAILED CHECK")) {
        println!("{workload} (trace {}): {line}", u8::from(trace));
    }
    let header: Vec<&str> = stdout.lines().next().unwrap_or("").split(' ').collect();
    let field = |key: &str| {
        header
            .iter()
            .position(|&w| w == key)
            .and_then(|i| header.get(i + 1))
            .copied()
    };
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| {
        format!(
            "{workload} (trace {}) printed no result line: {e}",
            u8::from(trace)
        )
    })?;
    Ok(Pass {
        digest: field("digest").unwrap_or("").to_string(),
        samples: field("n").and_then(|n| n.parse().ok()).unwrap_or(0.0),
        ok: output.status.success() && result.get("correct") == Some(&Json::Bool(true)),
        result,
    })
}

/// Runs every workload's untraced and traced pass, prints every metric by
/// name with unit and sample count, checks the digests across deployments,
/// and writes the report. `Ok(false)` when any check failed.
pub fn run_all(cfg: &Config, smoke: bool, out: Option<&Path>) -> Result<bool, String> {
    let mut all_ok = true;
    let mut workloads = Vec::new();
    let mut digests = Vec::new();
    for (name, _) in WORKLOADS {
        let untraced = run_pass(name, false, cfg, smoke)?;
        let traced = run_pass(name, true, cfg, smoke)?;
        all_ok &= untraced.ok && traced.ok;
        println!(
            "== {name}: digest {} n {} attempted {} failed {}",
            untraced.digest,
            untraced.samples,
            untraced
                .result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            untraced
                .result
                .get("failed")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        );
        for pass in [&untraced, &traced] {
            for (metric, v) in pass.result.get("metrics").map_or(&[][..], Json::entries) {
                println!(
                    "{name:<13} {metric:<32} {:>16.6} {}",
                    v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    v.get("unit").and_then(Json::as_str).unwrap_or("?"),
                );
            }
        }
        digests.push((name, untraced.digest.clone()));
        let metrics_of = |p: &Pass| p.result.get("metrics").cloned().unwrap_or(Json::Null);
        workloads.push((
            name,
            Json::obj([
                ("digest", Json::Str(untraced.digest.clone())),
                ("samples", Json::Num(untraced.samples)),
                (
                    "attempted",
                    untraced
                        .result
                        .get("attempted")
                        .cloned()
                        .unwrap_or(Json::Null),
                ),
                (
                    "failed",
                    untraced.result.get("failed").cloned().unwrap_or(Json::Null),
                ),
                ("correct", Json::Bool(untraced.ok && traced.ok)),
                ("end_to_end", metrics_of(&untraced)),
                ("per_layer", metrics_of(&traced)),
            ]),
        ));
    }
    // Each pair serves the same requests through different deployments.
    for (a, b) in [("cold_flat", "sharded_cold"), ("warm_zipf", "ingress_open")] {
        let digest = |w: &str| digests.iter().find(|d| d.0 == w).map(|d| d.1.as_str());
        if digest(a) != digest(b) {
            println!("FAILED CHECK: {a} and {b} disagree on the same requests: {digests:?}");
            all_ok = false;
        }
    }
    let report = Json::obj([
        ("stamp", stamp(cfg, smoke)),
        ("claim", Json::Null),
        ("correct", Json::Bool(all_ok)),
        ("workloads", Json::obj(workloads)),
    ]);
    let default_path = cfg.out_dir.join(format!("report-seed-{}.json", cfg.seed));
    let path = out.unwrap_or(&default_path);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, report.render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "report: {} ({})",
        path.display(),
        if all_ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_is_plausible() {
        let d = utc_date();
        assert_eq!(d.len(), 10);
        assert!(
            d.as_str() > "2024-01-01" && d.as_str() < "2100-01-01",
            "{d}"
        );
    }

    /// The committed `BENCHMARK.json` is what `--describe` prints, within
    /// the limits the driver sets on it.
    #[test]
    fn committed_benchmark_json_is_current_and_within_limits() {
        let text = benchmark_json();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        assert!(
            std::fs::read_to_string(path).unwrap().trim_end() == text,
            "BENCHMARK.json is stale: regenerate it with `benchmark --describe`"
        );
        let doc = Json::parse(&text).unwrap();
        let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let mut names = std::collections::HashSet::new();
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && names.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why is {} long",
                why.len()
            );
        }
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for m in END_TO_END {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(
                unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        for (name, unit, _) in PER_LAYER {
            assert!(name_ok(name) && names.insert(name), "{name}");
            assert!(unit_ok(unit), "{name}");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(text.len() < 64 * 1024);
    }
}
