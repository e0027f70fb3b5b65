//! `--compare a.json b.json`: every (workload, end-to-end metric) of report
//! `b` against report `a` and the metric's bound. Used for the same-commit
//! A/A check, and by later changes in place of ad-hoc asserts.

use std::path::Path;

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, WORKLOADS};

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn value(report: &Json, workload: &str, metric: &str) -> Option<f64> {
    report
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// By how much `b` is worse than `a`, as a share of `a` (negative: better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Prints the table; `Ok(true)` when nothing is worse beyond its bound and
/// no digest changed.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (label, r) in [("a", &a), ("b", &b)] {
        println!(
            "{label}: {}",
            r.get("stamp").map_or("no stamp".into(), Json::render)
        );
    }
    let same_inputs = ["seed", "seconds", "scale"]
        .iter()
        .all(|k| a.get("stamp").and_then(|s| s.get(k)) == b.get("stamp").and_then(|s| s.get(k)));
    let mut ok = true;
    println!(
        "{:<13} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for (workload, _) in WORKLOADS {
        for m in END_TO_END {
            let (Some(x), Some(y)) = (value(&a, workload, m.name), value(&b, workload, m.name))
            else {
                return Err(format!("{workload}/{} is missing from a report", m.name));
            };
            let worse = worsening(m.better, x, y);
            let verdict = if worse > m.bound {
                ok = false;
                "  REGRESSION"
            } else {
                ""
            };
            println!(
                "{workload:<13} {:<16} {x:>14.6} {y:>14.6} {:>8.2}% {:>6.0}%{verdict}",
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
        }
        let digest = |r: &Json| {
            r.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("digest"))
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        let (da, db) = (digest(&a), digest(&b));
        if same_inputs && da != db {
            ok = false;
            println!("{workload:<13} digest {da:?} != {db:?}  RESPONSES DIFFER");
        }
    }
    if !same_inputs {
        println!("(seed, seconds or scale differ: digests not compared)");
    }
    println!("{}", if ok { "within bounds" } else { "OUT OF BOUNDS" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::metric;

    fn report(latency: f64, throughput: f64, digest: &str) -> Json {
        let metrics = Json::obj(END_TO_END.iter().map(|m| {
            let v = match m.name {
                "latency_p50_ms" => latency,
                "throughput_rps" => throughput,
                _ => 1.0,
            };
            (m.name, metric(v, m.unit))
        }));
        Json::obj([
            ("stamp", Json::obj([("seed", Json::Num(1.0))])),
            (
                "workloads",
                Json::obj(WORKLOADS.iter().map(|&(w, _)| {
                    (
                        w,
                        Json::obj([
                            ("digest", Json::str(digest)),
                            ("end_to_end", metrics.clone()),
                        ]),
                    )
                })),
            ),
        ])
    }

    fn compare(a: &Json, b: &Json) -> bool {
        let dir =
            std::env::temp_dir().join(format!("qec-benchmark-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (pa, pb) = (dir.join("a.json"), dir.join("b.json"));
        std::fs::write(&pa, a.render()).unwrap();
        std::fs::write(&pb, b.render()).unwrap();
        let ok = run(&pa, &pb).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        ok
    }

    #[test]
    fn bounds_cut_both_directions_of_better() {
        assert!((worsening(Better::Lower, 2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
    }

    #[test]
    fn flags_a_regression_and_a_changed_digest_only() {
        let base = report(1.0, 1000.0, "aa");
        assert!(compare(&base, &base));
        // Better latency, throughput a little down but inside its bound.
        assert!(compare(&base, &report(0.5, 990.0, "aa")));
        assert!(!compare(&base, &report(1.5, 1000.0, "aa")));
        assert!(!compare(&base, &report(1.0, 500.0, "aa")));
        assert!(!compare(&base, &report(1.0, 1000.0, "bb")));
    }
}
