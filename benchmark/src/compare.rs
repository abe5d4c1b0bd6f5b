//! `compare <base dir> <new dir>`: judges two sets of result files, per
//! workload × end-to-end metric, by the bounds `BENCHMARK.json` fixes.
//!
//! A verdict is `ok` when the new median is no worse than the base median by
//! more than the bound, `regressed` when it is, and `unresolved` when either
//! set's quartile spread is wider than the bound — unless every run of one
//! set beats every run of the other, which needs no spread to read.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::stats::quartiles;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// Judges one metric. `lower_is_better` gives the direction, `bound` the
/// share of the base median by which the metric may worsen.
pub fn judge(base: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    // Orient so that larger is worse.
    let orient = |values: &[f64]| -> Vec<f64> {
        values
            .iter()
            .map(|&v| if lower_is_better { v } else { -v })
            .collect()
    };
    let (base, new) = (orient(base), orient(new));
    let max = |values: &[f64]| values.iter().copied().fold(f64::MIN, f64::max);
    let min = |values: &[f64]| values.iter().copied().fold(f64::MAX, f64::min);
    let [base_q1, base_median, base_q3] = quartiles(&base);
    let [new_q1, new_median, new_q3] = quartiles(&new);
    let scale = base_median.abs().max(f64::MIN_POSITIVE);
    let worse_by = (new_median - base_median) / scale;
    let spread = ((base_q3 - base_q1) / scale)
        .max((new_q3 - new_q1) / new_median.abs().max(f64::MIN_POSITIVE));
    if spread > bound {
        if max(&new) < min(&base) {
            Verdict::Ok
        } else if min(&new) > max(&base) && worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// (workload, metric) → values, from every untraced result file in `dir`.
fn load(dir: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.starts_with("result-") && name.ends_with("-trace0.json")) {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let file = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let field = |outer: &str, key: &str| file.get(outer).and_then(|o| o.get(key));
        let workload = field("context", "workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", path.display()))?;
        if field("result", "correct") != Some(&Json::Bool(true)) {
            return Err(format!("{}: the run was not correct", path.display()));
        }
        let metrics = field("result", "metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{}: no metrics", path.display()))?;
        for (metric, entry) in metrics {
            if let Some(value) = entry.get("value").and_then(Json::as_f64) {
                values
                    .entry((workload.to_string(), metric.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(values)
}

fn compare(base_dir: &Path, new_dir: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let declaration = Json::parse(&text)?;
    let (base, new) = (load(base_dir)?, load(new_dir)?);
    let listed = |section: &str| -> Vec<Json> {
        declaration
            .get(section)
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let text_of = |entry: &Json, key: &str| {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };

    let mut all_ok = true;
    println!(
        "{:<14} {:<15} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload", "metric", "base q1/median/q3", "new q1/median/q3", "change", "bound"
    );
    // The gated workloads in declaration order, then any other workload both
    // sets hold results for (judged by the same bounds, gating nothing).
    let mut workloads: Vec<String> = listed("workloads")
        .iter()
        .map(|w| text_of(w, "name"))
        .collect();
    for (workload, _) in base.keys() {
        let in_both = new.keys().any(|(w, _)| w == workload);
        if in_both && !workloads.contains(workload) {
            workloads.push(workload.clone());
        }
    }
    for workload in workloads {
        for metric in listed("end_to_end") {
            let name = text_of(&metric, "name");
            let lower = text_of(&metric, "better") == "lower";
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let key = (workload.clone(), name.clone());
            let (Some(b), Some(n)) = (base.get(&key), new.get(&key)) else {
                return Err(format!("{workload} × {name}: missing from one of the sets"));
            };
            if b.len() < 2 || n.len() < 2 {
                return Err(format!(
                    "{workload} × {name}: a set needs at least two runs"
                ));
            }
            let verdict = judge(b, n, lower, bound);
            all_ok &= verdict == Verdict::Ok;
            let (base_quartiles, new_quartiles) = (quartiles(b), quartiles(n));
            let show = |[q1, median, q3]: [f64; 3]| format!("{q1:.4}/{median:.4}/{q3:.4}");
            let change = (new_quartiles[1] - base_quartiles[1]) / base_quartiles[1];
            println!(
                "{workload:<14} {name:<15} {:>34} {:>34} {:>+7.1}% {:>5.0}%  {}",
                show(base_quartiles),
                show(new_quartiles),
                change * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(all_ok)
}

pub fn main(args: &[String]) -> ExitCode {
    let [base, new] = args else {
        eprintln!("usage: scout-benchmark compare <base dir> <new dir>");
        return ExitCode::from(2);
    };
    match compare(Path::new(base), Path::new(new)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("{error}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound.
        assert_eq!(
            judge(&steady, &[103.0, 104.0, 102.0, 103.5, 102.5], true, 0.05),
            Verdict::Ok
        );
        // Worse than the bound, tight spreads.
        assert_eq!(
            judge(&steady, &[110.0, 111.0, 109.0, 110.5, 109.5], true, 0.05),
            Verdict::Regressed
        );
        // Direction matters: for higher-is-better the same numbers improve.
        assert_eq!(
            judge(&steady, &[110.0, 111.0, 109.0, 110.5, 109.5], false, 0.05),
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &[90.0, 91.0, 89.0, 90.5, 89.5], false, 0.05),
            Verdict::Regressed
        );
        // A spread wider than the bound resolves nothing …
        let noisy = [80.0, 120.0, 95.0, 105.0, 100.0];
        assert_eq!(judge(&noisy, &steady, true, 0.05), Verdict::Unresolved);
        // … unless every new run beats every base run.
        assert_eq!(
            judge(&noisy, &[70.0, 71.0, 72.0, 73.0, 74.0], true, 0.05),
            Verdict::Ok
        );
        assert_eq!(
            judge(&noisy, &[170.0, 171.0, 172.0, 173.0, 174.0], true, 0.05),
            Verdict::Regressed
        );
    }
}
