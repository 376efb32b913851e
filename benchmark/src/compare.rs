//! `compare`: the mechanical before/after. Two result directories (parent,
//! change) of paired runs, one row per (workload, end-to-end metric) with
//! each side's median and quartiles and every ratio with its base. A named
//! claim is judged by the guide's rule (the change wins at least nine
//! tenths of all pairs, ties counting for neither, and the medians differ
//! by more than the parent's own inter-quartile spread); every other pair
//! is `ok`, `regressed` or `unresolved` against the bound in
//! `BENCHMARK.json`.

use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::spec::{END_TO_END, WORKLOADS};
use crate::suite::{load_bounds, metric_value};
use crate::util::quartiles;
use crate::Cli;

/// Pairs needed before any verdict is given.
const MIN_PAIRS: usize = 10;

/// Timed single-run documents found in `dir`, in file-name order. A file
/// may hold one run (`<workload>-timed.json`) or a suite set
/// (`result-<seed>.json`).
fn load_runs(dir: &Path) -> Result<Vec<Json>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir:?}: {e}"))?
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .filter(|p| p.file_name().is_some_and(|n| n != "result.json"))
        .collect();
    paths.sort();
    let mut runs = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path:?}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path:?}: {e}"))?;
        match doc.get("runs").and_then(Json::as_arr) {
            Some(pairs) => runs.extend(pairs.iter().filter_map(|p| p.get("timed").cloned())),
            None if doc.get("trace").and_then(Json::as_f64) == Some(0.0) => runs.push(doc),
            None => {}
        }
    }
    Ok(runs)
}

fn values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| metric_value(r, metric))
        .collect()
}

/// Runs the comparison.
pub fn compare(cli: &Cli) -> Result<ExitCode, String> {
    let [parent_dir, change_dir] = cli.positional.as_slice() else {
        return Err("compare needs <parent-dir> <change-dir>".into());
    };
    let bounds = load_bounds(Path::new(cli.flag("spec").unwrap_or("BENCHMARK.json")))?;
    let claim = cli.flag("claim").map(|c| {
        c.split_once(':').ok_or_else(|| format!("--claim is <workload>:<metric>, got `{c}`"))
    });
    let claim = claim.transpose()?;
    let parent = load_runs(Path::new(parent_dir))?;
    let change = load_runs(Path::new(change_dir))?;

    println!(
        "{:<15} {:<24} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12} | {:>8} {:>6} {:>6}  verdict",
        "workload",
        "metric",
        "parent q1",
        "median",
        "q3",
        "change q1",
        "median",
        "q3",
        "ratio",
        "wins",
        "bound"
    );
    let mut regressed = false;
    for workload in WORKLOADS {
        for (metric, unit) in END_TO_END {
            let (p, c) = (values(&parent, workload, metric), values(&change, workload, metric));
            let pairs = p.len().min(c.len());
            let (better, bound) = bounds
                .iter()
                .find(|(n, _, _)| n == metric)
                .map_or(("lower", 0.0), |(_, b, bound)| (b.as_str(), *bound));
            let sign = if better == "higher" { 1.0 } else { -1.0 };
            let (pq1, pmed, pq3) = quartiles(&p);
            let (cq1, cmed, cq3) = quartiles(&c);
            let wins = p.iter().zip(&c).filter(|(a, b)| sign * (**b - **a) > 0.0).count();
            // How much worse the change's median is, as a share of the
            // parent's (negative = better).
            let worse = if pmed == 0.0 { 0.0 } else { -sign * (cmed - pmed) / pmed };
            let parent_spread = if pmed == 0.0 { 0.0 } else { (pq3 - pq1) / pmed };
            let claimed = claim == Some((workload, *metric));
            let verdict = if pairs < MIN_PAIRS {
                format!("need >= {MIN_PAIRS} pairs, have {pairs}")
            } else if claimed {
                // Ties count for neither side: a win must be strict.
                let won = wins * 10 >= pairs * 9;
                if won && (cmed - pmed).abs() > pq3 - pq1 && worse < 0.0 {
                    "CLAIM MET".to_string()
                } else {
                    "CLAIM NOT MET".to_string()
                }
            } else if parent_spread > bound {
                "unresolved (spread > bound)".to_string()
            } else if worse > bound {
                regressed = true;
                "REGRESSED".to_string()
            } else {
                "ok".to_string()
            };
            println!(
                "{workload:<15} {metric:<24} {pq1:>12.4} {pmed:>12.4} {pq3:>12.4} | {cq1:>12.4} {cmed:>12.4} {cq3:>12.4} | {:>8.4} {:>6} {:>5.0}%  {verdict}  [{unit}; ratio = change median / parent median {pmed}]",
                if pmed == 0.0 { 0.0 } else { cmed / pmed },
                format!("{wins}/{pairs}"),
                bound * 100.0,
            );
        }
    }
    Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}
