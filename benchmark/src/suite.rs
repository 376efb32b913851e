//! `suite`: the four workloads, each in its own process (so `rss_peak_mb`
//! is per workload), timed then traced, merged into one result document on
//! stdout and `<out>/result.json`. `--repeat N` runs N sets (a different
//! seed each, as the acceptance procedure does) and prints every
//! end-to-end metric's spread against its bound.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;
use crate::spec::{END_TO_END, WORKLOADS};
use crate::util::quartiles;
use crate::workload::RUN_SECONDS;
use crate::{Cli, DEFAULT_SEED};

/// Regression bounds per end-to-end metric, from `BENCHMARK.json`.
pub fn load_bounds(spec_path: &Path) -> Result<Vec<(String, String, f64)>, String> {
    let text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path:?}: {e}"))?;
    let spec = Json::parse(&text).map_err(|e| format!("{spec_path:?}: {e}"))?;
    let list = spec.get("end_to_end").and_then(Json::as_arr).ok_or("spec has no end_to_end")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let better = m.get("better").and_then(Json::as_str).ok_or("metric without `better`")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            Ok((name.to_string(), better.to_string(), bound))
        })
        .collect()
}

/// Runs one workload in a child process; returns its full result document.
fn run_child(cli: &Cli, workload: &str, seed: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--seconds", cli.flag("seconds").unwrap_or(&RUN_SECONDS.to_string())])
        .args(["--scale", cli.flag("scale").unwrap_or("full")])
        .arg("--out")
        .arg(cli.out_dir())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    let output = cmd.output().map_err(|e| format!("spawning {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            u8::from(trace),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    // The last line is the contract's result; the one before is the full
    // document that embeds it.
    let doc_line = stdout.lines().rev().nth(1).ok_or("child printed no result document")?;
    Json::parse(doc_line).map_err(|e| format!("{workload}: unparsable result document: {e}"))
}

/// The value of metric `name` in a single-run result document.
pub fn metric_value(doc: &Json, name: &str) -> Option<f64> {
    doc.get("result")?.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// The tracing overhead as the difference between the two runs: how much
/// longer the traced run's deployed-mode stream took than the timed run's.
fn run_delta_share(timed: &Json, traced: &Json) -> Option<f64> {
    let base = |d: &Json| d.get("detail")?.get("bases")?.get("mode.hor_s")?.as_f64();
    Some(base(traced)? / base(timed)? - 1.0)
}

/// Runs the suite.
pub fn suite(cli: &Cli) -> Result<ExitCode, String> {
    let out = cli.out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {out:?}: {e}"))?;
    let repeat: usize = cli.parsed("repeat", 1)?;
    let seed: u64 = cli.parsed("seed", DEFAULT_SEED)?;
    let mut all_correct = true;
    let mut sets = Vec::new();
    for i in 0..repeat.max(1) {
        let seed = seed.wrapping_add(i as u64);
        let mut runs = Vec::new();
        for workload in WORKLOADS {
            let timed = run_child(cli, workload, seed, false)?;
            let traced = run_child(cli, workload, seed, true)?;
            for doc in [&timed, &traced] {
                all_correct &=
                    doc.get("result").and_then(|r| r.get("correct")?.as_bool()) == Some(true);
            }
            eprintln!(
                "{workload} seed {seed}: txn_per_s {:.1}, overhead_lc {:.3}, overhead_hor {:.3}, audit_s_per_mb {:.4}",
                metric_value(&timed, "txn_per_s").unwrap_or(0.0),
                metric_value(&timed, "overhead_lc").unwrap_or(0.0),
                metric_value(&timed, "overhead_hor").unwrap_or(0.0),
                metric_value(&timed, "audit_s_per_mb").unwrap_or(0.0),
            );
            let mut pair = Json::obj();
            pair.set("workload", workload);
            if let Some(share) = run_delta_share(&timed, &traced) {
                pair.set("trace.run_delta_share", share);
            }
            pair.set("timed", timed).set("traced", traced);
            runs.push(pair);
        }
        let mut set = Json::obj();
        set.set("schema", 1u64).set("seed", seed).set("runs", Json::Arr(runs));
        let path = out.join(format!("result-{seed:020}.json"));
        std::fs::write(&path, set.to_line() + "\n")
            .map_err(|e| format!("writing {path:?}: {e}"))?;
        sets.push(set);
    }
    let last = sets.last().expect("at least one set").to_line();
    std::fs::write(out.join("result.json"), last.clone() + "\n")
        .map_err(|e| format!("writing result.json: {e}"))?;
    println!("{last}");

    if sets.len() > 1 {
        let spec = cli.flag("spec").unwrap_or("BENCHMARK.json");
        let bounds = load_bounds(Path::new(spec))?;
        print_spreads(&sets, &bounds);
    }
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Per (workload, end-to-end metric): median, inter-quartile spread as a
/// share of the median, and the bound it must stay within.
fn print_spreads(sets: &[Json], bounds: &[(String, String, f64)]) {
    eprintln!(
        "{:<16} {:<26} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "median", "spread", "bound"
    );
    for workload in WORKLOADS {
        for (name, _unit) in END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .flat_map(|s| s.get("runs").and_then(Json::as_arr).unwrap_or(&[]).iter())
                .filter(|p| p.get("workload").and_then(Json::as_str) == Some(workload))
                .filter_map(|p| metric_value(p.get("timed")?, name))
                .collect();
            let (q1, q2, q3) = quartiles(&values);
            let spread = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2 };
            let bound = bounds.iter().find(|(n, _, _)| n == name).map_or(0.0, |b| b.2);
            let verdict = if *name == "setup_s" {
                "(spread not gated)"
            } else if spread <= bound / 3.0 {
                "steady"
            } else if spread <= bound {
                "within bound"
            } else {
                "EXCEEDS BOUND"
            };
            eprintln!(
                "{workload:<16} {name:<26} {q2:>14.4} {:>8.2}% {:>6.0}%  {verdict}",
                spread * 100.0,
                bound * 100.0
            );
        }
    }
}
