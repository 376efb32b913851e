//! Smoke and determinism tests: every workload at `--scale smoke`, each in
//! its own process like the real runs.

use std::path::PathBuf;
use std::process::Command;

use ccdb_benchmark::json::Json;
use ccdb_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};

/// Runs one workload at smoke scale; returns its full result document.
fn run(workload: &str, seed: u64, trace: bool, tag: &str) -> Json {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{tag}-{workload}-{seed}"));
    let output = Command::new(env!("CARGO_BIN_EXE_ccdb-benchmark"))
        .args(["run", "--workload", workload, "--scale", "smoke", "--seconds", "1"])
        .args(["--seed", &seed.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("spawning the benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{workload} failed: {}\n{stderr}", output.status);
    assert!(!stderr.contains("CHECK FAILED"), "{workload}: {stderr}");
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().expect("a result line")).expect("result JSON");
    let doc = Json::parse(lines.next().expect("a document line")).expect("document JSON");
    assert_eq!(doc.get("result"), Some(&result), "the document embeds the contract line");
    let keys: Vec<&str> = result.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let _ = std::fs::remove_dir_all(&out);
    doc
}

fn metrics(doc: &Json) -> Vec<(String, f64, String)> {
    doc.get("result")
        .and_then(|r| r.get("metrics"))
        .and_then(Json::as_obj)
        .expect("a metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).expect("a numeric value");
            let unit = m.get("unit").and_then(Json::as_str).expect("a unit").to_string();
            (name.clone(), value, unit)
        })
        .collect()
}

/// `(name, unit)` pairs of one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    spec.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Checks that must have run (and passed) per workload.
fn expected_checks(workload: &str, trace: bool) -> Vec<&'static str> {
    let mut checks = vec![
        "lc_audit_clean",
        "audit_clean",
        "audit_serial_parallel_stream_identical",
        "no_failed_operations",
    ];
    if workload == "service_commit" {
        checks.extend([
            "every_read_verified",
            "crash_recovery_ran",
            "acked_commits_present_exactly_once",
            "no_unacknowledged_commits",
        ]);
    } else {
        checks.extend(["modes_same_outcomes", "modes_same_row_counts"]);
    }
    if workload == "audit_epoch" {
        checks.push("migrated_pages_exist");
    }
    if trace {
        checks.push("post_probe_audit_clean");
    }
    checks
}

#[test]
fn benchmark_json_declares_the_schema_the_code_emits() {
    let pairs = |schema: &[(&str, &str)]| -> Vec<(String, String)> {
        schema.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(declared("end_to_end"), pairs(END_TO_END));
    assert_eq!(declared("per_layer"), pairs(PER_LAYER));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
    assert_eq!(spec.get("paths").unwrap().as_arr().unwrap(), [Json::Str("benchmark".into())]);
}

#[test]
fn every_workload_emits_the_declared_metrics_and_runs_its_checks() {
    for workload in WORKLOADS {
        for (trace, schema) in [(false, END_TO_END), (true, PER_LAYER)] {
            let doc = run(workload, 7, trace, "smoke");
            let got = metrics(&doc);
            let names: Vec<&str> = got.iter().map(|(n, _, _)| n.as_str()).collect();
            let want: Vec<&str> = schema.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, want, "{workload} trace {trace}: metric names");
            for ((name, value, unit), (_, want_unit)) in got.iter().zip(schema) {
                assert!(
                    name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "bad metric name {name}"
                );
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                assert_eq!(unit, want_unit, "{workload}: unit of {name}");
                if !trace {
                    assert!(*value > 0.0, "{workload}: end-to-end {name} must never be 0");
                }
            }
            let result = doc.get("result").unwrap();
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0), "{workload}");
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let checks = doc.get("checks").and_then(Json::as_obj).unwrap();
            for check in expected_checks(workload, trace) {
                let ran = checks.iter().find(|(k, _)| k == check);
                assert_eq!(
                    ran.map(|(_, v)| v),
                    Some(&Json::Bool(true)),
                    "{workload} trace {trace}: check {check} did not run or failed"
                );
            }
            if trace {
                assert!(
                    doc.get("spans").and_then(Json::as_f64).unwrap() > 0.0,
                    "{workload}: no spans"
                );
            }
        }
    }
}

/// Counts that follow from the logical operations alone. They repeat
/// exactly on every one-client workload.
const LOGICAL_COUNTS: [&str; 7] = [
    "storage.db_pages",
    "btree.key_splits_per_ktxn",
    "btree.time_splits_per_ktxn",
    "core.split_records_per_txn",
    "core.audit.tuples_final",
    "engine.stamp_queue_len_max",
    "verifier.proof_bytes",
];

/// The count metrics of a run that must repeat exactly. Without evictions
/// (`tpcc_mem`) that is every count the program makes. Once the pool
/// evicts, physical counts (misses, page writes, bytes of `L`) drift by a
/// percent or two between identical runs (README, "Findings"), and only
/// the logical counts are exact.
fn counts(workload: &str, doc: &Json) -> Vec<(String, f64)> {
    metrics(doc)
        .into_iter()
        .filter(|(name, _, unit)| {
            if workload == "tpcc_mem" {
                matches!(unit.as_str(), "count" | "B")
                    || name == "core.audit.l_mb"
                    || name == "storage.hit_rate"
            } else {
                LOGICAL_COUNTS.contains(&name.as_str())
            }
        })
        .map(|(name, value, _)| (name, value))
        .collect()
}

/// Two runs with one seed agree on every exact count; another seed gives
/// other inputs and passes the same checks.
fn assert_deterministic(workload: &str) {
    if workload == "tpcc_mem" {
        // `l_bytes_per_txn` is the one count among the end-to-end metrics.
        let timed = counts(workload, &run(workload, 11, false, "det-a"));
        assert!(!timed.is_empty());
        assert_eq!(timed, counts(workload, &run(workload, 11, false, "det-b")), "{workload} timed");
    }
    let traced = counts(workload, &run(workload, 11, true, "det-a"));
    assert!(!traced.is_empty());
    assert_eq!(traced, counts(workload, &run(workload, 11, true, "det-b")), "{workload} traced");
    let other = run(workload, 12, true, "det-c");
    assert_eq!(other.get("result").unwrap().get("correct"), Some(&Json::Bool(true)));
    assert_ne!(traced, counts(workload, &other), "{workload}: seeds 11 and 12 gave equal counts");
}

#[test]
fn tpcc_mem_counts_repeat_exactly_and_follow_the_seed() {
    assert_deterministic("tpcc_mem");
}

#[test]
fn tpcc_cold_counts_repeat_exactly_and_follow_the_seed() {
    assert_deterministic("tpcc_cold");
}

#[test]
fn audit_epoch_counts_repeat_exactly_and_follow_the_seed() {
    assert_deterministic("audit_epoch");
}
