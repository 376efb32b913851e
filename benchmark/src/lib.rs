//! The repository's one benchmark (see `benchmark/README.md`).
//!
//! ```text
//! ccdb-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                    [--scale smoke] [--out <dir>]
//! ccdb-benchmark suite [--seed <n>] [--seconds <s>] [--repeat <n>] [--scale smoke]
//!                      [--out <dir>] [--spec <BENCHMARK.json>]
//! ccdb-benchmark compare <parent-dir> <change-dir> [--claim <workload>:<metric>]
//!                        [--spec <BENCHMARK.json>]
//! ```
//!
//! `run` is the contract entry point: one workload in this process, the
//! last line of stdout is `{"correct", "attempted", "failed", "metrics"}`.

mod audit;
mod compare;
pub mod json;
mod probes;
mod service;
pub mod spec;
mod suite;
mod tpcc;
mod trace;
mod util;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use spec::{Metrics, END_TO_END, PER_LAYER, WORKLOADS};
use trace::Tracer;
use workload::{Args, Checks, RUN_SECONDS};

/// The seed used when none is given (recorded in `BENCHMARK.json`'s README).
pub const DEFAULT_SEED: u64 = 0xCCDB_2009;

/// What a workload executor returns.
pub struct RunOutput {
    /// Every metric of the run's schema (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Parameters, sample counts and ratio bases, echoed in the output.
    pub detail: Json,
    /// The correctness checks that ran.
    pub checks: Checks,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The spans of the run (empty when tracing was off).
    pub tracer: Tracer,
}

/// `--flag value` pairs after the subcommand, plus positional arguments.
pub struct Cli {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli { flags: Vec::new(), positional: Vec::new() };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    cli.flags.push((name.to_string(), value.clone()));
                }
                None => cli.positional.push(a.clone()),
            }
        }
        Ok(cli)
    }

    /// The value of `--name`, if given.
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// The parsed value of `--name`, or `default`.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: cannot parse `{v}`")),
        }
    }

    /// The output directory (`--out`, default `benchmark/out`).
    pub fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.flag("out").unwrap_or("benchmark/out"))
    }
}

fn run_args(cli: &Cli) -> Result<Args, String> {
    let workload = cli.flag("workload").ok_or("run needs --workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {WORKLOADS:?})"));
    }
    let seconds: f64 = cli.parsed("seconds", RUN_SECONDS)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let smoke = match cli.flag("scale") {
        None | Some("full") => false,
        Some("smoke") => true,
        Some(other) => return Err(format!("--scale is `full` or `smoke`, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed: cli.parsed("seed", DEFAULT_SEED)?,
        seconds,
        trace: cli.parsed::<u8>("trace", 0)? != 0,
        smoke,
        out: cli.out_dir(),
    })
}

/// Runs one workload in this process and prints the contract's result.
fn run(cli: &Cli) -> Result<ExitCode, String> {
    let args = run_args(cli)?;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("creating {:?}: {e}", args.out))?;
    let machine = util::machine_facts(&args.out);
    let out = match args.workload.as_str() {
        "service_commit" => service::run(&args),
        _ => tpcc::run(&args),
    };
    let schema = if args.trace { PER_LAYER } else { END_TO_END };
    let correct = out.checks.all_ok();

    let mut doc = Json::obj();
    doc.set("workload", args.workload.as_str())
        .set("trace", u64::from(args.trace))
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("scale", if args.smoke { "smoke" } else { "full" })
        .set("machine", machine)
        .set("checks", out.checks.to_json())
        .set("detail", out.detail);
    if args.trace {
        let path = args.out.join(format!("trace-{}.jsonl", args.workload));
        out.tracer.write_jsonl(&path).map_err(|e| format!("writing {path:?}: {e}"))?;
        let mut table = Json::obj();
        for (name, (calls, total_us, self_us)) in out.tracer.self_times() {
            let mut row = Json::obj();
            row.set("calls", calls).set("total_us", total_us).set("self_us", self_us);
            table.set(name, row);
        }
        doc.set("spans", out.tracer.len()).set("span_self_times", table);
    }
    let mut result = Json::obj();
    result
        .set("correct", correct)
        .set("attempted", out.attempted.max(1))
        .set("failed", out.failed)
        .set("metrics", out.metrics.to_json(schema));
    doc.set("result", result.clone());

    let kind = if args.trace { "traced" } else { "timed" };
    let path = args.out.join(format!("{}-{kind}.json", args.workload));
    std::fs::write(&path, doc.to_line() + "\n").map_err(|e| format!("writing {path:?}: {e}"))?;
    println!("{}", doc.to_line());
    println!("{}", result.to_line());
    // A printed result exits 0 even when a check failed: `correct` carries
    // the verdict (the suite turns it into a non-zero exit).
    Ok(ExitCode::SUCCESS)
}

/// The command line entry point (`src/main.rs` is only this call).
pub fn main_from_env() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("", &argv[..]),
    };
    let outcome = Cli::parse(rest).and_then(|cli| match command {
        "run" => run(&cli),
        "suite" => suite::suite(&cli),
        "compare" => compare::compare(&cli),
        _ => Err("usage: ccdb-benchmark <run|suite|compare> ... (see benchmark/README.md)".into()),
    });
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("ccdb-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
