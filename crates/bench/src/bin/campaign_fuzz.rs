//! CI smoke runner for the adversary campaign fuzzer.
//!
//! Runs a bounded batch of seeded campaigns (`CCDB_CAMPAIGN_SEEDS`, default
//! 25, offset from `CCDB_CAMPAIGN_BASE_SEED`) and exits non-zero on the
//! first violated seed, after writing the seed plus its structured action
//! trace as a JSON artifact (`CCDB_CAMPAIGN_ARTIFACT`, default
//! `campaign-failure.json`) for the CI job to upload.
//!
//! Replay a failure exactly with
//! `CCDB_CAMPAIGN_REPLAY_SEED=<seed> cargo test --test campaign \
//!  replay_campaign_seed -- --ignored --nocapture`.

#![forbid(unsafe_code)]

use ccdb_bench::campaign::{run_campaign_schedule, CampaignFailure, CAMPAIGN_BASE_SEED};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Minimal JSON string escaping (the artifact holds only ASCII traces).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn write_artifact(path: &str, f: &CampaignFailure) {
    let trace: Vec<String> = f.trace.iter().map(|a| json_str(a)).collect();
    let body = format!(
        "{{\n  \"seed\": {},\n  \"replay\": {},\n  \"error\": {},\n  \"trace\": [\n    {}\n  ]\n}}\n",
        f.seed,
        json_str(&format!("CCDB_CAMPAIGN_REPLAY_SEED={}", f.seed)),
        json_str(&f.error),
        trace.join(",\n    ")
    );
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("warning: could not write artifact {path}: {e}");
    } else {
        eprintln!("failure artifact written to {path}");
    }
}

fn main() {
    let n = env_u64("CCDB_CAMPAIGN_SEEDS", 25);
    let base = env_u64("CCDB_CAMPAIGN_BASE_SEED", CAMPAIGN_BASE_SEED);
    let artifact = std::env::var("CCDB_CAMPAIGN_ARTIFACT")
        .unwrap_or_else(|_| "campaign-failure.json".to_string());

    let (mut tampered, mut detected, mut commits, mut shredded, mut held) = (0u64, 0u64, 0, 0, 0);
    let mut years = 0.0f64;
    for i in 0..n {
        let seed = base + i;
        match run_campaign_schedule(seed) {
            Ok(o) => {
                tampered += (o.tampers_landed > 0) as u64;
                detected += o.detected as u64;
                commits += o.commits;
                shredded += o.shredded;
                held += o.held_spared;
                years += o.virtual_micros_advanced as f64 / (365.0 * 86_400.0 * 1e6);
            }
            Err(f) => {
                eprintln!("{f}");
                write_artifact(&artifact, &f);
                std::process::exit(1);
            }
        }
    }
    println!(
        "campaign fuzz: {n} seeds OK ({tampered} tampered / {detected} detected, \
         {commits} commits, {shredded} shredded, {held} hold-spared, \
         {years:.1} virtual years)"
    );
}
