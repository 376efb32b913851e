//! `ccdb-server`: the multi-tenant compliant-DB service binary.
//!
//! ```text
//! ccdb-server --dir /var/lib/ccdb --addr 127.0.0.1:4999 \
//!             --metrics-addr 127.0.0.1:9187
//! ```

#![forbid(unsafe_code)]

use std::sync::Arc;

use ccdb_common::time::SystemClock;
use ccdb_core::db::{ComplianceConfig, Mode};
use ccdb_server::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: ccdb-server --dir <path> [--addr <host:port>] \
         [--metrics-addr <host:port>] [--max-inflight <n>] [--idle-timeout-secs <n>] \
         [--audit-stream-ms <n>] [--audit-deep-every <n>] [--shards <n>] \
         [--auto-seal-lag <records>] [--auto-seal-ms <n>]"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut dir: Option<String> = None;
    let mut addr = "127.0.0.1:4999".to_string();
    let mut metrics_addr: Option<String> = None;
    let mut max_inflight: u64 = 256;
    let mut idle_timeout_secs: u64 = 300;
    let mut audit_stream_ms: Option<u64> = None;
    let mut audit_deep_every: u32 = 1;
    let mut shards: u32 = 1;
    let mut auto_seal_lag: Option<u64> = None;
    let mut auto_seal_ms: Option<u64> = None;
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().unwrap_or_else(|| usage_missing(flag));
        match flag.as_str() {
            "--dir" => dir = Some(value("--dir")),
            "--addr" => addr = value("--addr"),
            "--metrics-addr" => metrics_addr = Some(value("--metrics-addr")),
            "--max-inflight" => {
                max_inflight = value("--max-inflight").parse().unwrap_or_else(|_| usage())
            }
            "--idle-timeout-secs" => {
                idle_timeout_secs = value("--idle-timeout-secs").parse().unwrap_or_else(|_| usage())
            }
            "--audit-stream-ms" => {
                audit_stream_ms =
                    Some(value("--audit-stream-ms").parse().unwrap_or_else(|_| usage()))
            }
            "--audit-deep-every" => {
                audit_deep_every = value("--audit-deep-every").parse().unwrap_or_else(|_| usage())
            }
            "--shards" => shards = value("--shards").parse().unwrap_or_else(|_| usage()),
            "--auto-seal-lag" => {
                auto_seal_lag = Some(value("--auto-seal-lag").parse().unwrap_or_else(|_| usage()))
            }
            "--auto-seal-ms" => {
                auto_seal_ms = Some(value("--auto-seal-ms").parse().unwrap_or_else(|_| usage()))
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let Some(dir) = dir else { usage() };

    let compliance = ComplianceConfig { mode: Mode::LogConsistent, ..ComplianceConfig::default() };
    let mut config = ServerConfig::new(dir, compliance);
    config.addr = addr;
    config.metrics_addr = metrics_addr;
    config.max_inflight_txns = max_inflight;
    config.idle_timeout = std::time::Duration::from_secs(idle_timeout_secs);
    config.audit_stream_interval = audit_stream_ms.map(std::time::Duration::from_millis);
    config.audit_stream_deep_every = audit_deep_every;
    config.shards = shards.max(1);
    config.auto_seal_lag = auto_seal_lag;
    config.auto_seal_ms = auto_seal_ms;

    let server = match Server::start(config, Arc::new(SystemClock::new())) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ccdb-server: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("ccdb-server listening on {}", server.addr());
    if let Some(m) = server.metrics_addr() {
        eprintln!("ccdb-server metrics on http://{m}/metrics");
    }
    // Serve until killed; the accept/reaper threads do the work.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn usage_missing(flag: &str) -> String {
    eprintln!("ccdb-server: missing value for {flag}");
    usage()
}
