//! Sharded-deployment service tests: `--shards N` routing over real TCP
//! loopback, cross-shard transactions through the RPC surface, per-shard
//! metrics labels, proof-carrying reads routed by the shard map, and the
//! audit daemon's auto-seal policy (lag- and age-triggered sealing audits).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use ccdb_common::{ClockRef, Duration, VirtualClock};
use ccdb_core::db::{ComplianceConfig, Mode};
use ccdb_metrics::http_get;
use ccdb_rpc::client::Client;
use ccdb_rpc::proto::{Request, Response};
use ccdb_server::{Server, ServerConfig};

fn tmp(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "ccdb-shardsrv-{}-{}-{}",
        std::process::id(),
        tag,
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn cfg() -> ComplianceConfig {
    ComplianceConfig {
        mode: Mode::LogConsistent,
        regret_interval: Duration::from_mins(5),
        cache_pages: 256,
        fsync: false,
        ..ComplianceConfig::default()
    }
}

fn clock() -> ClockRef {
    Arc::new(VirtualClock::ticking(Duration::from_micros(50)))
}

fn start(tag: &str, tweak: impl FnOnce(&mut ServerConfig)) -> Server {
    let mut config = ServerConfig::new(tmp(tag), cfg());
    tweak(&mut config);
    Server::start(config, clock()).unwrap()
}

/// Polls `cond` for up to 5 s; panics with `what` on timeout.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + StdDuration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(StdDuration::from_millis(10));
    }
}

/// A two-shard deployment behind the unchanged RPC protocol: cross-shard
/// transactions commit atomically, aborts leave nothing behind, every
/// session sees the single deployment regardless of its Hello name, both
/// audit strategies agree the log is clean, and the scrape endpoint carries
/// per-shard series.
#[test]
fn sharded_server_serves_cross_shard_txns_over_rpc() {
    let server = start("rpc", |cfg| {
        cfg.shards = 2;
        cfg.metrics_addr = Some("127.0.0.1:0".to_string());
    });
    let addr = server.addr().to_string();
    assert!(server.sharded().is_some(), "shards=2 must select the sharded deployment");

    let mut c = Client::connect(&addr, "acme").unwrap();
    let rel = c.create_relation("orders").unwrap();
    for round in 0..20u32 {
        let t = c.begin().unwrap();
        // Eight keys fan across both shards on every round.
        for k in 0..8u32 {
            let key = format!("r{round:02}-k{k}");
            c.write(t, rel, key.as_bytes(), format!("v{round}.{k}").as_bytes()).unwrap();
            // Reads inside the transaction see its own uncommitted writes.
            assert_eq!(
                c.read(t, rel, key.as_bytes()).unwrap().as_deref(),
                Some(format!("v{round}.{k}").as_bytes())
            );
        }
        c.commit(t).unwrap();
    }

    // An aborted cross-shard transaction leaves no trace on any shard.
    let t = c.begin().unwrap();
    for k in 0..8u32 {
        c.write(t, rel, format!("gone-{k}").as_bytes(), b"nope").unwrap();
    }
    c.abort(t).unwrap();

    // A second session under a different Hello name reads the same
    // deployment: sharded mode is single-tenant by construction.
    let mut c2 = Client::connect(&addr, "other-name").unwrap();
    let rel2 = c2.rel_id("orders").unwrap();
    assert_eq!(rel2, rel);
    let t = c2.begin().unwrap();
    assert_eq!(c2.read(t, rel, b"r07-k3").unwrap().as_deref(), Some(&b"v7.3"[..]));
    assert_eq!(c2.read(t, rel, b"gone-2").unwrap(), None);
    c2.abort(t).unwrap();

    // Both shards actually took writes — the fan-out was real.
    let db = server.sharded().unwrap();
    for (i, shard) in db.shards().iter().enumerate() {
        assert!(shard.engine().stats().commits > 0, "shard {i} took no commits");
    }

    // Serial oracle and parallel deployment audit agree and both are clean.
    let serial = c.audit(true).unwrap();
    let parallel = c.audit(false).unwrap();
    assert_eq!(serial, parallel, "serial and parallel audits disagree");
    assert!(serial.0, "sharded audit reported {} violations", serial.1);

    // Proof-carrying reads route through the shard map to the owning
    // shard's sealed epoch.
    for key in ["r00-k0", "r19-k7"] {
        let vr = c.read_verified(rel, key.as_bytes()).unwrap();
        assert!(vr.value.is_some(), "verified read lost committed key {key}");
    }

    // The scrape endpoint exposes per-shard commit counters.
    let (status, body) = http_get(server.metrics_addr().unwrap(), "/metrics").unwrap();
    assert_eq!(status, 200);
    for shard in ["shard-0", "shard-1"] {
        let label = format!("shard=\"{shard}\"");
        let value: f64 = body
            .lines()
            .find(|l| l.starts_with("ccdb_commits_total") && l.contains(&label))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no ccdb_commits_total sample for {shard}"));
        assert!(value > 0.0, "zero commit counter for {shard}");
        // Each shard sealed once and serves proofs from that one index.
        let builds = format!("ccdb_proof_index_builds_total{{{label}}} 1");
        assert!(body.lines().any(|l| l == builds), "missing {builds:?}:\n{body}");
    }
    let reads: f64 = body
        .lines()
        .filter(|l| l.starts_with("ccdb_proof_reads_total{"))
        .filter_map(|l| l.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok()))
        .sum();
    assert_eq!(reads, 2.0, "proof reads across shards:\n{body}");
}

/// The auto-seal policy: with `--auto-seal-ms` set, the audit daemon runs a
/// full sealing audit on every shard once the last seal is old enough, so
/// epochs roll without any operator-issued Audit request. The stream
/// auditors follow the rolls without raising alerts, and the sealed epochs
/// serve proof-carrying reads.
#[test]
fn auto_seal_rolls_epochs_without_operator_audits() {
    let server = start("autoseal", |cfg| {
        cfg.shards = 2;
        cfg.metrics_addr = Some("127.0.0.1:0".to_string());
        cfg.audit_stream_interval = Some(StdDuration::from_millis(10));
        cfg.audit_stream_deep_every = 4;
        cfg.auto_seal_ms = Some(40);
    });
    let addr = server.addr().to_string();

    let mut c = Client::connect(&addr, "ops").unwrap();
    let rel = c.create_relation("ledger").unwrap();
    for i in 0..25u32 {
        let t = c.begin().unwrap();
        for k in 0..4u32 {
            c.write(t, rel, format!("i{i:02}-k{k}").as_bytes(), &i.to_le_bytes()).unwrap();
        }
        c.commit(t).unwrap();
    }

    // No Audit request was ever issued, yet the daemon seals both shards.
    wait_until("auto-seal sealed both shards", || server.auto_seals() >= 2);
    wait_until("stream auditors observed the rolls", || {
        let stats = server.audit_stats();
        stats.len() == 2 && stats.values().all(|s| s.epochs_sealed >= 1)
    });
    let alerts: u64 = server.audit_stats().values().map(|s| s.tamper_alerts).sum();
    assert_eq!(alerts, 0, "auto-seal tripped a false tamper alert");

    // The auto-sealed epoch serves verified reads like an operator audit.
    let vr = c.read_verified(rel, b"i00-k0").unwrap();
    assert_eq!(vr.value.as_deref(), Some(&0u32.to_le_bytes()[..]));

    // The policy is visible on the scrape endpoint.
    let (status, body) = http_get(server.metrics_addr().unwrap(), "/metrics").unwrap();
    assert_eq!(status, 200);
    let sealed: f64 = body
        .lines()
        .find(|l| l.starts_with("ccdb_auto_seals_total"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .expect("no ccdb_auto_seals_total sample");
    assert!(sealed >= 2.0, "auto-seal counter not exported: {sealed}");

    // Fresh writes after the auto-seal keep the next epoch clean.
    let t = c.begin().unwrap();
    c.write(t, rel, b"post-seal", b"ok").unwrap();
    c.commit(t).unwrap();
    let (clean, violations) = c.audit(true).unwrap();
    assert!(clean, "post-auto-seal audit reported {violations} violations");
}

/// `--auto-seal-lag`: the record-lag trigger also seals. A zero bound
/// degenerates to "seal on every daemon round", which is exactly the knob's
/// contract (`lag_records >= bound`); the deployment must stay audit-clean
/// and serve reads throughout.
#[test]
fn auto_seal_lag_bound_seals_and_stays_clean() {
    let server = start("autolag", |cfg| {
        cfg.shards = 2;
        cfg.audit_stream_interval = Some(StdDuration::from_millis(10));
        cfg.auto_seal_lag = Some(0);
    });
    let addr = server.addr().to_string();

    let mut c = Client::connect(&addr, "ops").unwrap();
    let rel = c.create_relation("ledger").unwrap();
    for i in 0..10u32 {
        let t = c.begin().unwrap();
        for k in 0..4u32 {
            c.write(t, rel, format!("i{i:02}-k{k}").as_bytes(), &i.to_le_bytes()).unwrap();
        }
        c.commit(t).unwrap();
    }
    wait_until("lag-triggered seals", || server.auto_seals() >= 2);
    let (clean, violations) = c.audit(true).unwrap();
    assert!(clean, "lag-triggered auto-seal left {violations} violations");
    let t = c.begin().unwrap();
    assert_eq!(c.read(t, rel, b"i09-k3").unwrap().as_deref(), Some(&9u32.to_le_bytes()[..]));
    c.abort(t).unwrap();
}

/// `Migrate` on a sharded deployment moves every shard's historical pages
/// to WORM: overwrite rounds on a time-split relation, each sealed by an
/// audit, leave historical pages behind; the RPC migrates them and the
/// deployment still audits clean.
#[test]
fn sharded_migrate_over_rpc_moves_historical_pages() {
    let server = start("migrate", |cfg| cfg.shards = 2);
    let mut c = Client::connect(server.addr().to_string(), "ops").unwrap();
    let rel = match c
        .call(Request::CreateRelation { name: "hot".into(), time_split_threshold: 0.7 })
        .unwrap()
    {
        Response::Rel { rel } => rel,
        other => panic!("create_relation: {other:?}"),
    };
    let value = [0x5A; 96];
    for round in 0..4u32 {
        for i in 0..60u32 {
            let t = c.begin().unwrap();
            c.write(t, rel, format!("k{:02}", i % 24).as_bytes(), &value).unwrap();
            c.write(t, rel, b"round", &round.to_le_bytes()).unwrap();
            c.commit(t).unwrap();
        }
        let (clean, violations) = c.audit(false).unwrap();
        assert!(clean, "round {round}: sealing audit reported {violations} violations");
    }

    let tuples = c.migrate(rel).unwrap();
    assert!(tuples > 0, "no historical tuple reached WORM");
    let serial = c.audit(true).unwrap();
    assert_eq!(serial, c.audit(false).unwrap(), "serial and sealing audits disagree");
    assert!(serial.0, "post-migration audit reported {} violations", serial.1);
}
