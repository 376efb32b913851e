//! Session lifecycle and multi-tenant service tests: disconnect cleanup,
//! idle reaping, admission control, ownership fencing, and the metrics
//! endpoint — all over real TCP loopback connections.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use ccdb_common::{ClockRef, Duration, VirtualClock};
use ccdb_core::db::{ComplianceConfig, Mode};
use ccdb_metrics::http_get;
use ccdb_rpc::client::{is_admission_rejected, Client, ClientPool};
use ccdb_server::{Server, ServerConfig};

/// A scratch data directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        TempDir(std::env::temp_dir().join(format!(
            "ccdb-server-{}-{}-{}",
            std::process::id(),
            tag,
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        )))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running server and its data directory, removed after the server stops
/// (fields drop in declaration order).
struct TestServer {
    server: Server,
    _dir: TempDir,
}

impl std::ops::Deref for TestServer {
    type Target = Server;
    fn deref(&self) -> &Server {
        &self.server
    }
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

fn start(tag: &str, tweak: impl FnOnce(&mut ServerConfig)) -> TestServer {
    let dir = TempDir::new(tag);
    let mut config = ServerConfig::new(dir.0.clone(), cfg());
    tweak(&mut config);
    TestServer { server: Server::start(config, clock()).unwrap(), _dir: dir }
}

/// Polls `cond` for up to 5 s; panics with `what` on timeout.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + StdDuration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(StdDuration::from_millis(10));
    }
}

#[test]
fn disconnect_mid_txn_aborts_and_releases_slots() {
    let server = start("disc", |_| {});
    let addr = server.addr().to_string();

    let mut c = Client::connect(&addr, "acme").unwrap();
    let rel = c.create_relation("orders").unwrap();
    let txn = c.begin().unwrap();
    c.write(txn, rel, b"k", b"v").unwrap();
    assert_eq!(server.inflight_txns(), 1);
    assert_eq!(server.session_count(), 1);
    let db = server.tenants().tenant("acme").unwrap();
    assert_eq!(db.engine().active_txn_count(), 1);

    // Drop the connection with the transaction still open: the connection
    // thread must abort it, release the admission slot, and deregister.
    drop(c);
    wait_until("disconnect cleanup", || server.session_count() == 0 && server.inflight_txns() == 0);
    assert_eq!(db.engine().active_txn_count(), 0, "engine still holds the orphaned txn");

    // The uncommitted write is invisible to a fresh session.
    let mut c = Client::connect(&addr, "acme").unwrap();
    let t2 = c.begin().unwrap();
    assert_eq!(c.read(t2, rel, b"k").unwrap(), None);
    c.abort(t2).unwrap();
}

#[test]
fn idle_sessions_are_reaped_and_their_txns_aborted() {
    let server = start("idle", |cfg| {
        cfg.idle_timeout = StdDuration::from_millis(150);
        cfg.reap_interval = StdDuration::from_millis(25);
    });
    let addr = server.addr().to_string();

    let mut c = Client::connect(&addr, "acme").unwrap();
    let _txn = c.begin().unwrap();
    assert_eq!(server.inflight_txns(), 1);

    // Go idle past the timeout: the reaper shuts the socket down and the
    // connection thread runs the same cleanup as a client disconnect.
    wait_until("idle reap", || {
        server.sessions_reaped() >= 1 && server.session_count() == 0 && server.inflight_txns() == 0
    });

    // The reaped session's socket is dead from the client side too.
    assert!(c.ping().is_err(), "reaped session still answers");
}

#[test]
fn admission_control_rejects_with_typed_error() {
    let server = start("admit", |cfg| cfg.max_inflight_txns = 2);
    let addr = server.addr().to_string();

    let mut c = Client::connect(&addr, "acme").unwrap();
    let rel = c.create_relation("orders").unwrap();
    let t1 = c.begin().unwrap();
    let t2 = c.begin().unwrap();

    let err = c.begin().unwrap_err();
    assert!(is_admission_rejected(&err), "wrong error: {err}");
    assert_eq!(server.admission_rejections(), 1);

    // Resolving a transaction frees its slot.
    c.write(t1, rel, b"k", b"v").unwrap();
    c.commit(t1).unwrap();
    let t3 = c.begin().unwrap();
    c.abort(t2).unwrap();
    c.abort(t3).unwrap();
    assert_eq!(server.inflight_txns(), 0);
}

#[test]
fn sessions_cannot_touch_each_others_transactions() {
    let server = start("fence", |_| {});
    let addr = server.addr().to_string();

    let mut a = Client::connect(&addr, "acme").unwrap();
    let mut b = Client::connect(&addr, "acme").unwrap();
    let rel = a.create_relation("orders").unwrap();
    let txn = a.begin().unwrap();

    // Session B may not write under, read under, commit, or abort A's
    // transaction — even within the same tenant.
    assert!(b.write(txn, rel, b"k", b"v").is_err());
    assert!(b.read(txn, rel, b"k").is_err());
    assert!(b.commit(txn).is_err());
    assert!(b.abort(txn).is_err());

    // A's handle is unharmed by B's attempts.
    a.write(txn, rel, b"k", b"v").unwrap();
    a.commit(txn).unwrap();
}

#[test]
fn requests_before_hello_are_rejected() {
    // A raw connection that skips the handshake gets the typed NoSession
    // error for anything but Hello.
    use ccdb_rpc::proto::{read_frame, write_frame, ErrorCode, Request, Response};
    let server = start("nohello", |_| {});
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut stream, &Request::Begin.encode()).unwrap();
    let payload = read_frame(&mut stream).unwrap().unwrap();
    match Response::decode(&payload).unwrap() {
        Response::Err { code, .. } => assert_eq!(code, ErrorCode::NoSession),
        other => panic!("expected NoSession error, got {other:?}"),
    }
}

#[test]
fn tenants_are_isolated_and_audit_clean_over_rpc() {
    let server = start("multi", |cfg| {
        cfg.metrics_addr = Some("127.0.0.1:0".to_string());
    });
    let addr = server.addr().to_string();

    // Two tenants, separate sessions, interleaved commits.
    let mut a = Client::connect(&addr, "alpha").unwrap();
    let mut b = Client::connect(&addr, "beta").unwrap();
    let ra = a.create_relation("orders").unwrap();
    let rb = b.create_relation("orders").unwrap();
    for i in 0..20u32 {
        let ta = a.begin().unwrap();
        a.write(ta, ra, &i.to_be_bytes(), b"alpha-val").unwrap();
        a.commit(ta).unwrap();
        let tb = b.begin().unwrap();
        b.write(tb, rb, &i.to_be_bytes(), b"beta-val").unwrap();
        b.commit(tb).unwrap();
    }

    // Each tenant sees only its own data.
    let ta = a.begin().unwrap();
    assert_eq!(a.read(ta, ra, &0u32.to_be_bytes()).unwrap().as_deref(), Some(&b"alpha-val"[..]));
    a.abort(ta).unwrap();
    let tb = b.begin().unwrap();
    assert_eq!(b.read(tb, rb, &0u32.to_be_bytes()).unwrap().as_deref(), Some(&b"beta-val"[..]));
    b.abort(tb).unwrap();

    // Per-tenant audits replay only that tenant's L-stream, and both the
    // serial oracle (dry-run) and the real parallel audit come back clean.
    let (clean, violations) = a.audit(true).unwrap();
    assert!(clean && violations == 0, "alpha serial audit dirty");
    let (clean, _) = a.audit(false).unwrap();
    assert!(clean, "alpha parallel audit dirty");
    let (clean, _) = b.audit(false).unwrap();
    assert!(clean, "beta parallel audit dirty");

    // The shared WORM volume holds both tenants under their namespaces —
    // the root view proves global ordering is still one volume.
    let names: Vec<String> = server.tenants().worm().list("").into_iter().map(|(n, _)| n).collect();
    assert!(names.iter().any(|n| n.starts_with("tenants/alpha/")), "{names:?}");
    assert!(names.iter().any(|n| n.starts_with("tenants/beta/")), "{names:?}");

    // The metrics endpoint serves per-tenant commit counters.
    let (status, body) = http_get(server.metrics_addr().unwrap(), "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("# TYPE ccdb_commits_total counter"), "{body}");
    for tenant in ["alpha", "beta"] {
        let line = body
            .lines()
            .find(|l| {
                l.starts_with("ccdb_commits_total") && l.contains(&format!("tenant=\"{tenant}\""))
            })
            .unwrap_or_else(|| panic!("no commit counter for {tenant}:\n{body}"));
        let value: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(value >= 20.0, "{tenant} commits not counted: {line}");
    }
}

/// End-to-end over RPC: the streaming-audit daemon follows the epoch roll
/// and drains its lag; a `ReadVerified` call round-trips through the
/// engine-free `ccdb-verifier`; corrupted proof bytes are rejected; and an
/// out-of-band disk edit raises the daemon's tamper counter, visible on the
/// scrape endpoint.
#[test]
fn streaming_daemon_and_verified_reads_over_rpc() {
    use ccdb_adversary::Mala;
    use ccdb_core::EpochHeadManager;

    let server = start("stream", |cfg| {
        cfg.metrics_addr = Some("127.0.0.1:0".to_string());
        cfg.audit_stream_interval = Some(StdDuration::from_millis(20));
        cfg.audit_stream_deep_every = 1;
    });
    let addr = server.addr().to_string();
    let mut c = Client::connect(&addr, "acme").unwrap();
    let rel = c.create_relation("ledger").unwrap();

    // No sealed epoch yet: proof-carrying reads are a typed error.
    assert!(c.read_verified(rel, b"k007").is_err());

    for i in 0..30u32 {
        let t = c.begin().unwrap();
        c.write(t, rel, format!("k{i:03}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        c.commit(t).unwrap();
    }
    let (clean, _) = c.audit(false).unwrap();
    assert!(clean, "seal audit dirty");

    // The daemon follows the sealed epoch and drains its lag.
    wait_until("daemon follows the sealed epoch", || {
        server
            .audit_stats()
            .get("acme")
            .is_some_and(|s| s.epochs_sealed >= 1 && s.polls > 0 && s.lag_records == 0)
    });
    assert_eq!(server.audit_stats()["acme"].tamper_alerts, 0, "false alarm on honest load");

    // A verified read checks out under the pinned lineage fingerprint —
    // the client needs nothing from the engine to do this.
    let vr = c.read_verified(rel, b"k007").unwrap();
    assert_eq!(vr.epoch, 0);
    assert_eq!(vr.value.as_deref(), Some(&b"v7"[..]));
    let db = server.tenants().tenant("acme").unwrap();
    let fp = EpochHeadManager::new(db.worm().clone(), cfg().auditor_seed).fingerprint(0);
    let proof = vr.proof.as_ref().expect("committed key carries a proof");
    let out =
        ccdb_verifier::verify_read(&vr.head, &vr.sig, &vr.pubkey, Some(&fp), proof, rel.0, b"k007")
            .unwrap();
    assert_eq!(out.value.as_deref(), Some(&b"v7"[..]));
    assert_eq!(out.head.epoch, 0);

    // Corrupting the proof's epoch byte must fail verification.
    let mut bad = proof.clone();
    bad[0] ^= 1;
    assert!(
        ccdb_verifier::verify_read(&vr.head, &vr.sig, &vr.pubkey, Some(&fp), &bad, rel.0, b"k007")
            .is_err(),
        "corrupted proof accepted"
    );

    // An out-of-band edit to the database file is flagged by the daemon's
    // next deep poll and lands on the tamper counter.
    db.engine().run_stamper().unwrap();
    db.engine().clear_cache().unwrap();
    assert!(Mala::new(db.engine().db_path()).alter_tuple_value(b"k007", b"forged").unwrap());
    wait_until("daemon flags the tamper", || {
        server.audit_stats().get("acme").is_some_and(|s| s.tamper_alerts >= 1)
    });

    // The scrape endpoint carries the streaming-audit series per tenant.
    let (status, body) = http_get(server.metrics_addr().unwrap(), "/metrics").unwrap();
    assert_eq!(status, 200);
    for metric in [
        "ccdb_audit_lag_records",
        "ccdb_audit_lag_us",
        "ccdb_epochs_sealed_total",
        "ccdb_tamper_alerts_total",
        "ccdb_proof_reads_total",
        "ccdb_proof_index_builds_total",
    ] {
        assert!(
            body.lines().any(|l| l.starts_with(metric) && l.contains("tenant=\"acme\"")),
            "missing {metric} for acme:\n{body}"
        );
    }
    let alerts = body
        .lines()
        .find(|l| l.starts_with("ccdb_tamper_alerts_total") && l.contains("tenant=\"acme\""))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap();
    assert!(alerts >= 1.0, "tamper alert not exported: {alerts}");
    // One seal, one index: the verified read was served from the index the
    // sealing audit built, not from a rebuild.
    assert!(
        body.lines().any(|l| l == "ccdb_proof_index_builds_total{tenant=\"acme\"} 1"),
        "{body}"
    );
    assert!(body.lines().any(|l| l == "ccdb_proof_reads_total{tenant=\"acme\"} 1"), "{body}");
}

#[test]
fn pooled_clients_share_connections_under_contention() {
    let server = start("pool", |_| {});
    let addr = server.addr().to_string();
    let pool = ClientPool::new(&addr, "acme", 4);

    {
        let mut c = pool.get().unwrap();
        c.create_relation("orders").unwrap();
    }

    let mut handles = Vec::new();
    for w in 0..8u32 {
        let pool = pool.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..10u32 {
                let mut c = pool.get().unwrap();
                let rel = c.rel_id("orders").unwrap();
                let txn = c.begin().unwrap();
                c.write(txn, rel, &(w * 100 + i).to_be_bytes(), b"v").unwrap();
                c.commit(txn).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // 8 workers shared at most 4 connections, and all 80 commits landed.
    let (idle, live) = pool.counts();
    assert!(live <= 4, "pool over capacity: {live}");
    assert_eq!(idle, live, "all connections back in the pool");
    let db = server.tenants().tenant("acme").unwrap();
    assert!(db.engine().stats().commits >= 80, "lost commits: {}", db.engine().stats().commits);
}
