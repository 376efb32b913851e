//! The multi-tenant compliant-DB service: TCP front-end, session table,
//! admission control, and metrics, assembled around a
//! [`TenantRegistry`].
//!
//! # Shape
//!
//! One process hosts many tenants. Each tenant is a full [`CompliantDb`]
//! (own engine, catalog, retention, compliance-log namespace on the shared
//! WORM volume — see `ccdb_core::tenant`); the server contributes what the
//! embedded library cannot: a wire boundary (`ccdb_rpc`), per-session
//! transaction ownership with idle reaping (`session`), a global bound on
//! in-flight transactions (admission control — backpressure instead of
//! unbounded queueing), and a Prometheus scrape endpoint (`ccdb_metrics`).
//!
//! Threading is deliberately boring: one accept loop, one OS thread per
//! connection (sessions are long-lived and the engine's own locking is the
//! concurrency story), one reaper thread, one metrics thread.

#![forbid(unsafe_code)]

pub mod session;

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration as StdDuration;

use ccdb_btree::SplitPolicy;
use ccdb_common::sync::Mutex;
use ccdb_common::{ClockRef, Duration, Error, Result, TxnId};
use ccdb_core::audit::stream::{StreamAuditor, StreamStats};
use ccdb_core::db::{ComplianceConfig, CompliantDb};
use ccdb_core::shard::{DistTxn, ShardedDb};
use ccdb_core::tenant::TenantRegistry;
use ccdb_metrics::{MetricsServer, Registry, Sample};
use ccdb_rpc::proto::{read_frame, write_frame, ErrorCode, Request, Response, PROTOCOL_VERSION};

pub use session::SessionTable;

/// Service configuration.
pub struct ServerConfig {
    /// Data directory (tenants under `dir/tenants`, WORM under `dir/worm`).
    pub dir: PathBuf,
    /// RPC listen address, e.g. `"127.0.0.1:4999"` (port 0 = ephemeral).
    pub addr: String,
    /// Metrics listen address; `None` disables the endpoint.
    pub metrics_addr: Option<String>,
    /// Compliance configuration applied to every tenant.
    pub compliance: ComplianceConfig,
    /// Global bound on in-flight transactions across all sessions; `Begin`
    /// past the bound gets the typed admission-rejected error.
    pub max_inflight_txns: u64,
    /// Sessions idle longer than this are reaped (their sockets shut down,
    /// their open transactions aborted).
    pub idle_timeout: StdDuration,
    /// How often the reaper scans.
    pub reap_interval: StdDuration,
    /// Streaming-audit daemon poll interval; `None` disables the daemon.
    /// When enabled, one thread tails every tenant's compliance log with a
    /// [`StreamAuditor`], bounding audit lag to roughly one interval.
    pub audit_stream_interval: Option<StdDuration>,
    /// Every Nth daemon poll per tenant is a *deep* poll (full fold against
    /// the disk state, catching in-place tampering); the rest are shallow
    /// log-tail polls that never touch the engine. `1` = every poll deep.
    pub audit_stream_deep_every: u32,
    /// Shard count. `1` (the default) hosts a multi-tenant registry of
    /// plain engines; `> 1` hosts one sharded deployment (N engines over
    /// the shared WORM, cross-shard 2PC) that every session binds to.
    pub shards: u32,
    /// Auto-seal: when the streaming auditor's record lag for a tenant or
    /// shard reaches this, the daemon runs a full sealing audit on it.
    pub auto_seal_lag: Option<u64>,
    /// Auto-seal: when this many milliseconds pass without a seal on a
    /// tenant or shard, the daemon runs a full sealing audit on it.
    pub auto_seal_ms: Option<u64>,
}

impl ServerConfig {
    /// Defaults: ephemeral loopback port, metrics off, 256 in-flight
    /// transactions, 5-minute idle timeout.
    pub fn new(dir: impl Into<PathBuf>, compliance: ComplianceConfig) -> ServerConfig {
        ServerConfig {
            dir: dir.into(),
            addr: "127.0.0.1:0".to_string(),
            metrics_addr: None,
            compliance,
            max_inflight_txns: 256,
            idle_timeout: StdDuration::from_secs(300),
            reap_interval: StdDuration::from_millis(500),
            audit_stream_interval: None,
            audit_stream_deep_every: 1,
            shards: 1,
            auto_seal_lag: None,
            auto_seal_ms: None,
        }
    }
}

/// What the server hosts: a multi-tenant registry of plain engines, or one
/// sharded deployment. (A registry *of* sharded deployments is deliberately
/// out of scope: shards and tenants are siblings in the WORM namespace
/// tree, and mixing the two axes in one process buys nothing the two
/// configurations don't.)
enum Deployment {
    Tenants(TenantRegistry),
    Sharded(Arc<ShardedDb>),
}

impl Deployment {
    /// Every hosted database with its metrics/daemon label: tenant names
    /// in tenant mode, `shard-<i>` in sharded mode.
    fn dbs(&self) -> Vec<(String, Arc<CompliantDb>)> {
        match self {
            Deployment::Tenants(reg) => {
                reg.names().into_iter().filter_map(|n| reg.tenant(&n).map(|db| (n, db))).collect()
            }
            Deployment::Sharded(sdb) => sdb
                .shards()
                .iter()
                .enumerate()
                .map(|(i, db)| (format!("shard-{i}"), db.clone()))
                .collect(),
        }
    }
}

/// Shared server state.
struct Inner {
    deployment: Deployment,
    sessions: SessionTable,
    /// Transactions begun and not yet resolved, across all sessions.
    inflight: AtomicU64,
    max_inflight: u64,
    /// `Begin` requests bounced by admission control.
    rejections: AtomicU64,
    /// Last-published streaming-audit counters, per tenant (written by the
    /// daemon thread, read by scrape collectors and [`Server::audit_stats`]).
    audit_stats: Mutex<HashMap<String, StreamStats>>,
    /// Sealing audits triggered by the daemon's auto-seal policy.
    auto_seals: AtomicU64,
    /// Auto-seal thresholds (see [`ServerConfig`]).
    auto_seal_lag: Option<u64>,
    auto_seal_ms: Option<u64>,
    stop: AtomicBool,
}

impl Inner {
    /// Takes an admission slot, or returns the typed rejection (boxed: the
    /// `Response` enum grew wide with `ReadProof` and the rejection is the
    /// cold path).
    fn admit(&self) -> std::result::Result<(), Box<Response>> {
        let mut cur = self.inflight.load(Ordering::Relaxed);
        loop {
            if cur >= self.max_inflight {
                self.rejections.fetch_add(1, Ordering::Relaxed);
                return Err(Box::new(Response::Err {
                    code: ErrorCode::AdmissionRejected,
                    msg: format!("{} transactions in flight (bound {})", cur, self.max_inflight),
                }));
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => cur = actual,
            }
        }
    }

    fn release(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A running server. Dropping it stops the accept loop, shuts every
/// session down, and joins all service threads.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    registry: Arc<Registry>,
    metrics: Option<MetricsServer>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    reaper_thread: Option<std::thread::JoinHandle<()>>,
    audit_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Opens the tenant registry under `config.dir` and starts serving.
    pub fn start(config: ServerConfig, clock: ClockRef) -> Result<Server> {
        let deployment = if config.shards > 1 {
            Deployment::Sharded(Arc::new(ShardedDb::open(
                &config.dir,
                clock,
                config.compliance.clone(),
                config.shards,
            )?))
        } else {
            Deployment::Tenants(TenantRegistry::open(
                &config.dir,
                clock,
                config.compliance.clone(),
            )?)
        };
        let inner = Arc::new(Inner {
            deployment,
            sessions: SessionTable::new(),
            inflight: AtomicU64::new(0),
            max_inflight: config.max_inflight_txns.max(1),
            rejections: AtomicU64::new(0),
            audit_stats: Mutex::new(HashMap::new()),
            auto_seals: AtomicU64::new(0),
            auto_seal_lag: config.auto_seal_lag,
            auto_seal_ms: config.auto_seal_ms,
            stop: AtomicBool::new(false),
        });

        let registry = Arc::new(Registry::new());
        register_metrics(&registry, &inner);
        let metrics = match &config.metrics_addr {
            Some(addr) => Some(MetricsServer::start(addr, registry.clone())?),
            None => None,
        };

        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| Error::io(format!("server: bind {}", config.addr), e))?;
        let addr = listener.local_addr().map_err(|e| Error::io("server: local_addr", e))?;
        listener.set_nonblocking(true).map_err(|e| Error::io("server: nonblocking", e))?;

        let accept_inner = inner.clone();
        let accept_thread = std::thread::Builder::new()
            .name("ccdb-accept".into())
            .spawn(move || {
                while !accept_inner.stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let conn_inner = accept_inner.clone();
                            let _ = std::thread::Builder::new()
                                .name("ccdb-conn".into())
                                .spawn(move || serve_conn(conn_inner, stream));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(StdDuration::from_millis(5));
                        }
                        Err(_) => std::thread::sleep(StdDuration::from_millis(5)),
                    }
                }
            })
            .map_err(|e| Error::io("server: spawn accept", e))?;

        let reaper_inner = inner.clone();
        let (idle, interval) = (config.idle_timeout, config.reap_interval);
        let reaper_thread = std::thread::Builder::new()
            .name("ccdb-reaper".into())
            .spawn(move || {
                while !reaper_inner.stop.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    reaper_inner.sessions.reap_idle(idle);
                }
            })
            .map_err(|e| Error::io("server: spawn reaper", e))?;

        let audit_thread = match config.audit_stream_interval {
            Some(interval) => {
                let daemon_inner = inner.clone();
                let deep_every = config.audit_stream_deep_every.max(1) as u64;
                Some(
                    std::thread::Builder::new()
                        .name("ccdb-audit-stream".into())
                        .spawn(move || {
                            // One StreamAuditor per tenant, created lazily and
                            // re-attached after an error (e.g. a WORM I/O
                            // failure mid-poll leaves the fold poisoned).
                            let mut auditors: HashMap<String, StreamAuditor> = HashMap::new();
                            let mut last_seal: HashMap<String, std::time::Instant> = HashMap::new();
                            let mut round: u64 = 0;
                            while !daemon_inner.stop.load(Ordering::Relaxed) {
                                std::thread::sleep(interval);
                                round += 1;
                                audit_daemon_tick(
                                    &daemon_inner,
                                    &mut auditors,
                                    &mut last_seal,
                                    round.is_multiple_of(deep_every),
                                );
                            }
                        })
                        .map_err(|e| Error::io("server: spawn audit daemon", e))?,
                )
            }
            None => None,
        };

        Ok(Server {
            inner,
            addr,
            registry,
            metrics,
            accept_thread: Some(accept_thread),
            reaper_thread: Some(reaper_thread),
            audit_thread,
        })
    }

    /// The RPC listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics listen address, when enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(|m| m.addr())
    }

    /// The metrics registry (for in-process scraping in tests).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The tenant registry. Panics in sharded mode (`shards > 1`), which
    /// hosts a single [`ShardedDb`] instead — see [`Server::sharded`].
    pub fn tenants(&self) -> &TenantRegistry {
        match &self.inner.deployment {
            Deployment::Tenants(reg) => reg,
            Deployment::Sharded(_) => {
                panic!("sharded deployment has no tenant registry (see Server::sharded)")
            }
        }
    }

    /// The sharded deployment, when the server was started with
    /// `shards > 1`.
    pub fn sharded(&self) -> Option<&Arc<ShardedDb>> {
        match &self.inner.deployment {
            Deployment::Sharded(sdb) => Some(sdb),
            Deployment::Tenants(_) => None,
        }
    }

    /// Sealing audits triggered by the daemon's auto-seal policy.
    pub fn auto_seals(&self) -> u64 {
        self.inner.auto_seals.load(Ordering::Relaxed)
    }

    /// Live session count.
    pub fn session_count(&self) -> usize {
        self.inner.sessions.len()
    }

    /// In-flight transaction count (admission view).
    pub fn inflight_txns(&self) -> u64 {
        self.inner.inflight.load(Ordering::Relaxed)
    }

    /// `Begin` requests bounced by admission control.
    pub fn admission_rejections(&self) -> u64 {
        self.inner.rejections.load(Ordering::Relaxed)
    }

    /// Sessions reaped for idleness.
    pub fn sessions_reaped(&self) -> u64 {
        self.inner.sessions.reaped.load(Ordering::Relaxed)
    }

    /// The streaming-audit daemon's last-published counters, per tenant.
    /// Empty when the daemon is disabled or has not completed a round yet.
    pub fn audit_stats(&self) -> HashMap<String, StreamStats> {
        self.inner.audit_stats.lock().clone()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        self.inner.sessions.shutdown_all();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.reaper_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.audit_thread.take() {
            let _ = t.join();
        }
        // MetricsServer stops in its own Drop.
    }
}

/// Registers the service + per-tenant engine counters on `registry`.
/// Everything here reads lock-free counters (or per-tenant `EngineStats`,
/// itself built from atomics), so scrapes never contend with committers.
fn register_metrics(registry: &Arc<Registry>, inner: &Arc<Inner>) {
    let i = inner.clone();
    registry.collector_gauge("ccdb_active_sessions", "Live RPC sessions.", move || {
        vec![Sample::value(i.sessions.len() as f64)]
    });
    let i = inner.clone();
    registry.collector_gauge(
        "ccdb_inflight_txns",
        "Transactions begun and not yet resolved (admission view).",
        move || vec![Sample::value(i.inflight.load(Ordering::Relaxed) as f64)],
    );
    let i = inner.clone();
    registry.collector_counter(
        "ccdb_admission_rejections_total",
        "Begin requests bounced by admission control.",
        move || vec![Sample::value(i.rejections.load(Ordering::Relaxed) as f64)],
    );
    let i = inner.clone();
    registry.collector_counter(
        "ccdb_sessions_reaped_total",
        "Sessions reaped for idleness.",
        move || vec![Sample::value(i.sessions.reaped.load(Ordering::Relaxed) as f64)],
    );
    let i = inner.clone();
    registry.collector_counter(
        "ccdb_commits_total",
        "Transactions committed, per tenant.",
        move || per_tenant(&i, |db| db.engine().stats().commits as f64),
    );
    let i = inner.clone();
    registry.collector_counter(
        "ccdb_aborts_total",
        "Transactions aborted, per tenant.",
        move || per_tenant(&i, |db| db.engine().stats().aborts as f64),
    );
    let i = inner.clone();
    registry.collector_counter(
        "ccdb_group_commit_batches_total",
        "Group-commit batches flushed (one fsync each), per tenant.",
        move || per_tenant(&i, |db| db.engine().stats().group_commit_batches as f64),
    );
    let i = inner.clone();
    registry.collector_counter(
        "ccdb_fsyncs_saved_total",
        "Fsyncs avoided by group-commit batching, per tenant.",
        move || per_tenant(&i, |db| db.engine().stats().fsyncs_saved as f64),
    );
    let i = inner.clone();
    registry.collector_gauge(
        "ccdb_buffer_hit_rate",
        "Buffer-pool hit rate, per tenant.",
        move || per_tenant(&i, |db| db.engine().stats().buffer_hit_rate),
    );
    let i = inner.clone();
    registry.collector_gauge("ccdb_wal_bytes", "WAL length in bytes, per tenant.", move || {
        per_tenant(&i, |db| db.engine().stats().wal_bytes as f64)
    });
    let i = inner.clone();
    registry.collector_gauge(
        "ccdb_stamp_queue_len",
        "Lazy-timestamping queue depth, per tenant.",
        move || per_tenant(&i, |db| db.engine().stats().stamp_queue_len as f64),
    );
    let i = inner.clone();
    registry.collector_gauge(
        "ccdb_audit_epoch",
        "Completed audit epochs, per tenant.",
        move || per_tenant(&i, |db| db.epoch() as f64),
    );
    let i = inner.clone();
    registry.collector_gauge(
        "ccdb_audit_lag_records",
        "Compliance-log records appended but not yet ingested by the streaming auditor, per tenant.",
        move || per_audit(&i, |s| s.lag_records as f64),
    );
    let i = inner.clone();
    registry.collector_gauge(
        "ccdb_audit_lag_us",
        "Wall-clock µs the streaming auditor's last poll spent draining the log tail, per tenant.",
        move || per_audit(&i, |s| s.last_poll_us as f64),
    );
    let i = inner.clone();
    registry.collector_counter(
        "ccdb_epochs_sealed_total",
        "Epoch rolls observed by the streaming auditor (clean audits under the stream), per tenant.",
        move || per_audit(&i, |s| s.epochs_sealed as f64),
    );
    let i = inner.clone();
    registry.collector_counter(
        "ccdb_tamper_alerts_total",
        "Tamper alerts raised by the streaming auditor, per tenant.",
        move || per_audit(&i, |s| s.tamper_alerts as f64),
    );
    let i = inner.clone();
    registry.collector_counter(
        "ccdb_proof_reads_total",
        "Proof-carrying reads served from the sealed epoch's proof index, per tenant.",
        move || per_tenant(&i, |db| db.proof_stats().reads as f64),
    );
    let i = inner.clone();
    registry.collector_counter(
        "ccdb_proof_index_builds_total",
        "Sealed-epoch proof indexes built (one per seal, one per reopen that serves proofs; more is a rebuild storm), per tenant.",
        move || per_tenant(&i, |db| db.proof_stats().index_builds as f64),
    );
    let i = inner.clone();
    registry.collector_counter(
        "ccdb_auto_seals_total",
        "Sealing audits triggered by the daemon's auto-seal policy.",
        move || vec![Sample::value(i.auto_seals.load(Ordering::Relaxed) as f64)],
    );
    let i = inner.clone();
    registry.collector_counter(
        "ccdb_l_records_total",
        "Compliance-log records appended this epoch, per tenant (audit lag proxy).",
        move || {
            per_tenant(&i, |db| {
                db.plugin().map(|p| p.logger().records_appended() as f64).unwrap_or(0.0)
            })
        },
    );
}

/// One daemon round: poll every tenant's (or shard's) streaming auditor,
/// publish the counters, and apply the auto-seal policy. Databases appear
/// lazily (first round after creation) and an auditor that errors is
/// dropped so the next round re-attaches fresh — re-seeding from the sealed
/// snapshot is always safe, only the incremental fold state is lost.
fn audit_daemon_tick(
    inner: &Inner,
    auditors: &mut HashMap<String, StreamAuditor>,
    last_seal: &mut HashMap<String, std::time::Instant>,
    deep: bool,
) {
    for (name, db) in inner.deployment.dbs() {
        if !auditors.contains_key(&name) {
            match db.stream_auditor() {
                Ok(aud) => {
                    auditors.insert(name.clone(), aud);
                }
                Err(_) => continue, // e.g. no compliance mode configured
            }
        }
        let aud = auditors.get_mut(&name).expect("inserted above");
        let outcome = if deep { aud.poll_deep(&db) } else { aud.poll(&db) };
        let stats = aud.stats();
        match outcome {
            Ok(_alert) => {
                // Alerts are not consumed here: the counters below carry
                // tamper_alerts / violations to the scrape endpoint, and
                // the evidence stays queryable through a real audit.
                inner.audit_stats.lock().insert(name.clone(), stats);
            }
            Err(_) => {
                inner.audit_stats.lock().insert(name.clone(), stats);
                auditors.remove(&name);
                continue;
            }
        }

        // Auto-seal policy: a full sealing audit when the stream's record
        // lag trips the bound, or when too much wall-clock has passed since
        // the last seal — whichever fires first. A failed attempt (e.g.
        // quiesce refused because transactions are open) just retries next
        // round; the epoch roll is observed by the stream auditor like any
        // operator-initiated audit.
        let since = last_seal.entry(name.clone()).or_insert_with(std::time::Instant::now);
        let lag_trip = inner.auto_seal_lag.is_some_and(|bound| stats.lag_records >= bound);
        let time_trip = inner
            .auto_seal_ms
            .is_some_and(|bound| since.elapsed() >= StdDuration::from_millis(bound));
        if (lag_trip || time_trip) && db.audit().is_ok() {
            inner.auto_seals.fetch_add(1, Ordering::Relaxed);
            *since = std::time::Instant::now();
        }
    }
}

fn per_tenant(inner: &Inner, f: impl Fn(&CompliantDb) -> f64) -> Vec<Sample> {
    let label = match &inner.deployment {
        Deployment::Tenants(_) => "tenant",
        Deployment::Sharded(_) => "shard",
    };
    inner
        .deployment
        .dbs()
        .into_iter()
        .map(|(name, db)| Sample::labelled(label, &name, f(&db)))
        .collect()
}

fn per_audit(inner: &Inner, f: impl Fn(&StreamStats) -> f64) -> Vec<Sample> {
    let label = match &inner.deployment {
        Deployment::Tenants(_) => "tenant",
        Deployment::Sharded(_) => "shard",
    };
    inner
        .audit_stats
        .lock()
        .iter()
        .map(|(name, stats)| Sample::labelled(label, name, f(stats)))
        .collect()
}

/// What a session's requests execute against. In sharded mode the session
/// owns its open distributed transactions: the wire handle is the global
/// transaction id, resolved here to the [`DistTxn`] the coordinator needs.
enum SessionDb {
    Plain(Arc<CompliantDb>),
    Sharded { db: Arc<ShardedDb>, open: HashMap<TxnId, DistTxn> },
}

/// Per-connection state once `Hello` has bound a tenant (or, in sharded
/// mode, the deployment).
struct Session {
    id: u64,
    db: SessionDb,
}

/// The connection loop: `Hello` handshake, then request/response until
/// disconnect (clean, error, or reaper-initiated). All cleanup — aborting
/// the session's open transactions, releasing admission slots,
/// deregistering — happens here, in exactly one place.
fn serve_conn(inner: Arc<Inner>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut session: Option<Session> = None;
    // The read stops on clean EOF or a dead socket (peer gone / reaper
    // shutdown) — either way the cleanup below runs.
    while let Ok(Some(frame)) = read_frame(&mut stream) {
        let req = match Request::decode(&frame) {
            Ok(r) => r,
            Err(e) => {
                // Undecodable frame: answer if possible, then drop the
                // connection (framing state is unknown).
                let resp =
                    Response::Err { code: ErrorCode::Invalid, msg: format!("bad request: {e}") };
                let _ = write_frame(&mut stream, &resp.encode());
                break;
            }
        };
        let resp = dispatch(&inner, &mut session, &stream, req);
        if let Some(s) = &session {
            inner.sessions.touch(s.id);
        }
        if write_frame(&mut stream, &resp.encode()).is_err() {
            break;
        }
    }
    // The single cleanup path.
    if let Some(mut s) = session {
        if let Some((_tenant, txns)) = inner.sessions.deregister(s.id) {
            for txn in txns {
                match &mut s.db {
                    SessionDb::Plain(db) => {
                        let _ = db.abort(txn);
                    }
                    SessionDb::Sharded { db, open } => {
                        if let Some(dtx) = open.remove(&txn) {
                            let _ = db.abort(dtx);
                        }
                    }
                }
                inner.release();
            }
        }
    }
}

fn err_of(e: Error) -> Response {
    Response::Err { code: ErrorCode::from_error(&e), msg: e.to_string() }
}

/// A sharded-session request named a transaction handle with no open
/// distributed transaction behind it (e.g. already resolved).
fn stale_handle(txn: TxnId) -> Response {
    Response::Err {
        code: ErrorCode::InvalidTransaction,
        msg: format!("{txn:?} has no open distributed transaction"),
    }
}

/// Maps a `read_proof` result onto the wire (shared by the plain path and
/// the shard-routed path).
fn proof_resp(
    result: Result<(Arc<ccdb_core::SignedHead>, Option<ccdb_core::ProvenRead>)>,
) -> Response {
    match result {
        Ok((head, proven)) => {
            let (value, proof) = match proven {
                Some(p) => (p.value, Some(p.proof_bytes)),
                None => (None, None),
            };
            // The head is shared with the sealed epoch's proof index; the
            // copies here are the ones that go out on the wire.
            Response::ReadProof {
                epoch: head.head.epoch,
                value,
                head: head.head_bytes.clone(),
                sig: head.sig_bytes.clone(),
                pubkey: head.pub_bytes.clone(),
                proof,
            }
        }
        // NotFound covers "no sealed epoch yet" — the client must run
        // (or wait for) one clean audit before proof-carrying reads.
        Err(e) => err_of(e),
    }
}

fn dispatch(
    inner: &Arc<Inner>,
    session: &mut Option<Session>,
    stream: &TcpStream,
    req: Request,
) -> Response {
    // Hello is the only request valid without a session.
    if let Request::Hello { version, tenant } = &req {
        if *version != PROTOCOL_VERSION {
            return Response::Err {
                code: ErrorCode::Invalid,
                msg: format!(
                    "protocol version {version} unsupported (server speaks {PROTOCOL_VERSION})"
                ),
            };
        }
        if session.is_some() {
            return Response::Err {
                code: ErrorCode::Invalid,
                msg: "session already bound".to_string(),
            };
        }
        let db = match &inner.deployment {
            Deployment::Tenants(reg) => match reg.create_or_open(tenant) {
                Ok(db) => SessionDb::Plain(db),
                Err(e) => return err_of(e),
            },
            // One deployment, many sessions: the tenant name selects
            // nothing in sharded mode.
            Deployment::Sharded(sdb) => {
                SessionDb::Sharded { db: sdb.clone(), open: HashMap::new() }
            }
        };
        let reaper_handle = match stream.try_clone() {
            Ok(s) => s,
            Err(e) => return err_of(Error::io("server: clone session socket", e)),
        };
        let id = inner.sessions.register(tenant, reaper_handle);
        *session = Some(Session { id, db });
        return Response::Ok;
    }
    let Some(s) = session.as_mut() else {
        return Response::Err {
            code: ErrorCode::NoSession,
            msg: "Hello required before any other request".to_string(),
        };
    };
    let sid = s.id;

    // Transaction-handle requests must use a handle this session owns:
    // sessions cannot observe or resolve each other's transactions.
    let owns = |txn: TxnId| -> Option<Response> {
        if inner.sessions.owns_txn(sid, txn) {
            None
        } else {
            Some(Response::Err {
                code: ErrorCode::InvalidTransaction,
                msg: format!("{txn:?} is not owned by this session"),
            })
        }
    };

    match req {
        Request::Hello { .. } => unreachable!("handled above"),
        Request::Ping => Response::Ok,
        Request::Begin => {
            if let Err(rejection) = inner.admit() {
                return *rejection;
            }
            match &mut s.db {
                SessionDb::Plain(db) => match db.begin() {
                    Ok(txn) => {
                        inner.sessions.track_txn(sid, txn);
                        Response::TxnBegun { txn }
                    }
                    Err(e) => {
                        inner.release();
                        err_of(e)
                    }
                },
                SessionDb::Sharded { db, open } => {
                    // The wire handle for a distributed transaction is its
                    // global id; shard-local transactions begin lazily as
                    // the session's keys route to shards.
                    let dtx = db.begin();
                    let txn = TxnId(dtx.gtxn());
                    open.insert(txn, dtx);
                    inner.sessions.track_txn(sid, txn);
                    Response::TxnBegun { txn }
                }
            }
        }
        Request::Write { txn, rel, key, value } => owns(txn).unwrap_or_else(|| match &mut s.db {
            SessionDb::Plain(db) => match db.write(txn, rel, &key, &value) {
                Ok(()) => Response::Ok,
                Err(e) => err_of(e),
            },
            SessionDb::Sharded { db, open } => match open.get_mut(&txn) {
                None => stale_handle(txn),
                Some(dtx) => match db.write(dtx, rel, &key, &value) {
                    Ok(()) => Response::Ok,
                    Err(e) => err_of(e),
                },
            },
        }),
        Request::Delete { txn, rel, key } => owns(txn).unwrap_or_else(|| match &mut s.db {
            SessionDb::Plain(db) => match db.delete(txn, rel, &key) {
                Ok(()) => Response::Ok,
                Err(e) => err_of(e),
            },
            SessionDb::Sharded { db, open } => match open.get_mut(&txn) {
                None => stale_handle(txn),
                Some(dtx) => match db.delete(dtx, rel, &key) {
                    Ok(()) => Response::Ok,
                    Err(e) => err_of(e),
                },
            },
        }),
        Request::Read { txn, rel, key } => owns(txn).unwrap_or_else(|| match &mut s.db {
            SessionDb::Plain(db) => match db.read(txn, rel, &key) {
                Ok(value) => Response::Value { value },
                Err(e) => err_of(e),
            },
            SessionDb::Sharded { db, open } => match open.get_mut(&txn) {
                None => stale_handle(txn),
                Some(dtx) => match db.read(dtx, rel, &key) {
                    Ok(value) => Response::Value { value },
                    Err(e) => err_of(e),
                },
            },
        }),
        Request::Commit { txn } => owns(txn).unwrap_or_else(|| {
            // Commit consumes the handle even on failure (the engine
            // removes the transaction state on entry), so the admission
            // slot and ownership entry are released unconditionally.
            let result = match &mut s.db {
                SessionDb::Plain(db) => db.commit(txn),
                SessionDb::Sharded { db, open } => match open.remove(&txn) {
                    None => {
                        Err(Error::Invalid(format!("{txn:?} has no open distributed transaction")))
                    }
                    Some(dtx) => db.commit(dtx),
                },
            };
            inner.sessions.untrack_txn(sid, txn);
            inner.release();
            match result {
                Ok(commit_time) => Response::Committed { commit_time },
                Err(e) => err_of(e),
            }
        }),
        Request::Abort { txn } => owns(txn).unwrap_or_else(|| {
            let result = match &mut s.db {
                SessionDb::Plain(db) => db.abort(txn),
                SessionDb::Sharded { db, open } => match open.remove(&txn) {
                    None => {
                        Err(Error::Invalid(format!("{txn:?} has no open distributed transaction")))
                    }
                    Some(dtx) => db.abort(dtx),
                },
            };
            inner.sessions.untrack_txn(sid, txn);
            inner.release();
            match result {
                Ok(()) => Response::Ok,
                Err(e) => err_of(e),
            }
        }),
        Request::CreateRelation { name, time_split_threshold } => {
            let policy = if time_split_threshold.is_nan() {
                SplitPolicy::KeyOnly
            } else {
                SplitPolicy::TimeSplit { threshold: time_split_threshold }
            };
            match &s.db {
                SessionDb::Plain(db) => match db.engine().rel_id(&name) {
                    Some(rel) => Response::Rel { rel },
                    None => match db.create_relation(&name, policy) {
                        Ok(rel) => Response::Rel { rel },
                        Err(e) => err_of(e),
                    },
                },
                SessionDb::Sharded { db, .. } => match db.rel_id(&name) {
                    Some(rel) => Response::Rel { rel },
                    None => match db.create_relation(&name, policy) {
                        Ok(rel) => Response::Rel { rel },
                        Err(e) => err_of(e),
                    },
                },
            }
        }
        Request::RelId { name } => {
            let rel = match &s.db {
                SessionDb::Plain(db) => db.engine().rel_id(&name),
                SessionDb::Sharded { db, .. } => db.rel_id(&name),
            };
            match rel {
                Some(rel) => Response::Rel { rel },
                None => {
                    Response::Err { code: ErrorCode::NotFound, msg: format!("relation {name:?}") }
                }
            }
        }
        Request::SetRetention { txn, name, period_us } => {
            owns(txn).unwrap_or_else(|| match &s.db {
                SessionDb::Plain(db) => match db.set_retention(txn, &name, Duration(period_us)) {
                    Ok(()) => Response::Ok,
                    Err(e) => err_of(e),
                },
                // Retention is a catalog property of every shard; the
                // broadcast uses shard-local transactions, the session's
                // handle only gates the request.
                SessionDb::Sharded { db, .. } => {
                    match db.set_retention(&name, Duration(period_us)) {
                        Ok(()) => Response::Ok,
                        Err(e) => err_of(e),
                    }
                }
            })
        }
        Request::Audit { serial } => match &s.db {
            SessionDb::Plain(db) => {
                if serial {
                    // Dry-run on one thread: verdict only, no epoch advance
                    // (differential checks against the real audit below).
                    match db.audit_outcome_with(db.audit_config().with_threads(1)) {
                        Ok(out) => Response::AuditDone {
                            clean: out.report.is_clean(),
                            violations: out.report.violations.len() as u32,
                            tuples_final: out.report.stats.tuples_final,
                            records_scanned: out.report.stats.records_scanned,
                        },
                        Err(e) => err_of(e),
                    }
                } else {
                    match db.audit() {
                        Ok(report) => Response::AuditDone {
                            clean: report.is_clean(),
                            violations: report.violations.len() as u32,
                            tuples_final: report.stats.tuples_final,
                            records_scanned: report.stats.records_scanned,
                        },
                        Err(e) => err_of(e),
                    }
                }
            }
            SessionDb::Sharded { db, .. } => {
                if serial {
                    match db.audit_dry(db.shards()[0].audit_config().with_threads(1)) {
                        Ok((outcomes, cross)) => Response::AuditDone {
                            clean: cross.is_empty() && outcomes.iter().all(|o| o.report.is_clean()),
                            violations: (outcomes
                                .iter()
                                .map(|o| o.report.violations.len())
                                .sum::<usize>()
                                + cross.len()) as u32,
                            tuples_final: outcomes
                                .iter()
                                .map(|o| o.report.stats.tuples_final)
                                .sum(),
                            records_scanned: outcomes
                                .iter()
                                .map(|o| o.report.stats.records_scanned)
                                .sum(),
                        },
                        Err(e) => err_of(e),
                    }
                } else {
                    match db.audit() {
                        Ok(dep) => Response::AuditDone {
                            clean: dep.is_clean(),
                            violations: (dep
                                .shard_reports
                                .iter()
                                .map(|r| r.violations.len())
                                .sum::<usize>()
                                + dep.cross_shard.len())
                                as u32,
                            tuples_final: dep
                                .shard_reports
                                .iter()
                                .map(|r| r.stats.tuples_final)
                                .sum(),
                            records_scanned: dep
                                .shard_reports
                                .iter()
                                .map(|r| r.stats.records_scanned)
                                .sum(),
                        },
                        Err(e) => err_of(e),
                    }
                }
            }
        },
        Request::Migrate { rel } => match &s.db {
            SessionDb::Plain(db) => match db.migrate_to_worm(rel) {
                Ok(report) => Response::Migrated { tuples: report.tuples_migrated as u64 },
                Err(e) => err_of(e),
            },
            SessionDb::Sharded { db, .. } => {
                let mut tuples = 0u64;
                let mut failed = None;
                for shard in db.shards() {
                    match shard.migrate_to_worm(rel) {
                        Ok(report) => tuples += report.tuples_migrated as u64,
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    }
                }
                match failed {
                    None => Response::Migrated { tuples },
                    Some(e) => err_of(e),
                }
            }
        },
        Request::ReadVerified { rel, key } => match &s.db {
            SessionDb::Plain(db) => proof_resp(db.read_proof(rel, &key)),
            // Proof-carrying reads route to the shard owning the key; the
            // proof verifies against that shard's signed epoch head.
            SessionDb::Sharded { db, .. } => {
                let shard = &db.shards()[db.map().shard_of(&key)];
                proof_resp(shard.read_proof(rel, &key))
            }
        },
        Request::Stats => match &s.db {
            SessionDb::Plain(db) => {
                let stats = db.engine().stats();
                Response::Stats {
                    commits: stats.commits,
                    aborts: stats.aborts,
                    active_txns: stats.active_txns,
                    group_commit_batches: stats.group_commit_batches,
                    wal_bytes: stats.wal_bytes,
                    epoch: db.epoch(),
                }
            }
            SessionDb::Sharded { db, .. } => {
                // Deployment view: sums across shards, and the *lowest*
                // shard epoch (the deployment has sealed through epoch E
                // only once every shard has).
                let mut commits = 0;
                let mut aborts = 0;
                let mut active_txns = 0;
                let mut group_commit_batches = 0;
                let mut wal_bytes = 0;
                let mut epoch = u64::MAX;
                for shard in db.shards() {
                    let stats = shard.engine().stats();
                    commits += stats.commits;
                    aborts += stats.aborts;
                    active_txns += stats.active_txns;
                    group_commit_batches += stats.group_commit_batches;
                    wal_bytes += stats.wal_bytes;
                    epoch = epoch.min(shard.epoch());
                }
                Response::Stats {
                    commits,
                    aborts,
                    active_txns,
                    group_commit_batches,
                    wal_bytes,
                    epoch,
                }
            }
        },
    }
}
