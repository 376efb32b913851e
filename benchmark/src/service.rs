//! The `service_commit` executor: the served system, writes beside reads.
//! Three in-process servers (Regular, Log-Consistent, +Hash-on-Read) on
//! loopback, fsync on, group commit at its defaults, a real clock, the
//! streaming-audit daemon polling; two client connections each run the
//! same pre-generated operation list against every mode in interleaved
//! blocks. The deployed-mode server then loses everything unflushed,
//! recovers, and is reconciled against the commits the clients saw
//! acknowledged before it is audited.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use ccdb_common::{Duration, RelId, SplitMix64, SystemClock};
use ccdb_core::{ComplianceConfig, CompliantDb, EpochHeadManager, Mode};
use ccdb_crypto::Digest;
use ccdb_rpc::Client;
use ccdb_server::{Server, ServerConfig};
use ccdb_tpcc::gen::nurand;

use crate::audit::{audit_phase, AUDITOR_SEED};
use crate::json::Json;
use crate::probes;
use crate::spec::Metrics;
use crate::tpcc::{kv_key, preload_kv};
use crate::trace::Tracer;
use crate::util::{median, time_calls, us_since, Scratch};
use crate::workload::{
    repeat_setup, span_median, timed, Args, Checks, Measured, Snap, HOR, LC, MODES,
};
use crate::RunOutput;

const TENANT: &str = "bench";
/// Payload size of a row.
const VALUE_LEN: usize = 100;
/// Streaming-audit daemon poll interval (the server has no default; every
/// poll re-reads the whole epoch log, so a short interval on three live
/// servers costs a tenth of a core). Deep (quiescing) polls are left to
/// the audit phase: under load they refuse or stall the committers, which
/// is a policy to price on its own, not noise to fold into commits.
const STREAM_POLL_MS: u64 = 250;

/// Fixed parameters (echoed in the output).
pub struct ServiceParams {
    rows: u64,
    clients: usize,
    /// Transactions per client per mode per block.
    block: usize,
    rounds: usize,
    /// Proof-carrying reads per client, in a phase of their own.
    verified_reads: usize,
    dry_runs: usize,
    setup_reps: usize,
}

impl ServiceParams {
    fn of(args: &Args) -> ServiceParams {
        ServiceParams {
            rows: if args.smoke { 2_000 } else { 10_000 },
            clients: 2,
            block: args.count(200, 20),
            rounds: if args.smoke { 4 } else { 20 },
            verified_reads: args.count(75, 10),
            dry_runs: if args.trace || args.smoke { 1 } else { 3 },
            setup_reps: if args.trace || args.smoke { 1 } else { 3 },
        }
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("executor", "in-process ccdb-server on loopback, three modes in interleaved blocks")
            .set("load_model", "closed loop")
            .set("clients", self.clients)
            .set("preloaded_rows", self.rows)
            .set("row_bytes", VALUE_LEN)
            .set("mix", "70% update (begin, 2 read, 2 write, commit), 30% read-only (begin, 4 read, commit)")
            .set("verified_reads_per_client", self.verified_reads)
            .set("key_choice", "NURand(1023) over the preloaded rows")
            .set("fsync", true)
            .set("group_commit", "engine defaults")
            .set("clock", "SystemClock, regret interval 2s")
            .set("cache_pages", ComplianceConfig::default().cache_pages)
            .set("stream_audit_poll_ms", STREAM_POLL_MS)
            .set("stream_audit_deep_polls", "off during the run; one in the audit phase")
            .set("block_txns_per_client_per_mode", self.block)
            .set("measured_rounds", self.rounds)
            .set("warmup_rounds_in_setup", 1u64)
            .set("audit_dry_runs_per_config", self.dry_runs)
            .set("setup_reps", self.setup_reps);
        o
    }
}

/// One generated client operation.
enum Op {
    /// begin, read a, read b, write a, insert marker, commit.
    Update { a: u64, b: u64 },
    /// begin, 4 reads, commit.
    ReadOnly([u64; 4]),
}

/// The operation list of one client: every mode replays it. The engine has
/// no write-write conflict control (two open transactions writing one key
/// leave its versions out of commit order, which the auditor rightly
/// flags), so a client updates only rows of its own residue class; reads
/// range over all rows.
fn generate_ops(seed: u64, client: usize, clients: usize, n: usize, rows: u64) -> Vec<Op> {
    let mut rng =
        SplitMix64::seed_from_u64(seed.wrapping_add(0x51_7cc1_b727_2220 * (client as u64 + 1)));
    let pick = |rng: &mut SplitMix64| nurand(rng, 1023, 259, 0, rows - 1);
    (0..n)
        .map(|_| match rng.gen_range(0..100u32) {
            0..=69 => {
                let own = pick(&mut rng) / clients as u64 * clients as u64 + client as u64;
                Op::Update { a: own.min(rows - clients as u64 + client as u64), b: pick(&mut rng) }
            }
            _ => Op::ReadOnly([pick(&mut rng), pick(&mut rng), pick(&mut rng), pick(&mut rng)]),
        })
        .collect()
}

fn server_config(dir: &std::path::Path, mode: Mode) -> ServerConfig {
    let compliance = ComplianceConfig {
        mode,
        regret_interval: Duration::from_secs(2),
        auditor_seed: AUDITOR_SEED,
        fsync: true,
        ..ComplianceConfig::default()
    };
    let mut config = ServerConfig::new(dir, compliance);
    config.reap_interval = StdDuration::from_millis(50);
    config.audit_stream_interval = Some(StdDuration::from_millis(STREAM_POLL_MS));
    config.audit_stream_deep_every = u32::MAX;
    config
}

/// One client connection with its place in the operation list.
struct Conn {
    client: Client,
    ops: Arc<Vec<Op>>,
    next: usize,
    id: usize,
}

struct ModeServer {
    mode: Mode,
    server: Server,
    dir: std::path::PathBuf,
    conns: Vec<Conn>,
    rows: RelId,
    markers: RelId,
}

impl ModeServer {
    fn db(&self) -> Arc<CompliantDb> {
        self.server.tenants().tenant(TENANT).expect("the bench tenant is open")
    }
}

struct Deployment {
    servers: Vec<ModeServer>,
    _scratch: Scratch,
}

/// What one client thread measured in one block.
#[derive(Default)]
struct BlockResult {
    txn_us: Vec<f64>,
    commit_us: Vec<f64>,
    acked_markers: Vec<Vec<u8>>,
    committed: u64,
    calls: u64,
    failed: u64,
}

/// Runs `n` operations of `conn`'s list. Latencies are kept only when
/// `record` is set (the deployed mode).
fn run_ops(
    conn: &mut Conn,
    rows: RelId,
    markers: RelId,
    n: usize,
    record: bool,
    tr: &mut Tracer,
) -> BlockResult {
    let mut out = BlockResult::default();
    let value = vec![0x63u8; VALUE_LEN];
    let c = &mut conn.client;
    for i in conn.next..conn.next + n {
        let id = ((conn.id as u64) << 32) | i as u64;
        let t = Instant::now();
        match &conn.ops[i] {
            Op::Update { a, b } => {
                let marker = format!("m{}-{i:08}", conn.id).into_bytes();
                let span = tr.open("txn.update", None, id);
                let result = (|| {
                    let txn = tr.within("server.begin", span, id, || c.begin())?;
                    tr.within("server.read", span, id, || c.read(txn, rows, &kv_key(*a)))?;
                    tr.within("server.read", span, id, || c.read(txn, rows, &kv_key(*b)))?;
                    tr.within("server.write", span, id, || {
                        c.write(txn, rows, &kv_key(*a), &value)
                    })?;
                    tr.within("server.write", span, id, || c.write(txn, markers, &marker, &value))?;
                    let ct = Instant::now();
                    tr.within("server.commit", span, id, || c.commit(txn))?;
                    Ok::<f64, ccdb_common::Error>(us_since(ct))
                })();
                tr.close(span);
                out.calls += 6;
                match result {
                    Ok(commit_us) => {
                        out.committed += 1;
                        if record {
                            out.txn_us.push(us_since(t));
                            out.commit_us.push(commit_us);
                            out.acked_markers.push(marker);
                        }
                    }
                    Err(_) => out.failed += 1,
                }
            }
            Op::ReadOnly(keys) => {
                let span = tr.open("txn.readonly", None, id);
                let result = (|| {
                    let txn = tr.within("server.begin", span, id, || c.begin())?;
                    for k in keys {
                        tr.within("server.read", span, id, || c.read(txn, rows, &kv_key(*k)))?;
                    }
                    tr.within("server.commit", span, id, || c.commit(txn))
                })();
                tr.close(span);
                out.calls += 6;
                match result {
                    Ok(_) => out.committed += 1,
                    Err(_) => out.failed += 1,
                }
            }
        }
    }
    conn.next += n;
    out
}

/// One block: every connection of `ms` runs `n` operations concurrently.
/// With `sample_lag`, a third thread samples the streaming auditor's lag.
fn run_block(
    ms: &mut ModeServer,
    n: usize,
    record: bool,
    tr: &mut Tracer,
    lag: Option<&mut (u64, u64)>,
) -> Vec<BlockResult> {
    let (rows, markers) = (ms.rows, ms.markers);
    let server = &ms.server;
    let done = AtomicBool::new(false);
    let mut tracers: Vec<Tracer> = ms.conns.iter().map(|_| tr.fork()).collect();
    let results = std::thread::scope(|s| {
        let sampler = lag.map(|lag| {
            let done = &done;
            s.spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    for st in server.audit_stats().values() {
                        lag.0 = lag.0.max(st.lag_records);
                        lag.1 = lag.1.max(st.last_poll_us);
                    }
                    std::thread::sleep(StdDuration::from_millis(10));
                }
            })
        });
        let workers: Vec<_> = ms
            .conns
            .iter_mut()
            .zip(tracers.iter_mut())
            .map(|(conn, t)| s.spawn(move || run_ops(conn, rows, markers, n, record, t)))
            .collect();
        let results: Vec<BlockResult> =
            workers.into_iter().map(|w| w.join().expect("client thread")).collect();
        done.store(true, Ordering::SeqCst);
        if let Some(sampler) = sampler {
            sampler.join().expect("lag sampler thread");
        }
        results
    });
    for t in tracers {
        tr.absorb(t);
    }
    results
}

/// Starts the three servers, preloads and seals each tenant (so `L` covers
/// only the measured stream and a sealed epoch exists for proofs), opens
/// the client connections and runs the warm-up block.
fn setup(
    args: &Args,
    p: &ServiceParams,
    ops: &[Arc<Vec<Op>>],
    clock: &Arc<SystemClock>,
    rep: usize,
) -> Deployment {
    let scratch = Scratch::new(&args.out, &format!("service-{rep}"));
    let mut servers = Vec::new();
    for mode in MODES {
        let dir = scratch.join(&format!("{mode:?}"));
        let server =
            Server::start(server_config(&dir, mode), clock.clone()).expect("starting a server");
        let addr = server.addr();
        let mut admin = Client::connect(addr, TENANT).expect("admin connect");
        let rows = admin.create_relation("rows").expect("create rows");
        let markers = admin.create_relation("markers").expect("create markers");
        let db = server.tenants().tenant(TENANT).expect("tenant opened by Hello");
        preload_kv(&db, rows, p.rows, VALUE_LEN);
        if db.plugin().is_some() {
            let report = db.audit().expect("post-load audit");
            assert!(report.is_clean(), "post-load audit: {:?}", report.violations.first());
        } else {
            db.engine().checkpoint().expect("post-load checkpoint");
        }
        let conns = ops
            .iter()
            .enumerate()
            .map(|(id, ops)| Conn {
                client: Client::connect(addr, TENANT).expect("client connect"),
                ops: ops.clone(),
                next: 0,
                id,
            })
            .collect();
        servers.push(ModeServer { mode, server, dir, conns, rows, markers });
    }
    let mut dep = Deployment { servers, _scratch: scratch };
    let mut off = Tracer::new(false, Instant::now());
    for ms in &mut dep.servers {
        run_block(ms, p.block, false, &mut off, None);
    }
    dep
}

/// Proof-carrying reads: every connection of `ms` reads `n` rows of the
/// epoch sealed in set-up over RPC and verifies each bundle client-side
/// against the pinned head fingerprint. Returns the latencies (µs) of the
/// reads that verified and the number that did not.
fn verified_phase(
    ms: &mut ModeServer,
    n: usize,
    seed: u64,
    rows_n: u64,
    tr: &mut Tracer,
) -> (Vec<f64>, u64) {
    let db = ms.db();
    let sealed = db.epoch().checked_sub(1).expect("a sealed epoch exists");
    let fingerprint: Digest =
        EpochHeadManager::new(db.worm().clone(), AUDITOR_SEED).fingerprint(sealed);
    let rows = ms.rows;
    let mut tracers: Vec<Tracer> = ms.conns.iter().map(|_| tr.fork()).collect();
    let results: Vec<(Vec<f64>, u64)> = std::thread::scope(|s| {
        let workers: Vec<_> = ms
            .conns
            .iter_mut()
            .zip(tracers.iter_mut())
            .map(|(conn, tr)| {
                let fingerprint = &fingerprint;
                s.spawn(move || {
                    let mut rng = SplitMix64::seed_from_u64(seed ^ (0xfeed << 8) ^ conn.id as u64);
                    let (mut ok_us, mut failed) = (Vec::with_capacity(n), 0u64);
                    for i in 0..n {
                        let id = ((conn.id as u64) << 32) | i as u64;
                        let key = kv_key(nurand(&mut rng, 1023, 259, 0, rows_n - 1));
                        let span = tr.open("txn.read_verified", None, id);
                        let t = Instant::now();
                        let read = tr.within("server.read_verified", span, id, || {
                            conn.client.read_verified(rows, &key)
                        });
                        let ok = read.is_ok_and(|r| {
                            let Some(proof) = &r.proof else { return false };
                            tr.within("verifier.verify_read", span, id, || {
                                ccdb_verifier::verify_read(
                                    &r.head,
                                    &r.sig,
                                    &r.pubkey,
                                    Some(fingerprint),
                                    proof,
                                    rows.0,
                                    &key,
                                )
                                .is_ok_and(|o| o.value == r.value)
                            })
                        });
                        let us = us_since(t);
                        tr.close(span);
                        if ok {
                            ok_us.push(us);
                        } else {
                            failed += 1;
                        }
                    }
                    (ok_us, failed)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread")).collect()
    });
    for t in tracers {
        tr.absorb(t);
    }
    let failed = results.iter().map(|r| r.1).sum();
    (results.into_iter().flat_map(|r| r.0).collect(), failed)
}

/// Loses everything unflushed on the deployed-mode server, restarts it on
/// the same directory (recovery runs at open) and returns the new server.
fn crash_and_restart(ms: ModeServer, clock: &Arc<SystemClock>) -> (Server, RelId) {
    let ModeServer { server, dir, conns, markers, mode, .. } = ms;
    let db = server.tenants().tenant(TENANT).expect("the bench tenant is open");
    drop(conns);
    drop(server); // joins the service threads; `db` keeps the engine alive
    db.engine().crash();
    if let Some(p) = db.plugin() {
        p.logger().simulate_crash_drop_pending();
    }
    drop(db);
    let server = Server::start(server_config(&dir, mode), clock.clone())
        .expect("restarting the crashed server");
    // Tenants are rediscovered from the WORM journal at start.
    (server, markers)
}

/// Runs the served workload.
pub fn run(args: &Args) -> RunOutput {
    let p = ServiceParams::of(args);
    let origin = Instant::now();
    let mut tr = Tracer::new(args.trace, origin);
    let mut checks = Checks::default();
    // Warm-up block, measured rounds, and the pre-crash tail.
    let per_client = p.block * (p.rounds + 2);
    let ops: Vec<Arc<Vec<Op>>> = (0..p.clients)
        .map(|c| Arc::new(generate_ops(args.seed, c, p.clients, per_client, p.rows)))
        .collect();

    // One clock for the whole run: the in-process "crash" loses volatile
    // state, not the machine's notion of time.
    let clock = Arc::new(SystemClock::new());
    let (mut dep, setup_s) =
        repeat_setup(p.setup_reps, &mut tr, |rep| setup(args, &p, &ops, &clock, rep));
    let (mut attempted, mut failed) = (0u64, 0u64);

    let (read_verified_us, unverified) =
        verified_phase(&mut dep.servers[HOR], p.verified_reads, args.seed, p.rows, &mut tr);
    attempted += (p.verified_reads * p.clients) as u64;
    failed += unverified;
    checks.require("every_read_verified", unverified == 0 && !read_verified_us.is_empty(), || {
        format!("{unverified} proof-carrying reads failed to verify")
    });

    let before = Snap::take(&dep.servers[HOR].db());
    let rejections_before = dep.servers[HOR].server.admission_rejections();
    let mut round_s = vec![[0.0f64; 3]; p.rounds];
    let mut hor = BlockResult::default();
    let mut lag = (0u64, 0u64);
    let mut stamp_queue_max = 0usize;
    for (round, times) in round_s.iter_mut().enumerate() {
        // The mode that goes first rotates, so no mode always follows the
        // same neighbour.
        for mi in (0..MODES.len()).map(|k| (k + round) % MODES.len()) {
            let ms = &mut dep.servers[mi];
            let span = tr.open(["block.regular", "block.lc", "block.hor"][mi], None, round as u64);
            let sample = (mi == HOR).then_some(&mut lag);
            let results =
                timed(&mut times[mi], || run_block(ms, p.block, mi == HOR, &mut tr, sample));
            tr.close(span);
            attempted += (p.block * p.clients) as u64;
            for r in results {
                failed += r.failed;
                if mi == HOR {
                    hor.txn_us.extend(r.txn_us);
                    hor.commit_us.extend(r.commit_us);
                    hor.acked_markers.extend(r.acked_markers);
                    hor.committed += r.committed;
                    hor.calls += r.calls;
                }
            }
            if mi == HOR {
                stamp_queue_max = stamp_queue_max.max(ms.db().engine().stats().stamp_queue_len);
            }
        }
    }
    let after = Snap::take(&dep.servers[HOR].db());
    let rejections = dep.servers[HOR].server.admission_rejections() - rejections_before;

    // The Log-Consistent server ends with a clean sealing audit.
    let lc_report = dep.servers[LC].db().audit().expect("log-consistent sealing audit");
    checks.require("lc_audit_clean", lc_report.is_clean(), || {
        format!("{:?}", lc_report.violations.first())
    });

    // Crash, recover, reconcile: every acknowledged commit's marker row is
    // present exactly once, and nothing else is. The commits the crash
    // catches unflushed come from ONE client after a checkpoint: recovery
    // re-emits STAMP_TRANS for every commit since the last checkpoint in
    // transaction-id order, and when concurrent clients commit in another
    // order than they began, the auditor flags that honest history as
    // CommitTimesNotMonotonic (see README, "Findings").
    let mut deployed = dep.servers.pop().expect("the deployed-mode server");
    deployed.db().engine().checkpoint().expect("checkpoint before the crash tail");
    let mut tail = Tracer::new(false, origin);
    let (rows, markers) = (deployed.rows, deployed.markers);
    let r = run_ops(&mut deployed.conns[0], rows, markers, p.block, true, &mut tail);
    attempted += p.block as u64;
    failed += r.failed;
    hor.acked_markers.extend(r.acked_markers);
    let (server, markers) = crash_and_restart(deployed, &clock);
    let db = server.tenants().tenant(TENANT).expect("tenant rediscovered from WORM");
    let recovered = db.engine().recovery_report().is_some_and(|r| r.was_unclean);
    checks.require("crash_recovery_ran", recovered, || "reopen skipped recovery".into());
    let lost = hor
        .acked_markers
        .iter()
        .filter(|k| db.version_history(markers, k).map_or(0, |h| h.len()) != 1)
        .count();
    checks.require("acked_commits_present_exactly_once", lost == 0, || {
        format!("{lost} of {} acknowledged markers lost or duplicated", hor.acked_markers.len())
    });
    let mut stored = 0usize;
    db.engine()
        .tree(markers)
        .and_then(|t| {
            t.scan_all(&mut |_| {
                stored += 1;
                Ok(())
            })
        })
        .expect("scanning the marker relation");
    let warmup_markers: usize = ops
        .iter()
        .map(|o| o[..p.block].iter().filter(|op| matches!(op, Op::Update { .. })).count())
        .sum();
    checks.require(
        "no_unacknowledged_commits",
        stored == warmup_markers + hor.acked_markers.len(),
        || format!("{stored} markers stored, {} acknowledged", hor.acked_markers.len()),
    );

    let audit = audit_phase(&db, p.dry_runs, &mut tr, &mut checks);
    checks.require("no_failed_operations", failed == 0, || format!("{failed} failed"));

    let measured = Measured {
        setup_s,
        round_s,
        txns: hor.committed,
        txn_us: hor.txn_us,
        commit_us: hor.commit_us,
        read_verified_us,
        snaps: (before, after),
        stamp_queue_max,
        audit,
    };
    let mut metrics = Metrics::default();
    let mut detail = measured.detail();
    detail.set("parameters", p.to_json());
    if args.trace {
        measured.per_layer_counts(&mut metrics);
        for name in [
            "tpcc.neworder_p50_us",
            "tpcc.payment_p50_us",
            "tpcc.orderstatus_p50_us",
            "tpcc.delivery_p50_us",
            "tpcc.stocklevel_p50_us",
        ] {
            metrics.put(name, 0.0); // no TPC-C in this workload
        }
        span_median(&mut metrics, &tr, "server.begin_us", "server.begin");
        span_median(&mut metrics, &tr, "server.read_us", "server.read");
        span_median(&mut metrics, &tr, "server.write_us", "server.write");
        span_median(&mut metrics, &tr, "server.commit_us", "server.commit");
        metrics.put("rpc.calls_per_txn", hor.calls as f64 / measured.txns.max(1) as f64);
        metrics.put("server.admission_rejections", rejections as f64);
        metrics.put("server.audit_lag_records_max", lag.0 as f64);
        metrics.put("server.audit_lag_us_max", lag.1 as f64);
        let mut probe = Client::connect(server.addr(), TENANT).expect("probe connect");
        let pings = time_calls(if args.smoke { 200 } else { 5_000 }, |_| {
            probe.ping().expect("ping");
        });
        metrics.put("rpc.ping_us", median(&pings));
        metrics.put(
            "server.embedded_txn_us",
            probes::embedded_txn_us(args, if args.smoke { 100 } else { 2_000 }),
        );
        let rows = dep.servers[0].rows;
        let proof_keys: Vec<_> = (0..20u64).map(|i| (rows, kv_key(i * 37 % p.rows))).collect();
        probes::shared_layers(
            args,
            &mut metrics,
            &mut tr,
            &mut checks,
            probes::Targets {
                regular: &dep.servers[0].db(),
                hor: &db,
                proof_keys: &proof_keys,
                io_latency_us: 0,
            },
        );
    } else {
        measured.end_to_end(&mut metrics);
    }
    drop(server);
    RunOutput { metrics, detail, checks, attempted, failed, tracer: tr }
}
