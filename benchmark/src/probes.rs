//! Unit-cost probes for the per-layer metrics: medians of timed calls the
//! benchmark makes into each layer's public functions, on scratch volumes
//! or on pages sampled from the workload's own database. Only traced runs
//! pay for them.

use std::os::unix::fs::FileExt;
use std::sync::Arc;
use std::time::Instant;

use ccdb_common::{Duration, PageNo, RelId, SplitMix64, Timestamp, TxnId, VirtualClock};
use ccdb_core::{ComplianceLogger, CompliantDb, LogRecord, Mode};
use ccdb_crypto::{sha256, AddHash, HsChain, LamportKeyPair};
use ccdb_rpc::proto::Request;
use ccdb_storage::PAGE_SIZE;
use ccdb_wal::{WalRecord, WalWriter};
use ccdb_worm::WormServer;

use crate::spec::Metrics;
use crate::tpcc::{open_db, preload_kv, run_script};
use crate::trace::{ns_per_span, Tracer};
use crate::util::{fsync_probe, median, time_calls, us_since, Scratch};
use crate::workload::{Args, Checks};

/// Timed calls per cheap probe (fewer where one call is ≥ 1 ms).
const CALLS: usize = 10_000;
/// Rows in a script-probe database (fewer at smoke scale).
fn script_rows(smoke: bool) -> u64 {
    if smoke {
        200
    } else {
        2_000
    }
}

fn put_median(m: &mut Metrics, name: &str, n: usize, f: impl FnMut(usize)) {
    m.put(name, median(&time_calls(n, f)));
}

/// The `rpc` / `server` layers do not run in the embedded workloads.
pub fn embedded_layers_absent(m: &mut Metrics) {
    for name in [
        "rpc.ping_us",
        "rpc.calls_per_txn",
        "server.begin_us",
        "server.read_us",
        "server.write_us",
        "server.commit_us",
        "server.embedded_txn_us",
        "server.admission_rejections",
        "server.audit_lag_records_max",
        "server.audit_lag_us_max",
    ] {
        m.put(name, 0.0);
    }
}

/// The databases and keys the shared probes run against.
pub struct Targets<'a> {
    /// The workload's Regular database.
    pub regular: &'a CompliantDb,
    /// The workload's Hash-on-Read database, with a sealed epoch.
    pub hor: &'a CompliantDb,
    /// Keys present in the sealed epoch.
    pub proof_keys: &'a [(RelId, Vec<u8>)],
    /// The workload's emulated I/O latency, applied to the miss probes.
    pub io_latency_us: u64,
}

/// The probes every executor ends a traced run with: proof costs, the
/// scratch-volume unit costs, fetch costs on the workload's own pages (after
/// which the compliant database must still seal cleanly), and the traced
/// run's own overhead.
pub fn shared_layers(
    args: &Args,
    m: &mut Metrics,
    tr: &mut Tracer,
    checks: &mut Checks,
    on: Targets<'_>,
) {
    proof_costs(m, on.hor, &on.proof_keys[..on.proof_keys.len().min(20)]);
    unit_costs(args, m, tr);
    storage_costs(m, on.regular, on.hor, on.io_latency_us, tr);
    let report = on.hor.audit().expect("post-probe sealing audit");
    checks.require("post_probe_audit_clean", report.is_clean(), || {
        format!("{:?}", report.violations.first())
    });
    m.put("trace.overhead_share", tr.len() as f64 * ns_per_span() / tr.elapsed_ns());
}

/// `CompliantDb::read_proof` and `ccdb_verifier::verify_read`, apart, over
/// `keys` of the sealed epoch.
fn proof_costs(m: &mut Metrics, db: &CompliantDb, keys: &[(RelId, Vec<u8>)]) {
    let (mut build, mut verify, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for (rel, key) in keys {
        let t = Instant::now();
        let Ok((head, Some(proven))) = db.read_proof(*rel, key) else { continue };
        build.push(us_since(t));
        let t = Instant::now();
        let ok = ccdb_verifier::verify_read(
            &head.head_bytes,
            &head.sig_bytes,
            &head.pub_bytes,
            None,
            &proven.proof_bytes,
            rel.0,
            key,
        );
        verify.push(us_since(t));
        assert!(ok.is_ok(), "a probe proof failed to verify");
        let total = head.head_bytes.len() + head.sig_bytes.len() + head.pub_bytes.len();
        bytes.push((total + proven.proof_bytes.len()) as f64);
    }
    m.put("core.read_proof_us", median(&build));
    m.put("verifier.verify_read_us", median(&verify));
    m.put("verifier.proof_bytes", median(&bytes));
}

/// Per-call medians of the short-transaction script on a fresh scratch
/// database: `(begin, read, write, commit, whole txn)` in µs, plus the
/// lazy-timestamping cost per transaction.
struct ScriptCosts {
    begin: f64,
    read: f64,
    write: f64,
    commit: f64,
    txn: f64,
    stamper_per_txn: f64,
}

fn script_costs(
    scratch: &Scratch,
    mode: Mode,
    fsync: bool,
    txns: usize,
    args: &Args,
) -> ScriptCosts {
    let rows = script_rows(args.smoke);
    let dir = scratch.join(&format!("script-{mode:?}-{fsync}"));
    let (db, _clock) = open_db(&dir, mode, 1024, fsync);
    let kv = db
        .create_relation("kv", ccdb_btree::SplitPolicy::KeyOnly)
        .expect("creating the probe relation");
    preload_kv(&db, kv, rows, 100);
    db.engine().run_stamper().expect("draining the stamp queue");
    let mut tr = Tracer::new(true, Instant::now());
    let mut rng = SplitMix64::seed_from_u64(args.seed);
    let mut failed = 0;
    let (whole, commits) = run_script(&db, kv, rows, txns, &mut rng, &mut tr, &mut failed);
    assert_eq!(failed, 0, "script probe transactions failed");
    let t = Instant::now();
    let stamped = db.engine().run_stamper().expect("run_stamper");
    let stamper_per_txn = if stamped == 0 { 0.0 } else { us_since(t) / stamped as f64 };
    ScriptCosts {
        begin: median(&tr.durations_us("script.begin")),
        read: median(&tr.durations_us("script.read")),
        write: median(&tr.durations_us("script.write")),
        commit: median(&commits),
        txn: median(&whole),
        stamper_per_txn,
    }
}

/// The whole script transaction on an in-process database configured like
/// the served one (hash-on-read, fsync on): the service tax is the served
/// `txn_p50_us` minus this.
pub fn embedded_txn_us(args: &Args, txns: usize) -> f64 {
    let scratch = Scratch::new(&args.out, "embedded-txn");
    script_costs(&scratch, Mode::HashOnRead, true, txns, args).txn
}

/// Scratch-volume unit costs of every layer below the executor, and the
/// share of a durable compliant commit the outside-in model cannot name.
fn unit_costs(args: &Args, m: &mut Metrics, tr: &mut Tracer) {
    let span = tr.open("probes.unit_costs", None, 0);
    let scratch = Scratch::new(&args.out, "probes");
    let n = if args.smoke { 200 } else { CALLS };
    let mut rng = SplitMix64::seed_from_u64(args.seed ^ 0x9e37_79b9);
    let mut page = vec![0u8; PAGE_SIZE];
    rng.fill_bytes(&mut page);
    let tuple = &page[..100];

    // crypto
    put_median(m, "crypto.sha256_page_us", n, |_| {
        std::hint::black_box(sha256(std::hint::black_box(&page)));
    });
    let mut chain = HsChain::new();
    put_median(m, "crypto.hs_extend_us", n, |_| chain.extend(std::hint::black_box(tuple)));
    std::hint::black_box(chain.value());
    let mut acc = AddHash::new();
    put_median(m, "crypto.addhash_add_us", n, |_| acc.add(std::hint::black_box(tuple)));
    std::hint::black_box(acc.to_bytes());
    // A Lamport key signs once: one key pair per timed signature.
    let keys: Vec<_> = (0..n.min(50) as u8).map(|i| LamportKeyPair::from_seed(&[i; 32])).collect();
    let mut sigs = Vec::new();
    put_median(m, "crypto.lamport_sign_us", keys.len(), |i| sigs.push(keys[i].sign(tuple)));
    put_median(m, "crypto.lamport_verify_us", keys.len(), |i| {
        assert!(keys[i].public_key().verify(tuple, &sigs[i]));
    });

    // wal
    let wal = WalWriter::open(scratch.join("probe.wal")).expect("opening the probe WAL");
    wal.set_sync(true);
    let rec = WalRecord::Insert {
        txn: TxnId(1),
        rel: RelId(1),
        key: b"k000001".to_vec(),
        end_of_life: false,
        value: tuple.to_vec(),
    };
    put_median(m, "wal.append_us", n, |_| {
        wal.append(&rec).expect("WAL append");
    });
    wal.flush().expect("WAL flush");
    put_median(m, "wal.flush_fsync_us", n.min(500), |_| {
        wal.append(&rec).expect("WAL append");
        wal.flush().expect("WAL flush");
    });
    m.put("machine.fsync_p50_us", median(&fsync_probe(&scratch.0, n.min(500))));

    // worm
    let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(20)));
    let worm = Arc::new(WormServer::open(scratch.join("worm"), clock.clone()).expect("probe WORM"));
    let small = worm.create("probe-256", Timestamp::MAX).expect("WORM create");
    put_median(m, "worm.append_256_us", n.min(5_000), |_| {
        worm.append(&small, &page[..256]).expect("WORM append");
    });
    let big = worm.create("probe-4k", Timestamp::MAX).expect("WORM create");
    let appends_4k = n.min(2_000);
    put_median(m, "worm.append_4k_us", appends_4k, |_| {
        worm.append(&big, &page).expect("WORM append");
    });
    let read_us = median(&time_calls(5, |_| {
        std::hint::black_box(worm.read_all("probe-4k").expect("WORM read_all"));
    }));
    m.put("worm.read_all_mb_per_s", (appends_4k * PAGE_SIZE) as f64 / read_us);

    // core: logger append and the regret-interval tick
    let logger = ComplianceLogger::open(worm.clone(), clock.clone(), Duration::from_secs(1), 0)
        .expect("probe logger");
    let new_tuple = LogRecord::NewTuple { pgno: PageNo(7), rel: RelId(1), cell: tuple.to_vec() };
    put_median(m, "core.l_append_us", n, |_| {
        logger.append(&new_tuple).expect("L append");
    });
    let (db, db_clock) = open_db(&scratch.join("tick"), Mode::LogConsistent, 1024, false);
    let kv = db
        .create_relation("kv", ccdb_btree::SplitPolicy::KeyOnly)
        .expect("creating the tick relation");
    let rows = script_rows(args.smoke);
    preload_kv(&db, kv, rows, 100);
    let mut failed = 0;
    let mut off = Tracer::new(false, Instant::now());
    let ticks: Vec<f64> = (0..n.min(200))
        .map(|_| {
            // Dirty a few pages, then cross into the next regret interval:
            // the tick sweeps them and writes the witness.
            run_script(&db, kv, rows, 5, &mut rng, &mut off, &mut failed);
            db_clock.advance(Duration::from_secs(1));
            let t = Instant::now();
            db.tick().expect("tick");
            us_since(t)
        })
        .collect();
    m.put("core.tick_us", median(&ticks));
    drop(db);

    // rpc codec
    let req = Request::Write {
        txn: TxnId(42),
        rel: RelId(3),
        key: b"k000001".to_vec(),
        value: tuple.to_vec(),
    };
    put_median(m, "rpc.codec_us", n, |_| {
        let bytes = std::hint::black_box(&req).encode();
        std::hint::black_box(Request::decode(&bytes).expect("codec round trip"));
    });

    // engine vs core: the same script on a Regular and a Log-Consistent
    // database, fsync off and on. The differences are the plugin tax and
    // the fsync cost; what is left of a durable compliant commit after
    // both is what the outside-in model cannot attribute (the WORM tail
    // mirror, contention between the two).
    let txns = if args.smoke { 100 } else { 3_000 };
    let engine = script_costs(&scratch, Mode::Regular, false, txns, args);
    let engine_fsync = script_costs(&scratch, Mode::Regular, true, txns, args);
    let core = script_costs(&scratch, Mode::LogConsistent, false, txns, args);
    let core_fsync = script_costs(&scratch, Mode::LogConsistent, true, txns, args);
    m.put("engine.begin_us", engine.begin);
    m.put("engine.read_us", engine.read);
    m.put("engine.write_us", engine.write);
    m.put("engine.commit_us", engine.commit);
    m.put("engine.commit_fsync_us", engine_fsync.commit);
    m.put("engine.stamper_us_per_txn", engine.stamper_per_txn);
    m.put("core.read_us", core.read);
    m.put("core.write_us", core.write);
    m.put("core.commit_us", core.commit);
    m.put("core.commit_fsync_us", core_fsync.commit);
    let named = engine_fsync.commit + (core.commit - engine.commit);
    m.put("trace.commit_unattributed_share", 1.0 - named / core_fsync.commit);
    tr.close(span);
}

/// Buffer-pool fetch costs on the workload's own (quiesced) databases: a
/// hit, a miss on the Regular database (pread, with the workload's emulated
/// I/O latency), a miss on the hash-on-read database (adds the page hash
/// and the `READ` record append), and the raw `pread` of one page.
fn storage_costs(
    m: &mut Metrics,
    regular: &CompliantDb,
    hor: &CompliantDb,
    io_latency_us: u64,
    tr: &mut Tracer,
) {
    let span = tr.open("probes.storage", None, 0);
    // Discarding a page is only safe when it is clean.
    regular.engine().checkpoint().expect("checkpoint before the storage probes");
    hor.engine().checkpoint().expect("checkpoint before the storage probes");
    let miss_us = |db: &CompliantDb| {
        let pool = db.engine().pool();
        let mut pages = pool.buffered_pages();
        pages.sort();
        pages.truncate(256);
        db.set_io_latency_us(io_latency_us);
        let us: Vec<f64> = (0..pages.len() * 4)
            .map(|i| {
                let pgno = pages[i % pages.len()];
                pool.discard(pgno);
                let t = Instant::now();
                std::hint::black_box(pool.fetch(pgno).expect("fetch miss"));
                us_since(t)
            })
            .collect();
        db.set_io_latency_us(0);
        (median(&us), pages)
    };
    let (miss, pages) = miss_us(regular);
    m.put("storage.fetch_miss_us", miss);
    m.put("storage.fetch_miss_hor_us", miss_us(hor).0);
    let pool = regular.engine().pool();
    put_median(m, "storage.fetch_hit_us", CALLS, |i| {
        std::hint::black_box(pool.fetch(pages[i % pages.len()]).expect("fetch hit"));
    });
    let file = std::fs::File::open(regular.engine().db_path()).expect("opening the database file");
    let mut buf = vec![0u8; PAGE_SIZE];
    put_median(m, "machine.pread_page_us", 2_000, |i| {
        let pgno = pages[i % pages.len()].0;
        file.read_exact_at(&mut buf, pgno * PAGE_SIZE as u64).expect("pread");
        std::hint::black_box(&buf);
    });
    tr.close(span);
}
