//! The embedded executor behind `tpcc_mem`, `tpcc_cold` and `audit_epoch`:
//! TPC-C's standard mix driven against three databases (Regular,
//! Log-Consistent, +Hash-on-Read) with the *same* seeded transaction stream
//! in interleaved blocks, so machine drift cancels out of the Figure 3
//! ratios; then a short-transaction script, the audit phase, and (traced
//! runs) the unit-cost probes.

use std::sync::Arc;
use std::time::Instant;

use ccdb_btree::SplitPolicy;
use ccdb_common::{Duration, RelId, SplitMix64, VirtualClock};
use ccdb_core::{ComplianceConfig, CompliantDb, Mode};
use ccdb_tpcc::{gen::nurand, rows::key, Driver, Tpcc, TpccScale, TxnKind};

use crate::audit::{audit_phase, verified_reads, AUDITOR_SEED};
use crate::json::Json;
use crate::probes;
use crate::spec::Metrics;
use crate::trace::{SpanId, Tracer};
use crate::util::{median, us_since, Scratch};
use crate::workload::{repeat_setup, timed, Args, Checks, Measured, Snap, HOR, LC, MODES};
use crate::RunOutput;

/// Rows preloaded into the short-transaction relation.
const KV_ROWS: u64 = 2_000;
/// Payload size of a short-transaction row.
const KV_VALUE: usize = 100;

/// Fixed parameters of one embedded workload (echoed in the output).
pub struct TpccParams {
    warehouses: u32,
    cache_pages: usize,
    io_latency_us: u64,
    /// Transactions per mode per block.
    block: usize,
    /// Measured rounds (one block per mode each); one more runs in set-up
    /// as warm-up.
    rounds: usize,
    /// Short transactions (begin, 2 reads, 2 writes, commit) run against
    /// the deployed-mode database after the TPC-C rounds.
    script_txns: usize,
    /// Proof-carrying reads against the epoch sealed in set-up.
    verified_reads: usize,
    /// Audit dry runs per configuration.
    dry_runs: usize,
    /// Give the short-transaction relation a time-split policy, run the
    /// lazy stamper every 50 script transactions (time splits need stamped
    /// versions) and migrate its historical pages to WORM before auditing.
    /// TPC-C's own relations always split by key: under a time-split
    /// policy the auditor flags the honest run (see README, "Findings").
    migrate: bool,
    /// Set-ups per timed run (the median is reported; the last is kept).
    setup_reps: usize,
}

impl TpccParams {
    /// The parameters of `args.workload`.
    pub fn of(args: &Args) -> TpccParams {
        // Repeats steady the end-to-end medians; a traced run reports the
        // per-layer numbers, which carry no bound, and spends the time on
        // the probes instead.
        let quick = args.trace || args.smoke;
        let reps = if quick { 1 } else { 3 };
        match args.workload.as_str() {
            // Figure 3(c): memory-resident, CPU-bound commit path.
            "tpcc_mem" => TpccParams {
                warehouses: 1,
                cache_pages: 16_384,
                io_latency_us: 0,
                block: args.count(250, 20),
                rounds: 8,
                script_txns: args.count(2_000, 60),
                verified_reads: args.count(100, 10),
                dry_runs: if quick { 1 } else { 3 },
                migrate: false,
                setup_reps: reps,
            },
            // Figure 3(a): cache ~5 % of the database, on the emulated filer.
            "tpcc_cold" => TpccParams {
                warehouses: 2,
                cache_pages: 192,
                io_latency_us: 150,
                block: args.count(80, 10),
                rounds: 8,
                script_txns: args.count(1_000, 40),
                verified_reads: args.count(100, 10),
                dry_runs: if quick { 1 } else { 3 },
                migrate: false,
                setup_reps: reps,
            },
            // Table c: a short epoch audited many times, with `READ` records
            // on `L` and WORM-migrated pages.
            "audit_epoch" => TpccParams {
                warehouses: 1,
                cache_pages: 192,
                io_latency_us: 0,
                block: args.count(100, 10),
                rounds: 8,
                script_txns: args.count(1_500, 600),
                verified_reads: args.count(100, 10),
                dry_runs: if quick { 2 } else { 4 },
                migrate: true,
                setup_reps: reps,
            },
            other => panic!("not an embedded workload: {other}"),
        }
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("executor", "embedded TPC-C standard mix, three modes in interleaved blocks")
            .set("load_model", "closed loop, 1 client")
            .set("warehouses", u64::from(self.warehouses))
            .set("cache_pages", self.cache_pages)
            .set("io_latency_us", self.io_latency_us)
            .set("io_model", "spin per pread on the database file; off during audits")
            .set("split_policy", "key-only (TPC-C relations)")
            .set("fsync", false)
            .set("clock", "VirtualClock ticking 20us, regret interval 1s")
            .set("block_txns_per_mode", self.block)
            .set("measured_rounds", self.rounds)
            .set("warmup_rounds_in_setup", 1u64)
            .set("script_txns", self.script_txns)
            .set("verified_reads", self.verified_reads)
            .set("audit_dry_runs_per_config", self.dry_runs)
            .set("kv_time_split_and_migrate", self.migrate)
            .set("setup_reps", self.setup_reps);
        o
    }
}

/// Opens a benchmark database: a virtual clock ticking 20 µs per
/// read and a 1 s regret interval, so the dirty-page sweep fires every few
/// hundred transactions by operation count, not wall time.
pub fn open_db(
    dir: &std::path::Path,
    mode: Mode,
    cache_pages: usize,
    fsync: bool,
) -> (CompliantDb, Arc<VirtualClock>) {
    let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(20)));
    let db = CompliantDb::open(
        dir,
        clock.clone(),
        ComplianceConfig {
            mode,
            regret_interval: Duration::from_secs(1),
            cache_pages,
            auditor_seed: AUDITOR_SEED,
            fsync,
            ..ComplianceConfig::default()
        },
    )
    .expect("opening a benchmark database");
    (db, clock)
}

/// The key of row `i` of a short-transaction relation.
pub fn kv_key(i: u64) -> Vec<u8> {
    format!("k{i:06}").into_bytes()
}

/// Creates `rel` rows `0..rows` of `value_len` bytes in batches of 100.
pub fn preload_kv(db: &CompliantDb, rel: RelId, rows: u64, value_len: usize) {
    let value = vec![0x61u8; value_len];
    for lo in (0..rows).step_by(100) {
        let txn = db.begin().expect("preload begin");
        for i in lo..(lo + 100).min(rows) {
            db.write(txn, rel, &kv_key(i), &value).expect("preload write");
        }
        db.commit(txn).expect("preload commit");
    }
}

struct ModeDb {
    db: CompliantDb,
    driver: Driver,
}

struct Deployment {
    dbs: Vec<ModeDb>,
    tpcc: Tpcc,
    kv: RelId,
    _scratch: Scratch,
}

/// Loads the three databases, seals the load out with a post-load audit
/// (so `L` and the timings cover only the measured stream, and a sealed
/// epoch exists for proofs), and runs the warm-up block.
fn setup(args: &Args, p: &TpccParams, rep: usize) -> Deployment {
    let scratch = Scratch::new(&args.out, &format!("{}-{rep}", args.workload));
    let mut dbs = Vec::new();
    let mut handles = None;
    for mode in MODES {
        let (db, _clock) = open_db(&scratch.join(&format!("{mode:?}")), mode, p.cache_pages, false);
        let scale = if args.smoke { TpccScale::tiny() } else { TpccScale::small(p.warehouses) };
        let tpcc = ccdb_tpcc::load(&db, scale, SplitPolicy::KeyOnly).expect("TPC-C load");
        let kv_policy = if p.migrate {
            SplitPolicy::TimeSplit { threshold: 0.8 }
        } else {
            SplitPolicy::KeyOnly
        };
        let kv = db.create_relation("kv", kv_policy).expect("creating the kv relation");
        preload_kv(&db, kv, KV_ROWS, KV_VALUE);
        if db.plugin().is_some() {
            let report = db.audit().expect("post-load audit");
            assert!(report.is_clean(), "post-load audit: {:?}", report.violations.first());
        } else {
            db.engine().checkpoint().expect("post-load checkpoint");
        }
        db.set_io_latency_us(p.io_latency_us);
        let mut driver = Driver::new(args.seed);
        driver.run(&db, &tpcc, p.block).expect("warm-up block");
        dbs.push(ModeDb { db, driver });
        handles = Some((tpcc, kv));
    }
    let (tpcc, kv) = handles.expect("three modes");
    Deployment { dbs, tpcc, kv, _scratch: scratch }
}

fn kind_span(kind: TxnKind) -> &'static str {
    match kind {
        TxnKind::NewOrder => "tpcc.neworder",
        TxnKind::Payment => "tpcc.payment",
        TxnKind::OrderStatus => "tpcc.orderstatus",
        TxnKind::Delivery => "tpcc.delivery",
        TxnKind::StockLevel => "tpcc.stocklevel",
    }
}

const BLOCK_SPAN: [&str; 3] = ["block.regular", "block.lc", "block.hor"];

/// The short-transaction script: `begin`, two reads, two writes, `commit`
/// over NURand-skewed keys. Returns `(whole txn µs, commit µs)` per
/// transaction; spans name every call.
pub fn run_script(
    db: &CompliantDb,
    kv: RelId,
    rows: u64,
    txns: usize,
    rng: &mut SplitMix64,
    tr: &mut Tracer,
    failed: &mut u64,
) -> (Vec<f64>, Vec<f64>) {
    let value = vec![0x62u8; KV_VALUE];
    let (mut whole, mut commits) = (Vec::with_capacity(txns), Vec::with_capacity(txns));
    for i in 0..txns {
        let id = i as u64 + 1;
        let (k1, k2) = (kv_key(nurand(rng, 255, 7, 0, rows - 1)), kv_key(rng.gen_range(0..rows)));
        let span = tr.open("script.txn", None, id);
        let t = Instant::now();
        let result = (|| {
            let txn = tr.within("script.begin", span, id, || db.begin())?;
            tr.within("script.read", span, id, || db.read(txn, kv, &k1))?;
            tr.within("script.read", span, id, || db.read(txn, kv, &k2))?;
            tr.within("script.write", span, id, || db.write(txn, kv, &k1, &value))?;
            tr.within("script.write", span, id, || db.write(txn, kv, &k2, &value))?;
            let c = Instant::now();
            tr.within("script.commit", span, id, || db.commit(txn))?;
            Ok::<f64, ccdb_common::Error>(us_since(c))
        })();
        tr.close(span);
        match result {
            Ok(commit_us) => {
                whole.push(us_since(t));
                commits.push(commit_us);
            }
            Err(_) => *failed += 1,
        }
    }
    (whole, commits)
}

/// Tuple versions per TPC-C relation, for the cross-mode identity check
/// (the short-transaction relation only changes in the deployed mode).
fn version_counts(db: &CompliantDb) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (name, rel) in db.engine().user_relations().into_iter().filter(|(n, _)| n != "kv") {
        let mut n = 0u64;
        db.engine()
            .tree(rel)
            .and_then(|t| {
                t.scan_all(&mut |_| {
                    n += 1;
                    Ok(())
                })
            })
            .expect("scanning a relation");
        out.push((name, n));
    }
    out.sort();
    out
}

/// Runs one embedded workload.
pub fn run(args: &Args) -> RunOutput {
    let p = TpccParams::of(args);
    let origin = Instant::now();
    let mut tr = Tracer::new(args.trace, origin);
    let mut checks = Checks::default();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Set-up, repeated: the median is the metric, the last one is used.
    let (mut dep, setup_s) = repeat_setup(p.setup_reps, &mut tr, |rep| setup(args, &p, rep));
    let tpcc = dep.tpcc;

    // Proof-carrying reads against the epoch sealed in set-up.
    let mut rng = SplitMix64::seed_from_u64(args.seed ^ 0x5eed_5c21_97b3);
    let proof_keys: Vec<(RelId, Vec<u8>)> = (0..p.verified_reads)
        .map(|i| match i % 3 {
            0 => (dep.kv, kv_key(rng.gen_range(0..KV_ROWS))),
            1 => (tpcc.stock, key(&[1, rng.gen_range(1..=tpcc.scale.items)])),
            _ => {
                (tpcc.customer, key(&[1, 1, rng.gen_range(1..=tpcc.scale.customers_per_district)]))
            }
        })
        .collect();
    let read_verified_us = verified_reads(&dep.dbs[HOR].db, &proof_keys, &mut tr, &mut failed);
    attempted += proof_keys.len() as u64;

    // The measured rounds.
    let before = Snap::take(&dep.dbs[HOR].db);
    let mut round_s = vec![[0.0f64; 3]; p.rounds];
    let mut by_kind: Vec<(TxnKind, f64)> = Vec::new();
    let mut stamp_queue_max = 0usize;
    for (round, times) in round_s.iter_mut().enumerate() {
        // The mode that goes first rotates, so no mode always runs on the
        // caches the previous one left.
        for mi in (0..MODES.len()).map(|k| (k + round) % MODES.len()) {
            let m = &mut dep.dbs[mi];
            let block: SpanId = tr.open(BLOCK_SPAN[mi], None, round as u64);
            timed(&mut times[mi], || {
                for _ in 0..p.block {
                    let span = tr.open("tpcc.txn", block, 0);
                    let t = Instant::now();
                    match m.driver.run_one(&m.db, &tpcc) {
                        Ok(kind) if mi == HOR => {
                            by_kind.push((kind, us_since(t)));
                            tr.rename(span, kind_span(kind));
                        }
                        Ok(kind) => tr.rename(span, kind_span(kind)),
                        Err(_) => failed += 1,
                    }
                    tr.close(span);
                }
            });
            tr.close(block);
            attempted += p.block as u64;
            if mi == HOR {
                stamp_queue_max = stamp_queue_max.max(m.db.engine().stats().stamp_queue_len);
            }
        }
    }
    let after = Snap::take(&dep.dbs[HOR].db);
    let txns = (p.rounds * p.block) as u64;

    // Short transactions in the deployed mode: the commit call alone.
    let hor = &dep.dbs[HOR].db;
    let mut commit_us = Vec::with_capacity(p.script_txns);
    for chunk in 0..p.script_txns.div_ceil(50) {
        let n = 50.min(p.script_txns - chunk * 50);
        commit_us.extend(run_script(hor, dep.kv, KV_ROWS, n, &mut rng, &mut tr, &mut failed).1);
        if p.migrate {
            hor.engine().run_stamper().expect("run_stamper");
        }
    }
    attempted += p.script_txns as u64;

    // Same stream, same outcomes: the three modes must agree on what ran
    // and on what is stored.
    for m in &dep.dbs {
        m.db.set_io_latency_us(0);
    }
    let mix: Vec<String> = dep.dbs.iter().map(|m| format!("{:?}", m.driver.stats())).collect();
    checks.require("modes_same_outcomes", mix.iter().all(|s| *s == mix[0]), || mix.join(" | "));
    let counts: Vec<_> = dep.dbs.iter().map(|m| version_counts(&m.db)).collect();
    checks.require("modes_same_row_counts", counts.iter().all(|c| *c == counts[0]), || {
        format!("{counts:?}")
    });

    if p.migrate {
        let pages = hor.migrate_to_worm(dep.kv).expect("migrate_to_worm").pages_migrated;
        checks.require("migrated_pages_exist", pages > 0, || "0 pages migrated".into());
    }

    // Every compliant database ends with a clean sealing audit.
    let lc_report = dep.dbs[LC].db.audit().expect("log-consistent sealing audit");
    checks.require("lc_audit_clean", lc_report.is_clean(), || {
        format!("{:?}", lc_report.violations.first())
    });
    let audit = audit_phase(&dep.dbs[HOR].db, p.dry_runs, &mut tr, &mut checks);
    checks.require("no_failed_operations", failed == 0, || format!("{failed} failed"));

    let txn_us: Vec<f64> =
        by_kind.iter().filter(|(k, _)| *k == TxnKind::NewOrder).map(|(_, us)| *us).collect();
    let measured = Measured {
        setup_s,
        round_s,
        txns,
        txn_us,
        commit_us,
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
        for (name, kind) in [
            ("tpcc.neworder_p50_us", TxnKind::NewOrder),
            ("tpcc.payment_p50_us", TxnKind::Payment),
            ("tpcc.orderstatus_p50_us", TxnKind::OrderStatus),
            ("tpcc.delivery_p50_us", TxnKind::Delivery),
            ("tpcc.stocklevel_p50_us", TxnKind::StockLevel),
        ] {
            let us: Vec<f64> =
                by_kind.iter().filter(|(k, _)| *k == kind).map(|(_, us)| *us).collect();
            metrics.put(name, median(&us));
        }
        probes::embedded_layers_absent(&mut metrics);
        probes::shared_layers(
            args,
            &mut metrics,
            &mut tr,
            &mut checks,
            probes::Targets {
                regular: &dep.dbs[0].db,
                hor: &dep.dbs[HOR].db,
                proof_keys: &proof_keys,
                io_latency_us: p.io_latency_us,
            },
        );
    } else {
        measured.end_to_end(&mut metrics);
    }
    RunOutput { metrics, detail, checks, attempted, failed, tracer: tr }
}
