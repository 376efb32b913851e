//! Experiment machinery for regenerating the paper's tables and figures.
//!
//! Everything in Section VII is driven from here (via the `figures` binary):
//!
//! * **Figure 3(a)–(c)** — TPC-C total run time as a function of transaction
//!   count, for Regular vs Log-Consistent vs Log-Consistent+Hash-on-Read, at
//!   three cache-to-database-size ratios.
//! * **Figure 4(a)–(b)** — live vs historic page counts as a function of the
//!   TSB split-threshold, for the STOCK-shaped (skewed, many updates per
//!   tuple) and ORDER_LINE-shaped (uniform, ≤1 update per tuple) workloads.
//! * **Table a** — space overhead: size of `L`, read-hash volume vs cache
//!   size, per-tuple metadata overhead, TSB vs B+-tree page counts.
//! * **Table c** — audit time, split into snapshot / log-scan / final-state
//!   phases, against total execution time.
//!
//! Scaled-down parameters (documented per experiment in `EXPERIMENTS.md`)
//! keep runs laptop-sized; the virtual clock compresses regret intervals so
//! the periodic dirty-page sweep fires realistically often.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use ccdb_btree::SplitPolicy;
use ccdb_common::SplitMix64 as StdRng;
use ccdb_common::{Duration, VirtualClock};
use ccdb_core::{AuditStats, ComplianceConfig, CompliantDb, Mode};
use ccdb_tpcc::{load, Driver, Tpcc, TpccScale};

pub mod campaign;
pub mod microbench;
pub mod torture;

/// Emulated per-I/O latency of the database volume during measured runs
/// (the paper's DB lived on an NFS-mounted NetApp filer; local-disk runs
/// would be CPU-bound and overstate the compliance layer's relative cost).
pub const IO_LATENCY_US: u64 = 150;

/// A scratch directory removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    /// Creates a unique scratch directory.
    pub fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "ccdb-bench-{}-{}-{}",
            std::process::id(),
            tag,
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One Figure 3 measurement point.
#[derive(Clone, Copy, Debug)]
pub struct RunPoint {
    /// Transactions completed so far.
    pub txns: usize,
    /// Cumulative wall-clock seconds.
    pub secs: f64,
}

/// Everything a TPC-C run produces for reporting.
pub struct RunResult {
    /// The mode that ran.
    pub mode: Mode,
    /// The measurement series.
    pub points: Vec<RunPoint>,
    /// Compliance-log bytes on WORM (0 in Regular mode).
    pub log_bytes: u64,
    /// `READ` records emitted (hash-on-read only).
    pub read_records: u64,
    /// `NEW_TUPLE` records emitted.
    pub new_tuple_records: u64,
    /// Buffer-pool misses (physical reads).
    pub buffer_misses: u64,
    /// Pages in the database file.
    pub db_pages: u64,
}

/// Opens a fresh compliant database for benchmarking (fsync off, 1-second
/// virtual regret interval so sweeps fire every few hundred transactions).
pub fn open_db(dir: &TempDir, mode: Mode, cache_pages: usize) -> (CompliantDb, Arc<VirtualClock>) {
    let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(20)));
    let db = CompliantDb::open(
        &dir.0,
        clock.clone(),
        ComplianceConfig {
            mode,
            regret_interval: Duration::from_secs(1),
            cache_pages,
            auditor_seed: [0xB0; 32],
            fsync: false,
            worm_artifact_retention: None,
        },
    )
    .unwrap();
    (db, clock)
}

/// Loads TPC-C and runs `txns` transactions of the standard mix, recording
/// `points` cumulative-time measurements (the Figure 3 series).
pub fn run_tpcc(
    mode: Mode,
    scale: TpccScale,
    cache_pages: usize,
    txns: usize,
    points: usize,
) -> (RunResult, CompliantDb, Tpcc, TempDir) {
    let dir = TempDir::new("tpcc");
    let (db, _clock) = open_db(&dir, mode, cache_pages);
    let t = load(&db, scale, SplitPolicy::KeyOnly).unwrap();
    // The paper measures transactions against a pre-loaded database; close
    // the load out with an audit (epoch rotation) so |L| and the timings
    // below cover only the measured workload. The database file lives on
    // emulated remote storage (the paper's NFS filer).
    if db.plugin().is_some() {
        let report = db.audit().unwrap();
        assert!(
            report.is_clean(),
            "post-load audit: {:?}",
            &report.violations[..report.violations.len().min(3)]
        );
        db.plugin().unwrap().reset_stats();
    } else {
        db.engine().checkpoint().unwrap();
    }
    db.set_io_latency_us(IO_LATENCY_US);
    let mut driver = Driver::new(0xCC);
    let step = (txns / points).max(1);
    let mut series = Vec::new();
    let start = Instant::now();
    let mut done = 0;
    while done < txns {
        let n = step.min(txns - done);
        driver.run(&db, &t, n).unwrap();
        done += n;
        series.push(RunPoint { txns: done, secs: start.elapsed().as_secs_f64() });
    }
    let plugin_stats = db.plugin().map(|p| p.stats()).unwrap_or_default();
    let log_bytes = db.plugin().map(|p| p.logger().end_offset()).unwrap_or(0);
    let engine_stats = db.engine().stats();
    let result = RunResult {
        mode,
        points: series,
        log_bytes,
        read_records: plugin_stats.reads_hashed,
        new_tuple_records: plugin_stats.new_tuples,
        buffer_misses: engine_stats.buffer.misses,
        db_pages: engine_stats.db_pages,
    };
    (result, db, t, dir)
}

/// Runs all three Figure 3 modes at the given configuration.
pub fn fig3(scale: TpccScale, cache_pages: usize, txns: usize, points: usize) -> Vec<RunResult> {
    [Mode::Regular, Mode::LogConsistent, Mode::HashOnRead]
        .into_iter()
        .map(|mode| run_tpcc(mode, scale, cache_pages, txns, points).0)
        .collect()
}

/// A Figure 4 measurement: one split-threshold setting.
#[derive(Clone, Copy, Debug)]
pub struct Fig4Point {
    /// The split-threshold.
    pub threshold: f64,
    /// Live leaf pages at the end of the run.
    pub live_pages: usize,
    /// Historic (time-split, WORM-destined) pages.
    pub historic_pages: usize,
    /// Time splits performed.
    pub time_splits: u64,
    /// Key splits performed.
    pub key_splits: u64,
}

/// Which Figure 4 relation shape to emulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig4Workload {
    /// STOCK: NURand-skewed updates, ~4 updates per tuple on average
    /// (the paper: "400K updates for 100K tuples … highly skewed").
    Stock,
    /// ORDER_LINE: uniform updates, each tuple updated at most once
    /// (the paper: "TPC-C updates the tuples in the ORDER_LINE relation
    /// uniformly, with each tuple being updated at most once").
    OrderLine,
}

/// Runs the Figure 4 workload at one threshold and reports page counts.
/// Row payloads match the corresponding TPC-C relation's row size, so
/// tuples-per-page ratios track the paper's.
pub fn fig4_point(workload: Fig4Workload, threshold: f64, tuples: usize) -> Fig4Point {
    let dir = TempDir::new("fig4");
    let (db, _clock) = open_db(&dir, Mode::Regular, 4096);
    let rel = db.create_relation("target", SplitPolicy::TimeSplit { threshold }).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let row_len = match workload {
        Fig4Workload::Stock => 320,
        Fig4Workload::OrderLine => 70,
    };
    let value = |tag: u32| -> Vec<u8> {
        let mut v = vec![0u8; row_len];
        v[..4].copy_from_slice(&tag.to_le_bytes());
        v
    };
    // Initial load, sequential keys (append pattern leaves ~half-full pages,
    // like the paper's freshly loaded STOCK B+-tree).
    let batch = 100;
    let mut i = 0;
    while i < tuples {
        let txn = db.begin().unwrap();
        for j in i..(i + batch).min(tuples) {
            db.write(txn, rel, format!("{j:08}").as_bytes(), &value(0)).unwrap();
        }
        db.commit(txn).unwrap();
        i += batch;
    }
    db.engine().run_stamper().unwrap();
    // Updates.
    match workload {
        Fig4Workload::Stock => {
            let updates = tuples * 4;
            let mut done = 0;
            while done < updates {
                let n = batch.min(updates - done);
                let txn = db.begin().unwrap();
                for _ in 0..n {
                    let k = ccdb_tpcc::gen::nurand(&mut rng, 8191, 7911, 0, tuples as u64 - 1);
                    db.write(txn, rel, format!("{k:08}").as_bytes(), &value(1)).unwrap();
                }
                db.commit(txn).unwrap();
                db.engine().run_stamper().unwrap();
                done += n;
            }
        }
        Fig4Workload::OrderLine => {
            // The paper's measured ratio: 118 K updates over 100 K tuples —
            // one full uniform pass plus an 18 % second pass (most tuples
            // updated at most once).
            let mut order: Vec<usize> = (0..tuples).collect();
            rng.shuffle(&mut order);
            let extra = tuples * 18 / 100;
            let mut second: Vec<usize> = (0..tuples).collect();
            rng.shuffle(&mut second);
            second.truncate(extra);
            order.extend(second);
            for chunk in order.chunks(batch) {
                let txn = db.begin().unwrap();
                for &k in chunk {
                    db.write(txn, rel, format!("{k:08}").as_bytes(), &value(1)).unwrap();
                }
                db.commit(txn).unwrap();
                db.engine().run_stamper().unwrap();
            }
        }
    }
    let (live, historic, _inner) = db.engine().relation_pages(rel).unwrap();
    let stats = db.engine().tree(rel).unwrap().stats();
    Fig4Point {
        threshold,
        live_pages: live,
        historic_pages: historic,
        time_splits: stats.time_splits,
        key_splits: stats.key_splits,
    }
}

/// The audit-time table: run TPC-C, audit, report phase timings.
pub struct AuditTimings {
    /// Total transaction-execution wall time.
    pub run_secs: f64,
    /// Auditor phase timings.
    pub stats: AuditStats,
    /// Total audit wall time.
    pub audit_secs: f64,
}

/// Runs the audit-time experiment for one mode.
pub fn audit_timings(
    mode: Mode,
    scale: TpccScale,
    cache_pages: usize,
    txns: usize,
) -> AuditTimings {
    let (result, db, _t, _dir) = run_tpcc(mode, scale, cache_pages, txns, 1);
    let run_secs = result.points.last().map(|p| p.secs).unwrap_or(0.0);
    let start = Instant::now();
    let report = db.audit().unwrap();
    assert!(
        report.is_clean(),
        "benchmark audit must be clean: {:?}",
        &report.violations[..report.violations.len().min(3)]
    );
    AuditTimings { run_secs, stats: report.stats, audit_secs: start.elapsed().as_secs_f64() }
}

/// Average encoded TPC-C tuple size across a sample of relations. The fixed
/// per-tuple compliance metadata is 10 bytes (8-byte PGNO per `NEW_TUPLE`
/// record + the 2-byte tuple-order number) — the "space overhead … under
/// 10 %" row reports `10 / avg`.
pub fn per_tuple_overhead(db: &CompliantDb, t: &Tpcc) -> (f64, f64) {
    let mut total = 0usize;
    let mut count = 0usize;
    for rel in [t.stock, t.customer, t.order_line, t.orders] {
        let tree = db.engine().tree(rel).unwrap();
        let mut seen = 0;
        let _ = tree.scan_all(&mut |v| {
            total += v.encode_cell().len();
            count += 1;
            seen += 1;
            if seen > 2000 {
                Err(ccdb_common::Error::Invalid("sample done".into()))
            } else {
                Ok(())
            }
        });
    }
    let avg = total as f64 / count.max(1) as f64;
    (avg, 10.0 / avg * 100.0)
}

/// Deterministic payloads for microbenches: `n` pre-encoded byte strings.
pub fn synthetic_tuples(n: usize) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..n)
        .map(|i| {
            let mut v = vec![0u8; 100 + rng.gen_range(0..64usize)];
            v[..8].copy_from_slice(&(i as u64).to_le_bytes());
            v
        })
        .collect()
}
