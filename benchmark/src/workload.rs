//! What every workload shares: the run's arguments, correctness checks,
//! stats snapshots differenced across the measured phase, and the metric
//! arithmetic that is the same whichever executor produced the samples.

use std::path::PathBuf;
use std::time::Instant;

use ccdb_core::plugin::PluginStats;
use ccdb_core::{CompliantDb, Mode};
use ccdb_engine::EngineStats;
use ccdb_worm::WormStats;

use crate::audit::AuditPhase;
use crate::json::Json;
use crate::spec::Metrics;
use crate::trace::Tracer;
use crate::util::{median, quantile};

/// The three deployments Figure 3 compares, in block order.
pub const MODES: [Mode; 3] = [Mode::Regular, Mode::LogConsistent, Mode::HashOnRead];
/// Index of the deployed mode (hash-page-on-read) in [`MODES`].
pub const HOR: usize = 2;
/// Index of the log-consistent mode in [`MODES`].
pub const LC: usize = 1;

/// `--seconds` the full-scale operation counts are calibrated for on the
/// reference box (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 10.0;

/// One run's arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Length of the measured phase; operation counts scale with it.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Tiny fixed counts (the smoke and determinism tests).
    pub smoke: bool,
    /// Output directory (results, traces, scratch databases).
    pub out: PathBuf,
}

impl Args {
    /// Scales a full-size operation count by `--seconds`, or returns the
    /// smoke count. Counts are a function of the arguments alone, so with
    /// one client every count metric repeats exactly.
    pub fn count(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            ((full as f64 * self.seconds / RUN_SECONDS).round() as usize).max(smoke)
        }
    }
}

/// Correctness checks: a failed check fails the run.
#[derive(Default)]
pub struct Checks(Vec<(String, bool)>);

impl Checks {
    /// Records a check; `detail` is only evaluated on failure.
    pub fn require(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            eprintln!("CHECK FAILED: {name}: {}", detail());
        }
        self.0.push((name.to_string(), ok));
    }

    /// Whether every check passed.
    pub fn all_ok(&self) -> bool {
        self.0.iter().all(|(_, ok)| *ok)
    }

    /// `{name: passed}` for the result document.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        for (name, ok) in &self.0 {
            o.set(name, *ok);
        }
        o
    }
}

/// Public counters of one database, for differencing across a phase.
#[derive(Clone, Copy, Default)]
pub struct Snap {
    engine: EngineStats,
    plugin: PluginStats,
    worm: WormStats,
    l_bytes: u64,
    disk_reads: u64,
    disk_writes: u64,
    key_splits: u64,
    time_splits: u64,
}

impl Snap {
    /// Reads every public counter of `db`.
    pub fn take(db: &CompliantDb) -> Snap {
        let engine = db.engine();
        let (mut key_splits, mut time_splits) = (0, 0);
        for (_, rel) in engine.user_relations() {
            if let Ok(tree) = engine.tree(rel) {
                let s = tree.stats();
                key_splits += s.key_splits;
                time_splits += s.time_splits;
            }
        }
        Snap {
            engine: engine.stats(),
            plugin: db.plugin().map(|p| p.stats()).unwrap_or_default(),
            worm: db.worm().stats(),
            l_bytes: db.plugin().map_or(0, |p| p.logger().end_offset()),
            disk_reads: engine.disk().read_count(),
            disk_writes: engine.disk().write_count(),
            key_splits,
            time_splits,
        }
    }
}

/// Everything a workload's executor hands back for reporting.
pub struct Measured {
    /// Median set-up time over the repeats (seconds).
    pub setup_s: f64,
    /// Measured wall seconds per round and mode (`round_s[round][mode]`),
    /// the same transaction stream in every mode.
    pub round_s: Vec<[f64; 3]>,
    /// Transactions committed per mode in the measured phase.
    pub txns: u64,
    /// Whole-transaction latencies in the deployed mode (µs).
    pub txn_us: Vec<f64>,
    /// `commit` call latencies in the deployed mode (µs).
    pub commit_us: Vec<f64>,
    /// Proof-carrying read latencies incl. verification (µs).
    pub read_verified_us: Vec<f64>,
    /// Deployed-mode counters before and after the measured phase.
    pub snaps: (Snap, Snap),
    /// Largest lazy-timestamping queue seen at a block boundary.
    pub stamp_queue_max: usize,
    /// The audit phase over the deployed-mode database.
    pub audit: AuditPhase,
}

fn per(delta: u64, n: u64) -> f64 {
    delta as f64 / n.max(1) as f64
}

impl Measured {
    /// Total measured seconds of one mode.
    pub fn mode_s(&self, mode: usize) -> f64 {
        self.round_s.iter().map(|r| r[mode]).sum()
    }

    /// The median over rounds of `f(round)`: one disturbed round (a
    /// writeback stall, a neighbour on the core) does not move it.
    fn round_median(&self, f: impl Fn(&[f64; 3]) -> f64) -> f64 {
        median(&self.round_s.iter().map(f).collect::<Vec<_>>())
    }

    /// The end-to-end metrics.
    pub fn end_to_end(&self, m: &mut Metrics) {
        m.put("setup_s", self.setup_s);
        m.put("txn_per_s", self.txns as f64 / self.mode_s(HOR));
        m.put("overhead_lc", self.round_median(|r| r[LC] / r[0]));
        m.put("overhead_hor", self.round_median(|r| r[HOR] / r[0]));
        m.put("txn_p50_us", median(&self.txn_us));
        m.put("txn_p95_us", quantile(&self.txn_us, 0.95));
        m.put("commit_p50_us", median(&self.commit_us));
        m.put("read_verified_p50_us", median(&self.read_verified_us));
        let a = &self.audit;
        m.put("audit_s_per_mb", median(&a.deployed_s) / a.l_mb);
        m.put("audit_serial_s_per_mb", median(&a.serial_s) / a.l_mb);
        m.put("stream_catchup_s_per_mb", (a.stream_poll_s + a.stream_deep_s) / a.l_mb);
        let (before, after) = &self.snaps;
        m.put("l_bytes_per_txn", per(after.l_bytes - before.l_bytes, self.txns));
        m.put("rss_peak_mb", crate::util::rss_peak_mb());
    }

    /// The per-layer metrics that are stats deltas over the measured phase
    /// or fields of the audit phase (the unit-cost probes add the rest).
    pub fn per_layer_counts(&self, m: &mut Metrics) {
        let (b, a) = &self.snaps;
        let n = self.txns;
        let (hits, misses) = (
            a.engine.buffer.hits - b.engine.buffer.hits,
            a.engine.buffer.misses - b.engine.buffer.misses,
        );
        m.put("storage.hit_rate", hits as f64 / (hits + misses).max(1) as f64);
        m.put("storage.misses_per_txn", per(misses, n));
        m.put(
            "storage.evictions_per_txn",
            per(a.engine.buffer.evictions - b.engine.buffer.evictions, n),
        );
        m.put("storage.page_reads_per_txn", per(a.disk_reads - b.disk_reads, n));
        m.put("storage.page_writes_per_txn", per(a.disk_writes - b.disk_writes, n));
        m.put("storage.db_pages", a.engine.db_pages as f64);
        m.put("wal.bytes_per_txn", per(a.engine.wal_bytes - b.engine.wal_bytes, n));
        let batches = a.engine.group_commit_batches - b.engine.group_commit_batches;
        let grouped = a.engine.group_commit_txns - b.engine.group_commit_txns;
        m.put("engine.group_commit_txns_per_batch", per(grouped, batches));
        m.put(
            "engine.fsyncs_saved_share",
            per(a.engine.fsyncs_saved - b.engine.fsyncs_saved, grouped),
        );
        m.put("engine.stamp_queue_len_max", self.stamp_queue_max as f64);
        m.put("btree.key_splits_per_ktxn", 1000.0 * per(a.key_splits - b.key_splits, n));
        m.put("btree.time_splits_per_ktxn", 1000.0 * per(a.time_splits - b.time_splits, n));
        m.put("core.new_tuple_records_per_txn", per(a.plugin.new_tuples - b.plugin.new_tuples, n));
        m.put("core.read_records_per_txn", per(a.plugin.reads_hashed - b.plugin.reads_hashed, n));
        m.put("core.undo_records_per_txn", per(a.plugin.undos - b.plugin.undos, n));
        m.put("core.split_records_per_txn", per(a.plugin.splits - b.plugin.splits, n));
        m.put("worm.appends_per_txn", per(a.worm.appends - b.worm.appends, n));
        m.put("worm.bytes_per_txn", per(a.worm.bytes.saturating_sub(b.worm.bytes), n));

        // Two tails that do not repeat within an end-to-end bound (the
        // proof-carrying read's has outliers, the commit's follows the
        // host's fsync latency from one set of runs to the next) and are
        // reported here instead.
        m.put("txn.commit_p95_us", quantile(&self.commit_us, 0.95));
        m.put("core.read_verified_p90_us", quantile(&self.read_verified_us, 0.90));
        let au = &self.audit;
        let s = &au.stats;
        for (name, v) in [
            ("core.audit.snapshot_us", s.snapshot_us),
            ("core.audit.log_scan_us", s.log_scan_us),
            ("core.audit.log_decode_us", s.log_decode_us),
            ("core.audit.log_replay_us", s.log_replay_us),
            ("core.audit.log_merge_us", s.log_merge_us),
            ("core.audit.tree_verify_us", s.tree_verify_us),
            ("core.audit.completeness_join_us", s.completeness_join_us),
            ("core.audit.final_state_us", s.final_state_us),
            ("core.audit.wal_tail_us", s.wal_tail_us),
            ("core.audit.records_scanned", s.records_scanned),
            ("core.audit.reads_verified", s.reads_verified),
            ("core.audit.tuples_final", s.tuples_final),
        ] {
            m.put(name, v as f64);
        }
        m.put("core.audit.l_mb", au.l_mb);
        m.put("core.audit.seal_s", au.seal_s);
        m.put("core.audit.over_run_ratio", median(&au.deployed_s) / self.mode_s(HOR));
        m.put(
            "core.stream.poll_us_per_record",
            au.stream_poll_s * 1e6 / au.stream_records.max(1) as f64,
        );
        m.put("core.stream.deep_poll_us", au.stream_deep_s * 1e6);
        m.put("mode.regular_s", self.mode_s(0));
        m.put("mode.lc_s", self.mode_s(LC));
        m.put("mode.hor_s", self.mode_s(HOR));
    }

    /// Sample counts and ratio bases for the result document.
    pub fn detail(&self) -> Json {
        let mut samples = Json::obj();
        samples
            .set("txn", self.txn_us.len())
            .set("commit", self.commit_us.len())
            .set("read_verified", self.read_verified_us.len())
            .set("audit_dry_runs_per_config", self.audit.deployed_s.len());
        let rounds = |mode: usize| Json::Arr(self.round_s.iter().map(|r| r[mode].into()).collect());
        let mut bases = Json::obj();
        bases
            .set("mode.regular_s", self.mode_s(0))
            .set("mode.lc_s", self.mode_s(LC))
            .set("mode.hor_s", self.mode_s(HOR))
            .set("round.regular_s", rounds(0))
            .set("round.lc_s", rounds(LC))
            .set("round.hor_s", rounds(HOR))
            .set("txns_per_mode", self.txns)
            .set("l_mb", self.audit.l_mb);
        let mut d = Json::obj();
        d.set("samples", samples).set("bases", bases);
        d
    }
}

/// Sets a deployment up `reps` times, dropping each before the next is
/// built: returns the last one and the median set-up time in seconds.
pub fn repeat_setup<D>(
    reps: usize,
    tr: &mut Tracer,
    mut setup: impl FnMut(usize) -> D,
) -> (D, f64) {
    let mut seconds = Vec::new();
    let mut dep = None;
    for rep in 0..reps.max(1) {
        drop(dep.take());
        let t = Instant::now();
        dep = Some(tr.within("setup", None, 0, || setup(rep)));
        seconds.push(t.elapsed().as_secs_f64());
    }
    (dep.expect("at least one set-up"), median(&seconds))
}

/// Medians of the spans called `span`, as metric `name` (0 without spans).
pub fn span_median(m: &mut Metrics, tr: &Tracer, name: &str, span: &str) {
    m.put(name, median(&tr.durations_us(span)));
}

/// A stopwatch for one mode's share of an interleaved block.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}
