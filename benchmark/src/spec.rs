//! The metric schema: every name this benchmark emits, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names with
//! direction and regression bound; `tests/smoke.rs` asserts the two agree.
//! Every workload reports every metric. A per-layer metric whose layer a
//! workload does not exercise (`tpcc.*` on `service_commit`, `server.*` on
//! the embedded workloads) reads 0.

use crate::json::Json;

/// The four workloads, in suite order.
pub const WORKLOADS: [&str; 4] = ["tpcc_mem", "tpcc_cold", "service_commit", "audit_epoch"];

/// End-to-end metrics (`--trace 0`): `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("txn_per_s", "1/s"),
    ("overhead_lc", "ratio"),
    ("overhead_hor", "ratio"),
    ("txn_p50_us", "us"),
    ("txn_p95_us", "us"),
    ("commit_p50_us", "us"),
    ("read_verified_p50_us", "us"),
    ("audit_s_per_mb", "s/MB"),
    ("audit_serial_s_per_mb", "s/MB"),
    ("stream_catchup_s_per_mb", "s/MB"),
    ("l_bytes_per_txn", "B"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): `(name, unit)`, grouped by crate.
pub const PER_LAYER: &[(&str, &str)] = &[
    // crypto
    ("crypto.sha256_page_us", "us"),
    ("crypto.hs_extend_us", "us"),
    ("crypto.addhash_add_us", "us"),
    ("crypto.lamport_sign_us", "us"),
    ("crypto.lamport_verify_us", "us"),
    // storage
    ("storage.fetch_hit_us", "us"),
    ("storage.fetch_miss_us", "us"),
    ("storage.fetch_miss_hor_us", "us"),
    ("storage.hit_rate", "ratio"),
    ("storage.misses_per_txn", "count"),
    ("storage.evictions_per_txn", "count"),
    ("storage.page_reads_per_txn", "count"),
    ("storage.page_writes_per_txn", "count"),
    ("storage.db_pages", "count"),
    ("machine.pread_page_us", "us"),
    // wal
    ("wal.append_us", "us"),
    ("wal.flush_fsync_us", "us"),
    ("wal.bytes_per_txn", "B"),
    ("machine.fsync_p50_us", "us"),
    // btree / engine
    ("engine.begin_us", "us"),
    ("engine.read_us", "us"),
    ("engine.write_us", "us"),
    ("engine.commit_us", "us"),
    ("engine.commit_fsync_us", "us"),
    ("engine.stamper_us_per_txn", "us"),
    ("engine.group_commit_txns_per_batch", "count"),
    ("engine.fsyncs_saved_share", "ratio"),
    ("engine.stamp_queue_len_max", "count"),
    ("btree.key_splits_per_ktxn", "count"),
    ("btree.time_splits_per_ktxn", "count"),
    // core: plugin + logger
    ("core.read_us", "us"),
    ("core.write_us", "us"),
    ("core.commit_us", "us"),
    ("core.commit_fsync_us", "us"),
    ("core.l_append_us", "us"),
    ("core.tick_us", "us"),
    ("core.new_tuple_records_per_txn", "count"),
    ("core.read_records_per_txn", "count"),
    ("core.undo_records_per_txn", "count"),
    ("core.split_records_per_txn", "count"),
    // core: audit
    ("core.audit.snapshot_us", "us"),
    ("core.audit.log_scan_us", "us"),
    ("core.audit.log_decode_us", "us"),
    ("core.audit.log_replay_us", "us"),
    ("core.audit.log_merge_us", "us"),
    ("core.audit.tree_verify_us", "us"),
    ("core.audit.completeness_join_us", "us"),
    ("core.audit.final_state_us", "us"),
    ("core.audit.wal_tail_us", "us"),
    ("core.audit.records_scanned", "count"),
    ("core.audit.reads_verified", "count"),
    ("core.audit.tuples_final", "count"),
    ("core.audit.l_mb", "MB"),
    ("core.audit.seal_s", "s"),
    ("core.audit.over_run_ratio", "ratio"),
    ("core.stream.poll_us_per_record", "us"),
    ("core.stream.deep_poll_us", "us"),
    // core: proofs, verifier
    ("txn.commit_p95_us", "us"),
    ("core.read_verified_p90_us", "us"),
    ("core.read_proof_us", "us"),
    ("verifier.verify_read_us", "us"),
    ("verifier.proof_bytes", "B"),
    // worm
    ("worm.append_256_us", "us"),
    ("worm.append_4k_us", "us"),
    ("worm.appends_per_txn", "count"),
    ("worm.bytes_per_txn", "B"),
    ("worm.read_all_mb_per_s", "MB/s"),
    // rpc / server
    ("rpc.ping_us", "us"),
    ("rpc.codec_us", "us"),
    ("rpc.calls_per_txn", "count"),
    ("server.begin_us", "us"),
    ("server.read_us", "us"),
    ("server.write_us", "us"),
    ("server.commit_us", "us"),
    ("server.embedded_txn_us", "us"),
    ("server.admission_rejections", "count"),
    ("server.audit_lag_records_max", "count"),
    ("server.audit_lag_us_max", "us"),
    // tpcc
    ("tpcc.neworder_p50_us", "us"),
    ("tpcc.payment_p50_us", "us"),
    ("tpcc.orderstatus_p50_us", "us"),
    ("tpcc.delivery_p50_us", "us"),
    ("tpcc.stocklevel_p50_us", "us"),
    ("mode.regular_s", "s"),
    ("mode.lc_s", "s"),
    ("mode.hor_s", "s"),
    // trace
    ("trace.overhead_share", "ratio"),
    ("trace.commit_unattributed_share", "ratio"),
];

/// Values gathered during a run, emitted in schema order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Records one value (the last write of a name wins).
    pub fn put(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.retain(|(n, _)| n != name);
        self.0.push((name.to_string(), value));
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The contract's `metrics` object for `schema`. A name the run never
    /// produced is a bug in the workload, so it panics rather than emit a
    /// partial document.
    pub fn to_json(&self, schema: &[(&str, &str)]) -> Json {
        let mut out = Json::obj();
        for (name, unit) in schema {
            let value =
                self.get(name).unwrap_or_else(|| panic!("metric {name} was never measured"));
            let mut m = Json::obj();
            m.set("value", value).set("unit", *unit);
            out.set(name, m);
        }
        out
    }
}
