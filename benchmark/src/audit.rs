//! The audit phase every workload ends with, and the proof-carrying reads
//! served from a sealed epoch: the deferred-verification half of the cost
//! model (Table c), measured over the epoch the workload just executed.

use std::time::Instant;

use ccdb_common::RelId;
use ccdb_core::{AuditConfig, AuditOutcome, AuditStats, CompliantDb, EpochHeadManager};

use crate::trace::Tracer;
use crate::util::{median, us_since};
use crate::workload::Checks;

/// Bytes per "MB of `L`" in the audit rates.
pub const MB: f64 = 1_000_000.0;

/// The auditor seed every benchmark database is opened with.
pub const AUDITOR_SEED: [u8; 32] = [0xB0; 32];

/// What the audit phase measured.
pub struct AuditPhase {
    /// Size of the epoch's `L`, in MB.
    pub l_mb: f64,
    /// Wall seconds of each serial-oracle dry run.
    pub serial_s: Vec<f64>,
    /// Wall seconds of each deployed-config (parallel pipeline) dry run.
    pub deployed_s: Vec<f64>,
    /// Per-field medians of the deployed dry runs' [`AuditStats`].
    pub stats: AuditStats,
    /// Streaming ingest from the start of the epoch to lag 0 (seconds).
    pub stream_poll_s: f64,
    /// The stream's deep verdict over the caught-up state (seconds).
    pub stream_deep_s: f64,
    /// Records the stream ingested.
    pub stream_records: u64,
    /// What sealing adds to an audit (seconds): the wall time of the final
    /// `audit()` minus the audit phases its own stats account for, i.e.
    /// the snapshot write, the signatures and the epoch advance.
    pub seal_s: f64,
}

fn median_stats(runs: &[AuditStats]) -> AuditStats {
    let med = |f: fn(&AuditStats) -> u64| {
        median(&runs.iter().map(|s| f(s) as f64).collect::<Vec<_>>()) as u64
    };
    AuditStats {
        snapshot_us: med(|s| s.snapshot_us),
        log_scan_us: med(|s| s.log_scan_us),
        log_decode_us: med(|s| s.log_decode_us),
        log_replay_us: med(|s| s.log_replay_us),
        log_merge_us: med(|s| s.log_merge_us),
        tree_verify_us: med(|s| s.tree_verify_us),
        completeness_join_us: med(|s| s.completeness_join_us),
        final_state_us: med(|s| s.final_state_us),
        wal_tail_us: med(|s| s.wal_tail_us),
        ..runs[0]
    }
}

fn same_verdict(a: &AuditOutcome, b: &AuditOutcome) -> bool {
    a.report.violations == b.report.violations && a.tuple_hash == b.tuple_hash
}

/// Audits the quiesced database `dry_runs` times with the serial oracle and
/// `dry_runs` times with the deployed configuration (alternating, over the
/// same state), catches a fresh streaming auditor up from the start of the
/// epoch and takes its deep verdict, then seals the epoch. Emulated I/O
/// latency is off: the auditor's scan is priced on the local medium.
pub fn audit_phase(
    db: &CompliantDb,
    dry_runs: usize,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> AuditPhase {
    db.set_io_latency_us(0);
    let phase = tr.open("audit.phase", None, 0);
    let mut serial_s = Vec::new();
    let mut deployed_s = Vec::new();
    let mut deployed_stats = Vec::new();
    let mut reference: Option<AuditOutcome> = None;
    let mut identical = true;
    let mut clean = true;
    for _ in 0..dry_runs.max(1) {
        for (serial, cfg) in [(true, AuditConfig::serial()), (false, db.audit_config())] {
            let name = if serial { "core.audit.dry_serial" } else { "core.audit.dry_deployed" };
            let span = tr.open(name, phase, 0);
            let t = Instant::now();
            let out = db.audit_outcome_with(cfg).expect("audit dry run");
            let secs = t.elapsed().as_secs_f64();
            tr.close(span);
            clean &= out.report.is_clean();
            if serial {
                serial_s.push(secs);
            } else {
                deployed_s.push(secs);
                deployed_stats.push(out.report.stats);
            }
            match &reference {
                Some(r) => identical &= same_verdict(r, &out),
                None => reference = Some(out),
            }
        }
    }
    let reference = reference.expect("at least one dry run");

    let mut stream = db.stream_auditor().expect("attaching a streaming auditor");
    let span = tr.open("core.stream.catchup", phase, 0);
    let t = Instant::now();
    loop {
        stream.poll(db).expect("stream poll");
        if stream.stats().lag_records == 0 {
            break;
        }
    }
    let stream_poll_s = t.elapsed().as_secs_f64();
    tr.close(span);
    let span = tr.open("core.stream.deep", phase, 0);
    let t = Instant::now();
    let verdict = stream.verdict(db).expect("stream verdict");
    let stream_deep_s = t.elapsed().as_secs_f64();
    tr.close(span);
    identical &= same_verdict(&reference, &verdict);
    clean &= verdict.report.is_clean();

    let span = tr.open("core.audit.seal", phase, 0);
    let t = Instant::now();
    let report = db.audit().expect("sealing audit");
    let s = &report.stats;
    let audited_us = s.snapshot_us + s.log_scan_us + s.final_state_us + s.wal_tail_us;
    let seal_s = t.elapsed().as_secs_f64() - audited_us as f64 / 1e6;
    tr.close(span);
    tr.close(phase);
    clean &= report.is_clean();

    checks.require("audit_clean", clean, || format!("{:?}", report.violations.first()));
    checks.require("audit_serial_parallel_stream_identical", identical, String::new);
    let stats = median_stats(&deployed_stats);
    AuditPhase {
        l_mb: stats.log_bytes as f64 / MB,
        serial_s,
        deployed_s,
        stats,
        stream_poll_s,
        stream_deep_s,
        stream_records: stream.stats().records_ingested,
        seal_s,
    }
}

/// Proof-carrying reads against the last sealed epoch, each verified with
/// the standalone verifier against the pinned head fingerprint. Returns the
/// latency (µs) of every read that verified; the others count as failed.
pub fn verified_reads(
    db: &CompliantDb,
    keys: &[(RelId, Vec<u8>)],
    tr: &mut Tracer,
    failed: &mut u64,
) -> Vec<f64> {
    let sealed = db.epoch().checked_sub(1).expect("verified reads need a sealed epoch");
    let fingerprint = EpochHeadManager::new(db.worm().clone(), AUDITOR_SEED).fingerprint(sealed);
    let mut out = Vec::with_capacity(keys.len());
    for (i, (rel, key)) in keys.iter().enumerate() {
        let span = tr.open("read_verified", None, i as u64);
        let t = Instant::now();
        let proof = tr.within("core.read_proof", span, i as u64, || db.read_proof(*rel, key));
        let ok = match proof {
            Ok((head, Some(proven))) => tr.within("verifier.verify_read", span, i as u64, || {
                ccdb_verifier::verify_read(
                    &head.head_bytes,
                    &head.sig_bytes,
                    &head.pub_bytes,
                    Some(&fingerprint),
                    &proven.proof_bytes,
                    rel.0,
                    key,
                )
                .is_ok_and(|o| o.value == proven.value)
            }),
            _ => false,
        };
        let us = us_since(t);
        tr.close(span);
        if ok {
            out.push(us);
        } else {
            *failed += 1;
        }
    }
    out
}
