//! The streaming auditor: the daemon-facing driver of the audit core.
//!
//! A batch audit ingests the whole epoch log at once. The streaming auditor
//! instead **tails** `L` with bounded lag: it carries one audit state per
//! epoch, each [`StreamAuditor::poll`] ingests only the frames appended
//! since the previous poll, and a typed [`TamperAlert`] is raised as soon as
//! new log-level evidence appears. A [`StreamAuditor::verdict`] quiesces the
//! database, ingests the rest of the tail, and runs the core's finalize —
//! the same call a batch audit ends with — which leaves the carried state
//! untouched, so streaming continues afterwards.
//!
//! What makes an audit resumable at any frame boundary is in the core (see
//! the `state` module): judgments that depend on a status record the stream
//! may not have seen yet are parked there and resolved when the record
//! arrives, or at finalize. This driver adds the epoch follow, the alert
//! bookkeeping, and the lag counters.
//!
//! The differential suite (`tests/audit_stream_diff.rs`) pauses the stream
//! at random points and asserts the verdict, fold hash, and full finding
//! set are byte-identical to cold batch audits at one and several threads.

use std::time::Instant;

use ccdb_common::{Error, Result};

use crate::db::CompliantDb;

use super::state::AuditState;
use super::{AuditOutcome, Auditor, Violation};

/// Evidence surfaced by the streaming auditor: the violations that became
/// visible since the previous alert (shallow polls) or the full dirty
/// finding set (deep polls).
#[derive(Clone, Debug)]
pub struct TamperAlert {
    /// The epoch the evidence belongs to.
    pub epoch: u64,
    /// The newly-visible violations.
    pub violations: Vec<Violation>,
}

/// Streaming-auditor counters (the scrape-endpoint source).
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamStats {
    /// The epoch currently being tailed.
    pub epoch: u64,
    /// Polls performed (this attach).
    pub polls: u64,
    /// Records ingested from `L` in the current epoch.
    pub records_ingested: u64,
    /// Bytes of `L` ingested in the current epoch.
    pub bytes_ingested: u64,
    /// Records appended to `L` but not yet ingested at the last poll.
    pub lag_records: u64,
    /// Wall-clock µs the last poll spent.
    pub last_poll_us: u64,
    /// Epoch rolls observed (audits that sealed cleanly under the stream).
    pub epochs_sealed: u64,
    /// Tamper alerts raised.
    pub tamper_alerts: u64,
    /// Violations currently held against the epoch.
    pub violations: u64,
    /// `READ` hashes verified so far this epoch.
    pub reads_verified: u64,
    /// Snapshot tuples whose re-fold was skipped at seed time thanks to the
    /// sealed replay checkpoint (0 when checkpoints are disabled).
    pub snapshot_prefix_skipped: u64,
}

/// The streaming auditor: one instance tails one tenant's epoch log; the
/// server runs one daemon thread iterating tenants.
pub struct StreamAuditor {
    auditor: Auditor,
    epoch: u64,
    /// The epoch's audit so far; seeded by the first poll after an attach
    /// or an epoch roll.
    state: Option<AuditState>,
    max_batch_records: Option<usize>,
    /// How many of the state's violations have been alerted on.
    alerted: usize,
    last_deep: Option<Vec<Violation>>,
    /// The counters that outlive an epoch; [`StreamAuditor::stats`] fills
    /// in the per-epoch ones from the state.
    counters: StreamStats,
}

impl StreamAuditor {
    /// Attaches a streaming auditor to an epoch of the given auditor's WORM
    /// volume. Seeding from the previous snapshot happens lazily on the
    /// first poll.
    pub fn attach(auditor: Auditor, epoch: u64) -> StreamAuditor {
        StreamAuditor {
            auditor,
            epoch,
            state: None,
            max_batch_records: None,
            alerted: 0,
            last_deep: None,
            counters: StreamStats::default(),
        }
    }

    /// The epoch currently tailed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Caps how many records one poll ingests (the differential suite uses
    /// small caps to stress batch boundaries). `None` = ingest everything
    /// available.
    pub fn set_max_batch_records(&mut self, cap: Option<usize>) {
        self.max_batch_records = cap;
    }

    /// Current counters.
    pub fn stats(&self) -> StreamStats {
        let mut out = StreamStats { epoch: self.epoch, ..self.counters };
        if let Some(st) = &self.state {
            out.records_ingested = st.stats.records_scanned;
            out.bytes_ingested = st.byte_pos;
            out.violations = st.violations.len() as u64;
            out.reads_verified = st.stats.reads_verified;
            out.snapshot_prefix_skipped = st.stats.snapshot_prefix_skipped;
        }
        out
    }

    /// Follows an epoch roll: the new epoch's state is seeded on next use.
    fn follow_epoch(&mut self, db_epoch: u64) {
        if db_epoch != self.epoch {
            // The epoch only advances on a clean audit: the sealed epoch's
            // evidence (none) is settled; restart against the new epoch.
            self.counters.epochs_sealed += db_epoch.saturating_sub(self.epoch);
            self.epoch = db_epoch;
            self.state = None;
            self.alerted = 0;
            self.last_deep = None;
        }
    }

    /// One shallow poll: follow epoch rolls, seed if needed, ingest the new
    /// tail of `L`, and alert on any newly-visible log-level violation.
    /// Never quiesces or reads the engine — safe to run under full load.
    pub fn poll(&mut self, db: &CompliantDb) -> Result<Option<TamperAlert>> {
        let t0 = Instant::now();
        let plugin = db
            .plugin()
            .ok_or_else(|| Error::Invalid("streaming audit requires a compliance mode".into()))?;
        self.follow_epoch(db.epoch());
        let st = self.state.get_or_insert_with(|| AuditState::seed(&self.auditor, self.epoch));
        st.ingest(self.max_batch_records, false);
        let ingested = st.stats.records_scanned;
        let new_evidence = st.violations.get(self.alerted..).unwrap_or_default().to_vec();
        self.counters.polls += 1;
        self.counters.lag_records = plugin.logger().records_appended().saturating_sub(ingested);
        self.counters.last_poll_us = t0.elapsed().as_micros() as u64;
        if new_evidence.is_empty() {
            return Ok(None);
        }
        self.alerted += new_evidence.len();
        self.counters.tamper_alerts += 1;
        Ok(Some(TamperAlert { epoch: self.epoch, violations: new_evidence }))
    }

    /// A deep poll: a shallow poll plus a full [`StreamAuditor::verdict`].
    /// Catches state-level tampering (disk edits the log never mentions)
    /// that only the final-state comparison can see. Alerts when the dirty
    /// finding set changed since the last deep poll.
    pub fn poll_deep(&mut self, db: &CompliantDb) -> Result<Option<TamperAlert>> {
        let shallow = self.poll(db)?;
        let out = self.verdict(db)?;
        if out.report.is_clean() {
            self.last_deep = None;
            return Ok(shallow);
        }
        if self.last_deep.as_ref() == Some(&out.report.violations) {
            return Ok(shallow);
        }
        self.last_deep = Some(out.report.violations.clone());
        self.counters.tamper_alerts += 1;
        self.alerted = self.state.as_ref().map_or(0, |st| st.violations.len());
        Ok(Some(TamperAlert { epoch: self.epoch, violations: out.report.violations }))
    }

    /// Quiesces the database, ingests the rest of the durable tail (caps do
    /// not apply to a verdict), and finalizes — the same finalize a batch
    /// audit ends with, over the carried state, which it leaves intact. The
    /// stream keeps running afterwards; on a clean verdict the caller may
    /// invoke the regular [`CompliantDb::audit`] to seal the epoch (the
    /// stream then follows the roll on its next poll).
    pub fn verdict(&mut self, db: &CompliantDb) -> Result<AuditOutcome> {
        let plugin = db
            .plugin()
            .ok_or_else(|| Error::Invalid("streaming audit requires a compliance mode".into()))?;
        let engine = db.engine();
        engine.quiesce()?;
        plugin.logger().flush()?;
        plugin.tick()?;
        self.follow_epoch(db.epoch());
        let st = self.state.get_or_insert_with(|| AuditState::seed(&self.auditor, self.epoch));
        let t0 = Instant::now();
        st.ingest(None, true);
        // The finalization's own relation reads (holds, retention, WAL-tail
        // probes, tree walks) are trusted self-reads, exactly as in the
        // batch audit path.
        plugin.begin_trusted_reads();
        let out = st.finalize(engine);
        plugin.end_trusted_reads();
        let mut out = out?;
        out.report.stats.audit_lag_us = t0.elapsed().as_micros() as u64;
        Ok(out)
    }
}
