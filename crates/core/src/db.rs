//! [`CompliantDb`]: the assembled term-immutable DBMS.
//!
//! Wires together the engine, the compliance plugin, the WORM server, the
//! WAL-tail mirror, and the audit lifecycle, in the three configurations
//! Figure 3 compares:
//!
//! * [`Mode::Regular`] — the engine alone (the "Regular TPC-C" baseline);
//! * [`Mode::LogConsistent`] — the base architecture: compliance log `L`,
//!   WORM WAL tail, snapshots, witness files;
//! * [`Mode::HashOnRead`] — plus the Section V refinement: every page read
//!   from disk is hashed and logged, closing the state-reversion attack and
//!   making the query verification interval "until the next audit".

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ccdb_btree::SplitPolicy;
use ccdb_common::sync::Mutex;
use ccdb_common::{ClockRef, Duration, Error, RelId, Result, Timestamp, TxnId};
use ccdb_engine::{Engine, EngineConfig};
use ccdb_worm::WormServer;

use crate::audit::stream::StreamAuditor;
use crate::audit::{AuditConfig, AuditReport, Auditor};
use crate::logger::ComplianceLogger;
use crate::migrate::{self, MigrationReport};
use crate::plugin::CompliancePlugin;
use crate::proof::{self, EpochHeadManager, ProvenRead, SealedEpoch, SignedHead};
use crate::shred::{self, Hold, Vacuum, VacuumReport, HOLDS_RELATION};
use crate::snapshot::{Snapshot, SnapshotManager};

/// Which architecture variant to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// No compliance machinery (the baseline).
    Regular,
    /// The log-consistent architecture.
    LogConsistent,
    /// Log-consistent plus hash-page-on-read.
    HashOnRead,
}

/// Configuration for a compliant database.
#[derive(Clone, Debug)]
pub struct ComplianceConfig {
    /// Architecture variant.
    pub mode: Mode,
    /// The regret interval (threat-model parameter; "for financial records
    /// under SOX compliance, we can assume an interval of, say, 5 minutes").
    pub regret_interval: Duration,
    /// Buffer-pool capacity in pages.
    pub cache_pages: usize,
    /// The auditor's master seed (snapshot signing lineage).
    pub auditor_seed: [u8; 32],
    /// Whether the WAL fsyncs on flush (benchmarks disable).
    pub fsync: bool,
    /// Retention horizon stamped on WORM compliance artifacts (epoch logs,
    /// witnesses, snapshots, WAL tails). `None` = indefinite. The
    /// architecture only *needs* artifacts to survive until the audit after
    /// next — "each snapshot can expire and be deleted from WORM once the
    /// next snapshot is in place" — so a horizon of a few audit periods
    /// keeps WORM usage bounded.
    pub worm_artifact_retention: Option<Duration>,
}

impl Default for ComplianceConfig {
    fn default() -> Self {
        ComplianceConfig {
            mode: Mode::HashOnRead,
            regret_interval: Duration::from_mins(5),
            cache_pages: 1024,
            auditor_seed: [0x42; 32],
            fsync: true,
            worm_artifact_retention: None,
        }
    }
}

pub use crate::logger::waltail_name;

/// A claim ticket for the query-verification interval: a read performed in
/// epoch `E` is verified once epoch `E`'s audit passes (i.e. the database
/// has advanced past it with a clean report).
#[derive(Clone, Copy, Debug)]
pub struct VerificationTicket {
    epoch: u64,
    mode: Mode,
}

impl VerificationTicket {
    /// The epoch the read executed in.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the read is now verified: its epoch has been audited cleanly
    /// and the database runs hash-page-on-read (the base architecture gives
    /// an infinite query-verification interval).
    pub fn is_verified(&self, db: &CompliantDb) -> bool {
        self.mode == Mode::HashOnRead && db.epoch() > self.epoch
    }
}

/// Proof-carrying read counters (the scrape-endpoint source).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProofStats {
    /// Proof-carrying reads served.
    pub reads: u64,
    /// Sealed-epoch proof indexes built: one per seal, plus one per reopen
    /// that goes on to serve proof reads. Anything more is a rebuild storm.
    pub index_builds: u64,
}

/// The assembled compliant DBMS.
pub struct CompliantDb {
    dir: PathBuf,
    clock: ClockRef,
    config: ComplianceConfig,
    worm: Arc<WormServer>,
    engine: Engine,
    plugin: Option<Arc<CompliancePlugin>>,
    epoch: Mutex<u64>,
    last_tick_interval: Mutex<u64>,
    /// The last sealed epoch's proof index. Locked before `epoch` wherever
    /// both are held, so a reader never pairs one epoch's number with
    /// another's index.
    sealed: Mutex<Option<Arc<SealedEpoch>>>,
    proof_reads: AtomicU64,
    proof_index_builds: AtomicU64,
}

impl CompliantDb {
    /// Opens (or creates) a compliant database under `dir`. Layout:
    /// `dir/engine` holds the conventional-media files the adversary can
    /// edit; `dir/worm` is the WORM volume.
    pub fn open(
        dir: impl AsRef<Path>,
        clock: ClockRef,
        config: ComplianceConfig,
    ) -> Result<CompliantDb> {
        let dir = dir.as_ref().to_path_buf();
        let worm = Arc::new(WormServer::open(dir.join("worm"), clock.clone())?);
        Self::open_with_worm(dir, clock, config, worm)
    }

    /// Opens a compliant database whose conventional-media files live under
    /// `dir/engine` but whose compliance artifacts go to the caller-supplied
    /// WORM server — typically a [`WormServer::namespace`] view of a volume
    /// shared by many tenants, so one physically-WORM device (one sequence
    /// number space, one metadata journal) serves the whole deployment while
    /// each tenant's logs, witnesses, and snapshots stay under its own
    /// prefix.
    pub fn open_with_worm(
        dir: impl AsRef<Path>,
        clock: ClockRef,
        config: ComplianceConfig,
        worm: Arc<WormServer>,
    ) -> Result<CompliantDb> {
        let dir = dir.as_ref().to_path_buf();
        // Current epoch = number of *completed* audits: epochs whose
        // snapshot (body + signature + public key) is fully written and
        // sealed. A crash while the snapshot was being written leaves a
        // partial generation; that epoch's audit never finished, so the
        // reopened database stays in it and re-audits.
        let epoch = {
            let mut e = 0u64;
            while crate::snapshot::snapshot_complete(&worm, e) {
                e += 1;
            }
            e
        };
        let mut ecfg = EngineConfig::new(dir.join("engine"), config.cache_pages);
        ecfg.fsync = config.fsync;
        let (engine, plugin) = match config.mode {
            Mode::Regular => (Engine::open(ecfg, clock.clone())?, None),
            _ => {
                let logger = Arc::new(ComplianceLogger::open(
                    worm.clone(),
                    clock.clone(),
                    config.regret_interval,
                    epoch,
                )?);
                if let Some(d) = config.worm_artifact_retention {
                    logger.set_artifact_retention(d);
                }
                let disk = Engine::open_disk(&ecfg)?;
                let plugin = CompliancePlugin::new(
                    disk.clone(),
                    logger,
                    clock.clone(),
                    config.mode == Mode::HashOnRead,
                );
                let engine = Engine::open_with_store(
                    ecfg,
                    clock.clone(),
                    disk,
                    plugin.clone(),
                    Some(plugin.clone()),
                    Some(plugin.clone()),
                )?;
                // Keep the WAL tail on WORM for the current epoch.
                let tail_name = waltail_name(epoch);
                if !worm.exists(&tail_name) {
                    worm.create(&tail_name, Timestamp::MAX)?;
                }
                let tail = worm.handle(&tail_name)?;
                let worm_for_tail = worm.clone();
                engine.wal().set_tail_mirror(Arc::new(move |_lsn, bytes: &[u8]| {
                    worm_for_tail
                        .append(&tail, bytes)
                        .map_err(|e| Error::ComplianceHalt(format!("WAL tail mirror: {e}")))
                }));
                // Unfinished shreds from a crash are completed now.
                if engine.recovery_report().map(|r| r.was_unclean).unwrap_or(false) {
                    let log_bytes =
                        worm.read_all(&crate::logger::epoch_log_name(epoch)).unwrap_or_default();
                    Vacuum::revacuum(&engine, &plugin, &log_bytes)?;
                }
                (engine, Some(plugin))
            }
        };
        let db = CompliantDb {
            dir,
            clock,
            config,
            worm,
            engine,
            plugin,
            epoch: Mutex::new(epoch),
            last_tick_interval: Mutex::new(u64::MAX),
            sealed: Mutex::new(None),
            proof_reads: AtomicU64::new(0),
            proof_index_builds: AtomicU64::new(0),
        };
        if db.engine.rel_id(HOLDS_RELATION).is_none() {
            db.engine.create_relation(HOLDS_RELATION, SplitPolicy::KeyOnly)?;
        }
        db.tick()?; // witness + heartbeat for the startup interval
        Ok(db)
    }

    /// The underlying engine (full transactional API).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The WORM server.
    pub fn worm(&self) -> &Arc<WormServer> {
        &self.worm
    }

    /// The compliance plugin (None in [`Mode::Regular`]).
    pub fn plugin(&self) -> Option<&Arc<CompliancePlugin>> {
        self.plugin.as_ref()
    }

    /// The running mode.
    pub fn mode(&self) -> Mode {
        self.config.mode
    }

    /// The current audit epoch.
    pub fn epoch(&self) -> u64 {
        *self.epoch.lock()
    }

    // --- transactional passthroughs -------------------------------------

    /// Creates a relation.
    pub fn create_relation(&self, name: &str, policy: SplitPolicy) -> Result<RelId> {
        self.engine.create_relation(name, policy)
    }

    /// Begins a transaction.
    pub fn begin(&self) -> Result<TxnId> {
        self.engine.begin()
    }

    /// Writes a tuple version.
    pub fn write(&self, txn: TxnId, rel: RelId, key: &[u8], value: &[u8]) -> Result<()> {
        self.engine.write(txn, rel, key, value)
    }

    /// Deletes a tuple (end-of-life version).
    pub fn delete(&self, txn: TxnId, rel: RelId, key: &[u8]) -> Result<()> {
        self.engine.delete(txn, rel, key)
    }

    /// Reads the current value.
    pub fn read(&self, txn: TxnId, rel: RelId, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.engine.read(txn, rel, key)
    }

    /// Reads the current value and returns a [`VerificationTicket`] — the
    /// paper's **query verification interval** made concrete: the read is
    /// *verified* (guaranteed to have seen untampered pages) once the audit
    /// for the epoch it ran in has passed cleanly. Only meaningful under
    /// [`Mode::HashOnRead`]; under the base architecture the interval is
    /// infinite and the ticket never verifies.
    pub fn read_verifiable(
        &self,
        txn: TxnId,
        rel: RelId,
        key: &[u8],
    ) -> Result<(Option<Vec<u8>>, VerificationTicket)> {
        let value = self.engine.read(txn, rel, key)?;
        Ok((value, VerificationTicket { epoch: *self.epoch.lock(), mode: self.config.mode }))
    }

    /// Commits, then performs regret-interval housekeeping if due.
    pub fn commit(&self, txn: TxnId) -> Result<Timestamp> {
        let t = self.engine.commit(txn)?;
        self.tick()?;
        Ok(t)
    }

    /// Aborts.
    pub fn abort(&self, txn: TxnId) -> Result<()> {
        self.engine.abort(txn)?;
        self.tick()
    }

    // --- cross-shard 2PC participant surface ------------------------------

    /// Prepares `txn` as a participant in a cross-shard 2PC transaction:
    /// durably records the prepared state in the WAL, after which the
    /// transaction may no longer write and survives a crash as in-doubt.
    /// The coordinator follows up with a `2PC_PREPARE` record on `L`
    /// ([`CompliantDb::log_2pc`]), a `2PC_DECISION` on every participant,
    /// and finally the local [`CompliantDb::commit`] / [`CompliantDb::abort`].
    pub fn prepare(&self, txn: TxnId) -> Result<()> {
        self.engine.prepare(txn)
    }

    /// Appends (and flushes) a 2PC coordination record to this database's
    /// compliance log, returning its offset. The records are part of the
    /// audited history: the auditor enforces that every prepare has a
    /// matching decision that agrees with the participant's actual outcome.
    pub fn log_2pc(&self, rec: &crate::records::LogRecord) -> Result<u64> {
        let plugin = self
            .plugin
            .as_ref()
            .ok_or_else(|| Error::Invalid("2PC records require a compliance mode".into()))?;
        plugin.logger().append_flush(rec)
    }

    /// Transactions prepared for 2PC but undecided — populated by crash
    /// recovery, drained by the coordinator's resolution pass.
    pub fn indoubt_txns(&self) -> Vec<TxnId> {
        self.engine.indoubt_txns()
    }

    /// Temporal read, including WORM-migrated history.
    pub fn read_as_of(&self, rel: RelId, key: &[u8], t: Timestamp) -> Result<Option<Vec<u8>>> {
        // Conventional media + on-disk historical pages first.
        if let Some(val) = self.engine.read_as_of(rel, key, t)? {
            return Ok(Some(val));
        }
        // Fall back to WORM-migrated pages: collect candidate versions.
        let mut best: Option<(Timestamp, bool, Vec<u8>)> = None;
        for (name, _) in self.worm.list(&format!("hist/rel{}-", rel.0)) {
            if self.worm.exists(&crate::migrate::retired_marker_name(&name)) {
                continue; // re-migrated back to conventional media
            }
            let bytes = self.worm.read_all(&name)?;
            let mp = crate::migrate::MigratedPage::decode(&bytes)?;
            for cell in &mp.cells {
                let v = ccdb_storage::TupleVersion::decode_cell(cell)?;
                if v.key != key {
                    continue;
                }
                if let Some(ct) = v.time.committed() {
                    if ct <= t && best.as_ref().map(|(bt, _, _)| ct > *bt).unwrap_or(true) {
                        best = Some((ct, v.end_of_life, v.value.clone()));
                    }
                }
            }
        }
        // The engine answer (None) may have been "deleted as of t" or
        // "no version ≤ t on conventional media"; a *newer* conventional
        // version bounds what WORM history may answer. For simplicity the
        // migrated answer is used only when it is the latest version ≤ t
        // overall, which holds because migration only moves versions older
        // than everything live.
        Ok(best.and_then(|(_, eol, val)| if eol { None } else { Some(val) }))
    }

    /// The complete version history of `(rel, key)` — live tree, on-disk
    /// historical pages, and WORM-migrated pages — in commit-time order.
    /// Pending versions are resolved where the engine knows the commit time.
    pub fn version_history(
        &self,
        rel: RelId,
        key: &[u8],
    ) -> Result<Vec<(Timestamp, bool, Vec<u8>)>> {
        let mut out: Vec<(Timestamp, bool, Vec<u8>)> = Vec::new();
        let tree = self.engine.tree(rel)?;
        for v in tree.versions(key)? {
            if let Some(ct) = v.time.committed() {
                out.push((ct, v.end_of_life, v.value));
            }
        }
        for v in self.engine.historical_versions(rel, key)? {
            if let Some(ct) = v.time.committed() {
                out.push((ct, v.end_of_life, v.value));
            }
        }
        for (name, _) in self.worm.list(&format!("hist/rel{}-", rel.0)) {
            if self.worm.exists(&crate::migrate::retired_marker_name(&name)) {
                continue; // re-migrated back to conventional media
            }
            let bytes = self.worm.read_all(&name)?;
            let mp = crate::migrate::MigratedPage::decode(&bytes)?;
            for cell in &mp.cells {
                let v = ccdb_storage::TupleVersion::decode_cell(cell)?;
                if v.key == key {
                    if let Some(ct) = v.time.committed() {
                        out.push((ct, v.end_of_life, v.value));
                    }
                }
            }
        }
        out.sort();
        // Time splits duplicate the then-current version as an intermediate;
        // collapse exact duplicates and same-time copies.
        out.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1 && a.2 == b.2);
        Ok(out)
    }

    // --- retention / holds -------------------------------------------------

    /// Sets a relation's retention period (a write to the Expiry relation).
    pub fn set_retention(&self, txn: TxnId, rel_name: &str, period: Duration) -> Result<()> {
        self.engine.set_retention(txn, rel_name, period)
    }

    /// Places a litigation hold.
    pub fn place_hold(&self, txn: TxnId, hold: &Hold) -> Result<()> {
        shred::place_hold(&self.engine, txn, hold)
    }

    /// Releases a litigation hold.
    pub fn release_hold(&self, txn: TxnId, hold_id: &str) -> Result<()> {
        shred::release_hold(&self.engine, txn, hold_id)
    }

    /// The currently active holds.
    pub fn active_holds(&self) -> Result<Vec<Hold>> {
        shred::active_holds(&self.engine)
    }

    // --- compliance lifecycle ------------------------------------------------

    /// Regret-interval housekeeping: once per interval, flushes every page
    /// dirtied in earlier intervals (pushing their `NEW_TUPLE` records to
    /// WORM), creates the witness file, and emits a heartbeat if needed.
    pub fn tick(&self) -> Result<()> {
        let Some(plugin) = &self.plugin else { return Ok(()) };
        let r = self.config.regret_interval.0;
        if r == 0 {
            return Ok(());
        }
        let now = self.clock.now();
        let interval = now.0 / r;
        {
            let mut last = self.last_tick_interval.lock();
            if *last == interval {
                return Ok(());
            }
            *last = interval;
        }
        let interval_start = Timestamp(interval * r);
        self.engine.flush_dirtied_before(interval_start)?;
        plugin.tick()
    }

    /// Runs the auditable vacuum (shreds expired tuples).
    pub fn vacuum(&self) -> Result<VacuumReport> {
        let plugin = self
            .plugin
            .as_ref()
            .ok_or_else(|| Error::Invalid("vacuum requires a compliance mode".into()))?;
        Vacuum::run(&self.engine, plugin, self.clock.now())
    }

    /// Re-migrates WORM pages that contain *expired* tuples back to
    /// conventional media so the next [`CompliantDb::vacuum`] can shred them
    /// — Section VIII: "many expired tuples may reside on WORM and their
    /// pages must be migrated back to regular media for shredding". Returns
    /// the number of pages re-migrated.
    pub fn remigrate_expired(&self) -> Result<usize> {
        let now = self.clock.now();
        let mut remigrated = 0;
        for (name, rel) in self.engine.user_relations() {
            let Some(rho) = self.engine.retention(&name)? else { continue };
            for (worm_name, _) in self.worm.list(&format!("hist/rel{}-", rel.0)) {
                if self.worm.exists(&crate::migrate::retired_marker_name(&worm_name)) {
                    continue;
                }
                let bytes = self.worm.read_all(&worm_name)?;
                let mp = crate::migrate::MigratedPage::decode(&bytes)?;
                let has_expired = mp.cells.iter().any(|c| {
                    ccdb_storage::TupleVersion::decode_cell(c)
                        .ok()
                        .and_then(|t| t.time.committed())
                        .map(|ct| ct.saturating_add(rho) <= now)
                        .unwrap_or(false)
                });
                if has_expired {
                    migrate::remigrate_page(&self.engine, &self.worm, rel, &worm_name)?;
                    remigrated += 1;
                }
            }
        }
        Ok(remigrated)
    }

    /// Migrates a relation's historical (time-split) pages to WORM.
    pub fn migrate_to_worm(&self, rel: RelId) -> Result<MigrationReport> {
        let plugin = self
            .plugin
            .as_ref()
            .ok_or_else(|| Error::Invalid("migration requires a compliance mode".into()))?;
        migrate::migrate_relation(&self.engine, plugin, &self.worm, rel)
    }

    /// The audit configuration this database runs with: regret interval and
    /// read-verification follow the compliance mode, the rest is
    /// [`AuditConfig::default`].
    pub fn audit_config(&self) -> AuditConfig {
        AuditConfig {
            regret_interval: self.config.regret_interval,
            verify_reads: self.config.mode == Mode::HashOnRead,
            ..AuditConfig::default()
        }
    }

    /// Runs an audit **dry run** under an explicit [`AuditConfig`] without
    /// advancing the epoch or writing a snapshot: the differential suites
    /// and the benchmark use this to audit the *same* quiesced state at
    /// several thread counts and chunk sizes and compare outcomes. The
    /// deployment's regret interval and read-verification mode always
    /// override the caller's (they are properties of the database, not of
    /// how the audit is run).
    pub fn audit_outcome_with(&self, config: AuditConfig) -> Result<crate::audit::AuditOutcome> {
        let plugin = self
            .plugin
            .as_ref()
            .ok_or_else(|| Error::Invalid("audit requires a compliance mode".into()))?;
        self.engine.quiesce()?;
        plugin.logger().flush()?;
        plugin.tick()?;
        let epoch = *self.epoch.lock();
        let auditor = Auditor::new(
            self.worm.clone(),
            self.config.auditor_seed,
            AuditConfig {
                regret_interval: self.config.regret_interval,
                verify_reads: self.config.mode == Mode::HashOnRead,
                ..config
            },
        );
        // The auditor's own relation reads (holds, retention) are trusted
        // self-reads: suppress READ-record emission so the dry-run leaves
        // `L` exactly as it found it.
        plugin.begin_trusted_reads();
        let out = auditor.audit(&self.engine, epoch);
        plugin.end_trusted_reads();
        out
    }

    /// Runs a compliance audit. On a clean report: writes and signs the new
    /// snapshot, seals the epoch's log files, and opens the next epoch.
    pub fn audit(&self) -> Result<AuditReport> {
        let plugin = self
            .plugin
            .as_ref()
            .ok_or_else(|| Error::Invalid("audit requires a compliance mode".into()))?;
        // Quiesce: drain transactions/stampers, flush all pages and records.
        self.engine.quiesce()?;
        plugin.logger().flush()?;
        plugin.tick()?;
        let epoch = *self.epoch.lock();
        let auditor =
            Auditor::new(self.worm.clone(), self.config.auditor_seed, self.audit_config());
        plugin.begin_trusted_reads();
        let outcome = auditor.audit(&self.engine, epoch);
        plugin.end_trusted_reads();
        let outcome = outcome?;
        if outcome.report.is_clean() {
            let retention_until = self.artifact_retention_until();
            let time = self.clock.now();
            let body_name = auditor.snapshots().write_with_retention(
                epoch,
                time,
                &outcome.tuple_hash,
                &outcome.snapshot_pages,
                retention_until,
            )?;
            // Seal the replay checkpoint: the next audit can skip
            // re-folding this (now attested) snapshot prefix of the
            // completeness universe.
            auditor.write_checkpoint(
                epoch,
                &outcome.tuple_hash,
                outcome.report.stats.tuples_final,
                retention_until,
            )?;
            // The signed epoch head and the proof index for
            // client-verifiable reads, from the pages just sealed rather
            // than by reading them back. A crash from here on only means
            // both are derived lazily from the snapshot later.
            let sealed = self.build_proof_index(
                body_name,
                Snapshot {
                    epoch,
                    time,
                    tuple_hash: outcome.tuple_hash,
                    pages: outcome.snapshot_pages,
                },
                retention_until,
            )?;
            plugin.logger().advance_epoch(epoch + 1)?;
            // Rotate the WAL-tail mirror.
            let tail_name = waltail_name(epoch + 1);
            if !self.worm.exists(&tail_name) {
                self.worm.create(&tail_name, retention_until)?;
            }
            let tail = self.worm.handle(&tail_name)?;
            let worm_for_tail = self.worm.clone();
            self.engine.wal().set_tail_mirror(Arc::new(move |_lsn, bytes: &[u8]| {
                worm_for_tail
                    .append(&tail, bytes)
                    .map_err(|e| Error::ComplianceHalt(format!("WAL tail mirror: {e}")))
            }));
            {
                let mut slot = self.sealed.lock();
                *slot = Some(sealed);
                *self.epoch.lock() = epoch + 1;
            }
            // The new epoch needs its own witness/heartbeat for the current
            // interval; reset the tick guard so the next tick reruns.
            *self.last_tick_interval.lock() = u64::MAX;
            self.tick()?;
        }
        Ok(outcome.report)
    }

    /// Attaches a [`StreamAuditor`] tailing this database's current epoch
    /// with the deployment's audit configuration. The stream polls the
    /// WORM log independently of transaction processing; the server runs
    /// one per tenant in its audit daemon.
    pub fn stream_auditor(&self) -> Result<StreamAuditor> {
        self.stream_auditor_with(self.audit_config())
    }

    /// Like [`CompliantDb::stream_auditor`] with an explicit
    /// [`AuditConfig`] (the differential and checkpoint-accounting suites
    /// toggle [`AuditConfig::with_checkpoints`]). As in
    /// [`CompliantDb::audit_outcome_with`], the deployment's regret
    /// interval and read-verification mode override the caller's.
    pub fn stream_auditor_with(&self, config: AuditConfig) -> Result<StreamAuditor> {
        if self.plugin.is_none() {
            return Err(Error::Invalid("streaming audit requires a compliance mode".into()));
        }
        let auditor = Auditor::new(
            self.worm.clone(),
            self.config.auditor_seed,
            AuditConfig {
                regret_interval: self.config.regret_interval,
                verify_reads: self.config.mode == Mode::HashOnRead,
                ..config
            },
        );
        Ok(StreamAuditor::attach(auditor, *self.epoch.lock()))
    }

    /// A **client-verifiable read** against the last *sealed* epoch: the
    /// latest committed version of `(rel, key)` in the attested snapshot,
    /// plus a Merkle inclusion proof and the Lamport-signed epoch head.
    /// A thin client checks the bundle with `ccdb-verifier` alone — no
    /// trust in this server required beyond pinning the auditor lineage's
    /// per-epoch key fingerprint.
    ///
    /// Returns the signed head and `Some(ProvenRead)` when the key has a
    /// committed version in the sealed epoch, `None` when it does not
    /// (absence carries no proof: the snapshot tree proves membership
    /// only). Errors with [`Error::NotFound`] before the first audit seals
    /// an epoch.
    ///
    /// Served from the sealed epoch's [`SealedEpoch`] index: a directory
    /// lookup, one ranged WORM read of the proven page, and a logarithmic
    /// number of stored sibling hashes — independent of the database size.
    pub fn read_proof(
        &self,
        rel: RelId,
        key: &[u8],
    ) -> Result<(Arc<SignedHead>, Option<ProvenRead>)> {
        if self.plugin.is_none() {
            return Err(Error::Invalid("proof-carrying reads require a compliance mode".into()));
        }
        let index = self.sealed_epoch()?;
        self.proof_reads.fetch_add(1, Ordering::Relaxed);
        let proven = index.prove(&self.worm, rel, key)?;
        Ok((index.head().clone(), proven))
    }

    /// Proof-carrying read counters.
    pub fn proof_stats(&self) -> ProofStats {
        ProofStats {
            reads: self.proof_reads.load(Ordering::Relaxed),
            index_builds: self.proof_index_builds.load(Ordering::Relaxed),
        }
    }

    /// The last sealed epoch's proof index. The sealing audit installs it;
    /// after a reopen (or a crash between snapshot seal and head seal, or
    /// for an epoch sealed before heads existed) the first proof read
    /// rebuilds it from the signature-verified snapshot. Concurrent first
    /// readers wait on the one build rather than each starting their own.
    fn sealed_epoch(&self) -> Result<Arc<SealedEpoch>> {
        let mut slot = self.sealed.lock();
        let Some(sealed) = self.epoch.lock().checked_sub(1) else {
            return Err(Error::NotFound(
                "no sealed epoch yet; proof-carrying reads need one clean audit".into(),
            ));
        };
        if let Some(index) = slot.as_ref().filter(|index| index.head().head.epoch == sealed) {
            return Ok(index.clone());
        }
        let snapshots = SnapshotManager::new(self.worm.clone(), self.config.auditor_seed);
        let (body_name, snap) = snapshots.load_named(sealed)?.ok_or_else(|| {
            Error::NotFound(format!("snapshot for sealed epoch {sealed} is missing"))
        })?;
        let index = self.build_proof_index(body_name, snap, self.artifact_retention_until())?;
        *slot = Some(index.clone());
        Ok(index)
    }

    fn build_proof_index(
        &self,
        body_name: String,
        snap: Snapshot,
        retention_until: Timestamp,
    ) -> Result<Arc<SealedEpoch>> {
        self.proof_index_builds.fetch_add(1, Ordering::Relaxed);
        let heads = EpochHeadManager::new(self.worm.clone(), self.config.auditor_seed);
        Ok(Arc::new(SealedEpoch::build(&heads, body_name, snap, retention_until)?))
    }

    /// The retention horizon to stamp on a WORM compliance artifact written
    /// now.
    fn artifact_retention_until(&self) -> Timestamp {
        match self.config.worm_artifact_retention {
            Some(d) => self.clock.now().saturating_add(d),
            None => Timestamp::MAX,
        }
    }

    /// Simulates a crash and reopens (running recovery under the compliance
    /// protocol). Consumes the handle; returns the recovered database.
    pub fn crash_and_recover(self) -> Result<CompliantDb> {
        self.engine.crash();
        if let Some(p) = &self.plugin {
            p.logger().simulate_crash_drop_pending();
        }
        let CompliantDb { dir, clock, config, worm, engine, plugin, .. } = self;
        drop(engine);
        drop(plugin);
        drop(worm);
        CompliantDb::open(dir, clock, config)
    }

    /// The database directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sets an artificial per-I/O latency on the database disk (benchmark
    /// knob emulating the paper's NFS-mounted storage server).
    pub fn set_io_latency_us(&self, us: u64) {
        self.engine.disk().set_io_latency_us(us);
    }

    /// Selects how the emulated I/O latency is served: `true` parks the
    /// thread (latency *overlaps* across concurrent readers, like a real
    /// remote volume — what the parallel audit exploits), `false` spins
    /// (burns the core; the conservative default for single-threaded
    /// benches).
    pub fn set_io_latency_sleep(&self, sleep: bool) {
        self.engine.disk().set_io_latency_sleep(sleep);
    }

    /// Arms (or clears) a deterministic fault injector across every I/O
    /// surface at once: the data-page disk manager, the WAL appender, and
    /// the WORM append path. The torture harness uses this to drive a
    /// seeded workload into a planned crash/torn-write/transient fault and
    /// then verify recovery and audit behavior. Injectors are per-instance
    /// and never persisted: a reopened database starts unarmed.
    pub fn set_fault_injector(&self, inj: Option<Arc<ccdb_storage::FaultInjector>>) {
        self.engine.disk().set_fault_injector(inj.clone());
        self.engine.wal().set_fault_injector(inj.clone());
        self.worm.set_fault_injector(inj);
    }

    /// Reclaims WORM space: deletes compliance artifacts of epochs *before
    /// the previous one* whose retention has elapsed — "the log-consistent
    /// architecture is space-efficient because each snapshot can expire and
    /// be deleted from WORM once the next snapshot is in place. Similarly,
    /// the compliance log file can be deleted after every audit."
    /// The immediately-previous epoch's snapshot is retained: the next audit
    /// verifies against it. Returns the number of files deleted.
    pub fn reclaim_worm(&self) -> Result<usize> {
        let epoch = *self.epoch.lock();
        if epoch < 2 {
            return Ok(0);
        }
        let mut deleted = 0;
        let reclaimable = |name: &str| -> bool {
            for e in 0..epoch.saturating_sub(1) {
                let suffixes = [
                    crate::logger::epoch_log_name(e),
                    crate::logger::epoch_stamp_name(e),
                    waltail_name(e),
                    crate::audit::audit_ckpt_name(e),
                ];
                let snap_base = crate::snapshot::snapshot_name(e);
                let head_base = proof::epoch_head_name(e);
                if suffixes.iter().any(|s| s == name)
                    || *name == snap_base
                    // retry generations + .sig/.pub companions
                    || name.starts_with(&format!("{snap_base}."))
                    || *name == head_base
                    || name.starts_with(&format!("{head_base}."))
                    || name.starts_with(&format!("witness/e{e}-"))
                {
                    return true;
                }
            }
            false
        };
        for (name, _meta) in self.worm.list("") {
            if reclaimable(&name) && self.worm.delete(&name).is_ok() {
                deleted += 1;
            }
        }
        Ok(deleted)
    }
}

#[cfg(test)]
mod tests {
    // End-to-end behavior of the facade lives in the crate-level integration
    // tests (`crates/core/tests/`), which exercise run → audit → attack →
    // detect cycles.
}
