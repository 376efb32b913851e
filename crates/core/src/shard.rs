//! Sharded deployments: N engine instances over one shared WORM volume,
//! with cross-shard transactions made atomic — and *auditable* — by a 2PC
//! protocol whose prepare and decision records are part of each shard's
//! compliance log.
//!
//! # Model
//!
//! A [`ShardedDb`] partitions keys across `N` full [`CompliantDb`] stacks
//! (own WAL, buffer pool, group-commit pipeline, L-stream) rooted at
//! `dir/shards/<i>`, with compliance artifacts under the `shards/<i>/`
//! prefix of the shared WORM volume — shards are siblings of tenants in the
//! namespace tree. The partition function is a deterministic [`ShardMap`]
//! persisted (and sealed) on WORM, so the routing itself is part of the
//! tamper-evident record: a reopened deployment refuses a different shard
//! count.
//!
//! # 2PC on L
//!
//! A cross-shard transaction is a set of shard-local transactions driven by
//! the coordinator in [`ShardedDb::commit`]:
//!
//! 1. **Prepare** — each participant durably logs a WAL `Prepare` record
//!    (the transaction may no longer write and survives a crash as
//!    in-doubt), then a `2PC_PREPARE` record naming the global transaction
//!    id, the local participant transaction, and the full participant set
//!    is appended **and flushed** to that shard's L.
//! 2. **Decision** — a `2PC_DECISION` record is appended and flushed to
//!    *every* participant's L. The first durable decision record is the
//!    commit point.
//! 3. **Completion** — each participant commits (or aborts) locally,
//!    producing the ordinary `STAMP_TRANS`/`ABORT` records.
//!
//! Presumed abort: a prepared transaction with no decision record anywhere
//! resolves to abort at reopen ([`ShardedDb::crash_and_recover`] /
//! [`ShardedDb::crash_shard`]); a decision found on *any* participant is
//! re-appended to the participants that missed it and applied everywhere.
//! Because the engine refuses to quiesce with prepared transactions
//! outstanding, a prepare and its decision always land in the same epoch's
//! log — the auditor never needs to match records across epochs.
//!
//! # What the auditor verifies
//!
//! Each shard's audit (batch or streaming) checks the local 2PC discipline:
//! every prepare decided, every decision prepared, no conflicting
//! decisions, and the decision agreeing with the participant's actual
//! outcome (`STAMP_TRANS` iff decided-commit). The deployment-level join
//! ([`two_pc_cross_shard_join`]) then compares decisions *across* shards:
//! participants of one global transaction whose logs decide differently are
//! a typed atomicity violation even when each shard is locally consistent.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ccdb_btree::SplitPolicy;
use ccdb_common::codec::checksum32;
use ccdb_common::{ByteReader, ByteWriter, ClockRef, Error, RelId, Result, Timestamp, TxnId};
use ccdb_worm::WormServer;

use crate::audit::{
    two_pc_cross_shard_join, AuditConfig, AuditOutcome, AuditReport, TwoPcBook, Violation,
};
use crate::db::{ComplianceConfig, CompliantDb};
use crate::logger::epoch_log_name;
use crate::records::{LogIter, LogRecord};

/// WORM namespace prefix under which every shard lives.
pub const SHARD_NS_ROOT: &str = "shards";

/// WORM name of the sealed shard-map file.
pub const SHARDMAP_FILE: &str = "shardmap";

const SHARDMAP_MAGIC: u64 = 0xCCDB_5A4D;
const SHARDMAP_VERSION: u32 = 1;

/// The deterministic partition function, persisted on WORM so the routing
/// is part of the audited deployment: reopening with a different shard
/// count is refused rather than silently re-routing keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMap {
    n: u32,
}

impl ShardMap {
    /// A map over `n` shards (`n ≥ 1`).
    pub fn new(n: u32) -> Result<ShardMap> {
        if n == 0 {
            return Err(Error::Invalid("shard count must be ≥ 1".into()));
        }
        Ok(ShardMap { n })
    }

    /// The shard count.
    pub fn shards(&self) -> u32 {
        self.n
    }

    /// The shard owning `key`.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        (checksum32(key) % self.n) as usize
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(SHARDMAP_MAGIC);
        w.put_u32(SHARDMAP_VERSION);
        w.put_u32(self.n);
        w.into_vec()
    }

    fn decode(bytes: &[u8]) -> Result<ShardMap> {
        let mut r = ByteReader::new(bytes);
        if r.get_u64()? != SHARDMAP_MAGIC {
            return Err(Error::corruption("bad shard-map magic"));
        }
        let version = r.get_u32()?;
        if version != SHARDMAP_VERSION {
            return Err(Error::corruption(format!("unknown shard-map version {version}")));
        }
        ShardMap::new(r.get_u32()?)
    }

    /// Loads the map from the shared volume, or persists (and seals) a
    /// fresh one for `n` shards. An existing map pins the shard count.
    pub fn load_or_create(worm: &WormServer, n: u32) -> Result<ShardMap> {
        if worm.exists(SHARDMAP_FILE) {
            let map = ShardMap::decode(&worm.read_all(SHARDMAP_FILE)?)?;
            if map.n != n {
                return Err(Error::Invalid(format!(
                    "WORM shard map pins {} shards; refusing to open with {n}",
                    map.n
                )));
            }
            return Ok(map);
        }
        let map = ShardMap::new(n)?;
        let f = worm.create(SHARDMAP_FILE, Timestamp::MAX)?;
        worm.append(&f, &map.encode())?;
        worm.seal(SHARDMAP_FILE)?;
        Ok(map)
    }
}

/// A distributed (possibly cross-shard) transaction: shard-local
/// transactions begun lazily as the workload touches shards, under one
/// global transaction id.
#[derive(Debug)]
pub struct DistTxn {
    gtxn: u64,
    /// `shard → (local txn, wrote?)`, in shard order.
    locals: BTreeMap<usize, (TxnId, bool)>,
}

impl DistTxn {
    /// The global transaction id.
    pub fn gtxn(&self) -> u64 {
        self.gtxn
    }

    /// Shards this transaction has touched so far (writers and readers).
    pub fn touched(&self) -> Vec<usize> {
        self.locals.keys().copied().collect()
    }

    /// Shards this transaction has written on.
    pub fn writers(&self) -> Vec<usize> {
        self.locals.iter().filter(|(_, (_, w))| *w).map(|(s, _)| *s).collect()
    }

    /// The shard-local transaction on `shard`, if begun. Exposed so test
    /// harnesses can drive (and sabotage) the 2PC phases by hand.
    pub fn local_txn(&self, shard: usize) -> Option<TxnId> {
        self.locals.get(&shard).map(|(t, _)| *t)
    }
}

/// The per-shard outcome of a deployment audit plus the cross-shard join.
#[derive(Debug)]
pub struct DeploymentAudit {
    /// One report per shard, in shard order.
    pub shard_reports: Vec<AuditReport>,
    /// Violations only the cross-shard decision join can see.
    pub cross_shard: Vec<Violation>,
}

impl DeploymentAudit {
    /// Whether every shard passed and the cross-shard join found nothing.
    pub fn is_clean(&self) -> bool {
        self.cross_shard.is_empty() && self.shard_reports.iter().all(|r| r.is_clean())
    }

    /// All violations, shard-local and cross-shard.
    pub fn all_violations(&self) -> Vec<Violation> {
        let mut v: Vec<Violation> =
            self.shard_reports.iter().flat_map(|r| r.violations.clone()).collect();
        v.extend(self.cross_shard.clone());
        v
    }
}

/// A sharded compliant deployment: N engines over one WORM volume, with a
/// compliant 2PC coordinator for cross-shard transactions.
pub struct ShardedDb {
    dir: PathBuf,
    clock: ClockRef,
    config: ComplianceConfig,
    worm: Arc<WormServer>,
    map: ShardMap,
    shards: Vec<Arc<CompliantDb>>,
    next_gtxn: AtomicU64,
}

impl ShardedDb {
    /// Opens (or creates) a deployment of `n` shards under `dir`, with the
    /// shared volume at `dir/worm`. Resolves any in-doubt prepared
    /// transactions left by a crash before returning.
    pub fn open(
        dir: impl AsRef<Path>,
        clock: ClockRef,
        config: ComplianceConfig,
        n: u32,
    ) -> Result<ShardedDb> {
        let dir = dir.as_ref().to_path_buf();
        let worm = Arc::new(WormServer::open(dir.join("worm"), clock.clone())?);
        Self::open_with_worm(dir, clock, config, worm, n)
    }

    /// Opens a sharded deployment over a caller-supplied WORM server —
    /// typically a [`WormServer::namespace`] view, so a sharded *tenant*
    /// nests as `tenants/<name>/shards/<i>/...` on the shared volume.
    pub fn open_with_worm(
        dir: impl AsRef<Path>,
        clock: ClockRef,
        config: ComplianceConfig,
        worm: Arc<WormServer>,
        n: u32,
    ) -> Result<ShardedDb> {
        let dir = dir.as_ref().to_path_buf();
        let map = ShardMap::load_or_create(&worm, n)?;
        let mut shards = Vec::with_capacity(map.shards() as usize);
        for i in 0..map.shards() {
            shards.push(Arc::new(Self::open_shard(&dir, &clock, &config, &worm, i)?));
        }
        let db = ShardedDb { dir, clock, config, worm, map, shards, next_gtxn: AtomicU64::new(1) };
        db.resolve_indoubt()?;
        Ok(db)
    }

    fn open_shard(
        dir: &Path,
        clock: &ClockRef,
        config: &ComplianceConfig,
        worm: &Arc<WormServer>,
        i: u32,
    ) -> Result<CompliantDb> {
        let ns = worm.namespace(&format!("{SHARD_NS_ROOT}/{i}"))?;
        CompliantDb::open_with_worm(
            dir.join(SHARD_NS_ROOT).join(i.to_string()),
            clock.clone(),
            config.clone(),
            Arc::new(ns),
        )
    }

    /// The shard map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The shard databases, in shard order.
    pub fn shards(&self) -> &[Arc<CompliantDb>] {
        &self.shards
    }

    /// The shared WORM volume (root view).
    pub fn worm(&self) -> &Arc<WormServer> {
        &self.worm
    }

    /// The deployment directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    // --- schema -----------------------------------------------------------

    /// Creates a relation on every shard. Shards replay schema operations
    /// in the same order, so the relation id is identical everywhere; a
    /// divergence (only possible by tampering with one shard's catalog)
    /// is refused.
    pub fn create_relation(&self, name: &str, policy: SplitPolicy) -> Result<RelId> {
        let mut rel = None;
        for db in &self.shards {
            let r = db.create_relation(name, policy)?;
            match rel {
                None => rel = Some(r),
                Some(r0) if r0 != r => {
                    return Err(Error::Invalid(format!(
                        "relation {name:?} has diverging ids across shards ({r0:?} vs {r:?})"
                    )))
                }
                Some(_) => {}
            }
        }
        rel.ok_or_else(|| Error::Invalid("deployment has no shards".into()))
    }

    /// The relation id for `name` (identical on every shard).
    pub fn rel_id(&self, name: &str) -> Option<RelId> {
        self.shards.first().and_then(|db| db.engine().rel_id(name))
    }

    /// Sets a relation's retention period on every shard.
    pub fn set_retention(&self, name: &str, period: ccdb_common::Duration) -> Result<()> {
        for db in &self.shards {
            let txn = db.begin()?;
            db.set_retention(txn, name, period)?;
            db.commit(txn)?;
        }
        Ok(())
    }

    /// Places a litigation hold on every shard. Keys route by content, so a
    /// hold's prefix may cover tuples on any shard — each shard records the
    /// hold in its own (version-tracked, audited) holds relation.
    pub fn place_hold(&self, hold: &crate::shred::Hold) -> Result<()> {
        for db in &self.shards {
            let txn = db.begin()?;
            db.place_hold(txn, hold)?;
            db.commit(txn)?;
        }
        Ok(())
    }

    /// Releases a litigation hold on every shard.
    pub fn release_hold(&self, hold_id: &str) -> Result<()> {
        for db in &self.shards {
            let txn = db.begin()?;
            db.release_hold(txn, hold_id)?;
            db.commit(txn)?;
        }
        Ok(())
    }

    /// The holds active on the deployment (read from the first shard; every
    /// shard carries the same hold set when holds are managed through
    /// [`ShardedDb::place_hold`] / [`ShardedDb::release_hold`]).
    pub fn active_holds(&self) -> Result<Vec<crate::shred::Hold>> {
        match self.shards.first() {
            Some(db) => db.active_holds(),
            None => Ok(Vec::new()),
        }
    }

    /// Runs the auditable vacuum on every shard, summing the reports.
    pub fn vacuum(&self) -> Result<crate::shred::VacuumReport> {
        let mut total = crate::shred::VacuumReport::default();
        for db in &self.shards {
            let r = db.vacuum()?;
            total.shredded += r.shredded;
            total.held += r.held;
            total.revacuumed += r.revacuumed;
        }
        Ok(total)
    }

    /// Re-migrates expired WORM-resident pages back to conventional media
    /// on every shard (so the next [`ShardedDb::vacuum`] can shred them).
    /// Returns the total pages re-migrated.
    pub fn remigrate_expired(&self) -> Result<usize> {
        let mut total = 0;
        for db in &self.shards {
            total += db.remigrate_expired()?;
        }
        Ok(total)
    }

    /// Migrates `rel`'s historical (time-split) pages to WORM on every
    /// shard, summing the reports.
    pub fn migrate_to_worm(&self, rel: RelId) -> Result<crate::migrate::MigrationReport> {
        let mut total = crate::migrate::MigrationReport::default();
        for db in &self.shards {
            let r = db.migrate_to_worm(rel)?;
            total.pages_migrated += r.pages_migrated;
            total.tuples_migrated += r.tuples_migrated;
        }
        Ok(total)
    }

    // --- distributed transactions ----------------------------------------

    /// Begins a distributed transaction. Shard-local transactions are begun
    /// lazily as the transaction touches shards.
    pub fn begin(&self) -> DistTxn {
        DistTxn { gtxn: self.next_gtxn.fetch_add(1, Ordering::SeqCst), locals: BTreeMap::new() }
    }

    fn local(&self, dtx: &mut DistTxn, shard: usize) -> Result<TxnId> {
        if let Some((txn, _)) = dtx.locals.get(&shard) {
            return Ok(*txn);
        }
        let txn = self.shards[shard].begin()?;
        dtx.locals.insert(shard, (txn, false));
        Ok(txn)
    }

    /// Writes a tuple version, routed by key.
    pub fn write(&self, dtx: &mut DistTxn, rel: RelId, key: &[u8], value: &[u8]) -> Result<()> {
        let s = self.map.shard_of(key);
        let txn = self.local(dtx, s)?;
        self.shards[s].write(txn, rel, key, value)?;
        dtx.locals.get_mut(&s).expect("local just begun").1 = true;
        Ok(())
    }

    /// Deletes a tuple (end-of-life version), routed by key.
    pub fn delete(&self, dtx: &mut DistTxn, rel: RelId, key: &[u8]) -> Result<()> {
        let s = self.map.shard_of(key);
        let txn = self.local(dtx, s)?;
        self.shards[s].delete(txn, rel, key)?;
        dtx.locals.get_mut(&s).expect("local just begun").1 = true;
        Ok(())
    }

    /// Reads the current value, routed by key.
    pub fn read(&self, dtx: &mut DistTxn, rel: RelId, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let s = self.map.shard_of(key);
        let txn = self.local(dtx, s)?;
        self.shards[s].read(txn, rel, key)
    }

    /// Commits the distributed transaction.
    ///
    /// Zero or one *writing* participant commits locally with no 2PC
    /// traffic (read-only locals just commit their empty transactions).
    /// With two or more writers the full protocol runs: WAL prepare +
    /// `2PC_PREPARE` on each writer's L, then the `2PC_DECISION` commit
    /// point on every writer's L, then local commits.
    pub fn commit(&self, dtx: DistTxn) -> Result<Timestamp> {
        let gtxn = dtx.gtxn;
        let writers: Vec<(usize, TxnId)> = dtx
            .locals
            .iter()
            .filter(|(_, (_, wrote))| *wrote)
            .map(|(s, (t, _))| (*s, *t))
            .collect();
        let readers: Vec<(usize, TxnId)> = dtx
            .locals
            .iter()
            .filter(|(_, (_, wrote))| !*wrote)
            .map(|(s, (t, _))| (*s, *t))
            .collect();
        let mut latest = Timestamp(0);
        // Read-only participants never prepared; their commit is local.
        for (s, txn) in &readers {
            latest = latest.max(self.shards[*s].commit(*txn)?);
        }
        if writers.len() <= 1 {
            for (s, txn) in &writers {
                latest = latest.max(self.shards[*s].commit(*txn)?);
            }
            return Ok(latest);
        }
        let participants: Vec<u32> = writers.iter().map(|(s, _)| *s as u32).collect();

        // Phase 1: prepare. Engine-prepare first (durable WAL record), then
        // the L prepare. A failure anywhere decides abort.
        let mut prepared_l: Vec<(usize, TxnId)> = Vec::new();
        let mut failure: Option<Error> = None;
        'prep: for (s, txn) in &writers {
            if let Err(e) = self.shards[*s].prepare(*txn) {
                failure = Some(e);
                break 'prep;
            }
            let rec = LogRecord::TwoPcPrepare {
                gtxn,
                txn: *txn,
                shard: *s as u32,
                participants: participants.clone(),
            };
            if let Err(e) = self.shards[*s].log_2pc(&rec) {
                failure = Some(e);
                break 'prep;
            }
            prepared_l.push((*s, *txn));
        }
        if let Some(e) = failure {
            // Abort decision for every participant whose L saw the prepare;
            // participants that never reached L abort cleanly (presumed
            // abort needs no record there).
            for (s, _) in &prepared_l {
                let _ = self.shards[*s].log_2pc(&LogRecord::TwoPcDecision { gtxn, commit: false });
            }
            for (s, txn) in &writers {
                let _ = self.shards[*s].abort(*txn);
            }
            return Err(e);
        }

        // Phase 2: the decision records — the commit point. Appended and
        // flushed on every participant before any local commit, so a crash
        // in this window leaves the outcome recoverable from any survivor.
        for (s, _) in &writers {
            self.shards[*s].log_2pc(&LogRecord::TwoPcDecision { gtxn, commit: true })?;
        }

        // Phase 3: local completion.
        for (s, txn) in &writers {
            latest = latest.max(self.shards[*s].commit(*txn)?);
        }
        Ok(latest)
    }

    /// Aborts the distributed transaction. Called before any prepare
    /// reached a log, no 2PC records are needed: an unprepared local
    /// transaction aborts cleanly under presumed-abort.
    pub fn abort(&self, dtx: DistTxn) -> Result<()> {
        for (s, (txn, _)) in &dtx.locals {
            self.shards[*s].abort(*txn)?;
        }
        Ok(())
    }

    // --- crash / recovery -------------------------------------------------

    /// Simulates a whole-deployment crash and reopens, resolving every
    /// in-doubt transaction.
    pub fn crash_and_recover(self) -> Result<ShardedDb> {
        for db in &self.shards {
            db.engine().crash();
            if let Some(p) = db.plugin() {
                p.logger().simulate_crash_drop_pending();
            }
        }
        let ShardedDb { dir, clock, config, worm, map, shards, .. } = self;
        drop(shards);
        drop(worm);
        let n = map.shards();
        ShardedDb::open(dir, clock, config, n)
    }

    /// Simulates a crash of shard `i` alone and reopens it, then resolves
    /// in-doubt transactions across the deployment — the targeted-shard
    /// torture scenario: a shard dying mid-2PC must not strand its peers.
    pub fn crash_shard(&mut self, i: usize) -> Result<()> {
        {
            let db = &self.shards[i];
            db.engine().crash();
            if let Some(p) = db.plugin() {
                p.logger().simulate_crash_drop_pending();
            }
        }
        let fresh = Self::open_shard(&self.dir, &self.clock, &self.config, &self.worm, i as u32)?;
        self.shards[i] = Arc::new(fresh);
        self.resolve_indoubt()
    }

    /// One shard's 2PC book, read from its current epoch log.
    fn shard_book(db: &CompliantDb) -> TwoPcBook {
        let mut book = TwoPcBook::default();
        let bytes = db.worm().read_all(&epoch_log_name(db.epoch())).unwrap_or_default();
        for item in LogIter::new(&bytes) {
            let Ok((off, rec)) = item else { break };
            book.ingest(off, &rec);
        }
        book
    }

    /// Every shard's 2PC book (current epoch), in shard order.
    pub fn books(&self) -> Vec<TwoPcBook> {
        self.shards.iter().map(|db| Self::shard_book(db)).collect()
    }

    /// The coordinator's resolution pass, run at open and after a shard
    /// crash: drives every in-doubt prepared transaction to the outcome the
    /// decision records dictate (presumed abort when none exists anywhere),
    /// appending the decision to participants that missed it.
    fn resolve_indoubt(&self) -> Result<()> {
        let books = self.books();
        // Global transaction ids must not be reused within an epoch: resume
        // the counter above everything the logs have seen.
        let mut max_gtxn = 0u64;
        for b in &books {
            if let Some((g, _)) = b.prepares.iter().next_back() {
                max_gtxn = max_gtxn.max(*g);
            }
            if let Some((g, _)) = b.decisions.iter().next_back() {
                max_gtxn = max_gtxn.max(*g);
            }
        }
        self.next_gtxn.fetch_max(max_gtxn + 1, Ordering::SeqCst);

        let mut appended: Vec<(usize, u64)> = Vec::new();
        for (i, db) in self.shards.iter().enumerate() {
            for txn in db.indoubt_txns() {
                // The prepare's L record names the global transaction. A
                // WAL-prepared transaction whose L prepare never made it is
                // presumed-abort with no record needed: no shard's audit
                // will ever look for its decision.
                let prep = books[i]
                    .prepares
                    .iter()
                    .find(|(_, (t, _, _, _))| *t == txn)
                    .map(|(g, (_, _, parts, _))| (*g, parts.clone()));
                let Some((gtxn, participants)) = prep else {
                    db.abort(txn)?;
                    continue;
                };
                // Any durable decision wins; a commit decision anywhere
                // means the commit point was reached.
                let mut decision: Option<bool> = None;
                for b in &books {
                    if let Some((c, _)) = b.decisions.get(&gtxn) {
                        decision = Some(decision.unwrap_or(false) || *c);
                    }
                }
                let commit = decision.unwrap_or(false);
                for &p in &participants {
                    let p = p as usize;
                    if p >= self.shards.len() {
                        continue;
                    }
                    let already =
                        books[p].decisions.contains_key(&gtxn) || appended.contains(&(p, gtxn));
                    if !already {
                        self.shards[p].log_2pc(&LogRecord::TwoPcDecision { gtxn, commit })?;
                        appended.push((p, gtxn));
                    }
                }
                if commit {
                    db.commit(txn)?;
                } else {
                    db.abort(txn)?;
                }
            }
        }
        Ok(())
    }

    // --- lifecycle --------------------------------------------------------

    /// Regret-interval housekeeping on every shard.
    pub fn tick(&self) -> Result<()> {
        for db in &self.shards {
            db.tick()?;
        }
        Ok(())
    }

    /// Audits the deployment: the cross-shard decision join over every
    /// shard's current epoch log, then a full (sealing) audit per shard.
    /// The join runs first — sealing a clean shard rolls its epoch.
    pub fn audit(&self) -> Result<DeploymentAudit> {
        let cross_shard = two_pc_cross_shard_join(&self.books());
        let mut shard_reports = Vec::with_capacity(self.shards.len());
        for db in &self.shards {
            shard_reports.push(db.audit()?);
        }
        Ok(DeploymentAudit { shard_reports, cross_shard })
    }

    /// A deployment audit **dry run** under an explicit config (no epoch
    /// advance, no snapshot): per-shard outcomes plus the cross-shard join
    /// over the outcomes' 2PC books. The differential suite runs this for
    /// one thread and several over the same state.
    pub fn audit_dry(&self, config: AuditConfig) -> Result<(Vec<AuditOutcome>, Vec<Violation>)> {
        let mut outcomes = Vec::with_capacity(self.shards.len());
        for db in &self.shards {
            outcomes.push(db.audit_outcome_with(config)?);
        }
        let books: Vec<TwoPcBook> = outcomes.iter().map(|o| o.two_pc.clone()).collect();
        let cross = two_pc_cross_shard_join(&books);
        Ok((outcomes, cross))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Mode;
    use ccdb_common::{Duration, VirtualClock};

    fn tmp(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "ccdb-shard-{}-{}-{}",
            std::process::id(),
            tag,
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn cfg() -> ComplianceConfig {
        ComplianceConfig {
            mode: Mode::LogConsistent,
            regret_interval: Duration::from_mins(5),
            cache_pages: 256,
            fsync: false,
            ..ComplianceConfig::default()
        }
    }

    fn clock() -> ClockRef {
        Arc::new(VirtualClock::ticking(Duration::from_micros(50)))
    }

    #[test]
    fn shard_map_is_pinned_on_worm() {
        let dir = tmp("map");
        let db = ShardedDb::open(&dir, clock(), cfg(), 2).unwrap();
        drop(db);
        // Same count reopens; a different count is refused.
        let db = ShardedDb::open(&dir, clock(), cfg(), 2).unwrap();
        drop(db);
        assert!(ShardedDb::open(&dir, clock(), cfg(), 3).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let map = ShardMap::new(4).unwrap();
        let mut hit = [false; 4];
        for i in 0..256u32 {
            let k = i.to_le_bytes();
            let s = map.shard_of(&k);
            assert_eq!(s, map.shard_of(&k));
            hit[s] = true;
        }
        assert!(hit.iter().all(|h| *h), "256 keys should touch all 4 shards");
    }

    #[test]
    fn cross_shard_commit_audits_clean_and_survives_reopen() {
        let dir = tmp("2pc");
        let db = ShardedDb::open(&dir, clock(), cfg(), 2).unwrap();
        let rel = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();

        // Enough keys that both shards participate.
        let mut dtx = db.begin();
        for i in 0..32u32 {
            let k = format!("acct-{i:04}");
            db.write(&mut dtx, rel, k.as_bytes(), b"v0").unwrap();
        }
        assert!(dtx.writers().len() == 2, "expected both shards to participate");
        db.commit(dtx).unwrap();

        // Reads route to the owning shard.
        let mut r = db.begin();
        assert_eq!(db.read(&mut r, rel, b"acct-0007").unwrap().unwrap(), b"v0");
        db.commit(r).unwrap();

        let audit = db.audit().unwrap();
        assert!(audit.is_clean(), "dirty: {:?}", audit.all_violations());

        // Reopen: the books are settled, nothing in doubt, state intact.
        drop(db);
        let db = ShardedDb::open(&dir, clock(), cfg(), 2).unwrap();
        let rel = db.rel_id("ledger").unwrap();
        let mut r = db.begin();
        assert_eq!(db.read(&mut r, rel, b"acct-0007").unwrap().unwrap(), b"v0");
        db.commit(r).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_writer_transactions_skip_2pc() {
        let dir = tmp("short");
        let db = ShardedDb::open(&dir, clock(), cfg(), 2).unwrap();
        let rel = db.create_relation("kv", SplitPolicy::KeyOnly).unwrap();
        let mut dtx = db.begin();
        db.write(&mut dtx, rel, b"solo-key", b"v").unwrap();
        assert_eq!(dtx.writers().len(), 1);
        db.commit(dtx).unwrap();
        for book in db.books() {
            assert!(book.prepares.is_empty(), "single-writer commit must not log 2PC records");
            assert!(book.decisions.is_empty());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deployment_crash_mid_2pc_resolves_consistently() {
        let dir = tmp("crash");
        let db = ShardedDb::open(&dir, clock(), cfg(), 2).unwrap();
        let rel = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
        let mut dtx = db.begin();
        for i in 0..32u32 {
            let k = format!("acct-{i:04}");
            db.write(&mut dtx, rel, k.as_bytes(), b"v0").unwrap();
        }
        let writers: Vec<(usize, TxnId)> = dtx.locals.iter().map(|(s, (t, _))| (*s, *t)).collect();
        let gtxn = dtx.gtxn();
        assert_eq!(writers.len(), 2);

        // Drive the prepare phase by hand, then crash before any decision:
        // presumed abort must resolve both shards to ABORT, audit-clean.
        for (s, txn) in &writers {
            db.shards()[*s].prepare(*txn).unwrap();
            db.shards()[*s]
                .log_2pc(&LogRecord::TwoPcPrepare {
                    gtxn,
                    txn: *txn,
                    shard: *s as u32,
                    participants: writers.iter().map(|(s, _)| *s as u32).collect(),
                })
                .unwrap();
        }
        let db = db.crash_and_recover().unwrap();
        let mut r = db.begin();
        assert_eq!(db.read(&mut r, rel, b"acct-0007").unwrap(), None);
        db.commit(r).unwrap();
        let audit = db.audit().unwrap();
        assert!(audit.is_clean(), "dirty: {:?}", audit.all_violations());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decision_on_one_shard_commits_everywhere_after_crash() {
        let dir = tmp("decided");
        let db = ShardedDb::open(&dir, clock(), cfg(), 2).unwrap();
        let rel = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
        let mut dtx = db.begin();
        for i in 0..32u32 {
            let k = format!("acct-{i:04}");
            db.write(&mut dtx, rel, k.as_bytes(), b"v1").unwrap();
        }
        let writers: Vec<(usize, TxnId)> = dtx.locals.iter().map(|(s, (t, _))| (*s, *t)).collect();
        let gtxn = dtx.gtxn();
        for (s, txn) in &writers {
            db.shards()[*s].prepare(*txn).unwrap();
            db.shards()[*s]
                .log_2pc(&LogRecord::TwoPcPrepare {
                    gtxn,
                    txn: *txn,
                    shard: *s as u32,
                    participants: writers.iter().map(|(s, _)| *s as u32).collect(),
                })
                .unwrap();
        }
        // The commit point reached exactly one participant, then a crash.
        let first = writers[0].0;
        db.shards()[first].log_2pc(&LogRecord::TwoPcDecision { gtxn, commit: true }).unwrap();
        let db = db.crash_and_recover().unwrap();
        let mut r = db.begin();
        assert_eq!(db.read(&mut r, rel, b"acct-0007").unwrap().unwrap(), b"v1");
        db.commit(r).unwrap();
        let audit = db.audit().unwrap();
        assert!(audit.is_clean(), "dirty: {:?}", audit.all_violations());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deployment_holds_and_vacuum_span_every_shard() {
        use crate::shred::Hold;
        let dir = tmp("lifecycle");
        let clk = Arc::new(VirtualClock::ticking(Duration::from_micros(50)));
        let db = ShardedDb::open(&dir, clk.clone(), cfg(), 2).unwrap();
        let rel = db.create_relation("events", SplitPolicy::KeyOnly).unwrap();
        db.set_retention("events", Duration::from_mins(60)).unwrap();
        // Enough keys to land on both shards, including held ones.
        for i in 0..64u32 {
            let mut dtx = db.begin();
            let k = format!("ev-{i:04}");
            db.write(&mut dtx, rel, k.as_bytes(), b"payload").unwrap();
            db.commit(dtx).unwrap();
        }
        db.place_hold(&Hold {
            id: "docket-9".into(),
            rel_name: "events".into(),
            key_prefix: b"ev-000".to_vec(),
        })
        .unwrap();
        assert_eq!(db.active_holds().unwrap().len(), 1);
        // Everything expires; the hold spares its prefix on every shard.
        clk.advance(Duration::from_mins(120));
        let report = db.vacuum().unwrap();
        assert!(report.shredded > 0, "nothing shredded: {report:?}");
        assert!(report.held > 0, "hold spared nothing: {report:?}");
        let mut r = db.begin();
        assert_eq!(db.read(&mut r, rel, b"ev-0007").unwrap().unwrap(), b"payload");
        assert_eq!(db.read(&mut r, rel, b"ev-0040").unwrap(), None);
        db.commit(r).unwrap();
        db.release_hold("docket-9").unwrap();
        assert!(db.active_holds().unwrap().is_empty());
        let report = db.vacuum().unwrap();
        assert!(report.shredded > 0, "post-release vacuum shredded nothing");
        let audit = db.audit().unwrap();
        assert!(audit.is_clean(), "dirty: {:?}", audit.all_violations());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
