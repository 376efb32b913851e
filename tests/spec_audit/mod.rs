//! A deliberately naive specification of the audit's completeness check,
//! kept as test code so the product's audit core has an oracle that shares
//! none of its logic.
//!
//! The paper's claim is `Df = Ds ∪ L`. The product checks it with a replay
//! of page states, a sharded fold and an incremental ADD-HASH; this file
//! checks it the way one would on paper: decode `L`, build the **expected**
//! set of tuple identities
//!
//! ```text
//! Ds ∪ committed NEW_TUPLE ∪ split intermediates − shredded UNDOs − MIGRATEd versions
//! ```
//!
//! build the **actual** set from a raw scan of the leaves of `Df` (pending
//! times resolved from the stamps), sort both, compare. Its `use` list is
//! the independence argument: record, WAL, page, tuple and snapshot
//! *decoders* and engine reads only — nothing from `ccdb::compliance::audit`.
//!
//! It also checks the WAL-tail rule the same way: for every insert of every
//! commit in the WORM copy of the WAL tail, one lookup in the engine.
//!
//! It models honest histories plus tampering with the tuples of `Df`. It
//! does not model crash recovery (the product excuses a conventional copy of
//! a migrated page that survived a lost retire); the crash suites are not
//! pointed at it.

use std::collections::{BTreeSet, HashMap, HashSet};

use ccdb::common::{PageNo, RelId, Timestamp, TxnId};
use ccdb::compliance::logger::{epoch_log_name, waltail_name};
use ccdb::compliance::migrate::MigratedPage;
use ccdb::compliance::records::LogIter;
use ccdb::compliance::{CompliantDb, LogRecord, SnapshotManager};
use ccdb::crypto::AddHash;
use ccdb::storage::{Page, PageStore, PageType, TupleVersion, WriteTime};
use ccdb::wal::{WalReader, WalRecord};

/// Both sides of `Df = Ds ∪ L`, as sorted tuple identities.
pub struct SpecAudit {
    /// What the snapshot and the log say the database holds.
    pub expected: Vec<Vec<u8>>,
    /// What the database file holds.
    pub actual: Vec<Vec<u8>>,
    /// Insert records in the WORM copy of the epoch's WAL tail.
    pub wal_tail_inserts: usize,
    /// Transactions the WAL-tail rule convicts, sorted.
    pub wal_tail_inconsistent: Vec<TxnId>,
}

impl SpecAudit {
    /// The ADD-HASH of the actual side (the product's `tuple_hash`).
    pub fn actual_hash(&self) -> AddHash {
        let mut h = AddHash::new();
        for id in &self.actual {
            h.add(id);
        }
        h
    }
}

/// A tuple's identity: canonical bytes under its commit time, plus its
/// tuple-order number.
fn identity(t: &TupleVersion, commit: Timestamp) -> Vec<u8> {
    let mut id = t.canonical_bytes_with_time(commit);
    id.extend_from_slice(&t.seq.to_le_bytes());
    id
}

/// Runs the spec over `db`'s current epoch. Quiesces and flushes first, so
/// it sees the state a dry-run audit sees.
pub fn run(db: &CompliantDb, auditor_seed: [u8; 32]) -> SpecAudit {
    db.engine().quiesce().unwrap();
    db.plugin().expect("a compliance mode").logger().flush().unwrap();
    let epoch = db.epoch();
    let log = db.worm().read_all(&epoch_log_name(epoch)).unwrap();
    let records: Vec<LogRecord> =
        LogIter::new(&log).map(|r| r.expect("honest L decodes").1).collect();

    // Status records first: a transaction's commit time is its first stamp.
    let mut stamps: HashMap<TxnId, Timestamp> = HashMap::new();
    let mut shredded: HashSet<(RelId, Vec<u8>, Timestamp)> = HashSet::new();
    for rec in &records {
        match rec {
            LogRecord::StampTrans { txn, commit_time } => {
                stamps.entry(*txn).or_insert(*commit_time);
            }
            LogRecord::Shredded { rel, key, start_time, .. } => {
                shredded.insert((*rel, key.clone(), *start_time));
            }
            _ => {}
        }
    }
    // A version's commit time, if it is committed.
    let commit_of = |t: &TupleVersion| match t.time {
        WriteTime::Committed(ct) => Some(ct),
        WriteTime::Pending(txn) => stamps.get(&txn).copied(),
    };
    // A cell's identity, if it decodes and its version is committed.
    let committed = |cell: &[u8]| -> Option<Vec<u8>> {
        let t = TupleVersion::decode_cell(cell).ok()?;
        Some(identity(&t, commit_of(&t)?))
    };

    // Expected: Ds, then L in order.
    let mut expected: BTreeSet<Vec<u8>> = BTreeSet::new();
    let mut migrated: HashSet<(RelId, Vec<u8>, Timestamp)> = HashSet::new();
    if let Some(prev) = epoch.checked_sub(1) {
        let snapshot = SnapshotManager::new(db.worm().clone(), auditor_seed)
            .load(prev)
            .unwrap()
            .expect("the previous epoch left a snapshot");
        for page in snapshot.pages.iter().filter(|p| p.kind == PageType::Leaf) {
            expected.extend(page.cells.iter().filter_map(|c| committed(c)));
        }
    }
    for rec in &records {
        match rec {
            LogRecord::NewTuple { cell, .. } => expected.extend(committed(cell)),
            LogRecord::PageSplit { intermediates, .. } => {
                expected.extend(intermediates.iter().filter_map(|c| committed(c)));
            }
            LogRecord::Undo { cell, .. } => {
                let t = TupleVersion::decode_cell(cell).unwrap();
                if let WriteTime::Committed(start) = t.time {
                    if shredded.contains(&(t.rel, t.key.clone(), start)) {
                        expected.remove(&identity(&t, start));
                    }
                }
            }
            LogRecord::Migrate { worm_file, .. } => {
                let copy = MigratedPage::decode(&db.worm().read_all(worm_file).unwrap()).unwrap();
                for t in copy.cells.iter().filter_map(|c| TupleVersion::decode_cell(c).ok()) {
                    if let Some(ct) = commit_of(&t) {
                        expected.remove(&identity(&t, ct));
                        migrated.insert((t.rel, t.key, ct));
                    }
                }
            }
            _ => {}
        }
    }

    // Actual: every leaf of the database file, read raw.
    let disk = db.engine().disk();
    let mut actual: Vec<Vec<u8>> = Vec::new();
    for pgno in 0..disk.page_count() {
        let Ok(page) = Page::from_bytes(&disk.read_raw(PageNo(pgno)).unwrap()) else { continue };
        if page.page_type() == PageType::Leaf {
            actual.extend(page.cells().filter_map(committed));
        }
    }
    actual.sort();

    // The WAL tail: every commit durable in it must be stamped in L, and
    // each of its inserts must still be there — a version under its commit
    // time (or still pending under its id) in the key's live chain, or
    // under its commit time on a historical page — unless L shredded or
    // migrated that version.
    let mut tail_commits: BTreeSet<TxnId> = BTreeSet::new();
    let mut tail_inserts: Vec<(TxnId, RelId, Vec<u8>)> = Vec::new();
    let tail_name = waltail_name(epoch);
    if db.worm().exists(&tail_name) {
        let mut reader = WalReader::from_bytes(db.worm().read_all(&tail_name).unwrap());
        while let Some((_, rec)) = reader.next_record() {
            match rec {
                WalRecord::Commit { txn, .. } => {
                    tail_commits.insert(txn);
                }
                WalRecord::Insert { txn, rel, key, .. } => tail_inserts.push((txn, rel, key)),
                _ => {}
            }
        }
    }
    let engine = db.engine();
    let mut wal_tail_inconsistent: BTreeSet<TxnId> = BTreeSet::new();
    for &txn in &tail_commits {
        let Some(&ct) = stamps.get(&txn) else {
            wal_tail_inconsistent.insert(txn);
            continue;
        };
        for (_, rel, key) in tail_inserts.iter().filter(|(t, _, _)| *t == txn) {
            let live = engine.tree(*rel).and_then(|tree| tree.versions(key)).unwrap_or_default();
            let historical = engine.historical_versions(*rel, key).unwrap_or_default();
            let present = live
                .iter()
                .any(|t| t.time == WriteTime::Committed(ct) || t.time == WriteTime::Pending(txn))
                || historical.iter().any(|t| t.time == WriteTime::Committed(ct));
            let excused = shredded.contains(&(*rel, key.clone(), ct))
                || migrated.contains(&(*rel, key.clone(), ct));
            if !present && !excused {
                wal_tail_inconsistent.insert(txn);
            }
        }
    }
    SpecAudit {
        expected: expected.into_iter().collect(),
        actual,
        wal_tail_inserts: tail_inserts.len(),
        wal_tail_inconsistent: wal_tail_inconsistent.into_iter().collect(),
    }
}
