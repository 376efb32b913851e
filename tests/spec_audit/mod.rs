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
//! the independence argument: record, page, tuple and snapshot *decoders*
//! only — nothing from `ccdb::compliance::audit`.
//!
//! It models honest histories plus tampering with the tuples of `Df`. It
//! does not model crash recovery (the product excuses a conventional copy of
//! a migrated page that survived a lost retire); the crash suites are not
//! pointed at it.

use std::collections::{BTreeSet, HashMap, HashSet};

use ccdb::common::{PageNo, RelId, Timestamp, TxnId};
use ccdb::compliance::logger::epoch_log_name;
use ccdb::compliance::migrate::MigratedPage;
use ccdb::compliance::records::LogIter;
use ccdb::compliance::{CompliantDb, LogRecord, SnapshotManager};
use ccdb::crypto::AddHash;
use ccdb::storage::{Page, PageStore, PageType, TupleVersion, WriteTime};

/// Both sides of `Df = Ds ∪ L`, as sorted tuple identities.
pub struct SpecAudit {
    /// What the snapshot and the log say the database holds.
    pub expected: Vec<Vec<u8>>,
    /// What the database file holds.
    pub actual: Vec<Vec<u8>>,
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
    // A cell's identity, if it decodes and its version is committed.
    let committed = |cell: &[u8]| -> Option<Vec<u8>> {
        let t = TupleVersion::decode_cell(cell).ok()?;
        let commit = match t.time {
            WriteTime::Committed(ct) => ct,
            WriteTime::Pending(txn) => *stamps.get(&txn)?,
        };
        Some(identity(&t, commit))
    };

    // Expected: Ds, then L in order.
    let mut expected: BTreeSet<Vec<u8>> = BTreeSet::new();
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
                for id in copy.cells.iter().filter_map(|c| committed(c)) {
                    expected.remove(&id);
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
    SpecAudit { expected: expected.into_iter().collect(), actual }
}
