//! The audit core: one [`AuditState`] that is **seeded** from the previous
//! snapshot, **ingests** slices of `L`, and is **finalized** against the
//! engine. Every audit — a batch audit at any thread count, a streaming
//! poll, a streaming verdict — is a sequence of these three calls; nothing
//! else replays `L` or scans the final state.
//!
//! # Seed
//!
//! The previous epoch's snapshot `Ds` becomes the starting page states and
//! the starting completeness fold (skipping the per-tuple re-fold when a
//! sealed checkpoint from the previous clean audit attests it).
//!
//! # Ingest
//!
//! One slice of complete frames is cut off the unread tail of `L` and run
//! through a fixed pipeline:
//!
//! 1. **decode** — checksum + decode of the frame bodies, fanned out over
//!    [`l_chunk_records`](super::AuditConfig::l_chunk_records)-sized chunks;
//! 2. **status pre-scan and routing** — one sequential pass over the decoded
//!    records merges the slice's status records into the status book *before*
//!    anything is replayed (so within a slice a record sees every status the
//!    slice holds, earlier or later), gathers the 2PC and shred books,
//!    decides each `UNDO`'s shred consumption, and unions `PAGE_SPLIT`
//!    inputs with their outputs so that every record able to touch a page's
//!    state routes to the same shard;
//! 3. **replay** — each shard replays its records, in offset order, over the
//!    page states those records touch; completeness-fold operations are
//!    *recorded* under `(offset, sub)` keys, not applied;
//! 4. **merge** — shard outputs rejoin the carried state and the recorded
//!    fold operations are applied to the global membership set in
//!    `(offset, sub)` order. Membership updates do not commute, so this
//!    order — not the partitioning — is what fixes the result: any thread
//!    count and any chunk size yield the same state.
//!
//! Two judgments depend on status records that may lie *after* the slice: a
//! `NEW_TUPLE` of a transaction with no status yet, and an `UNDO` of a
//! pending version with no `ABORT` yet. Their page-state effect is applied
//! at once; the judgment is **parked** per transaction. A later
//! `STAMP_TRANS` folds the parked tuples at its own offset; whatever is
//! still parked at finalize is final (`UnstampedTransaction`,
//! `UnjustifiedUndo`). A whole-log ingest sees every status in its pre-scan,
//! so only the truly unresolved are ever parked.
//!
//! # Finalize
//!
//! The post-scan runs once, over `&self` (a streaming auditor keeps
//! ingesting afterwards): WORM integrity, parked judgments, status
//! conflicts, liveness and witnesses, shred legality, 2PC discipline, the
//! WAL-tail cross-check, then the final-state scan `Df` and the physical
//! tree checks as independent tasks on the pool. Page-range tasks each fold
//! a partial ADD-HASH; addition mod 2^512 is associative and commutative,
//! so the merged `H(Df)` is byte-identical under any grouping and is
//! compared against the replayed `H(Ds ∪ L)`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use ccdb_common::sync::parallel_map;
use ccdb_common::{Duration, Error, PageNo, RelId, Result, Timestamp, TxnId};
use ccdb_crypto::AddHash;
use ccdb_engine::Engine;
use ccdb_storage::{BufferPool, PageStore, PageType, TupleVersion, WriteTime};
use ccdb_worm::WormServer;

use crate::logger::{epoch_log_name, waltail_name, witness_name};
use crate::migrate::MigratedPage;
use crate::plugin::{inner_hs, leaf_hs};
use crate::records::{LogFrame, LogFrames, LogRecord, SplitSide};

use super::{
    audit_debug, canonicalize, check_relation_tree, commit_time, effective_threads, entry_order,
    fold_identity, leftover_states_check, resolve_tuple, scan_final_page, shred_legality,
    two_pc_checks, worm_integrity, AuditConfig, AuditOutcome, AuditReport, AuditStats, Auditor,
    FinalScan, ResolvedTuple, TwoPcBook, Violation,
};

/// Replayed state of one page.
#[derive(Clone, Debug, Default)]
pub(super) struct PageState {
    pub(super) kind: Option<PageType>,
    /// Leaf: stored tuple versions.
    pub(super) tuples: Vec<TupleVersion>,
    /// Inner: raw entry cells.
    pub(super) cells: Vec<Vec<u8>>,
}

/// `(rel, key, start) → (shred_time, consumed seqs)` — the `SHREDDED` book.
/// Consumption is tracked **per version seq**: a transaction may write the
/// same key several times at one commit instant (same `(rel, key, start)`,
/// distinct seqs), and the vacuum shreds each version with its own `UNDO`.
/// Keying consumption by seq folds every distinct version out of the
/// completeness accumulator while still tolerating byte-identical
/// crash-recovery replays of the same `UNDO` (same seq → duplicate).
pub(super) type ShredMap = BTreeMap<(RelId, Vec<u8>, Timestamp), (Timestamp, HashSet<u16>)>;

/// A mutation of the completeness accumulator, recorded during replay and
/// applied in `(offset, sub)` order by the merge.
#[derive(Clone, Debug)]
enum FoldOp {
    /// `if seen.insert(id) { acc.add(&id) }`.
    AddIfNew(Vec<u8>),
    /// `if seen.remove(&id) { acc.remove(&id) }`.
    RemoveIfSeen(Vec<u8>),
}

/// A fold op keyed for the merge: `sub` orders one record's emissions (a
/// split's intermediates, a migration's tuples) within its offset.
type KeyedOp = (u64, u32, FoldOp);

fn push_op(ops: &mut Vec<KeyedOp>, off: u64, op: FoldOp) {
    let sub = match ops.last() {
        Some((o, s, _)) if *o == off => s + 1,
        _ => 0,
    };
    ops.push((off, sub, op));
}

/// A transaction's parked judgments, waiting on its status record.
#[derive(Clone, Debug, Default)]
struct Parked {
    /// `NEW_TUPLE` versions to fold once a `STAMP_TRANS` resolves them.
    adds: Vec<TupleVersion>,
    /// Pages whose pending-version `UNDO` awaits an `ABORT` justification.
    undo_pages: Vec<PageNo>,
}

/// SplitMix64 finalizer: decorrelates page numbers from shard indices so
/// dense page ranges spread evenly.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Union-find over page numbers (path-halving), keyed sparsely: pages never
/// mentioned in a `PAGE_SPLIT` are their own singleton components.
#[derive(Default)]
struct PageUnionFind {
    parent: HashMap<u64, u64>,
}

impl PageUnionFind {
    fn find(&mut self, mut p: u64) -> u64 {
        while let Some(&up) = self.parent.get(&p) {
            if up == p {
                break;
            }
            let next = self.parent.get(&up).copied().unwrap_or(up);
            self.parent.insert(p, next);
            p = next;
        }
        p
    }

    fn union(&mut self, a: u64, b: u64) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }
}

/// The page whose replayed state a record mutates or reads (a split also
/// writes its two outputs, which share its component). `None` = the record
/// carries no page state and is consumed by the sequential pre-scan.
fn record_page(rec: &LogRecord) -> Option<PageNo> {
    match rec {
        LogRecord::NewTuple { pgno, .. }
        | LogRecord::Undo { pgno, .. }
        | LogRecord::Read { pgno, .. }
        | LogRecord::IndexInsert { pgno, .. }
        | LogRecord::IndexRemove { pgno, .. }
        | LogRecord::IndexImage { pgno, .. }
        | LogRecord::NewRoot { pgno, .. }
        | LogRecord::Migrate { pgno, .. } => Some(*pgno),
        LogRecord::PageSplit { old, .. } => Some(*old),
        LogRecord::StampTrans { .. }
        | LogRecord::Abort { .. }
        | LogRecord::DummyStamp { .. }
        | LogRecord::Shredded { .. }
        | LogRecord::StartRecovery { .. }
        | LogRecord::TwoPcPrepare { .. }
        | LogRecord::TwoPcDecision { .. } => None,
    }
}

/// One shard's replay input: the carried page states its records touch,
/// and its routed slice of the decoded records in `L` order.
type ShardInput = (HashMap<PageNo, PageState>, Vec<(u64, LogRecord)>);

/// What one shard's replay hands back to the merge.
#[derive(Default)]
struct ShardOut {
    states: HashMap<PageNo, PageState>,
    migrated: HashSet<PageNo>,
    migrated_versions: HashSet<(RelId, Vec<u8>, Timestamp)>,
    violations: Vec<Violation>,
    reads_verified: u64,
    ops: Vec<KeyedOp>,
    parked_adds: Vec<(TxnId, TupleVersion)>,
    parked_undos: Vec<(TxnId, PageNo)>,
}

/// The per-record replay logic, over one shard's page states. Everything it
/// borrows is read-only for the duration of a slice's replay.
struct Replayer<'a> {
    worm: &'a WormServer,
    stamps: &'a HashMap<TxnId, (Timestamp, u64)>,
    aborts: &'a HashMap<TxnId, u64>,
    /// Pages whose migration was verified in an earlier slice.
    migrated_before: &'a HashSet<PageNo>,
    /// Offset of each committed-version `UNDO` that has a `SHREDDED` entry →
    /// whether it is that version's first consumption (`false` = an
    /// already-consumed entry: a crash-recovery duplicate, tolerated).
    shred_first: &'a HashMap<u64, bool>,
    verify_reads: bool,
    out: ShardOut,
}

impl Replayer<'_> {
    fn fold(&mut self, off: u64, op: FoldOp) {
        push_op(&mut self.out.ops, off, op);
    }

    /// Replays one record at offset `off`.
    fn replay(&mut self, off: u64, rec: LogRecord) {
        match rec {
            LogRecord::NewTuple { pgno, rel: _, cell } => {
                let t = match TupleVersion::decode_cell(&cell) {
                    Ok(t) => t,
                    Err(e) => {
                        self.out.violations.push(Violation::LogUnreadable {
                            reason: format!("NEW_TUPLE cell at {off}: {e}"),
                        });
                        return;
                    }
                };
                // Resolve the commit time (the auditor "must replace any
                // transaction ID by the commit time"); with no status on
                // file yet the judgment waits for one.
                match (commit_time(&t, self.stamps), t.time) {
                    (Some(ct), _) => self.fold(off, FoldOp::AddIfNew(fold_identity(&t, ct))),
                    (None, WriteTime::Pending(txn)) if !self.aborts.contains_key(&txn) => {
                        self.out.parked_adds.push((txn, t.clone()));
                    }
                    _ => {}
                }
                // Page state: the physical tuple (stored form) joins the
                // page unless this NEW_TUPLE is a recovery duplicate of
                // something already there.
                let st = self.out.states.entry(pgno).or_insert_with(|| PageState {
                    kind: Some(PageType::Leaf),
                    ..PageState::default()
                });
                if !st.tuples.iter().any(|e| e.key == t.key && e.seq == t.seq) {
                    st.tuples.push(t);
                }
            }
            LogRecord::Undo { pgno, rel: _, cell } => {
                let t = match TupleVersion::decode_cell(&cell) {
                    Ok(t) => t,
                    Err(e) => {
                        self.out.violations.push(Violation::LogUnreadable {
                            reason: format!("UNDO cell at {off}: {e}"),
                        });
                        return;
                    }
                };
                match t.time {
                    // Only an ABORT justifies undoing a pending version,
                    // and one may still arrive.
                    WriteTime::Pending(txn) => {
                        if !self.aborts.contains_key(&txn) {
                            self.out.parked_undos.push((txn, pgno));
                        }
                    }
                    WriteTime::Committed(ct) => match self.shred_first.get(&off) {
                        // The shredded version leaves the completeness
                        // universe.
                        Some(true) => self.fold(off, FoldOp::RemoveIfSeen(fold_identity(&t, ct))),
                        Some(false) => {}
                        None => self.out.violations.push(Violation::UnjustifiedUndo { pgno }),
                    },
                }
                if let Some(st) = self.out.states.get_mut(&pgno) {
                    if let Some(pos) =
                        st.tuples.iter().position(|e| e.key == t.key && e.seq == t.seq)
                    {
                        st.tuples.remove(pos);
                    }
                    // Absent: a duplicate UNDO from crash recovery — the
                    // paper tolerates these.
                }
            }
            LogRecord::Read { pgno, hs } => {
                if self.verify_reads {
                    let expect = match self.out.states.get(&pgno) {
                        Some(st) if st.kind == Some(PageType::Inner) => {
                            inner_hs(st.cells.iter().map(|c| c.as_slice()))
                        }
                        st => {
                            // A pending tuple hashes with its commit time iff
                            // its STAMP_TRANS appears earlier in L than the READ.
                            let tuples = st.map_or(&[][..], |st| st.tuples.as_slice());
                            leaf_hs(tuples, |txn| {
                                let stamp = self.stamps.get(&txn).filter(|(_, soff)| *soff < off);
                                stamp.map(|(ct, _)| *ct)
                            })
                        }
                    };
                    if expect != hs {
                        if audit_debug() {
                            eprintln!(
                                "AUDIT MISMATCH {off} pg={pgno:?} replayed tuples {:?}",
                                self.out.states.get(&pgno).map(|st| st
                                    .tuples
                                    .iter()
                                    .map(|t| (t.key.clone(), t.seq, t.time))
                                    .collect::<Vec<_>>())
                            );
                        }
                        self.out.violations.push(Violation::ReadHashMismatch { pgno, offset: off });
                    }
                    self.out.reads_verified += 1;
                }
            }
            LogRecord::PageSplit { old, rel: _, left, right, intermediates } => {
                let old_state = self.out.states.remove(&old).unwrap_or_default();
                if matches!(old_state.kind, Some(PageType::Inner)) {
                    // Inner split: the record's content is authoritative.
                    // (The tree rebuilds a parent's entry list in memory
                    // — remove one child entry, add two — and splits the
                    // *modified* list, so the physical input page never
                    // holds the split's exact input; a union check would
                    // be vacuous. Index integrity is enforced by the
                    // final-state comparison plus the physical
                    // parent/child checks, which is where the Figure 2(c)
                    // attack is caught.)
                    for side in [left, right] {
                        self.out.states.insert(
                            side.pgno,
                            PageState {
                                kind: Some(PageType::Inner),
                                cells: side.cells,
                                ..PageState::default()
                            },
                        );
                    }
                    return;
                }
                // Leaf split: union check on resolved tuples.
                let stamps = self.stamps;
                let mut input: Vec<ResolvedTuple> =
                    old_state.tuples.iter().map(|t| resolve_tuple(t, stamps)).collect();
                let mut inters = Vec::new();
                for c in &intermediates {
                    match TupleVersion::decode_cell(c) {
                        Ok(t) => {
                            input.push(resolve_tuple(&t, stamps));
                            inters.push(t);
                        }
                        Err(e) => self.out.violations.push(Violation::LogUnreadable {
                            reason: format!("split intermediate at {off}: {e}"),
                        }),
                    }
                }
                let mut output: Vec<ResolvedTuple> = Vec::new();
                let mut install = |side: &SplitSide,
                                   states: &mut HashMap<PageNo, PageState>|
                 -> Result<()> {
                    let mut st = PageState { kind: Some(PageType::Leaf), ..PageState::default() };
                    for c in &side.cells {
                        let t = TupleVersion::decode_cell(c)?;
                        output.push(resolve_tuple(&t, stamps));
                        st.tuples.push(t);
                    }
                    states.insert(side.pgno, st);
                    Ok(())
                };
                if install(&left, &mut self.out.states).is_err()
                    || install(&right, &mut self.out.states).is_err()
                {
                    self.out.violations.push(Violation::SplitMismatch { old });
                } else {
                    input.sort();
                    output.sort();
                    if input != output {
                        if audit_debug() {
                            let only_in: Vec<_> =
                                input.iter().filter(|x| !output.contains(x)).collect();
                            let only_out: Vec<_> =
                                output.iter().filter(|x| !input.contains(x)).collect();
                            eprintln!("SPLIT MISMATCH old={old:?} in-not-out={only_in:?} out-not-in={only_out:?}");
                        }
                        self.out.violations.push(Violation::SplitMismatch { old });
                    }
                }
                // Intermediates are genuinely new tuples.
                for t in inters {
                    if let WriteTime::Committed(ct) = t.time {
                        self.fold(off, FoldOp::AddIfNew(fold_identity(&t, ct)));
                    } else {
                        self.out.violations.push(Violation::SplitMismatch { old });
                    }
                }
            }
            LogRecord::IndexInsert { pgno, cell } => {
                let st = self.out.states.entry(pgno).or_insert_with(|| PageState {
                    kind: Some(PageType::Inner),
                    ..PageState::default()
                });
                // Crash recovery regenerates index records at the next
                // pwrite; duplicates are skipped (entries are unique).
                if !st.cells.contains(&cell) {
                    let pos = st
                        .cells
                        .iter()
                        .position(|c| entry_order(c) > entry_order(&cell))
                        .unwrap_or(st.cells.len());
                    st.cells.insert(pos, cell);
                }
            }
            LogRecord::IndexRemove { pgno, cell } => {
                // Absent entries are tolerated (duplicate removals from
                // recovery); real index tampering is caught by the
                // final-state comparison.
                if let Some(st) = self.out.states.get_mut(&pgno) {
                    if let Some(pos) = st.cells.iter().position(|c| *c == cell) {
                        st.cells.remove(pos);
                    }
                }
            }
            LogRecord::NewRoot { rel: _, pgno, cells } => {
                self.out.states.entry(pgno).or_insert_with(|| PageState {
                    kind: Some(PageType::Inner),
                    cells,
                    ..PageState::default()
                });
            }
            LogRecord::IndexImage { pgno, cells } => {
                // Post-recovery authoritative content: crash recovery
                // rebuilt this internal page from WAL images, and the entry
                // deltas between its creation record and the crash were
                // never logged. The image *replaces* the replayed state —
                // in particular it retracts stale entries (e.g. a child
                // since supplanted by a time split) that no logged
                // INDEX_REMOVE ever covered.
                self.out.states.insert(
                    pgno,
                    PageState { kind: Some(PageType::Inner), cells, ..PageState::default() },
                );
            }
            LogRecord::Migrate { pgno, rel, worm_file, content_hash } => {
                let prior = self.out.states.remove(&pgno);
                // A MIGRATE for a page this replay has *no state for* can
                // only honestly be a re-assertion of a migration verified
                // in a sealed epoch: a page live at the seal is in the
                // snapshot, and a page born in the tail has tail records —
                // only one already migrated (and thus already strictly
                // verified copy-vs-state) replays as unknown.
                let reassert = prior.is_none()
                    || self.migrated_before.contains(&pgno)
                    || self.out.migrated.contains(&pgno);
                let st = prior.unwrap_or_default();
                let Ok(mp) = self.worm.read_all(&worm_file).and_then(|b| MigratedPage::decode(&b))
                else {
                    self.out.violations.push(Violation::MigrationMismatch { pgno });
                    return;
                };
                let mut ok = crate::plugin::page_content_hash(&mp.cells) == content_hash;
                let mut copy: Vec<ResolvedTuple> = Vec::new();
                for c in &mp.cells {
                    match TupleVersion::decode_cell(c) {
                        Ok(t) => copy.push(resolve_tuple(&t, self.stamps)),
                        Err(_) => ok = false,
                    }
                }
                let mut orig: Vec<ResolvedTuple> =
                    st.tuples.iter().map(|t| resolve_tuple(t, self.stamps)).collect();
                copy.sort();
                orig.sort();
                // A crash between a MIGRATE's flush and its retire becoming
                // durable makes the next migration pass *re-assert* the
                // migration. The copy was verified strictly when the first
                // MIGRATE replayed; the re-assertion's state may hold
                // nothing (the retire was the only loss) or the page's
                // content again (the crash also lost the page bytes and the
                // resurrected page's re-emitted records are retracted
                // below) — either way it must not exceed the verified copy.
                let matches = if reassert {
                    orig.iter().all(|t| copy.binary_search(t).is_ok())
                } else {
                    copy == orig
                };
                if !ok || !matches {
                    self.out.violations.push(Violation::MigrationMismatch { pgno });
                    return;
                }
                // Verified: the page's tuples leave the auditing universe.
                for t in &st.tuples {
                    if let Some(ct) = commit_time(t, self.stamps) {
                        self.fold(off, FoldOp::RemoveIfSeen(fold_identity(t, ct)));
                        self.out.migrated_versions.insert((rel, t.key.clone(), ct));
                    }
                }
                self.out.migrated.insert(pgno);
            }
            // No page traffic: consumed by the sequential pre-scan (status
            // book, shred book, 2PC book) and judged at finalize.
            LogRecord::Shredded { .. }
            | LogRecord::StartRecovery { .. }
            | LogRecord::StampTrans { .. }
            | LogRecord::Abort { .. }
            | LogRecord::DummyStamp { .. }
            | LogRecord::TwoPcPrepare { .. }
            | LogRecord::TwoPcDecision { .. } => {}
        }
    }
}

/// A finalize task: a whole relation's tree check, or a final-state page
/// range. Tree tasks are listed first (they are the long poles); page
/// ranges follow in ascending order so the merged snapshot stays
/// pgno-sorted.
enum DTask {
    Tree(RelId),
    Pages(u64, u64),
}

enum DOut {
    Tree(Vec<Violation>, u64),
    Scan(FinalScan, u64),
    Failed(Error),
}

fn us_since(t: Instant) -> u64 {
    t.elapsed().as_micros() as u64
}

/// The audit of one epoch, as far as `L` has been ingested.
pub(super) struct AuditState {
    worm: Arc<WormServer>,
    config: AuditConfig,
    regret_interval: Duration,
    verify_reads: bool,
    threads: usize,
    epoch: u64,

    // Replayed state.
    states: HashMap<PageNo, PageState>,
    seen: HashSet<Vec<u8>>,
    acc: AddHash,
    shreds: ShredMap,
    migrated: HashSet<PageNo>,
    migrated_versions: HashSet<(RelId, Vec<u8>, Timestamp)>,

    // Status book: `txn → (commit time, offset)`, `txn → abort offset`, and
    // every stamp/heartbeat `(time, offset)` in offset order.
    stamps: HashMap<TxnId, (Timestamp, u64)>,
    aborts: HashMap<TxnId, u64>,
    liveness: Vec<(Timestamp, u64)>,
    two_pc: TwoPcBook,
    parked: HashMap<TxnId, Parked>,

    /// Log-level evidence found so far (seed + ingest).
    pub(super) violations: Vec<Violation>,
    /// Bytes of `L` ingested.
    pub(super) byte_pos: u64,
    /// `L` turned out unreadable; recorded once, nothing more is ingested.
    poisoned: bool,
    /// Seed and ingest measurements so far; finalize adds its own.
    pub(super) stats: AuditStats,
}

impl AuditState {
    /// Starts the audit of `epoch` from the previous epoch's snapshot: its
    /// pages become the starting page states, its committed tuples the
    /// starting completeness fold. When a sealed replay checkpoint from the
    /// previous clean audit attests the snapshot's tuple hash, the
    /// per-tuple ADD-HASH fold (and the fold-vs-stored comparison it feeds)
    /// is skipped — the membership set and page states are still built in
    /// full, so replay semantics are unchanged. Sound because
    /// `snapshots.load` signature-verifies the stored hash and the
    /// checkpoint was sealed only after a clean audit compared content
    /// against it.
    pub(super) fn seed(auditor: &Auditor, epoch: u64) -> AuditState {
        let t0 = Instant::now();
        let threads = effective_threads(&auditor.config);
        let mut st = AuditState {
            worm: auditor.worm.clone(),
            config: auditor.config,
            regret_interval: auditor.regret_interval,
            verify_reads: auditor.verify_reads,
            threads,
            epoch,
            states: HashMap::new(),
            seen: HashSet::new(),
            acc: AddHash::new(),
            shreds: ShredMap::new(),
            migrated: HashSet::new(),
            migrated_versions: HashSet::new(),
            stamps: HashMap::new(),
            aborts: HashMap::new(),
            liveness: Vec::new(),
            two_pc: TwoPcBook::default(),
            parked: HashMap::new(),
            violations: Vec::new(),
            byte_pos: 0,
            poisoned: false,
            stats: AuditStats { threads_used: threads as u64, ..AuditStats::default() },
        };
        let prev = match epoch.checked_sub(1).map(|e| auditor.snapshots.load(e)) {
            None => None,
            Some(Ok(s)) => s,
            Some(Err(e)) => {
                st.violations.push(Violation::SnapshotInvalid { reason: e.to_string() });
                None
            }
        };
        if let Some(snap) = prev {
            let sealed = st.config.use_checkpoints
                && auditor.load_checkpoint(epoch - 1).is_some_and(|h| h == snap.tuple_hash);
            let mut folded = AddHash::new();
            for p in snap.pages {
                let mut page = PageState { kind: Some(p.kind), ..PageState::default() };
                if p.kind != PageType::Leaf {
                    page.cells = p.cells;
                    st.states.insert(p.pgno, page);
                    continue;
                }
                for cell in &p.cells {
                    let t = match TupleVersion::decode_cell(cell) {
                        Ok(t) => t,
                        Err(e) => {
                            st.violations.push(Violation::BadPage {
                                pgno: p.pgno,
                                reason: format!("snapshot cell: {e}"),
                            });
                            continue;
                        }
                    };
                    match t.time {
                        WriteTime::Committed(ct) => {
                            let id = fold_identity(&t, ct);
                            if sealed {
                                st.stats.snapshot_prefix_skipped += 1;
                            } else {
                                folded.add(&id);
                            }
                            st.seen.insert(id);
                        }
                        WriteTime::Pending(txn) => {
                            st.violations.push(Violation::UnstampedTransaction { txn });
                        }
                    }
                    page.tuples.push(t);
                }
                st.states.insert(p.pgno, page);
            }
            if !sealed && folded != snap.tuple_hash {
                st.violations.push(Violation::SnapshotInvalid {
                    reason: "stored snapshot hash disagrees with snapshot content".into(),
                });
            }
            st.acc = if sealed { snap.tuple_hash } else { folded };
        }
        st.stats.snapshot_us = us_since(t0);
        st
    }

    /// Records that `L` cannot be read any further. An unreadable log is
    /// evidence, not an audit failure: what was ingested still gets judged.
    fn poison(&mut self, reason: String) {
        self.violations.push(Violation::LogUnreadable { reason });
        self.poisoned = true;
    }

    /// Reads the unread tail of the epoch log, at most `cap` frames of it,
    /// and ingests its complete frames. `settled` says the log is quiesced
    /// and flushed: a frame the log ends inside of is then evidence, and the
    /// read is of the whole file against its trusted checksum (what a
    /// verdict rests on). Otherwise it is a poll under load: only the bytes
    /// past the cursor are read, and a partial frame is a flush racing the
    /// read, left for the next call.
    pub(super) fn ingest(&mut self, cap: Option<usize>, settled: bool) {
        if self.poisoned {
            return;
        }
        let t0 = Instant::now();
        let name = epoch_log_name(self.epoch);
        let base = self.byte_pos;
        let read = if settled {
            self.worm.read_all(&name).map(|log| (log, base as usize))
        } else {
            self.worm.stat(&name).and_then(|meta| {
                let start = base.min(meta.len);
                self.worm.read_at(&name, start, (meta.len - start) as usize).map(|tail| (tail, 0))
            })
        };
        let (log, skip) = match read {
            Ok(r) => r,
            Err(e) => return self.poison(e.to_string()),
        };
        // A trusted log shorter than the cursor is WORM truncation;
        // finalize's integrity check names the file.
        let Some(tail) = log.get(skip..) else { return };

        // --- Decode: frame walk, then chunked checksum + decode -----------
        let td = Instant::now();
        let mut frames: Vec<LogFrame<'_>> = Vec::new();
        let mut unreadable: Option<String> = None;
        for frame in LogFrames::new(tail).take(cap.unwrap_or(usize::MAX)) {
            match frame {
                Ok(f) => frames.push(f),
                Err(e) => {
                    if settled {
                        unreadable = Some(e.to_string());
                    }
                    break;
                }
            }
        }
        let chunks: Vec<&[LogFrame<'_>]> =
            frames.chunks(self.config.l_chunk_records.max(1)).collect();
        self.stats.l_chunks += chunks.len() as u64;
        // Each chunk reports the records it decoded before its first error;
        // the ordered merge stops at the first chunk that has one.
        let decoded = parallel_map(self.threads, chunks, |frames| {
            let mut recs = Vec::with_capacity(frames.len());
            for f in frames {
                match f.decode() {
                    Ok(r) => recs.push((base + f.offset, r)),
                    Err(e) => return (recs, Some(e.to_string())),
                }
            }
            (recs, None)
        });
        let mut records: Vec<(u64, LogRecord)> = Vec::with_capacity(frames.len());
        for (recs, err) in decoded {
            records.extend(recs);
            if err.is_some() {
                unreadable = err;
                break;
            }
        }
        self.byte_pos = base + frames.last().map_or(0, |f| f.end());
        drop(log); // decoded: the raw bytes need not outlive the replay
        self.stats.log_bytes = self.byte_pos;
        self.stats.records_scanned += records.len() as u64;
        self.stats.log_decode_us += us_since(td);
        if audit_debug() {
            for (off, rec) in &records {
                let d = format!("{rec:?}");
                eprintln!("AUDIT {off}: {}", &d[..d.len().min(160)]);
            }
        }

        // --- Status pre-scan + routing -------------------------------------
        // One sequential pass, in offset order, over what needs only the
        // record stream and no page state.
        let tr = Instant::now();
        let mut uf = PageUnionFind::default();
        let mut shred_first: HashMap<u64, bool> = HashMap::new();
        let mut ops: Vec<KeyedOp> = Vec::new();
        for (off, rec) in &records {
            self.two_pc.ingest(*off, rec);
            match rec {
                LogRecord::StampTrans { txn, commit_time } => {
                    match self.stamps.get(txn) {
                        Some((t0, _)) if t0 != commit_time => {
                            self.violations.push(Violation::ConflictingStatus { txn: *txn });
                        }
                        Some(_) => {} // duplicate (recovery re-emission)
                        None => {
                            self.stamps.insert(*txn, (*commit_time, *off));
                            self.liveness.push((*commit_time, *off));
                        }
                    }
                    // Tuples parked by earlier slices fold at the stamp's
                    // offset, with the book's (first-win) commit time.
                    // Parked UNDOs stay: only an ABORT justifies them.
                    if let Some(p) = self.parked.get_mut(txn) {
                        let ct = self.stamps[txn].0;
                        for t in p.adds.drain(..) {
                            push_op(&mut ops, *off, FoldOp::AddIfNew(fold_identity(&t, ct)));
                        }
                    }
                }
                LogRecord::Abort { txn } => {
                    self.aborts.entry(*txn).or_insert(*off);
                }
                LogRecord::DummyStamp { time } => self.liveness.push((*time, *off)),
                LogRecord::Shredded { rel, key, start_time, shred_time, .. } => {
                    let entry = self
                        .shreds
                        .entry((*rel, key.clone(), *start_time))
                        .or_insert((*shred_time, HashSet::new()));
                    entry.0 = *shred_time;
                }
                LogRecord::Undo { cell, .. } => {
                    let Ok(t) = TupleVersion::decode_cell(cell) else { continue };
                    let WriteTime::Committed(ct) = t.time else { continue };
                    if let Some(entry) = self.shreds.get_mut(&(t.rel, t.key, ct)) {
                        shred_first.insert(*off, entry.1.insert(t.seq));
                    }
                }
                LogRecord::PageSplit { old, left, right, .. } => {
                    uf.union(old.0, left.pgno.0);
                    uf.union(old.0, right.pgno.0);
                }
                _ => {}
            }
        }
        // Each shard gets its records and the carried states they touch.
        let nshards = self.threads.max(1);
        let mut shards: Vec<ShardInput> = (0..nshards).map(|_| Default::default()).collect();
        for (off, rec) in records {
            let Some(pgno) = record_page(&rec) else { continue };
            let (states, recs) = &mut shards[(mix64(uf.find(pgno.0)) % nshards as u64) as usize];
            let mut claim = |p: PageNo| {
                if let Some(st) = self.states.remove(&p) {
                    states.insert(p, st);
                }
            };
            claim(pgno);
            if let LogRecord::PageSplit { left, right, .. } = &rec {
                claim(left.pgno);
                claim(right.pgno);
            }
            recs.push((off, rec));
        }
        shards.retain(|(_, recs)| !recs.is_empty());
        self.stats.log_route_us += us_since(tr);

        // --- Sharded replay -------------------------------------------------
        let tp = Instant::now();
        let (worm, stamps, aborts) = (&*self.worm, &self.stamps, &self.aborts);
        let (migrated_before, shred_first) = (&self.migrated, &shred_first);
        let verify_reads = self.verify_reads;
        let outs: Vec<ShardOut> = parallel_map(self.threads, shards, |(states, recs)| {
            let mut rp = Replayer {
                worm,
                stamps,
                aborts,
                migrated_before,
                shred_first,
                verify_reads,
                out: ShardOut { states, ..ShardOut::default() },
            };
            for (off, rec) in recs {
                rp.replay(off, rec);
            }
            rp.out
        });
        self.stats.log_replay_us += us_since(tp);

        // --- Merge ------------------------------------------------------------
        let tm = Instant::now();
        for out in outs {
            self.states.extend(out.states);
            self.migrated.extend(out.migrated);
            self.migrated_versions.extend(out.migrated_versions);
            self.violations.extend(out.violations);
            self.stats.reads_verified += out.reads_verified;
            ops.extend(out.ops);
            // Park order is immaterial: folding a set of identities in and
            // reporting a multiset of violations both commute.
            for (txn, t) in out.parked_adds {
                self.parked.entry(txn).or_default().adds.push(t);
            }
            for (txn, pgno) in out.parked_undos {
                self.parked.entry(txn).or_default().undo_pages.push(pgno);
            }
        }
        ops.sort_by_key(|(off, sub, _)| (*off, *sub));
        for (_, _, op) in ops {
            match op {
                FoldOp::AddIfNew(id) => {
                    if !self.seen.contains(&id) {
                        self.acc.add(&id);
                        self.seen.insert(id);
                    }
                }
                FoldOp::RemoveIfSeen(id) => {
                    if self.seen.remove(&id) {
                        self.acc.remove(&id);
                    }
                }
            }
        }
        self.stats.log_merge_us += us_since(tm);

        if let Some(reason) = unreadable {
            self.poison(reason);
        }
        self.stats.log_scan_us += us_since(t0);
    }

    /// The post-scan: judges everything ingested so far against the WORM
    /// artifacts and the engine's final state. The engine must be quiescent
    /// (checkpointed, no active transactions); the final state is read from
    /// raw disk, bypassing the buffer cache and plugin. Leaves the carried
    /// state untouched, and returns the report canonicalized.
    pub(super) fn finalize(&self, engine: &Engine) -> Result<AuditOutcome> {
        let mut v = self.violations.clone();
        let mut stats = self.stats;
        worm_integrity(&self.worm, &mut v);

        // No status by now is final.
        for (txn, p) in &self.parked {
            if self.aborts.contains_key(txn) {
                continue; // aborted: adds fold nothing, undos are justified
            }
            if !self.stamps.contains_key(txn) {
                v.extend(p.adds.iter().map(|_| Violation::UnstampedTransaction { txn: *txn }));
            }
            v.extend(p.undo_pages.iter().map(|pgno| Violation::UnjustifiedUndo { pgno: *pgno }));
        }
        for txn in self.stamps.keys() {
            if self.aborts.contains_key(txn) {
                v.push(Violation::ConflictingStatus { txn: *txn });
            }
        }
        self.liveness_and_witness(&mut v);
        shred_legality(engine, &self.shreds, &mut v);
        two_pc_checks(&self.two_pc, &self.stamps, &mut v);
        let tw = Instant::now();
        self.wal_tail_check(engine, &mut v);
        stats.wal_tail_us = us_since(tw);

        // Final state: tree checks and the completeness join share the pool.
        let t2 = Instant::now();
        let disk = engine.disk();
        let page_count = disk.page_count();
        let raw_pool = Arc::new(BufferPool::new(
            disk.clone() as Arc<dyn PageStore>,
            engine.clock().clone(),
            1024,
        ));
        let mut tasks: Vec<DTask> =
            engine.user_relations().into_iter().map(|(_, r)| DTask::Tree(r)).collect();
        let range = (page_count / (4 * self.threads as u64).max(1)).max(8);
        let mut start = 0u64;
        while start < page_count {
            let end = (start + range).min(page_count);
            tasks.push(DTask::Pages(start, end));
            start = end;
        }
        let outs: Vec<DOut> = parallel_map(self.threads, tasks, |t| {
            let tt = Instant::now();
            match t {
                DTask::Tree(rel) => {
                    DOut::Tree(check_relation_tree(engine, &raw_pool, rel), us_since(tt))
                }
                DTask::Pages(s, e) => {
                    let mut fs = FinalScan::new();
                    for i in s..e {
                        if let Err(err) = scan_final_page(
                            disk,
                            &self.worm,
                            PageNo(i),
                            &self.states,
                            &self.stamps,
                            &mut fs,
                        ) {
                            return DOut::Failed(err);
                        }
                    }
                    DOut::Scan(fs, us_since(tt))
                }
            }
        });
        let mut h_final = AddHash::new();
        let mut forensics = Vec::new();
        let mut snapshot_pages = Vec::new();
        for out in outs {
            match out {
                DOut::Tree(vs, us) => {
                    v.extend(vs);
                    stats.tree_verify_us += us;
                }
                DOut::Scan(fs, us) => {
                    // ADD-HASH partial sums merge grouping-independently.
                    h_final.merge(&fs.h_final);
                    stats.tuples_final += fs.tuples_final;
                    v.extend(fs.violations);
                    forensics.extend(fs.forensics);
                    snapshot_pages.extend(fs.snapshot_pages);
                    stats.completeness_join_us += us;
                }
                DOut::Failed(e) => return Err(e),
            }
        }
        leftover_states_check(&self.states, &self.migrated, page_count, &mut v);
        if self.acc != h_final {
            v.push(Violation::CompletenessMismatch);
        }
        stats.final_state_us = us_since(t2);
        stats.snapshot_pages = snapshot_pages.len() as u64;

        let mut report = AuditReport { epoch: self.epoch, violations: v, forensics, stats };
        canonicalize(&mut report);
        Ok(AuditOutcome {
            report,
            snapshot_pages,
            tuple_hash: h_final,
            two_pc: self.two_pc.clone(),
        })
    }

    /// Liveness discipline:
    /// 1. Commit/heartbeat times are non-decreasing in log order — a
    ///    backdated record appended later in L is caught here.
    /// 2. Every liveness event falls in an interval with a *valid*
    ///    witness file: one whose trusted WORM create time lies in (or
    ///    just after) that interval. Mala cannot retro-create a witness —
    ///    the compliance clock stamps her file with the real time.
    /// 3. Every witnessed interval strictly between the first and last
    ///    event contains at least one liveness event (the system promises
    ///    a heartbeat per live interval, bounding the backdating window
    ///    to one regret interval).
    fn liveness_and_witness(&self, v: &mut Vec<Violation>) {
        for pair in self.liveness.windows(2) {
            if pair[1].0 < pair[0].0 {
                v.push(Violation::CommitTimesNotMonotonic { offset: pair[1].1 });
            }
        }
        let r = self.regret_interval.0;
        if r == 0 {
            return;
        }
        let valid_witness = |interval: u64| -> bool {
            self.worm.stat(&witness_name(self.epoch, interval)).is_ok_and(|meta| {
                let ct = meta.create_time.0;
                ct >= interval * r && ct < (interval + 2) * r
            })
        };
        let event_intervals: HashSet<u64> = self.liveness.iter().map(|(t, _)| t.0 / r).collect();
        for interval in &event_intervals {
            if !valid_witness(*interval) {
                v.push(Violation::MissingWitness { interval: *interval });
            }
        }
        if let (Some((first, _)), Some((last, _))) = (self.liveness.first(), self.liveness.last()) {
            for interval in first.0 / r + 1..last.0 / r {
                if valid_witness(interval) && !event_intervals.contains(&interval) {
                    v.push(Violation::RegretGapExceeded {
                        from: Timestamp(interval * r),
                        to: Timestamp((interval + 1) * r),
                    });
                }
            }
        }
    }

    /// WAL-tail cross-check. "This is why we require the tail of the
    /// transaction log … to be on WORM, and that it be retained until the
    /// next audit": commits that are durable in the tail must be
    /// acknowledged by L (a STAMP_TRANS) and their writes present in the
    /// final state — a wiped local WAL cannot silently unwind recent
    /// commits.
    fn wal_tail_check(&self, engine: &Engine, v: &mut Vec<Violation>) {
        if !self.worm.exists(&waltail_name(self.epoch)) {
            return;
        }
        let tail_bytes = self.worm.read_all(&waltail_name(self.epoch)).unwrap_or_else(|e| {
            v.push(Violation::LogUnreadable { reason: format!("WAL tail: {e}") });
            Vec::new()
        });
        let mut reader = ccdb_wal::WalReader::from_bytes(tail_bytes);
        let mut tail_commits: HashSet<TxnId> = HashSet::new();
        let mut tail_inserts: HashMap<TxnId, Vec<(RelId, Vec<u8>)>> = HashMap::new();
        while let Some((_lsn, rec)) = reader.next_record() {
            match rec {
                ccdb_wal::WalRecord::Commit { txn, .. } => {
                    tail_commits.insert(txn);
                }
                ccdb_wal::WalRecord::Insert { txn, rel, key, .. } => {
                    tail_inserts.entry(txn).or_default().push((rel, key));
                }
                _ => {}
            }
        }
        let mut jobs: Vec<TxnId> = Vec::new();
        for txn in &tail_commits {
            if self.stamps.contains_key(txn) {
                jobs.push(*txn);
            } else {
                v.push(Violation::WalTailInconsistent { txn: *txn });
            }
        }
        // The per-transaction presence probes are independent read-only
        // B-tree lookups — on emulated remote storage they dominate this
        // check, so they fan out on the pool. Each probe reports at most
        // one violation per transaction, determined by the WAL-tail insert
        // order.
        let tail_inserts = &tail_inserts;
        let results: Vec<Option<Violation>> = parallel_map(self.threads, jobs, |txn| {
            let ct = self.stamps[&txn].0;
            for (rel, key) in tail_inserts.get(&txn).map(|v| v.as_slice()).unwrap_or(&[]) {
                let present = engine
                    .tree(*rel)
                    .ok()
                    .and_then(|tree| tree.versions(key).ok())
                    .map(|vs| {
                        vs.iter().any(|t| {
                            t.time == WriteTime::Committed(ct) || t.time == WriteTime::Pending(txn)
                        })
                    })
                    .unwrap_or(false)
                    || engine
                        .historical_versions(*rel, key)
                        .map(|vs| vs.iter().any(|t| t.time == WriteTime::Committed(ct)))
                        .unwrap_or(false);
                // Vacuumed (legally shredded) and WORM-migrated
                // versions are excused — they are accounted elsewhere.
                let shredded = self.shreds.contains_key(&(*rel, key.clone(), ct));
                let on_worm = self.migrated_versions.contains(&(*rel, key.clone(), ct));
                if !present && !shredded && !on_worm {
                    if audit_debug() {
                        eprintln!("TAIL MISS txn={txn:?} rel={rel:?} key={key:02x?} ct={ct:?}");
                    }
                    return Some(Violation::WalTailInconsistent { txn });
                }
            }
            None
        });
        v.extend(results.into_iter().flatten());
    }
}
