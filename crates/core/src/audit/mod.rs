//! The auditor: one pass over the compliance log, the previous snapshot, and
//! the final database state.
//!
//! The checks, keyed to the paper:
//!
//! * **Tuple completeness** (§IV): `Df = Ds ∪ L`, verified with the
//!   commutative incremental ADD-HASH in a single pass — no sorting. A fold
//!   identity is a tuple's canonical bytes (relation, key, commit time,
//!   end-of-life flag, value) plus its tuple-order number; page splits and
//!   recovery duplicates therefore never double-count.
//! * **Status-record discipline** (§IV-B): at most one commit time per
//!   transaction, never both `STAMP_TRANS` and `ABORT`, commit times
//!   strictly increasing, no gap between consecutive stamps/heartbeats
//!   longer than one regret interval except across a logged crash recovery,
//!   a witness file for every interval the DBMS claims to have been alive.
//! * **Page-read verification** (§V): the auditor replays every page's
//!   content from `L` and checks each logged `READ` hash, resolving each
//!   tuple's time by the offset rule — commit time iff the transaction's
//!   `STAMP_TRANS` appears earlier in `L` than the `READ`.
//! * **Split and migration verification** (§V–VI): the union of a split's
//!   output pages must equal the input page plus the declared intermediate
//!   versions; a migrated page's WORM copy must match its replayed state.
//! * **Shred verification** (§VIII): every `UNDO` is justified by a prior
//!   `ABORT` or `SHREDDED`; every shredded version had expired under the
//!   retention period in force at shred time and was not under an active
//!   litigation hold; everything listed as shredded is gone.
//! * **Physical integrity** (§IV-C): slot structure, leaf sort order, and
//!   parent/child separator consistency over every relation's tree — the
//!   Figure 2 attacks.
//!
//! # One core, three drivers
//!
//! All of the above runs in exactly one place: the `state` submodule's
//! `AuditState`, which is **seeded** from the previous snapshot, **ingests**
//! `L` (chunked decode, a sequential status pre-scan, replay sharded by
//! page-split-connected components, an `(offset, sub)`-ordered fold merge)
//! and is **finalized** against the engine (WORM integrity, liveness,
//! shreds, 2PC, WAL tail, then the final-state scan and tree checks as
//! tasks on one pool). The drivers only decide *when* those are called:
//!
//! * a **batch audit** ([`Auditor::audit`]) seeds, ingests the whole log,
//!   and finalizes, on [`AuditConfig::audit_threads`] workers;
//! * [`AuditConfig::serial`] is that same audit on one thread — every
//!   fan-out then runs inline, in order: the paper's literal single pass;
//! * the **streaming auditor** ([`stream::StreamAuditor`]) carries one state
//!   per epoch, ingests the new tail of `L` on every poll, and finalizes
//!   for a verdict without giving the state up.
//!
//! Reports are canonicalized (findings sorted under a total order), and the
//! differential/property suites in `tests/` assert byte-identical verdicts
//! and finding sets at every thread count, chunk size, and poll cadence —
//! which, with one core, checks that the result is invariant under
//! partitioning and batching. The independent check of the core itself is
//! the naive spec auditor in `tests/spec_audit`.

mod state;
pub mod stream;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use ccdb_btree::{check_tree, BTree, IntegrityError, TimeRank};
use ccdb_common::{ByteReader, ByteWriter, Duration, PageNo, RelId, Result, Timestamp, TxnId};
use ccdb_crypto::AddHash;
use ccdb_engine::Engine;
use ccdb_storage::{BufferPool, DiskManager, Page, PageType, TupleVersion, WriteTime};
use ccdb_worm::WormServer;

use crate::db::{ComplianceConfig, Mode};
use crate::migrate::MigratedPage;
use crate::records::LogRecord;
use crate::shred::{Hold, HOLDS_RELATION};
use crate::snapshot::{SnapPage, SnapshotManager};

use state::{AuditState, PageState, ShredMap};

/// A specific piece of tamper evidence (or audit-process failure).
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// `H(Ds ∪ L) ≠ H(Df)` — tuples were altered, removed, or inserted
    /// outside the logged history.
    CompletenessMismatch,
    /// A tuple's writing transaction has neither a `STAMP_TRANS` nor an
    /// `ABORT` on `L`.
    UnstampedTransaction {
        /// The unresolved transaction.
        txn: TxnId,
    },
    /// A transaction has conflicting status records (two different commit
    /// times, or both a stamp and an abort) — e.g. Mala appending spurious
    /// `ABORT` records "to try to hide the existence of tuples that she
    /// regrets".
    ConflictingStatus {
        /// The transaction with conflicting records.
        txn: TxnId,
    },
    /// Commit times on `L` are not strictly increasing.
    CommitTimesNotMonotonic {
        /// Offset of the offending record.
        offset: u64,
    },
    /// Consecutive stamps/heartbeats are more than one regret interval
    /// apart with no crash recovery explaining the gap.
    RegretGapExceeded {
        /// Start of the gap.
        from: Timestamp,
        /// End of the gap.
        to: Timestamp,
    },
    /// No witness file exists for a regret interval the system should have
    /// been alive in.
    MissingWitness {
        /// The interval index.
        interval: u64,
    },
    /// A logged page-read hash does not match the replayed page content —
    /// the state-reversion attack.
    ReadHashMismatch {
        /// The page read.
        pgno: PageNo,
        /// Offset of the `READ` record.
        offset: u64,
    },
    /// A page split's outputs do not partition its input (plus declared
    /// intermediates).
    SplitMismatch {
        /// The split input page.
        old: PageNo,
    },
    /// A physical tuple removal with no justifying `ABORT` or `SHREDDED`.
    UnjustifiedUndo {
        /// The affected page.
        pgno: PageNo,
    },
    /// A page's final on-disk content differs from its replayed state.
    StateMismatch {
        /// The affected page.
        pgno: PageNo,
    },
    /// An internal page's final content differs from the replayed index.
    IndexMismatch {
        /// The affected page.
        pgno: PageNo,
    },
    /// A page failed structural validation or its checksum.
    BadPage {
        /// The affected page.
        pgno: PageNo,
        /// Why.
        reason: String,
    },
    /// A B+-tree physical-integrity failure (Figure 2 attacks).
    TreeIntegrity(IntegrityError),
    /// A version listed in a `SHREDDED` record is still present.
    ShredIncomplete {
        /// Owning relation.
        rel: RelId,
        /// Tuple key.
        key: Vec<u8>,
    },
    /// A shredded version had not expired under the retention policy.
    ShredOfUnexpired {
        /// Owning relation.
        rel: RelId,
        /// Tuple key.
        key: Vec<u8>,
    },
    /// A shredded version was covered by an active litigation hold.
    ShredOfHeld {
        /// Owning relation.
        rel: RelId,
        /// Tuple key.
        key: Vec<u8>,
        /// The violated hold.
        hold: String,
    },
    /// A migrated page's WORM copy does not match its replayed state.
    MigrationMismatch {
        /// The migrated page.
        pgno: PageNo,
    },
    /// The previous snapshot failed to load or verify.
    SnapshotInvalid {
        /// Why.
        reason: String,
    },
    /// The compliance log or stamp index is unreadable.
    LogUnreadable {
        /// Why.
        reason: String,
    },
    /// The WORM WAL tail records a committed transaction that the
    /// compliance log and database do not reflect — evidence the local WAL
    /// was wiped within the regret window (the attack the WORM-resident
    /// tail exists to defeat, Section IV-B).
    WalTailInconsistent {
        /// The transaction whose durable commit vanished.
        txn: TxnId,
    },
    /// A WORM file's backing store is *shorter* than its trusted metadata
    /// length — acknowledged compliance-log bytes have been destroyed. The
    /// WORM device promises term immutability; a truncated tail means that
    /// promise (the architecture's root of trust) was violated, so the
    /// auditor names the file rather than failing with an I/O error.
    WormTruncated {
        /// The damaged WORM file.
        file: String,
        /// Length the trusted metadata acknowledges.
        trusted_len: u64,
        /// Length actually present on the backing store.
        backing_len: u64,
    },
    /// A transaction prepared for cross-shard 2PC has no decision record on
    /// this shard's log. Prepare and decision land in the same epoch (the
    /// coordinator resolves in-doubt transactions before any seal), so a
    /// missing decision is either a dropped record or an atomicity breach.
    TwoPcUndecided {
        /// The global (cross-shard) transaction id.
        gtxn: u64,
        /// The shard-local participant transaction.
        txn: TxnId,
    },
    /// A shard's 2PC decision record disagrees with the participant's
    /// actual outcome on that shard: a commit decision with no
    /// `STAMP_TRANS`, or an abort decision that was stamped anyway. This is
    /// the flipped-decision / diverged-outcome attack.
    TwoPcOutcomeMismatch {
        /// The global transaction id.
        gtxn: u64,
        /// The shard-local participant transaction.
        txn: TxnId,
        /// What the decision record on this shard's log says.
        decided_commit: bool,
    },
    /// One shard's log carries two 2PC decision records with opposite
    /// outcomes for the same global transaction.
    TwoPcConflictingDecision {
        /// The global transaction id.
        gtxn: u64,
    },
    /// A 2PC decision record with no matching prepare on this shard's log —
    /// a forged or misrouted decision.
    TwoPcOrphanDecision {
        /// The global transaction id.
        gtxn: u64,
    },
    /// The cross-shard join found participants of one global transaction
    /// whose logged decisions disagree — atomicity was violated across the
    /// deployment even though each shard may be locally consistent.
    TwoPcDivergentDecision {
        /// The global transaction id.
        gtxn: u64,
    },
}

/// Timing and volume measurements (the audit-time table of Section VII-c).
/// Every driver fills every field: a batch audit reports its one ingest, a
/// streaming verdict the sum over the polls that ingested the epoch.
#[derive(Clone, Copy, Debug, Default)]
pub struct AuditStats {
    /// Seed: time to load + fold the previous snapshot (µs wall).
    pub snapshot_us: u64,
    /// Ingest: time to read, decode, replay and merge `L` (µs wall; the four
    /// `log_*_us` stages below are its parts).
    pub log_scan_us: u64,
    /// Finalize: final-state scan, completeness compare and tree checks
    /// (µs wall).
    pub final_state_us: u64,
    /// Records scanned in `L`.
    pub records_scanned: u64,
    /// Bytes of `L` scanned.
    pub log_bytes: u64,
    /// `READ` hashes verified.
    pub reads_verified: u64,
    /// Tuples folded from the final state.
    pub tuples_final: u64,
    /// Pages in the new snapshot.
    pub snapshot_pages: u64,
    /// Worker threads the audit ran on (1 for [`AuditConfig::serial`]).
    pub threads_used: u64,
    /// Decode chunks the `L` scan was split into.
    pub l_chunks: u64,
    /// Ingest: frame walk + chunked checksum/decode of `L` (µs wall).
    pub log_decode_us: u64,
    /// Ingest: status pre-scan, shred/undo decisions and component routing
    /// (µs; sequential).
    pub log_route_us: u64,
    /// Ingest: sharded replay of `L` (µs wall across the pool).
    pub log_replay_us: u64,
    /// Ingest: merge of shard results and the ordered fold (µs; sequential).
    pub log_merge_us: u64,
    /// Finalize: physical tree verification (µs summed over its pool tasks).
    pub tree_verify_us: u64,
    /// Finalize: the `Df` side of the `Df = Ds ∪ L` completeness join — the
    /// final-state scan, fold and page compare (µs summed over its pool
    /// tasks; on one thread this and `tree_verify_us` add up to
    /// `final_state_us`).
    pub completeness_join_us: u64,
    /// Snapshot tuples whose ADD-HASH fold was skipped because a sealed
    /// WORM checkpoint from the previous clean audit already attests the
    /// prefix (0 = the full snapshot was re-folded).
    pub snapshot_prefix_skipped: u64,
    /// Finalize: WAL-tail cross-check (µs wall): reading and decoding the
    /// tail (`wal_tail_read_us`), one chain read per distinct key (fanned
    /// out on the pool), and the per-insert presence answers.
    pub wal_tail_us: u64,
    /// Finalize: the WAL-tail check's WORM read plus WAL decode (µs wall;
    /// part of `wal_tail_us`).
    pub wal_tail_read_us: u64,
    /// Finalize: distinct `(rel, key)`s whose chains the WAL-tail check
    /// read (at most the stamped tail transactions' insert count).
    pub wal_tail_keys: u64,
    /// Streaming auditor: records appended to `L` this epoch but not yet
    /// ingested by the stream at the last poll (0 for batch audits and for
    /// a fully caught-up stream).
    pub audit_lag_records: u64,
    /// Streaming auditor: wall-clock µs a verdict spent catching up and
    /// finalizing (0 for batch audits).
    pub audit_lag_us: u64,
}

/// A per-tuple forensic finding, localizing *what* was tampered where. The
/// paper: storing the full snapshot "enables fine-grained forensic analysis
/// if the next audit finds evidence of tampering."
#[derive(Clone, Debug, PartialEq)]
pub enum TupleFinding {
    /// A tuple exists on disk with a different value/time than every logged
    /// version at its position.
    Altered {
        /// Page holding the tuple.
        pgno: PageNo,
        /// Owning relation.
        rel: RelId,
        /// Tuple key.
        key: Vec<u8>,
        /// Tuple-order number.
        seq: u16,
        /// The value the log history predicts.
        expected: Vec<u8>,
        /// The value found on disk.
        found: Vec<u8>,
    },
    /// A logged tuple version is gone from its page without an `UNDO` or
    /// `SHREDDED` justification.
    Missing {
        /// Page that should hold the tuple.
        pgno: PageNo,
        /// Owning relation.
        rel: RelId,
        /// Tuple key.
        key: Vec<u8>,
        /// Tuple-order number.
        seq: u16,
    },
    /// A tuple exists on disk that no logged insertion accounts for
    /// (post-hoc insertion).
    Forged {
        /// Page holding the tuple.
        pgno: PageNo,
        /// Owning relation.
        rel: RelId,
        /// Tuple key.
        key: Vec<u8>,
        /// Tuple-order number.
        seq: u16,
    },
}

/// The outcome of an audit.
#[derive(Debug)]
pub struct AuditReport {
    /// The epoch audited.
    pub epoch: u64,
    /// Every violation found (empty for a compliant database).
    pub violations: Vec<Violation>,
    /// Per-tuple forensic localization of state mismatches (empty when
    /// clean; complements the coarse [`Violation`] list).
    pub forensics: Vec<TupleFinding>,
    /// Measurements.
    pub stats: AuditStats,
}

impl AuditReport {
    /// Whether the database passed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// How an audit runs. What it checks — the regret interval, and whether
/// `READ` hashes are verified — belongs to the deployment and comes from its
/// [`ComplianceConfig`] when the [`Auditor`] is built.
#[derive(Clone, Copy, Debug)]
pub struct AuditConfig {
    /// Worker threads for every fan-out of the audit. `0` = auto (the
    /// machine's available parallelism); `1` runs each stage inline. Values
    /// above the core count still help when the database lives on
    /// high-latency remote storage: the final-state scan is I/O-bound and
    /// blocked readers overlap.
    pub audit_threads: usize,
    /// Records per decode chunk of the `L` scan. Small values stress chunk
    /// boundaries; the default amortizes dispatch overhead.
    pub l_chunk_records: usize,
    /// Use sealed WORM replay checkpoints from prior clean audits to skip
    /// re-folding the snapshot prefix of the completeness hash. Disabled by
    /// the checkpoint regression tests to exercise the full re-fold path.
    pub use_checkpoints: bool,
}

/// Default decode-chunk size for the `L` scan.
pub const DEFAULT_L_CHUNK_RECORDS: usize = 4096;

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            audit_threads: 0,
            l_chunk_records: DEFAULT_L_CHUNK_RECORDS,
            use_checkpoints: true,
        }
    }
}

impl AuditConfig {
    /// The audit on one thread: every stage runs inline and in order, the
    /// paper's literal single pass. The differential suites compare every
    /// other thread count, chunk size and poll cadence against it.
    pub fn serial() -> AuditConfig {
        AuditConfig { audit_threads: 1, ..AuditConfig::default() }
    }

    /// Returns the config with an explicit worker-thread count (0 = auto).
    pub fn with_threads(mut self, threads: usize) -> AuditConfig {
        self.audit_threads = threads;
        self
    }

    /// Returns the config with an explicit decode-chunk size.
    pub fn with_chunk_records(mut self, records: usize) -> AuditConfig {
        self.l_chunk_records = records;
        self
    }

    /// Returns the config with the checkpoint fast path enabled/disabled.
    pub fn with_checkpoints(mut self, on: bool) -> AuditConfig {
        self.use_checkpoints = on;
        self
    }
}

/// The number of worker threads a config resolves to
/// (`available_parallelism` for `audit_threads == 0`).
fn effective_threads(config: &AuditConfig) -> usize {
    match config.audit_threads {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    }
}

/// The auditor.
pub struct Auditor {
    worm: Arc<WormServer>,
    snapshots: SnapshotManager,
    config: AuditConfig,
    /// The regret interval the deployment promises.
    regret_interval: Duration,
    /// Verify logged `READ` hashes (the hash-page-on-read refinement).
    verify_reads: bool,
}

/// Result of an audit, including the material to write the next snapshot.
pub struct AuditOutcome {
    /// The report.
    pub report: AuditReport,
    /// The verified final state, ready to become the next snapshot.
    pub snapshot_pages: Vec<SnapPage>,
    /// The fold over the final canonical tuple set.
    pub tuple_hash: AddHash,
    /// This shard's 2PC book (empty for an unsharded deployment), for the
    /// deployment-level cross-shard join.
    pub two_pc: TwoPcBook,
}

fn fold_identity(t: &TupleVersion, commit: Timestamp) -> Vec<u8> {
    let mut b = t.canonical_bytes_with_time(commit);
    b.extend_from_slice(&t.seq.to_le_bytes());
    b
}

/// A version's commit time: its own, or its transaction's `STAMP_TRANS`.
fn commit_time(t: &TupleVersion, stamps: &HashMap<TxnId, (Timestamp, u64)>) -> Option<Timestamp> {
    match t.time {
        WriteTime::Committed(ct) => Some(ct),
        WriteTime::Pending(txn) => stamps.get(&txn).map(|(ct, _)| *ct),
    }
}

/// `CCDB_AUDIT_DEBUG=1` dumps the replayed record stream with offsets, and
/// both sides of every mismatch — the fastest way to localize an audit
/// divergence when replaying a torture seed.
fn audit_debug() -> bool {
    static DEBUG: OnceLock<bool> = OnceLock::new();
    *DEBUG.get_or_init(|| std::env::var("CCDB_AUDIT_DEBUG").is_ok())
}

/// A tuple resolved for comparison: `(key, seq, commit-or-pending, eol, value)`.
type ResolvedTuple = (Vec<u8>, u16, (u8, u64), bool, Vec<u8>);

fn resolve_tuple(t: &TupleVersion, stamps: &HashMap<TxnId, (Timestamp, u64)>) -> ResolvedTuple {
    let time = match t.time {
        WriteTime::Committed(ct) => (1u8, ct.0),
        WriteTime::Pending(txn) => match stamps.get(&txn) {
            Some((ct, _)) => (1u8, ct.0),
            None => (0u8, txn.0),
        },
    };
    (t.key.clone(), t.seq, time, t.end_of_life, t.value.clone())
}

// ---------------------------------------------------------------------------
// WORM replay checkpoints
// ---------------------------------------------------------------------------

/// WORM name of the sealed replay checkpoint written after a clean audit of
/// `epoch`: it attests the snapshot's tuple ADD-HASH so the *next* audit can
/// skip re-folding the sealed prefix of the completeness universe.
pub fn audit_ckpt_name(epoch: u64) -> String {
    format!("auditckpt/epoch-{epoch}")
}

const CKPT_MAGIC: u64 = 0xCCDB_AC99;

// ---------------------------------------------------------------------------
// Cross-shard 2PC book
// ---------------------------------------------------------------------------

/// One shard's view of the cross-shard 2PC traffic in its log: every
/// `2PC_PREPARE` and `2PC_DECISION` record, collected by the ingest's
/// sequential pre-scan (the records are global-ordering facts, like status
/// records). Exposed on [`AuditOutcome`] so a deployment-level auditor can
/// join the books of all shards and catch decisions that diverge *between*
/// shards even when each shard is locally consistent.
#[derive(Clone, Debug, Default)]
pub struct TwoPcBook {
    /// `gtxn → (local participant txn, shard id, participant set, offset)`.
    pub prepares: BTreeMap<u64, (TxnId, u32, Vec<u32>, u64)>,
    /// `gtxn → (commit?, offset of first decision)`.
    pub decisions: BTreeMap<u64, (bool, u64)>,
    /// Global transactions with two opposite-outcome decisions on this log.
    pub conflicting: Vec<u64>,
}

impl TwoPcBook {
    /// Records a `2PC_PREPARE` replayed at `off`.
    pub fn add_prepare(&mut self, off: u64, gtxn: u64, txn: TxnId, shard: u32, parts: Vec<u32>) {
        // First-win: a crash-recovery duplicate of the same prepare is
        // byte-identical and harmless.
        self.prepares.entry(gtxn).or_insert((txn, shard, parts, off));
    }

    /// Records a `2PC_DECISION` replayed at `off`.
    pub fn add_decision(&mut self, off: u64, gtxn: u64, commit: bool) {
        match self.decisions.get(&gtxn) {
            Some((prev, _)) if *prev != commit => {
                if !self.conflicting.contains(&gtxn) {
                    self.conflicting.push(gtxn);
                }
            }
            Some(_) => {} // idempotent re-append (crash resolution)
            None => {
                self.decisions.insert(gtxn, (commit, off));
            }
        }
    }

    /// Ingests one log record if it is 2PC traffic (convenience for the
    /// sequential collection passes).
    pub fn ingest(&mut self, off: u64, rec: &LogRecord) {
        match rec {
            LogRecord::TwoPcPrepare { gtxn, txn, shard, participants } => {
                self.add_prepare(off, *gtxn, *txn, *shard, participants.clone());
            }
            LogRecord::TwoPcDecision { gtxn, commit } => {
                self.add_decision(off, *gtxn, *commit);
            }
            _ => {}
        }
    }
}

/// The per-shard 2PC discipline: every prepare must have a decision, every decision a prepare, no
/// conflicting decisions, and the decision must agree with the
/// participant's actual outcome (stamped iff decided-commit).
fn two_pc_checks(
    book: &TwoPcBook,
    stamps: &HashMap<TxnId, (Timestamp, u64)>,
    v: &mut Vec<Violation>,
) {
    for gtxn in &book.conflicting {
        v.push(Violation::TwoPcConflictingDecision { gtxn: *gtxn });
    }
    for (gtxn, (txn, _shard, _parts, _off)) in &book.prepares {
        match book.decisions.get(gtxn) {
            None => v.push(Violation::TwoPcUndecided { gtxn: *gtxn, txn: *txn }),
            Some((commit, _)) => {
                let stamped = stamps.contains_key(txn);
                if *commit != stamped {
                    v.push(Violation::TwoPcOutcomeMismatch {
                        gtxn: *gtxn,
                        txn: *txn,
                        decided_commit: *commit,
                    });
                }
            }
        }
    }
    for gtxn in book.decisions.keys() {
        if !book.prepares.contains_key(gtxn) {
            v.push(Violation::TwoPcOrphanDecision { gtxn: *gtxn });
        }
    }
}

/// The deployment-level cross-shard join: given every shard's
/// [`TwoPcBook`], flag global transactions whose decisions disagree across
/// participants. Each shard's book may be locally clean; only the join sees
/// the divergence.
pub fn two_pc_cross_shard_join(books: &[TwoPcBook]) -> Vec<Violation> {
    let mut outcome: BTreeMap<u64, bool> = BTreeMap::new();
    let mut divergent: Vec<u64> = Vec::new();
    for book in books {
        for (gtxn, (commit, _)) in &book.decisions {
            match outcome.get(gtxn) {
                Some(prev) if prev != commit => {
                    if !divergent.contains(gtxn) {
                        divergent.push(*gtxn);
                    }
                }
                Some(_) => {}
                None => {
                    outcome.insert(*gtxn, *commit);
                }
            }
        }
    }
    divergent.into_iter().map(|gtxn| Violation::TwoPcDivergentDecision { gtxn }).collect()
}

/// Accumulator for the final-state scan: partial completeness fold,
/// page-compare violations, forensics, and snapshot material. One per
/// page-range task, merged in range order (ADD-HASH addition is
/// grouping-independent, so `h_final` is byte-identical).
struct FinalScan {
    h_final: AddHash,
    tuples_final: u64,
    violations: Vec<Violation>,
    forensics: Vec<TupleFinding>,
    snapshot_pages: Vec<SnapPage>,
}

impl FinalScan {
    fn new() -> FinalScan {
        FinalScan {
            h_final: AddHash::new(),
            tuples_final: 0,
            violations: Vec::new(),
            forensics: Vec::new(),
            snapshot_pages: Vec::new(),
        }
    }
}

/// Scans one final-state page: folds its resolvable tuples into the
/// completeness hash, compares it against the replayed state (with
/// per-tuple forensics on mismatch), and captures it for the next snapshot.
fn scan_final_page(
    disk: &DiskManager,
    worm: &WormServer,
    pgno: PageNo,
    states: &HashMap<PageNo, PageState>,
    stamps: &HashMap<TxnId, (Timestamp, u64)>,
    out: &mut FinalScan,
) -> Result<()> {
    let raw = disk.read_raw(pgno)?;
    if raw.iter().all(|b| *b == 0) {
        return Ok(()); // allocated, never written
    }
    let page = match Page::from_bytes(&raw) {
        Ok(p) => p,
        Err(e) => {
            out.violations.push(Violation::BadPage { pgno, reason: e.to_string() });
            return Ok(());
        }
    };
    if !page.verify_checksum() {
        out.violations.push(Violation::BadPage { pgno, reason: "checksum mismatch".into() });
    }
    match page.page_type() {
        PageType::Free => {}
        PageType::Leaf => {
            let mut tuples = Vec::new();
            for cell in page.cells() {
                match TupleVersion::decode_cell(cell) {
                    Ok(t) => tuples.push(t),
                    Err(e) => out
                        .violations
                        .push(Violation::BadPage { pgno, reason: format!("cell: {e}") }),
                }
            }
            // A live historical page with no replayed state can be the
            // conventional copy of a migrated page surviving a crash that
            // lost its retire: the MIGRATE record removed it from the
            // replay and the completeness universe, but the Free image
            // never became durable. Harmless iff the surviving bytes are
            // exactly the verified immutable WORM copy (its content stays
            // out of the final fold, matching the MIGRATE's removal);
            // anything else is judged below as usual.
            let replay_empty = states.get(&pgno).map(|st| st.tuples.is_empty()).unwrap_or(true);
            if replay_empty && page.is_historical() && !tuples.is_empty() {
                let name = crate::migrate::migrated_page_name(page.rel_id(), pgno);
                let survivor = worm
                    .read_all(&name)
                    .ok()
                    .and_then(|b| MigratedPage::decode(&b).ok())
                    .is_some_and(|mp| mp.cells.iter().map(|c| c.as_slice()).eq(page.cells()));
                if survivor {
                    return Ok(());
                }
            }
            for t in &tuples {
                if let Some(ct) = commit_time(t, stamps) {
                    out.h_final.add(&fold_identity(t, ct));
                    out.tuples_final += 1;
                } else if let WriteTime::Pending(txn) = t.time {
                    out.violations.push(Violation::UnstampedTransaction { txn });
                }
            }
            // Replay comparison, with per-tuple forensic diffing on
            // mismatch: match disk vs replayed tuples by (key, seq);
            // value/time disagreements are alterations, replay-only
            // entries are missing tuples, disk-only entries are
            // forgeries.
            let replayed: &[TupleVersion] =
                states.get(&pgno).map(|st| st.tuples.as_slice()).unwrap_or(&[]);
            let mut a: Vec<ResolvedTuple> =
                tuples.iter().map(|t| resolve_tuple(t, stamps)).collect();
            let mut b: Vec<ResolvedTuple> =
                replayed.iter().map(|t| resolve_tuple(t, stamps)).collect();
            a.sort();
            b.sort();
            if a != b {
                out.violations.push(Violation::StateMismatch { pgno });
                let rel = page.rel_id();
                let mut disk_by: HashMap<(Vec<u8>, u16), &TupleVersion> =
                    tuples.iter().map(|t| ((t.key.clone(), t.seq), t)).collect();
                for r in replayed {
                    match disk_by.remove(&(r.key.clone(), r.seq)) {
                        Some(d) => {
                            if resolve_tuple(d, stamps) != resolve_tuple(r, stamps) {
                                out.forensics.push(TupleFinding::Altered {
                                    pgno,
                                    rel,
                                    key: r.key.clone(),
                                    seq: r.seq,
                                    expected: r.value.clone(),
                                    found: d.value.clone(),
                                });
                            }
                        }
                        None => out.forensics.push(TupleFinding::Missing {
                            pgno,
                            rel,
                            key: r.key.clone(),
                            seq: r.seq,
                        }),
                    }
                }
                for ((key, seq), _d) in disk_by {
                    out.forensics.push(TupleFinding::Forged { pgno, rel, key, seq });
                }
            }
            out.snapshot_pages.push(SnapPage {
                pgno,
                rel: page.rel_id(),
                kind: PageType::Leaf,
                historical: page.is_historical(),
                aux: page.aux(),
                cells: page.cells().map(|c| c.to_vec()).collect(),
            });
        }
        PageType::Inner => {
            let cells: Vec<Vec<u8>> = page.cells().map(|c| c.to_vec()).collect();
            if let Some(st) = states.get(&pgno) {
                let mut a = cells.clone();
                let mut b = st.cells.clone();
                a.sort();
                b.sort();
                if a != b {
                    if audit_debug() {
                        let only_disk: Vec<_> = a.iter().filter(|c| !b.contains(c)).collect();
                        let only_replay: Vec<_> = b.iter().filter(|c| !a.contains(c)).collect();
                        eprintln!(
                            "INDEX MISMATCH {pgno:?}: disk={} replay={} disk-only={only_disk:?} replay-only={only_replay:?}",
                            a.len(),
                            b.len()
                        );
                    }
                    out.violations.push(Violation::IndexMismatch { pgno });
                }
            }
            out.snapshot_pages.push(SnapPage {
                pgno,
                rel: page.rel_id(),
                kind: PageType::Inner,
                historical: false,
                aux: page.aux(),
                cells,
            });
        }
        PageType::Meta => {}
    }
    Ok(())
}

/// Replayed pages that no longer exist on disk (and were not migrated)
/// indicate shredding of whole pages outside the protocol.
fn leftover_states_check(
    states: &HashMap<PageNo, PageState>,
    migrated: &HashSet<PageNo>,
    page_count: u64,
    v: &mut Vec<Violation>,
) {
    for (pgno, st) in states {
        if st.kind == Some(PageType::Leaf)
            && !st.tuples.is_empty()
            && !migrated.contains(pgno)
            && pgno.0 >= page_count
        {
            v.push(Violation::StateMismatch { pgno: *pgno });
        }
    }
}

/// Physical tree integrity (Figure 2 checks) for one relation, over a raw
/// (cache-bypassing) pool shared by concurrent tree tasks.
fn check_relation_tree(engine: &Engine, raw_pool: &Arc<BufferPool>, rel: RelId) -> Vec<Violation> {
    let mut v = Vec::new();
    if let Ok(tree) = engine.tree(rel) {
        let shadow = BTree::open(
            raw_pool.clone(),
            engine.clock().clone(),
            rel,
            ccdb_btree::SplitPolicy::KeyOnly,
            tree.root(),
            vec![],
        );
        match check_tree(raw_pool, &shadow) {
            Ok(errs) => v.extend(errs.into_iter().map(Violation::TreeIntegrity)),
            Err(e) => {
                v.push(Violation::BadPage { pgno: tree.root(), reason: format!("tree walk: {e}") })
            }
        }
    }
    v
}

/// Canonicalizes a report: findings are sorted under a total (Debug-string)
/// order, so any two runs — at any thread count, batch or streaming — yield
/// byte-identical reports. (`HashMap` iteration and shard order otherwise
/// leak nondeterministic ordering into several phases.)
fn canonicalize(report: &mut AuditReport) {
    report.violations.sort_by_cached_key(|x| format!("{x:?}"));
    report.forensics.sort_by_cached_key(|x| format!("{x:?}"));
}

/// WORM device integrity. Before trusting any artifact, confirm each live
/// WORM file's backing store is at least as long as its trusted metadata
/// says. A short backing file means acknowledged bytes were destroyed (tail
/// truncation) — the named violation a compliance officer acts on, as
/// opposed to an unreadable-log I/O error.
fn worm_integrity(worm: &WormServer, v: &mut Vec<Violation>) {
    for (name, meta) in worm.list("") {
        if let Ok(backing) = worm.backing_len(&name) {
            if backing < meta.len {
                v.push(Violation::WormTruncated {
                    file: name,
                    trusted_len: meta.len,
                    backing_len: backing,
                });
            }
        }
    }
}

fn shred_legality(engine: &Engine, shreds: &ShredMap, v: &mut Vec<Violation>) {
    // A shred is illegal only against holds active *at the shred* — a hold
    // placed afterwards must not retroactively indict an already-legal
    // shred, and a hold released since does not pardon one that violated
    // it. Memoized per shred time (vacuum stamps a whole pass identically).
    let mut holds_memo: BTreeMap<Timestamp, Vec<Hold>> = BTreeMap::new();
    for ((rel, key, start), (shred_time, consumed)) in shreds {
        if consumed.is_empty() {
            v.push(Violation::ShredIncomplete { rel: *rel, key: key.clone() });
        }
        let rel_name = engine.user_relations().into_iter().find(|(_, r)| r == rel).map(|(n, _)| n);
        if let Some(name) = rel_name {
            let retention = retention_as_of(engine, &name, *shred_time).unwrap_or(None);
            match retention {
                Some(rho) => {
                    if start.saturating_add(rho) > *shred_time {
                        v.push(Violation::ShredOfUnexpired { rel: *rel, key: key.clone() });
                    }
                }
                None => v.push(Violation::ShredOfUnexpired { rel: *rel, key: key.clone() }),
            }
            let holds = holds_memo
                .entry(*shred_time)
                .or_insert_with(|| holds_as_of(engine, *shred_time).unwrap_or_default());
            for h in holds.iter() {
                if h.covers(&name, key) {
                    v.push(Violation::ShredOfHeld {
                        rel: *rel,
                        key: key.clone(),
                        hold: h.id.clone(),
                    });
                }
            }
        }
    }
}

impl Auditor {
    /// Creates an auditor of the deployment `compliance` describes: its
    /// master seed (snapshot signing lineage), regret interval and mode
    /// (`READ` hashes are verified under hash-page-on-read).
    pub fn new(
        worm: Arc<WormServer>,
        compliance: &ComplianceConfig,
        config: AuditConfig,
    ) -> Auditor {
        Auditor {
            worm: worm.clone(),
            snapshots: SnapshotManager::new(worm, compliance.auditor_seed),
            config,
            regret_interval: compliance.regret_interval,
            verify_reads: compliance.mode == Mode::HashOnRead,
        }
    }

    /// The snapshot manager (exposed so the facade can write the post-audit
    /// snapshot after a clean report).
    pub fn snapshots(&self) -> &SnapshotManager {
        &self.snapshots
    }

    /// Audits `epoch`: verifies the database's final state against the
    /// previous snapshot and the epoch's compliance log. The engine must be
    /// quiescent (checkpointed, no active transactions); the auditor reads
    /// the final state from raw disk, bypassing the buffer cache and plugin.
    /// The report comes back canonicalized, so verdicts and finding sets
    /// are directly comparable across thread counts and drivers.
    pub fn audit(&self, engine: &Engine, epoch: u64) -> Result<AuditOutcome> {
        let mut state = AuditState::seed(self, epoch);
        state.ingest(None, true);
        state.finalize(engine)
    }

    /// Writes the sealed replay checkpoint for a just-audited-clean epoch:
    /// `magic ‖ epoch ‖ tuple ADD-HASH ‖ tuple count`. Idempotent (a
    /// checkpoint already on WORM is left alone — WORM files are immutable
    /// anyway).
    pub fn write_checkpoint(
        &self,
        epoch: u64,
        tuple_hash: &AddHash,
        tuples: u64,
        retention_until: Timestamp,
    ) -> Result<()> {
        let name = audit_ckpt_name(epoch);
        if self.worm.exists(&name) {
            return Ok(());
        }
        let mut w = ByteWriter::new();
        w.put_u64(CKPT_MAGIC);
        w.put_u64(epoch);
        w.put_bytes(&tuple_hash.to_bytes());
        w.put_u64(tuples);
        let f = self.worm.create(&name, retention_until)?;
        self.worm.append(&f, w.as_slice())?;
        self.worm.seal(&name)?;
        Ok(())
    }

    /// Loads a sealed replay checkpoint, or `None` if absent, unsealed, or
    /// malformed (the audit then falls back to the full re-fold — a missing
    /// checkpoint is never an error, only a missed optimization).
    fn load_checkpoint(&self, epoch: u64) -> Option<AddHash> {
        let name = audit_ckpt_name(epoch);
        let meta = self.worm.stat(&name).ok()?;
        if !meta.sealed {
            return None;
        }
        let bytes = self.worm.read_all(&name).ok()?;
        let mut r = ByteReader::new(&bytes);
        if r.get_u64().ok()? != CKPT_MAGIC || r.get_u64().ok()? != epoch {
            return None;
        }
        let h = r.get_bytes(64).ok()?;
        let mut b = [0u8; 64];
        b.copy_from_slice(h);
        Some(AddHash::from_bytes(&b))
    }
}

/// The `(key, rank)` order of an encoded index entry; undecodable cells sort
/// last (and will be flagged by the physical checks).
fn entry_order(cell: &[u8]) -> (Vec<u8>, (u8, u64)) {
    match ccdb_btree::IndexEntry::decode(cell) {
        Ok(e) => {
            let mut w = ccdb_common::ByteWriter::new();
            e.rank.encode(&mut w);
            let v = w.into_vec();
            (e.key, (v[0], u64::from_le_bytes(v[1..9].try_into().expect("8"))))
        }
        Err(_) => (vec![0xFF; 64], (0xFF, u64::MAX)),
    }
}

/// The litigation holds active as of `t`. Holds are version-tracked in a
/// normal relation (placement writes a version, release writes an
/// end-of-life version), so every hold id ever recorded is still
/// enumerable from the tree and resolvable as of any past instant.
fn holds_as_of(engine: &Engine, t: Timestamp) -> Result<Vec<Hold>> {
    let Some(rel) = engine.rel_id(HOLDS_RELATION) else {
        return Ok(Vec::new());
    };
    let mut ids: HashSet<Vec<u8>> = HashSet::new();
    engine.tree(rel)?.scan_range(
        (&[], TimeRank::MIN),
        (&[0xFF; 64], TimeRank::MAX),
        &mut |ver| {
            ids.insert(ver.key.clone());
            Ok(())
        },
    )?;
    let mut holds = Vec::new();
    let mut sorted: Vec<Vec<u8>> = ids.into_iter().collect();
    sorted.sort();
    for id in sorted {
        if let Some(val) = engine.read_as_of(rel, &id, t)? {
            holds.push(Hold::decode(&id, &val)?);
        }
    }
    Ok(holds)
}

/// Retention period for `rel_name` as of time `t`, read from the Expiry
/// relation's version history.
fn retention_as_of(engine: &Engine, rel_name: &str, t: Timestamp) -> Result<Option<Duration>> {
    let Some(expiry) = engine.rel_id(ccdb_engine::engine::EXPIRY_RELATION) else {
        return Ok(None);
    };
    Ok(engine.read_as_of(expiry, rel_name.as_bytes(), t)?.map(|val| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&val[..8]);
        Duration(u64::from_le_bytes(b))
    }))
}
