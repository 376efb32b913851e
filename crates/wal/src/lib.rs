//! Write-ahead logging for the transaction-time engine.
//!
//! The WAL lives on **conventional read/write media** — it is one of the
//! files the adversary can edit — but its **tail (the last two regret
//! intervals) is mirrored to WORM** ([`WalWriter::set_tail_mirror`]): if the
//! DBMS crashes within one regret interval of a commit, some `NEW_TUPLE`
//! records may not have reached the compliance log yet, and the WORM-resident
//! WAL tail is then the only tamper-proof evidence of those updates
//! (Section IV-B). The auditor cross-checks recovery's compliance-log entries
//! against this tail.
//!
//! Recovery itself is **logical**: `Insert` records carry `(rel, key, value)`
//! rather than page images, and the engine's recovery replays them through
//! the ordinary B+-tree path with *ensure-present* / *ensure-absent*
//! semantics, which is idempotent and independent of physical layout. That
//! choice is deliberate: after a crash the physical page layout may differ
//! from the pre-crash layout, and the compliance plugin simply logs the
//! recovery-time page writes as fresh `NEW_TUPLE` records — "recovery can
//! cause L to contain duplicate NEW_TUPLE records; the auditor uses a
//! temporary hash table to identify duplicates" (Section IV-B).

#![forbid(unsafe_code)]

pub mod log;
pub mod record;

pub use log::{TailMirror, WalReader, WalWriter};
pub use record::{PageOp, RelMetaOp, WalRecord};

use ccdb_common::{Lsn, RelId, Result, TxnId};

/// How the B+-tree reports every page mutation for redo logging. The engine
/// implements this over its [`WalWriter`]; trees run un-logged when no sink
/// is installed (standalone tests, the auditor's read-only reconstructions).
pub trait PageOpSink: Send + Sync {
    /// Logs one physiological page op; returns the record's LSN so the tree
    /// can stamp it into the page header.
    fn log_page_op(&self, txn: TxnId, op: &PageOp) -> Result<Lsn>;

    /// Logs a relation-metadata change (root move, historical-list change).
    fn log_rel_meta(&self, rel: RelId, meta: &RelMetaOp) -> Result<Lsn>;
}
