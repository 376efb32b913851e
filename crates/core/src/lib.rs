//! **The log-consistent compliant database architecture** — the paper's
//! primary contribution.
//!
//! The pieces, mapped to the paper's sections:
//!
//! | Module | Paper | Role |
//! |---|---|---|
//! | [`records`] | §IV–V, §VIII | The compliance-log record set (`NEW_TUPLE`, `STAMP_TRANS`, `ABORT`, `UNDO`, `READ`, `PAGE_SPLIT`, `MIGRATE`, `SHREDDED`, `START_RECOVERY`, heartbeats) and its byte framing |
//! | [`logger`] | §IV | The compliance logger: append/flush to the log `L` on WORM, the auxiliary stamp-index file, witness files, heartbeat records |
//! | [`plugin`] | §IV–V | The pread/pwrite plugin: page diffing against a pristine-copy cache (`NEW_TUPLE`/`UNDO`), hash-page-on-read (`READ` records), structure-modification logging, transaction lifecycle records |
//! | [`snapshot`] | §IV | Signed per-audit snapshots of the database state on WORM |
//! | [`proof`] | — | Signed epoch heads and the per-sealed-epoch proof index behind client-verifiable reads (`ccdb-verifier` owns the formats) |
//! | [`audit`] | §IV–VI, §VIII | The auditor: single-pass tuple-completeness check via the commutative incremental hash, regret-gap and record-conflict checks, page replay for read verification, split/migration verification, shred verification, physical integrity checks |
//! | [`shred`] | §VIII | Auditable vacuuming of expired tuples, plus **litigation holds** (the paper's future work) |
//! | [`migrate`] | §VI | WORM migration of time-split historical pages |
//! | [`db`] | — | The [`db::CompliantDb`] facade wiring engine + plugin + WORM together in the three modes of Figure 3 (regular / log-consistent / +hash-on-read) |
//!
//! The threat-model parameters — the **regret interval** and the **query
//! verification interval** — appear as [`db::ComplianceConfig`] fields and as
//! audit checks respectively.

#![forbid(unsafe_code)]

pub mod audit;
pub mod db;
pub mod logger;
pub mod migrate;
pub mod plugin;
pub mod proof;
pub mod records;
pub mod shard;
pub mod shred;
mod signed;
pub mod snapshot;
pub mod tenant;

pub use audit::stream::{StreamAuditor, StreamStats, TamperAlert};
pub use audit::{
    audit_ckpt_name, AuditConfig, AuditOutcome, AuditReport, AuditStats, Auditor, TupleFinding,
    Violation, DEFAULT_L_CHUNK_RECORDS,
};
pub use db::{ComplianceConfig, CompliantDb, Mode, ProofStats, VerificationTicket};
pub use logger::ComplianceLogger;
pub use plugin::CompliancePlugin;
pub use proof::{epoch_head_name, EpochHeadManager, ProvenRead, SignedHead};
pub use records::LogRecord;
pub use shard::{DeploymentAudit, DistTxn, ShardMap, ShardedDb};
pub use shred::{Hold, Vacuum};
pub use snapshot::SnapshotManager;
pub use tenant::TenantRegistry;
