//! The transaction-time DBMS engine — the "Berkeley DB plus temporal
//! support" substrate the paper builds on.
//!
//! What it provides:
//!
//! * **Transaction-time relations**: every `INSERT`/`UPDATE` creates a new
//!   physical tuple version; `DELETE` inserts an end-of-life version; the
//!   full version history of every tuple stays queryable (`AS OF` reads).
//! * **Lazy timestamping** (Salzberg): versions are written with the
//!   transaction id and stamped with the commit time later by a background
//!   stamper — "a transaction-time DBMS often uses the transaction ID as a
//!   temporary commit time value in a tuple, and does a lazy update of the
//!   commit time later" (Section IV).
//! * **Transactions** with WAL-backed atomicity: steal/no-force buffering,
//!   physiological redo, logical (idempotent) undo, fuzzy-free checkpoints,
//!   and crash recovery (`Engine::open` recovers automatically; a crash is
//!   simulated by dropping every volatile structure).
//! * **Compliance seams**: the page store can be wrapped (the pread/pwrite
//!   plugin), trees report structure modifications, and [`EngineHooks`]
//!   delivers transaction lifecycle and recovery events — everything
//!   `ccdb-core` needs to implement the log-consistent architecture without
//!   touching this crate's internals.
//!
//! Concurrency model: the engine executes transactions from many threads.
//! Commits run through a **group-commit pipeline** (`commit` module): a
//! leader flushes the WAL batch with one fsync + one WORM tail-mirror
//! append while followers park, and finalization (commit-time publication,
//! stamping work, compliance `on_commit`) drains in strict ticket order so
//! the compliance log's `STAMP_TRANS` order matches commit-time order. The
//! engine's maps are `RwLock`/sharded so readers never contend with
//! writers; see the lock hierarchy documented on [`Engine`] and DESIGN.md
//! §9. A lock manager is still out of scope: writers to the *same* key
//! should be externally coordinated; isolation anomalies are not part of
//! the threat model or the evaluation.

#![forbid(unsafe_code)]

pub mod catalog;
pub(crate) mod commit;
pub mod engine;
pub mod hooks;
pub mod recovery;

pub use catalog::{Catalog, RelationInfo};
pub use engine::{Engine, EngineConfig, EngineStats, DEFAULT_STAMP_QUEUE_LIMIT};
pub use hooks::EngineHooks;
pub use recovery::RecoveryReport;
