//! **ccdb** — a regulatory-compliant (term-immutable) database management
//! system: a from-scratch Rust reproduction of *"An Architecture for
//! Regulatory Compliant Database Management"* (Mitra, Winslett, Snodgrass,
//! Yaduvanshi, Ambokar — ICDE 2009).
//!
//! The facade re-exports the workspace crates:
//!
//! * [`compliance`] (`ccdb-core`) — the paper's contribution: the
//!   log-consistent architecture ([`compliance::CompliantDb`]), the
//!   compliance logger/plugin, the auditor, hash-page-on-read, WORM
//!   migration, auditable shredding, litigation holds;
//! * [`engine`] — the transaction-time DBMS substrate (versioned relations,
//!   lazy timestamping, WAL, crash recovery);
//! * [`btree`] — versioned B+-trees and time-split B+-trees;
//! * [`storage`] — slotted pages, buffer pool, the pread/pwrite seam;
//! * [`wal`] — write-ahead logging;
//! * [`worm`] — the trusted WORM compliance-storage simulator;
//! * [`crypto`] — SHA-256, the commutative incremental set hash (ADD-HASH),
//!   the sequential page hash `Hs`, Lamport one-time signatures;
//! * [`adversary`] — "Mala", the threat-model attack toolkit;
//! * [`tpcc`] — the TPC-C workload used by the paper's evaluation;
//! * [`common`] — ids, clocks, errors, codecs.
//!
//! # Quickstart
//!
//! ```
//! use ccdb::compliance::{ComplianceConfig, CompliantDb, Mode};
//! use ccdb::btree::SplitPolicy;
//! use ccdb::common::{Duration, VirtualClock};
//! use std::sync::Arc;
//!
//! let dir = std::env::temp_dir().join(format!("ccdb-doc-{}", std::process::id()));
//! let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(10)));
//! let db = CompliantDb::open(&dir, clock, ComplianceConfig {
//!     mode: Mode::HashOnRead,
//!     ..ComplianceConfig::default()
//! }).unwrap();
//!
//! let accounts = db.create_relation("accounts", SplitPolicy::KeyOnly).unwrap();
//! let txn = db.begin().unwrap();
//! db.write(txn, accounts, b"alice", b"balance=100").unwrap();
//! db.commit(txn).unwrap();
//!
//! let report = db.audit().unwrap();
//! assert!(report.is_clean());
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]

pub use ccdb_adversary as adversary;
pub use ccdb_btree as btree;
pub use ccdb_common as common;
pub use ccdb_core as compliance;
pub use ccdb_crypto as crypto;
pub use ccdb_engine as engine;
pub use ccdb_storage as storage;
pub use ccdb_tpcc as tpcc;
pub use ccdb_wal as wal;
pub use ccdb_worm as worm;
