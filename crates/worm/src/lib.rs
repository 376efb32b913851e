//! A WORM (write-once read-many) compliance storage server, simulated.
//!
//! This crate plays the role of the NetApp/EMC/IBM compliance filer that the
//! paper — and regulators — *trust*: "we trust that it records the metadata
//! and data of files correctly, and never overwrites a file during its
//! retention period. … We assume the server allows us to append to files, so
//! that it can hold logs." Its interface contract is all the architecture
//! depends on:
//!
//! * files are **append-only**: there is no API to overwrite or truncate;
//! * a file cannot be **deleted** (and then only whole) before its retention
//!   period ends, no matter who asks;
//! * file **create times** come from the server's own tamper-proof
//!   *compliance clock* (cf. SnapLock's "Compliance Clock"), which the
//!   auditor uses to detect hidden crashes and replaced logs;
//! * files may be **sealed** (permanently closed), after which even appends
//!   are refused — the compliance log file is sealed at each audit.
//!
//! The simulator keeps file payloads in ordinary files under a root
//! directory plus a trusted in-memory metadata table that is journaled to a
//! metadata log so a [`WormServer`] can be re-opened. In the threat model the
//! adversary may edit any *ordinary* DBMS file with a file editor but can
//! interact with WORM **only through this API** — which is precisely the
//! guarantee the real appliance provides. A per-file running checksum is
//! verified on read as a development aid (a real filer's firmware integrity),
//! not as a cryptographic defense.

#![forbid(unsafe_code)]

mod meta;
mod server;

pub use server::{WormFile, WormServer, WormStats};

pub use meta::FileMeta;
