//! Shared foundation types for the ccdb workspace.
//!
//! This crate hosts the vocabulary the rest of the system is written in:
//! identifiers ([`TxnId`], [`PageNo`], [`RelId`], [`Lsn`]), timestamps and the
//! [`Clock`] abstraction (a deterministic [`VirtualClock`] drives every test
//! and benchmark; [`SystemClock`] exists for wall-time runs), the workspace
//! [`Error`] type, and the fixed-layout byte codec helpers used by every
//! on-disk format.
//!
//! Nothing here knows about databases; it is deliberately dependency-free.

#![forbid(unsafe_code)]

pub mod codec;
pub mod error;
pub mod ids;
pub mod rng;
pub mod sync;
pub mod time;

pub use codec::{ByteReader, ByteWriter};
pub use error::{Error, Result};
pub use ids::{Lsn, PageNo, RelId, TxnId};
pub use rng::SplitMix64;
pub use time::{Clock, ClockRef, Duration, SystemClock, Timestamp, VirtualClock};
