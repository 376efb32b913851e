//! TPC-C atop the compliant DBMS — the paper's evaluation workload.
//!
//! "We chose TPC-C because it is a standard benchmark for OLTP, which will
//! be the most common workload for compliance databases." This crate ports
//! the benchmark to the `ccdb` engine the way the authors ported the Shore
//! implementation to Berkeley DB: the nine relations, the card deck of five
//! transactions in the standard mix (45 % New-Order, 43 % Payment, 4 % each
//! Order-Status / Delivery / Stock-Level), NURand skew, the 1 % New-Order
//! rollback, and the customer last-name secondary index (implemented as an
//! ordinary relation, as the engine — like Berkeley DB — has no native
//! secondary indexes).
//!
//! Scale is configurable: [`TpccScale::paper`] approximates the paper's
//! 10-warehouse / 2.5 GB configuration; [`TpccScale::small`] keeps the same
//! relation shapes and skew at laptop-bench size. The schema carries the
//! paper's modification: "we modified the TPC-C schema to include this
//! additional attribute [the tuple order number] for each relation" — in
//! ccdb that attribute lives in the page format itself, so every relation
//! has it automatically.

#![forbid(unsafe_code)]

pub mod driver;
pub mod gen;
pub mod loader;
pub mod rows;
pub mod txns;

pub use driver::{Driver, MixStats, TxnKind};
pub use loader::{load, Tpcc, TpccScale};
