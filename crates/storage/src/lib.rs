//! Page-oriented storage: slotted pages, tuple versions, the disk manager,
//! and the buffer pool.
//!
//! This crate is the bottom of the "Berkeley DB substrate" the paper builds
//! on. Its single most important design point is the **`PageStore` seam**:
//! all page traffic between the buffer pool and the disk flows through the
//! [`PageStore`] trait's `pread`/`pwrite`, so the compliance logger can be
//! installed as a decorator "in a manner that involve[s] very few changes to
//! the DBMS core; most of the compliance functionality is isolated in a
//! plugin that is invoked on each pread/pwrite request" (Section IX).
//!
//! Other properties the architecture depends on:
//!
//! * **Page numbers are never reused.** The hash-page-on-read auditor replays
//!   one hash history per PGNO; recycling a PGNO would splice two page
//!   lineages together. The disk manager allocates by extending the file.
//! * **Steal / no-force buffering.** Dirty pages of uncommitted transactions
//!   may reach disk (exercising the paper's UNDO logging path), and commit
//!   does not flush data pages (exercising the WORM-resident WAL-tail story).
//! * **Tuple-order numbers.** Each data page hands out monotonically
//!   increasing per-page sequence numbers; the sequential read hash `Hs`
//!   hashes tuples in this order.

#![forbid(unsafe_code)]

pub mod buffer;
pub mod disk;
pub mod fault;
pub mod page;
pub mod tuple;

pub use buffer::{BufferPool, BufferStats, PageRef};
pub use disk::{DiskManager, PageStore};
pub use fault::{Fault, FaultInjector, FaultKind, FaultPlan, Injection, IoPoint};
pub use page::{Page, PageType, HEADER_SIZE, PAGE_SIZE, PAGE_USABLE};

/// The page-header size (re-exported for layout math in other crates).
pub fn page_header_size() -> usize {
    HEADER_SIZE
}
pub use tuple::{TupleKey, TupleRef, TupleVersion, WriteTime};
