//! B+-trees over versioned tuples, including the **time-split B+-tree**
//! (TSB-tree, Lomet & Salzberg) used by the WORM-migration refinement.
//!
//! Entries are ordered two-dimensionally, exactly as the paper defines:
//! `(k₁,t₁) ≤ (k₂,t₂) iff k₁ < k₂ ∨ (k₁ = k₂ ∧ t₁ ≤ t₂)` — all versions of a
//! key sit adjacently in start-time order, with any still-pending version
//! (carrying a transaction id under lazy timestamping) ordered after every
//! stamped version.
//!
//! Structural choices driven by the compliance architecture:
//!
//! * **Splits retire the old page and create two new pages.** The paper's
//!   `PAGE_SPLIT` record "contains the PGNO of the initial page, the PGNOs of
//!   the two new pages created, and the content of the two new pages
//!   immediately after the split"; giving each split fresh PGNOs keeps every
//!   page's logged history linear, which is what makes the auditor's
//!   single-pass page replay possible.
//! * **Structure-modification hooks.** Every split, index-entry change, and
//!   page retirement is reported through [`StructureHooks`] so the compliance
//!   plugin can write `PAGE_SPLIT` / `INDEX_INSERT` / `INDEX_REMOVE` records
//!   *before* the affected pages reach disk.
//! * **Key vs. time splits.** With a [`SplitPolicy::TimeSplit`] threshold θ, a
//!   leaf whose distinct-key fraction is below θ is split on time (historical
//!   versions move to a new *historical* page destined for WORM); otherwise
//!   it is split on key. (The paper's prose states the comparison both ways
//!   in different paragraphs; we implement the direction consistent with its
//!   Figure 4 analysis and the stated intuition — few distinct keys ⇒ many
//!   updates ⇒ time-split.)
//! * **No page merging.** A transaction-time database only grows; empty
//!   leaves are tolerated, matching append-mostly reality and keeping page
//!   histories simple for the auditor.

#![forbid(unsafe_code)]

pub mod check;
pub mod entry;
pub mod hooks;
pub mod tree;

pub use check::{check_tree, IntegrityError};
pub use entry::{IndexEntry, TimeRank};
pub use hooks::{NoopHooks, SplitKind, StructureHooks};
pub use tree::{BTree, SplitPolicy, TreeStats};
