//! The group-commit pipeline: leader/follower WAL flushing plus ticket-
//! ordered commit finalization.
//!
//! # Protocol
//!
//! A commit passes through three phases:
//!
//! 1. **Sequence** (under the pipeline's `state` lock): the commit timestamp
//!    is assigned, the `Commit` record is *appended* (buffered, not flushed)
//!    to the WAL, and a monotonically increasing **ticket** is taken. Holding
//!    one lock across all three makes timestamp order, WAL order, and ticket
//!    order identical.
//! 2. **Group durability** ([`CommitPipeline::wait_durable`]): the committer
//!    checks whether its record is already durable (a previous batch carried
//!    it). If not, it either becomes the **leader** and flushes everything
//!    appended so far at once (one fsync, one WORM tail-mirror append for the
//!    whole batch), or **parks** on the flush condvar until the active
//!    leader finishes. Batches form on their own: committers that sequence
//!    while a leader's fsync is in flight park, and the next leader carries
//!    them all. A failed flush bumps an error epoch so every batch member
//!    observes the failure; the leader returns the *original* error
//!    (fault-injection markers intact), followers a generic one.
//! 3. **Finalize** ([`CommitPipeline::await_turn`]): committers drain in
//!    strict ticket order. Under its turn a committer publishes the commit
//!    time, enqueues lazy-stamping work, and fires the `on_commit` hook — so
//!    `STAMP_TRANS` records land on the compliance log `L` in exactly commit-
//!    time order, which the auditor's single-pass replay requires.
//!
//! # Lock hierarchy
//!
//! `state` (and `turn`) rank *above* the WAL writer's internal lock: the
//! sequencing phase appends to the WAL while holding `state`. Nothing inside
//! the WAL ever takes a pipeline lock, so the order is acyclic. See
//! DESIGN.md §9 for the system-wide hierarchy.

use std::sync::atomic::{AtomicU64, Ordering};

use ccdb_common::sync::{Condvar, Mutex, MutexGuard};
use ccdb_common::{Error, Lsn, Result};
use ccdb_wal::WalWriter;

/// Sequencing / flush-leadership state.
struct PipeState {
    /// Next ticket to hand out in the sequencing phase.
    next_ticket: u64,
    /// A leader is currently flushing (followers park instead of flushing).
    leader_active: bool,
    /// Bumped on every failed group flush; batch members that observed the
    /// old epoch and are still not durable know their flush failed.
    error_epoch: u64,
}

/// Group-commit coordination shared by all committers of one engine.
pub(crate) struct CommitPipeline {
    state: Mutex<PipeState>,
    flush_cv: Condvar,
    /// The ticket currently allowed to finalize.
    turn: Mutex<u64>,
    turn_cv: Condvar,
    /// Successful group flushes (each one fsync + one tail-mirror append).
    pub(crate) batches: AtomicU64,
    /// Transactions made durable through the pipeline.
    pub(crate) batched_txns: AtomicU64,
}

impl CommitPipeline {
    pub(crate) fn new() -> CommitPipeline {
        CommitPipeline {
            state: Mutex::new(PipeState { next_ticket: 0, leader_active: false, error_epoch: 0 }),
            flush_cv: Condvar::new(),
            turn: Mutex::new(0),
            turn_cv: Condvar::new(),
            batches: AtomicU64::new(0),
            batched_txns: AtomicU64::new(0),
        }
    }

    /// Runs the sequencing phase: `f` executes under the pipeline state lock
    /// (assign timestamp + append WAL record), and on success a ticket is
    /// taken. On error no ticket is consumed, so the finalize turn never
    /// stalls on a committer that bailed out early.
    pub(crate) fn sequence<T>(&self, f: impl FnOnce() -> Result<T>) -> Result<(T, u64)> {
        let mut st = self.state.lock();
        let out = f()?;
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        Ok((out, ticket))
    }

    /// Phase 2: blocks until the record at `lsn` is durable (or the flush
    /// covering it failed). See the module docs for the leader/follower
    /// protocol.
    pub(crate) fn wait_durable(&self, wal: &WalWriter, lsn: Lsn) -> Result<()> {
        let mut st = self.state.lock();
        let entry_epoch = st.error_epoch;
        loop {
            if wal.flushed_lsn() > lsn {
                self.batched_txns.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            if st.error_epoch != entry_epoch {
                return Err(Error::Invalid(
                    "group commit: batch flush failed; commit outcome unknown".into(),
                ));
            }
            if st.leader_active {
                st = self.flush_cv.wait(st);
                continue;
            }
            // Become the leader: one flush carries every record appended so
            // far, this one and those of the committers parked behind it.
            st.leader_active = true;
            drop(st);
            let res = wal.flush();
            st = self.state.lock();
            st.leader_active = false;
            self.flush_cv.notify_all();
            match res {
                // Loop: the durable check at the top observes our own flush
                // (it always covers our record — the append happened before
                // we entered this function).
                Ok(()) => {
                    self.batches.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    // Broadcast failure to the batch; the leader propagates
                    // the original error so fault-injection markers survive.
                    st.error_epoch = st.error_epoch.wrapping_add(1);
                    return Err(e);
                }
            }
        }
    }

    /// Phase 3 entry: blocks until it is `ticket`'s turn to finalize.
    /// Returns the guard; call [`CommitPipeline::finish_turn`] with it when
    /// done (success *or* failure — the turn must always advance).
    pub(crate) fn await_turn(&self, ticket: u64) -> MutexGuard<'_, u64> {
        let mut turn = self.turn.lock();
        while *turn != ticket {
            turn = self.turn_cv.wait(turn);
        }
        turn
    }

    /// Phase 3 exit: advances the finalize turn and wakes waiting tickets.
    pub(crate) fn finish_turn(&self, mut turn: MutexGuard<'_, u64>) {
        *turn += 1;
        drop(turn);
        self.turn_cv.notify_all();
    }

    /// (batches, txns) counters for [`crate::EngineStats`].
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.batches.load(Ordering::Relaxed), self.batched_txns.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn wal(tag: &str) -> (Arc<WalWriter>, std::path::PathBuf) {
        let p = std::env::temp_dir().join(format!(
            "ccdb-pipe-{}-{}-{}.wal",
            std::process::id(),
            tag,
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        let _ = std::fs::remove_file(&p);
        let w = Arc::new(WalWriter::open(&p).unwrap());
        w.set_sync(false);
        (w, p)
    }

    #[test]
    fn tickets_are_sequential_and_turns_ordered() {
        let pipe = Arc::new(CommitPipeline::new());
        let (_, t0) = pipe.sequence(|| Ok(())).unwrap();
        let (_, t1) = pipe.sequence(|| Ok(())).unwrap();
        assert_eq!((t0, t1), (0, 1));
        // Finalize out of order: ticket 1 must wait for ticket 0.
        let p2 = pipe.clone();
        let order = Arc::new(Mutex::new(Vec::new()));
        let o2 = order.clone();
        let h = std::thread::spawn(move || {
            let g = p2.await_turn(1);
            o2.lock().push(1);
            p2.finish_turn(g);
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        {
            let g = pipe.await_turn(0);
            order.lock().push(0);
            pipe.finish_turn(g);
        }
        h.join().unwrap();
        assert_eq!(*order.lock(), vec![0, 1]);
    }

    #[test]
    fn sequence_error_consumes_no_ticket() {
        let pipe = CommitPipeline::new();
        let r: Result<((), u64)> = pipe.sequence(|| Err(Error::Invalid("boom".into())));
        assert!(r.is_err());
        let (_, t) = pipe.sequence(|| Ok(())).unwrap();
        assert_eq!(t, 0, "failed sequence must not burn a ticket");
    }

    /// One leader flush carries every record sequenced before it, whatever
    /// order the committers reach `wait_durable` in: the second committer
    /// finds its record durable and never flushes.
    #[test]
    fn one_flush_carries_every_sequenced_record() {
        use ccdb_common::TxnId;
        use ccdb_wal::WalRecord;
        for later_first in [true, false] {
            let (w, p) = wal(if later_first { "later-first" } else { "earlier-first" });
            let pipe = CommitPipeline::new();
            let (earlier, _) =
                pipe.sequence(|| w.append(&WalRecord::Begin { txn: TxnId(1) })).unwrap();
            let (later, _) =
                pipe.sequence(|| w.append(&WalRecord::Begin { txn: TxnId(2) })).unwrap();
            let order = if later_first { [later, earlier] } else { [earlier, later] };
            for lsn in order {
                pipe.wait_durable(&w, lsn).unwrap();
                assert!(w.flushed_lsn() > lsn);
            }
            assert_eq!(pipe.counters(), (1, 2), "later_first = {later_first}");
            let _ = std::fs::remove_file(&p);
        }
    }

    #[test]
    fn group_flush_batches_concurrent_committers() {
        use ccdb_common::TxnId;
        use ccdb_wal::WalRecord;
        let (w, p) = wal("batch");
        let pipe = Arc::new(CommitPipeline::new());
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let w = w.clone();
            let pipe = pipe.clone();
            handles.push(std::thread::spawn(move || {
                let (lsn, _ticket) =
                    pipe.sequence(|| w.append(&WalRecord::Begin { txn: TxnId(i + 1) })).unwrap();
                pipe.wait_durable(&w, lsn).unwrap();
                assert!(w.flushed_lsn() > lsn);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (batches, txns) = pipe.counters();
        assert_eq!(txns, 8);
        assert!((1..=8).contains(&batches), "batches: {batches}");
        let _ = std::fs::remove_file(&p);
    }
}
