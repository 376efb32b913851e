//! Concurrency-correctness tests for the group-commit pipeline, the sharded
//! transaction table, and the bounded lazy-timestamping queue.

use std::path::PathBuf;
use std::sync::Arc;

use ccdb_btree::SplitPolicy;
use ccdb_common::{Duration, Timestamp, VirtualClock};
use ccdb_engine::{Engine, EngineConfig};
use ccdb_storage::WriteTime;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "ccdb-conc-{}-{}-{}",
            std::process::id(),
            tag,
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn clock() -> Arc<VirtualClock> {
    Arc::new(VirtualClock::ticking(Duration::from_micros(7)))
}

/// Commit timestamps handed to 8 concurrent committer threads are globally
/// unique and strictly increasing in hand-out order (the pipeline assigns
/// them inside one critical section with the WAL append and the ticket).
#[test]
fn concurrent_commits_get_unique_monotone_timestamps() {
    let (d, c) = (TempDir::new("mono"), clock());
    let e = Arc::new(Engine::open(EngineConfig::new(&d.0, 128).no_fsync(), c.clone()).unwrap());
    let rel = e.create_relation("r", SplitPolicy::KeyOnly).unwrap();
    let mut handles = Vec::new();
    for w in 0..8u64 {
        let e = e.clone();
        handles.push(std::thread::spawn(move || {
            let mut times = Vec::new();
            for i in 0..50u32 {
                let t = e.begin().unwrap();
                e.write(t, rel, format!("w{w}-{i}").as_bytes(), b"v").unwrap();
                times.push(e.commit(t).unwrap());
            }
            times
        }));
    }
    let mut all: Vec<Timestamp> = Vec::new();
    for h in handles {
        let times = h.join().unwrap();
        // Per-thread hand-out order is strictly increasing.
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        all.extend(times);
    }
    let n = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), n, "commit timestamps must be globally unique");
    let stats = e.stats();
    assert_eq!(stats.commits, 400);
    assert_eq!(stats.group_commit_txns, 400, "all commits ride the pipeline");
    assert!(stats.group_commit_batches >= 1 && stats.group_commit_batches <= 400);
    assert_eq!(stats.fsyncs_saved, stats.group_commit_txns - stats.group_commit_batches);
}

/// The lazy-timestamping queue is bounded: a long commit streak without an
/// explicit `run_stamper` call may overshoot the limit transiently but is
/// drained incrementally by committers, never growing without bound.
#[test]
fn stamp_queue_stays_bounded_without_explicit_stamper() {
    let (d, c) = (TempDir::new("bound"), clock());
    let limit = 16usize;
    let mut cfg = EngineConfig::new(&d.0, 128).no_fsync();
    cfg.stamp_queue_limit = limit;
    let e = Engine::open(cfg, c.clone()).unwrap();
    let rel = e.create_relation("r", SplitPolicy::KeyOnly).unwrap();
    let mut peak = 0usize;
    for i in 0..400u32 {
        let t = e.begin().unwrap();
        e.write(t, rel, format!("k{i:05}").as_bytes(), b"v").unwrap();
        e.commit(t).unwrap();
        peak = peak.max(e.stamp_queue_len());
    }
    assert!(
        peak <= limit + 1,
        "queue peaked at {peak}, limit {limit}: incremental drain not engaged"
    );
    assert!(peak > limit / 2, "test must actually stress the bound (peak {peak})");
    // A full stamper pass leaves nothing behind.
    e.run_stamper().unwrap();
    assert_eq!(e.stamp_queue_len(), 0);
}

/// Incremental draining (tight bound, so committers do most of the stamping)
/// stamps every version exactly once, in commit order: the stamped versions
/// carry their commit timestamps in insert order.
#[test]
fn incremental_drain_stamps_in_commit_order() {
    let (d, c) = (TempDir::new("order"), clock());
    let mut cfg = EngineConfig::new(&d.0, 128).no_fsync();
    cfg.stamp_queue_limit = 4;
    let e = Engine::open(cfg, c.clone()).unwrap();
    let rel = e.create_relation("r", SplitPolicy::KeyOnly).unwrap();
    let mut commits = Vec::new();
    for i in 0..64u32 {
        let t = e.begin().unwrap();
        e.write(t, rel, b"k", &i.to_le_bytes()).unwrap();
        commits.push(e.commit(t).unwrap());
    }
    e.run_stamper().unwrap();
    let tree = e.tree(rel).unwrap();
    let versions = tree.versions(b"k").unwrap();
    assert_eq!(versions.len(), 64);
    for (v, expect) in versions.iter().zip(&commits) {
        assert_eq!(v.time, WriteTime::Committed(*expect), "stamped out of commit order");
    }
}

/// Abort racing against commits on other threads: aborted transactions leave
/// no orphan pending versions behind, and committed ones all stamp.
#[test]
fn abort_commit_races_leave_no_orphan_pending_versions() {
    let (d, c) = (TempDir::new("orphan"), clock());
    let e = Arc::new(Engine::open(EngineConfig::new(&d.0, 128).no_fsync(), c.clone()).unwrap());
    let rel = e.create_relation("r", SplitPolicy::KeyOnly).unwrap();
    let mut handles = Vec::new();
    for w in 0..6u64 {
        let e = e.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..80u32 {
                let t = e.begin().unwrap();
                // Each thread hammers a small private key set so aborts and
                // commits interleave on the same keys.
                e.write(t, rel, format!("w{w}-{}", i % 5).as_bytes(), &i.to_le_bytes()).unwrap();
                if i % 3 == 0 {
                    e.abort(t).unwrap();
                } else {
                    e.commit(t).unwrap();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    e.run_stamper().unwrap();
    let tree = e.tree(rel).unwrap();
    let mut pending = 0usize;
    let mut total = 0usize;
    tree.scan_all(&mut |v| {
        total += 1;
        if matches!(v.time, WriteTime::Pending(_)) {
            pending += 1;
        }
        Ok(())
    })
    .unwrap();
    assert_eq!(pending, 0, "orphan pending versions survived abort/commit races");
    // 6 threads × 80 txns, 1/3 aborted (i % 3 == 0 → 27 of 80).
    assert_eq!(total, 6 * (80 - 27));
    let stats = e.stats();
    assert_eq!(stats.commits, 6 * 53);
    assert_eq!(stats.aborts, 6 * 27);
}

/// Group-commit accounting under concurrent committers: every commit goes
/// through the pipeline, and the fsyncs saved are exactly the commits that
/// rode another committer's flush. (Whether two given committers share a
/// flush is a thread race; `commit.rs`'s unit tests pin batching itself.)
#[test]
fn group_commit_batches_concurrent_committers() {
    let (d, c) = (TempDir::new("batch"), clock());
    let cfg = EngineConfig::new(&d.0, 128).no_fsync();
    let e = Arc::new(Engine::open(cfg, c.clone()).unwrap());
    let rel = e.create_relation("r", SplitPolicy::KeyOnly).unwrap();
    let mut handles = Vec::new();
    for w in 0..8u64 {
        let e = e.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..25u32 {
                let t = e.begin().unwrap();
                e.write(t, rel, format!("w{w}-{i}").as_bytes(), b"v").unwrap();
                e.commit(t).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let stats = e.stats();
    assert_eq!(stats.group_commit_txns, 200);
    assert!(stats.group_commit_batches <= stats.group_commit_txns);
    assert_eq!(stats.fsyncs_saved, stats.group_commit_txns - stats.group_commit_batches);
}
