//! Targeted tests for the hash-page-on-read corner cases of Section V.

use std::path::PathBuf;
use std::sync::Arc;

use ccdb_btree::SplitPolicy;
use ccdb_common::{Duration, VirtualClock};
use ccdb_core::{ComplianceConfig, CompliantDb, Mode};

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "ccdb-rh-{}-{}-{}",
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

fn setup(tag: &str) -> (CompliantDb, Arc<VirtualClock>, TempDir) {
    let d = TempDir::new(tag);
    let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(40)));
    let db = CompliantDb::open(
        &d.0,
        clock.clone(),
        ComplianceConfig {
            mode: Mode::HashOnRead,
            regret_interval: Duration::from_mins(5),
            cache_pages: 64,
            auditor_seed: [11u8; 32],
            fsync: false,
            worm_artifact_retention: None,
        },
    )
    .unwrap();
    (db, clock, d)
}

/// "With fine-granularity locking, a transaction T1 that eventually commits
/// may read tuple t1 on a page p where tuple t2 has been written by another
/// transaction T2 that eventually aborts. … to verify that T1 read the right
/// content on p, the hashes of p computed by T1 and the auditor must both
/// include t2."
#[test]
fn read_hash_includes_later_aborted_tuple() {
    let (db, _clock, _d) = setup("aborted-read");
    let rel = db.create_relation("r", SplitPolicy::KeyOnly).unwrap();
    // Committed background data.
    for i in 0..5 {
        let t = db.begin().unwrap();
        db.write(t, rel, &[b'k', i], b"base").unwrap();
        db.commit(t).unwrap();
    }
    // T2 writes t2 and its dirty page reaches disk (steal) while T2 is
    // still in flight.
    let t2 = db.begin().unwrap();
    db.write(t2, rel, b"k-doomed", b"will-abort").unwrap();
    db.engine().pool().flush_all().unwrap();
    // T1 reads the page *from disk* (cache dropped) — the READ hash it logs
    // includes the uncommitted tuple.
    db.engine().pool().drop_all_without_flush();
    let t1 = db.begin().unwrap();
    let seen = db.read(t1, rel, &[b'k', 2]).unwrap();
    assert_eq!(seen, Some(b"base".to_vec()));
    assert_eq!(db.read(t1, rel, b"k-doomed").unwrap(), None, "T2's write is invisible to T1");
    db.commit(t1).unwrap();
    // Now T2 aborts; the UNDO is logged when the page is next written.
    db.abort(t2).unwrap();
    // The audit must replay the page exactly: including t2 for the READ
    // that happened before the abort, excluding it afterwards.
    let report = db.audit().unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
}

/// Reads before and after lazy stamping hash the same tuple differently
/// (transaction id vs commit time); the auditor's offset rule matches both.
#[test]
fn read_hash_spans_lazy_stamping() {
    let (db, _clock, _d) = setup("stamp-read");
    let rel = db.create_relation("r", SplitPolicy::KeyOnly).unwrap();
    let t = db.begin().unwrap();
    db.write(t, rel, b"key", b"value").unwrap();
    db.commit(t).unwrap();
    // Flush with the version still pending, then read it back from disk.
    db.engine().pool().flush_all().unwrap();
    db.engine().pool().drop_all_without_flush();
    let r = db.begin().unwrap();
    db.read(r, rel, b"key").unwrap();
    db.commit(r).unwrap();
    // Stamp, flush, and read again — the stored form changed in place.
    db.engine().run_stamper().unwrap();
    db.engine().clear_cache().unwrap();
    let r = db.begin().unwrap();
    db.read(r, rel, b"key").unwrap();
    db.commit(r).unwrap();
    let report = db.audit().unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
    assert!(report.stats.reads_verified >= 2, "{:?}", report.stats);
}

/// Reads of pages that split since the snapshot replay correctly (the
/// auditor reconstructs the page "exactly as it was at the moment when its
/// hash was appended to L", across PAGE_SPLIT records).
#[test]
fn read_hash_across_splits() {
    let (db, _clock, _d) = setup("split-read");
    let rel = db.create_relation("r", SplitPolicy::KeyOnly).unwrap();
    for i in 0..200u32 {
        let t = db.begin().unwrap();
        db.write(t, rel, format!("{i:06}").as_bytes(), &[0u8; 64]).unwrap();
        db.commit(t).unwrap();
        if i % 37 == 5 {
            // Periodically force physical reads of post-split pages.
            db.engine().clear_cache().unwrap();
            let t = db.begin().unwrap();
            let _ = db.read(t, rel, format!("{:06}", i / 2).as_bytes()).unwrap();
            db.commit(t).unwrap();
        }
    }
    let report = db.audit().unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
    assert!(report.stats.reads_verified > 5);
}

/// Reads during crash recovery replay correctly: recovery's preads are
/// hashed like any others, with the stamp index pre-loaded so times
/// normalize exactly as the auditor's offset rule expects.
#[test]
fn read_hashes_during_recovery_audit_clean() {
    let (db, _clock, d) = setup("recovery-read");
    let rel = db.create_relation("r", SplitPolicy::KeyOnly).unwrap();
    for i in 0..80u32 {
        let t = db.begin().unwrap();
        db.write(t, rel, format!("{i:04}").as_bytes(), &[1u8; 48]).unwrap();
        db.commit(t).unwrap();
    }
    // Ensure some pages are on disk with *pending* versions, then crash.
    db.engine().pool().flush_all().unwrap();
    let db = db.crash_and_recover().unwrap();
    // Post-recovery reads from disk.
    let t = db.begin().unwrap();
    assert_eq!(db.read(t, rel, b"0042").unwrap(), Some(vec![1u8; 48]));
    db.commit(t).unwrap();
    let report = db.audit().unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
    drop(d);
}

/// Temporal history assembled across live, historical, and migrated pages.
#[test]
fn version_history_spans_all_storage_tiers() {
    let (db, _clock, _d) = setup("history");
    let rel = db.create_relation("hot", SplitPolicy::TimeSplit { threshold: 0.9 }).unwrap();
    for round in 0..150u32 {
        let t = db.begin().unwrap();
        db.write(t, rel, b"sensor", &round.to_le_bytes()).unwrap();
        for pad in 0..4 {
            db.write(t, rel, format!("pad-{round}-{pad}").as_bytes(), &[0u8; 40]).unwrap();
        }
        db.commit(t).unwrap();
        db.engine().run_stamper().unwrap();
    }
    db.migrate_to_worm(rel).unwrap();
    let history = db.version_history(rel, b"sensor").unwrap();
    assert!(history.len() >= 150, "history shrank: {}", history.len());
    // Values are in commit order: first recorded round is 0, last is 149.
    assert_eq!(u32::from_le_bytes(history[0].2.clone().try_into().unwrap()), 0);
    assert_eq!(u32::from_le_bytes(history.last().unwrap().2.clone().try_into().unwrap()), 149);
    assert!(db.audit().unwrap().is_clean());
}
