//! Two paper-critical behaviors that only show under hostile conditions:
//!
//! * "If at any point we are unable to write to L, **transaction processing
//!   must halt** until the problem is fixed" (§IV) — WORM unavailability
//!   must stop page writes rather than let unlogged state reach disk.
//! * Witness files prove liveness through their **trusted create times**;
//!   an adversary who manufactures a witness after the fact (she *can* call
//!   the WORM API) gains nothing, because the compliance clock stamps her
//!   file with the real time.

use std::path::PathBuf;
use std::sync::Arc;

use ccdb_btree::SplitPolicy;
use ccdb_common::{Clock, Duration, Timestamp, TxnId, VirtualClock};
use ccdb_core::{logger, ComplianceConfig, CompliantDb, LogRecord, Mode, Violation};
use ccdb_storage::PageStore;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "ccdb-halt-{}-{}-{}",
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
            mode: Mode::LogConsistent,
            regret_interval: Duration::from_mins(5),
            cache_pages: 64,
            auditor_seed: [13u8; 32],
            fsync: false,
            worm_artifact_retention: None,
        },
    )
    .unwrap();
    (db, clock, d)
}

/// When the epoch log can no longer be appended (here: the file is sealed,
/// standing in for an unreachable WORM server), flushing compliance records
/// fails with `ComplianceHalt`, and page writes — which must wait for their
/// records — fail with it too. No page with unlogged tuples reaches disk.
#[test]
fn worm_unavailability_halts_page_writes() {
    let (db, _clock, _d) = setup("halt");
    let rel = db.create_relation("r", SplitPolicy::KeyOnly).unwrap();
    let t = db.begin().unwrap();
    db.write(t, rel, b"k1", b"v1").unwrap();
    db.commit(t).unwrap();
    // Everything logged so far goes out cleanly.
    db.plugin().unwrap().logger().flush().unwrap();
    // Disaster: L becomes unwritable (sealed epoch ~ unreachable server).
    db.worm().seal(&logger::epoch_log_name(db.epoch())).unwrap();
    // New writes still enter the buffer…
    let t = db.begin().unwrap();
    db.write(t, rel, b"k2", b"v2").unwrap();
    db.commit(t).unwrap();
    // …but no dirty page can reach the (editable) disk: the flush must
    // halt rather than write state whose records are not on WORM.
    let err = db.engine().pool().flush_all().unwrap_err();
    assert!(
        matches!(err, ccdb_common::Error::ComplianceHalt(_) | ccdb_common::Error::WormViolation(_)),
        "{err}"
    );
    // The on-disk file still lacks the unlogged tuple (the halt worked):
    // reading raw disk through a fresh scan finds no k2 cell.
    let disk = db.engine().disk();
    let mut found = false;
    for i in 0..disk.page_count() {
        if let Ok(raw) = disk.read_raw(ccdb_common::PageNo(i)) {
            if raw.windows(2).any(|w| w == b"k2") {
                found = true;
            }
        }
    }
    assert!(!found, "unlogged tuple leaked to disk despite the halt");
}

/// Mala tries to backdate activity into a silent interval and to legitimize
/// it with a freshly created witness file. The witness's trusted create time
/// exposes the forgery.
#[test]
fn forged_witness_cannot_legitimize_backdated_activity() {
    let (db, clock, _d) = setup("forged-witness");
    let rel = db.create_relation("r", SplitPolicy::KeyOnly).unwrap();
    for i in 0..20u8 {
        let t = db.begin().unwrap();
        db.write(t, rel, &[b'k', i], b"v").unwrap();
        db.commit(t).unwrap();
    }
    // A long silent gap (the DBMS idle, no ticks — legitimately dead time).
    clock.advance(Duration::from_mins(40));
    let t = db.begin().unwrap();
    db.write(t, rel, b"after-gap", b"v").unwrap();
    db.commit(t).unwrap();
    // Honest state of affairs would audit clean. Mala now appends a
    // STAMP_TRANS claiming a commit *inside* the dead gap, and forges the
    // witness file for that interval via the WORM API.
    let r = Duration::from_mins(5).0;
    let gap_time = Timestamp(clock.now().0 - Duration::from_mins(20).0);
    let gap_interval = gap_time.0 / r;
    let plugin = db.plugin().unwrap().clone();
    plugin
        .logger()
        .append_flush(&LogRecord::StampTrans { txn: TxnId(40_000), commit_time: gap_time })
        .unwrap();
    let witness = logger::witness_name(db.epoch(), gap_interval);
    assert!(!db.worm().exists(&witness), "the interval was genuinely dead");
    db.worm().create(&witness, Timestamp::MAX).unwrap(); // forged NOW
    let report = db.audit().unwrap();
    assert!(!report.is_clean());
    assert!(
        report.violations.iter().any(|v| matches!(
            v,
            // Caught twice over: the forged stamp's time runs backwards in
            // log order, and the forged witness's create time is outside
            // its interval.
            Violation::CommitTimesNotMonotonic { .. } | Violation::MissingWitness { .. }
        )),
        "{:?}",
        report.violations
    );
}

/// A backdated stamp placed *at the end of time* (no later honest stamps to
/// trip monotonicity) is still caught: its interval lacks a valid witness.
#[test]
fn backdated_stamp_with_no_successor_still_needs_a_witness() {
    let (db, clock, _d) = setup("tail-backdate");
    let rel = db.create_relation("r", SplitPolicy::KeyOnly).unwrap();
    let t = db.begin().unwrap();
    db.write(t, rel, b"k", b"v").unwrap();
    db.commit(t).unwrap();
    // Time moves on silently; Mala appends a stamp claiming activity in the
    // dead period, with a time LARGER than every honest stamp (so the
    // monotonicity check alone cannot see it).
    clock.advance(Duration::from_mins(60));
    let fake_time = Timestamp(clock.now().0 - Duration::from_mins(30).0);
    let plugin = db.plugin().unwrap().clone();
    plugin
        .logger()
        .append_flush(&LogRecord::StampTrans { txn: TxnId(50_000), commit_time: fake_time })
        .unwrap();
    let report = db.audit().unwrap();
    assert!(
        report.violations.iter().any(|v| matches!(v, Violation::MissingWitness { .. })),
        "{:?}",
        report.violations
    );
}
