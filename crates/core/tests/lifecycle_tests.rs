//! End-to-end compliance lifecycle: run → audit, crash → recover → audit,
//! shred, migrate, holds — every path must audit clean when nobody tampers.

use std::path::PathBuf;
use std::sync::Arc;

use ccdb_btree::SplitPolicy;
use ccdb_common::{Duration, Timestamp, VirtualClock};
use ccdb_core::{ComplianceConfig, CompliantDb, Hold, Mode};

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "ccdb-core-{}-{}-{}",
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

fn config(mode: Mode) -> ComplianceConfig {
    ComplianceConfig {
        mode,
        regret_interval: Duration::from_mins(5),
        cache_pages: 256,
        auditor_seed: [7u8; 32],
        fsync: false,
        worm_artifact_retention: None,
    }
}

fn setup(tag: &str, mode: Mode) -> (CompliantDb, Arc<VirtualClock>, TempDir) {
    let d = TempDir::new(tag);
    let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(50)));
    let db = CompliantDb::open(&d.0, clock.clone(), config(mode)).unwrap();
    (db, clock, d)
}

fn run_workload(db: &CompliantDb, rel: ccdb_common::RelId, n: usize, tag: &str) {
    for i in 0..n {
        let t = db.begin().unwrap();
        db.write(t, rel, format!("{tag}-{i:05}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        if i % 7 == 3 {
            // Update an earlier key too.
            db.write(t, rel, format!("{tag}-{:05}", i / 2).as_bytes(), b"updated").unwrap();
        }
        if i % 13 == 9 {
            db.abort(t).unwrap();
        } else {
            db.commit(t).unwrap();
        }
    }
}

#[test]
fn clean_run_audits_clean_log_consistent() {
    let (db, _clock, _d) = setup("clean-lc", Mode::LogConsistent);
    let rel = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    run_workload(&db, rel, 300, "k");
    let report = db.audit().unwrap();
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert!(report.stats.records_scanned > 0);
    assert_eq!(db.epoch(), 1);
}

#[test]
fn clean_run_audits_clean_hash_on_read() {
    let (db, _clock, _d) = setup("clean-hor", Mode::HashOnRead);
    let rel = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    run_workload(&db, rel, 300, "k");
    // Force evictions/reads so READ records exist.
    db.engine().clear_cache().unwrap();
    for i in (0..300).step_by(11) {
        let t = db.begin().unwrap();
        let _ = db.read(t, rel, format!("k-{i:05}").as_bytes()).unwrap();
        db.commit(t).unwrap();
    }
    let report = db.audit().unwrap();
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert!(report.stats.reads_verified > 0, "{:?}", report.stats);
}

#[test]
fn multiple_epochs_audit_clean() {
    let (db, _clock, _d) = setup("epochs", Mode::HashOnRead);
    let rel = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    for epoch in 0..3 {
        run_workload(&db, rel, 120, &format!("e{epoch}"));
        let report = db.audit().unwrap();
        assert!(report.is_clean(), "epoch {epoch}: {:?}", report.violations);
        assert_eq!(db.epoch(), epoch + 1);
    }
    // Data from all epochs still readable.
    let t = db.begin().unwrap();
    assert_eq!(db.read(t, rel, b"e0-00000").unwrap(), Some(b"v0".to_vec()));
    assert_eq!(db.read(t, rel, b"e2-00010").unwrap(), Some(b"v10".to_vec()));
    db.commit(t).unwrap();
}

#[test]
fn crash_recovery_then_clean_audit() {
    let (db, clock, d) = setup("crash", Mode::HashOnRead);
    let rel = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    run_workload(&db, rel, 150, "pre");
    // An in-flight transaction whose dirty pages hit disk (steal).
    let loser = db.begin().unwrap();
    db.write(loser, rel, b"loser-key", b"never-happened").unwrap();
    db.engine().pool().flush_all().unwrap();
    let db = db.crash_and_recover().unwrap();
    // The loser is gone; committed data survives.
    let t = db.begin().unwrap();
    assert_eq!(db.read(t, rel, b"loser-key").unwrap(), None);
    assert_eq!(db.read(t, rel, b"pre-00000").unwrap(), Some(b"v0".to_vec()));
    db.commit(t).unwrap();
    run_workload(&db, rel, 50, "post");
    let report = db.audit().unwrap();
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    drop(db);
    drop((clock, d));
}

#[test]
fn repeated_crashes_across_epochs_audit_clean() {
    let (mut db, _clock, _d) = setup("multi-crash", Mode::LogConsistent);
    let rel = db.create_relation("r", SplitPolicy::KeyOnly).unwrap();
    for round in 0..3 {
        run_workload(&db, rel, 80, &format!("r{round}"));
        db = db.crash_and_recover().unwrap();
        let report = db.audit().unwrap();
        assert!(report.is_clean(), "round {round}: {:?}", report.violations);
    }
}

#[test]
fn shred_lifecycle_audits_clean() {
    let (db, clock, _d) = setup("shred", Mode::HashOnRead);
    let rel = db.create_relation("pii", SplitPolicy::KeyOnly).unwrap();
    let t = db.begin().unwrap();
    db.set_retention(t, "pii", Duration::from_mins(60)).unwrap();
    db.commit(t).unwrap();
    // Old data that will expire.
    for i in 0..40 {
        let t = db.begin().unwrap();
        db.write(t, rel, format!("ssn-{i:03}").as_bytes(), b"123-45-6789").unwrap();
        db.commit(t).unwrap();
    }
    // First audit retains everything (nothing expired yet).
    let report = db.audit().unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
    // Time passes beyond the retention period; fresh data arrives.
    clock.advance(Duration::from_mins(90));
    for i in 0..10 {
        let t = db.begin().unwrap();
        db.write(t, rel, format!("new-{i:03}").as_bytes(), b"fresh").unwrap();
        db.commit(t).unwrap();
    }
    let vr = db.vacuum().unwrap();
    assert!(vr.shredded >= 40, "shredded {}", vr.shredded);
    // Expired data is gone; fresh data remains.
    let t = db.begin().unwrap();
    assert_eq!(db.read(t, rel, b"ssn-000").unwrap(), None);
    assert_eq!(db.read(t, rel, b"new-000").unwrap(), Some(b"fresh".to_vec()));
    db.commit(t).unwrap();
    let report = db.audit().unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn litigation_hold_blocks_shredding() {
    let (db, clock, _d) = setup("hold", Mode::LogConsistent);
    let rel = db.create_relation("mail", SplitPolicy::KeyOnly).unwrap();
    let t = db.begin().unwrap();
    db.set_retention(t, "mail", Duration::from_mins(10)).unwrap();
    db.commit(t).unwrap();
    for i in 0..20 {
        let t = db.begin().unwrap();
        db.write(t, rel, format!("msg-{i:03}").as_bytes(), b"content").unwrap();
        db.commit(t).unwrap();
    }
    // Hold covers msg-00x (first ten).
    let t = db.begin().unwrap();
    db.place_hold(
        t,
        &Hold { id: "subpoena-9".into(), rel_name: "mail".into(), key_prefix: b"msg-00".to_vec() },
    )
    .unwrap();
    db.commit(t).unwrap();
    clock.advance(Duration::from_mins(30));
    let vr = db.vacuum().unwrap();
    assert!(vr.held >= 10, "held {}", vr.held);
    assert!(vr.shredded >= 10, "shredded {}", vr.shredded);
    // Held tuples survive; unheld expired tuples are gone.
    let t = db.begin().unwrap();
    assert_eq!(db.read(t, rel, b"msg-000").unwrap(), Some(b"content".to_vec()));
    assert_eq!(db.read(t, rel, b"msg-015").unwrap(), None);
    db.commit(t).unwrap();
    let report = db.audit().unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
    // Release the hold; the next vacuum shreds the rest.
    let t = db.begin().unwrap();
    db.release_hold(t, "subpoena-9").unwrap();
    db.commit(t).unwrap();
    let vr2 = db.vacuum().unwrap();
    assert!(vr2.shredded >= 10, "after release shredded {}", vr2.shredded);
    let report = db.audit().unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn worm_migration_audits_clean_and_history_stays_queryable() {
    let (db, _clock, _d) = setup("migrate", Mode::HashOnRead);
    let rel = db.create_relation("hot", SplitPolicy::TimeSplit { threshold: 0.9 }).unwrap();
    let mut times: Vec<Timestamp> = Vec::new();
    for round in 0..200u32 {
        let t = db.begin().unwrap();
        for k in 0..8 {
            db.write(t, rel, format!("item-{k}").as_bytes(), &round.to_le_bytes()).unwrap();
        }
        times.push(db.commit(t).unwrap());
        db.engine().run_stamper().unwrap();
    }
    assert!(!db.engine().tree(rel).unwrap().historical_pages().is_empty(), "expected time splits");
    let mr = db.migrate_to_worm(rel).unwrap();
    assert!(mr.pages_migrated > 0);
    assert!(mr.tuples_migrated > 0);
    // Historical values remain reachable through WORM.
    let old = db.read_as_of(rel, b"item-3", times[20]).unwrap().expect("history on WORM");
    assert_eq!(u32::from_le_bytes(old.try_into().unwrap()), 20);
    // Current value unaffected.
    let t = db.begin().unwrap();
    let cur = db.read(t, rel, b"item-3").unwrap().unwrap();
    assert_eq!(u32::from_le_bytes(cur.try_into().unwrap()), 199);
    db.commit(t).unwrap();
    let report = db.audit().unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn regular_mode_runs_without_compliance() {
    let (db, _clock, _d) = setup("regular", Mode::Regular);
    let rel = db.create_relation("r", SplitPolicy::KeyOnly).unwrap();
    run_workload(&db, rel, 50, "k");
    assert!(db.plugin().is_none());
    assert!(db.audit().is_err(), "Regular mode has nothing to audit");
    // WORM untouched apart from nothing at all.
    assert_eq!(db.worm().stats().files, 0);
}

#[test]
fn heartbeats_and_witnesses_cover_idle_periods() {
    let (db, clock, _d) = setup("idle", Mode::LogConsistent);
    let rel = db.create_relation("r", SplitPolicy::KeyOnly).unwrap();
    run_workload(&db, rel, 30, "k");
    // Long idle stretch with periodic ticks (the deployment's timer).
    for _ in 0..10 {
        clock.advance(Duration::from_mins(3));
        db.tick().unwrap();
    }
    run_workload(&db, rel, 10, "late");
    let report = db.audit().unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn audit_rejects_active_transactions() {
    let (db, _clock, _d) = setup("active", Mode::LogConsistent);
    let rel = db.create_relation("r", SplitPolicy::KeyOnly).unwrap();
    let t = db.begin().unwrap();
    db.write(t, rel, b"k", b"v").unwrap();
    assert!(db.audit().is_err(), "audit must wait for quiescence");
    db.commit(t).unwrap();
    assert!(db.audit().unwrap().is_clean());
}

#[test]
fn updates_and_deletes_across_audits() {
    let (db, _clock, _d) = setup("upd", Mode::HashOnRead);
    let rel = db.create_relation("r", SplitPolicy::KeyOnly).unwrap();
    for i in 0..60 {
        let t = db.begin().unwrap();
        db.write(t, rel, format!("k{i:02}").as_bytes(), b"v1").unwrap();
        db.commit(t).unwrap();
    }
    assert!(db.audit().unwrap().is_clean());
    // Epoch 1: update half, delete a few.
    for i in 0..30 {
        let t = db.begin().unwrap();
        db.write(t, rel, format!("k{i:02}").as_bytes(), b"v2").unwrap();
        db.commit(t).unwrap();
    }
    for i in 55..60 {
        let t = db.begin().unwrap();
        db.delete(t, rel, format!("k{i:02}").as_bytes()).unwrap();
        db.commit(t).unwrap();
    }
    let report = db.audit().unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
    let t = db.begin().unwrap();
    assert_eq!(db.read(t, rel, b"k00").unwrap(), Some(b"v2".to_vec()));
    assert_eq!(db.read(t, rel, b"k40").unwrap(), Some(b"v1".to_vec()));
    assert_eq!(db.read(t, rel, b"k57").unwrap(), None);
    db.commit(t).unwrap();
}

#[test]
fn query_verification_interval_closes_at_audit() {
    let (db, _clock, _d) = setup("qvi", Mode::HashOnRead);
    let rel = db.create_relation("r", SplitPolicy::KeyOnly).unwrap();
    let t = db.begin().unwrap();
    db.write(t, rel, b"k", b"v").unwrap();
    db.commit(t).unwrap();
    let t = db.begin().unwrap();
    let (value, ticket) = db.read_verifiable(t, rel, b"k").unwrap();
    db.commit(t).unwrap();
    assert_eq!(value, Some(b"v".to_vec()));
    assert!(!ticket.is_verified(&db), "not verified until the epoch is audited");
    assert!(db.audit().unwrap().is_clean());
    assert!(ticket.is_verified(&db), "the clean audit closes the interval");
    // Under the base architecture the interval is infinite.
    let (db2, _c2, _d2) = setup("qvi-lc", Mode::LogConsistent);
    let rel2 = db2.create_relation("r", SplitPolicy::KeyOnly).unwrap();
    let t = db2.begin().unwrap();
    db2.write(t, rel2, b"k", b"v").unwrap();
    db2.commit(t).unwrap();
    let t = db2.begin().unwrap();
    let (_v, ticket2) = db2.read_verifiable(t, rel2, b"k").unwrap();
    db2.commit(t).unwrap();
    assert!(db2.audit().unwrap().is_clean());
    assert!(!ticket2.is_verified(&db2), "log-consistent alone never verifies reads (infinite QVI)");
}

#[test]
fn remigration_enables_shredding_of_worm_resident_history() {
    // Section VIII end-to-end: versions migrate to WORM, expire there, come
    // back to conventional media, get shredded, and the audit stays clean.
    let (db, clock, _d) = setup("remigrate", Mode::HashOnRead);
    let rel = db.create_relation("hot", SplitPolicy::TimeSplit { threshold: 0.9 }).unwrap();
    let t = db.begin().unwrap();
    db.set_retention(t, "hot", Duration::from_mins(60)).unwrap();
    db.commit(t).unwrap();
    for round in 0..150u32 {
        let t = db.begin().unwrap();
        for k in 0..8 {
            db.write(t, rel, format!("k{k}").as_bytes(), &round.to_le_bytes()).unwrap();
        }
        db.commit(t).unwrap();
        db.engine().run_stamper().unwrap();
    }
    let mr = db.migrate_to_worm(rel).unwrap();
    assert!(mr.pages_migrated > 0);
    assert!(db.audit().unwrap().is_clean());
    let history_before = db.version_history(rel, b"k3").unwrap().len();
    assert!(history_before > 100);
    // Everything migrated expires.
    clock.advance(Duration::from_mins(120));
    // Fresh activity so the current versions aren't the only thing left.
    let t = db.begin().unwrap();
    for k in 0..8 {
        db.write(t, rel, format!("k{k}").as_bytes(), b"fresh").unwrap();
    }
    db.commit(t).unwrap();
    let back = db.remigrate_expired().unwrap();
    assert!(back > 0, "expired WORM pages should come back");
    let vr = db.vacuum().unwrap();
    assert!(vr.shredded > 100, "shredded {}", vr.shredded);
    // Old values are no longer reachable through any tier.
    let history_after = db.version_history(rel, b"k3").unwrap();
    assert!(
        history_after.len() < history_before / 2,
        "history should shrink: {} -> {}",
        history_before,
        history_after.len()
    );
    let report = db.audit().unwrap();
    assert!(report.is_clean(), "{:?}", &report.violations[..report.violations.len().min(4)]);
}

#[test]
fn replay_checkpoint_skips_sealed_prefix() {
    use ccdb_core::{audit_ckpt_name, AuditConfig};
    let (db, _clock, _d) = setup("ckpt", Mode::LogConsistent);
    let rel = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    run_workload(&db, rel, 200, "a");
    let r0 = db.audit().unwrap();
    assert!(r0.is_clean(), "epoch-0 violations: {:?}", r0.violations);
    // The epoch-0 audit sealed a replay checkpoint on WORM.
    assert!(db.worm().exists(&audit_ckpt_name(0)), "missing epoch-0 replay checkpoint");

    run_workload(&db, rel, 150, "b");

    // Epoch-1 dry-run with checkpoints: the sealed snapshot prefix is not
    // re-folded because the checkpoint attests the stored tuple hash.
    let fast = db.audit_outcome_with(db.audit_config()).unwrap();
    assert!(fast.report.is_clean(), "fast violations: {:?}", fast.report.violations);
    assert!(fast.report.stats.snapshot_prefix_skipped > 0, "checkpoint fast path did not engage");

    // Without checkpoints: the full re-fold — identical verdict and hash.
    let slow = db.audit_outcome_with(db.audit_config().with_checkpoints(false)).unwrap();
    assert!(slow.report.is_clean(), "slow violations: {:?}", slow.report.violations);
    assert_eq!(slow.report.stats.snapshot_prefix_skipped, 0);
    assert_eq!(fast.tuple_hash, slow.tuple_hash);
    assert_eq!(fast.report.stats.tuples_final, slow.report.stats.tuples_final);

    // The serial oracle agrees with both.
    let serial = db.audit_outcome_with(AuditConfig::serial()).unwrap();
    assert!(serial.report.is_clean(), "serial violations: {:?}", serial.report.violations);
    assert_eq!(serial.tuple_hash, fast.tuple_hash);
    assert_eq!(serial.report.stats.threads_used, 1);
}

#[test]
fn replay_checkpoint_ignored_when_snapshot_hash_differs() {
    // A checkpoint whose hash does not match the stored snapshot must not
    // engage the fast path (the full re-fold + compare runs instead).
    use ccdb_core::AuditConfig;
    let (db, _clock, _d) = setup("ckpt-mismatch", Mode::LogConsistent);
    let rel = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    run_workload(&db, rel, 120, "a");
    let r0 = db.audit().unwrap();
    assert!(r0.is_clean(), "{:?}", r0.violations);
    run_workload(&db, rel, 60, "b");
    let r1 = db.audit().unwrap();
    assert!(r1.is_clean(), "{:?}", r1.violations);
    run_workload(&db, rel, 60, "c");
    // Epoch 2 audits against the epoch-1 snapshot + epoch-1 checkpoint:
    // still clean, and equal with and without the fast path.
    let fast = db.audit_outcome_with(db.audit_config()).unwrap();
    let slow = db.audit_outcome_with(db.audit_config().with_checkpoints(false)).unwrap();
    let serial = db.audit_outcome_with(AuditConfig::serial()).unwrap();
    assert!(fast.report.is_clean(), "{:?}", fast.report.violations);
    assert_eq!(fast.tuple_hash, slow.tuple_hash);
    assert_eq!(fast.tuple_hash, serial.tuple_hash);
}
