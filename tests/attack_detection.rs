//! The threat-model gauntlet: every attack in the paper's catalogue is
//! executed by "Mala" against a running compliant database, and the auditor
//! must raise the *specific* violation the paper promises.

use std::path::PathBuf;
use std::sync::Arc;

use ccdb::adversary::Mala;
use ccdb::btree::SplitPolicy;
use ccdb::common::{Duration, RelId, Timestamp, TxnId, VirtualClock};
use ccdb::compliance::{ComplianceConfig, CompliantDb, Mode, Violation};

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "ccdb-attack-{}-{}-{}",
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

fn setup(tag: &str, mode: Mode) -> (CompliantDb, Arc<VirtualClock>, TempDir) {
    let d = TempDir::new(tag);
    let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(50)));
    let db = CompliantDb::open(
        &d.0,
        clock.clone(),
        ComplianceConfig {
            mode,
            regret_interval: Duration::from_mins(5),
            cache_pages: 128,
            auditor_seed: [3u8; 32],
            fsync: false,
            worm_artifact_retention: None,
        },
    )
    .unwrap();
    (db, clock, d)
}

/// Populates a ledger and flushes everything to disk so Mala has bytes to
/// edit and the cache holds nothing stale.
fn seed(db: &CompliantDb, n: usize) -> RelId {
    let rel = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    for i in 0..n {
        let t = db.begin().unwrap();
        db.write(t, rel, format!("acct-{i:04}").as_bytes(), format!("balance={i}").as_bytes())
            .unwrap();
        db.commit(t).unwrap();
    }
    db.engine().run_stamper().unwrap();
    db.engine().clear_cache().unwrap();
    rel
}

fn mala(db: &CompliantDb) -> Mala {
    Mala::new(db.engine().db_path())
}

/// Runs the serial oracle and the parallel pipeline as dry-runs over the
/// same quiesced state, asserts they agree on every observable (verdict,
/// violations, forensics, completeness hash), then points the **streaming
/// daemon** at the same database: a single deep poll — one poll interval
/// after injection — must raise a [`ccdb::compliance::TamperAlert`] carrying
/// exactly the violations the batch auditors report (and stay silent when
/// they report none). Finally performs the real epoch-advancing audit and
/// returns its report. Every attack in this gauntlet therefore proves
/// detection under **all three** auditors.
fn audit_both(db: &CompliantDb) -> ccdb::compliance::AuditReport {
    use ccdb::compliance::AuditConfig;
    let serial = db.audit_outcome_with(AuditConfig::serial()).unwrap();
    for threads in [2usize, 4] {
        let par = db.audit_outcome_with(AuditConfig::default().with_threads(threads)).unwrap();
        assert_eq!(
            serial.report.violations, par.report.violations,
            "serial/parallel divergence at {threads} threads"
        );
        assert_eq!(
            serial.report.forensics, par.report.forensics,
            "forensics divergence at {threads} threads"
        );
        assert_eq!(
            serial.tuple_hash, par.tuple_hash,
            "completeness-hash divergence at {threads} threads"
        );
    }
    let mut stream = db.stream_auditor().unwrap();
    let alert = stream.poll_deep(db).unwrap();
    if serial.report.is_clean() {
        assert!(alert.is_none(), "streaming daemon false alarm: {alert:?}");
        assert_eq!(stream.stats().tamper_alerts, 0);
    } else {
        let alert = alert.unwrap_or_else(|| {
            panic!("streaming daemon missed the attack: {:?}", serial.report.violations)
        });
        assert_eq!(
            alert.violations, serial.report.violations,
            "streaming alert disagrees with the batch verdict"
        );
        assert!(stream.stats().tamper_alerts >= 1);
    }
    db.audit().unwrap()
}

#[test]
fn altering_a_committed_tuple_is_detected() {
    let (db, _c, _d) = setup("alter", Mode::LogConsistent);
    seed(&db, 200);
    assert!(mala(&db).alter_tuple_value(b"acct-0042", b"balance=1000000").unwrap());
    let report = audit_both(&db);
    assert!(!report.is_clean());
    assert!(
        report.violations.iter().any(|v| matches!(v, Violation::CompletenessMismatch)),
        "{:?}",
        report.violations
    );
    assert!(
        report.violations.iter().any(|v| matches!(v, Violation::StateMismatch { .. })),
        "{:?}",
        report.violations
    );
}

#[test]
fn shredding_evidence_outside_the_protocol_is_detected() {
    let (db, _c, _d) = setup("shred", Mode::LogConsistent);
    seed(&db, 200);
    assert!(mala(&db).delete_tuple(b"acct-0007").unwrap());
    let report = audit_both(&db);
    assert!(report.violations.iter().any(|v| matches!(v, Violation::CompletenessMismatch)));
}

#[test]
fn post_hoc_insertion_of_backdated_records_is_detected() {
    // The government-records threat: "post-hoc insertion of government
    // electronic records, such as records of births, deaths, marriages…".
    let (db, _c, _d) = setup("backdate", Mode::LogConsistent);
    let rel = seed(&db, 200);
    assert!(mala(&db).backdate_insert(rel, b"acct-9999", b"born=1985", Timestamp(10)).unwrap());
    let report = audit_both(&db);
    assert!(
        report.violations.iter().any(|v| matches!(v, Violation::CompletenessMismatch)),
        "{:?}",
        report.violations
    );
}

#[test]
fn fig2b_swapped_leaf_entries_detected_by_sort_check() {
    let (db, _c, _d) = setup("fig2b", Mode::LogConsistent);
    seed(&db, 200);
    assert!(mala(&db).swap_leaf_entries().unwrap());
    let report = audit_both(&db);
    assert!(
        report.violations.iter().any(|v| matches!(v, Violation::TreeIntegrity(_))),
        "{:?}",
        report.violations
    );
}

#[test]
fn fig2c_tampered_separator_detected_by_parent_child_check() {
    let (db, _c, _d) = setup("fig2c", Mode::LogConsistent);
    seed(&db, 2000); // enough to grow internal nodes
    assert!(mala(&db).corrupt_separator().unwrap(), "no inner page found to corrupt");
    let report = audit_both(&db);
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::TreeIntegrity(_) | Violation::IndexMismatch { .. })),
        "{:?}",
        report.violations
    );
}

#[test]
fn state_reversion_attack_beats_log_consistent_but_not_hash_on_read() {
    // Section V: "With a file editor, an adversary can make arbitrary
    // changes to a log-consistent database, as long as she undoes them
    // before the next audit. Such changes cannot be detected by the audit" —
    // the hash-page-on-read refinement "eliminate[s] this vulnerability
    // completely".
    for (mode, expect_detection) in [(Mode::LogConsistent, false), (Mode::HashOnRead, true)] {
        let (db, _c, _d) = setup("reversion", mode);
        let rel = seed(&db, 200);
        let m = mala(&db);
        // Tamper…
        let (pgno, pristine) = m.snapshot_page_with(b"acct-0010").unwrap().unwrap();
        assert!(m.alter_tuple_value(b"acct-0010", b"balance=0").unwrap());
        // …queries run against tampered state…
        let t = db.begin().unwrap();
        let seen = db.read(t, rel, b"acct-0010").unwrap().unwrap();
        db.commit(t).unwrap();
        assert_eq!(seen, b"balance=0", "the query really saw tampered data");
        // …and Mala reverts before the audit.
        db.engine().clear_cache().unwrap();
        m.restore_page(pgno, &pristine).unwrap();
        let report = audit_both(&db);
        if expect_detection {
            assert!(
                report.violations.iter().any(|v| matches!(v, Violation::ReadHashMismatch { .. })),
                "hash-on-read must catch reversion: {:?}",
                report.violations
            );
        } else {
            assert!(
                report.is_clean(),
                "log-consistent alone cannot see reverted tampering: {:?}",
                report.violations
            );
        }
    }
}

#[test]
fn spurious_abort_appended_to_l_is_detected() {
    // "Mala may append spurious ABORT records to L to try to hide the
    // existence of tuples that she regrets." She CAN write to WORM via its
    // API — the audit must flag the conflict.
    let (db, _c, _d) = setup("spurious-abort", Mode::LogConsistent);
    seed(&db, 50);
    // Find a committed transaction to "abort": txn ids start above 1.
    let victim_txn = TxnId(5);
    let plugin = db.plugin().unwrap().clone();
    plugin.logger().append_flush(&ccdb::compliance::LogRecord::Abort { txn: victim_txn }).unwrap();
    let report = audit_both(&db);
    assert!(
        report.violations.iter().any(|v| matches!(v, Violation::ConflictingStatus { .. })),
        "{:?}",
        report.violations
    );
}

#[test]
fn backdated_stamp_appended_to_l_is_detected() {
    // Mala appends a STAMP_TRANS claiming an old commit time (post-hoc
    // insertion groundwork): commit times must be monotone in log order.
    let (db, _c, _d) = setup("backdated-stamp", Mode::LogConsistent);
    seed(&db, 50);
    let plugin = db.plugin().unwrap().clone();
    plugin
        .logger()
        .append_flush(&ccdb::compliance::LogRecord::StampTrans {
            txn: TxnId(40_000),
            commit_time: Timestamp(1),
        })
        .unwrap();
    let report = audit_both(&db);
    assert!(
        report.violations.iter().any(|v| matches!(v, Violation::CommitTimesNotMonotonic { .. })),
        "{:?}",
        report.violations
    );
}

#[test]
fn wal_wipe_after_crash_cannot_unwind_commits() {
    // Mala forces a crash and wipes the local WAL, hoping the commit whose
    // pages never reached disk simply vanishes. The WORM-resident WAL tail
    // betrays her.
    let (db, _c, d) = setup("wal-wipe", Mode::LogConsistent);
    let rel = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    // A committed transaction whose dirty pages stay in the buffer cache.
    let t = db.begin().unwrap();
    db.write(t, rel, b"incriminating", b"evidence").unwrap();
    db.commit(t).unwrap();
    // Crash + wipe the local WAL before recovery can run.
    db.engine().crash();
    if let Some(p) = db.plugin() {
        p.logger().simulate_crash_drop_pending();
    }
    let wal_path = d.0.join("engine/wal.log");
    Mala::new(db.engine().db_path()).wipe_wal(&wal_path).unwrap();
    drop(db);
    // Reopen: recovery finds an empty WAL and resurrects nothing.
    let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(50)));
    let db = CompliantDb::open(
        &d.0,
        clock,
        ComplianceConfig {
            mode: Mode::LogConsistent,
            regret_interval: Duration::from_mins(5),
            cache_pages: 128,
            auditor_seed: [3u8; 32],
            fsync: false,
            worm_artifact_retention: None,
        },
    )
    .unwrap();
    let rel = db.engine().rel_id("ledger").unwrap();
    let t = db.begin().unwrap();
    assert_eq!(db.read(t, rel, b"incriminating").unwrap(), None, "the commit is locally gone");
    db.commit(t).unwrap();
    let report = audit_both(&db);
    assert!(
        report.violations.iter().any(|v| matches!(v, Violation::WalTailInconsistent { .. })),
        "{:?}",
        report.violations
    );
}

/// The transactions a report convicts of `WalTailInconsistent`, sorted.
fn wal_tail_flagged(report: &ccdb::compliance::AuditReport) -> Vec<TxnId> {
    let mut txns: Vec<TxnId> = report
        .violations
        .iter()
        .filter_map(|v| match v {
            Violation::WalTailInconsistent { txn } => Some(*txn),
            _ => None,
        })
        .collect();
    txns.sort();
    txns
}

/// Commits one transaction that writes `value` under `key` once per entry.
fn write_txn(db: &CompliantDb, rel: RelId, key: &[u8], values: &[&str]) -> TxnId {
    let t = db.begin().unwrap();
    for v in values {
        db.write(t, rel, key, v.as_bytes()).unwrap();
    }
    db.commit(t).unwrap();
    t
}

#[test]
fn deleting_one_version_of_a_hot_key_convicts_exactly_its_writer() {
    // A hot row: after the seal, eight transactions rewrite one key and
    // Mala deletes the oldest version. The WAL-tail check reads the key's
    // chain once for all eight writers, yet must blame exactly the writer
    // whose version vanished — and no other writer of the key.
    let (db, _c, _d) = setup("hot-key", Mode::LogConsistent);
    let rel = seed(&db, 50);
    assert!(db.audit().unwrap().is_clean());
    let writers: Vec<TxnId> =
        (0..8).map(|i| write_txn(&db, rel, b"hot-row", &[&format!("v{i}")])).collect();
    db.engine().checkpoint().unwrap();
    db.engine().clear_cache().unwrap();
    assert!(mala(&db).delete_tuple(b"hot-row").unwrap());
    let report = audit_both(&db);
    assert_eq!(wal_tail_flagged(&report), vec![writers[0]], "{:?}", report.violations);
}

#[test]
fn a_double_write_is_convicted_once_both_copies_are_gone() {
    // One transaction writes the hot key twice (two versions under one
    // commit time), a later one once more. While either copy survives, the
    // writer's commit time is still in the chain and the deletion is a
    // completeness finding only; once both are gone the WAL tail convicts
    // that transaction, once, and not the later writer.
    let (db, _c, _d) = setup("double-write", Mode::LogConsistent);
    let rel = seed(&db, 50);
    assert!(db.audit().unwrap().is_clean());
    let twice = write_txn(&db, rel, b"dup-row", &["first", "second"]);
    write_txn(&db, rel, b"dup-row", &["third"]);
    db.engine().checkpoint().unwrap();
    db.engine().clear_cache().unwrap();

    assert!(mala(&db).delete_tuple(b"dup-row").unwrap());
    let one_copy = db.audit_outcome_with(ccdb::compliance::AuditConfig::serial()).unwrap();
    assert_eq!(wal_tail_flagged(&one_copy.report), vec![], "{:?}", one_copy.report.violations);
    assert!(
        one_copy.report.violations.iter().any(|v| matches!(v, Violation::CompletenessMismatch)),
        "{:?}",
        one_copy.report.violations
    );

    db.engine().clear_cache().unwrap();
    assert!(mala(&db).delete_tuple(b"dup-row").unwrap());
    let report = audit_both(&db);
    assert_eq!(wal_tail_flagged(&report), vec![twice], "{:?}", report.violations);
}

#[test]
fn tampering_with_pre_snapshot_data_is_detected_in_later_epochs() {
    // Data verified by audit N and recorded in the snapshot must stay
    // intact through audit N+1.
    let (db, _c, _d) = setup("old-data", Mode::LogConsistent);
    let rel = seed(&db, 100);
    assert!(audit_both(&db).is_clean());
    // Epoch 1: some fresh activity, then Mala edits epoch-0 data.
    let t = db.begin().unwrap();
    db.write(t, rel, b"fresh", b"data").unwrap();
    db.commit(t).unwrap();
    db.engine().clear_cache().unwrap();
    assert!(mala(&db).alter_tuple_value(b"acct-0001", b"rewritten-history").unwrap());
    let report = audit_both(&db);
    assert!(
        report.violations.iter().any(|v| matches!(v, Violation::CompletenessMismatch)),
        "{:?}",
        report.violations
    );
}

#[test]
fn honest_database_stays_clean_under_the_same_scrutiny() {
    // Control: the full gauntlet's setup, no tampering, zero violations.
    for mode in [Mode::LogConsistent, Mode::HashOnRead] {
        let (db, _c, _d) = setup("control", mode);
        seed(&db, 200);
        let report = audit_both(&db);
        assert!(report.is_clean(), "{mode:?}: {:?}", report.violations);
    }
}

#[test]
fn forensics_localize_the_exact_tampered_tuple() {
    // After detection, the auditor pinpoints *which* tuple was altered,
    // which was erased, and which was forged.
    let (db, _c, _d) = setup("forensics", Mode::LogConsistent);
    let rel = seed(&db, 120);
    let m = mala(&db);
    assert!(m.alter_tuple_value(b"acct-0033", b"balance=overwritten").unwrap());
    assert!(m.delete_tuple(b"acct-0077").unwrap());
    assert!(m.backdate_insert(rel, b"acct-zzzz", b"forged", Timestamp(99)).unwrap());
    let report = audit_both(&db);
    assert!(!report.is_clean());
    use ccdb::compliance::TupleFinding;
    let altered = report.forensics.iter().any(|f| {
        matches!(
            f,
            TupleFinding::Altered { key, found, .. }
                if key == b"acct-0033" && found == b"balance=overwritten"
        )
    });
    let missing = report
        .forensics
        .iter()
        .any(|f| matches!(f, TupleFinding::Missing { key, .. } if key == b"acct-0077"));
    let forged = report
        .forensics
        .iter()
        .any(|f| matches!(f, TupleFinding::Forged { key, .. } if key == b"acct-zzzz"));
    assert!(altered, "{:?}", report.forensics);
    assert!(missing, "{:?}", report.forensics);
    assert!(forged, "{:?}", report.forensics);
}

#[test]
fn streaming_daemon_flags_tampering_on_the_next_poll() {
    // The daemon timeline: a stream that has been tailing the epoch and
    // polling clean must flag Mala's tampering on the very next deep poll
    // after injection — not an audit later, not after the epoch rolls.
    let (db, _c, _d) = setup("daemon", Mode::LogConsistent);
    let mut stream = db.stream_auditor().unwrap();
    let rel = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    for i in 0..200usize {
        let t = db.begin().unwrap();
        db.write(t, rel, format!("acct-{i:04}").as_bytes(), format!("balance={i}").as_bytes())
            .unwrap();
        db.commit(t).unwrap();
        if i % 17 == 0 {
            assert!(stream.poll(&db).unwrap().is_none(), "clean tail alerted");
        }
    }
    db.engine().run_stamper().unwrap();
    db.engine().clear_cache().unwrap();
    assert!(stream.poll_deep(&db).unwrap().is_none(), "pre-attack deep poll must be clean");

    assert!(mala(&db).alter_tuple_value(b"acct-0042", b"balance=1000000").unwrap());

    let alert = stream.poll_deep(&db).unwrap().expect("tampering missed on the next poll");
    assert!(
        alert.violations.iter().any(|v| matches!(v, Violation::CompletenessMismatch)),
        "{:?}",
        alert.violations
    );
    assert!(
        alert.violations.iter().any(|v| matches!(v, Violation::StateMismatch { .. })),
        "{:?}",
        alert.violations
    );
    assert_eq!(stream.stats().tamper_alerts, 1);
    // The dirty set is stable: no duplicate alert on the next poll.
    assert!(stream.poll_deep(&db).unwrap().is_none(), "re-alerted on an unchanged finding set");
}

// --- cross-shard attacks ----------------------------------------------------
//
// Mala attacks the 2PC protocol itself: decision records dropped or flipped
// on individual shards, and participants whose outcome silently diverges
// from the recorded decision. Both the batch auditors and the streaming
// daemon must raise the typed finding on the affected shard.

fn sharded_setup(tag: &str) -> (ccdb::compliance::ShardedDb, TempDir) {
    let d = TempDir::new(tag);
    let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(50)));
    let db = ccdb::compliance::ShardedDb::open(
        &d.0,
        clock,
        ComplianceConfig {
            mode: Mode::LogConsistent,
            regret_interval: Duration::from_mins(5),
            cache_pages: 128,
            auditor_seed: [3u8; 32],
            fsync: false,
            worm_artifact_retention: None,
        },
        2,
    )
    .unwrap();
    (db, d)
}

/// Seeds cross-shard traffic, then drives one transaction through the
/// prepare phase by hand so Mala can sabotage the decision phase.
fn sharded_prepared(db: &ccdb::compliance::ShardedDb) -> (RelId, u64, Vec<(usize, TxnId)>) {
    use ccdb::compliance::LogRecord;
    let rel = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    for r in 0..10usize {
        let mut dtx = db.begin();
        for k in 0..6usize {
            let key = format!("seed-{r}-{k}");
            db.write(&mut dtx, rel, key.as_bytes(), b"v").unwrap();
        }
        db.commit(dtx).unwrap();
    }
    let mut dtx = db.begin();
    for k in 0..8usize {
        let key = format!("victim-{k}");
        db.write(&mut dtx, rel, key.as_bytes(), b"pending").unwrap();
    }
    let gtxn = dtx.gtxn();
    let parts: Vec<u32> = dtx.writers().iter().map(|s| *s as u32).collect();
    assert!(parts.len() == 2, "victim txn must span both shards");
    let mut writers = Vec::new();
    for s in dtx.writers() {
        let txn = dtx.local_txn(s).unwrap();
        db.shards()[s].prepare(txn).unwrap();
        db.shards()[s]
            .log_2pc(&LogRecord::TwoPcPrepare {
                gtxn,
                txn,
                shard: s as u32,
                participants: parts.clone(),
            })
            .unwrap();
        writers.push((s, txn));
    }
    (rel, gtxn, writers)
}

/// Asserts the typed finding on `shard` under the serial batch oracle AND
/// the streaming daemon's next deep poll.
fn assert_detected_batch_and_stream(
    db: &ccdb::compliance::ShardedDb,
    shard: usize,
    pred: impl Fn(&Violation) -> bool,
) {
    use ccdb::compliance::AuditConfig;
    let s = &db.shards()[shard];
    let out = s.audit_outcome_with(AuditConfig::serial()).unwrap();
    assert!(out.report.violations.iter().any(&pred), "batch missed: {:?}", out.report.violations);
    let mut stream = s.stream_auditor().unwrap();
    let alert = stream.poll_deep(s).unwrap().expect("streaming daemon missed the 2PC attack");
    assert!(alert.violations.iter().any(&pred), "stream alert wrong: {:?}", alert.violations);
    assert!(stream.stats().tamper_alerts >= 1);
}

#[test]
fn cross_shard_dropped_decision_is_detected_by_batch_and_stream() {
    let (db, _d) = sharded_setup("xs-drop");
    let (_rel, gtxn, writers) = sharded_prepared(&db);
    // The decision lands on shard A only; both participants complete as if
    // the protocol had finished.
    db.shards()[writers[0].0]
        .log_2pc(&ccdb::compliance::LogRecord::TwoPcDecision { gtxn, commit: true })
        .unwrap();
    for (s, txn) in &writers {
        db.shards()[*s].commit(*txn).unwrap();
    }
    let starved = writers[1].0;
    assert_detected_batch_and_stream(
        &db,
        starved,
        |v| matches!(v, Violation::TwoPcUndecided { gtxn: g, .. } if *g == gtxn),
    );
}

#[test]
fn cross_shard_flipped_decision_is_detected_by_batch_stream_and_join() {
    let (db, _d) = sharded_setup("xs-flip");
    let (_rel, gtxn, writers) = sharded_prepared(&db);
    use ccdb::compliance::LogRecord;
    db.shards()[writers[0].0].log_2pc(&LogRecord::TwoPcDecision { gtxn, commit: true }).unwrap();
    db.shards()[writers[1].0].log_2pc(&LogRecord::TwoPcDecision { gtxn, commit: false }).unwrap();
    for (s, txn) in &writers {
        db.shards()[*s].commit(*txn).unwrap();
    }
    let flipped = writers[1].0;
    assert_detected_batch_and_stream(
        &db,
        flipped,
        |v| matches!(v, Violation::TwoPcOutcomeMismatch { gtxn: g, decided_commit: false, .. } if *g == gtxn),
    );
    // The deployment-level join sees the decisions disagree.
    let cross = ccdb::compliance::audit::two_pc_cross_shard_join(&db.books());
    assert!(
        cross
            .iter()
            .any(|v| matches!(v, Violation::TwoPcDivergentDecision { gtxn: g } if *g == gtxn)),
        "{cross:?}"
    );
}

#[test]
fn cross_shard_diverged_outcome_is_detected_by_batch_and_stream() {
    let (db, _d) = sharded_setup("xs-diverge");
    let (_rel, gtxn, writers) = sharded_prepared(&db);
    use ccdb::compliance::LogRecord;
    // Decisions say commit everywhere — one participant silently aborts.
    for (s, _) in &writers {
        db.shards()[*s].log_2pc(&LogRecord::TwoPcDecision { gtxn, commit: true }).unwrap();
    }
    db.shards()[writers[0].0].commit(writers[0].1).unwrap();
    db.shards()[writers[1].0].abort(writers[1].1).unwrap();
    let liar = writers[1].0;
    assert_detected_batch_and_stream(
        &db,
        liar,
        |v| matches!(v, Violation::TwoPcOutcomeMismatch { gtxn: g, decided_commit: true, .. } if *g == gtxn),
    );
}

#[test]
fn worm_reclamation_after_audits() {
    // "Each snapshot can expire and be deleted from WORM once the next
    // snapshot is in place. Similarly, the compliance log file can be
    // deleted after every audit."
    let d = TempDir::new("reclaim");
    let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(50)));
    let db = CompliantDb::open(
        &d.0,
        clock.clone(),
        ComplianceConfig {
            mode: Mode::LogConsistent,
            regret_interval: Duration::from_mins(5),
            cache_pages: 128,
            auditor_seed: [3u8; 32],
            fsync: false,
            worm_artifact_retention: Some(Duration::from_mins(30)),
        },
    )
    .unwrap();
    let rel = db.create_relation("r", SplitPolicy::KeyOnly).unwrap();
    for round in 0..3u8 {
        for i in 0..30u8 {
            let t = db.begin().unwrap();
            db.write(t, rel, &[b'k', round, i], b"v").unwrap();
            db.commit(t).unwrap();
        }
        assert!(audit_both(&db).is_clean());
    }
    let before = db.worm().stats().files;
    // Retention on epoch-0/1 artifacts has not elapsed yet: nothing to do.
    assert_eq!(db.reclaim_worm().unwrap(), 0);
    clock.advance(Duration::from_mins(60));
    let deleted = db.reclaim_worm().unwrap();
    assert!(deleted > 0, "expired early-epoch artifacts should be reclaimable");
    let after = db.worm().stats().files;
    assert!(after < before);
    // The previous snapshot (needed by the next audit) must survive.
    for i in 0..5u8 {
        let t = db.begin().unwrap();
        db.write(t, rel, &[b'z', i], b"v").unwrap();
        db.commit(t).unwrap();
    }
    let report = audit_both(&db);
    assert!(report.is_clean(), "{:?}", report.violations);
}
