//! The sharded-deployment differential suite: an N-shard deployment
//! running cross-shard transactions must audit clean under the serial
//! oracle, the parallel pipeline, AND the streaming auditor — and every
//! catalogued cross-shard tamper (dropped decision record, flipped
//! decision record, diverged outcome, orphan decision) must be detected,
//! with the *typed* finding, on at least one shard's audit under all
//! three strategies.

use std::path::PathBuf;
use std::sync::Arc;

use ccdb::btree::SplitPolicy;
use ccdb::common::{ClockRef, Duration, RelId, TxnId, VirtualClock};
use ccdb::compliance::{AuditConfig, ComplianceConfig, LogRecord, Mode, ShardedDb, Violation};

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "ccdb-shard2pc-{}-{}-{}",
            std::process::id(),
            tag,
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        let _ = std::fs::remove_dir_all(&p);
        TempDir(p)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn clock() -> ClockRef {
    Arc::new(VirtualClock::ticking(Duration::from_micros(50)))
}

fn cfg() -> ComplianceConfig {
    ComplianceConfig {
        mode: Mode::LogConsistent,
        regret_interval: Duration::from_mins(5),
        cache_pages: 256,
        auditor_seed: [7u8; 32],
        fsync: false,
        worm_artifact_retention: None,
    }
}

fn open(d: &TempDir, n: u32) -> ShardedDb {
    ShardedDb::open(&d.0, clock(), cfg(), n).unwrap()
}

/// A mixed workload: single-shard transactions, cross-shard transactions
/// (the 2PC path), reads, and a sprinkle of aborts.
fn workload(db: &ShardedDb, rel: RelId, rounds: usize) {
    for r in 0..rounds {
        // Cross-shard: a fan of keys wide enough to hit every shard.
        let mut dtx = db.begin();
        for k in 0..8usize {
            let key = format!("xs-{r:04}-{k}");
            db.write(&mut dtx, rel, key.as_bytes(), format!("r{r}").as_bytes()).unwrap();
        }
        db.commit(dtx).unwrap();

        // Single-shard: one key, no 2PC records.
        let mut dtx = db.begin();
        let key = format!("solo-{r:04}");
        db.write(&mut dtx, rel, key.as_bytes(), b"solo").unwrap();
        db.commit(dtx).unwrap();

        // Aborts leave no 2PC traffic (presumed abort, never prepared).
        if r % 5 == 0 {
            let mut dtx = db.begin();
            for k in 0..4usize {
                let key = format!("doomed-{r:04}-{k}");
                db.write(&mut dtx, rel, key.as_bytes(), b"never").unwrap();
            }
            db.abort(dtx).unwrap();
        }

        // Reads route without writing.
        if r > 0 {
            let mut dtx = db.begin();
            let key = format!("xs-{:04}-0", r - 1);
            assert!(db.read(&mut dtx, rel, key.as_bytes()).unwrap().is_some());
            db.commit(dtx).unwrap();
        }
    }
    for shard in db.shards() {
        shard.engine().run_stamper().unwrap();
    }
}

/// Runs all three audit strategies per shard as dry runs over the same
/// quiesced state, asserts they agree on every observable, and returns the
/// serial per-shard violation sets plus the cross-shard join.
fn audit_all_strategies(db: &ShardedDb) -> (Vec<Vec<Violation>>, Vec<Violation>) {
    let (serial_outcomes, cross) = db.audit_dry(AuditConfig::serial()).unwrap();
    for threads in [2usize, 4] {
        let (par, par_cross) = db.audit_dry(AuditConfig::default().with_threads(threads)).unwrap();
        for (i, (s, p)) in serial_outcomes.iter().zip(par.iter()).enumerate() {
            assert_eq!(
                s.report.violations, p.report.violations,
                "shard {i}: serial/parallel divergence at {threads} threads"
            );
            assert_eq!(
                s.tuple_hash, p.tuple_hash,
                "shard {i}: completeness-hash divergence at {threads} threads"
            );
        }
        assert_eq!(cross, par_cross, "cross-shard join diverged at {threads} threads");
    }
    // The streaming auditor, per shard: the verdict path is the exact
    // finalization sequence of the serial oracle over the carried fold.
    for (i, shard) in db.shards().iter().enumerate() {
        let mut stream = shard.stream_auditor().unwrap();
        let out = stream.verdict(shard).unwrap();
        assert_eq!(
            serial_outcomes[i].report.violations, out.report.violations,
            "shard {i}: stream verdict disagrees with the serial oracle"
        );
    }
    (serial_outcomes.into_iter().map(|o| o.report.violations).collect(), cross)
}

#[test]
fn cross_shard_workload_audits_clean_under_all_auditors() {
    for n in [2u32, 4] {
        let d = TempDir::new(&format!("clean-{n}"));
        let db = open(&d, n);
        let rel = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
        workload(&db, rel, 25);
        let (per_shard, cross) = audit_all_strategies(&db);
        for (i, v) in per_shard.iter().enumerate() {
            assert!(v.is_empty(), "{n} shards, shard {i} dirty: {v:?}");
        }
        assert!(cross.is_empty(), "{n} shards, cross-shard join dirty: {cross:?}");
        // And the real sealing audit agrees.
        let dep = db.audit().unwrap();
        assert!(dep.is_clean(), "{:?}", dep.all_violations());
    }
}

#[test]
fn second_epoch_continues_clean_after_seal() {
    let d = TempDir::new("epoch2");
    let db = open(&d, 2);
    let rel = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    workload(&db, rel, 10);
    assert!(db.audit().unwrap().is_clean());
    // Epoch 1: more cross-shard traffic on the sealed deployment.
    workload(&db, rel, 10);
    let (per_shard, cross) = audit_all_strategies(&db);
    assert!(per_shard.iter().all(|v| v.is_empty()), "{per_shard:?}");
    assert!(cross.is_empty(), "{cross:?}");
}

/// Drives a cross-shard transaction up to (and including) the prepare
/// phase by hand, returning the participants. The caller then chooses how
/// to tamper with the decision phase.
fn prepared_txn(db: &ShardedDb, rel: RelId, tag: &str) -> (u64, Vec<(usize, TxnId)>) {
    let mut dtx = db.begin();
    for k in 0..8usize {
        let key = format!("{tag}-{k}");
        db.write(&mut dtx, rel, key.as_bytes(), b"pending").unwrap();
    }
    let gtxn = dtx.gtxn();
    let parts: Vec<u32> = dtx.writers().iter().map(|s| *s as u32).collect();
    assert!(parts.len() >= 2, "tag {tag} did not fan out across shards");
    let mut out = Vec::new();
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
        out.push((s, txn));
    }
    drop(dtx); // the protocol is driven by hand from here
    (gtxn, out)
}

fn has<F: Fn(&Violation) -> bool>(v: &[Violation], f: F) -> bool {
    v.iter().any(f)
}

#[test]
fn dropped_decision_record_is_detected_on_the_starved_shard() {
    let d = TempDir::new("drop-decision");
    let db = open(&d, 2);
    let rel = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    workload(&db, rel, 5);
    let (gtxn, writers) = prepared_txn(&db, rel, "attack-drop");
    // Mala suppresses the decision on every shard but the first, yet the
    // participants complete as if the protocol had finished.
    db.shards()[writers[0].0].log_2pc(&LogRecord::TwoPcDecision { gtxn, commit: true }).unwrap();
    for (s, txn) in &writers {
        db.shards()[*s].commit(*txn).unwrap();
    }
    let (per_shard, _cross) = audit_all_strategies(&db);
    let starved = writers[1].0;
    assert!(
        has(
            &per_shard[starved],
            |v| matches!(v, Violation::TwoPcUndecided { gtxn: g, .. } if *g == gtxn)
        ),
        "shard {starved} must flag the undecided prepare: {:?}",
        per_shard[starved]
    );
    // The shard that kept its decision record stays locally consistent.
    assert!(per_shard[writers[0].0].is_empty(), "{:?}", per_shard[writers[0].0]);
}

#[test]
fn flipped_decision_record_is_detected_and_joined_as_divergence() {
    let d = TempDir::new("flip-decision");
    let db = open(&d, 2);
    let rel = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    workload(&db, rel, 5);
    let (gtxn, writers) = prepared_txn(&db, rel, "attack-flip");
    // The true decision is commit; Mala flips the record on one shard.
    db.shards()[writers[0].0].log_2pc(&LogRecord::TwoPcDecision { gtxn, commit: true }).unwrap();
    db.shards()[writers[1].0].log_2pc(&LogRecord::TwoPcDecision { gtxn, commit: false }).unwrap();
    for (s, txn) in &writers {
        db.shards()[*s].commit(*txn).unwrap();
    }
    let (per_shard, cross) = audit_all_strategies(&db);
    let flipped = writers[1].0;
    assert!(
        has(&per_shard[flipped], |v| matches!(
            v,
            Violation::TwoPcOutcomeMismatch { gtxn: g, decided_commit: false, .. } if *g == gtxn
        )),
        "shard {flipped} must flag decision/outcome mismatch: {:?}",
        per_shard[flipped]
    );
    assert!(
        has(&cross, |v| matches!(v, Violation::TwoPcDivergentDecision { gtxn: g } if *g == gtxn)),
        "the cross-shard join must flag divergent decisions: {cross:?}"
    );
}

#[test]
fn diverged_outcome_between_shards_is_detected() {
    let d = TempDir::new("diverge");
    let db = open(&d, 2);
    let rel = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    workload(&db, rel, 5);
    let (gtxn, writers) = prepared_txn(&db, rel, "attack-diverge");
    // Decision records say commit everywhere — but one participant aborts,
    // silently breaking atomicity.
    for (s, _) in &writers {
        db.shards()[*s].log_2pc(&LogRecord::TwoPcDecision { gtxn, commit: true }).unwrap();
    }
    db.shards()[writers[0].0].commit(writers[0].1).unwrap();
    db.shards()[writers[1].0].abort(writers[1].1).unwrap();
    let (per_shard, _cross) = audit_all_strategies(&db);
    let liar = writers[1].0;
    assert!(
        has(&per_shard[liar], |v| matches!(
            v,
            Violation::TwoPcOutcomeMismatch { gtxn: g, decided_commit: true, .. } if *g == gtxn
        )),
        "shard {liar} must flag the diverged outcome: {:?}",
        per_shard[liar]
    );
}

#[test]
fn orphan_decision_record_is_detected() {
    let d = TempDir::new("orphan");
    let db = open(&d, 2);
    let rel = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    workload(&db, rel, 5);
    // A decision for a global transaction no shard ever prepared.
    db.shards()[0].log_2pc(&LogRecord::TwoPcDecision { gtxn: 999_999, commit: true }).unwrap();
    let (per_shard, _cross) = audit_all_strategies(&db);
    assert!(
        has(&per_shard[0], |v| matches!(v, Violation::TwoPcOrphanDecision { gtxn: 999_999 })),
        "{:?}",
        per_shard[0]
    );
}

#[test]
fn shard_crash_mid_decision_recovers_to_audit_clean_commit() {
    let d = TempDir::new("crash-decided");
    let mut db = open(&d, 2);
    let rel = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    workload(&db, rel, 5);
    let (gtxn, writers) = prepared_txn(&db, rel, "crash-mid");
    // The decision reached shard A's log; shard B crashes before seeing it
    // (and before either local commit).
    let a = writers[0].0;
    let b = writers[1].0;
    db.shards()[a].log_2pc(&LogRecord::TwoPcDecision { gtxn, commit: true }).unwrap();
    db.crash_shard(b).unwrap();
    // Resolution must have driven BOTH participants to commit: shard A's
    // local transaction is also resolved (it was in doubt in memory only —
    // crash_shard resolves deployment-wide).
    let mut r = db.begin();
    for k in 0..8usize {
        let key = format!("crash-mid-{k}");
        assert_eq!(
            db.read(&mut r, rel, key.as_bytes()).unwrap().as_deref(),
            Some(&b"pending"[..]),
            "key {k} lost after shard crash"
        );
    }
    db.commit(r).unwrap();
    let (per_shard, cross) = audit_all_strategies(&db);
    assert!(per_shard.iter().all(|v| v.is_empty()), "{per_shard:?}");
    assert!(cross.is_empty(), "{cross:?}");
}
