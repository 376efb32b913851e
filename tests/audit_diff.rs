//! Differential proof of the parallel audit pipeline against the serial
//! oracle: for seeded workloads exercising commits, aborts, reads,
//! structure modifications, WORM migration, and shredding, the parallel
//! auditor must produce **identical** verdicts, violation sets, forensic
//! findings, completeness hashes, and snapshot material at every thread
//! count and chunk size — including degenerate 1-record chunks that place
//! every record at a chunk boundary.
//!
//! Since the serial pass and the pipeline became one audit core (of which
//! "serial" is the one-thread run), these identities check that the core is
//! invariant under partitioning. The core itself is checked against the
//! naive spec auditor in `spec_audit/`, which shares none of its code.
//!
//! Seed control: `CCDB_AUDIT_DIFF_SEEDS` (comma-separated u64 list) widens
//! the seeded sweep in CI without recompiling.

use std::path::PathBuf;
use std::sync::Arc;

use ccdb::btree::SplitPolicy;
use ccdb::common::{Duration, SplitMix64, TxnId, VirtualClock};
use ccdb::compliance::{AuditConfig, AuditOutcome, ComplianceConfig, CompliantDb, Mode, Violation};

mod spec_audit;

const AUDITOR_SEED: [u8; 32] = [0xD1; 32];

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "ccdb-adiff-{}-{}-{}",
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

fn open(dir: &TempDir, mode: Mode) -> (CompliantDb, Arc<VirtualClock>) {
    let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(30)));
    let db = CompliantDb::open(
        &dir.0,
        clock.clone(),
        ComplianceConfig {
            mode,
            regret_interval: Duration::from_mins(5),
            cache_pages: 128,
            auditor_seed: AUDITOR_SEED,
            fsync: false,
            worm_artifact_retention: None,
        },
    )
    .unwrap();
    (db, clock)
}

/// Drives one seeded workload: interleaved commits/aborts/updates/deletes
/// and reads over two relations (one time-split), with optional WORM
/// migration, retention expiry + vacuum, and a mid-run audit epoch roll.
fn seeded_workload(db: &CompliantDb, clock: &VirtualClock, seed: u64, epochs: u32) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let ledger = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    let hot = db.create_relation("hot", SplitPolicy::TimeSplit { threshold: 0.8 }).unwrap();
    let _ = clock;
    for epoch in 0..epochs {
        let txns = rng.gen_range(120..240u32);
        for i in 0..txns {
            let t = db.begin().unwrap();
            let rel = if rng.gen_bool(0.3) { hot } else { ledger };
            let nwrites = rng.gen_range(1..5u32);
            for _ in 0..nwrites {
                let k = format!("s{seed}-k{:04}", rng.gen_range(0..600u32));
                if rng.gen_bool(0.12) {
                    db.delete(t, rel, k.as_bytes()).unwrap();
                } else {
                    let v = format!("e{epoch}i{i}v{}", rng.gen_range(0..u32::MAX));
                    db.write(t, rel, k.as_bytes(), v.as_bytes()).unwrap();
                }
            }
            if rng.gen_bool(0.25) {
                let k = format!("s{seed}-k{:04}", rng.gen_range(0..600u32));
                let _ = db.read(t, rel, k.as_bytes()).unwrap();
            }
            if rng.gen_bool(0.1) {
                db.abort(t).unwrap();
            } else {
                db.commit(t).unwrap();
            }
        }
        if rng.gen_bool(0.6) {
            // Time-split + WORM migration of historical pages.
            let _ = db.migrate_to_worm(hot).unwrap();
        }
        if rng.gen_bool(0.5) {
            // Expire and shred a slice of the ledger.
            let t = db.begin().unwrap();
            db.set_retention(t, "ledger", Duration::from_micros(1)).unwrap();
            db.commit(t).unwrap();
            let _ = db.vacuum().unwrap();
            // Restore a long retention so later epochs keep their tuples.
            let t = db.begin().unwrap();
            db.set_retention(t, "ledger", Duration::from_mins(60)).unwrap();
            db.commit(t).unwrap();
        }
        if epoch + 1 < epochs {
            // Roll the audit epoch so later dry-runs replay against a real
            // snapshot prefix (exercising the checkpoint fast path too).
            let report = db.audit().unwrap();
            assert!(report.is_clean(), "seed {seed} epoch {epoch}: {:?}", report.violations);
        }
    }
}

/// Asserts two audit outcomes are observably identical: verdict, violation
/// list, forensics, counts, completeness hash, and snapshot material.
#[track_caller]
fn assert_same_outcome(tag: &str, a: &AuditOutcome, b: &AuditOutcome) {
    assert_eq!(a.report.epoch, b.report.epoch, "{tag}: epoch");
    assert_eq!(a.report.violations, b.report.violations, "{tag}: violations");
    assert_eq!(a.report.forensics, b.report.forensics, "{tag}: forensics");
    assert_eq!(
        a.report.stats.records_scanned, b.report.stats.records_scanned,
        "{tag}: records_scanned"
    );
    assert_eq!(a.report.stats.tuples_final, b.report.stats.tuples_final, "{tag}: tuples_final");
    assert_eq!(
        a.report.stats.reads_verified, b.report.stats.reads_verified,
        "{tag}: reads_verified"
    );
    assert_eq!(a.tuple_hash, b.tuple_hash, "{tag}: tuple_hash");
    assert_eq!(a.snapshot_pages, b.snapshot_pages, "{tag}: snapshot_pages");
}

/// The transactions an outcome convicts of `WalTailInconsistent`, sorted
/// (duplicates kept, so a repeated conviction shows against the spec's set).
fn wal_tail_flagged(out: &AuditOutcome) -> Vec<TxnId> {
    let mut txns: Vec<TxnId> = out
        .report
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

fn diff_seeds() -> Vec<u64> {
    match std::env::var("CCDB_AUDIT_DIFF_SEEDS") {
        Ok(s) => s
            .split(',')
            .filter(|t| !t.trim().is_empty())
            .map(|t| t.trim().parse().expect("CCDB_AUDIT_DIFF_SEEDS: bad u64"))
            .collect(),
        Err(_) => vec![11, 42],
    }
}

/// The core differential sweep: serial oracle vs the parallel pipeline at
/// thread counts {1, 2, 4, 8} and several chunk sizes.
fn sweep(mode: Mode, tag: &str) {
    for seed in diff_seeds() {
        let d = TempDir::new(&format!("{tag}-{seed}"));
        let (db, clock) = open(&d, mode);
        seeded_workload(&db, &clock, seed, 2);

        let serial = db.audit_outcome_with(AuditConfig::serial()).unwrap();
        assert_eq!(serial.report.stats.threads_used, 1);

        // The independent oracle: an honest history is complete, and the
        // product folded exactly the tuples the database file holds.
        let spec = spec_audit::run(&db, AUDITOR_SEED);
        assert!(spec.expected == spec.actual, "{tag} seed={seed}: spec says Df != Ds ∪ L");
        assert_eq!(spec.actual_hash(), serial.tuple_hash, "{tag} seed={seed}: spec vs tuple_hash");
        assert_eq!(
            wal_tail_flagged(&serial),
            spec.wal_tail_inconsistent,
            "{tag} seed={seed}: spec vs WAL-tail verdict"
        );
        let stats = &serial.report.stats;
        println!(
            "{tag} seed={seed}: WAL tail {} inserts, {} keys read; wal_tail_us={} (read {})",
            spec.wal_tail_inserts, stats.wal_tail_keys, stats.wal_tail_us, stats.wal_tail_read_us
        );
        // The tail check read each distinct key once: at least one, and
        // never more than the tail holds inserts.
        let keys = stats.wal_tail_keys;
        assert!(
            keys > 0 && keys as usize <= spec.wal_tail_inserts,
            "{tag} seed={seed}: {keys} keys probed for {} tail inserts",
            spec.wal_tail_inserts
        );

        for threads in [1usize, 2, 4, 8] {
            for chunk in [1usize, 3, ccdb::compliance::DEFAULT_L_CHUNK_RECORDS] {
                let cfg = AuditConfig::default().with_threads(threads).with_chunk_records(chunk);
                let par = db.audit_outcome_with(cfg).unwrap();
                assert_eq!(par.report.stats.threads_used, threads as u64);
                assert_same_outcome(
                    &format!("{tag} seed={seed} threads={threads} chunk={chunk}"),
                    &serial,
                    &par,
                );
            }
        }
    }
}

#[test]
fn parallel_matches_serial_log_consistent() {
    sweep(Mode::LogConsistent, "lc");
}

#[test]
fn parallel_matches_serial_hash_on_read() {
    sweep(Mode::HashOnRead, "hor");
}

/// The checkpoint fast path must not change the differential result: with
/// checkpoints disabled, serial and parallel still agree with the
/// checkpointed runs bit-for-bit on everything but the skip counter.
#[test]
fn checkpoints_do_not_change_the_verdict() {
    let d = TempDir::new("ckpt-diff");
    let (db, clock) = open(&d, Mode::LogConsistent);
    seeded_workload(&db, &clock, 7, 3);

    let base = db.audit_outcome_with(AuditConfig::serial()).unwrap();
    for cfg in [
        AuditConfig::serial().with_checkpoints(false),
        AuditConfig::default().with_threads(4),
        AuditConfig::default().with_threads(4).with_checkpoints(false),
    ] {
        let other = db.audit_outcome_with(cfg).unwrap();
        assert_same_outcome("ckpt-diff", &base, &other);
    }
}

/// Auto thread selection (0 = available parallelism) also matches.
#[test]
fn auto_threads_match_serial() {
    let d = TempDir::new("auto");
    let (db, clock) = open(&d, Mode::HashOnRead);
    seeded_workload(&db, &clock, 23, 1);
    let serial = db.audit_outcome_with(AuditConfig::serial()).unwrap();
    let auto = db.audit_outcome_with(AuditConfig::default().with_threads(0)).unwrap();
    assert!(auto.report.stats.threads_used >= 1);
    assert_same_outcome("auto", &serial, &auto);
}

/// The spec oracle against tuple-level tampering: Mala alters, deletes, or
/// back-dates a tuple in the database file and the spec's two sets differ
/// exactly when the product reports `CompletenessMismatch` — and after a
/// tamper that only reorders a leaf (same tuples, Figure 2(b)) both say the
/// tuple set is intact, the product catching it as a tree violation instead.
#[test]
fn spec_oracle_differs_exactly_when_completeness_is_violated() {
    use ccdb::adversary::Mala;
    use ccdb::common::Timestamp;
    use ccdb::compliance::Violation;

    type Tamper = fn(&Mala, ccdb::common::RelId) -> bool;
    let tampers: [(&str, bool, Tamper); 4] = [
        ("alter", true, |m, _| m.alter_tuple_value(b"spec-target", b"cooked").unwrap()),
        ("delete", true, |m, _| m.delete_tuple(b"spec-target").unwrap()),
        ("backdate", true, |m, rel| {
            m.backdate_insert(rel, b"spec-forged", b"planted", Timestamp(5)).unwrap()
        }),
        ("reorder", false, |m, _| m.swap_leaf_entries().unwrap()),
    ];
    for (name, breaks_completeness, tamper) in tampers {
        let d = TempDir::new(&format!("spec-{name}"));
        let (db, clock) = open(&d, Mode::LogConsistent);
        seeded_workload(&db, &clock, 5, 2);
        let ledger = db.engine().rel_id("ledger").unwrap();
        let t = db.begin().unwrap();
        db.write(t, ledger, b"spec-target", b"honest").unwrap();
        db.commit(t).unwrap();
        db.engine().run_stamper().unwrap();
        db.engine().clear_cache().unwrap();
        assert!(tamper(&Mala::new(db.engine().db_path()), ledger), "{name}: nothing to tamper");

        let spec = spec_audit::run(&db, AUDITOR_SEED);
        assert_eq!(spec.expected != spec.actual, breaks_completeness, "{name}: spec verdict");
        for cfg in [AuditConfig::serial(), AuditConfig::default().with_threads(4)] {
            let out = db.audit_outcome_with(cfg).unwrap();
            assert!(!out.report.is_clean(), "{name}: tamper went unnoticed");
            let product =
                out.report.violations.iter().any(|v| matches!(v, Violation::CompletenessMismatch));
            assert_eq!(product, breaks_completeness, "{name}: {:?}", out.report.violations);
            assert_eq!(spec.actual_hash(), out.tuple_hash, "{name}: spec vs tuple_hash");
        }
    }
}

/// The seeded workload above never fills a time-split page, so its logs
/// carry no `MIGRATE`. This one does — overwrite-heavy traffic on a
/// time-split relation, migrated after every wave — and the spec oracle's
/// "minus MIGRATEd versions" must keep agreeing with the product.
#[test]
fn spec_oracle_follows_worm_migration() {
    let d = TempDir::new("spec-migrate");
    let (db, _clock) = open(&d, Mode::LogConsistent);
    let hot = db.create_relation("hot", SplitPolicy::TimeSplit { threshold: 0.7 }).unwrap();
    let mut migrated = 0;
    for wave in 0..3u32 {
        for i in 0..120u32 {
            let t = db.begin().unwrap();
            let k = format!("h{:03}", i % 37);
            db.write(t, hot, k.as_bytes(), format!("w{wave}i{i}").as_bytes()).unwrap();
            db.commit(t).unwrap();
        }
        migrated += db.migrate_to_worm(hot).unwrap().pages_migrated;
        let out = db.audit_outcome_with(AuditConfig::serial()).unwrap();
        assert!(out.report.is_clean(), "wave {wave}: {:?}", out.report.violations);
        let spec = spec_audit::run(&db, AUDITOR_SEED);
        assert!(spec.expected == spec.actual, "wave {wave}: spec says Df != Ds ∪ L");
        assert_eq!(spec.actual_hash(), out.tuple_hash, "wave {wave}: spec vs tuple_hash");
        assert_eq!(wal_tail_flagged(&out), spec.wal_tail_inconsistent, "wave {wave}: WAL tail");
        if wave == 1 {
            assert!(db.audit().unwrap().is_clean(), "epoch roll");
        }
    }
    assert!(migrated > 0, "the workload never migrated a page — test is vacuous");
}

/// The WAL-tail rule on a hot row. After a seal, eight transactions rewrite
/// one key — the first of them twice — and Mala deletes the `n` oldest
/// versions. The spec looks every insert up on its own; the product reads
/// the key's chain once for all of them. Both must convict the same
/// writers: nobody while one of the double write's copies survives, then
/// the double writer, then it and the next writer.
#[test]
fn spec_oracle_agrees_on_the_wal_tail_of_a_hot_key() {
    use ccdb::adversary::Mala;

    for (deleted, convicted) in [(1usize, 0usize), (2, 1), (3, 2)] {
        let d = TempDir::new(&format!("spec-hot-{deleted}"));
        let (db, clock) = open(&d, Mode::LogConsistent);
        seeded_workload(&db, &clock, 3, 1);
        assert!(db.audit().unwrap().is_clean(), "seal");
        let ledger = db.engine().rel_id("ledger").unwrap();
        let mut writers = Vec::new();
        for i in 0..8u32 {
            let t = db.begin().unwrap();
            for copy in 0..if i == 0 { 2 } else { 1 } {
                db.write(t, ledger, b"hot-row", format!("w{i}c{copy}").as_bytes()).unwrap();
            }
            db.commit(t).unwrap();
            writers.push(t);
        }
        db.engine().checkpoint().unwrap();
        db.engine().clear_cache().unwrap();
        let mala = Mala::new(db.engine().db_path());
        for _ in 0..deleted {
            assert!(mala.delete_tuple(b"hot-row").unwrap());
        }

        let spec = spec_audit::run(&db, AUDITOR_SEED);
        let mut expected = writers[..convicted].to_vec();
        expected.sort();
        assert_eq!(spec.wal_tail_inconsistent, expected, "deleted={deleted}: spec");
        for cfg in [AuditConfig::serial(), AuditConfig::default().with_threads(4)] {
            let out = db.audit_outcome_with(cfg).unwrap();
            assert_eq!(wal_tail_flagged(&out), expected, "deleted={deleted}: product");
        }
    }
}
