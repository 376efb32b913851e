//! Differential proof of the **streaming auditor** against the batch
//! auditors: for seeded workloads exercising commits, aborts, reads,
//! structure modifications, WORM migration, shredding, and mid-run epoch
//! rolls, a stream that tails `L` incrementally — paused and resumed at
//! arbitrary points, at several poll cadences and ingest-batch caps — must
//! produce a [`ccdb::compliance::StreamAuditor::verdict`] **identical** to
//! the cold serial oracle and the parallel pipeline: same verdict, same
//! violation and forensic sets, same completeness hash, same snapshot
//! material.
//!
//! Since all three became drivers of one audit core, these identities check
//! that the core is invariant under batching. The core itself is checked
//! against the naive spec auditor in `spec_audit/`.
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
            "ccdb-sdiff-{}-{}-{}",
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

/// The audit-diff seeded workload, with a hook invoked after every
/// transaction (and every epoch-level maintenance action) so a streaming
/// auditor can be polled at arbitrary pause points mid-run.
fn seeded_workload(db: &CompliantDb, seed: u64, epochs: u32, hook: &mut dyn FnMut(&CompliantDb)) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let ledger = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    let hot = db.create_relation("hot", SplitPolicy::TimeSplit { threshold: 0.8 }).unwrap();
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
            hook(db);
        }
        if rng.gen_bool(0.6) {
            let _ = db.migrate_to_worm(hot).unwrap();
            hook(db);
        }
        if rng.gen_bool(0.5) {
            let t = db.begin().unwrap();
            db.set_retention(t, "ledger", Duration::from_micros(1)).unwrap();
            db.commit(t).unwrap();
            let _ = db.vacuum().unwrap();
            let t = db.begin().unwrap();
            db.set_retention(t, "ledger", Duration::from_mins(60)).unwrap();
            db.commit(t).unwrap();
            hook(db);
        }
        if epoch + 1 < epochs {
            let report = db.audit().unwrap();
            assert!(report.is_clean(), "seed {seed} epoch {epoch}: {:?}", report.violations);
            hook(db);
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

/// The pause-point sweep: the stream is polled mid-workload at several
/// cadences (every Nth transaction, N seeded-random) and ingest caps
/// (including a degenerate 1-record cap that puts every record at a batch
/// boundary), then its verdict is compared against the cold serial oracle
/// and the parallel pipeline over the same quiesced state.
fn sweep(mode: Mode, tag: &str) {
    for seed in diff_seeds() {
        for (cadence, cap) in
            [(7usize, None), (3usize, Some(5usize)), (13usize, Some(1usize)), (1usize, Some(64))]
        {
            let d = TempDir::new(&format!("{tag}-{seed}-{cadence}"));
            let (db, _clock) = open(&d, mode);
            let mut stream = db.stream_auditor().unwrap();
            stream.set_max_batch_records(cap);
            let mut step = 0usize;
            let mut pauser = SplitMix64::seed_from_u64(seed ^ 0x5EED_CAFE);
            seeded_workload(&db, seed, 2, &mut |db| {
                step += 1;
                // Random extra pauses on top of the fixed cadence.
                if step.is_multiple_of(cadence) || pauser.gen_bool(0.15) {
                    let alert = stream.poll(db).unwrap();
                    assert!(alert.is_none(), "clean workload alerted: {alert:?}");
                }
            });

            let serial = db.audit_outcome_with(AuditConfig::serial()).unwrap();
            let par = db
                .audit_outcome_with(AuditConfig::default().with_threads(4).with_chunk_records(3))
                .unwrap();
            let sv = stream.verdict(&db).unwrap();
            let label = format!("{tag} seed={seed} cadence={cadence} cap={cap:?}");
            assert_same_outcome(&format!("{label} vs serial"), &serial, &sv);
            assert_same_outcome(&format!("{label} vs parallel"), &par, &sv);
            assert!(sv.report.is_clean(), "{label}: {:?}", sv.report.violations);
            // The independent oracle agrees with the stream's fold.
            let spec = spec_audit::run(&db, AUDITOR_SEED);
            assert!(spec.expected == spec.actual, "{label}: spec says Df != Ds ∪ L");
            assert_eq!(spec.actual_hash(), sv.tuple_hash, "{label}: spec vs tuple_hash");
            assert_eq!(
                wal_tail_flagged(&sv),
                spec.wal_tail_inconsistent,
                "{label}: spec vs WAL-tail verdict"
            );
            let keys = sv.report.stats.wal_tail_keys;
            assert!(
                keys > 0 && keys as usize <= spec.wal_tail_inserts,
                "{label}: {keys} keys probed for {} tail inserts",
                spec.wal_tail_inserts
            );
            // One finalize serves all three drivers, so all three account
            // for its phases (a streaming verdict used to report zeros).
            for (who, out) in [("serial", &serial), ("parallel", &par), ("stream", &sv)] {
                let s = &out.report.stats;
                assert!(
                    s.wal_tail_us > 0
                        && s.final_state_us > 0
                        && s.tree_verify_us > 0
                        && s.completeness_join_us > 0,
                    "{label} {who}: per-phase timers unfilled: {s:?}"
                );
            }

            // The verdict ran over a clone of the carried state: a second
            // verdict — and one after further polling — is identical.
            let sv2 = stream.verdict(&db).unwrap();
            assert_same_outcome(&format!("{label} verdict idempotent"), &sv, &sv2);
            assert!(stream.poll(&db).unwrap().is_none());
            assert_eq!(stream.stats().lag_records, 0, "{label}: caught up");
            assert_eq!(stream.stats().tamper_alerts, 0, "{label}: no alerts");
            let sv3 = stream.verdict(&db).unwrap();
            assert_same_outcome(&format!("{label} verdict after resume"), &sv, &sv3);

            // The stream followed the mid-workload epoch roll.
            assert_eq!(stream.epoch(), db.epoch(), "{label}: epoch follow");
            assert_eq!(stream.stats().epochs_sealed, db.epoch(), "{label}: rolls counted");
        }
    }
}

#[test]
fn streaming_matches_batch_log_consistent() {
    sweep(Mode::LogConsistent, "lc");
}

#[test]
fn streaming_matches_batch_hash_on_read() {
    sweep(Mode::HashOnRead, "hor");
}

/// A cold stream attached *after* the workload (no mid-run polls at all —
/// one giant catch-up batch) also matches.
#[test]
fn cold_attach_matches_serial() {
    let d = TempDir::new("cold");
    let (db, _clock) = open(&d, Mode::HashOnRead);
    seeded_workload(&db, 23, 2, &mut |_| {});
    let serial = db.audit_outcome_with(AuditConfig::serial()).unwrap();
    let mut stream = db.stream_auditor().unwrap();
    let sv = stream.verdict(&db).unwrap();
    assert_same_outcome("cold", &serial, &sv);
}

/// Regression: a transaction that writes the **same key twice at one commit
/// instant** (same `(rel, key, start_time)`, distinct seqs) used to leave a
/// dangling entry in the completeness accumulator after a vacuum shredded
/// both versions — the shred book collapsed them into one entry, so the
/// second `UNDO` was misread as a crash-recovery duplicate and never folded
/// out, yielding a false `CompletenessMismatch` on an honest database. All
/// three strategies must now agree the state is clean.
#[test]
fn same_instant_double_write_shreds_cleanly() {
    let d = TempDir::new("dup-shred");
    let (db, _clock) = open(&d, Mode::LogConsistent);
    let ledger = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    let t = db.begin().unwrap();
    db.write(t, ledger, b"dup", b"first").unwrap();
    db.write(t, ledger, b"dup", b"second").unwrap();
    db.commit(t).unwrap();
    let t = db.begin().unwrap();
    db.write(t, ledger, b"other", b"keep").unwrap();
    db.commit(t).unwrap();

    let report = db.audit().unwrap();
    assert!(report.is_clean(), "pre-shred audit: {:?}", report.violations);

    // Expire the relation and shred: both same-instant versions go.
    let t = db.begin().unwrap();
    db.set_retention(t, "ledger", Duration::from_micros(1)).unwrap();
    db.commit(t).unwrap();
    let _ = db.vacuum().unwrap();

    let serial = db.audit_outcome_with(AuditConfig::serial()).unwrap();
    assert!(serial.report.is_clean(), "serial after dup-shred: {:?}", serial.report.violations);
    let par = db.audit_outcome_with(AuditConfig::default().with_threads(2)).unwrap();
    let mut stream = db.stream_auditor().unwrap();
    let sv = stream.verdict(&db).unwrap();
    assert_same_outcome("dup-shred vs parallel", &serial, &par);
    assert_same_outcome("dup-shred vs streaming", &serial, &sv);
}

/// Satellite regression: `with_checkpoints(false)` and the streaming path
/// agree with the batch auditors on `snapshot_prefix_skipped` accounting —
/// all strategies report the same (positive) skip count when the sealed
/// checkpoint is honored, and exactly zero when it is disabled, with the
/// verdict unchanged either way.
#[test]
fn snapshot_prefix_skipped_accounting_agrees() {
    let d = TempDir::new("skip");
    let (db, _clock) = open(&d, Mode::LogConsistent);
    seeded_workload(&db, 7, 2, &mut |_| {});
    assert!(db.epoch() > 0, "workload must roll at least one epoch");

    let on_serial = db.audit_outcome_with(AuditConfig::serial()).unwrap();
    let on_par = db.audit_outcome_with(AuditConfig::default().with_threads(2)).unwrap();
    let mut s_on = db.stream_auditor().unwrap();
    let on_stream = s_on.verdict(&db).unwrap();
    assert!(
        on_serial.report.stats.snapshot_prefix_skipped > 0,
        "checkpointed audit should skip the sealed prefix"
    );
    assert_eq!(
        on_serial.report.stats.snapshot_prefix_skipped, on_par.report.stats.snapshot_prefix_skipped,
        "serial vs parallel skip accounting"
    );
    assert_eq!(
        on_serial.report.stats.snapshot_prefix_skipped,
        on_stream.report.stats.snapshot_prefix_skipped,
        "serial vs streaming skip accounting"
    );
    assert_eq!(
        s_on.stats().snapshot_prefix_skipped,
        on_stream.report.stats.snapshot_prefix_skipped
    );

    let off_serial = db.audit_outcome_with(AuditConfig::serial().with_checkpoints(false)).unwrap();
    let off_par = db
        .audit_outcome_with(AuditConfig::default().with_threads(2).with_checkpoints(false))
        .unwrap();
    let mut s_off = db.stream_auditor_with(AuditConfig::default().with_checkpoints(false)).unwrap();
    let off_stream = s_off.verdict(&db).unwrap();
    for (label, out) in
        [("serial", &off_serial), ("parallel", &off_par), ("streaming", &off_stream)]
    {
        assert_eq!(
            out.report.stats.snapshot_prefix_skipped, 0,
            "{label}: checkpoints off must re-fold the full snapshot"
        );
    }

    // Accounting differs; the verdict must not.
    assert_same_outcome("skip on-vs-off serial", &on_serial, &off_serial);
    assert_same_outcome("skip on-vs-off streaming", &on_stream, &off_stream);
    assert_same_outcome("skip streaming-vs-serial", &on_stream, &on_serial);
}

/// The WAL-tail rule on a hot row, streamed: a stream that polled along as
/// eight transactions rewrote one key (the first of them twice) must, after
/// Mala deletes the three oldest versions, convict the same two writers as
/// the spec's one-lookup-per-insert rule and the batch auditor.
#[test]
fn streamed_wal_tail_verdict_on_a_hot_key_matches_the_spec() {
    use ccdb::adversary::Mala;

    let d = TempDir::new("spec-hot");
    let (db, _clock) = open(&d, Mode::LogConsistent);
    let mut stream = db.stream_auditor().unwrap();
    seeded_workload(&db, 3, 1, &mut |_| {});
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
        assert!(stream.poll(&db).unwrap().is_none(), "clean tail alerted");
    }
    db.engine().checkpoint().unwrap();
    db.engine().clear_cache().unwrap();
    let mala = Mala::new(db.engine().db_path());
    for _ in 0..3 {
        assert!(mala.delete_tuple(b"hot-row").unwrap());
    }

    let spec = spec_audit::run(&db, AUDITOR_SEED);
    let mut expected = writers[..2].to_vec();
    expected.sort();
    assert_eq!(spec.wal_tail_inconsistent, expected, "spec");
    let serial = db.audit_outcome_with(AuditConfig::serial()).unwrap();
    let sv = stream.verdict(&db).unwrap();
    assert_eq!(wal_tail_flagged(&sv), expected, "stream");
    assert_same_outcome("hot-key stream vs serial", &serial, &sv);
}
