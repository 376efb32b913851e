//! Fault-detection satellites around the torture campaign: torn pages read
//! back as *typed* corruption and are healed by recovery or flagged by the
//! auditor; recovery is correct and idempotent at every WAL record boundary;
//! and a truncated WORM backing file is *reported* by the auditor as the
//! specific named violation, never an audit error.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use ccdb::adversary::Mala;
use ccdb::btree::SplitPolicy;
use ccdb::common::{Duration, Error, VirtualClock};
use ccdb::compliance::{ComplianceConfig, CompliantDb, Mode, Violation};
use ccdb::storage::{
    DiskManager, FaultInjector, FaultKind, FaultPlan, IoPoint, PageStore, PAGE_SIZE,
};
use ccdb::wal::WalReader;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "ccdb-fault-{}-{}-{}",
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

fn config(mode: Mode, cache_pages: usize) -> ComplianceConfig {
    ComplianceConfig {
        mode,
        regret_interval: Duration::from_mins(5),
        cache_pages,
        auditor_seed: [9u8; 32],
        fsync: false,
        worm_artifact_retention: None,
    }
}

fn open(dir: &Path, mode: Mode, cache_pages: usize) -> (CompliantDb, Arc<VirtualClock>) {
    let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(50)));
    let db = CompliantDb::open(dir, clock.clone(), config(mode, cache_pages)).unwrap();
    (db, clock)
}

fn put(db: &CompliantDb, rel: ccdb::common::RelId, key: &[u8], value: &[u8]) {
    let t = db.begin().unwrap();
    db.write(t, rel, key, value).unwrap();
    db.commit(t).unwrap();
}

/// A torn data-page write — injected through the full compliant stack — must
/// (a) surface as the injected error at write time, (b) read back from the
/// raw medium as a *typed* corruption error (never garbage data, never a
/// panic), and (c) be healed transparently by crash recovery from the WAL,
/// leaving a clean audit.
#[test]
fn torn_page_write_is_typed_corruption_and_recovery_heals_it() {
    const KEYS: u32 = 15;
    let val = |i: u32, gen: u32| format!("g{gen}-{i}-{}", "p".repeat(32)).into_bytes();
    let d = TempDir::new("torn-page");
    let (db, _clock) = open(&d.0, Mode::LogConsistent, 128);
    let rel = db.create_relation("t", SplitPolicy::KeyOnly).unwrap();

    // A durable baseline that fits one leaf with room to spare, so the next
    // write dirties exactly that page and tearing it is deterministic.
    for i in 0..KEYS {
        put(&db, rel, format!("k{i:03}").as_bytes(), &val(i, 1));
    }
    db.engine().run_stamper().unwrap();
    db.engine().checkpoint().unwrap();

    // Raw-scan helper: which pages of the on-disk file fail to read, and how.
    let unreadable = |path: &Path| -> std::collections::BTreeMap<u64, Error> {
        let raw = DiskManager::open(path).unwrap();
        (0..raw.page_count())
            .filter_map(|pgno| raw.pread(ccdb::common::PageNo(pgno)).err().map(|e| (pgno, e)))
            .collect()
    };
    let before = unreadable(db.engine().db_path());

    // Dirty the one leaf with a new version, then tear its write after the
    // first 512 bytes — far less than the page's ~1.5 KiB of content, so the
    // frankenpage cannot checksum clean whatever the cell layout.
    put(&db, rel, b"k007", &val(7, 2));
    db.engine().run_stamper().unwrap();
    let inj = Arc::new(FaultInjector::armed(FaultPlan::single(
        IoPoint::PageWrite,
        1,
        FaultKind::Torn { keep_permille: 125 },
    )));
    db.set_fault_injector(Some(inj.clone()));
    let err = db.engine().checkpoint().expect_err("torn page write must fail the checkpoint");
    assert!(err.is_injected(), "checkpoint failed for the wrong reason: {err}");
    assert_eq!(inj.fired().len(), 1);

    // (b) Out-of-band, the half-written page is *typed* corruption.
    let after = unreadable(db.engine().db_path());
    let new_bad: Vec<(&u64, &Error)> =
        after.iter().filter(|(pgno, _)| !before.contains_key(pgno)).collect();
    match new_bad.as_slice() {
        [(_, Error::Corruption(_))] => {}
        [(pgno, other)] => panic!("torn page {pgno} must read as Corruption, got: {other}"),
        other => panic!(
            "exactly one page must be newly unreadable after the torn write, got {other:?} \
             (baseline {before:?})"
        ),
    }

    // (c) Recovery replays the WAL over the torn page and the database
    // converges: every committed value is back, and the audit is clean.
    let db = db.crash_and_recover().unwrap();
    let rel = db.engine().rel_id("t").unwrap();
    for i in 0..KEYS {
        let expect = val(i, if i == 7 { 2 } else { 1 });
        let got = db.engine().read_latest(rel, format!("k{i:03}").as_bytes()).unwrap();
        assert_eq!(got, Some(expect), "k{i:03} lost after torn-write recovery");
    }
    let report = db.audit().unwrap();
    assert!(report.is_clean(), "audit after healed torn write: {:?}", report.violations);
}

/// A torn page that recovery can *not* explain — the damage appears out of
/// band, with no crash and no WAL evidence — is tampering, and the
/// hash-page-on-read auditor flags exactly the damaged page.
#[test]
fn unexplained_torn_page_is_flagged_by_audit() {
    let d = TempDir::new("torn-tamper");
    let (db, _clock) = open(&d.0, Mode::HashOnRead, 128);
    let rel = db.create_relation("t", SplitPolicy::KeyOnly).unwrap();
    for i in 0..80u32 {
        put(&db, rel, format!("acct-{i:04}").as_bytes(), format!("balance={i}").as_bytes());
    }
    db.engine().run_stamper().unwrap();
    db.engine().clear_cache().unwrap();

    // Manufacture the torn image: keep the first half of the real page,
    // zero the rest, leave the stale checksum in place — exactly what a torn
    // pwrite leaves on a real disk.
    let mala = Mala::new(db.engine().db_path());
    let (pgno, image) = mala
        .snapshot_page_with(b"acct-0010")
        .unwrap()
        .expect("seeded key must live on some leaf page");
    let mut torn = image.clone();
    for b in &mut torn[PAGE_SIZE / 2..] {
        *b = 0;
    }
    mala.restore_page(pgno, &torn).unwrap();

    let report = db.audit().unwrap();
    assert!(!report.is_clean());
    assert!(
        report.violations.iter().any(|v| matches!(
            v,
            Violation::BadPage { pgno: p, .. } if *p == pgno
        )),
        "audit must name the torn page {pgno:?}: {:?}",
        report.violations
    );
}

/// Truncating the WORM epoch log's backing store behind the trusted
/// metadata — the named WORM-violation arm of the torture contract — is
/// *reported* by the auditor as `WormTruncated` naming the file and both
/// lengths. The audit itself must return `Ok`: damaged evidence is a
/// finding, not a crash.
#[test]
fn worm_tail_truncation_is_reported_not_errored() {
    let d = TempDir::new("worm-trunc");
    let (db, _clock) = open(&d.0, Mode::LogConsistent, 128);
    let rel = db.create_relation("t", SplitPolicy::KeyOnly).unwrap();
    for i in 0..60u32 {
        put(&db, rel, format!("k{i:03}").as_bytes(), format!("v{i}").as_bytes());
    }
    db.engine().run_stamper().unwrap();
    db.engine().clear_cache().unwrap(); // flush pages → compliance records reach WORM

    let epoch = db.epoch();
    let log_name = format!("L/epoch-{epoch}");
    let backing = d.0.join("worm").join("data").join(&log_name);
    let full = std::fs::metadata(&backing).unwrap().len();
    assert!(full > 3, "epoch log backing file unexpectedly small ({full} bytes)");
    let cut = full - full / 3;
    std::fs::OpenOptions::new().write(true).open(&backing).unwrap().set_len(cut).unwrap();

    let report = db.audit().expect("audit must report truncation, not error out");
    assert!(!report.is_clean());
    let named = report.violations.iter().find_map(|v| match v {
        Violation::WormTruncated { file, trusted_len, backing_len } if *file == log_name => {
            Some((*trusted_len, *backing_len))
        }
        _ => None,
    });
    let (trusted_len, backing_len) =
        named.unwrap_or_else(|| panic!("no WormTruncated for {log_name}: {:?}", report.violations));
    assert_eq!(trusted_len, full);
    assert_eq!(backing_len, cut);
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// Crashes the database at *every* WAL record boundary after a fixed
/// workload and verifies, for each prefix: recovery converges, exactly the
/// transactions whose Commit record made the prefix are visible, and
/// recovering a second time reaches the identical state (idempotence).
///
/// The audit is deliberately not asserted here: truncating the *flushed*
/// WAL below its WORM-mirrored tail is not a physically reachable crash
/// state (a crash only loses the unflushed suffix), and the auditor rightly
/// treats it as suspicious — `wal_wipe_after_crash_cannot_unwind_commits`
/// in `attack_detection.rs` covers that arm.
#[test]
fn recovery_is_exact_and_idempotent_at_every_wal_record_boundary() {
    const TXNS: u32 = 6;
    let src = TempDir::new("walb-src");
    // A cache large enough that no page is evicted mid-workload: the WAL is
    // the only durable trace of the transactions, so the prefix fully
    // determines what recovery must reconstruct.
    let (db, _clock) = open(&src.0, Mode::LogConsistent, 256);
    let rel = db.create_relation("t", SplitPolicy::KeyOnly).unwrap();
    db.engine().wal().flush().unwrap();
    let setup_end = db.engine().wal().flushed_lsn().0;

    let mut commit_end = Vec::new();
    for i in 0..TXNS {
        put(
            &db,
            rel,
            format!("t{i}").as_bytes(),
            format!("value-{i}-{}", "x".repeat(20)).as_bytes(),
        );
        commit_end.push(db.engine().wal().flushed_lsn().0);
    }
    // Keep `db` open: the copies below are the crash image (durable WAL,
    // unflushed data pages), not a clean shutdown.

    let wal_path = src.0.join("engine").join("wal.log");
    let mut reader = WalReader::open(&wal_path).unwrap();
    let mut boundaries: Vec<u64> =
        reader.collect_records().iter().map(|(lsn, _)| lsn.0).filter(|&b| b >= setup_end).collect();
    boundaries.push(std::fs::metadata(&wal_path).unwrap().len());
    assert!(boundaries.len() > TXNS as usize, "workload produced too few WAL records");

    for &b in &boundaries {
        let case = TempDir::new(&format!("walb-{b}"));
        copy_dir(&src.0, &case.0);
        let _ = std::fs::remove_file(case.0.join("engine").join("clean.shutdown"));
        std::fs::OpenOptions::new()
            .write(true)
            .open(case.0.join("engine").join("wal.log"))
            .unwrap()
            .set_len(b)
            .unwrap();

        let check = |db: &CompliantDb, pass: &str| {
            let rel = db.engine().rel_id("t").expect("relation must survive recovery");
            for i in 0..TXNS {
                let expect = (commit_end[i as usize] <= b)
                    .then(|| format!("value-{i}-{}", "x".repeat(20)).into_bytes());
                let got = db.engine().read_latest(rel, format!("t{i}").as_bytes()).unwrap();
                assert_eq!(
                    got, expect,
                    "boundary {b} ({pass}): txn {i} (commit ends at {}) wrong visibility",
                    commit_end[i as usize]
                );
            }
        };

        let recovered = {
            let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(50)));
            CompliantDb::open(&case.0, clock, config(Mode::LogConsistent, 256))
                .unwrap_or_else(|e| panic!("boundary {b}: recovery failed: {e}"))
        };
        check(&recovered, "first recovery");

        // Idempotence: crash again immediately and recover a second time.
        let recovered = recovered
            .crash_and_recover()
            .unwrap_or_else(|e| panic!("boundary {b}: second recovery failed: {e}"));
        check(&recovered, "second recovery");
    }
}

/// Regression: crash recovery hands the committed transactions to the
/// compliance plugin in transaction-id order, and the plugin used to re-emit
/// their `STAMP_TRANS` records in that order. Two interleaved committers
/// whose id order differs from their commit order, crashed before `L` was
/// flushed, therefore left an honest history that audited as
/// `CommitTimesNotMonotonic`. Re-emission is in commit-time order now: the
/// recovered epoch audits clean on one thread, on several, and under the
/// stream.
#[test]
fn recovery_restamps_in_commit_order_not_id_order() {
    use ccdb::compliance::AuditConfig;

    let d = TempDir::new("restamp-order");
    let (db, _clock) = open(&d.0, Mode::LogConsistent, 128);
    let rel = db.create_relation("t", SplitPolicy::KeyOnly).unwrap();
    put(&db, rel, b"base", b"line");
    db.engine().checkpoint().unwrap();

    // `first` gets the lower id but commits last.
    let first = db.begin().unwrap();
    let second = db.begin().unwrap();
    assert!(first < second, "ids follow begin order");
    db.write(first, rel, b"k-first", b"1").unwrap();
    db.write(second, rel, b"k-second", b"2").unwrap();
    db.commit(second).unwrap();
    db.commit(first).unwrap();

    // The crash drops the unflushed `STAMP_TRANS` records; recovery finds
    // both commits in the WAL and re-emits them.
    let db = db.crash_and_recover().unwrap();
    let t = db.begin().unwrap();
    assert_eq!(db.read(t, rel, b"k-first").unwrap().as_deref(), Some(&b"1"[..]));
    assert_eq!(db.read(t, rel, b"k-second").unwrap().as_deref(), Some(&b"2"[..]));
    db.commit(t).unwrap();

    let mut stream = db.stream_auditor().unwrap();
    for (label, out) in [
        ("1 thread", db.audit_outcome_with(AuditConfig::serial()).unwrap()),
        ("4 threads", db.audit_outcome_with(AuditConfig::default().with_threads(4)).unwrap()),
        ("stream", stream.verdict(&db).unwrap()),
    ] {
        assert!(out.report.is_clean(), "{label}: {:?}", out.report.violations);
    }
    let report = db.audit().unwrap();
    assert!(report.is_clean(), "sealing audit: {:?}", report.violations);
}
