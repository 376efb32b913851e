//! Stress runs: a bounded multi-threaded audit-under-load harness (runs by
//! default; size it with `CCDB_STRESS_TXNS`) and a long-haul single-threaded
//! run (ignored by default; run with
//! `cargo test --release --test stress -- --ignored`).

use std::path::PathBuf;
use std::sync::Arc;

use ccdb::btree::SplitPolicy;
use ccdb::common::{Duration, Timestamp, VirtualClock};
use ccdb::compliance::logger::epoch_log_name;
use ccdb::compliance::records::LogIter;
use ccdb::compliance::{ComplianceConfig, CompliantDb, LogRecord, Mode};

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!("ccdb-stress-{}-{}", std::process::id(), tag));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Per-writer transaction count for the concurrent harness. Defaults small
/// enough for a debug-mode test run; CI's release smoke raises it via
/// `CCDB_STRESS_TXNS`.
fn stress_txns() -> u32 {
    std::env::var("CCDB_STRESS_TXNS").ok().and_then(|v| v.parse().ok()).unwrap_or(150)
}

/// The audit-under-load harness: N writer threads and M reader threads hammer
/// one `CompliantDb` through commits, aborts, stamper ticks, and a mid-run
/// WORM migration. Afterwards:
///
/// * every commit timestamp handed out is globally unique,
/// * the compliance log `L` carries `STAMP_TRANS` records whose commit times
///   are *strictly increasing in append (offset) order* — the property the
///   auditor's single-pass replay depends on,
/// * the auditor replays everything clean, and
/// * no pending (unstamped) work is left behind once the stamper drains.
#[test]
fn concurrent_commit_pipeline_audits_clean() {
    let writers: u64 = 4;
    let readers: u64 = 2;
    let txns = stress_txns();

    let d = TempDir::new("mt");
    let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(25)));
    let db = Arc::new(
        CompliantDb::open(
            &d.0,
            clock.clone(),
            ComplianceConfig {
                mode: Mode::HashOnRead,
                regret_interval: Duration::from_mins(60),
                cache_pages: 256,
                auditor_seed: [7u8; 32],
                fsync: false,
                worm_artifact_retention: None,
            },
        )
        .unwrap(),
    );
    let ledger = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    let hot = db.create_relation("hot", SplitPolicy::TimeSplit { threshold: 0.8 }).unwrap();

    let mut all_commit_times: Vec<Timestamp> = Vec::new();
    let mut committed = 0u64;
    let mut aborted = 0u64;

    // Two waves with a WORM migration between them, so readers and writers
    // also run against a partially migrated store.
    for wave in 0..2u32 {
        let mut handles = Vec::new();
        for w in 0..writers {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                let mut times = Vec::new();
                let mut aborts = 0u64;
                for i in 0..txns {
                    let t = db.begin().unwrap();
                    let key = format!("w{w}-k{:04}", i % 97);
                    db.write(t, ledger, key.as_bytes(), &i.to_le_bytes()).unwrap();
                    if i % 5 == 2 {
                        db.write(t, hot, format!("h{w}-{}", i % 11).as_bytes(), &i.to_le_bytes())
                            .unwrap();
                    }
                    if i % 13 == 6 {
                        db.delete(t, ledger, key.as_bytes()).unwrap();
                    }
                    if i % 7 == 3 {
                        db.abort(t).unwrap();
                        aborts += 1;
                    } else {
                        times.push(db.commit(t).unwrap());
                    }
                    if i % 50 == 49 {
                        db.engine().run_stamper().unwrap();
                    }
                }
                (times, aborts)
            }));
        }
        let mut rhandles = Vec::new();
        for r in 0..readers {
            let db = db.clone();
            rhandles.push(std::thread::spawn(move || {
                let mut times = Vec::new();
                for i in 0..txns {
                    let t = db.begin().unwrap();
                    let key = format!("w{}-k{:04}", i as u64 % writers, (i * 7 + r as u32) % 97);
                    // Hash-on-read under concurrent commits: must never error
                    // and must never later be rejected by the auditor.
                    let (_val, _ticket) = db.read_verifiable(t, ledger, key.as_bytes()).unwrap();
                    times.push(db.commit(t).unwrap());
                }
                times
            }));
        }
        for h in handles {
            let (times, aborts) = h.join().unwrap();
            committed += times.len() as u64;
            aborted += aborts;
            all_commit_times.extend(times);
        }
        for h in rhandles {
            let times = h.join().unwrap();
            committed += times.len() as u64;
            all_commit_times.extend(times);
        }
        db.engine().run_stamper().unwrap();
        if wave == 0 {
            db.migrate_to_worm(hot).unwrap();
        }
        db.tick().unwrap();
    }
    assert!(committed > 0 && aborted > 0, "harness must exercise both paths");

    // 1. Commit timestamps are globally unique (and therefore totally
    //    ordered): the sequencing critical section hands them out.
    let mut sorted = all_commit_times.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), all_commit_times.len(), "duplicate commit timestamps");

    // 2. Nothing pending once the stamper has drained.
    let stats = db.engine().stats();
    assert_eq!(stats.stamp_queue_len, 0, "stamp queue must be fully drained");
    assert!(stats.group_commit_txns > 0, "commits must ride the pipeline");

    // 3. The auditor replays the whole load clean.
    let report = db.audit().unwrap();
    assert!(
        report.is_clean(),
        "audit under load: {:?}",
        &report.violations[..report.violations.len().min(5)]
    );

    // 4. `L` order is consistent with commit order: walking every epoch log
    //    in offset order, STAMP_TRANS commit times are strictly increasing.
    let mut last = Timestamp(0);
    let mut stamps = 0u64;
    for epoch in 0..=db.epoch() {
        let name = epoch_log_name(epoch);
        if !db.worm().exists(&name) {
            continue;
        }
        let bytes = db.worm().read_all(&name).unwrap();
        for item in LogIter::new(&bytes) {
            let (off, rec) = item.unwrap();
            if let LogRecord::StampTrans { commit_time, .. } = rec {
                assert!(
                    commit_time > last,
                    "epoch {epoch} offset {off}: STAMP_TRANS {commit_time:?} \
                     not after {last:?} — L order diverged from commit order"
                );
                last = commit_time;
                stamps += 1;
            }
        }
    }
    assert_eq!(stamps, committed, "every commit must reach L exactly once");
}

/// Tens of thousands of mixed operations across several epochs, with
/// periodic crashes, vacuum, and migration — everything must audit clean
/// at every epoch boundary.
#[test]
#[ignore = "long-running stress test"]
fn fifty_thousand_ops_across_epochs() {
    let d = TempDir::new("50k");
    let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(25)));
    let mut db = CompliantDb::open(
        &d.0,
        clock.clone(),
        ComplianceConfig {
            mode: Mode::HashOnRead,
            regret_interval: Duration::from_mins(5),
            cache_pages: 512,
            auditor_seed: [42u8; 32],
            fsync: false,
            worm_artifact_retention: None,
        },
    )
    .unwrap();
    let ledger = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    let hot = db.create_relation("hot", SplitPolicy::TimeSplit { threshold: 0.8 }).unwrap();
    let t = db.begin().unwrap();
    db.set_retention(t, "hot", Duration::from_mins(200)).unwrap();
    db.commit(t).unwrap();

    let mut committed_keys = 0u64;
    for epoch in 0..5u32 {
        for i in 0..10_000u32 {
            let t = db.begin().unwrap();
            let key = format!("e{epoch}-k{:05}", i % 4000);
            db.write(t, ledger, key.as_bytes(), &i.to_le_bytes()).unwrap();
            db.write(t, hot, format!("h{}", i % 16).as_bytes(), &i.to_le_bytes()).unwrap();
            if i % 97 == 13 {
                db.delete(t, ledger, key.as_bytes()).unwrap();
            }
            if i % 211 == 7 {
                db.abort(t).unwrap();
            } else {
                db.commit(t).unwrap();
                committed_keys += 1;
            }
            if i % 2500 == 2499 {
                db.engine().run_stamper().unwrap();
            }
        }
        if epoch % 2 == 1 {
            db = db.crash_and_recover().unwrap();
        }
        if epoch == 2 {
            db.migrate_to_worm(hot).unwrap();
        }
        if epoch == 3 {
            clock.advance(Duration::from_mins(300));
            db.remigrate_expired().unwrap();
            let vr = db.vacuum().unwrap();
            assert!(vr.shredded > 0);
        }
        let report = db.audit().unwrap();
        assert!(
            report.is_clean(),
            "epoch {epoch}: {:?}",
            &report.violations[..report.violations.len().min(5)]
        );
        println!(
            "epoch {epoch}: clean ({} records, {} tuples, {} reads verified)",
            report.stats.records_scanned, report.stats.tuples_final, report.stats.reads_verified
        );
    }
    assert!(committed_keys > 45_000);
}

/// Audit-under-migration: waves of commits interleave with WORM migrations
/// of time-split pages, and after every wave the serial oracle and the
/// parallel pipeline are run over the same state — with a **one-record
/// decode chunk** so each `MIGRATE` record sits on its own chunk boundary
/// at the migration frontier. Both auditors must exempt migrated pages
/// identically: same violations, same completeness hash, same snapshot
/// material, plus a clean verdict throughout.
#[test]
fn audit_under_migration_parallel_matches_serial() {
    use ccdb::compliance::AuditConfig;

    let d = TempDir::new("mig-diff");
    let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(25)));
    let db = CompliantDb::open(
        &d.0,
        clock,
        ComplianceConfig {
            mode: Mode::LogConsistent,
            regret_interval: Duration::from_mins(60),
            cache_pages: 96,
            auditor_seed: [0x4D; 32],
            fsync: false,
            worm_artifact_retention: None,
        },
    )
    .unwrap();
    let hot = db.create_relation("hot", SplitPolicy::TimeSplit { threshold: 0.7 }).unwrap();
    let cold = db.create_relation("cold", SplitPolicy::KeyOnly).unwrap();

    let mut migrated_total = 0usize;
    for wave in 0..4u32 {
        // Overwrite-heavy traffic so the time-split policy produces
        // historical pages for the migrator to take.
        for i in 0..120u32 {
            let t = db.begin().unwrap();
            let k = format!("h{:03}", i % 37);
            db.write(t, hot, k.as_bytes(), format!("w{wave}i{i}").as_bytes()).unwrap();
            if i % 5 == 0 {
                db.write(t, cold, format!("c{wave}-{i:03}").as_bytes(), b"archived").unwrap();
            }
            if i % 11 == 7 {
                db.abort(t).unwrap();
            } else {
                db.commit(t).unwrap();
            }
        }
        let rep = db.migrate_to_worm(hot).unwrap();
        migrated_total += rep.pages_migrated;

        // Dual audit over the post-migration state. chunk=1 puts every
        // MIGRATE record at a chunk boundary; the sweep also covers a
        // mid-size chunk so boundaries fall *inside* migration runs.
        let serial = db.audit_outcome_with(AuditConfig::serial()).unwrap();
        assert!(
            serial.report.is_clean(),
            "wave {wave}: serial auditor flagged an honest migration: {:?}",
            serial.report.violations
        );
        for (threads, chunk) in [(2usize, 1usize), (4, 1), (4, 5), (8, 2)] {
            let par = db
                .audit_outcome_with(
                    AuditConfig::default().with_threads(threads).with_chunk_records(chunk),
                )
                .unwrap();
            assert_eq!(
                serial.report.violations, par.report.violations,
                "wave {wave} threads={threads} chunk={chunk}: violation divergence"
            );
            assert_eq!(
                serial.tuple_hash, par.tuple_hash,
                "wave {wave} threads={threads} chunk={chunk}: hash divergence"
            );
            assert_eq!(
                serial.snapshot_pages, par.snapshot_pages,
                "wave {wave} threads={threads} chunk={chunk}: snapshot divergence"
            );
        }

        // Roll the epoch every other wave so migrations also cross epoch
        // (snapshot-prefix) boundaries.
        if wave % 2 == 1 {
            let r = db.audit().unwrap();
            assert!(r.is_clean(), "wave {wave}: epoch-roll audit: {:?}", r.violations);
        }
    }
    assert!(migrated_total > 0, "the workload never migrated a page — test is vacuous");
}

/// Multi-tenant service under load: M tenants × N client connections hammer
/// one in-process `ccdb-server` over TCP loopback with commits, aborts, and
/// mid-transaction disconnects. Afterwards:
///
/// * every admission slot has drained back to zero (no leaked handles),
/// * per-tenant engine commit counters reconcile exactly with what clients
///   saw acknowledged (zero lost or duplicated commits),
/// * tenants are isolated (no cross-tenant reads), sharing one WORM volume
///   whose root view carries every tenant's namespace, and
/// * every tenant's audit is clean, with the serial single-pass oracle and
///   the parallel pipeline in verdict agreement.
#[test]
fn multi_tenant_server_under_load_audits_clean() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::{Duration as StdDuration, Instant};

    use ccdb_rpc::client::Client;
    use ccdb_server::{Server, ServerConfig};

    let tenants = 3u32;
    let clients = 4u32;
    let txns = (stress_txns() / 3).max(20);

    let d = TempDir::new("server-load");
    let config = ServerConfig::new(
        &d.0,
        ComplianceConfig {
            mode: Mode::LogConsistent,
            regret_interval: Duration::from_mins(5),
            cache_pages: 512,
            fsync: false,
            ..ComplianceConfig::default()
        },
    );
    let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(25)));
    let server = Server::start(config, clock).unwrap();
    let addr = server.addr().to_string();

    let names: Vec<String> = (0..tenants).map(|t| format!("tenant{t}")).collect();
    for name in &names {
        let mut c = Client::connect(&addr, name).unwrap();
        c.create_relation("ledger").unwrap();
    }

    let commits_before: Vec<u64> = names
        .iter()
        .map(|n| server.tenants().tenant(n).unwrap().engine().stats().commits)
        .collect();

    // Per-tenant acknowledged-commit counters, for exact reconciliation
    // against the engine below.
    let acked: Vec<Arc<AtomicU64>> = (0..tenants).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let mut handles = Vec::new();
    for (ti, name) in names.iter().enumerate() {
        for w in 0..clients {
            let (name, addr, acked) = (name.clone(), addr.clone(), acked[ti].clone());
            handles.push(std::thread::spawn(move || {
                let mut c = Client::connect(&addr, &name).unwrap();
                let rel = c.rel_id("ledger").unwrap();
                for i in 0..txns {
                    let txn = c.begin().unwrap();
                    let key = format!("w{w}-k{:05}", i % 500);
                    c.write(txn, rel, key.as_bytes(), &i.to_le_bytes()).unwrap();
                    if i % 17 == 5 {
                        c.abort(txn).unwrap();
                    } else {
                        c.commit(txn).unwrap();
                        acked.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // One client per tenant hangs up with a transaction still
                // open: the server must abort it and release the slot.
                if w == 0 {
                    let txn = c.begin().unwrap();
                    c.write(txn, rel, b"orphan", b"never-committed").unwrap();
                    drop(c);
                }
            }));
        }
    }
    for h in handles {
        h.join().unwrap();
    }

    // Disconnect cleanup is asynchronous (the connection thread observes the
    // dead socket); wait for the admission view to drain.
    let deadline = Instant::now() + StdDuration::from_secs(5);
    while server.inflight_txns() > 0 {
        assert!(Instant::now() < deadline, "admission slots never drained");
        std::thread::sleep(StdDuration::from_millis(10));
    }

    // Zero lost/duplicated commits, per tenant: exactly the acknowledged
    // commits landed in that tenant's engine — no more (duplicates), no
    // fewer (losses), and never a neighbor's.
    for (ti, name) in names.iter().enumerate() {
        let total = server.tenants().tenant(name).unwrap().engine().stats().commits;
        assert_eq!(
            total - commits_before[ti],
            acked[ti].load(Ordering::Relaxed),
            "{name}: engine commit counter does not reconcile with acked commits"
        );
    }

    for name in &names {
        let mut c = Client::connect(&addr, name).unwrap();
        let rel = c.rel_id("ledger").unwrap();
        let txn = c.begin().unwrap();
        // The orphaned write never became visible.
        assert_eq!(c.read(txn, rel, b"orphan").unwrap(), None, "{name}: orphan txn leaked");
        // Cross-tenant isolation: another tenant's keys do not exist here,
        // and this tenant's own committed keys do.
        assert!(c.read(txn, rel, b"w0-k00000").unwrap().is_some(), "{name}: lost its own data");
        c.abort(txn).unwrap();
        // Serial oracle (dry run) and parallel pipeline agree, both clean.
        let serial = c.audit(true).unwrap();
        let parallel = c.audit(false).unwrap();
        assert!(serial.0, "{name}: serial audit dirty ({} violations)", serial.1);
        assert!(parallel.0, "{name}: parallel audit dirty ({} violations)", parallel.1);
        assert_eq!(serial, parallel, "{name}: serial oracle disagrees with parallel audit");
    }

    // One shared WORM volume, every tenant namespaced on it.
    let root_names: Vec<String> =
        server.tenants().worm().list("").into_iter().map(|(n, _)| n).collect();
    for name in &names {
        let prefix = format!("tenants/{name}/");
        assert!(
            root_names.iter().any(|n| n.starts_with(&prefix)),
            "{name}: no {prefix} artifacts on the shared volume"
        );
    }
}
