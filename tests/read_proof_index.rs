//! The sealed-epoch proof index against its scan reference.
//!
//! `CompliantDb::read_proof` answers from a per-epoch index (Merkle levels,
//! key directory, page offsets into the snapshot on WORM) that the sealing
//! audit builds once. These tests hold it, for every key ever written and
//! for keys never written, to the scan-based reference
//! `proof::build_read_proof` over the signature-verified snapshot — byte
//! for byte — and to the engine-free verifier under the pinned lineage
//! fingerprint, across everything that can put a version somewhere
//! unexpected: key splits, time splits with stamping between rounds,
//! several writes of one key in one transaction, deletions, WORM migration,
//! a second seal, crash recovery, a plain reopen, shards and tenants.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

use ccdb::btree::SplitPolicy;
use ccdb::common::{Duration, Error, RelId, SplitMix64, VirtualClock};
use ccdb::compliance::proof::{build_read_proof, head_of_snapshot};
use ccdb::compliance::snapshot::snapshot_name;
use ccdb::compliance::{
    ComplianceConfig, CompliantDb, EpochHeadManager, Mode, ShardedDb, SnapshotManager,
    TenantRegistry,
};
use ccdb_verifier::verify_read;

const AUDITOR_SEED: [u8; 32] = [0x1D; 32];

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "ccdb-proof-index-{}-{}-{}",
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

fn config(retention: Option<Duration>) -> ComplianceConfig {
    ComplianceConfig {
        mode: Mode::HashOnRead,
        regret_interval: Duration::from_mins(5),
        cache_pages: 128,
        auditor_seed: AUDITOR_SEED,
        fsync: false,
        worm_artifact_retention: retention,
    }
}

fn clock() -> Arc<VirtualClock> {
    Arc::new(VirtualClock::ticking(Duration::from_micros(30)))
}

type Keys = BTreeSet<(RelId, Vec<u8>)>;

/// Holds every key in `keys`, and `absent` further ones, to the scan
/// reference over the last sealed snapshot and to the verifier. Returns how
/// many keys had a proof.
#[track_caller]
fn assert_index_matches_reference(tag: &str, db: &CompliantDb, keys: &Keys) -> usize {
    let sealed = db.epoch() - 1;
    let snap = SnapshotManager::new(db.worm().clone(), AUDITOR_SEED)
        .load(sealed)
        .unwrap()
        .expect("sealed snapshot on WORM");
    let want_head = head_of_snapshot(&snap).encode();
    let fp = EpochHeadManager::new(db.worm().clone(), AUDITOR_SEED).fingerprint(sealed);
    let rels: BTreeSet<RelId> = keys.iter().map(|(rel, _)| *rel).collect();
    let absent = rels.iter().flat_map(|rel| {
        [&b""[..], b"never-written", b"\xff\xff\xff\xff"].map(|k| (*rel, k.to_vec()))
    });
    let mut proven = 0;
    for (rel, key) in keys.iter().cloned().chain(absent) {
        let tag = format!("{tag}: rel {} key {:?}", rel.0, String::from_utf8_lossy(&key));
        let (head, got) = db.read_proof(rel, &key).unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert_eq!(head.head.epoch, sealed, "{tag}: answered from a stale epoch");
        assert_eq!(head.head_bytes, want_head, "{tag}: head bytes");
        let want = build_read_proof(&snap, rel, &key).unwrap();
        let (got, want) = match (got, want) {
            (None, None) => continue,
            (Some(got), Some(want)) => (got, want),
            (got, want) => panic!(
                "{tag}: index {} a proof, the reference {}",
                if got.is_some() { "serves" } else { "has no" },
                if want.is_some() { "has one" } else { "has none" },
            ),
        };
        assert_eq!(got.proof_bytes, want.proof_bytes, "{tag}: proof bytes");
        assert_eq!(got.value, want.value, "{tag}: value");
        assert_eq!(got.commit_time, want.commit_time, "{tag}: commit time");
        let out = verify_read(
            &head.head_bytes,
            &head.sig_bytes,
            &head.pub_bytes,
            Some(&fp),
            &got.proof_bytes,
            rel.0,
            &key,
        )
        .unwrap_or_else(|e| panic!("{tag}: verifier: {e}"));
        assert_eq!(out.value, got.value, "{tag}: verified value");
        assert_eq!(out.tuple.commit_time, got.commit_time.0, "{tag}: verified commit time");
        proven += 1;
    }
    proven
}

/// One seeded round over a key-split and a time-split relation: plain
/// writes, several writes of one key inside one transaction (the `seq`
/// tie-break), deletions, aborts. Every key touched lands in `keys`.
fn round(db: &CompliantDb, rng: &mut SplitMix64, rels: [RelId; 2], tag: &str, keys: &mut Keys) {
    for i in 0..rng.gen_range(90..130u32) {
        let t = db.begin().unwrap();
        let rel = rels[rng.gen_bool(0.4) as usize];
        for w in 0..rng.gen_range(1..5u32) {
            let key = format!("k{:04}", rng.gen_range(0..150u32)).into_bytes();
            if rng.gen_bool(0.12) {
                db.delete(t, rel, &key).unwrap();
            } else {
                db.write(t, rel, &key, format!("{tag}-{i}-{w}").as_bytes()).unwrap();
                if rng.gen_bool(0.2) {
                    db.write(t, rel, &key, format!("{tag}-{i}-{w}-again").as_bytes()).unwrap();
                }
            }
            keys.insert((rel, key));
        }
        if rng.gen_bool(0.08) {
            db.abort(t).unwrap();
        } else {
            db.commit(t).unwrap();
        }
    }
}

#[test]
fn index_serves_what_the_scan_reference_builds() {
    let dir = TempDir::new("life");
    let clock = clock();
    let db = CompliantDb::open(&dir.0, clock.clone(), config(None)).unwrap();
    let ledger = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    let hot = db.create_relation("hot", SplitPolicy::TimeSplit { threshold: 0.8 }).unwrap();
    let mut rng = SplitMix64::seed_from_u64(0x1DE8_0001);
    let mut keys = Keys::new();

    assert!(
        matches!(db.read_proof(ledger, b"k0001"), Err(Error::NotFound(_))),
        "no sealed epoch yet"
    );

    // Epoch 0: stamp between rounds so dead versions time-split onto
    // historical pages, then push those pages to WORM.
    for r in 0..4 {
        round(&db, &mut rng, [ledger, hot], &format!("e0r{r}"), &mut keys);
        db.engine().run_stamper().unwrap();
    }
    let splits = db.engine().tree(hot).unwrap().stats();
    assert!(splits.time_splits > 0, "workload produced no historical pages: {splits:?}");
    assert!(db.migrate_to_worm(hot).unwrap().pages_migrated > 0, "nothing migrated to WORM");
    round(&db, &mut rng, [ledger, hot], "e0tail", &mut keys);
    let report = db.audit().unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
    assert_eq!(db.proof_stats().index_builds, 1, "the sealing audit builds the index");

    let proven = assert_index_matches_reference("epoch 0", &db, &keys);
    assert!(proven > 200, "only {proven} keys had proofs");
    let stats = db.proof_stats();
    assert_eq!(stats.index_builds, 1, "reads must not rebuild the index");
    assert!(stats.reads as usize >= keys.len());

    // Epoch 1: overwrite and delete some of the same keys, seal again — the
    // handle must move on with the epoch.
    for r in 0..3 {
        round(&db, &mut rng, [ledger, hot], &format!("e1r{r}"), &mut keys);
        db.engine().run_stamper().unwrap();
    }
    let t = db.begin().unwrap();
    db.write(t, ledger, b"k0001", b"epoch-1 value").unwrap();
    db.delete(t, hot, b"k0002").unwrap();
    db.commit(t).unwrap();
    keys.extend([(ledger, b"k0001".to_vec()), (hot, b"k0002".to_vec())]);
    let report = db.audit().unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);
    assert_eq!(db.proof_stats().index_builds, 2);
    // This epoch's historical pages were not migrated: they are in the
    // snapshot, holding older copies of keys the index must not pick.
    let snap = SnapshotManager::new(db.worm().clone(), AUDITOR_SEED).load(1).unwrap().unwrap();
    assert!(snap.pages.iter().any(|p| p.historical), "no historical page in the snapshot");
    assert_index_matches_reference("epoch 1", &db, &keys);
    let (head, proven) = db.read_proof(ledger, b"k0001").unwrap();
    assert_eq!(head.head.epoch, 1);
    assert_eq!(proven.unwrap().value.as_deref(), Some(&b"epoch-1 value"[..]));
    let (_, deleted) = db.read_proof(hot, b"k0002").unwrap();
    assert_eq!(deleted.expect("a deletion carries a proof").value, None);
    assert_eq!(db.proof_stats().index_builds, 2);

    // Unsealed writes of the open epoch are invisible to proofs, before and
    // after a crash; the recovered handle rebuilds the index once, lazily.
    let t = db.begin().unwrap();
    db.write(t, ledger, b"k0001", b"unsealed").unwrap();
    db.commit(t).unwrap();
    let db = db.crash_and_recover().unwrap();
    assert_eq!(db.proof_stats().index_builds, 0, "no proof read yet");
    assert_index_matches_reference("after crash", &db, &keys);
    assert_eq!(db.proof_stats().index_builds, 1);

    // A plain reopen, likewise.
    drop(db);
    let db = CompliantDb::open(&dir.0, clock, config(None)).unwrap();
    assert_index_matches_reference("after reopen", &db, &keys);
    assert_eq!(db.proof_stats().index_builds, 1);
}

#[test]
fn shards_and_tenants_each_serve_from_their_own_index() {
    // Two shards: a proof comes from the shard that owns the key.
    let dir = TempDir::new("shards");
    let sdb = ShardedDb::open(&dir.0, clock(), config(None), 2).unwrap();
    let rel = sdb.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    let mut keys = [Keys::new(), Keys::new()];
    for i in 0..120u32 {
        let mut dtx = sdb.begin();
        for k in 0..3u32 {
            let key = format!("i{:03}-k{k}", i % 80).into_bytes();
            sdb.write(&mut dtx, rel, &key, format!("v{i}.{k}").as_bytes()).unwrap();
            keys[sdb.map().shard_of(&key)].insert((rel, key));
        }
        sdb.commit(dtx).unwrap();
    }
    assert!(sdb.audit().unwrap().is_clean());
    for (shard, keys) in sdb.shards().iter().zip(&keys) {
        assert!(keys.len() > 50, "lopsided shard map: {}", keys.len());
        let proven = assert_index_matches_reference("shard", shard, keys);
        assert_eq!(proven, keys.len());
        assert_eq!(shard.proof_stats().index_builds, 1);
    }
    let foreign = keys[1].iter().next().unwrap();
    assert!(sdb.shards()[0].read_proof(foreign.0, &foreign.1).unwrap().1.is_none());

    // Two tenants on one WORM volume: same key names, separate lineages of
    // snapshots, heads and indexes.
    let dir = TempDir::new("tenants");
    let reg = TenantRegistry::open(&dir.0, clock(), config(None)).unwrap();
    let mut served = Vec::new();
    for name in ["acme", "bob"] {
        let db = reg.create_or_open(name).unwrap();
        let rel = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
        let mut keys = Keys::new();
        for i in 0..60u32 {
            let t = db.begin().unwrap();
            let key = format!("k{i:03}").into_bytes();
            db.write(t, rel, &key, format!("{name}-{i}").as_bytes()).unwrap();
            db.commit(t).unwrap();
            keys.insert((rel, key));
        }
        assert!(db.audit().unwrap().is_clean());
        assert_eq!(assert_index_matches_reference(name, &db, &keys), keys.len());
        let (head, proven) = db.read_proof(rel, b"k007").unwrap();
        served.push((head.head_bytes.clone(), proven.unwrap().value.unwrap()));
    }
    assert_eq!(served[0].1, b"acme-7");
    assert_eq!(served[1].1, b"bob-7");
    assert_ne!(served[0].0, served[1].0, "tenants share an epoch head");
}

/// A snapshot deleted from WORM once its retention lapsed is a typed
/// `NotFound`, as it was when every read loaded the snapshot — the index
/// must not go on answering (present or absent) from memory.
#[test]
fn a_snapshot_removed_after_retention_is_not_found() {
    let dir = TempDir::new("retention");
    let clock = clock();
    let db =
        CompliantDb::open(&dir.0, clock.clone(), config(Some(Duration::from_secs(1)))).unwrap();
    let rel = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    let t = db.begin().unwrap();
    db.write(t, rel, b"k", b"v").unwrap();
    db.commit(t).unwrap();
    assert!(db.audit().unwrap().is_clean());
    assert!(db.read_proof(rel, b"k").unwrap().1.is_some());

    clock.advance(Duration::from_secs(2));
    db.worm().delete(&snapshot_name(0)).unwrap();
    for key in [&b"k"[..], b"never-written"] {
        let err = db.read_proof(rel, key).unwrap_err();
        assert!(matches!(err, Error::NotFound(_)), "key {key:?}: {err:?}");
    }
}

/// Mean WORM bytes read per proof once the index exists, and the sealed
/// epoch's page count, for a database of `rows` rows.
fn worm_bytes_per_proof(rows: u32) -> (f64, u64) {
    let dir = TempDir::new(&format!("size{rows}"));
    let db = CompliantDb::open(&dir.0, clock(), config(None)).unwrap();
    let rel = db.create_relation("rows", SplitPolicy::KeyOnly).unwrap();
    for chunk in 0..rows / 50 {
        let t = db.begin().unwrap();
        for i in chunk * 50..(chunk + 1) * 50 {
            db.write(t, rel, format!("row{i:06}").as_bytes(), &[0xAB; 100]).unwrap();
        }
        db.commit(t).unwrap();
    }
    assert!(db.audit().unwrap().is_clean());
    let mut rng = SplitMix64::seed_from_u64(0x1DE8_0002);
    let before = db.worm().stats().bytes_read;
    let mut pages = 0;
    let reads = 64;
    for _ in 0..reads {
        let key = format!("row{:06}", rng.gen_range(0..rows));
        let (head, proven) = db.read_proof(rel, key.as_bytes()).unwrap();
        assert!(proven.is_some(), "{key}");
        pages = head.head.page_count;
    }
    assert_eq!(db.proof_stats().index_builds, 1);
    ((db.worm().stats().bytes_read - before) as f64 / reads as f64, pages)
}

#[test]
fn worm_bytes_per_proof_do_not_grow_with_the_database() {
    let (small, small_pages) = worm_bytes_per_proof(1_500);
    let (large, large_pages) = worm_bytes_per_proof(6_000);
    assert!(large_pages >= 3 * small_pages, "{small_pages} vs {large_pages} pages");
    assert!(small > 0.0 && large / small < 2.0, "{small} B vs {large} B per proof");
    // One page per proof, not the snapshot: a page is 4 KiB of cells.
    assert!(large < 8_192.0, "{large} B per proof");
}
