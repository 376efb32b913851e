//! Property tests for **client-verifiable reads**: any committed read served
//! with a [`ccdb::compliance::ProvenRead`] must round-trip through the
//! engine-free `ccdb-verifier` crate, and any single byte flip anywhere in
//! the proof material (epoch head, signature, public key, or proof body)
//! must either fail verification or demote the result to a *different*
//! committed fact — never a false accept of the original claim.
//!
//! Gated behind the non-default `proptest` cargo feature and driven by the
//! workspace's own seeded [`SplitMix64`]; each case's seed is printed on
//! failure for deterministic replay.

#![cfg(feature = "proptest")]

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use ccdb::btree::SplitPolicy;
use ccdb::common::{Duration, SplitMix64, VirtualClock};
use ccdb::compliance::{ComplianceConfig, CompliantDb, EpochHeadManager, Mode};
use ccdb_verifier::verify_read;

const AUDITOR_SEED: [u8; 32] = [0xE4; 32];

struct TempDir(PathBuf);
impl TempDir {
    fn new() -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "ccdb-prop-proof-{}-{}",
            std::process::id(),
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

fn open(dir: &TempDir, mode: Mode) -> CompliantDb {
    let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(40)));
    CompliantDb::open(
        &dir.0,
        clock,
        ComplianceConfig {
            mode,
            regret_interval: Duration::from_mins(5),
            cache_pages: 64,
            auditor_seed: AUDITOR_SEED,
            fsync: false,
            worm_artifact_retention: None,
        },
    )
    .unwrap()
}

/// Runs a seeded workload and returns the model: what each key's latest
/// committed state was when the epoch sealed (`None` = deleted).
fn workload(
    db: &CompliantDb,
    rng: &mut SplitMix64,
) -> (ccdb::common::RelId, HashMap<Vec<u8>, Option<Vec<u8>>>) {
    let rel = db.create_relation("ledger", SplitPolicy::KeyOnly).unwrap();
    let mut model: HashMap<Vec<u8>, Option<Vec<u8>>> = HashMap::new();
    let txns = rng.gen_range(30..90u32);
    for i in 0..txns {
        let t = db.begin().unwrap();
        let mut staged: Vec<(Vec<u8>, Option<Vec<u8>>)> = Vec::new();
        for _ in 0..rng.gen_range(1..4u32) {
            let key = format!("k{:03}", rng.gen_range(0..120u32)).into_bytes();
            if rng.gen_bool(0.15) {
                db.delete(t, rel, &key).unwrap();
                staged.push((key, None));
            } else {
                let val = format!("v{i}-{}", rng.gen_range(0..u32::MAX)).into_bytes();
                db.write(t, rel, &key, &val).unwrap();
                staged.push((key, Some(val)));
            }
        }
        if rng.gen_bool(0.1) {
            db.abort(t).unwrap();
        } else {
            db.commit(t).unwrap();
            for (k, v) in staged {
                model.insert(k, v);
            }
        }
    }
    (rel, model)
}

/// Every committed read round-trips through the standalone verifier: the
/// proven value equals the model's latest committed state at seal time, the
/// signed head pins to the auditor's key lineage, and absent keys yield a
/// head but no proof.
#[test]
fn committed_reads_round_trip_through_the_verifier() {
    for case in 0..8u64 {
        let mut rng = SplitMix64::seed_from_u64(0x4EAD_0000 + case);
        let dir = TempDir::new();
        let mode = if rng.gen_bool(0.5) { Mode::HashOnRead } else { Mode::LogConsistent };
        let db = open(&dir, mode);
        let (rel, model) = workload(&db, &mut rng);
        let report = db.audit().unwrap();
        assert!(report.is_clean(), "case {case}: {:?}", report.violations);

        let fp = EpochHeadManager::new(db.worm().clone(), AUDITOR_SEED).fingerprint(0);
        for (key, expect) in &model {
            let (head, proven) = db.read_proof(rel, key).unwrap();
            let proven = proven.unwrap_or_else(|| panic!("case {case}: no proof for {key:?}"));
            assert_eq!(&proven.value, expect, "case {case}: proven value for {key:?}");
            let out = verify_read(
                &head.head_bytes,
                &head.sig_bytes,
                &head.pub_bytes,
                Some(&fp),
                &proven.proof_bytes,
                rel.0,
                key,
            )
            .unwrap_or_else(|e| panic!("case {case}: verify {key:?}: {e:?}"));
            assert_eq!(&out.value, expect, "case {case}: verified value for {key:?}");
            assert_eq!(out.head.epoch, 0, "case {case}: head epoch");
            assert_eq!(out.tuple.key, *key);
            assert_eq!(out.tuple.rel, rel.0);
            assert_eq!(out.tuple.commit_time, proven.commit_time.0);
        }

        // A key never written: signed head, no inclusion proof.
        let (head, absent) = db.read_proof(rel, b"never-written").unwrap();
        assert!(absent.is_none(), "case {case}: proof for an absent key");
        assert_eq!(head.head.epoch, 0);

        // Pinning to the wrong lineage fails even with intact blobs.
        let key = model.keys().next().unwrap().clone();
        let (head, proven) = db.read_proof(rel, &key).unwrap();
        let proven = proven.unwrap();
        let wrong = EpochHeadManager::new(db.worm().clone(), [0x11; 32]).fingerprint(0);
        let err = verify_read(
            &head.head_bytes,
            &head.sig_bytes,
            &head.pub_bytes,
            Some(&wrong),
            &proven.proof_bytes,
            rel.0,
            &key,
        );
        assert!(err.is_err(), "case {case}: wrong fingerprint accepted");
    }
}

/// Proofs follow epoch rolls: after a second clean audit, reads prove
/// against the epoch-1 head and verify under the epoch-1 fingerprint.
#[test]
fn proofs_follow_epoch_rolls() {
    let mut rng = SplitMix64::seed_from_u64(0x4EAD_E90C);
    let dir = TempDir::new();
    let db = open(&dir, Mode::LogConsistent);
    let (rel, _) = workload(&db, &mut rng);
    assert!(db.audit().unwrap().is_clean());
    // Epoch 1: overwrite a key, seal again.
    let t = db.begin().unwrap();
    db.write(t, rel, b"k000", b"epoch1-value").unwrap();
    db.commit(t).unwrap();
    assert!(db.audit().unwrap().is_clean());

    let (head, proven) = db.read_proof(rel, b"k000").unwrap();
    let proven = proven.unwrap();
    assert_eq!(head.head.epoch, 1, "proof must come from the latest sealed epoch");
    assert_eq!(proven.value.as_deref(), Some(&b"epoch1-value"[..]));
    let fp = EpochHeadManager::new(db.worm().clone(), AUDITOR_SEED).fingerprint(1);
    let out = verify_read(
        &head.head_bytes,
        &head.sig_bytes,
        &head.pub_bytes,
        Some(&fp),
        &proven.proof_bytes,
        rel.0,
        b"k000",
    )
    .unwrap();
    assert_eq!(out.value.as_deref(), Some(&b"epoch1-value"[..]));
}

/// Sensitivity: flipping any single bit in any proof component must not
/// produce a false accept. Verification either fails outright, or — when
/// the flip lands on e.g. the cell index and redirects the proof to another
/// *genuinely committed* version of the same key — yields a visibly
/// different fact than the original claim. It never re-authenticates the
/// original (tuple, value) claim from corrupted material.
#[test]
fn any_single_byte_flip_never_falsely_accepts() {
    for case in 0..8u64 {
        let mut rng = SplitMix64::seed_from_u64(0xF11B_0000 + case);
        let dir = TempDir::new();
        let db = open(&dir, Mode::LogConsistent);
        let (rel, model) = workload(&db, &mut rng);
        let report = db.audit().unwrap();
        assert!(report.is_clean(), "case {case}: {:?}", report.violations);
        let fp = EpochHeadManager::new(db.worm().clone(), AUDITOR_SEED).fingerprint(0);

        let keys: Vec<&Vec<u8>> = model.keys().collect();
        let key = keys[rng.gen_range(0..keys.len() as u32) as usize].clone();
        let (head, proven) = db.read_proof(rel, &key).unwrap();
        let proven = proven.unwrap();
        let baseline = verify_read(
            &head.head_bytes,
            &head.sig_bytes,
            &head.pub_bytes,
            Some(&fp),
            &proven.proof_bytes,
            rel.0,
            &key,
        )
        .unwrap();

        for trial in 0..60u32 {
            let mut blobs = [
                head.head_bytes.clone(),
                head.sig_bytes.clone(),
                head.pub_bytes.clone(),
                proven.proof_bytes.clone(),
            ];
            let which = rng.gen_range(0..4u32) as usize;
            let idx = rng.gen_range(0..blobs[which].len() as u32) as usize;
            let bit = 1u8 << rng.gen_range(0..8u32);
            blobs[which][idx] ^= bit;
            let tag = format!(
                "case {case} trial {trial}: blob {which} byte {idx} bit {bit:02x} key {:?}",
                String::from_utf8_lossy(&key)
            );
            match verify_read(&blobs[0], &blobs[1], &blobs[2], Some(&fp), &blobs[3], rel.0, &key) {
                Err(_) => {}
                Ok(out) => {
                    // The only tolerable accept is a *different* committed
                    // fact about the same key (the flip re-aimed the proof,
                    // e.g. at an older version). The original claim must
                    // not re-verify from corrupted bytes.
                    assert_eq!(out.tuple.key, key, "{tag}: key drifted");
                    assert!(
                        out.tuple.seq != baseline.tuple.seq
                            || out.tuple.commit_time != baseline.tuple.commit_time
                            || out.value != baseline.value,
                        "{tag}: corrupted material re-verified the original claim"
                    );
                }
            }
        }
    }
}
