//! Property-based tamper equivalence: for **arbitrary** byte-level and
//! page-level corruptions of the database file, the parallel audit
//! pipeline must flag a violation whenever the serial oracle flags one —
//! and produce the *same* violations, forensics, and completeness hash.
//! (The contrapositive holds too: when the oracle stays clean — e.g. a
//! flip that lands in dead space and is reconstructed away — the pipeline
//! must not raise a false alarm.)
//!
//! Gated behind the non-default `proptest` cargo feature and driven by the
//! workspace's own seeded [`SplitMix64`]; each case's seed is embedded in
//! the assertion message for deterministic replay.

#![cfg(feature = "proptest")]

use std::path::PathBuf;
use std::sync::Arc;

use ccdb::adversary::Mala;
use ccdb::btree::SplitPolicy;
use ccdb::common::{Duration, SplitMix64, Timestamp, VirtualClock};
use ccdb::compliance::{AuditConfig, ComplianceConfig, CompliantDb, Mode, DEFAULT_L_CHUNK_RECORDS};

struct TempDir(PathBuf);
impl TempDir {
    fn new() -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "ccdb-prop-tamper-{}-{}",
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
            auditor_seed: [0xAB; 32],
            fsync: false,
            worm_artifact_retention: None,
        },
    )
    .unwrap()
}

/// A seeded honest prefix: tuples across two relations, an epoch roll so
/// the audit replays against a real snapshot, then everything flushed so
/// Mala edits the authoritative on-disk bytes.
fn honest_prefix(db: &CompliantDb, rng: &mut SplitMix64) {
    let a = db.create_relation("a", SplitPolicy::KeyOnly).unwrap();
    let b = db.create_relation("b", SplitPolicy::KeyOnly).unwrap();
    let n = rng.gen_range(40..120u32);
    for i in 0..n {
        let t = db.begin().unwrap();
        let rel = if i % 3 == 0 { b } else { a };
        db.write(t, rel, format!("k{:04}", rng.gen_range(0..200u32)).as_bytes(), &[i as u8; 24])
            .unwrap();
        if rng.gen_bool(0.1) {
            db.abort(t).unwrap();
        } else {
            db.commit(t).unwrap();
        }
    }
    if rng.gen_bool(0.5) {
        let r = db.audit().unwrap();
        assert!(r.is_clean(), "honest prefix must audit clean: {:?}", r.violations);
        let t = db.begin().unwrap();
        db.write(t, a, b"post-epoch", b"v").unwrap();
        db.commit(t).unwrap();
    }
    db.engine().run_stamper().unwrap();
    db.engine().clear_cache().unwrap();
}

/// Runs the serial oracle and the parallel pipeline over the same state and
/// asserts full observable agreement (including agreement on hard errors).
/// Returns whether the oracle found the state clean.
fn assert_equivalent(tag: &str, db: &CompliantDb) -> bool {
    let serial = db.audit_outcome_with(AuditConfig::serial());
    for threads in [2usize, 4] {
        for chunk in [1usize, DEFAULT_L_CHUNK_RECORDS] {
            let par = db.audit_outcome_with(
                AuditConfig::default().with_threads(threads).with_chunk_records(chunk),
            );
            match (&serial, &par) {
                (Ok(s), Ok(p)) => {
                    assert_eq!(
                        s.report.violations, p.report.violations,
                        "{tag}: violations diverge at threads={threads} chunk={chunk}"
                    );
                    assert_eq!(
                        s.report.forensics, p.report.forensics,
                        "{tag}: forensics diverge at threads={threads} chunk={chunk}"
                    );
                    assert_eq!(
                        s.tuple_hash, p.tuple_hash,
                        "{tag}: tuple hash diverges at threads={threads} chunk={chunk}"
                    );
                    // The headline property, stated directly: the pipeline
                    // flags whenever the oracle flags.
                    assert_eq!(
                        s.report.is_clean(),
                        p.report.is_clean(),
                        "{tag}: verdict diverges at threads={threads} chunk={chunk}"
                    );
                }
                (Err(se), Err(pe)) => {
                    assert_eq!(se.to_string(), pe.to_string(), "{tag}: errors diverge");
                }
                (s, p) => panic!(
                    "{tag}: serial ok={} but parallel ok={} at threads={threads} chunk={chunk}",
                    s.is_ok(),
                    p.is_ok()
                ),
            }
        }
    }
    serial.map(|s| s.report.is_clean()).unwrap_or(false)
}

/// Arbitrary single-byte flips (with and without checksum repair) never
/// split the verdict between the two auditors.
#[test]
fn arbitrary_byte_flips_never_split_the_verdict() {
    for case in 0..10u64 {
        let mut rng = SplitMix64::seed_from_u64(0xF11B_0000 + case);
        let d = TempDir::new();
        let db = open(&d, if rng.gen_bool(0.5) { Mode::HashOnRead } else { Mode::LogConsistent });
        honest_prefix(&db, &mut rng);

        let mala = Mala::new(db.engine().db_path());
        let len = std::fs::metadata(db.engine().db_path()).unwrap().len();
        assert!(len > 0);
        let flips = rng.gen_range(1..4u32);
        for _ in 0..flips {
            let off = rng.gen_range(0..len);
            let mask = rng.gen_range(0..=255u8);
            let fix = rng.gen_bool(0.7);
            assert!(mala.flip_byte(off, mask, fix).unwrap());
        }
        assert_equivalent(&format!("flip case {case}"), &db);
    }
}

/// The structured attack catalogue (alterations, deletions, back-dated
/// insertions, leaf swaps, separator corruption) is detected by the
/// parallel pipeline exactly when the serial oracle detects it — which,
/// for these attacks, is always.
#[test]
fn arbitrary_page_tampers_never_split_the_verdict() {
    for case in 0..10u64 {
        let mut rng = SplitMix64::seed_from_u64(0x7A3B_0000 + case);
        let d = TempDir::new();
        let db = open(&d, Mode::LogConsistent);
        let rel = db.create_relation("a", SplitPolicy::KeyOnly).unwrap();
        let n = 120u32;
        for i in 0..n {
            let t = db.begin().unwrap();
            db.write(t, rel, format!("k{i:04}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
            db.commit(t).unwrap();
        }
        db.engine().run_stamper().unwrap();
        db.engine().clear_cache().unwrap();

        let mala = Mala::new(db.engine().db_path());
        let victim = format!("k{:04}", rng.gen_range(0..n));
        let tampered = match rng.gen_range(0..5u32) {
            0 => mala.alter_tuple_value(victim.as_bytes(), b"forged").unwrap(),
            1 => mala.delete_tuple(victim.as_bytes()).unwrap(),
            2 => mala.backdate_insert(rel, b"zzzz-forged", b"planted", Timestamp(7)).unwrap(),
            3 => mala.swap_leaf_entries().unwrap(),
            _ => mala.corrupt_separator().unwrap(),
        };
        let clean = assert_equivalent(&format!("attack case {case}"), &db);
        if tampered {
            assert!(!clean, "attack case {case}: a successful tamper went undetected");
        }
    }
}
