//! Property tests for the audit: *soundness on honest runs* (no false
//! alarms for arbitrary workloads, including aborts, crashes, and multiple
//! epochs) and *sensitivity* (any single post-hoc byte-level tuple edit is
//! caught).
//!
//! Gated behind the non-default `proptest` cargo feature and driven by the
//! workspace's own seeded [`SplitMix64`]; each case's seed is printed on
//! failure for deterministic replay.

#![cfg(feature = "proptest")]

use std::path::PathBuf;
use std::sync::Arc;

use ccdb_adversary::Mala;
use ccdb_btree::SplitPolicy;
use ccdb_common::{Duration, SplitMix64, VirtualClock};
use ccdb_core::{ComplianceConfig, CompliantDb, Mode};

struct TempDir(PathBuf);
impl TempDir {
    fn new() -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "ccdb-prop-audit-{}-{}",
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

#[derive(Clone, Debug)]
enum Step {
    Txn { writes: Vec<(u8, u8, bool)>, commit: bool },
    Crash,
    Audit,
    Stamp,
}

fn gen_step(rng: &mut SplitMix64) -> Step {
    match rng.gen_range(0..9u32) {
        0..=5 => {
            let n = rng.gen_range(1..5usize);
            let writes = (0..n)
                .map(|_| (rng.gen_range(0..=255u8), rng.gen_range(0..=255u8), rng.gen_bool(0.1)))
                .collect();
            Step::Txn { writes, commit: rng.gen_bool(0.85) }
        }
        6 => Step::Crash,
        7 => Step::Audit,
        _ => Step::Stamp,
    }
}

fn config(mode: Mode) -> ComplianceConfig {
    ComplianceConfig {
        mode,
        regret_interval: Duration::from_mins(5),
        cache_pages: 48,
        auditor_seed: [5u8; 32],
        fsync: false,
        worm_artifact_retention: None,
    }
}

/// Honest runs never produce violations, whatever the interleaving of
/// transactions, aborts, crashes, stamper runs, and audits.
#[test]
fn honest_runs_always_audit_clean() {
    for case in 0..12u64 {
        let mut rng = SplitMix64::seed_from_u64(0xA0D1_7000 + case);
        let steps: Vec<Step> = (0..rng.gen_range(1..35usize)).map(|_| gen_step(&mut rng)).collect();
        let hash_on_read = rng.gen_bool(0.5);

        let dir = TempDir::new();
        let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(40)));
        let mode = if hash_on_read { Mode::HashOnRead } else { Mode::LogConsistent };
        let mut db = CompliantDb::open(&dir.0, clock.clone(), config(mode)).unwrap();
        let rel = db.create_relation("r", SplitPolicy::KeyOnly).unwrap();
        for step in steps {
            match step {
                Step::Txn { writes, commit } => {
                    let t = db.begin().unwrap();
                    for (k, v, del) in writes {
                        if del {
                            db.delete(t, rel, &[b'x', k]).unwrap();
                        } else {
                            db.write(t, rel, &[b'x', k], &[v; 32]).unwrap();
                        }
                    }
                    if commit {
                        db.commit(t).unwrap();
                    } else {
                        db.abort(t).unwrap();
                    }
                }
                Step::Crash => {
                    db = db.crash_and_recover().unwrap();
                }
                Step::Audit => {
                    let report = db.audit().unwrap();
                    assert!(
                        report.is_clean(),
                        "case seed {case}: mid-run audit: {:?}",
                        report.violations
                    );
                }
                Step::Stamp => {
                    db.engine().run_stamper().unwrap();
                }
            }
        }
        let report = db.audit().unwrap();
        assert!(report.is_clean(), "case seed {case}: final audit: {:?}", report.violations);
    }
}

/// Sensitivity: after a clean run, flipping any single committed tuple's
/// value on disk is always detected.
#[test]
fn any_single_tuple_edit_is_detected() {
    for case in 0..12u64 {
        let mut rng = SplitMix64::seed_from_u64(0xED17_0000 + case);
        let n = rng.gen_range(5..60u8);
        let victim = rng.gen_range(0..=255u8);

        let dir = TempDir::new();
        let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(40)));
        let db = CompliantDb::open(&dir.0, clock, config(Mode::LogConsistent)).unwrap();
        let rel = db.create_relation("r", SplitPolicy::KeyOnly).unwrap();
        for i in 0..n {
            let t = db.begin().unwrap();
            db.write(t, rel, &[b'x', i], &[i; 32]).unwrap();
            db.commit(t).unwrap();
        }
        db.engine().run_stamper().unwrap();
        db.engine().clear_cache().unwrap();
        let victim_key = [b'x', victim % n];
        let mala = Mala::new(db.engine().db_path());
        assert!(mala.alter_tuple_value(&victim_key, b"forged-value-xx").unwrap());
        let report = db.audit().unwrap();
        assert!(!report.is_clean(), "case seed {case}: edit of {victim_key:?} went undetected");
    }
}
