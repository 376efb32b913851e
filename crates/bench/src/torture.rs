//! Crash-torture schedules: seeded workload → planned fault → simulated
//! crash → recovery → audit, with every outcome checkable and every failure
//! reproducible from its seed.
//!
//! One schedule ([`run_schedule`]) is a pure function of its `u64` seed:
//! the workload shape, the [`FaultPlan`], and every random choice inside the
//! run are drawn from the workspace's own [`SplitMix64`]. The harness
//! enforces the torture contract:
//!
//! 1. **Recovery converges.** After an injected crash/torn-write, reopening
//!    the database succeeds and every *acknowledged* commit is still
//!    readable with its last committed value (and aborted/unacknowledged
//!    work is gone). A commit whose `commit()` call *errored* with an
//!    injected fault is indeterminate — the Commit record may have reached
//!    the durable local WAL before the fault (e.g. a WORM-mirror failure
//!    after the local flush), in which case recovery rightly honours it.
//!    The harness resolves each such key against the recovered database and
//!    accepts either the old or the attempted value, but nothing else.
//! 2. **Compliance records survive.** Post-recovery transactions stamp and
//!    audit correctly — recovery re-emitted whatever status records the
//!    crash interrupted.
//! 3. **Audits never false-alarm and never false-pass.** The final audit is
//!    clean, *or* — only when the injected fault hit the WORM device
//!    itself — reports one of the expected named violations. Any other
//!    outcome (unexpected error, panic, unexplained violation) fails the
//!    schedule with its seed in the message.
//!
//! The schedule runner never installs an injector during recovery: a crash
//! models a dead process, and the reopened instance is a fresh one.

use std::collections::BTreeMap;
use std::sync::Arc;

use ccdb_btree::SplitPolicy;
use ccdb_common::{Duration, Error, SplitMix64, VirtualClock};
use ccdb_core::{ComplianceConfig, CompliantDb, Mode, Violation};
use ccdb_storage::{Fault, FaultInjector, FaultKind, FaultPlan, IoPoint};

use crate::TempDir;

/// What one torture schedule did, for aggregate reporting.
#[derive(Debug)]
pub struct TortureOutcome {
    /// The schedule's seed (sufficient to replay it exactly).
    pub seed: u64,
    /// The fault plan the schedule armed.
    pub plan: FaultPlan,
    /// The faults that actually fired before the crash (empty when the plan
    /// never triggered — those schedules double as honest-run soundness
    /// checks).
    pub fired: Vec<Fault>,
    /// Whether the schedule crashed and recovered.
    pub crashed: bool,
    /// Commits acknowledged before the (possible) crash.
    pub commits_before: usize,
    /// Commits acknowledged after recovery.
    pub commits_after: usize,
    /// Whether the final audit was clean.
    pub audit_clean: bool,
    /// Debug renderings of the final audit's violations (empty when clean).
    pub violations: Vec<String>,
}

/// Whether an error originated from the fault injector (possibly wrapped by
/// the compliance layer, e.g. `ComplianceHalt("WAL tail mirror: injected
/// fault: …")`).
pub fn is_injected_error(e: &Error) -> bool {
    e.is_injected() || e.to_string().contains("injected fault")
}

/// Violations the torture contract accepts when (and only when) the injected
/// fault hit the WORM device itself. A fault on the trusted device can leave
/// the compliance log genuinely behind the local database — exactly the
/// condition the auditor exists to name. Everything else must audit clean.
pub fn violation_allowed_for_worm_fault(v: &Violation) -> bool {
    matches!(
        v,
        Violation::WormTruncated { .. }
            | Violation::LogUnreadable { .. }
            | Violation::WalTailInconsistent { .. }
    )
}

fn draw_plan(rng: &mut SplitMix64) -> FaultPlan {
    let point = *rng.choose(&IoPoint::ALL);
    let at_count = rng.gen_range(1..25u64);
    let kind = match rng.gen_range(0..10u32) {
        0..=3 => FaultKind::Crash,
        4..=6 => FaultKind::Torn { keep_permille: rng.gen_range(0..1000u16) },
        _ => FaultKind::Transient,
    };
    let mut plan = FaultPlan::single(point, at_count, kind);
    if rng.gen_bool(0.25) {
        // A second, later fault: exercises transient-then-crash and
        // multi-fault plans.
        let point2 = *rng.choose(&IoPoint::ALL);
        plan = plan.with(point2, at_count + rng.gen_range(1..20u64), FaultKind::Crash);
    }
    plan
}

/// The model of acknowledged state: key → last committed value
/// (`None` = committed delete).
type Model = BTreeMap<Vec<u8>, Option<Vec<u8>>>;

struct StepResult {
    crashed: bool,
    commits: usize,
}

/// Runs `steps` workload steps against `db`, updating `model` only on
/// *acknowledged* commits. Returns on the first injected error (= crash) or
/// when the steps are exhausted. Non-injected errors abort the schedule.
///
/// When `commit()` itself fails with an injected error the transaction's
/// outcome is indeterminate (the Commit record may already be durable in the
/// local WAL — a WORM-mirror fault fires *after* the local flush). Those
/// keys land in `uncertain` with the value the transaction attempted, for
/// post-recovery resolution. Failures in `begin`/`write`/`abort` are *not*
/// indeterminate: no Commit record was appended, so recovery rolls the
/// transaction back.
fn run_workload(
    db: &CompliantDb,
    rel: ccdb_common::RelId,
    rng: &mut SplitMix64,
    model: &mut Model,
    uncertain: &mut Model,
    steps: usize,
    seed: u64,
) -> Result<StepResult, String> {
    let mut commits = 0usize;
    for _ in 0..steps {
        let kind = rng.gen_range(0..12u32);
        let r = match kind {
            0..=8 => {
                // A transaction of 1–4 writes/deletes.
                let n = rng.gen_range(1..5usize);
                let ops: Vec<(Vec<u8>, Option<Vec<u8>>)> = (0..n)
                    .map(|_| {
                        let key = vec![b'k', rng.gen_range(0..=255u8)];
                        if rng.gen_bool(0.12) {
                            (key, None)
                        } else {
                            let len = rng.gen_range(8..48usize);
                            let mut val = vec![0u8; len];
                            rng.fill_bytes(&mut val);
                            (key, Some(val))
                        }
                    })
                    .collect();
                let commit = rng.gen_bool(0.85);
                (|| -> Result<(), Error> {
                    let t = db.begin()?;
                    for (key, val) in &ops {
                        match val {
                            Some(v) => db.write(t, rel, key, v)?,
                            None => db.delete(t, rel, key)?,
                        }
                    }
                    if commit {
                        match db.commit(t) {
                            Ok(_) => {
                                commits += 1;
                                for (key, val) in ops {
                                    model.insert(key, val);
                                }
                                Ok(())
                            }
                            Err(e) => {
                                if is_injected_error(&e) {
                                    // Indeterminate: the fault may have fired
                                    // after the local WAL flush made the
                                    // Commit record durable.
                                    for (key, val) in ops {
                                        uncertain.insert(key, val);
                                    }
                                }
                                Err(e)
                            }
                        }
                    } else {
                        db.abort(t)
                    }
                })()
            }
            9..=10 => db.engine().run_stamper().map(|_| ()),
            _ => match db.audit() {
                Ok(report) if report.is_clean() => Ok(()),
                Ok(report) => {
                    // The auditor treats an unreadable page as evidence (a
                    // `BadPage`/`TreeIntegrity` violation) — correct for
                    // production, where a read error during audit IS
                    // suspicious. When the unreadable page was manufactured
                    // by OUR injector the run is simply crashed; anything
                    // else is a genuine false alarm.
                    let all_injected = report
                        .violations
                        .iter()
                        .all(|v| format!("{v:?}").contains("injected fault"));
                    if all_injected {
                        return Ok(StepResult { crashed: true, commits });
                    }
                    return Err(format!(
                        "seed {seed}: mid-run audit false alarm: {:?}",
                        report.violations
                    ));
                }
                Err(e) => Err(e),
            },
        };
        if let Err(e) = r {
            if is_injected_error(&e) {
                return Ok(StepResult { crashed: true, commits });
            }
            return Err(format!("seed {seed}: unexpected workload error: {e}"));
        }
    }
    Ok(StepResult { crashed: false, commits })
}

/// Verifies every acknowledged commit in `model` against the recovered
/// database (torture-contract point 1).
fn check_model(
    db: &CompliantDb,
    rel: ccdb_common::RelId,
    model: &Model,
    seed: u64,
) -> Result<(), String> {
    for (key, expect) in model {
        let got = db
            .engine()
            .read_latest(rel, key)
            .map_err(|e| format!("seed {seed}: read_latest({key:02x?}) failed: {e}"))?;
        if got.as_ref() != expect.as_ref() {
            return Err(format!(
                "seed {seed}: acknowledged commit lost: key {key:02x?} expected len {:?} got len {:?}",
                expect.as_ref().map(|v| v.len()),
                got.as_ref().map(|v| v.len()),
            ));
        }
    }
    Ok(())
}

/// Resolves indeterminate commits against the recovered database: each key
/// must now read as either its last acknowledged value or the value the
/// interrupted transaction attempted — anything else is corruption. The
/// winning value is folded into `model` so later checks are exact.
fn resolve_uncertain(
    db: &CompliantDb,
    rel: ccdb_common::RelId,
    model: &mut Model,
    uncertain: &Model,
    seed: u64,
) -> Result<(), String> {
    for (key, attempted) in uncertain {
        let got = db
            .engine()
            .read_latest(rel, key)
            .map_err(|e| format!("seed {seed}: read_latest({key:02x?}) failed: {e}"))?;
        let acked = model.get(key).cloned().unwrap_or(None);
        if got == *attempted {
            model.insert(key.clone(), attempted.clone());
        } else if got != acked {
            return Err(format!(
                "seed {seed}: indeterminate commit resolved to a third value: key {key:02x?} \
                 acked len {:?}, attempted len {:?}, got len {:?}",
                acked.as_ref().map(|v| v.len()),
                attempted.as_ref().map(|v| v.len()),
                got.as_ref().map(|v| v.len()),
            ));
        }
    }
    Ok(())
}

/// Runs one deterministic crash-torture schedule. Returns `Err` (with the
/// seed embedded in the message) when any torture-contract point is
/// violated; panics never escape the workload itself.
pub fn run_schedule(seed: u64) -> Result<TortureOutcome, String> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mode = if rng.gen_bool(0.5) { Mode::HashOnRead } else { Mode::LogConsistent };
    let config = ComplianceConfig {
        mode,
        regret_interval: Duration::from_mins(5),
        cache_pages: rng.gen_range(16..64usize),
        auditor_seed: [7u8; 32],
        fsync: rng.gen_bool(0.15),
        worm_artifact_retention: None,
    };
    let dir = TempDir::new(&format!("torture-{seed}"));
    let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(40)));
    let mut db = CompliantDb::open(&dir.0, clock.clone(), config.clone())
        .map_err(|e| format!("seed {seed}: open failed: {e}"))?;
    let rel = db
        .create_relation("t", SplitPolicy::KeyOnly)
        .map_err(|e| format!("seed {seed}: create_relation failed: {e}"))?;
    let mut model: Model = BTreeMap::new();
    let mut uncertain: Model = BTreeMap::new();

    // Unarmed warm-up: build some durable history first.
    let warm = rng.gen_range(0..8usize);
    let warm_res = run_workload(&db, rel, &mut rng, &mut model, &mut uncertain, warm, seed)?;
    debug_assert!(!warm_res.crashed);
    debug_assert!(uncertain.is_empty());

    // Arm the plan and run the armed phase.
    let plan = draw_plan(&mut rng);
    let injector = Arc::new(FaultInjector::armed(plan.clone()));
    db.set_fault_injector(Some(injector.clone()));
    let steps = rng.gen_range(8..40usize);
    let armed = run_workload(&db, rel, &mut rng, &mut model, &mut uncertain, steps, seed)?;
    let fired = injector.fired();
    let commits_before = warm_res.commits + armed.commits;

    // Crash (when a fault fired) and recover with no injector armed — the
    // recovered instance is a fresh process image.
    let crashed = armed.crashed;
    if crashed {
        db = db
            .crash_and_recover()
            .map_err(|e| format!("seed {seed}: recovery after injected crash failed: {e}"))?;
    } else {
        // The plan never triggered; disarm so the final audit runs clean I/O.
        db.set_fault_injector(None);
    }
    let rel = db
        .engine()
        .rel_id("t")
        .ok_or_else(|| format!("seed {seed}: relation lost across recovery"))?;

    // Resolve the (at most one) transaction whose commit was interrupted
    // mid-acknowledgement, then check contract point 1: acknowledged commits
    // survived.
    resolve_uncertain(&db, rel, &mut model, &uncertain, seed)
        .map_err(|e| format!("{e} [plan {plan:?}, fired {fired:?}]"))?;
    check_model(&db, rel, &model, seed)
        .map_err(|e| format!("{e} [plan {plan:?}, fired {fired:?}]"))?;

    // Contract point 2: the recovered database still works — more
    // transactions commit, stamp, and (below) audit.
    let mut post_uncertain: Model = BTreeMap::new();
    let post = rng.gen_range(1..6usize);
    let post_res = run_workload(&db, rel, &mut rng, &mut model, &mut post_uncertain, post, seed)?;
    debug_assert!(post_uncertain.is_empty());
    if post_res.crashed {
        return Err(format!("seed {seed}: injected error after recovery (injector must be gone)"));
    }
    db.engine()
        .run_stamper()
        .map_err(|e| format!("seed {seed}: post-recovery stamper failed: {e}"))?;
    check_model(&db, rel, &model, seed)?;

    // Contract point 3: the final audit is clean, or every violation is an
    // expected named one and the fault actually hit the WORM device.
    let report =
        db.audit().map_err(|e| format!("seed {seed}: final audit errored (must report): {e}"))?;
    let worm_fault_fired = fired.iter().any(|f| f.point == IoPoint::WormAppend);
    if !report.is_clean() {
        if !worm_fault_fired {
            return Err(format!(
                "seed {seed}: false alarm — no WORM fault fired ({fired:?}) but audit reported {:?}",
                report.violations
            ));
        }
        if let Some(bad) = report.violations.iter().find(|v| !violation_allowed_for_worm_fault(v)) {
            return Err(format!(
                "seed {seed}: WORM fault {fired:?} produced unexpected violation {bad:?}"
            ));
        }
    }

    Ok(TortureOutcome {
        seed,
        plan,
        fired,
        crashed,
        commits_before,
        commits_after: post_res.commits,
        audit_clean: report.is_clean(),
        violations: report.violations.iter().map(|v| format!("{v:?}")).collect(),
    })
}

/// Runs schedules for `seeds`, collecting outcomes; fails fast with the
/// first violated seed. The returned vector's aggregate (crash count, fired
/// faults) lets the caller assert the campaign exercised real faults rather
/// than vacuously passing.
pub fn run_campaign(seeds: impl IntoIterator<Item = u64>) -> Result<Vec<TortureOutcome>, String> {
    let mut out = Vec::new();
    for seed in seeds {
        out.push(run_schedule(seed)?);
    }
    Ok(out)
}

// --- sharded torture --------------------------------------------------------

/// What one sharded torture schedule did.
#[derive(Debug)]
pub struct ShardTortureOutcome {
    /// The schedule's seed.
    pub seed: u64,
    /// Shard count.
    pub shards: u32,
    /// Mid-2PC crash rounds executed.
    pub crash_rounds: usize,
    /// In-doubt transactions that resolved to COMMIT (a decision record
    /// was durable somewhere before the crash).
    pub resolved_commit: usize,
    /// In-doubt transactions that resolved to ABORT (presumed abort: no
    /// decision record survived anywhere).
    pub resolved_abort: usize,
    /// Whether the final sealing audit (every shard + cross-shard join)
    /// was clean.
    pub audit_clean: bool,
}

/// Reads a key through the shard map, bypassing transactions (recovered
/// latest state).
fn shard_read_latest(
    db: &ccdb_core::ShardedDb,
    rel: ccdb_common::RelId,
    key: &[u8],
) -> Result<Option<Vec<u8>>, Error> {
    let s = db.map().shard_of(key);
    db.shards()[s].engine().read_latest(rel, key)
}

/// Verifies the model against the recovered sharded deployment.
fn check_shard_model(
    db: &ccdb_core::ShardedDb,
    rel: ccdb_common::RelId,
    model: &Model,
    seed: u64,
) -> Result<(), String> {
    for (key, expect) in model {
        let got = shard_read_latest(db, rel, key)
            .map_err(|e| format!("seed {seed}: shard read_latest({key:02x?}) failed: {e}"))?;
        if got.as_ref() != expect.as_ref() {
            return Err(format!(
                "seed {seed}: acknowledged cross-shard commit lost: key {key:02x?} \
                 expected len {:?} got len {:?}",
                expect.as_ref().map(|v| v.len()),
                got.as_ref().map(|v| v.len()),
            ));
        }
    }
    Ok(())
}

/// A dry deployment audit (serial oracle per shard + cross-shard join)
/// that must be clean; violations fail the schedule with the seed.
fn assert_shard_audit_clean(
    db: &ccdb_core::ShardedDb,
    seed: u64,
    when: &str,
) -> Result<(), String> {
    let (outcomes, cross) = db
        .audit_dry(ccdb_core::AuditConfig::serial())
        .map_err(|e| format!("seed {seed}: {when} audit errored: {e}"))?;
    for (i, o) in outcomes.iter().enumerate() {
        if !o.report.is_clean() {
            return Err(format!("seed {seed}: {when}: shard {i} dirty: {:?}", o.report.violations));
        }
    }
    if !cross.is_empty() {
        return Err(format!("seed {seed}: {when}: cross-shard join dirty: {cross:?}"));
    }
    Ok(())
}

/// One deterministic sharded crash-torture schedule: cross-shard workload,
/// then repeated mid-2PC crashes — the protocol is driven by hand up to the
/// prepare phase, the decision is appended to a seeded *prefix* of the
/// participants (possibly none), and either one seeded shard or the whole
/// deployment crashes. Recovery must drive every in-doubt transaction to
/// the unique outcome the surviving decision records dictate (presumed
/// abort when none survived), identically on all participants, and the
/// deployment must audit clean — per shard and under the cross-shard join.
pub fn run_shard_schedule(seed: u64) -> Result<ShardTortureOutcome, String> {
    use ccdb_core::records::LogRecord;
    let mut rng = SplitMix64::seed_from_u64(seed);
    let shards = if rng.gen_bool(0.5) { 2u32 } else { 3 };
    let config = ComplianceConfig {
        mode: Mode::LogConsistent,
        regret_interval: Duration::from_mins(5),
        cache_pages: rng.gen_range(32..128usize),
        auditor_seed: [7u8; 32],
        fsync: false,
        worm_artifact_retention: None,
    };
    let dir = TempDir::new(&format!("shard-torture-{seed}"));
    let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(40)));
    let mut db = ccdb_core::ShardedDb::open(&dir.0, clock.clone(), config.clone(), shards)
        .map_err(|e| format!("seed {seed}: open failed: {e}"))?;
    let rel = db
        .create_relation("t", SplitPolicy::KeyOnly)
        .map_err(|e| format!("seed {seed}: create_relation failed: {e}"))?;
    let mut model: Model = BTreeMap::new();

    // A committed cross-shard workload step (goes through the real
    // coordinator, including its short-circuits).
    let workload_step = |db: &ccdb_core::ShardedDb,
                         rng: &mut SplitMix64,
                         model: &mut Model|
     -> Result<(), String> {
        let n = rng.gen_range(1..6usize);
        let ops: Vec<(Vec<u8>, Vec<u8>)> = (0..n)
            .map(|_| {
                let key = vec![b'k', rng.gen_range(0..=255u8)];
                let mut val = vec![0u8; rng.gen_range(8..32usize)];
                rng.fill_bytes(&mut val);
                (key, val)
            })
            .collect();
        let commit = rng.gen_bool(0.85);
        let mut dtx = db.begin();
        for (key, val) in &ops {
            db.write(&mut dtx, rel, key, val)
                .map_err(|e| format!("seed {seed}: write failed: {e}"))?;
        }
        if commit {
            db.commit(dtx).map_err(|e| format!("seed {seed}: commit failed: {e}"))?;
            for (key, val) in ops {
                model.insert(key, Some(val));
            }
        } else {
            db.abort(dtx).map_err(|e| format!("seed {seed}: abort failed: {e}"))?;
        }
        Ok(())
    };

    for _ in 0..rng.gen_range(5..15usize) {
        workload_step(&db, &mut rng, &mut model)?;
    }

    let crash_rounds = rng.gen_range(2..5usize);
    let mut resolved_commit = 0usize;
    let mut resolved_abort = 0usize;
    for round in 0..crash_rounds {
        // Build a transaction guaranteed to span ≥ 2 shards.
        let mut dtx = db.begin();
        let mut ops: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut salt = 0u8;
        while dtx.writers().len() < 2 && salt < 64 {
            let key = vec![b'x', round as u8, salt, rng.gen_range(0..=255u8)];
            let mut val = vec![0u8; rng.gen_range(8..24usize)];
            rng.fill_bytes(&mut val);
            db.write(&mut dtx, rel, &key, &val)
                .map_err(|e| format!("seed {seed}: victim write failed: {e}"))?;
            ops.push((key, val));
            salt += 1;
        }
        if dtx.writers().len() < 2 {
            return Err(format!("seed {seed}: could not span two shards in 64 keys"));
        }
        let gtxn = dtx.gtxn();
        let writers: Vec<usize> = dtx.writers();
        let parts: Vec<u32> = writers.iter().map(|s| *s as u32).collect();
        // Prepare phase, by hand.
        for &s in &writers {
            let txn = dtx.local_txn(s).expect("writer has a local txn");
            db.shards()[s].prepare(txn).map_err(|e| format!("seed {seed}: prepare failed: {e}"))?;
            db.shards()[s]
                .log_2pc(&LogRecord::TwoPcPrepare {
                    gtxn,
                    txn,
                    shard: s as u32,
                    participants: parts.clone(),
                })
                .map_err(|e| format!("seed {seed}: prepare log failed: {e}"))?;
        }
        // The decision reaches a seeded prefix of the participants —
        // possibly none (crash before the commit point).
        let decided = rng.gen_range(0..=writers.len() as u64) as usize;
        for &s in writers.iter().take(decided) {
            db.shards()[s]
                .log_2pc(&LogRecord::TwoPcDecision { gtxn, commit: true })
                .map_err(|e| format!("seed {seed}: decision log failed: {e}"))?;
        }
        drop(dtx);
        // Crash: one seeded participant, or the whole deployment.
        if rng.gen_bool(0.6) {
            let victim = writers[rng.gen_range(0..writers.len() as u64) as usize];
            db.crash_shard(victim)
                .map_err(|e| format!("seed {seed}: shard {victim} recovery failed: {e}"))?;
        } else {
            db = db
                .crash_and_recover()
                .map_err(|e| format!("seed {seed}: deployment recovery failed: {e}"))?;
        }
        // The contract: decision durable anywhere → COMMIT everywhere;
        // no decision anywhere → presumed ABORT everywhere. Either way,
        // every key of the transaction agrees (atomicity).
        let expect_commit = decided > 0;
        if expect_commit {
            resolved_commit += 1;
            for (key, val) in &ops {
                model.insert(key.clone(), Some(val.clone()));
            }
        } else {
            resolved_abort += 1;
        }
        check_shard_model(&db, rel, &model, seed)
            .map_err(|e| format!("{e} [round {round}, decided {decided}/{}]", writers.len()))?;
        if !expect_commit {
            for (key, _) in &ops {
                let got = shard_read_latest(&db, rel, key)
                    .map_err(|e| format!("seed {seed}: read failed: {e}"))?;
                if got.is_some() && model.get(key).is_none_or(|v| v.is_none()) {
                    return Err(format!(
                        "seed {seed}: presumed-abort leaked a write: key {key:02x?}"
                    ));
                }
            }
        }
        assert_shard_audit_clean(&db, seed, &format!("round {round} post-recovery"))?;
        // The deployment keeps working between crashes.
        for _ in 0..rng.gen_range(1..5usize) {
            workload_step(&db, &mut rng, &mut model)?;
        }
    }

    // Final check: model intact, full sealing audit clean on every shard.
    for shard in db.shards() {
        shard
            .engine()
            .run_stamper()
            .map_err(|e| format!("seed {seed}: final stamper failed: {e}"))?;
    }
    check_shard_model(&db, rel, &model, seed)?;
    let dep = db.audit().map_err(|e| format!("seed {seed}: final audit errored: {e}"))?;
    if !dep.is_clean() {
        return Err(format!("seed {seed}: final sealing audit dirty: {:?}", dep.all_violations()));
    }
    Ok(ShardTortureOutcome {
        seed,
        shards,
        crash_rounds,
        resolved_commit,
        resolved_abort,
        audit_clean: dep.is_clean(),
    })
}

/// Runs sharded schedules for `seeds`, failing fast with the first
/// violated seed.
pub fn run_shard_campaign(
    seeds: impl IntoIterator<Item = u64>,
) -> Result<Vec<ShardTortureOutcome>, String> {
    let mut out = Vec::new();
    for seed in seeds {
        out.push(run_shard_schedule(seed)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::run_schedule;

    /// Replays one seed under a debugger/instrumentation:
    /// `CCDB_REPLAY_SEED=<n> cargo test -p ccdb-bench replay_one_seed -- --ignored --nocapture`
    #[test]
    #[ignore = "manual replay tool; set CCDB_REPLAY_SEED"]
    fn replay_one_seed() {
        let seed: u64 = std::env::var("CCDB_REPLAY_SEED")
            .expect("set CCDB_REPLAY_SEED")
            .parse()
            .expect("CCDB_REPLAY_SEED must be a u64");
        match run_schedule(seed) {
            Ok(o) => println!("{o:#?}"),
            Err(e) => panic!("{e}"),
        }
    }
}
