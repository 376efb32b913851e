//! Adversary campaign fuzzing: seeded, randomized interleavings of honest
//! workload, compliance-lifecycle actions, and tampering — judged by the
//! paper's own invariant that every campaign ends **detected or harmless**.
//!
//! One campaign ([`run_campaign_schedule`]) is a pure function of its `u64`
//! seed. The seed draws a deployment shape (a single [`CompliantDb`], two
//! tenants over one shared WORM volume, or a 2–3-shard [`ShardedDb`]), then
//! interleaves:
//!
//! * **workload** — commits, aborts, and deletes across two relations: a
//!   `ledger` (no retention, the tamper target) and an `events` relation
//!   (time-split policy, seeded retention period — the lifecycle target);
//! * **virtual time** — clock advances from minutes to *years*, so
//!   retention expiry, holds, and shredding overlap realistically;
//! * **lifecycle** — litigation `Hold`s placed and released, auditable
//!   `Vacuum`/shred cycles (with WORM re-migration of expired pages),
//!   time-split migration to WORM, sealing audits, crash+recovery;
//! * **tampering** — a final phase drawing 0–3 actions from the full
//!   [`Mala`] catalogue (namespace/shard-aware via [`MalaTarget`]); ~⅓ of
//!   seeds draw zero tampers and double as false-alert controls.
//!
//! The verdict then runs **all three audit drivers** over the same state —
//! a batch audit on one thread, one on two threads, and the streaming
//! daemon (one audit core behind all three) — and the harness enforces:
//!
//! 1. **Verdict identity.** The three auditors agree on cleanliness,
//!    violations, forensics, and the completeness hash, per engine (and on
//!    the cross-shard join for sharded deployments).
//! 2. **Detected or harmless.** A tampering campaign whose verdict is
//!    *clean* must be observably harmless: every ledger key's full version
//!    history and every events key's latest value still match the honest
//!    model (reversion round trips and flips into dead space pass; any
//!    effective-but-undetected tamper fails the seed).
//! 3. **Zero false alerts.** Tamper-free campaigns must end clean, and
//!    every mid-campaign sealing audit must be clean.
//! 4. **Holds win.** A tuple covered by an active hold survives every
//!    expiry/shred path it overlaps, checked after every vacuum.
//!
//! Any failure carries the seed and the structured action trace
//! ([`CampaignFailure`]); replay exactly with
//! `CCDB_CAMPAIGN_REPLAY_SEED=<seed>` (see `tests/campaign.rs`).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use ccdb_adversary::{Mala, MalaTarget, TamperAction};
use ccdb_btree::SplitPolicy;
use ccdb_common::sync::parallel_map;
use ccdb_common::{Clock, Duration, RelId, SplitMix64, Timestamp, VirtualClock};
use ccdb_core::{
    AuditConfig, ComplianceConfig, CompliantDb, Hold, Mode, ShardedDb, TenantRegistry,
};

use crate::TempDir;

/// Default base seed for campaign suites (tests and the CI smoke binary
/// offset from here so a failing seed names one global schedule).
pub const CAMPAIGN_BASE_SEED: u64 = 0xCA3B_1600_0000_0000;

/// What one campaign did, for aggregate (non-vacuity) reporting.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The campaign's seed (sufficient to replay it exactly).
    pub seed: u64,
    /// Deployment shape: `"single"`, `"tenants"`, or `"sharded"`.
    pub deployment: &'static str,
    /// Compliance mode the campaign ran under.
    pub mode: Mode,
    /// Acknowledged commits across all domains.
    pub commits: usize,
    /// Crash+recovery rounds (whole deployment or single shard).
    pub crashes: usize,
    /// Mid-campaign sealing audits (all required clean).
    pub sealed_audits: usize,
    /// Vacuum cycles run.
    pub vacuums: usize,
    /// Versions shredded by vacuums.
    pub shredded: usize,
    /// Versions spared by an active litigation hold.
    pub held_spared: usize,
    /// Historical pages migrated to WORM.
    pub pages_migrated: usize,
    /// WORM pages re-migrated back for shredding.
    pub pages_remigrated: usize,
    /// Litigation holds placed.
    pub holds_placed: usize,
    /// Virtual time advanced by explicit clock jumps (µs).
    pub virtual_micros_advanced: u64,
    /// Tamper actions drawn in the tamper phase.
    pub tampers_drawn: usize,
    /// Tamper actions that landed (found victim bytes).
    pub tampers_landed: usize,
    /// Whether the final three-auditor verdict was dirty.
    pub detected: bool,
    /// Debug renderings of the final verdict's violations.
    pub violations: Vec<String>,
    /// The structured action trace.
    pub trace: Vec<String>,
}

/// A failed campaign: the seed, what went wrong, and the action trace up to
/// the failure — everything needed to replay and minimize.
#[derive(Debug)]
pub struct CampaignFailure {
    /// The failing seed.
    pub seed: u64,
    /// The contract point that broke.
    pub error: String,
    /// The structured action trace up to the failure.
    pub trace: Vec<String>,
}

impl fmt::Display for CampaignFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "campaign seed {}: {}", self.seed, self.error)?;
        writeln!(f, "action trace ({} actions):", self.trace.len())?;
        for (i, a) in self.trace.iter().enumerate() {
            writeln!(f, "  {:3}. {a}", i + 1)?;
        }
        write!(
            f,
            "replay: CCDB_CAMPAIGN_REPLAY_SEED={} cargo test --test campaign \
             replay_campaign_seed -- --ignored --nocapture",
            self.seed
        )
    }
}

/// Latest committed state of an events key: value (`None` = committed
/// delete) and its commit time, for expiry-eligibility checks.
#[derive(Clone, Debug)]
struct EventState {
    val: Option<Vec<u8>>,
    ct: Timestamp,
}

/// The honest model of one workload domain (a tenant, or the whole
/// single/sharded key space).
#[derive(Default)]
struct DomainModel {
    /// Full committed version history per ledger key (ledger is write-only
    /// and never under retention, so its history is stable).
    ledger: BTreeMap<Vec<u8>, Vec<Vec<u8>>>,
    /// Latest committed state per events key.
    events: BTreeMap<Vec<u8>, EventState>,
}

enum Deploy {
    Single(Option<Box<CompliantDb>>),
    Tenants { reg: TenantRegistry, names: Vec<String> },
    Sharded(Option<ShardedDb>),
}

impl Deploy {
    fn kind(&self) -> &'static str {
        match self {
            Deploy::Single(_) => "single",
            Deploy::Tenants { .. } => "tenants",
            Deploy::Sharded(_) => "sharded",
        }
    }

    /// Independent workload domains (each with its own model).
    fn domains(&self) -> usize {
        match self {
            Deploy::Single(_) | Deploy::Sharded(_) => 1,
            Deploy::Tenants { names, .. } => names.len(),
        }
    }

    /// Attackable/auditable engines, with their Mala targets.
    fn targets(&self) -> Vec<MalaTarget> {
        match self {
            Deploy::Single(_) => vec![MalaTarget::Root],
            Deploy::Tenants { names, .. } => {
                names.iter().map(|n| MalaTarget::Tenant(n.clone())).collect()
            }
            Deploy::Sharded(db) => {
                let n = db.as_ref().expect("deployment open").shards().len();
                (0..n).map(|i| MalaTarget::Shard(i as u32)).collect()
            }
        }
    }

    fn engines(&self) -> usize {
        self.targets().len()
    }

    /// Runs `f` against engine `i` (a tenant's db, a shard's db, or the
    /// single db).
    fn with_engine<R>(&self, i: usize, f: impl FnOnce(&CompliantDb) -> R) -> R {
        match self {
            Deploy::Single(db) => f(db.as_ref().expect("deployment open")),
            Deploy::Tenants { reg, names } => {
                f(reg.tenant(&names[i]).expect("tenant open").as_ref())
            }
            Deploy::Sharded(db) => f(db.as_ref().expect("deployment open").shards()[i].as_ref()),
        }
    }

    /// Latest committed value of `(rel, key)` in `domain`, routed through
    /// the shard map for sharded deployments.
    fn read_latest(
        &self,
        domain: usize,
        rel: RelId,
        key: &[u8],
    ) -> Result<Option<Vec<u8>>, String> {
        match self {
            Deploy::Single(db) => db
                .as_ref()
                .expect("deployment open")
                .engine()
                .read_latest(rel, key)
                .map_err(|e| format!("read_latest({key:02x?}) failed: {e}")),
            Deploy::Tenants { reg, names } => reg
                .tenant(&names[domain])
                .expect("tenant open")
                .engine()
                .read_latest(rel, key)
                .map_err(|e| format!("read_latest({key:02x?}) failed: {e}")),
            Deploy::Sharded(db) => {
                let db = db.as_ref().expect("deployment open");
                let s = db.map().shard_of(key);
                db.shards()[s]
                    .engine()
                    .read_latest(rel, key)
                    .map_err(|e| format!("shard read_latest({key:02x?}) failed: {e}"))
            }
        }
    }

    /// Full committed version history of `(rel, key)` in `domain`.
    fn version_history(
        &self,
        domain: usize,
        rel: RelId,
        key: &[u8],
    ) -> Result<Vec<(Timestamp, bool, Vec<u8>)>, String> {
        let via = |db: &CompliantDb| {
            db.version_history(rel, key)
                .map_err(|e| format!("version_history({key:02x?}) failed: {e}"))
        };
        match self {
            Deploy::Single(db) => via(db.as_ref().expect("deployment open")),
            Deploy::Tenants { reg, names } => {
                via(reg.tenant(&names[domain]).expect("tenant open").as_ref())
            }
            Deploy::Sharded(db) => {
                let db = db.as_ref().expect("deployment open");
                via(db.shards()[db.map().shard_of(key)].as_ref())
            }
        }
    }
}

/// One running campaign.
struct Run {
    seed: u64,
    rng: SplitMix64,
    clock: Arc<VirtualClock>,
    dir: TempDir,
    deploy: Deploy,
    mode: Mode,
    retention: Duration,
    ledger: RelId,
    events: RelId,
    models: Vec<DomainModel>,
    holds: BTreeMap<String, Hold>,
    /// Keys forged by landed `BackdateInsert` tampers, per domain — the
    /// harmless check must find no committed trace of them.
    forged: Vec<(usize, Vec<u8>)>,
    hold_seq: usize,
    val_seq: usize,
    trace: Vec<String>,
    // stats
    commits: usize,
    crashes: usize,
    sealed_audits: usize,
    vacuums: usize,
    shredded: usize,
    held_spared: usize,
    pages_migrated: usize,
    pages_remigrated: usize,
    holds_placed: usize,
    advanced_us: u64,
}

impl Run {
    fn new(seed: u64) -> Result<Run, String> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mode = if rng.gen_bool(0.5) { Mode::LogConsistent } else { Mode::HashOnRead };
        let config = ComplianceConfig {
            mode,
            regret_interval: Duration::from_mins(5),
            cache_pages: rng.gen_range(32..128usize),
            auditor_seed: [9u8; 32],
            fsync: false,
            worm_artifact_retention: None,
        };
        // Retention on the events relation: 20–180 virtual days.
        let retention = Duration::from_mins(rng.gen_range(20..180u64) * 1440);
        let dir = TempDir::new(&format!("campaign-{seed}"));
        let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(40)));
        let deploy = match rng.gen_range(0..6u32) {
            0..=2 => Deploy::Single(Some(Box::new(
                CompliantDb::open(&dir.0, clock.clone(), config.clone())
                    .map_err(|e| format!("open failed: {e}"))?,
            ))),
            3..=4 => {
                let shards = if rng.gen_bool(0.25) { 3u32 } else { 2 };
                Deploy::Sharded(Some(
                    ShardedDb::open(&dir.0, clock.clone(), config.clone(), shards)
                        .map_err(|e| format!("sharded open failed: {e}"))?,
                ))
            }
            _ => {
                let reg = TenantRegistry::open(&dir.0, clock.clone(), config.clone())
                    .map_err(|e| format!("registry open failed: {e}"))?;
                let names = vec!["alpha".to_string(), "beta".to_string()];
                for n in &names {
                    reg.create_or_open(n).map_err(|e| format!("tenant {n} open failed: {e}"))?;
                }
                Deploy::Tenants { reg, names }
            }
        };
        // Schema: the same two relations on every engine, in the same
        // order, so the ids agree deployment-wide.
        let (ledger, events) = match &deploy {
            Deploy::Sharded(db) => {
                let db = db.as_ref().expect("deployment open");
                let l = db
                    .create_relation("ledger", SplitPolicy::KeyOnly)
                    .map_err(|e| format!("create ledger failed: {e}"))?;
                let ev = db
                    .create_relation("events", SplitPolicy::TimeSplit { threshold: 0.5 })
                    .map_err(|e| format!("create events failed: {e}"))?;
                db.set_retention("events", retention)
                    .map_err(|e| format!("set_retention failed: {e}"))?;
                (l, ev)
            }
            d => {
                let mut ids = None;
                for i in 0..d.engines() {
                    let got = d.with_engine(i, |db| -> Result<(RelId, RelId), String> {
                        let l = db
                            .create_relation("ledger", SplitPolicy::KeyOnly)
                            .map_err(|e| format!("create ledger failed: {e}"))?;
                        let ev = db
                            .create_relation("events", SplitPolicy::TimeSplit { threshold: 0.5 })
                            .map_err(|e| format!("create events failed: {e}"))?;
                        let txn = db.begin().map_err(|e| e.to_string())?;
                        db.set_retention(txn, "events", retention)
                            .map_err(|e| format!("set_retention failed: {e}"))?;
                        db.commit(txn).map_err(|e| e.to_string())?;
                        Ok((l, ev))
                    })?;
                    match ids {
                        None => ids = Some(got),
                        Some(prev) if prev != got => {
                            return Err(format!("relation ids diverge: {prev:?} vs {got:?}"))
                        }
                        Some(_) => {}
                    }
                }
                ids.expect("at least one engine")
            }
        };
        let domains = deploy.domains();
        Ok(Run {
            seed,
            rng,
            clock,
            dir,
            deploy,
            mode,
            retention,
            ledger,
            events,
            models: (0..domains).map(|_| DomainModel::default()).collect(),
            holds: BTreeMap::new(),
            forged: Vec::new(),
            hold_seq: 0,
            val_seq: 0,
            trace: Vec::new(),
            commits: 0,
            crashes: 0,
            sealed_audits: 0,
            vacuums: 0,
            shredded: 0,
            held_spared: 0,
            pages_migrated: 0,
            pages_remigrated: 0,
            holds_placed: 0,
            advanced_us: 0,
        })
    }

    fn err(&self, msg: impl fmt::Display) -> String {
        format!("seed {}: {msg}", self.seed)
    }

    // --- honest actions ---------------------------------------------------

    /// Whether an active hold covers an events key.
    fn held(&self, key: &[u8]) -> bool {
        self.holds.values().any(|h| h.covers("events", key))
    }

    fn fresh_val(&mut self, tag: &str) -> Vec<u8> {
        self.val_seq += 1;
        format!("{tag}-{:06}", self.val_seq).into_bytes()
    }

    /// A burst of 1–4 transactions against one domain: ledger writes,
    /// events writes/deletes, ~15 % aborted.
    fn workload_burst(&mut self) -> Result<(), String> {
        let domain = self.rng.gen_range(0..self.models.len() as u64) as usize;
        let txns = self.rng.gen_range(1..5usize);
        let mut committed = 0usize;
        for _ in 0..txns {
            // Draw ops first (deduped per key: one op per key per txn).
            let nops = self.rng.gen_range(1..4usize);
            let mut ops: BTreeMap<Vec<u8>, (RelId, Option<Vec<u8>>)> = BTreeMap::new();
            for _ in 0..nops {
                let r = self.rng.gen_range(0..100u32);
                if r < 50 {
                    let key = format!("l{:03}", self.rng.gen_range(0..40u32)).into_bytes();
                    let val = self.fresh_val("ledger");
                    ops.insert(key, (self.ledger, Some(val)));
                } else if r < 85 {
                    let key = format!("e{:03}", self.rng.gen_range(0..60u32)).into_bytes();
                    // Padded so overwrite traffic overflows leaves and the
                    // time-split policy has historical pages to produce.
                    let mut val = self.fresh_val("event");
                    val.resize(val.len() + 64, b'.');
                    ops.insert(key, (self.events, Some(val)));
                } else {
                    let key = format!("e{:03}", self.rng.gen_range(0..60u32)).into_bytes();
                    ops.insert(key, (self.events, None));
                }
            }
            let commit = self.rng.gen_bool(0.85);
            let ct = match &self.deploy {
                Deploy::Sharded(db) => {
                    let db = db.as_ref().expect("deployment open");
                    let mut dtx = db.begin();
                    for (key, (rel, val)) in &ops {
                        match val {
                            Some(v) => db
                                .write(&mut dtx, *rel, key, v)
                                .map_err(|e| self.err(format!("write failed: {e}")))?,
                            None => db
                                .delete(&mut dtx, *rel, key)
                                .map_err(|e| self.err(format!("delete failed: {e}")))?,
                        }
                    }
                    if commit {
                        Some(db.commit(dtx).map_err(|e| self.err(format!("commit failed: {e}")))?)
                    } else {
                        db.abort(dtx).map_err(|e| self.err(format!("abort failed: {e}")))?;
                        None
                    }
                }
                d => d
                    .with_engine(domain, |db| -> Result<Option<Timestamp>, String> {
                        let t = db.begin().map_err(|e| e.to_string())?;
                        for (key, (rel, val)) in &ops {
                            match val {
                                Some(v) => db.write(t, *rel, key, v).map_err(|e| e.to_string())?,
                                None => db.delete(t, *rel, key).map_err(|e| e.to_string())?,
                            }
                        }
                        if commit {
                            Ok(Some(db.commit(t).map_err(|e| e.to_string())?))
                        } else {
                            db.abort(t).map_err(|e| e.to_string())?;
                            Ok(None)
                        }
                    })
                    .map_err(|e| self.err(format!("workload txn failed: {e}")))?,
            };
            if let Some(ct) = ct {
                committed += 1;
                self.commits += 1;
                let model = &mut self.models[domain];
                for (key, (rel, val)) in ops {
                    if rel == self.ledger {
                        model
                            .ledger
                            .entry(key)
                            .or_default()
                            .push(val.expect("ledger is write-only"));
                    } else {
                        model.events.insert(key, EventState { val, ct });
                    }
                }
            }
        }
        self.trace.push(format!("workload d{domain}: {txns} txns, {committed} committed"));
        // Stamp behind roughly half the bursts: superseded-but-stamped
        // versions are what lets overflowing leaves time-split, which in
        // turn gives migration and shred cycles real pages to work on.
        if self.rng.gen_bool(0.5) {
            self.stamp_all()?;
        }
        Ok(())
    }

    /// Commits one single-op transaction against `domain` and updates the
    /// model.
    fn commit_one(&mut self, domain: usize, key: Vec<u8>, val: Vec<u8>) -> Result<(), String> {
        let ct = match &self.deploy {
            Deploy::Sharded(db) => {
                let db = db.as_ref().expect("deployment open");
                let mut dtx = db.begin();
                db.write(&mut dtx, self.events, &key, &val)
                    .map_err(|e| self.err(format!("storm write failed: {e}")))?;
                db.commit(dtx).map_err(|e| self.err(format!("storm commit failed: {e}")))?
            }
            d => {
                let events = self.events;
                d.with_engine(domain, |db| -> Result<Timestamp, String> {
                    let t = db.begin().map_err(|e| e.to_string())?;
                    db.write(t, events, &key, &val).map_err(|e| e.to_string())?;
                    db.commit(t).map_err(|e| e.to_string())
                })
                .map_err(|e| self.err(format!("storm txn failed: {e}")))?
            }
        };
        self.commits += 1;
        self.models[domain].events.insert(key, EventState { val: Some(val), ct });
        Ok(())
    }

    /// A revision storm: one decade of events keys rewritten three times,
    /// stamping between rounds. Co-located stamped-dead versions are what
    /// lets overflowing leaves time-split into migratable historical pages
    /// — without storms the workload is too thin for migration to ever
    /// have pages to move.
    fn revision_storm(&mut self) -> Result<(), String> {
        let domain = self.rng.gen_range(0..self.models.len() as u64) as usize;
        let decade = self.rng.gen_range(0..6u32);
        for _round in 0..3 {
            for i in 0..10u32 {
                let key = format!("e{:03}", decade * 10 + i).into_bytes();
                let mut val = self.fresh_val("storm");
                val.resize(val.len() + 64, b'.');
                self.commit_one(domain, key, val)?;
            }
            self.stamp_all()?;
        }
        self.trace.push(format!("revision storm d{domain} decade e{decade:02}x"));
        Ok(())
    }

    fn advance_clock(&mut self) {
        let big = self.rng.gen_bool(0.4);
        let mins = if big {
            // Months to years.
            self.rng.gen_range(30..900u64) * 1440
        } else {
            // Minutes to two days.
            self.rng.gen_range(1..2880u64)
        };
        let d = Duration::from_mins(mins);
        self.clock.advance(d);
        self.advanced_us += d.0;
        self.trace.push(format!("advance {}d{}h", mins / 1440, (mins % 1440) / 60));
    }

    fn tick_all(&mut self) -> Result<(), String> {
        match &self.deploy {
            Deploy::Sharded(db) => db
                .as_ref()
                .expect("deployment open")
                .tick()
                .map_err(|e| self.err(format!("tick failed: {e}"))),
            d => {
                for i in 0..d.engines() {
                    d.with_engine(i, |db| db.tick())
                        .map_err(|e| self.err(format!("tick failed: {e}")))?;
                }
                Ok(())
            }
        }
    }

    fn place_hold(&mut self) -> Result<(), String> {
        if self.holds.len() >= 3 {
            return Ok(());
        }
        self.hold_seq += 1;
        // A decade of keys (e.g. "e02" ⊇ e020..e029), or occasionally a
        // single-document hold.
        let prefix = if self.rng.gen_bool(0.2) {
            format!("e{:03}", self.rng.gen_range(0..60u32))
        } else {
            format!("e{:02}", self.rng.gen_range(0..6u32))
        };
        let hold = Hold {
            id: format!("hold-{}", self.hold_seq),
            rel_name: "events".into(),
            key_prefix: prefix.clone().into_bytes(),
        };
        match &self.deploy {
            Deploy::Sharded(db) => db
                .as_ref()
                .expect("deployment open")
                .place_hold(&hold)
                .map_err(|e| self.err(format!("place_hold failed: {e}")))?,
            d => {
                for i in 0..d.engines() {
                    d.with_engine(i, |db| -> ccdb_common::Result<()> {
                        let t = db.begin()?;
                        db.place_hold(t, &hold)?;
                        db.commit(t)?;
                        Ok(())
                    })
                    .map_err(|e| self.err(format!("place_hold failed: {e}")))?;
                }
            }
        }
        self.trace.push(format!("hold place {} prefix={prefix}", hold.id));
        self.holds.insert(hold.id.clone(), hold);
        self.holds_placed += 1;
        Ok(())
    }

    fn release_hold(&mut self) -> Result<(), String> {
        let Some(id) = self
            .holds
            .keys()
            .nth(self.rng.gen_range(0..self.holds.len().max(1) as u64) as usize)
            .cloned()
        else {
            return Ok(());
        };
        match &self.deploy {
            Deploy::Sharded(db) => db
                .as_ref()
                .expect("deployment open")
                .release_hold(&id)
                .map_err(|e| self.err(format!("release_hold failed: {e}")))?,
            d => {
                for i in 0..d.engines() {
                    d.with_engine(i, |db| -> ccdb_common::Result<()> {
                        let t = db.begin()?;
                        db.release_hold(t, &id)?;
                        db.commit(t)?;
                        Ok(())
                    })
                    .map_err(|e| self.err(format!("release_hold failed: {e}")))?;
                }
            }
        }
        self.trace.push(format!("hold release {id}"));
        self.holds.remove(&id);
        Ok(())
    }

    /// Re-migrate expired WORM pages, vacuum everywhere, then reconcile the
    /// events model against observed state: a key may only vanish if its
    /// latest version was expiry-eligible and unheld, and held keys must
    /// survive byte-for-byte.
    fn vacuum_cycle(&mut self) -> Result<(), String> {
        let (remigrated, report) = match &self.deploy {
            Deploy::Sharded(db) => {
                let db = db.as_ref().expect("deployment open");
                let rm = db.remigrate_expired().map_err(|e| self.err(format!("remigrate: {e}")))?;
                let rep = db.vacuum().map_err(|e| self.err(format!("vacuum: {e}")))?;
                (rm, rep)
            }
            d => {
                let mut rm = 0usize;
                let mut rep = ccdb_core::shred::VacuumReport::default();
                for i in 0..d.engines() {
                    let (a, b) = d
                        .with_engine(i, |db| -> ccdb_common::Result<_> {
                            let a = db.remigrate_expired()?;
                            let b = db.vacuum()?;
                            Ok((a, b))
                        })
                        .map_err(|e| self.err(format!("vacuum cycle failed: {e}")))?;
                    rm += a;
                    rep.shredded += b.shredded;
                    rep.held += b.held;
                    rep.revacuumed += b.revacuumed;
                }
                (rm, rep)
            }
        };
        self.vacuums += 1;
        self.shredded += report.shredded;
        self.held_spared += report.held;
        self.pages_remigrated += remigrated;
        self.trace.push(format!(
            "vacuum: shredded {} held {} remigrated {remigrated}",
            report.shredded, report.held
        ));
        // Reconcile and check the shred contract against the model.
        let now = self.clock.now();
        for domain in 0..self.models.len() {
            let mut gone: Vec<Vec<u8>> = Vec::new();
            let entries: Vec<(Vec<u8>, EventState)> =
                self.models[domain].events.iter().map(|(k, s)| (k.clone(), s.clone())).collect();
            for (key, state) in entries {
                let got = self.deploy.read_latest(domain, self.events, &key)?;
                match (&got, &state.val) {
                    (Some(g), Some(v)) if g == v => {}
                    (None, None) => {}
                    (None, Some(_)) => {
                        let expired = state.ct.saturating_add(self.retention) <= now;
                        if !expired {
                            return Err(self.err(format!(
                                "vacuum shredded unexpired key {:?} (ct {:?}, now {now:?})",
                                String::from_utf8_lossy(&key),
                                state.ct
                            )));
                        }
                        if self.held(&key) {
                            return Err(self.err(format!(
                                "vacuum shredded HELD key {:?} (active holds: {:?})",
                                String::from_utf8_lossy(&key),
                                self.holds.keys().collect::<Vec<_>>()
                            )));
                        }
                        gone.push(key);
                    }
                    _ => {
                        return Err(self.err(format!(
                            "post-vacuum state mismatch on key {:?}: model {:?}, disk {:?}",
                            String::from_utf8_lossy(&key),
                            state.val.as_ref().map(|v| String::from_utf8_lossy(v).into_owned()),
                            got.as_ref().map(|v| String::from_utf8_lossy(v).into_owned()),
                        )))
                    }
                }
            }
            for key in gone {
                self.models[domain].events.remove(&key);
            }
        }
        Ok(())
    }

    fn migrate(&mut self) -> Result<(), String> {
        let report = match &self.deploy {
            Deploy::Sharded(db) => db
                .as_ref()
                .expect("deployment open")
                .migrate_to_worm(self.events)
                .map_err(|e| self.err(format!("migrate failed: {e}")))?,
            d => {
                let mut rep = ccdb_core::migrate::MigrationReport::default();
                for i in 0..d.engines() {
                    let r = d
                        .with_engine(i, |db| db.migrate_to_worm(self.events))
                        .map_err(|e| self.err(format!("migrate failed: {e}")))?;
                    rep.pages_migrated += r.pages_migrated;
                    rep.tuples_migrated += r.tuples_migrated;
                }
                rep
            }
        };
        self.pages_migrated += report.pages_migrated;
        self.trace.push(format!("migrate: {} pages to WORM", report.pages_migrated));
        Ok(())
    }

    /// A mid-campaign sealing audit; must be clean (contract point 3).
    fn sealing_audit(&mut self) -> Result<(), String> {
        match &self.deploy {
            Deploy::Sharded(db) => {
                let a = db
                    .as_ref()
                    .expect("deployment open")
                    .audit()
                    .map_err(|e| self.err(format!("sealing audit errored: {e}")))?;
                if !a.is_clean() {
                    return Err(
                        self.err(format!("honest sealing audit dirty: {:?}", a.all_violations()))
                    );
                }
            }
            d => {
                for i in 0..d.engines() {
                    let report = d
                        .with_engine(i, |db| db.audit())
                        .map_err(|e| self.err(format!("sealing audit errored: {e}")))?;
                    if !report.is_clean() {
                        return Err(self.err(format!(
                            "honest sealing audit dirty on engine {i}: {:?}",
                            report.violations
                        )));
                    }
                }
            }
        }
        self.sealed_audits += 1;
        self.trace.push("sealing audit: clean".into());
        Ok(())
    }

    fn crash(&mut self) -> Result<(), String> {
        match &mut self.deploy {
            Deploy::Single(slot) => {
                let db = slot.take().expect("deployment open");
                *slot = Some(Box::new(
                    db.crash_and_recover()
                        .map_err(|e| format!("seed {}: recovery failed: {e}", self.seed))?,
                ));
                self.trace.push("crash+recover (whole)".into());
            }
            Deploy::Sharded(slot) => {
                let whole = self.rng.gen_bool(0.4);
                if whole {
                    let db = slot.take().expect("deployment open");
                    *slot = Some(db.crash_and_recover().map_err(|e| {
                        format!("seed {}: deployment recovery failed: {e}", self.seed)
                    })?);
                    self.trace.push("crash+recover (whole deployment)".into());
                } else {
                    let db = slot.as_mut().expect("deployment open");
                    let victim = self.rng.gen_range(0..db.shards().len() as u64) as usize;
                    db.crash_shard(victim).map_err(|e| {
                        format!("seed {}: shard {victim} recovery failed: {e}", self.seed)
                    })?;
                    self.trace.push(format!("crash+recover shard {victim}"));
                }
            }
            // Tenant registries hold shared handles; crashing one is a
            // registry-level restart this campaign does not model.
            Deploy::Tenants { .. } => return Ok(()),
        }
        self.crashes += 1;
        Ok(())
    }

    fn stamp_all(&mut self) -> Result<(), String> {
        for i in 0..self.deploy.engines() {
            self.deploy
                .with_engine(i, |db| db.engine().run_stamper())
                .map_err(|e| self.err(format!("stamper failed: {e}")))?;
        }
        Ok(())
    }

    /// Flush everything and drop caches, so the on-disk file is
    /// authoritative and Mala's edits bite.
    fn settle(&mut self) -> Result<(), String> {
        self.stamp_all()?;
        for i in 0..self.deploy.engines() {
            self.deploy
                .with_engine(i, |db| db.engine().clear_cache())
                .map_err(|e| self.err(format!("clear_cache failed: {e}")))?;
        }
        Ok(())
    }

    // --- tamper phase -----------------------------------------------------

    /// Picks a ledger key for tampering; for sharded deployments, one
    /// routed to the target shard so the attack has bytes to find.
    fn tamper_key(&mut self, target: &MalaTarget) -> Option<Vec<u8>> {
        let keys: Vec<Vec<u8>> = match (&self.deploy, target) {
            (Deploy::Sharded(db), MalaTarget::Shard(s)) => {
                let db = db.as_ref().expect("deployment open");
                self.models[0]
                    .ledger
                    .keys()
                    .filter(|k| db.map().shard_of(k) == *s as usize)
                    .cloned()
                    .collect()
            }
            (Deploy::Tenants { names, .. }, MalaTarget::Tenant(name)) => {
                let domain = names.iter().position(|n| n == name).expect("known tenant");
                self.models[domain].ledger.keys().cloned().collect()
            }
            _ => self.models[0].ledger.keys().cloned().collect(),
        };
        if keys.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..keys.len() as u64) as usize;
        Some(keys[i].clone())
    }

    fn draw_tamper(&mut self, target: &MalaTarget, mala: &Mala) -> Option<TamperAction> {
        for _ in 0..8 {
            let action = match self.rng.gen_range(0..8u32) {
                0 => self.tamper_key(target).map(|key| TamperAction::AlterTuple {
                    key,
                    new_value: b"tampered-by-mala".to_vec(),
                }),
                1 => self.tamper_key(target).map(|key| TamperAction::DeleteTuple { key }),
                2 => Some(TamperAction::BackdateInsert {
                    rel: self.ledger,
                    key: format!("lz{:03}", self.rng.gen_range(0..999u32)).into_bytes(),
                    value: b"forged-entry".to_vec(),
                    fake_time: Timestamp(self.rng.gen_range(1..1000u64)),
                }),
                3 => Some(TamperAction::SwapLeafEntries),
                4 => Some(TamperAction::CorruptSeparator),
                5 => {
                    let len = std::fs::metadata(mala.db_path()).map(|m| m.len()).unwrap_or(0);
                    if len == 0 {
                        None
                    } else {
                        Some(TamperAction::FlipByte {
                            offset: self.rng.gen_range(0..len),
                            mask: self.rng.gen_range(1..=255u8),
                            fix_checksum: true,
                        })
                    }
                }
                6 => self.tamper_key(target).map(|key| TamperAction::RevertRoundTrip { key }),
                _ => {
                    // WAL wiping is modeled together with a crash, which
                    // this harness only drives on single deployments.
                    if matches!(self.deploy, Deploy::Single(_)) {
                        Some(TamperAction::WipeWal)
                    } else {
                        None
                    }
                }
            };
            if action.is_some() {
                return action;
            }
        }
        None
    }

    /// The tamper phase: 0–3 catalogued actions against seeded engines.
    /// Returns how many were drawn and how many landed, plus whether a WAL
    /// wipe requires the follow-up crash.
    fn tamper_phase(&mut self) -> Result<(usize, usize), String> {
        let drawn_count =
            if self.rng.gen_bool(0.35) { 0 } else { self.rng.gen_range(1..4u32) as usize };
        let mut landed = 0usize;
        let mut wal_wiped = false;
        let targets = self.deploy.targets();
        for _ in 0..drawn_count {
            let target = targets[self.rng.gen_range(0..targets.len() as u64) as usize].clone();
            let mala = Mala::for_deployment(&self.dir.0, &target);
            let Some(action) = self.draw_tamper(&target, &mala) else {
                self.trace.push(format!("tamper {target:?}: no viable action"));
                continue;
            };
            let hit = mala
                .apply(&action)
                .map_err(|e| self.err(format!("tamper {action:?} errored: {e}")))?;
            if hit {
                landed += 1;
                wal_wiped |= matches!(action, TamperAction::WipeWal);
                if let TamperAction::BackdateInsert { key, .. } = &action {
                    let domain = match (&self.deploy, &target) {
                        (Deploy::Tenants { names, .. }, MalaTarget::Tenant(name)) => {
                            names.iter().position(|n| n == name).expect("known tenant")
                        }
                        _ => 0,
                    };
                    self.forged.push((domain, key.clone()));
                }
            }
            self.trace.push(format!("tamper {target:?}: {action:?} landed={hit}"));
        }
        if wal_wiped {
            // A wiped WAL only matters across a restart; Mala forces one.
            self.crash()?;
        }
        Ok((drawn_count, landed))
    }

    // --- verdict ----------------------------------------------------------

    /// Runs the three auditors over one engine and enforces verdict
    /// identity. Returns the agreed violations (empty = clean).
    fn engine_verdict(&self, i: usize) -> Result<Vec<String>, String> {
        self.deploy.with_engine(i, |db| {
            let serial = db
                .audit_outcome_with(AuditConfig::serial())
                .map_err(|e| self.err(format!("engine {i}: serial audit errored: {e}")))?;
            let par = db
                .audit_outcome_with(AuditConfig::default().with_threads(2))
                .map_err(|e| self.err(format!("engine {i}: parallel audit errored: {e}")))?;
            if serial.report.violations != par.report.violations {
                return Err(self.err(format!(
                    "VERDICT SPLIT engine {i}: serial {:?} vs parallel {:?}",
                    serial.report.violations, par.report.violations
                )));
            }
            if serial.report.forensics != par.report.forensics {
                return Err(self.err(format!("VERDICT SPLIT engine {i}: forensics diverge")));
            }
            if serial.tuple_hash != par.tuple_hash {
                return Err(
                    self.err(format!("VERDICT SPLIT engine {i}: completeness hash diverges"))
                );
            }
            let mut stream = db
                .stream_auditor()
                .map_err(|e| self.err(format!("engine {i}: stream attach errored: {e}")))?;
            let alert = stream
                .poll_deep(db)
                .map_err(|e| self.err(format!("engine {i}: stream poll errored: {e}")))?;
            match (&alert, serial.report.is_clean()) {
                (None, true) => {}
                (Some(a), false) => {
                    if a.violations != serial.report.violations {
                        return Err(self.err(format!(
                            "VERDICT SPLIT engine {i}: stream {:?} vs batch {:?}",
                            a.violations, serial.report.violations
                        )));
                    }
                }
                (Some(a), true) => {
                    return Err(self.err(format!(
                        "VERDICT SPLIT engine {i}: streaming false alarm {:?}",
                        a.violations
                    )))
                }
                (None, false) => {
                    return Err(self.err(format!(
                        "VERDICT SPLIT engine {i}: streaming daemon missed {:?}",
                        serial.report.violations
                    )))
                }
            }
            Ok(serial.report.violations.iter().map(|v| format!("{v:?}")).collect())
        })
    }

    /// The full three-auditor deployment verdict: per-engine identity plus
    /// (for sharded deployments) the cross-shard decision join.
    fn verdict(&mut self) -> Result<Vec<String>, String> {
        let mut violations: Vec<String> = Vec::new();
        for i in 0..self.deploy.engines() {
            violations.extend(self.engine_verdict(i)?);
        }
        if let Deploy::Sharded(db) = &self.deploy {
            let db = db.as_ref().expect("deployment open");
            let (_, cross) = db
                .audit_dry(AuditConfig::serial())
                .map_err(|e| self.err(format!("cross-shard join errored: {e}")))?;
            violations.extend(cross.iter().map(|v| format!("cross-shard {v:?}")));
        }
        self.trace.push(format!(
            "verdict: {} ({} violations)",
            if violations.is_empty() { "clean" } else { "DETECTED" },
            violations.len()
        ));
        Ok(violations)
    }

    /// The harmless check: observable state still matches the honest model
    /// — full version history for the ledger, latest state for events.
    fn check_state(&self) -> Result<(), String> {
        for (domain, key) in &self.forged {
            let hist = self.deploy.version_history(*domain, self.ledger, key)?;
            if !hist.is_empty() {
                return Err(self.err(format!(
                    "forged key {:?} is visible with {} version(s)",
                    String::from_utf8_lossy(key),
                    hist.len()
                )));
            }
        }
        for (domain, model) in self.models.iter().enumerate() {
            for (key, writes) in &model.ledger {
                let hist = self.deploy.version_history(domain, self.ledger, key)?;
                let got: Vec<&[u8]> = hist.iter().map(|(_, _, v)| v.as_slice()).collect();
                let want: Vec<&[u8]> = writes.iter().map(|v| v.as_slice()).collect();
                if got != want || hist.iter().any(|(_, eol, _)| *eol) {
                    return Err(self.err(format!(
                        "ledger history diverged on {:?}: {} committed writes, disk has {:?}",
                        String::from_utf8_lossy(key),
                        want.len(),
                        hist.iter()
                            .map(|(_, eol, v)| format!(
                                "{}{}",
                                String::from_utf8_lossy(v),
                                if *eol { " (eol)" } else { "" }
                            ))
                            .collect::<Vec<_>>(),
                    )));
                }
            }
            for (key, state) in &model.events {
                let got = self.deploy.read_latest(domain, self.events, key)?;
                if got != state.val {
                    return Err(self.err(format!(
                        "events state diverged on {:?}: model {:?}, disk {:?}",
                        String::from_utf8_lossy(key),
                        state.val.as_ref().map(|v| String::from_utf8_lossy(v).into_owned()),
                        got.as_ref().map(|v| String::from_utf8_lossy(v).into_owned()),
                    )));
                }
            }
        }
        Ok(())
    }

    // --- the schedule -----------------------------------------------------

    fn execute(&mut self) -> Result<CampaignOutcome, String> {
        // Honest phase: a seeded interleaving of workload, time, lifecycle
        // actions, crashes, and sealing audits.
        let steps = self.rng.gen_range(12..30usize);
        for _ in 0..steps {
            match self.rng.gen_range(0..16u32) {
                0..=4 => self.workload_burst()?,
                5 | 6 => {
                    self.advance_clock();
                    self.tick_all()?;
                }
                7 => self.place_hold()?,
                8 => {
                    if !self.holds.is_empty() {
                        self.release_hold()?;
                    }
                }
                9 | 10 => self.vacuum_cycle()?,
                11 => self.migrate()?,
                12 => {
                    if self.sealed_audits < 3 {
                        self.sealing_audit()?;
                    }
                }
                13 => self.crash()?,
                14 => self.revision_storm()?,
                _ => self.stamp_all()?,
            }
        }
        // Make sure there is real state to attack and to check.
        if self.commits == 0 {
            self.workload_burst()?;
        }
        // Tamper phase against the settled on-disk state.
        self.settle()?;
        let (drawn, landed) = self.tamper_phase()?;

        // Verdict: all three auditors, verdict-identical.
        let violations = self.verdict()?;
        let detected = !violations.is_empty();
        let tampered = landed > 0;

        // The paper's invariant, enforced.
        if !tampered && detected {
            return Err(
                self.err(format!("FALSE ALERT: tamper-free campaign ended dirty: {violations:?}"))
            );
        }
        if !detected {
            // Clean verdict ⇒ the campaign must be harmless: observable
            // state still matches the honest model (this covers held-tuple
            // survival too — held keys keep their model values).
            self.check_state().map_err(|e| {
                if tampered {
                    format!("{e} [UNDETECTED EFFECTIVE TAMPER — verdict was clean]")
                } else {
                    e
                }
            })?;
        }
        Ok(CampaignOutcome {
            seed: self.seed,
            deployment: self.deploy.kind(),
            mode: self.mode,
            commits: self.commits,
            crashes: self.crashes,
            sealed_audits: self.sealed_audits,
            vacuums: self.vacuums,
            shredded: self.shredded,
            held_spared: self.held_spared,
            pages_migrated: self.pages_migrated,
            pages_remigrated: self.pages_remigrated,
            holds_placed: self.holds_placed,
            virtual_micros_advanced: self.advanced_us,
            tampers_drawn: drawn,
            tampers_landed: landed,
            detected,
            violations,
            trace: self.trace.clone(),
        })
    }
}

/// Runs one deterministic campaign. Any broken contract point returns a
/// [`CampaignFailure`] carrying the seed and the structured action trace.
pub fn run_campaign_schedule(seed: u64) -> Result<CampaignOutcome, CampaignFailure> {
    let mut run = match Run::new(seed) {
        Ok(r) => r,
        Err(error) => {
            return Err(CampaignFailure {
                seed,
                error: format!("seed {seed}: {error}"),
                trace: Vec::new(),
            })
        }
    };
    match run.execute() {
        Ok(out) => Ok(out),
        Err(error) => Err(CampaignFailure { seed, error, trace: run.trace.clone() }),
    }
}

/// Runs campaigns for `seeds` on the machine's available parallelism. Each
/// campaign is a pure function of its seed, so the outcomes come back in
/// seed order whatever worker ran them, and a failure reports the first
/// violated seed in that order. The outcome aggregate lets callers assert
/// the campaign exercised real tampering, shredding, holds, and years of
/// virtual time rather than vacuously passing.
pub fn run_campaign(
    seeds: impl IntoIterator<Item = u64>,
) -> Result<Vec<CampaignOutcome>, CampaignFailure> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    parallel_map(threads, seeds.into_iter().collect(), run_campaign_schedule).into_iter().collect()
}
