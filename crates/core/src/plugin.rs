//! The compliance plugin: a decorator over the engine's page store plus the
//! tree and transaction hooks — the paper's "compliance logging plugin that
//! taps into the pread/pwrite system calls".
//!
//! * **pwrite** — the plugin parses the outgoing page and diffs it against a
//!   cached pristine copy (populated on pread: "we reduce this cost by
//!   caching a separate copy of the page in available memory … on each
//!   pread"): versions present in the buffer image but not the pristine copy
//!   become `NEW_TUPLE` records; versions that disappeared become `UNDO`
//!   records; a version whose time changed from a transaction id to a commit
//!   time is recognized as an in-place lazy stamp and produces nothing (the
//!   `STAMP_TRANS` record already covers it). All buffered compliance records
//!   are flushed to WORM *before* the page write proceeds — "we require all
//!   data page writes to wait until their corresponding NEW_TUPLE and/or
//!   STAMP_TRANS records have reached the WORM server".
//! * **pread** (hash-page-on-read refinement) — the plugin hashes the page's
//!   content with the sequential hash `Hs` and appends a `READ` record. Leaf
//!   tuples are hashed in tuple-order-number order, each with its commit time
//!   if its transaction has committed by now, else with its transaction id —
//!   which makes the auditor's replay rule ("commit time iff the STAMP_TRANS
//!   record appears earlier in L than the READ") exact.
//! * **Structure hooks** — splits, index-entry changes, and root growth are
//!   logged (`PAGE_SPLIT` carries the full content of both new pages, as in
//!   the paper), and the pristine cache is primed with the post-split
//!   content so the move itself never manufactures `NEW_TUPLE` records.
//! * **Transaction hooks** — `STAMP_TRANS` on commit, `ABORT` after rollback,
//!   `START_RECOVERY` plus re-emitted status records around crash recovery.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use ccdb_btree::{SplitKind, StructureHooks};
use ccdb_common::sync::Mutex;
use ccdb_common::{ClockRef, PageNo, Result, Timestamp, TxnId};
use ccdb_crypto::{Digest, HsChain, Sha256};
use ccdb_engine::EngineHooks;
use ccdb_storage::{Page, PageStore, PageType, TupleVersion, WriteTime};

use crate::logger::ComplianceLogger;
use crate::records::{LogRecord, SplitSide};

/// The hash of one leaf tuple's `Hs` element with its time resolved: the
/// fields `(rel, key, kind, time-or-txn, eol, value, seq)` — little-endian,
/// `key` and `value` length-prefixed — streamed straight into the hasher.
fn hs_element_hash(t: &TupleVersion, resolved_commit: Option<Timestamp>) -> Digest {
    let (kind, time) = match (t.time, resolved_commit) {
        (_, Some(ct)) | (WriteTime::Committed(ct), None) => (1u8, ct.0),
        (WriteTime::Pending(txn), None) => (0u8, txn.0),
    };
    let mut h = Sha256::new();
    h.update(&t.rel.0.to_le_bytes())
        .update(&(t.key.len() as u32).to_le_bytes())
        .update(&t.key)
        .update(&[kind])
        .update(&time.to_le_bytes())
        .update(&[u8::from(t.end_of_life)])
        .update(&(t.value.len() as u32).to_le_bytes())
        .update(&t.value)
        .update(&t.seq.to_le_bytes());
    h.finalize()
}

/// `Hs` over a leaf page: tuples in tuple-order-number order, each resolved
/// through `resolve` (commit time if known). The writer resolves through
/// the commit times it has seen; the auditor through the `STAMP_TRANS`
/// records that precede the `READ` in `L`.
pub fn leaf_hs(tuples: &[TupleVersion], resolve: impl Fn(TxnId) -> Option<Timestamp>) -> Digest {
    let mut sorted: Vec<&TupleVersion> = tuples.iter().collect();
    sorted.sort_by_key(|t| t.seq);
    let mut chain = HsChain::new();
    for t in sorted {
        let rc = t.time.pending().and_then(&resolve);
        chain.extend_hash(&hs_element_hash(t, rc));
    }
    chain.value()
}

/// `Hs` over an internal page: raw entry cells in slot order.
pub fn inner_hs<'a>(cells: impl Iterator<Item = &'a [u8]>) -> Digest {
    let mut chain = HsChain::new();
    for c in cells {
        chain.extend(c);
    }
    chain.value()
}

/// Counters the space-overhead experiment reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct PluginStats {
    /// `NEW_TUPLE` records emitted.
    pub new_tuples: u64,
    /// `UNDO` records emitted.
    pub undos: u64,
    /// `READ` records emitted (hash-page-on-read).
    pub reads_hashed: u64,
    /// `PAGE_SPLIT` records emitted.
    pub splits: u64,
    /// In-place lazy stamps recognized (no record needed).
    pub stamps_recognized: u64,
}

struct PluginState {
    /// Pristine (on-disk) tuple content per leaf page.
    pristine: HashMap<PageNo, Vec<TupleVersion>>,
    /// Pristine entry cells per internal page.
    pristine_inner: HashMap<PageNo, Vec<Vec<u8>>>,
    /// Pages retired by splits: their final Free-page write logs nothing.
    retired: HashSet<PageNo>,
    /// Pages migrated to WORM (reads/writes of these are unexpected).
    migrated: HashSet<PageNo>,
    /// Commit times known to the plugin (for read-hash normalization).
    commit_times: HashMap<TxnId, Timestamp>,
    /// Crash recovery in flight: reads are *not* hashed. Recovery reads the
    /// pre-crash disk state by design — pages whose compliance records
    /// reached WORM but whose pwrite was lost in the crash legitimately lag
    /// L, and redo is about to reconcile them with it. Hashing those
    /// self-reads would make every honest crash recovery indistinguishable
    /// from tampering in the audit; any divergence redo cannot justify still
    /// surfaces through the diff records the recovery-time pwrites emit.
    in_recovery: bool,
    /// Trusted (auditor) reads in flight: reads are *not* hashed. The
    /// auditor consults live relations (litigation holds, retention
    /// periods) while evaluating shred legality; those are its own trusted
    /// reads of state it is simultaneously verifying physically, not user
    /// query results needing the hash-page-on-read defense. Suppressing
    /// them keeps an audit side-effect-free on `L`, so back-to-back audit
    /// dry-runs (the differential harness) observe the same log.
    trusted_reads: usize,
    stats: PluginStats,
}

/// The compliance plugin. Install as the page store wrapper, the tree
/// structure hooks, and the engine hooks of one engine instance.
pub struct CompliancePlugin {
    inner: Arc<dyn PageStore>,
    logger: Arc<ComplianceLogger>,
    clock: ClockRef,
    hash_on_read: bool,
    state: Mutex<PluginState>,
}

impl CompliancePlugin {
    /// Wraps `inner`, logging to `logger`. `hash_on_read` enables the
    /// refinement of Section V.
    pub fn new(
        inner: Arc<dyn PageStore>,
        logger: Arc<ComplianceLogger>,
        clock: ClockRef,
        hash_on_read: bool,
    ) -> Arc<CompliancePlugin> {
        Arc::new(CompliancePlugin {
            inner,
            logger,
            clock,
            hash_on_read,
            state: Mutex::new(PluginState {
                pristine: HashMap::new(),
                pristine_inner: HashMap::new(),
                retired: HashSet::new(),
                migrated: HashSet::new(),
                commit_times: HashMap::new(),
                in_recovery: false,
                trusted_reads: 0,
                stats: PluginStats::default(),
            }),
        })
    }

    /// The logger this plugin appends to.
    pub fn logger(&self) -> &Arc<ComplianceLogger> {
        &self.logger
    }

    /// Emission counters.
    pub fn stats(&self) -> PluginStats {
        self.state.lock().stats
    }

    /// Zeroes the emission counters (benchmarks reset after the load phase).
    pub fn reset_stats(&self) {
        self.state.lock().stats = PluginStats::default();
    }

    /// Marks a page as migrated to WORM (called by the migration routine
    /// after the `MIGRATE` record is durable).
    pub fn note_migrated(&self, pgno: PageNo) {
        let mut st = self.state.lock();
        st.migrated.insert(pgno);
        st.pristine.remove(&pgno);
        st.pristine_inner.remove(&pgno);
    }

    /// Regret-interval housekeeping passthrough.
    pub fn tick(&self) -> Result<()> {
        self.logger.tick()
    }

    /// Enters a trusted-read section (auditor self-reads): page reads are
    /// served and cached but no `READ` records are logged. Nestable; must
    /// be balanced with [`CompliancePlugin::end_trusted_reads`].
    pub fn begin_trusted_reads(&self) {
        self.state.lock().trusted_reads += 1;
    }

    /// Leaves a trusted-read section.
    pub fn end_trusted_reads(&self) {
        let mut st = self.state.lock();
        st.trusted_reads = st.trusted_reads.saturating_sub(1);
    }

    fn diff_and_log(&self, page: &Page) -> Result<()> {
        let pgno = page.pgno();
        {
            let mut st = self.state.lock();
            if st.retired.contains(&pgno) {
                st.pristine.remove(&pgno);
                return Ok(());
            }
        }
        let new_tuples: Vec<TupleVersion> =
            page.cells().map(TupleVersion::decode_cell).collect::<Result<_>>()?;
        self.diff_against_pristine(pgno, new_tuples)
    }

    /// Diffs an internal page's entry cells against the pristine copy,
    /// emitting `INDEX_INSERT`/`INDEX_REMOVE` records. This (not a hook on
    /// the tree) is the source of index records, so crash recovery's
    /// physiological redo regenerates them at the next pwrite exactly like
    /// leaf `NEW_TUPLE` records; the auditor deduplicates.
    fn diff_inner_against_pristine(&self, pgno: PageNo, new_cells: Vec<Vec<u8>>) -> Result<()> {
        let mut st = self.state.lock();
        if st.retired.contains(&pgno) {
            st.pristine_inner.remove(&pgno);
            return Ok(());
        }
        let Some(old) = st.pristine_inner.remove(&pgno) else {
            // No baseline at all: in steady state every internal page is
            // primed at creation (split/new-root hooks) or on pread, so this
            // page was rebuilt by crash-recovery redo from its WAL images
            // and the entry deltas it took between its creation record and
            // the crash never reached L. Per-entry diffs cannot retract the
            // stale entries L still carries (an INDEX_INSERT's duplicate
            // tolerance has no authoritative "drop the rest"), so log the
            // full content as an image that *replaces* the replayed state.
            self.logger.append(&LogRecord::IndexImage { pgno, cells: new_cells.clone() })?;
            st.pristine_inner.insert(pgno, new_cells);
            return Ok(());
        };
        let mut old_counts: HashMap<&[u8], i64> = HashMap::new();
        for c in &old {
            *old_counts.entry(c.as_slice()).or_default() += 1;
        }
        for c in &new_cells {
            let e = old_counts.entry(c.as_slice()).or_default();
            if *e > 0 {
                *e -= 1;
            } else {
                self.logger.append(&LogRecord::IndexInsert { pgno, cell: c.clone() })?;
            }
        }
        let removed: Vec<Vec<u8>> = old_counts
            .iter()
            .flat_map(|(c, n)| std::iter::repeat_n(c.to_vec(), (*n).max(0) as usize))
            .collect();
        drop(st);
        for c in removed {
            self.logger.append(&LogRecord::IndexRemove { pgno, cell: c })?;
        }
        self.state.lock().pristine_inner.insert(pgno, new_cells);
        Ok(())
    }

    /// Diffs `new_tuples` against the pristine copy of `pgno`, emitting
    /// `NEW_TUPLE`/`UNDO` records and installing the new content as the
    /// pristine copy.
    fn diff_against_pristine(&self, pgno: PageNo, new_tuples: Vec<TupleVersion>) -> Result<()> {
        let mut st = self.state.lock();
        let old = st.pristine.remove(&pgno).unwrap_or_default();
        let mut old_map: HashMap<(Vec<u8>, u16), TupleVersion> =
            old.into_iter().map(|t| ((t.key.clone(), t.seq), t)).collect();
        for t in &new_tuples {
            match old_map.remove(&(t.key.clone(), t.seq)) {
                None => {
                    self.logger.append(&LogRecord::NewTuple {
                        pgno,
                        rel: t.rel,
                        cell: t.encode_cell(),
                    })?;
                    st.stats.new_tuples += 1;
                }
                Some(o) => {
                    if o == *t {
                        continue;
                    }
                    let is_stamp = o.time.pending().is_some()
                        && t.time.committed().is_some()
                        && o.key == t.key
                        && o.value == t.value
                        && o.end_of_life == t.end_of_life;
                    if is_stamp {
                        st.stats.stamps_recognized += 1;
                        continue;
                    }
                    // A version mutated in place: not a legal transaction-time
                    // operation. Log it faithfully; the audit will flag it.
                    self.logger.append(&LogRecord::Undo {
                        pgno,
                        rel: o.rel,
                        cell: o.encode_cell(),
                    })?;
                    self.logger.append(&LogRecord::NewTuple {
                        pgno,
                        rel: t.rel,
                        cell: t.encode_cell(),
                    })?;
                    st.stats.undos += 1;
                    st.stats.new_tuples += 1;
                }
            }
        }
        for (_, o) in old_map {
            self.logger.append(&LogRecord::Undo { pgno, rel: o.rel, cell: o.encode_cell() })?;
            st.stats.undos += 1;
        }
        st.pristine.insert(pgno, new_tuples);
        Ok(())
    }
}

impl PageStore for CompliancePlugin {
    fn pread(&self, pgno: PageNo) -> Result<Page> {
        let page = self.inner.pread(pgno)?;
        match page.page_type() {
            PageType::Leaf => {
                let tuples: Vec<TupleVersion> =
                    page.cells().map(TupleVersion::decode_cell).collect::<Result<_>>()?;
                // Hash + READ append happen under one state-lock hold: the
                // auditor's replay rule is "a tuple hashes with its commit
                // time iff its STAMP_TRANS appears earlier in L than the
                // READ". A concurrent commit interleaving its STAMP_TRANS
                // between our hash (which resolved the txn as pending) and
                // our READ append would make an honest read audit as a
                // violation, so both must be atomic against `on_commit`.
                let mut st = self.state.lock();
                if self.hash_on_read && !st.in_recovery && st.trusted_reads == 0 {
                    let hs = leaf_hs(&tuples, |txn| st.commit_times.get(&txn).copied());
                    self.logger.append(&LogRecord::Read { pgno, hs })?;
                    st.stats.reads_hashed += 1;
                }
                st.pristine.insert(pgno, tuples);
            }
            PageType::Inner => {
                let cells: Vec<Vec<u8>> = page.cells().map(|c| c.to_vec()).collect();
                let mut st = self.state.lock();
                if self.hash_on_read && !st.in_recovery && st.trusted_reads == 0 {
                    let hs = inner_hs(cells.iter().map(|c| c.as_slice()));
                    self.logger.append(&LogRecord::Read { pgno, hs })?;
                    st.stats.reads_hashed += 1;
                }
                st.pristine_inner.insert(pgno, cells);
            }
            _ => {}
        }
        Ok(page)
    }

    fn pwrite(&self, page: &mut Page) -> Result<()> {
        match page.page_type() {
            PageType::Leaf => self.diff_and_log(page)?,
            PageType::Inner => {
                let pgno = page.pgno();
                let retired = self.state.lock().retired.contains(&pgno);
                if !retired {
                    let cells: Vec<Vec<u8>> = page.cells().map(|c| c.to_vec()).collect();
                    self.diff_inner_against_pristine(pgno, cells)?;
                }
            }
            _ => {}
        }
        // Every record implied by (or preceding) this page state must be on
        // WORM before the bytes reach the (editable) database file.
        self.logger.flush()?;
        self.inner.pwrite(page)
    }

    fn allocate(&self) -> Result<PageNo> {
        self.inner.allocate()
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
}

impl StructureHooks for CompliancePlugin {
    fn on_split(
        &self,
        kind: SplitKind,
        old: &Page,
        left: &Page,
        right: &Page,
        intermediates: &[TupleVersion],
    ) {
        let rec = LogRecord::PageSplit {
            old: old.pgno(),
            rel: old.rel_id(),
            left: SplitSide {
                pgno: left.pgno(),
                historical: left.is_historical(),
                cells: left.cells().map(|c| c.to_vec()).collect(),
            },
            right: SplitSide {
                pgno: right.pgno(),
                historical: right.is_historical(),
                cells: right.cells().map(|c| c.to_vec()).collect(),
            },
            intermediates: intermediates.iter().map(|t| t.encode_cell()).collect(),
        };
        // Content that never reached a pwrite (and thus has no NEW_TUPLE /
        // INDEX_INSERT record yet) must be logged before the split record,
        // or the auditor's replayed input state would be incomplete.
        if kind == SplitKind::Inner {
            let cells: Vec<Vec<u8>> = old.cells().map(|c| c.to_vec()).collect();
            let _ = self.diff_inner_against_pristine(old.pgno(), cells);
        } else if let Ok(tuples) =
            old.cells().map(TupleVersion::decode_cell).collect::<Result<Vec<_>>>()
        {
            let _ = self.diff_against_pristine(old.pgno(), tuples);
        }
        // Hook signatures are infallible (the tree cannot meaningfully
        // recover); a logging failure is latched and surfaces at the next
        // flush, halting transaction processing as the paper requires.
        let _ = self.logger.append(&rec);
        let mut st = self.state.lock();
        st.retired.insert(old.pgno());
        st.pristine.remove(&old.pgno());
        st.stats.splits += 1;
        st.pristine_inner.remove(&old.pgno());
        if kind == SplitKind::Inner {
            st.pristine_inner.insert(left.pgno(), left.cells().map(|c| c.to_vec()).collect());
            st.pristine_inner.insert(right.pgno(), right.cells().map(|c| c.to_vec()).collect());
        } else {
            let decode = |p: &Page| -> Vec<TupleVersion> {
                p.cells().filter_map(|c| TupleVersion::decode_cell(c).ok()).collect()
            };
            st.pristine.insert(left.pgno(), decode(left));
            st.pristine.insert(right.pgno(), decode(right));
        }
    }

    // Index-entry maintenance is captured by pwrite diffing of internal
    // pages (so crash recovery regenerates lost records); the per-operation
    // hooks need not log anything. A new root is primed into the pristine
    // cache so its first pwrite diffs from empty and emits its entries.
    fn on_new_root(&self, root: PageNo, entries: &[Vec<u8>]) {
        let _ = self.logger.append(&LogRecord::NewRoot {
            rel: ccdb_common::RelId(0),
            pgno: root,
            cells: entries.to_vec(),
        });
        self.state.lock().pristine_inner.insert(root, entries.to_vec());
    }
}

impl EngineHooks for CompliancePlugin {
    fn on_commit(&self, txn: TxnId, commit_time: Timestamp) -> Result<()> {
        // Commit-time installation and the STAMP_TRANS append are one
        // critical section (against the hash-on-read path in `pread`):
        // otherwise a reader could hash this txn as pending yet append its
        // READ *after* our STAMP_TRANS, which the auditor rejects. The
        // engine invokes this hook in ticket order, so STAMP_TRANS records
        // land on L in strictly increasing commit-time order.
        let mut st = self.state.lock();
        st.commit_times.insert(txn, commit_time);
        self.logger.append(&LogRecord::StampTrans { txn, commit_time })?;
        drop(st);
        Ok(())
    }

    fn on_abort(&self, txn: TxnId) -> Result<()> {
        self.logger.append(&LogRecord::Abort { txn })?;
        Ok(())
    }

    fn on_recovery_start(&self) -> Result<()> {
        self.state.lock().in_recovery = true;
        // Install the commit times already recorded on L (via the stamp
        // index) so post-recovery read hashes normalize exactly the way the
        // auditor's offset rule expects: a tuple is hashed with its commit
        // time iff its STAMP_TRANS is on L *before* the READ record.
        let epoch = self.logger.epoch();
        let stamp_name = crate::logger::epoch_stamp_name(epoch);
        if self.logger.worm().exists(&stamp_name) {
            let bytes = self.logger.worm().read_all(&stamp_name)?;
            let entries = crate::logger::StampIndexEntry::decode_all(&bytes)?;
            let mut st = self.state.lock();
            for e in entries {
                if let crate::logger::StampIndexEntry::Stamp { txn, time, .. } = e {
                    st.commit_times.insert(txn, time);
                }
            }
        }
        self.logger.append(&LogRecord::StartRecovery { time: self.clock.now() })?;
        self.logger.flush()
    }

    fn on_recovery_end(&self, committed: &[(TxnId, Timestamp)], aborted: &[TxnId]) -> Result<()> {
        // Re-emit status records for everything recovery decided; the
        // auditor tolerates duplicates. Commit times are also installed for
        // read-hash normalization of recovery-time reads.
        {
            let mut st = self.state.lock();
            for (txn, t) in committed {
                st.commit_times.insert(*txn, *t);
            }
        }
        // Recovery hands transactions over in id order; `L` promises commit
        // times in log order, and concurrent committers' ids and commit
        // order differ.
        let mut by_commit_time = committed.to_vec();
        by_commit_time.sort_by_key(|(txn, t)| (*t, *txn));
        for (txn, commit_time) in by_commit_time {
            self.logger.append(&LogRecord::StampTrans { txn, commit_time })?;
        }
        for txn in aborted {
            self.logger.append(&LogRecord::Abort { txn: *txn })?;
        }
        self.logger.flush()?;
        self.state.lock().in_recovery = false;
        Ok(())
    }
}

/// Computes the SHA-256 content hash of a page's cells (used by `MIGRATE`
/// and snapshot records to bind copies to originals).
pub fn page_content_hash(cells: &[Vec<u8>]) -> Digest {
    let mut h = ccdb_crypto::Sha256::new();
    for c in cells {
        h.update(&(c.len() as u32).to_le_bytes());
        h.update(c);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdb_common::{RelId, SplitMix64};
    use ccdb_crypto::{sha256, to_hex};

    fn tv(key: &[u8], seq: u16, time: WriteTime, value: &[u8]) -> TupleVersion {
        TupleVersion {
            rel: RelId(1),
            key: key.to_vec(),
            time,
            seq,
            end_of_life: false,
            value: value.to_vec(),
        }
    }

    /// The element encoding spelled out with the workspace codec: the bytes
    /// `hs_element_hash` streams must be exactly these.
    fn reference_element_bytes(t: &TupleVersion, resolved: Option<Timestamp>) -> Vec<u8> {
        let mut w = ccdb_common::ByteWriter::new();
        w.put_u32(t.rel.0);
        w.put_len_bytes(&t.key);
        match (t.time, resolved) {
            (_, Some(ct)) | (WriteTime::Committed(ct), None) => {
                w.put_u8(1);
                w.put_u64(ct.0);
            }
            (WriteTime::Pending(txn), None) => {
                w.put_u8(0);
                w.put_u64(txn.0);
            }
        }
        w.put_u8(u8::from(t.end_of_life));
        w.put_len_bytes(&t.value);
        w.put_u16(t.seq);
        w.into_vec()
    }

    /// 30 seeded tuples: shuffled tuple-order numbers, committed and pending
    /// times, end-of-life versions, four relations.
    fn golden_tuples() -> Vec<TupleVersion> {
        let mut rng = SplitMix64::seed_from_u64(0x1EAF_0030);
        let mut seqs: Vec<u16> = (0..30).collect();
        rng.shuffle(&mut seqs);
        seqs.into_iter()
            .map(|seq| {
                let mut key = vec![0u8; rng.gen_range(1..=24usize)];
                rng.fill_bytes(&mut key);
                let end_of_life = rng.gen_bool(0.2);
                let mut value =
                    vec![0u8; if end_of_life { 0 } else { rng.gen_range(0..=150usize) }];
                rng.fill_bytes(&mut value);
                let time = if rng.gen_bool(0.5) {
                    WriteTime::Committed(Timestamp(rng.gen_range(1..=1_000_000u64)))
                } else {
                    WriteTime::Pending(TxnId(rng.gen_range(1..=8u64)))
                };
                TupleVersion {
                    rel: RelId(rng.gen_range(1..=4u32)),
                    key,
                    time,
                    seq,
                    end_of_life,
                    value,
                }
            })
            .collect()
    }

    #[test]
    fn element_hash_streams_the_reference_encoding() {
        for t in golden_tuples() {
            for resolved in [None, Some(Timestamp(4_242))] {
                assert_eq!(
                    hs_element_hash(&t, resolved),
                    sha256(&reference_element_bytes(&t, resolved)),
                    "{t:?} resolved {resolved:?}"
                );
            }
        }
    }

    #[test]
    fn leaf_hs_matches_pinned_digests() {
        // Pinned from the allocate-per-tuple implementation this replaced.
        let tuples = golden_tuples();
        let resolved = leaf_hs(&tuples, |txn| (txn.0 % 2 == 0).then_some(Timestamp(7_000 + txn.0)));
        assert_eq!(
            to_hex(&resolved),
            "168aa319fc0b7c1a56b9bcd7e383c5690d006e352807de733497b0a9fb96d657"
        );
        assert_eq!(
            to_hex(&leaf_hs(&tuples, |_| None)),
            "2de0bc3e08c909d4999f12085fe7f4e45a21bc5d2b4714e3bc1970d47bd5af3c"
        );
    }

    #[test]
    fn leaf_hs_sorts_by_seq() {
        let a = tv(b"a", 2, WriteTime::Committed(Timestamp(5)), b"x");
        let b = tv(b"b", 1, WriteTime::Committed(Timestamp(6)), b"y");
        let h1 = leaf_hs(&[a.clone(), b.clone()], |_| None);
        let h2 = leaf_hs(&[b, a], |_| None);
        assert_eq!(h1, h2, "Hs depends on tuple-order numbers, not slot order");
    }

    #[test]
    fn leaf_hs_normalizes_pending_times() {
        let pending = tv(b"a", 0, WriteTime::Pending(TxnId(9)), b"x");
        let stamped = tv(b"a", 0, WriteTime::Committed(Timestamp(55)), b"x");
        let resolved =
            leaf_hs(std::slice::from_ref(&pending), |t| (t == TxnId(9)).then_some(Timestamp(55)));
        let direct = leaf_hs(&[stamped], |_| None);
        assert_eq!(resolved, direct, "a resolvable pending tuple hashes as committed");
        let unresolved = leaf_hs(&[pending], |_| None);
        assert_ne!(unresolved, direct);
    }

    #[test]
    fn inner_hs_is_order_sensitive() {
        let a: &[u8] = b"entry-a";
        let b: &[u8] = b"entry-b";
        assert_ne!(inner_hs([a, b].into_iter()), inner_hs([b, a].into_iter()));
    }

    #[test]
    fn content_hash_is_boundary_safe() {
        let x = page_content_hash(&[b"ab".to_vec(), b"c".to_vec()]);
        let y = page_content_hash(&[b"a".to_vec(), b"bc".to_vec()]);
        assert_ne!(x, y);
    }
}
