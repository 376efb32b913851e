//! The compliance-log record set and its byte framing.
//!
//! Records are framed `u32 length ‖ u32 FNV checksum ‖ body` — the checksum
//! is a parse aid, not a defense (the log lives on WORM, which the threat
//! model trusts). Offsets within `L` identify records; the hash-page-on-read
//! normalization rule compares a tuple's `STAMP_TRANS` offset with a `READ`
//! record's offset, exactly the paper's "if the STAMP_TRANS record for T
//! appears later in L".

use ccdb_common::codec::checksum32;
use ccdb_common::{ByteReader, ByteWriter, Error, PageNo, RelId, Result, Timestamp, TxnId};
use ccdb_crypto::Digest;

/// The content of one page side of a `PAGE_SPLIT` record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitSide {
    /// The new page's number.
    pub pgno: PageNo,
    /// Whether the page was marked historical (time-split output).
    pub historical: bool,
    /// The page's cells immediately after the split.
    pub cells: Vec<Vec<u8>>,
}

/// A compliance-log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogRecord {
    /// A new tuple version reached a disk page ("its NEW_TUPLE record must
    /// reach WORM storage" within one regret interval of commit). The cell is
    /// the on-page encoding at pwrite time (possibly still carrying a
    /// transaction id under lazy timestamping).
    NewTuple {
        /// The page holding the version.
        pgno: PageNo,
        /// Owning relation.
        rel: RelId,
        /// The tuple-version cell bytes as stored.
        cell: Vec<u8>,
    },
    /// Transaction `txn` committed at `commit_time` (written only after the
    /// commit is durable).
    StampTrans {
        /// The committed transaction.
        txn: TxnId,
        /// Its commit time.
        commit_time: Timestamp,
    },
    /// Liveness heartbeat: appended when a regret interval is about to pass
    /// without a transaction ending ("a dummy STAMP_TRANS record to show that
    /// the system is still live").
    DummyStamp {
        /// The heartbeat time.
        time: Timestamp,
    },
    /// Transaction `txn` aborted (written only after rollback completes).
    Abort {
        /// The aborted transaction.
        txn: TxnId,
    },
    /// A tuple version was physically removed from a page (rollback UNDO or
    /// vacuum). The auditor requires every `Undo` to be justified by a prior
    /// `Abort` or `Shredded` record.
    Undo {
        /// The page the version was removed from.
        pgno: PageNo,
        /// Owning relation.
        rel: RelId,
        /// The removed cell bytes.
        cell: Vec<u8>,
    },
    /// Hash-page-on-read: a page was fetched from disk; `hs` is the
    /// sequential hash of its (time-normalized) content.
    Read {
        /// The page read.
        pgno: PageNo,
        /// `Hs` over the page content.
        hs: Digest,
    },
    /// A page split: `old` was retired; its content was partitioned into two
    /// new pages whose complete post-split content is recorded.
    /// `intermediates` are versions *created by* a time split (the TSB
    /// "intermediate version at time t") — new tuples that enter the
    /// completeness universe here.
    PageSplit {
        /// The retired input page.
        old: PageNo,
        /// Owning relation.
        rel: RelId,
        /// First output page (the historical page for time splits).
        left: SplitSide,
        /// Second output page (the live page for time splits).
        right: SplitSide,
        /// Cells of versions created by the split.
        intermediates: Vec<Vec<u8>>,
    },
    /// An entry was inserted into internal page `pgno`.
    IndexInsert {
        /// The internal page.
        pgno: PageNo,
        /// The entry cell.
        cell: Vec<u8>,
    },
    /// An entry was removed from internal page `pgno`.
    IndexRemove {
        /// The internal page.
        pgno: PageNo,
        /// The entry cell.
        cell: Vec<u8>,
    },
    /// A new root page came into service with the given entry cells.
    NewRoot {
        /// The relation whose tree grew.
        rel: RelId,
        /// The new root page.
        pgno: PageNo,
        /// Its initial entry cells.
        cells: Vec<Vec<u8>>,
    },
    /// Authoritative full content of internal page `pgno`, replacing
    /// whatever the replay held for it. Emitted at the first post-recovery
    /// pwrite of an internal page the plugin has no pristine baseline for:
    /// crash recovery rebuilt the page from its WAL images, so the entry
    /// deltas it accumulated between its creation record and the crash were
    /// never logged, and per-entry `INDEX_INSERT`/`INDEX_REMOVE` records
    /// cannot retract the stale entries `L` still carries.
    IndexImage {
        /// The internal page.
        pgno: PageNo,
        /// Its complete entry cells.
        cells: Vec<Vec<u8>>,
    },
    /// A historical page was migrated to WORM: its full content now lives in
    /// `worm_file`, and its tuples leave the auditing universe once the
    /// migration is verified.
    Migrate {
        /// The migrated page.
        pgno: PageNo,
        /// Owning relation.
        rel: RelId,
        /// The WORM file holding the page copy.
        worm_file: String,
        /// SHA-256 of the concatenated cells, binding the record to the copy.
        content_hash: Digest,
    },
    /// A tuple version is about to be vacuumed ("The SHREDDED record must be
    /// sent to WORM before the tuple(s) listed on it can be vacuumed").
    Shredded {
        /// Owning relation.
        rel: RelId,
        /// The tuple's key.
        key: Vec<u8>,
        /// The version's start (commit) time.
        start_time: Timestamp,
        /// The page the version resides on.
        pgno: PageNo,
        /// SHA-256 of the version's canonical bytes.
        content_hash: Digest,
        /// When the shred was initiated (checked against the Expiry
        /// relation's retention period).
        shred_time: Timestamp,
    },
    /// Crash recovery began ("a crash can introduce long gaps in commit
    /// times"; the auditor widens its regret-gap checks accordingly).
    StartRecovery {
        /// The recovery start time.
        time: Timestamp,
    },
    /// A local transaction entered the prepared state of a cross-shard
    /// two-phase commit. Appended to *this shard's* `L` stream after the
    /// shard's WAL `Prepare` record is durable; the auditor requires every
    /// prepare to be matched by a [`LogRecord::TwoPcDecision`] in the same
    /// epoch (a prepared transaction blocks quiesce, so a decision it
    /// receives always lands in the same epoch's log).
    TwoPcPrepare {
        /// Coordinator-issued global transaction id (unique per volume).
        gtxn: u64,
        /// The participating local transaction on this shard.
        txn: TxnId,
        /// This shard's index in the deployment's shard map.
        shard: u32,
        /// Every participating shard index (the audit's cross-shard join
        /// checks each listed shard recorded the same decision).
        participants: Vec<u32>,
    },
    /// The coordinator's commit/abort decision for global transaction
    /// `gtxn`, appended to *every* participant's `L` stream. The decision
    /// record on the last participant's log is the commit point of the
    /// global transaction; a decision missing on any shard, or contradicted
    /// by the local outcome, is a typed tamper finding.
    TwoPcDecision {
        /// The decided global transaction.
        gtxn: u64,
        /// `true` = commit everywhere, `false` = abort everywhere.
        commit: bool,
    },
}

const T_NEW_TUPLE: u8 = 1;
const T_STAMP: u8 = 2;
const T_DUMMY: u8 = 3;
const T_ABORT: u8 = 4;
const T_UNDO: u8 = 5;
const T_READ: u8 = 6;
const T_SPLIT: u8 = 7;
const T_IDX_INS: u8 = 8;
const T_IDX_REM: u8 = 9;
const T_NEW_ROOT: u8 = 10;
const T_MIGRATE: u8 = 11;
const T_SHREDDED: u8 = 12;
const T_START_RECOVERY: u8 = 13;
const T_2PC_PREPARE: u8 = 14;
const T_2PC_DECISION: u8 = 15;
const T_IDX_IMAGE: u8 = 16;

fn put_cells(w: &mut ByteWriter, cells: &[Vec<u8>]) {
    w.put_u32(cells.len() as u32);
    for c in cells {
        w.put_len_bytes(c);
    }
}

fn get_cells(r: &mut ByteReader<'_>) -> Result<Vec<Vec<u8>>> {
    let n = r.get_u32()? as usize;
    let mut cells = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        cells.push(r.get_len_bytes()?.to_vec());
    }
    Ok(cells)
}

fn put_digest(w: &mut ByteWriter, d: &Digest) {
    w.put_bytes(d);
}

fn get_digest(r: &mut ByteReader<'_>) -> Result<Digest> {
    let b = r.get_bytes(32)?;
    let mut d = [0u8; 32];
    d.copy_from_slice(b);
    Ok(d)
}

fn put_side(w: &mut ByteWriter, s: &SplitSide) {
    w.put_u64(s.pgno.0);
    w.put_u8(if s.historical { 1 } else { 0 });
    put_cells(w, &s.cells);
}

fn get_side(r: &mut ByteReader<'_>) -> Result<SplitSide> {
    Ok(SplitSide { pgno: PageNo(r.get_u64()?), historical: r.get_u8()? != 0, cells: get_cells(r)? })
}

impl LogRecord {
    /// Encodes the record body.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            LogRecord::NewTuple { pgno, rel, cell } => {
                w.put_u8(T_NEW_TUPLE);
                w.put_u64(pgno.0);
                w.put_u32(rel.0);
                w.put_len_bytes(cell);
            }
            LogRecord::StampTrans { txn, commit_time } => {
                w.put_u8(T_STAMP);
                w.put_u64(txn.0);
                w.put_u64(commit_time.0);
            }
            LogRecord::DummyStamp { time } => {
                w.put_u8(T_DUMMY);
                w.put_u64(time.0);
            }
            LogRecord::Abort { txn } => {
                w.put_u8(T_ABORT);
                w.put_u64(txn.0);
            }
            LogRecord::Undo { pgno, rel, cell } => {
                w.put_u8(T_UNDO);
                w.put_u64(pgno.0);
                w.put_u32(rel.0);
                w.put_len_bytes(cell);
            }
            LogRecord::Read { pgno, hs } => {
                w.put_u8(T_READ);
                w.put_u64(pgno.0);
                put_digest(&mut w, hs);
            }
            LogRecord::PageSplit { old, rel, left, right, intermediates } => {
                w.put_u8(T_SPLIT);
                w.put_u64(old.0);
                w.put_u32(rel.0);
                put_side(&mut w, left);
                put_side(&mut w, right);
                put_cells(&mut w, intermediates);
            }
            LogRecord::IndexInsert { pgno, cell } => {
                w.put_u8(T_IDX_INS);
                w.put_u64(pgno.0);
                w.put_len_bytes(cell);
            }
            LogRecord::IndexRemove { pgno, cell } => {
                w.put_u8(T_IDX_REM);
                w.put_u64(pgno.0);
                w.put_len_bytes(cell);
            }
            LogRecord::NewRoot { rel, pgno, cells } => {
                w.put_u8(T_NEW_ROOT);
                w.put_u32(rel.0);
                w.put_u64(pgno.0);
                put_cells(&mut w, cells);
            }
            LogRecord::IndexImage { pgno, cells } => {
                w.put_u8(T_IDX_IMAGE);
                w.put_u64(pgno.0);
                put_cells(&mut w, cells);
            }
            LogRecord::Migrate { pgno, rel, worm_file, content_hash } => {
                w.put_u8(T_MIGRATE);
                w.put_u64(pgno.0);
                w.put_u32(rel.0);
                w.put_str(worm_file);
                put_digest(&mut w, content_hash);
            }
            LogRecord::Shredded { rel, key, start_time, pgno, content_hash, shred_time } => {
                w.put_u8(T_SHREDDED);
                w.put_u32(rel.0);
                w.put_len_bytes(key);
                w.put_u64(start_time.0);
                w.put_u64(pgno.0);
                put_digest(&mut w, content_hash);
                w.put_u64(shred_time.0);
            }
            LogRecord::StartRecovery { time } => {
                w.put_u8(T_START_RECOVERY);
                w.put_u64(time.0);
            }
            LogRecord::TwoPcPrepare { gtxn, txn, shard, participants } => {
                w.put_u8(T_2PC_PREPARE);
                w.put_u64(*gtxn);
                w.put_u64(txn.0);
                w.put_u32(*shard);
                w.put_u32(participants.len() as u32);
                for p in participants {
                    w.put_u32(*p);
                }
            }
            LogRecord::TwoPcDecision { gtxn, commit } => {
                w.put_u8(T_2PC_DECISION);
                w.put_u64(*gtxn);
                w.put_u8(if *commit { 1 } else { 0 });
            }
        }
        w.into_vec()
    }

    /// Decodes a record body.
    pub fn decode_body(body: &[u8]) -> Result<LogRecord> {
        let mut r = ByteReader::new(body);
        let tag = r.get_u8()?;
        let rec = match tag {
            T_NEW_TUPLE => LogRecord::NewTuple {
                pgno: PageNo(r.get_u64()?),
                rel: RelId(r.get_u32()?),
                cell: r.get_len_bytes()?.to_vec(),
            },
            T_STAMP => LogRecord::StampTrans {
                txn: TxnId(r.get_u64()?),
                commit_time: Timestamp(r.get_u64()?),
            },
            T_DUMMY => LogRecord::DummyStamp { time: Timestamp(r.get_u64()?) },
            T_ABORT => LogRecord::Abort { txn: TxnId(r.get_u64()?) },
            T_UNDO => LogRecord::Undo {
                pgno: PageNo(r.get_u64()?),
                rel: RelId(r.get_u32()?),
                cell: r.get_len_bytes()?.to_vec(),
            },
            T_READ => LogRecord::Read { pgno: PageNo(r.get_u64()?), hs: get_digest(&mut r)? },
            T_SPLIT => LogRecord::PageSplit {
                old: PageNo(r.get_u64()?),
                rel: RelId(r.get_u32()?),
                left: get_side(&mut r)?,
                right: get_side(&mut r)?,
                intermediates: get_cells(&mut r)?,
            },
            T_IDX_INS => LogRecord::IndexInsert {
                pgno: PageNo(r.get_u64()?),
                cell: r.get_len_bytes()?.to_vec(),
            },
            T_IDX_REM => LogRecord::IndexRemove {
                pgno: PageNo(r.get_u64()?),
                cell: r.get_len_bytes()?.to_vec(),
            },
            T_NEW_ROOT => LogRecord::NewRoot {
                rel: RelId(r.get_u32()?),
                pgno: PageNo(r.get_u64()?),
                cells: get_cells(&mut r)?,
            },
            T_IDX_IMAGE => {
                LogRecord::IndexImage { pgno: PageNo(r.get_u64()?), cells: get_cells(&mut r)? }
            }
            T_MIGRATE => LogRecord::Migrate {
                pgno: PageNo(r.get_u64()?),
                rel: RelId(r.get_u32()?),
                worm_file: r.get_str()?,
                content_hash: get_digest(&mut r)?,
            },
            T_SHREDDED => LogRecord::Shredded {
                rel: RelId(r.get_u32()?),
                key: r.get_len_bytes()?.to_vec(),
                start_time: Timestamp(r.get_u64()?),
                pgno: PageNo(r.get_u64()?),
                content_hash: get_digest(&mut r)?,
                shred_time: Timestamp(r.get_u64()?),
            },
            T_START_RECOVERY => LogRecord::StartRecovery { time: Timestamp(r.get_u64()?) },
            T_2PC_PREPARE => {
                let gtxn = r.get_u64()?;
                let txn = TxnId(r.get_u64()?);
                let shard = r.get_u32()?;
                let n = r.get_u32()? as usize;
                let mut participants = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    participants.push(r.get_u32()?);
                }
                LogRecord::TwoPcPrepare { gtxn, txn, shard, participants }
            }
            T_2PC_DECISION => {
                let gtxn = r.get_u64()?;
                let commit = match r.get_u8()? {
                    0 => false,
                    1 => true,
                    v => {
                        return Err(Error::corruption(format!("bad 2PC decision flag {v}")));
                    }
                };
                LogRecord::TwoPcDecision { gtxn, commit }
            }
            t => return Err(Error::corruption(format!("unknown compliance record tag {t}"))),
        };
        if !r.is_exhausted() {
            return Err(Error::corruption("trailing bytes in compliance record"));
        }
        Ok(rec)
    }

    /// Frames the record for appending to `L`.
    pub fn encode_framed(&self) -> Vec<u8> {
        let body = self.encode_body();
        let mut out = Vec::with_capacity(body.len() + 8);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&checksum32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }
}

/// One `len ‖ checksum ‖ body` frame of `L`, not yet verified or decoded.
#[derive(Debug)]
pub struct LogFrame<'a> {
    /// Offset of the frame's first byte in the buffer.
    pub offset: u64,
    /// The checksum the frame header claims for `body`.
    pub checksum: u32,
    /// The encoded record.
    pub body: &'a [u8],
}

impl LogFrame<'_> {
    /// Offset of the first byte after this frame.
    pub fn end(&self) -> u64 {
        self.offset + 8 + self.body.len() as u64
    }

    /// Verifies the checksum and decodes the record.
    pub fn decode(&self) -> Result<LogRecord> {
        if checksum32(self.body) != self.checksum {
            return Err(Error::corruption("compliance-log checksum mismatch"));
        }
        LogRecord::decode_body(self.body)
    }
}

/// Walks the framing of a byte buffer (one `L` epoch file, or its unread
/// tail). The only frame walker: [`LogIter`] and the auditor's chunked
/// decode both sit on it. Yields an error, without advancing, at a frame the
/// buffer ends inside of.
pub struct LogFrames<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> LogFrames<'a> {
    /// Creates a frame walker over `bytes`.
    pub fn new(bytes: &'a [u8]) -> LogFrames<'a> {
        LogFrames { bytes, pos: 0 }
    }
}

impl<'a> Iterator for LogFrames<'a> {
    type Item = Result<LogFrame<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        let rest = &self.bytes[self.pos..];
        if rest.is_empty() {
            return None;
        }
        if rest.len() < 8 {
            return Some(Err(Error::corruption("truncated compliance-log frame")));
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4")) as usize;
        let checksum = u32::from_le_bytes(rest[4..8].try_into().expect("4"));
        if rest.len() - 8 < len {
            return Some(Err(Error::corruption("truncated compliance-log record")));
        }
        let offset = self.pos as u64;
        self.pos += 8 + len;
        Some(Ok(LogFrame { offset, checksum, body: &rest[8..8 + len] }))
    }
}

/// Iterates framed records in a byte buffer (one `L` epoch file), yielding
/// `(offset, record)`.
pub struct LogIter<'a>(LogFrames<'a>);

impl<'a> LogIter<'a> {
    /// Creates an iterator over `bytes`.
    pub fn new(bytes: &'a [u8]) -> LogIter<'a> {
        LogIter(LogFrames::new(bytes))
    }
}

impl Iterator for LogIter<'_> {
    type Item = Result<(u64, LogRecord)>;

    fn next(&mut self) -> Option<Self::Item> {
        let frame = self.0.next()?;
        Some(frame.and_then(|f| Ok((f.offset, f.decode()?))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<LogRecord> {
        vec![
            LogRecord::NewTuple { pgno: PageNo(3), rel: RelId(1), cell: b"cell".to_vec() },
            LogRecord::StampTrans { txn: TxnId(9), commit_time: Timestamp(77) },
            LogRecord::DummyStamp { time: Timestamp(88) },
            LogRecord::Abort { txn: TxnId(10) },
            LogRecord::Undo { pgno: PageNo(3), rel: RelId(1), cell: b"gone".to_vec() },
            LogRecord::Read { pgno: PageNo(4), hs: [7u8; 32] },
            LogRecord::PageSplit {
                old: PageNo(5),
                rel: RelId(2),
                left: SplitSide { pgno: PageNo(6), historical: true, cells: vec![b"a".to_vec()] },
                right: SplitSide {
                    pgno: PageNo(7),
                    historical: false,
                    cells: vec![b"b".to_vec(), b"c".to_vec()],
                },
                intermediates: vec![b"i".to_vec()],
            },
            LogRecord::IndexInsert { pgno: PageNo(8), cell: b"e".to_vec() },
            LogRecord::IndexRemove { pgno: PageNo(8), cell: b"e".to_vec() },
            LogRecord::NewRoot { rel: RelId(2), pgno: PageNo(9), cells: vec![b"x".to_vec()] },
            LogRecord::IndexImage { pgno: PageNo(9), cells: vec![b"y".to_vec(), b"z".to_vec()] },
            LogRecord::Migrate {
                pgno: PageNo(6),
                rel: RelId(2),
                worm_file: "hist/6".into(),
                content_hash: [1u8; 32],
            },
            LogRecord::Shredded {
                rel: RelId(1),
                key: b"ssn".to_vec(),
                start_time: Timestamp(5),
                pgno: PageNo(3),
                content_hash: [2u8; 32],
                shred_time: Timestamp(99),
            },
            LogRecord::StartRecovery { time: Timestamp(123) },
            LogRecord::TwoPcPrepare {
                gtxn: 42,
                txn: TxnId(9),
                shard: 1,
                participants: vec![0, 1, 3],
            },
            LogRecord::TwoPcDecision { gtxn: 42, commit: true },
            LogRecord::TwoPcDecision { gtxn: 43, commit: false },
        ]
    }

    #[test]
    fn all_records_roundtrip() {
        for rec in samples() {
            let body = rec.encode_body();
            assert_eq!(LogRecord::decode_body(&body).unwrap(), rec, "{rec:?}");
        }
    }

    #[test]
    fn framed_stream_iterates_with_offsets() {
        let mut buf = Vec::new();
        let mut offsets = Vec::new();
        for rec in samples() {
            offsets.push(buf.len() as u64);
            buf.extend_from_slice(&rec.encode_framed());
        }
        let got: Vec<(u64, LogRecord)> = LogIter::new(&buf).collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(got.len(), samples().len());
        for ((off, rec), (want_off, want_rec)) in got.iter().zip(offsets.iter().zip(samples())) {
            assert_eq!(off, want_off);
            assert_eq!(rec, &want_rec);
        }
    }

    #[test]
    fn truncated_and_corrupt_frames_error() {
        let rec = LogRecord::Abort { txn: TxnId(1) };
        let mut framed = rec.encode_framed();
        // Truncation.
        let cut = framed.len() - 2;
        let mut it = LogIter::new(&framed[..cut]);
        assert!(it.next().unwrap().is_err());
        // Checksum flip.
        let last = framed.len() - 1;
        framed[last] ^= 0xFF;
        let mut it = LogIter::new(&framed);
        assert!(it.next().unwrap().is_err());
    }

    #[test]
    fn frame_walk_cuts_at_a_torn_tail() {
        let a = LogRecord::Abort { txn: TxnId(1) }.encode_framed();
        let b = LogRecord::DummyStamp { time: Timestamp(7) }.encode_framed();
        let mut bytes = [a.clone(), b.clone()].concat();
        let whole = bytes.len() as u64;
        bytes.extend_from_slice(&a[..6]); // a flush racing the read
        let frames: Vec<LogFrame<'_>> = LogFrames::new(&bytes).map_while(Result::ok).collect();
        assert_eq!(frames.len(), 2);
        assert_eq!((frames[0].offset, frames[0].end()), (0, a.len() as u64));
        assert_eq!(frames[1].end(), whole);
        assert_eq!(frames[1].decode().unwrap(), LogRecord::DummyStamp { time: Timestamp(7) });
        // The walker reports the torn frame (without advancing past it).
        assert!(LogFrames::new(&bytes).nth(2).unwrap().is_err());
        // A record cap is a `take`.
        assert_eq!(LogFrames::new(&bytes).take(1).count(), 1);
        assert!(LogFrames::new(&bytes[..4]).next().unwrap().is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(LogRecord::decode_body(&[200]).is_err());
        assert!(LogRecord::decode_body(&[]).is_err());
    }

    #[test]
    fn empty_stream_yields_nothing() {
        assert!(LogIter::new(&[]).next().is_none());
    }
}
