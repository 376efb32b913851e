//! Tuple versions: the unit of history in a transaction-time database.
//!
//! Every modification creates a *new physical version*: an `UPDATE` inserts a
//! new version with a fresh start time; a `DELETE` inserts a special
//! **end-of-life** version. Old versions are never overwritten (Section II).
//!
//! Lazy timestamping (Section IV): at write time a version may carry the
//! transaction id instead of the commit time ([`WriteTime::Pending`]); a
//! background stamper later rewrites it in place to [`WriteTime::Committed`].
//! The compliance log's `STAMP_TRANS` records let the auditor resolve pending
//! ids when it replays the log.
//!
//! Two byte encodings matter:
//!
//! * [`TupleVersion::encode_cell`] — the exact on-page representation, also
//!   carried in `NEW_TUPLE` records and hashed (after time normalization) by
//!   the `Hs` read hash;
//! * [`TupleVersion::canonical_bytes`] — the page-independent identity used
//!   by the ADD-HASH completeness check: `(rel, key, commit-time, eol,
//!   value)`. The tuple-order number and PGNO are layout details and are
//!   excluded, so a TSB migration does not change a tuple's identity.

use ccdb_common::{ByteReader, ByteWriter, Error, RelId, Result, Timestamp, TxnId};

/// The time attribute of a stored version.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WriteTime {
    /// Not yet stamped: carries the writing transaction's id.
    Pending(TxnId),
    /// Stamped with the commit time of the creating transaction.
    Committed(Timestamp),
}

impl WriteTime {
    /// The commit time, if stamped.
    pub fn committed(&self) -> Option<Timestamp> {
        match self {
            WriteTime::Committed(t) => Some(*t),
            WriteTime::Pending(_) => None,
        }
    }

    /// The pending transaction id, if unstamped.
    pub fn pending(&self) -> Option<TxnId> {
        match self {
            WriteTime::Pending(t) => Some(*t),
            WriteTime::Committed(_) => None,
        }
    }
}

/// A primary key within a relation (opaque bytes, ordered bytewise).
pub type TupleKey = Vec<u8>;

/// One physical tuple version.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TupleVersion {
    /// Owning relation.
    pub rel: RelId,
    /// Primary key bytes.
    pub key: TupleKey,
    /// Start time (possibly still a transaction id).
    pub time: WriteTime,
    /// Tuple-order number within its page (hash-page-on-read refinement).
    pub seq: u16,
    /// End-of-life marker: this version records a deletion.
    pub end_of_life: bool,
    /// The row payload (empty for end-of-life versions).
    pub value: Vec<u8>,
}

/// A [`TupleVersion`] decoded in place: key and value borrow from the cell.
/// For scans that look at many cells and keep few (no allocation per cell).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TupleRef<'a> {
    /// Owning relation.
    pub rel: RelId,
    /// Primary key bytes.
    pub key: &'a [u8],
    /// Start time (possibly still a transaction id).
    pub time: WriteTime,
    /// Tuple-order number within its page.
    pub seq: u16,
    /// End-of-life marker.
    pub end_of_life: bool,
    /// The row payload.
    pub value: &'a [u8],
}

impl<'a> TupleRef<'a> {
    /// Decodes an on-page cell without copying; accepts and rejects exactly
    /// what [`TupleVersion::decode_cell`] does (which is built on it).
    pub fn decode_cell(cell: &'a [u8]) -> Result<TupleRef<'a>> {
        let mut r = ByteReader::new(cell);
        let eol = match r.get_u8()? {
            0 => false,
            1 => true,
            v => return Err(Error::corruption(format!("bad end-of-life flag {v}"))),
        };
        let time = match r.get_u8()? {
            TIME_PENDING => WriteTime::Pending(TxnId(r.get_u64()?)),
            TIME_COMMITTED => WriteTime::Committed(Timestamp(r.get_u64()?)),
            v => return Err(Error::corruption(format!("bad time tag {v}"))),
        };
        let seq = r.get_u16()?;
        let rel = RelId(r.get_u32()?);
        let key = r.get_len_bytes()?;
        let value = r.get_len_bytes()?;
        if !r.is_exhausted() {
            return Err(Error::corruption("trailing bytes after tuple version"));
        }
        Ok(TupleRef { rel, key, time, seq, end_of_life: eol, value })
    }

    /// The owned form.
    pub fn to_version(&self) -> TupleVersion {
        TupleVersion {
            rel: self.rel,
            key: self.key.to_vec(),
            time: self.time,
            seq: self.seq,
            end_of_life: self.end_of_life,
            value: self.value.to_vec(),
        }
    }
}

const TIME_PENDING: u8 = 0;
const TIME_COMMITTED: u8 = 1;

impl TupleVersion {
    /// Encodes the on-page cell representation.
    pub fn encode_cell(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(24 + self.key.len() + self.value.len());
        w.put_u8(if self.end_of_life { 1 } else { 0 });
        match self.time {
            WriteTime::Pending(txn) => {
                w.put_u8(TIME_PENDING);
                w.put_u64(txn.0);
            }
            WriteTime::Committed(t) => {
                w.put_u8(TIME_COMMITTED);
                w.put_u64(t.0);
            }
        }
        w.put_u16(self.seq);
        w.put_u32(self.rel.0);
        w.put_len_bytes(&self.key);
        w.put_len_bytes(&self.value);
        w.into_vec()
    }

    /// Decodes an on-page cell. Defensive: malformed cells produce
    /// [`Error::Corruption`], never a panic (the auditor feeds this bytes an
    /// adversary controlled).
    pub fn decode_cell(cell: &[u8]) -> Result<TupleVersion> {
        Ok(TupleRef::decode_cell(cell)?.to_version())
    }

    /// The page-independent identity bytes hashed by the completeness check.
    /// Requires a stamped time: the auditor resolves pending ids via
    /// `STAMP_TRANS` before hashing; calling this on a pending version is a
    /// caller bug.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let t = match self.time {
            WriteTime::Committed(t) => t,
            WriteTime::Pending(txn) => {
                panic!(
                    "canonical_bytes on unstamped version of {txn}; resolve via STAMP_TRANS first"
                )
            }
        };
        self.canonical_bytes_with_time(t)
    }

    /// Identity bytes with an explicitly resolved commit time.
    pub fn canonical_bytes_with_time(&self, commit: Timestamp) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(24 + self.key.len() + self.value.len());
        w.put_u32(self.rel.0);
        w.put_len_bytes(&self.key);
        w.put_u64(commit.0);
        w.put_u8(if self.end_of_life { 1 } else { 0 });
        w.put_len_bytes(&self.value);
        w.into_vec()
    }

    /// A stable identity for duplicate detection during audit (recovery can
    /// duplicate `NEW_TUPLE` records): identity excludes the stored time
    /// *representation* (pending vs stamped) by keying on the writing
    /// transaction where known.
    pub fn dedup_key(&self) -> (RelId, TupleKey, u16, bool) {
        (self.rel, self.key.clone(), self.seq, self.end_of_life)
    }

    /// Returns a copy stamped with `commit`.
    pub fn stamped(&self, commit: Timestamp) -> TupleVersion {
        TupleVersion { time: WriteTime::Committed(commit), ..self.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v() -> TupleVersion {
        TupleVersion {
            rel: RelId(4),
            key: b"cust-001".to_vec(),
            time: WriteTime::Committed(Timestamp(1_000)),
            seq: 3,
            end_of_life: false,
            value: b"row-payload".to_vec(),
        }
    }

    #[test]
    fn cell_roundtrip() {
        let t = v();
        let cell = t.encode_cell();
        assert_eq!(TupleVersion::decode_cell(&cell).unwrap(), t);
    }

    #[test]
    fn pending_roundtrip() {
        let t = TupleVersion { time: WriteTime::Pending(TxnId(42)), ..v() };
        let cell = t.encode_cell();
        let back = TupleVersion::decode_cell(&cell).unwrap();
        assert_eq!(back.time, WriteTime::Pending(TxnId(42)));
    }

    #[test]
    fn eol_roundtrip() {
        let t = TupleVersion { end_of_life: true, value: vec![], ..v() };
        let cell = t.encode_cell();
        let back = TupleVersion::decode_cell(&cell).unwrap();
        assert!(back.end_of_life);
        assert!(back.value.is_empty());
    }

    #[test]
    fn canonical_excludes_seq() {
        let a = v();
        let b = TupleVersion { seq: 99, ..v() };
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        assert_ne!(a.encode_cell(), b.encode_cell());
    }

    #[test]
    fn canonical_distinguishes_time_value_eol() {
        let base = v();
        let t2 = TupleVersion { time: WriteTime::Committed(Timestamp(2_000)), ..v() };
        let v2 = TupleVersion { value: b"other".to_vec(), ..v() };
        let e2 = TupleVersion { end_of_life: true, ..v() };
        assert_ne!(base.canonical_bytes(), t2.canonical_bytes());
        assert_ne!(base.canonical_bytes(), v2.canonical_bytes());
        assert_ne!(base.canonical_bytes(), e2.canonical_bytes());
    }

    #[test]
    #[should_panic(expected = "unstamped")]
    fn canonical_on_pending_panics() {
        let t = TupleVersion { time: WriteTime::Pending(TxnId(1)), ..v() };
        let _ = t.canonical_bytes();
    }

    #[test]
    fn canonical_with_time_matches_stamped() {
        let t = TupleVersion { time: WriteTime::Pending(TxnId(1)), ..v() };
        let s = t.stamped(Timestamp(500));
        assert_eq!(t.canonical_bytes_with_time(Timestamp(500)), s.canonical_bytes());
    }

    #[test]
    fn malformed_cells_rejected() {
        assert!(TupleVersion::decode_cell(&[]).is_err());
        assert!(TupleVersion::decode_cell(&[9]).is_err());
        let mut good = v().encode_cell();
        good.push(0); // trailing byte
        assert!(TupleVersion::decode_cell(&good).is_err());
    }

    #[test]
    fn write_time_accessors() {
        assert_eq!(WriteTime::Committed(Timestamp(5)).committed(), Some(Timestamp(5)));
        assert_eq!(WriteTime::Committed(Timestamp(5)).pending(), None);
        assert_eq!(WriteTime::Pending(TxnId(5)).pending(), Some(TxnId(5)));
        assert_eq!(WriteTime::Pending(TxnId(5)).committed(), None);
    }
}
