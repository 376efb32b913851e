//! The wire protocol: typed request/response enums and length-prefixed
//! binary framing.
//!
//! # Framing
//!
//! Every message is one frame: a little-endian `u32` payload length
//! followed by the payload. Payloads are bounded by [`MAX_FRAME_BYTES`] so
//! a corrupt or hostile length prefix cannot make the peer allocate
//! gigabytes. The payload itself is a tag byte plus tag-specific fields,
//! encoded with the workspace codec (`ByteWriter`/`ByteReader` — the same
//! little-endian, length-checked primitives every on-disk structure uses).
//!
//! # Versioning
//!
//! [`Hello`](Request::Hello) opens every connection: it carries the
//! protocol version and the tenant the session binds to. The server
//! rejects version mismatches with a typed error instead of guessing.

use std::io::{Read, Write};

use ccdb_common::{ByteReader, ByteWriter, Error, RelId, Result, Timestamp, TxnId};

/// Protocol version; bumped on any incompatible wire change.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on one frame's payload (16 MiB): defends both peers against
/// hostile/corrupt length prefixes.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Typed error codes carried by [`Response::Err`] — the client maps them
/// back to [`Error`] variants so server-side failures keep their meaning
/// across the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Admission control rejected the request (too many in-flight
    /// transactions); back off and retry.
    AdmissionRejected = 1,
    /// The named item does not exist.
    NotFound = 2,
    /// Transaction handle invalid (already committed/aborted/reaped).
    InvalidTransaction = 3,
    /// Request malformed or violates a usage contract.
    Invalid = 4,
    /// Compliance processing halted the server (WORM unreachable etc.).
    ComplianceHalt = 5,
    /// Session not bound to a tenant yet (missing `Hello`).
    NoSession = 6,
    /// Anything else (I/O, corruption, internal).
    Internal = 7,
}

impl ErrorCode {
    fn from_u8(v: u8) -> ErrorCode {
        match v {
            1 => ErrorCode::AdmissionRejected,
            2 => ErrorCode::NotFound,
            3 => ErrorCode::InvalidTransaction,
            4 => ErrorCode::Invalid,
            5 => ErrorCode::ComplianceHalt,
            6 => ErrorCode::NoSession,
            _ => ErrorCode::Internal,
        }
    }

    /// Maps a server-side [`Error`] to its wire code.
    pub fn from_error(e: &Error) -> ErrorCode {
        match e {
            Error::NotFound(_) => ErrorCode::NotFound,
            Error::InvalidTransactionState(_) => ErrorCode::InvalidTransaction,
            Error::Invalid(_) => ErrorCode::Invalid,
            Error::ComplianceHalt(_) => ErrorCode::ComplianceHalt,
            _ => ErrorCode::Internal,
        }
    }

    /// Reconstructs a client-side [`Error`] carrying this code's meaning.
    pub fn to_error(self, msg: &str) -> Error {
        match self {
            ErrorCode::AdmissionRejected => Error::Invalid(format!("admission rejected: {msg}")),
            ErrorCode::NotFound => Error::NotFound(msg.to_string()),
            ErrorCode::InvalidTransaction => Error::InvalidTransactionState(msg.to_string()),
            ErrorCode::Invalid => Error::Invalid(msg.to_string()),
            ErrorCode::ComplianceHalt => Error::ComplianceHalt(msg.to_string()),
            ErrorCode::NoSession => Error::Invalid(format!("no session: {msg}")),
            ErrorCode::Internal => Error::Invalid(format!("server error: {msg}")),
        }
    }
}

/// Client → server messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Opens the session: protocol version check + tenant binding. The
    /// tenant is created on first use.
    Hello { version: u32, tenant: String },
    /// Liveness probe.
    Ping,
    /// Begins a transaction; the handle is owned by this session.
    Begin,
    /// Writes (inserts or updates) `key` in `rel` under `txn`.
    Write { txn: TxnId, rel: RelId, key: Vec<u8>, value: Vec<u8> },
    /// Deletes `key` (transaction-time delete: the version chain remains).
    Delete { txn: TxnId, rel: RelId, key: Vec<u8> },
    /// Reads `key` as of `txn`'s snapshot.
    Read { txn: TxnId, rel: RelId, key: Vec<u8> },
    /// Commits `txn`; responds with the commit timestamp.
    Commit { txn: TxnId },
    /// Aborts `txn`.
    Abort { txn: TxnId },
    /// Creates (or returns) the relation `name`. `time_split_threshold`
    /// NaN means key-only splits; otherwise time-split at the threshold.
    CreateRelation { name: String, time_split_threshold: f64 },
    /// Resolves a relation name to its id.
    RelId { name: String },
    /// Sets the retention period (µs) of relation `name` under `txn`.
    SetRetention { txn: TxnId, name: String, period_us: u64 },
    /// Runs a compliance audit of this session's tenant. `serial` asks for
    /// a dry run on one thread (verdict only, no epoch advance) instead of
    /// the sealing audit.
    Audit { serial: bool },
    /// Migrates expired tuples of `rel` to WORM.
    Migrate { rel: RelId },
    /// Engine + service counters for this session's tenant.
    Stats,
    /// Reads `key`'s latest version as sealed by the last clean audit,
    /// returning a client-verifiable inclusion proof against the signed
    /// epoch head (checkable offline with the `ccdb-verifier` crate).
    ReadVerified { rel: RelId, key: Vec<u8> },
}

/// Server → client messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// `Hello`/`Ping`/`Abort`/`SetRetention` acknowledgement.
    Ok,
    /// `Begin` result.
    TxnBegun { txn: TxnId },
    /// `Commit` result.
    Committed { commit_time: Timestamp },
    /// `Read` result (`None` = key absent at the snapshot).
    Value { value: Option<Vec<u8>> },
    /// `CreateRelation` / `RelId` result.
    Rel { rel: RelId },
    /// `Audit` result.
    AuditDone { clean: bool, violations: u32, tuples_final: u64, records_scanned: u64 },
    /// `Migrate` result.
    Migrated { tuples: u64 },
    /// `Stats` result (a subset that crosses the wire; the full registry
    /// is on the metrics endpoint).
    Stats {
        commits: u64,
        aborts: u64,
        active_txns: u64,
        group_commit_batches: u64,
        wal_bytes: u64,
        epoch: u64,
    },
    /// `ReadVerified` result: the signed epoch head (always present once an
    /// epoch has sealed) plus, when the key exists in the sealed epoch, the
    /// encoded inclusion proof. `proof` is `None` for a key absent from the
    /// sealed state; `value` is `None` when the key is absent *or* its
    /// latest sealed version is a deletion (the proof proves the tombstone).
    ReadProof {
        /// The sealed epoch the proof speaks for.
        epoch: u64,
        /// The proven value (`None`: absent key or proven deletion).
        value: Option<Vec<u8>>,
        /// Encoded epoch head (the signed bytes).
        head: Vec<u8>,
        /// Lamport signature over the head.
        sig: Vec<u8>,
        /// The signing one-time public key.
        pubkey: Vec<u8>,
        /// Encoded inclusion proof (`None` = key absent from the epoch).
        proof: Option<Vec<u8>>,
    },
    /// Typed failure.
    Err { code: ErrorCode, msg: String },
}

impl Request {
    /// Encodes into a frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Request::Hello { version, tenant } => {
                w.put_u8(0);
                w.put_u32(*version);
                w.put_str(tenant);
            }
            Request::Ping => w.put_u8(1),
            Request::Begin => w.put_u8(2),
            Request::Write { txn, rel, key, value } => {
                w.put_u8(3);
                w.put_u64(txn.0);
                w.put_u32(rel.0);
                w.put_len_bytes(key);
                w.put_len_bytes(value);
            }
            Request::Delete { txn, rel, key } => {
                w.put_u8(4);
                w.put_u64(txn.0);
                w.put_u32(rel.0);
                w.put_len_bytes(key);
            }
            Request::Read { txn, rel, key } => {
                w.put_u8(5);
                w.put_u64(txn.0);
                w.put_u32(rel.0);
                w.put_len_bytes(key);
            }
            Request::Commit { txn } => {
                w.put_u8(6);
                w.put_u64(txn.0);
            }
            Request::Abort { txn } => {
                w.put_u8(7);
                w.put_u64(txn.0);
            }
            Request::CreateRelation { name, time_split_threshold } => {
                w.put_u8(8);
                w.put_str(name);
                w.put_u64(time_split_threshold.to_bits());
            }
            Request::RelId { name } => {
                w.put_u8(9);
                w.put_str(name);
            }
            Request::SetRetention { txn, name, period_us } => {
                w.put_u8(10);
                w.put_u64(txn.0);
                w.put_str(name);
                w.put_u64(*period_us);
            }
            Request::Audit { serial } => {
                w.put_u8(11);
                w.put_u8(u8::from(*serial));
            }
            Request::Migrate { rel } => {
                w.put_u8(12);
                w.put_u32(rel.0);
            }
            Request::Stats => w.put_u8(13),
            Request::ReadVerified { rel, key } => {
                w.put_u8(14);
                w.put_u32(rel.0);
                w.put_len_bytes(key);
            }
        }
        w.into_vec()
    }

    /// Decodes a frame payload.
    pub fn decode(buf: &[u8]) -> Result<Request> {
        let mut r = ByteReader::new(buf);
        let req = match r.get_u8()? {
            0 => Request::Hello { version: r.get_u32()?, tenant: r.get_str()? },
            1 => Request::Ping,
            2 => Request::Begin,
            3 => Request::Write {
                txn: TxnId(r.get_u64()?),
                rel: RelId(r.get_u32()?),
                key: r.get_len_bytes()?.to_vec(),
                value: r.get_len_bytes()?.to_vec(),
            },
            4 => Request::Delete {
                txn: TxnId(r.get_u64()?),
                rel: RelId(r.get_u32()?),
                key: r.get_len_bytes()?.to_vec(),
            },
            5 => Request::Read {
                txn: TxnId(r.get_u64()?),
                rel: RelId(r.get_u32()?),
                key: r.get_len_bytes()?.to_vec(),
            },
            6 => Request::Commit { txn: TxnId(r.get_u64()?) },
            7 => Request::Abort { txn: TxnId(r.get_u64()?) },
            8 => Request::CreateRelation {
                name: r.get_str()?,
                time_split_threshold: f64::from_bits(r.get_u64()?),
            },
            9 => Request::RelId { name: r.get_str()? },
            10 => Request::SetRetention {
                txn: TxnId(r.get_u64()?),
                name: r.get_str()?,
                period_us: r.get_u64()?,
            },
            11 => Request::Audit { serial: r.get_u8()? != 0 },
            12 => Request::Migrate { rel: RelId(r.get_u32()?) },
            13 => Request::Stats,
            14 => {
                Request::ReadVerified { rel: RelId(r.get_u32()?), key: r.get_len_bytes()?.to_vec() }
            }
            t => return Err(Error::corruption(format!("rpc: unknown request tag {t}"))),
        };
        if !r.is_exhausted() {
            return Err(Error::corruption(format!(
                "rpc: {} trailing bytes after request",
                r.remaining()
            )));
        }
        Ok(req)
    }
}

impl Response {
    /// Encodes into a frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Response::Ok => w.put_u8(0),
            Response::TxnBegun { txn } => {
                w.put_u8(1);
                w.put_u64(txn.0);
            }
            Response::Committed { commit_time } => {
                w.put_u8(2);
                w.put_u64(commit_time.0);
            }
            Response::Value { value } => {
                w.put_u8(3);
                match value {
                    Some(v) => {
                        w.put_u8(1);
                        w.put_len_bytes(v);
                    }
                    None => w.put_u8(0),
                }
            }
            Response::Rel { rel } => {
                w.put_u8(4);
                w.put_u32(rel.0);
            }
            Response::AuditDone { clean, violations, tuples_final, records_scanned } => {
                w.put_u8(5);
                w.put_u8(u8::from(*clean));
                w.put_u32(*violations);
                w.put_u64(*tuples_final);
                w.put_u64(*records_scanned);
            }
            Response::Migrated { tuples } => {
                w.put_u8(6);
                w.put_u64(*tuples);
            }
            Response::Stats {
                commits,
                aborts,
                active_txns,
                group_commit_batches,
                wal_bytes,
                epoch,
            } => {
                w.put_u8(7);
                w.put_u64(*commits);
                w.put_u64(*aborts);
                w.put_u64(*active_txns);
                w.put_u64(*group_commit_batches);
                w.put_u64(*wal_bytes);
                w.put_u64(*epoch);
            }
            Response::ReadProof { epoch, value, head, sig, pubkey, proof } => {
                w.put_u8(8);
                w.put_u64(*epoch);
                match value {
                    Some(v) => {
                        w.put_u8(1);
                        w.put_len_bytes(v);
                    }
                    None => w.put_u8(0),
                }
                w.put_len_bytes(head);
                w.put_len_bytes(sig);
                w.put_len_bytes(pubkey);
                match proof {
                    Some(p) => {
                        w.put_u8(1);
                        w.put_len_bytes(p);
                    }
                    None => w.put_u8(0),
                }
            }
            Response::Err { code, msg } => {
                w.put_u8(255);
                w.put_u8(*code as u8);
                w.put_str(msg);
            }
        }
        w.into_vec()
    }

    /// Decodes a frame payload.
    pub fn decode(buf: &[u8]) -> Result<Response> {
        let mut r = ByteReader::new(buf);
        let resp = match r.get_u8()? {
            0 => Response::Ok,
            1 => Response::TxnBegun { txn: TxnId(r.get_u64()?) },
            2 => Response::Committed { commit_time: Timestamp(r.get_u64()?) },
            3 => Response::Value {
                value: if r.get_u8()? != 0 { Some(r.get_len_bytes()?.to_vec()) } else { None },
            },
            4 => Response::Rel { rel: RelId(r.get_u32()?) },
            5 => Response::AuditDone {
                clean: r.get_u8()? != 0,
                violations: r.get_u32()?,
                tuples_final: r.get_u64()?,
                records_scanned: r.get_u64()?,
            },
            6 => Response::Migrated { tuples: r.get_u64()? },
            7 => Response::Stats {
                commits: r.get_u64()?,
                aborts: r.get_u64()?,
                active_txns: r.get_u64()?,
                group_commit_batches: r.get_u64()?,
                wal_bytes: r.get_u64()?,
                epoch: r.get_u64()?,
            },
            8 => Response::ReadProof {
                epoch: r.get_u64()?,
                value: if r.get_u8()? != 0 { Some(r.get_len_bytes()?.to_vec()) } else { None },
                head: r.get_len_bytes()?.to_vec(),
                sig: r.get_len_bytes()?.to_vec(),
                pubkey: r.get_len_bytes()?.to_vec(),
                proof: if r.get_u8()? != 0 { Some(r.get_len_bytes()?.to_vec()) } else { None },
            },
            255 => Response::Err { code: ErrorCode::from_u8(r.get_u8()?), msg: r.get_str()? },
            t => return Err(Error::corruption(format!("rpc: unknown response tag {t}"))),
        };
        if !r.is_exhausted() {
            return Err(Error::corruption(format!(
                "rpc: {} trailing bytes after response",
                r.remaining()
            )));
        }
        Ok(resp)
    }
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(Error::Invalid(format!(
            "rpc: frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte bound",
            payload.len()
        )));
    }
    let len = (payload.len() as u32).to_le_bytes();
    w.write_all(&len).map_err(|e| Error::io("rpc: write frame length", e))?;
    w.write_all(payload).map_err(|e| Error::io("rpc: write frame payload", e))?;
    w.flush().map_err(|e| Error::io("rpc: flush frame", e))?;
    Ok(())
}

/// Reads one length-prefixed frame. Returns `None` on clean EOF at a frame
/// boundary (the peer closed the connection).
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(Error::corruption("rpc: EOF inside frame length"));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(Error::io("rpc: read frame length", e)),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(Error::corruption(format!(
            "rpc: frame length {len} exceeds the {MAX_FRAME_BYTES}-byte bound"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| Error::io("rpc: read frame payload", e))?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &req.encode()).unwrap();
        let payload = read_frame(&mut &buf[..]).unwrap().unwrap();
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &resp.encode()).unwrap();
        let payload = read_frame(&mut &buf[..]).unwrap().unwrap();
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Hello { version: PROTOCOL_VERSION, tenant: "alpha".into() });
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Begin);
        roundtrip_req(Request::Write {
            txn: TxnId(7),
            rel: RelId(3),
            key: b"k".to_vec(),
            value: vec![0u8; 1000],
        });
        roundtrip_req(Request::Delete { txn: TxnId(7), rel: RelId(3), key: b"k".to_vec() });
        roundtrip_req(Request::Read { txn: TxnId(9), rel: RelId(1), key: vec![] });
        roundtrip_req(Request::Commit { txn: TxnId(u64::MAX) });
        roundtrip_req(Request::Abort { txn: TxnId(0) });
        roundtrip_req(Request::CreateRelation { name: "r".into(), time_split_threshold: 0.5 });
        roundtrip_req(Request::RelId { name: "r".into() });
        roundtrip_req(Request::SetRetention { txn: TxnId(1), name: "r".into(), period_us: 1 });
        roundtrip_req(Request::Audit { serial: true });
        roundtrip_req(Request::Migrate { rel: RelId(2) });
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::ReadVerified { rel: RelId(5), key: b"acct-0042".to_vec() });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::TxnBegun { txn: TxnId(1) });
        roundtrip_resp(Response::Committed { commit_time: Timestamp(123) });
        roundtrip_resp(Response::Value { value: Some(b"v".to_vec()) });
        roundtrip_resp(Response::Value { value: None });
        roundtrip_resp(Response::Rel { rel: RelId(5) });
        roundtrip_resp(Response::AuditDone {
            clean: true,
            violations: 0,
            tuples_final: 42,
            records_scanned: 100,
        });
        roundtrip_resp(Response::Migrated { tuples: 9 });
        roundtrip_resp(Response::Stats {
            commits: 1,
            aborts: 2,
            active_txns: 3,
            group_commit_batches: 4,
            wal_bytes: 5,
            epoch: 6,
        });
        roundtrip_resp(Response::ReadProof {
            epoch: 3,
            value: Some(b"balance=12".to_vec()),
            head: vec![0xAB; 96],
            sig: vec![0xCD; 64],
            pubkey: vec![0xEF; 32],
            proof: Some(vec![0x42; 512]),
        });
        // Proven deletion: an inclusion proof whose tuple carries no value.
        roundtrip_resp(Response::ReadProof {
            epoch: 0,
            value: None,
            head: vec![1, 2, 3],
            sig: vec![4],
            pubkey: vec![5],
            proof: Some(vec![6, 7]),
        });
        // Absent key: the signed head alone, no proof body.
        roundtrip_resp(Response::ReadProof {
            epoch: 9,
            value: None,
            head: vec![9; 80],
            sig: vec![8; 64],
            pubkey: vec![7; 32],
            proof: None,
        });
        roundtrip_resp(Response::Err {
            code: ErrorCode::AdmissionRejected,
            msg: "too busy".into(),
        });
    }

    #[test]
    fn nan_split_threshold_survives() {
        let req = Request::CreateRelation { name: "r".into(), time_split_threshold: f64::NAN };
        let payload = req.encode();
        match Request::decode(&payload).unwrap() {
            Request::CreateRelation { time_split_threshold, .. } => {
                assert!(time_split_threshold.is_nan())
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn clean_eof_is_none_mid_frame_eof_is_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Hello { version: 1, tenant: "t".into() }.encode()).unwrap();
        assert!(buf.len() > 6);
        assert!(read_frame(&mut &buf[..2]).is_err(), "EOF inside length prefix");
        assert!(read_frame(&mut &buf[..6]).is_err(), "EOF inside payload");
        assert!(read_frame(&mut &[][..]).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        let buf = u32::MAX.to_le_bytes();
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn error_codes_map_back_to_error_variants() {
        assert!(matches!(
            ErrorCode::from_error(&Error::NotFound("x".into())).to_error("x"),
            Error::NotFound(_)
        ));
        assert!(matches!(
            ErrorCode::InvalidTransaction.to_error("y"),
            Error::InvalidTransactionState(_)
        ));
        assert!(matches!(ErrorCode::ComplianceHalt.to_error("z"), Error::ComplianceHalt(_)));
    }
}
