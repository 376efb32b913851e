//! Signed per-audit snapshots of the database state on WORM.
//!
//! "The auditor places a complete snapshot of the current database state on
//! WORM after every audit, together with the auditor's digital signature
//! testifying that the snapshot is correct." The snapshot records every
//! non-free page's full cell content (so the next audit can rebuild page
//! states for the hash-page-on-read replay and run fine-grained forensics),
//! plus the commutative incremental hash of the canonical tuple set — the
//! paper's optimization of "storing H(Df ∪ L) on WORM at the end of each
//! audit … and using the stored value instead of computing H(Ds)".
//!
//! The signature is a Lamport one-time signature; each audit derives a fresh
//! keypair from the auditor's master seed, and the per-audit public key is
//! itself stored on WORM (term-immutable, hence a valid anchor under the
//! threat model).

use std::sync::Arc;

use ccdb_common::{ByteReader, ByteWriter, Error, PageNo, RelId, Result, Timestamp};
use ccdb_crypto::{sha256, AddHash, LamportKeyPair, Sha256};
use ccdb_storage::PageType;
use ccdb_worm::WormServer;

use crate::signed;

/// One page's state in a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapPage {
    /// Page number.
    pub pgno: PageNo,
    /// Owning relation.
    pub rel: RelId,
    /// Page kind.
    pub kind: PageType,
    /// Historical flag.
    pub historical: bool,
    /// Aux field (TSB split time).
    pub aux: u64,
    /// Full cell content in slot order.
    pub cells: Vec<Vec<u8>>,
}

/// A loaded snapshot.
#[derive(Debug)]
pub struct Snapshot {
    /// The audit epoch this snapshot closed.
    pub epoch: u64,
    /// When it was taken (compliance clock).
    pub time: Timestamp,
    /// The stored completeness hash of the canonical tuple set.
    pub tuple_hash: AddHash,
    /// Per-page states.
    pub pages: Vec<SnapPage>,
}

/// WORM name of an epoch's snapshot (generation 0; a retry after a crash
/// mid-write goes to the next generation, see [`crate::signed`]).
pub fn snapshot_name(epoch: u64) -> String {
    format!("snapshots/epoch-{epoch}")
}

/// Whether `epoch`'s audit completed: some generation of its snapshot is
/// fully written and sealed. `CompliantDb::open` derives the current epoch
/// from this, so a crash while the snapshot is being written (e.g. an
/// injected torn append on the WORM device) re-runs the interrupted audit
/// instead of trusting a half-written snapshot.
pub fn snapshot_complete(worm: &WormServer, epoch: u64) -> bool {
    signed::complete_generation(worm, &snapshot_name(epoch)).is_some()
}

const MAGIC: u32 = 0xCCDB_57A9;

/// Encoded length of the body header (magic, epoch, time, tuple hash, page
/// count) and of one page's fixed fields (pgno, rel, kind, historical, aux,
/// cell count); each cell adds a `u32` length prefix.
const HEADER_LEN: u64 = 4 + 8 + 8 + 64 + 4;
const PAGE_FIXED_LEN: u64 = 8 + 4 + 1 + 1 + 8 + 4;

impl SnapPage {
    fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u64(self.pgno.0);
        w.put_u32(self.rel.0);
        w.put_u8(self.kind as u8);
        w.put_u8(if self.historical { 1 } else { 0 });
        w.put_u64(self.aux);
        w.put_u32(self.cells.len() as u32);
        for c in &self.cells {
            w.put_len_bytes(c);
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<SnapPage> {
        let pgno = PageNo(r.get_u64()?);
        let rel = RelId(r.get_u32()?);
        let kind = match r.get_u8()? {
            0 => PageType::Free,
            1 => PageType::Leaf,
            2 => PageType::Inner,
            3 => PageType::Meta,
            t => return Err(Error::corruption(format!("bad page kind {t} in snapshot"))),
        };
        let historical = r.get_u8()? != 0;
        let aux = r.get_u64()?;
        let cn = r.get_u32()? as usize;
        let mut cells = Vec::with_capacity(cn.min(4096));
        for _ in 0..cn {
            cells.push(r.get_len_bytes()?.to_vec());
        }
        Ok(SnapPage { pgno, rel, kind, historical, aux, cells })
    }

    /// Decodes one page out of a snapshot body: exactly the bytes between
    /// two consecutive [`page_offsets`].
    pub fn decode(bytes: &[u8]) -> Result<SnapPage> {
        let mut r = ByteReader::new(bytes);
        let page = SnapPage::decode_from(&mut r)?;
        if !r.is_exhausted() {
            return Err(Error::corruption("trailing bytes after snapshot page"));
        }
        Ok(page)
    }
}

/// Where each page sits inside the body [`SnapshotManager::encode`]
/// produces for `pages`: page `i` is bytes `offsets[i]..offsets[i + 1]`
/// (one more offset than pages), so one page can be fetched from WORM with a
/// ranged read instead of loading the snapshot.
pub fn page_offsets(pages: &[SnapPage]) -> Vec<u64> {
    let mut offsets = Vec::with_capacity(pages.len() + 1);
    let mut offset = HEADER_LEN;
    offsets.push(offset);
    for p in pages {
        offset += PAGE_FIXED_LEN + p.cells.iter().map(|c| 4 + c.len() as u64).sum::<u64>();
        offsets.push(offset);
    }
    offsets
}

/// Writes and signs snapshots; verifies and loads previous ones.
pub struct SnapshotManager {
    worm: Arc<WormServer>,
    /// The auditor's master seed (per-audit keys derive from it).
    master_seed: [u8; 32],
}

impl SnapshotManager {
    /// Creates a manager bound to the auditor's master seed.
    pub fn new(worm: Arc<WormServer>, master_seed: [u8; 32]) -> SnapshotManager {
        SnapshotManager { worm, master_seed }
    }

    fn keypair(&self, epoch: u64) -> LamportKeyPair {
        let mut h = Sha256::new();
        h.update(&self.master_seed).update(b"ccdb:audit-key").update(&epoch.to_le_bytes());
        LamportKeyPair::from_seed(&h.finalize())
    }

    /// Encodes a snapshot body.
    pub fn encode(
        epoch: u64,
        time: Timestamp,
        tuple_hash: &AddHash,
        pages: &[SnapPage],
    ) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(MAGIC);
        w.put_u64(epoch);
        w.put_u64(time.0);
        w.put_bytes(&tuple_hash.to_bytes());
        w.put_u32(pages.len() as u32);
        for p in pages {
            p.encode_into(&mut w);
        }
        w.into_vec()
    }

    /// Decodes a snapshot body.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot> {
        let mut r = ByteReader::new(bytes);
        if r.get_u32()? != MAGIC {
            return Err(Error::corruption("bad snapshot magic"));
        }
        let epoch = r.get_u64()?;
        let time = Timestamp(r.get_u64()?);
        let mut hash_bytes = [0u8; 64];
        hash_bytes.copy_from_slice(r.get_bytes(64)?);
        let tuple_hash = AddHash::from_bytes(&hash_bytes);
        let n = r.get_u32()? as usize;
        let mut pages = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            pages.push(SnapPage::decode_from(&mut r)?);
        }
        if !r.is_exhausted() {
            return Err(Error::corruption("trailing bytes in snapshot"));
        }
        Ok(Snapshot { epoch, time, tuple_hash, pages })
    }

    /// Writes, signs, and seals the snapshot for `epoch`, returning the WORM
    /// name of its body. `retention_until` bounds how long the WORM copies
    /// must be kept (`Timestamp::MAX` for indefinite; the architecture
    /// itself only needs a snapshot until the audit after next).
    pub fn write_with_retention(
        &self,
        epoch: u64,
        time: Timestamp,
        tuple_hash: &AddHash,
        pages: &[SnapPage],
        retention_until: Timestamp,
    ) -> Result<String> {
        let written = signed::write(
            &self.worm,
            &snapshot_name(epoch),
            Self::encode(epoch, time, tuple_hash, pages),
            sha256,
            &self.keypair(epoch),
            retention_until,
        )?;
        Ok(written.name)
    }

    /// Writes a snapshot with indefinite retention.
    pub fn write(
        &self,
        epoch: u64,
        time: Timestamp,
        tuple_hash: &AddHash,
        pages: &[SnapPage],
    ) -> Result<String> {
        self.write_with_retention(epoch, time, tuple_hash, pages, Timestamp::MAX)
    }

    /// Loads and signature-verifies the snapshot for `epoch` (its highest
    /// complete generation). Returns `Ok(None)` when no snapshot was ever
    /// attempted (the first audit of a database); a partial-only snapshot
    /// (crash mid-write, epoch never completed) is an error.
    pub fn load(&self, epoch: u64) -> Result<Option<Snapshot>> {
        Ok(self.load_named(epoch)?.map(|(_, snap)| snap))
    }

    /// [`SnapshotManager::load`], plus the WORM name of the body that was
    /// loaded (what [`page_offsets`] are relative to).
    pub fn load_named(&self, epoch: u64) -> Result<Option<(String, Snapshot)>> {
        let base = snapshot_name(epoch);
        if !self.worm.exists(&base) {
            return Ok(None);
        }
        // Defense in depth: the key must also re-derive from the master seed
        // (the verifier is the auditor lineage itself).
        let loaded = signed::load(&self.worm, &base, "snapshot", &self.keypair(epoch), sha256)?
            .ok_or_else(|| {
                Error::corruption(format!(
                    "no complete generation of snapshot for epoch {epoch} (crashed mid-write?)"
                ))
            })?;
        Ok(Some((loaded.name, Self::decode(&loaded.body)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdb_common::VirtualClock;
    use std::path::PathBuf;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let p = std::env::temp_dir().join(format!(
                "ccdb-snap-{}-{}-{}",
                std::process::id(),
                tag,
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .unwrap()
                    .as_nanos()
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

    fn pages() -> Vec<SnapPage> {
        vec![
            SnapPage {
                pgno: PageNo(1),
                rel: RelId(2),
                kind: PageType::Leaf,
                historical: false,
                aux: 0,
                cells: vec![b"t1".to_vec(), b"t2".to_vec()],
            },
            SnapPage {
                pgno: PageNo(2),
                rel: RelId(2),
                kind: PageType::Inner,
                historical: false,
                aux: 0,
                cells: vec![b"e1".to_vec()],
            },
            SnapPage {
                pgno: PageNo(3),
                rel: RelId(2),
                kind: PageType::Leaf,
                historical: true,
                aux: 99,
                cells: vec![],
            },
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut h = AddHash::new();
        h.add(b"x");
        let body = SnapshotManager::encode(7, Timestamp(123), &h, &pages());
        let snap = SnapshotManager::decode(&body).unwrap();
        assert_eq!(snap.epoch, 7);
        assert_eq!(snap.time, Timestamp(123));
        assert_eq!(snap.tuple_hash, h);
        assert_eq!(snap.pages, pages());
    }

    #[test]
    fn page_offsets_name_each_page_in_the_body() {
        let body = SnapshotManager::encode(7, Timestamp(123), &AddHash::new(), &pages());
        let offsets = page_offsets(&pages());
        assert_eq!(offsets.len(), pages().len() + 1);
        for (range, page) in offsets.windows(2).zip(pages()) {
            let bytes = &body[range[0] as usize..range[1] as usize];
            assert_eq!(SnapPage::decode(bytes).unwrap(), page);
        }
        assert_eq!(offsets[offsets.len() - 1], body.len() as u64);
        assert!(SnapPage::decode(&body[offsets[0] as usize..]).is_err(), "trailing bytes");
    }

    #[test]
    fn write_load_verify_roundtrip() {
        let d = TempDir::new("rt");
        let clock = Arc::new(VirtualClock::new());
        let worm = Arc::new(WormServer::open(&d.0, clock).unwrap());
        let mgr = SnapshotManager::new(worm.clone(), [9u8; 32]);
        let h = AddHash::new();
        mgr.write(0, Timestamp(5), &h, &pages()).unwrap();
        let snap = mgr.load(0).unwrap().expect("snapshot exists");
        assert_eq!(snap.pages.len(), 3);
        assert!(mgr.load(1).unwrap().is_none(), "missing epoch loads as None");
    }

    #[test]
    fn wrong_seed_rejected() {
        let d = TempDir::new("seed");
        let clock = Arc::new(VirtualClock::new());
        let worm = Arc::new(WormServer::open(&d.0, clock).unwrap());
        let mgr = SnapshotManager::new(worm.clone(), [1u8; 32]);
        mgr.write(0, Timestamp(5), &AddHash::new(), &pages()).unwrap();
        let other = SnapshotManager::new(worm, [2u8; 32]);
        assert!(other.load(0).is_err(), "a different auditor lineage must not verify");
    }

    #[test]
    fn corrupt_body_rejected() {
        let body = SnapshotManager::encode(0, Timestamp(0), &AddHash::new(), &pages());
        let mut bad = body.clone();
        bad[0] ^= 0xFF;
        assert!(SnapshotManager::decode(&bad).is_err());
        assert!(SnapshotManager::decode(&body[..body.len() - 1]).is_err());
    }
}
