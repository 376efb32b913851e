//! Epoch heads on WORM and the sealed-epoch proof index that serves
//! proof-carrying reads.
//!
//! An **epoch head** is the client-facing summary of one sealed audit
//! epoch: `(epoch, time, tuple ADD-HASH, Merkle root over the snapshot's
//! page content hashes, page count)`, Lamport-signed with a one-time key
//! derived from the auditor's master seed under a dedicated domain string
//! (distinct from the snapshot key, so each one-time key still signs
//! exactly one message). The head's byte format and Merkle construction
//! are owned by `ccdb-verifier` — the engine *imports the client's
//! definition*, so the two sides can never drift.
//!
//! Heads are deterministic functions of the signed snapshot: the head for
//! epoch `e` can always be (re)derived from `snapshots/epoch-{e}` alone.
//! [`EpochHeadManager::ensure`] exploits that to make head creation
//! idempotent and crash-safe — a crash between snapshot seal and head
//! seal just means the head is materialized lazily on the next audit or
//! the first proof-carrying read.
//!
//! # Cost model
//!
//! A [`SealedEpoch`] is built **once per sealed epoch**, in O(pages): by the
//! sealing audit from the snapshot pages it already holds, or — after a
//! reopen — from the signature-verified snapshot on the first proof read.
//! It keeps the signed head, every Merkle level over the page leaf hashes,
//! each page's byte range inside the snapshot body on WORM, and a directory
//! from `(rel, key)` to the page and cell of the latest committed version.
//! A read is then a directory lookup, **one ranged WORM read** of that
//! page, and ⌈log₂ pages⌉ sibling copies: O(log pages), independent of the
//! database size, with no signature work and no page hashing.
//!
//! # Trust
//!
//! The index is derived from the signature-verified snapshot and is never
//! itself trusted by anyone: every proof it serves is checked by the client
//! against the signed head. A wrong index entry can therefore make a read
//! fail verification; it cannot forge one.

use std::cmp::Reverse;
use std::sync::Arc;

use ccdb_common::{Error, RelId, Result, Timestamp};
use ccdb_crypto::{AddHash, Digest, LamportKeyPair, Sha256};
use ccdb_storage::{PageType, TupleRef, TupleVersion, WriteTime};
use ccdb_verifier::{merkle_path, page_leaf_hash, EpochHead, MerkleTree, ProofPage, ReadProof};
use ccdb_worm::WormServer;

use crate::signed;
use crate::snapshot::{page_offsets, SnapPage, Snapshot};

/// WORM name of an epoch's head (generation 0; retries after a crash
/// mid-write use further generations, see [`crate::signed`]).
pub fn epoch_head_name(epoch: u64) -> String {
    format!("epochhead/epoch-{epoch}")
}

/// Converts a snapshot page to the verifier's page representation.
fn proof_page(p: SnapPage) -> ProofPage {
    ProofPage {
        pgno: p.pgno.0,
        rel: p.rel.0,
        kind: p.kind as u8,
        historical: p.historical,
        aux: p.aux,
        cells: p.cells,
    }
}

/// A loaded, signature-checked epoch head with its raw artifacts (what the
/// RPC layer ships to clients verbatim).
#[derive(Clone, Debug)]
pub struct SignedHead {
    /// The decoded head.
    pub head: EpochHead,
    /// Encoded head body (the signed bytes).
    pub head_bytes: Vec<u8>,
    /// Lamport signature over [`EpochHead::signed_message`].
    pub sig_bytes: Vec<u8>,
    /// The signing one-time public key.
    pub pub_bytes: Vec<u8>,
}

/// Writes, verifies, and lazily materializes epoch heads.
pub struct EpochHeadManager {
    worm: Arc<WormServer>,
    master_seed: [u8; 32],
}

impl EpochHeadManager {
    /// Creates a manager bound to the auditor's master seed.
    pub fn new(worm: Arc<WormServer>, master_seed: [u8; 32]) -> EpochHeadManager {
        EpochHeadManager { worm, master_seed }
    }

    /// The epoch-head signing key: derived like the snapshot key but under
    /// its own domain string, so the two one-time keys are independent.
    fn keypair(&self, epoch: u64) -> LamportKeyPair {
        let mut h = Sha256::new();
        h.update(&self.master_seed).update(b"ccdb:epoch-head-key").update(&epoch.to_le_bytes());
        LamportKeyPair::from_seed(&h.finalize())
    }

    /// The fingerprint clients pin to verify heads from this lineage.
    pub fn fingerprint(&self, epoch: u64) -> Digest {
        self.keypair(epoch).public_key().fingerprint()
    }

    /// Ensures `head` — the head its caller derived from the epoch's sealed
    /// snapshot — is on WORM, and returns it signed. Idempotent: a head
    /// already there (an earlier audit, or a crash after the head seal) is
    /// loaded and must be the same head, since a one-time key signs once.
    pub fn ensure(&self, head: &EpochHead, retention_until: Timestamp) -> Result<SignedHead> {
        if let Some(found) = self.load(head.epoch)? {
            if found.head != *head {
                return Err(Error::corruption(format!(
                    "epoch head {} on WORM does not summarize its sealed snapshot",
                    head.epoch
                )));
            }
            return Ok(found);
        }
        let written = signed::write(
            &self.worm,
            &epoch_head_name(head.epoch),
            head.encode(),
            EpochHead::signed_message,
            &self.keypair(head.epoch),
            retention_until,
        )?;
        Ok(SignedHead {
            head: head.clone(),
            head_bytes: written.body,
            sig_bytes: written.sig_bytes,
            pub_bytes: written.pub_bytes,
        })
    }

    /// Loads and verifies the head for `epoch` if a complete generation
    /// exists. `Ok(None)` when none was ever completed.
    pub fn load(&self, epoch: u64) -> Result<Option<SignedHead>> {
        let Some(loaded) = signed::load(
            &self.worm,
            &epoch_head_name(epoch),
            "epoch-head",
            &self.keypair(epoch),
            EpochHead::signed_message,
        )?
        else {
            return Ok(None);
        };
        let head = EpochHead::decode(&loaded.body)
            .map_err(|e| Error::corruption(format!("epoch head undecodable: {e}")))?;
        if head.epoch != epoch {
            return Err(Error::corruption(format!(
                "epoch head names epoch {} but was stored for {epoch}",
                head.epoch
            )));
        }
        Ok(Some(SignedHead {
            head,
            head_bytes: loaded.body,
            sig_bytes: loaded.sig_bytes,
            pub_bytes: loaded.pub_bytes,
        }))
    }
}

/// A proof-carrying answer for one key against a sealed epoch.
#[derive(Clone, Debug)]
pub struct ProvenRead {
    /// The value as of the sealed epoch; `None` if the latest sealed
    /// version is end-of-life (deleted).
    pub value: Option<Vec<u8>>,
    /// Commit time of the proven version.
    pub commit_time: Timestamp,
    /// The encoded [`ReadProof`].
    pub proof_bytes: Vec<u8>,
}

/// One cell as a candidate answer: the latest version of a key is the one
/// with the greatest `(commit_time, seq)` — `seq` breaks ties within one
/// transaction's writes to the same key — and, among equal copies (a time
/// split leaves the same version on two pages), the first in snapshot order.
#[derive(Clone, Copy)]
struct Candidate<'a> {
    rel: RelId,
    key: &'a [u8],
    version: (Timestamp, u16),
    page: u32,
    cell: u32,
}

impl Candidate<'_> {
    /// Orders candidates by key, the answer for a key last among them.
    fn order(&self, other: &Self) -> std::cmp::Ordering {
        let rank = |c: &Self| (c.version, Reverse(c.page), Reverse(c.cell));
        (self.rel, self.key).cmp(&(other.rel, other.key)).then(rank(self).cmp(&rank(other)))
    }
}

/// The committed tuple cells of a snapshot's leaf pages, as candidates.
/// Cells that do not decode, pending cells, and cells filed under another
/// relation's page are not answers to any read.
fn candidates(pages: &[SnapPage]) -> impl Iterator<Item = Candidate<'_>> {
    pages.iter().enumerate().filter(|(_, p)| p.kind == PageType::Leaf).flat_map(|(page, p)| {
        p.cells.iter().enumerate().filter_map(move |(cell, bytes)| {
            let t = TupleRef::decode_cell(bytes).ok()?;
            let WriteTime::Committed(ct) = t.time else { return None };
            (t.rel == p.rel).then_some(Candidate {
                rel: t.rel,
                key: t.key,
                version: (ct, t.seq),
                page: page as u32,
                cell: cell as u32,
            })
        })
    })
}

/// `(rel, key) → (page index, cell index)` of the latest committed version
/// of every key in a sealed snapshot (deletions included), sorted by
/// `(rel, key)` with the keys in one arena: 20 bytes plus the key per entry.
struct KeyDirectory {
    keys: Vec<u8>,
    entries: Vec<DirEntry>,
}

struct DirEntry {
    rel: RelId,
    /// The key is `keys[key_start..key_end]`.
    key_start: u32,
    key_end: u32,
    page: u32,
    cell: u32,
}

impl KeyDirectory {
    fn build(pages: &[SnapPage]) -> Result<KeyDirectory> {
        let mut all: Vec<Candidate<'_>> = candidates(pages).collect();
        all.sort_unstable_by(Candidate::order);
        let mut dir = KeyDirectory { keys: Vec::new(), entries: Vec::new() };
        for (i, c) in all.iter().enumerate() {
            if all.get(i + 1).is_some_and(|next| (next.rel, next.key) == (c.rel, c.key)) {
                continue; // a later candidate answers this key
            }
            let key_start = dir.keys.len() as u32;
            dir.keys.extend_from_slice(c.key);
            let key_end = u32::try_from(dir.keys.len())
                .map_err(|_| Error::Invalid("sealed snapshot holds over 4 GiB of keys".into()))?;
            dir.entries.push(DirEntry {
                rel: c.rel,
                key_start,
                key_end,
                page: c.page,
                cell: c.cell,
            });
        }
        Ok(dir)
    }

    fn get(&self, rel: RelId, key: &[u8]) -> Option<(usize, usize)> {
        let key_of = |e: &DirEntry| &self.keys[e.key_start as usize..e.key_end as usize];
        let found = self.entries.binary_search_by(|e| (e.rel, key_of(e)).cmp(&(rel, key))).ok()?;
        Some((self.entries[found].page as usize, self.entries[found].cell as usize))
    }
}

/// The proof index of one sealed epoch (see the module docs for what it
/// holds, what it costs, and why it need not be trusted). Immutable; the
/// database replaces it when the next epoch seals.
pub struct SealedEpoch {
    head: Arc<SignedHead>,
    tree: MerkleTree,
    /// WORM name of the snapshot body `page_offsets` index into.
    body_name: String,
    /// Page `i` is bytes `page_offsets[i]..page_offsets[i + 1]` of the body.
    page_offsets: Vec<u64>,
    directory: KeyDirectory,
}

impl SealedEpoch {
    /// Builds the index over the pages of a sealed snapshot — `body_name`
    /// is where [`crate::snapshot::SnapshotManager`] wrote (or loaded) it —
    /// and makes sure the epoch's signed head is on WORM.
    pub(crate) fn build(
        heads: &EpochHeadManager,
        body_name: String,
        snap: Snapshot,
        retention_until: Timestamp,
    ) -> Result<SealedEpoch> {
        let page_offsets = page_offsets(&snap.pages);
        let directory = KeyDirectory::build(&snap.pages)?;
        let leaves = snap.pages.into_iter().map(|p| page_leaf_hash(&proof_page(p))).collect();
        let tree = MerkleTree::build(leaves);
        let head = heads
            .ensure(&epoch_head(snap.epoch, snap.time, &snap.tuple_hash, &tree), retention_until)?;
        Ok(SealedEpoch { head: Arc::new(head), tree, body_name, page_offsets, directory })
    }

    /// The epoch's signed head.
    pub fn head(&self) -> &Arc<SignedHead> {
        &self.head
    }

    /// The latest committed version of `(rel, key)` in the sealed epoch
    /// with its inclusion proof, or `Ok(None)` when the key has none
    /// (absence is *not* proof-carrying: the Merkle tree proves membership
    /// only). [`Error::NotFound`] if the snapshot has since been deleted
    /// from WORM — a proof is served from the attested bytes or not at all.
    pub(crate) fn prove(
        &self,
        worm: &WormServer,
        rel: RelId,
        key: &[u8],
    ) -> Result<Option<ProvenRead>> {
        let epoch = self.head.head.epoch;
        if !worm.exists(&self.body_name) {
            return Err(Error::NotFound(format!("snapshot for sealed epoch {epoch} is missing")));
        }
        let Some((page_index, cell_index)) = self.directory.get(rel, key) else {
            return Ok(None);
        };
        let start = self.page_offsets[page_index];
        let len = (self.page_offsets[page_index + 1] - start) as usize;
        let page = SnapPage::decode(&worm.read_at(&self.body_name, start, len)?)?;
        let stale = || Error::corruption("proof index does not match the sealed snapshot page");
        let t = TupleRef::decode_cell(page.cells.get(cell_index).ok_or_else(stale)?)?;
        let WriteTime::Committed(commit_time) = t.time else { return Err(stale()) };
        if (t.rel, t.key) != (rel, key) {
            return Err(stale());
        }
        let value = (!t.end_of_life).then(|| t.value.to_vec());
        let proof = ReadProof {
            epoch,
            page: proof_page(page),
            cell_index: cell_index as u32,
            path: self.tree.path(page_index).ok_or_else(stale)?,
        };
        Ok(Some(ProvenRead { value, commit_time, proof_bytes: proof.encode() }))
    }
}

/// The (unsigned) head summarizing a snapshot whose page tree is `tree`.
fn epoch_head(epoch: u64, time: Timestamp, tuple_hash: &AddHash, tree: &MerkleTree) -> EpochHead {
    EpochHead {
        epoch,
        time: time.0,
        tuple_hash: tuple_hash.to_bytes(),
        page_root: tree.root(),
        page_count: tree.leaf_count() as u64,
    }
}

/// The Merkle leaves of a snapshot, in snapshot page order.
fn snapshot_leaves(pages: &[SnapPage]) -> Vec<Digest> {
    pages.iter().map(|p| page_leaf_hash(&proof_page(p.clone()))).collect()
}

/// Builds the (unsigned) head summarizing a snapshot.
pub fn head_of_snapshot(snap: &Snapshot) -> EpochHead {
    let tree = MerkleTree::build(snapshot_leaves(&snap.pages));
    epoch_head(snap.epoch, snap.time, &snap.tuple_hash, &tree)
}

/// The scan-based **reference** for [`SealedEpoch`]'s reads: finds the
/// latest committed version of `(rel, key)` by decoding every tuple of the
/// relation in `snap` and rebuilds the whole tree for its path. The test
/// suites compare the index against it byte for byte; no read is served
/// from it.
pub fn build_read_proof(snap: &Snapshot, rel: RelId, key: &[u8]) -> Result<Option<ProvenRead>> {
    // (commit_time, seq) picks the latest version; seq breaks ties within
    // one transaction's writes to the same key.
    let mut best: Option<(Timestamp, u16, usize, u32, TupleVersion)> = None;
    for (page_index, page) in snap.pages.iter().enumerate() {
        if page.kind != PageType::Leaf {
            continue;
        }
        if page.rel != rel {
            continue;
        }
        for (cell_index, cell) in page.cells.iter().enumerate() {
            let Ok(t) = TupleVersion::decode_cell(cell) else { continue };
            if t.rel != rel || t.key != key {
                continue;
            }
            let WriteTime::Committed(ct) = t.time else { continue };
            let better = match &best {
                None => true,
                Some((bt, bs, ..)) => (ct, t.seq) > (*bt, *bs),
            };
            if better {
                best = Some((ct, t.seq, page_index, cell_index as u32, t));
            }
        }
    }
    let Some((ct, _seq, page_index, cell_index, tuple)) = best else {
        return Ok(None);
    };
    let leaves = snapshot_leaves(&snap.pages);
    let proof = ReadProof {
        epoch: snap.epoch,
        page: proof_page(snap.pages[page_index].clone()),
        cell_index,
        path: merkle_path(&leaves, page_index),
    };
    let value = if tuple.end_of_life { None } else { Some(tuple.value) };
    Ok(Some(ProvenRead { value, commit_time: ct, proof_bytes: proof.encode() }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdb_common::PageNo;
    use ccdb_crypto::AddHash;

    fn cell(rel: u32, key: &[u8], t: u64, seq: u16, eol: bool, value: &[u8]) -> Vec<u8> {
        TupleVersion {
            rel: RelId(rel),
            key: key.to_vec(),
            time: WriteTime::Committed(Timestamp(t)),
            seq,
            end_of_life: eol,
            value: value.to_vec(),
        }
        .encode_cell()
    }

    fn snap() -> Snapshot {
        Snapshot {
            epoch: 2,
            time: Timestamp(999),
            tuple_hash: AddHash::new(),
            pages: vec![
                SnapPage {
                    pgno: PageNo(3),
                    rel: RelId(1),
                    kind: PageType::Leaf,
                    historical: false,
                    aux: 0,
                    cells: vec![
                        cell(1, b"a", 100, 0, false, b"v1"),
                        cell(1, b"a", 200, 1, false, b"v2"),
                        cell(1, b"b", 150, 2, true, b""),
                    ],
                },
                SnapPage {
                    pgno: PageNo(4),
                    rel: RelId(1),
                    kind: PageType::Inner,
                    historical: false,
                    aux: 0,
                    cells: vec![b"sep".to_vec()],
                },
            ],
        }
    }

    /// A snapshot that exercises every way the latest version is picked:
    /// `seq` ties within one commit time, the same version copied onto two
    /// pages (a time split), a cell filed under another relation's page, a
    /// pending cell, an undecodable cell, and the same key in two relations.
    fn tricky_snap() -> Snapshot {
        let leaf = |pgno: u64, rel: u32, historical: bool, cells: Vec<Vec<u8>>| SnapPage {
            pgno: PageNo(pgno),
            rel: RelId(rel),
            kind: PageType::Leaf,
            historical,
            aux: 0,
            cells,
        };
        let pending = TupleVersion {
            rel: RelId(1),
            key: b"p".to_vec(),
            time: WriteTime::Pending(ccdb_common::TxnId(9)),
            seq: 0,
            end_of_life: false,
            value: b"pending".to_vec(),
        }
        .encode_cell();
        Snapshot {
            pages: vec![
                leaf(
                    3,
                    1,
                    true,
                    vec![cell(1, b"k", 100, 5, false, b"copy"), cell(1, b"a", 50, 0, false, b"a1")],
                ),
                leaf(
                    4,
                    1,
                    false,
                    vec![
                        cell(1, b"k", 100, 5, false, b"copy"),
                        cell(1, b"s", 70, 1, false, b"first write"),
                        cell(1, b"s", 70, 2, false, b"second write"),
                        cell(2, b"x", 999, 0, false, b"misfiled"),
                        pending,
                        vec![0xFF, 1, 2],
                    ],
                ),
                leaf(9, 2, false, vec![cell(2, b"k", 10, 0, true, b"")]),
                snap().pages.remove(1), // an inner page
            ],
            ..snap()
        }
    }

    #[test]
    fn index_matches_the_scan_reference() {
        let dir = std::env::temp_dir().join(format!("ccdb-proof-ix-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let clock = Arc::new(ccdb_common::VirtualClock::new());
        let worm = Arc::new(WormServer::open(&dir, clock).unwrap());
        let seed = [5u8; 32];
        let s = tricky_snap();
        let body_name = crate::snapshot::SnapshotManager::new(worm.clone(), seed)
            .write(s.epoch, s.time, &s.tuple_hash, &s.pages)
            .unwrap();
        let heads = EpochHeadManager::new(worm.clone(), seed);
        let index = SealedEpoch::build(&heads, body_name, tricky_snap(), Timestamp::MAX).unwrap();
        assert_eq!(index.head().head, head_of_snapshot(&s));
        assert_eq!(heads.load(s.epoch).unwrap().unwrap().head_bytes, index.head().head_bytes);
        for (rel, key) in [(1, &b"k"[..]), (1, b"a"), (1, b"s"), (2, b"k"), (2, b"x"), (1, b"p")] {
            let want = build_read_proof(&s, RelId(rel), key).unwrap();
            let got = index.prove(&worm, RelId(rel), key).unwrap();
            assert_eq!(got.is_some(), want.is_some(), "rel {rel} key {key:?}");
            if let (Some(got), Some(want)) = (got, want) {
                assert_eq!(got.proof_bytes, want.proof_bytes, "rel {rel} key {key:?}");
                assert_eq!(got.value, want.value);
                assert_eq!(got.commit_time, want.commit_time);
            }
        }
        let s_proof = index.prove(&worm, RelId(1), b"s").unwrap().unwrap();
        assert_eq!(s_proof.value.as_deref(), Some(&b"second write"[..]), "seq breaks the tie");
        assert!(
            index.prove(&worm, RelId(2), b"x").unwrap().is_none(),
            "misfiled cell is no answer"
        );
        // A second build for the same epoch finds the head already sealed.
        let body_name = index.body_name.clone();
        assert!(SealedEpoch::build(&heads, body_name, tricky_snap(), Timestamp::MAX).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn picks_latest_version() {
        let p = build_read_proof(&snap(), RelId(1), b"a").unwrap().unwrap();
        assert_eq!(p.value.as_deref(), Some(&b"v2"[..]));
        assert_eq!(p.commit_time, Timestamp(200));
    }

    #[test]
    fn eol_latest_reports_absent_with_proof() {
        let p = build_read_proof(&snap(), RelId(1), b"b").unwrap().unwrap();
        assert!(p.value.is_none());
    }

    #[test]
    fn missing_key_has_no_proof() {
        assert!(build_read_proof(&snap(), RelId(1), b"zzz").unwrap().is_none());
    }

    #[test]
    fn proof_verifies_against_derived_head() {
        let s = snap();
        let head = head_of_snapshot(&s);
        let head_bytes = head.encode();
        let seed = [5u8; 32];
        let mut h = Sha256::new();
        h.update(&seed).update(b"ccdb:epoch-head-key").update(&2u64.to_le_bytes());
        let kp = LamportKeyPair::from_seed(&h.finalize());
        let sig = kp.sign(&EpochHead::signed_message(&head_bytes)).to_bytes();
        let pk = kp.public_key();
        let p = build_read_proof(&s, RelId(1), b"a").unwrap().unwrap();
        let out = ccdb_verifier::verify_read(
            &head_bytes,
            &sig,
            &pk.to_bytes(),
            Some(&pk.fingerprint()),
            &p.proof_bytes,
            1,
            b"a",
        )
        .unwrap();
        assert_eq!(out.value.as_deref(), Some(&b"v2"[..]));
        assert_eq!(out.head.page_count, 2);
    }
}
