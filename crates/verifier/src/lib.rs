//! Client-side verification of CCDB read proofs.
//!
//! This crate lets a client check, **out of process and with no engine or
//! storage dependencies**, that a value it read from a CCDB server is the
//! one attested by the last sealed audit epoch. The trust chain is:
//!
//! 1. At the end of every clean audit the auditor seals an **epoch head**
//!    on WORM: the epoch number, the audit time, the ADD-HASH of the
//!    canonical tuple set, and a Merkle root over the content hashes of
//!    every page in the signed snapshot. The head is signed with a Lamport
//!    one-time key derived from the auditor's master seed (a different
//!    derivation domain than the snapshot signature, so the two one-time
//!    keys never collide).
//! 2. A **read proof** carries one snapshot page verbatim (its cells), the
//!    index of the tuple cell being proven, and the Merkle inclusion path
//!    from that page's leaf hash up to the epoch head's root.
//! 3. The client re-derives the leaf hash from the page bytes, walks the
//!    path, compares against the signed root, checks the Lamport signature
//!    against a pinned public-key fingerprint, and decodes the tuple cell
//!    itself.
//!
//! Everything the verifier needs is re-specified here from first
//! principles — the page content hash and the on-page tuple cell layout are
//! *independent reimplementations* of the engine's formats (cross-checked
//! by the engine's test suite), which is what makes the crate a meaningful
//! second implementation rather than a re-export of the code it audits.
//!
//! # Security notes
//!
//! * A Lamport signature only exercises the key elements selected by the
//!   message bits, so a tampered *public key* can still verify if the
//!   flipped byte lands in an unexercised element. Clients MUST pin the
//!   key's fingerprint (obtained out of band, e.g. at provisioning) and
//!   pass it as `expected_fingerprint`; with a pinned fingerprint every
//!   byte of the key is bound.
//! * Leaf and interior Merkle hashes use distinct domain prefixes, so an
//!   interior node can never be replayed as a leaf or vice versa.

#![forbid(unsafe_code)]

use ccdb_crypto::{sha256, Digest, LamportPublicKey, LamportSignature, Sha256};

/// Decode / verification failure. One variant per trust-chain link so test
/// suites can assert *why* a mutated proof was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The epoch head bytes are malformed.
    BadHead(String),
    /// The proof bytes are malformed.
    BadProof(String),
    /// The signature or public key bytes are malformed.
    BadSignature,
    /// The public key does not match the pinned fingerprint.
    KeyMismatch,
    /// The Lamport signature does not verify against the head.
    SignatureInvalid,
    /// The proof's epoch does not match the head's.
    EpochMismatch { head: u64, proof: u64 },
    /// The Merkle path does not reach the signed root.
    RootMismatch,
    /// The proven cell index is out of range for the page.
    CellIndexOutOfRange,
    /// The tuple cell is malformed or not a committed version.
    BadTuple(String),
    /// The proven tuple is not the requested `(rel, key)`.
    TupleMismatch,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::BadHead(m) => write!(f, "malformed epoch head: {m}"),
            VerifyError::BadProof(m) => write!(f, "malformed read proof: {m}"),
            VerifyError::BadSignature => write!(f, "malformed signature or public key"),
            VerifyError::KeyMismatch => write!(f, "public key does not match pinned fingerprint"),
            VerifyError::SignatureInvalid => write!(f, "epoch head signature invalid"),
            VerifyError::EpochMismatch { head, proof } => {
                write!(f, "proof epoch {proof} does not match head epoch {head}")
            }
            VerifyError::RootMismatch => write!(f, "merkle path does not reach the signed root"),
            VerifyError::CellIndexOutOfRange => write!(f, "cell index out of range"),
            VerifyError::BadTuple(m) => write!(f, "malformed tuple cell: {m}"),
            VerifyError::TupleMismatch => write!(f, "proven tuple is not the requested key"),
        }
    }
}

impl std::error::Error for VerifyError {}

type Result<T> = std::result::Result<T, VerifyError>;

/// Epoch head encoding magic.
const HEAD_MAGIC: u32 = 0xCCDB_E40D;
/// Read proof encoding magic.
const PROOF_MAGIC: u32 = 0xCCDB_4EAD;

/// Domain prefix for Merkle leaf hashes (one per snapshot page).
const LEAF_DOMAIN: &[u8] = b"ccdb:mt-page";
/// Domain prefix for interior Merkle node hashes.
const NODE_DOMAIN: &[u8] = b"ccdb:mt-node";
/// Domain prefix for the signed head message.
const SIG_DOMAIN: &[u8] = b"ccdb:epoch-head-sig";

/// The signed summary of one sealed audit epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochHead {
    /// The audit epoch this head seals.
    pub epoch: u64,
    /// Compliance-clock time of the audit (microseconds).
    pub time: u64,
    /// ADD-HASH of the canonical tuple set at the audit (64 raw bytes).
    pub tuple_hash: [u8; 64],
    /// Merkle root over the leaf hashes of every snapshot page.
    pub page_root: Digest,
    /// Number of Merkle leaves (snapshot pages) under `page_root`.
    pub page_count: u64,
}

impl EpochHead {
    /// Encodes the head body (the bytes that get signed).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ccdb_common::ByteWriter::with_capacity(120);
        w.put_u32(HEAD_MAGIC);
        w.put_u64(self.epoch);
        w.put_u64(self.time);
        w.put_bytes(&self.tuple_hash);
        w.put_bytes(&self.page_root);
        w.put_u64(self.page_count);
        w.into_vec()
    }

    /// Decodes a head body.
    pub fn decode(bytes: &[u8]) -> Result<EpochHead> {
        let mut r = ccdb_common::ByteReader::new(bytes);
        let bad = |m: &str| VerifyError::BadHead(m.to_string());
        if r.get_u32().map_err(|_| bad("truncated"))? != HEAD_MAGIC {
            return Err(bad("bad magic"));
        }
        let epoch = r.get_u64().map_err(|_| bad("truncated"))?;
        let time = r.get_u64().map_err(|_| bad("truncated"))?;
        let mut tuple_hash = [0u8; 64];
        tuple_hash.copy_from_slice(r.get_bytes(64).map_err(|_| bad("truncated"))?);
        let mut page_root = [0u8; 32];
        page_root.copy_from_slice(r.get_bytes(32).map_err(|_| bad("truncated"))?);
        let page_count = r.get_u64().map_err(|_| bad("truncated"))?;
        if !r.is_exhausted() {
            return Err(bad("trailing bytes"));
        }
        Ok(EpochHead { epoch, time, tuple_hash, page_root, page_count })
    }

    /// The message actually signed by the auditor's epoch-head key:
    /// a domain-separated hash of the encoded body.
    pub fn signed_message(head_bytes: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(SIG_DOMAIN).update(head_bytes);
        h.finalize()
    }
}

/// One snapshot page as carried in a proof. Field order and hashing match
/// the auditor's snapshot format exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProofPage {
    /// Page number.
    pub pgno: u64,
    /// Owning relation id.
    pub rel: u32,
    /// Page kind byte (1 = leaf, 2 = inner).
    pub kind: u8,
    /// Historical (time-split) flag.
    pub historical: bool,
    /// Aux field (TSB split time).
    pub aux: u64,
    /// Full cell content in slot order.
    pub cells: Vec<Vec<u8>>,
}

/// A Merkle inclusion proof for one tuple cell against a sealed epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadProof {
    /// Epoch the proof is against (must match the head).
    pub epoch: u64,
    /// The snapshot page containing the proven cell.
    pub page: ProofPage,
    /// Index of the proven cell within `page.cells`.
    pub cell_index: u32,
    /// Sibling hashes from the page's leaf up to the root. `true` means the
    /// sibling is on the left (the running hash is the right child).
    pub path: Vec<(bool, Digest)>,
}

impl ReadProof {
    /// Encodes the proof.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ccdb_common::ByteWriter::new();
        w.put_u32(PROOF_MAGIC);
        w.put_u64(self.epoch);
        w.put_u64(self.page.pgno);
        w.put_u32(self.page.rel);
        w.put_u8(self.page.kind);
        w.put_u8(if self.page.historical { 1 } else { 0 });
        w.put_u64(self.page.aux);
        w.put_u32(self.page.cells.len() as u32);
        for c in &self.page.cells {
            w.put_len_bytes(c);
        }
        w.put_u32(self.cell_index);
        w.put_u32(self.path.len() as u32);
        for (left, sib) in &self.path {
            w.put_u8(if *left { 1 } else { 0 });
            w.put_bytes(sib);
        }
        w.into_vec()
    }

    /// Decodes a proof.
    pub fn decode(bytes: &[u8]) -> Result<ReadProof> {
        let mut r = ccdb_common::ByteReader::new(bytes);
        let bad = |m: &str| VerifyError::BadProof(m.to_string());
        if r.get_u32().map_err(|_| bad("truncated"))? != PROOF_MAGIC {
            return Err(bad("bad magic"));
        }
        let epoch = r.get_u64().map_err(|_| bad("truncated"))?;
        let pgno = r.get_u64().map_err(|_| bad("truncated"))?;
        let rel = r.get_u32().map_err(|_| bad("truncated"))?;
        let kind = r.get_u8().map_err(|_| bad("truncated"))?;
        let historical = match r.get_u8().map_err(|_| bad("truncated"))? {
            0 => false,
            1 => true,
            _ => return Err(bad("bad historical flag")),
        };
        let aux = r.get_u64().map_err(|_| bad("truncated"))?;
        let cn = r.get_u32().map_err(|_| bad("truncated"))? as usize;
        let mut cells = Vec::with_capacity(cn.min(4096));
        for _ in 0..cn {
            cells.push(r.get_len_bytes().map_err(|_| bad("truncated cell"))?.to_vec());
        }
        let cell_index = r.get_u32().map_err(|_| bad("truncated"))?;
        let pn = r.get_u32().map_err(|_| bad("truncated"))? as usize;
        let mut path = Vec::with_capacity(pn.min(64));
        for _ in 0..pn {
            let left = match r.get_u8().map_err(|_| bad("truncated path"))? {
                0 => false,
                1 => true,
                _ => return Err(bad("bad path side flag")),
            };
            let mut sib = [0u8; 32];
            sib.copy_from_slice(r.get_bytes(32).map_err(|_| bad("truncated path"))?);
            path.push((left, sib));
        }
        if !r.is_exhausted() {
            return Err(bad("trailing bytes"));
        }
        Ok(ReadProof {
            epoch,
            page: ProofPage { pgno, rel, kind, historical, aux, cells },
            cell_index,
            path,
        })
    }
}

/// The content hash of a page's cell list: `sha256((len_le ++ cell)*)`.
/// Byte-identical to the engine's `page_content_hash`.
pub fn page_content_hash(cells: &[Vec<u8>]) -> Digest {
    let mut h = Sha256::new();
    for c in cells {
        h.update(&(c.len() as u32).to_le_bytes());
        h.update(c);
    }
    h.finalize()
}

/// The Merkle leaf hash of one snapshot page: binds the page number, the
/// owning relation, the page kind/flags, and the cell content.
pub fn page_leaf_hash(page: &ProofPage) -> Digest {
    let mut h = Sha256::new();
    h.update(LEAF_DOMAIN)
        .update(&page.pgno.to_le_bytes())
        .update(&page.rel.to_le_bytes())
        .update(&[page.kind, if page.historical { 1 } else { 0 }])
        .update(&page.aux.to_le_bytes())
        .update(&page_content_hash(&page.cells));
    h.finalize()
}

fn node_hash(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(NODE_DOMAIN).update(left).update(right);
    h.finalize()
}

/// Every level of the Merkle tree over one epoch's page leaf hashes, bottom
/// (the leaves) to top (the root alone). Odd nodes at any level are carried
/// up unchanged (no duplication). Building is the only pass that hashes;
/// [`MerkleTree::root`] and [`MerkleTree::path`] read the stored levels, so
/// a server that keeps the tree per sealed epoch serves a path in
/// O(log leaves) copies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleTree {
    /// `levels[0]` holds the leaves; each further level halves (rounding
    /// up) until one node remains. Empty for an empty tree.
    levels: Vec<Vec<Digest>>,
}

impl MerkleTree {
    /// Builds every level over `leaves`.
    pub fn build(leaves: Vec<Digest>) -> MerkleTree {
        if leaves.is_empty() {
            return MerkleTree { levels: Vec::new() };
        }
        let mut levels = vec![leaves];
        while let Some(level) = levels.last().filter(|level| level.len() > 1) {
            let next = level
                .chunks(2)
                .map(|pair| if pair.len() == 2 { node_hash(&pair[0], &pair[1]) } else { pair[0] })
                .collect();
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels.first().map_or(0, Vec::len)
    }

    /// The root. An empty tree hashes the leaf domain alone, so "no pages"
    /// still has a well-defined, non-forgeable root.
    pub fn root(&self) -> Digest {
        match self.levels.last() {
            Some(top) => top[0],
            None => sha256(LEAF_DOMAIN),
        }
    }

    /// The inclusion path for leaf `index`: sibling hashes from the bottom
    /// level up, each tagged with whether the sibling sits on the left.
    /// `None` if `index` is out of range.
    pub fn path(&self, index: usize) -> Option<Vec<(bool, Digest)>> {
        if index >= self.leaf_count() {
            return None;
        }
        let mut path = Vec::with_capacity(self.levels.len());
        let mut i = index;
        for level in &self.levels[..self.levels.len() - 1] {
            if i % 2 == 1 {
                path.push((true, level[i - 1]));
            } else if i + 1 < level.len() {
                path.push((false, level[i + 1]));
            }
            // else: odd node carried up, no sibling at this level
            i /= 2;
        }
        Some(path)
    }
}

/// Merkle root over `leaves` (see [`MerkleTree`]).
pub fn merkle_root(leaves: &[Digest]) -> Digest {
    MerkleTree::build(leaves.to_vec()).root()
}

/// The inclusion path for `leaves[index]` (see [`MerkleTree::path`]).
/// Panics if `index` is out of range (server-side builder bug).
pub fn merkle_path(leaves: &[Digest], index: usize) -> Vec<(bool, Digest)> {
    MerkleTree::build(leaves.to_vec()).path(index).expect("merkle_path index out of range")
}

/// Folds a leaf hash up an inclusion path.
pub fn fold_path(leaf: Digest, path: &[(bool, Digest)]) -> Digest {
    let mut acc = leaf;
    for (sibling_left, sib) in path {
        acc = if *sibling_left { node_hash(sib, &acc) } else { node_hash(&acc, sib) };
    }
    acc
}

/// A committed tuple version decoded from an on-page cell. Independent
/// reimplementation of the engine's cell layout:
/// `eol u8 ++ time_tag u8 ++ time u64 ++ seq u16 ++ rel u32 ++
///  len-prefixed key ++ len-prefixed value` (all little-endian).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifiedTuple {
    /// Owning relation id.
    pub rel: u32,
    /// Primary key bytes.
    pub key: Vec<u8>,
    /// Commit time (microseconds). Proofs only cover committed versions.
    pub commit_time: u64,
    /// Tuple-order number within its page.
    pub seq: u16,
    /// End-of-life marker: this version records a deletion.
    pub end_of_life: bool,
    /// The row payload (empty for end-of-life versions).
    pub value: Vec<u8>,
}

/// Decodes a committed tuple cell. Rejects pending (unstamped) cells: a
/// proof against a sealed epoch must carry a resolved commit time.
pub fn decode_tuple_cell(cell: &[u8]) -> Result<VerifiedTuple> {
    let mut r = ccdb_common::ByteReader::new(cell);
    let bad = |m: &str| VerifyError::BadTuple(m.to_string());
    let end_of_life = match r.get_u8().map_err(|_| bad("truncated"))? {
        0 => false,
        1 => true,
        _ => return Err(bad("bad end-of-life flag")),
    };
    let commit_time = match r.get_u8().map_err(|_| bad("truncated"))? {
        1 => r.get_u64().map_err(|_| bad("truncated"))?,
        0 => return Err(bad("pending (unstamped) cell in proof")),
        _ => return Err(bad("bad time tag")),
    };
    let seq = r.get_u16().map_err(|_| bad("truncated"))?;
    let rel = r.get_u32().map_err(|_| bad("truncated"))?;
    let key = r.get_len_bytes().map_err(|_| bad("truncated key"))?.to_vec();
    let value = r.get_len_bytes().map_err(|_| bad("truncated value"))?.to_vec();
    if !r.is_exhausted() {
        return Err(bad("trailing bytes"));
    }
    Ok(VerifiedTuple { rel, key, commit_time, seq, end_of_life, value })
}

/// The result of a successful verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadOutcome {
    /// The decoded, signature-checked epoch head.
    pub head: EpochHead,
    /// The proven tuple version.
    pub tuple: VerifiedTuple,
    /// The proven value: `None` when the version is end-of-life (the key
    /// was deleted as of the sealed epoch).
    pub value: Option<Vec<u8>>,
}

/// Verifies a read proof end to end.
///
/// * `head_bytes`, `sig_bytes`, `pub_bytes` — the epoch head body, its
///   Lamport signature, and the signing public key, as served from WORM.
/// * `expected_fingerprint` — the pinned sha256 fingerprint of the signing
///   key. Pass `None` only in tests; see the crate docs for why production
///   clients must pin.
/// * `proof_bytes` — the encoded [`ReadProof`].
/// * `rel`, `key` — what the client asked for; the proof must be about
///   exactly this tuple.
pub fn verify_read(
    head_bytes: &[u8],
    sig_bytes: &[u8],
    pub_bytes: &[u8],
    expected_fingerprint: Option<&Digest>,
    proof_bytes: &[u8],
    rel: u32,
    key: &[u8],
) -> Result<ReadOutcome> {
    let head = EpochHead::decode(head_bytes)?;
    let pk = LamportPublicKey::from_bytes(pub_bytes).ok_or(VerifyError::BadSignature)?;
    if let Some(fp) = expected_fingerprint {
        if pk.fingerprint() != *fp {
            return Err(VerifyError::KeyMismatch);
        }
    }
    let sig = LamportSignature::from_bytes(sig_bytes).ok_or(VerifyError::BadSignature)?;
    if !pk.verify(&EpochHead::signed_message(head_bytes), &sig) {
        return Err(VerifyError::SignatureInvalid);
    }
    let proof = ReadProof::decode(proof_bytes)?;
    if proof.epoch != head.epoch {
        return Err(VerifyError::EpochMismatch { head: head.epoch, proof: proof.epoch });
    }
    let cell =
        proof.page.cells.get(proof.cell_index as usize).ok_or(VerifyError::CellIndexOutOfRange)?;
    let tuple = decode_tuple_cell(cell)?;
    if tuple.rel != rel || tuple.rel != proof.page.rel || tuple.key != key {
        return Err(VerifyError::TupleMismatch);
    }
    if fold_path(page_leaf_hash(&proof.page), &proof.path) != head.page_root {
        return Err(VerifyError::RootMismatch);
    }
    let value = if tuple.end_of_life { None } else { Some(tuple.value.clone()) };
    Ok(ReadOutcome { head, tuple, value })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdb_crypto::LamportKeyPair;

    fn cell(rel: u32, key: &[u8], t: u64, seq: u16, eol: bool, value: &[u8]) -> Vec<u8> {
        let mut w = ccdb_common::ByteWriter::new();
        w.put_u8(if eol { 1 } else { 0 });
        w.put_u8(1); // committed
        w.put_u64(t);
        w.put_u16(seq);
        w.put_u32(rel);
        w.put_len_bytes(key);
        w.put_len_bytes(value);
        w.into_vec()
    }

    fn pending_cell() -> Vec<u8> {
        let mut w = ccdb_common::ByteWriter::new();
        w.put_u8(0);
        w.put_u8(0); // pending
        w.put_u64(7);
        w.put_u16(0);
        w.put_u32(1);
        w.put_len_bytes(b"k");
        w.put_len_bytes(b"v");
        w.into_vec()
    }

    struct Fixture {
        head_bytes: Vec<u8>,
        sig: Vec<u8>,
        pk: Vec<u8>,
        fingerprint: Digest,
        proof_bytes: Vec<u8>,
    }

    /// Builds a 3-page epoch and a proof for page 1's second cell.
    fn fixture() -> Fixture {
        let pages = [
            ProofPage {
                pgno: 3,
                rel: 1,
                kind: 1,
                historical: false,
                aux: 0,
                cells: vec![cell(1, b"a", 100, 0, false, b"va")],
            },
            ProofPage {
                pgno: 4,
                rel: 1,
                kind: 1,
                historical: false,
                aux: 0,
                cells: vec![
                    cell(1, b"b", 200, 0, false, b"old"),
                    cell(1, b"b", 300, 1, false, b"vb"),
                ],
            },
            ProofPage {
                pgno: 5,
                rel: 1,
                kind: 2,
                historical: false,
                aux: 0,
                cells: vec![b"sep".to_vec()],
            },
        ];
        let leaves: Vec<Digest> = pages.iter().map(page_leaf_hash).collect();
        let head = EpochHead {
            epoch: 9,
            time: 123_456,
            tuple_hash: [0xAB; 64],
            page_root: merkle_root(&leaves),
            page_count: leaves.len() as u64,
        };
        let head_bytes = head.encode();
        let kp = LamportKeyPair::from_seed(&[7u8; 32]);
        let sig = kp.sign(&EpochHead::signed_message(&head_bytes)).to_bytes();
        let pk = kp.public_key();
        let proof = ReadProof {
            epoch: 9,
            page: pages[1].clone(),
            cell_index: 1,
            path: merkle_path(&leaves, 1),
        };
        Fixture {
            head_bytes,
            sig,
            fingerprint: pk.fingerprint(),
            pk: pk.to_bytes(),
            proof_bytes: proof.encode(),
        }
    }

    #[test]
    fn head_roundtrip() {
        let h = EpochHead {
            epoch: 3,
            time: 55,
            tuple_hash: [9; 64],
            page_root: [8; 32],
            page_count: 12,
        };
        assert_eq!(EpochHead::decode(&h.encode()).unwrap(), h);
        assert!(EpochHead::decode(&[1, 2, 3]).is_err());
        let mut trailing = h.encode();
        trailing.push(0);
        assert!(EpochHead::decode(&trailing).is_err());
    }

    #[test]
    fn proof_roundtrip() {
        let f = fixture();
        let p = ReadProof::decode(&f.proof_bytes).unwrap();
        assert_eq!(p.encode(), f.proof_bytes);
    }

    #[test]
    fn merkle_paths_verify_for_every_leaf() {
        for n in 1..=9usize {
            let leaves: Vec<Digest> = (0..n).map(|i| sha256(&[i as u8])).collect();
            let root = merkle_root(&leaves);
            for (i, leaf) in leaves.iter().enumerate() {
                let path = merkle_path(&leaves, i);
                assert_eq!(fold_path(*leaf, &path), root, "n={n} i={i}");
            }
        }
    }

    /// The construction, restated recursively: split at the largest power
    /// of two below `n` (what carrying odd nodes up amounts to).
    fn naive_root(leaves: &[Digest]) -> Digest {
        match leaves.len() {
            0 => sha256(LEAF_DOMAIN),
            1 => leaves[0],
            n => {
                let split = n.next_power_of_two() / 2;
                node_hash(&naive_root(&leaves[..split]), &naive_root(&leaves[split..]))
            }
        }
    }

    #[test]
    fn stored_levels_match_the_recursive_definition() {
        for n in 0..=33usize {
            let leaves: Vec<Digest> = (0..n).map(|i| sha256(&[i as u8, 7])).collect();
            let tree = MerkleTree::build(leaves.clone());
            assert_eq!(tree.leaf_count(), n);
            assert_eq!(tree.root(), naive_root(&leaves), "n={n}");
            assert_eq!(merkle_root(&leaves), tree.root());
            for (i, leaf) in leaves.iter().enumerate() {
                let path = tree.path(i).unwrap();
                assert!(path.len() <= n.next_power_of_two().trailing_zeros() as usize);
                assert_eq!(fold_path(*leaf, &path), tree.root(), "n={n} i={i}");
            }
            assert!(tree.path(n).is_none(), "n={n}: out-of-range leaf has no path");
        }
    }

    #[test]
    fn merkle_path_rejects_wrong_leaf() {
        let leaves: Vec<Digest> = (0..5).map(|i| sha256(&[i as u8])).collect();
        let root = merkle_root(&leaves);
        let path = merkle_path(&leaves, 2);
        assert_ne!(fold_path(leaves[3], &path), root);
    }

    #[test]
    fn empty_tree_root_is_stable() {
        assert_eq!(merkle_root(&[]), merkle_root(&[]));
        assert_ne!(merkle_root(&[]), merkle_root(&[sha256(b"x")]));
    }

    #[test]
    fn good_proof_verifies() {
        let f = fixture();
        let out = verify_read(
            &f.head_bytes,
            &f.sig,
            &f.pk,
            Some(&f.fingerprint),
            &f.proof_bytes,
            1,
            b"b",
        )
        .unwrap();
        assert_eq!(out.value.as_deref(), Some(&b"vb"[..]));
        assert_eq!(out.tuple.commit_time, 300);
        assert_eq!(out.head.epoch, 9);
    }

    #[test]
    fn wrong_key_rejected() {
        let f = fixture();
        let err = verify_read(
            &f.head_bytes,
            &f.sig,
            &f.pk,
            Some(&f.fingerprint),
            &f.proof_bytes,
            1,
            b"a",
        )
        .unwrap_err();
        assert_eq!(err, VerifyError::TupleMismatch);
    }

    #[test]
    fn wrong_fingerprint_rejected() {
        let f = fixture();
        let err =
            verify_read(&f.head_bytes, &f.sig, &f.pk, Some(&[0; 32]), &f.proof_bytes, 1, b"b")
                .unwrap_err();
        assert_eq!(err, VerifyError::KeyMismatch);
    }

    #[test]
    fn tampered_head_rejected() {
        let f = fixture();
        let mut head = f.head_bytes.clone();
        head[8] ^= 1; // epoch byte
        let err = verify_read(&head, &f.sig, &f.pk, Some(&f.fingerprint), &f.proof_bytes, 1, b"b")
            .unwrap_err();
        assert_eq!(err, VerifyError::SignatureInvalid);
    }

    #[test]
    fn tampered_cell_rejected() {
        let f = fixture();
        let mut proof = ReadProof::decode(&f.proof_bytes).unwrap();
        // Flip a byte of the proven value: the page content hash changes.
        let last = proof.page.cells[1].len() - 1;
        proof.page.cells[1][last] ^= 1;
        let err = verify_read(
            &f.head_bytes,
            &f.sig,
            &f.pk,
            Some(&f.fingerprint),
            &proof.encode(),
            1,
            b"b",
        )
        .unwrap_err();
        assert_eq!(err, VerifyError::RootMismatch);
    }

    #[test]
    fn pending_cell_rejected() {
        let err = decode_tuple_cell(&pending_cell()).unwrap_err();
        assert!(matches!(err, VerifyError::BadTuple(_)));
    }

    #[test]
    fn eol_reads_as_absent() {
        let c = cell(1, b"gone", 500, 0, true, b"");
        let t = decode_tuple_cell(&c).unwrap();
        assert!(t.end_of_life);
    }
}
