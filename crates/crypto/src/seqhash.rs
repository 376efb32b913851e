//! The sequential page hash `Hs` (hash-page-on-read refinement, Section V).
//!
//! When a transaction reads page `P` from disk, the compliance plugin hashes
//! `P`'s tuples *in tuple-order-number order* and logs `(PGNO, Hs)` to the
//! compliance log. A commutative hash would work but costs 200+ bytes per
//! value; `Hs` is 32 bytes. The price is order sensitivity, which the
//! tuple-order-number attribute restores: tuples appear on `L` in the order
//! they were inserted into `P`, so the auditor can extend its reconstruction
//! of `Hs(P)` incrementally while scanning `L`.
//!
//! We realize `Hs` as an append-extendable chain
//!
//! `Hs₀ = SHA256("ccdb:Hs:v1")`, `Hsₙ = SHA256(Hsₙ₋₁ ‖ h(rₙ))`
//!
//! which is the paper's `Hs(r₁,…,rₙ) = H(h(r₁), Hs(r₂,…,rₙ))` read in
//! streaming form: one new tuple extends the chain in O(1).
//!
//! UNDO handling: when an aborted transaction's tuple is physically removed
//! from a page, the auditor must "roll back" the chain to just before that
//! tuple and re-chain the survivors. [`HsChain::of_hashes`] recomputes a chain
//! from a retained list of element hashes; the auditor keeps that per-page
//! list while scanning, preserving the single-pass structure.

use crate::sha256::{sha256, Digest, Sha256};

/// Domain-separation seed for the empty chain: `SHA256("ccdb:Hs:v1")`,
/// precomputed (a test pins it to the hash).
const SEED: Digest = [
    0xe7, 0x72, 0x4a, 0xba, 0xb2, 0x64, 0xf0, 0x6a, 0x08, 0x26, 0xda, 0x12, 0xad, 0x32, 0x13, 0x6d,
    0xde, 0x1f, 0x83, 0x2a, 0x60, 0x10, 0xde, 0x2f, 0xaf, 0x21, 0x31, 0x72, 0x5f, 0xe8, 0xa3, 0x02,
];

/// An append-extendable sequential hash chain.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct HsChain {
    state: Digest,
}

impl Default for HsChain {
    fn default() -> Self {
        HsChain::new()
    }
}

impl HsChain {
    /// The chain over the empty sequence.
    pub const fn new() -> HsChain {
        HsChain { state: SEED }
    }

    /// Extends the chain with the *hash* of the next element.
    pub fn extend_hash(&mut self, element_hash: &Digest) {
        let mut h = Sha256::new();
        h.update(&self.state).update(element_hash);
        self.state = h.finalize();
    }

    /// Extends the chain with the next element (hashing it first).
    pub fn extend(&mut self, element: &[u8]) {
        self.extend_hash(&sha256(element));
    }

    /// The current chain value.
    pub fn value(&self) -> Digest {
        self.state
    }

    /// Computes the chain over a sequence of raw elements.
    pub fn of<'a>(items: impl IntoIterator<Item = &'a [u8]>) -> HsChain {
        let mut c = HsChain::new();
        for it in items {
            c.extend(it);
        }
        c
    }

    /// Recomputes a chain from already-hashed elements; used by the auditor
    /// to re-chain a page's surviving tuples after processing an `UNDO`.
    pub fn of_hashes<'a>(hashes: impl IntoIterator<Item = &'a Digest>) -> HsChain {
        let mut c = HsChain::new();
        for h in hashes {
            c.extend_hash(h);
        }
        c
    }
}

impl core::fmt::Debug for HsChain {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Hs({}…)", crate::to_hex(&self.state[..8]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_is_the_domain_separated_hash() {
        assert_eq!(SEED, sha256(b"ccdb:Hs:v1"));
        assert_eq!(HsChain::new().value(), SEED);
    }

    #[test]
    fn empty_chains_agree() {
        assert_eq!(HsChain::new(), HsChain::default());
        assert_eq!(HsChain::of(core::iter::empty::<&[u8]>()), HsChain::new());
    }

    #[test]
    fn order_sensitive() {
        let ab = HsChain::of([b"a".as_slice(), b"b".as_slice()]);
        let ba = HsChain::of([b"b".as_slice(), b"a".as_slice()]);
        assert_ne!(ab, ba);
    }

    #[test]
    fn extension_is_incremental() {
        let mut c = HsChain::new();
        c.extend(b"one");
        c.extend(b"two");
        let full = HsChain::of([b"one".as_slice(), b"two".as_slice()]);
        assert_eq!(c, full);
    }

    #[test]
    fn of_hashes_matches_of() {
        let items: Vec<&[u8]> = vec![b"p", b"q", b"r"];
        let hashes: Vec<Digest> = items.iter().map(|i| sha256(i)).collect();
        assert_eq!(HsChain::of_hashes(hashes.iter()), HsChain::of(items));
    }

    #[test]
    fn undo_rollback_scenario() {
        // Page receives t1, t2(aborted), t3. After the UNDO of t2 the page
        // holds (t1, t3); the auditor rechains the survivors.
        let t1 = sha256(b"t1");
        let t2 = sha256(b"t2");
        let t3 = sha256(b"t3");
        let with_t2 = HsChain::of_hashes([&t1, &t2, &t3]);
        let without_t2 = HsChain::of_hashes([&t1, &t3]);
        assert_ne!(with_t2, without_t2);
        // A read before the abort must match the chain including t2:
        assert_eq!(HsChain::of([b"t1".as_slice(), b"t2".as_slice(), b"t3".as_slice()]), with_t2);
    }

    #[test]
    fn not_length_extension_trivial() {
        // A chain over [x] differs from the bare hash of x.
        let mut c = HsChain::new();
        c.extend(b"x");
        assert_ne!(c.value(), sha256(b"x"));
    }
}
