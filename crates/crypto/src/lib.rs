//! Cryptographic primitives for the compliant DBMS, implemented from scratch.
//!
//! The paper's architecture needs four primitives:
//!
//! * a conventional secure one-way hash `h` — [`sha256`], a FIPS 180-4
//!   SHA-256 implementation validated against the NIST test vectors,
//!   hardware-dispatched via `std::arch` (the x86-64 SHA extensions where
//!   the CPU has them) with a scalar fallback and identical digests;
//! * the **ADD-HASH** commutative incremental *set* hash of Bellare and
//!   Micciancio (`H({a₁..aₙ}) = Σ h'(aᵢ) mod 2⁵¹²`) — [`addhash`] — which the
//!   auditor uses for the single-pass tuple-completeness check
//!   `H(Ds ∪ L) = H(Df)`;
//! * the **sequential page hash** `Hs` — [`seqhash`] — an append-extendable
//!   hash chain over a page's tuples in tuple-order-number order, logged by
//!   the hash-page-on-read refinement and replayed by the auditor;
//! * a **digital signature** for the auditor's snapshot attestations —
//!   [`lamport`], Lamport one-time signatures over SHA-256 (the paper only
//!   needs "the auditor's digital signature testifying that the snapshot is
//!   correct"; an OTS per audit is exactly that).
//!
//! Every primitive hashes through the one block-compression entry point
//! `sha256::compress_blocks`. Its SHA-NI kernel is the only `unsafe` code
//! in the workspace: it is confined to one private module of [`mod@sha256`]
//! plus the dispatch call into it, and the rest of this crate is held to
//! `deny(unsafe_code)`.

#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod addhash;
pub mod lamport;
pub mod seqhash;
pub mod sha256;

#[cfg(test)]
mod golden;

pub use addhash::AddHash;
pub use lamport::{LamportKeyPair, LamportPublicKey, LamportSignature};
pub use seqhash::HsChain;
pub use sha256::{sha256, Digest, Sha256};

/// Renders a digest (or any byte string) as lowercase hex.
pub fn to_hex(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(HEX[(b >> 4) as usize] as char);
        s.push(HEX[(b & 0xf) as usize] as char);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_rendering() {
        assert_eq!(to_hex(&[0x00, 0xff, 0x1a]), "00ff1a");
        assert_eq!(to_hex(&[]), "");
    }
}
