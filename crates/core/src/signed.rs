//! Signed three-file artifacts on WORM, shared by snapshots and epoch heads.
//!
//! Both are a body, a Lamport signature over a digest of it, and the
//! one-time public key, written as three sequential WORM files. A crash
//! mid-write leaves a partial **generation** that can never be finished in
//! place — WORM files are append-only and a retry's body may differ
//! (recovery changed the state, the clock moved) — so the retry writes the
//! next free generation (`<base>`, `<base>.r1`, `<base>.r2`, …) and only a
//! generation with **all three files sealed** counts.

use ccdb_common::{Error, Result, Timestamp};
use ccdb_crypto::{Digest, LamportKeyPair, LamportPublicKey, LamportSignature};
use ccdb_worm::WormServer;

/// One complete generation as it sits on WORM: just written, or loaded and
/// verified against the expected key.
pub(crate) struct Signed {
    /// WORM name of the body file.
    pub(crate) name: String,
    pub(crate) body: Vec<u8>,
    pub(crate) sig_bytes: Vec<u8>,
    pub(crate) pub_bytes: Vec<u8>,
}

fn gen_name(base: &str, generation: u64) -> String {
    if generation == 0 {
        base.to_string()
    } else {
        format!("{base}.r{generation}")
    }
}

/// The body name of the highest generation of `base` whose body, `.sig` and
/// `.pub` files are all sealed and non-empty, if any.
pub(crate) fn complete_generation(worm: &WormServer, base: &str) -> Option<String> {
    let sealed = |name: &str| worm.stat(name).is_ok_and(|m| m.sealed && m.len > 0);
    let mut best = None;
    for generation in 0u64.. {
        let name = gen_name(base, generation);
        if !worm.exists(&name) {
            break;
        }
        if sealed(&name) && sealed(&format!("{name}.sig")) && sealed(&format!("{name}.pub")) {
            best = Some(name);
        }
    }
    best
}

/// Signs `message_of(body)` (the artifact's own domain-separated digest)
/// and writes body, signature and public key as the next free generation of
/// `base`. At most one generation ever completes per artifact: a completed
/// one ends the operation that writes it.
pub(crate) fn write(
    worm: &WormServer,
    base: &str,
    body: Vec<u8>,
    message_of: impl FnOnce(&[u8]) -> Digest,
    kp: &LamportKeyPair,
    retention_until: Timestamp,
) -> Result<Signed> {
    let sig_bytes = kp.sign(&message_of(&body)).to_bytes();
    let pub_bytes = kp.public_key().to_bytes();
    let mut generation = 0u64;
    while worm.exists(&gen_name(base, generation)) {
        generation += 1;
    }
    let name = gen_name(base, generation);
    for (file, bytes) in [
        (name.clone(), body.as_slice()),
        (format!("{name}.sig"), sig_bytes.as_slice()),
        (format!("{name}.pub"), pub_bytes.as_slice()),
    ] {
        let f = worm.create(&file, retention_until)?;
        worm.append(&f, bytes)?;
        worm.seal(&file)?;
    }
    Ok(Signed { name, body, sig_bytes, pub_bytes })
}

/// Loads the highest complete generation of `base` and checks it: the key
/// must re-derive from the auditor lineage (`expect`) and the signature
/// must verify over `message_of(body)`. `Ok(None)` when no generation ever
/// completed; `what` names the artifact in errors.
pub(crate) fn load(
    worm: &WormServer,
    base: &str,
    what: &str,
    expect: &LamportKeyPair,
    message_of: impl FnOnce(&[u8]) -> Digest,
) -> Result<Option<Signed>> {
    let Some(name) = complete_generation(worm, base) else { return Ok(None) };
    let body = worm.read_all(&name)?;
    let sig_bytes = worm.read_all(&format!("{name}.sig"))?;
    let pub_bytes = worm.read_all(&format!("{name}.pub"))?;
    let sig = LamportSignature::from_bytes(&sig_bytes)
        .ok_or_else(|| Error::corruption(format!("malformed {what} signature")))?;
    let pk = LamportPublicKey::from_bytes(&pub_bytes)
        .ok_or_else(|| Error::corruption(format!("malformed {what} public key")))?;
    if expect.public_key().fingerprint() != pk.fingerprint() {
        return Err(Error::corruption(format!("{what} public key does not match auditor lineage")));
    }
    if !pk.verify(&message_of(&body), &sig) {
        return Err(Error::corruption(format!("{what} signature verification failed")));
    }
    Ok(Some(Signed { name, body, sig_bytes, pub_bytes }))
}
