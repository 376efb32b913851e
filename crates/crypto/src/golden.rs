//! Digests pinned from the scalar-only implementation that preceded the
//! hardware kernel, checked on every kernel this CPU can run. A kernel swap
//! must leave every stored hash, fold and signature bit-identical; these
//! cover each consumer in the crate.

use ccdb_common::SplitMix64;

use crate::sha256::tests::on_each_kernel;
use crate::{sha256, to_hex, AddHash, HsChain, LamportKeyPair, Sha256};

fn seeded_elements(seed: u64, count: usize, max_len: usize) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut e = vec![0u8; rng.gen_range(0..=max_len)];
            rng.fill_bytes(&mut e);
            e
        })
        .collect()
}

#[test]
fn addhash_of_seeded_set() {
    let set = seeded_elements(0xADD0_4A54, 200, 300);
    on_each_kernel(|kernel| {
        assert_eq!(
            to_hex(&AddHash::of(set.iter().map(Vec::as_slice)).to_bytes()),
            "b238af620daab6f6cd24d1dc1900f4ded05a15e511c76c8d3e1be69d0d9e3803\
             31700018bf26b6c37ee3ba98dff570245fdbe6cd4cd9afdcee170ffe56d19172",
            "{kernel}"
        );
    });
}

#[test]
fn hs_chain_over_30_tuples() {
    let tuples = seeded_elements(0x4B5_C4A1, 30, 200);
    on_each_kernel(|kernel| {
        assert_eq!(
            to_hex(&HsChain::of(tuples.iter().map(Vec::as_slice)).value()),
            "fefc4b14e1d54a2cc1d2323396fa48a3fe85973062efeddcd6cb3411a118515b",
            "{kernel}"
        );
    });
}

#[test]
fn lamport_key_and_signature() {
    on_each_kernel(|kernel| {
        let kp = LamportKeyPair::from_seed(&[7u8; 32]);
        assert_eq!(
            to_hex(&kp.public_key().fingerprint()),
            "72ee169682f5ea67403f8668c2dd09cbeecb44f9db571b6f2f3bab4984a451fd",
            "{kernel}: public-key fingerprint"
        );
        let sig = kp.sign(b"ccdb golden head");
        assert_eq!(
            to_hex(&sha256(&sig.to_bytes())),
            "838693436c933b51b193fc58591c830600034fd26b07e740d9334918f4eda048",
            "{kernel}: signature"
        );
        assert!(kp.public_key().verify(b"ccdb golden head", &sig), "{kernel}: verify");
    });
}

#[test]
fn page_4k_digest() {
    let mut page = vec![0u8; 4096];
    SplitMix64::seed_from_u64(0x9A6E_4096).fill_bytes(&mut page);
    on_each_kernel(|kernel| {
        assert_eq!(
            to_hex(&sha256(&page)),
            "7ce93247c0366e215bb9f8a8c0ef687d1c76cd97f8e41b59e83d0e59d513ca20",
            "{kernel}"
        );
    });
}

#[test]
fn every_length_0_to_1100() {
    let mut data = vec![0u8; 1100];
    SplitMix64::seed_from_u64(0x1100).fill_bytes(&mut data);
    on_each_kernel(|kernel| {
        let mut all = Sha256::new();
        for n in 0..=data.len() {
            all.update(&sha256(&data[..n]));
        }
        assert_eq!(
            to_hex(&all.finalize()),
            "f05c510ead4ecc3de597b972e083d25ec77db042c5a034ae170fc40e8b98a47d",
            "{kernel}"
        );
    });
}
