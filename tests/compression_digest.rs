//! Byte-exact pin of the certificate compressor.
//!
//! Compressed lengths feed Table 1 and the §4.2 study, and they depend on
//! every stage of the compressor (LZ77 tokens, Huffman code lengths,
//! container framing). This test compresses a fixed corpus of real TLS
//! Certificate messages with all three algorithms and compares a digest of
//! the output bytes against values recorded before the flat Huffman
//! length builder replaced the tree-based one, so any change to a single
//! compressed byte fails here.
//!
//! The corpus digest is pinned separately: if it moves, the corpus (world
//! generation or certificate encoding) changed, not the compressor.

use quicert::compress::{compress, decompress, Algorithm};
use quicert::pki::{CertificateEra, World, WorldConfig};
use quicert::tls::certificate_message;

/// FNV-1a over length-prefixed items.
fn digest<'a>(items: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for item in items {
        for &b in (item.len() as u64).to_le_bytes().iter().chain(item) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Certificate messages of the first 60 TLS-reachable domains of a fixed
/// world, classical era, plus every fifth of them re-issued in the hybrid
/// and post-quantum eras (large, mostly incompressible ML-DSA material).
fn corpus() -> Vec<Vec<u8>> {
    let world = World::generate(WorldConfig {
        domains: 120,
        seed: 0xD16E_5701,
        ..WorldConfig::default()
    });
    let reachable: Vec<_> = world
        .domains()
        .iter()
        .filter(|r| r.has_https())
        .take(60)
        .collect();
    assert_eq!(reachable.len(), 60, "corpus world is too small");
    let mut messages = Vec::new();
    for record in &reachable {
        let chain = world.https_chain(record).expect("reachable");
        messages.push(certificate_message(&chain));
    }
    for era in [CertificateEra::Hybrid, CertificateEra::PostQuantum] {
        for record in reachable.iter().step_by(5) {
            let chain = world.https_chain_era(record, era).expect("reachable");
            messages.push(certificate_message(&chain));
        }
    }
    messages
}

#[test]
fn compressor_output_is_byte_identical_to_the_recorded_digest() {
    let corpus = corpus();
    assert_eq!(
        digest(corpus.iter().map(Vec::as_slice)),
        CORPUS_DIGEST,
        "the corpus changed; the compressor pin below is meaningless until it is re-recorded"
    );
    for (algorithm, want) in Algorithm::ALL.into_iter().zip(OUTPUT_DIGESTS) {
        let outputs: Vec<Vec<u8>> = corpus.iter().map(|m| compress(algorithm, m)).collect();
        for (message, output) in corpus.iter().zip(&outputs) {
            let back = decompress(output, algorithm.dictionary()).expect("decompress");
            assert_eq!(&back, message, "{algorithm} roundtrip");
        }
        assert_eq!(
            digest(outputs.iter().map(Vec::as_slice)),
            want,
            "{algorithm} output bytes changed"
        );
    }
}

/// Digest of the corpus messages themselves.
const CORPUS_DIGEST: u64 = 0xFBBC_5F64_5542_6C92;

/// Digests of the compressed corpus, in [`Algorithm::ALL`] order,
/// recorded with the tree-based Huffman builder.
const OUTPUT_DIGESTS: [u64; 3] = [
    0x4A25_9066_9E02_56C0,
    0x813B_ED23_FD29_08F5,
    0xD54E_0540_0BE4_F8EC,
];
