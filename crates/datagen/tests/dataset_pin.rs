//! The generated dataset's bytes, pinned.
//!
//! Term ids are first-occurrence order and every snapshot, shard graph and
//! pinned work unit downstream depends on them; these values were recorded
//! at the commit before `GraphBuilder` existed (PR 22) and fail if a
//! refactor of the build path renumbers a term or moves a row.

use sapphire_datagen::{generate, DatasetConfig};
use sapphire_rdf::{snapshot, Graph, Partitioner};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// (terms, triples, FNV-1a-64 of the encoded snapshot).
fn fingerprint(g: &Graph) -> (usize, usize, u64) {
    let bytes = snapshot::encode(g).expect("a generated graph encodes");
    (g.interner().len(), g.len(), fnv1a64(&bytes))
}

#[test]
fn tiny_42_and_its_first_shard_keep_their_bytes() {
    let g = generate(DatasetConfig::tiny(42));
    assert_eq!(
        fingerprint(&g),
        (782, 1723, 10_632_741_435_067_844_340),
        "tiny(42)"
    );
    let split = Partitioner::new(2).split(&g);
    assert_eq!(
        fingerprint(&split.shards[0]),
        (445, 874, 6_014_466_447_378_666_339),
        "shard 0 of a 2-way split of tiny(42)"
    );
}
