//! Golden pin of membership repair at benchmark scale: 2 000 nodes in a
//! 16-bit space, k = 4 and k = 20, through a fixed seeded sequence of
//! leaves and joins. The reference-model property stops at 80 nodes; this
//! pins every table entry, in order, at the scale where repair costs the
//! most, so a faster `remove_node` / `add_node` must reproduce it exactly.

use fairswap_kademlia::{AddressSpace, NodeId, Topology, TopologyBuilder};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// 64-bit FNV-1a, fed one `u64` at a time (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of every table: per owner, per bucket, its length and its peer
/// ids in bucket order.
fn tables_digest(t: &Topology) -> u64 {
    let mut h = Fnv::new();
    for table in t.tables() {
        for bucket in table.buckets() {
            h.write(bucket.len() as u64);
            for (peer, _) in bucket.iter() {
                h.write(peer.index() as u64);
            }
        }
    }
    h.0
}

/// Builds the 2 000-node overlay at `k` and applies 300 rounds of up to 5
/// leaves and 5 joins each (a live floor of 1 500 nodes), folding the
/// table digest after every 30 rounds into the result.
fn churned_digest(k: usize) -> u64 {
    let mut t = TopologyBuilder::new(AddressSpace::new(16).unwrap())
        .nodes(2_000)
        .bucket_size(k)
        .seed(0x6014_0E11)
        .build()
        .unwrap();
    let mut rng = ChaCha12Rng::seed_from_u64(0xC4A2 + k as u64);
    let mut offline: Vec<NodeId> = Vec::new();
    let mut folded = Fnv::new();
    for round in 0..300 {
        for _ in 0..rng.gen_range(0..=5) {
            if t.live_count() <= 1_500 {
                break;
            }
            let live: Vec<NodeId> = t.live_ids().collect();
            let node = live[rng.gen_range(0..live.len())];
            t.remove_node(node).unwrap();
            offline.push(node);
        }
        for _ in 0..rng.gen_range(0..=5) {
            if offline.is_empty() {
                break;
            }
            let node = offline.swap_remove(rng.gen_range(0..offline.len()));
            t.add_node(node).unwrap();
        }
        if round % 30 == 29 {
            folded.write(tables_digest(&t));
        }
    }
    t.validate().unwrap();
    folded.0
}

#[test]
fn membership_at_benchmark_scale_matches_the_pinned_tables() {
    assert_eq!(
        [churned_digest(4), churned_digest(20)],
        [0x0f9d_e29a_ce2c_a795, 0xdfd3_a7d1_69d8_791e],
        "table digests at k = 4 and k = 20"
    );
}
