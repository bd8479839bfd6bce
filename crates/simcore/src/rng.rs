//! Deterministic RNG streams.

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// The workspace's one RNG type.
///
/// ChaCha12 is portable and reproducible across platforms and Rust
/// versions, unlike [`rand::rngs::StdRng`], whose algorithm is not
/// stability-guaranteed. The paper fixes one seed for all experiments; a
/// stable generator is what makes that meaningful.
pub type SimRng = ChaCha12Rng;

/// Derives an independent RNG stream for one `(seed, param_index, run)`
/// cell of a sweep.
///
/// Uses SplitMix64-style avalanche mixing so that neighbouring runs and
/// parameter indices produce statistically unrelated streams.
pub fn derive_rng(seed: u64, param_index: usize, run: u32) -> SimRng {
    ChaCha12Rng::seed_from_u64(mix(seed
        ^ (param_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ u64::from(run).wrapping_mul(0xBF58_476D_1CE4_E5B9)))
}

/// Named domains for [`sub_seed`] / [`sub_rng`].
///
/// Every concern that forks its own RNG stream off a simulation's master
/// seed gets one tag here, replacing the magic offsets
/// (`0x5EED_F00D`-style constants) that used to be scattered across the
/// consuming crates. Two domains never collide after mixing, and adding a
/// new concern is one new constant instead of a new ad-hoc offset.
pub mod domain {
    /// Topology construction (address sampling and bucket filling).
    pub const TOPOLOGY: u64 = 0x01;
    /// Workload generation (originator pool, file sizes, chunk draws).
    pub const WORKLOAD: u64 = 0x02;
    /// Free-rider sampling.
    pub const FREE_RIDERS: u64 = 0x03;
    /// Churn plan generation (session/downtime lifetimes).
    pub const CHURN: u64 = 0x04;
    /// Departure-order shuffles in epoch-style churn experiments. No
    /// concern draws from it now; the value stays reserved so no later
    /// domain reuses `0x05`.
    pub const DEPARTURES: u64 = 0x05;
    /// Scenario compilation (region anchors, capacity tiers, cohort
    /// sampling).
    pub const SCENARIO: u64 = 0x06;
    /// Fuzz-campaign mutation scheduling (parent selection, axis choice,
    /// candidate seeds). Keeping the fuzzer in its own domain means a fuzz
    /// campaign seeded with a config's master seed can never replay the
    /// streams that built that config's topology or workload.
    pub const FUZZ: u64 = 0x07;
}

/// Derives the sub-seed of one `domain` (see [`domain`]) from a master
/// seed.
///
/// The derivation is an avalanche mix, not an additive offset: every bit of
/// the master seed influences every bit of each sub-seed, and sub-seeds of
/// neighbouring master seeds share no structure. The derivation is
/// tagged (fixed constant plus a multiplier distinct from
/// [`derive_rng`]'s) so that a domain sub-stream can never alias the
/// `(param_index, run)` cell streams for the same master seed —
/// otherwise a sweep cell would replay the stream that sampled e.g. the
/// workload pool.
pub fn sub_seed(master: u64, domain: u64) -> u64 {
    // Tag separating the domain-fork keyspace from cell streams (which
    // have no tag), plus Murmur3's finalizer multiplier instead of
    // `derive_rng`'s golden-ratio constant.
    const DOMAIN_TAG: u64 = 0x5FAB_1E5C_0FFE_E000;
    mix(master ^ DOMAIN_TAG ^ domain.wrapping_mul(0xFF51_AFD7_ED55_8CCD))
}

/// A fresh RNG stream for one `domain` of a master seed — the one way all
/// crates fork sub-RNGs (topology vs workload vs churn, ...).
pub fn sub_rng(master: u64, domain: u64) -> SimRng {
    ChaCha12Rng::seed_from_u64(sub_seed(master, domain))
}

/// SplitMix64 finalizer.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn same_cell_same_stream() {
        let mut a = derive_rng(1, 2, 3);
        let mut b = derive_rng(1, 2, 3);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn sub_seeds_separate_domains() {
        let master = 0xFA12;
        let mut seen = std::collections::HashSet::new();
        for d in [
            domain::TOPOLOGY,
            domain::WORKLOAD,
            domain::FREE_RIDERS,
            domain::CHURN,
            domain::DEPARTURES,
            domain::SCENARIO,
            domain::FUZZ,
        ] {
            assert!(seen.insert(sub_seed(master, d)), "domain {d} collides");
            assert_ne!(sub_seed(master, d), master);
        }
        // Stable across calls, sensitive to the master seed.
        assert_eq!(
            sub_seed(master, domain::CHURN),
            sub_seed(master, domain::CHURN)
        );
        assert_ne!(
            sub_seed(master, domain::CHURN),
            sub_seed(master + 1, domain::CHURN)
        );
        let mut a = sub_rng(master, domain::WORKLOAD);
        let mut b = sub_rng(master, domain::WORKLOAD);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn sub_seeds_never_alias_cell_streams() {
        // A domain sub-stream must differ from every small cell
        // stream of the same master seed (they use distinct derivations).
        for master in [0u64, 1, 0xFA12, u64::MAX] {
            for d in 0..8u64 {
                for p in 0..8usize {
                    let mut cell = derive_rng(master, p, 0);
                    let mut sub = sub_rng(master, d);
                    assert_ne!(
                        cell.next_u64(),
                        sub.next_u64(),
                        "domain {d} aliases cell {p} for master {master:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn different_cells_differ() {
        let base: Vec<u64> = {
            let mut r = derive_rng(1, 0, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        for (seed, param, run) in [(2, 0, 0), (1, 1, 0), (1, 0, 1)] {
            let mut r = derive_rng(seed, param, run);
            let other: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
            assert_ne!(base, other, "cell ({seed},{param},{run})");
        }
    }
}
