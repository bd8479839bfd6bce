//! Property-based tests for the RNG stream derivation.

use fairswap_simcore::derive_rng;
use proptest::prelude::*;

proptest! {
    /// RNG stream derivation: distinct cells give distinct streams, and the
    /// derivation is a pure function.
    #[test]
    fn rng_derivation_is_pure_and_distinct(seed in any::<u64>(), p in 0usize..16, r in 0u32..16) {
        use rand::RngCore;
        let a: Vec<u64> = { let mut g = derive_rng(seed, p, r); (0..4).map(|_| g.next_u64()).collect() };
        let b: Vec<u64> = { let mut g = derive_rng(seed, p, r); (0..4).map(|_| g.next_u64()).collect() };
        prop_assert_eq!(&a, &b);
        let c: Vec<u64> = { let mut g = derive_rng(seed, p + 1, r); (0..4).map(|_| g.next_u64()).collect() };
        prop_assert_ne!(&a, &c);
    }
}
