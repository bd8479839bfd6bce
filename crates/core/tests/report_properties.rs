//! Property-based tests over full simulation runs with randomized
//! configurations.

use fairswap_core::{BucketSizing, MechanismKind, SimSpec};
use fairswap_storage::CachePolicy;
use fairswap_workload::{ChunkDist, FileSizeDist};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Report internal consistency holds for arbitrary small configs:
    /// hop-histogram totals match delivered chunks, incomes match the
    /// ledger, F1/F2 stay in range.
    #[test]
    fn report_is_internally_consistent(
        nodes in 20usize..120,
        k in 1usize..8,
        fraction_pct in 1u32..=100,
        files in 1u64..40,
        seed in any::<u64>(),
    ) {
        let mut spec = SimSpec::paper_defaults();
        spec.topology.nodes = nodes;
        spec.topology.bucket_sizing = BucketSizing::uniform(k);
        spec.workload.originator_fraction = f64::from(fraction_pct) / 100.0;
        spec.workload.files = files;
        spec.workload.file_size = FileSizeDist::Uniform { min: 5, max: 40 };
        spec.seed = seed;
        let report = spec.build().expect("valid configuration").run();

        // Histogram counts every delivered chunk exactly once.
        let requests: u64 = report.traffic().requests_issued().iter().sum();
        let stuck = report.traffic().stuck_requests();
        prop_assert_eq!(report.hops().total_routes(), requests - stuck);

        // Income <=> ledger (Swarm pays through the ledger 1:1).
        let income: f64 = report.incomes().iter().sum();
        prop_assert_eq!(income as u64, report.settlement_volume());

        // Fairness metrics in range whenever defined.
        let f2 = report.f2_income_gini();
        prop_assert!((0.0..=1.0).contains(&f2));
        let f1 = report.f1_contribution_gini();
        prop_assert!((0.0..=1.0).contains(&f1));

        // Forwarded >= first-hop serves >= 0 per node.
        for (fwd, fh) in report
            .traffic()
            .forwarded()
            .iter()
            .zip(report.traffic().served_first_hop())
        {
            prop_assert!(fwd >= fh);
        }
    }

    /// Caching never increases total forwarded traffic, for any workload.
    #[test]
    fn caching_never_increases_traffic(
        nodes in 30usize..100,
        files in 1u64..25,
        seed in any::<u64>(),
        zipf in any::<bool>(),
    ) {
        let chunk_dist = if zipf {
            ChunkDist::Zipf { catalog: 200, exponent: 1.0 }
        } else {
            ChunkDist::Uniform
        };
        let run = |cache: CachePolicy| {
            let mut spec = SimSpec::paper_defaults();
            spec.topology.nodes = nodes;
            spec.workload.files = files;
            spec.workload.file_size = FileSizeDist::Constant(25);
            spec.workload.chunk_dist = chunk_dist.clone();
            spec.policies.cache = cache;
            spec.seed = seed;
            spec.build().expect("valid configuration").run()
        };
        let plain = run(CachePolicy::None);
        let cached = run(CachePolicy::Lru { capacity: 128 });
        prop_assert!(cached.total_forwarded() <= plain.total_forwarded());
    }

    /// All mechanisms keep incomes non-negative and deterministic per seed.
    #[test]
    fn mechanisms_are_deterministic(
        seed in any::<u64>(),
        which in 0usize..5,
    ) {
        let mechanism = [
            MechanismKind::Swarm,
            MechanismKind::PayAllHops,
            MechanismKind::TitForTat,
            MechanismKind::EffortBased { budget_per_tick: 500 },
            MechanismKind::ProofOfBandwidth { mint_per_chunk: 1 },
        ][which];
        let run = || {
            let mut spec = SimSpec::paper_defaults();
            spec.topology.nodes = 50;
            spec.workload.files = 8;
            spec.workload.file_size = FileSizeDist::Constant(10);
            spec.seed = seed;
            spec.economics.mechanism = mechanism;
            spec.build().expect("valid configuration").run()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.incomes(), b.incomes());
        prop_assert!(a.incomes().iter().all(|&v| v >= 0.0));
    }
}

#[test]
fn zero_bucket_dominates_first_hop_load() {
    // §III-B: "during a file download, nodes in zero-proximity receive
    // significantly more requests" — bucket 0 covers ~half the address
    // space, so roughly half of all paid first hops come from it, far more
    // than from any deeper bucket.
    let mut spec = SimSpec::paper_defaults();
    spec.topology.nodes = 300;
    spec.workload.files = 100;
    let report = spec.build().expect("valid configuration").run();
    let counts = report.first_hop_bucket_counts();
    let share = report.zero_bucket_first_hop_share();
    assert!(share > 0.35, "bucket-0 share {share}");
    assert!(
        counts[0] > counts[1..].iter().copied().max().unwrap_or(0),
        "bucket 0 must carry the most first-hop load: {counts:?}"
    );
    // Counts decay with bucket depth overall (halving candidate sets).
    assert!(counts[0] > 4 * counts[4].max(1));
}
