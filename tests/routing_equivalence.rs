//! Detour-routing equivalence: with unlimited capacity the
//! `CapacityDetour` policy must be bit-for-bit the `Greedy` policy — the
//! detour slow path can only fire on a saturated hop, and nothing ever
//! saturates. Mirrors the next_hop-equivalence methodology that pinned
//! the arena routing rewrite: proptest over seeds at the storage layer,
//! plus byte-identical CSV artifacts at the simulation layer.

use proptest::prelude::*;

use fairswap::core::{BucketSizing, CsvTable, RoutePolicy, ScenarioKind, SimSpec};
use fairswap::kademlia::{AddressSpace, NodeId, TopologyBuilder};
use fairswap::storage::{CachePolicy, DownloadSim};

/// A two-tier scenario whose both tiers are effectively infinite: the
/// capacity machinery runs (stamps, budget checks) but never saturates.
const UNLIMITED: ScenarioKind = ScenarioKind::Heterogeneity {
    slow_fraction: 0.3,
    slow_budget: 1 << 40,
    fast_budget: 1 << 40,
};

proptest! {
    /// Storage layer: every route, outcome and counter agrees chunk for
    /// chunk across random overlays, origins and workloads.
    #[test]
    fn unlimited_capacity_detour_routes_equal_greedy_routes(
        nodes in 2usize..150,
        k in 1usize..6,
        seed in any::<u64>(),
        raws in prop::collection::vec(any::<u64>(), 1..40),
        origin_pick in any::<usize>(),
    ) {
        let t = std::rc::Rc::new(
            TopologyBuilder::new(AddressSpace::new(12).expect("valid width"))
                .nodes(nodes)
                .bucket_size(k)
                .seed(seed)
                .build()
                .expect("valid topology"),
        );
        let origin = NodeId(origin_pick % t.len());
        let mut greedy = DownloadSim::new(t.clone(), CachePolicy::None);
        greedy.set_capacities(vec![u64::MAX; t.len()]);
        let mut detour = DownloadSim::new(t.clone(), CachePolicy::None);
        detour.set_route_policy(RoutePolicy::CapacityDetour { max_detours: 5 });
        detour.set_capacities(vec![u64::MAX; t.len()]);
        for &raw in &raws {
            let chunk = t.space().address_truncated(raw);
            let a = greedy.request_chunk(origin, chunk);
            let b = detour.request_chunk(origin, chunk);
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(greedy.stats(), detour.stats());
        prop_assert_eq!(detour.stats().detoured(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Simulation layer: full runs (workload, incentives, settlement)
    /// render byte-identical per-node CSV artifacts.
    #[test]
    fn unlimited_capacity_full_runs_render_identical_csv(
        seed in any::<u64>(),
        k_pick in 0usize..2,
    ) {
        let k = [4usize, 20][k_pick];
        let csv_of = |route: RoutePolicy| {
            let mut spec = SimSpec::paper_defaults();
            spec.topology.nodes = 120;
            spec.topology.bucket_sizing = BucketSizing::uniform(k);
            spec.workload.files = 30;
            spec.seed = seed;
            spec.dynamics.scenario = Some(UNLIMITED);
            spec.policies.route = route;
            let report = spec.build().expect("valid config").run();
            let mut csv = String::from("node,forwarded,first_hop,income\n");
            for node in 0..report.node_count() {
                csv += &format!(
                    "{node},{},{},{}\n",
                    report.traffic().forwarded()[node],
                    report.traffic().served_first_hop()[node],
                    CsvTable::fmt_float(report.incomes()[node]),
                );
            }
            (csv, report.traffic().detoured())
        };
        let (greedy_csv, greedy_detours) = csv_of(RoutePolicy::Greedy);
        let (detour_csv, detour_detours) = csv_of(RoutePolicy::CapacityDetour { max_detours: 3 });
        prop_assert_eq!(greedy_csv, detour_csv);
        prop_assert_eq!(greedy_detours, 0);
        prop_assert_eq!(detour_detours, 0);
    }
}
