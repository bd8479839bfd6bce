//! Determinism contract: the paper fixes a single seed for all
//! experiments; our reproduction must be bit-stable for a fixed seed, on
//! any machine, across runs.

use fairswap::core::SimSpec;
use fairswap::kademlia::{AddressSpace, TopologyBuilder};

#[test]
fn identical_seeds_give_identical_reports() {
    let run = |seed: u64| {
        let mut spec = SimSpec::paper_defaults();
        spec.topology.nodes = 200;
        spec.workload.originator_fraction = 0.2;
        spec.workload.files = 60;
        spec.seed = seed;
        spec.build().expect("valid configuration").run()
    };
    let a = run(0xFA12);
    let b = run(0xFA12);
    assert_eq!(a.traffic().forwarded(), b.traffic().forwarded());
    assert_eq!(
        a.traffic().served_first_hop(),
        b.traffic().served_first_hop()
    );
    assert_eq!(a.incomes(), b.incomes());
    assert_eq!(a.settlement_count(), b.settlement_count());
    assert_eq!(a.amortized_total(), b.amortized_total());

    let c = run(0xFA13);
    assert_ne!(a.traffic().forwarded(), c.traffic().forwarded());
}

#[test]
fn topology_is_portable_across_invocations() {
    let build = || {
        TopologyBuilder::new(AddressSpace::new(16).expect("valid width"))
            .nodes(500)
            .bucket_size(4)
            .seed(0xFA12)
            .build()
            .expect("valid topology")
    };
    let a = build();
    let b = build();
    // Same addresses and same sampled tables: the paper's "use the same
    // overlay for multiple simulations" workflow.
    for node in a.node_ids() {
        assert_eq!(a.address(node), b.address(node));
    }
    assert!(a.tables().eq(b.tables()), "tables must match");
}
