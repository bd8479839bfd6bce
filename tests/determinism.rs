//! Determinism contract: the paper fixes a single seed for all
//! experiments; our reproduction must be bit-stable for a fixed seed, on
//! any machine, across runs.

use fairswap::core::SimSpec;
use fairswap::kademlia::{AddressSpace, TopologyBuilder};
use fairswap::workload::{WorkloadBuilder, WorkloadTrace};

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

#[test]
fn workload_traces_replay_identically() {
    let space = AddressSpace::new(16).expect("valid width");
    let mut w1 = WorkloadBuilder::new(space, 100)
        .originator_fraction(0.2)
        .seed(7)
        .build()
        .expect("valid workload");
    let mut w2 = WorkloadBuilder::new(space, 100)
        .originator_fraction(0.2)
        .seed(7)
        .build()
        .expect("valid workload");
    let t1 = WorkloadTrace::capture(&mut w1, 25);
    let t2 = WorkloadTrace::capture(&mut w2, 25);
    assert_eq!(t1, t2);
    assert_eq!(t1.total_chunks(), t2.total_chunks());
}

#[test]
fn trace_serde_round_trip() {
    let space = AddressSpace::new(16).expect("valid width");
    let mut workload = WorkloadBuilder::new(space, 50)
        .seed(3)
        .build()
        .expect("valid workload");
    let trace = WorkloadTrace::capture(&mut workload, 5);
    let json = serde_json::to_string(&trace).expect("serializable");
    let back: WorkloadTrace = serde_json::from_str(&json).expect("deserializable");
    assert_eq!(trace, back);
}
