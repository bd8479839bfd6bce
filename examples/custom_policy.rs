//! Compose the built-in routing, caching and repair policies on one spec
//! and run it through the public API.
//!
//! ```sh
//! cargo run --release --example custom_policy
//! ```
//!
//! Every policy is a closed, serde-stable enum on the [`SimSpec`] (and in
//! its JSON document for `fairswap run --config`): pick a [`RoutePolicy`],
//! a [`CachePolicy`] and a [`RepairPolicy`], and for re-replication a
//! [`RepairSource`]. The engine runs all of them itself; repair fires once
//! per departure and once per step for the due re-uploads.

use fairswap::core::{
    CachePolicy, ChurnConfig, RepairPolicy, RepairSource, RoutePolicy, ScenarioKind, SimSpec,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Detour routing plus a churn-aware TTL cache, under 10% background
    // churn and two-tier bandwidth budgets (which give the detour policy
    // something to dodge), with lost storage neighborhoods re-replicated.
    let mut spec = SimSpec::paper_defaults();
    spec.topology.nodes = 300;
    spec.workload.files = 200;
    spec.dynamics.churn = Some(ChurnConfig::from_rate(0.1)?);
    spec.dynamics.scenario = Some(ScenarioKind::Heterogeneity {
        slow_fraction: 0.3,
        slow_budget: 4,
        fast_budget: 64,
    });
    spec.policies.route = RoutePolicy::CapacityDetour { max_detours: 3 };
    spec.policies.cache = CachePolicy::Ttl {
        capacity: 512,
        ttl: 4096,
    };
    spec.policies.repair = RepairPolicy::ReReplicate {
        neighborhood_bits: 8,
    };

    // The same run with each repair source: the surviving replica next
    // to the lost region, or the originator farthest from it.
    for source in [RepairSource::Replica, RepairSource::Originator] {
        spec.policies.repair_source = source;
        let report = spec.build()?.run();
        let churn = report.churn().expect("churned runs track membership");
        println!("repair source:          {}", source.id());
        println!("departures applied:     {}", churn.leaves);
        println!("repair events:          {}", churn.repair_events);
        println!(
            "repair transfers:       {}",
            report.traffic().repair_transfers()
        );
        println!(
            "mean time to repair:    {:.2}",
            report.mean_time_to_repair()
        );
        println!("cache hits:             {}", report.cache_hits());
        println!("detoured hops:          {}", report.traffic().detoured());
        println!("F2 income gini:         {:.4}", report.f2_income_gini());
        println!();
    }

    // The policy selection as a serde-stable spec document (what
    // `fairswap run --config FILE` executes).
    println!("spec document: {}", spec.to_json()?);
    Ok(())
}
