//! Define a repair policy of your own and run it through the public API,
//! alongside the built-in routing and caching policies.
//!
//! ```sh
//! cargo run --release --example custom_policy
//! ```
//!
//! The policy layer has two kinds of extension points:
//!
//! * **Closed, serde-stable enums** for the hot path: pick a
//!   [`RoutePolicy`] and [`CachePolicy`] in the [`SimSpec`] (or in its
//!   JSON document for `fairswap run --config`).
//! * **An open trait** off the hot path: implement [`RepairHook`] and
//!   inject it with [`BandwidthSim::run_with_repair`] — the simulation
//!   calls it after every applied departure.

use fairswap::core::policy::RepairHook;
use fairswap::core::{CachePolicy, ChurnConfig, RoutePolicy, ScenarioKind, SimSpec};
use fairswap::kademlia::{NodeId, Topology};

/// A user-defined repair policy: besides flagging emptied neighborhoods
/// (what the built-in `ReReplicate` stub counts), it sizes the repair —
/// how many surviving peers would need to receive a copy to restore a
/// replication factor of `replicas` around the departed address.
struct SizedRepair {
    replicas: usize,
    events: u64,
    copies_planned: u64,
}

impl RepairHook for SizedRepair {
    fn on_departure(&mut self, topology: &Topology, departed: NodeId, _step: u64) -> u64 {
        let address = topology.address(departed);
        // The closest surviving peers are where re-replication would put
        // the departed node's chunks.
        let survivors = topology.closest_live_nodes(address, self.replicas);
        if survivors.is_empty() {
            return 0;
        }
        self.events += 1;
        self.copies_planned += survivors.len() as u64;
        1
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Compose the built-in policies on the spec: detour routing plus a
    // churn-aware TTL cache, under 10% background churn and two-tier
    // bandwidth budgets (which give the detour policy something to dodge).
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
    let sim = spec.build()?;

    // Inject the custom repair hook.
    let mut repair = SizedRepair {
        replicas: 3,
        events: 0,
        copies_planned: 0,
    };
    let report = sim.run_with_repair(&mut repair);
    let churn = report.churn().expect("churned runs track membership");

    println!("departures applied:     {}", churn.leaves);
    println!("repair events:          {}", churn.repair_events);
    println!("repair copies planned:  {}", repair.copies_planned);
    println!("cache hits:             {}", report.cache_hits());
    println!("detoured hops:          {}", report.traffic().detoured());
    println!("F2 income gini:         {:.4}", report.f2_income_gini());

    // The same built-in policy selection, as a serde-stable spec document
    // (what `fairswap run --config FILE` executes).
    let mut spec = SimSpec::paper_defaults();
    spec.policies.route = RoutePolicy::CapacityDetour { max_detours: 3 };
    spec.policies.cache = CachePolicy::Ttl {
        capacity: 512,
        ttl: 4096,
    };
    println!();
    println!("equivalent policies block: {}", spec.to_json()?);
    Ok(())
}
