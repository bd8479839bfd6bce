//! Quickstart: run one bandwidth-incentive simulation and read the
//! paper's headline metrics off the report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fairswap::core::SimSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A reduced instance of the paper's setup: Swarm incentive, forwarding
    // Kademlia, uniform workload. (The paper runs 1000 nodes / 10k files;
    // this example keeps the demo snappy.)
    // The defaults keep Swarm's bucket size k = 4.
    let mut spec = SimSpec::paper_defaults();
    spec.topology.nodes = 500;
    spec.workload.originator_fraction = 0.2; // the paper's skewed workload
    spec.workload.files = 500;
    let report = spec.build()?.run();

    println!("nodes:                  {}", report.node_count());
    println!("files downloaded:       {}", report.config().files);
    println!("mean forwarded chunks:  {:.1}", report.mean_forwarded());
    println!(
        "mean hops per chunk:    {:.2}",
        report.hops().mean().unwrap_or(0.0)
    );
    println!(
        "stuck routes:           {}",
        report.traffic().stuck_requests()
    );
    println!();
    println!(
        "F2 (income equality)    gini = {:.4}",
        report.f2_income_gini()
    );
    println!(
        "F1 (pay per work)       gini = {:.4}",
        report.f1_contribution_gini()
    );
    println!();
    println!("settlements:            {}", report.settlement_count());
    println!("settlement volume:      {} BZZ", report.settlement_volume());
    println!("amortized (free) units: {}", report.amortized_total());

    // The Lorenz curve behind Fig. 5, ready to plot.
    let lorenz = report.lorenz_income()?;
    println!();
    println!("income Lorenz curve (population share -> income share):");
    for point in lorenz.iter().step_by(lorenz.len() / 10) {
        println!(
            "  {:>5.1}% -> {:>5.1}%",
            point.population_share * 100.0,
            point.value_share * 100.0
        );
    }
    Ok(())
}
