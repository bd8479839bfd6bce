//! The paper's headline experiment in miniature: how the Kademlia bucket
//! size `k` and workload skew change the fairness of Swarm's bandwidth
//! rewards.
//!
//! Reproduces the qualitative findings of Figs. 5 and 6: `k = 20` yields a
//! lower Gini coefficient than Swarm's default `k = 4`, and a skewed
//! workload (20% of nodes downloading) is less fair than a uniform one.
//!
//! ```sh
//! cargo run --release --example skewed_workload
//! ```

use fairswap::core::{BucketSizing, SimSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<6} {:<14} {:>10} {:>10} {:>16}",
        "k", "originators", "F2 gini", "F1 gini", "mean forwarded"
    );

    let mut f2 = std::collections::HashMap::new();
    for k in [4usize, 20] {
        for fraction in [0.2f64, 1.0] {
            let mut spec = SimSpec::paper_defaults();
            spec.topology.nodes = 400;
            spec.topology.bucket_sizing = BucketSizing::uniform(k);
            spec.workload.originator_fraction = fraction;
            spec.workload.files = 400;
            let report = spec.build()?.run();
            println!(
                "{:<6} {:<14} {:>10.4} {:>10.4} {:>16.1}",
                k,
                format!("{}%", fraction * 100.0),
                report.f2_income_gini(),
                report.f1_contribution_gini(),
                report.mean_forwarded(),
            );
            f2.insert((k, (fraction * 10.0) as u32), report.f2_income_gini());
        }
    }

    println!();
    let reduction_skew = (f2[&(4, 2)] - f2[&(20, 2)]) / f2[&(4, 2)] * 100.0;
    let reduction_all = (f2[&(4, 10)] - f2[&(20, 10)]) / f2[&(4, 10)] * 100.0;
    println!("F2 gini reduction from k=20:  {reduction_skew:.1}% (skewed), {reduction_all:.1}% (uniform)");
    println!("paper reports ~7% at full scale (1000 nodes, 10k files).");
    Ok(())
}
