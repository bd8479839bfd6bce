//! Fairness under churn: does the paper's headline finding — `k = 20`
//! distributes rewards more fairly than Swarm's default `k = 4` — survive
//! on a dynamic overlay where nodes join and leave continuously?
//!
//! ```sh
//! cargo run --release --example churn_fairness
//! ```

use fairswap::churn::{ChurnConfig, LifetimeDist};
use fairswap::core::{BucketSizing, SimSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nodes = 300;
    let files = 400;

    println!("F2 income Gini vs churn rate ({nodes} nodes, {files} files)\n");
    println!(
        "{:>10} {:>10} {:>10} {:>8} {:>8}",
        "churn/step", "k=4", "k=20", "leaves", "live"
    );

    for rate in [0.0, 0.02, 0.05, 0.1, 0.2] {
        let mut row = Vec::new();
        let mut leaves = 0;
        let mut live = nodes;
        for k in [4usize, 20] {
            let mut spec = SimSpec::paper_defaults();
            spec.topology.nodes = nodes;
            spec.topology.bucket_sizing = BucketSizing::uniform(k);
            spec.workload.files = files;
            if rate > 0.0 {
                spec.dynamics.churn = Some(ChurnConfig::from_rate(rate)?);
            }
            let report = spec.build()?.run();
            row.push(report.f2_income_gini());
            if let Some(churn) = report.churn() {
                leaves = churn.leaves;
                live = churn.final_live;
            }
        }
        println!(
            "{:>9.0}% {:>10.4} {:>10.4} {:>8} {:>8}",
            rate * 100.0,
            row[0],
            row[1],
            leaves,
            live
        );
    }

    // Beyond the rate knob: heavy-tailed Weibull sessions, as measured in
    // deployed P2P networks, with a delayed churn onset.
    let weibull = ChurnConfig::from_rate(0.05)?
        .with_session(LifetimeDist::Weibull {
            shape: 0.6,
            scale: 15.0,
        })
        .with_start_step(100);
    let mut spec = SimSpec::paper_defaults();
    spec.topology.nodes = nodes;
    spec.workload.files = files;
    spec.dynamics.churn = Some(weibull);
    let report = spec.build()?.run();
    let churn = report.churn().expect("churn configured");
    println!(
        "\nWeibull sessions (shape 0.6): F2={:.4}, {} leaves, {} joins, live {} -> {}",
        report.f2_income_gini(),
        churn.leaves,
        churn.joins,
        nodes,
        churn.final_live
    );
    println!("fairness over time (step, live, F2):");
    for sample in churn.timeline.iter().step_by(8) {
        println!(
            "  step {:>4}  live {:>4}  F2 {:.4}",
            sample.step, sample.live, sample.f2_gini
        );
    }
    Ok(())
}
