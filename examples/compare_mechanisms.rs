//! Compare Swarm's bandwidth incentive against the baselines the paper
//! positions itself against (§I/§II): BitTorrent tit-for-tat, Rahman-style
//! effort-based rewards, TorCoin-style proof-of-bandwidth, and the
//! pay-all-hops variant.
//!
//! Reading the two Gini columns together shows each design's bias:
//! effort-based is F2-perfect but ignores delivered work; proof-of-
//! bandwidth is F1-perfect but income follows topology luck; tit-for-tat
//! rewards only reciprocating partners.
//!
//! ```sh
//! cargo run --release --example compare_mechanisms
//! ```

use fairswap::core::{MechanismKind, SimSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mechanisms = [
        MechanismKind::Swarm,
        MechanismKind::PayAllHops,
        MechanismKind::TitForTat,
        MechanismKind::EffortBased {
            budget_per_tick: 10_000,
        },
        MechanismKind::ProofOfBandwidth { mint_per_chunk: 1 },
    ];

    println!(
        "{:<20} {:>10} {:>16} {:>12} {:>14}",
        "mechanism", "F2 gini", "F1(income) gini", "earning %", "total income"
    );
    for mechanism in mechanisms {
        let mut spec = SimSpec::paper_defaults();
        spec.topology.nodes = 300;
        spec.workload.files = 200;
        spec.economics.mechanism = mechanism;
        let report = spec.build()?.run();
        let earning = report.incomes().iter().filter(|&&v| v > 0.0).count() as f64
            / report.node_count() as f64;
        let total: f64 = report.incomes().iter().sum();
        println!(
            "{:<20} {:>10.4} {:>16.4} {:>12.1} {:>14.0}",
            mechanism.id(),
            report.f2_income_gini(),
            report.f1_income_gini(),
            earning * 100.0,
            total,
        );
    }
    Ok(())
}
