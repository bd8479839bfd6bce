//! Cross-crate conservation and consistency checks over full simulation
//! runs.

use fairswap::core::{Executor, GridObservation, MechanismKind, SimSpec};
use fairswap::fairness::gini;
use fairswap::incentives::{BandwidthIncentive, RewardState, SwarmIncentive};
use fairswap::kademlia::{AddressSpace, TopologyBuilder};
use fairswap::storage::{CachePolicy, DownloadSim};
use fairswap::swap::ChannelConfig;
use fairswap::workload::WorkloadBuilder;

#[test]
fn swarm_income_equals_settlement_volume() {
    // Under Swarm, every unit of income is a BZZ settlement at 1:1 (tx cost
    // zero), so total income must equal ledger volume exactly.
    let mut spec = SimSpec::paper_defaults();
    spec.topology.nodes = 250;
    spec.workload.files = 80;
    spec.seed = 1;
    let report = spec.build().expect("valid configuration").run();
    let income: f64 = report.incomes().iter().sum();
    assert_eq!(income as u64, report.settlement_volume());
}

#[test]
fn first_hop_counts_bound_incomes() {
    // A node's income comes only from first-hop serves; nodes that never
    // served as first hop must have zero income.
    let mut spec = SimSpec::paper_defaults();
    spec.topology.nodes = 250;
    spec.workload.files = 60;
    spec.seed = 2;
    let report = spec.build().expect("valid configuration").run();
    for (node, (&first_hops, &income)) in report
        .traffic()
        .served_first_hop()
        .iter()
        .zip(report.incomes())
        .enumerate()
    {
        if first_hops == 0 {
            assert_eq!(income, 0.0, "node {node} earned without first-hop service");
        } else {
            assert!(income > 0.0, "node {node} served first hops but earned 0");
        }
    }
}

#[test]
fn forwarded_at_least_first_hop_serves() {
    let mut spec = SimSpec::paper_defaults();
    spec.topology.nodes = 200;
    spec.workload.files = 50;
    spec.seed = 3;
    let report = spec.build().expect("valid configuration").run();
    for (fwd, fh) in report
        .traffic()
        .forwarded()
        .iter()
        .zip(report.traffic().served_first_hop())
    {
        assert!(fwd >= fh, "first-hop serves are a subset of forwards");
    }
}

#[test]
fn stuck_rate_is_negligible_at_paper_parameters() {
    let mut spec = SimSpec::paper_defaults();
    spec.topology.nodes = 500;
    spec.workload.files = 100;
    spec.seed = 4;
    let report = spec.build().expect("valid configuration").run();
    let requests: u64 = report.traffic().requests_issued().iter().sum();
    let stuck = report.traffic().stuck_requests();
    assert!(
        (stuck as f64) < 0.005 * requests as f64,
        "stuck {stuck} of {requests}"
    );
}

#[test]
fn manual_pipeline_matches_harness() {
    // Drive the substrates by hand — topology, workload, download sim,
    // incentive — and verify the harness produces the same incomes.
    let space = AddressSpace::new(16).expect("valid width");
    let seed = 0xABCDu64;
    let nodes = 150usize;
    let files = 30u64;

    // Harness run.
    let mut spec = SimSpec::paper_defaults();
    spec.topology.nodes = nodes;
    spec.workload.files = files;
    spec.seed = seed;
    let report = spec.build().expect("valid configuration").run();

    // Manual run with the same derived sub-seeds.
    let topology = TopologyBuilder::new(space)
        .nodes(nodes)
        .bucket_size(4)
        .seed(seed)
        .build()
        .expect("valid topology");
    let mut workload = WorkloadBuilder::new(space, nodes)
        .originator_fraction(1.0)
        .seed(fairswap::simcore::rng::sub_seed(
            seed,
            fairswap::simcore::rng::domain::WORKLOAD,
        ))
        .build()
        .expect("valid workload");
    let mut mechanism = SwarmIncentive::new();
    let mut state = RewardState::new(nodes, report.config().channel);
    let mut download = DownloadSim::new(topology.clone(), CachePolicy::None);
    for _ in 0..files {
        let file = workload.next_download();
        download.download_file_with(file.originator, &file.chunks, |d| {
            mechanism.on_delivery(&topology, d, &mut state);
        });
        mechanism.on_tick(&topology, &mut state);
    }

    assert_eq!(state.incomes_f64(), report.incomes());
    assert_eq!(download.stats().forwarded(), report.traffic().forwarded());
}

#[test]
fn every_mechanism_produces_valid_fairness_metrics() {
    for mechanism in [
        MechanismKind::Swarm,
        MechanismKind::PayAllHops,
        MechanismKind::TitForTat,
        MechanismKind::EffortBased {
            budget_per_tick: 5_000,
        },
        MechanismKind::ProofOfBandwidth { mint_per_chunk: 2 },
    ] {
        let mut spec = SimSpec::paper_defaults();
        spec.topology.nodes = 150;
        spec.workload.files = 40;
        spec.seed = 5;
        spec.economics.mechanism = mechanism;
        let report = spec.build().expect("valid configuration").run();
        let f2 = report.f2_income_gini();
        assert!(
            (0.0..=1.0).contains(&f2),
            "{}: f2 {f2} out of range",
            mechanism.id()
        );
        // Income Gini must agree with recomputing from the raw vector.
        if report.incomes().iter().any(|&v| v > 0.0) {
            let recomputed = gini(report.incomes()).expect("valid incomes");
            assert!((recomputed - f2).abs() < 1e-12);
        }
    }
}

#[test]
fn swap_channel_config_gates_amortization() {
    // With a zero refresh rate nothing amortizes; with a huge one all
    // forwarding debt evaporates.
    let run = |refresh: i64| {
        let mut spec = SimSpec::paper_defaults();
        spec.topology.nodes = 150;
        spec.workload.files = 30;
        spec.seed = 6;
        spec.economics.channel = ChannelConfig {
            payment_threshold: fairswap::swap::AccountingUnits(i64::MAX / 4),
            disconnect_threshold: fairswap::swap::AccountingUnits(i64::MAX / 2),
            refresh_rate: fairswap::swap::AccountingUnits(refresh),
        };
        spec.build().expect("valid configuration").run()
    };
    assert_eq!(run(0).amortized_total(), 0);
    assert!(run(1_000_000).amortized_total() > 0);
}

#[test]
fn metric_robustness_of_the_headline_finding() {
    // The k = 4 vs k = 20 fairness ordering survives swapping Gini for
    // Theil, Atkinson and Hoover indices.
    use fairswap::core::experiments::{paper, ExperimentScale};
    let grid = paper::run(
        ExperimentScale {
            nodes: 250,
            files: 120,
            seed: 0xFA12,
        },
        &Executor::serial(),
        &mut GridObservation::disabled(),
    )
    .expect("experiment runs");
    assert!(grid.all_indices_agree(), "{:?}", grid.cells);
    // The ablation table holds the 20% column: k = 4, then k = 20.
    let csv = grid.metric_robustness_csv().to_csv_string();
    let ks: Vec<&str> = csv
        .lines()
        .skip(1)
        .map(|row| row.split(',').next().unwrap())
        .collect();
    assert_eq!(ks, ["4", "20"]);
}
