//! Full-stack contract of the scenario engine: every scripted shock is a
//! pure function of `(config, seed)`, fans out over any thread count with
//! byte-identical artifacts, and never breaks income conservation.

use fairswap::core::experiments::{scenarios, ExperimentScale};
use fairswap::core::{
    BucketSizing, ChurnConfig, CsvTable, Executor, GridObservation, ScenarioKind, SimSpec,
};

fn scale() -> ExperimentScale {
    ExperimentScale {
        nodes: 150,
        files: 60,
        seed: 0xFA12,
    }
}

#[test]
fn every_scenario_is_seed_deterministic() {
    for name in scenarios::SCENARIO_NAMES {
        let a = scenarios::run(
            scale(),
            &[name],
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        let b = scenarios::run(
            scale(),
            &[name],
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        assert_eq!(a, b, "{name} not deterministic");
        let c = scenarios::run(
            scale().with_seed(0xBEEF),
            &[name],
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        assert_ne!(a, c, "{name} ignores the seed");
    }
}

#[test]
fn every_scenario_is_byte_identical_across_thread_counts() {
    // One grid over all four scenarios: serial vs 8 workers must render
    // the exact same bytes for both artifacts.
    let names: Vec<&str> = scenarios::SCENARIO_NAMES.to_vec();
    let serial = scenarios::run(
        scale(),
        &names,
        &Executor::serial(),
        &mut GridObservation::disabled(),
    )
    .unwrap();
    let threaded = scenarios::run(
        scale(),
        &names,
        &Executor::new(8),
        &mut GridObservation::disabled(),
    )
    .unwrap();
    assert_eq!(serial, threaded);
    assert_eq!(
        CsvTable::from_rows(&serial.rows).to_csv_string(),
        CsvTable::from_rows(&threaded.rows).to_csv_string()
    );
    assert_eq!(
        CsvTable::from_rows(&serial.timeline).to_csv_string(),
        CsvTable::from_rows(&threaded.timeline).to_csv_string()
    );
    // The sweep was not trivially empty: each scenario produced its
    // signature effect somewhere in the grid.
    assert!(serial
        .rows
        .iter()
        .any(|r| r.scenario == "targeted-departure" && r.targeted_removals > 0));
    assert!(serial
        .rows
        .iter()
        .any(|r| r.scenario == "heterogeneity" && r.capacity_blocked > 0));
    assert!(serial
        .rows
        .iter()
        .any(|r| r.scenario == "regional-outage" && r.leaves > 0));
    assert!(serial
        .rows
        .iter()
        .any(|r| r.scenario == "flash-crowd" && r.joins > 0));
}

/// Rewards settled must equal rewards earned even while the top earners
/// are being forcibly removed: departure settlement closes every open
/// channel of a victim, crediting exactly what the ledger records.
#[test]
fn targeted_departure_conserves_rewards() {
    let mut spec = SimSpec::paper_defaults();
    spec.topology.nodes = 150;
    spec.workload.files = 60;
    spec.seed = 11;
    spec.dynamics.churn = Some(ChurnConfig::from_rate(0.05).unwrap());
    spec.dynamics.scenario = Some(ScenarioKind::TargetedDeparture {
        at_step: 30,
        top_fraction: 0.05,
    });
    let report = spec.build().unwrap().run();
    let churn = report.churn().expect("scenario tracks membership");
    assert!(churn.targeted_removals > 0);
    let income: f64 = report.incomes().iter().sum();
    assert_eq!(
        income as u64,
        report.settlement_volume(),
        "income diverged from ledger volume under targeted departure"
    );
}

#[test]
fn targeted_departure_takes_the_expected_head_count_and_settles_them() {
    // The shock fires at the final step, *before* that step's download —
    // so steps 1..=39 replay the static baseline exactly (same workload
    // stream prefix), and everything the scenario run adds on top
    // (departure settlements, the last download) only ever credits income.
    let mut spec = SimSpec::paper_defaults();
    spec.topology.nodes = 120;
    spec.workload.files = 39;
    spec.seed = 3;
    let baseline = spec.build().unwrap().run();
    let mut spec = SimSpec::paper_defaults();
    spec.topology.nodes = 120;
    spec.workload.files = 40;
    spec.seed = 3;
    spec.dynamics.scenario = Some(ScenarioKind::TargetedDeparture {
        at_step: 40, // the final step: removals happen, then the run ends
        top_fraction: 0.05,
    });
    let report = spec.build().unwrap().run();
    let churn = report.churn().unwrap();
    assert_eq!(churn.targeted_removals, 6); // ceil(0.05 * 120)
    assert_eq!(churn.final_live, 114);
    assert_eq!(churn.leaves, 0, "no background churn in this run");
    // Settlement on departure only ever *adds* income relative to the
    // baseline (open channel balances pay out), and the top earners by
    // construction earned at least as much as in the baseline.
    for (node, (&with, &without)) in report.incomes().iter().zip(baseline.incomes()).enumerate() {
        assert!(
            with >= without,
            "node {node} lost income: {with} < {without}"
        );
    }
    assert!(churn.departure_settlements > 0);
}

#[test]
fn flash_crowd_cohort_stays_out_until_the_shock() {
    let mut spec = SimSpec::paper_defaults();
    spec.topology.nodes = 200;
    spec.workload.files = 50;
    spec.seed = 21;
    spec.dynamics.scenario = Some(ScenarioKind::FlashCrowd {
        at_step: 25,
        join_fraction: 0.2,
    });
    let report = spec.build().unwrap().run();
    let churn = report.churn().unwrap();
    // 40 cohort members join at the shock and nothing else moves.
    assert_eq!(churn.joins, 40);
    assert_eq!(churn.leaves, 0);
    assert_eq!(churn.final_live, 200);
    for sample in &churn.timeline {
        if sample.step < 25 {
            assert_eq!(sample.live, 160, "cohort leaked in early");
        } else {
            assert_eq!(sample.live, 200, "cohort missing after the shock");
        }
    }
}

#[test]
fn regional_outage_dips_and_recovers() {
    let mut spec = SimSpec::paper_defaults();
    spec.topology.nodes = 300;
    spec.workload.files = 60;
    spec.seed = 31;
    spec.dynamics.scenario = Some(ScenarioKind::RegionalOutage {
        at_step: 20,
        region_bits: 2,
        rejoin_after: Some(20),
    });
    let report = spec.build().unwrap().run();
    let churn = report.churn().unwrap();
    assert!(churn.leaves > 0);
    assert_eq!(churn.joins, churn.leaves, "the whole region rejoins");
    assert_eq!(churn.final_live, 300);
    let min_live = churn.timeline.iter().map(|s| s.live).min().unwrap();
    assert!(
        min_live < 300 - 30,
        "a 2-bit region outage should dip visibly, got min {min_live}"
    );
    assert_eq!(churn.timeline.last().unwrap().live, 300);
}

#[test]
fn heterogeneity_blocks_traffic_and_shifts_fairness() {
    let mut spec = SimSpec::paper_defaults();
    spec.topology.nodes = 150;
    spec.workload.files = 50;
    spec.seed = 41;
    spec.dynamics.scenario = Some(ScenarioKind::Heterogeneity {
        slow_fraction: 0.3,
        slow_budget: 4,
        fast_budget: 64,
    });
    let constrained = spec.build().unwrap().run();
    assert!(constrained.traffic().capacity_blocked() > 0);
    assert!(constrained.traffic().capacity_blocked() <= constrained.traffic().stuck_requests());
    // Conservation still holds: only delivered chunks pay.
    let income: f64 = constrained.incomes().iter().sum();
    assert_eq!(income as u64, constrained.settlement_volume());

    // An unconstrained run delivers strictly more.
    let mut spec = SimSpec::paper_defaults();
    spec.topology.nodes = 150;
    spec.workload.files = 50;
    spec.seed = 41;
    let unconstrained = spec.build().unwrap().run();
    assert_eq!(unconstrained.traffic().capacity_blocked(), 0);
    assert!(unconstrained.total_forwarded() > constrained.total_forwarded());
}

#[test]
fn scenarios_compose_with_background_churn_deterministically() {
    let build = || {
        let mut spec = SimSpec::paper_defaults();
        spec.topology.nodes = 150;
        spec.topology.bucket_sizing = BucketSizing::uniform(20);
        spec.workload.files = 60;
        spec.seed = 51;
        spec.dynamics.churn = Some(ChurnConfig::from_rate(0.05).unwrap());
        spec.dynamics.scenario = Some(ScenarioKind::RegionalOutage {
            at_step: 30,
            region_bits: 2,
            rejoin_after: None,
        });
        spec.build().unwrap().run()
    };
    let a = build();
    let b = build();
    assert_eq!(a.incomes(), b.incomes());
    assert_eq!(a.churn(), b.churn());
    // Both dynamics contributed: churn joins happen (outage nodes never
    // rejoin, but churned nodes cycle) and the outage's leave wave fired.
    let churn = a.churn().unwrap();
    assert!(churn.joins > 0);
    assert!(churn.leaves > churn.joins, "permanent outage skews leaves");
    // Conservation under the composed dynamics.
    let income: f64 = a.incomes().iter().sum();
    assert_eq!(income as u64, a.settlement_volume());
}
