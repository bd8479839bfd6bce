//! Serde round-trip and format-stability guarantees for the `SimSpec`
//! wire format — the guard rail behind `fairswap run --config`.

use proptest::prelude::*;

use fairswap::core::experiments::{
    cache_churn, churn, large_scale, paper, routing, scenarios, ExperimentScale,
};
use fairswap::core::{
    CachePolicy, MechanismKind, RepairPolicy, RoutePolicy, ScenarioKind, SimSpec,
};
use fairswap::fuzz::{mutate_spec, AXES};
use fairswap::simcore::rng::derive_rng;

fn scale() -> ExperimentScale {
    ExperimentScale {
        nodes: 150,
        files: 60,
        seed: 0xFA12,
    }
}

/// serialize → deserialize → re-serialize must be the identity on both
/// the spec value and its JSON text.
fn assert_stable(spec: &SimSpec) {
    let json = spec.to_json().expect("spec serializes");
    let back = SimSpec::from_json(&json).expect("spec parses back");
    assert_eq!(&back, spec, "value drift through JSON");
    assert_eq!(
        back.to_json().expect("round-tripped spec serializes"),
        json,
        "byte drift through JSON"
    );
}

#[test]
fn every_preset_grid_cell_round_trips_byte_identically() {
    let s = scale();
    let mut cells: Vec<SimSpec> = paper::jobs(s);
    cells.extend(churn::jobs(s, &churn::DEFAULT_RATES).unwrap());
    cells.extend(scenarios::jobs(s, &scenarios::SCENARIO_NAMES).unwrap());
    cells.extend(routing::jobs(s));
    cells.extend(cache_churn::jobs(s, &cache_churn::DEFAULT_RATES).unwrap());
    cells.extend(large_scale::jobs(s, 17, &[4, 20]));
    assert!(
        cells.len() > 40,
        "expected a broad sample, got {}",
        cells.len()
    );
    for spec in &cells {
        assert_stable(spec);
    }
}

#[test]
fn exotic_configurations_round_trip_byte_identically() {
    // Cover the enum variants the preset grids do not reach.
    let mut spec = SimSpec::paper_defaults();
    spec.economics.mechanism = MechanismKind::ProofOfBandwidth { mint_per_chunk: 3 };
    spec.economics.free_rider_fraction = 0.25;
    spec.policies.cache = CachePolicy::Ttl {
        capacity: 128,
        ttl: 999,
    };
    spec.policies.route = RoutePolicy::CapacityDetour { max_detours: 7 };
    spec.policies.repair = RepairPolicy::ReReplicate {
        neighborhood_bits: 5,
    };
    spec.dynamics.scenario = Some(ScenarioKind::RegionalOutage {
        at_step: 10,
        region_bits: 2,
        rejoin_after: Some(5),
    });
    assert_stable(&spec);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// The fuzzer's mutators stay inside the format's guarantees: every
    /// mutant — including chains of mutants, where a dimension shrink can
    /// orphan a dependent scenario parameter — passes `SimSpec`
    /// validation and survives serialize → deserialize → re-serialize
    /// byte-identically.
    #[test]
    fn mutated_specs_validate_and_round_trip_byte_identically(
        seed in any::<u64>(),
        chain in 1usize..6,
    ) {
        let mut spec = SimSpec::paper_defaults();
        spec.topology.nodes = 150;
        spec.workload.files = 60;
        let mut rng = derive_rng(seed, 0, 0);
        for step in 0..chain {
            let (next, axis) = mutate_spec(&spec, &mut rng);
            prop_assert!(AXES.contains(&axis));
            prop_assert!(
                next.validate().is_ok(),
                "step {} axis {} produced an invalid spec: {:?}",
                step,
                axis,
                next.validate().err()
            );
            assert_stable(&next);
            spec = next;
        }
    }
}

#[test]
fn committed_fixture_parses_and_runs_deterministically() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/demo_spec.json"
    ))
    .expect("fixture exists");
    let spec = SimSpec::from_json(&text).expect("committed fixture must keep parsing");
    // The fixture exercises the whole policy surface.
    assert_eq!(spec.seed, 4242);
    assert_eq!(spec.topology.nodes, 200);
    assert_eq!(
        spec.policies.route,
        RoutePolicy::CapacityDetour { max_detours: 3 }
    );
    assert_eq!(
        spec.policies.cache,
        CachePolicy::Ttl {
            capacity: 256,
            ttl: 2048
        }
    );
    assert_eq!(
        spec.policies.repair,
        RepairPolicy::ReReplicate {
            neighborhood_bits: 8
        }
    );
    assert!(spec.dynamics.churn.is_some());
    // Omitted fields defaulted to the paper values.
    assert_eq!(
        spec.workload.file_size,
        SimSpec::paper_defaults().workload.file_size
    );
    assert_eq!(spec.economics, SimSpec::paper_defaults().economics);
    // And its canonical form is itself stable.
    assert_stable(&spec);

    // The fixture executes end to end, deterministically.
    let a = spec.build().expect("fixture builds").run();
    let b = spec.build().unwrap().run();
    assert_eq!(a.traffic(), b.traffic());
    assert_eq!(a.incomes(), b.incomes());
    // Its detour policy actually fires under the two-tier capacities.
    assert!(a.traffic().detoured() > 0);
    assert!(a.churn().is_some());
}
