//! The output contract of every preset, looped over the one preset table,
//! so a preset added to `PRESETS` is covered without touching this file.
//!
//! Each preset runs three times at a tiny scale: serially, on three
//! workers, and serially with trace and metrics collection on. Its
//! tables and summary must be byte-identical across all three runs (every
//! grid cell forks its randomness from its own seed, and the observer is
//! read-only), its trace must validate, and no two presets may write the
//! same file name.

use std::collections::BTreeMap;

use fairswap::core::experiments::{
    cache_churn, churn, large_scale, routing, ExperimentScale, PresetArgs, PresetOutput, PRESETS,
};
use fairswap::core::{validate_jsonl, Executor, GridObservation, ObsOptions};

/// The tiny scale every preset runs at; `large-scale` gets the
/// 200-node, 16-bit overlay the CLI golden fixtures use.
fn args(preset: &str) -> PresetArgs {
    let (nodes, bits) = match preset {
        "large-scale" => (200, 16),
        _ => (60, large_scale::DEFAULT_BITS),
    };
    PresetArgs {
        scale: ExperimentScale {
            nodes,
            files: 10,
            seed: 0xFA12,
        },
        nodes_set: true,
        files_set: true,
        bits,
        scenario: None,
    }
}

/// The tables as `(file name, CSV text)` plus the summary.
fn rendered(output: PresetOutput) -> (Vec<(&'static str, String)>, Vec<String>) {
    let files = output
        .files
        .into_iter()
        .map(|(name, csv)| (name, csv.to_csv_string()))
        .collect();
    (files, output.summary)
}

#[test]
fn every_preset_is_thread_count_invariant_and_unperturbed_by_tracing() {
    let mut writers: BTreeMap<&str, &str> = BTreeMap::new();
    for preset in PRESETS {
        let args = args(preset.name);
        let run = |executor: &Executor, obs: &mut GridObservation| {
            (preset.run)(&args, executor, obs).unwrap_or_else(|e| panic!("{}: {e}", preset.name))
        };
        let serial = rendered(run(&Executor::serial(), &mut GridObservation::disabled()));
        let threaded = rendered(run(&Executor::new(3), &mut GridObservation::disabled()));
        let mut obs = GridObservation::new(ObsOptions {
            trace: true,
            metrics: true,
            ..ObsOptions::default()
        });
        let traced = rendered(run(&Executor::serial(), &mut obs));

        assert!(!serial.0.is_empty(), "{} writes no table", preset.name);
        assert_eq!(
            serial, threaded,
            "{}: output depends on threads",
            preset.name
        );
        assert_eq!(serial, traced, "{}: tracing perturbs output", preset.name);
        let stats = validate_jsonl(&obs.trace_jsonl())
            .unwrap_or_else(|e| panic!("{}: invalid trace: {e}", preset.name));
        assert!(stats.events > 0, "{}: empty trace", preset.name);
        for (name, _) in &serial.0 {
            if let Some(other) = writers.insert(name, preset.name) {
                panic!("{name} is written by both {other} and {}", preset.name);
            }
        }
    }
}

/// The grids the contract above runs do exercise what they measure, so
/// their invariance is not that of an empty sweep.
#[test]
fn tiny_grids_exercise_their_mechanism() {
    let scale = args("churn").scale;
    let serial = Executor::serial();
    let churned = churn::run(
        scale,
        &churn::DEFAULT_RATES,
        &serial,
        &mut GridObservation::disabled(),
    )
    .unwrap();
    assert!(churned.row(4, 0.1).unwrap().leaves > 0);
    let routed = routing::run(scale, &serial, &mut GridObservation::disabled()).unwrap();
    assert!(routed.row("capacity-detour", 4).unwrap().detoured > 0);
    let cached = cache_churn::run(
        scale,
        &cache_churn::DEFAULT_RATES,
        &serial,
        &mut GridObservation::disabled(),
    )
    .unwrap();
    assert!(cached.row("ttl", 0.0).unwrap().cache_served > 0);
}
