//! Observability contracts: tracing must never perturb results, traces
//! must be byte-identical for any thread count, and the metrics must
//! agree with the simulation report they describe.
//!
//! These are the tier-1 guarantees behind `fairswap --trace/--metrics`:
//! the observer is read-only (same CSVs with tracing on or off), events
//! are addressed by logical clocks and merged in stable job order (same
//! bytes under `--threads N`), and every counter is conserved (hits +
//! misses = lookups, delivered + stuck = requests, histogram totals match
//! their counters). That tracing leaves every preset's tables unchanged
//! is also checked at a tiny scale in `tests/presets.rs`, looped over the
//! preset table.

use std::collections::HashMap;

use fairswap::core::experiments::{churn, paper, ExperimentScale};
use fairswap::core::{
    run_jobs_observed, validate_jsonl, CsvTable, EpochSnapshot, Executor, GridObservation,
    ObsOptions, SimReport, SimSpec, EPOCH_GAUGES,
};

fn scale() -> ExperimentScale {
    ExperimentScale {
        nodes: 150,
        files: 50,
        seed: 0xFA12,
    }
}

/// Full collection: trace + metrics + profile.
fn everything() -> ObsOptions {
    ObsOptions {
        trace: true,
        metrics: true,
        profile: true,
        ..ObsOptions::default()
    }
}

/// A run with churn, TTL caching, detour routing and repair all enabled —
/// the widest counter surface a single simulation can produce.
fn demo_report(opts: ObsOptions) -> (SimReport, GridObservation) {
    let spec = SimSpec::from_json(include_str!("fixtures/demo_spec.json")).unwrap();
    let mut obs = GridObservation::new(opts);
    let reports = run_jobs_observed(&Executor::serial(), vec![spec], &mut obs).unwrap();
    (reports.into_iter().next().unwrap(), obs)
}

/// `EpochSnapshot`'s metric fields in declaration order: its columns as a
/// row struct, after `epoch` and `step`.
fn snapshot_metrics() -> Vec<String> {
    let columns = CsvTable::from_rows::<EpochSnapshot>(&[]).columns().to_vec();
    assert_eq!(columns[..2], ["epoch", "step"]);
    columns[2..].to_vec()
}

/// The last flushed value of every metric for `(grid, job)` — counters
/// are cumulative, so later flushes simply overwrite earlier ones.
fn final_values(metrics_csv: &str, grid: u32, job: u32) -> HashMap<String, u64> {
    let prefix = format!("{grid},{job},");
    let mut values = HashMap::new();
    for line in metrics_csv.lines().skip(1) {
        if !line.starts_with(&prefix) {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), 6, "malformed metrics row: {line}");
        if let Ok(value) = fields[4 + 1].parse::<u64>() {
            values.insert(fields[4].to_string(), value);
        }
    }
    values
}

#[test]
fn tracing_does_not_perturb_preset_csvs() {
    let rates = [0.0, 0.1];
    let plain = churn::run(
        scale(),
        &rates,
        &Executor::serial(),
        &mut GridObservation::disabled(),
    )
    .unwrap();
    let plain = CsvTable::from_rows(&plain.rows).to_csv_string();
    let mut obs = GridObservation::new(everything());
    let traced = churn::run(scale(), &rates, &Executor::serial(), &mut obs).unwrap();
    let traced = CsvTable::from_rows(&traced.rows).to_csv_string();
    assert_eq!(plain, traced, "observation must be read-only");
    assert!(!obs.trace_jsonl().is_empty());

    let plain = paper::run(
        scale(),
        &Executor::serial(),
        &mut GridObservation::disabled(),
    )
    .unwrap();
    let mut obs = GridObservation::new(everything());
    let traced = paper::run(scale(), &Executor::serial(), &mut obs).unwrap();
    for ((name, a), (_, b)) in plain.csvs().iter().zip(traced.csvs()) {
        assert_eq!(a.to_csv_string(), b.to_csv_string(), "{name}");
    }
}

#[test]
fn trace_and_metrics_are_byte_identical_across_thread_counts() {
    let rates = [0.0, 0.05, 0.1];
    let mut serial = GridObservation::new(everything());
    churn::run(scale(), &rates, &Executor::serial(), &mut serial).unwrap();
    let mut threaded = GridObservation::new(everything());
    churn::run(scale(), &rates, &Executor::new(4), &mut threaded).unwrap();
    assert_eq!(
        serial.trace_jsonl(),
        threaded.trace_jsonl(),
        "trace must not depend on scheduling"
    );
    assert_eq!(serial.metrics_csv(), threaded.metrics_csv());
    let stats = validate_jsonl(&serial.trace_jsonl()).unwrap();
    // Two k values x three churn rates, each closing with a summary.
    assert_eq!(stats.jobs, 6);
    assert!(stats.events > 0);
    assert_eq!(stats.dropped, 0, "default ring must fit a preset's events");
}

#[test]
fn counters_are_conserved_and_match_the_report() {
    let (report, obs) = demo_report(everything());
    let m = final_values(&obs.metrics_csv(), 0, 0);

    // Internal conservation.
    assert_eq!(m["requests"], m["delivered"] + m["stuck"]);
    assert_eq!(m["cache_lookups"], m["cache_hits"] + m["cache_misses"]);
    assert_eq!(
        m["route_hops_total"], m["delivered"],
        "one hop observation per delivered request"
    );
    let bucket_sum: u64 = m
        .iter()
        .filter(|(name, _)| name.starts_with("route_hops_le_"))
        .map(|(_, &count)| count)
        .sum();
    assert_eq!(bucket_sum, m["route_hops_total"]);

    // Agreement with the simulation report.
    let traffic = report.traffic();
    let requests: u64 = traffic.requests_issued().iter().sum();
    assert!(requests > 0 && m["cache_lookups"] > 0 && m["detoured"] > 0);
    assert_eq!(m["requests"], requests);
    assert_eq!(m["stuck"], traffic.stuck_requests());
    assert_eq!(m["capacity_blocked"], traffic.capacity_blocked());
    assert_eq!(m["detoured"], traffic.detoured());
    assert_eq!(m["forwarded"], report.total_forwarded());
    assert_eq!(m["cache_hits"], report.cache_hits());
    assert_eq!(m["settlements"], report.settlement_count() as u64);
    assert_eq!(m["settlement_volume"], report.settlement_volume());
    let churn = report.churn().expect("demo spec enables churn");
    assert_eq!(m["joins"], churn.joins);
    assert_eq!(m["leaves"], churn.leaves);
    assert_eq!(m["targeted_removals"], churn.targeted_removals);
    assert_eq!(m["repair_events"], churn.repair_events);
}

/// The engine's whole event stream is pinned: a run under 10% churn with
/// a targeted-departure wave, re-replication and retries (every layer of
/// the step loop fires) must reproduce the committed JSONL trace and
/// metrics CSV byte for byte, and every counter in it must be a running
/// total. `fairswap run --config
/// tests/fixtures/engine/spec.json --trace FILE --metrics FILE` writes the
/// same two files.
#[test]
fn engine_trace_and_metrics_match_the_fixtures() {
    let spec = SimSpec::from_json(include_str!("fixtures/engine/spec.json")).unwrap();
    let mut obs = GridObservation::new(ObsOptions {
        trace: true,
        metrics: true,
        ..ObsOptions::default()
    });
    run_jobs_observed(&Executor::serial(), vec![spec], &mut obs).unwrap();
    let trace = obs.trace_jsonl();
    assert_eq!(validate_jsonl(&trace).unwrap().dropped, 0);
    assert!(
        trace == include_str!("fixtures/engine/trace.jsonl"),
        "engine trace differs from tests/fixtures/engine/trace.jsonl"
    );
    let metrics = obs.metrics_csv();

    // Every counter is a running total: within one `(grid, job)` it never
    // decreases from one epoch's flush to the next.
    let counters: Vec<String> = snapshot_metrics()
        .into_iter()
        .filter(|name| !EPOCH_GAUGES.contains(&name.as_str()))
        .collect();
    let mut last: HashMap<(String, String), u64> = HashMap::new();
    let mut checked = 0;
    for line in metrics.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        let name = fields[4];
        let is_counter = counters.iter().any(|c| c == name);
        if !is_counter {
            continue;
        }
        let value: u64 = fields[5].parse().unwrap();
        let key = (format!("{},{}", fields[0], fields[1]), name.to_string());
        if let Some(&before) = last.get(&key) {
            assert!(
                value >= before,
                "counter went backwards: {line} after {before}"
            );
        }
        last.insert(key, value);
        checked += 1;
    }
    assert!(
        checked > last.len(),
        "the fixture run flushes more than one epoch"
    );
    assert!(
        metrics == include_str!("fixtures/engine/metrics.csv"),
        "engine metrics differ from tests/fixtures/engine/metrics.csv"
    );
}

#[test]
fn trace_validates_and_survives_ring_overflow() {
    let (_, obs) = demo_report(everything());
    let full = validate_jsonl(&obs.trace_jsonl()).unwrap();
    assert_eq!(full.jobs, 1);
    assert_eq!(full.dropped, 0);

    // A tiny ring keeps the newest events and reports what it shed.
    let (_, obs) = demo_report(ObsOptions {
        ring_capacity: 32,
        ..everything()
    });
    let clipped = validate_jsonl(&obs.trace_jsonl()).unwrap();
    assert_eq!(clipped.events, 32);
    assert_eq!(
        clipped.events as u64 + clipped.dropped,
        full.events as u64,
        "every emitted event is either kept or counted as dropped"
    );
}

#[test]
fn profile_only_observation_times_phases_without_collecting() {
    let (_, obs) = demo_report(ObsOptions {
        profile: true,
        ..ObsOptions::default()
    });
    let times = obs.phase_times();
    assert!(times.total_nanos() > 0);
    assert!(times.nanos(fairswap::core::Phase::TopologyBuild) > 0);
    assert!(times.nanos(fairswap::core::Phase::SimSteps) > 0);
    // No events, no metric rows: profile-only runs skip epoch snapshots.
    let stats = validate_jsonl(&obs.trace_jsonl()).unwrap();
    assert_eq!(stats.events, 0);
    assert_eq!(obs.metrics_csv().lines().count(), 1, "header only");
}

/// The `(key, raw value)` pairs of one flat JSON object line, in order.
fn flat_fields(line: &str) -> Vec<(String, String)> {
    let body = line
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .unwrap_or_else(|| panic!("not one JSON object: {line}"));
    // Split on the commas outside string literals.
    let mut parts = Vec::new();
    let (mut in_string, mut escaped, mut start) = (false, false, 0);
    for (i, c) in body.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            ',' if !in_string => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&body[start..]);
    parts
        .into_iter()
        .map(|part| {
            let (key, value) = part.split_once(':').expect("key:value");
            (key.trim_matches('"').to_string(), value.to_string())
        })
        .collect()
}

#[test]
fn trace_kind_table_matches_known_kinds() {
    // The event table of docs/OBSERVABILITY.md: rows of the form
    // "| `kind` | `field`, `field` | meaning |" under the "Trace format"
    // heading.
    let doc = include_str!("../docs/OBSERVABILITY.md");
    let section = doc
        .split("## Trace format")
        .nth(1)
        .expect("doc has a Trace format section");
    let section = section.split("\n## ").next().unwrap();
    let table: Vec<(&str, Vec<&str>)> = section
        .lines()
        .filter_map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let kind = cells.get(1)?.strip_prefix('`')?.strip_suffix('`')?;
            let payload = cells[2].split(',').map(|f| f.trim().trim_matches('`'));
            Some((kind, payload.collect()))
        })
        .collect();
    let documented: Vec<&str> = table.iter().map(|(kind, _)| *kind).collect();
    assert_eq!(
        documented,
        fairswap::core::KNOWN_KINDS,
        "docs/OBSERVABILITY.md trace kind table (left) vs KNOWN_KINDS (right)"
    );

    // The payload column of each kind is exactly the keys its lines carry
    // after `grid`, `job`, `step`, `kind`: every kind the engine fixture
    // emits, plus a constructed `warn`.
    let warn = fairswap_obs::TraceEvent {
        grid: 0,
        job: 0,
        step: 0,
        kind: fairswap_obs::EventKind::Warn {
            message: "unknown field \"x\", ignored".into(),
        },
    }
    .to_json_line();
    let mut checked = Vec::new();
    for line in include_str!("fixtures/engine/trace.jsonl")
        .lines()
        .chain([warn.as_str()])
    {
        let fields = flat_fields(line);
        let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
        let at = keys.iter().position(|&k| k == "kind").expect("kind key");
        assert!(
            ["grid", "job", "step"].starts_with(&keys[..at]) && at >= 2,
            "coordinates before kind: {line}"
        );
        let kind = fields[at].1.trim_matches('"');
        let (kind, payload) = table
            .iter()
            .find(|(k, _)| *k == kind)
            .unwrap_or_else(|| panic!("undocumented kind {kind}"));
        assert_eq!(&keys[at + 1..], payload, "payload of `{kind}`: {line}");
        if !checked.contains(kind) {
            checked.push(*kind);
        }
    }
    checked.sort_unstable();
    let mut all = documented.clone();
    all.sort_unstable();
    assert_eq!(checked, all, "every documented kind is checked");
}

#[test]
fn metric_table_matches_registered_metrics() {
    // The metric table of docs/OBSERVABILITY.md: rows of the form
    // "| `name` | kind | meaning |" under the "Metrics format" heading.
    let doc = include_str!("../docs/OBSERVABILITY.md");
    let section = doc
        .split("## Metrics format")
        .nth(1)
        .expect("doc has a Metrics format section");
    let section = section.split("\n## ").next().unwrap();
    let documented: Vec<(String, String)> = section
        .lines()
        .filter_map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let name = cells.get(1)?.strip_prefix('`')?.strip_suffix('`')?;
            Some((name.to_string(), cells.get(2)?.to_string()))
        })
        .collect();

    let mut flushed: Vec<(String, String)> = snapshot_metrics()
        .iter()
        .map(|name| {
            let kind = if EPOCH_GAUGES.contains(&name.as_str()) {
                "gauge"
            } else {
                "counter"
            };
            (name.to_string(), kind.to_string())
        })
        .collect();
    flushed.push(("route_hops".to_string(), "histogram".to_string()));
    assert_eq!(
        documented, flushed,
        "docs/OBSERVABILITY.md metric table (left) vs EpochSnapshot's fields + route_hops (right)"
    );
}
