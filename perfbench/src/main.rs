//! `perfbench`: the end-to-end and per-layer benchmark of the fairswap
//! simulator and its serve path.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench record-digests > digests.txt
//! ```
//!
//! With `--trace 0` a run reports every end-to-end metric; with
//! `--trace 1` it runs the traced replay and reports every per-layer
//! metric. The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `record-digests` prints the output digest of every batch cell and seed
//! slot; run it only on a commit whose outputs are known to be right.

mod batch;
mod cells;
mod replay;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics (name, unit), as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("chunks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("results_per_s", "1/s"),
    ("result_p50_ms", "ms"),
];

/// Per-layer metrics (name, unit), as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("kademlia.build_s", "s"),
    ("kademlia.leave_s", "s"),
    ("kademlia.join_s", "s"),
    ("kademlia.leaves", "count"),
    ("kademlia.joins", "count"),
    ("churn.plan_s", "s"),
    ("churn.events", "count"),
    ("workload.next_download_s", "s"),
    ("workload.apply_membership_s", "s"),
    ("storage.route_s", "s"),
    ("storage.chunks", "count"),
    ("storage.hops_per_chunk", "hops"),
    ("storage.delivered_ratio", "ratio"),
    ("storage.on_leave_s", "s"),
    ("storage.repair_s", "s"),
    ("storage.repair_transfers", "count"),
    ("storage.repair_delivered_ratio", "ratio"),
    ("storage.retry_s", "s"),
    ("storage.retried", "count"),
    ("storage.recovered_ratio", "ratio"),
    ("incentives.account_s", "s"),
    ("incentives.deliveries", "count"),
    ("swap.tick_s", "s"),
    ("swap.departure_settle_s", "s"),
    ("swap.settlements", "count"),
    ("fairness.gini_s", "s"),
    ("core.build_s", "s"),
    ("core.report_s", "s"),
    ("core.csv_s", "s"),
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.admit_us", "us"),
    ("serve.http_us", "us"),
    ("serve.result_p99_ms", "ms"),
    ("serve.result_wait_ms_p50", "ms"),
    ("serve.result_wait_ms_p99", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("serve.rss_kb_per_request", "kB"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
];

/// Per-layer values by name; layers a workload does not exercise read 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

/// What one run prints.
#[derive(Debug)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Self {
            attempted,
            failed,
            metrics: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds every per-layer metric, in `PER_LAYER` order.
    pub fn layers(&mut self, layers: Layers) {
        for (name, unit) in PER_LAYER {
            self.metric(name, layers.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !cells::WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            cells::WORKLOADS.join(", ")
        ));
    }
    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let trace_path = PathBuf::from(".bench_out").join(format!("{}.trace.jsonl", args.workload));
    let batch = cells::BATCH_WORKLOADS.contains(&args.workload.as_str());
    let outcome = match (batch, args.trace) {
        (true, true) => batch::traced(&args.workload, args.seed, args.seconds, &trace_path),
        (true, false) => batch::measure(&args.workload, args.seed, args.seconds),
        (false, true) => serve::traced(args.seed, args.seconds, &trace_path)?,
        (false, false) => serve::measure(args.seed, args.seconds)?,
    };
    Ok(outcome)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("record-digests") {
        for workload in cells::BATCH_WORKLOADS {
            for slot in 0..cells::SLOTS {
                for cell in cells::batch_cells(workload, slot).expect("batch workload") {
                    println!("{}", batch::digest_line(workload, &cell));
                }
            }
        }
        return ExitCode::SUCCESS;
    }
    let outcome = parse_args(&args).and_then(|args| run(&args));
    match outcome {
        Ok(outcome) => {
            for (name, value, unit) in &outcome.metrics {
                eprintln!("  {name:<32} {value:>16.6} {unit}");
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists above are the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json: serde::Value = serde_json::from_str(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            let fields = json.as_object().unwrap();
            let (_, list) = fields.iter().find(|(k, _)| k == key).unwrap();
            let serde::Value::Array(items) = list else {
                panic!("{key} is not a list")
            };
            items
                .iter()
                .map(|item| {
                    let get = |name: &str| match item
                        .as_object()
                        .unwrap()
                        .iter()
                        .find(|(k, _)| k == name)
                    {
                        Some((_, serde::Value::Str(s))) => s.clone(),
                        other => panic!("{name}: {other:?}"),
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = match json
            .as_object()
            .unwrap()
            .iter()
            .find(|(k, _)| k == "workloads")
        {
            Some((_, serde::Value::Array(items))) => items
                .iter()
                .map(
                    |w| match w.as_object().unwrap().iter().find(|(k, _)| k == "name") {
                        Some((_, serde::Value::Str(s))) => s.clone(),
                        _ => panic!("workload without a name"),
                    },
                )
                .collect(),
            _ => panic!("no workloads"),
        };
        assert_eq!(workloads, cells::WORKLOADS);
    }

    #[test]
    fn args_parse_and_reject() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let parsed = parse_args(&args(
            "--workload serve_mixed --seed 3 --seconds 2 --trace 1",
        ))
        .unwrap();
        assert!(parsed.trace && parsed.seed == 3 && parsed.seconds == 2.0);
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload paper_static --trace 2")).is_err());
        assert!(parse_args(&args("--workload paper_static --seed")).is_err());
    }

    #[test]
    fn json_line_has_the_result_keys() {
        let mut outcome = Outcome::new(3, 0);
        outcome.metric("setup_s", 0.5, "s");
        assert_eq!(
            outcome.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
