//! The `run.csv` summary table every `SimSpec` execution path emits.
//!
//! `fairswap run --config` and the `fairswap serve` job workers both
//! serialize a finished run through [`run_summary_csv`], which is what
//! makes the service's `/result/<job>` bytes comparable with `cmp`
//! against the batch CLI's `run.csv` — one serializer, one byte stream.
//! Columns are append-only: tooling keys on names, not positions.

use crate::config::SimConfig;
use crate::csv::CsvTable;
use crate::report::SimReport;

/// The file `fairswap run` writes the summary table to.
pub const RUN_SUMMARY_FILE: &str = "run.csv";

/// Header columns of the run summary table, in emission order.
pub const RUN_SUMMARY_COLUMNS: [&str; 19] = [
    "nodes",
    "bits",
    "k",
    "files",
    "seed",
    "mechanism",
    "route",
    "cache",
    "repair",
    "requests",
    "stuck_requests",
    "capacity_blocked",
    "detoured",
    "cache_hits",
    "mean_forwarded",
    "mean_hops",
    "f1_gini",
    "f2_gini",
    "repair_events",
];

/// Renders the one-row summary table for a finished run of `config`.
pub fn run_summary_csv(config: &SimConfig, report: &SimReport) -> CsvTable {
    let requests: u64 = report.traffic().requests_issued().iter().sum();
    let mut csv = CsvTable::new(RUN_SUMMARY_COLUMNS);
    csv.push_row([
        config.nodes.to_string(),
        config.bits.to_string(),
        config.bucket_sizing.default_k().to_string(),
        config.files.to_string(),
        config.seed.to_string(),
        config.mechanism.id().to_string(),
        config.route.id().to_string(),
        config.cache.id().to_string(),
        config.repair.id().to_string(),
        requests.to_string(),
        report.traffic().stuck_requests().to_string(),
        report.traffic().capacity_blocked().to_string(),
        report.traffic().detoured().to_string(),
        report.cache_hits().to_string(),
        CsvTable::fmt_float(report.mean_forwarded()),
        CsvTable::fmt_float(report.hops().mean().unwrap_or(0.0)),
        CsvTable::fmt_float(report.f1_contribution_gini()),
        CsvTable::fmt_float(report.f2_income_gini()),
        report.churn().map_or(0, |c| c.repair_events).to_string(),
    ]);
    csv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SimSpec;

    #[test]
    fn summary_has_one_row_under_the_pinned_header() {
        let mut spec = SimSpec::paper_defaults();
        spec.seed = 3;
        spec.topology.nodes = 80;
        spec.workload.files = 10;
        let report = spec.build().unwrap().run();
        let csv = run_summary_csv(&spec.to_config(), &report);
        assert_eq!(csv.columns(), RUN_SUMMARY_COLUMNS);
        assert_eq!(csv.len(), 1);
        let text = csv.to_csv_string();
        assert!(text.starts_with("nodes,bits,k,files,seed,mechanism,route,"));
        assert!(text.contains("80,16,4,10,3,swarm,greedy,"));
    }
}
