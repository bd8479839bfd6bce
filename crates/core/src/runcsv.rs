//! The `run.csv` summary table every `SimSpec` execution path emits.
//!
//! `fairswap run --config` and the `fairswap serve` job workers both
//! serialize a finished run through [`run_summary_csv`], which is what
//! makes the service's `/result/<job>` bytes comparable with `cmp`
//! against the batch CLI's `run.csv` — one serializer, one byte stream.
//! Columns are append-only: tooling keys on names, not positions.

use serde::Serialize;

use crate::config::SimConfig;
use crate::csv::CsvTable;
use crate::report::SimReport;

/// The file `fairswap run` writes the summary table to.
pub const RUN_SUMMARY_FILE: &str = "run.csv";

/// The one row of the run summary table; its fields are the columns.
#[derive(Serialize)]
struct RunSummaryRow {
    nodes: usize,
    bits: u32,
    k: usize,
    files: u64,
    seed: u64,
    mechanism: &'static str,
    route: &'static str,
    cache: &'static str,
    repair: &'static str,
    requests: u64,
    stuck_requests: u64,
    capacity_blocked: u64,
    detoured: u64,
    cache_hits: u64,
    mean_forwarded: f64,
    mean_hops: f64,
    f1_gini: f64,
    f2_gini: f64,
    repair_events: u64,
}

/// Renders the one-row summary table for a finished run of `config`.
pub fn run_summary_csv(config: &SimConfig, report: &SimReport) -> CsvTable {
    let traffic = report.traffic();
    CsvTable::from_rows(&[RunSummaryRow {
        nodes: config.nodes,
        bits: config.bits,
        k: config.bucket_sizing.default_k(),
        files: config.files,
        seed: config.seed,
        mechanism: config.mechanism.id(),
        route: config.route.id(),
        cache: config.cache.id(),
        repair: config.repair.id(),
        requests: traffic.requests_issued().iter().sum(),
        stuck_requests: traffic.stuck_requests(),
        capacity_blocked: traffic.capacity_blocked(),
        detoured: traffic.detoured(),
        cache_hits: report.cache_hits(),
        mean_forwarded: report.mean_forwarded(),
        mean_hops: report.hops().mean().unwrap_or(0.0),
        f1_gini: report.f1_contribution_gini(),
        f2_gini: report.f2_income_gini(),
        repair_events: report.churn().map_or(0, |c| c.repair_events),
    }])
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
        let csv = run_summary_csv(report.config(), &report);
        assert_eq!(csv.len(), 1);
        let text = csv.to_csv_string();
        assert!(text.starts_with(
            "nodes,bits,k,files,seed,mechanism,route,cache,repair,requests,stuck_requests,\
             capacity_blocked,detoured,cache_hits,mean_forwarded,mean_hops,f1_gini,f2_gini,\
             repair_events\n"
        ));
        assert!(text.contains("\n80,16,4,10,3,swarm,greedy,"));
    }
}
