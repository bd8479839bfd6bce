//! Figure 4 — "Distribution for the forwarded chunks for 10000 file
//! downloads. Left with 20% originator, on the right, with 100%
//! originators."
//!
//! Each panel plots, per node, the number of chunks that node forwarded,
//! for k = 4 and k = 20. The paper also reads total-bandwidth ratios off
//! the curves: "the area under k = 4 is 1.6x bigger than the area for
//! k = 20" (20% panel) "and 1.25x on the right hand side".

use fairswap_simcore::Executor;
use serde::{Deserialize, Serialize};

use fairswap_fairness::Histogram;

use crate::csv::CsvTable;
use crate::error::CoreError;
use crate::exec::run_jobs_observed;
use crate::experiments::scale::ExperimentScale;
use crate::obs::GridObservation;
use crate::presets::paper_grid;
use crate::spec::SimSpec;

/// One histogram series (one curve of one panel).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Series {
    /// Bucket size.
    pub k: usize,
    /// Originator fraction (panel).
    pub originator_fraction: f64,
    /// `(bin_lower_edge, node_count)` pairs.
    pub bins: Vec<(f64, u64)>,
    /// Total forwarded chunks (the "area" the paper compares).
    pub total_forwarded: u64,
    /// Gini of per-node forwarded counts (bandwidth-consumption skew).
    pub forwarded_gini: f64,
}

/// The regenerated figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4 {
    /// One series per grid cell.
    pub series: Vec<Fig4Series>,
    /// Histogram bin width used.
    pub bin_width: f64,
}

impl Fig4 {
    /// The series for a `(k, fraction)` cell.
    pub fn series_for(&self, k: usize, fraction: f64) -> Option<&Fig4Series> {
        self.series
            .iter()
            .find(|s| s.k == k && (s.originator_fraction - fraction).abs() < 1e-9)
    }

    /// The paper's area ratio for one panel: total forwarded under k = 4
    /// over total forwarded under k = 20.
    pub fn area_ratio(&self, fraction: f64) -> Option<f64> {
        let k4 = self.series_for(4, fraction)?.total_forwarded as f64;
        let k20 = self.series_for(20, fraction)?.total_forwarded as f64;
        (k20 > 0.0).then(|| k4 / k20)
    }

    /// Renders all series as long-format CSV.
    pub fn to_csv(&self) -> CsvTable {
        let mut csv = CsvTable::new(["k", "originator_fraction", "bin_lower", "node_count"]);
        for s in &self.series {
            for &(edge, count) in &s.bins {
                csv.push_row([
                    s.k.to_string(),
                    CsvTable::fmt_float(s.originator_fraction),
                    CsvTable::fmt_float(edge),
                    count.to_string(),
                ]);
            }
        }
        csv
    }
}

/// Runs the four-cell grid and regenerates Fig. 4 with the given
/// histogram bin width (the paper bins on the order of a few hundred chunks
/// at full scale; pass a smaller width for reduced scales).
///
/// Cells fan out over `executor` (output is bit-identical for any
/// thread count); `obs` carries progress and, when enabled, the
/// per-cell traces, metrics and phase timings.
///
/// # Errors
///
/// Propagates configuration errors as [`CoreError`].
pub fn run(
    scale: ExperimentScale,
    bin_width: f64,
    executor: &Executor,
    obs: &mut GridObservation,
) -> Result<Fig4, CoreError> {
    let cells = paper_grid();
    let reports = run_jobs_observed(executor, jobs(scale), obs)?;
    let series = cells
        .iter()
        .zip(reports)
        .map(|(&(k, fraction), report)| {
            let histogram: Histogram = report.forwarded_histogram(bin_width);
            Fig4Series {
                k,
                originator_fraction: fraction,
                bins: histogram.bins().collect(),
                total_forwarded: report.total_forwarded(),
                forwarded_gini: report.forwarded_gini(),
            }
        })
        .collect();
    Ok(Fig4 { series, bin_width })
}

/// The four-cell grid behind this figure, one [`SimSpec`] per
/// `(k, originator fraction)` cell — shared by [`run`] and the
/// `SimSpec` round-trip test (`tests/spec_stability.rs`).
pub fn jobs(scale: ExperimentScale) -> Vec<SimSpec> {
    paper_grid()
        .iter()
        .map(|&(k, fraction)| scale.cell_spec(k, fraction))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_fig4_shape() {
        let fig = run(
            ExperimentScale {
                nodes: 250,
                files: 120,
                seed: 0xFA12,
            },
            25.0,
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        assert_eq!(fig.series.len(), 4);

        // k = 4 moves more chunks in both panels (area ratio > 1).
        let skew_ratio = fig.area_ratio(0.2).unwrap();
        let all_ratio = fig.area_ratio(1.0).unwrap();
        assert!(skew_ratio > 1.0, "20% ratio {skew_ratio}");
        assert!(all_ratio > 1.0, "100% ratio {all_ratio}");

        // Skewed workload distributes bandwidth consumption more unevenly.
        let skew_gini = fig.series_for(4, 0.2).unwrap().forwarded_gini;
        let all_gini = fig.series_for(4, 1.0).unwrap().forwarded_gini;
        assert!(
            skew_gini > all_gini,
            "forwarded gini skew {skew_gini} !> all {all_gini}"
        );

        let csv = fig.to_csv();
        assert!(csv.len() > 8);
    }
}
