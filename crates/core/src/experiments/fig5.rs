//! Figure 5 — "F2 property using Lorenz curve and the Gini coefficient for
//! 10000 file downloads."
//!
//! Plots the Lorenz curve of per-node income (rewarded accounting units)
//! for all four grid cells. Paper finding: "for a bucket size k of 20, the
//! wealth distribution is more equitable for both scenarios", with roughly
//! a 7% Gini decrease; k = 4 with 20% originators is the least fair.

use fairswap_simcore::Executor;
use serde::{Deserialize, Serialize};

use crate::csv::CsvTable;
use crate::error::CoreError;
use crate::exec::run_jobs_observed;
use crate::experiments::scale::ExperimentScale;
use crate::obs::GridObservation;
use crate::presets::paper_grid;
use crate::spec::SimSpec;

/// One Lorenz curve plus its Gini coefficient.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Series {
    /// Bucket size.
    pub k: usize,
    /// Originator fraction.
    pub originator_fraction: f64,
    /// F2: Gini of per-node income.
    pub gini: f64,
    /// `(population_share, value_share)` Lorenz points.
    pub lorenz: Vec<(f64, f64)>,
}

/// The regenerated figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5 {
    /// One series per grid cell.
    pub series: Vec<Fig5Series>,
}

impl Fig5 {
    /// The series for a `(k, fraction)` cell.
    pub fn series_for(&self, k: usize, fraction: f64) -> Option<&Fig5Series> {
        self.series
            .iter()
            .find(|s| s.k == k && (s.originator_fraction - fraction).abs() < 1e-9)
    }

    /// Relative Gini reduction from k = 4 to k = 20 for one panel
    /// (the paper reports ≈7% at 10k files).
    pub fn gini_reduction(&self, fraction: f64) -> Option<f64> {
        let k4 = self.series_for(4, fraction)?.gini;
        let k20 = self.series_for(20, fraction)?.gini;
        (k4 > 0.0).then(|| (k4 - k20) / k4)
    }

    /// Long-format CSV of all Lorenz curves (Gini repeated per row).
    pub fn to_csv(&self) -> CsvTable {
        let mut csv = CsvTable::new([
            "k",
            "originator_fraction",
            "gini",
            "population_share",
            "value_share",
        ]);
        for s in &self.series {
            for &(p, v) in &s.lorenz {
                csv.push_row([
                    s.k.to_string(),
                    CsvTable::fmt_float(s.originator_fraction),
                    CsvTable::fmt_float(s.gini),
                    CsvTable::fmt_float(p),
                    CsvTable::fmt_float(v),
                ]);
            }
        }
        csv
    }
}

/// Runs the four-cell grid and regenerates Fig. 5.
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
    executor: &Executor,
    obs: &mut GridObservation,
) -> Result<Fig5, CoreError> {
    let cells = paper_grid();
    let jobs: Vec<SimSpec> = cells
        .iter()
        .map(|&(k, fraction)| scale.cell_spec(k, fraction))
        .collect();
    let reports = run_jobs_observed(executor, jobs, obs)?;
    let series = cells
        .iter()
        .zip(reports)
        .map(|(&(k, fraction), report)| {
            let lorenz = report
                .lorenz_income()
                .expect("paper-scale workloads always pay someone")
                .into_iter()
                .map(|p| (p.population_share, p.value_share))
                .collect();
            Fig5Series {
                k,
                originator_fraction: fraction,
                gini: report.f2_income_gini(),
                lorenz,
            }
        })
        .collect();
    Ok(Fig5 { series })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_fig5_shape() {
        let fig = run(
            ExperimentScale {
                nodes: 250,
                files: 150,
                seed: 0xFA12,
            },
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();

        // k = 20 is fairer (lower Gini) in both workload scenarios.
        for fraction in [0.2, 1.0] {
            let k4 = fig.series_for(4, fraction).unwrap().gini;
            let k20 = fig.series_for(20, fraction).unwrap().gini;
            assert!(
                k20 < k4,
                "F2 gini k20 {k20} !< k4 {k4} at fraction {fraction}"
            );
        }
        // The reduction is positive in both panels.
        assert!(fig.gini_reduction(0.2).unwrap() > 0.0);
        assert!(fig.gini_reduction(1.0).unwrap() > 0.0);

        // Lorenz curves end at (1, 1).
        let s = fig.series_for(4, 0.2).unwrap();
        let last = s.lorenz.last().unwrap();
        assert!((last.0 - 1.0).abs() < 1e-9 && (last.1 - 1.0).abs() < 1e-9);

        assert!(!fig.to_csv().is_empty());
    }
}
