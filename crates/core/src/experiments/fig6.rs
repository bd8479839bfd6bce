//! Figure 6 — "Lorenz curve and Gini coefficient for correlation of total
//! forwarded chunks and forwarded chunks as the first hop."
//!
//! F1 per node is `total forwarded chunks / chunks served as paid first
//! hop`, computed over paid nodes only (paper §II-A). Paper finding: with
//! k = 20 and 100% originators the result is "very close ... to entire
//! equity", while k = 4 with 20% originators pays "very uneven rewards for
//! the provided bandwidth"; overall ≈6% Gini reduction from k = 20.

use fairswap_simcore::Executor;
use serde::{Deserialize, Serialize};

use crate::csv::CsvTable;
use crate::error::CoreError;
use crate::exec::run_jobs_observed;
use crate::experiments::scale::ExperimentScale;
use crate::obs::GridObservation;
use crate::presets::paper_grid;
use crate::spec::SimSpec;

/// One F1 Lorenz curve plus its Gini coefficient.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Series {
    /// Bucket size.
    pub k: usize,
    /// Originator fraction.
    pub originator_fraction: f64,
    /// F1: Gini of forwarded-per-paid-chunk ratios over paid nodes.
    pub gini: f64,
    /// Number of nodes that received any payment (the F1 population).
    pub paid_nodes: usize,
    /// `(population_share, value_share)` Lorenz points of the ratios.
    pub lorenz: Vec<(f64, f64)>,
}

/// The regenerated figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6 {
    /// One series per grid cell.
    pub series: Vec<Fig6Series>,
}

impl Fig6 {
    /// The series for a `(k, fraction)` cell.
    pub fn series_for(&self, k: usize, fraction: f64) -> Option<&Fig6Series> {
        self.series
            .iter()
            .find(|s| s.k == k && (s.originator_fraction - fraction).abs() < 1e-9)
    }

    /// Relative Gini reduction from k = 4 to k = 20 (paper: ≈6%).
    pub fn gini_reduction(&self, fraction: f64) -> Option<f64> {
        let k4 = self.series_for(4, fraction)?.gini;
        let k20 = self.series_for(20, fraction)?.gini;
        (k4 > 0.0).then(|| (k4 - k20) / k4)
    }

    /// Long-format CSV of all curves.
    pub fn to_csv(&self) -> CsvTable {
        let mut csv = CsvTable::new([
            "k",
            "originator_fraction",
            "gini",
            "paid_nodes",
            "population_share",
            "value_share",
        ]);
        for s in &self.series {
            for &(p, v) in &s.lorenz {
                csv.push_row([
                    s.k.to_string(),
                    CsvTable::fmt_float(s.originator_fraction),
                    CsvTable::fmt_float(s.gini),
                    s.paid_nodes.to_string(),
                    CsvTable::fmt_float(p),
                    CsvTable::fmt_float(v),
                ]);
            }
        }
        csv
    }
}

/// Runs the four-cell grid and regenerates Fig. 6.
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
) -> Result<Fig6, CoreError> {
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
            let values = report
                .f1_values()
                .expect("paper-scale workloads always pay someone");
            let lorenz = report
                .lorenz_f1()
                .expect("ratios of paid nodes are positive")
                .into_iter()
                .map(|p| (p.population_share, p.value_share))
                .collect();
            Fig6Series {
                k,
                originator_fraction: fraction,
                gini: report.f1_contribution_gini(),
                paid_nodes: values.len(),
                lorenz,
            }
        })
        .collect();
    Ok(Fig6 { series })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_fig6_shape() {
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

        // k = 20 @ 100% is the fairest cell; k = 4 @ 20% the least fair.
        let best = fig.series_for(20, 1.0).unwrap().gini;
        let worst = fig.series_for(4, 0.2).unwrap().gini;
        assert!(best < worst, "best {best} !< worst {worst}");

        // k = 20 reduces the F1 Gini in both panels.
        for fraction in [0.2, 1.0] {
            assert!(
                fig.gini_reduction(fraction).unwrap() > 0.0,
                "no F1 reduction at fraction {fraction}"
            );
        }

        // Paid population is a subset of all nodes.
        for s in &fig.series {
            assert!(s.paid_nodes > 0 && s.paid_nodes <= 250);
        }

        assert!(!fig.to_csv().is_empty());
    }
}
