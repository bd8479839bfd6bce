//! Fairness under churn — the dynamic-network scenario the paper's §V
//! flags as future work.
//!
//! Sweeps the churn rate (expected fraction of live nodes departing per
//! step) for `k ∈ {4, 20}` and reports the paper's F1/F2 fairness metrics
//! plus membership statistics, answering the headline open question: does
//! the `k = 20` fairness advantage survive when the overlay is no longer
//! static?
//!
//! `churn.csv` is [`CsvTable::from_rows`](crate::CsvTable::from_rows) of
//! [`ChurnRow`]s and `churn_timeline.csv` of [`ChurnTimelineRow`]s: a row's
//! field order is its file's column order.

use fairswap_simcore::Executor;
use serde::{Deserialize, Serialize};

use fairswap_churn::ChurnConfig;

use crate::error::CoreError;
use crate::exec::run_jobs_observed;
use crate::experiments::scale::ExperimentScale;
use crate::obs::GridObservation;
use crate::spec::SimSpec;

/// The bucket sizes compared throughout the paper.
pub const PAPER_KS: [usize; 2] = [4, 20];

/// Default churn-rate sweep: static baseline up to 20% of nodes per step.
pub const DEFAULT_RATES: [f64; 5] = [0.0, 0.02, 0.05, 0.1, 0.2];

/// One `(k, churn_rate)` cell of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnRow {
    /// Bucket size.
    pub k: usize,
    /// Configured churn rate (0 = static baseline).
    pub churn_rate: f64,
    /// F1 contribution Gini (forwarded per paid chunk).
    pub f1_gini: f64,
    /// F2 income Gini.
    pub f2_gini: f64,
    /// Join events applied.
    pub joins: u64,
    /// Leave events applied.
    pub leaves: u64,
    /// Settlements executed by departing peers.
    pub departure_settlements: u64,
    /// Live nodes after the final step (network size for the baseline).
    pub final_live: usize,
    /// Mean live nodes across the run.
    pub mean_live: f64,
    /// Requests whose greedy route got stuck (rises with churn as tables
    /// thin out).
    pub stuck_requests: u64,
}

/// One sample of a churned cell's fairness-over-time series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnTimelineRow {
    /// Bucket size.
    pub k: usize,
    /// Configured churn rate.
    pub churn_rate: f64,
    /// Timestep (files downloaded so far).
    pub step: u64,
    /// Live nodes at that point.
    pub live: usize,
    /// F2 income Gini at that point.
    pub f2_gini: f64,
}

/// The full sweep plus the fairness-over-time series of every churned cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnExperiment {
    /// One row per `(k, rate)` cell, in sweep order.
    pub rows: Vec<ChurnRow>,
    /// Every churned cell's timeline samples, cell after cell in sweep
    /// order.
    pub timeline: Vec<ChurnTimelineRow>,
}

impl ChurnExperiment {
    /// The row for one `(k, rate)` cell.
    pub fn row(&self, k: usize, rate: f64) -> Option<&ChurnRow> {
        self.rows
            .iter()
            .find(|r| r.k == k && (r.churn_rate - rate).abs() < 1e-12)
    }
}

/// Runs the churn sweep for `k ∈ {4, 20}` over the given rates (0 = the
/// paper's static overlay, included as the baseline).
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
    rates: &[f64],
    executor: &Executor,
    obs: &mut GridObservation,
) -> Result<ChurnExperiment, CoreError> {
    let cells = grid(rates);
    let reports = run_jobs_observed(executor, jobs(scale, rates)?, obs)?;

    let mut rows = Vec::with_capacity(cells.len());
    let mut timeline = Vec::new();
    for (&(k, rate), report) in cells.iter().zip(&reports) {
        let (joins, leaves, departure_settlements, final_live, mean_live) = match report.churn() {
            Some(churn) => {
                timeline.extend(churn.timeline.iter().map(|s| ChurnTimelineRow {
                    k,
                    churn_rate: rate,
                    step: s.step,
                    live: s.live,
                    f2_gini: s.f2_gini,
                }));
                (
                    churn.joins,
                    churn.leaves,
                    churn.departure_settlements,
                    churn.final_live,
                    churn.mean_live(),
                )
            }
            None => (0, 0, 0, scale.nodes, scale.nodes as f64),
        };
        rows.push(ChurnRow {
            k,
            churn_rate: rate,
            f1_gini: report.f1_contribution_gini(),
            f2_gini: report.f2_income_gini(),
            joins,
            leaves,
            departure_settlements,
            final_live,
            mean_live,
            stuck_requests: report.traffic().stuck_requests(),
        });
    }
    Ok(ChurnExperiment { rows, timeline })
}

fn churn_config(rate: f64) -> Result<ChurnConfig, CoreError> {
    Ok(ChurnConfig::from_rate(rate)?)
}

/// The `(k, rate)` cells in `PAPER_KS` × `rates` order — the single
/// source of cell order for both [`run`]'s row labels and the job
/// list, so the pairing can never drift.
fn grid(rates: &[f64]) -> Vec<(usize, f64)> {
    PAPER_KS
        .iter()
        .flat_map(|&k| rates.iter().map(move |&rate| (k, rate)))
        .collect()
}

/// The sweep grid's [`SimSpec`]s — shared by [`run`] and the `SimSpec`
/// round-trip test (`tests/spec_stability.rs`).
///
/// # Errors
///
/// Propagates invalid churn rates as [`CoreError`].
pub fn jobs(scale: ExperimentScale, rates: &[f64]) -> Result<Vec<SimSpec>, CoreError> {
    grid(rates)
        .into_iter()
        .map(|(k, rate)| {
            let mut spec = scale.cell_spec(k, 1.0);
            if rate != 0.0 {
                spec.dynamics.churn = Some(churn_config(rate)?);
            }
            Ok(spec)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsvTable;

    fn scale() -> ExperimentScale {
        ExperimentScale {
            nodes: 150,
            files: 60,
            seed: 0xFA12,
        }
    }

    #[test]
    fn sweep_covers_the_grid_and_stays_bounded() {
        let result = run(
            scale(),
            &[0.0, 0.1],
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        assert_eq!(result.rows.len(), 4);
        for row in &result.rows {
            assert!((0.0..=1.0).contains(&row.f1_gini), "{row:?}");
            assert!((0.0..=1.0).contains(&row.f2_gini), "{row:?}");
        }
        // Baselines are static; churned cells actually churned.
        assert_eq!(result.row(4, 0.0).unwrap().leaves, 0);
        assert!(result.row(4, 0.1).unwrap().leaves > 0);
        // A timeline for each churned cell and no other.
        let mut cells: Vec<(usize, f64)> = result
            .timeline
            .iter()
            .map(|r| (r.k, r.churn_rate))
            .collect();
        cells.dedup();
        assert_eq!(cells, [(4, 0.1), (20, 0.1)]);
        assert!(!CsvTable::from_rows(&result.rows).is_empty());
        assert!(!CsvTable::from_rows(&result.timeline).is_empty());
    }

    #[test]
    fn deterministic() {
        let a = run(
            scale(),
            &[0.05],
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        let b = run(
            scale(),
            &[0.05],
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_rates_error() {
        assert!(run(
            scale(),
            &[-0.5],
            &Executor::serial(),
            &mut GridObservation::disabled()
        )
        .is_err());
    }
}
