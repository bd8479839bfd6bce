//! Table I — "Average forwarded chunks for the experiment with 10k
//! downloads".
//!
//! Paper values (1000 nodes, 10k files): k=4 → 17 253 (20% originators) /
//! 16 048 (100%); k=20 → 11 356 / 10 904. The reproduction target is the
//! *shape*: fewer forwarded chunks for k = 20 than k = 4, and fewer for
//! 100% originators than for 20%.

use fairswap_simcore::Executor;
use serde::{Deserialize, Serialize};

use crate::csv::CsvTable;
use crate::error::CoreError;
use crate::exec::run_jobs_observed;
use crate::experiments::scale::ExperimentScale;
use crate::obs::GridObservation;
use crate::presets::paper_grid;
use crate::spec::SimSpec;

/// One cell of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Bucket size.
    pub k: usize,
    /// Originator fraction.
    pub originator_fraction: f64,
    /// Mean forwarded chunks per node.
    pub mean_forwarded: f64,
    /// Total chunk transmissions.
    pub total_forwarded: u64,
    /// Mean hops per delivered chunk.
    pub mean_hops: f64,
}

/// The regenerated table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1 {
    /// One row per grid cell, in [`paper_grid`] order.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// The row for a `(k, fraction)` cell.
    pub fn row(&self, k: usize, fraction: f64) -> Option<&Table1Row> {
        self.rows
            .iter()
            .find(|r| r.k == k && (r.originator_fraction - fraction).abs() < 1e-9)
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> CsvTable {
        let mut csv = CsvTable::new([
            "k",
            "originator_fraction",
            "mean_forwarded",
            "total_forwarded",
            "mean_hops",
        ]);
        for r in &self.rows {
            csv.push_row([
                r.k.to_string(),
                CsvTable::fmt_float(r.originator_fraction),
                CsvTable::fmt_float(r.mean_forwarded),
                r.total_forwarded.to_string(),
                CsvTable::fmt_float(r.mean_hops),
            ]);
        }
        csv
    }
}

/// Runs the four-cell grid and regenerates Table I.
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
) -> Result<Table1, CoreError> {
    let cells = paper_grid();
    let jobs: Vec<SimSpec> = cells
        .iter()
        .map(|&(k, fraction)| scale.cell_spec(k, fraction))
        .collect();
    let reports = run_jobs_observed(executor, jobs, obs)?;
    let rows = cells
        .iter()
        .zip(reports)
        .map(|(&(k, fraction), report)| Table1Row {
            k,
            originator_fraction: fraction,
            mean_forwarded: report.mean_forwarded(),
            total_forwarded: report.total_forwarded(),
            mean_hops: report.hops().mean().unwrap_or(0.0),
        })
        .collect();
    Ok(Table1 { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_table1_shape() {
        let table = run(
            ExperimentScale {
                nodes: 250,
                files: 120,
                seed: 0xFA12,
            },
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        assert_eq!(table.rows.len(), 4);

        let k4_skew = table.row(4, 0.2).unwrap().mean_forwarded;
        let k4_all = table.row(4, 1.0).unwrap().mean_forwarded;
        let k20_skew = table.row(20, 0.2).unwrap().mean_forwarded;
        let k20_all = table.row(20, 1.0).unwrap().mean_forwarded;

        // Paper shape: k = 20 consumes less bandwidth in both columns.
        assert!(k20_skew < k4_skew, "k20 {k20_skew} !< k4 {k4_skew} (20%)");
        assert!(k20_all < k4_all, "k20 {k20_all} !< k4 {k4_all} (100%)");

        let csv = table.to_csv().to_csv_string();
        assert!(csv.starts_with("k,originator_fraction"));
        assert_eq!(csv.lines().count(), 5);
    }

    #[test]
    fn parallel_table_is_byte_identical_to_serial() {
        let scale = ExperimentScale {
            nodes: 150,
            files: 40,
            seed: 0xFA12,
        };
        let serial = run(scale, &Executor::serial(), &mut GridObservation::disabled()).unwrap();
        let parallel = run(scale, &Executor::new(4), &mut GridObservation::disabled()).unwrap();
        assert_eq!(
            serial.to_csv().to_csv_string(),
            parallel.to_csv().to_csv_string()
        );
    }
}
