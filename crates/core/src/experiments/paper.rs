//! The paper's evaluation grid, k ∈ {4, 20} × originators ∈ {20%, 100%},
//! run once and read five ways:
//!
//! - **Table I**, "Average forwarded chunks for the experiment with 10k
//!   downloads". Paper values (1000 nodes, 10k files): k=4 → 17 253 (20%
//!   originators) / 16 048 (100%); k=20 → 11 356 / 10 904. The
//!   reproduction target is the *shape*: fewer forwarded chunks for k = 20
//!   than k = 4.
//! - **Fig. 4**, the per-node distribution of forwarded chunks. The paper
//!   reads total-bandwidth ratios off the curves: "the area under k = 4 is
//!   1.6x bigger than the area for k = 20" (20% panel) "and 1.25x on the
//!   right hand side".
//! - **Fig. 5**, F2: Lorenz curve and Gini of per-node income. "For a
//!   bucket size k of 20, the wealth distribution is more equitable for
//!   both scenarios", with roughly a 7% Gini decrease.
//! - **Fig. 6**, F1: Lorenz curve and Gini of `total forwarded chunks /
//!   chunks served as paid first hop` over paid nodes (paper §II-A). With
//!   k = 20 and 100% originators the result is "very close ... to entire
//!   equity"; overall ≈6% Gini reduction from k = 20.
//! - **Gini ablation**: the k = 4 vs k = 20 F2 comparison of the 20% column
//!   re-evaluated under Theil, Atkinson and Hoover indices. The paper's
//!   conclusion is metric-robust iff every index orders the two the same
//!   way.

use fairswap_simcore::Executor;
use serde::{Deserialize, Serialize};

use fairswap_fairness::{atkinson, hoover, theil, LorenzPoint};

use crate::csv::CsvTable;
use crate::error::CoreError;
use crate::exec::run_jobs_observed;
use crate::experiments::scale::ExperimentScale;
use crate::obs::GridObservation;
use crate::spec::SimSpec;

/// The four cells of the paper's evaluation grid as `(k, originator
/// fraction)` pairs: k ∈ {4, 20} × originators ∈ {20%, 100%}.
pub const GRID: [(usize, f64); 4] = [(4, 0.2), (4, 1.0), (20, 0.2), (20, 1.0)];

/// Everything the paper's figures read off one grid cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PaperCell {
    /// Bucket size.
    pub k: usize,
    /// Originator fraction.
    pub originator_fraction: f64,
    /// Table I: mean forwarded chunks per node.
    pub mean_forwarded: f64,
    /// Total chunk transmissions (the "area" Fig. 4 compares).
    pub total_forwarded: u64,
    /// Table I: mean hops per delivered chunk.
    pub mean_hops: f64,
    /// Fig. 4: `(bin_lower_edge, node_count)` pairs of per-node forwarded
    /// chunks, in bins `files / 2` wide (at least 10).
    pub forwarded_bins: Vec<(f64, u64)>,
    /// Gini of per-node forwarded counts (bandwidth-consumption skew).
    pub forwarded_gini: f64,
    /// Fig. 5, F2: Gini of per-node income.
    pub f2_gini: f64,
    /// Fig. 5: `(population_share, value_share)` Lorenz points of income.
    pub f2_lorenz: Vec<(f64, f64)>,
    /// Fig. 6, F1: Gini of forwarded-per-paid-chunk ratios over paid nodes.
    pub f1_gini: f64,
    /// Number of nodes that received any payment (the F1 population).
    pub paid_nodes: usize,
    /// Fig. 6: `(population_share, value_share)` Lorenz points of the
    /// ratios.
    pub f1_lorenz: Vec<(f64, f64)>,
    /// Ablation: Theil T index of incomes.
    pub theil: f64,
    /// Ablation: Atkinson index (epsilon = 0.5) of incomes.
    pub atkinson_05: f64,
    /// Ablation: Hoover (Robin Hood) index of incomes.
    pub hoover: f64,
}

/// The regenerated grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PaperGrid {
    /// One cell per [`GRID`] entry, in that order.
    pub cells: Vec<PaperCell>,
}

impl PaperGrid {
    /// The cell for `(k, fraction)`.
    pub fn cell(&self, k: usize, fraction: f64) -> Option<&PaperCell> {
        self.cells
            .iter()
            .find(|c| c.k == k && (c.originator_fraction - fraction).abs() < 1e-9)
    }

    /// The paper's Fig. 4 area ratio for one panel: total forwarded under
    /// k = 4 over total forwarded under k = 20.
    pub fn area_ratio(&self, fraction: f64) -> Option<f64> {
        let k4 = self.cell(4, fraction)?.total_forwarded as f64;
        let k20 = self.cell(20, fraction)?.total_forwarded as f64;
        (k20 > 0.0).then(|| k4 / k20)
    }

    /// Relative F2 Gini reduction from k = 4 to k = 20 for one panel
    /// (the paper reports ≈7% at 10k files).
    pub fn f2_gini_reduction(&self, fraction: f64) -> Option<f64> {
        self.reduction(fraction, |c| c.f2_gini)
    }

    /// Relative F1 Gini reduction from k = 4 to k = 20 (paper: ≈6%).
    pub fn f1_gini_reduction(&self, fraction: f64) -> Option<f64> {
        self.reduction(fraction, |c| c.f1_gini)
    }

    fn reduction(&self, fraction: f64, gini: impl Fn(&PaperCell) -> f64) -> Option<f64> {
        let k4 = gini(self.cell(4, fraction)?);
        let k20 = gini(self.cell(20, fraction)?);
        (k4 > 0.0).then(|| (k4 - k20) / k4)
    }

    /// Whether every inequality index agrees that k = 4 is less fair than
    /// k = 20 in the 20% column.
    pub fn all_indices_agree(&self) -> bool {
        let (Some(k4), Some(k20)) = (self.cell(4, 0.2), self.cell(20, 0.2)) else {
            return false;
        };
        k4.f2_gini > k20.f2_gini
            && k4.theil > k20.theil
            && k4.atkinson_05 > k20.atkinson_05
            && k4.hoover > k20.hoover
    }

    /// Every view as `(file name, table)`, in the order `fairswap paper`
    /// writes them.
    pub fn csvs(&self) -> [(&'static str, CsvTable); 5] {
        [
            ("table1.csv", self.table1_csv()),
            ("fig4.csv", self.fig4_csv()),
            ("fig5.csv", self.fig5_csv()),
            ("fig6.csv", self.fig6_csv()),
            ("metric_robustness.csv", self.metric_robustness_csv()),
        ]
    }

    /// Table I as CSV.
    pub fn table1_csv(&self) -> CsvTable {
        let rows: Vec<Table1Row> = self
            .cells
            .iter()
            .map(|c| Table1Row {
                k: c.k,
                originator_fraction: c.originator_fraction,
                mean_forwarded: c.mean_forwarded,
                total_forwarded: c.total_forwarded,
                mean_hops: c.mean_hops,
            })
            .collect();
        CsvTable::from_rows(&rows)
    }

    /// Fig. 4 as long-format CSV, one row per histogram bin.
    pub fn fig4_csv(&self) -> CsvTable {
        let rows: Vec<Fig4Row> = self
            .cells
            .iter()
            .flat_map(|c| {
                c.forwarded_bins
                    .iter()
                    .map(|&(bin_lower, node_count)| Fig4Row {
                        k: c.k,
                        originator_fraction: c.originator_fraction,
                        bin_lower,
                        node_count,
                    })
            })
            .collect();
        CsvTable::from_rows(&rows)
    }

    /// Fig. 5 as long-format CSV of all Lorenz curves (Gini repeated per
    /// row).
    pub fn fig5_csv(&self) -> CsvTable {
        let rows: Vec<Fig5Row> = self
            .cells
            .iter()
            .flat_map(|c| {
                c.f2_lorenz
                    .iter()
                    .map(|&(population_share, value_share)| Fig5Row {
                        k: c.k,
                        originator_fraction: c.originator_fraction,
                        gini: c.f2_gini,
                        population_share,
                        value_share,
                    })
            })
            .collect();
        CsvTable::from_rows(&rows)
    }

    /// Fig. 6 as long-format CSV of all Lorenz curves.
    pub fn fig6_csv(&self) -> CsvTable {
        let rows: Vec<Fig6Row> = self
            .cells
            .iter()
            .flat_map(|c| {
                c.f1_lorenz
                    .iter()
                    .map(|&(population_share, value_share)| Fig6Row {
                        k: c.k,
                        originator_fraction: c.originator_fraction,
                        gini: c.f1_gini,
                        paid_nodes: c.paid_nodes,
                        population_share,
                        value_share,
                    })
            })
            .collect();
        CsvTable::from_rows(&rows)
    }

    /// The Gini ablation as CSV: the 20% column, one row per `k`.
    pub fn metric_robustness_csv(&self) -> CsvTable {
        let rows: Vec<RobustnessRow> = self
            .cells
            .iter()
            .filter(|c| c.originator_fraction == 0.2)
            .map(|c| RobustnessRow {
                k: c.k,
                gini: c.f2_gini,
                theil: c.theil,
                atkinson: c.atkinson_05,
                hoover: c.hoover,
            })
            .collect();
        CsvTable::from_rows(&rows)
    }
}

/// One row of `table1.csv`: a grid cell.
#[derive(Serialize)]
struct Table1Row {
    k: usize,
    originator_fraction: f64,
    mean_forwarded: f64,
    total_forwarded: u64,
    mean_hops: f64,
}

/// One row of `fig4.csv`: a histogram bin of one cell.
#[derive(Serialize)]
struct Fig4Row {
    k: usize,
    originator_fraction: f64,
    bin_lower: f64,
    node_count: u64,
}

/// One row of `fig5.csv`: a Lorenz point of one cell's incomes.
#[derive(Serialize)]
struct Fig5Row {
    k: usize,
    originator_fraction: f64,
    gini: f64,
    population_share: f64,
    value_share: f64,
}

/// One row of `fig6.csv`: a Lorenz point of one cell's F1 ratios.
#[derive(Serialize)]
struct Fig6Row {
    k: usize,
    originator_fraction: f64,
    gini: f64,
    paid_nodes: usize,
    population_share: f64,
    value_share: f64,
}

/// One row of `metric_robustness.csv`: every index for one `k`.
#[derive(Serialize)]
struct RobustnessRow {
    k: usize,
    gini: f64,
    theil: f64,
    #[serde(rename = "atkinson_0.5")]
    atkinson: f64,
    hoover: f64,
}

/// One [`SimSpec`] per [`GRID`] cell, in grid order.
pub fn jobs(scale: ExperimentScale) -> Vec<SimSpec> {
    GRID.iter()
        .map(|&(k, fraction)| scale.cell_spec(k, fraction))
        .collect()
}

/// Runs the four-cell grid once and reads every paper view off it.
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
) -> Result<PaperGrid, CoreError> {
    let bin_width = (scale.files as f64 / 2.0).max(10.0);
    let reports = run_jobs_observed(executor, jobs(scale), obs)?;
    let cells = GRID
        .iter()
        .zip(reports)
        .map(|(&(k, fraction), report)| {
            let incomes = report.incomes();
            PaperCell {
                k,
                originator_fraction: fraction,
                mean_forwarded: report.mean_forwarded(),
                total_forwarded: report.total_forwarded(),
                mean_hops: report.hops().mean().unwrap_or(0.0),
                forwarded_bins: report.forwarded_histogram(bin_width).bins().collect(),
                forwarded_gini: report.forwarded_gini(),
                f2_gini: report.f2_income_gini(),
                f2_lorenz: points(
                    report
                        .lorenz_income()
                        .expect("paper-scale workloads always pay someone"),
                ),
                f1_gini: report.f1_contribution_gini(),
                paid_nodes: report
                    .f1_values()
                    .expect("paper-scale workloads always pay someone")
                    .len(),
                f1_lorenz: points(
                    report
                        .lorenz_f1()
                        .expect("ratios of paid nodes are positive"),
                ),
                theil: theil(incomes).unwrap_or(0.0),
                atkinson_05: atkinson(incomes, 0.5).unwrap_or(0.0),
                hoover: hoover(incomes).unwrap_or(0.0),
            }
        })
        .collect();
    Ok(PaperGrid { cells })
}

/// A Lorenz curve as `(population_share, value_share)` pairs.
fn points(curve: Vec<LorenzPoint>) -> Vec<(f64, f64)> {
    curve
        .into_iter()
        .map(|p| (p.population_share, p.value_share))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_both_axes() {
        assert_eq!(GRID.len(), 4);
        assert!(GRID.iter().any(|&(k, f)| k == 4 && f == 0.2));
        assert!(GRID.iter().any(|&(k, f)| k == 20 && f == 1.0));
    }
}
