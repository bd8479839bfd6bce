//! Parameter sweeps: file-count convergence (§IV-B) and overhead vs `k`
//! (§V).
//!
//! `overhead.csv` is [`CsvTable::from_rows`](crate::CsvTable::from_rows) of
//! [`OverheadRow`]s: the row's field order is the file's column order.

use fairswap_obs::{EventKind, Phase};
use fairswap_simcore::Executor;
use fairswap_storage::ChunkDelivery;
use serde::{Deserialize, Serialize};

use crate::csv::CsvTable;
use crate::error::CoreError;
use crate::exec::{run_jobs_observed, run_jobs_observing};
use crate::experiments::scale::ExperimentScale;
use crate::obs::{EpochSnapshot, GridObservation, ObsCollector, StepObserver};
use crate::spec::SimSpec;

/// One `(timestep, f2_gini)` sample of the convergence trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GiniTrajectory {
    /// Timestep (files downloaded so far).
    pub timestep: u64,
    /// F2 income Gini at that point.
    pub f2_gini: f64,
}

/// Result of the file-count convergence sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FilesConvergence {
    /// Bucket size used.
    pub k: usize,
    /// Originator fraction used.
    pub originator_fraction: f64,
    /// `(files, f2_gini)` trajectory samples.
    pub trajectory: Vec<GiniTrajectory>,
}

impl FilesConvergence {
    /// Renders the trajectory as CSV.
    pub fn to_csv(&self) -> CsvTable {
        let rows: Vec<SweepFilesRow> = self
            .trajectory
            .iter()
            .map(|s| SweepFilesRow {
                k: self.k,
                originator_fraction: self.originator_fraction,
                files: s.timestep,
                f2_gini: s.f2_gini,
            })
            .collect();
        CsvTable::from_rows(&rows)
    }
}

/// One row of `sweep_files.csv`: a trajectory sample of one cell.
#[derive(Serialize)]
struct SweepFilesRow {
    k: usize,
    originator_fraction: f64,
    files: u64,
    f2_gini: f64,
}

/// Keeps `(step, f2_gini)` from every epoch snapshot of one cell, and
/// forwards every hook to the cell's collector when one is attached.
struct GiniTrail {
    samples: Vec<GiniTrajectory>,
    collector: Option<ObsCollector>,
}

impl StepObserver for GiniTrail {
    const ENABLED: bool = true;

    fn profiling(&self) -> bool {
        self.collector.as_ref().is_some_and(|c| c.profiling())
    }

    fn add_phase(&mut self, phase: Phase, nanos: u64) {
        if let Some(c) = &mut self.collector {
            c.add_phase(phase, nanos);
        }
    }

    fn on_event(&mut self, step: u64, kind: EventKind) {
        if let Some(c) = &mut self.collector {
            c.on_event(step, kind);
        }
    }

    fn on_delivery(&mut self, step: u64, delivery: &ChunkDelivery) {
        if let Some(c) = &mut self.collector {
            c.on_delivery(step, delivery);
        }
    }

    fn on_epoch(&mut self, snapshot: &EpochSnapshot) {
        self.samples.push(GiniTrajectory {
            timestep: snapshot.step,
            f2_gini: snapshot.f2_gini,
        });
        if let Some(c) = &mut self.collector {
            c.on_epoch(snapshot);
        }
    }
}

/// Tracks the F2 Gini as each `(k, originator fraction)` cell grows from a
/// handful of files to `scale.files` — the paper's "We performed
/// simulations downloading between 100 and 10k files [...] other
/// experiments show similar results" robustness claim.
///
/// Each cell is one ordinary [`crate::BandwidthSim`] run of
/// `scale.cell_spec(k, fraction)`, sampled at the engine's epoch cadence:
/// every multiple of `max(1, files / 32)` steps plus the final step. The
/// last sample is therefore exactly the F2 Gini the same spec's report
/// carries.
///
/// # Errors
///
/// Propagates the first failing cell's [`CoreError`] in cell order.
pub fn files_convergence(
    scale: ExperimentScale,
    cells: &[(usize, f64)],
    executor: &Executor,
    obs: &mut GridObservation,
) -> Result<Vec<FilesConvergence>, CoreError> {
    let jobs: Vec<SimSpec> = cells
        .iter()
        .map(|&(k, fraction)| scale.cell_spec(k, fraction))
        .collect();
    let trajectories = run_jobs_observing(
        executor,
        jobs,
        obs,
        |collector| GiniTrail {
            samples: Vec::new(),
            collector,
        },
        |_, trail| (trail.samples, trail.collector),
    )?;
    Ok(cells
        .iter()
        .zip(trajectories)
        .map(|(&(k, originator_fraction), trajectory)| FilesConvergence {
            k,
            originator_fraction,
            trajectory,
        })
        .collect())
}

/// One row of the overhead-vs-`k` sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadRow {
    /// Bucket size.
    pub k: usize,
    /// Mean open connections per node (§V cost 1: "a higher cost for
    /// keeping those connections updated").
    pub mean_connections: f64,
    /// Settlement transactions executed (§V cost 2: "issue more payment
    /// transactions").
    pub settlements: usize,
    /// Total BZZ moved by settlements.
    pub settlement_volume: u64,
    /// Total transaction costs charged.
    pub tx_cost_total: u64,
    /// Mean payment size (volume / settlements) — §V: "each recipient
    /// receiving a smaller amount".
    pub mean_payment: f64,
    /// Nodes whose net income after transaction costs is zero although they
    /// were paid gross — the "transaction cost ... more than the reward"
    /// victims.
    pub nodes_wiped_by_tx_cost: usize,
    /// F2 income Gini at this `k`.
    pub f2_gini: f64,
    /// Units forgiven via amortization (§V cost 3: more amortization
    /// channels).
    pub amortized_total: i64,
}

/// Result of the overhead sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverheadSweep {
    /// One row per `k` value.
    pub rows: Vec<OverheadRow>,
}

/// Quantifies the §V trade-off the paper leaves as future work: "with
/// k = 20, the Gini coefficient approaches a smaller value, but we did not
/// identify the produced overhead". Sweeps `k`, measuring connection
/// maintenance, settlement counts/sizes and the effect of a per-transaction
/// cost on net incomes. The `k` cells fan out over `executor`.
///
/// # Errors
///
/// Propagates configuration errors as [`CoreError`].
pub fn overhead_vs_k(
    scale: ExperimentScale,
    ks: &[usize],
    originator_fraction: f64,
    tx_cost: u64,
    executor: &Executor,
    obs: &mut GridObservation,
) -> Result<OverheadSweep, CoreError> {
    let jobs: Vec<SimSpec> = ks
        .iter()
        .map(|&k| {
            let mut spec = scale.cell_spec(k, originator_fraction);
            spec.economics.tx_cost = fairswap_swap::Bzz(tx_cost);
            spec
        })
        .collect();
    let reports = run_jobs_observed(executor, jobs, obs)?;
    let rows = ks
        .iter()
        .zip(reports)
        .map(|(&k, report)| {
            let settlements = report.settlement_count();
            let volume = report.settlement_volume();
            let wiped = report
                .net_income_bzz()
                .iter()
                .zip(report.incomes())
                .filter(|(&net, &gross)| net == 0 && gross > 0.0)
                .count();
            OverheadRow {
                k,
                mean_connections: report.mean_connections(),
                settlements,
                settlement_volume: volume,
                tx_cost_total: report.settlement_tx_cost(),
                mean_payment: if settlements > 0 {
                    volume as f64 / settlements as f64
                } else {
                    0.0
                },
                nodes_wiped_by_tx_cost: wiped,
                f2_gini: report.f2_income_gini(),
                amortized_total: report.amortized_total(),
            }
        })
        .collect();
    Ok(OverheadSweep { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale() -> ExperimentScale {
        ExperimentScale {
            nodes: 200,
            files: 80,
            seed: 0xFA12,
        }
    }

    fn convergence(
        cells: &[(usize, f64)],
        executor: &Executor,
        obs: &mut GridObservation,
    ) -> Vec<FilesConvergence> {
        files_convergence(scale(), cells, executor, obs).unwrap()
    }

    fn plain(cells: &[(usize, f64)], executor: &Executor) -> Vec<FilesConvergence> {
        convergence(cells, executor, &mut GridObservation::disabled())
    }

    #[test]
    fn convergence_trajectory_settles() {
        let result = &plain(&[(4, 1.0)], &Executor::serial())[0];
        // Gini stays in range and the tail moves less than the head.
        for s in &result.trajectory {
            assert!((0.0..=1.0).contains(&s.f2_gini));
        }
        let head_delta = (result.trajectory[1].f2_gini - result.trajectory[0].f2_gini).abs();
        let n = result.trajectory.len();
        let tail_delta =
            (result.trajectory[n - 1].f2_gini - result.trajectory[n - 2].f2_gini).abs();
        assert!(tail_delta <= head_delta + 0.05);
        assert!(!result.to_csv().is_empty());
    }

    #[test]
    fn samples_follow_the_epoch_cadence() {
        for files in [7u64, 80, 100] {
            let scale = ExperimentScale { files, ..scale() };
            let result = files_convergence(
                scale,
                &[(4, 1.0)],
                &Executor::serial(),
                &mut GridObservation::disabled(),
            )
            .unwrap();
            let stride = (files / 32).max(1);
            let mut expected: Vec<u64> = (1..=files).filter(|s| s % stride == 0).collect();
            if expected.last() != Some(&files) {
                expected.push(files);
            }
            let steps: Vec<u64> = result[0].trajectory.iter().map(|s| s.timestep).collect();
            assert_eq!(steps, expected, "files = {files}");
        }
    }

    #[test]
    fn last_sample_is_the_run_config_f2_gini() {
        // The curve comes from the same engine as `run --config`, so its
        // end point is that run's F2 Gini, bit for bit.
        for (k, fraction) in [(4usize, 1.0f64), (20, 0.2)] {
            let result = &plain(&[(k, fraction)], &Executor::serial())[0];
            let report = scale().cell_spec(k, fraction).build().unwrap().run();
            let last = result.trajectory.last().unwrap();
            assert_eq!(last.timestep, scale().files);
            assert_eq!(last.f2_gini.to_bits(), report.f2_income_gini().to_bits());
        }
    }

    #[test]
    fn convergence_grid_composes_with_the_executor() {
        let cells = [(4usize, 1.0f64), (20, 1.0)];
        let serial = plain(&cells, &Executor::serial());
        let parallel = plain(&cells, &Executor::new(2));
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 2);
        // Each grid cell matches the single-cell sweep.
        assert_eq!(serial[0], plain(&cells[..1], &Executor::serial())[0]);
    }

    #[test]
    fn tracing_leaves_the_trajectory_unchanged() {
        let cells = [(4usize, 1.0f64), (20, 1.0)];
        let untraced = plain(&cells, &Executor::serial());
        let mut obs = GridObservation::new(crate::ObsOptions {
            trace: true,
            metrics: true,
            ..crate::ObsOptions::default()
        });
        let traced = convergence(&cells, &Executor::new(2), &mut obs);
        assert_eq!(untraced, traced);
        assert_eq!(obs.collectors().len(), 2);
        let trace = obs.trace_jsonl();
        let stats = crate::validate_jsonl(&trace).unwrap();
        assert_eq!(stats.jobs, 2);
        let epochs = trace.matches("\"kind\":\"epoch\"").count();
        assert_eq!(epochs, untraced[0].trajectory.len() * 2);
    }

    #[test]
    fn overhead_grows_with_k() {
        let sweep = overhead_vs_k(
            scale(),
            &[4, 20],
            1.0,
            2,
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        assert_eq!(sweep.rows.len(), 2);
        let k4 = &sweep.rows[0];
        let k20 = &sweep.rows[1];
        // §V cost 1: more connections to maintain.
        assert!(k20.mean_connections > k4.mean_connections);
        // Fairness benefit comes with the cost.
        assert!(k20.f2_gini < k4.f2_gini);
        // Payments spread across more, smaller transactions.
        assert!(k20.mean_payment <= k4.mean_payment);
        assert!(!CsvTable::from_rows(&sweep.rows).is_empty());
    }
}
