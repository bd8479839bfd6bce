//! The durability study: repair aggressiveness × churn rate × `k`.
//!
//! The paper's model never repairs: when churn empties a storage
//! neighborhood the region's chunks are silently gone. This preset closes
//! that loop and asks the §V fairness question about the repair traffic
//! itself — re-uploads route through the same capacity-constrained hops
//! and pay through the same incentive layer as user downloads, so *does
//! repair traffic change who earns, and does the `k = 20` fairness
//! advantage survive it?*
//!
//! Five repair modes are swept against a churn-rate grid for the paper's
//! `k ∈ {4, 20}`, under a two-tier capacity scenario (so repair genuinely
//! competes with user traffic) and two download retries per stuck request:
//!
//! | Mode | Policy |
//! |------|--------|
//! | `none` | the paper's behavior — loss not modeled |
//! | `monitor-eager` | loss detected at eager granularity, never repaired (control arm) |
//! | `replica-lazy` | re-replication from the surviving replica, coarse regions |
//! | `replica-eager` | re-replication from the surviving replica, eager regions |
//! | `reseed-eager` | re-replication from the originator side of the space, eager regions |
//!
//! "Eager" regions are sized from the network: `ceil(log2(nodes))` prefix
//! bits puts expected region occupancy near one node, so single departures
//! can strand data; "lazy" regions are four times larger and only empty
//! under concentrated loss.
//!
//! `durability.csv` is [`CsvTable::from_rows`](crate::CsvTable::from_rows)
//! of [`DurabilityRow`]s and `durability_timeline.csv` of
//! [`DurabilityTimelineRow`]s: a row's field order is its file's column
//! order.

use fairswap_simcore::Executor;
use serde::{Deserialize, Serialize};

use fairswap_churn::ChurnConfig;
use fairswap_storage::RepairSource;

use crate::error::CoreError;
use crate::exec::run_jobs_observed;
use crate::experiments::scale::ExperimentScale;
use crate::obs::GridObservation;
use crate::policy::RepairPolicy;
use crate::scenario::ScenarioKind;
use crate::spec::SimSpec;

/// The bucket sizes compared throughout the paper.
pub const PAPER_KS: [usize; 2] = [4, 20];

/// Default churn-rate sweep (all churned: the study is about loss).
pub const DEFAULT_RATES: [f64; 3] = [0.02, 0.05, 0.1];

/// The repair-mode ids, in sweep order.
pub const MODES: [&str; 5] = [
    "none",
    "monitor-eager",
    "replica-lazy",
    "replica-eager",
    "reseed-eager",
];

/// Download retries granted to every cell (repair modes included), so
/// capacity-blocked user requests get the same second chances whether or
/// not repair traffic competes with them.
pub const MAX_RETRIES: u32 = 2;

/// One `(mode, k, churn_rate)` cell of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DurabilityRow {
    /// Repair mode id (an entry of [`MODES`]).
    pub mode: String,
    /// Bucket size.
    pub k: usize,
    /// Configured churn rate.
    pub churn_rate: f64,
    /// F1 contribution Gini.
    pub f1_gini: f64,
    /// F2 income Gini — the Gini question's observable.
    pub f2_gini: f64,
    /// Departures that emptied a monitored region.
    pub repair_events: u64,
    /// Repair re-uploads scheduled.
    pub repair_transfers: u64,
    /// Repair re-uploads delivered.
    pub repair_delivered: u64,
    /// Mean steps from loss to repair delivery.
    pub mean_time_to_repair: f64,
    /// User requests faulted against unreachable regions.
    pub unreachable_requests: u64,
    /// User requests that entered the retry queue.
    pub retried: u64,
    /// Retried requests that eventually delivered.
    pub recovered: u64,
    /// Retried requests abandoned after [`MAX_RETRIES`] attempts.
    pub abandoned: u64,
    /// Regions still unreachable when the run ended.
    pub final_unreachable: u64,
    /// Requests that never delivered.
    pub stuck_requests: u64,
}

/// One sample of a cell's unreachable-over-time series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DurabilityTimelineRow {
    /// Repair mode id.
    pub mode: String,
    /// Bucket size.
    pub k: usize,
    /// Configured churn rate.
    pub churn_rate: f64,
    /// Timestep (files downloaded so far).
    pub step: u64,
    /// Live nodes at that point.
    pub live: usize,
    /// Address regions unreachable at that point (a gauge).
    pub unreachable: u64,
    /// F2 income Gini at that point.
    pub f2_gini: f64,
}

/// The full sweep plus the unreachable-over-time series of every cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DurabilityExperiment {
    /// One row per `(mode, k, rate)` cell, in sweep order.
    pub rows: Vec<DurabilityRow>,
    /// Every cell's timeline samples, cell after cell in sweep order.
    pub timeline: Vec<DurabilityTimelineRow>,
}

impl DurabilityExperiment {
    /// The row for one `(mode, k, rate)` cell.
    pub fn row(&self, mode: &str, k: usize, rate: f64) -> Option<&DurabilityRow> {
        self.rows
            .iter()
            .find(|r| r.mode == mode && r.k == k && (r.churn_rate - rate).abs() < 1e-12)
    }
}

/// The eager region width at `scale`: enough prefix bits to put expected
/// region occupancy near one node, clamped into the validator's range.
fn eager_bits(scale: ExperimentScale, bits: u32) -> u32 {
    let occupancy_one = scale.nodes.next_power_of_two().trailing_zeros();
    occupancy_one.clamp(1, bits - 1)
}

/// The repair policy and source of one mode id.
fn mode_policy(mode: &str, eager: u32) -> (RepairPolicy, RepairSource) {
    let lazy = (eager.saturating_sub(2)).max(1);
    match mode {
        "none" => (RepairPolicy::None, RepairSource::Replica),
        "monitor-eager" => (
            RepairPolicy::Monitor {
                neighborhood_bits: eager,
            },
            RepairSource::Replica,
        ),
        "replica-lazy" => (
            RepairPolicy::ReReplicate {
                neighborhood_bits: lazy,
            },
            RepairSource::Replica,
        ),
        "replica-eager" => (
            RepairPolicy::ReReplicate {
                neighborhood_bits: eager,
            },
            RepairSource::Replica,
        ),
        "reseed-eager" => (
            RepairPolicy::ReReplicate {
                neighborhood_bits: eager,
            },
            RepairSource::Originator,
        ),
        other => unreachable!("unknown durability mode {other}"),
    }
}

/// Runs the durability sweep over the given churn rates.
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
) -> Result<DurabilityExperiment, CoreError> {
    let cells = grid(rates);
    let reports = run_jobs_observed(executor, jobs(scale, rates)?, obs)?;

    let mut rows = Vec::with_capacity(cells.len());
    let mut timeline = Vec::new();
    for ((mode, k, rate), report) in cells.iter().zip(&reports) {
        let stats = report.traffic();
        let (repair_events, final_unreachable) = match report.churn() {
            Some(churn) => {
                timeline.extend(churn.timeline.iter().map(|s| DurabilityTimelineRow {
                    mode: mode.to_string(),
                    k: *k,
                    churn_rate: *rate,
                    step: s.step,
                    live: s.live,
                    unreachable: s.unreachable,
                    f2_gini: s.f2_gini,
                }));
                (
                    churn.repair_events,
                    churn.timeline.last().map_or(0, |s| s.unreachable),
                )
            }
            None => (0, 0),
        };
        rows.push(DurabilityRow {
            mode: mode.to_string(),
            k: *k,
            churn_rate: *rate,
            f1_gini: report.f1_contribution_gini(),
            f2_gini: report.f2_income_gini(),
            repair_events,
            repair_transfers: stats.repair_transfers(),
            repair_delivered: stats.repair_delivered(),
            mean_time_to_repair: report.mean_time_to_repair(),
            unreachable_requests: stats.unreachable_requests(),
            retried: stats.retried(),
            recovered: stats.recovered(),
            abandoned: stats.abandoned(),
            final_unreachable,
            stuck_requests: stats.stuck_requests(),
        });
    }
    Ok(DurabilityExperiment { rows, timeline })
}

/// The `(mode, k, rate)` cells in [`MODES`] × [`PAPER_KS`] × `rates`
/// order — the single source of cell order for both row labels and the
/// job list.
fn grid(rates: &[f64]) -> Vec<(&'static str, usize, f64)> {
    MODES
        .iter()
        .flat_map(|&mode| {
            PAPER_KS
                .iter()
                .flat_map(move |&k| rates.iter().map(move |&rate| (mode, k, rate)))
        })
        .collect()
}

/// The sweep grid's [`SimSpec`]s, in the order [`run`] executes them.
///
/// # Errors
///
/// Propagates invalid churn rates as [`CoreError`].
pub fn jobs(scale: ExperimentScale, rates: &[f64]) -> Result<Vec<SimSpec>, CoreError> {
    grid(rates)
        .into_iter()
        .map(|(mode, k, rate)| {
            let mut spec = scale.cell_spec(k, 1.0);
            spec.dynamics.churn = Some(ChurnConfig::from_rate(rate)?);
            // Two-tier capacity keeps hops scarce, so repair traffic
            // genuinely competes with user downloads for the budget.
            spec.dynamics.scenario = Some(ScenarioKind::Heterogeneity {
                slow_fraction: 0.3,
                slow_budget: 2,
                fast_budget: 16,
            });
            let (repair, source) = mode_policy(mode, eager_bits(scale, spec.topology.bits));
            spec.policies.repair = repair;
            spec.policies.repair_source = source;
            spec.policies.max_retries = MAX_RETRIES;
            spec.policies.retry_backoff = 1;
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
    fn sweep_covers_the_grid_and_repair_converges() {
        let result = run(
            scale(),
            &[0.05],
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        assert_eq!(result.rows.len(), MODES.len() * PAPER_KS.len());
        let cell_timeline = |mode: &str, k: usize| -> Vec<&DurabilityTimelineRow> {
            result
                .timeline
                .iter()
                .filter(|r| r.mode == mode && r.k == k)
                .collect()
        };
        for row in &result.rows {
            assert!(!cell_timeline(&row.mode, row.k).is_empty(), "{row:?}");
        }

        let none = result.row("none", 4, 0.05).unwrap();
        assert_eq!(none.repair_events, 0);
        assert_eq!(none.unreachable_requests, 0);
        assert_eq!(none.final_unreachable, 0);

        // The control arm detects loss but never recovers it: the gauge
        // is monotone non-decreasing.
        let monitor = result.row("monitor-eager", 4, 0.05).unwrap();
        assert!(monitor.repair_events > 0, "{monitor:?}");
        assert_eq!(monitor.repair_transfers, 0);
        let monitor_timeline = cell_timeline("monitor-eager", 4);
        assert!(monitor_timeline
            .windows(2)
            .all(|w| w[0].unreachable <= w[1].unreachable));

        // Active repair converges: the gauge comes back down instead of
        // growing monotonically, and ends below the control arm.
        let eager = result.row("replica-eager", 4, 0.05).unwrap();
        assert!(eager.repair_delivered > 0, "{eager:?}");
        assert!(eager.mean_time_to_repair >= 1.0);
        let eager_timeline = cell_timeline("replica-eager", 4);
        assert!(
            eager_timeline
                .windows(2)
                .any(|w| w[1].unreachable < w[0].unreachable),
            "repair never reduced the unreachable gauge: {eager_timeline:?}"
        );
        assert!(eager.final_unreachable <= monitor.final_unreachable);

        // Capacity pressure makes the retry path observable.
        assert!(eager.retried > 0);
        assert!(!CsvTable::from_rows(&result.rows).is_empty());
        assert!(!CsvTable::from_rows(&result.timeline).is_empty());
    }

    #[test]
    fn deterministic_and_parallel_matches_serial() {
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
            &Executor::new(2),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn mode_policies_cover_the_catalog() {
        let eager = eager_bits(scale(), 16);
        assert_eq!(eager, 8, "150 nodes round up to 2^8");
        assert_eq!(mode_policy("none", eager).0, RepairPolicy::None);
        assert!(matches!(
            mode_policy("monitor-eager", eager),
            (
                RepairPolicy::Monitor {
                    neighborhood_bits: 8
                },
                _
            )
        ));
        assert!(matches!(
            mode_policy("replica-lazy", eager),
            (
                RepairPolicy::ReReplicate {
                    neighborhood_bits: 6
                },
                RepairSource::Replica
            )
        ));
        assert!(matches!(
            mode_policy("reseed-eager", eager),
            (RepairPolicy::ReReplicate { .. }, RepairSource::Originator)
        ));
        // Every mode builds a valid job list.
        let jobs = jobs(scale(), &DEFAULT_RATES).unwrap();
        assert_eq!(jobs.len(), MODES.len() * PAPER_KS.len() * 3);
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
