//! Fairness under scripted overlay shocks — the dynamic scenarios the
//! churn subsystem unlocks.
//!
//! Four headline scenarios, each run for `k ∈ {4, 20}` on top of a light
//! background churn so scripted and statistical dynamics compose (the
//! production regime — networks churn *and* get shocked):
//!
//! * **targeted-departure** — at mid-run, the top 1% of earners depart at
//!   once: does decapitating the income distribution reset the Gini gap?
//! * **flash-crowd** — a fifth of the population, concentrated around one
//!   address region, arrives at mid-run: do latecomers ever catch up?
//! * **regional-outage** — a quarter of the address space fails
//!   simultaneously and returns later: how far does correlated failure
//!   skew rewards toward the survivors?
//! * **heterogeneity** — every node draws a two-tier bandwidth budget:
//!   how does capacity inequality translate into income inequality?
//!
//! `scenarios.csv` is [`CsvTable::from_rows`](crate::CsvTable::from_rows)
//! of [`ScenarioRow`]s and `scenarios_timeline.csv` of
//! [`ScenarioTimelineRow`]s: a row's field order is its file's column
//! order.

use fairswap_simcore::Executor;
use serde::{Deserialize, Serialize};

use fairswap_churn::ChurnConfig;

use crate::error::CoreError;
use crate::exec::run_jobs_observed;
use crate::experiments::churn::PAPER_KS;
use crate::experiments::scale::ExperimentScale;
use crate::obs::GridObservation;
use crate::scenario::ScenarioKind;
use crate::spec::SimSpec;

/// The scenario names this preset knows, in sweep order.
pub const SCENARIO_NAMES: [&str; 4] = [
    "targeted-departure",
    "flash-crowd",
    "regional-outage",
    "heterogeneity",
];

/// Background churn rate every scenario cell runs on top of (scripted
/// shocks compose with statistical churn through one event stream).
pub const BACKGROUND_CHURN_RATE: f64 = 0.02;

/// The canonical specification of one named scenario at a given horizon:
/// shocks fire at mid-run, outage regions span a quarter of the address
/// space and rejoin after a quarter of the run, and the capacity tiers are
/// 4 vs 64 chunks/step with 30% slow nodes.
///
/// Returns `None` for unknown names — [`SCENARIO_NAMES`] lists the valid
/// ones.
pub fn preset_spec(name: &str, files: u64) -> Option<ScenarioKind> {
    let shock = (files / 2).max(1);
    match name {
        "targeted-departure" => Some(ScenarioKind::TargetedDeparture {
            at_step: shock,
            top_fraction: 0.01,
        }),
        "flash-crowd" => Some(ScenarioKind::FlashCrowd {
            at_step: shock,
            join_fraction: 0.2,
        }),
        "regional-outage" => Some(ScenarioKind::RegionalOutage {
            at_step: shock,
            region_bits: 2,
            rejoin_after: Some((files / 4).max(1)),
        }),
        "heterogeneity" => Some(ScenarioKind::Heterogeneity {
            slow_fraction: 0.3,
            slow_budget: 4,
            fast_budget: 64,
        }),
        _ => None,
    }
}

/// One `(scenario, k)` cell of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioRow {
    /// Scenario identifier (see [`SCENARIO_NAMES`]).
    pub scenario: String,
    /// Bucket size.
    pub k: usize,
    /// Step the scripted shock fired at (0 for heterogeneity).
    pub shock_step: u64,
    /// F1 contribution Gini at the end of the run.
    pub f1_gini: f64,
    /// F2 income Gini at the end of the run.
    pub f2_gini: f64,
    /// F2 income Gini at the last timeline sample before the shock (equal
    /// to `f2_gini` when no shock fires).
    pub f2_pre_shock: f64,
    /// Join events applied (scripted + background churn).
    pub joins: u64,
    /// Leave events applied (scripted + background churn).
    pub leaves: u64,
    /// Departures triggered by the targeted-departure runtime selection.
    pub targeted_removals: u64,
    /// Settlements executed by departing peers.
    pub departure_settlements: u64,
    /// Requests dropped on bandwidth-saturated hops.
    pub capacity_blocked: u64,
    /// Requests whose greedy route got stuck.
    pub stuck_requests: u64,
    /// Live nodes after the final step.
    pub final_live: usize,
    /// Mean live nodes across the run.
    pub mean_live: f64,
}

/// One sample of a cell's fairness-over-time series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioTimelineRow {
    /// Scenario name.
    pub scenario: String,
    /// Bucket size.
    pub k: usize,
    /// Timestep (files downloaded so far).
    pub step: u64,
    /// Live nodes at that point.
    pub live: usize,
    /// F2 income Gini at that point.
    pub f2_gini: f64,
}

/// The full sweep plus each cell's fairness-over-time series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioExperiment {
    /// One row per `(scenario, k)` cell, in sweep order.
    pub rows: Vec<ScenarioRow>,
    /// Every cell's timeline samples, cell after cell in sweep order.
    pub timeline: Vec<ScenarioTimelineRow>,
}

impl ScenarioExperiment {
    /// The row of one `(scenario, k)` cell.
    pub fn row(&self, scenario: &str, k: usize) -> Option<&ScenarioRow> {
        self.rows
            .iter()
            .find(|r| r.scenario == scenario && r.k == k)
    }

    /// How much of the pre-shock F2 Gini the shock erased for one cell:
    /// `(pre - final) / pre`, positive when the shock made incomes *more*
    /// equal. `None` for unknown cells or an all-zero pre-shock Gini.
    pub fn shock_gini_reduction(&self, scenario: &str, k: usize) -> Option<f64> {
        let row = self.row(scenario, k)?;
        (row.f2_pre_shock > 0.0).then(|| (row.f2_pre_shock - row.f2_gini) / row.f2_pre_shock)
    }
}

/// Runs the named scenarios for `k ∈ {4, 20}`.
///
/// Cells fan out over `executor` (output is bit-identical for any
/// thread count); `obs` carries progress and, when enabled, the
/// per-cell traces, metrics and phase timings.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] for unknown scenario names; otherwise any
/// configuration error of a cell.
pub fn run(
    scale: ExperimentScale,
    names: &[&str],
    executor: &Executor,
    obs: &mut GridObservation,
) -> Result<ScenarioExperiment, CoreError> {
    let grid = grid(scale, names)?;
    let cells: Vec<(&str, usize, u64)> = grid
        .iter()
        .map(|(name, k, spec)| (*name, *k, spec.shock_step()))
        .collect();
    let jobs: Vec<SimSpec> = grid
        .into_iter()
        .map(|(_, k, scenario)| cell_spec(scale, k, scenario))
        .collect::<Result<_, _>>()?;
    let reports = run_jobs_observed(executor, jobs, obs)?;

    let mut rows = Vec::with_capacity(cells.len());
    let mut timeline = Vec::new();
    for (&(name, k, shock_step), report) in cells.iter().zip(&reports) {
        let churn = report
            .churn()
            .expect("scenario cells always track membership");
        timeline.extend(churn.timeline.iter().map(|s| ScenarioTimelineRow {
            scenario: name.to_string(),
            k,
            step: s.step,
            live: s.live,
            f2_gini: s.f2_gini,
        }));
        let f2_gini = report.f2_income_gini();
        let f2_pre_shock = churn
            .timeline
            .iter()
            .take_while(|s| shock_step > 0 && s.step < shock_step)
            .last()
            .map_or(f2_gini, |s| s.f2_gini);
        rows.push(ScenarioRow {
            scenario: name.to_string(),
            k,
            shock_step,
            f1_gini: report.f1_contribution_gini(),
            f2_gini,
            f2_pre_shock,
            joins: churn.joins,
            leaves: churn.leaves,
            targeted_removals: churn.targeted_removals,
            departure_settlements: churn.departure_settlements,
            capacity_blocked: report.traffic().capacity_blocked(),
            stuck_requests: report.traffic().stuck_requests(),
            final_live: churn.final_live,
            mean_live: churn.mean_live(),
        });
    }
    Ok(ScenarioExperiment { rows, timeline })
}

/// The `(scenario, k, spec)` cells in `names` × `PAPER_KS` order — the
/// single source of cell order, so [`run`]'s row labels and the job
/// list can never pair up differently.
///
/// # Errors
///
/// Rejects unknown scenario names as [`CoreError::InvalidConfig`].
#[allow(clippy::type_complexity)]
fn grid<'a>(
    scale: ExperimentScale,
    names: &[&'a str],
) -> Result<Vec<(&'a str, usize, ScenarioKind)>, CoreError> {
    let mut cells = Vec::with_capacity(names.len() * PAPER_KS.len());
    for &name in names {
        let spec = preset_spec(name, scale.files).ok_or_else(|| CoreError::InvalidConfig {
            message: format!(
                "unknown scenario '{name}' (expected one of {})",
                SCENARIO_NAMES.join(", ")
            ),
        })?;
        for &k in &PAPER_KS {
            cells.push((name, k, spec.clone()));
        }
    }
    Ok(cells)
}

fn cell_spec(
    scale: ExperimentScale,
    k: usize,
    scenario: ScenarioKind,
) -> Result<SimSpec, CoreError> {
    let mut spec = scale.cell_spec(k, 1.0);
    spec.dynamics.churn = Some(ChurnConfig::from_rate(BACKGROUND_CHURN_RATE)?);
    spec.dynamics.scenario = Some(scenario);
    Ok(spec)
}

/// The grid's [`SimSpec`]s — shared by [`run`] and the `SimSpec`
/// round-trip test (`tests/spec_stability.rs`).
///
/// # Errors
///
/// Rejects unknown scenario names as [`CoreError::InvalidConfig`].
pub fn jobs(scale: ExperimentScale, names: &[&str]) -> Result<Vec<SimSpec>, CoreError> {
    grid(scale, names)?
        .into_iter()
        .map(|(_, k, scenario)| cell_spec(scale, k, scenario))
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
    fn every_preset_spec_resolves_and_validates() {
        for name in SCENARIO_NAMES {
            let spec = preset_spec(name, 200).unwrap();
            assert_eq!(spec.id(), name);
            spec.validate(16, 200).unwrap();
        }
        assert!(preset_spec("nope", 200).is_none());
    }

    #[test]
    fn unknown_scenario_name_errors() {
        let err = run(
            scale(),
            &["no-such-scenario"],
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }));
        assert!(err.to_string().contains("no-such-scenario"));
    }

    #[test]
    fn targeted_departure_removes_top_earners() {
        let result = run(
            scale(),
            &["targeted-departure"],
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        assert_eq!(result.rows.len(), 2);
        for row in &result.rows {
            assert!(row.targeted_removals >= 1, "{row:?}");
            assert_eq!(row.shock_step, 30);
            assert!((0.0..=1.0).contains(&row.f2_gini));
            assert!(result.shock_gini_reduction(&row.scenario, row.k).is_some());
        }
        assert!(!CsvTable::from_rows(&result.rows).is_empty());
        assert!(!CsvTable::from_rows(&result.timeline).is_empty());
    }

    #[test]
    fn flash_crowd_grows_the_live_population_at_the_shock() {
        let result = run(
            scale(),
            &["flash-crowd"],
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        let row = result.row("flash-crowd", 4).unwrap();
        // The cohort (20% of 150) joined at the shock on top of background
        // churn joins.
        assert!(row.joins >= 30, "{row:?}");
        let timeline: Vec<&ScenarioTimelineRow> =
            result.timeline.iter().filter(|s| s.k == 4).collect();
        // The live count jumps by roughly the cohort size across the shock
        // boundary (background churn drifts it slowly everywhere else).
        let last_before = timeline
            .iter()
            .rev()
            .find(|s| s.step < row.shock_step)
            .map(|s| s.live)
            .unwrap();
        let first_after = timeline
            .iter()
            .find(|s| s.step >= row.shock_step)
            .map(|s| s.live)
            .unwrap();
        assert!(
            first_after >= last_before + 20,
            "crowd arrival invisible: {last_before} -> {first_after}"
        );
    }

    #[test]
    fn heterogeneity_blocks_capacity_limited_requests() {
        let result = run(
            scale(),
            &["heterogeneity"],
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        for row in &result.rows {
            assert!(row.capacity_blocked > 0, "{row:?}");
            assert!(row.capacity_blocked <= row.stuck_requests);
            assert_eq!(row.targeted_removals, 0);
            assert_eq!(row.shock_step, 0);
            // No shock: the pre-shock Gini is the final one.
            assert_eq!(row.f2_pre_shock, row.f2_gini);
        }
    }

    #[test]
    fn deterministic() {
        let a = run(
            scale(),
            &["regional-outage"],
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        let b = run(
            scale(),
            &["regional-outage"],
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        assert_eq!(a, b);
    }
}
