//! Drop vs detour: the capacity-aware routing study, the first client of
//! the policy layer.
//!
//! Under heterogeneous bandwidth (the two-tier capacity scenario), greedy
//! forwarding-Kademlia drops every request whose next hop is saturated.
//! The [`RoutePolicy::CapacityDetour`] policy instead escapes through the
//! next-closest table entries. This preset crosses the two policies with
//! `k ∈ {4, 20}` and reports the trade-off the roadmap asks for: how many
//! drops the detour recovers (availability), what it costs in extra hops
//! (latency), and what it does to the paper's F1/F2 fairness metrics.
//!
//! `routing.csv` is [`CsvTable::from_rows`](crate::CsvTable::from_rows) of
//! [`RoutingRow`]s: the row's field order is the file's column order.

use fairswap_simcore::Executor;
use serde::{Deserialize, Serialize};

use fairswap_storage::RoutePolicy;

use crate::error::CoreError;
use crate::exec::run_jobs_observed;
use crate::experiments::churn::PAPER_KS;
use crate::experiments::scale::ExperimentScale;
use crate::obs::GridObservation;
use crate::scenario::ScenarioKind;
use crate::spec::SimSpec;

/// The routing policies the preset compares, in sweep order.
pub const ROUTE_POLICIES: [RoutePolicy; 2] = [
    RoutePolicy::Greedy,
    RoutePolicy::CapacityDetour { max_detours: 3 },
];

/// The two-tier capacity scenario every cell runs under: 30% slow nodes
/// at 4 chunks/step vs 64 chunks/step, matching the `scenarios` preset's
/// heterogeneity cell so the two experiments stay comparable.
pub const HETEROGENEITY: ScenarioKind = ScenarioKind::Heterogeneity {
    slow_fraction: 0.3,
    slow_budget: 4,
    fast_budget: 64,
};

/// One `(route, k)` cell of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingRow {
    /// Routing policy identifier (`greedy` / `capacity-detour`).
    pub route: String,
    /// Bucket size.
    pub k: usize,
    /// Chunk requests issued.
    pub requests: u64,
    /// Requests that never reached a storer.
    pub stuck_requests: u64,
    /// Requests dropped with every candidate hop saturated.
    pub capacity_blocked: u64,
    /// Hops that detoured around a saturated greedy choice.
    pub detoured: u64,
    /// Fraction of issued requests that were delivered (0 when none
    /// were issued).
    pub delivery_rate: f64,
    /// Mean hops per delivered chunk (the latency cost of detouring).
    pub mean_hops: f64,
    /// Mean forwarded chunks per node.
    pub mean_forwarded: f64,
    /// F1 contribution Gini.
    pub f1_gini: f64,
    /// F2 income Gini.
    pub f2_gini: f64,
}

/// The full drop-vs-detour sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingExperiment {
    /// One row per `(route, k)` cell, in sweep order.
    pub rows: Vec<RoutingRow>,
}

impl RoutingExperiment {
    /// The row of one `(route, k)` cell.
    pub fn row(&self, route: &str, k: usize) -> Option<&RoutingRow> {
        self.rows.iter().find(|r| r.route == route && r.k == k)
    }

    /// Fraction of greedy's capacity drops the detour policy recovered at
    /// this `k` — the headline availability win. `None` when either cell
    /// is missing or greedy never dropped.
    pub fn drop_reduction(&self, k: usize) -> Option<f64> {
        let greedy = self.row("greedy", k)?;
        let detour = self.row("capacity-detour", k)?;
        (greedy.capacity_blocked > 0).then(|| {
            (greedy.capacity_blocked as f64 - detour.capacity_blocked as f64)
                / greedy.capacity_blocked as f64
        })
    }
}

/// Runs the drop-vs-detour sweep.
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
) -> Result<RoutingExperiment, CoreError> {
    let cells = grid();
    let reports = run_jobs_observed(executor, jobs(scale), obs)?;
    let rows = cells
        .iter()
        .zip(&reports)
        .map(|(&(route, k), report)| {
            let requests: u64 = report.traffic().requests_issued().iter().sum();
            let stuck_requests = report.traffic().stuck_requests();
            RoutingRow {
                route: route.id().to_string(),
                k,
                requests,
                stuck_requests,
                capacity_blocked: report.traffic().capacity_blocked(),
                detoured: report.traffic().detoured(),
                delivery_rate: if requests == 0 {
                    0.0
                } else {
                    (requests - stuck_requests) as f64 / requests as f64
                },
                mean_hops: report.hops().mean().unwrap_or(0.0),
                mean_forwarded: report.mean_forwarded(),
                f1_gini: report.f1_contribution_gini(),
                f2_gini: report.f2_income_gini(),
            }
        })
        .collect();
    Ok(RoutingExperiment { rows })
}

/// The `(route, k)` cells in `ROUTE_POLICIES` × `PAPER_KS` order — the
/// single source of cell order for row labels and the job list.
fn grid() -> Vec<(RoutePolicy, usize)> {
    ROUTE_POLICIES
        .iter()
        .flat_map(|&route| PAPER_KS.iter().map(move |&k| (route, k)))
        .collect()
}

/// The grid's [`SimSpec`]s — shared by [`run`] and the `SimSpec`
/// round-trip test (`tests/spec_stability.rs`).
pub fn jobs(scale: ExperimentScale) -> Vec<SimSpec> {
    grid()
        .into_iter()
        .map(|(route, k)| {
            let mut spec = scale.cell_spec(k, 1.0);
            spec.dynamics.scenario = Some(HETEROGENEITY);
            spec.policies.route = route;
            spec
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::CsvTable;

    fn scale() -> ExperimentScale {
        ExperimentScale {
            nodes: 150,
            files: 60,
            seed: 0xFA12,
        }
    }

    #[test]
    fn detour_recovers_drops_at_extra_hop_cost() {
        let result = run(
            scale(),
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        assert_eq!(result.rows.len(), 4);
        for k in PAPER_KS {
            let greedy = result.row("greedy", k).unwrap();
            let detour = result.row("capacity-detour", k).unwrap();
            assert_eq!(greedy.detoured, 0, "greedy never detours");
            assert!(greedy.capacity_blocked > 0, "{greedy:?}");
            assert!(detour.detoured > 0, "{detour:?}");
            assert!(
                detour.capacity_blocked < greedy.capacity_blocked,
                "detour must recover drops: {detour:?} vs {greedy:?}"
            );
            assert!(
                detour.delivery_rate >= greedy.delivery_rate,
                "recovered drops must show up as deliveries"
            );
            assert!(result.drop_reduction(k).unwrap() > 0.0);
        }
        assert!(!CsvTable::from_rows(&result.rows).is_empty());
    }

    #[test]
    fn deterministic() {
        let a = run(
            scale(),
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        let b = run(
            scale(),
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_matches_serial() {
        let serial = run(
            scale(),
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        let threaded = run(scale(), &Executor::new(4), &mut GridObservation::disabled()).unwrap();
        assert_eq!(serial, threaded);
    }
}
