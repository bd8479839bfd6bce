//! Caching × churn: how cache policies interact with dynamic membership —
//! the §V caching extension crossed with the churn axis, the policy
//! layer's second client.
//!
//! Departures wipe caches (a node's hot copies leave with it), so the
//! steady-state hit rate under churn is a race between opportunistic
//! refill and membership turnover. The sweep crosses every cache policy —
//! including the churn-aware TTL variant — with a churn-rate axis on a
//! Zipf (popularity-skewed) workload, where caching actually matters.
//!
//! `cache_churn.csv` is [`CsvTable::from_rows`](crate::CsvTable::from_rows)
//! of [`CacheChurnRow`]s: the row's field order is the file's column order.

use fairswap_simcore::Executor;
use serde::{Deserialize, Serialize};

use fairswap_churn::ChurnConfig;
use fairswap_storage::CachePolicy;
use fairswap_workload::ChunkDist;

use crate::error::CoreError;
use crate::exec::run_jobs_observed;
use crate::experiments::scale::ExperimentScale;
use crate::obs::GridObservation;
use crate::spec::SimSpec;

/// The cache policies the preset compares, in sweep order.
pub const CACHE_POLICIES: [CachePolicy; 4] = [
    CachePolicy::None,
    CachePolicy::Lru { capacity: 1024 },
    CachePolicy::Lfu { capacity: 1024 },
    CachePolicy::Ttl {
        capacity: 1024,
        ttl: 4096,
    },
];

/// Default churn-rate axis: static baseline up to 10% of nodes per step.
pub const DEFAULT_RATES: [f64; 4] = [0.0, 0.02, 0.05, 0.1];

/// The Zipf workload every cell downloads (the §V popularity extension;
/// a uniform workload over a 16-bit space would barely ever re-request a
/// chunk, leaving nothing for caches to do).
pub const WORKLOAD: ChunkDist = ChunkDist::Zipf {
    catalog: 2_000,
    exponent: 1.0,
};

/// One `(cache, churn_rate)` cell of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheChurnRow {
    /// Cache policy identifier (`none` / `lru` / `lfu` / `ttl`).
    pub cache: String,
    /// Configured churn rate (0 = static baseline).
    pub churn_rate: f64,
    /// Lifetime cache hits across all nodes.
    pub cache_hits: u64,
    /// Chunks served from cache (terminating a route early).
    pub cache_served: u64,
    /// Mean forwarded chunks per node (caching shortens routes).
    pub mean_forwarded: f64,
    /// F2 income Gini.
    pub f2_gini: f64,
    /// Requests whose route got stuck.
    pub stuck_requests: u64,
    /// Leave events applied.
    pub leaves: u64,
    /// Live nodes after the final step.
    pub final_live: usize,
}

/// The full caching × churn sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheChurnExperiment {
    /// One row per `(cache, rate)` cell, in sweep order.
    pub rows: Vec<CacheChurnRow>,
}

impl CacheChurnExperiment {
    /// The row of one `(cache, rate)` cell.
    pub fn row(&self, cache: &str, rate: f64) -> Option<&CacheChurnRow> {
        self.rows
            .iter()
            .find(|r| r.cache == cache && (r.churn_rate - rate).abs() < 1e-12)
    }

    /// How much of a cache policy's static-overlay serving churn destroys
    /// at `rate`: `(static_served - churned_served) / static_served`.
    /// `None` for unknown cells or a policy that never served.
    pub fn churn_serve_loss(&self, cache: &str, rate: f64) -> Option<f64> {
        let baseline = self.row(cache, 0.0)?;
        let churned = self.row(cache, rate)?;
        (baseline.cache_served > 0).then(|| {
            (baseline.cache_served as f64 - churned.cache_served as f64)
                / baseline.cache_served as f64
        })
    }
}

/// Runs the caching × churn sweep.
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
) -> Result<CacheChurnExperiment, CoreError> {
    let cells = grid(rates);
    let reports = run_jobs_observed(executor, jobs(scale, rates)?, obs)?;
    let rows = cells
        .iter()
        .zip(&reports)
        .map(|(&(cache, rate), report)| {
            let (leaves, final_live) = match report.churn() {
                Some(churn) => (churn.leaves, churn.final_live),
                None => (0, scale.nodes),
            };
            CacheChurnRow {
                cache: cache.id().to_string(),
                churn_rate: rate,
                cache_hits: report.cache_hits(),
                cache_served: report.traffic().served_from_cache().iter().sum(),
                mean_forwarded: report.mean_forwarded(),
                f2_gini: report.f2_income_gini(),
                stuck_requests: report.traffic().stuck_requests(),
                leaves,
                final_live,
            }
        })
        .collect();
    Ok(CacheChurnExperiment { rows })
}

/// The `(cache, rate)` cells in `CACHE_POLICIES` × `rates` order — the
/// single source of cell order for row labels and the job list.
fn grid(rates: &[f64]) -> Vec<(CachePolicy, f64)> {
    CACHE_POLICIES
        .iter()
        .flat_map(|&cache| rates.iter().map(move |&rate| (cache, rate)))
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
        .map(|(cache, rate)| {
            let mut spec = scale.cell_spec(4, 1.0);
            spec.workload.chunk_dist = WORKLOAD;
            spec.policies.cache = cache;
            if rate != 0.0 {
                spec.dynamics.churn = Some(ChurnConfig::from_rate(rate)?);
            }
            Ok(spec)
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
            files: 80,
            seed: 0xFA12,
        }
    }

    #[test]
    fn caches_serve_and_churn_erodes_them() {
        let result = run(
            scale(),
            &[0.0, 0.1],
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        assert_eq!(result.rows.len(), 8);
        let none = result.row("none", 0.0).unwrap();
        assert_eq!(none.cache_hits, 0);
        assert_eq!(none.cache_served, 0);
        for cache in ["lru", "lfu", "ttl"] {
            let static_cell = result.row(cache, 0.0).unwrap();
            assert!(static_cell.cache_served > 0, "{static_cell:?}");
            // A cache-served chunk skips the tail of its route.
            assert!(static_cell.mean_forwarded < none.mean_forwarded);
            assert!(result.churn_serve_loss(cache, 0.1).is_some());
        }
        // Churned cells actually churned.
        assert!(result.row("lru", 0.1).unwrap().leaves > 0);
        assert!(!CsvTable::from_rows(&result.rows).is_empty());
    }

    #[test]
    fn deterministic_and_parallel_safe() {
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
            &Executor::new(4),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_rates_error() {
        assert!(run(
            scale(),
            &[-1.0],
            &Executor::serial(),
            &mut GridObservation::disabled()
        )
        .is_err());
    }
}
