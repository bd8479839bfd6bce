//! §V extension experiments: bucket-zero-only `k`, free riding, caching +
//! popularity, and the mechanism comparison.
//!
//! Each table is [`CsvTable::from_rows`](crate::CsvTable::from_rows) of its
//! row struct ([`BucketZeroRow`], [`FreeRidingRow`], [`CachingRow`],
//! [`MechanismRow`]): a row's field order is its file's column order.

use fairswap_simcore::Executor;
use serde::{Deserialize, Serialize};

use fairswap_kademlia::BucketSizing;
use fairswap_storage::CachePolicy;
use fairswap_workload::ChunkDist;

use crate::config::MechanismKind;
use crate::error::CoreError;
use crate::exec::run_jobs_observed;
use crate::experiments::scale::ExperimentScale;
use crate::obs::GridObservation;
use crate::spec::SimSpec;

/// One configuration of the bucket-zero experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketZeroRow {
    /// Label of the sizing variant.
    pub sizing: String,
    /// Mean connections per node (cost proxy).
    pub mean_connections: f64,
    /// F2 income Gini.
    pub f2_gini: f64,
    /// F1 contribution Gini.
    pub f1_gini: f64,
    /// Mean forwarded chunks.
    pub mean_forwarded: f64,
}

/// Result of the bucket-zero experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketZero {
    /// Uniform k = 4, uniform k = 20 and the hybrid, in that order.
    pub rows: Vec<BucketZeroRow>,
}

/// §V: "it is interesting to see what happens in payment distribution if we
/// only increase the k for a particular bucket, e.g., bucket zero."
/// Compares uniform k = 4, uniform k = 20, and k = 4 with bucket 0 widened
/// to 20. Zero-bucket peers are the ones serving paid first-hop requests,
/// so the hybrid captures most of the fairness win at a fraction of the
/// connection cost.
/// The sizing variants fan out over `executor`.
///
/// # Errors
///
/// Propagates configuration errors as [`CoreError`].
pub fn bucket_zero(
    scale: ExperimentScale,
    originator_fraction: f64,
    executor: &Executor,
    obs: &mut GridObservation,
) -> Result<BucketZero, CoreError> {
    let variants: [(&str, BucketSizing); 3] = [
        ("uniform-k4", BucketSizing::uniform(4)),
        ("uniform-k20", BucketSizing::uniform(20)),
        (
            "k4-bucket0-k20",
            BucketSizing::uniform(4).with_override(0, 20),
        ),
    ];
    let jobs: Vec<SimSpec> = variants
        .iter()
        .map(|(_, sizing)| {
            let mut spec = scale.cell_spec(4, originator_fraction);
            spec.topology.bucket_sizing = sizing.clone();
            spec
        })
        .collect();
    let reports = run_jobs_observed(executor, jobs, obs)?;
    let rows = variants
        .iter()
        .zip(reports)
        .map(|((label, _), report)| BucketZeroRow {
            sizing: (*label).to_string(),
            mean_connections: report.mean_connections(),
            f2_gini: report.f2_income_gini(),
            f1_gini: report.f1_contribution_gini(),
            mean_forwarded: report.mean_forwarded(),
        })
        .collect();
    Ok(BucketZero { rows })
}

/// One row of the free-riding sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FreeRidingRow {
    /// Fraction of free-riding nodes.
    pub free_rider_fraction: f64,
    /// F2 income Gini.
    pub f2_gini: f64,
    /// F1 contribution Gini (paid chunks basis).
    pub f1_gini: f64,
    /// Total paid income network-wide.
    pub total_income: f64,
    /// Units forgiven via amortization (free riders' unpaid consumption
    /// ends up here).
    pub amortized_total: i64,
}

/// Result of the free-riding sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FreeRiding {
    /// One row per swept fraction.
    pub rows: Vec<FreeRidingRow>,
}

/// §V: "What happens to F1 and F2 properties?" when a growing fraction of
/// peers never pays the zero-proximity node.
/// The fraction cells fan out over `executor`.
///
/// # Errors
///
/// Propagates configuration errors as [`CoreError`].
pub fn free_riding(
    scale: ExperimentScale,
    k: usize,
    fractions: &[f64],
    executor: &Executor,
    obs: &mut GridObservation,
) -> Result<FreeRiding, CoreError> {
    let jobs: Vec<SimSpec> = fractions
        .iter()
        .map(|&fraction| {
            let mut spec = scale.cell_spec(k, 1.0);
            spec.economics.free_rider_fraction = fraction;
            spec
        })
        .collect();
    let reports = run_jobs_observed(executor, jobs, obs)?;
    let rows = fractions
        .iter()
        .zip(reports)
        .map(|(&free_rider_fraction, report)| FreeRidingRow {
            free_rider_fraction,
            f2_gini: report.f2_income_gini(),
            f1_gini: report.f1_income_gini(),
            total_income: report.incomes().iter().sum(),
            amortized_total: report.amortized_total(),
        })
        .collect();
    Ok(FreeRiding { rows })
}

/// One row of the caching experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CachingRow {
    /// Workload label (`uniform` / `zipf`).
    pub workload: String,
    /// Cache label (`none` / `lru`).
    pub cache: String,
    /// Mean forwarded chunks per node.
    pub mean_forwarded: f64,
    /// Total cache hits.
    pub cache_hits: u64,
    /// Units forgiven via amortization.
    pub amortized_total: i64,
    /// Total paid income.
    pub total_income: f64,
}

/// Result of the caching experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Caching {
    /// One row per (workload, cache) combination.
    pub rows: Vec<CachingRow>,
}

impl Caching {
    /// The row for a (workload, cache) pair.
    pub fn row(&self, workload: &str, cache: &str) -> Option<&CachingRow> {
        self.rows
            .iter()
            .find(|r| r.workload == workload && r.cache == cache)
    }
}

/// §V: "adding content popularity and caching policies can also have an
/// impact on time-based amortization due to the reduced number of forwarded
/// requests." Crosses uniform vs Zipf popularity with no-cache vs LRU.
/// The `(workload, cache)` cells fan out over `executor`.
///
/// # Errors
///
/// Propagates configuration errors as [`CoreError`].
pub fn caching(
    scale: ExperimentScale,
    k: usize,
    cache_capacity: usize,
    executor: &Executor,
    obs: &mut GridObservation,
) -> Result<Caching, CoreError> {
    let workloads: [(&str, ChunkDist); 2] = [
        ("uniform", ChunkDist::Uniform),
        (
            "zipf",
            ChunkDist::Zipf {
                catalog: 2_000,
                exponent: 1.0,
            },
        ),
    ];
    let caches: [(&str, CachePolicy); 2] = [
        ("none", CachePolicy::None),
        (
            "lru",
            CachePolicy::Lru {
                capacity: cache_capacity,
            },
        ),
    ];
    let mut labels = Vec::with_capacity(4);
    let mut jobs = Vec::with_capacity(4);
    for (workload_label, chunk_dist) in &workloads {
        for (cache_label, cache) in &caches {
            labels.push((workload_label.to_string(), cache_label.to_string()));
            let mut spec = scale.cell_spec(k, 1.0);
            spec.workload.chunk_dist = chunk_dist.clone();
            spec.policies.cache = *cache;
            jobs.push(spec);
        }
    }
    let reports = run_jobs_observed(executor, jobs, obs)?;
    let rows = labels
        .into_iter()
        .zip(reports)
        .map(|((workload, cache), report)| CachingRow {
            workload,
            cache,
            mean_forwarded: report.mean_forwarded(),
            cache_hits: report.cache_hits(),
            amortized_total: report.amortized_total(),
            total_income: report.incomes().iter().sum(),
        })
        .collect();
    Ok(Caching { rows })
}

/// One row of the mechanism comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MechanismRow {
    /// Mechanism id.
    pub mechanism: String,
    /// F2 income Gini (0 when the mechanism pays nobody).
    pub f2_gini: f64,
    /// F1 Gini against income (reward per forwarded chunk).
    pub f1_income_gini: f64,
    /// Fraction of nodes with any income.
    pub earning_fraction: f64,
    /// Total paid income.
    pub total_income: f64,
}

/// Result of the mechanism comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mechanisms {
    /// One row per mechanism.
    pub rows: Vec<MechanismRow>,
}

impl Mechanisms {
    /// The row for one mechanism id.
    pub fn row(&self, mechanism: &str) -> Option<&MechanismRow> {
        self.rows.iter().find(|r| r.mechanism == mechanism)
    }
}

/// Compares Swarm's incentive against the §I/§II baselines on the same
/// workload: tit-for-tat (BitTorrent), effort-based (Rahman), pay-all-hops
/// and proof-of-bandwidth (TorCoin).
/// The mechanism cells fan out over `executor`.
///
/// # Errors
///
/// Propagates configuration errors as [`CoreError`].
pub fn mechanisms(
    scale: ExperimentScale,
    k: usize,
    originator_fraction: f64,
    executor: &Executor,
    obs: &mut GridObservation,
) -> Result<Mechanisms, CoreError> {
    let kinds = [
        MechanismKind::Swarm,
        MechanismKind::PayAllHops,
        MechanismKind::TitForTat,
        MechanismKind::EffortBased {
            budget_per_tick: 10_000,
        },
        MechanismKind::ProofOfBandwidth { mint_per_chunk: 1 },
    ];
    let jobs: Vec<SimSpec> = kinds
        .iter()
        .map(|&mechanism| {
            let mut spec = scale.cell_spec(k, originator_fraction);
            spec.economics.mechanism = mechanism;
            spec
        })
        .collect();
    let reports = run_jobs_observed(executor, jobs, obs)?;
    let rows = kinds
        .iter()
        .zip(reports)
        .map(|(mechanism, report)| {
            let earning = report.incomes().iter().filter(|&&v| v > 0.0).count();
            MechanismRow {
                mechanism: mechanism.id().to_string(),
                f2_gini: report.f2_income_gini(),
                f1_income_gini: report.f1_income_gini(),
                earning_fraction: earning as f64 / report.node_count() as f64,
                total_income: report.incomes().iter().sum(),
            }
        })
        .collect();
    Ok(Mechanisms { rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::CsvTable;

    fn scale() -> ExperimentScale {
        ExperimentScale {
            nodes: 200,
            files: 120,
            seed: 0xFA12,
        }
    }

    #[test]
    fn bucket_zero_hybrid_sits_between_uniform_sizings() {
        let result = bucket_zero(
            scale(),
            0.2,
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        assert_eq!(result.rows.len(), 3);
        let k4 = &result.rows[0];
        let k20 = &result.rows[1];
        let hybrid = &result.rows[2];
        // Connection cost: k4 < hybrid < k20.
        assert!(k4.mean_connections < hybrid.mean_connections);
        assert!(hybrid.mean_connections < k20.mean_connections);
        // Fairness: the hybrid improves on uniform k4.
        assert!(hybrid.f2_gini < k4.f2_gini);
        assert!(!CsvTable::from_rows(&result.rows).is_empty());
    }

    #[test]
    fn free_riding_starves_income() {
        let result = free_riding(
            scale(),
            4,
            &[0.0, 0.5],
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        let honest = &result.rows[0];
        let half = &result.rows[1];
        // Half the originators not paying cuts total income.
        assert!(half.total_income < honest.total_income);
        // Their unpaid consumption shows up as amortized debt.
        assert!(half.amortized_total > honest.amortized_total);
        assert!(!CsvTable::from_rows(&result.rows).is_empty());
    }

    #[test]
    fn caching_cuts_forwarding_under_zipf() {
        let result = caching(
            scale(),
            4,
            256,
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        assert_eq!(result.rows.len(), 4);
        let zipf_none = result.row("zipf", "none").unwrap();
        let zipf_lru = result.row("zipf", "lru").unwrap();
        // LRU caching on a popular workload reduces forwarded traffic.
        assert!(zipf_lru.cache_hits > 0);
        assert!(zipf_lru.mean_forwarded < zipf_none.mean_forwarded);
        // Uniform workloads barely hit the cache.
        let uniform_lru = result.row("uniform", "lru").unwrap();
        assert!(uniform_lru.cache_hits < zipf_lru.cache_hits);
    }

    #[test]
    fn mechanism_comparison_orders_f2() {
        let result = mechanisms(
            scale(),
            4,
            1.0,
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        assert_eq!(result.rows.len(), 5);
        // Effort-based is F2-perfect (equal payout by construction).
        let effort = result.row("effort-based").unwrap();
        assert!(effort.f2_gini < 1e-9);
        assert!((effort.earning_fraction - 1.0).abs() < 1e-9);
        // Proof-of-bandwidth is F1-perfect (income == forwarded chunks).
        let pob = result.row("proof-of-bandwidth").unwrap();
        assert!(pob.f1_income_gini < 1e-9);
        // Pay-all-hops beats Swarm on F1 (reward tracks work per hop).
        let swarm = result.row("swarm").unwrap();
        let all_hops = result.row("pay-all-hops").unwrap();
        assert!(all_hops.f1_income_gini <= swarm.f1_income_gini + 1e-9);
        // Tit-for-tat rewards fewer nodes than Swarm pays.
        let tft = result.row("tit-for-tat").unwrap();
        assert!(tft.earning_fraction <= swarm.earning_fraction + 1e-9);
        assert!(!CsvTable::from_rows(&result.rows).is_empty());
    }
}

#[cfg(test)]
mod metric_tests {
    use crate::experiments::small_grid;

    #[test]
    fn paper_finding_is_metric_robust() {
        let grid = small_grid(100);
        let csv = grid.metric_robustness_csv();
        assert_eq!(csv.len(), 2);
        assert!(
            grid.all_indices_agree(),
            "indices disagree: {:?}",
            grid.cells
        );
    }
}
