//! Fairness trends past the paper's 16-bit address cap.
//!
//! The paper's 2¹⁶-address space caps every experiment at 65k nodes; this
//! preset re-runs the `k ∈ {4, 20}` fairness comparison on overlays of 10⁵
//! nodes (and beyond) in 20–24-bit spaces, answering the scaling question
//! the evaluation leaves open: do the bucket-size fairness trends measured
//! at 1000 nodes persist when the network grows by two orders of
//! magnitude? Cells fan out over the experiment executor, and the
//! sorted-index topology builder keeps construction sub-quadratic, which
//! is what makes these dimensions tractable at all.
//!
//! `large_scale.csv` is [`CsvTable::from_rows`](crate::CsvTable::from_rows)
//! of [`LargeScaleRow`]s: the row's field order is the file's column order.

use fairswap_simcore::Executor;
use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::exec::run_jobs_observed;
use crate::experiments::scale::ExperimentScale;
use crate::obs::GridObservation;
use crate::spec::SimSpec;

/// Default address width for large-scale runs: room for 4M addresses,
/// an occupancy (10⁵ of 2²²) comparable to the paper's 1000 of 2¹⁶.
pub const DEFAULT_BITS: u32 = 22;

/// The default large-scale dimensions: 10⁵ nodes, 2000 files.
pub fn default_scale() -> ExperimentScale {
    ExperimentScale {
        nodes: 100_000,
        files: 2_000,
        seed: 0xFA12,
    }
}

/// One `(k)` cell of the large-scale comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LargeScaleRow {
    /// Network size.
    pub nodes: usize,
    /// Address-space bit width.
    pub bits: u32,
    /// Bucket size.
    pub k: usize,
    /// F2 income Gini.
    pub f2_gini: f64,
    /// F1 contribution Gini.
    pub f1_gini: f64,
    /// Mean forwarded chunks per node.
    pub mean_forwarded: f64,
    /// Mean hops per delivered chunk (grows ~log n).
    pub mean_hops: f64,
    /// Mean open connections per node.
    pub mean_connections: f64,
    /// Share of paid first hops served out of the originator's bucket 0.
    pub zero_bucket_share: f64,
    /// Requests whose greedy route got stuck.
    pub stuck_requests: u64,
}

/// The large-scale fairness comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LargeScale {
    /// One row per `k`, in input order.
    pub rows: Vec<LargeScaleRow>,
}

impl LargeScale {
    /// The row for one `k`.
    pub fn row(&self, k: usize) -> Option<&LargeScaleRow> {
        self.rows.iter().find(|r| r.k == k)
    }

    /// Relative F2 Gini reduction from the first row's `k` to the last's —
    /// the number to compare against the paper's ≈7% at 1000 nodes.
    pub fn f2_reduction(&self) -> Option<f64> {
        let first = self.rows.first()?;
        let last = self.rows.last()?;
        (first.f2_gini > 0.0).then(|| (first.f2_gini - last.f2_gini) / first.f2_gini)
    }
}

/// Runs the large-scale comparison.
///
/// Cells fan out over `executor` (output is bit-identical for any
/// thread count); `obs` carries progress and, when enabled, the
/// per-cell traces, metrics and phase timings.
///
/// # Errors
///
/// Propagates configuration errors as [`CoreError`] — in particular
/// [`fairswap_kademlia::KademliaError::SpaceExhausted`] when `bits` cannot
/// hold `scale.nodes` distinct addresses.
pub fn run(
    scale: ExperimentScale,
    bits: u32,
    ks: &[usize],
    executor: &Executor,
    obs: &mut GridObservation,
) -> Result<LargeScale, CoreError> {
    let reports = run_jobs_observed(executor, jobs(scale, bits, ks), obs)?;
    let rows = ks
        .iter()
        .zip(reports)
        .map(|(&k, report)| LargeScaleRow {
            nodes: scale.nodes,
            bits,
            k,
            f2_gini: report.f2_income_gini(),
            f1_gini: report.f1_contribution_gini(),
            mean_forwarded: report.mean_forwarded(),
            mean_hops: report.hops().mean().unwrap_or(0.0),
            mean_connections: report.mean_connections(),
            zero_bucket_share: report.zero_bucket_first_hop_share(),
            stuck_requests: report.traffic().stuck_requests(),
        })
        .collect();
    Ok(LargeScale { rows })
}

/// The per-`k` grid at `bits` address width, one [`SimSpec`] per cell —
/// shared by [`run`] and the `SimSpec` round-trip test
/// (`tests/spec_stability.rs`).
pub fn jobs(scale: ExperimentScale, bits: u32, ks: &[usize]) -> Vec<SimSpec> {
    ks.iter()
        .map(|&k| {
            let mut spec = scale.cell_spec(k, 1.0);
            spec.topology.bits = bits;
            spec
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::CsvTable;

    #[test]
    fn wide_space_preserves_the_paper_fairness_trend() {
        // A 2¹⁸ space at 4000 nodes — far beyond the test scales of the
        // other presets, small enough for CI.
        let result = run(
            ExperimentScale {
                nodes: 4000,
                files: 60,
                seed: 0xFA12,
            },
            18,
            &[4, 20],
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        assert_eq!(result.rows.len(), 2);
        let k4 = result.row(4).unwrap();
        let k20 = result.row(20).unwrap();
        assert_eq!(k4.bits, 18);
        // The paper's headline orderings survive the scale-up.
        assert!(k20.f2_gini < k4.f2_gini, "k20 {k20:?} !fairer k4 {k4:?}");
        assert!(k20.mean_forwarded < k4.mean_forwarded);
        assert!(k20.mean_connections > k4.mean_connections);
        assert!(result.f2_reduction().unwrap() > 0.0);
        // Zero-proximity first hops dominate (§III-B) at scale too.
        assert!(k4.zero_bucket_share > 0.4);
        assert!(!CsvTable::from_rows(&result.rows).is_empty());
    }

    #[test]
    fn parallel_matches_serial() {
        let scale = ExperimentScale {
            nodes: 1500,
            files: 30,
            seed: 0xFA12,
        };
        let serial = run(
            scale,
            18,
            &[4, 20],
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        let parallel = run(
            scale,
            18,
            &[4, 20],
            &Executor::new(4),
            &mut GridObservation::disabled(),
        )
        .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn exhausted_space_is_reported() {
        let err = run(
            ExperimentScale {
                nodes: 100_000,
                files: 10,
                seed: 1,
            },
            16,
            &[4],
            &Executor::serial(),
            &mut GridObservation::disabled(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Topology(_)), "{err:?}");
    }

    #[test]
    fn defaults_target_one_hundred_thousand_nodes() {
        let scale = default_scale();
        assert_eq!(scale.nodes, 100_000);
        // The default width holds the default population with headroom.
        let capacity = 1u128 << DEFAULT_BITS;
        assert!(capacity >= 16 * scale.nodes as u128);
    }
}
