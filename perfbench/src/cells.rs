//! The benchmark's workloads and the simulation specs behind them.
//!
//! Every batch workload runs rounds of one cell per routing-table size the
//! paper compares (k = 4 and k = 20). A cell's spec seed is one of
//! [`SLOTS`] slots, so the outputs of every possible cell can be recorded
//! once (see `digests.txt`) and checked on every timed run. Round `r` of a
//! run with workload seed `s` uses slot `(s + r) mod SLOTS`: a run's
//! medians then average over inputs as well as over time, since some
//! inputs (churn plans above all) cost more per chunk than others.

use fairswap_core::{BucketSizing, ChurnConfig, RepairPolicy, SimSpec};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "paper_static",
    "churn_repair",
    "large_overlay",
    "serve_mixed",
];

/// The batch workloads (every workload but `serve_mixed`).
pub const BATCH_WORKLOADS: [&str; 3] = ["paper_static", "churn_repair", "large_overlay"];

/// Distinct spec seeds per batch cell.
pub const SLOTS: u64 = 16;

/// The paper's two routing-table sizes.
pub const TABLE_SIZES: [usize; 2] = [4, 20];

/// One simulation of a batch workload.
#[derive(Debug, Clone)]
pub struct Cell {
    pub k: usize,
    pub slot: u64,
    pub spec: SimSpec,
}

/// The cells of round `round` of a run with workload seed `seed`.
pub fn round_cells(workload: &str, seed: u64, round: usize) -> Option<Vec<Cell>> {
    batch_cells(workload, (seed % SLOTS + round as u64) % SLOTS)
}

/// The cells of a batch workload for one slot, or `None` for a name that
/// is not a batch workload.
pub fn batch_cells(workload: &str, slot: u64) -> Option<Vec<Cell>> {
    let shape: fn(&mut SimSpec) = match workload {
        // The paper's setup: 1000 nodes, 16-bit space, uniform chunks,
        // Swarm payments, greedy routing, a static overlay.
        "paper_static" => |spec| spec.workload.files = 1000,
        // 2000 nodes under exponential sessions and downtimes, with
        // re-replication from replicas and bounded retries.
        "churn_repair" => |spec| {
            spec.topology.nodes = 2000;
            spec.workload.files = 150;
            spec.dynamics.churn = Some(ChurnConfig::from_rate(0.02).expect("valid rate"));
            spec.policies.repair = RepairPolicy::ReReplicate {
                neighborhood_bits: 11,
            };
            spec.policies.max_retries = 2;
            spec.policies.retry_backoff = 1;
        },
        // 10^5 nodes in a 22-bit space with few files: building the
        // routing tables dominates.
        "large_overlay" => |spec| {
            spec.topology.nodes = 100_000;
            spec.topology.bits = 22;
            spec.workload.files = 200;
        },
        _ => return None,
    };
    Some(
        TABLE_SIZES
            .iter()
            .map(|&k| {
                let mut spec = SimSpec::paper_defaults();
                spec.seed = 0xFA12 + slot;
                spec.topology.bucket_sizing = BucketSizing::uniform(k);
                shape(&mut spec);
                Cell { k, slot, spec }
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_batch_workload_has_valid_cells_for_both_table_sizes() {
        for workload in BATCH_WORKLOADS {
            let cells = batch_cells(workload, 3).unwrap();
            assert_eq!(cells.iter().map(|c| c.k).collect::<Vec<_>>(), TABLE_SIZES);
            for cell in cells {
                cell.spec.validate().unwrap();
                assert_eq!(cell.spec.seed, 0xFA12 + 3);
            }
        }
        assert!(batch_cells("serve_mixed", 0).is_none());
        let slots = |round| round_cells("paper_static", 31, round).unwrap()[0].slot;
        assert_eq!((slots(0), slots(1), slots(2)), (15, 0, 1));
    }
}
