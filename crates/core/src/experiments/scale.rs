//! Experiment scaling.

use serde::{Deserialize, Serialize};

use crate::spec::SimSpec;

/// How large to run an experiment.
///
/// [`ExperimentScale::paper`] reproduces the paper's dimensions exactly;
/// [`ExperimentScale::quick`] keeps the same qualitative behaviour at a
/// size that finishes in seconds (used by integration tests and CI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentScale {
    /// Network size.
    pub nodes: usize,
    /// Files downloaded per configuration.
    pub files: u64,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// The paper's headline scale: 1000 nodes, 10k files.
    pub fn paper() -> Self {
        Self {
            nodes: 1000,
            files: 10_000,
            seed: 0xFA12,
        }
    }

    /// A reduced scale for tests and smoke runs.
    pub fn quick() -> Self {
        Self {
            nodes: 300,
            files: 200,
            seed: 0xFA12,
        }
    }

    /// Overrides the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The base spec of one sweep cell at this scale: paper defaults with
    /// this scale's dimensions, uniform bucket size `k` and the given
    /// originator fraction. Presets mutate the remaining fields
    /// (mechanism, caching, churn, ...) per cell.
    pub fn cell_spec(&self, k: usize, originator_fraction: f64) -> SimSpec {
        let mut spec = SimSpec::paper_defaults();
        spec.seed = self.seed;
        spec.topology.nodes = self.nodes;
        spec.topology.bucket_sizing = fairswap_kademlia::BucketSizing::uniform(k);
        spec.workload.files = self.files;
        spec.workload.originator_fraction = originator_fraction;
        spec
    }
}

impl Default for ExperimentScale {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales() {
        assert_eq!(ExperimentScale::paper().nodes, 1000);
        assert_eq!(ExperimentScale::paper().files, 10_000);
        assert!(ExperimentScale::quick().files < 1000);
        assert_eq!(ExperimentScale::default(), ExperimentScale::paper());
        assert_eq!(ExperimentScale::quick().with_seed(7).seed, 7);
    }

    #[test]
    fn cell_config_applies_scale_and_cell_axes() {
        let scale = ExperimentScale {
            nodes: 321,
            files: 42,
            seed: 9,
        };
        let spec = scale.cell_spec(20, 0.2);
        assert_eq!(spec.topology.nodes, 321);
        assert_eq!(spec.workload.files, 42);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.topology.bucket_sizing.default_k(), 20);
        assert_eq!(spec.workload.originator_fraction, 0.2);
    }
}
