//! The engine's flat simulation configuration.

use serde::{Deserialize, Serialize};

use fairswap_churn::ChurnConfig;
use fairswap_incentives::{
    BandwidthIncentive, EffortBased, FreeRiderSet, PayAllHops, ProofOfBandwidth, SwarmIncentive,
    TitForTat,
};
use fairswap_kademlia::BucketSizing;
use fairswap_storage::{CachePolicy, RepairSource, RoutePolicy};
use fairswap_swap::{Bzz, ChannelConfig, Pricing};
use fairswap_workload::{ChunkDist, FileSizeDist};

use crate::error::CoreError;
use crate::policy::RepairPolicy;
use crate::scenario::ScenarioKind;

/// Which incentive mechanism the simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MechanismKind {
    /// Swarm's default: first hop paid, rest amortized (the paper's
    /// subject).
    Swarm,
    /// Every hop paid its proximity price.
    PayAllHops,
    /// BitTorrent-style service-for-service reciprocity.
    TitForTat,
    /// Rahman-style effort-proportional payouts with this per-tick budget.
    EffortBased {
        /// Accounting units distributed per timestep.
        budget_per_tick: i64,
    },
    /// TorCoin-style minting per relayed chunk.
    ProofOfBandwidth {
        /// Units minted per relayed chunk.
        mint_per_chunk: i64,
    },
}

impl MechanismKind {
    /// A short stable identifier, used in CSV output.
    pub fn id(&self) -> &'static str {
        match self {
            Self::Swarm => "swarm",
            Self::PayAllHops => "pay-all-hops",
            Self::TitForTat => "tit-for-tat",
            Self::EffortBased { .. } => "effort-based",
            Self::ProofOfBandwidth { .. } => "proof-of-bandwidth",
        }
    }
}

/// Upper bound on [`SimConfig::max_retries`].
pub const MAX_RETRY_LIMIT: u32 = 16;

/// Upper bound on [`SimConfig::retry_backoff`], in steps.
pub const MAX_RETRY_BACKOFF: u64 = 1024;

/// Full simulation configuration: the flat view the engine reads.
///
/// Runs are described by [`SimSpec`](crate::SimSpec), whose
/// [`to_config`](crate::SimSpec::to_config) is the only way to get one of
/// these.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of overlay nodes.
    pub nodes: usize,
    /// Address-space bit width.
    pub bits: u32,
    /// Bucket sizing (uniform `k` or per-bucket overrides).
    pub bucket_sizing: BucketSizing,
    /// Fraction of nodes acting as originators.
    pub originator_fraction: f64,
    /// Number of files to download (timesteps).
    pub files: u64,
    /// Master seed for topology, workload and mechanism randomness.
    pub seed: u64,
    /// File-size distribution.
    pub file_size: FileSizeDist,
    /// Chunk-address distribution.
    pub chunk_dist: ChunkDist,
    /// Per-node cache policy.
    pub cache: CachePolicy,
    /// SWAP channel thresholds and amortization rate.
    pub channel: ChannelConfig,
    /// Cost charged per settlement transaction.
    pub tx_cost: Bzz,
    /// Fraction of nodes that free-ride (never pay the first hop).
    pub free_rider_fraction: f64,
    /// The incentive mechanism.
    pub mechanism: MechanismKind,
    /// Pricing scheme used by payment mechanisms.
    pub pricing: Pricing,
    /// Dynamic-membership model; `None` reproduces the paper's static
    /// overlay ("the routing tables remain static for the entirety of the
    /// experiments").
    pub churn: Option<ChurnConfig>,
    /// Scripted overlay shock (targeted departures, flash crowds, regional
    /// outages, capacity heterogeneity) layered on top of the churn model;
    /// `None` runs no scenario.
    pub scenario: Option<ScenarioKind>,
    /// Routing policy: what a request does when its greedy next hop is
    /// bandwidth-saturated ([`RoutePolicy::Greedy`] reproduces the paper's
    /// drop rule bit-for-bit).
    pub route: RoutePolicy,
    /// Repair policy: how the simulation reacts to departures that strand
    /// chunks ([`RepairPolicy::None`] reproduces the paper's model).
    pub repair: RepairPolicy,
    /// Where [`RepairPolicy::ReReplicate`] sources its re-uploads from
    /// (ignored by the other repair policies).
    pub repair_source: RepairSource,
    /// Maximum retry attempts for a failed user download (0 reproduces
    /// the paper's drop-on-failure model bit-for-bit).
    pub max_retries: u32,
    /// Steps before a failed download's first retry; doubles per attempt.
    /// Ignored while `max_retries` is 0.
    pub retry_backoff: u64,
}

impl SimConfig {
    pub(crate) fn validate(&self) -> Result<(), CoreError> {
        if self.nodes == 0 {
            return Err(CoreError::InvalidConfig {
                message: "nodes must be at least 1".into(),
            });
        }
        if self.bits == 0 || self.bits > 64 {
            return Err(CoreError::InvalidConfig {
                message: format!("bits must be in 1..=64, got {}", self.bits),
            });
        }
        if self.files == 0 {
            return Err(CoreError::InvalidConfig {
                message: "files must be at least 1".into(),
            });
        }
        // An out-of-range originator fraction would otherwise surface much
        // later as a workload-build failure (or, for NaN/0, an empty
        // originator pool panicking mid-run) — reject it up front with the
        // other config errors.
        if !(self.originator_fraction.is_finite()
            && self.originator_fraction > 0.0
            && self.originator_fraction <= 1.0)
        {
            return Err(CoreError::InvalidConfig {
                message: format!(
                    "originator fraction must be in (0, 1], got {}",
                    self.originator_fraction
                ),
            });
        }
        if !(self.free_rider_fraction.is_finite()
            && (0.0..=1.0).contains(&self.free_rider_fraction))
        {
            return Err(CoreError::InvalidConfig {
                message: format!(
                    "free rider fraction must be in [0, 1], got {}",
                    self.free_rider_fraction
                ),
            });
        }
        // The workload distributions validate themselves inside
        // `WorkloadBuilder::build`, but that runs after the (potentially
        // expensive) topology build — and fuzzed specs hit these corners
        // constantly (non-finite Zipf exponents, zero-size files). Reject
        // them here with every other config error instead.
        self.chunk_dist.validate()?;
        self.file_size.validate()?;
        // A non-positive payout parameter silently degenerates the
        // mechanism (zero or negative income for every node), which then
        // trips the fairness oracles with configs that were never
        // meaningful. Reject them as config errors.
        match self.mechanism {
            MechanismKind::EffortBased { budget_per_tick } if budget_per_tick <= 0 => {
                return Err(CoreError::InvalidConfig {
                    message: format!(
                        "effort-based budget_per_tick must be positive, got {budget_per_tick}"
                    ),
                });
            }
            MechanismKind::ProofOfBandwidth { mint_per_chunk } if mint_per_chunk <= 0 => {
                return Err(CoreError::InvalidConfig {
                    message: format!(
                        "proof-of-bandwidth mint_per_chunk must be positive, got {mint_per_chunk}"
                    ),
                });
            }
            _ => {}
        }
        // A non-positive disconnect threshold freezes every channel on its
        // first service, and a negative price makes payments run backwards;
        // both crash the SWAP accounting mid-run.
        if self.channel.disconnect_threshold.0 <= 0 {
            return Err(CoreError::InvalidConfig {
                message: format!(
                    "economics.channel.disconnect_threshold must be positive, got {}",
                    self.channel.disconnect_threshold.0
                ),
            });
        }
        let (price_field, price) = match self.pricing {
            Pricing::Proximity { base } => ("Proximity.base", base),
            Pricing::Flat { price } => ("Flat.price", price),
        };
        if price < 0 {
            return Err(CoreError::InvalidConfig {
                message: format!(
                    "economics.pricing.{price_field} must be non-negative, got {price}"
                ),
            });
        }
        if let Some(churn) = &self.churn {
            churn.validate()?;
        }
        if let Some(scenario) = &self.scenario {
            scenario.validate(self.bits, self.files)?;
        }
        self.repair.validate(self.bits)?;
        // The retry knobs are bounded so a fuzzed spec cannot schedule
        // effectively-unbounded retry storms (or a backoff that never
        // fires within any realistic run length).
        if self.max_retries > MAX_RETRY_LIMIT {
            return Err(CoreError::InvalidConfig {
                message: format!(
                    "max_retries must be in 0..={MAX_RETRY_LIMIT}, got {}",
                    self.max_retries
                ),
            });
        }
        if !(1..=MAX_RETRY_BACKOFF).contains(&self.retry_backoff) {
            return Err(CoreError::InvalidConfig {
                message: format!(
                    "retry_backoff must be in 1..={MAX_RETRY_BACKOFF}, got {}",
                    self.retry_backoff
                ),
            });
        }
        Ok(())
    }

    /// Builds the configured incentive mechanism. `capacities` are the
    /// scenario's per-node bandwidth budgets, if any: the effort-based
    /// baseline rewards *offered* bandwidth, so heterogeneous capacities
    /// flow straight into its effort vector.
    pub(crate) fn build_mechanism(
        &self,
        free_riders: FreeRiderSet,
        capacities: Option<&[u64]>,
    ) -> Box<dyn BandwidthIncentive> {
        match self.mechanism {
            MechanismKind::Swarm => Box::new(
                SwarmIncentive::new()
                    .with_pricing(self.pricing)
                    .with_free_riders(free_riders),
            ),
            MechanismKind::PayAllHops => Box::new(PayAllHops::new().with_pricing(self.pricing)),
            MechanismKind::TitForTat => Box::new(TitForTat::new()),
            MechanismKind::EffortBased { budget_per_tick } => match capacities {
                Some(caps) => Box::new(EffortBased::from_capacities(caps, budget_per_tick)),
                None => Box::new(EffortBased::uniform(self.nodes, budget_per_tick)),
            },
            MechanismKind::ProofOfBandwidth { mint_per_chunk } => {
                Box::new(ProofOfBandwidth::new(mint_per_chunk))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SimSpec;
    use fairswap_swap::AccountingUnits;

    /// A valid small spec; each test breaks one field of it.
    fn small() -> SimSpec {
        let mut spec = SimSpec::paper_defaults();
        spec.topology.nodes = 10;
        spec.workload.files = 1;
        spec
    }

    #[test]
    fn paper_defaults_shape() {
        let c = SimSpec::paper_defaults().to_config();
        assert_eq!(c.nodes, 1000);
        assert_eq!(c.bits, 16);
        assert_eq!(c.bucket_sizing.default_k(), 4);
        assert_eq!(c.files, 10_000);
        assert_eq!(c.mechanism.id(), "swarm");
        assert_eq!(SimSpec::default(), SimSpec::paper_defaults());
    }

    #[test]
    fn zero_files_rejected() {
        let mut spec = small();
        spec.workload.files = 0;
        let err = spec.build().unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }));
        assert!(err.to_string().contains("files must be at least 1"));
    }

    #[test]
    fn zero_nodes_rejected() {
        let mut spec = SimSpec::paper_defaults();
        spec.topology.nodes = 0;
        let err = spec.build().unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }));
        assert!(err.to_string().contains("nodes must be at least 1"));
    }

    #[test]
    fn out_of_range_bits_rejected() {
        for bits in [0u32, 65] {
            let mut spec = small();
            spec.topology.bits = bits;
            let err = spec.build().unwrap_err();
            assert!(matches!(err, CoreError::InvalidConfig { .. }), "{bits}");
            assert!(
                err.to_string().contains("bits must be in 1..=64"),
                "{bits}: {err}"
            );
        }
    }

    #[test]
    fn bad_originator_fractions_rejected() {
        for fraction in [0.0, -0.2, 1.5, f64::NAN, f64::INFINITY] {
            let mut spec = small();
            spec.workload.originator_fraction = fraction;
            let err = spec.build().unwrap_err();
            assert!(
                matches!(err, CoreError::InvalidConfig { .. }),
                "{fraction}: {err}"
            );
            assert!(
                err.to_string()
                    .contains("originator fraction must be in (0, 1]"),
                "{fraction}: {err}"
            );
        }
    }

    #[test]
    fn bad_repair_policy_rejected() {
        let mut spec = small();
        spec.policies.repair = RepairPolicy::ReReplicate {
            neighborhood_bits: 0,
        };
        let err = spec.build().unwrap_err();
        assert!(err.to_string().contains("neighborhood_bits"));
    }

    #[test]
    fn out_of_range_retry_knobs_rejected() {
        for (max_retries, backoff, needle) in [
            (17u32, 1u64, "max_retries must be in 0..=16, got 17"),
            (u32::MAX, 1, "max_retries must be in 0..=16"),
            (2, 0, "retry_backoff must be in 1..=1024, got 0"),
            (2, 1025, "retry_backoff must be in 1..=1024, got 1025"),
            (0, 0, "retry_backoff must be in 1..=1024, got 0"),
        ] {
            let mut spec = small();
            spec.policies.max_retries = max_retries;
            spec.policies.retry_backoff = backoff;
            let err = spec.build().unwrap_err();
            assert!(matches!(err, CoreError::InvalidConfig { .. }));
            assert!(
                err.to_string().contains(needle),
                "({max_retries}, {backoff}): {err}"
            );
        }
        // The bounds themselves are valid.
        let mut spec = SimSpec::paper_defaults();
        spec.policies.max_retries = 16;
        spec.policies.retry_backoff = 1024;
        assert!(spec.build().is_ok());
    }

    #[test]
    fn bad_free_rider_fraction_rejected() {
        let mut spec = small();
        spec.economics.free_rider_fraction = 1.5;
        let err = spec.build().unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }));
        assert!(err
            .to_string()
            .contains("free rider fraction must be in [0, 1]"));
    }

    #[test]
    fn non_positive_disconnect_thresholds_rejected() {
        for threshold in [0i64, -1] {
            let mut spec = small();
            spec.economics.channel = ChannelConfig {
                payment_threshold: AccountingUnits(0),
                disconnect_threshold: AccountingUnits(threshold),
                refresh_rate: AccountingUnits(0),
            };
            let err = spec.validate().unwrap_err();
            assert!(matches!(err, CoreError::InvalidConfig { .. }));
            assert!(
                err.to_string().contains(&format!(
                    "economics.channel.disconnect_threshold must be positive, got {threshold}"
                )),
                "{err}"
            );
        }
        // A one-unit threshold settles before every service and runs.
        let mut spec = small();
        spec.topology.nodes = 80;
        spec.workload.files = 8;
        spec.economics.channel.disconnect_threshold = AccountingUnits(1);
        spec.build().unwrap().run();
    }

    #[test]
    fn negative_prices_rejected() {
        for (pricing, needle) in [
            (
                Pricing::Flat { price: -5 },
                "economics.pricing.Flat.price must be non-negative, got -5",
            ),
            (
                Pricing::Proximity { base: -3 },
                "economics.pricing.Proximity.base must be non-negative, got -3",
            ),
        ] {
            let mut spec = small();
            spec.economics.pricing = pricing;
            let err = spec.validate().unwrap_err();
            assert!(matches!(err, CoreError::InvalidConfig { .. }));
            assert!(err.to_string().contains(needle), "{err}");
        }
        // Free relaying is a valid (if unpaid) configuration.
        for pricing in [Pricing::Flat { price: 0 }, Pricing::Proximity { base: 0 }] {
            let mut spec = small();
            spec.economics.pricing = pricing;
            assert!(spec.validate().is_ok(), "{pricing:?}");
        }
    }

    #[test]
    fn topology_errors_propagate() {
        let mut spec = small();
        spec.topology.nodes = 1;
        let err = spec.build().unwrap_err();
        assert!(matches!(err, CoreError::Topology(_)));
    }

    #[test]
    fn churn_knobs() {
        let mut spec = SimSpec::paper_defaults();
        spec.dynamics.churn = Some(ChurnConfig::from_rate(0.1).unwrap());
        assert!(spec.build().is_ok());

        // Invalid rates surface at build time.
        let mut spec = small();
        spec.topology.nodes = 50;
        spec.workload.files = 5;
        spec.dynamics.churn = Some(ChurnConfig::from_rate_unchecked(-2.0));
        let err = spec.build().unwrap_err();
        assert!(matches!(err, CoreError::Churn(_)));
    }

    #[test]
    fn bad_workload_distributions_rejected_up_front() {
        // Fuzzer-surfaced gap: these used to slip past `validate()` and
        // only fail inside `WorkloadBuilder::build`, after the topology
        // was already constructed. Each rejection keeps its precise
        // message.
        for (dist, needle) in [
            (
                ChunkDist::Zipf {
                    catalog: 100,
                    exponent: f64::NAN,
                },
                "invalid zipf parameters: catalog 100, exponent NaN",
            ),
            (
                ChunkDist::Zipf {
                    catalog: 0,
                    exponent: 0.8,
                },
                "invalid zipf parameters: catalog 0",
            ),
            (
                ChunkDist::Zipf {
                    catalog: 100,
                    exponent: -1.0,
                },
                "exponent -1",
            ),
        ] {
            let mut spec = SimSpec::paper_defaults();
            spec.workload.chunk_dist = dist;
            let err = spec.validate().unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
        for (dist, needle) in [
            (
                FileSizeDist::Uniform { min: 0, max: 10 },
                "invalid file size range 0..=10",
            ),
            (
                FileSizeDist::Uniform { min: 20, max: 10 },
                "invalid file size range 20..=10",
            ),
            (FileSizeDist::Constant(0), "invalid file size range 0..=0"),
        ] {
            let mut spec = SimSpec::paper_defaults();
            spec.workload.file_size = dist;
            let err = spec.validate().unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn degenerate_mechanism_payouts_rejected() {
        for (mechanism, needle) in [
            (
                MechanismKind::EffortBased { budget_per_tick: 0 },
                "budget_per_tick must be positive, got 0",
            ),
            (
                MechanismKind::EffortBased {
                    budget_per_tick: -10,
                },
                "budget_per_tick must be positive, got -10",
            ),
            (
                MechanismKind::ProofOfBandwidth { mint_per_chunk: 0 },
                "mint_per_chunk must be positive, got 0",
            ),
            (
                MechanismKind::ProofOfBandwidth { mint_per_chunk: -3 },
                "mint_per_chunk must be positive, got -3",
            ),
        ] {
            let mut spec = SimSpec::paper_defaults();
            spec.economics.mechanism = mechanism;
            let err = spec.validate().unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
        // The positive parameters still build.
        let mut spec = SimSpec::paper_defaults();
        spec.topology.nodes = 60;
        spec.workload.files = 2;
        spec.economics.mechanism = MechanismKind::EffortBased {
            budget_per_tick: 500,
        };
        assert!(spec.build().is_ok());
    }

    #[test]
    fn mechanism_ids() {
        assert_eq!(MechanismKind::PayAllHops.id(), "pay-all-hops");
        assert_eq!(
            MechanismKind::EffortBased { budget_per_tick: 1 }.id(),
            "effort-based"
        );
        assert_eq!(
            MechanismKind::ProofOfBandwidth { mint_per_chunk: 1 }.id(),
            "proof-of-bandwidth"
        );
    }
}
