//! `SimSpec`: the serde-stable, nested simulation specification.
//!
//! `SimSpec` is the one way to describe and start a run: presets, the
//! CLI, `fairswap serve` and the fuzzer all build one and call
//! [`SimSpec::build`] (or hand a grid of them to
//! [`run_jobs`](crate::run_jobs)). It is also the public wire format — the
//! shape `fairswap run --config spec.json` executes and the one external
//! tooling should generate. [`SimConfig`] is only the flat view the engine
//! reads, produced by [`SimSpec::to_config`]. Fields are grouped by
//! concern:
//!
//! ```json
//! {
//!   "seed": 64018,
//!   "topology":  { "nodes": 1000, "bits": 16, "bucket_sizing": {...} },
//!   "workload":  { "originator_fraction": 1.0, "files": 10000, ... },
//!   "economics": { "mechanism": "Swarm", "pricing": {...}, ... },
//!   "dynamics":  { "churn": null, "scenario": null },
//!   "policies":  { "route": "Greedy", "cache": "None", "repair": "None" }
//! }
//! ```
//!
//! **Stability contract.** Every field — and every group — is optional
//! and defaults to the paper's §IV-B configuration, so `{}` is a valid
//! spec and specs written against an older schema keep parsing as the
//! format grows (every group derives `Deserialize` under
//! `#[serde(default)]`, which fills a missing field from
//! [`SimSpec::paper_defaults`]). Serialization emits every group in a
//! fixed order with `serialize → deserialize → re-serialize` producing
//! byte-identical JSON; `tests/spec_stability.rs` pins both properties.
//!
//! Unknown fields are ignored on input (new writers, old readers);
//! out-of-range *values* are rejected by [`SimSpec::build`] through the
//! same validation every other entry point uses. Tooling that wants to
//! catch typos instead of silently dropping them — the CLI's
//! `fairswap run --config`, which warns by default and rejects under
//! `--strict` — goes through [`SimSpec::from_json_checked`], which also
//! reports every unknown top-level or group-level key.

use serde::{Deserialize, Serialize, Value};

use fairswap_churn::ChurnConfig;
use fairswap_kademlia::{AddressSpace, BucketSizing, TopologyBuilder};
use fairswap_simcore::rng::{domain, sub_seed};
use fairswap_storage::{CachePolicy, RepairSource, RoutePolicy};
use fairswap_swap::{AccountingUnits, Bzz, ChannelConfig, Pricing};
use fairswap_workload::{ChunkDist, FileSizeDist, WorkloadBuilder};

use crate::config::{MechanismKind, SimConfig};
use crate::error::CoreError;
use crate::policy::RepairPolicy;
use crate::scenario::ScenarioKind;
use crate::sim::BandwidthSim;

/// Overlay dimensions: who exists and how they are wired.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct TopologySpec {
    /// Number of overlay nodes.
    pub nodes: usize,
    /// Address-space bit width.
    pub bits: u32,
    /// Bucket sizing (uniform `k` or per-bucket overrides).
    pub bucket_sizing: BucketSizing,
}

/// Download workload: who requests what, how often.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct WorkloadSpec {
    /// Fraction of nodes acting as originators, `(0, 1]`.
    pub originator_fraction: f64,
    /// Number of files to download (timesteps).
    pub files: u64,
    /// File-size distribution.
    pub file_size: FileSizeDist,
    /// Chunk-address distribution.
    pub chunk_dist: ChunkDist,
}

/// Incentive economics: who pays whom, and how much.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct EconomicsSpec {
    /// The incentive mechanism.
    pub mechanism: MechanismKind,
    /// Pricing scheme used by payment mechanisms.
    pub pricing: Pricing,
    /// SWAP channel thresholds and amortization rate.
    pub channel: ChannelConfig,
    /// Cost charged per settlement transaction.
    pub tx_cost: Bzz,
    /// Fraction of nodes that free-ride (never pay the first hop).
    pub free_rider_fraction: f64,
}

/// Overlay dynamics: background churn and scripted shocks.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct DynamicsSpec {
    /// Dynamic-membership model; `null` reproduces the paper's static
    /// overlay.
    pub churn: Option<ChurnConfig>,
    /// Scripted overlay shock; `null` runs no scenario.
    pub scenario: Option<ScenarioKind>,
}

/// The policy layer: routing, caching and repair behavior.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct PolicySpec {
    /// Routing policy (drop vs capacity detour).
    pub route: RoutePolicy,
    /// Per-node cache policy.
    pub cache: CachePolicy,
    /// Repair policy for stranded chunks.
    pub repair: RepairPolicy,
    /// Where re-replication sources its repair uploads from.
    pub repair_source: RepairSource,
    /// Maximum retry attempts for failed user downloads (0 = the paper's
    /// drop-on-failure model).
    pub max_retries: u32,
    /// Steps before a failed download's first retry; doubles per attempt.
    pub retry_backoff: u64,
}

/// The canonical content hash of a [`SimSpec`]: a 64-bit FNV-1a digest of
/// the spec's canonical JSON wire form ([`SimSpec::to_json`] — compact,
/// fixed field order, every field present).
///
/// Because the digest is taken over the *canonical* form, two documents
/// that parse to the same spec — different key order, whitespace, elided
/// defaults — hash identically, while any semantic difference (a changed
/// seed, one policy knob) produces a different hash. This is the job id
/// of `fairswap serve` and a stable fingerprint for corpus and gallery
/// tooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpecHash(u64);

impl SpecHash {
    /// The hash of a spec's canonical JSON text, exactly as
    /// [`SimSpec::to_json`] renders it: [`SimSpec::content_hash`] for a
    /// caller that already holds that text, without serializing the spec
    /// a second time. Other text (a document as submitted, say) hashes to
    /// no spec's content hash in general.
    pub fn of_canonical_json(canonical: &str) -> Self {
        Self(fnv1a_64(canonical.as_bytes()))
    }

    /// The raw 64-bit digest.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for SpecHash {
    /// Renders as 16 lowercase hex digits — the form used in URLs, logs
    /// and the serve API's JSON responses.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl std::str::FromStr for SpecHash {
    type Err = CoreError;

    /// Parses the display form back: exactly 16 lowercase hex digits, so
    /// every hash has one spelling (how `fairswap serve` resolves job ids).
    fn from_str(text: &str) -> Result<Self, CoreError> {
        let canonical =
            text.len() == 16 && text.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
        match u64::from_str_radix(text, 16) {
            Ok(digest) if canonical => Ok(Self(digest)),
            _ => Err(CoreError::InvalidConfig {
                message: format!("not a spec hash (16 lowercase hex digits): {text:?}"),
            }),
        }
    }
}

/// 64-bit FNV-1a over a byte string: tiny, dependency-free, and stable
/// across platforms and releases — exactly what a committed-fixture hash
/// pin needs (this is a fingerprint, not a cryptographic digest).
fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// A complete simulation specification — see the module docs for the wire
/// format and its stability contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct SimSpec {
    /// Master seed for every random stream of the run.
    pub seed: u64,
    /// Overlay dimensions.
    pub topology: TopologySpec,
    /// Download workload.
    pub workload: WorkloadSpec,
    /// Incentive economics.
    pub economics: EconomicsSpec,
    /// Churn and scripted shocks.
    pub dynamics: DynamicsSpec,
    /// Routing / caching / repair policies.
    pub policies: PolicySpec,
}

impl SimSpec {
    /// The paper's §IV-B settings (the meaning of the empty document
    /// `{}`): 1000 nodes, 16-bit addresses, `k = 4`, static tables, 100%
    /// originators, 10k uniform 100–1000-chunk files at uniform addresses,
    /// the Swarm incentive with proximity pricing, no caching, no free
    /// riders.
    pub fn paper_defaults() -> Self {
        Self {
            seed: 0xFA12,
            topology: TopologySpec {
                nodes: 1000,
                bits: 16,
                bucket_sizing: BucketSizing::uniform(4),
            },
            workload: WorkloadSpec {
                originator_fraction: 1.0,
                files: 10_000,
                file_size: FileSizeDist::paper_default(),
                chunk_dist: ChunkDist::Uniform,
            },
            economics: EconomicsSpec {
                mechanism: MechanismKind::Swarm,
                pricing: Pricing::proximity_unit(),
                channel: ChannelConfig {
                    payment_threshold: AccountingUnits(10_000),
                    disconnect_threshold: AccountingUnits(1_000_000_000),
                    refresh_rate: AccountingUnits(100),
                },
                tx_cost: Bzz::ZERO,
                free_rider_fraction: 0.0,
            },
            dynamics: DynamicsSpec {
                churn: None,
                scenario: None,
            },
            policies: PolicySpec {
                route: RoutePolicy::Greedy,
                cache: CachePolicy::None,
                repair: RepairPolicy::None,
                repair_source: RepairSource::Replica,
                max_retries: 0,
                retry_backoff: 1,
            },
        }
    }

    /// Flattens the spec into the engine's [`SimConfig`]. Purely a
    /// regrouping — no validation happens here (see [`SimSpec::build`]).
    pub fn to_config(&self) -> SimConfig {
        SimConfig {
            nodes: self.topology.nodes,
            bits: self.topology.bits,
            bucket_sizing: self.topology.bucket_sizing.clone(),
            originator_fraction: self.workload.originator_fraction,
            files: self.workload.files,
            seed: self.seed,
            file_size: self.workload.file_size,
            chunk_dist: self.workload.chunk_dist.clone(),
            cache: self.policies.cache,
            channel: self.economics.channel,
            tx_cost: self.economics.tx_cost,
            free_rider_fraction: self.economics.free_rider_fraction,
            mechanism: self.economics.mechanism,
            pricing: self.economics.pricing,
            churn: self.dynamics.churn.clone(),
            scenario: self.dynamics.scenario.clone(),
            route: self.policies.route,
            repair: self.policies.repair,
            repair_source: self.policies.repair_source,
            max_retries: self.policies.max_retries,
            retry_backoff: self.policies.retry_backoff,
        }
    }

    /// Validates the spec's values without building anything — the same
    /// checks [`SimSpec::build`] runs before constructing the topology.
    /// This is the cheap path for tooling (the fuzzer, spec linters) that
    /// wants to vet many specs per second.
    ///
    /// # Errors
    ///
    /// Any configuration error (out-of-range fractions, degenerate
    /// dimensions, invalid churn/scenario/policy parameters, ...) as
    /// [`CoreError`].
    pub fn validate(&self) -> Result<(), CoreError> {
        self.to_config().validate()
    }

    /// Validates the spec and builds the runnable simulation.
    ///
    /// # Errors
    ///
    /// Any configuration error (out-of-range fractions, degenerate
    /// dimensions, invalid churn/scenario/policy parameters, ...) as
    /// [`CoreError`].
    pub fn build(&self) -> Result<BandwidthSim, CoreError> {
        let config = self.to_config();
        config.validate()?;
        let space = AddressSpace::new(config.bits)?;
        let topology = TopologyBuilder::new(space)
            .nodes(config.nodes)
            .bucket_sizing(config.bucket_sizing.clone())
            .seed(config.seed)
            .build()?;
        // Distinct sub-seeds per concern, all forked from the master seed
        // through the shared derivation in `fairswap_simcore::rng`.
        let workload = WorkloadBuilder::new(space, config.nodes)
            .originator_fraction(config.originator_fraction)
            .file_size(config.file_size)
            .chunk_dist(config.chunk_dist.clone())
            .seed(sub_seed(config.seed, domain::WORKLOAD))
            .build()?;
        Ok(BandwidthSim::new(config, topology, workload))
    }

    /// Parses a spec from its JSON wire form.
    ///
    /// # Errors
    ///
    /// Reports malformed JSON or shape mismatches as
    /// [`CoreError::InvalidConfig`]; value validation is deferred to
    /// [`SimSpec::build`].
    pub fn from_json(json: &str) -> Result<Self, CoreError> {
        serde_json::from_str(json).map_err(|e| CoreError::InvalidConfig {
            message: format!("parsing spec: {e}"),
        })
    }

    /// [`SimSpec::from_json`] plus a list of every unknown top-level or
    /// group-level key the document carries (e.g. `"topology.node_count"`
    /// for a typo of `nodes`). The spec still parses — unknown fields are
    /// never fatal here; the caller decides whether to warn or reject.
    ///
    /// # Errors
    ///
    /// See [`SimSpec::from_json`].
    pub fn from_json_checked(json: &str) -> Result<(Self, Vec<String>), CoreError> {
        let value: Value = serde_json::from_str(json).map_err(|e| CoreError::InvalidConfig {
            message: format!("parsing spec: {e}"),
        })?;
        let spec = Self::from_value(&value).map_err(|e| CoreError::InvalidConfig {
            message: format!("parsing spec: {e}"),
        })?;
        Ok((spec, unknown_fields(&value)))
    }

    /// Renders the spec as its canonical (compact, fixed field order)
    /// JSON wire form.
    ///
    /// # Errors
    ///
    /// Reports non-serializable values (non-finite floats) as
    /// [`CoreError::InvalidConfig`].
    pub fn to_json(&self) -> Result<String, CoreError> {
        serde_json::to_string(self).map_err(|e| CoreError::InvalidConfig {
            message: format!("serializing spec: {e}"),
        })
    }

    /// The canonical content hash: FNV-1a 64 over [`SimSpec::to_json`].
    /// Stable across field order, whitespace and elided defaults in the
    /// source document — see [`SpecHash`].
    ///
    /// # Errors
    ///
    /// Propagates [`SimSpec::to_json`] failures (non-finite floats in a
    /// programmatically-built spec; documents parsed from JSON cannot
    /// carry them).
    pub fn content_hash(&self) -> Result<SpecHash, CoreError> {
        Ok(SpecHash::of_canonical_json(&self.to_json()?))
    }
}

/// Dotted paths of every unknown top-level or group-level key in a spec
/// document. The known keys are those of the canonical form of
/// [`SimSpec::paper_defaults`], which carries every group and field. Keys
/// *inside* leaf values (enum payloads like a churn or pricing config) are
/// the leaf type's business and are not walked.
fn unknown_fields(value: &Value) -> Vec<String> {
    let (Some(fields), Value::Object(known)) =
        (value.as_object(), SimSpec::paper_defaults().to_value())
    else {
        return Vec::new();
    };
    let mut unknown = Vec::new();
    for (key, group_value) in fields {
        let Some((_, known_group)) = known.iter().find(|(name, _)| name == key) else {
            unknown.push(key.clone());
            continue;
        };
        if let (Some(group_fields), Some(known_fields)) =
            (group_value.as_object(), known_group.as_object())
        {
            for (field, _) in group_fields {
                if !known_fields.iter().any(|(name, _)| name == field) {
                    unknown.push(format!("{key}.{field}"));
                }
            }
        }
    }
    unknown
}

impl Default for SimSpec {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

impl Default for TopologySpec {
    fn default() -> Self {
        SimSpec::paper_defaults().topology
    }
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        SimSpec::paper_defaults().workload
    }
}

impl Default for EconomicsSpec {
    fn default() -> Self {
        SimSpec::paper_defaults().economics
    }
}

impl Default for PolicySpec {
    fn default() -> Self {
        SimSpec::paper_defaults().policies
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_document_is_the_paper_configuration() {
        let spec = SimSpec::from_json("{}").unwrap();
        assert_eq!(spec, SimSpec::paper_defaults());
    }

    #[test]
    fn json_round_trip_is_identity() {
        let spec = SimSpec::paper_defaults();
        let json = spec.to_json().unwrap();
        let back = SimSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json().unwrap(), json, "re-serialization drifted");
    }

    #[test]
    fn partial_groups_fill_in_defaults() {
        let spec = SimSpec::from_json(
            r#"{
                "seed": 7,
                "topology": { "nodes": 64 },
                "policies": { "route": { "CapacityDetour": { "max_detours": 5 } } }
            }"#,
        )
        .unwrap();
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.topology.nodes, 64);
        // Unmentioned fields inside a group keep the paper defaults...
        assert_eq!(spec.topology.bits, 16);
        // ...as do entirely absent groups.
        assert_eq!(spec.workload.files, 10_000);
        assert_eq!(spec.policies.route.max_detours(), 5);
        assert_eq!(spec.policies.cache, CachePolicy::None);
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let spec = SimSpec::from_json(r#"{ "seed": 9, "future_extension": {"x": 1} }"#).unwrap();
        assert_eq!(spec.seed, 9);
    }

    #[test]
    fn checked_parse_reports_unknown_fields() {
        let (spec, unknown) = SimSpec::from_json_checked(
            r#"{
                "seed": 9,
                "future_extension": {"x": 1},
                "topology": { "nodes": 64, "node_count": 65 },
                "policies": { "cache": "None", "caching": "Lru" }
            }"#,
        )
        .unwrap();
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.topology.nodes, 64);
        assert_eq!(
            unknown,
            vec![
                "future_extension",
                "topology.node_count",
                "policies.caching"
            ]
        );
    }

    /// A spec whose every field differs from the paper default, so a
    /// field that silently fell back to its default is visible.
    fn every_field_tweaked() -> SimSpec {
        let spec = SimSpec {
            seed: 7,
            topology: TopologySpec {
                nodes: 64,
                bits: 12,
                bucket_sizing: BucketSizing::uniform(8),
            },
            workload: WorkloadSpec {
                originator_fraction: 0.5,
                files: 9,
                file_size: FileSizeDist::Constant(3),
                chunk_dist: ChunkDist::Zipf {
                    catalog: 10,
                    exponent: 0.8,
                },
            },
            economics: EconomicsSpec {
                mechanism: MechanismKind::TitForTat,
                pricing: Pricing::Flat { price: 2 },
                channel: ChannelConfig::unlimited(),
                tx_cost: Bzz(1),
                free_rider_fraction: 0.1,
            },
            dynamics: DynamicsSpec {
                churn: Some(ChurnConfig::from_rate(0.1).unwrap()),
                scenario: Some(ScenarioKind::FlashCrowd {
                    at_step: 3,
                    join_fraction: 0.1,
                }),
            },
            policies: PolicySpec {
                route: RoutePolicy::CapacityDetour { max_detours: 2 },
                cache: CachePolicy::Lru { capacity: 8 },
                repair: RepairPolicy::Monitor {
                    neighborhood_bits: 4,
                },
                repair_source: RepairSource::Originator,
                max_retries: 2,
                retry_backoff: 3,
            },
        };
        let (Value::Object(tweaked), Value::Object(paper)) =
            (spec.to_value(), SimSpec::paper_defaults().to_value())
        else {
            unreachable!("specs serialize as objects")
        };
        for ((key, value), (_, default)) in tweaked.iter().zip(&paper) {
            match (value.as_object(), default.as_object()) {
                (Some(fields), Some(defaults)) => {
                    for ((field, value), (_, default)) in fields.iter().zip(defaults) {
                        assert_ne!(value, default, "{key}.{field} is not tweaked");
                    }
                }
                _ => assert_ne!(value, default, "{key} is not tweaked"),
            }
        }
        spec
    }

    /// Parses `doc` through [`SimSpec::from_json_checked`] and returns the
    /// canonical form of the result plus the unknown keys.
    fn checked(doc: &[(String, Value)]) -> (Vec<(String, Value)>, Vec<String>) {
        let json = serde_json::to_string(&Value::Object(doc.to_vec())).unwrap();
        let (spec, unknown) = SimSpec::from_json_checked(&json).unwrap();
        let Value::Object(canonical) = spec.to_value() else {
            unreachable!("specs serialize as objects")
        };
        (canonical, unknown)
    }

    #[test]
    fn derived_key_set_flags_exactly_the_typo_and_defaults_omitted_fields() {
        // Table-driven over the canonical form, so a new group or field is
        // covered without touching this test.
        let Value::Object(tweaked) = every_field_tweaked().to_value() else {
            unreachable!("specs serialize as objects")
        };
        let Value::Object(paper) = SimSpec::paper_defaults().to_value() else {
            unreachable!("specs serialize as objects")
        };
        let mut keys = 0;
        for (g, (group, group_value)) in tweaked.iter().enumerate() {
            // Top-level keys: `seed` and the groups themselves.
            let mut doc = tweaked.clone();
            doc.push((format!("{group}_typo"), group_value.clone()));
            assert_eq!(
                checked(&doc),
                (tweaked.clone(), vec![format!("{group}_typo")])
            );
            let mut doc = tweaked.clone();
            doc.remove(g);
            let mut expected = tweaked.clone();
            expected[g] = paper[g].clone();
            assert_eq!(checked(&doc), (expected, vec![]), "omitting {group}");
            keys += 1;

            let (Some(fields), Some(defaults)) = (group_value.as_object(), paper[g].1.as_object())
            else {
                continue;
            };
            let with_group = |fields: Vec<(String, Value)>| {
                let mut doc = tweaked.clone();
                doc[g].1 = Value::Object(fields);
                doc
            };
            for (f, (field, value)) in fields.iter().enumerate() {
                let mut typo = fields.to_vec();
                typo.push((format!("{field}_typo"), value.clone()));
                assert_eq!(
                    checked(&with_group(typo)),
                    (tweaked.clone(), vec![format!("{group}.{field}_typo")])
                );
                let mut omitted = fields.to_vec();
                omitted.remove(f);
                let mut expected = fields.to_vec();
                expected[f] = defaults[f].clone();
                assert_eq!(
                    checked(&with_group(omitted)),
                    (with_group(expected), vec![]),
                    "omitting {group}.{field}"
                );
                keys += 1;
            }
        }
        assert_eq!(keys, 6 + 20, "six top-level keys and twenty group fields");
    }

    #[test]
    fn committed_fixtures_carry_no_unknown_keys() {
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let fixtures = manifest.join("../../tests/fixtures");
        let mut files = Vec::new();
        for dir in [fixtures.clone(), fixtures.join("corpus")] {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.extension().is_some_and(|ext| ext == "json") {
                    files.push(path);
                }
            }
        }
        assert_eq!(files.len(), 7, "demo spec plus six corpus seeds: {files:?}");
        for path in files {
            let text = std::fs::read_to_string(&path).unwrap();
            let (_, unknown) = SimSpec::from_json_checked(&text).unwrap();
            assert!(unknown.is_empty(), "{}: {unknown:?}", path.display());
        }
    }

    #[test]
    fn checked_parse_of_clean_documents_reports_nothing() {
        let json = SimSpec::paper_defaults().to_json().unwrap();
        let (spec, unknown) = SimSpec::from_json_checked(&json).unwrap();
        assert_eq!(spec, SimSpec::paper_defaults());
        assert!(unknown.is_empty(), "{unknown:?}");
        // Leaf payload keys (enum internals) are not the walk's business.
        let (_, unknown) = SimSpec::from_json_checked(
            r#"{ "policies": { "route": { "CapacityDetour": { "max_detours": 5 } } } }"#,
        )
        .unwrap();
        assert!(unknown.is_empty(), "{unknown:?}");
        assert!(SimSpec::from_json_checked("{").is_err());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(SimSpec::from_json("[1, 2]").is_err());
        assert!(SimSpec::from_json("{").is_err());
        assert!(SimSpec::from_json(r#"{ "topology": 5 }"#).is_err());
    }

    #[test]
    fn validate_rejects_full_width_repair_regions() {
        // A region as wide as the whole space would make every single
        // departure a data loss; rejected at spec level with the width in
        // the message.
        for bits in [16u32, 17] {
            let mut spec = SimSpec::paper_defaults();
            spec.topology.bits = 16;
            spec.policies.repair = RepairPolicy::ReReplicate {
                neighborhood_bits: bits,
            };
            let err = spec.validate().unwrap_err();
            assert!(err.to_string().contains("neighborhood_bits"), "{err}");
            assert!(err.to_string().contains("1..=15"), "{err}");
        }
        let mut spec = SimSpec::paper_defaults();
        spec.policies.repair = RepairPolicy::Monitor {
            neighborhood_bits: 16,
        };
        assert!(spec.validate().is_err());
        spec.policies.repair = RepairPolicy::Monitor {
            neighborhood_bits: 15,
        };
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_retry_fields() {
        let mut spec = SimSpec::paper_defaults();
        spec.policies.max_retries = 99;
        let err = spec.validate().unwrap_err();
        assert!(
            err.to_string().contains("max_retries must be in 0..=16"),
            "{err}"
        );
        let mut spec = SimSpec::paper_defaults();
        spec.policies.retry_backoff = 0;
        let err = spec.validate().unwrap_err();
        assert!(
            err.to_string()
                .contains("retry_backoff must be in 1..=1024"),
            "{err}"
        );
        spec.policies.retry_backoff = 4096;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn retry_and_repair_source_fields_round_trip() {
        let mut spec = SimSpec::paper_defaults();
        spec.policies.repair = RepairPolicy::ReReplicate {
            neighborhood_bits: 8,
        };
        spec.policies.repair_source = RepairSource::Originator;
        spec.policies.max_retries = 3;
        spec.policies.retry_backoff = 2;
        let json = spec.to_json().unwrap();
        assert!(json.contains(r#""repair_source":"Originator""#), "{json}");
        assert!(json.contains(r#""max_retries":3"#), "{json}");
        let back = SimSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.policies.max_retries, 3);
        assert_eq!(back.policies.repair_source, RepairSource::Originator);
        // Old documents without the new keys parse to the defaults.
        let old = SimSpec::from_json(
            r#"{ "policies": { "route": "Greedy", "cache": "None", "repair": "None" } }"#,
        )
        .unwrap();
        assert_eq!(old.policies.repair_source, RepairSource::Replica);
        assert_eq!(old.policies.max_retries, 0);
        assert_eq!(old.policies.retry_backoff, 1);
    }

    #[test]
    fn content_hash_is_canonical() {
        // Whitespace, key order and elided defaults never change the hash;
        // any semantic change does.
        let canonical = SimSpec::paper_defaults().content_hash().unwrap();
        let elided = SimSpec::from_json("{}").unwrap().content_hash().unwrap();
        assert_eq!(canonical, elided);
        let reordered =
            SimSpec::from_json(r#"{ "topology": { "bits": 16, "nodes": 1000 },   "seed": 64018 }"#)
                .unwrap();
        assert_eq!(
            reordered.content_hash().unwrap(),
            canonical,
            "source formatting must not perturb the hash"
        );
        let mut tweaked = SimSpec::paper_defaults();
        tweaked.seed += 1;
        assert_ne!(tweaked.content_hash().unwrap(), canonical);
        let mut tweaked = SimSpec::paper_defaults();
        tweaked.policies.max_retries = 1;
        assert_ne!(tweaked.content_hash().unwrap(), canonical);
        // The display form is 16 lowercase hex digits.
        let text = canonical.to_string();
        assert_eq!(text.len(), 16);
        assert!(text.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(u64::from_str_radix(&text, 16).unwrap(), canonical.as_u64());
        assert_eq!(text.parse::<SpecHash>().unwrap(), canonical);
        for other in ["", "1", &text.to_uppercase(), &format!("+{}", &text[1..])] {
            assert!(other.parse::<SpecHash>().is_err(), "{other:?}");
        }
    }

    #[test]
    fn content_hash_of_committed_fixtures_is_pinned() {
        // These pins are the stability contract behind the serve report
        // cache and corpus tooling: if canonical serialization (field
        // order, float rendering, defaults) drifts, cached reports and
        // recorded fingerprints silently stop matching — this test makes
        // the drift loud. Recompute only on a deliberate format change.
        assert_eq!(
            SimSpec::paper_defaults()
                .content_hash()
                .unwrap()
                .to_string(),
            PAPER_DEFAULTS_HASH,
        );
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let fixtures = manifest.join("../../tests/fixtures");
        for (file, pinned) in [
            ("demo_spec.json", DEMO_SPEC_HASH),
            ("corpus/seed-00-paper-quick.json", SEED_00_HASH),
        ] {
            let text = std::fs::read_to_string(fixtures.join(file)).unwrap();
            let spec = SimSpec::from_json(&text).unwrap();
            assert_eq!(spec.content_hash().unwrap().to_string(), pinned, "{file}");
        }
    }

    #[test]
    fn hashing_the_canonical_text_is_the_content_hash() {
        // The serve scheduler hashes the canonical text it already holds;
        // that must be the job id `content_hash` gives the same spec.
        let corpus =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/corpus");
        let mut specs = vec![("paper_defaults".to_string(), SimSpec::paper_defaults())];
        for entry in std::fs::read_dir(&corpus).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            specs.push((
                path.display().to_string(),
                SimSpec::from_json(&text).unwrap(),
            ));
        }
        assert!(specs.len() > 6, "paper defaults and the six corpus seeds");
        for (name, spec) in specs {
            let canonical = spec.to_json().unwrap();
            assert_eq!(
                SpecHash::of_canonical_json(&canonical),
                spec.content_hash().unwrap(),
                "{name}"
            );
        }
    }

    /// Pinned canonical hashes of the committed fixtures (see
    /// `content_hash_of_committed_fixtures_is_pinned`).
    const PAPER_DEFAULTS_HASH: &str = "494368cb520950bb";
    const DEMO_SPEC_HASH: &str = "62f0e9be5dc00c86";
    const SEED_00_HASH: &str = "aa0171a53d365e1d";

    #[test]
    fn build_validates_values() {
        let mut spec = SimSpec::paper_defaults();
        spec.workload.originator_fraction = 0.0;
        let err = spec.build().unwrap_err();
        assert!(err.to_string().contains("originator fraction"));
        // `validate` runs the same checks without a build.
        assert!(spec.validate().is_err());
        assert!(SimSpec::paper_defaults().validate().is_ok());
        // A valid spec builds.
        let mut spec = SimSpec::paper_defaults();
        spec.topology.nodes = 80;
        spec.workload.files = 5;
        assert!(spec.build().is_ok());
    }
}
