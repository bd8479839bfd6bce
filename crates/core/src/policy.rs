//! The policy layer: pluggable routing, caching and repair behavior.
//!
//! The paper's model hardcodes one rule on each of three axes — greedy
//! next-hop routing (drop on saturation), per-node opportunistic caching,
//! and no response at all when churn empties a chunk's storage
//! neighborhood. Every open extension on the roadmap is a variation of
//! exactly those axes, so this module turns each into a configuration
//! value:
//!
//! * **Routing** — [`RoutePolicy`] (re-exported from
//!   [`fairswap_storage`]): `Greedy`, the paper's rule, or
//!   `CapacityDetour`, which escapes a saturated next hop through the
//!   next-closest table entries.
//! * **Caching** — [`CachePolicy`] (re-exported from
//!   [`fairswap_storage`]): `None`/`Lru`/`Lfu` plus the churn-aware `Ttl`
//!   variant.
//! * **Repair** — [`RepairPolicy`]: `None`, loss detection only
//!   (`Monitor`), or re-replication (`ReReplicate`) from a
//!   [`RepairSource`](crate::RepairSource).
//!
//! All three are closed, serde-stable enums that live inside the
//! [`SimSpec`](crate::SimSpec) wire format, and all three run inside the
//! engine: routing and caching on the per-chunk hot path, repair once per
//! departure and once per step for the due re-uploads. See
//! `examples/custom_policy.rs` for a run that combines them.
//!
//! Determinism rules for any policy implementation: decisions may depend
//! only on the deterministic simulation state handed in (topology, target
//! addresses, capacity ledgers, step numbers) — never on wall-clock time,
//! map iteration order or an unseeded RNG. Under that contract every run,
//! including multi-threaded experiment grids, stays a pure function of
//! its configuration seed.

use serde::{Deserialize, Serialize};

pub use fairswap_storage::{CachePolicy, RoutePolicy};

/// What the simulation does when a departure may have stranded chunks.
///
/// The storage model keeps exactly one storer per chunk — the XOR-closest
/// *live* node — so a departure silently migrates responsibility. When a
/// whole address neighborhood empties, though, there is nobody meaningfully
/// close left: the region's chunks are genuinely gone until somebody
/// re-uploads them. The policy decides whether that loss is modeled at
/// all, and whether the network responds with real repair traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairPolicy {
    /// The paper's (non-)behavior: departures are never repaired and loss
    /// is not modeled — responsibility migrates silently, byte-identical
    /// to every pre-durability run.
    #[default]
    None,
    /// Fault injection without recovery: a departure that empties its
    /// `neighborhood_bits`-bit address region makes the region's chunks
    /// unreachable (requests fault, durability metrics accrue), but
    /// nothing ever re-uploads them. The control arm for repair studies —
    /// under sustained churn `chunks_unreachable` grows monotonically.
    Monitor {
        /// Width of the monitored address-prefix region in bits (wider =
        /// smaller region = more sensitive detection).
        neighborhood_bits: u32,
    },
    /// Full re-replication: loss is detected as under `Monitor`, and each
    /// lost region additionally schedules a repair re-upload from a
    /// [`RepairSource`](crate::RepairSource) through the same
    /// capacity-constrained routing as user traffic, paid through the
    /// incentive layer. Failed repairs retry with doubling backoff.
    ReReplicate {
        /// Width of the monitored address-prefix region in bits.
        neighborhood_bits: u32,
    },
}

impl RepairPolicy {
    /// A short stable identifier, used in CSV output and on the CLI.
    pub fn id(&self) -> &'static str {
        match self {
            Self::None => "none",
            Self::Monitor { .. } => "monitor",
            Self::ReReplicate { .. } => "re-replicate",
        }
    }

    /// The monitored region width, when loss is modeled at all.
    pub fn neighborhood_bits(&self) -> Option<u32> {
        match *self {
            Self::None => None,
            Self::Monitor { neighborhood_bits } | Self::ReReplicate { neighborhood_bits } => {
                Some(neighborhood_bits)
            }
        }
    }

    /// Whether the policy generates repair traffic (as opposed to only
    /// accounting loss, or ignoring it entirely).
    pub fn repairs(&self) -> bool {
        matches!(self, Self::ReReplicate { .. })
    }

    /// Checks the policy against the run's address-space width.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`](crate::CoreError) when the
    /// monitored region is degenerate (0 bits) or not narrower than the
    /// space — a full-width region would turn every single departure into
    /// a data loss.
    pub fn validate(&self, bits: u32) -> Result<(), crate::CoreError> {
        match self.neighborhood_bits() {
            None => Ok(()),
            Some(neighborhood_bits) => {
                if neighborhood_bits == 0 || neighborhood_bits >= bits {
                    let max = bits.saturating_sub(1);
                    Err(crate::CoreError::InvalidConfig {
                        message: format!(
                            "repair neighborhood_bits must be in 1..={max}, got {neighborhood_bits}"
                        ),
                    })
                } else {
                    Ok(())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_defaults_and_accessors() {
        assert_eq!(RepairPolicy::None.id(), "none");
        assert_eq!(
            RepairPolicy::Monitor {
                neighborhood_bits: 4
            }
            .id(),
            "monitor"
        );
        assert_eq!(
            RepairPolicy::ReReplicate {
                neighborhood_bits: 4
            }
            .id(),
            "re-replicate"
        );
        assert_eq!(RepairPolicy::default(), RepairPolicy::None);
        assert_eq!(RepairPolicy::None.neighborhood_bits(), None);
        assert_eq!(
            RepairPolicy::Monitor {
                neighborhood_bits: 6
            }
            .neighborhood_bits(),
            Some(6)
        );
        assert!(!RepairPolicy::None.repairs());
        assert!(!RepairPolicy::Monitor {
            neighborhood_bits: 6
        }
        .repairs());
        assert!(RepairPolicy::ReReplicate {
            neighborhood_bits: 6
        }
        .repairs());
    }

    #[test]
    fn validation_bounds_the_region() {
        RepairPolicy::None.validate(16).unwrap();
        RepairPolicy::ReReplicate {
            neighborhood_bits: 15,
        }
        .validate(16)
        .unwrap();
        // A full-width region turns every departure into data loss;
        // rejected for monitor and re-replicate alike.
        for bad in [0u32, 16, 17] {
            for policy in [
                RepairPolicy::Monitor {
                    neighborhood_bits: bad,
                },
                RepairPolicy::ReReplicate {
                    neighborhood_bits: bad,
                },
            ] {
                let err = policy.validate(16).unwrap_err();
                assert!(err.to_string().contains("neighborhood_bits"), "{err}");
                assert!(err.to_string().contains("1..=15"), "{err}");
            }
        }
    }
}
