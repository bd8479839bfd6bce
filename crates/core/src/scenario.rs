//! Scenario specifications and their compiler.
//!
//! A [`ScenarioKind`] is a declarative description of one overlay shock —
//! an adversarial departure wave, a flash crowd, a correlated regional
//! outage, or capacity heterogeneity. The compiler turns a specification
//! plus the built topology into the concrete pieces the simulator
//! executes:
//!
//! * scripted [`ChurnEvent`]s (which nodes join/leave at which step),
//!   composed into the run's [`fairswap_churn::ChurnPlan`] so scripted
//!   shocks and background statistical churn replay through one stream;
//! * the set of nodes held *offline* before step 1 (a flash-crowd cohort
//!   exists before it arrives);
//! * a runtime *targeted-departure trigger* for selections that depend on
//!   simulation state (the top earners are only known at the shock step);
//! * per-node bandwidth budgets (chunks forwarded per step) for the
//!   storage layer's download scheduling.
//!
//! Everything derives from the master seed through
//! [`domain::SCENARIO`](fairswap_simcore::rng::domain::SCENARIO), so a
//! scenario is a pure function of `(config, seed)` — the determinism
//! contract every experiment in this repository honors.

use rand::Rng;
use serde::{Deserialize, Serialize};

use fairswap_churn::{ChurnEvent, ChurnEventKind};
use fairswap_kademlia::{NodeId, Topology};
use fairswap_simcore::rng::{domain, sub_rng};

use crate::error::CoreError;

/// One overlay shock, described declaratively against a run's timeline.
///
/// Steps are 1-based simulation timesteps (one file download each); all
/// node selections and random draws are deterministic in the run's master
/// seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// At `at_step`, the `top_fraction` highest earners (by accumulated
    /// paid income, ties toward lower node ids) depart simultaneously —
    /// the adversarial question "does taking out the winners reset the
    /// income distribution?". Selection happens at runtime, since incomes
    /// are simulation state.
    TargetedDeparture {
        /// Step the departure wave fires at.
        at_step: u64,
        /// Fraction of the live population removed, `(0, 0.5]`.
        top_fraction: f64,
    },
    /// A cohort of `join_fraction` of the population, concentrated around
    /// a seed-derived anchor address (the XOR-closest nodes, i.e. one
    /// address region), stays offline until `at_step` and then joins *en
    /// masse* — mass arrivals around newly popular content.
    FlashCrowd {
        /// Step the cohort arrives at.
        at_step: u64,
        /// Fraction of the population arriving, `(0, 0.5]`.
        join_fraction: f64,
    },
    /// At `at_step`, every live node whose address shares the top
    /// `region_bits` bits with a seed-derived anchor departs at once — a
    /// datacenter or jurisdiction failing. With `rejoin_after`, the region
    /// comes back that many steps later.
    RegionalOutage {
        /// Step the outage fires at.
        at_step: u64,
        /// Width of the failing address-prefix region (1 bit = half the
        /// space, 2 bits = a quarter, ...).
        region_bits: u32,
        /// Steps until the region rejoins (`None` = the outage is
        /// permanent).
        rejoin_after: Option<u64>,
    },
    /// No membership shock; instead every node draws a per-step bandwidth
    /// budget from a two-tier distribution (each node is independently
    /// *slow* with probability `slow_fraction`). Download scheduling
    /// honors the budgets — saturated hops drop requests — and the
    /// effort-based mechanism scales its payouts by them.
    Heterogeneity {
        /// Probability a node lands in the slow tier, `[0, 1]`.
        slow_fraction: f64,
        /// Per-step forwarding budget of slow nodes (chunks).
        slow_budget: u64,
        /// Per-step forwarding budget of fast nodes (chunks).
        fast_budget: u64,
    },
}

impl ScenarioKind {
    /// A short stable identifier, used in CSV output and on the CLI.
    pub fn id(&self) -> &'static str {
        match self {
            Self::TargetedDeparture { .. } => "targeted-departure",
            Self::FlashCrowd { .. } => "flash-crowd",
            Self::RegionalOutage { .. } => "regional-outage",
            Self::Heterogeneity { .. } => "heterogeneity",
        }
    }

    /// The step the scenario's shock fires at (0 for heterogeneity, which
    /// shapes the whole run rather than firing once).
    pub fn shock_step(&self) -> u64 {
        match self {
            Self::TargetedDeparture { at_step, .. }
            | Self::FlashCrowd { at_step, .. }
            | Self::RegionalOutage { at_step, .. } => *at_step,
            Self::Heterogeneity { .. } => 0,
        }
    }

    /// Checks the specification against the run's dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for out-of-range fractions,
    /// shock steps outside `1..=files`, or degenerate regions/budgets.
    pub fn validate(&self, bits: u32, files: u64) -> Result<(), CoreError> {
        let invalid = |message: String| Err(CoreError::InvalidConfig { message });
        let check_step = |at_step: u64| {
            if at_step == 0 || at_step > files {
                invalid(format!(
                    "scenario shock step {at_step} outside the run's 1..={files}"
                ))
            } else {
                Ok(())
            }
        };
        let check_fraction = |fraction: f64, what: &str| {
            if !(fraction.is_finite() && fraction > 0.0 && fraction <= 0.5) {
                invalid(format!(
                    "scenario {what} must be in (0, 0.5], got {fraction}"
                ))
            } else {
                Ok(())
            }
        };
        match *self {
            Self::TargetedDeparture {
                at_step,
                top_fraction,
            } => {
                check_step(at_step)?;
                check_fraction(top_fraction, "top_fraction")
            }
            Self::FlashCrowd {
                at_step,
                join_fraction,
            } => {
                check_step(at_step)?;
                check_fraction(join_fraction, "join_fraction")
            }
            Self::RegionalOutage {
                at_step,
                region_bits,
                rejoin_after,
            } => {
                check_step(at_step)?;
                if region_bits == 0 || region_bits > bits {
                    return invalid(format!(
                        "scenario region_bits must be in 1..={bits}, got {region_bits}"
                    ));
                }
                if let Some(delay) = rejoin_after {
                    if delay == 0 {
                        return invalid("scenario rejoin_after must be at least 1".into());
                    }
                    // A rejoin scheduled past the horizon would be silently
                    // dropped by the plan sweep, turning a configured
                    // temporary outage into a permanent one.
                    if at_step.saturating_add(delay) > files {
                        return invalid(format!(
                            "scenario rejoin at step {} lands beyond the run's {files} steps \
                             (use rejoin_after: None for a permanent outage)",
                            at_step.saturating_add(delay)
                        ));
                    }
                }
                Ok(())
            }
            Self::Heterogeneity {
                slow_fraction,
                slow_budget,
                fast_budget,
            } => {
                if !(slow_fraction.is_finite() && (0.0..=1.0).contains(&slow_fraction)) {
                    return invalid(format!(
                        "scenario slow_fraction must be in [0, 1], got {slow_fraction}"
                    ));
                }
                if slow_budget == 0 || fast_budget == 0 {
                    return invalid("scenario budgets must be at least 1 chunk/step".into());
                }
                if slow_budget > fast_budget {
                    return invalid(format!(
                        "scenario slow_budget {slow_budget} exceeds fast_budget {fast_budget}"
                    ));
                }
                Ok(())
            }
        }
    }
}

/// The executable form of a scenario: everything the simulator needs,
/// precomputed where possible and deferred where state-dependent.
#[derive(Debug, Clone)]
pub(crate) struct CompiledScenario {
    /// Scripted membership events, composed into the run's churn plan.
    pub script: Vec<ChurnEvent>,
    /// Nodes held offline before step 1 (flash-crowd cohorts).
    pub initially_offline: Vec<NodeId>,
    /// Runtime trigger: `(at_step, top_fraction)` of a targeted departure.
    pub targeted: Option<(u64, f64)>,
    /// Per-node bandwidth budgets for download scheduling, at least 1
    /// each.
    pub capacities: Option<Vec<u64>>,
}

/// Compiles a validated specification against the built topology (all
/// nodes live). Deterministic in `(kind, topology, seed)`.
pub(crate) fn compile(kind: &ScenarioKind, topology: &Topology, seed: u64) -> CompiledScenario {
    let mut rng = sub_rng(seed, domain::SCENARIO);
    let space = topology.space();
    // Every scenario draws its anchor first so adding draws to one
    // scenario never shifts another's stream.
    let anchor = space.address_truncated(rng.gen_range(0..=space.max_raw()));
    let nodes = topology.len();

    let mut script = Vec::new();
    let mut schedule = |step: u64, nodes: &[NodeId], kind: ChurnEventKind| {
        script.extend(nodes.iter().map(|&node| ChurnEvent { step, node, kind }));
    };
    let mut initially_offline = Vec::new();
    let mut targeted = None;
    let mut capacities = None;

    match *kind {
        ScenarioKind::TargetedDeparture {
            at_step,
            top_fraction,
        } => targeted = Some((at_step, top_fraction)),
        ScenarioKind::FlashCrowd {
            at_step,
            join_fraction,
        } => {
            // The cohort is the region around the anchor: the XOR-closest
            // fraction of the population. It exists from the start but
            // stays offline until the crowd arrives.
            let count = ((nodes as f64 * join_fraction).ceil() as usize).clamp(1, nodes / 2);
            let cohort = topology.closest_live_nodes(anchor, count);
            schedule(at_step, &cohort, ChurnEventKind::Join);
            initially_offline = cohort;
        }
        ScenarioKind::RegionalOutage {
            at_step,
            region_bits,
            rejoin_after,
        } => {
            let region = topology.live_nodes_with_prefix(anchor, region_bits);
            schedule(at_step, &region, ChurnEventKind::Leave);
            if let Some(delay) = rejoin_after {
                schedule(at_step.saturating_add(delay), &region, ChurnEventKind::Join);
            }
        }
        ScenarioKind::Heterogeneity {
            slow_fraction,
            slow_budget,
            fast_budget,
        } => {
            // A two-tier population: each node is independently slow with
            // probability `slow_fraction`, drawn in node order.
            let (slow, fast) = (slow_budget.max(1), fast_budget.max(1));
            capacities = Some(
                (0..nodes)
                    .map(|_| {
                        if rng.gen_bool(slow_fraction) {
                            slow
                        } else {
                            fast
                        }
                    })
                    .collect(),
            );
        }
    }

    CompiledScenario {
        script,
        initially_offline,
        targeted,
        capacities,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairswap_kademlia::{AddressSpace, TopologyBuilder};

    fn topology(nodes: usize) -> Topology {
        TopologyBuilder::new(AddressSpace::new(16).unwrap())
            .nodes(nodes)
            .bucket_size(4)
            .seed(0xFA12)
            .build()
            .unwrap()
    }

    #[test]
    fn ids_and_shock_steps() {
        let kinds = [
            ScenarioKind::TargetedDeparture {
                at_step: 10,
                top_fraction: 0.01,
            },
            ScenarioKind::FlashCrowd {
                at_step: 20,
                join_fraction: 0.2,
            },
            ScenarioKind::RegionalOutage {
                at_step: 30,
                region_bits: 2,
                rejoin_after: None,
            },
            ScenarioKind::Heterogeneity {
                slow_fraction: 0.3,
                slow_budget: 4,
                fast_budget: 64,
            },
        ];
        let ids: Vec<&str> = kinds.iter().map(ScenarioKind::id).collect();
        assert_eq!(
            ids,
            [
                "targeted-departure",
                "flash-crowd",
                "regional-outage",
                "heterogeneity"
            ]
        );
        assert_eq!(
            kinds
                .iter()
                .map(ScenarioKind::shock_step)
                .collect::<Vec<_>>(),
            [10, 20, 30, 0]
        );
        for kind in &kinds {
            kind.validate(16, 100).unwrap();
        }
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        let bad = [
            ScenarioKind::TargetedDeparture {
                at_step: 0,
                top_fraction: 0.01,
            },
            ScenarioKind::TargetedDeparture {
                at_step: 200,
                top_fraction: 0.01,
            },
            ScenarioKind::TargetedDeparture {
                at_step: 10,
                top_fraction: 0.9,
            },
            ScenarioKind::FlashCrowd {
                at_step: 10,
                join_fraction: 0.0,
            },
            ScenarioKind::RegionalOutage {
                at_step: 10,
                region_bits: 0,
                rejoin_after: None,
            },
            ScenarioKind::RegionalOutage {
                at_step: 10,
                region_bits: 40,
                rejoin_after: None,
            },
            ScenarioKind::RegionalOutage {
                at_step: 10,
                region_bits: 2,
                rejoin_after: Some(0),
            },
            ScenarioKind::RegionalOutage {
                at_step: 90,
                region_bits: 2,
                rejoin_after: Some(20),
            },
            ScenarioKind::Heterogeneity {
                slow_fraction: 1.5,
                slow_budget: 4,
                fast_budget: 64,
            },
            ScenarioKind::Heterogeneity {
                slow_fraction: 0.3,
                slow_budget: 0,
                fast_budget: 64,
            },
            ScenarioKind::Heterogeneity {
                slow_fraction: 0.3,
                slow_budget: 65,
                fast_budget: 64,
            },
        ];
        for kind in &bad {
            assert!(
                matches!(kind.validate(16, 100), Err(CoreError::InvalidConfig { .. })),
                "{kind:?} should be rejected"
            );
        }
    }

    #[test]
    fn flash_crowd_compiles_to_an_offline_region_cohort() {
        let t = topology(300);
        let kind = ScenarioKind::FlashCrowd {
            at_step: 50,
            join_fraction: 0.1,
        };
        let compiled = compile(&kind, &t, 7);
        assert_eq!(compiled.initially_offline.len(), 30);
        assert!(compiled.targeted.is_none() && compiled.capacities.is_none());
        // The cohort joins at the shock, node for node.
        assert!(compiled
            .script
            .iter()
            .map(|e| (e.step, e.node, e.kind))
            .eq(compiled
                .initially_offline
                .iter()
                .map(|&node| (50, node, ChurnEventKind::Join))));
        // Deterministic in the seed.
        assert_eq!(
            compiled.initially_offline,
            compile(&kind, &t, 7).initially_offline
        );
        assert_ne!(
            compiled.initially_offline,
            compile(&kind, &t, 8).initially_offline
        );
    }

    #[test]
    fn regional_outage_compiles_leaves_and_rejoins() {
        let t = topology(400);
        let kind = ScenarioKind::RegionalOutage {
            at_step: 40,
            region_bits: 2,
            rejoin_after: Some(25),
        };
        let compiled = compile(&kind, &t, 11);
        assert!(compiled.initially_offline.is_empty());
        assert!(!compiled.script.is_empty());
        // Leaves at 40 and matching joins at 65.
        let (leaves, joins) = compiled.script.split_at(compiled.script.len() / 2);
        assert!(leaves
            .iter()
            .all(|e| e.step == 40 && e.kind == ChurnEventKind::Leave));
        assert!(joins
            .iter()
            .all(|e| e.step == 65 && e.kind == ChurnEventKind::Join));
        assert!(leaves
            .iter()
            .map(|e| e.node)
            .eq(joins.iter().map(|e| e.node)));
        // A 2-bit region is roughly a quarter of the population.
        let region = leaves.len();
        assert!((40..=180).contains(&region), "region = {region}");
    }

    #[test]
    fn heterogeneity_compiles_capacity_budgets() {
        let t = topology(200);
        let kind = ScenarioKind::Heterogeneity {
            slow_fraction: 0.4,
            slow_budget: 4,
            fast_budget: 64,
        };
        let compiled = compile(&kind, &t, 13);
        let caps = compiled.capacities.unwrap();
        assert_eq!(caps.len(), 200);
        assert!(caps.iter().all(|&c| c == 4 || c == 64));
        assert!(caps.contains(&4) && caps.contains(&64));
        assert!(compiled.script.is_empty() && compiled.targeted.is_none());
    }

    #[test]
    fn two_tier_capacities_are_deterministic_and_clamped() {
        let t = topology(500);
        let kind = ScenarioKind::Heterogeneity {
            slow_fraction: 0.3,
            slow_budget: 0,
            fast_budget: 64,
        };
        let caps = |seed: u64| compile(&kind, &t, seed).capacities.unwrap();
        let a = caps(7);
        assert_eq!(a, caps(7));
        assert_ne!(a, caps(8));
        assert_eq!(a.len(), 500);
        // Zero budgets clamp to 1; both tiers appear at this fraction.
        assert!(a.iter().all(|&b| b == 1 || b == 64));
        assert!(a.contains(&1) && a.contains(&64));
    }

    #[test]
    fn targeted_departure_defers_to_runtime() {
        let t = topology(100);
        let kind = ScenarioKind::TargetedDeparture {
            at_step: 25,
            top_fraction: 0.05,
        };
        let compiled = compile(&kind, &t, 17);
        assert_eq!(compiled.targeted, Some((25, 0.05)));
        assert!(compiled.script.is_empty());
        assert!(compiled.initially_offline.is_empty());
    }
}
