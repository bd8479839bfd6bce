//! Scripted-event scenarios: deterministic overlay shocks on a timeline.
//!
//! The churn subsystem models *statistical* membership dynamics (every node
//! follows its own renewal process). Scenarios model *scripted* dynamics:
//! "at step 500, this exact set of nodes joins/leaves" — flash crowds,
//! correlated regional outages, adversarial departures. This module holds
//! the substrate-agnostic half of that machinery:
//!
//! * [`EventScript`] — an ordered, composable stream of [`ScriptEvent`]s
//!   (join/leave of a node index at a step), built by scenario compilers
//!   and merged into a churn plan for replay;
//! * [`CapacityPlan`] — per-node bandwidth budgets (chunks forwarded per
//!   step), the heterogeneity axis that download scheduling honors.
//!
//! Everything here is index-based (`usize` node slots, `u64` steps) so the
//! crate stays independent of the overlay substrate; the kademlia/churn
//! layers translate node ids. Like every other stochastic concern, scenario
//! randomness forks off the master seed through
//! [`rng::sub_seed`](crate::rng::sub_seed) with
//! [`rng::domain::SCENARIO`](crate::rng::domain::SCENARIO), so a scenario
//! is a pure function of `(config, seed)`.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::rng::SimRng;

/// What a scripted event does to its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScriptEventKind {
    /// The node joins (or rejoins) the overlay at its original address.
    Join,
    /// The node leaves the overlay.
    Leave,
}

/// One scripted membership change, scheduled against a simulation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScriptEvent {
    /// Step (1-based) at which the event fires, before that step's
    /// downloads.
    pub step: u64,
    /// Dense node index (the overlay layer's `NodeId`).
    pub node: usize,
    /// Join or leave.
    pub kind: ScriptEventKind,
}

/// A deterministic, composable schedule of scripted membership events.
///
/// Scripts are *specifications*, not guaranteed outcomes: composing a
/// script into a replayable plan runs a consistency sweep (a node can only
/// leave while live and join while down, and a structural live floor is
/// enforced), so conflicting or redundant events are dropped there, not
/// here. Within one step, events replay in `(node, leaves-before-joins)`
/// order regardless of insertion order, which is what makes merged scripts
/// independent of composition order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventScript {
    events: Vec<ScriptEvent>,
}

impl EventScript {
    /// An empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one event.
    pub fn push(&mut self, event: ScriptEvent) {
        self.events.push(event);
    }

    /// Schedules `node` to join at `step`.
    pub fn join(&mut self, step: u64, node: usize) {
        self.push(ScriptEvent {
            step,
            node,
            kind: ScriptEventKind::Join,
        });
    }

    /// Schedules `node` to leave at `step`.
    pub fn leave(&mut self, step: u64, node: usize) {
        self.push(ScriptEvent {
            step,
            node,
            kind: ScriptEventKind::Leave,
        });
    }

    /// Schedules every node in `nodes` to leave at `step` (a correlated
    /// outage).
    pub fn mass_leave<I: IntoIterator<Item = usize>>(&mut self, step: u64, nodes: I) {
        for node in nodes {
            self.leave(step, node);
        }
    }

    /// Schedules every node in `nodes` to join at `step` (a flash crowd).
    pub fn mass_join<I: IntoIterator<Item = usize>>(&mut self, step: u64, nodes: I) {
        for node in nodes {
            self.join(step, node);
        }
    }

    /// Merges another script into this one.
    pub fn merge(&mut self, other: &EventScript) {
        self.events.extend_from_slice(&other.events);
    }

    /// The events in canonical replay order: by step, then node, leaves
    /// before joins. The order is a pure function of the event *set*, so
    /// two scripts assembled in different orders normalize identically.
    pub fn sorted_events(&self) -> Vec<ScriptEvent> {
        let mut events = self.events.clone();
        events.sort_unstable_by_key(|e| (e.step, e.node, matches!(e.kind, ScriptEventKind::Join)));
        events.dedup();
        events
    }

    /// The raw events in insertion order.
    pub fn events(&self) -> &[ScriptEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the script schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The latest step any event fires at (0 for an empty script).
    pub fn max_step(&self) -> u64 {
        self.events.iter().map(|e| e.step).max().unwrap_or(0)
    }
}

/// Per-node bandwidth budgets: how many chunks each node may forward per
/// simulation step.
///
/// The paper's model gives every node unlimited capacity; real deployments
/// are heterogeneous (home uplinks next to datacenter peers), and capacity
/// interacts with session workload — a saturated node stops serving until
/// the next step. Budgets are plain data here; enforcement lives in the
/// storage layer's download scheduling.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CapacityPlan {
    budgets: Vec<u64>,
}

impl CapacityPlan {
    /// Every node gets the same per-step budget (clamped to at least 1).
    pub fn uniform(nodes: usize, budget: u64) -> Self {
        Self {
            budgets: vec![budget.max(1); nodes],
        }
    }

    /// A two-tier population: each node is independently *slow* with
    /// probability `slow_fraction` (budget `slow`), otherwise *fast*
    /// (budget `fast`). Budgets are clamped to at least 1 so no node is
    /// structurally dead. Deterministic given the RNG stream — pass a
    /// [`sub_rng`](crate::rng::sub_rng)-derived stream.
    pub fn two_tier(
        nodes: usize,
        slow_fraction: f64,
        slow: u64,
        fast: u64,
        rng: &mut SimRng,
    ) -> Self {
        let slow_fraction = slow_fraction.clamp(0.0, 1.0);
        let budgets = (0..nodes)
            .map(|_| {
                if rng.gen_bool(slow_fraction) {
                    slow.max(1)
                } else {
                    fast.max(1)
                }
            })
            .collect();
        Self { budgets }
    }

    /// Wraps explicit per-node budgets (clamped to at least 1).
    pub fn from_budgets(budgets: Vec<u64>) -> Self {
        Self {
            budgets: budgets.into_iter().map(|b| b.max(1)).collect(),
        }
    }

    /// The budget of one node slot.
    pub fn budget(&self, node: usize) -> u64 {
        self.budgets.get(node).copied().unwrap_or(u64::MAX)
    }

    /// All budgets, indexed by node slot.
    pub fn budgets(&self) -> &[u64] {
        &self.budgets
    }

    /// Number of node slots covered.
    pub fn len(&self) -> usize {
        self.budgets.len()
    }

    /// Whether the plan covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.budgets.is_empty()
    }

    /// Mean per-node budget.
    pub fn mean(&self) -> f64 {
        if self.budgets.is_empty() {
            return 0.0;
        }
        self.budgets.iter().map(|&b| b as f64).sum::<f64>() / self.budgets.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{domain, sub_rng};

    #[test]
    fn scripts_normalize_independent_of_insertion_order() {
        let mut a = EventScript::new();
        a.join(5, 2);
        a.leave(3, 7);
        a.leave(5, 1);
        let mut b = EventScript::new();
        b.leave(5, 1);
        b.leave(3, 7);
        b.join(5, 2);
        assert_eq!(a.sorted_events(), b.sorted_events());
        let sorted = a.sorted_events();
        assert_eq!(sorted[0].step, 3);
        assert_eq!(sorted[1].node, 1);
        assert_eq!(a.len(), 3);
        assert_eq!(a.max_step(), 5);
        assert!(!a.is_empty());
    }

    #[test]
    fn leaves_sort_before_joins_of_the_same_node_and_step() {
        let mut s = EventScript::new();
        s.join(4, 9);
        s.leave(4, 9);
        let sorted = s.sorted_events();
        assert_eq!(sorted[0].kind, ScriptEventKind::Leave);
        assert_eq!(sorted[1].kind, ScriptEventKind::Join);
    }

    #[test]
    fn duplicate_events_deduplicate() {
        let mut s = EventScript::new();
        s.leave(2, 3);
        s.leave(2, 3);
        assert_eq!(s.sorted_events().len(), 1);
    }

    #[test]
    fn mass_operations_and_merge() {
        let mut outage = EventScript::new();
        outage.mass_leave(10, [1, 2, 3]);
        let mut crowd = EventScript::new();
        crowd.mass_join(20, [4, 5]);
        outage.merge(&crowd);
        assert_eq!(outage.len(), 5);
        assert_eq!(outage.max_step(), 20);
        assert_eq!(
            outage
                .sorted_events()
                .iter()
                .filter(|e| e.kind == ScriptEventKind::Join)
                .count(),
            2
        );
    }

    #[test]
    fn empty_script() {
        let s = EventScript::new();
        assert!(s.is_empty());
        assert_eq!(s.max_step(), 0);
        assert!(s.sorted_events().is_empty());
        assert!(s.events().is_empty());
    }

    #[test]
    fn two_tier_capacities_are_deterministic_and_clamped() {
        let plan = |seed: u64| {
            let mut rng = sub_rng(seed, domain::SCENARIO);
            CapacityPlan::two_tier(500, 0.3, 0, 64, &mut rng)
        };
        let a = plan(7);
        assert_eq!(a, plan(7));
        assert_ne!(a, plan(8));
        assert_eq!(a.len(), 500);
        // Zero budgets clamp to 1; both tiers appear at this fraction.
        assert!(a.budgets().iter().all(|&b| b == 1 || b == 64));
        assert!(a.budgets().contains(&1));
        assert!(a.budgets().contains(&64));
        assert!(a.mean() > 1.0 && a.mean() < 64.0);
    }

    #[test]
    fn capacity_plan_accessors() {
        let plan = CapacityPlan::uniform(4, 8);
        assert_eq!(plan.budgets(), &[8, 8, 8, 8]);
        assert_eq!(plan.budget(2), 8);
        // Out-of-range slots are unconstrained rather than dead.
        assert_eq!(plan.budget(99), u64::MAX);
        assert!(!plan.is_empty());
        assert_eq!(plan.mean(), 8.0);

        let explicit = CapacityPlan::from_budgets(vec![0, 5]);
        assert_eq!(explicit.budgets(), &[1, 5]);
        assert_eq!(CapacityPlan::uniform(0, 3).mean(), 0.0);
    }
}
