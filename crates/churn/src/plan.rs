//! Deterministic join/leave event plans.

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

use fairswap_kademlia::NodeId;

use crate::config::{ChurnConfig, ChurnError};

/// What happened to a node at some step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnEventKind {
    /// The node (re)joins the overlay.
    Join,
    /// The node leaves the overlay.
    Leave,
}

/// One membership change, scheduled against a simulation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// Step (1-based, matching the harness' timestep counter) at which the
    /// event fires, before that step's downloads.
    pub step: u64,
    /// The affected node.
    pub node: NodeId,
    /// Join or leave.
    pub kind: ChurnEventKind,
}

/// A complete, replayable schedule of membership changes.
///
/// Generation simulates each node's alternating session/downtime renewal
/// process, then sweeps the merged event stream once to enforce
/// consistency (a node leaves only while live, joins only while down) and
/// the configured live floor. The result is a plan that depends only on
/// `(nodes, steps, config, seed)` — replaying it is bit-identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnPlan {
    nodes: usize,
    steps: u64,
    events: Vec<ChurnEvent>,
    /// `offsets[step]` = index of the first event at `step` (len `steps+2`
    /// so `events_at` is a plain slice).
    offsets: Vec<usize>,
    joins: usize,
    leaves: usize,
    final_live: usize,
}

impl ChurnPlan {
    /// Generates the plan for `nodes` nodes over `steps` steps.
    ///
    /// All nodes start live; each then follows its own renewal process of
    /// `session` up-time followed by `downtime` down-time (both in steps,
    /// rounded up so every phase lasts at least one step).
    ///
    /// # Errors
    ///
    /// * [`ChurnError::EmptyPlan`] for fewer than two nodes (the sweep's
    ///   structural floor) or zero steps.
    /// * Parameter errors from [`ChurnConfig::validate`].
    pub fn generate(
        nodes: usize,
        steps: u64,
        config: &ChurnConfig,
        seed: u64,
    ) -> Result<Self, ChurnError> {
        if nodes < 2 || steps == 0 {
            return Err(ChurnError::EmptyPlan);
        }
        config.validate()?;

        // 1. Raw per-node renewal events.
        let mut raw: Vec<ChurnEvent> = Vec::new();
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        for node in 0..nodes {
            // Clock in steps. Every phase lasts >= 1 step, so the first
            // event lands at step >= 1 regardless of `start_step`.
            let mut at = 0u64;
            let mut live = true;
            loop {
                let phase = if live {
                    config.session.sample(&mut rng)
                } else {
                    config.downtime.sample(&mut rng)
                };
                // Every phase lasts at least one whole step.
                let duration = (phase.ceil() as u64).max(1);
                at = at.saturating_add(duration);
                let step = at.max(config.start_step);
                if step > steps {
                    break;
                }
                live = !live;
                raw.push(ChurnEvent {
                    step,
                    node: NodeId(node),
                    kind: if live {
                        ChurnEventKind::Join
                    } else {
                        ChurnEventKind::Leave
                    },
                });
            }
        }

        // 2. Deterministic order: by step, then node, leaves before joins
        //    (a node departing and another arriving in the same step are
        //    independent; within one node the renewal process already
        //    alternates).
        raw.sort_unstable_by_key(replay_order);

        // 3. Consistency + floor sweep.
        let floor = ((nodes as f64 * config.min_live_fraction).ceil() as usize).clamp(2, nodes);
        Ok(Self::swept(nodes, steps, raw, vec![true; nodes], floor))
    }

    /// Composes a base event stream and a scripted one into a replayable
    /// plan: background statistical churn (usually the events of a
    /// [`ChurnPlan::generate`]d plan, or none) plus scripted shocks such as
    /// flash crowds and regional outages.
    ///
    /// `initially_live[i]` says whether node slot `i` is part of the overlay
    /// before step 1 (scenarios such as flash crowds hold a cohort offline
    /// until their scripted join). Initially-offline nodes belong to the
    /// script until it first touches them: base events of such a node
    /// before its first scripted event are dropped. Script events outside
    /// `1..=steps` are dropped too. The merged stream replays in
    /// `(step, node, leaves-before-joins)` order, whichever source an event
    /// came from and in whatever order the script lists it. It is then
    /// swept the same way [`ChurnPlan::generate`] sweeps its renewal
    /// events: a node leaves only while live, joins only while down (so a
    /// duplicate leave or join is dropped), and leaves that would drop the live population below the
    /// structural floor of 2 are suppressed. Scripted shocks are allowed to
    /// cut far deeper than statistical churn, so no fractional floor
    /// applies here.
    ///
    /// # Errors
    ///
    /// * [`ChurnError::EmptyPlan`] for fewer than two nodes (the sweep's
    ///   structural floor) or zero steps.
    /// * [`ChurnError::InvalidInitialLive`] if `initially_live` does not
    ///   cover exactly `nodes` slots.
    /// * [`ChurnError::NodeOutOfRange`] if the script references a node
    ///   outside `0..nodes`.
    pub fn compose(
        nodes: usize,
        steps: u64,
        base: &[ChurnEvent],
        script: &[ChurnEvent],
        initially_live: &[bool],
    ) -> Result<Self, ChurnError> {
        if nodes < 2 || steps == 0 {
            return Err(ChurnError::EmptyPlan);
        }
        if initially_live.len() != nodes {
            return Err(ChurnError::InvalidInitialLive {
                expected: nodes,
                got: initially_live.len(),
            });
        }
        // Initially-offline nodes belong to the script until it first
        // touches them (at any step, in the horizon or not): base events
        // generated under the all-live assumption must not trickle a
        // held-back cohort in early, or resurrect nodes the script never
        // schedules.
        let mut first_scripted = vec![u64::MAX; nodes];
        for event in script {
            let node = event.node.index();
            if node >= nodes {
                return Err(ChurnError::NodeOutOfRange { node, nodes });
            }
            first_scripted[node] = first_scripted[node].min(event.step);
        }
        let mut raw: Vec<ChurnEvent> = base
            .iter()
            .filter(|e| initially_live[e.node.index()] || e.step >= first_scripted[e.node.index()])
            .chain(script.iter().filter(|e| (1..=steps).contains(&e.step)))
            .copied()
            .collect();
        raw.sort_unstable_by_key(replay_order);
        Ok(Self::swept(nodes, steps, raw, initially_live.to_vec(), 2))
    }

    /// The one consistency sweep behind [`ChurnPlan::generate`] and
    /// [`ChurnPlan::compose`]: replays `raw` (in replay order) from `live`,
    /// keeping a leave only while its node is live and the live count is
    /// above `floor`, and a join only while its node is down.
    fn swept(
        nodes: usize,
        steps: u64,
        raw: Vec<ChurnEvent>,
        mut live: Vec<bool>,
        floor: usize,
    ) -> Self {
        let mut live_count = live.iter().filter(|&&l| l).count();
        let mut events = Vec::with_capacity(raw.len());
        let (mut joins, mut leaves) = (0usize, 0usize);
        for event in raw {
            let idx = event.node.index();
            match event.kind {
                ChurnEventKind::Leave => {
                    if !live[idx] || live_count <= floor {
                        continue;
                    }
                    live[idx] = false;
                    live_count -= 1;
                    leaves += 1;
                }
                ChurnEventKind::Join => {
                    if live[idx] {
                        continue;
                    }
                    live[idx] = true;
                    live_count += 1;
                    joins += 1;
                }
            }
            events.push(event);
        }
        let offsets = step_offsets(&events, steps);
        Self {
            nodes,
            steps,
            events,
            offsets,
            joins,
            leaves,
            final_live: live_count,
        }
    }

    /// Number of node slots the plan was generated for.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of steps the plan covers.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// All events, ordered by `(step, node)`.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// The events firing at `step` (1-based), in deterministic order.
    pub fn events_at(&self, step: u64) -> &[ChurnEvent] {
        if step as usize + 1 >= self.offsets.len() {
            return &[];
        }
        &self.events[self.offsets[step as usize]..self.offsets[step as usize + 1]]
    }

    /// Total join events.
    pub fn join_count(&self) -> usize {
        self.joins
    }

    /// Total leave events.
    pub fn leave_count(&self) -> usize {
        self.leaves
    }

    /// Live nodes after the final step.
    pub fn final_live_count(&self) -> usize {
        self.final_live
    }
}

/// The replay order of a plan's events: by step, then node, leaves before
/// joins. Events with equal keys are equal, so the order is total.
fn replay_order(e: &ChurnEvent) -> (u64, NodeId, bool) {
    (e.step, e.node, matches!(e.kind, ChurnEventKind::Join))
}

/// `offsets[step]` = index of the first event at `step` (len `steps + 2` so
/// per-step lookup is a plain slice).
fn step_offsets(events: &[ChurnEvent], steps: u64) -> Vec<usize> {
    let mut offsets = vec![0usize; steps as usize + 2];
    for event in events {
        offsets[event.step as usize + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(rate: f64) -> ChurnConfig {
        ChurnConfig::from_rate(rate).unwrap()
    }

    #[test]
    fn same_inputs_same_plan() {
        let a = ChurnPlan::generate(80, 400, &config(0.05), 9).unwrap();
        let b = ChurnPlan::generate(80, 400, &config(0.05), 9).unwrap();
        assert_eq!(a, b);
        let c = ChurnPlan::generate(80, 400, &config(0.05), 10).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn replay_is_consistent_and_respects_floor() {
        let cfg = config(0.2).with_min_live_fraction(0.5);
        let plan = ChurnPlan::generate(60, 600, &cfg, 3).unwrap();
        let floor = 30;
        let mut live = [true; 60];
        let mut live_count = 60usize;
        for step in 1..=600u64 {
            for event in plan.events_at(step) {
                assert_eq!(event.step, step);
                match event.kind {
                    ChurnEventKind::Leave => {
                        assert!(live[event.node.index()], "leave of down node");
                        live[event.node.index()] = false;
                        live_count -= 1;
                    }
                    ChurnEventKind::Join => {
                        assert!(!live[event.node.index()], "join of live node");
                        live[event.node.index()] = true;
                        live_count += 1;
                    }
                }
                assert!(live_count >= floor, "floor violated at step {step}");
            }
        }
        assert_eq!(live_count, plan.final_live_count());
        assert_eq!(plan.events().len(), plan.join_count() + plan.leave_count());
    }

    #[test]
    fn higher_rates_churn_more() {
        let slow = ChurnPlan::generate(100, 300, &config(0.01), 7).unwrap();
        let fast = ChurnPlan::generate(100, 300, &config(0.2), 7).unwrap();
        assert!(fast.leave_count() > slow.leave_count());
    }

    #[test]
    fn start_step_delays_churn() {
        let cfg = config(0.3).with_start_step(200);
        let plan = ChurnPlan::generate(50, 400, &cfg, 1).unwrap();
        assert!(plan.events().iter().all(|e| e.step >= 200));
        assert!(!plan.events().is_empty());
    }

    #[test]
    fn start_step_zero_equals_churn_from_the_start() {
        // Phases last >= 1 step, so "churn from step 0" and the default
        // "churn from step 1" describe the same plan.
        let from_zero = config(0.2).with_start_step(0);
        let from_one = config(0.2).with_start_step(1);
        assert_eq!(
            ChurnPlan::generate(40, 200, &from_zero, 9)
                .unwrap()
                .events(),
            ChurnPlan::generate(40, 200, &from_one, 9).unwrap().events(),
        );
    }

    #[test]
    fn events_beyond_horizon_are_empty() {
        let plan = ChurnPlan::generate(20, 50, &config(0.1), 5).unwrap();
        assert!(plan.events_at(51).is_empty());
        assert!(plan.events_at(10_000).is_empty());
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert_eq!(
            ChurnPlan::generate(0, 10, &config(0.1), 1).unwrap_err(),
            ChurnError::EmptyPlan
        );
        assert_eq!(
            ChurnPlan::generate(10, 0, &config(0.1), 1).unwrap_err(),
            ChurnError::EmptyPlan
        );
        assert_eq!(
            ChurnPlan::generate(1, 10, &config(0.5), 1).unwrap_err(),
            ChurnError::EmptyPlan
        );
    }

    fn replay_counts(plan: &ChurnPlan, initially_live: &[bool]) -> (usize, usize, usize) {
        let mut live = initially_live.to_vec();
        let (mut joins, mut leaves) = (0usize, 0usize);
        for step in 1..=plan.steps() {
            for event in plan.events_at(step) {
                match event.kind {
                    ChurnEventKind::Leave => {
                        assert!(live[event.node.index()], "leave of down node");
                        live[event.node.index()] = false;
                        leaves += 1;
                    }
                    ChurnEventKind::Join => {
                        assert!(!live[event.node.index()], "join of live node");
                        live[event.node.index()] = true;
                        joins += 1;
                    }
                }
            }
        }
        (joins, leaves, live.iter().filter(|&&l| l).count())
    }

    fn at(
        step: u64,
        nodes: impl IntoIterator<Item = usize>,
        kind: ChurnEventKind,
    ) -> Vec<ChurnEvent> {
        nodes
            .into_iter()
            .map(|node| ChurnEvent {
                step,
                node: NodeId(node),
                kind,
            })
            .collect()
    }

    fn leaves(step: u64, nodes: impl IntoIterator<Item = usize>) -> Vec<ChurnEvent> {
        at(step, nodes, ChurnEventKind::Leave)
    }

    fn joins(step: u64, nodes: impl IntoIterator<Item = usize>) -> Vec<ChurnEvent> {
        at(step, nodes, ChurnEventKind::Join)
    }

    #[test]
    fn script_composes_onto_a_base_plan_consistently() {
        let base = ChurnPlan::generate(60, 300, &config(0.05), 5).unwrap();
        let script = [leaves(150, 0..10), joins(200, 0..10)].concat();
        let composed = ChurnPlan::compose(60, 300, base.events(), &script, &[true; 60]).unwrap();
        assert_eq!(composed.nodes(), 60);
        assert_eq!(composed.steps(), 300);
        // The composed plan replays consistently from the initial state...
        let (joins, leaves, final_live) = replay_counts(&composed, &[true; 60]);
        assert_eq!(joins, composed.join_count());
        assert_eq!(leaves, composed.leave_count());
        assert_eq!(final_live, composed.final_live_count());
        // ...and the scripted shock is present: some of the cohort was live
        // at step 150 and departs there (the sweep may in turn drop base
        // events invalidated by the shock, so total counts are not simply
        // additive).
        assert!(composed
            .events_at(150)
            .iter()
            .any(|e| e.kind == ChurnEventKind::Leave && e.node.index() < 10));
        assert_ne!(composed, base);
        // Deterministic: same inputs, same plan.
        assert_eq!(
            composed,
            ChurnPlan::compose(60, 300, base.events(), &script, &[true; 60]).unwrap()
        );
        // An empty script over a generated plan's events replays that plan.
        assert_eq!(
            ChurnPlan::compose(60, 300, base.events(), &[], &[true; 60]).unwrap(),
            base
        );
    }

    #[test]
    fn script_only_plans_support_initially_offline_cohorts() {
        let mut initially_live = vec![true; 40];
        for slot in initially_live.iter_mut().take(8) {
            *slot = false;
        }
        let plan = ChurnPlan::compose(40, 100, &[], &joins(20, 0..8), &initially_live).unwrap();
        assert_eq!(plan.join_count(), 8);
        assert_eq!(plan.leave_count(), 0);
        assert_eq!(plan.final_live_count(), 40);
        // Joins of already-live nodes are swept out.
        let noop = ChurnPlan::compose(40, 100, &[], &joins(20, 10..15), &initially_live).unwrap();
        assert_eq!(noop.join_count(), 0);
    }

    #[test]
    fn held_back_nodes_ignore_base_events_until_their_first_scripted_one() {
        let mut initially_live = vec![true; 10];
        initially_live[0] = false;
        initially_live[1] = false;
        // Node 0 is scripted in at step 5; node 1 never is. Node 2 is live
        // from the start, so its base events all stand.
        let base = [joins(2, [0, 1]), leaves(3, [2]), leaves(7, [0, 1])].concat();
        // A past-horizon script event still counts as the first touch.
        let script = [joins(5, [0]), joins(99, [1])].concat();
        let plan = ChurnPlan::compose(10, 20, &base, &script, &initially_live).unwrap();
        assert_eq!(
            plan.events(),
            [leaves(3, [2]), joins(5, [0]), leaves(7, [0])].concat()
        );
    }

    #[test]
    fn scripts_normalize_independent_of_insertion_order() {
        let a = [joins(5, [2]), leaves(3, [7]), leaves(5, [1])].concat();
        let b = [leaves(5, [1]), leaves(3, [7]), joins(5, [2])].concat();
        let mut initially_live = vec![true; 8];
        initially_live[2] = false;
        let plan = |script: &[ChurnEvent]| {
            ChurnPlan::compose(8, 10, &[], script, &initially_live).unwrap()
        };
        assert_eq!(plan(&a), plan(&b));
        assert_eq!(
            plan(&a).events(),
            [leaves(3, [7]), leaves(5, [1]), joins(5, [2])].concat()
        );
    }

    #[test]
    fn leaves_sort_before_joins_of_the_same_node_and_step() {
        // Listed join-first, the pair still replays as a leave then a
        // rejoin of the live node.
        let script = [joins(4, [1]), leaves(4, [1])].concat();
        let plan = ChurnPlan::compose(5, 10, &[], &script, &[true; 5]).unwrap();
        assert_eq!(plan.events(), [leaves(4, [1]), joins(4, [1])].concat());
    }

    #[test]
    fn duplicate_events_deduplicate() {
        // Two leaves of one node in one step: the sweep drops the second,
        // since its node is already offline, whichever stream each came
        // from.
        let plan = ChurnPlan::compose(5, 10, &leaves(2, [3]), &leaves(2, [3]), &[true; 5]).unwrap();
        assert_eq!(plan.events(), leaves(2, [3]));
    }

    #[test]
    fn mass_operations_and_merge() {
        let outage = leaves(10, [1, 2, 3]);
        let crowd = joins(20, [4, 5]);
        let mut initially_live = vec![true; 8];
        initially_live[4] = false;
        initially_live[5] = false;
        let plan = ChurnPlan::compose(8, 30, &outage, &crowd, &initially_live).unwrap();
        assert_eq!(plan.events(), [outage, crowd].concat());
        assert_eq!((plan.leave_count(), plan.join_count()), (3, 2));
        assert_eq!(plan.final_live_count(), 5);
    }

    #[test]
    fn empty_script() {
        let plan =
            ChurnPlan::compose(6, 10, &[], &[], &[true, false, true, true, false, true]).unwrap();
        assert!(plan.events().is_empty());
        assert_eq!(plan.final_live_count(), 4);
        assert!(plan.events_at(1).is_empty());
    }

    #[test]
    fn composed_sweep_enforces_the_structural_floor() {
        let plan = ChurnPlan::compose(30, 50, &[], &leaves(5, 0..30), &[true; 30]).unwrap();
        // Leaves stop once only two nodes remain.
        assert_eq!(plan.leave_count(), 28);
        assert_eq!(plan.final_live_count(), 2);
    }

    #[test]
    fn composed_rejects_bad_inputs() {
        assert_eq!(
            ChurnPlan::compose(0, 10, &[], &[], &[]).unwrap_err(),
            ChurnError::EmptyPlan
        );
        assert!(matches!(
            ChurnPlan::compose(10, 10, &[], &[], &[true; 4]).unwrap_err(),
            ChurnError::InvalidInitialLive {
                expected: 10,
                got: 4
            }
        ));
        assert!(matches!(
            ChurnPlan::compose(10, 10, &[], &leaves(1, [99]), &[true; 10]).unwrap_err(),
            ChurnError::NodeOutOfRange {
                node: 99,
                nodes: 10
            }
        ));
    }

    #[test]
    fn scripted_events_outside_the_horizon_are_dropped() {
        let script = [leaves(0, [1]), leaves(999, [2]), leaves(10, [3])].concat();
        let plan = ChurnPlan::compose(20, 50, &[], &script, &[true; 20]).unwrap();
        assert_eq!(plan.leave_count(), 1);
        assert_eq!(plan.events()[0].node, NodeId(3));
    }

    #[test]
    fn weibull_sessions_generate_plans_too() {
        let cfg = ChurnConfig::from_rate(0.1)
            .unwrap()
            .with_session(crate::LifetimeDist::Weibull {
                shape: 0.6,
                scale: 8.0,
            });
        let plan = ChurnPlan::generate(40, 200, &cfg, 11).unwrap();
        assert!(plan.leave_count() > 0);
        assert_eq!(plan, ChurnPlan::generate(40, 200, &cfg, 11).unwrap());
    }
}
