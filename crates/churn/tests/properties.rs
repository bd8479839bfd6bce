//! Property tests for the one consistency sweep behind
//! [`ChurnPlan::generate`] and [`ChurnPlan::compose`]: whatever the
//! lifetimes, floor, start step, script or initial membership, a plan
//! replays without a leave of an offline node or a join of a live one,
//! never cuts below its floor, counts what it holds, and lists its events
//! in replay order. Below two nodes both refuse with `EmptyPlan`.

use fairswap_churn::{
    ChurnConfig, ChurnError, ChurnEvent, ChurnEventKind, ChurnPlan, LifetimeDist,
};
use fairswap_kademlia::NodeId;
use proptest::prelude::*;

/// Exponential, Weibull or constant lifetimes, from well under one step
/// (every phase still lasts a whole step) to a few dozen.
fn lifetime() -> impl Strategy<Value = LifetimeDist> {
    (0u8..3, 0.2f64..40.0, 0.3f64..3.0).prop_map(|(kind, scale, shape)| match kind {
        0 => LifetimeDist::Exponential { mean: scale },
        1 => LifetimeDist::Weibull { shape, scale },
        _ => LifetimeDist::Constant { steps: scale },
    })
}

/// A rate-shaped config, half the time with other lifetimes. Start steps
/// reach past short horizons, so clamping collapses whole runs of early
/// renewals onto one step.
fn config() -> impl Strategy<Value = ChurnConfig> {
    (
        0.02f64..=1.0,
        any::<bool>(),
        lifetime(),
        lifetime(),
        0.01f64..=1.0,
        0u64..150,
    )
        .prop_map(|(rate, custom, session, downtime, floor, start)| {
            let config = ChurnConfig::from_rate(rate)
                .unwrap()
                .with_min_live_fraction(floor)
                .with_start_step(start);
            if custom {
                config.with_session(session).with_downtime(downtime)
            } else {
                config
            }
        })
}

fn replay_key(e: &ChurnEvent) -> (u64, NodeId, bool) {
    (e.step, e.node, e.kind == ChurnEventKind::Join)
}

/// Replays `plan` from `initially_live`, checking every invariant of the
/// sweep's output.
fn assert_replays(plan: &ChurnPlan, initially_live: &[bool], floor: usize) {
    let events = plan.events();
    assert_eq!(plan.join_count() + plan.leave_count(), events.len());
    assert!(
        events
            .windows(2)
            .all(|w| replay_key(&w[0]) < replay_key(&w[1])),
        "events out of (step, node, leave-before-join) order"
    );
    let by_step: Vec<ChurnEvent> = (0..=plan.steps() + 1)
        .flat_map(|step| plan.events_at(step).iter().copied())
        .collect();
    assert_eq!(by_step, events, "events_at partitions events by step");

    let mut live = initially_live.to_vec();
    let mut live_count = live.iter().filter(|&&l| l).count();
    let mut leaves = 0;
    for event in events {
        assert!((1..=plan.steps()).contains(&event.step), "{event:?}");
        let slot = &mut live[event.node.index()];
        match event.kind {
            ChurnEventKind::Leave => {
                assert!(*slot, "leave of an offline node: {event:?}");
                assert!(live_count > floor, "leave below the floor: {event:?}");
                live_count -= 1;
                leaves += 1;
            }
            ChurnEventKind::Join => {
                assert!(!*slot, "join of a live node: {event:?}");
                live_count += 1;
            }
        }
        *slot = !*slot;
    }
    assert_eq!(leaves, plan.leave_count());
    assert_eq!(live_count, plan.final_live_count());
}

proptest! {
    #[test]
    fn generated_plans_replay_consistently(
        nodes in 0usize..48,
        steps in 1u64..160,
        config in config(),
        seed in any::<u64>(),
    ) {
        if nodes < 2 {
            assert_eq!(
                ChurnPlan::generate(nodes, steps, &config, seed).unwrap_err(),
                ChurnError::EmptyPlan
            );
            return Ok(());
        }
        let plan = ChurnPlan::generate(nodes, steps, &config, seed).unwrap();
        let floor = ((nodes as f64 * config.min_live_fraction).ceil() as usize).clamp(2, nodes);
        assert_replays(&plan, &vec![true; nodes], floor);
    }

    #[test]
    fn composed_plans_replay_consistently(
        nodes in 0usize..48,
        steps in 1u64..160,
        config in config(),
        seed in any::<u64>(),
        with_base in any::<bool>(),
        script in prop::collection::vec((0u64..200, 0usize..64, any::<bool>()), 0..48),
        live in prop::collection::vec(any::<bool>(), 48),
    ) {
        if nodes < 2 {
            assert_eq!(
                ChurnPlan::compose(nodes, steps, &[], &[], &live[..nodes]).unwrap_err(),
                ChurnError::EmptyPlan
            );
            return Ok(());
        }
        // Script steps start at 0 and reach past the horizon; node slots
        // wrap into range.
        let script: Vec<ChurnEvent> = script
            .into_iter()
            .map(|(step, node, join)| ChurnEvent {
                step,
                node: NodeId(node % nodes),
                kind: if join { ChurnEventKind::Join } else { ChurnEventKind::Leave },
            })
            .collect();
        let initially_live = &live[..nodes];
        let base = ChurnPlan::generate(nodes, steps, &config, seed).unwrap();
        let base = if with_base { base.events() } else { &[] };
        let plan = ChurnPlan::compose(nodes, steps, base, &script, initially_live).unwrap();
        assert_replays(&plan, initially_live, 2);
        // A held-back node stays out until the script first touches it.
        for event in plan.events() {
            if !initially_live[event.node.index()] {
                assert!(
                    script.iter().any(|s| s.node == event.node && s.step <= event.step),
                    "held-back node moved before its script: {event:?}"
                );
            }
        }
    }
}
