//! A traced replay of `BandwidthSim::run` through the public functions of
//! each crate.
//!
//! The replay rebuilds the engine's step order from public calls only —
//! `TopologyBuilder::build`, `Topology::{remove_node,add_node}`,
//! `DownloadSim::{download_file_with,run_repairs,drain_retries}`,
//! `BandwidthIncentive::{on_delivery,on_tick}`,
//! `RewardState::settle_departed`, `gini` — and records a span around
//! each call. It covers the engine's Swarm runs without scripted
//! scenarios, which is every batch workload. Its [`Fidelity`] counts must
//! equal the engine's report for the same spec, so the replay cannot
//! drift from the real model unnoticed.

use std::time::Instant;

use fairswap_churn::{ChurnEventKind, ChurnPlan};
use fairswap_core::{MechanismKind, SimReport, SimSpec};
use fairswap_fairness::gini;
use fairswap_incentives::{BandwidthIncentive, FreeRiderSet, RewardState, SwarmIncentive};
use fairswap_kademlia::{AddressSpace, HopHistogram, NodeId, TopologyBuilder, TopologyMetrics};
use fairswap_simcore::rng::{domain, sub_rng, sub_seed};
use fairswap_storage::{ChunkDelivery, DownloadSim};
use fairswap_workload::WorkloadBuilder;

use crate::trace::Tracer;

/// The deterministic outputs the replay must reproduce bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Fidelity {
    pub requests: u64,
    pub stuck: u64,
    pub hops: HopHistogram,
    pub leaves: u64,
    pub joins: u64,
    pub repair_transfers: u64,
    pub settlements: u64,
    pub f2_gini_bits: u64,
}

impl Fidelity {
    /// The same counts, read from the engine's report.
    pub fn of_report(report: &SimReport) -> Self {
        let traffic = report.traffic();
        let churn = report.churn();
        Self {
            requests: traffic.requests_issued().iter().sum(),
            stuck: traffic.stuck_requests(),
            hops: report.hops().clone(),
            leaves: churn.map_or(0, |c| c.leaves),
            joins: churn.map_or(0, |c| c.joins),
            repair_transfers: traffic.repair_transfers(),
            settlements: report.settlement_count() as u64,
            f2_gini_bits: report.f2_income_gini().to_bits(),
        }
    }
}

/// Work counted at the layer boundaries, summed over replays.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub requests: u64,
    pub stuck: u64,
    pub delivered_hops: u64,
    pub delivered_routes: u64,
    pub deliveries: u64,
    pub churn_events: u64,
    pub leaves: u64,
    pub joins: u64,
    pub retried: u64,
    pub recovered: u64,
    pub repair_transfers: u64,
    pub repair_delivered: u64,
    pub settlements: u64,
}

/// Per-chunk callback timing: the callbacks of one routing call are
/// recorded as one span whose length is their summed time.
#[derive(Default)]
struct CallbackClock {
    first: Option<Instant>,
    nanos: u64,
    calls: u64,
}

impl CallbackClock {
    fn add(&mut self, start: Instant) {
        self.first.get_or_insert(start);
        self.nanos += start.elapsed().as_nanos() as u64;
        self.calls += 1;
    }

    fn record(self, tracer: &mut Tracer, id: u64, counts: &mut Counts) {
        if let Some(first) = self.first {
            let start = tracer.at(first);
            tracer.record("incentives.account", id, start, start + self.nanos);
        }
        counts.deliveries += self.calls;
    }
}

/// Replays one spec under the tracer and returns its deterministic
/// outputs. Span ids are step numbers; set-up spans carry id 0.
pub fn replay(
    spec: &SimSpec,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Result<Fidelity, String> {
    let config = spec.to_config();
    if config.mechanism != MechanismKind::Swarm || config.scenario.is_some() {
        return Err("the replay covers Swarm runs without scenarios".into());
    }
    spec.validate().map_err(|e| e.to_string())?;
    let space = AddressSpace::new(config.bits).map_err(|e| e.to_string())?;

    // Set-up, in the order `SimSpec::build` and `BandwidthSim::run` do it;
    // every concern draws from its own sub-seed.
    tracer.enter("core.build", 0);
    let topology = tracer.span("kademlia.build", 0, || {
        TopologyBuilder::new(space)
            .nodes(config.nodes)
            .bucket_sizing(config.bucket_sizing.clone())
            .seed(config.seed)
            .build()
    });
    let workload = WorkloadBuilder::new(space, config.nodes)
        .originator_fraction(config.originator_fraction)
        .file_size(config.file_size)
        .chunk_dist(config.chunk_dist.clone())
        .seed(sub_seed(config.seed, domain::WORKLOAD))
        .build();
    tracer.exit();
    let topology = topology.map_err(|e| e.to_string())?;
    let mut workload = workload.map_err(|e| e.to_string())?;

    let nodes = topology.len();
    let bits = topology.space().bits();
    let total = config.files;
    tracer.enter("core.build", 0);
    let mut free_rider_rng = sub_rng(config.seed, domain::FREE_RIDERS);
    let free_riders = FreeRiderSet::sample(nodes, config.free_rider_fraction, &mut free_rider_rng);
    let mut mechanism: Box<dyn BandwidthIncentive> = Box::new(
        SwarmIncentive::new()
            .with_pricing(config.pricing)
            .with_free_riders(free_riders),
    );
    let mut state = RewardState::with_tx_cost(nodes, config.channel, config.tx_cost);
    tracer.exit();
    let plan = match &config.churn {
        Some(churn) => Some(
            tracer
                .span("churn.plan", 0, || {
                    ChurnPlan::generate(nodes, total, churn, sub_seed(config.seed, domain::CHURN))
                })
                .map_err(|e| e.to_string())?,
        ),
        None => None,
    };
    counts.churn_events += plan.as_ref().map_or(0, |p| p.events().len() as u64);

    tracer.enter("core.build", 0);
    let mut download = DownloadSim::new(topology, config.cache);
    download.set_route_policy(config.route);
    if let Some(neighborhood_bits) = config.repair.neighborhood_bits() {
        download.enable_durability(neighborhood_bits);
    }
    let repair_active = config.repair.repairs();
    let retry_active = config.max_retries > 0;
    if retry_active {
        download.set_retry_policy(config.max_retries, config.retry_backoff);
    }
    tracer.exit();

    let timeline_stride = (total / 32).max(1);
    let mut income_buf: Vec<f64> = Vec::new();
    let mut flips: Vec<(NodeId, bool)> = Vec::new();
    let mut hops = HopHistogram::new();
    // Not compared: kept so the replay does the engine's per-delivery work.
    let mut first_hop_buckets = vec![0u64; bits as usize + 1];
    let (mut leaves, mut joins) = (0u64, 0u64);

    for step in 1..=total {
        // 1. Membership events scheduled for this step.
        if let Some(plan) = &plan {
            flips.clear();
            for event in plan.events_at(step) {
                match event.kind {
                    ChurnEventKind::Leave => {
                        if !download.topology().is_live(event.node)
                            || download.topology().live_count() <= 2
                        {
                            continue;
                        }
                        tracer
                            .span("kademlia.leave", step, || {
                                download.topology_mut().remove_node(event.node)
                            })
                            .map_err(|e| e.to_string())?;
                        tracer.span("storage.on_leave", step, || {
                            download.on_node_leave(event.node)
                        });
                        tracer.span("swap.departure_settle", step, || {
                            state.settle_departed(event.node)
                        });
                        leaves += 1;
                        tracer.span("storage.on_leave", step, || {
                            download.note_departure(event.node, step)
                        });
                        flips.push((event.node, false));
                    }
                    ChurnEventKind::Join => {
                        if download.topology().is_live(event.node) {
                            continue;
                        }
                        tracer
                            .span("kademlia.join", step, || {
                                download.topology_mut().add_node(event.node)
                            })
                            .map_err(|e| e.to_string())?;
                        joins += 1;
                        flips.push((event.node, true));
                    }
                }
            }
            if !flips.is_empty() {
                let topology = download.topology_rc();
                tracer.span("workload.apply_membership", step, || {
                    workload.apply_membership(&flips, |node| topology.is_live(node))
                });
            }
        }

        // 2. Due repair uploads, paid like any other route.
        if repair_active {
            let topology = download.topology_rc();
            let mut clock = CallbackClock::default();
            tracer.enter("storage.repair", step);
            download.run_repairs(config.repair_source, |delivery| {
                let start = Instant::now();
                mechanism.on_delivery(&topology, delivery, &mut state);
                clock.add(start);
            });
            clock.record(tracer, step, counts);
            tracer.exit();
        }
        // 3. Due retries, accounted like first-attempt traffic.
        if retry_active {
            let topology = download.topology_rc();
            let mut clock = CallbackClock::default();
            tracer.enter("storage.retry", step);
            download.drain_retries(|delivery| {
                let start = Instant::now();
                record_route(&topology, delivery, &mut hops, &mut first_hop_buckets);
                mechanism.on_delivery(&topology, delivery, &mut state);
                clock.add(start);
            });
            clock.record(tracer, step, counts);
            tracer.exit();
        }

        // 4. One file download and the amortization tick.
        let file = tracer.span("workload.next_download", step, || workload.next_download());
        let topology = download.topology_rc();
        let mut clock = CallbackClock::default();
        tracer.enter("storage.route", step);
        download.download_file_with(file.originator, &file.chunks, |delivery| {
            let start = Instant::now();
            record_route(&topology, delivery, &mut hops, &mut first_hop_buckets);
            mechanism.on_delivery(&topology, delivery, &mut state);
            clock.add(start);
        });
        clock.record(tracer, step, counts);
        tracer.exit();
        tracer.span("swap.tick", step, || {
            mechanism.on_tick(&topology, &mut state)
        });
        drop(topology);

        // 5. The fairness-over-time sample of churned runs.
        if plan.is_some() && (step % timeline_stride == 0 || step == total) {
            tracer.span("fairness.gini", step, || {
                state.incomes_f64_into(&mut income_buf);
                gini(&income_buf).unwrap_or(0.0)
            });
        }
        download.advance_step();
    }

    // The report's own pass over the final state.
    tracer.enter("core.report", total);
    download.finalize_durability(total);
    std::hint::black_box(TopologyMetrics::compute(download.topology()));
    std::hint::black_box(&first_hop_buckets);
    let f2 = tracer.span("fairness.gini", total, || {
        gini(&state.incomes_f64()).unwrap_or(0.0)
    });
    tracer.exit();

    let stats = download.stats();
    let fidelity = Fidelity {
        requests: stats.requests_issued().iter().sum(),
        stuck: stats.stuck_requests(),
        hops,
        leaves,
        joins,
        repair_transfers: stats.repair_transfers(),
        settlements: state.swap().ledger().transaction_count() as u64,
        f2_gini_bits: f2.to_bits(),
    };
    counts.requests += fidelity.requests;
    counts.stuck += fidelity.stuck;
    counts.delivered_routes += fidelity.hops.total_routes();
    counts.delivered_hops += fidelity.hops.iter().map(|(h, n)| h as u64 * n).sum::<u64>();
    counts.leaves += leaves;
    counts.joins += joins;
    counts.retried += stats.retried();
    counts.recovered += stats.recovered();
    counts.repair_transfers += stats.repair_transfers();
    counts.repair_delivered += stats.repair_delivered();
    counts.settlements += fidelity.settlements;
    Ok(fidelity)
}

/// The engine's per-delivery bookkeeping: the hop histogram and the
/// originator bucket of the paid first hop.
fn record_route(
    topology: &fairswap_kademlia::Topology,
    delivery: &ChunkDelivery,
    hops: &mut HopHistogram,
    first_hop_buckets: &mut [u64],
) {
    if delivery.delivered() {
        hops.record(delivery.hops.len());
        if let Some(first) = delivery.first_hop() {
            let bucket = topology
                .address(delivery.originator)
                .proximity(topology.address(first))
                .bucket_index();
            first_hop_buckets[bucket] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_replay_matches_engine(spec: &SimSpec) {
        let report = spec.build().unwrap().run();
        let mut tracer = Tracer::new(Instant::now());
        let mut counts = Counts::default();
        let replayed = replay(spec, &mut tracer, &mut counts).unwrap();
        assert_eq!(replayed, Fidelity::of_report(&report));
        assert!(counts.deliveries > 0);
    }

    #[test]
    fn static_replay_reproduces_the_engine() {
        let mut spec = SimSpec::paper_defaults();
        spec.topology.nodes = 120;
        spec.workload.files = 15;
        assert_replay_matches_engine(&spec);
    }

    #[test]
    fn churned_repair_replay_reproduces_the_engine() {
        let mut spec = SimSpec::paper_defaults();
        spec.topology.nodes = 150;
        spec.workload.files = 40;
        spec.dynamics.churn = Some(fairswap_core::ChurnConfig::from_rate(0.2).unwrap());
        spec.policies.repair = fairswap_core::RepairPolicy::ReReplicate {
            neighborhood_bits: 8,
        };
        spec.policies.max_retries = 2;
        assert_replay_matches_engine(&spec);
    }
}
