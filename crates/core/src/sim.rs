//! The bandwidth-incentive simulator.

use std::time::Instant;

use fairswap_churn::{ChurnEvent, ChurnEventKind, ChurnPlan};
use fairswap_fairness::gini;
use fairswap_incentives::{BandwidthIncentive, FreeRiderSet, RewardState};
use fairswap_kademlia::{HopHistogram, NodeId, Topology};
use fairswap_obs::EventKind;
use fairswap_simcore::rng::{domain, sub_rng, sub_seed};
use fairswap_storage::{ChunkDelivery, DownloadSim};
use fairswap_workload::Workload;

use crate::config::SimConfig;
use crate::obs::{EpochSnapshot, NullObserver, StepObserver};
use crate::report::{ChurnOutcome, ChurnSample, SimReport};
use crate::scenario;

/// One fully-wired simulation instance.
///
/// Each timestep downloads one file (the paper's "step"): the workload
/// draws an originator and chunk set, the storage layer routes every chunk,
/// the incentive mechanism accounts payments and debts, and SWAP
/// amortization ticks once. With a churn configuration, the step first
/// applies that step's scheduled membership events: departures leave the
/// overlay (routing tables repaired incrementally, caches dropped,
/// outstanding cheque balances settled) and arrivals rejoin at their
/// original address.
///
/// With a [`scenario`](crate::ScenarioKind), scripted shocks compose into
/// the same event stream: flash-crowd cohorts start offline and arrive en
/// masse, regional outages take out whole address prefixes, targeted
/// departures remove the top earners at runtime, and capacity
/// heterogeneity installs per-node bandwidth budgets that download
/// scheduling honors.
pub struct BandwidthSim {
    config: SimConfig,
    topology: Topology,
    workload: Workload,
}

impl BandwidthSim {
    pub(crate) fn new(config: SimConfig, topology: Topology, workload: Workload) -> Self {
        Self {
            config,
            topology,
            workload,
        }
    }

    /// The configuration this simulation was built from.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The overlay topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Runs the full simulation and produces the report.
    pub fn run(self) -> SimReport {
        self.run_observed(|_, _| {}, &mut NullObserver)
    }

    /// Runs the simulation while reporting events, per-epoch counter
    /// snapshots and (optionally) phase timings to a
    /// [`StepObserver`](crate::StepObserver), and invoking
    /// `progress(done, total)` after every timestep.
    ///
    /// Observation is strictly read-only: the produced [`SimReport`] is
    /// byte-identical whether the observer is [`NullObserver`] or a real
    /// collector — the non-perturbation invariant the observability tests
    /// pin.
    ///
    /// Each step runs the loop's layers in a fixed order, each written
    /// once: scheduled membership events and the targeted-departure wave
    /// (one departure path serves both), repair re-uploads, due retries
    /// and the step's file download (one user-delivery accounting serves
    /// both), the incentive mechanism's tick, and every `files / 32` steps
    /// one fairness sample.
    pub fn run_observed<F, O>(self, mut progress: F, obs: &mut O) -> SimReport
    where
        F: FnMut(u64, u64),
        O: StepObserver,
    {
        let nodes = self.topology.len();
        let bits = self.topology.space().bits();
        let total = self.config.files;
        if O::ENABLED {
            obs.on_event(
                0,
                EventKind::Start {
                    nodes: nodes as u64,
                    files: total,
                    seed: self.config.seed,
                },
            );
        }
        // The scenario compiles against the freshly built (all-live)
        // topology: scripted membership events, any initially-offline
        // cohort, the runtime targeted-departure trigger and per-node
        // bandwidth budgets.
        let compiled = self
            .config
            .scenario
            .as_ref()
            .map(|kind| scenario::compile(kind, &self.topology, self.config.seed));
        // Every concern forks its own stream off the master seed via the
        // shared sub-seed derivation (topology, workload and scenario
        // streams were forked the same way at build/compile time).
        let mut free_rider_rng = sub_rng(self.config.seed, domain::FREE_RIDERS);
        let free_riders =
            FreeRiderSet::sample(nodes, self.config.free_rider_fraction, &mut free_rider_rng);
        let capacities = compiled.as_ref().and_then(|c| c.capacities.clone());
        let mechanism = self
            .config
            .build_mechanism(free_riders.clone(), capacities.as_deref());
        let state = RewardState::with_tx_cost(nodes, self.config.channel, self.config.tx_cost);

        // Background churn plan, with the scenario's scripted events
        // composed in: both replay through one consistent event stream.
        let base_plan = self.config.churn.as_ref().map(|churn| {
            ChurnPlan::generate(
                nodes,
                total,
                churn,
                sub_seed(self.config.seed, domain::CHURN),
            )
            .expect("churn config was validated at build time")
        });
        let mut initially_live = vec![true; nodes];
        if let Some(compiled) = &compiled {
            for node in &compiled.initially_offline {
                initially_live[node.index()] = false;
            }
        }
        let script = compiled.as_ref().map_or(&[][..], |c| &c.script);
        let plan = if script.is_empty() {
            base_plan
        } else {
            let base = base_plan.as_ref().map_or(&[][..], ChurnPlan::events);
            Some(
                ChurnPlan::compose(nodes, total, base, script, &initially_live)
                    .expect("script compiled against this topology"),
            )
        };
        let targeted = compiled.as_ref().and_then(|c| c.targeted);
        // Membership/fairness timelines are tracked whenever anything
        // dynamic can happen: churn, scripted events, or runtime triggers.
        let churn = (plan.is_some() || compiled.is_some()).then(|| ChurnOutcome {
            joins: 0,
            leaves: 0,
            departure_settlements: 0,
            targeted_removals: 0,
            repair_events: 0,
            final_live: nodes,
            timeline: Vec::new(),
        });
        let timeline_stride = (total / 32).max(1);

        let mut download = DownloadSim::new(self.topology, self.config.cache);
        download.set_route_policy(self.config.route);
        if let Some(capacities) = capacities {
            download.set_capacities(capacities);
        }
        // The durability model (lost-region fault injection) runs inside
        // the engine whenever the policy watches neighborhoods; only
        // `ReReplicate` additionally generates repair traffic. Retries are
        // gated the same way so `max_retries = 0` costs nothing.
        if let Some(neighborhood_bits) = self.config.repair.neighborhood_bits() {
            download.enable_durability(neighborhood_bits);
        }
        let repair_active = self.config.repair.repairs();
        let repair_source = self.config.repair_source;
        let retry_active = self.config.max_retries > 0;
        if retry_active {
            download.set_retry_policy(self.config.max_retries, self.config.retry_backoff);
        }
        // Profiling is wall-clock and surfaces only through `--profile` /
        // BENCH artifacts; the trace and metrics streams stay logical.
        // Settlement time (the per-step amortization tick) is measured
        // separately and subtracted from the step loop's total.
        let profiling = obs.profiling();
        // Epoch snapshots share the timeline stride, so a trace correlates
        // 1:1 with the churn timeline the report already carries. The
        // `O::ENABLED` guard removes them from unobserved runs; profile-only
        // observers skip the snapshot assembly via `wants_epochs`.
        let epochs = O::ENABLED && obs.wants_epochs();
        let mut run = Engine {
            download,
            workload: self.workload,
            books: Books {
                mechanism,
                state,
                hops: HopHistogram::new(),
                first_hop_buckets: vec![0; bits as usize + 1],
            },
            churn,
            flips: Vec::new(),
            incomes: Vec::new(),
            obs,
        };
        // Flash-crowd cohorts exist but stay offline until their scripted
        // arrival; the plan's consistency sweep started from this state.
        // They neither settle nor feed the durability model.
        if let Some(compiled) = &compiled {
            for &node in &compiled.initially_offline {
                run.download
                    .topology_mut()
                    .remove_node(node)
                    .expect("cohort selected from the live population");
                run.download.on_node_leave(node);
                run.flips.push((node, false));
            }
            run.apply_flips();
        }

        let loop_start = profiling.then(Instant::now);
        let mut settlement_nanos = 0u64;
        let mut epoch_index = 0u64;
        for step in 1..=total {
            // 1. Membership changes scheduled for this step.
            if let Some(plan) = &plan {
                run.apply_scheduled(plan.events_at(step), step);
            }
            // 2. Runtime scenario trigger: the targeted departure wave.
            if let Some((_, top_fraction)) = targeted.filter(|&(at_step, _)| at_step == step) {
                run.targeted_wave(top_fraction, step);
            }
            // 3a. Repair traffic runs first in the step, so aggressive
            //     repair genuinely competes with the user traffic behind it.
            //     Re-uploads route through the same capacity-constrained
            //     forwarding as user requests, and the incentive layer pays
            //     the repairers like any other route.
            if repair_active {
                let topology = run.download.topology_rc();
                let books = &mut run.books;
                run.download.run_repairs(repair_source, |delivery| {
                    books
                        .mechanism
                        .on_delivery(&topology, delivery, &mut books.state);
                });
            }
            // 3b. Due retries re-enter routing as fresh request attempts,
            //     accounted exactly like first-attempt user traffic.
            if retry_active {
                let topology = run.download.topology_rc();
                run.download
                    .drain_retries(|delivery| run.books.user(&topology, delivery, run.obs, step));
            }
            // 3c. One file download.
            let file = run.workload.next_download();
            let topology = run.download.topology_rc();
            run.download
                .download_file_with(file.originator, &file.chunks, |delivery| {
                    run.books.user(&topology, delivery, run.obs, step);
                });
            // 3d. The mechanism's per-step tick (SWAP amortization).
            let tick_start = profiling.then(Instant::now);
            run.books
                .mechanism
                .on_tick(run.download.topology(), &mut run.books.state);
            if let Some(start) = tick_start {
                settlement_nanos += start.elapsed().as_nanos() as u64;
            }
            // 4. One fairness sample feeds the churn timeline and the
            //    observer's epoch snapshot.
            if (run.churn.is_some() || epochs) && (step % timeline_stride == 0 || step == total) {
                run.sample(step, epochs.then_some(epoch_index));
                epoch_index += u64::from(epochs);
            }
            // 5. Close this step's bandwidth-budget window.
            run.download.advance_step();
            progress(step, total);
        }

        let (mut download, books, obs) = (run.download, run.books, run.obs);
        if let Some(start) = loop_start {
            let loop_nanos = start.elapsed().as_nanos() as u64;
            obs.add_phase(fairswap_obs::Phase::Settlement, settlement_nanos);
            obs.add_phase(
                fairswap_obs::Phase::SimSteps,
                loop_nanos.saturating_sub(settlement_nanos),
            );
        }
        if O::ENABLED {
            let stats = download.stats();
            let requests: u64 = stats.requests_issued().iter().sum();
            let stuck = stats.stuck_requests();
            obs.on_event(total, EventKind::End { requests, stuck });
        }

        // Regions still lost at run end surface in the time-to-repair
        // maximum (their full unrepaired lifetime), without skewing the
        // mean over completed repairs.
        download.finalize_durability(total);
        let cache_hits = (0..nodes)
            .map(|n| download.cache(NodeId(n)).map_or(0, |c| c.hits()))
            .sum();
        let stats = download.stats().clone();
        let topology = download.topology_rc();
        drop(download);
        let fairness_start = profiling.then(Instant::now);
        let report = SimReport::assemble(
            self.config,
            &topology,
            stats,
            books.state,
            books.hops,
            free_riders,
            cache_hits,
            books.first_hop_buckets,
            run.churn,
        );
        if let Some(start) = fairness_start {
            obs.add_phase(
                fairswap_obs::Phase::Fairness,
                start.elapsed().as_nanos() as u64,
            );
        }
        report
    }
}

/// The mutable state of one run: what the layers of the step loop read
/// and write.
struct Engine<'o, O> {
    download: DownloadSim,
    workload: Workload,
    books: Books,
    /// Membership and fairness-over-time outcome; `None` in static runs.
    churn: Option<ChurnOutcome>,
    /// The liveness flips applied in the current step, handed to the
    /// workload so pool maintenance is O(flips), not a rescan of the
    /// whole population per churn batch. Reused across steps.
    flips: Vec<(NodeId, bool)>,
    /// Reused across fairness samples and targeted-departure rankings so
    /// per-step fairness sampling does not allocate.
    incomes: Vec<f64>,
    obs: &'o mut O,
}

impl<O: StepObserver> Engine<'_, O> {
    /// Applies one step's scheduled membership events. The guards
    /// tolerate events invalidated by runtime triggers: a targeted
    /// departure may have removed a node the plan later schedules, so
    /// replay re-checks liveness instead of trusting the sweep.
    fn apply_scheduled(&mut self, events: &[ChurnEvent], step: u64) {
        for event in events {
            let topology = self.download.topology();
            match event.kind {
                ChurnEventKind::Leave => {
                    if !topology.is_live(event.node) || topology.live_count() <= 2 {
                        continue;
                    }
                    self.depart(event.node, step, false);
                }
                ChurnEventKind::Join => {
                    if topology.is_live(event.node) {
                        continue;
                    }
                    self.download
                        .topology_mut()
                        .add_node(event.node)
                        .expect("liveness checked above");
                    self.churn
                        .as_mut()
                        .expect("membership events imply a churn outcome")
                        .joins += 1;
                    self.obs.on_event(
                        step,
                        EventKind::Join {
                            node: event.node.0 as u64,
                        },
                    );
                    self.flips.push((event.node, true));
                }
            }
        }
        self.apply_flips();
    }

    /// The targeted departure wave removes the current top earners — a
    /// selection only the live simulation state can answer.
    fn targeted_wave(&mut self, top_fraction: f64, step: u64) {
        self.books.state.incomes_f64_into(&mut self.incomes);
        let topology = self.download.topology();
        let count = ((topology.live_count() as f64 * top_fraction).ceil() as usize).max(1);
        for node in topology.top_k_live_by_score(&self.incomes, count) {
            if self.download.topology().live_count() <= 2 {
                break;
            }
            self.depart(node, step, true);
        }
        self.apply_flips();
    }

    /// Takes live `node` out of the overlay, for the churn plan or, when
    /// `targeted`, for the targeted wave: routing tables are repaired and
    /// its cache dropped, its outstanding cheque balances settle, and the
    /// durability model checks whether its storage neighborhood emptied.
    fn depart(&mut self, node: NodeId, step: u64, targeted: bool) {
        self.download
            .topology_mut()
            .remove_node(node)
            .expect("callers depart live nodes only");
        self.download.on_node_leave(node);
        let outcome = self
            .churn
            .as_mut()
            .expect("membership events imply a churn outcome");
        outcome.departure_settlements += self.books.state.settle_departed(node) as u64;
        let lost_region = self.download.note_departure(node, step);
        outcome.repair_events += u64::from(lost_region);
        let id = node.0 as u64;
        if targeted {
            outcome.targeted_removals += 1;
            self.obs.on_event(step, EventKind::Targeted { node: id });
        } else {
            outcome.leaves += 1;
            self.obs.on_event(step, EventKind::Leave { node: id });
        }
        if lost_region {
            self.obs.on_event(step, EventKind::Repair { node: id });
        }
        self.flips.push((node, false));
    }

    /// Hands the step's liveness flips to the workload's originator pool.
    fn apply_flips(&mut self) {
        if !self.flips.is_empty() {
            let topology = self.download.topology();
            self.workload
                .apply_membership(&self.flips, |node| topology.is_live(node));
            self.flips.clear();
        }
    }

    /// Samples F2 (the Gini of per-node income) once, and hands it to the
    /// churn timeline and, with an `epoch` index, to the observer's
    /// snapshot of the cumulative counters.
    fn sample(&mut self, step: u64, epoch: Option<u64>) {
        self.books.state.incomes_f64_into(&mut self.incomes);
        let f2_gini = gini(&self.incomes).unwrap_or(0.0);
        let download = &self.download;
        let live = download.topology().live_count();
        if let Some(outcome) = self.churn.as_mut() {
            outcome.timeline.push(ChurnSample {
                step,
                live,
                f2_gini,
                unreachable: download.lost_region_count() as u64,
            });
            outcome.final_live = live;
        }
        let Some(epoch) = epoch else {
            return;
        };
        let stats = download.stats();
        let requests: u64 = stats.requests_issued().iter().sum();
        let stuck = stats.stuck_requests();
        let cache_totals = download.cache_totals();
        let ledger = self.books.state.swap().ledger();
        let (joins, leaves, targeted_removals, repair_events) =
            self.churn.as_ref().map_or((0, 0, 0, 0), |o| {
                (o.joins, o.leaves, o.targeted_removals, o.repair_events)
            });
        self.obs.on_epoch(&EpochSnapshot {
            epoch,
            step,
            live: live as u64,
            requests,
            delivered: requests - stuck,
            stuck,
            capacity_blocked: stats.capacity_blocked(),
            detoured: stats.detoured(),
            forwarded: stats.total_forwarded(),
            cache_served: stats.served_from_cache().iter().sum(),
            cache_lookups: cache_totals.lookups,
            cache_hits: cache_totals.hits,
            cache_misses: cache_totals.misses,
            cache_evictions: cache_totals.evictions,
            cache_ttl_expiries: cache_totals.ttl_expiries,
            settlements: ledger.transaction_count() as u64,
            settlement_volume: ledger.total_volume().raw(),
            joins,
            leaves,
            targeted_removals,
            repair_events,
            retried: stats.retried(),
            recovered: stats.recovered(),
            abandoned: stats.abandoned(),
            unreachable_requests: stats.unreachable_requests(),
            repair_transfers: stats.repair_transfers(),
            repair_delivered: stats.repair_delivered(),
            regions_lost: download.lost_region_count() as u64,
            f2_gini,
        });
    }
}

/// What every routed chunk is accounted into: the incentive mechanism,
/// the reward ledger, and the route statistics of user requests.
struct Books {
    mechanism: Box<dyn BandwidthIncentive>,
    state: RewardState,
    hops: HopHistogram,
    /// Which routing-table bucket of the originator the paid first hop
    /// sat in (§III-B: zero-proximity nodes take most first-hop load).
    first_hop_buckets: Vec<u64>,
}

impl Books {
    /// Accounts one routed user request, a first attempt or a retry.
    fn user<O: StepObserver>(
        &mut self,
        topology: &Topology,
        delivery: &ChunkDelivery,
        obs: &mut O,
        step: u64,
    ) {
        if delivery.delivered() {
            self.hops.record(delivery.hops.len());
            if let Some(first) = delivery.first_hop() {
                let bucket = topology
                    .address(delivery.originator)
                    .proximity(topology.address(first))
                    .bucket_index();
                self.first_hop_buckets[bucket] += 1;
            }
        }
        self.mechanism
            .on_delivery(topology, delivery, &mut self.state);
        obs.on_delivery(step, delivery);
    }
}

impl std::fmt::Debug for BandwidthSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BandwidthSim")
            .field("nodes", &self.topology.len())
            .field("files", &self.config.files)
            .field("mechanism", &self.config.mechanism.id())
            .field("churn", &self.config.churn.is_some())
            .field("scenario", &self.config.scenario.as_ref().map(|s| s.id()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MechanismKind;
    use crate::spec::SimSpec;
    use fairswap_churn::ChurnConfig;
    use fairswap_kademlia::BucketSizing;

    fn small_sim(k: usize, fraction: f64, seed: u64) -> BandwidthSim {
        let mut spec = SimSpec::paper_defaults();
        spec.topology.nodes = 150;
        spec.topology.bucket_sizing = BucketSizing::uniform(k);
        spec.workload.originator_fraction = fraction;
        spec.workload.files = 30;
        spec.seed = seed;
        spec.build().unwrap()
    }

    fn churn_sim(rate: f64, seed: u64) -> BandwidthSim {
        let mut spec = SimSpec::paper_defaults();
        spec.topology.nodes = 150;
        spec.workload.files = 60;
        spec.seed = seed;
        spec.dynamics.churn = Some(ChurnConfig::from_rate(rate).unwrap());
        spec.build().unwrap()
    }

    #[test]
    fn run_produces_consistent_report() {
        let report = small_sim(4, 1.0, 1).run();
        assert_eq!(report.node_count(), 150);
        assert!(report.total_forwarded() > 0);
        // Every delivered chunk pays exactly one first hop under Swarm.
        let first_hops: u64 = report.traffic().served_first_hop().iter().sum();
        assert!(first_hops > 0);
        let f2 = report.f2_income_gini();
        assert!((0.0..=1.0).contains(&f2));
        // Static runs report no churn outcome.
        assert!(report.churn().is_none());
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let a = small_sim(4, 0.2, 9).run();
        let b = small_sim(4, 0.2, 9).run();
        assert_eq!(a.traffic().forwarded(), b.traffic().forwarded());
        assert_eq!(a.incomes(), b.incomes());
        assert_eq!(a.f2_income_gini(), b.f2_income_gini());
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_sim(4, 1.0, 1).run();
        let b = small_sim(4, 1.0, 2).run();
        assert_ne!(a.traffic().forwarded(), b.traffic().forwarded());
    }

    #[test]
    fn progress_callback_counts_steps() {
        let mut calls = 0u64;
        let progress = |done: u64, total: u64| {
            calls += 1;
            assert!(done <= total);
        };
        let report = small_sim(4, 1.0, 3).run_observed(progress, &mut NullObserver);
        assert_eq!(calls, 30);
        assert_eq!(report.config().files, 30);
    }

    #[test]
    fn debug_formatting() {
        let sim = small_sim(4, 1.0, 4);
        assert!(format!("{sim:?}").contains("BandwidthSim"));
        assert_eq!(sim.topology().len(), 150);
    }

    #[test]
    fn alternative_mechanisms_run() {
        for mechanism in [
            MechanismKind::PayAllHops,
            MechanismKind::TitForTat,
            MechanismKind::EffortBased {
                budget_per_tick: 1000,
            },
            MechanismKind::ProofOfBandwidth { mint_per_chunk: 1 },
        ] {
            let mut spec = SimSpec::paper_defaults();
            spec.topology.nodes = 80;
            spec.workload.files = 10;
            spec.seed = 5;
            spec.economics.mechanism = mechanism;
            let report = spec.build().unwrap().run();
            assert_eq!(report.config().mechanism.id(), mechanism.id());
        }
    }

    #[test]
    fn churn_run_reports_membership_dynamics() {
        let report = churn_sim(0.2, 7).run();
        let churn = report.churn().expect("churn outcome present");
        assert!(churn.leaves > 0, "high churn rate must produce departures");
        assert!(churn.final_live <= 150);
        assert!(!churn.timeline.is_empty());
        // The timeline is ordered, ends at the final step, and every
        // fairness sample is a valid Gini.
        let mut last_step = 0;
        for sample in &churn.timeline {
            assert!(sample.step > last_step);
            last_step = sample.step;
            assert!((0.0..=1.0).contains(&sample.f2_gini));
            assert!(sample.live <= 150 && sample.live >= 2);
        }
        assert_eq!(churn.timeline.last().unwrap().step, 60);
        assert_eq!(churn.timeline.last().unwrap().live, churn.final_live);
        assert!(churn.mean_live() > 0.0);
    }

    #[test]
    fn churn_runs_are_deterministic() {
        let a = churn_sim(0.1, 11).run();
        let b = churn_sim(0.1, 11).run();
        assert_eq!(a.traffic().forwarded(), b.traffic().forwarded());
        assert_eq!(a.incomes(), b.incomes());
        assert_eq!(a.churn(), b.churn());
    }

    fn durability_sim(policy: crate::policy::RepairPolicy, seed: u64) -> BandwidthSim {
        let mut spec = SimSpec::paper_defaults();
        spec.topology.nodes = 150;
        spec.workload.files = 60;
        spec.seed = seed;
        spec.dynamics.churn = Some(ChurnConfig::from_rate(0.2).unwrap());
        spec.policies.repair = policy;
        spec.build().unwrap()
    }

    #[test]
    fn monitor_policy_injects_loss_without_repair_traffic() {
        use crate::policy::RepairPolicy;
        let base = churn_sim(0.2, 7).run();
        let monitored = durability_sim(
            RepairPolicy::Monitor {
                neighborhood_bits: 8,
            },
            7,
        )
        .run();
        let churn = monitored.churn().unwrap();
        assert!(
            churn.repair_events > 0,
            "8-bit regions must empty at 20% churn"
        );
        // Monitoring detects loss but never re-uploads.
        assert_eq!(monitored.traffic().repair_transfers(), 0);
        assert_eq!(monitored.traffic().repair_delivered(), 0);
        // Nothing restores a lost region, so the unreachable gauge is
        // monotone non-decreasing — the control arm of the repair study.
        assert!(churn
            .timeline
            .windows(2)
            .all(|w| w[0].unreachable <= w[1].unreachable));
        assert!(churn.timeline.last().unwrap().unreachable > 0);
        // Faulted user requests surface in the traffic stats; the
        // baseline run has no concept of them.
        assert!(monitored.traffic().unreachable_requests() > 0);
        assert_eq!(base.traffic().unreachable_requests(), 0);
        assert_eq!(base.churn().unwrap().repair_events, 0);
    }

    #[test]
    fn re_replication_converges_and_pays_through_the_ledger() {
        use crate::policy::RepairPolicy;
        let monitored = durability_sim(
            RepairPolicy::Monitor {
                neighborhood_bits: 8,
            },
            7,
        )
        .run();
        let repaired = durability_sim(
            RepairPolicy::ReReplicate {
                neighborhood_bits: 8,
            },
            7,
        )
        .run();
        let stats = repaired.traffic();
        assert!(stats.repair_transfers() > 0);
        assert!(stats.repair_delivered() > 0);
        assert!(repaired.mean_time_to_repair() >= 1.0);
        // Repair keeps standing loss strictly below the monitor-only arm,
        // instead of letting it grow without bound.
        let standing = |r: &SimReport| r.churn().unwrap().timeline.last().unwrap().unreachable;
        assert!(
            standing(&repaired) < standing(&monitored),
            "repair {} vs monitor {}",
            standing(&repaired),
            standing(&monitored)
        );
        // Repair deliveries flow through the same ledger as user traffic
        // and conservation still holds: total income == settled volume,
        // i.e. every repaired chunk is paid exactly once.
        let income: f64 = repaired.incomes().iter().sum();
        assert_eq!(income as u64, repaired.settlement_volume());
    }

    #[test]
    fn targeted_departure_waves_feed_the_repair_engine() {
        use crate::policy::RepairPolicy;
        use crate::scenario::ScenarioKind;
        let run = |policy| {
            let mut spec = SimSpec::paper_defaults();
            spec.topology.nodes = 150;
            spec.workload.files = 40;
            spec.seed = 11;
            spec.dynamics.scenario = Some(ScenarioKind::TargetedDeparture {
                at_step: 10,
                top_fraction: 0.3,
            });
            spec.policies.repair = policy;
            spec.build().unwrap().run()
        };
        let base = run(RepairPolicy::None);
        let repaired = run(RepairPolicy::ReReplicate {
            neighborhood_bits: 8,
        });
        assert!(base.churn().unwrap().targeted_removals > 0);
        // The wave empties regions (30% of 150 nodes against 256 regions
        // leaves singletons with certainty) and the engine repairs them.
        let churn = repaired.churn().unwrap();
        assert!(churn.repair_events > 0, "{churn:?}");
        assert!(repaired.traffic().repair_delivered() > 0);
        // With no rejoins, once repair has drained the backlog the final
        // gauge sits at zero.
        assert_eq!(churn.timeline.last().unwrap().unreachable, 0);
        let income: f64 = repaired.incomes().iter().sum();
        assert_eq!(income as u64, repaired.settlement_volume());
    }

    #[test]
    fn retries_recover_capacity_blocked_requests_end_to_end() {
        use crate::scenario::ScenarioKind;
        let run = |retries: u32| {
            let mut spec = SimSpec::paper_defaults();
            spec.topology.nodes = 150;
            spec.workload.files = 60;
            spec.seed = 19;
            spec.dynamics.scenario = Some(ScenarioKind::Heterogeneity {
                slow_fraction: 0.9,
                slow_budget: 2,
                fast_budget: 50,
            });
            spec.policies.max_retries = retries;
            spec.policies.retry_backoff = 1;
            spec.build().unwrap().run()
        };
        let base = run(0);
        assert!(
            base.traffic().capacity_blocked() > 0,
            "the scenario must actually saturate hops"
        );
        assert_eq!(base.traffic().retried(), 0);
        let retried = run(2);
        let stats = retried.traffic();
        assert!(stats.retried() > 0);
        assert!(stats.recovered() > 0, "some retries must succeed");
        // `retried` counts attempts; each resolves as a recovery, an
        // abandonment, a re-enqueue, or stays queued at run end.
        assert!(stats.retried() >= stats.recovered() + stats.abandoned());
        let income: f64 = retried.incomes().iter().sum();
        assert_eq!(income as u64, retried.settlement_volume());
    }

    #[test]
    fn churned_incomes_match_ledger_volume() {
        // Departure settlements and first-hop payments both flow through
        // the ledger at 1:1, so conservation must hold under churn too.
        let report = churn_sim(0.15, 13).run();
        let income: f64 = report.incomes().iter().sum();
        assert_eq!(income as u64, report.settlement_volume());
    }

    #[test]
    fn mechanisms_survive_churn() {
        for mechanism in [
            MechanismKind::PayAllHops,
            MechanismKind::TitForTat,
            MechanismKind::EffortBased {
                budget_per_tick: 1000,
            },
            MechanismKind::ProofOfBandwidth { mint_per_chunk: 1 },
        ] {
            let mut spec = SimSpec::paper_defaults();
            spec.topology.nodes = 100;
            spec.workload.files = 25;
            spec.seed = 17;
            spec.dynamics.churn = Some(ChurnConfig::from_rate(0.1).unwrap());
            spec.economics.mechanism = mechanism;
            let report = spec.build().unwrap().run();
            let f2 = report.f2_income_gini();
            assert!((0.0..=1.0).contains(&f2), "{}: {f2}", mechanism.id());
        }
    }

    #[test]
    fn architecture_step_loop_table_names_engine_fns() {
        // The "Engine code" column of docs/ARCHITECTURE.md's step-loop
        // table: each cell is "loop body" or backticked names of this
        // file's code, `Type::method` for a method.
        let doc = include_str!("../../../docs/ARCHITECTURE.md");
        let source = include_str!("sim.rs").split("#[cfg(test)]").next().unwrap();
        let table = doc
            .split("## The step loop")
            .nth(1)
            .and_then(|rest| rest.split("\n## ").next())
            .expect("docs/ARCHITECTURE.md has a step-loop section");
        let cells: Vec<&str> = table
            .lines()
            .filter(|line| line.starts_with('|'))
            .skip(2) // the header and its separator
            .map(|line| line.split('|').nth(3).expect("a four-column row").trim())
            .collect();
        assert!(!cells.is_empty(), "no step-loop table found");
        for cell in cells {
            if cell == "loop body" {
                continue;
            }
            let names: Vec<&str> = cell.split('`').skip(1).step_by(2).collect();
            assert!(
                !names.is_empty(),
                "{cell:?} is neither names nor \"loop body\""
            );
            for name in names {
                let (owner, method) = name.rsplit_once("::").unwrap_or(("", name));
                let is_fn = [format!("fn {method}("), format!("fn {method}<")]
                    .iter()
                    .any(|decl| source.contains(decl.as_str()));
                let has_owner = owner.is_empty() || source.contains(&format!("impl {owner} {{"));
                assert!(is_fn && has_owner, "`{name}` is no fn in sim.rs");
            }
        }
    }
}
