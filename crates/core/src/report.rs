//! Simulation reports: everything the paper's tables and figures need.

use fairswap_fairness::{
    f1_contribution_gini, f1_values, f2_income_gini, gini, lorenz, FairnessError, Histogram,
    LorenzPoint, Summary,
};
use fairswap_incentives::{FreeRiderSet, RewardState};
use fairswap_kademlia::{HopHistogram, NodeId, Topology, TopologyMetrics};
use fairswap_storage::TrafficStats;
use serde::{Deserialize, Serialize};

use crate::config::SimConfig;

/// One sample of the churn timeline: the state of the network after `step`
/// files were downloaded.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnSample {
    /// Timestep (files downloaded so far).
    pub step: u64,
    /// Live nodes at that point.
    pub live: usize,
    /// F2 income Gini over all incomes accumulated so far.
    pub f2_gini: f64,
    /// Address regions currently unreachable at the sample step (a gauge,
    /// not a cumulative count). Always 0 under
    /// [`RepairPolicy::None`](crate::RepairPolicy).
    pub unreachable: u64,
}

/// Aggregate outcome of dynamic membership over one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnOutcome {
    /// Join events applied.
    pub joins: u64,
    /// Leave events applied.
    pub leaves: u64,
    /// Settlements executed by departing peers closing their channels.
    pub departure_settlements: u64,
    /// Departures triggered by a targeted-departure scenario (a subset of
    /// neither `leaves` nor the churn plan: these fire at runtime against
    /// the income ranking). 0 without such a scenario.
    pub targeted_removals: u64,
    /// Repair events: departures (scheduled and targeted alike) the
    /// engine detected as emptying their storage neighborhood under
    /// [`RepairPolicy::Monitor`](crate::RepairPolicy) /
    /// [`RepairPolicy::ReReplicate`](crate::RepairPolicy). 0 under the
    /// default no-repair policy.
    pub repair_events: u64,
    /// Live nodes after the final step.
    pub final_live: usize,
    /// Per-epoch live-node counts and fairness-over-time series (sampled
    /// every `max(1, files / 32)` steps plus the final step).
    pub timeline: Vec<ChurnSample>,
}

impl ChurnOutcome {
    /// Mean live-node count across the sampled timeline.
    pub fn mean_live(&self) -> f64 {
        if self.timeline.is_empty() {
            return self.final_live as f64;
        }
        self.timeline.iter().map(|s| s.live as f64).sum::<f64>() / self.timeline.len() as f64
    }
}

/// The complete outcome of one simulation run.
///
/// All per-node vectors are indexed by [`NodeId`]. The headline metrics:
///
/// * [`SimReport::mean_forwarded`] — Table I ("average forwarded chunks");
/// * [`SimReport::forwarded_histogram`] — Fig. 4;
/// * [`SimReport::f2_income_gini`] / [`SimReport::lorenz_income`] — Fig. 5
///   (income = paid accounting units);
/// * [`SimReport::f1_contribution_gini`] / [`SimReport::lorenz_f1`] —
///   Fig. 6, computed exactly as the paper does: total forwarded chunks
///   relative to chunks served as the paid first hop, over paid nodes only.
#[derive(Debug)]
pub struct SimReport {
    config: SimConfig,
    traffic: TrafficStats,
    incomes: Vec<f64>,
    hops: HopHistogram,
    free_riders: FreeRiderSet,
    cache_hits: u64,
    // Overhead aggregates (§V).
    total_connections: usize,
    mean_connections: f64,
    settlement_count: usize,
    settlement_volume: u64,
    settlement_tx_cost: u64,
    forced_settlements: u64,
    amortized_total: i64,
    net_income_bzz: Vec<u64>,
    first_hop_buckets: Vec<u64>,
    churn: Option<ChurnOutcome>,
}

impl SimReport {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        config: SimConfig,
        topology: &Topology,
        traffic: TrafficStats,
        state: RewardState,
        hops: HopHistogram,
        free_riders: FreeRiderSet,
        cache_hits: u64,
        first_hop_buckets: Vec<u64>,
        churn: Option<ChurnOutcome>,
    ) -> Self {
        let metrics = TopologyMetrics::compute(topology);
        let ledger = state.swap().ledger();
        let amortized_total = topology
            .node_ids()
            .map(|n| state.swap().amortized_given(n).raw())
            .sum();
        Self {
            incomes: state.incomes_f64(),
            net_income_bzz: ledger
                .net_income(topology.len())
                .into_iter()
                .map(|b| b.raw())
                .collect(),
            settlement_count: ledger.transaction_count(),
            settlement_volume: ledger.total_volume().raw(),
            settlement_tx_cost: ledger.total_tx_cost().raw(),
            forced_settlements: state.forced_settlements(),
            total_connections: metrics.total_connections,
            mean_connections: metrics.mean_connections,
            amortized_total,
            config,
            traffic,
            hops,
            free_riders,
            cache_hits,
            first_hop_buckets,
            churn,
        }
    }

    /// The configuration that produced this report.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.traffic.node_count()
    }

    /// Raw traffic counters.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Per-node paid income in accounting units.
    pub fn incomes(&self) -> &[f64] {
        &self.incomes
    }

    /// Per-node net BZZ income after settlement transaction costs.
    pub fn net_income_bzz(&self) -> &[u64] {
        &self.net_income_bzz
    }

    /// The hop-count histogram over all delivered chunks.
    pub fn hops(&self) -> &HopHistogram {
        &self.hops
    }

    /// The sampled free riders.
    pub fn free_riders(&self) -> &FreeRiderSet {
        &self.free_riders
    }

    /// Total cache hits across all nodes.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Mean steps from a region becoming unreachable to its repair
    /// delivery, over completed repairs (0 when nothing was repaired).
    pub fn mean_time_to_repair(&self) -> f64 {
        self.traffic.mean_time_to_repair()
    }

    /// Dynamic-membership outcome: join/leave counts, departure
    /// settlements, and the live-count / fairness-over-time series.
    /// `None` for static (paper-configuration) runs.
    pub fn churn(&self) -> Option<&ChurnOutcome> {
        self.churn.as_ref()
    }

    /// How many paid first-hop serves fell into each routing-table bucket
    /// of the originator, indexed by bucket (= proximity order).
    ///
    /// The paper's §III-B observes that "during a file download, nodes in
    /// zero-proximity receive significantly more requests" — i.e. this
    /// distribution is dominated by bucket 0, which covers roughly half of
    /// the address space.
    pub fn first_hop_bucket_counts(&self) -> &[u64] {
        &self.first_hop_buckets
    }

    /// Fraction of paid first hops served out of the originator's bucket 0.
    pub fn zero_bucket_first_hop_share(&self) -> f64 {
        let total: u64 = self.first_hop_buckets.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.first_hop_buckets[0] as f64 / total as f64
        }
    }

    // ---- Table I -----------------------------------------------------

    /// Mean forwarded chunks per node — the Table I statistic.
    pub fn mean_forwarded(&self) -> f64 {
        self.traffic.mean_forwarded()
    }

    /// Total chunk transmissions.
    pub fn total_forwarded(&self) -> u64 {
        self.traffic.total_forwarded()
    }

    // ---- Fig. 4 ------------------------------------------------------

    /// Histogram of per-node forwarded-chunk counts with the given bin
    /// width (Fig. 4's distribution).
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is not a positive finite number.
    pub fn forwarded_histogram(&self, bin_width: f64) -> Histogram {
        let mut h = Histogram::with_bin_width(bin_width).expect("positive bin width");
        h.record_all(self.traffic.forwarded().iter().map(|&v| v as f64))
            .expect("counts are finite and non-negative");
        h
    }

    /// Summary statistics of per-node forwarded chunks.
    pub fn forwarded_summary(&self) -> Summary {
        Summary::of(&self.traffic.forwarded_f64()).expect("node counts are non-empty")
    }

    // ---- Fig. 5 (F2) ---------------------------------------------------

    /// F2: Gini coefficient of per-node paid income (0 if no income at all,
    /// which only happens for mechanisms that never pay).
    pub fn f2_income_gini(&self) -> f64 {
        f2_income_gini(&self.incomes).unwrap_or(0.0)
    }

    /// F2 Lorenz curve of per-node paid income.
    ///
    /// # Errors
    ///
    /// Fails with [`FairnessError::ZeroTotal`] if nobody earned anything.
    pub fn lorenz_income(&self) -> Result<Vec<LorenzPoint>, FairnessError> {
        lorenz(&self.incomes)
    }

    // ---- Fig. 6 (F1) ---------------------------------------------------

    /// F1 per-node values exactly as the paper computes them for Fig. 6:
    /// `total forwarded chunks / chunks served as the paid first hop`, over
    /// nodes with at least one paid first-hop serve.
    ///
    /// # Errors
    ///
    /// Fails if no node was ever paid.
    pub fn f1_values(&self) -> Result<Vec<f64>, FairnessError> {
        f1_values(
            &self.traffic.forwarded_f64(),
            &self.traffic.served_first_hop_f64(),
        )
    }

    /// F1: Gini of the [`SimReport::f1_values`] ratios (0 when undefined).
    pub fn f1_contribution_gini(&self) -> f64 {
        f1_contribution_gini(
            &self.traffic.forwarded_f64(),
            &self.traffic.served_first_hop_f64(),
        )
        .unwrap_or(0.0)
    }

    /// F1 variant against *income in accounting units* instead of paid
    /// chunk counts (sensitive to proximity pricing).
    pub fn f1_income_gini(&self) -> f64 {
        f1_contribution_gini(&self.traffic.forwarded_f64(), &self.incomes).unwrap_or(0.0)
    }

    /// F1 Lorenz curve of the forwarded-per-paid-chunk ratios.
    ///
    /// # Errors
    ///
    /// Fails if no node was ever paid or every ratio is zero.
    pub fn lorenz_f1(&self) -> Result<Vec<LorenzPoint>, FairnessError> {
        lorenz(&self.f1_values()?)
    }

    /// Gini of raw forwarded-chunk counts (bandwidth-consumption skew, the
    /// left/right comparison in Fig. 4's discussion).
    pub fn forwarded_gini(&self) -> f64 {
        gini(&self.traffic.forwarded_f64()).unwrap_or(0.0)
    }

    // ---- §V overhead ----------------------------------------------------

    /// Total open connections across all routing tables.
    pub fn total_connections(&self) -> usize {
        self.total_connections
    }

    /// Mean connections per node (grows with `k`; first §V cost).
    pub fn mean_connections(&self) -> f64 {
        self.mean_connections
    }

    /// Number of settlement transactions executed (second §V cost).
    pub fn settlement_count(&self) -> usize {
        self.settlement_count
    }

    /// Total BZZ moved by settlements.
    pub fn settlement_volume(&self) -> u64 {
        self.settlement_volume
    }

    /// Total transaction costs charged against rewards.
    pub fn settlement_tx_cost(&self) -> u64 {
        self.settlement_tx_cost
    }

    /// Settlements forced by frozen channels.
    pub fn forced_settlements(&self) -> u64 {
        self.forced_settlements
    }

    /// Total accounting units forgiven by time-based amortization (the
    /// "free bandwidth" the network handed out).
    pub fn amortized_total(&self) -> i64 {
        self.amortized_total
    }

    /// Income of one node.
    pub fn income(&self, node: NodeId) -> f64 {
        self.incomes[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use crate::spec::SimSpec;

    fn report() -> super::SimReport {
        let mut spec = SimSpec::paper_defaults();
        spec.topology.nodes = 120;
        spec.workload.files = 25;
        spec.seed = 11;
        spec.build().unwrap().run()
    }

    #[test]
    fn figures_are_computable() {
        let r = report();
        assert!(r.f2_income_gini() > 0.0);
        assert!(r.f1_contribution_gini() >= 0.0);
        let lorenz = r.lorenz_income().unwrap();
        assert_eq!(lorenz.first().unwrap().value_share, 0.0);
        assert_eq!(lorenz.last().unwrap().value_share, 1.0);
        let f1 = r.f1_values().unwrap();
        // Every ratio is >= 1: a paid first hop also forwarded that chunk.
        assert!(f1.iter().all(|&v| v >= 1.0));
        let hist = r.forwarded_histogram(50.0);
        assert_eq!(hist.samples(), 120);
        let summary = r.forwarded_summary();
        assert!(summary.mean > 0.0);
    }

    #[test]
    fn overhead_metrics_present() {
        let r = report();
        assert!(r.total_connections() > 0);
        assert!(r.mean_connections() > 0.0);
        // Swarm pays first hops directly: one settlement per paid chunk.
        assert!(r.settlement_count() > 0);
        assert!(r.settlement_volume() > 0);
        assert_eq!(r.settlement_tx_cost(), 0);
        // Amortization forgave some forwarding debt.
        assert!(r.amortized_total() > 0);
    }

    #[test]
    fn incomes_match_net_bzz_when_tx_free() {
        let r = report();
        // With zero tx cost, gross BZZ settled to a node equals its unit
        // income (1:1 conversion).
        let income_sum: f64 = r.incomes().iter().sum();
        let bzz_sum: u64 = r.net_income_bzz().iter().sum();
        assert_eq!(income_sum as u64, bzz_sum);
    }

    #[test]
    fn forwarded_gini_defined() {
        let r = report();
        let g = r.forwarded_gini();
        assert!((0.0..=1.0).contains(&g));
    }
}
