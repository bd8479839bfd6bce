//! Invariant oracles: the hard "this must never happen" predicates.
//!
//! Each oracle is a pure predicate over a [`RunMetrics`] view extracted
//! from a finished [`SimReport`] — pure so that every oracle can be
//! unit-tested against hand-crafted metric views (one violating and one
//! passing case each) without running a simulation. A false-positive
//! oracle would poison the corpus with "finds" that reproduce nothing,
//! so the predicates are deliberately conservative: every one of them
//! encodes an invariant the integration suite already pins point-wise.
//!
//! The catalog (see `docs/FUZZING.md`):
//!
//! | Oracle | Invariant |
//! |--------|-----------|
//! | `reward-conservation` | paid income ≡ ledger settlement volume (Swarm / pay-all-hops, tx-free, no free riders) |
//! | `settlement-imbalance` | Σ net income ∈ [volume − tx costs, volume] |
//! | `routing-livelock` | max hops ≤ bits + max detours (greedy strictly descends XOR distance) |
//! | `capacity-accounting` | delivered + stuck = requests, capacity blocks ⊆ stuck, one hop record per delivery |
//! | `fairness-inversion` | F2 Gini at k = 20 not worse than at k = 4 on the same spec |
//! | `durability-stall` | with active re-replication, no region stays unreachable longer than half the run |

use fairswap_core::{MechanismKind, SimReport};

/// Everything the oracles need to know about one finished run, extracted
/// from the report's public accessors. Constructible by hand in tests.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Address-space bit width of the run.
    pub bits: u32,
    /// Incentive mechanism id (`"swarm"`, `"pay-all-hops"`, ...).
    pub mechanism: &'static str,
    /// Whether settlements were charged a transaction cost.
    pub tx_cost_zero: bool,
    /// Configured free-rider fraction.
    pub free_rider_fraction: f64,
    /// Detour budget of the routing policy (0 under greedy).
    pub max_detours: usize,
    /// Sum of per-node paid income in accounting units.
    pub income_sum: f64,
    /// Total BZZ moved by ledger settlements.
    pub settlement_volume: u64,
    /// Total transaction costs charged across settlements.
    pub settlement_tx_cost: u64,
    /// Sum of per-node net BZZ income after transaction costs.
    pub net_income_sum: u64,
    /// Settlements forced by frozen channels (those settle ledger volume
    /// without crediting mechanism income).
    pub forced_settlements: u64,
    /// Total chunk requests issued.
    pub requests: u64,
    /// Requests that never reached a storer.
    pub stuck: u64,
    /// Stuck requests dropped at a capacity-saturated hop.
    pub capacity_blocked: u64,
    /// Routes recorded in the hop histogram (one per delivered chunk).
    pub delivered_routes: u64,
    /// Largest observed hop count.
    pub max_hops: usize,
    /// Mean hop count over delivered chunks.
    pub mean_hops: f64,
    /// F2 income Gini of the run.
    pub f2_gini: f64,
    /// Total cache hits.
    pub cache_hits: u64,
    /// Whether the run's repair policy generates repair traffic
    /// (`ReReplicate`; `Monitor` only accounts loss).
    pub repair_active: bool,
    /// Steps (files) the run simulated.
    pub steps: u64,
    /// Longest observed unreachable span in steps — over completed
    /// repairs and regions still lost at run end alike.
    pub repair_wait_max: u64,
    /// Address regions still unreachable when the run ended.
    pub unreachable: u64,
}

impl RunMetrics {
    /// Extracts the oracle view from a finished report.
    pub fn from_report(report: &SimReport) -> Self {
        let config = report.config();
        let requests: u64 = report.traffic().requests_issued().iter().sum();
        Self {
            bits: config.bits,
            mechanism: config.mechanism.id(),
            tx_cost_zero: config.tx_cost.is_zero(),
            free_rider_fraction: config.free_rider_fraction,
            max_detours: config.route.max_detours(),
            income_sum: report.incomes().iter().sum(),
            settlement_volume: report.settlement_volume(),
            settlement_tx_cost: report.settlement_tx_cost(),
            net_income_sum: report.net_income_bzz().iter().sum(),
            forced_settlements: report.forced_settlements(),
            requests,
            stuck: report.traffic().stuck_requests(),
            capacity_blocked: report.traffic().capacity_blocked(),
            delivered_routes: report.hops().total_routes(),
            max_hops: report.hops().max(),
            mean_hops: report.hops().mean().unwrap_or(0.0),
            f2_gini: report.f2_income_gini(),
            cache_hits: report.cache_hits(),
            repair_active: config.repair.repairs(),
            steps: config.files,
            repair_wait_max: report.traffic().repair_wait_max(),
            unreachable: report
                .churn()
                .and_then(|c| c.timeline.last())
                .map_or(0, |s| s.unreachable),
        }
    }

    /// Fraction of requests that were never delivered.
    pub fn drop_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.stuck as f64 / self.requests as f64
        }
    }

    /// Cache hits per issued request.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.requests as f64
        }
    }
}

/// One oracle violation: which invariant broke and how.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Violation {
    /// Stable oracle name (the catalog key in `docs/FUZZING.md`).
    pub oracle: String,
    /// Human-readable description of the breach.
    pub detail: String,
}

fn violation(oracle: &str, detail: String) -> Violation {
    Violation {
        oracle: oracle.to_string(),
        detail,
    }
}

/// `reward-conservation`: under ledger-settled mechanisms (Swarm,
/// pay-all-hops) with zero transaction cost and no free riders, the
/// mechanism's credited income must equal the ledger's settled volume —
/// the invariant `tests/` pins as `churned_incomes_match_ledger_volume`.
/// Forced settlements move ledger volume without crediting income, so
/// with any of those only the "income out of thin air" direction stays a
/// hard violation.
pub fn reward_conservation(m: &RunMetrics) -> Option<Violation> {
    if !matches!(m.mechanism, "swarm" | "pay-all-hops")
        || !m.tx_cost_zero
        || m.free_rider_fraction > 0.0
    {
        return None;
    }
    let income = m.income_sum.round() as u64;
    if income > m.settlement_volume {
        return Some(violation(
            "reward-conservation",
            format!(
                "credited income {income} exceeds settled volume {} (income minted outside the ledger)",
                m.settlement_volume
            ),
        ));
    }
    if m.forced_settlements == 0 && income != m.settlement_volume {
        return Some(violation(
            "reward-conservation",
            format!(
                "credited income {income} != settled volume {} with no forced settlements",
                m.settlement_volume
            ),
        ));
    }
    None
}

/// `settlement-imbalance`: ledger-internal consistency, mechanism
/// independent. Per-settlement netting is `max(amount − tx_cost, 0)`, so
/// the net-income sum must sit in `[volume − total tx costs, volume]`.
pub fn settlement_imbalance(m: &RunMetrics) -> Option<Violation> {
    if m.net_income_sum > m.settlement_volume {
        return Some(violation(
            "settlement-imbalance",
            format!(
                "net income {} exceeds gross settled volume {}",
                m.net_income_sum, m.settlement_volume
            ),
        ));
    }
    if m.net_income_sum + m.settlement_tx_cost < m.settlement_volume {
        return Some(violation(
            "settlement-imbalance",
            format!(
                "net income {} + tx costs {} below settled volume {} (settled BZZ vanished)",
                m.net_income_sum, m.settlement_tx_cost, m.settlement_volume
            ),
        ));
    }
    None
}

/// `routing-livelock`: greedy forwarding strictly increases the shared
/// prefix with the target every hop, so a route is at most `bits` hops;
/// capacity detours may add at most `max_detours` lateral hops on top.
/// A route longer than that cap means the walk revisited a region — a
/// routing livelock.
pub fn routing_livelock(m: &RunMetrics) -> Option<Violation> {
    let cap = m.bits as usize + m.max_detours;
    if m.delivered_routes > 0 && m.max_hops > cap {
        return Some(violation(
            "routing-livelock",
            format!(
                "observed a {}-hop route; cap is {} ({} bits + {} detours)",
                m.max_hops, cap, m.bits, m.max_detours
            ),
        ));
    }
    None
}

/// `capacity-accounting`: every issued request is either delivered (one
/// hop-histogram record) or stuck, and capacity blocks are a subset of
/// stuck requests.
pub fn capacity_accounting(m: &RunMetrics) -> Option<Violation> {
    if m.capacity_blocked > m.stuck {
        return Some(violation(
            "capacity-accounting",
            format!(
                "{} capacity blocks exceed {} stuck requests",
                m.capacity_blocked, m.stuck
            ),
        ));
    }
    if m.delivered_routes + m.stuck != m.requests {
        return Some(violation(
            "capacity-accounting",
            format!(
                "delivered {} + stuck {} != issued {}",
                m.delivered_routes, m.stuck, m.requests
            ),
        ));
    }
    None
}

/// Slack before a k = 20 vs k = 4 Gini gap counts as an inversion.
///
/// At quick fuzzing dimensions the two ginis are close on many specs;
/// the oracle only flags gaps large enough to survive replay.
pub const INVERSION_EPSILON: f64 = 0.02;

/// `fairness-inversion`: the paper's headline claim is that k = 20 is
/// *fairer* (lower F2 Gini) than k = 4. A spec where k = 20 comes out
/// more than [`INVERSION_EPSILON`] *less* fair inverts that claim —
/// not an accounting bug but an adversarial configuration worth keeping.
pub fn fairness_inversion(gini_k4: f64, gini_k20: f64) -> Option<Violation> {
    if gini_k20 > gini_k4 + INVERSION_EPSILON {
        return Some(violation(
            "fairness-inversion",
            format!(
                "F2 gini {gini_k20:.4} at k=20 exceeds {gini_k4:.4} at k=4 (k=20 is less fair here)"
            ),
        ));
    }
    None
}

/// Minimum run length before [`durability_stall`] applies: very short
/// runs don't give the backoff schedule room to recover legitimately.
pub const STALL_MIN_STEPS: u64 = 32;

/// `durability-stall`: repair re-uploads are scheduled before user
/// traffic each step and retry without limit under doubling backoff, so
/// with [`RepairPolicy::ReReplicate`](fairswap_core::RepairPolicy) active
/// a lost region should recover within a handful of attempts. A region
/// that stayed unreachable for more than half the run — whether it
/// eventually recovered or was still lost at the end — means the repair
/// loop stalled.
pub fn durability_stall(m: &RunMetrics) -> Option<Violation> {
    if !m.repair_active || m.steps < STALL_MIN_STEPS {
        return None;
    }
    if m.repair_wait_max > m.steps / 2 {
        return Some(violation(
            "durability-stall",
            format!(
                "a region stayed unreachable for {} of {} steps under active repair ({} regions still lost at run end)",
                m.repair_wait_max, m.steps, m.unreachable
            ),
        ));
    }
    None
}

/// Runs every per-report oracle on one run's metrics.
pub fn check_report(m: &RunMetrics) -> Vec<Violation> {
    [
        reward_conservation(m),
        settlement_imbalance(m),
        routing_livelock(m),
        capacity_accounting(m),
        durability_stall(m),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// A stable, multi-line rendering of the full oracle catalog for docs and
/// `fairswap fuzz` help output.
pub const ORACLE_NAMES: [&str; 6] = [
    "reward-conservation",
    "settlement-imbalance",
    "routing-livelock",
    "capacity-accounting",
    "fairness-inversion",
    "durability-stall",
];

/// Convenience: the mechanism ids the conservation oracle applies to.
pub fn conservation_applies(mechanism: MechanismKind) -> bool {
    matches!(mechanism, MechanismKind::Swarm | MechanismKind::PayAllHops)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metrics view where every invariant holds.
    fn clean() -> RunMetrics {
        RunMetrics {
            bits: 16,
            mechanism: "swarm",
            tx_cost_zero: true,
            free_rider_fraction: 0.0,
            max_detours: 0,
            income_sum: 5000.0,
            settlement_volume: 5000,
            settlement_tx_cost: 0,
            net_income_sum: 5000,
            forced_settlements: 0,
            requests: 900,
            stuck: 100,
            capacity_blocked: 40,
            delivered_routes: 800,
            max_hops: 9,
            mean_hops: 2.4,
            f2_gini: 0.61,
            cache_hits: 25,
            repair_active: true,
            steps: 100,
            repair_wait_max: 12,
            unreachable: 0,
        }
    }

    #[test]
    fn clean_metrics_pass_every_oracle() {
        assert_eq!(check_report(&clean()), Vec::new());
    }

    #[test]
    fn reward_conservation_flags_minted_and_leaked_income() {
        // Violating: income the ledger never saw.
        let mut m = clean();
        m.income_sum = 5100.0;
        let v = reward_conservation(&m).expect("minted income");
        assert_eq!(v.oracle, "reward-conservation");
        assert!(v.detail.contains("5100"), "{}", v.detail);
        // Violating: volume settled that never became income, with no
        // forced settlement to explain it.
        let mut m = clean();
        m.income_sum = 4900.0;
        assert!(reward_conservation(&m).is_some());
        // Passing: the same deficit is explained by a forced settlement.
        m.forced_settlements = 1;
        assert!(reward_conservation(&m).is_none());
        // Passing: out of scope for minting mechanisms and free riders.
        let mut m = clean();
        m.income_sum = 9999.0;
        m.mechanism = "proof-of-bandwidth";
        assert!(reward_conservation(&m).is_none());
        let mut m = clean();
        m.income_sum = 4000.0;
        m.free_rider_fraction = 0.2;
        assert!(reward_conservation(&m).is_none());
    }

    #[test]
    fn settlement_imbalance_flags_both_directions() {
        // Violating: more net income than was ever settled.
        let mut m = clean();
        m.net_income_sum = 5001;
        let v = settlement_imbalance(&m).expect("overdrawn net income");
        assert_eq!(v.oracle, "settlement-imbalance");
        // Violating: settled BZZ vanished beyond the tx-cost explanation.
        let mut m = clean();
        m.net_income_sum = 4000;
        m.settlement_tx_cost = 500;
        assert!(settlement_imbalance(&m).is_some());
        // Passing: the deficit is exactly covered by tx costs (saturating
        // netting can also leave it smaller).
        let mut m = clean();
        m.net_income_sum = 4500;
        m.settlement_tx_cost = 500;
        assert!(settlement_imbalance(&m).is_none());
    }

    #[test]
    fn routing_livelock_flags_routes_past_the_cap() {
        // Violating: a 20-hop route in a 16-bit space with no detours.
        let mut m = clean();
        m.max_hops = 20;
        let v = routing_livelock(&m).expect("livelocked route");
        assert_eq!(v.oracle, "routing-livelock");
        assert!(v.detail.contains("20-hop"), "{}", v.detail);
        // Passing: the same hop count is legal once detours raise the cap.
        m.max_detours = 4;
        assert!(routing_livelock(&m).is_none());
        // Passing: no routes at all (nothing delivered) cannot livelock.
        let mut m = clean();
        m.delivered_routes = 0;
        m.max_hops = 99;
        assert!(routing_livelock(&m).is_none());
    }

    #[test]
    fn capacity_accounting_flags_leaks_and_superset_blocks() {
        // Violating: capacity blocks exceeding stuck requests.
        let mut m = clean();
        m.capacity_blocked = 101;
        let v = capacity_accounting(&m).expect("blocked > stuck");
        assert_eq!(v.oracle, "capacity-accounting");
        // Violating: a request neither delivered nor stuck.
        let mut m = clean();
        m.delivered_routes = 799;
        assert!(capacity_accounting(&m).is_some());
        // Passing: every request accounted for.
        assert!(capacity_accounting(&clean()).is_none());
    }

    #[test]
    fn fairness_inversion_needs_a_real_gap() {
        let v = fairness_inversion(0.50, 0.56).expect("clear inversion");
        assert_eq!(v.oracle, "fairness-inversion");
        assert!(v.detail.contains("0.5600"), "{}", v.detail);
        // Passing: inside the epsilon, or the expected ordering.
        assert!(fairness_inversion(0.50, 0.51).is_none());
        assert!(fairness_inversion(0.50, 0.40).is_none());
    }

    #[test]
    fn from_report_extracts_a_consistent_view() {
        let mut spec = fairswap_core::SimSpec::paper_defaults();
        spec.seed = 11;
        spec.topology.nodes = 120;
        spec.workload.files = 25;
        let report = spec.build().unwrap().run();
        let m = RunMetrics::from_report(&report);
        assert_eq!(m.mechanism, "swarm");
        assert!(m.requests > 0);
        assert!((0.0..=1.0).contains(&m.drop_rate()));
        assert!((0.0..=1.0).contains(&m.cache_hit_rate()));
        // A real default-policy run satisfies every oracle.
        assert_eq!(check_report(&m), Vec::new());
    }

    #[test]
    fn durability_stall_needs_active_repair_and_a_long_span() {
        // Violating: a region unreachable for most of the run while the
        // repair loop was supposed to be fixing it.
        let mut m = clean();
        m.repair_wait_max = 80;
        m.unreachable = 3;
        let v = durability_stall(&m).expect("stalled repair");
        assert_eq!(v.oracle, "durability-stall");
        assert!(v.detail.contains("80 of 100"), "{}", v.detail);
        // Passing: the same span without repair traffic is the expected
        // monitor-arm behavior, not a bug.
        m.repair_active = false;
        assert!(durability_stall(&m).is_none());
        // Passing: too short a run for the backoff schedule to settle.
        let mut m = clean();
        m.repair_wait_max = 20;
        m.steps = 30;
        assert!(durability_stall(&m).is_none());
        // Passing: waits inside the half-run budget.
        assert!(durability_stall(&clean()).is_none());
    }

    #[test]
    fn catalog_names_are_stable() {
        assert_eq!(ORACLE_NAMES.len(), 6);
        assert!(conservation_applies(MechanismKind::Swarm));
        assert!(conservation_applies(MechanismKind::PayAllHops));
        assert!(!conservation_applies(MechanismKind::TitForTat));
    }
}
