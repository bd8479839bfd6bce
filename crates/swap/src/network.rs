//! All SWAP channels of an overlay, plus settlement plumbing.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use fairswap_kademlia::NodeId;

use crate::channel::{BalanceOutcome, Channel, ChannelConfig};
use crate::cheque::{Chequebook, Settlement, SettlementLedger};
use crate::error::SwapError;
use crate::units::{AccountingUnits, Bzz};

/// Multiplicative mixer for `(usize, usize)` channel keys. The channel
/// map is probed two to three times per routed chunk, where the default
/// DoS-resistant SipHash is measurable overhead; node-pair keys from a
/// simulator need no adversarial resistance, and a fixed hasher also
/// makes map iteration order reproducible across runs (not that anything
/// may depend on it — every whole-map walk commutes or sorts).
#[derive(Debug, Clone, Default)]
pub struct PairHasher(u64);

impl Hasher for PairHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        // fxhash-style: rotate to spread low-entropy keys, multiply by a
        // large odd constant to mix into the high bits the map indexes by.
        self.0 = (self.0.rotate_left(26) ^ value).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }
}

type ChannelMap = HashMap<(usize, usize), Channel, BuildHasherDefault<PairHasher>>;

/// The SWAP state of a whole network: one lazily-created [`Channel`] per
/// pair of peers that ever exchanged service, per-node chequebooks and
/// wallets, and the global [`SettlementLedger`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SwapNetwork {
    nodes: usize,
    config: ChannelConfig,
    /// Channels keyed by `(a, b)` with `a < b`.
    channels: ChannelMap,
    /// Keys of channels that may carry a nonzero balance (every channel
    /// with a nonzero balance is here; zero-balance members are pruned by
    /// [`SwapNetwork::tick`]). Amortization, due-settlement sweeps and
    /// departure settlement walk this set instead of every channel ever
    /// created — the difference between O(recent traffic) and O(history)
    /// per simulation step.
    hot: Vec<(usize, usize)>,
    chequebooks: Vec<Chequebook>,
    wallets: Vec<Bzz>,
    ledger: SettlementLedger,
    /// Units each node gave away for free via amortization (creditor side).
    amortized_given: Vec<AccountingUnits>,
    /// Units each node received for free via amortization (debtor side).
    amortized_received: Vec<AccountingUnits>,
}

impl SwapNetwork {
    /// Creates a SWAP network of `nodes` peers with the given channel
    /// configuration, zero-cost settlements and a large default wallet
    /// endowment.
    pub fn new(nodes: usize, config: ChannelConfig) -> Self {
        Self::with_ledger(nodes, config, SettlementLedger::with_tx_cost(Bzz::ZERO))
    }

    /// Creates a SWAP network with an explicit settlement ledger (e.g. with
    /// a non-zero per-transaction cost for §V overhead experiments).
    pub fn with_ledger(nodes: usize, config: ChannelConfig, mut ledger: SettlementLedger) -> Self {
        ledger.size_for(nodes);
        Self {
            nodes,
            config,
            // Pre-size for a few channels per node; long runs still grow,
            // but the early doubling rehashes disappear.
            channels: ChannelMap::with_capacity_and_hasher(nodes * 4, Default::default()),
            hot: Vec::new(),
            chequebooks: vec![Chequebook::new(); nodes],
            // Endow wallets generously; the paper does not model depletion.
            // 2^50 per node keeps even network-wide u64 sums overflow-free.
            wallets: vec![Bzz(1 << 50); nodes],
            ledger,
            amortized_given: vec![AccountingUnits::ZERO; nodes],
            amortized_received: vec![AccountingUnits::ZERO; nodes],
        }
    }

    /// Number of peers.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// The channel configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    fn check_pair(&self, x: NodeId, y: NodeId) -> Result<(usize, usize), SwapError> {
        for peer in [x, y] {
            if peer.index() >= self.nodes {
                return Err(SwapError::UnknownPeer {
                    peer,
                    nodes: self.nodes,
                });
            }
        }
        if x == y {
            return Err(SwapError::SelfChannel { peer: x });
        }
        Ok((x.index().min(y.index()), x.index().max(y.index())))
    }

    /// Records that `server` provided `amount` of bandwidth service to
    /// `consumer`, growing the consumer's debt.
    ///
    /// # Errors
    ///
    /// * [`SwapError::NonPositiveAmount`] for zero/negative amounts.
    /// * [`SwapError::UnknownPeer`] / [`SwapError::SelfChannel`] for bad
    ///   endpoints.
    /// * [`SwapError::Disconnected`] if the consumer's debt already reached
    ///   the disconnect threshold (the creditor refuses service).
    pub fn record_service(
        &mut self,
        consumer: NodeId,
        server: NodeId,
        amount: AccountingUnits,
    ) -> Result<BalanceOutcome, SwapError> {
        if amount.raw() <= 0 {
            return Err(SwapError::NonPositiveAmount { amount });
        }
        let key = self.check_pair(consumer, server)?;
        let channel = self.channels.entry(key).or_default();
        // Refuse service only when it would push an already-frozen debt
        // further in the same direction.
        let server_is_a = server.index() == key.0;
        let balance = channel.balance().raw();
        let debtor_owes = if server_is_a { balance } else { -balance };
        if debtor_owes >= self.config.disconnect_threshold.raw() {
            return Err(SwapError::Disconnected {
                debtor: consumer,
                creditor: server,
                debt: AccountingUnits(debtor_owes),
            });
        }
        let outcome = if server_is_a {
            channel.record_a_serves(amount, &self.config)
        } else {
            channel.record_b_serves(amount, &self.config)
        };
        if !channel.is_hot() {
            channel.set_hot(true);
            self.hot.push(key);
        }
        Ok(outcome)
    }

    /// How much `debtor` currently owes `creditor` (zero if the balance
    /// leans the other way or no channel exists).
    pub fn debt(&self, debtor: NodeId, creditor: NodeId) -> AccountingUnits {
        let Ok(key) = self.check_pair(debtor, creditor) else {
            return AccountingUnits::ZERO;
        };
        let Some(channel) = self.channels.get(&key) else {
            return AccountingUnits::ZERO;
        };
        let balance = channel.balance().raw();
        // balance > 0 means b owes a.
        let owed = if creditor.index() == key.0 {
            balance
        } else {
            -balance
        };
        AccountingUnits(owed.max(0))
    }

    /// Whether the pair's channel refuses further service from `creditor`.
    pub fn is_frozen(&self, debtor: NodeId, creditor: NodeId) -> bool {
        self.debt(debtor, creditor) >= self.config.disconnect_threshold
    }

    /// Applies one tick of time-based amortization to every channel with
    /// an outstanding balance. Returns the total units forgiven this tick.
    ///
    /// Walks the nonzero-balance index rather than every channel (a
    /// zero-balance channel amortizes nothing), pruning channels whose
    /// balance reached zero. All per-channel effects commute, so the walk
    /// order cannot influence results.
    pub fn tick(&mut self) -> AccountingUnits {
        let mut total = AccountingUnits::ZERO;
        let mut kept = 0;
        for idx in 0..self.hot.len() {
            let key = self.hot[idx];
            let channel = self.channels.get_mut(&key).expect("hot channels exist");
            let balance_before = channel.balance().raw();
            let forgiven = channel.amortize(&self.config);
            if !forgiven.is_zero() {
                total += forgiven;
                // Positive balance: b owed a, so a forgave and b received.
                let (a, b) = key;
                let (creditor, debtor) = if balance_before > 0 { (a, b) } else { (b, a) };
                self.amortized_given[creditor] += forgiven;
                self.amortized_received[debtor] += forgiven;
            }
            if channel.balance().raw() != 0 {
                self.hot[kept] = key;
                kept += 1;
            } else {
                channel.set_hot(false);
            }
        }
        self.hot.truncate(kept);
        total
    }

    /// Settles the full outstanding debt from `debtor` to `creditor` in BZZ:
    /// issues a cheque, moves wallet funds, records the settlement.
    ///
    /// # Errors
    ///
    /// * [`SwapError::UnknownPeer`] / [`SwapError::SelfChannel`].
    /// * [`SwapError::InsufficientFunds`] if the debtor's wallet cannot
    ///   cover the debt.
    ///
    /// Settling a zero debt is a no-op returning `None`.
    pub fn settle(
        &mut self,
        debtor: NodeId,
        creditor: NodeId,
    ) -> Result<Option<Settlement>, SwapError> {
        let key = self.check_pair(debtor, creditor)?;
        let debt = self.debt(debtor, creditor);
        if debt.is_zero() {
            return Ok(None);
        }
        let amount = Bzz::from_units(debt).expect("debt is non-negative");
        let wallet = self.wallets[debtor.index()];
        let remaining = wallet
            .checked_sub(amount)
            .ok_or(SwapError::InsufficientFunds {
                payer: debtor,
                balance: wallet,
                needed: amount,
            })?;
        self.wallets[debtor.index()] = remaining;
        self.wallets[creditor.index()] += amount;
        self.chequebooks[debtor.index()].issue(debtor, creditor, amount);
        let channel = self.channels.get_mut(&key).expect("debt implies channel");
        channel.settle();
        Ok(Some(self.ledger.record(debtor, creditor, debt)))
    }

    /// Directly transfers `amount` BZZ from `payer` to `payee` and records
    /// it in the ledger without touching channel balances. This is the
    /// "paid settlement for requests generated by the originator itself"
    /// path of the paper's Swarm model, where the originator pays the first
    /// hop immediately.
    ///
    /// # Errors
    ///
    /// Same endpoint and funds conditions as [`SwapNetwork::settle`].
    pub fn pay_direct(
        &mut self,
        payer: NodeId,
        payee: NodeId,
        units: AccountingUnits,
    ) -> Result<Option<Settlement>, SwapError> {
        self.check_pair(payer, payee)?;
        if units.raw() <= 0 {
            return Ok(None);
        }
        let amount = Bzz::from_units(units).expect("positive units");
        let wallet = self.wallets[payer.index()];
        let remaining = wallet
            .checked_sub(amount)
            .ok_or(SwapError::InsufficientFunds {
                payer,
                balance: wallet,
                needed: amount,
            })?;
        self.wallets[payer.index()] = remaining;
        self.wallets[payee.index()] += amount;
        self.chequebooks[payer.index()].issue(payer, payee, amount);
        Ok(Some(self.ledger.record(payer, payee, units)))
    }

    /// Settles every channel whose debt reached the payment threshold.
    /// Returns the settlements performed.
    ///
    /// # Errors
    ///
    /// Propagates [`SwapError::InsufficientFunds`] from individual
    /// settlements; earlier settlements in the sweep remain applied.
    pub fn settle_due(&mut self) -> Result<Vec<Settlement>, SwapError> {
        // A due balance is nonzero, so the hot index covers every
        // candidate without touching settled history.
        let due: Vec<(usize, usize, bool)> = self
            .hot
            .iter()
            .filter_map(|&(a, b)| {
                let channel = &self.channels[&(a, b)];
                let balance = channel.balance();
                if balance.abs() >= self.config.payment_threshold {
                    // balance > 0: b owes a.
                    Some((a, b, balance.raw() > 0))
                } else {
                    None
                }
            })
            .collect();
        let mut settlements = Vec::with_capacity(due.len());
        for (a, b, b_owes_a) in due {
            let (debtor, creditor) = if b_owes_a {
                (NodeId(b), NodeId(a))
            } else {
                (NodeId(a), NodeId(b))
            };
            if let Some(s) = self.settle(debtor, creditor)? {
                settlements.push(s);
            }
        }
        Ok(settlements)
    }

    /// Settles every channel of `node` that carries outstanding debt, in
    /// both directions: `node` pays what it owes and collects what it is
    /// owed. This is the SWAP departure protocol for churn experiments —
    /// a leaving peer closes its chequebook against all counterparties so
    /// no balance is stranded on a dead channel.
    ///
    /// Counterparties are settled in ascending id order, so the settlement
    /// sequence is deterministic.
    ///
    /// # Errors
    ///
    /// * [`SwapError::UnknownPeer`] for out-of-range nodes.
    /// * [`SwapError::InsufficientFunds`] from individual settlements;
    ///   earlier settlements in the sweep remain applied.
    pub fn settle_node(&mut self, node: NodeId) -> Result<Vec<Settlement>, SwapError> {
        if node.index() >= self.nodes {
            return Err(SwapError::UnknownPeer {
                peer: node,
                nodes: self.nodes,
            });
        }
        // Outstanding debt means a nonzero balance, so the departing
        // node's channels of interest all sit in the hot index — the sweep
        // costs O(recently active channels), not O(every pair that ever
        // traded).
        let mut due: Vec<(NodeId, NodeId)> = self
            .hot
            .iter()
            .filter_map(|&(a, b)| {
                if a != node.index() && b != node.index() {
                    return None;
                }
                let balance = self.channels[&(a, b)].balance().raw();
                if balance == 0 {
                    return None;
                }
                // balance > 0 means b owes a.
                let (debtor, creditor) = if balance > 0 {
                    (NodeId(b), NodeId(a))
                } else {
                    (NodeId(a), NodeId(b))
                };
                Some((debtor, creditor))
            })
            .collect();
        due.sort_unstable();
        let mut settlements = Vec::with_capacity(due.len());
        for (debtor, creditor) in due {
            if let Some(settlement) = self.settle(debtor, creditor)? {
                settlements.push(settlement);
            }
        }
        Ok(settlements)
    }

    /// The settlement ledger.
    pub fn ledger(&self) -> &SettlementLedger {
        &self.ledger
    }

    /// The wallet balance of `node`.
    pub fn wallet(&self, node: NodeId) -> Bzz {
        self.wallets.get(node.index()).copied().unwrap_or(Bzz::ZERO)
    }

    /// The chequebook of `node`.
    pub fn chequebook(&self, node: NodeId) -> Option<&Chequebook> {
        self.chequebooks.get(node.index())
    }

    /// Units `node` gave away for free via amortization (as creditor).
    pub fn amortized_given(&self, node: NodeId) -> AccountingUnits {
        self.amortized_given
            .get(node.index())
            .copied()
            .unwrap_or(AccountingUnits::ZERO)
    }

    /// Units `node` consumed for free via amortization (as debtor).
    pub fn amortized_received(&self, node: NodeId) -> AccountingUnits {
        self.amortized_received
            .get(node.index())
            .copied()
            .unwrap_or(AccountingUnits::ZERO)
    }

    /// Number of channels that ever carried traffic.
    pub fn active_channels(&self) -> usize {
        self.channels.len()
    }

    /// Number of channels currently tracked as possibly carrying a
    /// balance (the amortization working set; pruned every tick).
    pub fn hot_channels(&self) -> usize {
        self.hot.len()
    }

    /// Net signed balance of each node across all its channels (positive:
    /// the network owes the node). The sum over all nodes is always zero.
    pub fn net_positions(&self) -> Vec<AccountingUnits> {
        let mut net = vec![AccountingUnits::ZERO; self.nodes];
        for (&(a, b), channel) in &self.channels {
            let balance = channel.balance();
            net[a] += balance;
            net[b] -= balance;
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(pay: i64, disc: i64, refresh: i64) -> ChannelConfig {
        ChannelConfig {
            payment_threshold: AccountingUnits(pay),
            disconnect_threshold: AccountingUnits(disc),
            refresh_rate: AccountingUnits(refresh),
        }
    }

    #[test]
    fn hot_index_tracks_exactly_the_outstanding_balances() {
        let mut net = SwapNetwork::new(6, config(1000, 2000, 3));
        // Three pairs trade; all are hot.
        for (c, s, amount) in [(0usize, 1usize, 6i64), (2, 3, 3), (4, 5, 2)] {
            net.record_service(NodeId(c), NodeId(s), AccountingUnits(amount))
                .unwrap();
        }
        assert_eq!(net.hot_channels(), 3);
        // One tick forgives 3 per channel: two balances reach zero and
        // must drop out of the working set; the amounts still amortized.
        let forgiven = net.tick();
        assert_eq!(forgiven, AccountingUnits(3 + 3 + 2));
        assert_eq!(net.hot_channels(), 1);
        assert_eq!(net.debt(NodeId(0), NodeId(1)), AccountingUnits(3));
        // The settled-out pair trades again and re-enters the set.
        net.record_service(NodeId(2), NodeId(3), AccountingUnits(5))
            .unwrap();
        assert_eq!(net.hot_channels(), 2);
        // Every channel with a nonzero balance is always tracked.
        let nonzero = net
            .channels
            .values()
            .filter(|c| !c.balance().is_zero())
            .count();
        assert_eq!(net.hot_channels(), nonzero);
        assert_eq!(net.active_channels(), 3, "history is never dropped");
    }

    #[test]
    fn service_creates_debt_in_the_right_direction() {
        let mut net = SwapNetwork::new(4, config(100, 200, 0));
        net.record_service(NodeId(2), NodeId(1), AccountingUnits(10))
            .unwrap();
        assert_eq!(net.debt(NodeId(2), NodeId(1)), AccountingUnits(10));
        assert_eq!(net.debt(NodeId(1), NodeId(2)), AccountingUnits::ZERO);
        // Opposite service nets out.
        net.record_service(NodeId(1), NodeId(2), AccountingUnits(4))
            .unwrap();
        assert_eq!(net.debt(NodeId(2), NodeId(1)), AccountingUnits(6));
        assert_eq!(net.active_channels(), 1);
    }

    #[test]
    fn rejects_bad_endpoints_and_amounts() {
        let mut net = SwapNetwork::new(2, ChannelConfig::default());
        assert!(matches!(
            net.record_service(NodeId(0), NodeId(5), AccountingUnits(1)),
            Err(SwapError::UnknownPeer { .. })
        ));
        assert!(matches!(
            net.record_service(NodeId(0), NodeId(0), AccountingUnits(1)),
            Err(SwapError::SelfChannel { .. })
        ));
        assert!(matches!(
            net.record_service(NodeId(0), NodeId(1), AccountingUnits::ZERO),
            Err(SwapError::NonPositiveAmount { .. })
        ));
    }

    #[test]
    fn payment_due_then_settle() {
        let mut net = SwapNetwork::new(3, config(50, 500, 0));
        let outcome = net
            .record_service(NodeId(0), NodeId(1), AccountingUnits(60))
            .unwrap();
        assert_eq!(
            outcome,
            BalanceOutcome::PaymentDue {
                debt: AccountingUnits(60)
            }
        );
        let wallet_before = net.wallet(NodeId(1));
        let settlement = net.settle(NodeId(0), NodeId(1)).unwrap().unwrap();
        assert_eq!(settlement.amount, Bzz(60));
        assert_eq!(net.debt(NodeId(0), NodeId(1)), AccountingUnits::ZERO);
        assert_eq!(net.wallet(NodeId(1)), wallet_before + Bzz(60));
        assert_eq!(net.ledger().transaction_count(), 1);
        assert_eq!(
            net.chequebook(NodeId(0)).unwrap().cumulative_to(NodeId(1)),
            Bzz(60)
        );
        // Settling again is a no-op.
        assert!(net.settle(NodeId(0), NodeId(1)).unwrap().is_none());
    }

    #[test]
    fn disconnect_threshold_blocks_further_service() {
        let mut net = SwapNetwork::new(2, config(10, 30, 0));
        net.record_service(NodeId(0), NodeId(1), AccountingUnits(30))
            .unwrap();
        assert!(net.is_frozen(NodeId(0), NodeId(1)));
        assert!(matches!(
            net.record_service(NodeId(0), NodeId(1), AccountingUnits(1)),
            Err(SwapError::Disconnected { .. })
        ));
        // Service in the opposite direction is still allowed (reduces debt).
        net.record_service(NodeId(1), NodeId(0), AccountingUnits(5))
            .unwrap();
        assert_eq!(net.debt(NodeId(0), NodeId(1)), AccountingUnits(25));
    }

    #[test]
    fn tick_amortizes_and_attributes_free_service() {
        let mut net = SwapNetwork::new(2, config(1000, 2000, 7));
        net.record_service(NodeId(0), NodeId(1), AccountingUnits(10))
            .unwrap();
        let forgiven = net.tick();
        assert_eq!(forgiven, AccountingUnits(7));
        assert_eq!(net.debt(NodeId(0), NodeId(1)), AccountingUnits(3));
        assert_eq!(net.amortized_given(NodeId(1)), AccountingUnits(7));
        assert_eq!(net.amortized_received(NodeId(0)), AccountingUnits(7));
        net.tick();
        assert_eq!(net.debt(NodeId(0), NodeId(1)), AccountingUnits::ZERO);
        assert_eq!(net.amortized_given(NodeId(1)), AccountingUnits(10));
        // Nothing left to forgive.
        assert_eq!(net.tick(), AccountingUnits::ZERO);
    }

    #[test]
    fn settle_due_sweeps_only_ripe_channels() {
        let mut net = SwapNetwork::new(4, config(20, 100, 0));
        net.record_service(NodeId(0), NodeId(1), AccountingUnits(25))
            .unwrap();
        net.record_service(NodeId(2), NodeId(3), AccountingUnits(5))
            .unwrap();
        let settlements = net.settle_due().unwrap();
        assert_eq!(settlements.len(), 1);
        assert_eq!(settlements[0].payer, NodeId(0));
        assert_eq!(settlements[0].payee, NodeId(1));
        assert_eq!(net.debt(NodeId(2), NodeId(3)), AccountingUnits(5));
    }

    #[test]
    fn settle_node_closes_both_directions() {
        let mut net = SwapNetwork::new(4, config(1_000, 10_000, 0));
        // Node 1 owes node 0; node 2 owes node 1; node 3 untouched.
        net.record_service(NodeId(1), NodeId(0), AccountingUnits(40))
            .unwrap();
        net.record_service(NodeId(2), NodeId(1), AccountingUnits(15))
            .unwrap();
        let settlements = net.settle_node(NodeId(1)).unwrap();
        assert_eq!(settlements.len(), 2);
        // Deterministic ascending-pair order: (1 pays 0), then (2 pays 1).
        assert_eq!(settlements[0].payer, NodeId(1));
        assert_eq!(settlements[0].payee, NodeId(0));
        assert_eq!(settlements[1].payer, NodeId(2));
        assert_eq!(settlements[1].payee, NodeId(1));
        assert_eq!(net.debt(NodeId(1), NodeId(0)), AccountingUnits::ZERO);
        assert_eq!(net.debt(NodeId(2), NodeId(1)), AccountingUnits::ZERO);
        // Idempotent once clean.
        assert!(net.settle_node(NodeId(1)).unwrap().is_empty());
        // Unknown peers rejected.
        assert!(net.settle_node(NodeId(9)).is_err());
    }

    #[test]
    fn pay_direct_moves_funds_without_channel() {
        let mut net = SwapNetwork::new(2, ChannelConfig::default());
        let before = net.wallet(NodeId(1));
        let s = net
            .pay_direct(NodeId(0), NodeId(1), AccountingUnits(12))
            .unwrap()
            .unwrap();
        assert_eq!(s.amount, Bzz(12));
        assert_eq!(net.wallet(NodeId(1)), before + Bzz(12));
        assert_eq!(net.debt(NodeId(0), NodeId(1)), AccountingUnits::ZERO);
        // Zero or negative amounts are no-ops.
        assert!(net
            .pay_direct(NodeId(0), NodeId(1), AccountingUnits::ZERO)
            .unwrap()
            .is_none());
    }

    #[test]
    fn net_positions_sum_to_zero() {
        let mut net = SwapNetwork::new(5, ChannelConfig::unlimited());
        net.record_service(NodeId(0), NodeId(1), AccountingUnits(10))
            .unwrap();
        net.record_service(NodeId(1), NodeId(2), AccountingUnits(3))
            .unwrap();
        net.record_service(NodeId(4), NodeId(0), AccountingUnits(8))
            .unwrap();
        let net_positions = net.net_positions();
        let total: AccountingUnits = net_positions.iter().copied().sum();
        assert_eq!(total, AccountingUnits::ZERO);
        assert_eq!(net_positions[1].raw(), 10 - 3);
    }
}
