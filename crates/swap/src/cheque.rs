//! Cheques, chequebooks and the settlement ledger.
//!
//! When a SWAP debt hits the payment threshold, the debtor compensates the
//! creditor in BZZ (paper Fig. 2, step 3b). Swarm implements this with
//! *cheques*: signed, cumulative payment promises cashed against the
//! issuer's on-chain chequebook contract. The simulation keeps an in-memory
//! equivalent and — because the paper's §V discussion worries that "the
//! transaction cost for receiving the reward might be more than the reward
//! amount" — charges a configurable per-transaction cost for every
//! settlement.
//!
//! Under the paper's Swarm model the originator pays the first hop of every
//! delivered chunk, so a run makes about one settlement per chunk. Neither
//! type here keeps anything per settlement: a [`Chequebook`] holds one entry
//! per beneficiary, found by binary search, and the [`SettlementLedger`]
//! keeps running totals, so accounting memory is O(nodes + channels)
//! whatever the traffic.

use serde::{Deserialize, Serialize};

use fairswap_kademlia::NodeId;

use crate::units::{AccountingUnits, Bzz};

/// A cumulative cheque from `issuer` to `beneficiary`.
///
/// `cumulative` is the total ever promised to this beneficiary; the amount
/// cashable by a new cheque is the difference to the previously cashed
/// cumulative total, mirroring Swarm's cumulative-cheque design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cheque {
    /// The paying node.
    pub issuer: NodeId,
    /// The paid node.
    pub beneficiary: NodeId,
    /// Cumulative BZZ promised to `beneficiary` over the channel lifetime.
    pub cumulative: Bzz,
    /// Serial number per (issuer, beneficiary) pair, starting at 1.
    pub serial: u64,
}

/// Per-node chequebook: issues cumulative cheques.
///
/// One entry per beneficiary, kept sorted by beneficiary id, so a cheque
/// to a known beneficiary costs one binary search. The first cheque to a
/// new beneficiary also shifts the entries after it once.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Chequebook {
    /// `(beneficiary, cumulative, serial)` triples, sorted by beneficiary.
    issued: Vec<(NodeId, Bzz, u64)>,
}

impl Chequebook {
    /// Creates an empty chequebook.
    pub fn new() -> Self {
        Self::default()
    }

    fn find(&self, beneficiary: NodeId) -> Result<usize, usize> {
        self.issued
            .binary_search_by_key(&beneficiary, |&(peer, _, _)| peer)
    }

    /// Issues a cheque increasing the cumulative payout to `beneficiary` by
    /// `amount`.
    pub fn issue(&mut self, issuer: NodeId, beneficiary: NodeId, amount: Bzz) -> Cheque {
        let (cumulative, serial) = match self.find(beneficiary) {
            Ok(at) => {
                let (_, cumulative, serial) = &mut self.issued[at];
                *cumulative += amount;
                *serial += 1;
                (*cumulative, *serial)
            }
            Err(at) => {
                self.issued.insert(at, (beneficiary, amount, 1));
                (amount, 1)
            }
        };
        Cheque {
            issuer,
            beneficiary,
            cumulative,
            serial,
        }
    }

    /// Cumulative BZZ promised to `beneficiary` so far.
    pub fn cumulative_to(&self, beneficiary: NodeId) -> Bzz {
        self.find(beneficiary)
            .map_or(Bzz::ZERO, |at| self.issued[at].1)
    }

    /// Number of distinct beneficiaries.
    pub fn beneficiary_count(&self) -> usize {
        self.issued.len()
    }

    /// Total BZZ promised across all beneficiaries.
    pub fn total_issued(&self) -> Bzz {
        self.issued.iter().map(|(_, c, _)| *c).sum()
    }
}

/// One executed settlement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Settlement {
    /// The paying node.
    pub payer: NodeId,
    /// The paid node.
    pub payee: NodeId,
    /// Accounting units cleared by this settlement.
    pub units: AccountingUnits,
    /// BZZ transferred.
    pub amount: Bzz,
    /// Transaction cost charged to the payee (deducted from the reward, as
    /// in "the transaction cost for receiving the reward").
    pub tx_cost: Bzz,
}

/// Running totals over every settlement of a simulation: the §V overhead
/// aggregates and each payee's gross and net income.
///
/// Nothing is kept per settlement. Memory is one gross and one net sum per
/// node of the owning [`SwapNetwork`](crate::SwapNetwork) (for a standalone
/// ledger, per payee id up to the largest one paid), and every query is O(1)
/// or, for the per-node incomes, O(nodes).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SettlementLedger {
    tx_cost: Bzz,
    count: usize,
    volume: Bzz,
    /// Gross BZZ received, indexed by payee id.
    gross: Vec<Bzz>,
    /// BZZ received net of transaction costs, indexed by payee id.
    net: Vec<Bzz>,
}

impl SettlementLedger {
    /// Creates an empty ledger where every settlement costs `tx_cost`.
    pub fn with_tx_cost(tx_cost: Bzz) -> Self {
        Self {
            tx_cost,
            ..Self::default()
        }
    }

    /// Sizes the per-payee sums for payees `0..nodes` up front, so the
    /// settlements of a network of `nodes` peers never regrow them (growing
    /// one payee at a time leaves reallocated blocks that fragment the heap:
    /// about 30 MB more peak RSS on a 10^5-node run).
    pub(crate) fn size_for(&mut self, nodes: usize) {
        if nodes > self.gross.len() {
            self.gross.resize(nodes, Bzz::ZERO);
            self.net.resize(nodes, Bzz::ZERO);
        }
    }

    /// The per-transaction cost.
    pub fn tx_cost(&self) -> Bzz {
        self.tx_cost
    }

    /// Records a settlement of `units` accounting units from `payer` to
    /// `payee` at the 1:1 BZZ rate. Returns the recorded settlement.
    pub fn record(&mut self, payer: NodeId, payee: NodeId, units: AccountingUnits) -> Settlement {
        let amount = Bzz::from_units(units.abs()).expect("abs is non-negative");
        self.count += 1;
        self.volume += amount;
        let at = payee.index();
        self.size_for(at + 1);
        self.gross[at] += amount;
        self.net[at] += amount.saturating_sub(self.tx_cost);
        Settlement {
            payer,
            payee,
            units: units.abs(),
            amount,
            tx_cost: self.tx_cost,
        }
    }

    /// Number of settlement transactions (the §V overhead count).
    pub fn transaction_count(&self) -> usize {
        self.count
    }

    /// Total BZZ moved.
    pub fn total_volume(&self) -> Bzz {
        self.volume
    }

    /// Total transaction costs paid across all settlements.
    pub fn total_tx_cost(&self) -> Bzz {
        // Every settlement is charged the same, fixed cost.
        Bzz(self.tx_cost.raw() * self.count as u64)
    }

    /// Net BZZ received per node after transaction costs, for `nodes` nodes.
    ///
    /// Each settlement contributes `amount - tx_cost`, or zero when the
    /// reward is smaller than the transaction cost — a payee simply would
    /// not cash such a cheque.
    pub fn net_income(&self, nodes: usize) -> Vec<Bzz> {
        first_nodes(&self.net, nodes)
    }

    /// Gross BZZ received per node ignoring transaction costs.
    pub fn gross_income(&self, nodes: usize) -> Vec<Bzz> {
        first_nodes(&self.gross, nodes)
    }
}

/// `sums` cut or zero-padded to exactly `nodes` entries.
fn first_nodes(sums: &[Bzz], nodes: usize) -> Vec<Bzz> {
    let mut income = vec![Bzz::ZERO; nodes];
    let kept = nodes.min(sums.len());
    income[..kept].copy_from_slice(&sums[..kept]);
    income
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cheques_are_cumulative_with_serials() {
        let mut book = Chequebook::new();
        let c1 = book.issue(NodeId(0), NodeId(1), Bzz(10));
        assert_eq!(c1.cumulative, Bzz(10));
        assert_eq!(c1.serial, 1);
        let c2 = book.issue(NodeId(0), NodeId(1), Bzz(5));
        assert_eq!(c2.cumulative, Bzz(15));
        assert_eq!(c2.serial, 2);
        let c3 = book.issue(NodeId(0), NodeId(2), Bzz(7));
        assert_eq!(c3.cumulative, Bzz(7));
        assert_eq!(c3.serial, 1);
        assert_eq!(book.cumulative_to(NodeId(1)), Bzz(15));
        assert_eq!(book.cumulative_to(NodeId(9)), Bzz::ZERO);
        assert_eq!(book.beneficiary_count(), 2);
        assert_eq!(book.total_issued(), Bzz(22));
    }

    #[test]
    fn ledger_records_and_aggregates() {
        let mut ledger = SettlementLedger::with_tx_cost(Bzz(2));
        ledger.record(NodeId(0), NodeId(1), AccountingUnits(10));
        ledger.record(NodeId(2), NodeId(1), AccountingUnits(4));
        ledger.record(NodeId(0), NodeId(3), AccountingUnits(1));
        assert_eq!(ledger.transaction_count(), 3);
        assert_eq!(ledger.total_volume(), Bzz(15));
        assert_eq!(ledger.total_tx_cost(), Bzz(6));
        let gross = ledger.gross_income(4);
        assert_eq!(gross[1], Bzz(14));
        assert_eq!(gross[3], Bzz(1));
        let net = ledger.net_income(4);
        assert_eq!(net[1], Bzz(10));
        // Reward of 1 with tx cost 2 nets to zero, not negative.
        assert_eq!(net[3], Bzz::ZERO);
        assert_eq!(net[0], Bzz::ZERO);
    }

    #[test]
    fn negative_units_settle_by_magnitude() {
        let mut ledger = SettlementLedger::with_tx_cost(Bzz::ZERO);
        let s = ledger.record(NodeId(1), NodeId(0), AccountingUnits(-8));
        assert_eq!(s.amount, Bzz(8));
        assert_eq!(s.units, AccountingUnits(8));
    }

    #[test]
    fn empty_ledger() {
        let ledger = SettlementLedger::default();
        assert_eq!(ledger.transaction_count(), 0);
        assert_eq!(ledger.total_volume(), Bzz::ZERO);
        assert!(ledger.net_income(3).iter().all(Bzz::is_zero));
    }
}
