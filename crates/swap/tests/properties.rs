//! Property-based tests for SWAP accounting invariants.

use fairswap_kademlia::NodeId;
use fairswap_swap::{
    AccountingUnits, Amortization, Bzz, ChannelConfig, Cheque, Chequebook, SettlementLedger,
    SwapError, SwapNetwork,
};
use proptest::prelude::*;

/// A random sequence of service events between a handful of nodes.
fn arb_events(nodes: usize) -> impl Strategy<Value = Vec<(usize, usize, i64)>> {
    prop::collection::vec(
        (0..nodes, 0..nodes, 1i64..500).prop_filter("distinct pair", |(a, b, _)| a != b),
        0..200,
    )
}

proptest! {
    /// Accounting conservation: signed net positions always sum to zero, no
    /// matter the order of services, amortization ticks and settlements.
    #[test]
    fn net_positions_conserved(
        events in arb_events(6),
        tick_every in 1usize..20,
    ) {
        let mut net = SwapNetwork::new(6, ChannelConfig {
            payment_threshold: AccountingUnits(400),
            disconnect_threshold: AccountingUnits(100_000),
            refresh_rate: AccountingUnits(37),
        });
        for (i, (consumer, server, amount)) in events.iter().enumerate() {
            let _ = net.record_service(
                NodeId(*consumer),
                NodeId(*server),
                AccountingUnits(*amount),
            );
            if i % tick_every == 0 {
                net.tick();
            }
            if i % (tick_every * 2 + 1) == 0 {
                net.settle_due().unwrap();
            }
        }
        let total: AccountingUnits = net.net_positions().iter().copied().sum();
        prop_assert_eq!(total, AccountingUnits::ZERO);
    }

    /// BZZ conservation: total wallet money plus nothing is created or
    /// destroyed by settlements (tx costs are charged against rewards in the
    /// ledger view, not the wallets).
    #[test]
    fn wallet_total_conserved(events in arb_events(5)) {
        let mut net = SwapNetwork::new(5, ChannelConfig {
            payment_threshold: AccountingUnits(300),
            disconnect_threshold: AccountingUnits(50_000),
            refresh_rate: AccountingUnits::ZERO,
        });
        let total_before: u64 = (0..5).map(|i| net.wallet(NodeId(i)).raw()).sum();
        for (consumer, server, amount) in &events {
            let _ = net.record_service(NodeId(*consumer), NodeId(*server), AccountingUnits(*amount));
        }
        net.settle_due().unwrap();
        let total_after: u64 = (0..5).map(|i| net.wallet(NodeId(i)).raw()).sum();
        prop_assert_eq!(total_before, total_after);
    }

    /// After settle_due, no channel debt is at or above the payment
    /// threshold.
    #[test]
    fn settle_due_clears_all_ripe_debts(events in arb_events(5)) {
        let mut net = SwapNetwork::new(5, ChannelConfig {
            payment_threshold: AccountingUnits(200),
            disconnect_threshold: AccountingUnits(100_000),
            refresh_rate: AccountingUnits::ZERO,
        });
        for (consumer, server, amount) in &events {
            let _ = net.record_service(NodeId(*consumer), NodeId(*server), AccountingUnits(*amount));
        }
        net.settle_due().unwrap();
        for a in 0..5usize {
            for b in 0..5usize {
                if a != b {
                    prop_assert!(
                        net.debt(NodeId(a), NodeId(b)) < AccountingUnits(200)
                    );
                }
            }
        }
    }

    /// Amortization is monotone: debts never grow from ticking, and total
    /// forgiven equals the drop in aggregate absolute balance.
    #[test]
    fn ticking_only_shrinks_debts(events in arb_events(4), ticks in 1usize..10) {
        let mut net = SwapNetwork::new(4, ChannelConfig {
            payment_threshold: AccountingUnits(i64::MAX / 4),
            disconnect_threshold: AccountingUnits(i64::MAX / 2),
            refresh_rate: AccountingUnits(13),
        });
        for (consumer, server, amount) in &events {
            let _ = net.record_service(NodeId(*consumer), NodeId(*server), AccountingUnits(*amount));
        }
        let debt_matrix = |net: &SwapNetwork| -> Vec<i64> {
            let mut m = Vec::new();
            for a in 0..4usize {
                for b in 0..4usize {
                    if a != b {
                        m.push(net.debt(NodeId(a), NodeId(b)).raw());
                    }
                }
            }
            m
        };
        let mut before = debt_matrix(&net);
        for _ in 0..ticks {
            net.tick();
            let after = debt_matrix(&net);
            for (x, y) in before.iter().zip(&after) {
                prop_assert!(y <= x, "debt grew from {x} to {y} during tick");
            }
            before = after;
        }
    }

    /// The standalone amortization schedule agrees with repeated channel
    /// ticks.
    #[test]
    fn schedule_matches_iterated_ticks(debt in 0i64..10_000, rate in 1i64..500, ticks in 0u64..64) {
        let schedule = Amortization::per_tick(AccountingUnits(rate));
        let expected = schedule.forgiven_after(AccountingUnits(debt), ticks);

        let mut net = SwapNetwork::new(2, ChannelConfig {
            payment_threshold: AccountingUnits(i64::MAX / 4),
            disconnect_threshold: AccountingUnits(i64::MAX / 2),
            refresh_rate: AccountingUnits(rate),
        });
        if debt > 0 {
            net.record_service(NodeId(0), NodeId(1), AccountingUnits(debt)).unwrap();
        }
        let mut forgiven = AccountingUnits::ZERO;
        for _ in 0..ticks {
            forgiven += net.tick();
        }
        prop_assert_eq!(forgiven, expected);
    }

    /// Direct payments preserve wallet totals and never touch balances.
    #[test]
    fn pay_direct_conserves(amounts in prop::collection::vec(1i64..1_000, 0..50)) {
        let mut net = SwapNetwork::new(3, ChannelConfig::default());
        let total_before: u64 = (0..3).map(|i| net.wallet(NodeId(i)).raw()).sum();
        for (i, amount) in amounts.iter().enumerate() {
            let payer = NodeId(i % 3);
            let payee = NodeId((i + 1) % 3);
            net.pay_direct(payer, payee, AccountingUnits(*amount)).unwrap();
        }
        let total_after: u64 = (0..3).map(|i| net.wallet(NodeId(i)).raw()).sum();
        prop_assert_eq!(total_before, total_after);
        let net_positions: AccountingUnits = net.net_positions().iter().copied().sum();
        prop_assert_eq!(net_positions, AccountingUnits::ZERO);
        prop_assert_eq!(net.active_channels(), 0);
    }

    /// The ledger's running totals equal a fold over the explicit list of
    /// settlements they replace. Transaction costs reach above many of the
    /// rewards, so below-cost settlements that net to zero are common.
    #[test]
    fn ledger_matches_reference_model(
        records in prop::collection::vec((0usize..8, 0usize..12, -400i64..400), 0..200),
        tx_cost in 0u64..50,
    ) {
        let tx_cost = Bzz(tx_cost);
        let mut ledger = SettlementLedger::with_tx_cost(tx_cost);
        // (payee, amount) of every settlement.
        let mut list: Vec<(usize, Bzz)> = Vec::new();
        for &(payer, payee, units) in &records {
            let s = ledger.record(NodeId(payer), NodeId(payee), AccountingUnits(units));
            prop_assert_eq!(s.amount, Bzz(units.unsigned_abs()));
            prop_assert_eq!(s.tx_cost, tx_cost);
            list.push((payee, s.amount));
        }
        prop_assert_eq!(ledger.transaction_count(), list.len());
        prop_assert_eq!(ledger.total_volume(), list.iter().map(|&(_, a)| a).sum::<Bzz>());
        prop_assert_eq!(ledger.total_tx_cost(), Bzz(tx_cost.raw() * list.len() as u64));
        let largest = list.iter().map(|&(payee, _)| payee).max().unwrap_or(0);
        for nodes in 0..=largest + 2 {
            let mut gross = vec![Bzz::ZERO; nodes];
            let mut net = vec![Bzz::ZERO; nodes];
            for &(payee, amount) in list.iter().filter(|&&(payee, _)| payee < nodes) {
                gross[payee] += amount;
                net[payee] += amount.saturating_sub(tx_cost);
            }
            prop_assert_eq!(ledger.gross_income(nodes), gross);
            prop_assert_eq!(ledger.net_income(nodes), net);
        }
    }

    /// The sorted chequebook issues the same cheques as a linear-scan book
    /// kept in first-payment order.
    #[test]
    fn chequebook_matches_linear_reference(
        payments in prop::collection::vec((0usize..40, 0u64..1_000), 0..300),
    ) {
        let issuer = NodeId(99);
        let mut book = Chequebook::new();
        let mut reference: Vec<(NodeId, Bzz, u64)> = Vec::new();
        for &(beneficiary, amount) in &payments {
            let (beneficiary, amount) = (NodeId(beneficiary), Bzz(amount));
            let (cumulative, serial) =
                match reference.iter_mut().find(|(peer, _, _)| *peer == beneficiary) {
                    Some((_, cumulative, serial)) => {
                        *cumulative += amount;
                        *serial += 1;
                        (*cumulative, *serial)
                    }
                    None => {
                        reference.push((beneficiary, amount, 1));
                        (amount, 1)
                    }
                };
            let expected = Cheque { issuer, beneficiary, cumulative, serial };
            prop_assert_eq!(book.issue(issuer, beneficiary, amount), expected);
        }
        for peer in 0..42 {
            let expected = reference
                .iter()
                .find(|(p, _, _)| *p == NodeId(peer))
                .map_or(Bzz::ZERO, |&(_, cumulative, _)| cumulative);
            prop_assert_eq!(book.cumulative_to(NodeId(peer)), expected);
        }
        prop_assert_eq!(book.beneficiary_count(), reference.len());
        prop_assert_eq!(book.total_issued(), reference.iter().map(|&(_, c, _)| c).sum::<Bzz>());
    }
}

#[test]
fn insufficient_funds_is_reported() {
    let mut net = SwapNetwork::new(2, ChannelConfig::default());
    // Drain node 0's wallet, then ask it to pay once more.
    let wallet = net.wallet(NodeId(0)).raw() as i64;
    net.pay_direct(NodeId(0), NodeId(1), AccountingUnits(wallet))
        .unwrap();
    let err = net
        .pay_direct(NodeId(0), NodeId(1), AccountingUnits(1))
        .unwrap_err();
    assert!(matches!(err, SwapError::InsufficientFunds { .. }));
    // Unknown peers are rejected before funds are checked.
    let err = net
        .pay_direct(NodeId(0), NodeId(9), AccountingUnits(1))
        .unwrap_err();
    assert!(matches!(err, SwapError::UnknownPeer { .. }));
}

#[test]
fn gross_income_matches_ledger_volume() {
    let mut net = SwapNetwork::new(4, ChannelConfig::default());
    net.pay_direct(NodeId(0), NodeId(1), AccountingUnits(5))
        .unwrap();
    net.pay_direct(NodeId(2), NodeId(1), AccountingUnits(7))
        .unwrap();
    net.pay_direct(NodeId(3), NodeId(2), AccountingUnits(2))
        .unwrap();
    let gross = net.ledger().gross_income(4);
    assert_eq!(gross[1], Bzz(12));
    assert_eq!(gross[2], Bzz(2));
    let total: Bzz = gross.into_iter().sum();
    assert_eq!(total, net.ledger().total_volume());
}
