//! Criterion benchmarks for SWAP accounting: service recording, the
//! amortization tick over a loaded network, settlement sweeps, and the
//! per-chunk first-hop payment (chequebook lookup plus ledger record).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fairswap_kademlia::NodeId;
use fairswap_swap::{AccountingUnits, ChannelConfig, SwapNetwork};

fn loaded_network(nodes: usize, channels: usize) -> SwapNetwork {
    let mut net = SwapNetwork::new(
        nodes,
        ChannelConfig {
            payment_threshold: AccountingUnits(1_000_000),
            disconnect_threshold: AccountingUnits(10_000_000),
            refresh_rate: AccountingUnits(50),
        },
    );
    for i in 0..channels {
        let a = i % nodes;
        let b = (i * 7 + 1) % nodes;
        if a != b {
            net.record_service(NodeId(a), NodeId(b), AccountingUnits(100 + i as i64 % 900))
                .expect("valid service");
        }
    }
    net
}

fn bench_record_service(c: &mut Criterion) {
    let mut net = loaded_network(1000, 0);
    let mut i = 0usize;
    c.bench_function("swap_record_service", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            let consumer = NodeId(i % 1000);
            let server = NodeId((i * 13 + 1) % 1000);
            if consumer != server {
                black_box(
                    net.record_service(consumer, server, AccountingUnits(10))
                        .expect("unlimited thresholds"),
                );
            }
        });
    });
}

fn bench_tick(c: &mut Criterion) {
    c.bench_function("swap_tick_5000_channels", |b| {
        b.iter_batched(
            || loaded_network(1000, 5000),
            |mut net| black_box(net.tick()),
            criterion::BatchSize::LargeInput,
        );
    });
}

fn bench_settle_due(c: &mut Criterion) {
    c.bench_function("swap_settle_due_5000_channels", |b| {
        b.iter_batched(
            || {
                let mut net = SwapNetwork::new(
                    1000,
                    ChannelConfig {
                        payment_threshold: AccountingUnits(50),
                        disconnect_threshold: AccountingUnits(1_000_000),
                        refresh_rate: AccountingUnits::ZERO,
                    },
                );
                for i in 0..5000usize {
                    let a = i % 1000;
                    let b2 = (i * 7 + 1) % 1000;
                    if a != b2 {
                        net.record_service(NodeId(a), NodeId(b2), AccountingUnits(100))
                            .expect("below disconnect");
                    }
                }
                net
            },
            |mut net| black_box(net.settle_due().expect("funded wallets")),
            criterion::BatchSize::LargeInput,
        );
    });
}

/// Payers in the `pay_direct` group.
const PAYERS: usize = 1_000;
/// Beneficiaries per payer: about the size of a k = 20 routing table at
/// 1 000 nodes, i.e. every peer an originator can pay as its first hop.
const BENEFICIARIES: usize = 150;
/// Payment rounds; each round every payer pays once.
const ROUNDS: usize = 1_000;

/// The `slot`-th beneficiary of `payer`: 150 distinct peers, none the payer.
fn beneficiary(payer: usize, slot: usize) -> NodeId {
    NodeId((payer + 1 + slot * 6) % PAYERS)
}

/// 10^6 originator-pays-first-hop payments against chequebooks that already
/// hold every beneficiary, as in a long `paper_static` run.
fn bench_pay_direct(c: &mut Criterion) {
    let mut group = c.benchmark_group("pay_direct");
    group.sample_size(10);
    group.bench_function("1000_payers_150_beneficiaries_1e6_payments", |b| {
        b.iter_batched(
            || {
                let mut net = SwapNetwork::new(PAYERS, ChannelConfig::default());
                for payer in 0..PAYERS {
                    for slot in 0..BENEFICIARIES {
                        net.pay_direct(NodeId(payer), beneficiary(payer, slot), AccountingUnits(1))
                            .expect("funded wallets");
                    }
                }
                net
            },
            |mut net| {
                for round in 0..ROUNDS {
                    for payer in 0..PAYERS {
                        // 47 is coprime to 150, so each payer cycles
                        // through all its beneficiaries in a scattered order.
                        let payee = beneficiary(payer, (round * 47 + payer) % BENEFICIARIES);
                        black_box(
                            net.pay_direct(NodeId(payer), payee, AccountingUnits(5))
                                .expect("funded wallets"),
                        );
                    }
                }
                net
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_record_service,
    bench_tick,
    bench_settle_due,
    bench_pay_direct
);
criterion_main!(benches);
