//! Criterion benchmarks for large-N topology construction — the guard on
//! the sorted-address-index builder that replaced the seed's O(n²)
//! all-pairs candidate scan.
//!
//! The interesting numbers are the growth rates: build time should scale
//! ~n·log n across the 1k → 100k rows (the quadratic baseline became
//! impractical around 30k nodes).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fairswap_kademlia::{AddressSpace, TopologyBuilder};

/// Bit width comfortably holding the largest benchmarked population.
const BITS: u32 = 22;

fn bench_build_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology_build");
    group.sample_size(10);
    for nodes in [1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("k4", nodes), &nodes, |b, &nodes| {
            b.iter(|| {
                black_box(
                    TopologyBuilder::new(AddressSpace::new(BITS).expect("valid width"))
                        .nodes(nodes)
                        .bucket_size(4)
                        .seed(0xFA12)
                        .build()
                        .expect("valid topology"),
                )
            });
        });
    }
    // The paper's other bucket size at the headline population.
    group.bench_with_input(
        BenchmarkId::new("k20", 100_000usize),
        &100_000usize,
        |b, &nodes| {
            b.iter(|| {
                black_box(
                    TopologyBuilder::new(AddressSpace::new(BITS).expect("valid width"))
                        .nodes(nodes)
                        .bucket_size(20)
                        .seed(0xFA12)
                        .build()
                        .expect("valid topology"),
                )
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_build_scaling);
criterion_main!(benches);
