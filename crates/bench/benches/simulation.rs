//! End-to-end simulation benchmarks: one full file download step and a
//! small complete experiment, for both paper `k` values.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fairswap_core::{BucketSizing, SimSpec};
use fairswap_kademlia::{AddressSpace, NodeId, TopologyBuilder};
use fairswap_storage::{CachePolicy, DownloadSim};

fn bench_file_download_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("file_download_550_chunks");
    for k in [4usize, 20] {
        let space = AddressSpace::new(16).expect("valid width");
        let topology = TopologyBuilder::new(space)
            .nodes(1000)
            .bucket_size(k)
            .seed(0xFA12)
            .build()
            .expect("valid topology");
        // The paper's mean file size is 550 chunks.
        let chunks: Vec<_> = (0..550u64)
            .map(|i| space.address((i * 119) & 0xFFFF).expect("in range"))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            let mut sim = DownloadSim::new(topology.clone(), CachePolicy::None);
            b.iter(|| black_box(sim.download_file(NodeId(0), &chunks)));
        });
    }
    group.finish();
}

fn bench_small_experiment(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiment_300_nodes_50_files");
    group.sample_size(10);
    for k in [4usize, 20] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                let mut spec = SimSpec::paper_defaults();
                spec.topology.nodes = 300;
                spec.topology.bucket_sizing = BucketSizing::uniform(k);
                spec.workload.files = 50;
                let report = spec.build().expect("valid configuration").run();
                black_box(report.f2_income_gini())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_file_download_step, bench_small_experiment);
criterion_main!(benches);
