//! §V future-work experiment: content popularity + caching.
//!
//! The paper notes that "adding content popularity and caching policies
//! can also have an impact on time-based amortization due to the reduced
//! number of forwarded requests." This example crosses a uniform workload
//! with a Zipf-popular one, with and without per-node LRU caches, and
//! shows exactly that effect: under Zipf + LRU, forwarded traffic and the
//! amortized (unpaid) volume both drop.
//!
//! ```sh
//! cargo run --release --example caching_popularity
//! ```

use fairswap::core::SimSpec;
use fairswap::storage::CachePolicy;
use fairswap::workload::ChunkDist;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<9} {:<6} {:>15} {:>11} {:>13} {:>13}",
        "workload", "cache", "mean forwarded", "cache hits", "amortized", "income"
    );
    for (workload_label, dist) in [
        ("uniform", ChunkDist::Uniform),
        (
            "zipf",
            ChunkDist::Zipf {
                catalog: 1_000,
                exponent: 1.0,
            },
        ),
    ] {
        for (cache_label, cache) in [
            ("none", CachePolicy::None),
            ("lru", CachePolicy::Lru { capacity: 512 }),
        ] {
            let mut spec = SimSpec::paper_defaults();
            spec.topology.nodes = 300;
            spec.workload.files = 300;
            spec.workload.chunk_dist = dist.clone();
            spec.policies.cache = cache;
            let report = spec.build()?.run();
            let income: f64 = report.incomes().iter().sum();
            println!(
                "{:<9} {:<6} {:>15.1} {:>11} {:>13} {:>13.0}",
                workload_label,
                cache_label,
                report.mean_forwarded(),
                report.cache_hits(),
                report.amortized_total(),
                income,
            );
        }
    }
    println!();
    println!("note how zipf+lru cuts forwarding (shorter routes via cache hits),");
    println!("which shrinks the amortized unpaid volume the paper worries about.");
    Ok(())
}
