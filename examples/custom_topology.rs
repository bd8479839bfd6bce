//! A tour of the overlay substrate: build a forwarding-Kademlia topology
//! by hand, inspect routing tables (the paper's Fig. 3), and trace a chunk
//! request hop by hop (the paper's Fig. 1).
//!
//! ```sh
//! cargo run --release --example custom_topology
//! ```

use fairswap::kademlia::{AddressSpace, NodeId, TopologyBuilder, TopologyMetrics};
use fairswap::storage::{CachePolicy, DownloadSim};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An 8-bit space like the paper's Fig. 3 illustration.
    let space = AddressSpace::new(8)?;
    let topology = TopologyBuilder::new(space)
        .nodes(64)
        .bucket_size(4)
        .seed(91)
        .build()?;
    topology.validate().expect("structural invariants hold");

    // Inspect one node's routing table, Fig. 3 style.
    let node = NodeId(0);
    let table = topology.table(node);
    println!(
        "routing table of {node} at address {:b}:",
        topology.address(node)
    );
    for bucket in table.buckets() {
        if bucket.is_empty() {
            continue;
        }
        let peers: Vec<String> = bucket
            .iter()
            .map(|(_, address)| format!("{address:b}"))
            .collect();
        println!("  bucket {:>2}: {}", bucket.index(), peers.join("  "));
    }
    println!(
        "neighborhood depth: {} | open connections: {}",
        table.neighborhood_depth(),
        table.connection_count()
    );

    // Trace a download request like Fig. 1: each hop forwards to its
    // closest known peer; the chunk returns along the same path.
    let chunk = space.address(0b0110_1001 & space.max_raw())?;
    let mut sim = DownloadSim::new(topology.clone(), CachePolicy::None);
    let route = sim.request_chunk(node, chunk);
    println!();
    println!("routing chunk {chunk:b} from {node}:");
    let mut current = topology.address(node);
    for &hop in &route.hops {
        let next = topology.address(hop);
        println!(
            "  {current:b} -> {next:b} (proximity to chunk: {})",
            next.proximity(chunk)
        );
        current = next;
    }
    println!(
        "outcome: {:?}; first (paid) hop: {:?}; storer: {:?}",
        route.outcome,
        route.first_hop(),
        route.server()
    );

    // Aggregate structure of the whole overlay.
    let metrics = TopologyMetrics::compute(&topology);
    println!();
    println!(
        "overlay: {} nodes, {:.1} connections/node, mean neighborhood depth {:.1}",
        metrics.nodes, metrics.mean_connections, metrics.mean_neighborhood_depth
    );
    Ok(())
}
