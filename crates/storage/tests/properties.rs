//! Property-based tests for the storage-network model.

use fairswap_kademlia::{
    AddressSpace, BucketSizing, NodeId, RouteOutcome, Topology, TopologyBuilder,
};
use fairswap_storage::{
    CachePolicy, ChunkDelivery, DownloadSim, NodeCache, RepairSource, RoutePolicy,
};
use proptest::prelude::*;

fn topology(nodes: usize, k: usize, seed: u64) -> std::rc::Rc<Topology> {
    std::rc::Rc::new(
        TopologyBuilder::new(AddressSpace::new(12).expect("valid width"))
            .nodes(nodes)
            .bucket_size(k)
            .seed(seed)
            .build()
            .expect("valid topology"),
    )
}

proptest! {
    /// Placement: the route terminal of a delivered chunk is always the
    /// globally XOR-closest node.
    #[test]
    fn delivered_chunks_end_at_global_closest(
        nodes in 2usize..150,
        k in 1usize..6,
        seed in any::<u64>(),
        raws in prop::collection::vec(any::<u64>(), 1..30),
    ) {
        let t = topology(nodes, k, seed);
        let mut sim = DownloadSim::new(t.clone(), CachePolicy::None);
        for raw in raws {
            let chunk = t.space().address_truncated(raw);
            let delivery = sim.request_chunk(NodeId(0), chunk);
            if delivery.delivered() && !delivery.hops.is_empty() {
                prop_assert_eq!(delivery.server(), Some(t.closest_node(chunk)));
            }
        }
    }

    /// Traffic conservation: total forwarded equals the sum of hops over
    /// delivered routes; first-hop serves equal delivered multi-hop routes;
    /// requests equal chunks requested.
    #[test]
    fn traffic_counters_conserve(
        nodes in 2usize..120,
        seed in any::<u64>(),
        raws in prop::collection::vec(any::<u64>(), 0..60),
        origin_pick in any::<usize>(),
    ) {
        let t = topology(nodes, 4, seed);
        let origin = NodeId(origin_pick % t.len());
        let chunks: Vec<_> = raws.iter().map(|&r| t.space().address_truncated(r)).collect();
        let mut sim = DownloadSim::new(t.clone(), CachePolicy::None);
        let mut delivered_hops = 0u64;
        let mut delivered_with_hops = 0u64;
        let report = sim.download_file_with(origin, &chunks, |d| {
            if d.delivered() {
                delivered_hops += d.hops.len() as u64;
                if !d.hops.is_empty() {
                    delivered_with_hops += 1;
                }
            }
        });
        prop_assert_eq!(report.chunks, chunks.len());
        prop_assert_eq!(sim.stats().total_forwarded(), delivered_hops);
        let first_hops: u64 = sim.stats().served_first_hop().iter().sum();
        prop_assert_eq!(first_hops, delivered_with_hops);
        let requests: u64 = sim.stats().requests_issued().iter().sum();
        prop_assert_eq!(requests, chunks.len() as u64);
        let storer_serves: u64 = sim.stats().served_as_storer().iter().sum();
        prop_assert_eq!(storer_serves, delivered_with_hops);
    }

    /// Caching never lengthens a route and never changes the outcome of a
    /// request that would have been delivered.
    #[test]
    fn caching_only_shortens_routes(
        nodes in 10usize..120,
        seed in any::<u64>(),
        raw in any::<u64>(),
        repeats in 1usize..5,
    ) {
        let t = topology(nodes, 4, seed);
        let chunk = t.space().address_truncated(raw);
        let origin = NodeId(0);

        let mut plain = DownloadSim::new(t.clone(), CachePolicy::None);
        let mut cached = DownloadSim::new(t.clone(), CachePolicy::Lru { capacity: 128 });
        for _ in 0..repeats {
            let p = plain.request_chunk(origin, chunk);
            let c = cached.request_chunk(origin, chunk);
            prop_assert_eq!(p.delivered(), c.delivered());
            prop_assert!(c.hops.len() <= p.hops.len());
            // A cached route is a prefix of the uncached one.
            prop_assert_eq!(&p.hops[..c.hops.len()], &c.hops[..]);
        }
    }

    /// Merging split stats equals running everything in one simulator (the
    /// paper's multi-machine collection workflow).
    #[test]
    fn split_and_merge_equals_single_run(
        nodes in 4usize..80,
        seed in any::<u64>(),
        raws in prop::collection::vec(any::<u64>(), 2..40),
    ) {
        let t = topology(nodes, 4, seed);
        let chunks: Vec<_> = raws.iter().map(|&r| t.space().address_truncated(r)).collect();
        let mid = chunks.len() / 2;

        let mut whole = DownloadSim::new(t.clone(), CachePolicy::None);
        whole.download_file(NodeId(1), &chunks);

        let mut first = DownloadSim::new(t.clone(), CachePolicy::None);
        first.download_file(NodeId(1), &chunks[..mid]);
        let mut second = DownloadSim::new(t.clone(), CachePolicy::None);
        second.download_file(NodeId(1), &chunks[mid..]);

        let mut merged = first.stats().clone();
        merged.merge(second.stats());
        prop_assert_eq!(merged.forwarded(), whole.stats().forwarded());
        prop_assert_eq!(merged.served_first_hop(), whole.stats().served_first_hop());
        prop_assert_eq!(merged.stuck_requests(), whole.stats().stuck_requests());
    }
}

/// The route contract of every walk, checked against the topology the
/// walk ran on. Each hop is an entry of its predecessor's routing table
/// (starting from the originator) and strictly XOR-closer to the chunk than
/// that predecessor, so a walk is a simple path of at most `t.len()` hops
/// along table edges. A route served from storage ends at the closest live
/// node to the chunk, a cache never serves from that node (the storer's
/// cache is not consulted), a stuck route stops short of that node, and
/// only a live originator that is itself the closest live node is already
/// at the storer.
fn assert_walk_end(t: &Topology, d: &ChunkDelivery) {
    let space = t.space();
    let mut prev = d.originator;
    for &hop in &d.hops {
        assert!(t.table(prev).knows(hop), "{hop} is not in {prev}'s table");
        assert!(
            space.distance(t.address(hop), d.chunk) < space.distance(t.address(prev), d.chunk),
            "{hop} is not closer to the chunk than {prev}"
        );
        prev = hop;
    }
    let closest = t.closest_node(d.chunk);
    match d.outcome {
        RouteOutcome::Delivered if d.from_cache => assert_ne!(d.server(), Some(closest)),
        RouteOutcome::Delivered => assert_eq!(d.server(), Some(closest)),
        RouteOutcome::AlreadyAtStorer => {
            assert!(t.is_live(d.originator));
            assert_eq!(d.originator, closest);
            assert!(d.hops.is_empty());
        }
        RouteOutcome::Stuck => assert_ne!(d.server(), Some(closest)),
    }
}

proptest! {
    /// The engine's one walk stops where `next_hop` runs out, or where
    /// `next_hop_ending` flags the storer, with no storer lookup; this
    /// pins that the stop is the storer, and the route contract of
    /// [`assert_walk_end`], under everything that perturbs a walk: churn (joins, departures, dropped caches),
    /// bucket overrides, capacity budgets with detours, on-path caching,
    /// retries from originators that may have left since, and
    /// re-replication repairs from replicas or re-seeding originators.
    /// A first attempt is `AlreadyAtStorer` exactly when its originator
    /// is live, is the closest live node, and the chunk's region is not
    /// lost; an offline originator is stuck without a hop.
    #[test]
    fn walks_stop_exactly_at_the_closest_live_node(
        nodes in 8usize..100,
        (k, over) in (1usize..6, (any::<bool>(), 0u32..12, 1usize..64)),
        seed in any::<u64>(),
        (cached, budget, max_detours, region_bits) in
            (any::<bool>(), any::<bool>(), 0usize..4, 1u32..8),
        caps in prop::collection::vec(1u64..4, 100..=100),
        ops in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u64>()), 1..60),
    ) {
        let space = AddressSpace::new(12).expect("valid width");
        let mut sizing = BucketSizing::uniform(k);
        if let (true, bucket, cap) = over {
            sizing = sizing.with_override(bucket, cap);
        }
        let t = TopologyBuilder::new(space)
            .nodes(nodes)
            .bucket_sizing(sizing)
            .seed(seed)
            .build()
            .expect("valid topology");
        let cache = if cached { CachePolicy::Lru { capacity: 8 } } else { CachePolicy::None };
        let mut sim = DownloadSim::new(t, cache);
        if budget {
            sim.set_capacities(caps[..nodes].to_vec());
            sim.set_route_policy(RoutePolicy::CapacityDetour { max_detours });
        }
        sim.enable_durability(region_bits);
        sim.set_retry_policy(2, 1);
        let mut step = 1u64;
        let mut seen = Vec::new();
        for (kind, pick, raw) in ops {
            let node = NodeId(pick as usize % nodes);
            match kind % 8 {
                0 => {
                    if sim.topology_mut().remove_node(node).is_ok() {
                        sim.on_node_leave(node);
                        sim.note_departure(node, step);
                    }
                }
                1 => {
                    let _ = sim.topology_mut().add_node(node);
                }
                2 => {
                    sim.advance_step();
                    step += 1;
                    seen.clear();
                    sim.drain_retries(|d| seen.push(d.clone()));
                    let source =
                        if pick % 2 == 0 { RepairSource::Replica } else { RepairSource::Originator };
                    sim.run_repairs(source, |d| seen.push(d.clone()));
                    for d in &seen {
                        prop_assert!(d.delivered());
                        assert_walk_end(sim.topology(), d);
                    }
                }
                _ => {
                    let chunk = space.address_truncated(raw);
                    let unreachable = sim.stats().unreachable_requests();
                    let storer = sim.topology().closest_node(chunk);
                    let storer_lookups = sim.cache(storer).map(NodeCache::lookups);
                    let mut delivery = None;
                    sim.download_file_with(node, &[chunk], |d| delivery = Some(d.clone()));
                    let d = delivery.expect("one callback per chunk");
                    // The storer serves from storage: its cache counters
                    // and recency order stay untouched.
                    prop_assert_eq!(sim.cache(storer).map(NodeCache::lookups), storer_lookups);
                    let t = sim.topology();
                    assert_walk_end(t, &d);
                    let lost = sim.stats().unreachable_requests() > unreachable;
                    prop_assert_eq!(
                        d.outcome == RouteOutcome::AlreadyAtStorer,
                        !lost && t.is_live(node) && node == storer
                    );
                    if !t.is_live(node) {
                        prop_assert_eq!(d.outcome, RouteOutcome::Stuck);
                        prop_assert!(d.hops.is_empty());
                    }
                }
            }
        }
    }
}
