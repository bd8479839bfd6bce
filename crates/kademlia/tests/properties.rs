//! Property-based tests for the overlay substrate.

use fairswap_kademlia::{
    AddressSpace, BucketSizing, Distance, NodeId, OverlayAddress, Proximity, Topology,
    TopologyBuilder,
};
use fairswap_simcore::derive_rng;
use fairswap_simcore::rng::{domain, sub_seed};
use proptest::prelude::*;
use rand::Rng;

fn arb_bits() -> impl Strategy<Value = u32> {
    1u32..=64
}

proptest! {
    /// XOR distance is symmetric and zero exactly on the diagonal.
    #[test]
    fn distance_symmetric_and_identity(bits in arb_bits(), a in any::<u64>(), b in any::<u64>()) {
        let space = AddressSpace::new(bits).unwrap();
        let a = space.address_truncated(a);
        let b = space.address_truncated(b);
        prop_assert_eq!(space.distance(a, b), space.distance(b, a));
        prop_assert_eq!(space.distance(a, b).is_zero(), a == b);
    }

    /// The XOR metric satisfies the triangle *equality* relaxation:
    /// d(a,c) <= d(a,b) XOR-combined — concretely d(a,c) = d(a,b) ^ d(b,c)
    /// numerically, which implies d(a,c) <= d(a,b) + d(b,c).
    #[test]
    fn distance_triangle(bits in arb_bits(), a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let space = AddressSpace::new(bits).unwrap();
        let a = space.address_truncated(a);
        let b = space.address_truncated(b);
        let c = space.address_truncated(c);
        let ab = space.distance(a, b).raw() as u128;
        let bc = space.distance(b, c).raw() as u128;
        let ac = space.distance(a, c).raw() as u128;
        prop_assert_eq!(ac, ab ^ bc);
        prop_assert!(ac <= ab + bc);
    }

    /// Proximity is symmetric, bounded by the bit width, and saturates only
    /// on equal addresses.
    #[test]
    fn proximity_laws(bits in arb_bits(), a in any::<u64>(), b in any::<u64>()) {
        let space = AddressSpace::new(bits).unwrap();
        let a = space.address_truncated(a);
        let b = space.address_truncated(b);
        let p = space.proximity(a, b);
        prop_assert_eq!(p, space.proximity(b, a));
        prop_assert!(p.order() <= bits);
        prop_assert_eq!(p.order() == bits, a == b);
    }

    /// Proximity and distance agree: higher proximity implies strictly
    /// smaller distance when comparing two candidates against one target.
    #[test]
    fn proximity_refines_distance(
        bits in 2u32..=64,
        t in any::<u64>(),
        x in any::<u64>(),
        y in any::<u64>(),
    ) {
        let space = AddressSpace::new(bits).unwrap();
        let t = space.address_truncated(t);
        let x = space.address_truncated(x);
        let y = space.address_truncated(y);
        let (px, py) = (space.proximity(t, x), space.proximity(t, y));
        let (dx, dy) = (space.distance(t, x), space.distance(t, y));
        if px > py {
            prop_assert!(dx < dy, "prox {px} > {py} but dist {dx} >= {dy}");
        }
    }

    /// Distance to the common prefix: d(a,b) < 2^(bits - proximity).
    #[test]
    fn distance_bounded_by_proximity(bits in arb_bits(), a in any::<u64>(), b in any::<u64>()) {
        let space = AddressSpace::new(bits).unwrap();
        let a = space.address_truncated(a);
        let b = space.address_truncated(b);
        let p = space.proximity(a, b).order();
        if a != b {
            let bound = 1u128 << (bits - p);
            prop_assert!((space.distance(a, b).raw() as u128) < bound);
            // And at least 2^(bits - p - 1): the first differing bit is set.
            prop_assert!((space.distance(a, b).raw() as u128) >= bound / 2);
        }
    }

    /// Topologies always validate and the closest-node trie agrees with a
    /// linear scan for arbitrary targets.
    #[test]
    fn topology_valid_and_trie_correct(
        nodes in 2usize..80,
        k in 1usize..8,
        seed in any::<u64>(),
        target in any::<u64>(),
    ) {
        let space = AddressSpace::new(12).unwrap();
        let t = TopologyBuilder::new(space)
            .nodes(nodes)
            .bucket_size(k)
            .seed(seed)
            .build()
            .unwrap();
        prop_assert!(t.validate().is_ok());
        let target = space.address_truncated(target);
        let by_trie = t.closest_node(target);
        let best = t
            .node_ids()
            .min_by_key(|n| space.distance(t.address(*n), target))
            .unwrap();
        prop_assert_eq!(by_trie, best);
    }

    /// Greedy walks over `next_hop` terminate, take only table edges,
    /// strictly decrease the distance to the target, and a live originator
    /// ends at the closest live node (without a hop if it is that node);
    /// an offline originator takes no hop. Checked on the built topology
    /// and after some departures.
    #[test]
    fn routes_progress_and_terminate(
        nodes in 2usize..120,
        k in 1usize..6,
        seed in any::<u64>(),
        origin_pick in any::<usize>(),
        target in any::<u64>(),
        departures in prop::collection::vec(any::<u16>(), 0..8),
    ) {
        let space = AddressSpace::new(12).unwrap();
        let mut t = TopologyBuilder::new(space)
            .nodes(nodes)
            .bucket_size(k)
            .seed(seed)
            .build()
            .unwrap();
        let origin = NodeId(origin_pick % t.len());
        let target = space.address_truncated(target);
        for pick in std::iter::once(None).chain(departures.into_iter().map(Some)) {
            if let Some(pick) = pick {
                let _ = t.remove_node(NodeId(pick as usize % nodes));
            }
            let hops = greedy_walk(&t, origin, target);
            prop_assert!(hops.len() <= t.len());
            let mut prev = origin;
            let mut last = space.distance(t.address(origin), target);
            for &hop in &hops {
                prop_assert!(t.table(prev).knows(hop), "{} is not in {}'s table", hop, prev);
                let d = space.distance(t.address(hop), target);
                prop_assert!(d < last);
                prev = hop;
                last = d;
            }
            if !t.is_live(origin) {
                prop_assert!(hops.is_empty(), "offline {} forwards", origin);
            } else {
                prop_assert_eq!(prev, t.closest_node(target));
            }
        }
    }

    /// The arena-backed bucket-ordered next-hop search and the partial
    /// `closest_peers` selection match brute-force linear scans on every
    /// live table after an arbitrary interleaving of node departures and
    /// rejoins, and the structural invariants survive throughout.
    #[test]
    fn arena_tables_match_linear_reference_under_churn(
        nodes in 8usize..40,
        k in 1usize..6,
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<u16>(), any::<bool>()), 0..25),
        target in any::<u64>(),
    ) {
        let space = AddressSpace::new(12).unwrap();
        let mut t = TopologyBuilder::new(space)
            .nodes(nodes)
            .bucket_size(k)
            .seed(seed)
            .build()
            .unwrap();
        for (pick, join) in ops {
            let node = NodeId(pick as usize % nodes);
            if join {
                let _ = t.add_node(node);
            } else {
                let _ = t.remove_node(node);
            }
        }
        prop_assert!(t.validate().is_ok());
        let target = space.address_truncated(target);
        for owner in t.live_ids() {
            let table = t.table(owner);
            // next_hop == the strictly-closer minimum over a full scan
            // (XOR distances to distinct addresses are unique, so the
            // reference answer is unambiguous).
            let own = space.distance(t.address(owner), target);
            let reference = table
                .peers()
                .min_by_key(|(_, addr)| space.distance(*addr, target))
                .filter(|(_, addr)| space.distance(*addr, target) < own);
            prop_assert_eq!(table.next_hop(target), reference, "owner {}", owner);
            prop_assert_eq!(
                t.next_hop(owner, target),
                reference.map(|(id, _)| id),
                "owner {}",
                owner
            );
            // closest_peers == the sorted prefix of a full scan.
            let mut all: Vec<_> = table.peers().collect();
            all.sort_by_key(|(_, addr)| space.distance(*addr, target));
            for n in [0usize, 1, 2, k, nodes] {
                let mut expected = all.clone();
                expected.truncate(n);
                prop_assert_eq!(table.closest_peers(target, n), expected, "owner {}", owner);
            }
        }
        // Offline tables must be empty and unreachable from live ones.
        for node in t.node_ids() {
            if !t.is_live(node) {
                prop_assert_eq!(t.table(node).connection_count(), 0);
                prop_assert!(t.table(node).next_hop(target).is_none());
            }
        }
    }

    /// A greedy walk never visits the same node twice (follows from strict
    /// distance decrease, checked directly for defence in depth).
    #[test]
    fn routes_are_simple_paths(
        nodes in 2usize..100,
        seed in any::<u64>(),
        target in any::<u64>(),
    ) {
        let space = AddressSpace::new(10).unwrap();
        let t = TopologyBuilder::new(space)
            .nodes(nodes)
            .bucket_size(4)
            .seed(seed)
            .build()
            .unwrap();
        let target = space.address_truncated(target);
        let hops = greedy_walk(&t, NodeId(0), target);
        let mut seen = std::collections::HashSet::new();
        seen.insert(NodeId(0));
        for &hop in &hops {
            prop_assert!(seen.insert(hop), "revisited {hop}");
        }
    }
}

/// The hops of the greedy walk from `origin` toward `target`, following
/// [`Topology::next_hop`] until it is `None`. Stops after `len + 1` hops so
/// a walk that failed to make progress shows up as too long, not as a hang.
fn greedy_walk(t: &Topology, origin: NodeId, target: OverlayAddress) -> Vec<NodeId> {
    let mut hops = Vec::new();
    let mut current = origin;
    while let Some(next) = t.next_hop(current, target) {
        hops.push(next);
        if hops.len() > t.len() {
            break;
        }
        current = next;
    }
    hops
}

/// Brute-force model of the documented membership rules, applied by
/// linear scans over the whole population:
///
/// * a departure drops the node from every table that lists it and refills
///   each vacated bucket with the closest live peer at that proximity that
///   the bucket does not already hold;
/// * a join fills the joiner's own table with the closest `capacity` live
///   peers per bucket (nearest first), then appends the joiner to every
///   live owner's matching bucket that has room.
struct MembershipModel {
    space: AddressSpace,
    raws: Vec<u64>,
    live: Vec<bool>,
    capacities: Vec<usize>,
    /// `tables[owner][bucket]`: peer ids in bucket order.
    tables: Vec<Vec<Vec<usize>>>,
}

impl MembershipModel {
    fn of(t: &Topology, capacities: Vec<usize>) -> Self {
        Self {
            space: t.space(),
            raws: t.node_ids().map(|n| t.address(n).raw()).collect(),
            live: t.node_ids().map(|n| t.is_live(n)).collect(),
            capacities,
            tables: model_tables(t),
        }
    }

    fn bucket(&self, a: usize, b: usize) -> usize {
        let space = self.space;
        let addr = |i: usize| space.address(self.raws[i]).unwrap();
        space.proximity(addr(a), addr(b)).bucket_index()
    }

    /// Live peers of `owner` at proximity `bucket`, nearest first.
    fn candidates(&self, owner: usize, bucket: usize) -> Vec<usize> {
        let mut peers: Vec<usize> = (0..self.raws.len())
            .filter(|&p| p != owner && self.live[p] && self.bucket(owner, p) == bucket)
            .collect();
        peers.sort_by_key(|&p| self.raws[p] ^ self.raws[owner]);
        peers
    }

    /// Applies a departure; `false` when the topology must refuse it.
    fn remove(&mut self, node: usize) -> bool {
        let live = self.live.iter().filter(|&&l| l).count();
        if !self.live[node] || live <= 2 {
            return false;
        }
        self.live[node] = false;
        for owner in 0..self.raws.len() {
            if !self.live[owner] {
                continue;
            }
            let bucket = self.bucket(owner, node);
            let Some(pos) = self.tables[owner][bucket].iter().position(|&p| p == node) else {
                continue;
            };
            self.tables[owner][bucket].remove(pos);
            let held = &self.tables[owner][bucket];
            let refill = self
                .candidates(owner, bucket)
                .into_iter()
                .find(|p| !held.contains(p));
            if let Some(peer) = refill {
                self.tables[owner][bucket].push(peer);
            }
        }
        self.tables[node].iter_mut().for_each(Vec::clear);
        true
    }

    /// Applies a join; `false` when the topology must refuse it.
    fn add(&mut self, node: usize) -> bool {
        if self.live[node] {
            return false;
        }
        self.live[node] = true;
        for bucket in 0..self.capacities.len() {
            let mut closest = self.candidates(node, bucket);
            closest.truncate(self.capacities[bucket]);
            self.tables[node][bucket] = closest;
        }
        for owner in 0..self.raws.len() {
            if owner == node || !self.live[owner] {
                continue;
            }
            let bucket = self.bucket(owner, node);
            if self.tables[owner][bucket].len() < self.capacities[bucket] {
                self.tables[owner][bucket].push(node);
            }
        }
        true
    }
}

/// Every table of `t`, bucket by bucket, entries in bucket order.
fn model_tables(t: &Topology) -> Vec<Vec<Vec<usize>>> {
    t.tables()
        .map(|table| {
            table
                .buckets()
                .map(|bucket| bucket.iter().map(|(peer, _)| peer.index()).collect())
                .collect()
        })
        .collect()
}

proptest! {
    /// Incremental membership maintenance picks exactly the peers the
    /// documented rules pick: after every departure and join, every bucket
    /// of every table equals the brute-force model's, entry for entry and
    /// in order, and the structural invariants (including the reverse
    /// `knowers` index, which `validate` rebuilds from the tables) hold.
    /// The bucket override can exceed every candidate count, so buckets
    /// that can never fill are covered too.
    #[test]
    fn membership_matches_reference_model(
        bits in 2u32..=12,
        nodes in 2usize..80,
        k in 1usize..6,
        over in (any::<bool>(), 0u32..12, 1usize..64),
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<u16>(), any::<bool>()), 0..40),
    ) {
        let space = AddressSpace::new(bits).unwrap();
        let nodes = nodes.min(1 << bits);
        let mut sizing = BucketSizing::uniform(k);
        if let (true, bucket, cap) = over {
            sizing = sizing.with_override(bucket, cap);
        }
        let mut t = TopologyBuilder::new(space)
            .nodes(nodes)
            .bucket_sizing(sizing.clone())
            .seed(seed)
            .build()
            .unwrap();
        let mut model = MembershipModel::of(&t, sizing.capacities(bits));
        for (pick, join) in ops {
            let node = pick as usize % nodes;
            let accepted = if join {
                (t.add_node(NodeId(node)).is_ok(), model.add(node))
            } else {
                (t.remove_node(NodeId(node)).is_ok(), model.remove(node))
            };
            prop_assert_eq!(accepted.0, accepted.1, "join {} node {}", join, node);
            prop_assert_eq!(&model_tables(&t), &model.tables, "after join {} node {}", join, node);
            prop_assert_eq!(t.validate(), Ok(()));
        }
    }
}

proptest! {
    /// The termination contract every routing walk relies on: a live
    /// node's `next_hop` is `None` exactly when it is the closest live
    /// node to the target, and an offline node's is always `None`. The
    /// early stop rests on it too: `next_hop_ending` picks the same hop,
    /// and flags it as the end only when it is the closest live node.
    /// Checked after every departure and join, with uniform buckets and
    /// with an override that may exceed every candidate count.
    #[test]
    fn next_hop_is_none_exactly_at_the_closest_live_node(
        bits in 2u32..=12,
        nodes in 2usize..80,
        k in 1usize..6,
        over in (any::<bool>(), 0u32..12, 1usize..64),
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<u16>(), any::<bool>()), 0..40),
        targets in prop::collection::vec(any::<u64>(), 1..6),
    ) {
        let space = AddressSpace::new(bits).unwrap();
        let nodes = nodes.min(1 << bits);
        let mut sizing = BucketSizing::uniform(k);
        if let (true, bucket, cap) = over {
            sizing = sizing.with_override(bucket, cap);
        }
        let mut t = TopologyBuilder::new(space)
            .nodes(nodes)
            .bucket_sizing(sizing)
            .seed(seed)
            .build()
            .unwrap();
        let targets: Vec<_> = targets.iter().map(|&raw| space.address_truncated(raw)).collect();
        // The built topology first, then the state after every operation.
        for op in std::iter::once(None).chain(ops.into_iter().map(Some)) {
            if let Some((pick, join)) = op {
                let node = NodeId(pick as usize % nodes);
                let _ = if join { t.add_node(node) } else { t.remove_node(node) };
            }
            for &target in &targets {
                let closest = t.closest_node(target);
                for x in t.node_ids() {
                    let hop = t.next_hop(x, target);
                    if t.is_live(x) {
                        prop_assert_eq!(hop.is_none(), x == closest, "node {} target {}", x, target);
                    } else {
                        prop_assert!(hop.is_none(), "offline node {} forwards", x);
                    }
                    let ending = t.next_hop_ending(x, target);
                    prop_assert_eq!(ending.map(|(next, _)| next), hop);
                    if let Some((next, true)) = ending {
                        prop_assert_eq!(next, closest, "node {} target {}", x, target);
                    }
                }
            }
        }
    }
}

/// The tables the builder is specified to sample, by the plainest means:
/// for every owner and bucket `b`, the peers at proximity `b` sorted by
/// address, shuffled by a full partial Fisher–Yates pass
/// (`swap(i, rng.gen_range(i..len))` for the first `min(k_b, len)`
/// positions) drawing from the owner's own stream.
fn reference_tables(t: &Topology, capacities: &[usize]) -> Vec<Vec<Vec<usize>>> {
    let space = t.space();
    let table_seed = sub_seed(t.seed(), domain::TOPOLOGY);
    let mut by_address: Vec<NodeId> = t.node_ids().collect();
    by_address.sort_by_key(|&n| t.address(n).raw());
    t.node_ids()
        .map(|owner| {
            let mut rng = derive_rng(table_seed, owner.index(), 0);
            let owner_addr = t.address(owner);
            capacities
                .iter()
                .enumerate()
                .map(|(bucket, &capacity)| {
                    let mut candidates: Vec<usize> = by_address
                        .iter()
                        .filter(|&&peer| {
                            peer != owner
                                && space.proximity(owner_addr, t.address(peer)).bucket_index()
                                    == bucket
                        })
                        .map(|peer| peer.index())
                        .collect();
                    let take = capacity.min(candidates.len());
                    for i in 0..take {
                        let j = rng.gen_range(i..candidates.len());
                        candidates.swap(i, j);
                    }
                    candidates.truncate(take);
                    candidates
                })
                .collect()
        })
        .collect()
}

proptest! {
    /// The builder samples exactly the specified peers: every bucket of
    /// every freshly built table equals the reference shuffle's, entry for
    /// entry and in order, for any width, population, bucket sizing and
    /// seed. `validate` only pins the tables' structure and seed-equality
    /// tests only their reproducibility; this pins which peers are drawn.
    #[test]
    fn builder_matches_reference_sampler(
        bits in 1u32..=14,
        nodes in 2usize..300,
        k in 1usize..24,
        over in (any::<bool>(), 0u32..14, 1usize..64),
        seed in any::<u64>(),
    ) {
        let space = AddressSpace::new(bits).unwrap();
        let nodes = nodes.min(1 << bits);
        let mut sizing = BucketSizing::uniform(k);
        if let (true, bucket, cap) = over {
            sizing = sizing.with_override(bucket, cap);
        }
        let t = TopologyBuilder::new(space)
            .nodes(nodes)
            .bucket_sizing(sizing.clone())
            .seed(seed)
            .build()
            .unwrap();
        prop_assert_eq!(model_tables(&t), reference_tables(&t, &sizing.capacities(bits)));
    }
}

/// A clone taken before any membership change shares no reverse-index
/// state with its source: mutating the clone leaves both topologies valid.
#[test]
fn fresh_clone_mutates_independently() {
    let fresh = TopologyBuilder::new(AddressSpace::new(12).unwrap())
        .nodes(200)
        .bucket_size(4)
        .seed(61)
        .build()
        .unwrap();
    let mut churned = fresh.clone();
    for node in [3usize, 50, 120] {
        churned.remove_node(NodeId(node)).unwrap();
    }
    churned.add_node(NodeId(50)).unwrap();
    assert_eq!(churned.validate(), Ok(()));
    assert_eq!(fresh.validate(), Ok(()));
    assert_eq!(fresh.live_count(), 200);
    // The source still accepts its own first membership change.
    let mut source = fresh;
    source.remove_node(NodeId(3)).unwrap();
    assert_eq!(source.validate(), Ok(()));
}

#[test]
fn distance_and_proximity_types_are_ordered() {
    assert!(Distance(1) < Distance(2));
    assert!(Proximity(3) > Proximity(1));
}
