//! Greedy forwarding-Kademlia routing.
//!
//! In forwarding Kademlia (paper §III-A, Fig. 1) the request is *relayed*:
//! each node forwards to the peer in its own routing table closest to the
//! chunk address, and the chunk travels back along the same path. No node
//! learns the identity of the originator. For accounting purposes the
//! simulation needs the complete path, which [`Router::route`] returns.

use serde::{Deserialize, Serialize};

use crate::address::OverlayAddress;
use crate::topology::{NodeId, Topology};

/// Outcome of routing one chunk request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RouteOutcome {
    /// The route reached the node globally closest to the target — the
    /// storer under the paper's placement rule.
    Delivered,
    /// The originator itself is the globally closest node; no network
    /// traffic is generated.
    AlreadyAtStorer,
    /// The route could not reach the storer: its originator is offline,
    /// or (in the storage layer) a saturated hop refused it or its
    /// region has no live member. The chunk cannot be retrieved over this
    /// route.
    Stuck,
}

impl RouteOutcome {
    /// Whether the chunk was successfully retrieved.
    #[inline]
    pub fn is_delivered(&self) -> bool {
        matches!(self, Self::Delivered | Self::AlreadyAtStorer)
    }
}

/// The path a chunk request travelled.
///
/// `hops` excludes the originator and lists every node that forwarded or
/// served the request, in order; the last hop of a delivered route is the
/// storer. The *first* hop is the "zero-proximity" node the paper's Swarm
/// model pays directly (§III-B).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Route {
    originator: NodeId,
    target: OverlayAddress,
    hops: Vec<NodeId>,
    outcome: RouteOutcome,
}

impl Route {
    /// The node that issued the request.
    #[inline]
    pub fn originator(&self) -> NodeId {
        self.originator
    }

    /// The chunk address routed towards.
    #[inline]
    pub fn target(&self) -> OverlayAddress {
        self.target
    }

    /// All nodes after the originator, in forwarding order.
    #[inline]
    pub fn hops(&self) -> &[NodeId] {
        &self.hops
    }

    /// Number of hops (messages sent by the originator and relays).
    #[inline]
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// The first hop — the peer the originator contacted directly, which is
    /// the node that receives paid settlement under Swarm's default policy.
    #[inline]
    pub fn first_hop(&self) -> Option<NodeId> {
        self.hops.first().copied()
    }

    /// The final node on the path (the storer for delivered routes).
    #[inline]
    pub fn terminal(&self) -> Option<NodeId> {
        self.hops.last().copied()
    }

    /// The nodes that only *forwarded* (every hop except the terminal
    /// storer). For a one-hop route this is empty: the first hop served the
    /// chunk from its own storage.
    pub fn forwarders(&self) -> &[NodeId] {
        if self.hops.is_empty() {
            &[]
        } else {
            &self.hops[..self.hops.len() - 1]
        }
    }

    /// Routing outcome.
    #[inline]
    pub fn outcome(&self) -> RouteOutcome {
        self.outcome
    }
}

/// Stateless router over a [`Topology`].
#[derive(Debug, Clone, Copy)]
pub struct Router<'a> {
    topology: &'a Topology,
}

impl<'a> Router<'a> {
    /// Creates a router for `topology`.
    pub fn new(topology: &'a Topology) -> Self {
        Self { topology }
    }

    /// Routes a request from `originator` towards `target`.
    ///
    /// Each hop forwards to its known peer strictly closest (XOR) to the
    /// target; forwarding stops when the current node has no strictly closer
    /// peer. Because every hop strictly decreases the distance, the walk
    /// always terminates in at most `topology.len()` steps, and by the
    /// contract of [`Topology::next_hop`] it stops exactly at the closest
    /// live node, so no storer lookup is needed. A hop that
    /// [`Topology::next_hop_ending`] proves to be that node ends the walk
    /// without reading its table. An offline originator has no table to
    /// forward from and yields [`RouteOutcome::Stuck`].
    ///
    /// # Panics
    ///
    /// Panics if `originator` is not part of the topology.
    pub fn route(&self, originator: NodeId, target: OverlayAddress) -> Route {
        let route = |hops, outcome| Route {
            originator,
            target,
            hops,
            outcome,
        };
        let Some((mut next, mut ends)) = self.topology.next_hop_ending(originator, target) else {
            if !self.topology.is_live(originator) {
                return route(Vec::new(), RouteOutcome::Stuck);
            }
            debug_assert_eq!(self.topology.closest_node(target), originator);
            return route(Vec::new(), RouteOutcome::AlreadyAtStorer);
        };
        let mut hops = Vec::with_capacity(8);
        loop {
            hops.push(next);
            let after = if ends {
                None
            } else {
                self.topology.next_hop_ending(next, target)
            };
            let Some(after) = after else {
                debug_assert_eq!(self.topology.closest_node(target), next);
                return route(hops, RouteOutcome::Delivered);
            };
            (next, ends) = after;
        }
    }

    /// The topology this router operates on.
    pub fn topology(&self) -> &Topology {
        self.topology
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::AddressSpace;
    use crate::topology::TopologyBuilder;

    fn topology(nodes: usize, k: usize, seed: u64) -> Topology {
        TopologyBuilder::new(AddressSpace::new(16).unwrap())
            .nodes(nodes)
            .bucket_size(k)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn route_reaches_global_closest() {
        let t = topology(500, 4, 42);
        let router = Router::new(&t);
        let space = t.space();
        let mut delivered = 0usize;
        let mut stuck = 0usize;
        for raw in (0..=0xFFFFu64).step_by(131) {
            let target = space.address(raw).unwrap();
            let route = router.route(NodeId(0), target);
            match route.outcome() {
                RouteOutcome::Delivered => {
                    delivered += 1;
                    assert_eq!(route.terminal(), Some(t.closest_node(target)));
                }
                RouteOutcome::AlreadyAtStorer => {
                    assert_eq!(route.hop_count(), 0);
                }
                RouteOutcome::Stuck => stuck += 1,
            }
        }
        assert!(delivered > 0);
        // Sampled tables may rarely get stuck; the rate must be tiny.
        assert!(
            (stuck as f64) < 0.01 * (delivered as f64 + stuck as f64),
            "stuck {stuck} vs delivered {delivered}"
        );
    }

    #[test]
    fn distance_strictly_decreases_along_route() {
        let t = topology(300, 4, 7);
        let router = Router::new(&t);
        let space = t.space();
        let target = space.address(0x5A5A).unwrap();
        let route = router.route(NodeId(3), target);
        let mut last = space.distance(t.address(NodeId(3)), target);
        for &hop in route.hops() {
            let d = space.distance(t.address(hop), target);
            assert!(d < last, "distance must strictly decrease");
            last = d;
        }
    }

    #[test]
    fn already_at_storer_short_circuits() {
        let t = topology(100, 4, 9);
        let router = Router::new(&t);
        let origin = NodeId(17);
        let target = t.address(origin);
        let route = router.route(origin, target);
        assert_eq!(route.outcome(), RouteOutcome::AlreadyAtStorer);
        assert!(route.outcome().is_delivered());
        assert_eq!(route.first_hop(), None);
        assert_eq!(route.forwarders(), &[] as &[NodeId]);
    }

    #[test]
    fn offline_originator_is_stuck() {
        let mut t = topology(100, 4, 9);
        let origin = NodeId(17);
        let target = t.address(origin);
        t.remove_node(origin).unwrap();
        let route = Router::new(&t).route(origin, target);
        assert_eq!(route.outcome(), RouteOutcome::Stuck);
        assert_eq!(route.hop_count(), 0);
    }

    #[test]
    fn first_hop_is_in_originator_table() {
        let t = topology(400, 4, 13);
        let router = Router::new(&t);
        let target = t.space().address(0x0F0F).unwrap();
        let route = router.route(NodeId(5), target);
        if let Some(first) = route.first_hop() {
            assert!(t.table(NodeId(5)).knows(first));
        }
    }

    #[test]
    fn forwarders_exclude_terminal() {
        let t = topology(400, 4, 21);
        let router = Router::new(&t);
        let target = t.space().address(0xBEEF).unwrap();
        let route = router.route(NodeId(2), target);
        if route.hop_count() >= 1 {
            assert_eq!(route.forwarders().len(), route.hop_count() - 1);
            assert!(!route.forwarders().contains(&route.terminal().unwrap()));
        }
    }

    #[test]
    fn larger_k_never_lengthens_average_route() {
        // With more peers per bucket, greedy routing can only find better or
        // equal next hops on average (paper Table I rationale).
        let space = AddressSpace::new(16).unwrap();
        let avg_hops = |k: usize| {
            let t = TopologyBuilder::new(space)
                .nodes(500)
                .bucket_size(k)
                .seed(99)
                .build()
                .unwrap();
            let router = Router::new(&t);
            let mut total = 0usize;
            let mut count = 0usize;
            for raw in (0..=0xFFFFu64).step_by(53) {
                let route = router.route(NodeId(1), space.address(raw).unwrap());
                if route.outcome().is_delivered() {
                    total += route.hop_count();
                    count += 1;
                }
            }
            total as f64 / count as f64
        };
        assert!(avg_hops(20) <= avg_hops(4) + 0.05);
    }
}
