//! The outcome of one greedy forwarding-Kademlia walk.
//!
//! In forwarding Kademlia (paper §III-A, Fig. 1) the request is *relayed*:
//! each node forwards to the peer in its own routing table closest to the
//! chunk address, and the chunk travels back along the same path. No node
//! learns the identity of the originator. This crate supplies the per-hop
//! rule ([`crate::Topology::next_hop`]); the storage layer runs the walk and
//! reports how it ended.

use serde::{Deserialize, Serialize};

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

#[cfg(test)]
mod tests {
    use crate::address::{AddressSpace, OverlayAddress};
    use crate::topology::{NodeId, Topology, TopologyBuilder};

    fn topology(nodes: usize, k: usize, seed: u64) -> Topology {
        TopologyBuilder::new(AddressSpace::new(16).unwrap())
            .nodes(nodes)
            .bucket_size(k)
            .seed(seed)
            .build()
            .unwrap()
    }

    /// The hops of the greedy walk from `origin`, following
    /// [`Topology::next_hop`] until it is `None`.
    fn walk(t: &Topology, origin: NodeId, target: OverlayAddress) -> Vec<NodeId> {
        let mut hops = Vec::new();
        let mut current = origin;
        while let Some(next) = t.next_hop(current, target) {
            assert!(hops.len() < t.len(), "walk longer than the overlay");
            hops.push(next);
            current = next;
        }
        hops
    }

    #[test]
    fn distance_strictly_decreases_along_route() {
        let t = topology(300, 4, 7);
        let space = t.space();
        let target = space.address(0x5A5A).unwrap();
        let hops = walk(&t, NodeId(3), target);
        assert!(!hops.is_empty());
        assert_eq!(hops.last(), Some(&t.closest_node(target)));
        let mut last = space.distance(t.address(NodeId(3)), target);
        for &hop in &hops {
            let d = space.distance(t.address(hop), target);
            assert!(d < last, "distance must strictly decrease");
            last = d;
        }
    }

    #[test]
    fn first_hop_is_in_originator_table() {
        let t = topology(400, 4, 13);
        let target = t.space().address(0x0F0F).unwrap();
        let hops = walk(&t, NodeId(5), target);
        let first = *hops.first().expect("NodeId(5) is not the storer");
        assert!(t.table(NodeId(5)).knows(first));
    }
}
