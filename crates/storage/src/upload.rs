//! The upload (push-sync) path.
//!
//! Paper §III-A: "Upload is done in a similar fashion, where nodes forward
//! the chunk and eventually return a confirmation." An uploaded chunk is
//! routed exactly like a download request — greedy forwarding toward the
//! chunk address — but the payload travels *with* the request, and the node
//! closest to the address stores the chunk; a receipt returns along the
//! same path. Bandwidth accounting is symmetric to download: every hop
//! transmits the chunk once, and the first hop is the originator's paid
//! zero-proximity peer.

use std::collections::HashSet;
use std::rc::Rc;

use serde::{Deserialize, Serialize};

use fairswap_kademlia::{NodeId, OverlayAddress, RouteOutcome, Router, Topology};

use crate::download::ChunkDelivery;
use crate::traffic::TrafficStats;

/// Outcome of uploading one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UploadReport {
    /// Chunks pushed.
    pub chunks: usize,
    /// Chunks that reached their storer.
    pub stored: usize,
    /// Chunks lost to stuck routes.
    pub stuck: usize,
    /// Total hops across all pushes.
    pub total_hops: usize,
}

/// Simulates push-sync uploads over a static topology.
///
/// Mirrors [`crate::DownloadSim`] for the upload direction, and tracks
/// which node stores which chunk so that a subsequent download simulation
/// can be seeded with realistic placement.
#[derive(Debug, Clone)]
pub struct UploadSim {
    topology: Rc<Topology>,
    stats: TrafficStats,
    /// Chunks stored per node (by raw address).
    stored: Vec<HashSet<u64>>,
}

impl UploadSim {
    /// Creates an upload simulator.
    pub fn new(topology: impl Into<Rc<Topology>>) -> Self {
        let topology = topology.into();
        let n = topology.len();
        Self {
            topology,
            stats: TrafficStats::new(n),
            stored: vec![HashSet::new(); n],
        }
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Accumulated traffic statistics (uploads count as forwarded chunks
    /// exactly like downloads — both directions move the 4KB payload).
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Chunks stored by `node`.
    pub fn stored_by(&self, node: NodeId) -> usize {
        self.stored.get(node.index()).map_or(0, HashSet::len)
    }

    /// Whether `node` stores `chunk`.
    pub fn stores(&self, node: NodeId, chunk: OverlayAddress) -> bool {
        self.stored
            .get(node.index())
            .is_some_and(|set| set.contains(&chunk.raw()))
    }

    /// Uploads all chunks of a file.
    pub fn upload_file(&mut self, originator: NodeId, chunks: &[OverlayAddress]) -> UploadReport {
        self.upload_file_with(originator, chunks, |_| {})
    }

    /// Uploads all chunks of a file, invoking `on_push` per chunk so
    /// incentive mechanisms can account the upload bandwidth (the
    /// [`ChunkDelivery`] shape is shared with downloads — "Each request for
    /// either upload and download is priced respective to the distance",
    /// paper §III-B).
    pub fn upload_file_with<F>(
        &mut self,
        originator: NodeId,
        chunks: &[OverlayAddress],
        mut on_push: F,
    ) -> UploadReport
    where
        F: FnMut(&ChunkDelivery),
    {
        let mut report = UploadReport {
            chunks: chunks.len(),
            stored: 0,
            stuck: 0,
            total_hops: 0,
        };
        for &chunk in chunks {
            let push = self.push_chunk(originator, chunk);
            if push.delivered() {
                report.stored += 1;
            } else {
                report.stuck += 1;
            }
            report.total_hops += push.hops.len();
            on_push(&push);
        }
        report
    }

    /// Pushes a single chunk toward its storer.
    ///
    /// The push takes exactly the [`Router::route`] walk, which stops at
    /// the storer without looking it up; an offline originator cannot
    /// push at all and counts as stuck.
    pub fn push_chunk(&mut self, originator: NodeId, chunk: OverlayAddress) -> ChunkDelivery {
        self.stats.add_request(originator);
        let route = Router::new(&self.topology).route(originator, chunk);
        let outcome = route.outcome();
        let hops = route.hops().to_vec();
        let storer = hops.last().copied().unwrap_or(originator);
        match outcome {
            RouteOutcome::Delivered => {
                for &hop in &hops {
                    self.stats.add_forwarded(hop);
                }
                let first = hops.first().copied().expect("delivered implies >=1 hop");
                self.stats.add_first_hop(first);
                self.stats.add_storer(storer);
            }
            RouteOutcome::AlreadyAtStorer => {}
            RouteOutcome::Stuck => self.stats.add_stuck(),
        }
        if outcome.is_delivered() {
            self.stored[storer.index()].insert(chunk.raw());
        }
        ChunkDelivery {
            originator,
            chunk,
            hops,
            from_cache: false,
            outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairswap_kademlia::{AddressSpace, TopologyBuilder};

    fn topology(nodes: usize, seed: u64) -> Topology {
        TopologyBuilder::new(AddressSpace::new(16).unwrap())
            .nodes(nodes)
            .bucket_size(4)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn uploads_place_chunks_on_global_closest() {
        let t = topology(200, 1);
        let mut sim = UploadSim::new(t.clone());
        let chunks: Vec<_> = (0..=0xFFFFu64)
            .step_by(977)
            .map(|raw| t.space().address(raw).unwrap())
            .collect();
        let report = sim.upload_file(NodeId(0), &chunks);
        assert_eq!(report.chunks, chunks.len());
        assert_eq!(report.stored + report.stuck, report.chunks);
        for &chunk in &chunks {
            let storer = t.closest_node(chunk);
            // Every successfully pushed chunk lives on its storer.
            if sim.stores(storer, chunk) {
                continue;
            }
            // Otherwise the route must have been stuck.
            assert!(report.stuck > 0);
        }
        let stored_total: usize = t.node_ids().map(|n| sim.stored_by(n)).sum();
        assert_eq!(stored_total, report.stored);
    }

    #[test]
    fn upload_route_matches_download_route() {
        // Same greedy path in both directions (paper Fig. 1: the chunk
        // travels the same route back).
        let t = topology(200, 3);
        let chunk = t.space().address(0x4242).unwrap();
        let origin = NodeId(7);
        let mut up = UploadSim::new(t.clone());
        let mut down = crate::download::DownloadSim::new(t.clone(), crate::CachePolicy::None);
        let pushed = up.push_chunk(origin, chunk);
        let fetched = down.request_chunk(origin, chunk);
        assert_eq!(pushed.hops, fetched.hops);
        assert_eq!(pushed.outcome, fetched.outcome);
    }

    #[test]
    fn self_storage_when_originator_is_closest() {
        let t = topology(100, 5);
        let chunk = t.space().address(0x1001).unwrap();
        let storer = t.closest_node(chunk);
        let mut sim = UploadSim::new(t.clone());
        let push = sim.push_chunk(storer, chunk);
        assert_eq!(push.outcome, RouteOutcome::AlreadyAtStorer);
        assert!(sim.stores(storer, chunk));
        assert_eq!(sim.stats().total_forwarded(), 0);
    }

    #[test]
    fn offline_originator_stores_nothing() {
        let mut t = topology(100, 5);
        let chunk = t.space().address(0x1001).unwrap();
        let storer = t.closest_node(chunk);
        t.remove_node(storer).unwrap();
        let mut sim = UploadSim::new(t);
        let push = sim.push_chunk(storer, chunk);
        assert_eq!(push.outcome, RouteOutcome::Stuck);
        assert!(push.hops.is_empty());
        assert!(!sim.stores(storer, chunk));
        assert_eq!(sim.stats().stuck_requests(), 1);
    }

    #[test]
    fn callback_sees_paid_first_hop() {
        let t = topology(150, 9);
        let mut sim = UploadSim::new(t.clone());
        let chunk = t.space().address(0xBEEF).unwrap();
        let mut first = None;
        sim.upload_file_with(NodeId(2), &[chunk], |p| first = p.first_hop());
        if let Some(first) = first {
            assert!(t.table(NodeId(2)).knows(first));
            assert_eq!(sim.stats().served_first_hop()[first.index()], 1);
        }
    }

    #[test]
    fn duplicate_uploads_store_once() {
        let t = topology(100, 11);
        let chunk = t.space().address(0x0F0F).unwrap();
        let storer = t.closest_node(chunk);
        let mut sim = UploadSim::new(t.clone());
        sim.push_chunk(NodeId(0), chunk);
        sim.push_chunk(NodeId(1), chunk);
        assert_eq!(sim.stored_by(storer), 1);
    }
}
