//! The p2p storage-network model (paper §III-A, §IV-B).
//!
//! Swarm stores all content as 4 KB chunks addressed in the same space as
//! nodes; each chunk is held by the node whose address is XOR-closest to the
//! chunk address (the paper simplifies to *exactly one* storer per chunk,
//! which this crate follows). Downloading a file means routing one request
//! per chunk through the forwarding-Kademlia overlay and counting who
//! forwarded, who served as first hop, and who served from storage or cache.
//! An upload is relayed along the same greedy path (§III-A), so the one
//! walk in [`DownloadSim`] also carries repair re-uploads.
//!
//! ```
//! use fairswap_kademlia::{AddressSpace, TopologyBuilder, NodeId};
//! use fairswap_storage::{DownloadSim, CachePolicy};
//!
//! let topology = TopologyBuilder::new(AddressSpace::new(16)?)
//!     .nodes(100)
//!     .bucket_size(4)
//!     .seed(7)
//!     .build()?;
//! let chunks = vec![topology.space().address(0x0123)?, topology.space().address(0xFEDC)?];
//! let mut sim = DownloadSim::new(topology.clone(), CachePolicy::None);
//! let report = sim.download_file(NodeId(0), &chunks);
//! assert_eq!(report.chunks, 2);
//! # Ok::<(), fairswap_kademlia::KademliaError>(())
//! ```

mod cache;
mod download;
mod route;
mod traffic;

pub use cache::{CachePolicy, CacheTotals, NodeCache};
pub use download::{ChunkDelivery, DownloadSim, FileReport, RepairSource};
pub use route::RoutePolicy;
pub use traffic::TrafficStats;
