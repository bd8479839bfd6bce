//! Forwarding-Kademlia overlay substrate.
//!
//! This crate implements the overlay network that the paper's simulations run
//! on (paper §III-A and §IV-B):
//!
//! * an [`AddressSpace`] of configurable bit-width (the paper uses 16 bits)
//!   with [`OverlayAddress`]es compared by the Kademlia XOR metric,
//! * arena-backed per-node routing tables read through [`TableRef`] views
//!   over exact-shared-prefix [`BucketRef`] buckets of capacity `k` (Swarm
//!   default 4, Kademlia classic 20), with a bucket-ordered next-hop
//!   search that typically inspects a single bucket,
//! * a dynamic [`Topology`] built deterministically from a seed, whose
//!   [`Topology::add_node`] / [`Topology::remove_node`] repair every routing
//!   table incrementally, and
//! * the greedy forwarding-Kademlia hop rule, [`Topology::next_hop`]: each
//!   node relays a request to its table entry strictly closest to the
//!   target, and a live node has no such entry exactly when it is the
//!   [`Topology::closest_node`] — the storer. The storage layer walks this
//!   rule hop by hop and reports a [`RouteOutcome`].
//!
//! # Example
//!
//! ```
//! use fairswap_kademlia::{AddressSpace, TopologyBuilder};
//!
//! let space = AddressSpace::new(16)?;
//! let mut topology = TopologyBuilder::new(space)
//!     .nodes(100)
//!     .bucket_size(4)
//!     .seed(42)
//!     .build()?;
//! let target = space.address(0x1234)?;
//! let storer = topology.closest_node(target);
//! // Follow the greedy hops from the first node; the walk ends at the storer.
//! let mut current = topology.node_ids().next().unwrap();
//! while let Some(next) = topology.next_hop(current, target) {
//!     current = next;
//! }
//! assert_eq!(current, storer);
//! // Take the storer offline: responsibility moves to the next-closest
//! // live node, and the tables are repaired in place.
//! topology.remove_node(storer)?;
//! assert_ne!(topology.closest_node(target), storer);
//! assert!(topology.validate().is_ok());
//! # Ok::<(), fairswap_kademlia::KademliaError>(())
//! ```

mod address;
mod bucket;
mod error;
mod metrics;
mod router;
mod routing_table;
mod topology;

pub use address::{AddressSpace, Distance, OverlayAddress, Proximity};
pub use bucket::BucketRef;
pub use error::KademliaError;
pub use metrics::{BucketOccupancy, HopHistogram, TopologyMetrics};
pub use router::RouteOutcome;
pub use routing_table::TableRef;
pub use topology::{BucketSizing, NodeId, Topology, TopologyBuilder};
