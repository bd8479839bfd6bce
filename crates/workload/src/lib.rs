//! Workload generation for storage-network simulations.
//!
//! The paper's workload (§IV-B): each simulation step downloads one file; a
//! file is 100–1000 chunks (uniform) at addresses drawn uniformly from the
//! full 16-bit space; the originator is drawn uniformly from either 20% or
//! 100% of the nodes ("to evaluate the effect of skewed workloads"). The §V
//! future-work extension adds content popularity, which [`ChunkDist::Zipf`]
//! models over a fixed catalog of popular chunks.
//!
//! ```
//! use fairswap_kademlia::AddressSpace;
//! use fairswap_workload::{WorkloadBuilder, FileSizeDist};
//!
//! let space = AddressSpace::new(16)?;
//! let mut workload = WorkloadBuilder::new(space, 1000)
//!     .originator_fraction(0.2)
//!     .file_size(FileSizeDist::paper_default())
//!     .seed(0xFA12)
//!     .build()
//!     .expect("valid workload");
//! let download = workload.next_download();
//! assert!((100..=1000).contains(&download.chunks.len()));
//! # Ok::<(), fairswap_kademlia::KademliaError>(())
//! ```

mod builder;
mod files;
mod originators;
mod popularity;
mod rng;

pub use builder::{FileDownload, Workload, WorkloadBuilder, WorkloadError};
pub use files::FileSizeDist;
pub use originators::OriginatorPool;
pub use popularity::ChunkDist;
