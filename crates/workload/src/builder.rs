//! Workload construction and generation.

use std::error::Error;
use std::fmt;

use fairswap_kademlia::{AddressSpace, NodeId, OverlayAddress};

use crate::files::FileSizeDist;
use crate::originators::OriginatorPool;
use crate::popularity::{ChunkDist, ChunkSampler};
use crate::rng::{seeded, WorkloadRng};

/// Errors from workload configuration.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WorkloadError {
    /// The network has no nodes.
    EmptyNetwork,
    /// Originator fraction outside `(0, 1]`.
    InvalidFraction {
        /// The rejected fraction.
        fraction: f64,
    },
    /// File-size distribution with an empty or zero range.
    InvalidFileSize {
        /// Configured minimum.
        min: usize,
        /// Configured maximum.
        max: usize,
    },
    /// Zipf parameters out of range.
    InvalidZipf {
        /// Catalog size.
        catalog: usize,
        /// Exponent.
        exponent: f64,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyNetwork => write!(f, "workload needs at least one node"),
            Self::InvalidFraction { fraction } => {
                write!(f, "originator fraction must be in (0, 1], got {fraction}")
            }
            Self::InvalidFileSize { min, max } => {
                write!(f, "invalid file size range {min}..={max}")
            }
            Self::InvalidZipf { catalog, exponent } => {
                write!(
                    f,
                    "invalid zipf parameters: catalog {catalog}, exponent {exponent}"
                )
            }
        }
    }
}

impl Error for WorkloadError {}

/// One file download: the originator and the chunk addresses it requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileDownload {
    /// The requesting node.
    pub originator: NodeId,
    /// Addresses of the file's chunks.
    pub chunks: Vec<OverlayAddress>,
}

/// Builder for a [`Workload`].
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    space: AddressSpace,
    nodes: usize,
    originator_fraction: f64,
    file_size: FileSizeDist,
    chunk_dist: ChunkDist,
    seed: u64,
}

impl WorkloadBuilder {
    /// Starts a builder for a network of `nodes` nodes over `space`, with
    /// the paper defaults: 100% originators, uniform 100–1000-chunk files,
    /// uniform chunk addresses, seed `0xFA12`.
    pub fn new(space: AddressSpace, nodes: usize) -> Self {
        Self {
            space,
            nodes,
            originator_fraction: 1.0,
            file_size: FileSizeDist::paper_default(),
            chunk_dist: ChunkDist::Uniform,
            seed: 0xFA12,
        }
    }

    /// Fraction of nodes eligible to originate downloads (paper: 0.2 or 1.0).
    #[must_use]
    pub fn originator_fraction(mut self, fraction: f64) -> Self {
        self.originator_fraction = fraction;
        self
    }

    /// File-size distribution.
    #[must_use]
    pub fn file_size(mut self, dist: FileSizeDist) -> Self {
        self.file_size = dist;
        self
    }

    /// Chunk-address distribution.
    #[must_use]
    pub fn chunk_dist(mut self, dist: ChunkDist) -> Self {
        self.chunk_dist = dist;
        self
    }

    /// RNG seed for pool selection and all draws.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the workload generator.
    ///
    /// # Errors
    ///
    /// Returns the first configuration error found (see [`WorkloadError`]).
    pub fn build(&self) -> Result<Workload, WorkloadError> {
        self.file_size.validate()?;
        let mut rng = seeded(self.seed);
        let pool = OriginatorPool::sample(self.nodes, self.originator_fraction, &mut rng)?;
        let sampler = ChunkSampler::new(&self.chunk_dist, self.space, &mut rng)?;
        Ok(Workload {
            pool,
            file_size: self.file_size,
            sampler,
            rng,
        })
    }
}

/// A seeded stream of [`FileDownload`]s.
///
/// Also usable as an `Iterator` (never exhausts).
#[derive(Debug, Clone)]
pub struct Workload {
    pool: OriginatorPool,
    file_size: FileSizeDist,
    sampler: ChunkSampler,
    rng: WorkloadRng,
}

impl Workload {
    /// The originator pool in use.
    pub fn pool(&self) -> &OriginatorPool {
        &self.pool
    }

    /// Resamples the originator pool over the live node set with a full
    /// rescan (see [`OriginatorPool::sync_live`]).
    pub fn sync_live(&mut self, is_live: impl Fn(NodeId) -> bool) {
        self.pool.sync_live(is_live);
    }

    /// Applies one step's liveness flips to the originator pool without
    /// rescanning the population (see
    /// [`OriginatorPool::apply_membership`]). Called by churn-aware
    /// harnesses with exactly the nodes that joined or left this step.
    pub fn apply_membership(
        &mut self,
        changes: &[(NodeId, bool)],
        is_live: impl Fn(NodeId) -> bool,
    ) {
        self.pool.apply_membership(changes, is_live);
    }

    /// Draws the next file download from the workload's own RNG stream.
    pub fn next_download(&mut self) -> FileDownload {
        let originator = self.pool.pick(&mut self.rng);
        let size = self.file_size.sample(&mut self.rng);
        let chunks = (0..size)
            .map(|_| self.sampler.sample(&mut self.rng))
            .collect();
        FileDownload { originator, chunks }
    }
}

impl Iterator for Workload {
    type Item = FileDownload;

    fn next(&mut self) -> Option<FileDownload> {
        Some(self.next_download())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        AddressSpace::new(16).unwrap()
    }

    #[test]
    fn generates_paper_shaped_downloads() {
        let mut w = WorkloadBuilder::new(space(), 100)
            .originator_fraction(0.2)
            .seed(1)
            .build()
            .unwrap();
        for _ in 0..50 {
            let d = w.next_download();
            assert!((100..=1000).contains(&d.chunks.len()));
            assert!(w.pool().contains(d.originator));
        }
        assert_eq!(w.pool().len(), 20);
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = |seed| {
            let w = WorkloadBuilder::new(space(), 50)
                .seed(seed)
                .build()
                .unwrap();
            w.take(5).collect::<Vec<_>>()
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }

    #[test]
    fn iterator_interface() {
        let w = WorkloadBuilder::new(space(), 10)
            .file_size(FileSizeDist::Constant(3))
            .build()
            .unwrap();
        let downloads: Vec<FileDownload> = w.take(4).collect();
        assert_eq!(downloads.len(), 4);
        assert!(downloads.iter().all(|d| d.chunks.len() == 3));
    }

    #[test]
    fn propagates_configuration_errors() {
        assert!(matches!(
            WorkloadBuilder::new(space(), 0).build(),
            Err(WorkloadError::EmptyNetwork)
        ));
        assert!(matches!(
            WorkloadBuilder::new(space(), 10)
                .originator_fraction(0.0)
                .build(),
            Err(WorkloadError::InvalidFraction { .. })
        ));
        assert!(matches!(
            WorkloadBuilder::new(space(), 10)
                .file_size(FileSizeDist::Constant(0))
                .build(),
            Err(WorkloadError::InvalidFileSize { .. })
        ));
        assert!(matches!(
            WorkloadBuilder::new(space(), 10)
                .chunk_dist(ChunkDist::Zipf {
                    catalog: 0,
                    exponent: 1.0
                })
                .build(),
            Err(WorkloadError::InvalidZipf { .. })
        ));
    }

    #[test]
    fn zipf_workload_repeats_popular_chunks() {
        let mut w = WorkloadBuilder::new(space(), 10)
            .chunk_dist(ChunkDist::Zipf {
                catalog: 20,
                exponent: 1.2,
            })
            .file_size(FileSizeDist::Constant(100))
            .seed(3)
            .build()
            .unwrap();
        let d = w.next_download();
        let distinct: std::collections::HashSet<u64> = d.chunks.iter().map(|c| c.raw()).collect();
        assert!(distinct.len() <= 20);
    }

    #[test]
    fn error_display() {
        let e = WorkloadError::InvalidFraction { fraction: 2.0 };
        assert!(e.to_string().contains("2"));
    }
}
