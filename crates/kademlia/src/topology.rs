//! Overlay topologies: node address sets plus all routing tables.
//!
//! Topologies are built statically from a seed (the paper's setup) but — to
//! support dynamic-membership experiments — also expose mutation APIs:
//! [`Topology::remove_node`] takes a node offline and incrementally repairs
//! every routing table that referenced it, and [`Topology::add_node`] brings
//! it back (Swarm nodes keep their overlay address across sessions). Both
//! operations are deterministic and preserve the structural invariants
//! checked by [`Topology::validate`] — in particular the fullness
//! invariant: every live bucket holds `min(capacity, live candidates)`
//! entries. Neither scans the population. A departure costs one trie
//! descent per table that listed the node (`O((bits + k) log k)` each), and
//! a join costs its own table fill plus one live count per bucket, read off
//! the joiner's trie path, and one insert per owner that learns of it —
//! against refilling every table for a full rebuild (see
//! [`Topology::rebuilt_naive`]).

use std::collections::HashSet;
use std::fmt;
use std::ops::Range;

use fairswap_simcore::derive_rng;
use fairswap_simcore::rng::{domain, sub_seed};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

use crate::address::{AddressSpace, OverlayAddress};
use crate::error::KademliaError;
use crate::routing_table::{TableArena, TableRef};

/// Index of a node in a [`Topology`].
///
/// Node ids are dense (`0..topology.len()`) so simulations can keep per-node
/// statistics in plain vectors. Ids stay stable across [`Topology::remove_node`]
/// / [`Topology::add_node`]: an offline node keeps its slot (and address) and
/// is simply not part of the live overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying dense index.
    #[inline]
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// How large each routing-table bucket is.
///
/// The paper compares Swarm's default `k = 4` with Kademlia's classic
/// `k = 20` uniformly; its §V future work asks what happens "if we only
/// increase the k for a particular bucket, e.g., bucket zero" — which
/// [`BucketSizing::with_override`] expresses.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketSizing {
    default: usize,
    overrides: Vec<(u32, usize)>,
}

impl BucketSizing {
    /// Uniform bucket size `k` for every bucket.
    pub fn uniform(k: usize) -> Self {
        Self {
            default: k,
            overrides: Vec::new(),
        }
    }

    /// Overrides the capacity of one bucket index, keeping the default for
    /// the rest. Later overrides of the same bucket win.
    #[must_use]
    pub fn with_override(mut self, bucket: u32, k: usize) -> Self {
        self.overrides.push((bucket, k));
        self
    }

    /// The default (non-overridden) bucket size.
    pub fn default_k(&self) -> usize {
        self.default
    }

    /// Expands to one capacity per bucket for a `bits`-bit space.
    pub fn capacities(&self, bits: u32) -> Vec<usize> {
        let mut caps = vec![self.default; bits as usize];
        for &(bucket, k) in &self.overrides {
            if let Some(slot) = caps.get_mut(bucket as usize) {
                *slot = k;
            }
        }
        caps
    }

    fn validate(&self, bits: u32) -> Result<(), KademliaError> {
        if self.capacities(bits).contains(&0) {
            return Err(KademliaError::ZeroBucketSize);
        }
        Ok(())
    }
}

/// Builder for a [`Topology`].
///
/// ```
/// use fairswap_kademlia::{AddressSpace, TopologyBuilder};
///
/// let space = AddressSpace::new(16)?;
/// let topology = TopologyBuilder::new(space)
///     .nodes(1000)
///     .bucket_size(4)
///     .seed(0xFA12)
///     .build()?;
/// assert_eq!(topology.len(), 1000);
/// # Ok::<(), fairswap_kademlia::KademliaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    space: AddressSpace,
    nodes: usize,
    explicit_addresses: Option<Vec<u64>>,
    sizing: BucketSizing,
    seed: u64,
}

impl TopologyBuilder {
    /// Starts a builder over the given address space with the paper's
    /// defaults: 1000 nodes, uniform `k = 4`, seed `0xFA12`.
    pub fn new(space: AddressSpace) -> Self {
        Self {
            space,
            nodes: 1000,
            explicit_addresses: None,
            sizing: BucketSizing::uniform(4),
            seed: 0xFA12,
        }
    }

    /// Number of nodes to place at uniformly random distinct addresses.
    #[must_use]
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Uses an explicit list of raw node addresses instead of sampling.
    #[must_use]
    pub fn explicit_addresses<I: IntoIterator<Item = u64>>(mut self, addresses: I) -> Self {
        self.explicit_addresses = Some(addresses.into_iter().collect());
        self
    }

    /// Uniform bucket size `k`.
    #[must_use]
    pub fn bucket_size(mut self, k: usize) -> Self {
        self.sizing = BucketSizing::uniform(k);
        self
    }

    /// Full control over per-bucket capacities.
    #[must_use]
    pub fn bucket_sizing(mut self, sizing: BucketSizing) -> Self {
        self.sizing = sizing;
        self
    }

    /// RNG seed. The same seed always produces the same topology (paper:
    /// "random numbers are generated using the same seed to ensure
    /// consistency throughout all experiments").
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the topology: sample addresses, then fill every node's buckets
    /// by choosing `min(k_b, |candidates_b|)` peers uniformly without
    /// replacement from the exact-prefix candidate set.
    ///
    /// The candidates at proximity exactly `b` from an owner are one
    /// contiguous range of the sorted address index: the sibling half of
    /// the owner's depth-`b` prefix range. The build walks the index
    /// depth-first in address order, one `partition_point` per trie
    /// branch, so at each owner every bucket's candidate range is already
    /// on the walk's stack. Two walks fill the tables: the first writes
    /// each bucket's length, which fixes the arena layout, and the second
    /// samples every owner's buckets straight into their arena slots. The
    /// walks cost `O(n · bits · log n)` and sampling `O(k)` per table
    /// entry, against the quadratic all-pairs scan of a naive build.
    ///
    /// Walk 2 runs on every core for large builds. It splits the index at
    /// its top levels, one `partition_point` cut on the next address bit
    /// per level, as the walk itself does, until each of
    /// [`std::thread::available_parallelism`] scoped threads has a subtree.
    /// Each thread walks its subtree with its own copy of the sibling
    /// ranges above it and writes its owners' arena slots, one contiguous
    /// run of the sorted positions. Builds of fewer than 8 192 nodes stay
    /// on the calling thread. On an idle 2-vCPU host the split already won
    /// at 1 000 nodes (k = 4: 1.68 → 1.36 ms, median of 400 alternating
    /// builds), and at 8 192 nodes it took k = 20 from 72 to 41 ms and at
    /// 65 536 nodes from 794 to 447 ms. But a build of a few thousand nodes
    /// is mostly one job of an experiment grid or of a serve worker, whose
    /// other jobs already hold the cores, and there a spawn buys nothing.
    ///
    /// Neither the visiting order nor the thread count shows in the output:
    /// each owner draws from its own stream,
    /// `derive_rng(sub_seed(seed, TOPOLOGY), owner, 0)`, over candidate
    /// ranges in address order that do not depend on how the walk was
    /// split, and writes only its own slots. The reverse index of which
    /// owners list each node is left to the first membership change
    /// ([`Topology::remove_node`] / [`Topology::add_node`]) to build.
    ///
    /// # Errors
    ///
    /// * [`KademliaError::TooFewNodes`] for fewer than 2 nodes.
    /// * [`KademliaError::SpaceExhausted`] if the space cannot hold that many
    ///   distinct addresses.
    /// * [`KademliaError::ZeroBucketSize`] if any bucket capacity is 0.
    /// * [`KademliaError::AddressOutOfRange`] /
    ///   [`KademliaError::DuplicateAddress`] for bad explicit addresses.
    pub fn build(&self) -> Result<Topology, KademliaError> {
        self.build_with_threads(walk_threads)
    }

    /// [`TopologyBuilder::build`], with walk 2 on `threads(n)` threads for
    /// `n` nodes.
    pub(crate) fn build_with_threads(
        &self,
        threads: impl FnOnce(usize) -> usize,
    ) -> Result<Topology, KademliaError> {
        self.sizing.validate(self.space.bits())?;
        let mut rng = ChaCha12Rng::seed_from_u64(self.seed);

        let addresses: Vec<OverlayAddress> = match &self.explicit_addresses {
            Some(raws) => {
                let mut seen = HashSet::with_capacity(raws.len());
                let mut out = Vec::with_capacity(raws.len());
                for &raw in raws {
                    if !seen.insert(raw) {
                        return Err(KademliaError::DuplicateAddress { raw });
                    }
                    out.push(self.space.address(raw)?);
                }
                out
            }
            None => sample_distinct_addresses(self.space, self.nodes, &mut rng)?,
        };
        if addresses.len() < 2 {
            return Err(KademliaError::TooFewNodes {
                requested: addresses.len(),
            });
        }

        let capacities = self.sizing.capacities(self.space.bits());
        let n = addresses.len();

        let bits = self.space.bits() as usize;
        let index = SortedAddressIndex::new(&addresses);
        // Walk 1: every bucket's length, min(capacity, candidates), in
        // arena slot order. Initial buckets are exactly full, so the lengths
        // fix the layout.
        let mut lens = vec![0u32; n * bits];
        index.for_each_owner(bits, |pos, siblings| {
            let owner = index.node_at(pos);
            for ((len, sibling), &capacity) in lens[owner * bits..(owner + 1) * bits]
                .iter_mut()
                .zip(siblings)
                .zip(&capacities)
            {
                *len = capacity.min(sibling.len()) as u32;
            }
        });
        let mut arena = TableArena::with_full_buckets(self.space.bits(), &lens);
        drop(lens);
        // Walk 2: sample each owner's buckets into its arena slots, with
        // the owners' slots in sorted-position order so that every subtree
        // of the walk writes one contiguous run of them.
        let mut by_node = arena.entries_by_node_mut();
        let mut tables: Vec<&mut [u32]> = index
            .nodes
            .iter()
            .map(|&node| std::mem::take(&mut by_node[node as usize]))
            .collect();
        drop(by_node);
        let sampler = TableSampler {
            index: &index,
            capacities: &capacities,
            table_seed: sub_seed(self.seed, domain::TOPOLOGY),
        };
        let mut siblings = vec![0..0; bits];
        sampler.walk(0, 0..n, &mut siblings, &mut tables, threads(n));

        let trie = AddressTrie::build(self.space, &addresses);
        Ok(Topology {
            space: self.space,
            live: vec![true; n],
            live_count: n,
            addresses,
            arena,
            capacities,
            trie,
            knowers: Knowers::default(),
            sizing: self.sizing.clone(),
            seed: self.seed,
        })
    }
}

/// Nodes below which walk 2 of [`TopologyBuilder::build`] stays on the
/// calling thread; its rustdoc gives the measurement.
const SPLIT_MIN_NODES: usize = 8_192;

/// The thread count of walk 2 for an `n`-node build: every available core
/// from [`SPLIT_MIN_NODES`] nodes up, one below.
fn walk_threads(n: usize) -> usize {
    if n < SPLIT_MIN_NODES {
        1
    } else {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

fn sample_distinct_addresses(
    space: AddressSpace,
    nodes: usize,
    rng: &mut ChaCha12Rng,
) -> Result<Vec<OverlayAddress>, KademliaError> {
    if (nodes as u128) > space.capacity() {
        return Err(KademliaError::SpaceExhausted {
            requested: nodes,
            capacity: space.capacity(),
        });
    }
    let mut seen = HashSet::with_capacity(nodes);
    let mut out = Vec::with_capacity(nodes);
    while out.len() < nodes {
        let raw = rng.gen_range(0..=space.max_raw());
        if seen.insert(raw) {
            out.push(space.address(raw).expect("sampled in range"));
        }
    }
    Ok(out)
}

/// Node slots sorted by raw address. The addresses sharing a given
/// `p`-bit prefix occupy one contiguous range, so the candidates at
/// proximity exactly `b` from an owner are one contiguous range too: the
/// half of the owner's depth-`b` prefix range that differs in bit `b`.
struct SortedAddressIndex {
    /// Node indices in ascending address order.
    nodes: Vec<u32>,
    /// Raw addresses in the same order.
    raws: Vec<u64>,
}

impl SortedAddressIndex {
    fn new(addresses: &[OverlayAddress]) -> Self {
        let mut nodes: Vec<u32> = (0..addresses.len() as u32).collect();
        nodes.sort_unstable_by_key(|&i| addresses[i as usize].raw());
        let raws = nodes.iter().map(|&i| addresses[i as usize].raw()).collect();
        Self { nodes, raws }
    }

    #[inline]
    fn node_at(&self, pos: usize) -> usize {
        self.nodes[pos] as usize
    }

    /// Calls `visit(pos, siblings)` for every sorted position in address
    /// order, where `siblings[b]` holds the positions at proximity exactly
    /// `b` from the address at `pos` (`bits` ranges, empty past the depth
    /// where the address is alone under its prefix).
    ///
    /// A depth-first walk of the implicit address trie: each branch splits
    /// its prefix range on the next bit with one `partition_point` (the
    /// shared prefix makes the split a contiguous cut), and a stack of the
    /// split-off halves is every owner's sibling ranges.
    fn for_each_owner(&self, bits: usize, mut visit: impl FnMut(usize, &[Range<usize>])) {
        let mut siblings: [Range<usize>; 64] = std::array::from_fn(|_| 0..0);
        self.descend(0, 0..self.raws.len(), &mut siblings[..bits], &mut visit);
    }

    fn descend<F: FnMut(usize, &[Range<usize>])>(
        &self,
        depth: usize,
        range: Range<usize>,
        siblings: &mut [Range<usize>],
        visit: &mut F,
    ) {
        if range.len() == 1 {
            // Alone under this prefix: no peer at any deeper proximity.
            siblings[depth..].fill(0..0);
            visit(range.start, siblings);
            return;
        }
        let (zeros, ones) = self.split(depth, siblings.len(), range);
        for (side, other) in [(zeros.clone(), ones.clone()), (ones, zeros)] {
            if !side.is_empty() {
                siblings[depth] = other;
                self.descend(depth + 1, side, siblings, visit);
            }
        }
    }

    /// Splits `range`, whose addresses share their first `depth` of `bits`
    /// bits and are at least two, on bit `depth`: the shared prefix makes
    /// the split one contiguous cut, found by one `partition_point`.
    fn split(
        &self,
        depth: usize,
        bits: usize,
        range: Range<usize>,
    ) -> (Range<usize>, Range<usize>) {
        debug_assert!(depth < bits, "distinct addresses split by the last bit");
        let shift = bits - 1 - depth;
        let cut =
            range.start + self.raws[range.clone()].partition_point(|&raw| (raw >> shift) & 1 == 0);
        (range.start..cut, cut..range.end)
    }
}

/// Walk 2 of [`TopologyBuilder::build`]: samples every owner's table from
/// the sorted index, `derive_rng(table_seed, owner, 0)` being the owner's
/// stream.
struct TableSampler<'a> {
    index: &'a SortedAddressIndex,
    capacities: &'a [usize],
    table_seed: u64,
}

impl TableSampler<'_> {
    /// Samples the tables of the owners at sorted positions `range`, whose
    /// addresses share their first `depth` bits, into `tables` (entry `i`
    /// for position `range.start + i`), on `threads` threads. `siblings`
    /// holds the walk's sibling ranges down to `depth`, as in
    /// [`SortedAddressIndex::descend`].
    ///
    /// With more than one thread, the range splits on bit `depth` like a
    /// `descend` step: a spawned thread takes the ones half with half the
    /// threads, its own copy of the sibling stack and the tables of its
    /// positions, and this thread walks the zeros half with the rest. An
    /// empty half is passed over. With one thread, or one owner, the range
    /// falls through to `descend`, with one swap buffer for the whole
    /// subtree.
    fn walk(
        &self,
        depth: usize,
        range: Range<usize>,
        siblings: &mut [Range<usize>],
        tables: &mut [&mut [u32]],
        threads: usize,
    ) {
        if threads > 1 && range.len() > 1 {
            let (zeros, ones) = self.index.split(depth, siblings.len(), range.clone());
            if zeros.is_empty() || ones.is_empty() {
                siblings[depth] = 0..0;
                self.walk(depth + 1, range, siblings, tables, threads);
                return;
            }
            let (zero_tables, one_tables) = tables.split_at_mut(zeros.len());
            let mut one_siblings = siblings.to_vec();
            one_siblings[depth] = zeros.clone();
            siblings[depth] = ones.clone();
            let spawned = threads / 2;
            std::thread::scope(|scope| {
                scope.spawn(|| self.walk(depth + 1, ones, &mut one_siblings, one_tables, spawned));
                self.walk(depth + 1, zeros, siblings, zero_tables, threads - spawned);
            });
            return;
        }
        let mut swaps = Vec::new();
        self.index
            .descend(depth, range.clone(), siblings, &mut |pos, siblings| {
                let ids = &mut *tables[pos - range.start];
                self.sample_table(self.index.node_at(pos), siblings, ids, &mut swaps);
            });
    }

    /// Samples `owner`'s routing table into its arena slots `ids`: per
    /// bucket, `min(k_b, |candidates_b|)` peers uniformly without
    /// replacement from the candidate range `siblings[b]` of the sorted
    /// index. That count is also the bucket's reserved size — the most
    /// entries it can ever hold, under any later churn — so every initial
    /// bucket is exactly full.
    ///
    /// A partial Fisher–Yates shuffle over the candidate positions, kept
    /// sparse: `swaps` records only the displaced positions (at most `k`),
    /// so sampling never touches `O(candidates)` memory. The caller passes
    /// the same buffer for every owner it walks, so it grows to the largest
    /// capacity once instead of once per owner.
    fn sample_table(
        &self,
        owner: usize,
        siblings: &[Range<usize>],
        ids: &mut [u32],
        swaps: &mut Vec<(usize, usize)>,
    ) {
        let mut rng = derive_rng(self.table_seed, owner, 0);
        let mut slot = 0;
        for (sibling, &capacity) in siblings.iter().zip(self.capacities) {
            let candidates = sibling.len();
            swaps.clear();
            for i in 0..capacity.min(candidates) {
                let j = rng.gen_range(i..candidates);
                // One pass finds the record at `j` and the value at `i`.
                let (mut record_j, mut displaced) = (None, i);
                for (r, &(at, value)) in swaps.iter().enumerate() {
                    if at == j {
                        record_j = Some(r);
                    }
                    if at == i {
                        displaced = value;
                    }
                }
                let pick = match record_j {
                    Some(r) => std::mem::replace(&mut swaps[r].1, displaced),
                    None => {
                        swaps.push((j, displaced));
                        j
                    }
                };
                ids[slot] = self.index.nodes[sibling.start + pick];
                slot += 1;
            }
        }
        debug_assert_eq!(slot, ids.len(), "every reserved slot sampled");
    }
}

/// Reverse index of the routing tables: for each node, the owners whose
/// tables list it (its *holders*), in no particular order.
///
/// Each entry is 4 bytes: the owner's index in the low `owner_bits` bits
/// and, above them, the owner's departure count when the entry was made
/// (its *stamp*, modulo the `32 - owner_bits` bits left over). An entry is
/// *fresh* when its stamp equals the owner's current count, and the index
/// keeps one invariant: an entry is fresh exactly when its owner lists the
/// node. A departing owner's table is cleared whole, so one bump of its
/// count ([`Knowers::depart`]) makes all of its entries stale at once,
/// without visiting the lists that hold them. Stale entries stay where
/// they are until [`Knowers::insert`] finds their list full; it drops them
/// before the list would grow, so a list grows only when every entry is
/// fresh, and it never holds more than twice the most fresh entries it
/// has had since it was made, or 4. A count that would wrap, letting a
/// stale stamp read as fresh again, rebuilds every list from the tables
/// and zeroes every count instead.
#[derive(Debug, Clone, Default)]
struct Knowers {
    /// `lists[i]`: a fresh entry for each owner that lists node `i`, among
    /// stale entries of owners that listed it before they last left.
    lists: Vec<Vec<u32>>,
    /// `departures[o]`: owner `o`'s departure count since the last build,
    /// the stamp of its fresh entries.
    departures: Vec<u32>,
    /// Low bits of an entry that hold the owner's index.
    owner_bits: u32,
}

impl Knowers {
    /// The fewest bits that hold every node index of an `n`-node overlay,
    /// which leaves the most bits to the stamps.
    fn owner_bits_for(n: usize) -> u32 {
        usize::BITS - n.saturating_sub(1).leading_zeros()
    }

    /// The index of `arena`'s `n` tables, every count zero and every entry
    /// fresh, with owner indices in the low `owner_bits` bits.
    ///
    /// Two passes: count in-degrees first so every list is allocated
    /// exactly once — tens of millions of entries at large `N`, where
    /// growth reallocation used to dominate.
    fn build(arena: &TableArena, n: usize, owner_bits: u32) -> Self {
        debug_assert!(owner_bits >= Self::owner_bits_for(n) && owner_bits <= u32::BITS);
        let mut counts = vec![0u32; n];
        for owner in 0..n {
            for peer in arena.node_peers(owner) {
                counts[peer as usize] += 1;
            }
        }
        let mut lists: Vec<Vec<u32>> = counts
            .iter()
            .map(|&c| Vec::with_capacity(c as usize))
            .collect();
        for owner in 0..n {
            for peer in arena.node_peers(owner) {
                lists[peer as usize].push(owner as u32);
            }
        }
        Self {
            lists,
            departures: vec![0; n],
            owner_bits,
        }
    }

    /// Whether the index is unbuilt.
    fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// The fresh entry of `owner`: its index under its current count.
    #[inline]
    fn entry(&self, owner: usize) -> u32 {
        ((u64::from(self.departures[owner]) << self.owner_bits) as u32) | owner as u32
    }

    /// The owner and the stamp of `entry`.
    #[inline]
    fn unpack(&self, entry: u32) -> (usize, u32) {
        let entry = u64::from(entry);
        let owner = entry & ((1 << self.owner_bits) - 1);
        (owner as usize, (entry >> self.owner_bits) as u32)
    }

    /// The owner of `entry`, if the entry is fresh.
    #[inline]
    fn fresh_owner(&self, entry: u32) -> Option<usize> {
        let (owner, stamp) = self.unpack(entry);
        (self.departures[owner] == stamp).then_some(owner)
    }

    /// Records `owner` as a holder of `node`. A full list first drops its
    /// stale entries, so the `Vec` grows only when all of them are fresh.
    fn insert(&mut self, node: usize, owner: usize) {
        let entry = self.entry(owner);
        let mut list = std::mem::take(&mut self.lists[node]);
        debug_assert!(!list.contains(&entry), "owner {owner} already a holder");
        if list.len() == list.capacity() {
            list.retain(|&held| self.fresh_owner(held).is_some());
        }
        list.push(entry);
        self.lists[node] = list;
    }

    /// Makes every entry of `owner` stale: it has left, and `arena` holds
    /// its cleared table. When its count would wrap, rebuilds the index
    /// from `arena` instead, which holds no entry of it either.
    fn depart(&mut self, owner: usize, arena: &TableArena) {
        let wrap = (1u64 << (u32::BITS - self.owner_bits)) - 1;
        if u64::from(self.departures[owner]) == wrap {
            *self = Self::build(arena, self.lists.len(), self.owner_bits);
        } else {
            self.departures[owner] += 1;
        }
    }
}

/// A forwarding-Kademlia overlay: every node's address and routing table,
/// a live-membership set, and an index for global closest-live-node queries.
///
/// Routing tables live in one contiguous arena of peer ids (one
/// `(offset, len)` slot range per bucket) and are read through borrowed
/// [`TableRef`] views, which take each peer's address from `addresses`;
/// see `docs/ARCHITECTURE.md` for the layout and why it never reallocates
/// under churn.
#[derive(Debug, Clone)]
pub struct Topology {
    space: AddressSpace,
    addresses: Vec<OverlayAddress>,
    /// Whether each slot is currently part of the overlay.
    live: Vec<bool>,
    live_count: usize,
    /// All routing tables, arena-backed.
    arena: TableArena,
    /// Configured per-bucket capacities, shared by every node.
    capacities: Vec<usize>,
    trie: AddressTrie,
    /// The holders of each node: the owners whose routing tables list it,
    /// as stamped 4-byte entries (see [`Knowers`]). An entry is fresh
    /// exactly when its owner lists the node; stale entries are skipped
    /// and dropped lazily. In no particular order: each holder's repair
    /// touches only its own bucket, so the order a departure visits them
    /// in cannot change a table. Makes departures O(holders) instead of
    /// O(n). Empty, counts included, until the first membership change
    /// builds it ([`Topology::ensure_knowers`]): static runs never read
    /// it, and at 10⁵ nodes with `k = 20` it holds 26 M entries.
    knowers: Knowers,
    sizing: BucketSizing,
    seed: u64,
}

impl Topology {
    /// The address space of this overlay.
    #[inline]
    pub fn space(&self) -> AddressSpace {
        self.space
    }

    /// Number of node slots (live and offline).
    #[inline]
    pub fn len(&self) -> usize {
        self.addresses.len()
    }

    /// Whether the overlay has no nodes (never true for built topologies).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.addresses.is_empty()
    }

    /// Number of currently live nodes.
    #[inline]
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Whether `node` is currently part of the overlay.
    #[inline]
    pub fn is_live(&self, node: NodeId) -> bool {
        self.live.get(node.0).copied().unwrap_or(false)
    }

    /// The bucket sizing used to build this topology.
    pub fn sizing(&self) -> &BucketSizing {
        &self.sizing
    }

    /// The seed used to build this topology.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Iterate over all node ids (live and offline), `n0, n1, ...`.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.addresses.len()).map(NodeId)
    }

    /// Iterate over the currently live node ids, ascending.
    pub fn live_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.live
            .iter()
            .enumerate()
            .filter(|(_, &alive)| alive)
            .map(|(i, _)| NodeId(i))
    }

    /// The overlay address of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not part of this topology; use
    /// [`Topology::try_address`] for a fallible lookup.
    pub fn address(&self, node: NodeId) -> OverlayAddress {
        self.addresses[node.0]
    }

    /// Fallible address lookup.
    pub fn try_address(&self, node: NodeId) -> Result<OverlayAddress, KademliaError> {
        self.addresses
            .get(node.0)
            .copied()
            .ok_or(KademliaError::UnknownNode { index: node.0 })
    }

    /// The routing table of `node` (empty for offline nodes).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not part of this topology.
    pub fn table(&self, node: NodeId) -> TableRef<'_> {
        TableRef::new(
            node,
            self.space,
            &self.arena,
            &self.addresses,
            &self.capacities,
        )
    }

    /// All routing tables, in node-id order. Views compare by content, so
    /// `a.tables().eq(b.tables())` checks two topologies table-for-table.
    pub fn tables(&self) -> impl Iterator<Item = TableRef<'_>> + '_ {
        (0..self.addresses.len()).map(|i| self.table(NodeId(i)))
    }

    /// The known peer of `from` strictly closest (XOR) to `target`, if one
    /// beats `from`'s own distance — the forwarding-Kademlia relay choice.
    ///
    /// Reads the arena directly, skipping view construction: this is the
    /// innermost call of every routed chunk. See [`TableRef::next_hop`]
    /// for the search itself.
    ///
    /// # Termination contract
    ///
    /// For a live `from`, the result is `None` exactly when `from` is
    /// [`Topology::closest_node`]`(target)`; for an offline `from` (whose
    /// table is empty) it is always `None`. Routing walks rely on this to
    /// stop without looking the storer up. It follows from the fullness
    /// invariant that [`Topology::validate`] checks — every bucket holds
    /// `min(capacity_b, live candidates_b)` live entries, and capacities
    /// are at least 1. If `from` is live but not the closest live node
    /// `y`, let `b` be the bucket of `y` in `from`'s table, i.e. the
    /// first bit where their addresses differ. That bucket is non-empty
    /// (`y` is a live candidate for it), and every entry in it shares
    /// `from`'s bits before `b` and `target`'s bit `b`, where `from` does
    /// not, so each is strictly closer to `target` than `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not part of this topology.
    #[inline]
    pub fn next_hop(&self, from: NodeId, target: OverlayAddress) -> Option<NodeId> {
        self.arena
            .next_hop(&self.addresses, from.0, target.raw())
            .map(|id| NodeId(id as usize))
    }

    /// [`Topology::next_hop`], plus whether that hop is certainly the
    /// closest live node to `target`, so a walk can stop there without
    /// reading the storer's own table.
    ///
    /// The flag is `true` when the hop comes from `from`'s proximity
    /// bucket toward `target` and that bucket is not full. By the fullness
    /// invariant the bucket then lists every live node in its subtree —
    /// the nodes sharing `target`'s prefix one bit past `from` — and the
    /// nearest of them is the closest live node overall. A `false` flag
    /// decides nothing: the hop may still be the storer, which its own
    /// `next_hop` (`None`) then shows.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not part of this topology.
    #[inline]
    pub fn next_hop_ending(&self, from: NodeId, target: OverlayAddress) -> Option<(NodeId, bool)> {
        let next = self.next_hop(from, target)?;
        let bucket = self
            .space
            .proximity(self.addresses[from.0], target)
            .bucket_index();
        let len = self.arena.bucket_len(from.0, bucket);
        Some((next, len > 0 && len < self.capacities[bucket]))
    }

    /// The known peers of `from` strictly closer (XOR) to `target` than
    /// `from` itself, nearest first, at most `limit` entries — appended to
    /// `out` (which is cleared first).
    ///
    /// The first entry (when any exists) is exactly
    /// [`Topology::next_hop`]'s choice; the rest are the fallback relays a
    /// capacity-detour routing policy may try when the greedy hop is
    /// saturated. Every entry strictly improves on `from`'s own distance,
    /// so a walk that only ever takes hops from this list still terminates.
    /// Unlike `next_hop` this scans the whole table — it is meant for the
    /// saturated slow path, not the per-hop common case.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not part of this topology.
    pub fn next_hops_into(
        &self,
        from: NodeId,
        target: OverlayAddress,
        limit: usize,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        if limit == 0 {
            return;
        }
        let target_raw = target.raw();
        let own = self.addresses[from.0].raw() ^ target_raw;
        if own == 0 {
            // `from` sits on the target address; nothing is closer.
            return;
        }
        let bits = self.space.bits() as usize;

        // Realistic limits (a detour policy asks for a handful of
        // fallbacks) keep the whole selection on the stack: a sorted
        // insertion window, O(entries × limit) with limit ≤ 16 — no
        // allocation per call, which matters because the detour slow path
        // invokes this once per saturated hop.
        const STACK_LIMIT: usize = 16;
        if limit <= STACK_LIMIT {
            let mut best = [(u64::MAX, 0u32); STACK_LIMIT];
            let mut len = 0usize;
            for bucket in 0..bits {
                for &id in self.arena.bucket_entries(from.0, bucket) {
                    let d = self.addresses[id as usize].raw() ^ target_raw;
                    if d >= own || (len == limit && d >= best[limit - 1].0) {
                        continue;
                    }
                    // Shift the tail right and insert in sorted position
                    // (XOR distances to distinct addresses are unique, so
                    // the order is total).
                    let mut pos = len.min(limit - 1);
                    while pos > 0 && best[pos - 1].0 > d {
                        best[pos] = best[pos - 1];
                        pos -= 1;
                    }
                    best[pos] = (d, id);
                    len = (len + 1).min(limit);
                }
            }
            out.extend(best[..len].iter().map(|&(_, id)| NodeId(id as usize)));
            return;
        }

        let mut ranked: Vec<(u64, u32)> = Vec::new();
        for bucket in 0..bits {
            for &id in self.arena.bucket_entries(from.0, bucket) {
                let d = self.addresses[id as usize].raw() ^ target_raw;
                if d < own {
                    ranked.push((d, id));
                }
            }
        }
        // XOR distances to distinct addresses are unique, so the order is
        // total and the partial selection reproduces the full sort's prefix.
        if ranked.len() > limit {
            ranked.select_nth_unstable(limit);
            ranked.truncate(limit);
        }
        ranked.sort_unstable();
        out.extend(ranked.iter().map(|&(_, id)| NodeId(id as usize)));
    }

    /// The live node whose address is globally closest (XOR metric) to
    /// `target`.
    ///
    /// XOR distances from a fixed target to distinct addresses are unique, so
    /// the closest node is unambiguous. The paper stores each chunk at
    /// exactly this node; under churn, responsibility migrates to the
    /// closest *live* node.
    pub fn closest_node(&self, target: OverlayAddress) -> NodeId {
        self.trie.closest(target)
    }

    /// Total connections maintained across all nodes (each table entry is an
    /// open connection in the §V overhead model).
    pub fn total_connections(&self) -> usize {
        self.arena.total_connections()
    }

    /// Takes `node` offline: removes it from the live set, the closest-node
    /// index, and every routing table that listed it, then incrementally
    /// refills each affected bucket with the closest live peer at that
    /// proximity the bucket does not already hold, so the fullness
    /// invariant (`len == min(capacity, live candidates)`, checked by
    /// [`Topology::validate`]) survives.
    ///
    /// The `knowers` index names the holders: the fresh entries of the
    /// departed node's list, an entry being fresh exactly when its owner
    /// lists the node. Stale entries are skipped, and so is any holder
    /// whose table turns out not to list the node, so the tables never
    /// rest on the stamps alone. A holder's refill candidates for its
    /// bucket `b` are exactly the departed node's depth-`b + 1` prefix
    /// subtree of the address trie — one node of the departed node's trie
    /// path, found once for all holders. Each refill is then one trie
    /// descent (`refill_candidate`), which never picks a held peer, into a
    /// bucket that has just lost an entry, so the replacement is appended
    /// without a scan. A
    /// departure costs `O(bits + holders × (bits + k))`, with the in-degree
    /// `holders` typically a few dozen at `k = 4` and ~150 at `k = 20`.
    /// Holders are visited in `knowers` order, which is free: each touches
    /// only its own bucket, and the trie does not change during the loop.
    ///
    /// The departed node's own table is cleared, and one bump of its
    /// departure count makes every holder entry it had elsewhere stale:
    /// no other node's list is read.
    ///
    /// # Errors
    ///
    /// * [`KademliaError::UnknownNode`] for out-of-range ids.
    /// * [`KademliaError::NodeNotLive`] if the node is already offline.
    /// * [`KademliaError::TooFewLiveNodes`] if fewer than 3 nodes are live.
    pub fn remove_node(&mut self, node: NodeId) -> Result<(), KademliaError> {
        let index = node.0;
        if index >= self.addresses.len() {
            return Err(KademliaError::UnknownNode { index });
        }
        if !self.live[index] {
            return Err(KademliaError::NodeNotLive { index });
        }
        if self.live_count <= 2 {
            return Err(KademliaError::TooFewLiveNodes {
                live: self.live_count,
            });
        }
        self.ensure_knowers();
        self.live[index] = false;
        self.live_count -= 1;
        let departed_addr = self.addresses[index];
        let path = self.trie.path(departed_addr);
        self.trie.set_live(&path, false);

        // Drop the departed node from every table that listed it, refilling
        // the vacated bucket where candidates remain.
        let holders = std::mem::take(&mut self.knowers.lists[index]);
        for entry in holders {
            let Some(owner) = self.knowers.fresh_owner(entry) else {
                continue;
            };
            let bucket = self
                .space
                .proximity(self.addresses[owner], departed_addr)
                .bucket_index();
            let removed = self.arena.remove(owner, bucket, index as u32);
            debug_assert!(removed, "a fresh holder entry's owner lists the node");
            if !removed {
                continue;
            }
            if let Some(replacement) = self.refill_candidate(owner, bucket, path[bucket + 1]) {
                self.arena.push(owner, bucket, replacement as u32);
                self.knowers.insert(replacement, owner);
            }
        }

        // The departed node drops all of its own connections, which makes
        // its entries in its peers' lists stale.
        self.arena.clear_node(index);
        self.knowers.depart(index, &self.arena);
        Ok(())
    }

    /// Brings an offline `node` back into the overlay at its original
    /// address: rebuilds its routing table from the live population
    /// (closest-per-bucket selection) and appends it to every live owner's
    /// matching bucket that has room, restoring the fullness invariant.
    ///
    /// Finding those owners needs no population scan. The owners at
    /// proximity `b` from the joiner are the joiner's sibling subtree at
    /// depth `b`, and every one of them has the same live candidates for
    /// its bucket `b`: the joiner's depth-`b + 1` prefix subtree. By the
    /// fullness invariant (`len == min(capacity, live candidates)`, checked
    /// by [`Topology::validate`]) either all of them have room or none
    /// has, and they have room exactly when that subtree held fewer than
    /// `capacity_b` live nodes before the join. So advertising the joiner
    /// reads one live count per bucket off its trie path and visits only
    /// the owners it inserts into — `O(bits + inserts)` — on top of the
    /// `O(bits × k × bits)` fill of the joiner's own table, which writes
    /// each bucket's nearest live peers straight into its arena slots. The
    /// joiner's holder entries, in its peers' lists and in its own, carry
    /// its current departure count, so they are fresh.
    ///
    /// # Errors
    ///
    /// * [`KademliaError::UnknownNode`] for out-of-range ids.
    /// * [`KademliaError::NodeAlreadyLive`] if the node is already live.
    pub fn add_node(&mut self, node: NodeId) -> Result<(), KademliaError> {
        let index = node.0;
        if index >= self.addresses.len() {
            return Err(KademliaError::UnknownNode { index });
        }
        if self.live[index] {
            return Err(KademliaError::NodeAlreadyLive { index });
        }
        self.ensure_knowers();
        self.live[index] = true;
        self.live_count += 1;
        let joiner_addr = self.addresses[index];
        let path = self.trie.path(joiner_addr);
        self.trie.set_live(&path, true);

        // 1. Rebuild the joiner's own table from the live population.
        Self::fill_table_closest(&mut self.arena, &self.trie, &self.addresses, index, &path);
        for peer in self.arena.node_peers(index) {
            self.knowers.insert(peer as usize, index);
        }

        // 2. Advertise the joiner to the owners with room for it. The
        //    joiner was offline, so no table listed it.
        debug_assert!(self.knowers.lists[index].is_empty());
        let mut holders = Vec::new();
        for bucket in 0..self.space.bits() {
            let Some(owners) = self.trie.sibling_on_path(&path, joiner_addr, bucket) else {
                continue;
            };
            // Live candidates of those owners' bucket, the joiner excluded.
            let candidates = self.trie.subtree_live(path[bucket as usize + 1]) as usize - 1;
            if candidates >= self.capacities[bucket as usize] {
                continue;
            }
            for owner in self.trie.nearest_live(owners, bucket + 1, joiner_addr) {
                let inserted = self.arena.insert(owner, bucket as usize, index as u32);
                debug_assert!(inserted, "fullness invariant guarantees room");
                holders.push(self.knowers.entry(owner));
            }
        }
        self.knowers.lists[index] = holders;
        Ok(())
    }

    /// Builds the `knowers` reverse index from the tables if this is the
    /// topology's first membership change.
    fn ensure_knowers(&mut self) {
        if self.knowers.is_empty() {
            let n = self.addresses.len();
            self.knowers = Knowers::build(&self.arena, n, Knowers::owner_bits_for(n));
        }
    }

    /// The closest eligible live peer for `owner`'s bucket `bucket`, if any:
    /// live, not the owner, proximity exactly `bucket`, not already listed.
    /// `subtree` is the trie subtree holding the bucket's candidates.
    ///
    /// Every entry the bucket holds is a live leaf of that subtree, so the
    /// answer is one [`AddressTrie::nearest_live_excluding`] descent past
    /// the bucket's XOR distances to the owner, in bucket order (at most
    /// `k` values, on the stack for realistic `k`): `O(bits + k)` when the
    /// descent never has to look at them, `O(bits × k)` at worst.
    fn refill_candidate(&self, owner: usize, bucket: usize, subtree: u32) -> Option<usize> {
        let owner_addr = self.addresses[owner];
        let ids = self.arena.bucket_entries(owner, bucket);
        if self.trie.subtree_live(subtree) as usize <= ids.len() {
            // The bucket already holds every live candidate.
            return None;
        }
        let descend = |held: &mut [u64]| {
            for (distance, &id) in held.iter_mut().zip(ids) {
                *distance = self.addresses[id as usize].raw() ^ owner_addr.raw();
            }
            self.trie
                .nearest_live_excluding(subtree, bucket as u32 + 1, owner_addr, held)
        };
        const STACK_HELD: usize = 32;
        if ids.len() <= STACK_HELD {
            descend(&mut [0u64; STACK_HELD][..ids.len()])
        } else {
            descend(&mut vec![0u64; ids.len()])
        }
    }

    /// Refills `owner`'s buckets in place from the current live
    /// population: per bucket, the closest `min(k, |candidates|)` live
    /// peers by XOR distance (deterministic; distances to distinct
    /// addresses never tie). Shared by [`Topology::add_node`] and
    /// [`Topology::rebuilt_naive`] so the two maintenance paths can never
    /// drift apart in selection policy.
    ///
    /// The candidates of bucket `b` live in one trie subtree (the owner's
    /// sibling at depth `b`, read off the owner's trie `path`), which is
    /// walked in ascending XOR distance straight into the bucket's
    /// reserved arena slots, so filling a whole table costs
    /// `O(bits × k × bits)` instead of a full population scan, with no
    /// per-entry duplicate scan. An associated function over split borrows
    /// because it writes the arena while walking the trie.
    fn fill_table_closest(
        arena: &mut TableArena,
        trie: &AddressTrie,
        addresses: &[OverlayAddress],
        owner: usize,
        path: &[u32; 65],
    ) {
        arena.clear_node(owner);
        let owner_addr = addresses[owner];
        for bucket in 0..owner_addr.bits() {
            let Some(subtree) = trie.sibling_on_path(path, owner_addr, bucket) else {
                continue;
            };
            // Reserved slots are min(capacity, all-time candidates), the
            // exact occupancy bound — live candidates can only be fewer.
            let nearest = trie.nearest_live(subtree, bucket + 1, owner_addr);
            arena.fill_bucket(owner, bucket as usize, nearest.map(|peer| peer as u32));
        }
    }

    /// The live nodes whose addresses share the first `prefix_bits` bits
    /// with `anchor` — an address *region* in the sense of correlated
    /// failures (one datacenter, one jurisdiction, one /16). Returned in
    /// ascending node-id order.
    ///
    /// `prefix_bits = 0` selects the whole live population; a prefix longer
    /// than the address width selects at most the node at `anchor` itself.
    /// Answered by descending the address trie to the region's subtree and
    /// collecting its live leaves, so the cost is `O(prefix + answer)`.
    pub fn live_nodes_with_prefix(&self, anchor: OverlayAddress, prefix_bits: u32) -> Vec<NodeId> {
        let prefix_bits = prefix_bits.min(self.space.bits());
        let Some(subtree) = self.trie.prefix_subtree(anchor, prefix_bits) else {
            return Vec::new();
        };
        let mut nodes: Vec<NodeId> = self
            .trie
            .nearest_live(subtree, prefix_bits, anchor)
            .map(NodeId)
            .collect();
        nodes.sort_unstable();
        nodes
    }

    /// The `count` live nodes closest to `target` under the XOR metric, in
    /// ascending distance order (fewer if the live population is smaller).
    ///
    /// This is the selection primitive behind content-targeted scenarios:
    /// "the nodes responsible for (closest to) this popular address". A
    /// trie walk in exact distance order, `O(count × bits)`.
    pub fn closest_live_nodes(&self, target: OverlayAddress, count: usize) -> Vec<NodeId> {
        self.trie
            .nearest_live(0, 0, target)
            .take(count)
            .map(NodeId)
            .collect()
    }

    /// The `count` live nodes with the highest scores, ranked descending
    /// with ties broken by ascending node id (fewer if the live population
    /// is smaller).
    ///
    /// `scores` is any per-node metric indexed by node id — incomes for
    /// "take out the top earners", forwarded counts for "take out the
    /// hardest workers". Slots beyond `scores.len()` score 0, and
    /// non-finite scores rank lowest, so the selection is total and
    /// deterministic for any input.
    pub fn top_k_live_by_score(&self, scores: &[f64], count: usize) -> Vec<NodeId> {
        let mut ranked: Vec<NodeId> = self.live_ids().collect();
        let score = |n: NodeId| {
            let s = scores.get(n.index()).copied().unwrap_or(0.0);
            if s.is_finite() {
                s
            } else {
                f64::NEG_INFINITY
            }
        };
        ranked.sort_by(|&a, &b| {
            score(b)
                .partial_cmp(&score(a))
                .expect("non-finite scores mapped to -inf")
                .then_with(|| a.cmp(&b))
        });
        ranked.truncate(count);
        ranked
    }

    /// Rebuilds every routing table from scratch over the current live set
    /// (deterministic closest-per-bucket selection) — the from-scratch
    /// alternative to the incremental maintenance done by
    /// [`Topology::remove_node`] / [`Topology::add_node`]. Each live table
    /// is refilled by trie walk, `O(bits × k × bits)` per owner, so the
    /// rebuild pays for every table where a departure pays only for its
    /// holders. Tests use it as the correctness baseline of that maintenance.
    pub fn rebuilt_naive(&self) -> Topology {
        let mut rebuilt = self.clone();
        for owner in 0..self.addresses.len() {
            if self.live[owner] {
                let path = self.trie.path(self.addresses[owner]);
                Self::fill_table_closest(
                    &mut rebuilt.arena,
                    &self.trie,
                    &self.addresses,
                    owner,
                    &path,
                );
            } else {
                rebuilt.arena.clear_node(owner);
            }
        }
        // The copied reverse index is stale; the rebuilt topology's first
        // membership change rebuilds it.
        rebuilt.knowers = Knowers::default();
        rebuilt
    }

    /// Checks structural invariants; used by tests and debug assertions.
    ///
    /// Verified invariants: addresses are distinct; offline nodes have empty
    /// tables and appear in no live table; no table contains its owner;
    /// every entry is live and sits in the bucket matching its proximity
    /// order; no bucket exceeds its capacity; every bucket whose live
    /// candidate set is at least its capacity is full; the reverse
    /// (`knowers`) index, once built, matches the tables: its fresh
    /// entries name exactly the owners that list each node, and no stale
    /// entry carries a stamp its owner's count has not passed, so none can
    /// read as fresh before the next rebuild.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = HashSet::new();
        for addr in &self.addresses {
            if !seen.insert(addr.raw()) {
                return Err(format!("duplicate address {addr}"));
            }
        }
        if self.live.iter().filter(|&&alive| alive).count() != self.live_count {
            return Err("live_count out of sync".into());
        }
        let mut knowers_check: Vec<Vec<u32>> = vec![Vec::new(); self.addresses.len()];
        for owner in 0..self.addresses.len() {
            let table = self.table(NodeId(owner));
            if !self.live[owner] {
                if table.connection_count() != 0 {
                    return Err(format!("offline node {owner} has connections"));
                }
                continue;
            }
            let owner_addr = self.addresses[owner];
            // Count live candidates per proximity order for fullness check.
            let bits = self.space.bits() as usize;
            let mut candidate_counts = vec![0usize; bits];
            for (peer, &peer_addr) in self.addresses.iter().enumerate() {
                if peer != owner && self.live[peer] {
                    let p = self.space.proximity(owner_addr, peer_addr).bucket_index();
                    candidate_counts[p] += 1;
                }
            }
            for bucket in table.buckets() {
                if bucket.len() > bucket.capacity() {
                    return Err(format!("node {owner}: bucket {} overfull", bucket.index()));
                }
                let expected = bucket
                    .capacity()
                    .min(candidate_counts[bucket.index() as usize]);
                if bucket.len() != expected {
                    return Err(format!(
                        "node {owner}: bucket {} has {} entries, expected {}",
                        bucket.index(),
                        bucket.len(),
                        expected
                    ));
                }
                for (peer, peer_addr) in bucket.iter() {
                    if peer.0 == owner {
                        return Err(format!("node {owner} lists itself"));
                    }
                    if !self.live[peer.0] {
                        return Err(format!("node {owner} lists offline {peer}"));
                    }
                    let prox = self.space.proximity(owner_addr, peer_addr);
                    if prox.bucket_index() != bucket.index() as usize {
                        return Err(format!(
                            "node {owner}: {peer} in bucket {} but proximity {}",
                            bucket.index(),
                            prox
                        ));
                    }
                    knowers_check[peer.0].push(owner as u32);
                }
            }
        }
        // Holder lists are unordered: compare sorted copies of the fresh
        // owners, which checks the same owners with the same multiplicity,
        // so a duplicate fails.
        let knowers = &self.knowers;
        if !knowers.is_empty() {
            let n = self.addresses.len();
            if knowers.lists.len() != n || knowers.departures.len() != n {
                return Err("knowers index sized for another overlay".into());
            }
            for (node, (check, list)) in knowers_check.iter_mut().zip(&knowers.lists).enumerate() {
                let mut fresh = Vec::with_capacity(list.len());
                for &entry in list {
                    let (owner, stamp) = knowers.unpack(entry);
                    if owner >= n || stamp > knowers.departures[owner] {
                        return Err(format!(
                            "node {node}: holder entry {entry:#x} names no past session"
                        ));
                    }
                    if stamp == knowers.departures[owner] {
                        fresh.push(owner as u32);
                    }
                }
                check.sort_unstable();
                fresh.sort_unstable();
                if *check != fresh {
                    return Err("knowers reverse index out of sync with tables".into());
                }
            }
        }
        Ok(())
    }
}

/// Binary trie over the node addresses for O(bits) closest-live-node
/// queries under the XOR metric. Every subtree tracks how many live
/// addresses it contains so offline nodes are skipped in O(1).
///
/// Beyond global closest-node queries, the trie answers the routing-table
/// maintenance queries that used to need population scans: the peers at
/// proximity exactly `b` from an address are one subtree hanging off its
/// root-to-leaf path ([`AddressTrie::path`]),
/// [`AddressTrie::nearest_live`] walks any subtree in ascending XOR
/// distance, and [`AddressTrie::nearest_live_excluding`] finds the closest
/// live leaf outside a given set in one descent. Trie nodes are a compact
/// 16-byte representation (`u32` child indices with a sentinel) so
/// million-node tries stay cache- and memory-friendly.
///
/// Nodes are appended in insertion order, and an insert appends the nodes
/// below the point where its address leaves the existing trie one per
/// level, down to its leaf. So the node at index `i` and depth `d` always
/// has a leaf at index `i + bits - d` beneath it: the leaf of the address
/// whose insert made the node, its *maker leaf*
/// ([`AddressTrie::maker_leaf`]). Below the densely filled top levels,
/// most of a leaf's path is such a single-address chain.
#[derive(Debug, Clone)]
struct AddressTrie {
    space: AddressSpace,
    nodes: Vec<TrieNode>,
}

/// Sentinel for an absent trie child.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
enum TrieNode {
    /// Leaf: index of the overlay node and whether it is live.
    Leaf {
        /// The overlay node stored at this address.
        node: u32,
        /// Whether the node currently counts for closest-node queries.
        live: bool,
    },
    /// Internal: child trie-node indices for bit = 0 / bit = 1 ([`NIL`] when
    /// no address lies in that subtree), plus the live count of the whole
    /// subtree.
    Branch { zero: u32, one: u32, live: u32 },
}

impl AddressTrie {
    fn build(space: AddressSpace, addresses: &[OverlayAddress]) -> Self {
        let mut trie = Self {
            space,
            nodes: vec![TrieNode::Branch {
                zero: NIL,
                one: NIL,
                live: 0,
            }],
        };
        for (i, addr) in addresses.iter().enumerate() {
            trie.insert(*addr, i);
        }
        trie
    }

    fn subtree_live(&self, index: u32) -> u32 {
        match &self.nodes[index as usize] {
            TrieNode::Leaf { live, .. } => u32::from(*live),
            TrieNode::Branch { live, .. } => *live,
        }
    }

    fn insert(&mut self, addr: OverlayAddress, node_index: usize) {
        let bits = self.space.bits();
        let mut current = 0usize;
        for depth in 0..bits {
            // Inserted nodes start live: bump the subtree count on the way
            // down.
            match &mut self.nodes[current] {
                TrieNode::Branch { live, .. } => *live += 1,
                TrieNode::Leaf { .. } => {
                    unreachable!("leaves only exist at full depth; addresses are distinct")
                }
            }
            let bit = addr.bit(depth);
            let is_last = depth == bits - 1;
            let existing = match &self.nodes[current] {
                TrieNode::Branch { zero, one, .. } => {
                    if bit {
                        *one
                    } else {
                        *zero
                    }
                }
                TrieNode::Leaf { .. } => unreachable!(),
            };
            let next = if existing != NIL {
                existing as usize
            } else {
                let idx = self.nodes.len();
                assert!(idx < NIL as usize, "trie node index overflow");
                self.nodes.push(if is_last {
                    TrieNode::Leaf {
                        node: node_index as u32,
                        live: true,
                    }
                } else {
                    TrieNode::Branch {
                        zero: NIL,
                        one: NIL,
                        live: 0,
                    }
                });
                match &mut self.nodes[current] {
                    TrieNode::Branch { zero, one, .. } => {
                        if bit {
                            *one = idx as u32;
                        } else {
                            *zero = idx as u32;
                        }
                    }
                    TrieNode::Leaf { .. } => unreachable!(),
                }
                idx
            };
            current = next;
        }
        debug_assert!(
            matches!(self.nodes[current], TrieNode::Leaf { .. }),
            "insert must end on a leaf"
        );
    }

    /// The trie nodes on `addr`'s root-to-leaf path: entry `d` is the
    /// subtree holding every stored address that shares `addr`'s first
    /// `d` bits, and entry `bits` is `addr`'s own leaf. Depth is bounded by
    /// the 64-bit address-space cap, so the path lives on the stack.
    ///
    /// The maintenance queries all hang off this path: the candidates at
    /// proximity `b` from any address `x` that shares `addr`'s first `b`
    /// bits but not bit `b` are exactly `path[b + 1]`, and the peers at
    /// proximity `b` from `addr` itself are the other child of `path[b]`.
    fn path(&self, addr: OverlayAddress) -> [u32; 65] {
        let mut path = [NIL; 65];
        let mut current = 0u32;
        for depth in 0..self.space.bits() {
            path[depth as usize] = current;
            current = self.child(current, addr.bit(depth));
            debug_assert_ne!(current, NIL, "address was inserted at build time");
        }
        path[self.space.bits() as usize] = current;
        path
    }

    /// The child of branch `index` on side `bit` ([`NIL`] when absent).
    #[inline]
    fn child(&self, index: u32, bit: bool) -> u32 {
        match &self.nodes[index as usize] {
            TrieNode::Branch { zero, one, .. } => {
                if bit {
                    *one
                } else {
                    *zero
                }
            }
            TrieNode::Leaf { .. } => unreachable!("leaves only exist at full depth"),
        }
    }

    /// The subtree holding exactly the stored addresses at proximity
    /// `bucket` from the address whose [`AddressTrie::path`] is `path`:
    /// the opposite-bit child of `path[bucket]`. `None` when no stored
    /// address diverges from it at that depth.
    fn sibling_on_path(&self, path: &[u32; 65], addr: OverlayAddress, bucket: u32) -> Option<u32> {
        let child = self.child(path[bucket as usize], !addr.bit(bucket));
        (child != NIL).then_some(child)
    }

    /// Marks the leaf at the end of `path` (see [`AddressTrie::path`])
    /// live or offline, updating the subtree counts along the path.
    fn set_live(&mut self, path: &[u32; 65], alive: bool) {
        let bits = self.space.bits() as usize;
        match &mut self.nodes[path[bits] as usize] {
            TrieNode::Leaf { live, .. } => {
                if *live == alive {
                    return;
                }
                *live = alive;
            }
            TrieNode::Branch { .. } => unreachable!("walked past all bits"),
        }
        for &index in &path[..bits] {
            match &mut self.nodes[index as usize] {
                TrieNode::Branch { live, .. } => {
                    if alive {
                        *live += 1;
                    } else {
                        *live -= 1;
                    }
                }
                TrieNode::Leaf { .. } => unreachable!(),
            }
        }
    }

    /// Closest live stored address to `target`: walk preferring the
    /// target's own bit at each depth, falling into the sibling subtree
    /// when the preferred one holds no live address.
    ///
    /// Preferring the matching bit maximizes the shared prefix, and within a
    /// shared prefix the same rule minimizes every lower-order XOR bit, so
    /// the walk reaches the true XOR-closest live leaf.
    ///
    /// # Panics
    ///
    /// Panics if the overlay has no live nodes (the mutation APIs keep at
    /// least two alive).
    fn closest(&self, target: OverlayAddress) -> NodeId {
        let bits = self.space.bits();
        let mut current = 0usize;
        for depth in 0..bits {
            match &self.nodes[current] {
                TrieNode::Leaf { node, live } => {
                    debug_assert!(*live, "walk must stay inside live subtrees");
                    return NodeId(*node as usize);
                }
                TrieNode::Branch { zero, one, .. } => {
                    let (preferred, fallback) = if target.bit(depth) {
                        (*one, *zero)
                    } else {
                        (*zero, *one)
                    };
                    let live_child = |child: u32| {
                        (child != NIL && self.subtree_live(child) > 0).then_some(child)
                    };
                    current = live_child(preferred)
                        .or_else(|| live_child(fallback))
                        .expect("trie contains at least one live address")
                        as usize;
                }
            }
        }
        match &self.nodes[current] {
            TrieNode::Leaf { node, .. } => NodeId(*node as usize),
            TrieNode::Branch { .. } => unreachable!("walked past all bits"),
        }
    }

    /// The subtree holding exactly the stored addresses sharing the first
    /// `prefix_bits` bits with `addr`: follow `addr`'s bits for
    /// `prefix_bits` levels. `None` when no stored address has that prefix.
    /// `prefix_bits = 0` is the whole trie.
    fn prefix_subtree(&self, addr: OverlayAddress, prefix_bits: u32) -> Option<u32> {
        let mut current = 0u32;
        for depth in 0..prefix_bits {
            current = match &self.nodes[current as usize] {
                TrieNode::Branch { zero, one, .. } => {
                    let child = if addr.bit(depth) { *one } else { *zero };
                    if child == NIL {
                        return None;
                    }
                    child
                }
                TrieNode::Leaf { .. } => unreachable!("leaves only exist at full depth"),
            };
        }
        Some(current)
    }

    /// The live node under `subtree` (whose root sits at `depth`) closest
    /// in XOR distance to `target`, skipping the leaves whose distances to
    /// `target` appear in `held` — in any order, every one of them a live
    /// leaf of `subtree`. `None` when `held` covers every live leaf.
    /// `held` is scratch: the descent reorders and overwrites it.
    ///
    /// One descent: at each level the preferred (nearer) child is entered
    /// only if it holds more live leaves than held ones. The descent
    /// carries `len`, an upper bound on the held leaves under the current
    /// node, and looks at the held distances only when that bound is too
    /// loose to decide: it then compacts `held` to the entries under the
    /// current node (those matching the distance bits chosen so far) and
    /// counts the ones on the preferred side, which makes `len` exact.
    /// Most levels decide on the bound alone, so a descent costs
    /// `O(bits + |held|)` typically and `O(bits × |held|)` at worst.
    fn nearest_live_excluding(
        &self,
        subtree: u32,
        depth: u32,
        target: OverlayAddress,
        held: &mut [u64],
    ) -> Option<usize> {
        if self.subtree_live(subtree) as usize <= held.len() {
            return None;
        }
        let bits = self.space.bits();
        let mut current = subtree;
        // `held[..end]` holds every held leaf under `current`; at most
        // `len` of them are under it.
        let (mut end, mut len) = (held.len(), held.len());
        // The distance of the current node: its bits above the current
        // level are the ones chosen so far (and every held leaf of
        // `subtree` shares those above `depth`), the rest are don't-care.
        let mut chosen = held.first().copied().unwrap_or(0);
        for depth in depth..bits {
            let bit = target.bit(depth);
            let (preferred, fallback) = (self.child(current, bit), self.child(current, !bit));
            let shift = bits - 1 - depth;
            let take_preferred = if preferred == NIL {
                false
            } else if fallback == NIL || self.subtree_live(preferred) as usize > len {
                // Every held leaf under `current` could be on the preferred
                // side and it would still hold a free live leaf.
                true
            } else {
                // Branch-free compaction. The shift is split in two since
                // `shift + 1` is 64 at the root of a 64-bit space.
                let (mut kept, mut near) = (0, 0);
                for i in 0..end {
                    let d = held[i];
                    let under_current = (d ^ chosen) >> shift >> 1 == 0;
                    held[kept] = d;
                    kept += usize::from(under_current);
                    // Held leaves on the preferred side have distance bit
                    // `shift` clear.
                    near += usize::from(under_current & ((d >> shift) & 1 == 0));
                }
                end = kept;
                let nearer = self.subtree_live(preferred) as usize > near;
                len = if nearer { near } else { kept - near };
                nearer
            };
            current = if take_preferred { preferred } else { fallback };
            chosen = (chosen & !(1 << shift)) | (u64::from(!take_preferred) << shift);
        }
        match &self.nodes[current as usize] {
            TrieNode::Leaf { node, live } => {
                debug_assert!(
                    *live && !held[..end].contains(&chosen),
                    "descent must end on a free live leaf"
                );
                Some(*node as usize)
            }
            TrieNode::Branch { .. } => unreachable!("walked past all bits"),
        }
    }

    /// The overlay node at the maker leaf of trie node `index` (whose root
    /// sits at `depth`), if that leaf is live: then, for a subtree known
    /// to hold one live leaf, it is that leaf, found without walking the
    /// chain of single-child nodes down to it.
    #[inline]
    fn maker_leaf(&self, index: u32, depth: u32) -> Option<usize> {
        match self.nodes[index as usize + (self.space.bits() - depth) as usize] {
            TrieNode::Leaf { node, live: true } => Some(node as usize),
            _ => None,
        }
    }

    /// The live node indices stored under `subtree` (whose root sits at
    /// `depth`), in ascending XOR distance from `target`.
    ///
    /// The preferred-bit-first descent enumerates leaves in exact distance
    /// order, so "the k closest live peers" is an O(answer × bits) walk
    /// that stops as soon as the caller stops pulling.
    fn nearest_live(&self, subtree: u32, depth: u32, target: OverlayAddress) -> NearestLive<'_> {
        let mut stack = [(NIL, 0); 65];
        stack[0] = (subtree, depth);
        NearestLive {
            trie: self,
            target,
            stack,
            len: 1,
        }
    }
}

/// The walk of [`AddressTrie::nearest_live`]: a depth-first descent that
/// takes the child on `target`'s side of each branch first and keeps the
/// other on an explicit stack. A descent enters only subtrees with a live
/// leaf, so it always ends on one, and a subtree with exactly one whose
/// maker leaf is live ends there at once ([`AddressTrie::maker_leaf`]),
/// skipping the chain below it. A stacked subtree is checked only when it
/// is popped, since a walk cut short never reads most of them. The
/// stacked depths rise strictly from bottom to top, so the stack never
/// outgrows the 64-bit space's 65 levels.
struct NearestLive<'a> {
    trie: &'a AddressTrie,
    target: OverlayAddress,
    /// Subtrees still to visit, each with the depth of its root, the
    /// nearest on top.
    stack: [(u32, u32); 65],
    len: usize,
}

impl Iterator for NearestLive<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let trie = self.trie;
        let (mut current, mut depth) = loop {
            self.len = self.len.checked_sub(1)?;
            let (subtree, depth) = self.stack[self.len];
            if trie.subtree_live(subtree) > 0 {
                break (subtree, depth);
            }
        };
        loop {
            match &trie.nodes[current as usize] {
                TrieNode::Leaf { node, live } => {
                    debug_assert!(*live, "the walk enters only live subtrees");
                    return Some(*node as usize);
                }
                TrieNode::Branch { zero, one, live } => {
                    if *live == 1 {
                        if let Some(node) = trie.maker_leaf(current, depth) {
                            return Some(node);
                        }
                    }
                    let (preferred, fallback) = if self.target.bit(depth) {
                        (*one, *zero)
                    } else {
                        (*zero, *one)
                    };
                    depth += 1;
                    current = if preferred != NIL && trie.subtree_live(preferred) > 0 {
                        if fallback != NIL {
                            self.stack[self.len] = (fallback, depth);
                            self.len += 1;
                        }
                        preferred
                    } else {
                        fallback
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space(bits: u32) -> AddressSpace {
        AddressSpace::new(bits).unwrap()
    }

    #[test]
    fn build_paper_scale_topology() {
        let t = TopologyBuilder::new(space(16))
            .nodes(1000)
            .bucket_size(4)
            .seed(1)
            .build()
            .unwrap();
        assert_eq!(t.len(), 1000);
        assert_eq!(t.live_count(), 1000);
        t.validate().unwrap();
    }

    #[test]
    fn same_seed_same_topology() {
        let build = |seed| {
            TopologyBuilder::new(space(16))
                .nodes(200)
                .bucket_size(4)
                .seed(seed)
                .build()
                .unwrap()
        };
        let a = build(7);
        let b = build(7);
        let c = build(8);
        assert_eq!(
            a.node_ids().map(|n| a.address(n)).collect::<Vec<_>>(),
            b.node_ids().map(|n| b.address(n)).collect::<Vec<_>>()
        );
        assert!(a.tables().eq(b.tables()));
        assert_ne!(
            a.node_ids().map(|n| a.address(n)).collect::<Vec<_>>(),
            c.node_ids().map(|n| c.address(n)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn build_scales_past_the_16_bit_space() {
        // 3000 nodes in a 20-bit space: impossible under 16 bits, cheap
        // under the sorted-index builder.
        let t = TopologyBuilder::new(space(20))
            .nodes(3000)
            .bucket_size(4)
            .seed(2)
            .build()
            .unwrap();
        assert_eq!(t.len(), 3000);
        // Spot-check the trie against linear scans in the wider space.
        for raw in (0..(1u64 << 20)).step_by(99_991) {
            let target = t.space().address(raw).unwrap();
            let by_scan = t
                .node_ids()
                .min_by_key(|n| t.space().distance(t.address(*n), target))
                .unwrap();
            assert_eq!(t.closest_node(target), by_scan, "target {raw:#x}");
        }
    }

    #[test]
    fn explicit_addresses_respected() {
        let t = TopologyBuilder::new(space(8))
            .explicit_addresses([1, 2, 200, 250])
            .bucket_size(2)
            .build()
            .unwrap();
        assert_eq!(t.len(), 4);
        let raws: Vec<_> = t.node_ids().map(|n| t.address(n).raw()).collect();
        assert_eq!(raws, vec![1, 2, 200, 250]);
        t.validate().unwrap();
    }

    #[test]
    fn tables_with_the_same_ids_at_other_addresses_compare_unequal() {
        // Node 2 moves within node 0's bucket 0: the ids of every table
        // stay the same, but node 0's entry for node 2 names another
        // address.
        let build = |raws: [u64; 3]| {
            TopologyBuilder::new(space(8))
                .explicit_addresses(raws)
                .bucket_size(4)
                .build()
                .unwrap()
        };
        let a = build([0x00, 0x80, 0xC0]);
        let b = build([0x00, 0x80, 0xE0]);
        let ids = |t: &Topology| {
            t.tables()
                .map(|table| table.peers().map(|(id, _)| id).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(&a), ids(&b));
        assert_eq!(a.table(NodeId(0)).peers().count(), 2);
        assert_ne!(a.table(NodeId(0)), b.table(NodeId(0)));
        assert_ne!(
            a.table(NodeId(0)).bucket(0).unwrap(),
            b.table(NodeId(0)).bucket(0).unwrap()
        );
        assert!(!a.tables().eq(b.tables()));
    }

    #[test]
    fn duplicate_explicit_addresses_rejected() {
        let err = TopologyBuilder::new(space(8))
            .explicit_addresses([1, 1])
            .build()
            .unwrap_err();
        assert_eq!(err, KademliaError::DuplicateAddress { raw: 1 });
    }

    #[test]
    fn too_few_nodes_rejected() {
        let err = TopologyBuilder::new(space(8)).nodes(1).build().unwrap_err();
        assert_eq!(err, KademliaError::TooFewNodes { requested: 1 });
    }

    #[test]
    fn space_exhaustion_detected() {
        let err = TopologyBuilder::new(space(2)).nodes(5).build().unwrap_err();
        assert!(matches!(err, KademliaError::SpaceExhausted { .. }));
    }

    #[test]
    fn zero_bucket_size_rejected() {
        let err = TopologyBuilder::new(space(8))
            .nodes(4)
            .bucket_size(0)
            .build()
            .unwrap_err();
        assert_eq!(err, KademliaError::ZeroBucketSize);
    }

    #[test]
    fn closest_node_matches_linear_scan() {
        let t = TopologyBuilder::new(space(16))
            .nodes(300)
            .bucket_size(4)
            .seed(11)
            .build()
            .unwrap();
        let s = t.space();
        for raw in (0..=0xFFFFu64).step_by(977) {
            let target = s.address(raw).unwrap();
            let by_trie = t.closest_node(target);
            let by_scan = t
                .node_ids()
                .min_by_key(|n| s.distance(t.address(*n), target))
                .unwrap();
            assert_eq!(by_trie, by_scan, "target {raw:#06x}");
        }
    }

    #[test]
    fn per_bucket_override_applies() {
        let sizing = BucketSizing::uniform(2).with_override(0, 8);
        assert_eq!(sizing.capacities(4), vec![8, 2, 2, 2]);
        let t = TopologyBuilder::new(space(16))
            .nodes(400)
            .bucket_sizing(sizing)
            .seed(3)
            .build()
            .unwrap();
        t.validate().unwrap();
        // Bucket 0 has ~200 candidates, so it should be filled to 8.
        let full_zero = t
            .node_ids()
            .filter(|n| t.table(*n).bucket(0).unwrap().len() == 8)
            .count();
        assert_eq!(full_zero, 400);
    }

    #[test]
    fn later_override_wins() {
        let sizing = BucketSizing::uniform(4)
            .with_override(1, 10)
            .with_override(1, 6);
        assert_eq!(sizing.capacities(3), vec![4, 6, 4]);
        assert_eq!(sizing.default_k(), 4);
    }

    #[test]
    fn connection_counts_grow_with_k() {
        let build = |k| {
            TopologyBuilder::new(space(16))
                .nodes(300)
                .bucket_size(k)
                .seed(5)
                .build()
                .unwrap()
                .total_connections()
        };
        assert!(build(20) > build(4));
    }

    #[test]
    fn try_address_unknown_node() {
        let t = TopologyBuilder::new(space(8))
            .nodes(4)
            .bucket_size(2)
            .seed(1)
            .build()
            .unwrap();
        assert!(t.try_address(NodeId(99)).is_err());
        assert!(t.try_address(NodeId(0)).is_ok());
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(17).to_string(), "n17");
    }

    // ---- dynamic membership ------------------------------------------

    fn dynamic_topology(nodes: usize, k: usize, seed: u64) -> Topology {
        TopologyBuilder::new(space(16))
            .nodes(nodes)
            .bucket_size(k)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn remove_node_keeps_every_surviving_table_consistent() {
        let mut t = dynamic_topology(200, 4, 21);
        for victim in [3usize, 77, 150, 9, 42] {
            t.remove_node(NodeId(victim)).unwrap();
            t.validate().unwrap();
            assert!(!t.is_live(NodeId(victim)));
            assert_eq!(t.table(NodeId(victim)).connection_count(), 0);
            // No surviving table dangles a reference to the departed node.
            for owner in t.live_ids() {
                assert!(!t.table(owner).knows(NodeId(victim)));
            }
        }
        assert_eq!(t.live_count(), 195);
    }

    #[test]
    fn closest_node_skips_offline_nodes() {
        let mut t = dynamic_topology(120, 4, 23);
        let target = t.space().address(0x4242).unwrap();
        let first = t.closest_node(target);
        t.remove_node(first).unwrap();
        let second = t.closest_node(target);
        assert_ne!(first, second);
        assert!(t.is_live(second));
        // Matches a linear scan over live nodes.
        let by_scan = t
            .live_ids()
            .min_by_key(|n| t.space().distance(t.address(*n), target))
            .unwrap();
        assert_eq!(second, by_scan);
    }

    #[test]
    fn add_node_restores_membership_and_invariants() {
        let mut t = dynamic_topology(150, 4, 29);
        let node = NodeId(60);
        t.remove_node(node).unwrap();
        t.add_node(node).unwrap();
        t.validate().unwrap();
        assert!(t.is_live(node));
        assert_eq!(t.live_count(), 150);
        // The rejoined node is routable again.
        let target = t.address(node);
        assert_eq!(t.closest_node(target), node);
    }

    #[test]
    fn churn_sequence_preserves_invariants() {
        let mut t = dynamic_topology(100, 3, 31);
        let sequence = [5usize, 17, 30, 44, 61, 83];
        for &node in &sequence {
            t.remove_node(NodeId(node)).unwrap();
        }
        t.validate().unwrap();
        for &node in &sequence[..3] {
            t.add_node(NodeId(node)).unwrap();
        }
        t.validate().unwrap();
        assert_eq!(t.live_count(), 100 - 3);
        // Closest-node queries agree with linear scans across the whole
        // address space.
        for raw in (0..=0xFFFFu64).step_by(2711) {
            let target = t.space().address(raw).unwrap();
            let by_scan = t
                .live_ids()
                .min_by_key(|n| t.space().distance(t.address(*n), target))
                .unwrap();
            assert_eq!(t.closest_node(target), by_scan, "target {raw:#06x}");
        }
    }

    #[test]
    fn mutation_errors() {
        let mut t = dynamic_topology(10, 2, 37);
        assert_eq!(
            t.remove_node(NodeId(99)).unwrap_err(),
            KademliaError::UnknownNode { index: 99 }
        );
        assert_eq!(
            t.add_node(NodeId(0)).unwrap_err(),
            KademliaError::NodeAlreadyLive { index: 0 }
        );
        t.remove_node(NodeId(0)).unwrap();
        assert_eq!(
            t.remove_node(NodeId(0)).unwrap_err(),
            KademliaError::NodeNotLive { index: 0 }
        );
        // Drain down to the floor.
        for i in 1..8 {
            t.remove_node(NodeId(i)).unwrap();
        }
        assert_eq!(
            t.remove_node(NodeId(8)).unwrap_err(),
            KademliaError::TooFewLiveNodes { live: 2 }
        );
    }

    #[test]
    fn incremental_maintenance_matches_naive_rebuild_occupancy() {
        let mut t = dynamic_topology(180, 4, 41);
        for node in [4usize, 90, 140] {
            t.remove_node(NodeId(node)).unwrap();
        }
        t.add_node(NodeId(90)).unwrap();
        let naive = t.rebuilt_naive();
        naive.validate().unwrap();
        // Selection policies differ, but per-bucket occupancy (and hence
        // the fullness invariant) must agree exactly.
        for owner in t.live_ids() {
            for (incremental, rebuilt) in t.table(owner).buckets().zip(naive.table(owner).buckets())
            {
                assert_eq!(
                    incremental.len(),
                    rebuilt.len(),
                    "owner {owner} bucket {}",
                    incremental.index()
                );
            }
        }
    }

    #[test]
    fn removal_is_deterministic() {
        let run = || {
            let mut t = dynamic_topology(150, 4, 43);
            t.remove_node(NodeId(12)).unwrap();
            t.remove_node(NodeId(99)).unwrap();
            t.add_node(NodeId(12)).unwrap();
            t
        };
        let a = run();
        let b = run();
        assert!(a.tables().eq(b.tables()));
    }

    #[test]
    fn prefix_selection_matches_linear_scan() {
        let mut t = dynamic_topology(300, 4, 51);
        t.remove_node(NodeId(17)).unwrap();
        let anchor = t.address(NodeId(0));
        for prefix_bits in [0u32, 1, 3, 6, 16, 99] {
            let effective = prefix_bits.min(16);
            let shift = 16 - effective;
            let expected: Vec<NodeId> = t
                .node_ids()
                .filter(|&n| {
                    t.is_live(n) && (t.address(n).raw() >> shift) == (anchor.raw() >> shift)
                })
                .collect();
            assert_eq!(
                t.live_nodes_with_prefix(anchor, prefix_bits),
                expected,
                "prefix_bits = {prefix_bits}"
            );
        }
        // The anchor owner itself always matches the full prefix.
        assert_eq!(t.live_nodes_with_prefix(anchor, 16), vec![NodeId(0)]);
    }

    #[test]
    fn closest_live_nodes_match_sorted_distances() {
        let mut t = dynamic_topology(200, 4, 53);
        t.remove_node(NodeId(5)).unwrap();
        let target = t.space().address(0x1A2B).unwrap();
        let got = t.closest_live_nodes(target, 10);
        let mut expected: Vec<NodeId> = t.live_ids().collect();
        expected.sort_by_key(|&n| t.space().distance(t.address(n), target).raw());
        expected.truncate(10);
        assert_eq!(got, expected);
        // Count 0 and oversized counts behave.
        assert!(t.closest_live_nodes(target, 0).is_empty());
        assert_eq!(t.closest_live_nodes(target, 10_000).len(), 199);
    }

    #[test]
    fn next_hops_ranking_matches_table_scan_and_leads_with_next_hop() {
        let t = dynamic_topology(200, 4, 59);
        let mut out = Vec::new();
        for raw in [0x0000u64, 0x1A2B, 0x7777, 0xFFFF, 0x00FF] {
            let target = t.space().address(raw).unwrap();
            for from in [NodeId(0), NodeId(7), NodeId(131)] {
                let own = t.space().distance(t.address(from), target);
                // Reference: every known peer strictly closer than the
                // owner, ranked by distance.
                let mut expected: Vec<NodeId> = t
                    .table(from)
                    .peers()
                    .filter(|(_, addr)| t.space().distance(*addr, target) < own)
                    .map(|(id, _)| id)
                    .collect();
                expected.sort_by_key(|&n| t.space().distance(t.address(n), target).raw());
                t.next_hops_into(from, target, usize::MAX, &mut out);
                assert_eq!(out, expected, "from {from} target {raw:#06x}");
                // The head of the ranking is the greedy next hop.
                assert_eq!(out.first().copied(), t.next_hop(from, target));
                // Truncation keeps the nearest prefix.
                t.next_hops_into(from, target, 2, &mut out);
                assert_eq!(out, expected[..expected.len().min(2)]);
                // Limit 0 clears the buffer.
                t.next_hops_into(from, target, 0, &mut out);
                assert!(out.is_empty());
            }
        }
    }

    // ---- refill descent and holder index -------------------------------

    proptest::proptest! {
        /// The refill descent returns exactly the closest live leaf of a
        /// subtree whose distance is not held, with the held distances in
        /// any order: dense and sparse (up to 64-bit) spaces, any subtree
        /// below the root, and held sets up to 40 long, past
        /// `refill_candidate`'s 32-entry stack buffer.
        #[test]
        fn nearest_live_excluding_matches_brute_force(
            bits in 2u32..=64,
            nodes in 2usize..160,
            depth in 1u32..=64,
            alive_quarters in 0u32..=4,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::seq::SliceRandom;
            let space = space(bits);
            let depth = depth.min(bits);
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let mask = space.max_raw();
            let nodes = if bits < 64 { nodes.min(1 << bits) } else { nodes };
            // Half the addresses are uniform; the other half copy a stored
            // address's high bits, so subtrees at every depth hold several.
            let (mut raws, mut seen) = (Vec::new(), HashSet::new());
            while raws.len() < nodes {
                let raw = if raws.is_empty() || rng.gen_bool(0.5) {
                    rng.gen::<u64>() & mask
                } else {
                    let base: u64 = raws[rng.gen_range(0..raws.len())];
                    let low = u64::MAX >> (64 - rng.gen_range(1..=bits));
                    (base & !low) | (rng.gen::<u64>() & low)
                };
                if seen.insert(raw) {
                    raws.push(raw);
                }
            }
            let addresses: Vec<_> = raws.iter().map(|&raw| space.address(raw).unwrap()).collect();
            let mut trie = AddressTrie::build(space, &addresses);
            let live: Vec<bool> = (0..nodes).map(|_| rng.gen_range(0u32..4) < alive_quarters).collect();
            for (addr, _) in addresses.iter().zip(&live).filter(|(_, &alive)| !alive) {
                trie.set_live(&trie.path(*addr), false);
            }
            let anchor = addresses[rng.gen_range(0..nodes)];
            let subtree = trie.prefix_subtree(anchor, depth).unwrap();
            let target = if rng.gen_bool(0.5) {
                space.address(rng.gen::<u64>() & mask).unwrap()
            } else {
                addresses[rng.gen_range(0..nodes)]
            };
            let prefix = |raw: u64| raw >> (bits - depth);
            let mut members: Vec<usize> = (0..nodes)
                .filter(|&i| live[i] && prefix(raws[i]) == prefix(anchor.raw()))
                .collect();
            members.shuffle(&mut rng);
            let held_count = rng.gen_range(0..=members.len().min(40));
            let (held, free) = members.split_at(held_count);
            let expected = free.iter().copied().min_by_key(|&i| raws[i] ^ target.raw());
            let mut held: Vec<u64> = held.iter().map(|&i| raws[i] ^ target.raw()).collect();
            proptest::prop_assert_eq!(
                trie.nearest_live_excluding(subtree, depth, target, &mut held),
                expected
            );
        }
    }

    proptest::proptest! {
        /// The nearest-first walk yields exactly the live leaves of its
        /// subtree sorted by XOR distance to the target, cut wherever the
        /// caller stops: any space up to 14 bits, any live set, any
        /// subtree and depth (the whole trie and single leaves included),
        /// any limit.
        #[test]
        fn nearest_live_walk_matches_brute_force(
            bits in 1u32..=14,
            nodes in 1usize..300,
            depth in 0u32..=14,
            alive_quarters in 0u32..=4,
            limit in 0usize..320,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::seq::SliceRandom;
            let space = space(bits);
            let depth = depth.min(bits);
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let mut raws: Vec<u64> = (0..=space.max_raw()).collect();
            raws.shuffle(&mut rng);
            raws.truncate(nodes);
            let addresses: Vec<_> = raws.iter().map(|&raw| space.address(raw).unwrap()).collect();
            let mut trie = AddressTrie::build(space, &addresses);
            let live: Vec<bool> = raws.iter().map(|_| rng.gen_range(0u32..4) < alive_quarters).collect();
            for (addr, _) in addresses.iter().zip(&live).filter(|(_, &alive)| !alive) {
                trie.set_live(&trie.path(*addr), false);
            }
            let anchor = addresses[rng.gen_range(0..addresses.len())];
            let subtree = trie.prefix_subtree(anchor, depth).unwrap();
            let target = space.address(rng.gen_range(0..=space.max_raw())).unwrap();
            let shift = bits - depth;
            let mut expected: Vec<usize> = (0..raws.len())
                .filter(|&i| live[i] && raws[i] >> shift == anchor.raw() >> shift)
                .collect();
            expected.sort_by_key(|&i| raws[i] ^ target.raw());
            expected.truncate(limit);
            let walked: Vec<usize> = trie.nearest_live(subtree, depth, target).take(limit).collect();
            proptest::prop_assert_eq!(walked, expected);
        }
    }

    #[test]
    fn every_trie_node_lies_above_its_maker_leaf() {
        for (bits, nodes, seed) in [(1, 2, 1), (8, 200, 2), (16, 2_000, 3), (24, 3_000, 4)] {
            let t = TopologyBuilder::new(space(bits))
                .nodes(nodes)
                .seed(seed)
                .build()
                .unwrap();
            let trie = &t.trie;
            for addr in &t.addresses {
                let path = trie.path(*addr);
                for depth in 0..=bits {
                    let index = path[depth as usize] as usize + (bits - depth) as usize;
                    let TrieNode::Leaf { node, .. } = trie.nodes[index] else {
                        panic!("{bits} bits: no leaf at the maker index of depth {depth}");
                    };
                    let shift = bits - depth;
                    assert_eq!(
                        t.addresses[node as usize].raw() >> shift,
                        addr.raw() >> shift,
                        "{bits} bits, depth {depth}: maker leaf outside the subtree"
                    );
                }
            }
        }
    }

    /// Every node's holders read off the tables: the owners that list it,
    /// in ascending order.
    fn holders_by_table(t: &Topology) -> Vec<Vec<u32>> {
        let mut holders = vec![Vec::new(); t.len()];
        for owner in 0..t.len() {
            for peer in t.arena.node_peers(owner) {
                holders[peer as usize].push(owner as u32);
            }
        }
        holders
    }

    /// The owners of the fresh entries of `node`'s holder list, sorted.
    fn fresh_holders(t: &Topology, node: usize) -> Vec<u32> {
        let mut fresh: Vec<u32> = t.knowers.lists[node]
            .iter()
            .filter_map(|&entry| t.knowers.fresh_owner(entry))
            .map(|owner| owner as u32)
            .collect();
        fresh.sort_unstable();
        fresh
    }

    /// One random membership change: a departure of a random live node
    /// (two in three, while more than half are live) or the return of a
    /// random offline one. Returns the node that left, if one did.
    fn churn_once(
        t: &mut Topology,
        rng: &mut ChaCha12Rng,
        offline: &mut Vec<NodeId>,
    ) -> Option<NodeId> {
        if offline.is_empty() || (rng.gen_range(0..3) < 2 && t.live_count() > t.len() / 2) {
            let live: Vec<NodeId> = t.live_ids().collect();
            let node = live[rng.gen_range(0..live.len())];
            t.remove_node(node).unwrap();
            offline.push(node);
            Some(node)
        } else {
            let node = offline.swap_remove(rng.gen_range(0..offline.len()));
            t.add_node(node).unwrap();
            None
        }
    }

    #[test]
    fn holder_lists_name_the_tables_and_stay_bounded() {
        for k in [1, 4, 20] {
            let mut t = dynamic_topology(300, k, 73);
            let mut rng = ChaCha12Rng::seed_from_u64(k as u64);
            let mut offline = Vec::new();
            // The most fresh entries each list has held since it was made,
            // from the in-degrees the first change builds the lists at. A
            // list grows only when all its entries are fresh, so it never
            // holds more than twice that many; departures turn entries
            // stale without touching the lists, so the fresh count itself
            // may fall far below the length in between.
            let mut peak: Vec<usize> = holders_by_table(&t).iter().map(Vec::len).collect();
            for step in 0..600 {
                if let Some(node) = churn_once(&mut t, &mut rng, &mut offline) {
                    peak[node.0] = 0;
                }
                let tables = holders_by_table(&t);
                for (node, holders) in tables.iter().enumerate() {
                    assert_eq!(
                        &fresh_holders(&t, node),
                        holders,
                        "k = {k}, step {step}, node {node}"
                    );
                    peak[node] = peak[node].max(holders.len());
                    let len = t.knowers.lists[node].len();
                    assert!(
                        len <= (2 * peak[node]).max(4),
                        "k = {k}, step {step}, node {node}: {len} entries, at most {} fresh",
                        peak[node]
                    );
                }
            }
            t.validate().unwrap();
        }
    }

    #[test]
    fn a_wrapping_departure_count_rebuilds_the_holder_lists() {
        for k in [1, 4, 20] {
            let mut plain = dynamic_topology(150, k, 79);
            plain.ensure_knowers();
            // One stamp bit: a node's count wraps at its second departure
            // since the last rebuild, where the plain index's would wrap
            // after 2^24.
            let mut wrapping = plain.clone();
            wrapping.knowers = Knowers::build(&wrapping.arena, wrapping.len(), u32::BITS - 1);
            let mut rng = ChaCha12Rng::seed_from_u64(k as u64);
            let mut offline = Vec::new();
            let mut rebuilds = 0;
            for step in 0..500 {
                let counted: u32 = wrapping.knowers.departures.iter().sum();
                let mut twin_rng = rng.clone();
                let mut twin_offline = offline.clone();
                let left = churn_once(&mut wrapping, &mut rng, &mut offline);
                churn_once(&mut plain, &mut twin_rng, &mut twin_offline);
                if left.is_some() && wrapping.knowers.departures.iter().sum::<u32>() < counted {
                    rebuilds += 1;
                    // A rebuild leaves no stale entry and every count zero.
                    assert!(wrapping.knowers.departures.iter().all(|&c| c == 0));
                    let tables = holders_by_table(&wrapping);
                    for (list, holders) in wrapping.knowers.lists.iter().zip(&tables) {
                        assert_eq!(list, holders, "k = {k}, step {step}");
                    }
                }
                // The plain twin's tables are the ones the reference-model
                // property pins.
                assert!(wrapping.tables().eq(plain.tables()), "k = {k}, step {step}");
                assert_eq!(wrapping.validate(), Ok(()), "k = {k}, step {step}");
            }
            assert!(rebuilds > 5, "k = {k}: {rebuilds} rebuilds");
        }
    }

    #[test]
    fn holder_order_never_changes_the_tables() {
        use rand::seq::SliceRandom;
        for k in [4, 20] {
            let mut built = dynamic_topology(300, k, 61);
            built.ensure_knowers();
            let mut rng = ChaCha12Rng::seed_from_u64(k as u64);
            let mut reordered = built.clone();
            let mut offline = Vec::new();
            for step in 0..60 {
                for (i, list) in reordered.knowers.lists.iter_mut().enumerate() {
                    if (i + step) % 2 == 0 {
                        list.reverse();
                    } else {
                        list.shuffle(&mut rng);
                    }
                }
                let node = if step % 3 == 2 {
                    offline.swap_remove(rng.gen_range(0..offline.len()))
                } else {
                    let live: Vec<_> = built.live_ids().collect();
                    let node = live[rng.gen_range(0..live.len())];
                    offline.push(node);
                    node
                };
                for t in [&mut built, &mut reordered] {
                    if t.is_live(node) {
                        t.remove_node(node).unwrap();
                    } else {
                        t.add_node(node).unwrap();
                    }
                }
                assert!(
                    built.tables().eq(reordered.tables()),
                    "k = {k}, step {step}"
                );
            }
            reordered.validate().unwrap();
        }
    }

    #[test]
    fn validate_rejects_a_missing_extra_or_duplicate_holder() {
        let mut t = dynamic_topology(100, 4, 67);
        t.remove_node(NodeId(5)).unwrap();
        t.remove_node(NodeId(8)).unwrap();
        t.add_node(NodeId(8)).unwrap();
        // A list with two fresh entries and a stale one (of node 5's or of
        // node 8's first session).
        let (peer, fresh_at, stale_at) = (0..t.len())
            .find_map(|i| {
                let list = &t.knowers.lists[i];
                let fresh: Vec<usize> = (0..list.len())
                    .filter(|&at| t.knowers.fresh_owner(list[at]).is_some())
                    .collect();
                let stale = (0..list.len()).find(|at| !fresh.contains(at))?;
                (fresh.len() >= 2).then_some((i, fresh, stale))
            })
            .unwrap();
        let entry = |owner: usize| t.knowers.entry(owner);
        let stranger = (0..t.len())
            .find(|&o| o != peer && !fresh_holders(&t, peer).contains(&(o as u32)))
            .unwrap();
        let with = |edit: &dyn Fn(&mut Vec<u32>)| {
            let mut broken = t.clone();
            edit(&mut broken.knowers.lists[peer]);
            broken.validate()
        };
        // Holder order is free, and so are stale entries ...
        assert_eq!(with(&|list| list.reverse()), Ok(()));
        assert_eq!(
            with(&|list| {
                list.remove(stale_at);
            }),
            Ok(())
        );
        // ... but the fresh owners and their multiplicity are not.
        assert!(
            with(&|list| {
                list.remove(fresh_at[0]);
            })
            .is_err(),
            "missing"
        );
        assert!(with(&|list| list.push(entry(stranger))).is_err(), "extra");
        let first = t.knowers.lists[peer][fresh_at[0]];
        assert!(with(&|list| list.push(first)).is_err(), "duplicate");
        // A stamp its owner's count has not reached, or an owner outside
        // the overlay, names no session at all.
        let (owner, stamp) = t.knowers.unpack(first);
        let ahead = ((stamp + 1) << t.knowers.owner_bits) | owner as u32;
        assert!(
            with(&|list| list[stale_at] = ahead).is_err(),
            "future stamp"
        );
        assert!(
            with(&|list| list[stale_at] = t.len() as u32).is_err(),
            "unknown owner"
        );
    }

    // ---- walk 2 on several threads -------------------------------------

    /// The first of 2, 3, 4 and 8 walk threads whose build of `builder`
    /// differs from the one-thread build in any table entry or its order,
    /// if one does. The split has no size cutoff here, so even two nodes
    /// spread over the threads.
    fn thread_count_that_changes_the_tables(builder: &TopologyBuilder) -> Option<usize> {
        let serial = builder.build_with_threads(|_| 1).unwrap();
        [2, 3, 4, 8].into_iter().find(|&threads| {
            let split = builder.build_with_threads(|_| threads).unwrap();
            !serial.tables().eq(split.tables())
        })
    }

    proptest::proptest! {
        /// Walk 2 visits owners on any number of threads, each owner
        /// drawing from its own stream over its own sibling ranges, so the
        /// tables equal the one-thread build's over the whole space of the
        /// builder's reference-sampler property.
        #[test]
        fn thread_count_never_changes_the_tables(
            bits in 1u32..=14,
            nodes in 2usize..300,
            k in 1usize..24,
            over in (proptest::prelude::any::<bool>(), 0u32..14, 1usize..64),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut sizing = BucketSizing::uniform(k);
            if let (true, bucket, cap) = over {
                sizing = sizing.with_override(bucket, cap);
            }
            let builder = TopologyBuilder::new(space(bits))
                .nodes(nodes.min(1 << bits))
                .bucket_sizing(sizing)
                .seed(seed);
            proptest::prop_assert_eq!(thread_count_that_changes_the_tables(&builder), None);
        }
    }

    #[test]
    fn thread_count_invariance_at_two_and_three_nodes() {
        for (bits, nodes) in [(1, 2), (2, 2), (2, 3), (8, 2), (8, 3)] {
            for seed in 0..16 {
                let builder = TopologyBuilder::new(space(bits))
                    .nodes(nodes)
                    .bucket_size(2)
                    .seed(seed);
                assert_eq!(
                    thread_count_that_changes_the_tables(&builder),
                    None,
                    "{nodes} nodes in {bits} bits, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn thread_count_invariance_with_an_empty_half() {
        // Every address has the top bit set: the split passes over the
        // empty zeros half at depth 0 before the threads part at depth 1.
        let builder = TopologyBuilder::new(space(8))
            .explicit_addresses([0xC0, 0xC1, 0xC7, 0xD3, 0xE8, 0xFF, 0x80, 0x9A, 0xA5])
            .bucket_size(2)
            .seed(5);
        assert_eq!(thread_count_that_changes_the_tables(&builder), None);
    }

    /// A build above the split cutoff, at the scale of the large-overlay
    /// runs; too slow unoptimised.
    #[cfg(not(debug_assertions))]
    #[test]
    fn thread_count_invariance_at_2_pow_17_nodes() {
        let builder = TopologyBuilder::new(space(20))
            .nodes(1 << 17)
            .bucket_size(20)
            .seed(0xFA12);
        assert_eq!(thread_count_that_changes_the_tables(&builder), None);
    }

    #[test]
    fn top_k_by_score_ranks_live_nodes_deterministically() {
        let mut t = dynamic_topology(50, 4, 57);
        let mut scores = vec![1.0; 50];
        scores[7] = 100.0;
        scores[3] = 100.0;
        scores[20] = 50.0;
        scores[9] = f64::NAN;
        let top = t.top_k_live_by_score(&scores, 3);
        // Ties break toward the lower id.
        assert_eq!(top, vec![NodeId(3), NodeId(7), NodeId(20)]);
        // Offline nodes never rank.
        t.remove_node(NodeId(7)).unwrap();
        assert_eq!(
            t.top_k_live_by_score(&scores, 2),
            vec![NodeId(3), NodeId(20)]
        );
        // Short score vectors and oversized counts are total.
        let all = t.top_k_live_by_score(&scores[..10], 10_000);
        assert_eq!(all.len(), 49);
        // NaN ranks last.
        assert_eq!(all.last().copied(), Some(NodeId(9)));
    }
}
