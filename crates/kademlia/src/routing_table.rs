//! Arena-backed routing tables and the bucket-ordered next-hop search.
//!
//! Every routing table of a topology lives in one contiguous arena
//! ([`TableArena`]): peer ids in one flat slice, with each
//! `(node, bucket)` pair owning a fixed `(offset, len)` slot range. Routing
//! walks therefore touch consecutive cache lines instead of chasing
//! `nodes × bits` little heap vectors, and building a 10⁵-node overlay
//! performs a handful of allocations instead of millions.
//!
//! The arena stores peer ids only. A peer's address is read from the
//! topology's id-indexed address table (`Topology::addresses`), which
//! every search and view borrows, so each address is stored once and a
//! table entry costs 4 bytes.
//!
//! The slot range reserved for bucket `b` of a node is
//! `min(capacity_b, candidates_b)`, where `candidates_b` counts *every*
//! node slot (live or offline) at proximity exactly `b` from the owner.
//! Bucket occupancy can never exceed that bound — entries are distinct
//! nodes at exactly that proximity, and inserts beyond the candidate
//! count are necessarily duplicates — so the layout computed at build
//! time stays valid across arbitrary [`add_node`] / [`remove_node`]
//! churn and the arena never reallocates.
//!
//! [`add_node`]: crate::topology::Topology::add_node
//! [`remove_node`]: crate::topology::Topology::remove_node

use std::fmt;

use crate::address::{AddressSpace, OverlayAddress, Proximity};
use crate::bucket::BucketRef;
use crate::topology::NodeId;

/// Slot range of one bucket: start offset into `ids` plus
/// current occupancy, packed into 8 bytes so a hop's bucket lookup costs
/// one cache line (the reserved size is the next span's offset minus this
/// one's, adjacent in memory).
#[derive(Debug, Clone, Copy)]
struct BucketSpan {
    offset: u32,
    len: u32,
}

/// Per-topology storage for all routing tables.
///
/// See the module docs for the layout. All indices are dense: node `i`'s
/// bucket `b` is slot `i * bits + b`.
#[derive(Debug, Clone)]
pub(crate) struct TableArena {
    bits: u32,
    /// Peer node ids, all buckets of all nodes concatenated.
    ids: Vec<u32>,
    /// Per `(node, bucket)` slot ranges, plus one zero-length sentinel
    /// whose offset is the total entry count: bucket `s` owns slots
    /// `spans[s].offset .. spans[s + 1].offset` and occupies the first
    /// `spans[s].len` of them.
    spans: Vec<BucketSpan>,
}

impl TableArena {
    /// An arena whose bucket slot `s` (node-major, `bits` slots per node)
    /// is exactly full with `lens[s]` zeroed placeholder entries, for the
    /// topology builder to overwrite through [`TableArena::entries_by_node_mut`].
    /// Initial buckets are exactly full (`len == reserved`), so one length
    /// per bucket fixes the whole layout and `ids` is allocated once, at
    /// its final size.
    ///
    /// # Panics
    ///
    /// Panics if the total entry count overflows the `u32` offset space
    /// (≈ 4 × 10⁹ connections, far beyond simulated scales).
    pub(crate) fn with_full_buckets(bits: u32, lens: &[u32]) -> Self {
        debug_assert_eq!(lens.len() % bits as usize, 0);
        let mut spans = Vec::with_capacity(lens.len() + 1);
        let mut cursor = 0u64;
        for &len in lens {
            assert!(u32::try_from(cursor).is_ok(), "arena offset overflow");
            spans.push(BucketSpan {
                offset: cursor as u32,
                len,
            });
            cursor += u64::from(len);
        }
        assert!(u32::try_from(cursor).is_ok(), "arena offset overflow");
        spans.push(BucketSpan {
            offset: cursor as u32,
            len: 0,
        });
        Self {
            bits,
            ids: vec![0; cursor as usize],
            spans,
        }
    }

    /// Every node's reserved slots, one slice per node in node order, each
    /// with its buckets concatenated shallow to deep (one node's buckets
    /// are adjacent in the arena). The slices are disjoint, so the
    /// topology builder can fill different tables on different threads.
    pub(crate) fn entries_by_node_mut(&mut self) -> Vec<&mut [u32]> {
        let bits = self.bits as usize;
        let nodes = (self.spans.len() - 1) / bits;
        let mut rest = self.ids.as_mut_slice();
        (0..nodes)
            .map(|node| {
                let start = self.spans[node * bits].offset;
                let end = self.spans[(node + 1) * bits].offset;
                let (entries, tail) =
                    std::mem::take(&mut rest).split_at_mut((end - start) as usize);
                rest = tail;
                entries
            })
            .collect()
    }

    /// An arena for a single table whose bucket `b` reserves
    /// `reserved[b]` slots — unit-test and doctest harness.
    #[cfg(test)]
    pub(crate) fn single(bits: u32, reserved: &[u32]) -> Self {
        assert_eq!(reserved.len(), bits as usize);
        let mut arena = Self::with_full_buckets(bits, reserved);
        arena.clear_node(0);
        arena
    }

    #[inline]
    fn slot(&self, node: usize, bucket: usize) -> usize {
        node * self.bits as usize + bucket
    }

    #[inline]
    pub(crate) fn bucket_len(&self, node: usize, bucket: usize) -> usize {
        self.spans[self.slot(node, bucket)].len as usize
    }

    /// The occupied peer ids of one bucket.
    #[inline]
    pub(crate) fn bucket_entries(&self, node: usize, bucket: usize) -> &[u32] {
        let span = self.spans[self.slot(node, bucket)];
        let start = span.offset as usize;
        &self.ids[start..start + span.len as usize]
    }

    /// Whether `peer` occupies the bucket.
    pub(crate) fn contains(&self, node: usize, bucket: usize, peer: u32) -> bool {
        self.bucket_entries(node, bucket).contains(&peer)
    }

    /// Appends `peer` to the bucket. Returns `false` (no insert) when the
    /// bucket's reserved slots are exhausted or the peer is present — the
    /// same acceptance rule as a capacity-checked k-bucket, because
    /// reserved slots are `min(capacity, candidates)` and an insert past
    /// the candidate count is always a duplicate.
    pub(crate) fn insert(&mut self, node: usize, bucket: usize, peer: u32) -> bool {
        let slot = self.slot(node, bucket);
        let span = self.spans[slot];
        let start = span.offset as usize;
        let len = span.len as usize;
        let reserved = (self.spans[slot + 1].offset - span.offset) as usize;
        if len >= reserved || self.ids[start..start + len].contains(&peer) {
            return false;
        }
        self.ids[start + len] = peer;
        self.spans[slot].len += 1;
        true
    }

    /// Appends `peer` to the bucket, which the caller knows has room and
    /// does not hold it: [`TableArena::insert`] without the scan, for a
    /// refill, which follows a removal from the same bucket and picks a
    /// peer the bucket does not hold (debug builds still check both).
    pub(crate) fn push(&mut self, node: usize, bucket: usize, peer: u32) {
        let slot = self.slot(node, bucket);
        let span = self.spans[slot];
        debug_assert!(
            span.offset + span.len < self.spans[slot + 1].offset,
            "no room for {peer}"
        );
        debug_assert!(!self.contains(node, bucket, peer), "{peer} already held");
        self.ids[(span.offset + span.len) as usize] = peer;
        self.spans[slot].len += 1;
    }

    /// Fills the bucket from `peers`, in order, as far as its reserved
    /// slots go, replacing whatever it held: each peer is written straight
    /// into its slot and the length is set once. `peers` must be distinct
    /// peers at the bucket's proximity, and is read no further than the
    /// reserved slots.
    pub(crate) fn fill_bucket(
        &mut self,
        node: usize,
        bucket: usize,
        peers: impl Iterator<Item = u32>,
    ) {
        let slot = self.slot(node, bucket);
        let start = self.spans[slot].offset as usize;
        let end = self.spans[slot + 1].offset as usize;
        let mut len = 0;
        for (entry, peer) in self.ids[start..end].iter_mut().zip(peers) {
            *entry = peer;
            len += 1;
        }
        self.spans[slot].len = len;
    }

    /// Removes `peer` from the bucket, preserving the order of the
    /// remaining entries. Returns `false` if the peer was not present.
    pub(crate) fn remove(&mut self, node: usize, bucket: usize, peer: u32) -> bool {
        let slot = self.slot(node, bucket);
        let span = self.spans[slot];
        let start = span.offset as usize;
        let len = span.len as usize;
        let Some(pos) = self.ids[start..start + len]
            .iter()
            .position(|&id| id == peer)
        else {
            return false;
        };
        self.ids
            .copy_within(start + pos + 1..start + len, start + pos);
        self.spans[slot].len -= 1;
        true
    }

    /// Empties every bucket of `node` (the owner went offline).
    pub(crate) fn clear_node(&mut self, node: usize) {
        let base = node * self.bits as usize;
        for span in &mut self.spans[base..base + self.bits as usize] {
            span.len = 0;
        }
    }

    /// Total entries across all of `node`'s buckets.
    pub(crate) fn connection_count(&self, node: usize) -> usize {
        let base = node * self.bits as usize;
        self.spans[base..base + self.bits as usize]
            .iter()
            .map(|span| span.len as usize)
            .sum()
    }

    /// Total entries across the whole arena.
    pub(crate) fn total_connections(&self) -> usize {
        // The sentinel's len is always zero, so including it is harmless.
        self.spans.iter().map(|span| span.len as usize).sum()
    }

    /// `node`'s peer ids, shallowest bucket first, insertion order within
    /// a bucket.
    pub(crate) fn node_peers<'a>(&'a self, node: usize) -> impl Iterator<Item = u32> + 'a {
        let bits = self.bits as usize;
        (0..bits).flat_map(move |b| self.bucket_entries(node, b).iter().copied())
    }

    /// The known peer of `node` strictly closest (XOR) to `target_raw`,
    /// if any peer beats the owner's own distance. Addresses, the owner's
    /// included, are read from `addresses`, the topology's id-indexed
    /// address table.
    ///
    /// Bucket-ordered search. With `p` the proximity order between owner
    /// and target:
    ///
    /// * every peer in bucket `p` shares at least `p + 1` target-prefix
    ///   bits, so it strictly beats the owner and every peer of every
    ///   other bucket — one bucket scan answers the common case;
    /// * peers in buckets shallower than `p` are strictly farther than
    ///   the owner and are never scanned;
    /// * peers in bucket `b > p` inherit the top `b` bits of the owner's
    ///   own distance and flip bit `b`, which yields a per-bucket lower
    ///   bound; buckets that cannot beat the best distance found are
    ///   skipped, and the walk stops as soon as the (monotone) shared
    ///   prefix alone exceeds it.
    ///
    /// Worst case `O(k + bits)` against the former all-bucket scan; XOR
    /// distances to distinct addresses are unique, so the result is
    /// exactly the linear scan's.
    pub(crate) fn next_hop(
        &self,
        addresses: &[OverlayAddress],
        node: usize,
        target_raw: u64,
    ) -> Option<u32> {
        let bits = self.bits;
        let own = addresses[node].raw() ^ target_raw;
        if own == 0 {
            // The owner sits on the target address; nothing is closer.
            return None;
        }
        let prox = (own << (64 - bits)).leading_zeros() as usize;
        let base = node * bits as usize;

        let span = self.spans[base + prox];
        if span.len > 0 {
            let start = span.offset as usize;
            let ids = &self.ids[start..start + span.len as usize];
            let mut best = ids[0];
            let mut best_d = addresses[best as usize].raw() ^ target_raw;
            for &id in &ids[1..] {
                let d = addresses[id as usize].raw() ^ target_raw;
                if d < best_d {
                    best_d = d;
                    best = id;
                }
            }
            return Some(best);
        }

        let mut best_d = own;
        let mut best: Option<u32> = None;
        for bucket in prox + 1..bits as usize {
            let span = self.spans[base + bucket];
            // `shift` is the weight position of bit `bucket`; safe because
            // `bucket >= 1` keeps it under the space width.
            let shift = bits - 1 - bucket as u32;
            let prefix = (own >> (shift + 1)) << (shift + 1);
            if prefix >= best_d {
                // Deeper buckets share ever longer prefixes of `own`, so
                // no remaining bucket can beat the best distance.
                break;
            }
            if span.len == 0 {
                continue;
            }
            // Entries flip bit `bucket` of `own`; zeros below bound them.
            let floor = prefix | (!own >> shift & 1) << shift;
            if floor >= best_d {
                continue;
            }
            let start = span.offset as usize;
            for &id in &self.ids[start..start + span.len as usize] {
                let d = addresses[id as usize].raw() ^ target_raw;
                if d < best_d {
                    best_d = d;
                    best = Some(id);
                }
            }
        }
        best
    }
}

/// A read view of one node's routing table: `bits` buckets of capacity
/// `k` (possibly overridden per bucket), bucket `i` holding peers at
/// proximity order exactly `i`.
///
/// Obtained from [`Topology::table`]; borrows the topology's shared
/// arena and its id-indexed address table. Two views compare equal when
/// owner, owner address, address space, capacities and every bucket's
/// `(id, address)` entries agree.
///
/// [`Topology::table`]: crate::topology::Topology::table
#[derive(Clone, Copy)]
pub struct TableRef<'a> {
    owner: NodeId,
    owner_address: OverlayAddress,
    space: AddressSpace,
    arena: &'a TableArena,
    addresses: &'a [OverlayAddress],
    capacities: &'a [usize],
}

impl<'a> TableRef<'a> {
    /// A view of `owner`'s table; `addresses[id]` is node `id`'s address.
    pub(crate) fn new(
        owner: NodeId,
        space: AddressSpace,
        arena: &'a TableArena,
        addresses: &'a [OverlayAddress],
        capacities: &'a [usize],
    ) -> Self {
        debug_assert_eq!(capacities.len(), space.bits() as usize);
        Self {
            owner,
            owner_address: addresses[owner.0],
            space,
            arena,
            addresses,
            capacities,
        }
    }

    /// The node owning this table.
    #[inline]
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// The owner's overlay address.
    #[inline]
    pub fn owner_address(&self) -> OverlayAddress {
        self.owner_address
    }

    /// The address space this table lives in.
    #[inline]
    pub fn space(&self) -> AddressSpace {
        self.space
    }

    /// Number of buckets (= address-space bit-width).
    #[inline]
    pub fn bucket_count(&self) -> usize {
        self.space.bits() as usize
    }

    /// Access a bucket by index.
    pub fn bucket(&self, index: usize) -> Option<BucketRef<'a>> {
        (index < self.bucket_count()).then(|| self.bucket_ref(index))
    }

    fn bucket_ref(&self, index: usize) -> BucketRef<'a> {
        let ids = self.arena.bucket_entries(self.owner.0, index);
        BucketRef::new(index as u32, self.capacities[index], ids, self.addresses)
    }

    /// Iterate over all buckets, shallowest (bucket 0) first. Takes the
    /// (copyable) view by value so the iterator can outlive it.
    pub fn buckets(self) -> impl Iterator<Item = BucketRef<'a>> {
        (0..self.bucket_count()).map(move |b| self.bucket_ref(b))
    }

    /// Total number of peers across all buckets (the node's connection
    /// count — the §V overhead discussion charges per open connection).
    pub fn connection_count(&self) -> usize {
        self.arena.connection_count(self.owner.0)
    }

    /// Iterates over every known peer, shallowest bucket first.
    pub fn peers(&self) -> impl Iterator<Item = (NodeId, OverlayAddress)> + 'a {
        let table = *self;
        (0..self.bucket_count()).flat_map(move |b| table.bucket_ref(b).iter())
    }

    /// Whether `peer` appears anywhere in the table.
    pub fn knows(&self, peer: NodeId) -> bool {
        let bits = self.space.bits() as usize;
        (0..bits).any(|b| self.arena.contains(self.owner.0, b, peer.0 as u32))
    }

    /// The known peer closest (XOR metric) to `target`, if any peer is
    /// strictly closer to the target than the owner itself.
    ///
    /// This is the forwarding-Kademlia next-hop choice: requests are
    /// relayed to "the closest possible node" (paper Fig. 1) and
    /// forwarding stops when no known peer improves on the current node.
    /// See the module docs for the bucket-ordered search.
    pub fn next_hop(&self, target: OverlayAddress) -> Option<(NodeId, OverlayAddress)> {
        self.arena
            .next_hop(self.addresses, self.owner.0, target.raw())
            .map(|id| (NodeId(id as usize), self.addresses[id as usize]))
    }

    /// The `n` known peers closest (XOR metric) to `target`, nearest
    /// first.
    ///
    /// This is the classic Kademlia `FIND_NODE` answer shape. Forwarding
    /// Kademlia only ever uses the single best peer
    /// ([`TableRef::next_hop`]), but redundancy analyses — how many
    /// fallback relays a node has toward a region of the address space —
    /// need the ranking. Selection is partial: only the top `n` entries
    /// are ever sorted, so small-`n` queries on big tables cost
    /// `O(peers + n log n)` rather than a full sort.
    pub fn closest_peers(&self, target: OverlayAddress, n: usize) -> Vec<(NodeId, OverlayAddress)> {
        if n == 0 {
            return Vec::new();
        }
        let mut peers: Vec<(NodeId, OverlayAddress)> = self.peers().collect();
        let key = |entry: &(NodeId, OverlayAddress)| entry.1.raw() ^ target.raw();
        if peers.len() > n {
            peers.select_nth_unstable_by_key(n, key);
            peers.truncate(n);
        }
        // Unique XOR distances make the order total, so the partial
        // selection reproduces the full sort's prefix exactly.
        peers.sort_unstable_by_key(key);
        peers
    }

    /// The *neighborhood depth*: the shallowest bucket index from which
    /// all deeper buckets are not full (paper §III-A — the neighborhood is
    /// the proximity at which the node can no longer fill a bucket).
    pub fn neighborhood_depth(&self) -> u32 {
        let bits = self.bucket_count();
        let mut depth = bits as u32;
        for bucket in (0..bits).rev() {
            if self.arena.bucket_len(self.owner.0, bucket) >= self.capacities[bucket] {
                break;
            }
            depth = bucket as u32;
        }
        depth
    }

    /// Proximity order between the owner and `address`.
    pub fn proximity_to(&self, address: OverlayAddress) -> Proximity {
        self.space.proximity(self.owner_address, address)
    }
}

impl PartialEq for TableRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.owner == other.owner
            && self.owner_address == other.owner_address
            && self.space == other.space
            && self.capacities == other.capacities
            && self.buckets().eq(other.buckets())
    }
}

impl Eq for TableRef<'_> {}

impl fmt::Debug for TableRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TableRef")
            .field("owner", &self.owner)
            .field("owner_address", &self.owner_address)
            .field("space", &self.space)
            .field("buckets", &self.buckets().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space8() -> AddressSpace {
        AddressSpace::new(8).unwrap()
    }

    /// A single-table harness with `k` slots reserved per bucket: node 0
    /// owns the table, and `addresses[id]` is node `id`'s address.
    struct Harness {
        arena: TableArena,
        addresses: Vec<OverlayAddress>,
        owner_address: OverlayAddress,
        space: AddressSpace,
        capacities: Vec<usize>,
    }

    impl Harness {
        fn new(owner_raw: u64, k: usize) -> Self {
            let space = space8();
            let owner_address = space.address(owner_raw).unwrap();
            Self {
                arena: TableArena::single(8, &[k as u32; 8]),
                addresses: vec![owner_address],
                owner_address,
                space,
                capacities: vec![k; 8],
            }
        }

        /// Places `peer` at `address` in the address table and inserts it
        /// into the owner's matching bucket. A rejected insert leaves the
        /// address table as it was.
        fn insert(&mut self, peer: NodeId, address: OverlayAddress) -> bool {
            if peer == NodeId(0) {
                return false;
            }
            let bucket = self
                .space
                .proximity(self.owner_address, address)
                .bucket_index();
            if !self.arena.insert(0, bucket, peer.0 as u32) {
                return false;
            }
            if self.addresses.len() <= peer.0 {
                self.addresses.resize(peer.0 + 1, self.owner_address);
            }
            self.addresses[peer.0] = address;
            true
        }

        fn table(&self) -> TableRef<'_> {
            TableRef::new(
                NodeId(0),
                self.space,
                &self.arena,
                &self.addresses,
                &self.capacities,
            )
        }

        /// Linear-scan reference for the bucket-ordered search.
        fn next_hop_reference(&self, target: OverlayAddress) -> Option<(NodeId, OverlayAddress)> {
            let own = self.space.distance(self.owner_address, target);
            let best = self
                .table()
                .peers()
                .min_by_key(|(_, addr)| self.space.distance(*addr, target))?;
            (self.space.distance(best.1, target) < own).then_some(best)
        }
    }

    #[test]
    fn insert_routes_to_correct_bucket() {
        let mut h = Harness::new(0b0101_1011, 4);
        let space = space8();
        // Proximity 0 peer (first bit differs).
        assert!(h.insert(NodeId(1), space.address(0b1101_1011).unwrap()));
        assert_eq!(h.table().bucket(0).unwrap().len(), 1);
        // Proximity 4 peer.
        assert!(h.insert(NodeId(2), space.address(0b0101_0011).unwrap()));
        assert_eq!(h.table().bucket(4).unwrap().len(), 1);
        assert_eq!(h.table().connection_count(), 2);
    }

    #[test]
    fn rejects_self_insert() {
        let mut h = Harness::new(0b0101_1011, 4);
        let space = space8();
        assert!(!h.insert(NodeId(0), space.address(0b0000_0001).unwrap()));
        assert_eq!(h.table().connection_count(), 0);
    }

    #[test]
    fn reserved_slots_enforced() {
        let mut h = Harness::new(0, 2);
        let space = space8();
        // All of these have first bit 1 => bucket 0.
        assert!(h.insert(NodeId(1), space.address(0b1000_0000).unwrap()));
        assert!(h.insert(NodeId(2), space.address(0b1000_0001).unwrap()));
        assert!(!h.insert(NodeId(3), space.address(0b1000_0010).unwrap()));
        assert_eq!(h.table().bucket(0).unwrap().len(), 2);
        // Duplicates are rejected below capacity too.
        assert!(!h.insert(NodeId(1), space.address(0b1000_0000).unwrap()));
    }

    #[test]
    fn next_hop_picks_strictly_closer_peer() {
        let mut h = Harness::new(0b0000_0000, 4);
        let space = space8();
        let far = space.address(0b1000_0000).unwrap();
        let near = space.address(0b0111_0000).unwrap();
        h.insert(NodeId(1), far);
        h.insert(NodeId(2), near);
        // Target close to `near`.
        let target = space.address(0b0111_0001).unwrap();
        let (hop, _) = h.table().next_hop(target).unwrap();
        assert_eq!(hop, NodeId(2));
    }

    #[test]
    fn next_hop_none_when_owner_is_closest() {
        let mut h = Harness::new(0b0000_0001, 4);
        let space = space8();
        h.insert(NodeId(1), space.address(0b1111_1111).unwrap());
        // Target equals owner address: nobody can be closer.
        let target = space.address(0b0000_0001).unwrap();
        assert!(h.table().next_hop(target).is_none());
    }

    #[test]
    fn next_hop_none_on_empty_table() {
        let h = Harness::new(0, 4);
        let target = space8().address(0xFF).unwrap();
        assert!(h.table().next_hop(target).is_none());
    }

    #[test]
    fn next_hop_searches_deeper_buckets_when_proximity_bucket_is_empty() {
        // Owner 0x00, target 0x80 => proximity 0. Leave bucket 0 empty and
        // park peers in deeper buckets; the owner itself must win because
        // deep peers share its (wrong) first bit... unless one of them is
        // closer to the target on the low-order bits.
        let mut h = Harness::new(0b0000_0000, 4);
        let space = space8();
        h.insert(NodeId(1), space.address(0b0100_0000).unwrap()); // bucket 1
        h.insert(NodeId(2), space.address(0b0010_0000).unwrap()); // bucket 2
        let target = space.address(0b1000_0000).unwrap();
        // d(owner) = 0x80, d(n1) = 0xC0, d(n2) = 0xA0: owner is closest.
        assert!(h.table().next_hop(target).is_none());

        // Now a target where a deeper peer wins: target 0b0110_0000.
        // d(owner) = 0x60, d(n1) = 0x20, d(n2) = 0x40.
        let target = space.address(0b0110_0000).unwrap();
        let (hop, _) = h.table().next_hop(target).unwrap();
        assert_eq!(hop, NodeId(1));
    }

    #[test]
    fn next_hop_matches_linear_scan_exhaustively() {
        // Dense 8-bit harness: every possible target against a table with
        // peers sprinkled across all buckets.
        let mut h = Harness::new(0b0101_1011, 2);
        let space = space8();
        for (i, raw) in [
            0b1101_1011u64,
            0b1000_0000,
            0b0001_0000,
            0b0110_0000,
            0b0100_1111,
            0b0101_0000,
            0b0101_1100,
            0b0101_1010,
            0b0011_0011,
            0b0101_1111,
        ]
        .into_iter()
        .enumerate()
        {
            h.insert(NodeId(i + 1), space.address(raw).unwrap());
        }
        for raw in 0..=0xFFu64 {
            let target = space.address(raw).unwrap();
            assert_eq!(
                h.table().next_hop(target),
                h.next_hop_reference(target),
                "target {raw:#010b}"
            );
        }
    }

    #[test]
    fn neighborhood_depth_tracks_unfilled_tail() {
        let mut h = Harness::new(0b0000_0000, 1);
        let space = space8();
        // Fill buckets 0 and 1 (k = 1).
        h.insert(NodeId(1), space.address(0b1000_0000).unwrap());
        h.insert(NodeId(2), space.address(0b0100_0000).unwrap());
        // Buckets 2..8 empty => depth is 2.
        assert_eq!(h.table().neighborhood_depth(), 2);
    }

    #[test]
    fn closest_peers_ranks_by_distance() {
        let mut h = Harness::new(0b0000_0000, 4);
        let space = space8();
        let far = space.address(0b1111_0000).unwrap();
        let mid = space.address(0b0011_0000).unwrap();
        let near = space.address(0b0000_0111).unwrap();
        h.insert(NodeId(1), far);
        h.insert(NodeId(2), mid);
        h.insert(NodeId(3), near);
        let target = space.address(0b0000_0110).unwrap();
        let t = h.table();
        let ranked = t.closest_peers(target, 8);
        let ids: Vec<usize> = ranked.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![3, 2, 1]);
        // Truncation keeps the nearest.
        let top1 = t.closest_peers(target, 1);
        assert_eq!(top1.len(), 1);
        assert_eq!(top1[0].0, NodeId(3));
        // Asking for more than known returns all; zero returns none.
        assert_eq!(t.closest_peers(target, 99).len(), 3);
        assert!(t.closest_peers(target, 0).is_empty());
    }

    #[test]
    fn remove_and_clear() {
        let mut h = Harness::new(0, 4);
        let space = space8();
        let a = space.address(0xF0).unwrap();
        let b = space.address(0x0F).unwrap();
        h.insert(NodeId(1), a);
        h.insert(NodeId(2), b);
        let bucket_a = h.space.proximity(h.owner_address, a).bucket_index();
        assert!(h.arena.remove(0, bucket_a, 1));
        assert!(!h.arena.remove(0, bucket_a, 1));
        assert!(!h.table().knows(NodeId(1)));
        assert_eq!(h.table().connection_count(), 1);
        h.arena.clear_node(0);
        assert_eq!(h.table().connection_count(), 0);
    }

    #[test]
    fn remove_preserves_order_of_rest() {
        let mut h = Harness::new(0, 8);
        let space = space8();
        // Five peers in bucket 0 (first bit set).
        for i in 1..=5u64 {
            h.insert(NodeId(i as usize), space.address(0x80 | i).unwrap());
        }
        assert!(h.arena.remove(0, 0, 2));
        let ids: Vec<usize> = h.table().peers().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![1, 3, 4, 5]);
    }

    #[test]
    fn knows_and_peers() {
        let mut h = Harness::new(0, 4);
        let space = space8();
        h.insert(NodeId(5), space.address(0xF0).unwrap());
        let t = h.table();
        assert!(t.knows(NodeId(5)));
        assert!(!t.knows(NodeId(6)));
        assert_eq!(t.peers().count(), 1);
    }

    #[test]
    fn table_refs_compare_by_content() {
        let mut a = Harness::new(0b0101_1011, 4);
        let mut b = Harness::new(0b0101_1011, 4);
        let space = space8();
        let peer = space.address(0b1101_1011).unwrap();
        a.insert(NodeId(1), peer);
        assert_ne!(a.table(), b.table());
        b.insert(NodeId(1), peer);
        assert_eq!(a.table(), b.table());
        // Same id in the same bucket, but at another address.
        let mut c = Harness::new(0b0101_1011, 4);
        c.insert(NodeId(1), space.address(0b1101_1010).unwrap());
        assert_ne!(a.table(), c.table());
    }
}
