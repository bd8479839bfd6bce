//! K-bucket views: fixed-capacity groups of peers at one proximity order.
//!
//! Buckets own no storage. A bucket's peer ids live in the topology's
//! [`TableArena`](crate::routing_table), and their addresses in the
//! topology's id-indexed address table, so a `BucketRef` is those two
//! borrowed slices plus metadata, obtained through
//! [`TableRef::bucket`](crate::TableRef::bucket) /
//! [`TableRef::buckets`](crate::TableRef::buckets).

use std::fmt;

use crate::address::OverlayAddress;
use crate::topology::NodeId;

/// A read view of a single routing-table bucket.
///
/// Bucket `i` of a node holds peers whose addresses share a prefix of
/// length *exactly* `i` with the node's own address (paper §IV-B: "The
/// i-th bucket of a node contains addresses that have a common prefix of
/// length i with the node's address. Each bucket contains at most k
/// addresses."). Two views compare equal when index, capacity and the
/// `(id, address)` entries agree.
#[derive(Clone, Copy)]
pub struct BucketRef<'a> {
    index: u32,
    capacity: usize,
    ids: &'a [u32],
    /// Every node's address, indexed by node id.
    addresses: &'a [OverlayAddress],
}

impl<'a> BucketRef<'a> {
    pub(crate) fn new(
        index: u32,
        capacity: usize,
        ids: &'a [u32],
        addresses: &'a [OverlayAddress],
    ) -> Self {
        Self {
            index,
            capacity,
            ids,
            addresses,
        }
    }

    /// The proximity order this bucket covers.
    #[inline]
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Maximum number of peers this bucket may hold (`k`).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of peers.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the bucket holds no peers.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether the bucket is at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.ids.len() >= self.capacity
    }

    /// Whether `node` is in this bucket.
    pub fn contains(&self, node: NodeId) -> bool {
        self.ids.contains(&(node.0 as u32))
    }

    /// Iterates over `(NodeId, OverlayAddress)` entries in insertion
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, OverlayAddress)> + 'a {
        let addresses = self.addresses;
        self.ids
            .iter()
            .map(move |&id| (NodeId(id as usize), addresses[id as usize]))
    }
}

impl PartialEq for BucketRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index && self.capacity == other.capacity && self.iter().eq(other.iter())
    }
}

impl Eq for BucketRef<'_> {}

impl fmt::Debug for BucketRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BucketRef")
            .field("index", &self.index)
            .field("capacity", &self.capacity)
            .field("entries", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::AddressSpace;

    /// An id-indexed address table: node `id` sits at `raws[id]` in a
    /// 16-bit space.
    fn addresses(raws: &[u64]) -> Vec<OverlayAddress> {
        let space = AddressSpace::new(16).unwrap();
        raws.iter()
            .map(|&raw| space.address(raw).unwrap())
            .collect()
    }

    #[test]
    fn metadata_and_iteration() {
        let mut raws = vec![0u64; 12];
        raws[7] = 0x00F0;
        raws[9] = 0x00F1;
        raws[11] = 0x00F2;
        let addresses = addresses(&raws);
        let ids = [7u32, 9, 11];
        let b = BucketRef::new(5, 20, &ids, &addresses);
        assert_eq!(b.index(), 5);
        assert_eq!(b.capacity(), 20);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert!(!b.is_full());
        assert!(b.contains(NodeId(9)));
        assert!(!b.contains(NodeId(10)));
        let entries: Vec<(usize, u64)> = b.iter().map(|(id, a)| (id.0, a.raw())).collect();
        assert_eq!(entries, vec![(7, 0x00F0), (9, 0x00F1), (11, 0x00F2)]);
    }

    #[test]
    fn fullness_uses_configured_capacity() {
        let addresses = addresses(&[0, 1, 2]);
        let ids = [1u32, 2];
        let full = BucketRef::new(0, 2, &ids, &addresses);
        assert!(full.is_full());
        let spare = BucketRef::new(0, 3, &ids, &addresses);
        assert!(!spare.is_full());
    }

    #[test]
    fn empty_bucket() {
        let b = BucketRef::new(3, 4, &[], &[]);
        assert!(b.is_empty());
        assert_eq!(b.iter().count(), 0);
    }
}
