//! Overlay addresses and the Kademlia XOR metric.
//!
//! Both nodes and content chunks live in the same address space (paper
//! §III-A: "All content in Swarm [...] are addressed on the same address
//! space as nodes"). Proximity between two addresses is the length of their
//! shared most-significant-bit prefix; distance is the XOR of the two
//! addresses interpreted as an integer.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::KademliaError;

/// A bounded address space of `bits` bits.
///
/// The paper simulates a 16-bit space (addresses in `0..2^16`); Swarm proper
/// uses 256-bit addresses. Widths up to 64 bits are supported, which is ample
/// for laptop-scale simulation while keeping addresses `Copy`.
///
/// ```
/// use fairswap_kademlia::AddressSpace;
///
/// let space = AddressSpace::new(16)?;
/// assert_eq!(space.capacity(), 65_536);
/// # Ok::<(), fairswap_kademlia::KademliaError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AddressSpace {
    bits: u32,
}

impl AddressSpace {
    /// Creates an address space of `bits` bits.
    ///
    /// # Errors
    ///
    /// Returns [`KademliaError::InvalidBits`] unless `1 <= bits <= 64`.
    pub fn new(bits: u32) -> Result<Self, KademliaError> {
        if bits == 0 || bits > 64 {
            return Err(KademliaError::InvalidBits { bits });
        }
        Ok(Self { bits })
    }

    /// The bit-width of this space.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of distinct addresses, saturating at `u128::MAX` — for 64-bit
    /// spaces the true capacity `2^64` still fits in a `u128`.
    #[inline]
    pub fn capacity(&self) -> u128 {
        1u128 << self.bits
    }

    /// The largest raw value representable in this space.
    #[inline]
    pub fn max_raw(&self) -> u64 {
        if self.bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        }
    }

    /// Wraps a raw integer into an [`OverlayAddress`].
    ///
    /// # Errors
    ///
    /// Returns [`KademliaError::AddressOutOfRange`] if `raw` does not fit in
    /// the space.
    pub fn address(&self, raw: u64) -> Result<OverlayAddress, KademliaError> {
        if raw > self.max_raw() {
            return Err(KademliaError::AddressOutOfRange {
                raw,
                bits: self.bits,
            });
        }
        Ok(OverlayAddress {
            raw,
            bits: self.bits,
        })
    }

    /// Wraps a raw integer, truncating it into range by masking the high bits.
    ///
    /// Useful when deriving addresses from hashes or RNG output.
    pub fn address_truncated(&self, raw: u64) -> OverlayAddress {
        OverlayAddress {
            raw: raw & self.max_raw(),
            bits: self.bits,
        }
    }

    /// XOR distance between two addresses of this space.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the addresses belong to a different space.
    #[inline]
    pub fn distance(&self, a: OverlayAddress, b: OverlayAddress) -> Distance {
        debug_assert_eq!(a.bits, self.bits);
        debug_assert_eq!(b.bits, self.bits);
        Distance(a.raw ^ b.raw)
    }

    /// Proximity order: the number of shared most-significant prefix bits.
    ///
    /// Two equal addresses have proximity `bits` (the maximum); addresses
    /// differing in the first bit have proximity 0 (paper §III-A: "The
    /// furthest away nodes are those nodes with a different first bit").
    #[inline]
    pub fn proximity(&self, a: OverlayAddress, b: OverlayAddress) -> Proximity {
        debug_assert_eq!(a.bits, self.bits);
        debug_assert_eq!(b.bits, self.bits);
        let x = a.raw ^ b.raw;
        if x == 0 {
            return Proximity(self.bits);
        }
        // Shift the space's MSB up to bit 63 so leading_zeros counts only
        // bits that are inside the space.
        let shifted = x << (64 - self.bits);
        Proximity(shifted.leading_zeros())
    }
}

/// An address in an [`AddressSpace`].
///
/// Addresses carry their bit-width so that cross-space comparisons are caught
/// in debug builds. They order by raw value; *metric* comparisons go through
/// [`AddressSpace::distance`] / [`AddressSpace::proximity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OverlayAddress {
    raw: u64,
    bits: u32,
}

impl OverlayAddress {
    /// The raw integer value.
    #[inline]
    pub fn raw(&self) -> u64 {
        self.raw
    }

    /// The bit-width of the space this address belongs to.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// XOR distance to `other`.
    #[inline]
    pub fn distance(&self, other: OverlayAddress) -> Distance {
        debug_assert_eq!(self.bits, other.bits);
        Distance(self.raw ^ other.raw)
    }

    /// Proximity order (shared MSB prefix length) with `other`.
    #[inline]
    pub fn proximity(&self, other: OverlayAddress) -> Proximity {
        debug_assert_eq!(self.bits, other.bits);
        let x = self.raw ^ other.raw;
        if x == 0 {
            return Proximity(self.bits);
        }
        Proximity((x << (64 - self.bits)).leading_zeros())
    }

    /// The value of bit `index`, counting from the most significant bit of
    /// the space (bit 0 is the MSB).
    ///
    /// # Panics
    ///
    /// Panics if `index >= bits`.
    #[inline]
    pub fn bit(&self, index: u32) -> bool {
        assert!(index < self.bits, "bit index {index} out of range");
        (self.raw >> (self.bits - 1 - index)) & 1 == 1
    }
}

impl fmt::Display for OverlayAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = (self.bits as usize).div_ceil(4);
        write!(f, "{:0width$x}", self.raw, width = width)
    }
}

impl fmt::Binary for OverlayAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:0width$b}", self.raw, width = self.bits as usize)
    }
}

impl fmt::LowerHex for OverlayAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.raw, f)
    }
}

impl fmt::UpperHex for OverlayAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.raw, f)
    }
}

/// XOR distance between two overlay addresses.
///
/// Distances are totally ordered; smaller means closer. The XOR metric is a
/// genuine metric and additionally satisfies the *unique closest point*
/// property that Kademlia relies on: for any target and any distance there is
/// at most one address at that distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Distance(pub u64);

impl Distance {
    /// Zero distance (an address to itself).
    pub const ZERO: Distance = Distance(0);

    /// The raw XOR value.
    #[inline]
    pub fn raw(&self) -> u64 {
        self.0
    }

    /// Whether this is the zero distance.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Distance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Proximity order: length of the shared most-significant-bit prefix.
///
/// Larger proximity means closer. Proximity `bits` means equality; proximity
/// 0 means the first bit already differs. The proximity order of a peer also
/// names the routing-table bucket it falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Proximity(pub u32);

impl Proximity {
    /// The raw prefix length.
    #[inline]
    pub fn order(&self) -> u32 {
        self.0
    }

    /// Bucket index this proximity maps to (identical to the order).
    #[inline]
    pub fn bucket_index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Proximity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space16() -> AddressSpace {
        AddressSpace::new(16).unwrap()
    }

    #[test]
    fn rejects_invalid_bit_widths() {
        assert!(AddressSpace::new(0).is_err());
        assert!(AddressSpace::new(65).is_err());
        assert!(AddressSpace::new(1).is_ok());
        assert!(AddressSpace::new(64).is_ok());
    }

    #[test]
    fn capacity_and_max_raw() {
        let s = space16();
        assert_eq!(s.capacity(), 65_536);
        assert_eq!(s.max_raw(), 0xFFFF);
        let s64 = AddressSpace::new(64).unwrap();
        assert_eq!(s64.max_raw(), u64::MAX);
        assert_eq!(s64.capacity(), 1u128 << 64);
    }

    #[test]
    fn address_range_checked() {
        let s = space16();
        assert!(s.address(0xFFFF).is_ok());
        assert!(matches!(
            s.address(0x1_0000),
            Err(KademliaError::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn address_truncated_masks_high_bits() {
        let s = space16();
        let a = s.address_truncated(0xABCD_1234);
        assert_eq!(a.raw(), 0x1234);
    }

    #[test]
    fn distance_is_xor() {
        let s = space16();
        let a = s.address(0b1010).unwrap();
        let b = s.address(0b0110).unwrap();
        assert_eq!(s.distance(a, b), Distance(0b1100));
        assert_eq!(a.distance(b), Distance(0b1100));
        assert!(s.distance(a, a).is_zero());
    }

    #[test]
    fn proximity_counts_shared_msb_prefix() {
        let s = AddressSpace::new(8).unwrap();
        let a = s.address(0b0101_1011).unwrap();
        // Same first 4 bits, differs at bit 4.
        let b = s.address(0b0101_0011).unwrap();
        assert_eq!(s.proximity(a, b), Proximity(4));
        // Different first bit.
        let c = s.address(0b1101_1011).unwrap();
        assert_eq!(s.proximity(a, c), Proximity(0));
        // Equal addresses saturate at the full width.
        assert_eq!(s.proximity(a, a), Proximity(8));
    }

    #[test]
    fn proximity_matches_paper_figure3_example() {
        // Fig. 3 of the paper: node 0b01011011 groups peers by shared prefix.
        let s = AddressSpace::new(8).unwrap();
        let node = s.address(0b0101_1011).unwrap();
        let cases = [
            (0b1010_0010u64, 0u32), // bucket 0: first bit differs
            (0b0010_0010, 1),       // bucket 1
            (0b0110_1010, 2),       // bucket 2
            (0b0100_1010, 3),       // bucket 3
            (0b0101_0100, 4),       // bucket 4
            (0b0101_1111, 5),       // bucket 5
            (0b0101_1000, 6),       // bucket 6
            (0b0101_1010, 7),       // bucket 7
        ];
        for (raw, order) in cases {
            let peer = s.address(raw).unwrap();
            assert_eq!(s.proximity(node, peer), Proximity(order), "peer {raw:08b}");
        }
    }

    #[test]
    fn bit_indexing_is_msb_first() {
        let s = AddressSpace::new(8).unwrap();
        let a = s.address(0b1000_0001).unwrap();
        assert!(a.bit(0));
        assert!(!a.bit(1));
        assert!(a.bit(7));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_indexing_panics_out_of_range() {
        let s = AddressSpace::new(8).unwrap();
        let a = s.address(1).unwrap();
        let _ = a.bit(8);
    }

    #[test]
    fn display_formats() {
        let s = space16();
        let a = s.address(0x00AB).unwrap();
        assert_eq!(a.to_string(), "00ab");
        assert_eq!(format!("{a:b}"), "0000000010101011");
        assert_eq!(format!("{a:x}"), "ab");
        assert_eq!(format!("{a:X}"), "AB");
    }

    #[test]
    fn full_width_space_proximity() {
        let s = AddressSpace::new(64).unwrap();
        let a = s.address(0).unwrap();
        let b = s.address(1).unwrap();
        assert_eq!(s.proximity(a, b), Proximity(63));
        assert_eq!(s.proximity(a, a), Proximity(64));
        let c = s.address(u64::MAX).unwrap();
        assert_eq!(s.proximity(a, c), Proximity(0));
    }

    #[test]
    fn closer_in_proximity_iff_smaller_distance_prefix() {
        // Higher proximity implies strictly smaller XOR distance.
        let s = space16();
        let t = s.address(0x00FF).unwrap();
        let near = s.address(0x00FE).unwrap(); // proximity 15
        let far = s.address(0x40FF).unwrap(); // proximity 1
        assert!(s.proximity(t, near) > s.proximity(t, far));
        assert!(s.distance(t, near) < s.distance(t, far));
    }
}
