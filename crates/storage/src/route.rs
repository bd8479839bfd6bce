//! Routing policies: what a chunk request does when the greedy next hop
//! cannot take it.
//!
//! The paper's model fixes one rule — forward to the strictly-closest
//! known peer, drop when it is bandwidth-saturated. [`RoutePolicy`] makes
//! that rule a configuration axis so capacity-aware routing composes with
//! every other experiment dimension instead of being a hardcoded branch in
//! [`DownloadSim`](crate::DownloadSim).
//!
//! Policies are a closed, serde-stable enum rather than a trait object:
//! the next-hop choice sits on the innermost loop of every routed chunk,
//! and an enum keeps the greedy fast path branch-predictable and the spec
//! format stable. The other two policies of `fairswap_core::policy`,
//! caching and repair, are closed enums for the same reason.
//!
//! Determinism rules: a policy may consult only the topology, the target
//! address and the per-step capacity ledger — never wall-clock time or an
//! unseeded RNG — so a run stays a pure function of its configuration
//! seed for any thread count.

use serde::{Deserialize, Serialize};

/// How the download walk picks the next relay for a chunk request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutePolicy {
    /// The paper's rule: always forward to the strictly-closest known
    /// peer; if that peer has exhausted its per-step bandwidth budget the
    /// request is dropped (counted as stuck and capacity-blocked).
    #[default]
    Greedy,
    /// Greedy with a capacity escape hatch: when the closest known peer is
    /// saturated, try up to `max_detours` next-closest table entries that
    /// still improve on the current node's distance, taking the first
    /// unsaturated one (each such hop is counted as `detoured`). Only when
    /// every candidate is saturated is the request dropped. With unlimited
    /// capacity this is bit-for-bit identical to [`RoutePolicy::Greedy`]:
    /// the detour path never executes.
    CapacityDetour {
        /// Fallback candidates to try past the greedy choice (0 degrades
        /// to greedy behavior).
        max_detours: usize,
    },
}

impl RoutePolicy {
    /// A short stable identifier, used in CSV output and on the CLI.
    pub fn id(&self) -> &'static str {
        match self {
            Self::Greedy => "greedy",
            Self::CapacityDetour { .. } => "capacity-detour",
        }
    }

    /// Fallback candidates past the greedy choice (0 for greedy).
    pub fn max_detours(&self) -> usize {
        match *self {
            Self::Greedy => 0,
            Self::CapacityDetour { max_detours } => max_detours,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_and_detour_counts() {
        assert_eq!(RoutePolicy::Greedy.id(), "greedy");
        assert_eq!(RoutePolicy::Greedy.max_detours(), 0);
        let detour = RoutePolicy::CapacityDetour { max_detours: 3 };
        assert_eq!(detour.id(), "capacity-detour");
        assert_eq!(detour.max_detours(), 3);
        assert_eq!(RoutePolicy::default(), RoutePolicy::Greedy);
    }

    #[test]
    fn serde_round_trip() {
        for policy in [
            RoutePolicy::Greedy,
            RoutePolicy::CapacityDetour { max_detours: 2 },
        ] {
            let json = serde_json::to_string(&policy).unwrap();
            let back: RoutePolicy = serde_json::from_str(&json).unwrap();
            assert_eq!(back, policy);
        }
    }
}
