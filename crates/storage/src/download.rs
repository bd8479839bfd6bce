//! The download process: route every chunk of a file, account the traffic.

use std::collections::BTreeMap;
use std::rc::Rc;

use serde::{Deserialize, Serialize};

use fairswap_kademlia::{NodeId, OverlayAddress, RouteOutcome, Topology};

use crate::cache::{CachePolicy, NodeCache};
use crate::route::RoutePolicy;
use crate::traffic::TrafficStats;

/// Where a repair re-upload is sourced from when a lost region is
/// re-replicated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairSource {
    /// The surviving replica: the closest live node to the lost data that
    /// is not the repair destination itself. Models neighborhood
    /// replication — short repair routes, cheap recovery.
    #[default]
    Replica,
    /// The content originator re-seeds: the re-upload starts from the live
    /// node *farthest* from the lost data (the worst-case upload
    /// distance), modeling a publisher with no locality to the region.
    Originator,
}

impl RepairSource {
    /// Stable identifier used in CSV output and logs.
    pub fn id(&self) -> &'static str {
        match self {
            Self::Replica => "replica",
            Self::Originator => "originator",
        }
    }
}

/// Retry attempts past this exponent stop doubling their backoff (caps
/// the shift, not the retries).
const MAX_BACKOFF_SHIFT: u32 = 10;

/// One address region whose chunks are currently unreachable: every live
/// node sharing the region's prefix has departed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LostRegion {
    /// The departed storer's address — the repair target.
    anchor: u64,
    /// Step the region emptied at.
    lost_at: u64,
    /// Earliest step the next repair attempt may run.
    next_attempt: u64,
    /// Failed repair attempts so far (drives the doubling backoff).
    attempts: u32,
}

/// A failed user request waiting for its next retry attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingRetry {
    /// Step at which the retry becomes due.
    due_step: u64,
    /// The original requester.
    originator: NodeId,
    /// The chunk being retried.
    chunk: OverlayAddress,
    /// Attempt number (1 = first retry).
    attempt: u32,
}

/// Whether a route carries user traffic or a repair re-upload — the two
/// share capacity budgets and forwarding accounting but book their
/// outcomes into different counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RouteKind {
    User,
    Repair,
}

/// How one chunk request was resolved, as seen by the accounting layer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkDelivery {
    /// The requesting node.
    pub originator: NodeId,
    /// The chunk address.
    pub chunk: OverlayAddress,
    /// Every node after the originator on the path, in forwarding order.
    /// The last entry served the chunk (storer or cache).
    pub hops: Vec<NodeId>,
    /// Whether the terminal node served from cache rather than storage.
    pub from_cache: bool,
    /// Routing outcome.
    pub outcome: RouteOutcome,
}

impl ChunkDelivery {
    /// The first hop — the "zero-proximity" peer the originator pays under
    /// Swarm's default settlement policy. `None` when the originator already
    /// held the chunk.
    pub fn first_hop(&self) -> Option<NodeId> {
        self.hops.first().copied()
    }

    /// The serving node (route terminal).
    pub fn server(&self) -> Option<NodeId> {
        self.hops.last().copied()
    }

    /// Whether the chunk reached the originator.
    pub fn delivered(&self) -> bool {
        self.outcome.is_delivered()
    }
}

/// Aggregate outcome of downloading one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileReport {
    /// Chunks requested.
    pub chunks: usize,
    /// Chunks delivered (including those already held by the originator).
    pub delivered: usize,
    /// Chunks lost to stuck routes.
    pub stuck: usize,
    /// Chunks served from some node's cache.
    pub cache_served: usize,
    /// Total hops across all chunk requests.
    pub total_hops: usize,
}

/// Simulates file downloads over a topology that churn may change between
/// steps ([`DownloadSim::topology_mut`]), maintaining per-node caches and
/// traffic statistics.
///
/// One instance accumulates statistics across many downloads — one paper
/// "step" is one call to [`DownloadSim::download_file`].
#[derive(Debug, Clone)]
pub struct DownloadSim {
    topology: Rc<Topology>,
    caches: Vec<NodeCache>,
    stats: TrafficStats,
    cache_on_path: bool,
    /// What a request does when its greedy next hop is saturated.
    route: RoutePolicy,
    /// Recycled hop buffer: [`DownloadSim::download_file_with`] routes
    /// hundreds of chunks per call, and reusing one allocation across them
    /// keeps the per-step allocation count flat regardless of file size.
    route_buf: Vec<NodeId>,
    /// Recycled candidate buffer for the capacity-detour slow path.
    detour_buf: Vec<NodeId>,
    /// Per-node forwarding budget per simulation step (`None` = the
    /// paper's unlimited-capacity model).
    capacities: Option<Vec<u64>>,
    /// Chunks each node forwarded in the current step. Reset lazily via
    /// `used_stamp` so advancing a step is O(1) even at 10⁵ nodes.
    used_in_step: Vec<u64>,
    /// The step `used_in_step[i]` was last written at.
    used_stamp: Vec<u64>,
    /// Current step counter for the lazy reset (bumped by
    /// [`DownloadSim::advance_step`]).
    step: u64,
    /// Durability model: `Some(shift)` when a repair policy watches
    /// `neighborhood_bits`-wide regions (`shift = bits -
    /// neighborhood_bits`); `None` keeps the baseline
    /// responsibility-migrates-silently model byte-identical.
    region_shift: Option<u32>,
    /// Currently unreachable regions, keyed by address prefix
    /// (`raw >> region_shift`). `BTreeMap` keeps repair scheduling
    /// deterministic.
    lost_regions: BTreeMap<u64, LostRegion>,
    /// Reused scratch list of due region prefixes per repair pass.
    due_buf: Vec<u64>,
    /// Maximum retry attempts per failed user request (0 = the baseline
    /// drop-on-failure model).
    max_retries: u32,
    /// Base backoff in steps before the first retry; doubles per attempt.
    retry_backoff: u64,
    /// Failed user requests awaiting their retry step, in failure order.
    retry_queue: Vec<PendingRetry>,
}

impl DownloadSim {
    /// Creates a download simulator with the given per-node cache policy.
    ///
    /// Accepts a [`Topology`] by value or an `Rc<Topology>`; clone the `Rc`
    /// to share one overlay between several simulators (the paper reuses
    /// "the same overlay for multiple simulations").
    pub fn new(topology: impl Into<Rc<Topology>>, cache_policy: CachePolicy) -> Self {
        let topology = topology.into();
        let n = topology.len();
        Self {
            topology,
            caches: (0..n).map(|_| NodeCache::new(cache_policy)).collect(),
            stats: TrafficStats::new(n),
            cache_on_path: !matches!(cache_policy, CachePolicy::None),
            route: RoutePolicy::Greedy,
            route_buf: Vec::with_capacity(8),
            detour_buf: Vec::new(),
            capacities: None,
            used_in_step: vec![0; n],
            used_stamp: vec![0; n],
            step: 1,
            region_shift: None,
            lost_regions: BTreeMap::new(),
            due_buf: Vec::new(),
            max_retries: 0,
            retry_backoff: 1,
            retry_queue: Vec::new(),
        }
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// A cheap shared handle to the topology, for delivery callbacks that
    /// need `&Topology` while the simulator itself is mutably borrowed.
    /// Drop the handle before calling [`DownloadSim::topology_mut`], or the
    /// mutation pays for a copy-on-write clone.
    pub fn topology_rc(&self) -> Rc<Topology> {
        Rc::clone(&self.topology)
    }

    /// Mutable access to the topology for churn events (join/leave). Uses
    /// copy-on-write semantics: mutation is in-place whenever this
    /// simulator holds the only handle.
    pub fn topology_mut(&mut self) -> &mut Topology {
        Rc::make_mut(&mut self.topology)
    }

    /// Invalidates the state a departing node loses: its opportunistic
    /// cache is dropped (on rejoin it starts cold). Routing-table repair is
    /// the topology's job ([`Topology::remove_node`]); traffic counters and
    /// lifetime cache hit/miss statistics are historical facts and stay.
    pub fn on_node_leave(&mut self, node: NodeId) {
        if let Some(cache) = self.caches.get_mut(node.index()) {
            cache.clear_entries();
        }
    }

    /// Installs per-node bandwidth budgets: node `i` forwards at most
    /// `capacities[i]` chunks per simulation step; a request whose chosen
    /// next hop is saturated is dropped (counted as stuck and
    /// capacity-blocked). Budget windows advance via
    /// [`DownloadSim::advance_step`].
    ///
    /// # Panics
    ///
    /// Panics if `capacities` does not cover every node.
    pub fn set_capacities(&mut self, capacities: Vec<u64>) {
        assert_eq!(
            capacities.len(),
            self.topology.len(),
            "capacity budgets must cover every node"
        );
        self.capacities = Some(capacities);
    }

    /// The installed per-node budgets, if any.
    pub fn capacities(&self) -> Option<&[u64]> {
        self.capacities.as_deref()
    }

    /// Installs the routing policy (the default is [`RoutePolicy::Greedy`],
    /// the paper's drop-on-saturation rule). Only affects requests routed
    /// after the call.
    pub fn set_route_policy(&mut self, route: RoutePolicy) {
        self.route = route;
    }

    /// The routing policy in effect.
    pub fn route_policy(&self) -> RoutePolicy {
        self.route
    }

    /// Turns on the durability model: chunk responsibility no longer
    /// migrates silently on departure. When every live node sharing a
    /// `neighborhood_bits`-wide address prefix has departed, that region's
    /// chunks become unreachable until a repair re-upload (or nothing,
    /// under a monitor-only policy) restores them.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= neighborhood_bits < bits` — a full-width region
    /// would make every single departure a data loss.
    pub fn enable_durability(&mut self, neighborhood_bits: u32) {
        let bits = self.topology.space().bits();
        assert!(
            neighborhood_bits >= 1 && neighborhood_bits < bits,
            "neighborhood_bits must be in 1..{bits}"
        );
        self.region_shift = Some(bits - neighborhood_bits);
    }

    /// Number of regions currently unreachable (0 when the durability
    /// model is off).
    pub fn lost_region_count(&self) -> usize {
        self.lost_regions.len()
    }

    /// Installs the user-download retry policy: a failed request re-enters
    /// routing up to `max_retries` times, the first retry `backoff` steps
    /// after the failure and each later one after double the previous
    /// wait. `max_retries = 0` (the default) is the baseline
    /// drop-on-failure model and adds no work to any path.
    pub fn set_retry_policy(&mut self, max_retries: u32, backoff: u64) {
        self.max_retries = max_retries;
        self.retry_backoff = backoff.max(1);
    }

    /// Failed requests currently waiting for a retry step.
    pub fn pending_retries(&self) -> usize {
        self.retry_queue.len()
    }

    /// Records a departure under the durability model: if `node` was the
    /// last live member of its address region, the region's chunks become
    /// unreachable and a repair is scheduled. Returns `true` iff this
    /// departure newly emptied its region. Call *after* the topology
    /// removal. A no-op (always `false`) when durability is off.
    pub fn note_departure(&mut self, node: NodeId, step: u64) -> bool {
        let Some(shift) = self.region_shift else {
            return false;
        };
        let address = self.topology.address(node);
        let prefix = address.raw() >> shift;
        // The region is emptied iff the closest live node to the departed
        // address no longer shares its prefix (the trie walk visits the
        // region's subtree first, so one probe decides it).
        let survivor = self.topology.closest_live_nodes(address, 1);
        let emptied = match survivor.first() {
            Some(&peer) => self.topology.address(peer).raw() >> shift != prefix,
            None => true,
        };
        if !emptied || self.lost_regions.contains_key(&prefix) {
            return false;
        }
        self.lost_regions.insert(
            prefix,
            LostRegion {
                anchor: address.raw(),
                lost_at: step,
                next_attempt: step + 1,
                attempts: 0,
            },
        );
        true
    }

    /// Runs every due repair re-upload for the current step. Each lost
    /// region gets one representative transfer from the `source` node
    /// (surviving replica or originator re-seed) to the region's new
    /// storer, routed through the same capacity-constrained forwarding as
    /// user traffic — repair competes for bandwidth. `on_delivery` fires
    /// for every completed transfer so the incentive layer can pay the
    /// repairers. Failed attempts reschedule with doubling backoff.
    ///
    /// Returns the number of repairs completed this pass. A no-op under
    /// monitor-only durability if the caller never invokes it, and always
    /// a no-op when no region is lost.
    pub fn run_repairs<F>(&mut self, source: RepairSource, mut on_delivery: F) -> u64
    where
        F: FnMut(&ChunkDelivery),
    {
        if self.lost_regions.is_empty() {
            return 0;
        }
        let step = self.step;
        let mut due = std::mem::take(&mut self.due_buf);
        due.clear();
        due.extend(
            self.lost_regions
                .iter()
                .filter(|(_, r)| r.next_attempt <= step)
                .map(|(&prefix, _)| prefix),
        );
        let mut completed = 0;
        let mut hops = std::mem::take(&mut self.route_buf);
        for prefix in due.drain(..) {
            let region = self.lost_regions[&prefix];
            let target = self
                .topology
                .space()
                .address(region.anchor)
                .expect("lost-region anchor was a node address");
            let destination = self.topology.closest_node(target);
            let Some(from) = self.repair_source_node(source, target, destination) else {
                // No live node can source the repair; try again later.
                self.reschedule(prefix, step);
                continue;
            };
            self.stats.add_repair_transfer();
            if from == destination {
                // The replica already sits where the data belongs: a
                // zero-traffic restore.
                self.complete_repair(prefix, region, step);
                completed += 1;
                on_delivery(&ChunkDelivery {
                    originator: from,
                    chunk: target,
                    hops: Vec::new(),
                    from_cache: false,
                    outcome: RouteOutcome::AlreadyAtStorer,
                });
                continue;
            }
            hops.clear();
            let (outcome, _) = self.route_chunk_kind(from, target, &mut hops, RouteKind::Repair);
            if outcome.is_delivered() {
                self.complete_repair(prefix, region, step);
                completed += 1;
                let delivery = ChunkDelivery {
                    originator: from,
                    chunk: target,
                    hops,
                    from_cache: false,
                    outcome,
                };
                on_delivery(&delivery);
                hops = delivery.hops;
            } else {
                self.reschedule(prefix, step);
            }
        }
        self.route_buf = hops;
        self.due_buf = due;
        completed
    }

    /// The node a repair transfer starts from: the nearest surviving
    /// replica, or the farthest live node (the originator re-seeding from
    /// maximum distance). `None` only when the overlay has no live nodes.
    fn repair_source_node(
        &self,
        source: RepairSource,
        target: OverlayAddress,
        destination: NodeId,
    ) -> Option<NodeId> {
        match source {
            RepairSource::Replica => {
                // The closest live node IS the destination; the survivor
                // holding a replica is the next one out.
                let near = self.topology.closest_live_nodes(target, 2);
                near.iter()
                    .copied()
                    .find(|&n| n != destination)
                    .or(near.first().copied())
            }
            RepairSource::Originator => {
                // The live node farthest from `target` under XOR is the
                // one closest to its bitwise complement.
                let space = self.topology.space();
                let mirror = space
                    .address(!target.raw() & space.max_raw())
                    .expect("masked complement is in range");
                self.topology.closest_live_nodes(mirror, 1).first().copied()
            }
        }
    }

    fn complete_repair(&mut self, prefix: u64, region: LostRegion, step: u64) {
        self.lost_regions.remove(&prefix);
        self.stats.add_repair_delivered();
        self.stats
            .add_repair_wait(step.saturating_sub(region.lost_at));
    }

    fn reschedule(&mut self, prefix: u64, step: u64) {
        if let Some(region) = self.lost_regions.get_mut(&prefix) {
            region.attempts += 1;
            let shift = region.attempts.min(MAX_BACKOFF_SHIFT);
            region.next_attempt = step + (1u64 << shift);
        }
    }

    /// Folds the ages of still-unreachable regions into the
    /// time-to-repair maximum, so a region that never recovered shows up
    /// as (at least) its full unrepaired lifetime. Call once at run end
    /// with the final step count.
    pub fn finalize_durability(&mut self, final_step: u64) {
        for region in self.lost_regions.values() {
            self.stats
                .raise_repair_wait_max(final_step.saturating_sub(region.lost_at));
        }
    }

    /// Re-routes every retry that has come due this step, as fresh
    /// request attempts: a retried route that succeeds counts into
    /// `recovered`, one that fails either re-enqueues (attempts left) or
    /// counts into `abandoned`. `on_delivery` fires for delivered retries
    /// exactly like first-attempt user traffic.
    pub fn drain_retries<F>(&mut self, mut on_delivery: F)
    where
        F: FnMut(&ChunkDelivery),
    {
        if self.retry_queue.is_empty() {
            return;
        }
        let step = self.step;
        let mut queue = std::mem::take(&mut self.retry_queue);
        let mut hops = std::mem::take(&mut self.route_buf);
        for entry in queue.drain(..) {
            if entry.due_step > step {
                self.retry_queue.push(entry);
                continue;
            }
            self.stats.add_retried();
            hops.clear();
            let (outcome, from_cache) =
                self.route_chunk_kind(entry.originator, entry.chunk, &mut hops, RouteKind::User);
            if outcome.is_delivered() {
                self.stats.add_recovered();
                let delivery = ChunkDelivery {
                    originator: entry.originator,
                    chunk: entry.chunk,
                    hops,
                    from_cache,
                    outcome,
                };
                on_delivery(&delivery);
                hops = delivery.hops;
            } else if entry.attempt < self.max_retries {
                let shift = entry.attempt.min(MAX_BACKOFF_SHIFT);
                self.retry_queue.push(PendingRetry {
                    due_step: step + (self.retry_backoff << shift),
                    originator: entry.originator,
                    chunk: entry.chunk,
                    attempt: entry.attempt + 1,
                });
            } else {
                self.stats.add_abandoned();
            }
        }
        // Entries enqueued by this pass land behind the survivors, in
        // deterministic processing order.
        self.route_buf = hops;
        if self.retry_queue.capacity() < queue.capacity() {
            // Keep the larger allocation for the next pass.
            queue.clear();
            queue.append(&mut self.retry_queue);
            self.retry_queue = queue;
        }
    }

    /// Opens the next budget window: every node's per-step forwarding
    /// usage resets. O(1) — usage counters are stamped per step and reset
    /// lazily on first touch. A no-op without capacity budgets.
    pub fn advance_step(&mut self) {
        self.step += 1;
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// The cache of one node.
    pub fn cache(&self, node: NodeId) -> Option<&NodeCache> {
        self.caches.get(node.index())
    }

    /// Network-wide cache counters summed over every node's cache
    /// (including nodes currently offline — their history is a fact).
    pub fn cache_totals(&self) -> crate::cache::CacheTotals {
        let mut totals = crate::cache::CacheTotals::default();
        for cache in &self.caches {
            cache.add_totals(&mut totals);
        }
        totals
    }

    /// Downloads all chunks of a file, updating statistics.
    pub fn download_file(&mut self, originator: NodeId, chunks: &[OverlayAddress]) -> FileReport {
        self.download_file_with(originator, chunks, |_| {})
    }

    /// Downloads all chunks of a file, invoking `on_delivery` for every
    /// chunk so callers (e.g. incentive mechanisms) can account payments.
    ///
    /// The hop vector inside the [`ChunkDelivery`] handed to `on_delivery`
    /// is recycled across the file's chunks (and across calls), so a
    /// thousand-chunk download performs O(1) route allocations rather than
    /// one per chunk.
    pub fn download_file_with<F>(
        &mut self,
        originator: NodeId,
        chunks: &[OverlayAddress],
        mut on_delivery: F,
    ) -> FileReport
    where
        F: FnMut(&ChunkDelivery),
    {
        let mut report = FileReport {
            chunks: chunks.len(),
            delivered: 0,
            stuck: 0,
            cache_served: 0,
            total_hops: 0,
        };
        let mut hops = std::mem::take(&mut self.route_buf);
        for &chunk in chunks {
            hops.clear();
            let (outcome, from_cache) =
                self.route_chunk_kind(originator, chunk, &mut hops, RouteKind::User);
            let delivery = ChunkDelivery {
                originator,
                chunk,
                hops,
                from_cache,
                outcome,
            };
            if delivery.delivered() {
                report.delivered += 1;
            } else {
                report.stuck += 1;
                if self.max_retries > 0 {
                    self.retry_queue.push(PendingRetry {
                        due_step: self.step + self.retry_backoff,
                        originator,
                        chunk,
                        attempt: 1,
                    });
                }
            }
            if delivery.from_cache {
                report.cache_served += 1;
            }
            report.total_hops += delivery.hops.len();
            on_delivery(&delivery);
            // Reclaim the hop allocation for the next chunk.
            hops = delivery.hops;
        }
        self.route_buf = hops;
        report
    }

    /// Routes a single chunk request and updates the statistics.
    pub fn request_chunk(&mut self, originator: NodeId, chunk: OverlayAddress) -> ChunkDelivery {
        // Route through the recycled buffer; the returned delivery owns
        // its hop vector, so copy out exactly the hops taken (zero-hop
        // outcomes allocate nothing) instead of growing a fresh vector
        // hop by hop.
        let mut hops = std::mem::take(&mut self.route_buf);
        hops.clear();
        let (outcome, from_cache) =
            self.route_chunk_kind(originator, chunk, &mut hops, RouteKind::User);
        let delivery = ChunkDelivery {
            originator,
            chunk,
            hops: hops.as_slice().to_vec(),
            from_cache,
            outcome,
        };
        self.route_buf = hops;
        delivery
    }

    /// The greedy forwarding-Kademlia walk (paper §III-A, Fig. 1) behind
    /// every routed chunk: user requests, their retries and repair
    /// re-uploads. Each hop relays to its table entry closest to `chunk`
    /// (under a capacity detour, a farther entry that is still strictly
    /// closer than the hop itself); uploads and downloads take the same
    /// path, so this one walk serves both directions.
    ///
    /// Both kinds consume per-hop capacity and book forwarding work; only
    /// user traffic touches requests/stuck/cache counters, and only user
    /// traffic can be refused by the durability fault check (a repair
    /// route *into* a lost region is exactly what restores it). With
    /// caching enabled, a user request's hop holding the chunk in cache
    /// serves it immediately, cutting the route short; on delivery the
    /// chunk is inserted into the caches of every node on the return path
    /// except the server, which is how Swarm populates caches
    /// opportunistically.
    ///
    /// The walk never looks the storer up. It stops at the first node
    /// whose `next_hop` is `None`, which for a live node is exactly the
    /// closest live node to `chunk` (the contract of
    /// [`Topology::next_hop`]), or one step earlier when
    /// [`Topology::next_hop_ending`] proves the hop just taken is that
    /// node, which spares reading the storer's table. An originator whose
    /// `next_hop` is `None` gets [`RouteOutcome::AlreadyAtStorer`]. An
    /// offline originator — a retry whose requester has since left — has
    /// an empty table too, so a liveness check tells it apart and it
    /// counts as [`RouteOutcome::Stuck`]. Debug builds check both exits
    /// against [`Topology::closest_node`].
    ///
    /// `hops` must arrive empty; the path is appended to it.
    fn route_chunk_kind(
        &mut self,
        originator: NodeId,
        chunk: OverlayAddress,
        hops: &mut Vec<NodeId>,
        kind: RouteKind,
    ) -> (RouteOutcome, bool) {
        debug_assert!(hops.is_empty());
        let user = kind == RouteKind::User;
        if user {
            self.stats.add_request(originator);
            // Fault injection: a chunk whose region has no live member is
            // unreachable even if the originator is now XOR-closest to it
            // — nobody holds the data until a repair re-uploads it.
            if let Some(shift) = self.region_shift {
                if self.lost_regions.contains_key(&(chunk.raw() >> shift)) {
                    self.stats.add_unreachable();
                    self.stats.add_stuck();
                    return (RouteOutcome::Stuck, false);
                }
            }
        }
        let Some((mut next, mut ends)) = self.topology.next_hop_ending(originator, chunk) else {
            // An offline node's table is empty too: a retry whose
            // originator has since left is stuck, not at the storer.
            if !self.topology.is_live(originator) {
                if user {
                    self.stats.add_stuck();
                }
                return (RouteOutcome::Stuck, false);
            }
            debug_assert_eq!(self.topology.closest_node(chunk), originator);
            return (RouteOutcome::AlreadyAtStorer, false);
        };

        // The walk borrows each concern once, up front: the topology (one
        // `Rc` deref for the whole route), the capacity table (the
        // budget-disabled common case decides a single `Option` branch
        // here, not one per hop), and the cache flag. Field-disjoint
        // borrows let the loop update budgets and caches while the
        // topology stays borrowed.
        let topology: &Topology = &self.topology;
        let capacities = self.capacities.as_deref();
        let used_in_step = &mut self.used_in_step;
        let used_stamp = &mut self.used_stamp;
        let caches = &mut self.caches;
        let detour_buf = &mut self.detour_buf;
        let use_cache = self.cache_on_path && user;
        let max_detours = self.route.max_detours();
        let step = self.step;

        let mut current = originator;
        let (outcome, from_cache) = loop {
            if let Some(capacities) = capacities {
                // Bandwidth budgets are enforced at forwarding time: a
                // saturated next hop cannot serve this step. Greedy
                // forwarding-Kademlia has no detour, so it drops the
                // request; the capacity-detour policy first tries the
                // next-closest table entries that still make progress.
                // Capacity is consumed whether or not the route later
                // completes — the bandwidth was spent.
                let i = next.index();
                if used_stamp[i] != step {
                    used_stamp[i] = step;
                    used_in_step[i] = 0;
                }
                if used_in_step[i] >= capacities[i] {
                    let Some(fallback) = detour_hop(
                        topology,
                        current,
                        chunk,
                        max_detours,
                        capacities,
                        used_in_step,
                        used_stamp,
                        step,
                        detour_buf,
                    ) else {
                        if user {
                            self.stats.add_capacity_blocked();
                        }
                        break (RouteOutcome::Stuck, false);
                    };
                    if user {
                        self.stats.add_detoured();
                    }
                    next = fallback;
                    ends = false;
                }
                used_in_step[next.index()] += 1;
            }
            hops.push(next);
            current = next;
            // The hop after `current` is found before its cache is
            // consulted: the storer serves from storage and never touches
            // its cache's hit/miss counters or recency order. A detour
            // clears `ends`, which was proven for the greedy choice only.
            let after = if ends {
                None
            } else {
                topology.next_hop_ending(current, chunk)
            };
            let Some(after) = after else {
                debug_assert_eq!(topology.closest_node(chunk), current);
                break (RouteOutcome::Delivered, false);
            };
            if use_cache && caches[current.index()].lookup(chunk) {
                break (RouteOutcome::Delivered, true);
            }
            (next, ends) = after;
        };

        match outcome {
            RouteOutcome::Delivered => {
                // Every node on the path transmits the chunk downstream —
                // repair re-uploads included; their relays do real work.
                for &hop in hops.iter() {
                    self.stats.add_forwarded(hop);
                }
                if user {
                    let first = hops.first().copied().expect("delivered implies >=1 hop");
                    self.stats.add_first_hop(first);
                    let server = *hops.last().expect("delivered implies >=1 hop");
                    if from_cache {
                        self.stats.add_cache_serve(server);
                    } else {
                        self.stats.add_storer(server);
                    }
                    // Populate caches along the return path (excluding the
                    // server itself, which already has the chunk).
                    if self.cache_on_path {
                        for &hop in hops.iter().take(hops.len().saturating_sub(1)) {
                            self.caches[hop.index()].insert(chunk);
                        }
                    }
                }
            }
            RouteOutcome::Stuck => {
                if user {
                    self.stats.add_stuck();
                }
            }
            RouteOutcome::AlreadyAtStorer => unreachable!("handled above"),
        }
        (outcome, from_cache)
    }
}

/// The capacity-detour slow path: when the greedy next hop of `current`
/// toward `chunk` is saturated, pick the nearest of up to `max_detours`
/// farther table entries that still strictly improves on `current`'s own
/// distance and has budget left this step. Returns `None` when every
/// candidate is saturated (or the policy is greedy, `max_detours == 0`).
///
/// The candidate ranking is re-derived from the topology, so the first
/// entry is exactly the saturated greedy choice and is skipped. Budget
/// stamps of inspected candidates are refreshed so the caller can charge
/// the returned hop with a plain increment.
#[allow(clippy::too_many_arguments)]
fn detour_hop(
    topology: &Topology,
    current: NodeId,
    chunk: OverlayAddress,
    max_detours: usize,
    capacities: &[u64],
    used_in_step: &mut [u64],
    used_stamp: &mut [u64],
    step: u64,
    detour_buf: &mut Vec<NodeId>,
) -> Option<NodeId> {
    if max_detours == 0 {
        return None;
    }
    topology.next_hops_into(current, chunk, max_detours.saturating_add(1), detour_buf);
    debug_assert_eq!(
        detour_buf.first().copied(),
        topology.next_hop(current, chunk),
        "the ranked candidate list must lead with the greedy choice"
    );
    for &candidate in detour_buf.iter().skip(1) {
        let i = candidate.index();
        if used_stamp[i] != step {
            used_stamp[i] = step;
            used_in_step[i] = 0;
        }
        if used_in_step[i] < capacities[i] {
            return Some(candidate);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairswap_kademlia::{AddressSpace, TopologyBuilder};

    fn topology(nodes: usize, k: usize, seed: u64) -> Topology {
        TopologyBuilder::new(AddressSpace::new(16).unwrap())
            .nodes(nodes)
            .bucket_size(k)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn chunk_addresses(t: &Topology, step: usize) -> Vec<OverlayAddress> {
        (0..=0xFFFFu64)
            .step_by(step)
            .map(|raw| t.space().address(raw).unwrap())
            .collect()
    }

    #[test]
    fn download_accounts_forwarding_and_first_hops() {
        let t = topology(300, 4, 1);
        let mut sim = DownloadSim::new(t.clone(), CachePolicy::None);
        let chunks = chunk_addresses(&t, 97);
        let mut delivered_hops = 0u64;
        let report = sim.download_file_with(NodeId(0), &chunks, |d| {
            if d.delivered() {
                delivered_hops += d.hops.len() as u64;
            }
        });
        assert_eq!(report.chunks, chunks.len());
        assert_eq!(report.delivered + report.stuck, report.chunks);
        assert_eq!(report.cache_served, 0);
        // Forwarding counts transmissions on delivered routes only.
        assert_eq!(sim.stats().total_forwarded(), delivered_hops);
    }

    #[test]
    fn first_hop_counts_match_deliveries() {
        let t = topology(200, 4, 3);
        let mut sim = DownloadSim::new(t.clone(), CachePolicy::None);
        let chunks = chunk_addresses(&t, 211);
        let mut delivered_with_hops = 0u64;
        sim.download_file_with(NodeId(5), &chunks, |d| {
            if d.delivered() && !d.hops.is_empty() {
                delivered_with_hops += 1;
            }
        });
        let first_hop_total: u64 = sim.stats().served_first_hop().iter().sum();
        assert_eq!(first_hop_total, delivered_with_hops);
    }

    #[test]
    fn callback_reports_route_details() {
        let t = topology(150, 4, 9);
        let mut sim = DownloadSim::new(t.clone(), CachePolicy::None);
        let chunk = t.space().address(0x7777).unwrap();
        let mut seen = None;
        sim.download_file_with(NodeId(2), &[chunk], |d| seen = Some(d.clone()));
        let d = seen.unwrap();
        assert_eq!(d.originator, NodeId(2));
        assert_eq!(d.chunk, chunk);
        if d.delivered() && !d.hops.is_empty() {
            assert_eq!(d.server(), Some(t.closest_node(chunk)));
            assert_eq!(d.first_hop(), d.hops.first().copied());
        }
    }

    #[test]
    fn caching_shortens_repeat_routes() {
        let t = topology(300, 4, 5);
        let chunk = t.space().address(0x00FF).unwrap();
        // Pick an originator far from the chunk so the route is non-trivial.
        let storer = t.closest_node(chunk);
        let originator = t
            .node_ids()
            .max_by_key(|n| t.space().distance(t.address(*n), chunk))
            .unwrap();
        assert_ne!(originator, storer);

        let mut cached = DownloadSim::new(t.clone(), CachePolicy::Lru { capacity: 64 });
        let first = cached.request_chunk(originator, chunk);
        let second = cached.request_chunk(originator, chunk);
        assert!(first.delivered());
        assert!(second.delivered());
        if first.hops.len() > 1 {
            assert!(second.from_cache, "second request should hit a path cache");
            assert!(second.hops.len() < first.hops.len());
        }
    }

    #[test]
    fn no_cache_means_identical_repeat_routes() {
        let t = topology(300, 4, 5);
        let chunk = t.space().address(0x00FF).unwrap();
        let originator = NodeId(7);
        let mut sim = DownloadSim::new(t.clone(), CachePolicy::None);
        let a = sim.request_chunk(originator, chunk);
        let b = sim.request_chunk(originator, chunk);
        assert_eq!(a.hops, b.hops);
        assert!(!b.from_cache);
    }

    #[test]
    fn originator_holding_chunk_generates_no_traffic() {
        let t = topology(100, 4, 11);
        let chunk = t.space().address(0x1234).unwrap();
        let storer = t.closest_node(chunk);
        let mut sim = DownloadSim::new(t.clone(), CachePolicy::None);
        let d = sim.request_chunk(storer, chunk);
        assert_eq!(d.outcome, RouteOutcome::AlreadyAtStorer);
        assert!(d.delivered());
        assert!(d.hops.is_empty());
        assert_eq!(sim.stats().total_forwarded(), 0);
        assert_eq!(sim.stats().requests_issued()[storer.index()], 1);
    }

    #[test]
    fn churned_topology_reroutes_to_surviving_storer() {
        let t = topology(250, 4, 17);
        let chunk = t.space().address(0x0F0F).unwrap();
        let storer = t.closest_node(chunk);
        let originator = t
            .node_ids()
            .max_by_key(|n| t.space().distance(t.address(*n), chunk))
            .unwrap();
        let mut sim = DownloadSim::new(t, CachePolicy::None);
        let before = sim.request_chunk(originator, chunk);
        assert!(before.delivered());
        assert_eq!(before.server(), Some(storer));

        // The storer departs: the chunk's responsibility migrates to the
        // closest surviving node and routes avoid the dead peer.
        sim.topology_mut().remove_node(storer).unwrap();
        sim.on_node_leave(storer);
        let after = sim.request_chunk(originator, chunk);
        if after.delivered() {
            let new_storer = sim.topology().closest_node(chunk);
            assert_ne!(new_storer, storer);
            assert_eq!(after.server(), Some(new_storer));
            assert!(!after.hops.contains(&storer));
        }
    }

    #[test]
    fn departure_clears_cache_entries_but_not_statistics() {
        let t = topology(200, 4, 19);
        let chunk = t.space().address(0x00AA).unwrap();
        let originator = t
            .node_ids()
            .max_by_key(|n| t.space().distance(t.address(*n), chunk))
            .unwrap();
        let mut sim = DownloadSim::new(t, CachePolicy::Lru { capacity: 32 });
        let first = sim.request_chunk(originator, chunk);
        let second = sim.request_chunk(originator, chunk);
        if first.hops.len() > 1 && second.from_cache {
            let cache_holder = *second.hops.last().unwrap();
            let hits_before = sim.cache(cache_holder).unwrap().hits();
            assert!(hits_before > 0);
            sim.on_node_leave(cache_holder);
            let cache = sim.cache(cache_holder).unwrap();
            assert!(cache.is_empty(), "departed cache must be dropped");
            assert_eq!(cache.hits(), hits_before, "history must survive");
        }
    }

    #[test]
    fn capacity_budgets_block_saturated_hops_and_reset_per_step() {
        let t = topology(200, 4, 23);
        let chunk = t.space().address(0x0F0F).unwrap();
        let originator = t
            .node_ids()
            .max_by_key(|n| t.space().distance(t.address(*n), chunk))
            .unwrap();
        let mut sim = DownloadSim::new(t.clone(), CachePolicy::None);
        let unconstrained = sim.request_chunk(originator, chunk);
        assert!(unconstrained.delivered() && !unconstrained.hops.is_empty());

        // Give every node exactly the budget the route needs once.
        let mut sim = DownloadSim::new(t, CachePolicy::None);
        sim.set_capacities(vec![1; 200]);
        assert_eq!(sim.capacities().unwrap().len(), 200);
        let first = sim.request_chunk(originator, chunk);
        assert!(first.delivered());
        // The same route again in the same step saturates the first hop.
        let second = sim.request_chunk(originator, chunk);
        assert!(!second.delivered());
        assert_eq!(sim.stats().capacity_blocked(), 1);
        assert_eq!(sim.stats().stuck_requests(), 1);
        // A new step opens fresh budget windows.
        sim.advance_step();
        let third = sim.request_chunk(originator, chunk);
        assert!(third.delivered());
        assert_eq!(third.hops, first.hops);
        assert_eq!(sim.stats().capacity_blocked(), 1);
    }

    #[test]
    fn generous_budgets_change_nothing() {
        let t = topology(150, 4, 29);
        let chunks = chunk_addresses(&t, 301);
        let mut plain = DownloadSim::new(t.clone(), CachePolicy::None);
        let baseline = plain.download_file(NodeId(3), &chunks);
        let mut budgeted = DownloadSim::new(t, CachePolicy::None);
        budgeted.set_capacities(vec![u64::MAX; 150]);
        let constrained = budgeted.download_file(NodeId(3), &chunks);
        assert_eq!(baseline, constrained);
        assert_eq!(plain.stats(), budgeted.stats());
        assert_eq!(budgeted.stats().capacity_blocked(), 0);
    }

    #[test]
    fn detour_routes_around_saturated_first_hop() {
        let t = topology(200, 4, 23);
        let chunk = t.space().address(0x0F0F).unwrap();
        let originator = t
            .node_ids()
            .max_by_key(|n| t.space().distance(t.address(*n), chunk))
            .unwrap();

        // Find the greedy route, then starve exactly its first hop so the
        // detour has an otherwise-unconstrained overlay to escape into.
        let mut probe = DownloadSim::new(t.clone(), CachePolicy::None);
        let first = probe.request_chunk(originator, chunk);
        assert!(first.delivered() && first.hops.len() > 1);
        let starved = first.first_hop().unwrap();
        let mut budgets = vec![u64::MAX; 200];
        budgets[starved.index()] = 1;

        // Greedy baseline: the second identical request dies on the
        // saturated first hop.
        let mut greedy = DownloadSim::new(t.clone(), CachePolicy::None);
        greedy.set_capacities(budgets.clone());
        assert!(greedy.request_chunk(originator, chunk).delivered());
        assert!(!greedy.request_chunk(originator, chunk).delivered());
        assert_eq!(greedy.stats().capacity_blocked(), 1);

        // Detour: the same second request escapes through a fallback relay.
        let mut detour = DownloadSim::new(t, CachePolicy::None);
        detour.set_route_policy(RoutePolicy::CapacityDetour { max_detours: 4 });
        assert_eq!(detour.route_policy().max_detours(), 4);
        detour.set_capacities(budgets);
        let a = detour.request_chunk(originator, chunk);
        assert_eq!(a.hops, first.hops, "unsaturated route is the greedy one");
        let b = detour.request_chunk(originator, chunk);
        assert!(b.delivered(), "detour must route around the saturated hop");
        assert_ne!(b.hops.first(), a.hops.first());
        assert!(!b.hops.contains(&starved));
        assert!(detour.stats().detoured() > 0);
        assert_eq!(detour.stats().capacity_blocked(), 0);
    }

    #[test]
    fn detour_with_unlimited_capacity_is_bit_identical_to_greedy() {
        let t = topology(250, 4, 31);
        let chunks = chunk_addresses(&t, 97);
        let mut greedy = DownloadSim::new(t.clone(), CachePolicy::None);
        greedy.set_capacities(vec![u64::MAX; 250]);
        let mut detour = DownloadSim::new(t, CachePolicy::None);
        detour.set_route_policy(RoutePolicy::CapacityDetour { max_detours: 8 });
        detour.set_capacities(vec![u64::MAX; 250]);
        for (step, origin) in [3usize, 77, 145].into_iter().enumerate() {
            let a = greedy.download_file(NodeId(origin), &chunks);
            let b = detour.download_file(NodeId(origin), &chunks);
            assert_eq!(a, b, "origin {origin}");
            greedy.advance_step();
            detour.advance_step();
            let _ = step;
        }
        assert_eq!(greedy.stats(), detour.stats());
        assert_eq!(detour.stats().detoured(), 0);
    }

    #[test]
    fn huge_max_detours_does_not_overflow() {
        let t = topology(200, 4, 23);
        let chunk = t.space().address(0x0F0F).unwrap();
        let originator = t
            .node_ids()
            .max_by_key(|n| t.space().distance(t.address(*n), chunk))
            .unwrap();
        let mut sim = DownloadSim::new(t, CachePolicy::None);
        sim.set_route_policy(RoutePolicy::CapacityDetour {
            max_detours: usize::MAX,
        });
        sim.set_capacities(vec![1; 200]);
        assert!(sim.request_chunk(originator, chunk).delivered());
        // The saturated retry must take the detour slow path (limit
        // saturates instead of wrapping to 0) without panicking.
        let second = sim.request_chunk(originator, chunk);
        assert!(second.delivered() || sim.stats().capacity_blocked() > 0);
        assert!(sim.stats().detoured() > 0);
    }

    #[test]
    fn zero_max_detours_behaves_exactly_like_greedy() {
        let t = topology(200, 4, 23);
        let chunk = t.space().address(0x0F0F).unwrap();
        let originator = t
            .node_ids()
            .max_by_key(|n| t.space().distance(t.address(*n), chunk))
            .unwrap();
        let mut sim = DownloadSim::new(t, CachePolicy::None);
        sim.set_route_policy(RoutePolicy::CapacityDetour { max_detours: 0 });
        sim.set_capacities(vec![1; 200]);
        assert!(sim.request_chunk(originator, chunk).delivered());
        assert!(!sim.request_chunk(originator, chunk).delivered());
        assert_eq!(sim.stats().capacity_blocked(), 1);
        assert_eq!(sim.stats().detoured(), 0);
    }

    #[test]
    #[should_panic(expected = "cover every node")]
    fn capacity_budgets_must_cover_every_node() {
        let t = topology(100, 4, 31);
        let mut sim = DownloadSim::new(t, CachePolicy::None);
        sim.set_capacities(vec![1; 99]);
    }

    #[test]
    fn empty_file_download() {
        let t = topology(100, 4, 13);
        let mut sim = DownloadSim::new(t.clone(), CachePolicy::None);
        let report = sim.download_file(NodeId(0), &[]);
        assert_eq!(report.chunks, 0);
        assert_eq!(report.delivered, 0);
        assert_eq!(report.total_hops, 0);
    }

    #[test]
    fn larger_k_never_lengthens_average_route() {
        // With more peers per bucket, greedy routing can only find better or
        // equal next hops on average (paper Table I rationale).
        let avg_hops = |k: usize| {
            let t = topology(500, k, 99);
            let mut sim = DownloadSim::new(t.clone(), CachePolicy::None);
            let (mut total, mut count) = (0usize, 0usize);
            for chunk in chunk_addresses(&t, 53) {
                let d = sim.request_chunk(NodeId(1), chunk);
                if d.delivered() {
                    total += d.hops.len();
                    count += 1;
                }
            }
            total as f64 / count as f64
        };
        assert!(avg_hops(20) <= avg_hops(4) + 0.05);
    }

    /// A node that is the only live member of its `neighborhood_bits`
    /// region, by prefix count over the whole overlay.
    fn sole_region_member(t: &Topology, shift: u32) -> NodeId {
        use std::collections::HashMap;
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for n in t.node_ids() {
            *counts.entry(t.address(n).raw() >> shift).or_default() += 1;
        }
        t.node_ids()
            .find(|&n| counts[&(t.address(n).raw() >> shift)] == 1)
            .expect("some region has exactly one member")
    }

    #[test]
    fn durability_off_ignores_departures_and_retries() {
        let t = topology(200, 4, 7);
        let mut sim = DownloadSim::new(t.clone(), CachePolicy::None);
        let gone = NodeId(9);
        sim.topology_mut().remove_node(gone).unwrap();
        sim.on_node_leave(gone);
        assert!(!sim.note_departure(gone, 1), "no-op without durability");
        assert_eq!(sim.lost_region_count(), 0);
        assert_eq!(sim.pending_retries(), 0);
        sim.drain_retries(|_| panic!("no retries without a retry policy"));
        assert_eq!(sim.run_repairs(RepairSource::Replica, |_| {}), 0);
        assert_eq!(sim.stats().unreachable_requests(), 0);
        assert_eq!(sim.stats().repair_transfers(), 0);
    }

    #[test]
    fn departure_empties_region_and_blocks_requests() {
        let t = topology(300, 4, 41);
        let shift = 16 - 8;
        let lone = sole_region_member(&t, shift);
        let chunk = t.address(lone);
        let mut sim = DownloadSim::new(t, CachePolicy::None);
        sim.enable_durability(8);

        sim.topology_mut().remove_node(lone).unwrap();
        sim.on_node_leave(lone);
        assert!(sim.note_departure(lone, 1), "region newly emptied");
        assert!(!sim.note_departure(lone, 1), "already recorded");
        assert_eq!(sim.lost_region_count(), 1);

        // Any chunk in the lost region is unreachable, even though the
        // overlay would happily route toward a new closest node.
        let d = sim.request_chunk(NodeId(0), chunk);
        assert!(!d.delivered());
        assert!(d.hops.is_empty());
        assert_eq!(sim.stats().unreachable_requests(), 1);
        assert_eq!(sim.stats().stuck_requests(), 1);
    }

    #[test]
    fn departure_with_surviving_neighbor_loses_nothing() {
        let t = topology(300, 4, 41);
        let shift = 16 - 2; // 4 regions over 300 nodes: all well-populated
        let any = NodeId(3);
        let mut sim = DownloadSim::new(t, CachePolicy::None);
        sim.enable_durability(2);
        sim.topology_mut().remove_node(any).unwrap();
        sim.on_node_leave(any);
        assert!(!sim.note_departure(any, 1));
        assert_eq!(sim.lost_region_count(), 0);
        let _ = shift;
    }

    #[test]
    fn repair_restores_reachability_and_accounts_traffic() {
        let t = topology(300, 4, 41);
        let lone = sole_region_member(&t, 16 - 8);
        let chunk = t.address(lone);
        let mut sim = DownloadSim::new(t, CachePolicy::None);
        sim.enable_durability(8);
        sim.topology_mut().remove_node(lone).unwrap();
        sim.on_node_leave(lone);
        assert!(sim.note_departure(lone, 1));

        // Repairs scheduled at step 1 become due at step 2.
        assert_eq!(sim.run_repairs(RepairSource::Replica, |_| {}), 0);
        sim.advance_step();
        let mut paid = 0;
        let repaired = sim.run_repairs(RepairSource::Replica, |d| {
            assert!(d.delivered());
            paid += 1;
        });
        assert_eq!(repaired, 1);
        assert_eq!(paid, 1, "every completed repair fires the payment hook");
        assert_eq!(sim.lost_region_count(), 0);
        assert_eq!(sim.stats().repair_transfers(), 1);
        assert_eq!(sim.stats().repair_delivered(), 1);
        assert_eq!(sim.stats().repair_wait_max(), 1);
        assert!((sim.stats().mean_time_to_repair() - 1.0).abs() < 1e-12);

        // The region is reachable again; requests flow normally.
        let after = sim.request_chunk(NodeId(0), chunk);
        assert!(after.delivered());
        assert_eq!(sim.stats().unreachable_requests(), 0);

        // Repair traffic never touched the user-request books.
        assert_eq!(sim.stats().requests_issued().iter().sum::<u64>(), 1);
    }

    #[test]
    fn originator_reseed_sources_from_farther_away_than_replica() {
        let t = topology(300, 4, 41);
        let lone = sole_region_member(&t, 16 - 8);
        let make = |src: RepairSource| {
            let mut sim = DownloadSim::new(t.clone(), CachePolicy::None);
            sim.enable_durability(8);
            sim.topology_mut().remove_node(lone).unwrap();
            sim.on_node_leave(lone);
            assert!(sim.note_departure(lone, 1));
            sim.advance_step();
            let mut hops = usize::MAX;
            assert_eq!(sim.run_repairs(src, |d| hops = d.hops.len()), 1);
            hops
        };
        let replica = make(RepairSource::Replica);
        let reseed = make(RepairSource::Originator);
        assert!(
            reseed >= replica,
            "re-seeding from the originator ({reseed} hops) must not be \
             shorter than the surviving replica ({replica} hops)"
        );
    }

    #[test]
    fn unrepaired_region_age_raises_only_the_wait_maximum() {
        let t = topology(300, 4, 41);
        let lone = sole_region_member(&t, 16 - 8);
        let mut sim = DownloadSim::new(t, CachePolicy::None);
        sim.enable_durability(8);
        sim.topology_mut().remove_node(lone).unwrap();
        assert!(sim.note_departure(lone, 1));
        sim.finalize_durability(51);
        assert_eq!(sim.stats().repair_wait_max(), 50);
        assert_eq!(sim.stats().repair_wait_total(), 0);
        assert_eq!(sim.stats().mean_time_to_repair(), 0.0);
    }

    #[test]
    fn retry_recovers_a_capacity_blocked_request() {
        let t = topology(200, 4, 23);
        let chunk = t.space().address(0x0F0F).unwrap();
        let originator = t
            .node_ids()
            .max_by_key(|n| t.space().distance(t.address(*n), chunk))
            .unwrap();
        let mut sim = DownloadSim::new(t, CachePolicy::None);
        sim.set_capacities(vec![1; 200]);
        sim.set_retry_policy(2, 1);

        // Two identical requests in one step: the second saturates and
        // queues a retry instead of vanishing.
        assert_eq!(sim.download_file(originator, &[chunk]).delivered, 1);
        assert_eq!(sim.download_file(originator, &[chunk]).stuck, 1);
        assert_eq!(sim.pending_retries(), 1);

        // Not due yet this step; due (and deliverable) next step.
        sim.drain_retries(|_| panic!("retry must wait for its backoff"));
        assert_eq!(sim.pending_retries(), 1);
        sim.advance_step();
        let mut recovered = None;
        sim.drain_retries(|d| recovered = Some(d.delivered()));
        assert_eq!(recovered, Some(true));
        assert_eq!(sim.pending_retries(), 0);
        assert_eq!(sim.stats().retried(), 1);
        assert_eq!(sim.stats().recovered(), 1);
        assert_eq!(sim.stats().abandoned(), 0);
        // The retry re-entered the books as a fresh request, keeping
        // delivered + stuck == requests.
        assert_eq!(sim.stats().requests_issued().iter().sum::<u64>(), 3);
        assert_eq!(sim.stats().stuck_requests(), 1);
    }

    #[test]
    fn retry_from_a_departed_originator_is_stuck() {
        let t = topology(200, 4, 23);
        let chunk = t.space().address(0x0F0F).unwrap();
        let originator = t
            .node_ids()
            .max_by_key(|n| t.space().distance(t.address(*n), chunk))
            .unwrap();
        let mut sim = DownloadSim::new(t, CachePolicy::None);
        sim.set_capacities(vec![1; 200]);
        sim.set_retry_policy(1, 1);
        assert_eq!(sim.download_file(originator, &[chunk]).delivered, 1);
        assert_eq!(sim.download_file(originator, &[chunk]).stuck, 1);
        assert_eq!(sim.pending_retries(), 1);

        // The requester leaves before its retry comes due. Its table is
        // now empty, like the storer's, but the retry is stuck — it is not
        // delivered from where the requester used to be.
        sim.topology_mut().remove_node(originator).unwrap();
        sim.on_node_leave(originator);
        sim.advance_step();
        sim.drain_retries(|d| panic!("a departed originator cannot recover {d:?}"));
        assert_eq!(sim.stats().retried(), 1);
        assert_eq!(sim.stats().recovered(), 0);
        assert_eq!(sim.stats().abandoned(), 1);
        assert_eq!(sim.stats().stuck_requests(), 2);
    }

    #[test]
    fn exhausted_retries_are_abandoned() {
        let t = topology(300, 4, 41);
        let lone = sole_region_member(&t, 16 - 8);
        let chunk = t.address(lone);
        let mut sim = DownloadSim::new(t, CachePolicy::None);
        sim.enable_durability(8);
        sim.set_retry_policy(1, 1);
        sim.topology_mut().remove_node(lone).unwrap();
        assert!(sim.note_departure(lone, 1));

        // The first attempt faults on the lost region and queues a retry;
        // with no repair policy running, the single retry faults too and
        // the request is abandoned for good.
        assert_eq!(sim.download_file(NodeId(0), &[chunk]).stuck, 1);
        assert_eq!(sim.pending_retries(), 1);
        sim.advance_step();
        sim.drain_retries(|_| panic!("the region is still lost"));
        assert_eq!(sim.pending_retries(), 0);
        assert_eq!(sim.stats().retried(), 1);
        assert_eq!(sim.stats().recovered(), 0);
        assert_eq!(sim.stats().abandoned(), 1);
        assert_eq!(sim.stats().unreachable_requests(), 2);
    }

    #[test]
    #[should_panic(expected = "neighborhood_bits")]
    fn full_width_neighborhood_is_rejected() {
        let t = topology(100, 4, 13);
        let mut sim = DownloadSim::new(t, CachePolicy::None);
        sim.enable_durability(16);
    }
}
