//! The observability adapter between the simulator and [`fairswap_obs`].
//!
//! The simulator reports what happens through a [`StepObserver`] — a trait
//! whose default methods are all empty and whose [`StepObserver::ENABLED`]
//! flag is an associated constant, so a run with [`NullObserver`]
//! monomorphizes to exactly the pre-observability hot path: no branches, no
//! buffers, no clock reads. [`ObsCollector`] is the real implementation; it
//! buffers [`TraceEvent`]s in a bounded ring, flushes each
//! [`EpochSnapshot`] into metrics rows, and accumulates phase timings, all
//! addressed by **logical clocks** (grid, job, epoch, step). The executor layer
//! ([`crate::exec::run_jobs_observed`]) creates one collector per grid cell
//! and merges them in stable job order into a [`GridObservation`], which is
//! what makes a rendered trace byte-identical for any `--threads N`.
//!
//! The non-perturbation invariant: an observer is read-only. Nothing a
//! collector does may influence simulation state, and nothing wall-clock
//! ever enters the trace or metrics streams (phase timings surface only
//! through `--profile`, which is never byte-compared).

use std::time::Instant;

use fairswap_obs::{
    write_jsonl, EventKind, EventRing, LogHistogram, MetricsFlush, Phase, PhaseTimes,
    ProgressMeter, TraceEvent, METRICS_CSV_HEADER,
};
use fairswap_storage::ChunkDelivery;
use serde::{Deserialize, Serialize};

/// Default per-job trace ring capacity, in events.
///
/// Sized so that every preset's full event stream fits without drops (a
/// churn run emits a few events per step plus one per epoch); runs that
/// overflow it keep the newest events and say so in their summary line.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// Cumulative counter snapshot taken once per epoch (and at the final
/// step).
///
/// Counters are **totals since run start**, not per-epoch deltas — the last
/// snapshot equals the run's final statistics, which is what the
/// conservation tests compare against [`crate::SimReport`].
///
/// The fields are the metrics schema: `epoch` and `step` address a flush,
/// and every later field is one metric row of it, in declaration order,
/// named after the field. The [`EPOCH_GAUGES`] are gauges; the rest are
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct EpochSnapshot {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Simulation step the snapshot was taken at.
    pub step: u64,
    /// Chunk requests issued.
    pub requests: u64,
    /// Requests delivered (`requests - stuck`).
    pub delivered: u64,
    /// Requests that could not be delivered.
    pub stuck: u64,
    /// Requests dropped on a saturated next hop (subset of `stuck`).
    pub capacity_blocked: u64,
    /// Hops routed around a saturated next hop.
    pub detoured: u64,
    /// Chunk transmissions network-wide.
    pub forwarded: u64,
    /// Chunks served from cache.
    pub cache_served: u64,
    /// Cache lookups that consulted a cache.
    pub cache_lookups: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Cache capacity evictions.
    pub cache_evictions: u64,
    /// Cache TTL expiries.
    pub cache_ttl_expiries: u64,
    /// On-chain settlement transactions.
    pub settlements: u64,
    /// Total settled volume in BZZ.
    pub settlement_volume: u64,
    /// Churn joins applied.
    pub joins: u64,
    /// Churn leaves applied.
    pub leaves: u64,
    /// Targeted-departure removals applied.
    pub targeted_removals: u64,
    /// Lost regions the engine detected at departures.
    pub repair_events: u64,
    /// User requests that entered the retry queue.
    pub retried: u64,
    /// Retried requests that eventually delivered.
    pub recovered: u64,
    /// Retried requests abandoned after exhausting `max_retries`.
    pub abandoned: u64,
    /// User requests faulted against an unreachable region.
    pub unreachable_requests: u64,
    /// Repair re-uploads scheduled.
    pub repair_transfers: u64,
    /// Repair re-uploads delivered.
    pub repair_delivered: u64,
    /// Address regions unreachable at the snapshot step (a gauge, not a
    /// running total).
    pub regions_lost: u64,
    /// Live nodes.
    pub live: u64,
    /// Gini coefficient of the F2 income distribution.
    pub f2_gini: f64,
}

/// The [`EpochSnapshot`] metrics that are gauges: levels at the snapshot
/// step, not running totals.
pub const EPOCH_GAUGES: [&str; 3] = ["regions_lost", "live", "f2_gini"];

/// What the simulator tells an observer, in simulation order.
///
/// Lifecycle and membership events arrive as the trace's own
/// [`EventKind`]s through [`on_event`](StepObserver::on_event), built once
/// where they happen; only the per-chunk delivery (hot) and the per-epoch
/// snapshot (the full counter set) have hooks of their own. All methods
/// default to no-ops; [`ENABLED`](StepObserver::ENABLED) lets
/// the simulator skip snapshot construction entirely for disabled
/// observers, so the disabled path compiles down to the plain hot path.
pub trait StepObserver {
    /// Whether this observer records anything at all. Guard work that has
    /// a per-call cost (snapshot assembly) behind `O::ENABLED`.
    const ENABLED: bool;

    /// Whether wall-clock phase timings should be collected.
    fn profiling(&self) -> bool {
        false
    }

    /// Whether per-epoch snapshots should be assembled at all. Snapshot
    /// construction is the one observation with a real per-epoch cost
    /// (it walks caches and recomputes the income Gini), so profile-only
    /// observers opt out and the simulator skips it entirely.
    fn wants_epochs(&self) -> bool {
        true
    }

    /// Accumulates wall time into a phase (only called when
    /// [`StepObserver::profiling`] returns true).
    fn add_phase(&mut self, _phase: Phase, _nanos: u64) {}

    /// A lifecycle or membership event happened at `step`: the run's
    /// `Start` (step 0) and `End`, and every churn `Join` and `Leave`,
    /// `Targeted` removal and lost-region `Repair`, in simulation order.
    fn on_event(&mut self, _step: u64, _kind: EventKind) {}

    /// One chunk delivery attempt finished at `step`.
    fn on_delivery(&mut self, _step: u64, _delivery: &ChunkDelivery) {}

    /// A per-epoch counter snapshot (stride `max(1, files / 32)` steps).
    fn on_epoch(&mut self, _snapshot: &EpochSnapshot) {}
}

/// The do-nothing observer: every hook is an empty inline function and
/// [`StepObserver::ENABLED`] is false, so observed runs with it are
/// byte-and-instruction identical to unobserved runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl StepObserver for NullObserver {
    const ENABLED: bool = false;
}

/// Which observability outputs a run should produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsOptions {
    /// Collect trace events into per-job rings.
    pub trace: bool,
    /// Flush per-epoch metrics rows.
    pub metrics: bool,
    /// Collect wall-clock phase timings.
    pub profile: bool,
    /// Show a live progress line (auto-disabled off-terminal).
    pub progress: bool,
    /// Per-job trace ring capacity in events.
    pub ring_capacity: usize,
}

impl Default for ObsOptions {
    fn default() -> Self {
        Self {
            trace: false,
            metrics: false,
            profile: false,
            progress: false,
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }
}

impl ObsOptions {
    /// Whether any per-job collection is requested.
    pub fn collecting(&self) -> bool {
        self.trace || self.metrics || self.profile
    }
}

/// The real observer: one per grid cell.
///
/// Owns the cell's event ring, metrics rows and phase accumulator. Every
/// [`EventKind`] the engine reports goes into the ring as it is, and each
/// epoch snapshot adds its metrics rows and an `Epoch` event. The
/// executor layer moves finished collectors into a [`GridObservation`] in
/// stable job order.
pub struct ObsCollector {
    grid: u32,
    job: u32,
    opts: ObsOptions,
    ring: EventRing,
    metrics: Vec<String>,
    route_hops: LogHistogram,
    phases: PhaseTimes,
}

impl ObsCollector {
    /// A collector for grid `grid`, cell `job`.
    pub fn new(grid: u32, job: u32, opts: ObsOptions) -> Self {
        Self {
            grid,
            job,
            opts,
            ring: EventRing::new(opts.ring_capacity),
            metrics: Vec::new(),
            route_hops: LogHistogram::new(),
            phases: PhaseTimes::new(),
        }
    }

    /// The grid this collector belongs to.
    pub fn grid(&self) -> u32 {
        self.grid
    }

    /// The cell index within the grid.
    pub fn job(&self) -> u32 {
        self.job
    }

    /// The collected event ring.
    pub fn ring(&self) -> &EventRing {
        &self.ring
    }

    /// The flushed metrics rows, without the header.
    pub fn metrics(&self) -> &[String] {
        &self.metrics
    }

    /// Accumulated phase timings for this cell.
    pub fn phases(&self) -> &PhaseTimes {
        &self.phases
    }
}

impl StepObserver for ObsCollector {
    const ENABLED: bool = true;

    fn profiling(&self) -> bool {
        self.opts.profile
    }

    fn wants_epochs(&self) -> bool {
        self.opts.trace || self.opts.metrics
    }

    fn add_phase(&mut self, phase: Phase, nanos: u64) {
        self.phases.add(phase, nanos);
    }

    fn on_event(&mut self, step: u64, kind: EventKind) {
        if self.opts.trace {
            self.ring.push(TraceEvent {
                grid: self.grid,
                job: self.job,
                step,
                kind,
            });
        }
    }

    fn on_delivery(&mut self, _step: u64, delivery: &ChunkDelivery) {
        if self.opts.metrics && delivery.delivered() {
            self.route_hops.record(delivery.hops.len() as u64);
        }
    }

    fn on_epoch(&mut self, snapshot: &EpochSnapshot) {
        if self.opts.metrics {
            let (epoch, step) = (snapshot.epoch, snapshot.step);
            let mut flush = MetricsFlush::new(&mut self.metrics, self.grid, self.job, epoch, step);
            // Every field after `epoch` and `step` is a metric.
            let value = snapshot.to_value();
            for (name, value) in &value.as_object().expect("a struct is an object")[2..] {
                if EPOCH_GAUGES.contains(&name.as_str()) {
                    flush.gauge(name, f64::from_value(value).expect("a gauge is a number"));
                } else {
                    flush.counter(name, u64::from_value(value).expect("a counter is a u64"));
                }
            }
            flush.histogram("route_hops", &self.route_hops);
        }
        self.on_event(
            snapshot.step,
            EventKind::Epoch {
                epoch: snapshot.epoch,
                live: snapshot.live,
                requests: snapshot.requests,
                stuck: snapshot.stuck,
                f2_gini: snapshot.f2_gini,
            },
        );
    }
}

/// Observability state for a whole CLI invocation: options, the progress
/// sink, configuration warnings, and every finished per-cell collector in
/// stable `(grid, job)` order.
pub struct GridObservation {
    opts: ObsOptions,
    meter: ProgressMeter,
    warnings: Vec<String>,
    collectors: Vec<ObsCollector>,
    grids: u32,
    extra_phases: PhaseTimes,
}

impl GridObservation {
    /// Observation with everything off and a silent progress meter — the
    /// path every plain preset call takes.
    pub fn disabled() -> Self {
        Self::new(ObsOptions::default())
    }

    /// Observation per `opts`. The progress meter is auto (terminal-gated)
    /// when `opts.progress` is set, silent otherwise.
    pub fn new(opts: ObsOptions) -> Self {
        let meter = if opts.progress {
            ProgressMeter::auto()
        } else {
            ProgressMeter::silent()
        };
        Self {
            opts,
            meter,
            warnings: Vec::new(),
            collectors: Vec::new(),
            grids: 0,
            extra_phases: PhaseTimes::new(),
        }
    }

    /// The configured options.
    pub fn opts(&self) -> ObsOptions {
        self.opts
    }

    /// The progress sink for executor notify hooks.
    pub fn meter(&self) -> &ProgressMeter {
        &self.meter
    }

    /// Records a configuration warning: printed through the obs logger and
    /// kept for the trace preamble.
    pub fn warn(&mut self, message: &str) {
        fairswap_obs::warn(message);
        self.warnings.push(message.to_string());
    }

    /// Warnings recorded so far.
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Claims the next grid index (one per `run_jobs_observed` call).
    pub(crate) fn next_grid(&mut self) -> u32 {
        let grid = self.grids;
        self.grids += 1;
        grid
    }

    /// Appends a finished collector; callers must push in job order.
    pub(crate) fn push_collector(&mut self, collector: ObsCollector) {
        self.collectors.push(collector);
    }

    /// Finished collectors in stable `(grid, job)` order.
    pub fn collectors(&self) -> &[ObsCollector] {
        &self.collectors
    }

    /// Renders the trace as JSONL: one `warn` line per recorded warning,
    /// then every collector's ring in stable order, each closed by its
    /// `trace-summary` line.
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        for message in &self.warnings {
            let event = TraceEvent {
                grid: 0,
                job: 0,
                step: 0,
                kind: EventKind::Warn {
                    message: message.clone(),
                },
            };
            out.push_str(&event.to_json_line());
            out.push('\n');
        }
        let rings: Vec<(u32, u32, &EventRing)> = self
            .collectors
            .iter()
            .map(|c| (c.grid(), c.job(), c.ring()))
            .collect();
        out.push_str(&write_jsonl(&rings));
        out
    }

    /// Renders every collector's flushed metrics rows as one CSV document.
    pub fn metrics_csv(&self) -> String {
        let mut out = String::from(METRICS_CSV_HEADER);
        out.push('\n');
        for collector in &self.collectors {
            for row in collector.metrics() {
                out.push_str(row);
                out.push('\n');
            }
        }
        out
    }

    /// Grid-wide phase timings: the sum over every cell plus phases timed
    /// outside the simulator (CSV emission).
    pub fn phase_times(&self) -> PhaseTimes {
        let mut total = self.extra_phases;
        for collector in &self.collectors {
            total.merge(collector.phases());
        }
        total
    }

    /// Runs `f`, attributing its wall time to `phase` when profiling is on.
    pub fn time_phase<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        if !self.opts.profile {
            return f();
        }
        let start = Instant::now();
        let result = f();
        self.extra_phases
            .add(phase, start.elapsed().as_nanos() as u64);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_is_disabled() {
        const { assert!(!NullObserver::ENABLED) };
        assert!(!NullObserver.profiling());
    }

    #[test]
    fn collector_records_membership_events() {
        let opts = ObsOptions {
            trace: true,
            ..ObsOptions::default()
        };
        let mut c = ObsCollector::new(0, 2, opts);
        c.on_event(
            0,
            EventKind::Start {
                nodes: 10,
                files: 5,
                seed: 7,
            },
        );
        c.on_event(3, EventKind::Leave { node: 4 });
        c.on_event(4, EventKind::Join { node: 4 });
        c.on_event(
            5,
            EventKind::End {
                requests: 5,
                stuck: 0,
            },
        );
        let kinds: Vec<&str> = c.ring().iter().map(|e| e.kind.tag()).collect();
        assert_eq!(kinds, vec!["start", "leave", "join", "end"]);
        assert!(c.ring().iter().all(|e| e.job == 2));
    }

    #[test]
    fn collector_without_trace_keeps_ring_empty() {
        let opts = ObsOptions {
            metrics: true,
            ..ObsOptions::default()
        };
        let mut c = ObsCollector::new(0, 0, opts);
        c.on_event(1, EventKind::Leave { node: 0 });
        c.on_epoch(&EpochSnapshot {
            epoch: 0,
            step: 1,
            live: 9,
            requests: 4,
            delivered: 4,
            ..EpochSnapshot::default()
        });
        assert!(c.ring().is_empty());
        assert!(!c.metrics().is_empty());
    }

    #[test]
    fn grid_observation_renders_warnings_first() {
        let mut obs = GridObservation::new(ObsOptions {
            trace: true,
            ..ObsOptions::default()
        });
        obs.warn("unknown field `typo`");
        obs.push_collector(ObsCollector::new(0, 0, obs.opts()));
        let trace = obs.trace_jsonl();
        let first = trace.lines().next().unwrap();
        assert!(first.contains("\"kind\":\"warn\""), "{first}");
        assert!(fairswap_obs::validate_jsonl(&trace).is_ok());
        assert_eq!(obs.warnings().len(), 1);
    }

    #[test]
    fn phase_times_include_extra_phases() {
        let mut obs = GridObservation::new(ObsOptions {
            profile: true,
            ..ObsOptions::default()
        });
        let value = obs.time_phase(Phase::CsvEmit, || 41 + 1);
        assert_eq!(value, 42);
        let mut collector = ObsCollector::new(0, 0, obs.opts());
        collector.add_phase(Phase::SimSteps, 1_000);
        obs.push_collector(collector);
        let times = obs.phase_times();
        assert_eq!(times.nanos(Phase::SimSteps), 1_000);
        // `time_phase` measured a real (tiny but nonzero) duration.
        assert!(times.nanos(Phase::CsvEmit) > 0);
    }

    #[test]
    fn disabled_observation_collects_nothing() {
        let obs = GridObservation::disabled();
        assert!(!obs.opts().collecting());
        assert!(!obs.meter().is_live());
        assert_eq!(obs.trace_jsonl(), "");
        assert_eq!(obs.metrics_csv(), format!("{METRICS_CSV_HEADER}\n"));
    }
}
