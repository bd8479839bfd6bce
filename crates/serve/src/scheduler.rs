//! Job scheduling: one plain state machine (`Core`: the job table keyed
//! by spec hash, the bounded FIFO submit queue and the counters) under
//! one mutex, fed by a fixed set of long-lived worker threads and by the
//! connection threads.
//!
//! A submit whose spec hash is already in the table joins that job; any
//! other creates a job in the table and on the bounded queue. Each worker
//! takes the oldest queued job as soon as it is free, so at most
//! `workers` jobs run at once and no job waits for another to finish
//! while a worker is idle. Jobs start in submission order, but neither
//! that order nor the worker count can leak into results: every job
//! derives all randomness from its own spec seed. An idle worker sleeps
//! on the one condvar; closing the core lets the workers finish what is
//! left and exit, and joining them is what graceful shutdown rides on.

use std::collections::{HashMap, VecDeque};
use std::num::NonZeroUsize;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use fairswap_core::{run_summary_csv, CoreError, SimSpec, SpecHash};
use serde::Serialize;

use crate::job::{Job, JobResult};

/// Scheduler sizing knobs (the `fairswap serve` flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerOptions {
    /// Worker threads, the most jobs that run at once (`0` = one per
    /// CPU core).
    pub workers: usize,
    /// Maximum jobs waiting in the queue; submits beyond it are rejected
    /// with 503 rather than buffered unboundedly.
    pub queue_cap: usize,
    /// Finished jobs kept addressable, least recently used evicted
    /// first (at least 1).
    pub cache_cap: usize,
}

impl Default for SchedulerOptions {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_cap: 256,
            cache_cap: 64,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The body did not parse or validate as a `SimSpec`.
    InvalidSpec(String),
    /// The bounded queue is full.
    QueueFull {
        /// The configured queue capacity.
        cap: usize,
    },
    /// The scheduler is draining for shutdown.
    Draining,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::InvalidSpec(message) => write!(f, "invalid spec: {message}"),
            SubmitError::QueueFull { cap } => write!(f, "queue full (capacity {cap})"),
            SubmitError::Draining => write!(f, "server is draining"),
        }
    }
}

/// Job-table occupancy and traffic counters, as reported by `/health`
/// (field order is the wire's key order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct CacheStats {
    /// Finished jobs currently retained.
    pub entries: usize,
    /// Submits answered by an existing job (queued, running or finished).
    pub hits: u64,
    /// Submits that created a job (the job went to the queue).
    pub misses: u64,
    /// Finished jobs evicted to stay under capacity.
    pub evictions: u64,
}

/// A point-in-time view of the scheduler, as reported by `/health`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerStats {
    /// Jobs waiting in the queue.
    pub queued: usize,
    /// Jobs currently running on a worker (at most `workers`).
    pub running: usize,
    /// Jobs ever created, one per admitted miss (equals `cache.misses`).
    pub jobs: u64,
    /// Jobs that finished with a result.
    pub completed: u64,
    /// Jobs that failed to build or run.
    pub failed: u64,
    /// Submissions rejected by the full queue.
    pub rejected: u64,
    /// Job-table counters.
    pub cache: CacheStats,
}

/// The scheduler's whole state, a plain state machine that neither
/// blocks nor spawns: every job it can answer for, keyed by spec hash
/// (queued and running jobs always, finished ones LRU up to `cache_cap`),
/// the FIFO queue and the counters. Recency is the order of submits,
/// lookups and retirements, not a clock, so retention is reproducible
/// run-for-run. [`Scheduler`] keeps it under its one mutex; the worker
/// and connection threads only lock it and feed it.
#[derive(Default)]
struct Core {
    queue_cap: usize,
    cache_cap: usize,
    jobs: HashMap<SpecHash, Arc<Job>>,
    /// The finished jobs in `jobs`, least recently used first.
    finished: VecDeque<SpecHash>,
    pending: VecDeque<Arc<Job>>,
    open: bool,
    /// Every counter but `queued` and `cache.entries`, which are the
    /// lengths of `pending` and `finished`.
    stats: SchedulerStats,
    /// The worker threads, handed to `drain` by `close` to be joined.
    workers: Vec<JoinHandle<()>>,
}

impl Core {
    /// An open core; both capacities are clamped to at least 1.
    fn new(queue_cap: usize, cache_cap: usize) -> Self {
        Self {
            queue_cap: queue_cap.max(1),
            cache_cap: cache_cap.max(1),
            open: true,
            ..Self::default()
        }
    }

    /// The job for `hash`, refreshing its recency.
    fn lookup(&mut self, hash: SpecHash) -> Option<Arc<Job>> {
        let job = Arc::clone(self.jobs.get(&hash)?);
        if let Some(at) = self.finished.iter().rposition(|&h| h == hash) {
            self.finished.remove(at);
            self.finished.push_back(hash);
        }
        Some(job)
    }

    /// A submit of the spec `hash` (canonical form `canonical`): a hit
    /// joins the job in the table, in any state and even while draining
    /// (`true`); a miss queues a new job (`false`).
    fn admit(
        &mut self,
        hash: SpecHash,
        canonical: String,
    ) -> Result<(Arc<Job>, bool), SubmitError> {
        if let Some(job) = self.lookup(hash) {
            self.stats.cache.hits += 1;
            return Ok((job, true));
        }
        if !self.open {
            return Err(SubmitError::Draining);
        }
        if self.pending.len() >= self.queue_cap {
            self.stats.rejected += 1;
            return Err(SubmitError::QueueFull {
                cap: self.queue_cap,
            });
        }
        self.stats.jobs += 1;
        self.stats.cache.misses += 1;
        let job = Arc::new(Job::queued(hash, canonical));
        self.jobs.insert(hash, Arc::clone(&job));
        self.pending.push_back(Arc::clone(&job));
        Ok((job, false))
    }

    /// The oldest queued job, now counted as running.
    fn take(&mut self) -> Option<Arc<Job>> {
        let job = self.pending.pop_front()?;
        self.stats.running += 1;
        Some(job)
    }

    /// A running job finished: it leaves `running`, is counted as
    /// completed or failed, and becomes the most recent retained job,
    /// evicting the least recently used finished job beyond `cache_cap`.
    fn retire(&mut self, hash: SpecHash, succeeded: bool) {
        self.stats.running -= 1;
        if succeeded {
            self.stats.completed += 1;
        } else {
            self.stats.failed += 1;
        }
        self.finished.push_back(hash);
        if self.finished.len() > self.cache_cap {
            let oldest = self.finished.pop_front().expect("over capacity");
            self.jobs.remove(&oldest);
            self.stats.cache.evictions += 1;
        }
    }

    /// Stops admitting new jobs (queued ones still run) and hands back
    /// the worker threads to join; empty once closed.
    fn close(&mut self) -> Vec<JoinHandle<()>> {
        self.open = false;
        std::mem::take(&mut self.workers)
    }

    /// Every counter, so `jobs == completed + failed + queued + running`.
    fn stats(&self) -> SchedulerStats {
        let mut stats = self.stats;
        stats.queued = self.pending.len();
        stats.cache.entries = self.finished.len();
        stats
    }
}

struct Shared {
    core: Mutex<Core>,
    /// Signalled when a job is queued or the core closes.
    work: Condvar,
}

impl Shared {
    fn core(&self) -> MutexGuard<'_, Core> {
        self.core.lock().expect("scheduler poisoned")
    }
}

/// The scheduler: owns the job table, the queue and the worker threads.
/// Shared across connection handlers behind an `Arc`.
pub struct Scheduler {
    shared: Arc<Shared>,
}

impl Scheduler {
    /// Starts the worker threads with the given sizing. Both capacities
    /// are clamped to at least 1: a finished job must stay addressable
    /// until its submitter has read it.
    pub fn start(options: SchedulerOptions) -> Self {
        let shared = Arc::new(Shared {
            core: Mutex::new(Core::new(options.queue_cap, options.cache_cap)),
            work: Condvar::new(),
        });
        let workers = match options.workers {
            0 => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            n => n,
        };
        let workers = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || serve_queue(&shared))
            })
            .collect();
        shared.core().workers = workers;
        Self { shared }
    }

    /// Validates one spec document and returns its job: the existing one
    /// if the spec's hash is in the table (in any state), else a new job
    /// on the queue.
    ///
    /// # Errors
    ///
    /// [`SubmitError::InvalidSpec`] for unparseable/invalid documents,
    /// [`SubmitError::QueueFull`] when the bounded queue is at capacity,
    /// [`SubmitError::Draining`] once shutdown has begun.
    pub fn submit(&self, body: &str) -> Result<Arc<Job>, SubmitError> {
        self.admit(body).map(|(job, _)| job)
    }

    /// [`Scheduler::submit`], also telling whether an existing job
    /// answered (`true`) or a new one was created (`false`).
    pub(crate) fn admit(&self, body: &str) -> Result<(Arc<Job>, bool), SubmitError> {
        let invalid = |e: CoreError| SubmitError::InvalidSpec(e.to_string());
        let spec = SimSpec::from_json(body).map_err(invalid)?;
        spec.validate().map_err(invalid)?;
        let canonical = spec.to_json().map_err(invalid)?;
        let hash = SpecHash::of_canonical_json(&canonical);
        let (job, joined) = self.shared.core().admit(hash, canonical)?;
        if !joined {
            self.shared.work.notify_one();
        }
        Ok((job, joined))
    }

    /// Looks up a job by id (its spec hash), refreshing its recency.
    /// `None` once a finished job has been evicted.
    pub fn job(&self, hash: SpecHash) -> Option<Arc<Job>> {
        self.shared.core().lookup(hash)
    }

    /// Current queue and job-table counters, one snapshot of the core, so
    /// `jobs == completed + failed + queued + running` at every read.
    pub fn stats(&self) -> SchedulerStats {
        self.shared.core().stats()
    }

    /// Stops accepting work, finishes everything already queued, and
    /// joins the worker threads. Idempotent.
    pub fn drain(&self) {
        let workers = self.shared.core().close();
        self.shared.work.notify_all();
        for worker in workers {
            worker.join().expect("scheduler worker panicked");
        }
    }
}

/// One worker's loop: take the oldest queued job, run it, retire it,
/// repeat; exit once the core is closed and its queue is empty.
fn serve_queue(shared: &Shared) {
    loop {
        let job = {
            let mut core = shared.core();
            loop {
                if let Some(job) = core.take() {
                    break job;
                }
                if !core.open {
                    return;
                }
                core = shared.work.wait(core).expect("scheduler poisoned");
            }
        };
        job.start();
        let outcome = run_job(&job);
        // Retire before finishing, so a waiter woken by `finish` already
        // sees this job in the counters.
        shared.core().retire(job.hash, outcome.is_ok());
        job.finish(outcome);
    }
}

/// Builds and runs the job's simulation under the row observer, then
/// serializes through the same `run_summary_csv` path as the batch CLI —
/// the byte-identity guarantee between `/result` and `fairswap run`.
fn run_job(job: &Job) -> Result<Arc<JobResult>, String> {
    let spec = SimSpec::from_json(&job.canonical).map_err(|e| e.to_string())?;
    let sim = spec.build().map_err(|e| e.to_string())?;
    let report = sim.run_observed(|_, _| {}, &mut &*job);
    let csv = run_summary_csv(report.config(), &report)
        .to_csv_string()
        .into_bytes();
    Ok(Arc::new(JobResult { csv }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobState;
    use proptest::prelude::*;
    use std::time::Duration;

    fn small_spec(seed: u64) -> String {
        format!(
            r#"{{"topology": {{"nodes": 80, "bits": 16}}, "workload": {{"files": 8}}, "seed": {seed}}}"#
        )
    }

    /// A spec that keeps a single worker busy for a while, so the jobs
    /// submitted behind it are still queued when the test inspects them.
    const BLOCKER: &str = r#"{"topology": {"nodes": 1000}, "workload": {"files": 400}, "seed": 5}"#;

    fn scheduler() -> Scheduler {
        Scheduler::start(SchedulerOptions {
            workers: 2,
            queue_cap: 16,
            cache_cap: 8,
        })
    }

    fn one_worker(cache_cap: usize) -> Scheduler {
        Scheduler::start(SchedulerOptions {
            workers: 1,
            queue_cap: 16,
            cache_cap,
        })
    }

    fn finish(job: &Job) {
        job.wait_result(Duration::from_secs(300))
            .expect("job finishes")
            .expect("job succeeds");
    }

    #[test]
    fn submit_run_cache_hit_round_trip() {
        let scheduler = scheduler();
        let (first, cached) = scheduler.admit(&small_spec(1)).unwrap();
        assert!(!cached);
        let result = first
            .wait_result(Duration::from_secs(60))
            .expect("job finishes")
            .expect("job succeeds");
        assert!(result.csv.starts_with(b"nodes,bits,k,"));
        let (rows, finished) = first.wait_rows(0, Duration::from_millis(1));
        assert!(finished && !rows.is_empty());

        // Identical spec (even with different formatting) is answered by
        // the same job, which replays the run's rows.
        let spaced = small_spec(1).replace('{', "{ ");
        let (second, cached) = scheduler.admit(&spaced).unwrap();
        assert!(cached);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(second.state(), JobState::Done);
        let (replay, _) = second.wait_rows(0, Duration::from_millis(1));
        assert_eq!(replay, rows);

        let stats = scheduler.stats();
        assert_eq!(stats.jobs, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
        assert_eq!(stats.cache.entries, 1);
        scheduler.drain();
    }

    #[test]
    fn a_free_worker_takes_the_next_job_while_another_runs() {
        let scheduler = scheduler();
        let (blocker, _) = scheduler.admit(BLOCKER).unwrap();
        while blocker.state() == JobState::Queued {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(blocker.state(), JobState::Running);
        finish(&scheduler.submit(&small_spec(1)).unwrap());
        assert_eq!(
            blocker.state(),
            JobState::Running,
            "the second worker ran the small job without waiting for the blocker"
        );
        scheduler.drain();
        assert_eq!(blocker.state(), JobState::Done);
    }

    #[test]
    fn zero_workers_starts_at_least_one_worker() {
        let scheduler = Scheduler::start(SchedulerOptions {
            workers: 0,
            queue_cap: 4,
            cache_cap: 4,
        });
        finish(&scheduler.submit(&small_spec(1)).unwrap());
        scheduler.drain();
        let stats = scheduler.stats();
        assert_eq!((stats.jobs, stats.completed), (1, 1));
    }

    #[test]
    fn every_stats_snapshot_balances_the_job_counts() {
        let scheduler = Scheduler::start(SchedulerOptions {
            workers: 2,
            queue_cap: 32,
            cache_cap: 8,
        });
        let check = |stats: SchedulerStats| {
            assert_eq!(stats.jobs, stats.cache.misses, "{stats:?}");
            let in_flight = (stats.queued + stats.running) as u64;
            assert_eq!(
                stats.jobs,
                stats.completed + stats.failed + in_flight,
                "{stats:?}"
            );
            assert!(stats.running <= 2, "{stats:?}");
        };
        let mut snapshots = 0;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for seed in 0..30 {
                    scheduler.submit(&small_spec(seed)).unwrap();
                }
            });
            loop {
                let stats = scheduler.stats();
                check(stats);
                snapshots += 1;
                if stats.completed + stats.failed == 30 {
                    break;
                }
            }
        });
        assert!(snapshots > 1);
        scheduler.drain();
        let stats = scheduler.stats();
        check(stats);
        assert_eq!((stats.jobs, stats.completed), (30, 30));
    }

    #[test]
    fn identical_submits_join_the_job_in_flight() {
        let scheduler = one_worker(8);
        let (blocker, _) = scheduler.admit(BLOCKER).unwrap();
        let (first, first_cached) = scheduler.admit(&small_spec(1)).unwrap();
        let (second, second_cached) = scheduler.admit(&small_spec(1)).unwrap();
        assert!(!first_cached && second_cached);
        assert_eq!(first.hash, second.hash);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(second.state(), JobState::Queued, "behind the blocker");
        scheduler.drain();
        assert_eq!(blocker.state(), JobState::Done);
        let stats = scheduler.stats();
        assert_eq!(stats.completed, 2, "blocker + one run of the twin spec");
        assert_eq!(stats.jobs, 2);
        assert_eq!(stats.cache.hits, 1);
    }

    #[test]
    fn hit_miss_accounting_and_lru_eviction() {
        let scheduler = one_worker(2);
        let run = |seed| {
            let job = scheduler.submit(&small_spec(seed)).unwrap();
            finish(&job);
            job.hash
        };
        let (a, b) = (run(1), run(2));
        // A lookup refreshes `a`, so `b` is now least recently used.
        assert!(scheduler.job(a).is_some());
        let c = run(3);
        assert!(scheduler.job(b).is_none(), "LRU finished job evicted");
        assert!(scheduler.job(a).is_some());
        assert!(scheduler.job(c).is_some());
        let (again, cached) = scheduler.admit(&small_spec(2)).unwrap();
        assert!(!cached, "an evicted spec runs again");
        finish(&again);
        let stats = scheduler.stats();
        assert_eq!(stats.cache.entries, 2);
        assert_eq!(stats.cache.evictions, 2);
        assert_eq!(stats.cache.hits, 0);
        assert_eq!(stats.cache.misses, 4);
        assert_eq!(stats.jobs, 4);
        scheduler.drain();
    }

    #[test]
    fn reinsert_refreshes_instead_of_evicting() {
        // A hit on the one retained job refreshes it in place.
        let scheduler = one_worker(1);
        finish(&scheduler.submit(&small_spec(1)).unwrap());
        let (job, cached) = scheduler.admit(&small_spec(1)).unwrap();
        assert!(cached);
        assert_eq!(job.state(), JobState::Done);
        let stats = scheduler.stats();
        assert_eq!(stats.cache.entries, 1);
        assert_eq!(stats.cache.evictions, 0);
        assert_eq!(stats.jobs, 1);
        scheduler.drain();
    }

    #[test]
    fn zero_capacity_keeps_the_last_finished_job() {
        let scheduler = one_worker(0);
        let job = scheduler.submit(&small_spec(1)).unwrap();
        finish(&job);
        assert!(scheduler.job(job.hash).is_some(), "cap is clamped to 1");
        assert!(scheduler.admit(&small_spec(1)).unwrap().1);
        assert_eq!(scheduler.stats().cache.entries, 1);
        scheduler.drain();
    }

    #[test]
    fn ten_thousand_hits_leave_one_job() {
        let scheduler = one_worker(8);
        let spec = small_spec(3);
        for _ in 0..10_000 {
            scheduler.submit(&spec).unwrap();
        }
        scheduler.drain();
        let stats = scheduler.stats();
        assert_eq!(stats.jobs, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.cache.hits, 9_999);
        assert_eq!(stats.cache.entries, 1);
    }

    #[test]
    fn invalid_specs_are_rejected_up_front() {
        let scheduler = scheduler();
        assert!(matches!(
            scheduler.submit("not json"),
            Err(SubmitError::InvalidSpec(_))
        ));
        let invalid = r#"{"workload": {"originator_fraction": 0.0}}"#;
        assert!(matches!(
            scheduler.submit(invalid),
            Err(SubmitError::InvalidSpec(_))
        ));
        assert_eq!(scheduler.stats().jobs, 0);
        scheduler.drain();
    }

    #[test]
    fn drain_finishes_queued_jobs_then_rejects_new_ones() {
        let scheduler = scheduler();
        let jobs: Vec<_> = (0..4)
            .map(|seed| scheduler.submit(&small_spec(seed)).unwrap())
            .collect();
        scheduler.drain();
        for job in &jobs {
            assert_eq!(job.state(), JobState::Done, "drain completes queued work");
        }
        assert!(matches!(
            scheduler.submit(&small_spec(99)),
            Err(SubmitError::Draining)
        ));
    }

    #[test]
    fn queue_capacity_bounds_pending_work() {
        // A 1-slot queue behind a busy worker: a burst of distinct specs
        // overflows it.
        let scheduler = Scheduler::start(SchedulerOptions {
            workers: 1,
            queue_cap: 1,
            cache_cap: 4,
        });
        let mut submits = 0;
        let mut rejected = 0;
        for body in std::iter::once(BLOCKER.to_string()).chain((0..40).map(small_spec)) {
            submits += 1;
            match scheduler.submit(&body) {
                Ok(_) => {}
                Err(SubmitError::QueueFull { cap }) => {
                    assert_eq!(cap, 1);
                    rejected += 1;
                }
                Err(other) => panic!("unexpected: {other:?}"),
            }
        }
        assert!(rejected >= 1);
        let stats = scheduler.stats();
        assert_eq!(stats.rejected, rejected);
        // Every parsed submit is exactly one of hit, miss or rejection.
        assert_eq!(
            stats.cache.hits + stats.cache.misses + stats.rejected,
            submits
        );
        scheduler.drain();
        let stats = scheduler.stats();
        assert_eq!(stats.jobs, stats.completed + stats.failed);
    }

    /// The reference model of [`Core`]: the table as a `Vec` in LRU order
    /// (least recent first) of `(hash, finished)`, the queue and the
    /// running jobs as plain lists, and plain counters.
    struct Model {
        queue_cap: usize,
        cache_cap: usize,
        lru: Vec<(SpecHash, bool)>,
        queue: VecDeque<SpecHash>,
        running: Vec<SpecHash>,
        open: bool,
        stats: SchedulerStats,
    }

    impl Model {
        fn touch(&mut self, hash: SpecHash) -> bool {
            let Some(at) = self.lru.iter().position(|&(h, _)| h == hash) else {
                return false;
            };
            let entry = self.lru.remove(at);
            self.lru.push(entry);
            true
        }

        /// `Ok(joined)` or the refusal.
        fn admit(&mut self, hash: SpecHash) -> Result<bool, SubmitError> {
            if self.touch(hash) {
                self.stats.cache.hits += 1;
                return Ok(true);
            }
            if !self.open {
                return Err(SubmitError::Draining);
            }
            if self.queue.len() >= self.queue_cap {
                self.stats.rejected += 1;
                return Err(SubmitError::QueueFull {
                    cap: self.queue_cap,
                });
            }
            self.stats.jobs += 1;
            self.stats.cache.misses += 1;
            self.lru.push((hash, false));
            self.queue.push_back(hash);
            Ok(false)
        }

        fn retire(&mut self, hash: SpecHash, ok: bool) {
            self.running.retain(|&h| h != hash);
            if ok {
                self.stats.completed += 1;
            } else {
                self.stats.failed += 1;
            }
            self.lru.retain(|&(h, _)| h != hash);
            self.lru.push((hash, true));
            if self.lru.iter().filter(|&&(_, finished)| finished).count() > self.cache_cap {
                let oldest = self.lru.iter().position(|&(_, finished)| finished).unwrap();
                self.lru.remove(oldest);
                self.stats.cache.evictions += 1;
            }
        }

        fn stats(&self) -> SchedulerStats {
            let mut stats = self.stats;
            stats.queued = self.queue.len();
            stats.running = self.running.len();
            stats.cache.entries = self.lru.iter().filter(|&&(_, finished)| finished).count();
            stats
        }
    }

    fn spec_hash(key: u64) -> SpecHash {
        format!("{key:016x}").parse().unwrap()
    }

    proptest! {
        /// Random sequences of submits, takes, retirements, lookups and a
        /// close drive the core and the naive model in step. After every
        /// input the counters, the `/health` equations, the table's LRU
        /// order and both capacity bounds agree, and an identical hash
        /// joins the one job created for it.
        #[test]
        fn core_matches_reference_model(
            queue_cap in 0usize..5,
            cache_cap in 0usize..5,
            inputs in prop::collection::vec((0u8..6, 0u64..12, any::<bool>()), 0..200),
        ) {
            let mut core = Core::new(queue_cap, cache_cap);
            let mut model = Model {
                queue_cap: queue_cap.max(1),
                cache_cap: cache_cap.max(1),
                lru: Vec::new(),
                queue: VecDeque::new(),
                running: Vec::new(),
                open: true,
                stats: SchedulerStats::default(),
            };
            // The one job the core created for each hash still in the table.
            let mut jobs: HashMap<SpecHash, Arc<Job>> = HashMap::new();
            for (input, key, ok) in inputs {
                let hash = spec_hash(key);
                match input {
                    0 | 1 => {
                        let admitted = core.admit(hash, String::new());
                        let expected = model.admit(hash);
                        prop_assert_eq!(admitted.as_ref().map(|&(_, joined)| joined), expected.as_ref().copied());
                        if let Ok((job, joined)) = admitted {
                            prop_assert_eq!(job.hash, hash);
                            if joined {
                                prop_assert!(Arc::ptr_eq(&job, &jobs[&hash]), "a join gets the job in flight");
                            } else {
                                jobs.insert(hash, job);
                            }
                        }
                    }
                    2 => {
                        let taken = core.take().map(|job| job.hash);
                        let expected = model.queue.pop_front();
                        model.running.extend(expected);
                        prop_assert_eq!(taken, expected);
                    }
                    3 if !model.running.is_empty() => {
                        let hash = model.running[key as usize % model.running.len()];
                        core.retire(hash, ok);
                        model.retire(hash, ok);
                    }
                    4 => {
                        let found = core.lookup(hash);
                        prop_assert_eq!(found.is_some(), model.touch(hash));
                        if let Some(job) = found {
                            prop_assert!(Arc::ptr_eq(&job, &jobs[&hash]));
                        }
                    }
                    5 if key < 2 => {
                        prop_assert!(core.close().is_empty());
                        model.open = false;
                    }
                    _ => {}
                }
                jobs.retain(|hash, _| model.lru.iter().any(|(h, _)| h == hash));

                let stats = core.stats();
                prop_assert_eq!(stats, model.stats());
                prop_assert_eq!(stats.jobs, stats.cache.misses);
                let in_flight = (stats.queued + stats.running) as u64;
                prop_assert_eq!(stats.jobs, stats.completed + stats.failed + in_flight);
                prop_assert!(stats.queued <= model.queue_cap);
                prop_assert!(stats.cache.entries <= model.cache_cap);
                let mut held: Vec<SpecHash> = core.jobs.keys().copied().collect();
                let mut expected: Vec<SpecHash> = model.lru.iter().map(|&(h, _)| h).collect();
                held.sort_unstable();
                expected.sort_unstable();
                prop_assert_eq!(held, expected, "the table holds the model's jobs");
                let finished: Vec<SpecHash> =
                    model.lru.iter().filter(|&&(_, f)| f).map(|&(h, _)| h).collect();
                prop_assert_eq!(Vec::from(core.finished.clone()), finished, "LRU order");
            }
        }
    }
}
