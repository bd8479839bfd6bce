//! Job scheduling: one job table keyed by spec hash, and a bounded FIFO
//! submit queue served by a fixed set of long-lived worker threads.
//!
//! A submit whose spec hash is already in the table joins that job; any
//! other creates a job in the table and on the bounded queue. Each worker
//! takes the oldest queued job as soon as it is free, so at most
//! `workers` jobs run at once and no job waits for another to finish
//! while a worker is idle. Jobs start in submission order, but neither
//! that order nor the worker count can leak into results: every job
//! derives all randomness from its own spec seed. An idle worker sleeps
//! on a condvar; closing the queue lets the workers finish what is left
//! and exit, and joining them is what graceful shutdown rides on.

use std::collections::{HashMap, VecDeque};
use std::num::NonZeroUsize;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use fairswap_core::{run_summary_csv, SimSpec, SpecHash};
use serde::Serialize;

use crate::job::{Job, JobResult, RowObserver};

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

#[derive(Default)]
struct Queue {
    pending: VecDeque<Arc<Job>>,
    running: usize,
    open: bool,
}

/// Every job the scheduler can answer for, keyed by spec hash: queued and
/// running jobs always, finished ones LRU up to `cap`. Recency is a
/// deterministic access stamp (a counter, not a clock), so retention is
/// reproducible run-for-run.
#[derive(Default)]
struct Table {
    cap: usize,
    stamp: u64,
    jobs: HashMap<SpecHash, Entry>,
    /// Every counter except the queue gauges, which live on the queue.
    stats: SchedulerStats,
}

struct Entry {
    job: Arc<Job>,
    stamp: u64,
    finished: bool,
}

impl Table {
    /// The job for `hash`, refreshing its recency.
    fn touch(&mut self, hash: SpecHash) -> Option<Arc<Job>> {
        self.stamp += 1;
        let entry = self.jobs.get_mut(&hash)?;
        entry.stamp = self.stamp;
        Some(Arc::clone(&entry.job))
    }

    /// Adds a freshly created job.
    fn insert(&mut self, job: Arc<Job>) {
        self.stamp += 1;
        self.stats.jobs += 1;
        self.stats.cache.misses += 1;
        let entry = Entry {
            job,
            stamp: self.stamp,
            finished: false,
        };
        self.jobs.insert(entry.job.hash, entry);
    }

    /// Counts a finished job and makes it the most recent retained one,
    /// evicting the least-recently-used finished job beyond `cap`.
    fn retire(&mut self, hash: SpecHash, succeeded: bool) {
        if succeeded {
            self.stats.completed += 1;
        } else {
            self.stats.failed += 1;
        }
        self.stamp += 1;
        let entry = self
            .jobs
            .get_mut(&hash)
            .expect("unfinished jobs stay in the table");
        entry.stamp = self.stamp;
        entry.finished = true;
        self.stats.cache.entries += 1;
        if self.stats.cache.entries > self.cap {
            let oldest = self
                .jobs
                .iter()
                .filter(|(_, entry)| entry.finished)
                .min_by_key(|(_, entry)| entry.stamp)
                .map(|(&hash, _)| hash)
                .expect("over capacity means a finished job is retained");
            self.jobs.remove(&oldest);
            self.stats.cache.entries -= 1;
            self.stats.cache.evictions += 1;
        }
    }
}

struct Shared {
    queue_cap: usize,
    queue: Mutex<Queue>,
    work: Condvar,
    table: Mutex<Table>,
}

/// The scheduler: owns the queue, the job table and the worker threads.
/// Shared across connection handlers behind an `Arc`.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Starts the worker threads with the given sizing. Both capacities
    /// are clamped to at least 1: a finished job must stay addressable
    /// until its submitter has read it.
    pub fn start(options: SchedulerOptions) -> Self {
        let shared = Arc::new(Shared {
            queue_cap: options.queue_cap.max(1),
            queue: Mutex::new(Queue {
                open: true,
                ..Queue::default()
            }),
            work: Condvar::new(),
            table: Mutex::new(Table {
                cap: options.cache_cap.max(1),
                ..Table::default()
            }),
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
        Self {
            shared,
            workers: Mutex::new(workers),
        }
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
        let spec = SimSpec::from_json(body).map_err(|e| SubmitError::InvalidSpec(e.to_string()))?;
        spec.validate()
            .map_err(|e| SubmitError::InvalidSpec(e.to_string()))?;
        let canonical = spec
            .to_json()
            .map_err(|e| SubmitError::InvalidSpec(e.to_string()))?;
        let hash = spec
            .content_hash()
            .map_err(|e| SubmitError::InvalidSpec(e.to_string()))?;

        // Hold the table lock across lookup and admission so identical
        // racing submits create one job, and the queue lock so they cannot
        // overshoot its bound (lock order is table → queue; nothing nests
        // them the other way).
        let mut table = self.shared.table.lock().expect("job table poisoned");
        if let Some(job) = table.touch(hash) {
            table.stats.cache.hits += 1;
            return Ok((job, true));
        }
        let mut queue = self.shared.queue.lock().expect("queue poisoned");
        if !queue.open {
            return Err(SubmitError::Draining);
        }
        if queue.pending.len() >= self.shared.queue_cap {
            table.stats.rejected += 1;
            return Err(SubmitError::QueueFull {
                cap: self.shared.queue_cap,
            });
        }
        let job = Arc::new(Job::queued(hash, canonical));
        table.insert(Arc::clone(&job));
        queue.pending.push_back(Arc::clone(&job));
        self.shared.work.notify_one();
        Ok((job, false))
    }

    /// Looks up a job by id (its spec hash), refreshing its recency.
    /// `None` once a finished job has been evicted.
    pub fn job(&self, hash: SpecHash) -> Option<Arc<Job>> {
        self.shared
            .table
            .lock()
            .expect("job table poisoned")
            .touch(hash)
    }

    /// Current queue and job-table counters, one consistent snapshot:
    /// both locks are held (table → queue, as in `admit`), so
    /// `jobs == completed + failed + queued + running` at every read.
    pub fn stats(&self) -> SchedulerStats {
        let table = self.shared.table.lock().expect("job table poisoned");
        let queue = self.shared.queue.lock().expect("queue poisoned");
        SchedulerStats {
            queued: queue.pending.len(),
            running: queue.running,
            ..table.stats
        }
    }

    /// Stops accepting work, finishes everything already queued, and
    /// joins the worker threads. Idempotent.
    pub fn drain(&self) {
        {
            let mut queue = self.shared.queue.lock().expect("queue poisoned");
            queue.open = false;
            self.shared.work.notify_all();
        }
        let workers = std::mem::take(&mut *self.workers.lock().expect("workers poisoned"));
        for worker in workers {
            worker.join().expect("scheduler worker panicked");
        }
    }
}

/// One worker's loop: take the oldest queued job, run it, repeat; exit
/// once the queue is closed and empty.
fn serve_queue(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(job) = queue.pending.pop_front() {
                    queue.running += 1;
                    break job;
                }
                if !queue.open {
                    return;
                }
                queue = shared.work.wait(queue).expect("queue poisoned");
            }
        };
        execute(shared, &job);
    }
}

/// Runs one job end to end and publishes its outcome.
fn execute(shared: &Shared, job: &Arc<Job>) {
    job.start();
    let outcome = run_job(job);
    job.rows.close();
    // Retire and leave `running` in one critical section (table → queue),
    // so no `stats` snapshot counts the job twice or not at all; and do it
    // before publishing, so a waiter woken by `complete` or `fail` already
    // sees this job in the counters.
    {
        let mut table = shared.table.lock().expect("job table poisoned");
        table.retire(job.hash, outcome.is_ok());
        shared.queue.lock().expect("queue poisoned").running -= 1;
    }
    match outcome {
        Ok(result) => job.complete(result),
        Err(message) => job.fail(message),
    }
}

/// Builds and runs the job's simulation under the row observer, then
/// serializes through the same `run_summary_csv` path as the batch CLI —
/// the byte-identity guarantee between `/result` and `fairswap run`.
fn run_job(job: &Arc<Job>) -> Result<Arc<JobResult>, String> {
    let spec = SimSpec::from_json(&job.canonical).map_err(|e| e.to_string())?;
    let sim = spec.build().map_err(|e| e.to_string())?;
    let mut observer = RowObserver::new(&job.rows);
    let report = sim.run_observed(|_, _| {}, &mut observer);
    let csv = run_summary_csv(report.config(), &report)
        .to_csv_string()
        .into_bytes();
    Ok(Arc::new(JobResult { csv }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobState;
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
        let (rows, closed) = first.rows.wait_past(0, Duration::from_millis(1));
        assert!(closed && !rows.is_empty());

        // Identical spec (even with different formatting) is answered by
        // the same job, whose closed log replays the run's rows.
        let spaced = small_spec(1).replace('{', "{ ");
        let (second, cached) = scheduler.admit(&spaced).unwrap();
        assert!(cached);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(second.state(), JobState::Done);
        let (replay, _) = second.rows.wait_past(0, Duration::from_millis(1));
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
}
