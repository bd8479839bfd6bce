//! Job scheduling: a bounded submit queue drained in batches onto the
//! workspace's [`Executor`] worker pool.
//!
//! Submissions land in a bounded queue; a single runner thread swaps the
//! queue out and fans each batch over `Executor::new(workers)` — the same
//! deterministic pool the experiment grids use, so `--workers N` cannot
//! leak into results (every job derives all randomness from its spec
//! seed). Between batches the runner sleeps on a condvar; closing the
//! queue drains what is left and joins, which is what graceful shutdown
//! rides on.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use fairswap_core::{run_summary_csv, Executor, SimSpec};

use crate::cache::{CacheStats, ReportCache};
use crate::job::{Job, JobId, JobResult, RowObserver};

/// Scheduler sizing knobs (the `fairswap serve` flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerOptions {
    /// Executor threads per batch (`0` = one per CPU core).
    pub workers: usize,
    /// Maximum jobs waiting in the queue; submits beyond it are rejected
    /// with 503 rather than buffered unboundedly.
    pub queue_cap: usize,
    /// Report-cache capacity in entries (`0` disables caching).
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

/// A point-in-time view of the scheduler, as reported by `/health`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerStats {
    /// Jobs waiting in the queue.
    pub queued: usize,
    /// Jobs in the batch currently running on the executor.
    pub running: usize,
    /// Jobs ever registered (including cache hits).
    pub jobs: u64,
    /// Jobs that finished with a result.
    pub completed: u64,
    /// Jobs that failed to build or run.
    pub failed: u64,
    /// Submissions rejected by the full queue.
    pub rejected: u64,
    /// Report-cache counters.
    pub cache: CacheStats,
}

#[derive(Default)]
struct Queue {
    pending: Vec<Arc<Job>>,
    running: usize,
    open: bool,
}

#[derive(Default)]
struct Registry {
    next_id: u64,
    by_id: HashMap<u64, Arc<Job>>,
}

struct Shared {
    workers: usize,
    queue_cap: usize,
    queue: Mutex<Queue>,
    work: Condvar,
    jobs: Mutex<Registry>,
    cache: Mutex<ReportCache>,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
}

/// The scheduler: owns the queue, the registry, the cache and the runner
/// thread. Shared across connection handlers behind an `Arc`.
pub struct Scheduler {
    shared: Arc<Shared>,
    runner: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Starts the runner thread with the given sizing.
    pub fn start(options: SchedulerOptions) -> Self {
        let shared = Arc::new(Shared {
            workers: options.workers,
            queue_cap: options.queue_cap.max(1),
            queue: Mutex::new(Queue {
                open: true,
                ..Queue::default()
            }),
            work: Condvar::new(),
            jobs: Mutex::new(Registry::default()),
            cache: Mutex::new(ReportCache::new(options.cache_cap)),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        });
        let runner = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_batches(&shared))
        };
        Self {
            shared,
            runner: Mutex::new(Some(runner)),
        }
    }

    /// Validates and enqueues one spec document, or answers it from the
    /// report cache (the returned job is then already `Done` and flagged
    /// `cached`).
    ///
    /// # Errors
    ///
    /// [`SubmitError::InvalidSpec`] for unparseable/invalid documents,
    /// [`SubmitError::QueueFull`] when the bounded queue is at capacity,
    /// [`SubmitError::Draining`] once shutdown has begun.
    pub fn submit(&self, body: &str) -> Result<Arc<Job>, SubmitError> {
        let spec = SimSpec::from_json(body).map_err(|e| SubmitError::InvalidSpec(e.to_string()))?;
        spec.validate()
            .map_err(|e| SubmitError::InvalidSpec(e.to_string()))?;
        let canonical = spec
            .to_json()
            .map_err(|e| SubmitError::InvalidSpec(e.to_string()))?;
        let hash = spec
            .content_hash()
            .map_err(|e| SubmitError::InvalidSpec(e.to_string()))?;

        let cached = self.shared.cache.lock().expect("cache poisoned").get(hash);
        if let Some(result) = cached {
            return Ok(self.register(|id| Job::cached(id, hash, canonical, result)));
        }

        // Hold the queue lock across admission and registration so a
        // racing submit cannot overshoot the capacity bound (lock order
        // is queue → registry; nothing nests them the other way).
        let mut queue = self.shared.queue.lock().expect("queue poisoned");
        if !queue.open {
            return Err(SubmitError::Draining);
        }
        if queue.pending.len() >= self.shared.queue_cap {
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull {
                cap: self.shared.queue_cap,
            });
        }
        let job = self.register(|id| Job::queued(id, hash, canonical));
        queue.pending.push(Arc::clone(&job));
        self.shared.work.notify_one();
        Ok(job)
    }

    fn register(&self, make: impl FnOnce(JobId) -> Job) -> Arc<Job> {
        let mut registry = self.shared.jobs.lock().expect("registry poisoned");
        registry.next_id += 1;
        let job = Arc::new(make(JobId(registry.next_id)));
        registry.by_id.insert(job.id.0, Arc::clone(&job));
        job
    }

    /// Looks up a job by id.
    pub fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.shared
            .jobs
            .lock()
            .expect("registry poisoned")
            .by_id
            .get(&id)
            .cloned()
    }

    /// Current queue/registry/cache counters.
    pub fn stats(&self) -> SchedulerStats {
        let (queued, running) = {
            let queue = self.shared.queue.lock().expect("queue poisoned");
            (queue.pending.len(), queue.running)
        };
        SchedulerStats {
            queued,
            running,
            jobs: self.shared.jobs.lock().expect("registry poisoned").next_id,
            completed: self.shared.completed.load(Ordering::Relaxed),
            failed: self.shared.failed.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            cache: self.shared.cache.lock().expect("cache poisoned").stats(),
        }
    }

    /// Stops accepting work, finishes everything already queued, and
    /// joins the runner thread. Idempotent.
    pub fn drain(&self) {
        {
            let mut queue = self.shared.queue.lock().expect("queue poisoned");
            queue.open = false;
            self.shared.work.notify_all();
        }
        if let Some(runner) = self.runner.lock().expect("runner poisoned").take() {
            runner.join().expect("scheduler runner panicked");
        }
    }
}

/// The runner loop: swap out the pending queue, fan the batch over the
/// executor, repeat; exit once the queue is closed and empty.
fn run_batches(shared: &Shared) {
    let executor = Executor::new(shared.workers);
    loop {
        let batch = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            while queue.pending.is_empty() && queue.open {
                queue = shared.work.wait(queue).expect("queue poisoned");
            }
            if queue.pending.is_empty() {
                return;
            }
            let batch = std::mem::take(&mut queue.pending);
            queue.running = batch.len();
            batch
        };
        executor.run(batch, |_, job| execute(shared, &job));
        shared.queue.lock().expect("queue poisoned").running = 0;
    }
}

/// Runs one job end to end and publishes its outcome.
fn execute(shared: &Shared, job: &Arc<Job>) {
    job.start();
    match run_job(job) {
        Ok(result) => {
            shared
                .cache
                .lock()
                .expect("cache poisoned")
                .insert(job.hash, Arc::clone(&result));
            job.rows.close();
            // Count before publishing: a waiter woken by `complete` must
            // already see this job in the `completed` total.
            shared.completed.fetch_add(1, Ordering::Relaxed);
            job.complete(result);
        }
        Err(message) => {
            job.rows.close();
            shared.failed.fetch_add(1, Ordering::Relaxed);
            job.fail(message);
        }
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
    let rows = job.rows.snapshot();
    Ok(Arc::new(JobResult { csv, rows }))
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

    fn scheduler() -> Scheduler {
        Scheduler::start(SchedulerOptions {
            workers: 2,
            queue_cap: 16,
            cache_cap: 8,
        })
    }

    #[test]
    fn submit_run_cache_hit_round_trip() {
        let scheduler = scheduler();
        let first = scheduler.submit(&small_spec(1)).unwrap();
        assert!(!first.cached);
        let result = first
            .wait_result(Duration::from_secs(60))
            .expect("job finishes")
            .expect("job succeeds");
        assert!(result.csv.starts_with(b"nodes,bits,k,"));
        assert!(!result.rows.is_empty());

        // Identical spec (even with different formatting) hits the cache.
        let spaced = small_spec(1).replace('{', "{ ");
        let second = scheduler.submit(&spaced).unwrap();
        assert!(second.cached);
        assert_eq!(second.state(), JobState::Done);
        let replay = second.wait_result(Duration::from_secs(1)).unwrap().unwrap();
        assert_eq!(replay.csv, result.csv);
        assert_eq!(replay.rows, result.rows);
        assert_eq!(second.hash, first.hash);

        let stats = scheduler.stats();
        assert_eq!(stats.jobs, 2);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
        scheduler.drain();
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
        // A 1-slot queue: fill it while the runner is busy elsewhere.
        // Racing the runner makes exact rejection counts timing-dependent,
        // so just check the error shape on a clearly-overfull queue.
        let scheduler = Scheduler::start(SchedulerOptions {
            workers: 1,
            queue_cap: 1,
            cache_cap: 0,
        });
        let mut accepted = 0;
        let mut rejected = 0;
        for seed in 0..40 {
            match scheduler.submit(&small_spec(seed)) {
                Ok(_) => accepted += 1,
                Err(SubmitError::QueueFull { cap }) => {
                    assert_eq!(cap, 1);
                    rejected += 1;
                }
                Err(other) => panic!("unexpected: {other:?}"),
            }
        }
        assert!(accepted >= 1);
        assert_eq!(scheduler.stats().rejected, rejected);
        scheduler.drain();
    }
}
