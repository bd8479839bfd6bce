//! Job records: one mutex over a job's stream rows and its outcome, so
//! `/stream/<job>` ends exactly when the job is done or failed, and a
//! finished job's rows are its replay.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use fairswap_core::{CsvTable, EpochSnapshot, SpecHash, StepObserver};
use serde::Serialize;

/// Lifecycle of a job, as reported by `/status/<job>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting in the bounded queue.
    Queued,
    /// A scheduler worker is running the simulation.
    Running,
    /// Finished; result bytes are available.
    Done,
    /// The simulation could not be built or run.
    Failed,
}

impl JobState {
    /// Wire identifier used in status/health JSON.
    pub fn id(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// The immutable outcome of a finished job — what `/result` answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// The `run.csv` bytes — byte-identical to `fairswap run --config`
    /// on the same spec (both paths go through
    /// `fairswap_core::run_summary_csv`).
    pub csv: Vec<u8>,
}

/// One row of the `/stream/<job>` per-epoch CSV — a digest of
/// [`EpochSnapshot`] counters chosen to make live dashboards cheap. The
/// field list is the stream's header; all counters are totals since run
/// start, like the snapshots themselves.
#[derive(Serialize)]
pub struct StreamRow {
    epoch: u64,
    step: u64,
    live: u64,
    requests: u64,
    delivered: u64,
    stuck: u64,
    capacity_blocked: u64,
    detoured: u64,
    forwarded: u64,
    cache_hits: u64,
    repair_events: u64,
    f2_gini: f64,
}

/// Renders one stream row from an epoch snapshot, by the cell rules of
/// every other CSV. Deterministic: same spec, same rows, regardless of
/// worker count or scheduling.
pub fn stream_row(s: &EpochSnapshot) -> String {
    let row = StreamRow {
        epoch: s.epoch,
        step: s.step,
        live: s.live,
        requests: s.requests,
        delivered: s.delivered,
        stuck: s.stuck,
        capacity_blocked: s.capacity_blocked,
        detoured: s.detoured,
        forwarded: s.forwarded,
        cache_hits: s.cache_hits,
        repair_events: s.repair_events,
        f2_gini: s.f2_gini,
    };
    CsvTable::line(&CsvTable::cells(&row))
}

/// The header line of the stream CSV.
pub fn stream_header() -> String {
    CsvTable::line(StreamRow::field_names())
}

/// One job: the run of one distinct spec, shared between the HTTP
/// handlers, the scheduler's job table and its workers.
///
/// Its stream rows and its outcome sit under one mutex with one condvar:
/// a row append wakes stream tailers, and finishing wakes tailers and
/// `/result` waiters alike. Any number of stream connections tail the
/// rows concurrently, each at its own offset.
#[derive(Debug)]
pub struct Job {
    /// Canonical-JSON content hash of the spec — also the job's id.
    pub hash: SpecHash,
    /// The canonical serialized spec the workers execute.
    pub canonical: String,
    inner: Mutex<JobInner>,
    changed: Condvar,
}

#[derive(Debug)]
struct JobInner {
    /// Stream rows: live while the job runs, the replay once it is done.
    rows: Vec<String>,
    outcome: Outcome,
}

#[derive(Debug)]
enum Outcome {
    Queued,
    Running,
    Done(Arc<JobResult>),
    Failed(String),
}

impl Outcome {
    fn finished(&self) -> bool {
        matches!(self, Outcome::Done(_) | Outcome::Failed(_))
    }
}

impl Job {
    /// A freshly queued job.
    pub fn queued(hash: SpecHash, canonical: String) -> Self {
        Self {
            hash,
            canonical,
            inner: Mutex::new(JobInner {
                rows: Vec::new(),
                outcome: Outcome::Queued,
            }),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, JobInner> {
        self.inner.lock().expect("job poisoned")
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        match self.lock().outcome {
            Outcome::Queued => JobState::Queued,
            Outcome::Running => JobState::Running,
            Outcome::Done(_) => JobState::Done,
            Outcome::Failed(_) => JobState::Failed,
        }
    }

    /// Marks the job as picked up by a worker.
    pub fn start(&self) {
        self.lock().outcome = Outcome::Running;
    }

    /// Appends one stream row and wakes tailers.
    fn push_row(&self, row: String) {
        self.lock().rows.push(row);
        self.changed.notify_all();
    }

    /// Records the job's result or failure, which also ends its stream,
    /// and wakes every waiter.
    pub fn finish(&self, outcome: Result<Arc<JobResult>, String>) {
        self.lock().outcome = match outcome {
            Ok(result) => Outcome::Done(result),
            Err(message) => Outcome::Failed(message),
        };
        self.changed.notify_all();
    }

    /// Blocks until the job finishes (or `timeout` elapses) and returns
    /// the result, a failure message, or `None` on timeout.
    pub fn wait_result(&self, timeout: Duration) -> Option<Result<Arc<JobResult>, String>> {
        match &self
            .wait_while(timeout, |inner| !inner.outcome.finished())
            .outcome
        {
            Outcome::Queued | Outcome::Running => None,
            Outcome::Done(result) => Some(Ok(Arc::clone(result))),
            Outcome::Failed(message) => Some(Err(message.clone())),
        }
    }

    /// Rows past `offset`, blocking until there are some or the job
    /// finishes (or `timeout` elapses). Returns the new rows plus whether
    /// the job has finished — read under one lock, so a finished job has
    /// just handed over its last rows.
    pub fn wait_rows(&self, offset: usize, timeout: Duration) -> (Vec<String>, bool) {
        let inner = self.wait_while(timeout, |inner| {
            inner.rows.len() <= offset && !inner.outcome.finished()
        });
        let rows = inner.rows.get(offset..).unwrap_or(&[]).to_vec();
        (rows, inner.outcome.finished())
    }

    fn wait_while(
        &self,
        timeout: Duration,
        waiting: impl FnMut(&mut JobInner) -> bool,
    ) -> MutexGuard<'_, JobInner> {
        let (inner, _) = self
            .changed
            .wait_timeout_while(self.lock(), timeout, waiting)
            .expect("job poisoned");
        inner
    }
}

/// A job observes its own run: every epoch snapshot becomes one stream
/// row. Observation is read-only (the core's non-perturbation
/// invariant), so the produced report — and therefore the `/result`
/// bytes — are identical to an unobserved batch run.
impl StepObserver for &Job {
    const ENABLED: bool = true;

    fn on_epoch(&mut self, snapshot: &EpochSnapshot) {
        self.push_row(stream_row(snapshot));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairswap_core::SimSpec;

    fn hash() -> SpecHash {
        SimSpec::paper_defaults().content_hash().unwrap()
    }

    fn result() -> Arc<JobResult> {
        Arc::new(JobResult {
            csv: b"header\n1\n".to_vec(),
        })
    }

    #[test]
    fn rows_tail_across_threads_and_replay_once_the_job_finishes() {
        let job = Arc::new(Job::queued(hash(), "{}".into()));
        let writer = {
            let job = Arc::clone(&job);
            std::thread::spawn(move || {
                job.start();
                for i in 0..5 {
                    job.push_row(format!("row-{i}"));
                }
                job.finish(Ok(result()));
            })
        };
        let mut seen = Vec::new();
        loop {
            let (rows, finished) = job.wait_rows(seen.len(), Duration::from_secs(5));
            seen.extend(rows);
            if finished {
                break;
            }
        }
        writer.join().unwrap();
        assert_eq!(seen, (0..5).map(|i| format!("row-{i}")).collect::<Vec<_>>());

        // A finished job read again from the start replays every row.
        let (rows, finished) = job.wait_rows(0, Duration::from_millis(1));
        assert!(finished);
        assert_eq!(rows, seen);
    }

    #[test]
    fn the_stream_ends_exactly_when_the_job_finishes() {
        let job = Job::queued(hash(), "{}".into());
        job.start();
        job.push_row("row-0".into());
        let (rows, finished) = job.wait_rows(0, Duration::from_millis(1));
        assert_eq!((rows.len(), finished), (1, false));
        assert_eq!(job.wait_rows(1, Duration::from_millis(1)), (vec![], false));
        assert_eq!(job.state(), JobState::Running);
        job.finish(Err("boom".into()));
        assert_eq!(job.wait_rows(1, Duration::from_millis(1)), (vec![], true));
        assert_eq!(job.state(), JobState::Failed);
    }

    #[test]
    fn job_lifecycle_and_result_waiters() {
        let job = Job::queued(hash(), "{}".into());
        assert_eq!(job.state(), JobState::Queued);
        assert_eq!(job.state().id(), "queued");
        assert!(job.wait_result(Duration::from_millis(5)).is_none());
        job.start();
        assert_eq!(job.state(), JobState::Running);
        job.finish(Ok(result()));
        assert_eq!(job.state(), JobState::Done);
        let got = job.wait_result(Duration::from_secs(1)).unwrap().unwrap();
        assert_eq!(got, result());

        let failed = Job::queued(hash(), "{}".into());
        failed.finish(Err("boom".into()));
        assert_eq!(
            failed
                .wait_result(Duration::from_secs(1))
                .unwrap()
                .unwrap_err(),
            "boom"
        );
    }

    #[test]
    fn stream_row_matches_the_pinned_header_shape() {
        let snapshot = EpochSnapshot {
            epoch: 2,
            step: 64,
            live: 100,
            requests: 640,
            delivered: 600,
            stuck: 40,
            f2_gini: 0.25,
            ..EpochSnapshot::default()
        };
        assert_eq!(
            stream_row(&snapshot),
            "2,64,100,640,600,40,0,0,0,0,0,0.250000"
        );
        assert_eq!(
            stream_header(),
            "epoch,step,live,requests,delivered,stuck,capacity_blocked,detoured,forwarded,\
             cache_hits,repair_events,f2_gini"
        );
    }

    #[test]
    fn serve_md_lists_the_stream_columns() {
        // The `/stream` section of docs/SERVE.md shows the header in a
        // `csv` block.
        let section = include_str!("../../../docs/SERVE.md")
            .split("### `GET /stream/<job>`")
            .nth(1)
            .and_then(|rest| rest.split("\n### ").next())
            .expect("docs/SERVE.md has a /stream section");
        let documented = section
            .split("```csv\n")
            .nth(1)
            .and_then(|block| block.lines().next());
        assert_eq!(
            documented,
            Some(StreamRow::field_names().join(",").as_str())
        );
    }
}
