//! Job records: lifecycle state, the finished result, and the row log
//! that `/stream/<job>` tails live and replays once it is closed.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use fairswap_core::{CsvTable, EpochSnapshot, SpecHash, StepObserver};

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
/// The stream rows stay in the job's [`RowLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// The `run.csv` bytes — byte-identical to `fairswap run --config`
    /// on the same spec (both paths go through
    /// `fairswap_core::run_summary_csv`).
    pub csv: Vec<u8>,
}

/// Columns of the `/stream/<job>` per-epoch CSV — a digest of
/// [`EpochSnapshot`] counters chosen to make live dashboards cheap. All
/// counters are totals since run start, like the snapshots themselves.
pub const STREAM_COLUMNS: [&str; 12] = [
    "epoch",
    "step",
    "live",
    "requests",
    "delivered",
    "stuck",
    "capacity_blocked",
    "detoured",
    "forwarded",
    "cache_hits",
    "repair_events",
    "f2_gini",
];

/// Renders one stream row from an epoch snapshot. Deterministic: same
/// spec, same rows, regardless of worker count or scheduling.
pub fn stream_row(s: &EpochSnapshot) -> String {
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{}",
        s.epoch,
        s.step,
        s.live,
        s.requests,
        s.delivered,
        s.stuck,
        s.capacity_blocked,
        s.detoured,
        s.forwarded,
        s.cache_hits,
        s.repair_events,
        CsvTable::fmt_float(s.f2_gini),
    )
}

/// The header line of the stream CSV.
pub fn stream_header() -> String {
    STREAM_COLUMNS.join(",")
}

/// An append-only log of stream rows with blocking tail semantics.
///
/// Workers push rows as the simulation emits epoch snapshots; any number
/// of stream connections tail the log concurrently, each at its own
/// offset. Closing the log wakes every tailer one final time; a closed
/// log read from offset 0 replays the whole run.
#[derive(Debug, Default)]
pub struct RowLog {
    state: Mutex<RowLogState>,
    grew: Condvar,
}

#[derive(Debug, Default)]
struct RowLogState {
    rows: Vec<String>,
    closed: bool,
}

impl RowLog {
    /// Appends one row and wakes tailers.
    pub fn push(&self, row: String) {
        let mut state = self.state.lock().expect("row log poisoned");
        state.rows.push(row);
        self.grew.notify_all();
    }

    /// Marks the log complete and wakes tailers.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("row log poisoned");
        state.closed = true;
        self.grew.notify_all();
    }

    /// Rows past `offset`, blocking until the log grows beyond it or
    /// closes. Returns the new rows plus whether the log is closed (the
    /// tailer's termination signal once it has drained everything).
    pub fn wait_past(&self, offset: usize, timeout: Duration) -> (Vec<String>, bool) {
        let mut state = self.state.lock().expect("row log poisoned");
        while state.rows.len() <= offset && !state.closed {
            let (next, wait) = self
                .grew
                .wait_timeout(state, timeout)
                .expect("row log poisoned");
            state = next;
            if wait.timed_out() {
                break;
            }
        }
        (
            state.rows.get(offset..).unwrap_or(&[]).to_vec(),
            state.closed,
        )
    }
}

/// One job: the run of one distinct spec, shared between the HTTP
/// handlers, the scheduler's job table and its workers.
#[derive(Debug)]
pub struct Job {
    /// Canonical-JSON content hash of the spec — also the job's id.
    pub hash: SpecHash,
    /// The canonical serialized spec the workers execute.
    pub canonical: String,
    /// Stream rows: live while the job runs, the replay once it is done.
    pub rows: RowLog,
    state: Mutex<JobProgress>,
    finished: Condvar,
}

#[derive(Debug)]
struct JobProgress {
    state: JobState,
    result: Option<Arc<JobResult>>,
    error: Option<String>,
}

impl Job {
    /// A freshly queued job.
    pub fn queued(hash: SpecHash, canonical: String) -> Self {
        Self {
            hash,
            canonical,
            rows: RowLog::default(),
            state: Mutex::new(JobProgress {
                state: JobState::Queued,
                result: None,
                error: None,
            }),
            finished: Condvar::new(),
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        self.state.lock().expect("job state poisoned").state
    }

    /// The failure message, if the job failed.
    pub fn error(&self) -> Option<String> {
        self.state.lock().expect("job state poisoned").error.clone()
    }

    /// Marks the job as picked up by a worker.
    pub fn start(&self) {
        self.state.lock().expect("job state poisoned").state = JobState::Running;
    }

    /// Records the finished result and wakes `/result` waiters.
    pub fn complete(&self, result: Arc<JobResult>) {
        let mut progress = self.state.lock().expect("job state poisoned");
        progress.result = Some(result);
        progress.state = JobState::Done;
        self.finished.notify_all();
    }

    /// Records a failure and wakes `/result` waiters.
    pub fn fail(&self, message: String) {
        let mut progress = self.state.lock().expect("job state poisoned");
        progress.error = Some(message);
        progress.state = JobState::Failed;
        self.finished.notify_all();
    }

    /// Blocks until the job finishes (or `timeout` elapses) and returns
    /// the result, a failure message, or `None` on timeout.
    pub fn wait_result(&self, timeout: Duration) -> Option<Result<Arc<JobResult>, String>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut progress = self.state.lock().expect("job state poisoned");
        loop {
            match progress.state {
                JobState::Done => {
                    return Some(Ok(progress.result.clone().expect("done job has a result")))
                }
                JobState::Failed => {
                    return Some(Err(progress
                        .error
                        .clone()
                        .unwrap_or_else(|| "unknown failure".to_string())))
                }
                JobState::Queued | JobState::Running => {
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    let (next, _) = self
                        .finished
                        .wait_timeout(progress, deadline - now)
                        .expect("job state poisoned");
                    progress = next;
                }
            }
        }
    }
}

/// The [`StepObserver`] a worker runs a job under: formats every epoch
/// snapshot into one stream row. Observation is read-only (the core's
/// non-perturbation invariant), so the produced report — and therefore
/// the `/result` bytes — are identical to an unobserved batch run.
pub struct RowObserver<'a> {
    log: &'a RowLog,
}

impl<'a> RowObserver<'a> {
    /// Observes into `log`.
    pub fn new(log: &'a RowLog) -> Self {
        Self { log }
    }
}

impl StepObserver for RowObserver<'_> {
    const ENABLED: bool = true;

    fn on_epoch(&mut self, snapshot: &EpochSnapshot) {
        self.log.push(stream_row(snapshot));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairswap_core::SimSpec;

    fn hash() -> SpecHash {
        SimSpec::paper_defaults().content_hash().unwrap()
    }

    #[test]
    fn row_log_tails_across_threads_and_replays_when_closed() {
        let log = Arc::new(RowLog::default());
        let writer = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                for i in 0..5 {
                    log.push(format!("row-{i}"));
                }
                log.close();
            })
        };
        let mut seen = Vec::new();
        loop {
            let (rows, closed) = log.wait_past(seen.len(), Duration::from_secs(5));
            seen.extend(rows);
            if closed && seen.len() >= 5 {
                break;
            }
        }
        writer.join().unwrap();
        assert_eq!(seen, (0..5).map(|i| format!("row-{i}")).collect::<Vec<_>>());

        // A closed log read again from the start replays every row.
        let (rows, closed) = log.wait_past(0, Duration::from_millis(1));
        assert!(closed);
        assert_eq!(rows, seen);
    }

    #[test]
    fn job_lifecycle_and_result_waiters() {
        let job = Job::queued(hash(), "{}".into());
        assert_eq!(job.state(), JobState::Queued);
        assert_eq!(job.state().id(), "queued");
        assert!(job.wait_result(Duration::from_millis(5)).is_none());
        job.start();
        assert_eq!(job.state(), JobState::Running);
        let result = Arc::new(JobResult {
            csv: b"header\n1\n".to_vec(),
        });
        job.complete(Arc::clone(&result));
        assert_eq!(job.state(), JobState::Done);
        let got = job.wait_result(Duration::from_secs(1)).unwrap().unwrap();
        assert_eq!(got, result);

        let failed = Job::queued(hash(), "{}".into());
        failed.fail("boom".into());
        assert_eq!(
            failed
                .wait_result(Duration::from_secs(1))
                .unwrap()
                .unwrap_err(),
            "boom"
        );
        assert_eq!(failed.error().as_deref(), Some("boom"));
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
        let row = stream_row(&snapshot);
        assert_eq!(row.split(',').count(), STREAM_COLUMNS.len());
        assert!(row.starts_with("2,64,100,640,600,40,"));
        assert_eq!(stream_header().split(',').count(), STREAM_COLUMNS.len());
    }
}
