//! The daemon: accept loop, request routing, and graceful drain.
//!
//! Endpoints (see `docs/SERVE.md` for the protocol contract):
//!
//! | Endpoint          | Method | Behavior |
//! |-------------------|--------|----------|
//! | `/submit`         | POST   | body = `SimSpec` JSON → job id (= spec hash); a known spec joins its existing job |
//! | `/status/<job>`   | GET    | lifecycle state as JSON |
//! | `/result/<job>`   | GET    | blocks until done, then the `run.csv` bytes |
//! | `/stream/<job>`   | GET    | chunked per-epoch metric rows, live while the job runs |
//! | `/health`         | GET    | queue/cache/job counters and the daemon's RSS as JSON |
//! | `/shutdown`       | POST   | begin graceful drain; the accept loop exits once quiet |
//!
//! Connections are persistent (HTTP/1.1 keep-alive) and each runs on its
//! own thread; the accept loop polls a nonblocking listener so it can
//! notice the shutdown flag. Drain order: stop accepting, finish every
//! queued job, then join connection threads — in-flight `/result` and
//! `/stream` requests therefore complete rather than being cut off.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use fairswap_core::SpecHash;
use serde::Serialize;

use crate::http::{read_request, write_response, ChunkedWriter, Request};
use crate::job::{stream_header, Job};
use crate::scheduler::{CacheStats, Scheduler, SchedulerOptions, SchedulerStats, SubmitError};

/// Server configuration (the `fairswap serve` flags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Listen address, `host:port` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads, the most jobs that run at once (`0` = one per
    /// core).
    pub workers: usize,
    /// Finished jobs kept addressable, least recently used evicted
    /// first (at least 1).
    pub cache_cap: usize,
    /// Bounded submit-queue capacity.
    pub queue_cap: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        let scheduler = SchedulerOptions::default();
        Self {
            addr: "127.0.0.1:7440".to_string(),
            workers: scheduler.workers,
            cache_cap: scheduler.cache_cap,
            queue_cap: scheduler.queue_cap,
        }
    }
}

/// Final counters reported when the daemon exits.
pub type ServeSummary = SchedulerStats;

/// Signals a running server to begin graceful drain — the programmatic
/// equivalent of `POST /shutdown`, used by tests and the load generator.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Requests shutdown; the accept loop notices within its poll tick.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    scheduler: Arc<Scheduler>,
    shutdown: Arc<AtomicBool>,
}

/// How long the result endpoint will wait for a job before giving up.
const RESULT_TIMEOUT: Duration = Duration::from_secs(300);

/// Poll tick shared by the accept loop, idle keep-alive reads and stream
/// tailing — the latency bound on noticing the shutdown flag.
const POLL_TICK: Duration = Duration::from_millis(50);

impl Server {
    /// Binds the listen socket and starts the scheduler.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind(options: &ServeOptions) -> io::Result<Self> {
        let listener = TcpListener::bind(&options.addr)?;
        let scheduler = Arc::new(Scheduler::start(SchedulerOptions {
            workers: options.workers,
            queue_cap: options.queue_cap,
            cache_cap: options.cache_cap,
        }));
        Ok(Self {
            listener,
            scheduler,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    ///
    /// # Errors
    ///
    /// Propagates socket introspection failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can trigger graceful drain from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            flag: Arc::clone(&self.shutdown),
        }
    }

    /// Serves until shutdown is requested (via `/shutdown` or a
    /// [`ShutdownHandle`]), then drains: stops accepting, finishes every
    /// queued job, joins every connection, and reports final counters.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener failures; per-connection errors only
    /// drop that connection.
    pub fn run(self) -> io::Result<ServeSummary> {
        self.listener.set_nonblocking(true)?;
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shutdown.load(Ordering::Relaxed) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let scheduler = Arc::clone(&self.scheduler);
                    let shutdown = Arc::clone(&self.shutdown);
                    connections.push(std::thread::spawn(move || {
                        // Connection errors mean the peer went away;
                        // nothing to clean up beyond the thread itself.
                        let _ = handle_connection(stream, &scheduler, &shutdown);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_TICK);
                }
                Err(e) => return Err(e),
            }
            connections.retain(|handle| !handle.is_finished());
        }
        // Drain: finish queued jobs first so blocked /result and /stream
        // requests can complete, then wait for the connections to wind
        // down.
        self.scheduler.drain();
        for handle in connections {
            let _ = handle.join();
        }
        Ok(self.scheduler.stats())
    }
}

/// One keep-alive connection: requests are answered in order until the
/// peer closes, errors, or the server drains.
fn handle_connection(
    stream: TcpStream,
    scheduler: &Scheduler,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream.try_clone()?);
    loop {
        // Idle-wait via peek so a poll tick can never fire in the middle
        // of parsing a request (which would drop partial header bytes).
        // Our clients are strictly request/response, so an empty parse
        // buffer means no request is in flight.
        if reader.buffer().is_empty() {
            stream.set_read_timeout(Some(POLL_TICK))?;
            match stream.peek(&mut [0u8; 1]) {
                Ok(0) => return Ok(()), // peer closed
                Ok(_) => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // Idle between keep-alive requests: close once
                    // draining.
                    if shutdown.load(Ordering::Relaxed) {
                        return Ok(());
                    }
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        // A request has started arriving; give the whole parse a
        // generous bound instead of the poll tick.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                return write_json(&mut writer, 400, &error(e), true);
            }
            Err(e) => return Err(e),
        };
        let close = request.wants_close() || shutdown.load(Ordering::Relaxed);
        route(&request, &mut writer, scheduler, shutdown, close)?;
        if close {
            return Ok(());
        }
    }
}

/// The `/submit` and `/status` reply. `job` and `spec` are both the spec
/// hash; `cached` says whether this submit was answered by a job that
/// already existed.
#[derive(Serialize)]
struct JobBody {
    job: String,
    spec: String,
    state: &'static str,
    cached: bool,
}

impl JobBody {
    fn new(job: &Job, cached: bool) -> Self {
        Self {
            job: job.hash.to_string(),
            spec: job.hash.to_string(),
            state: job.state().id(),
            cached,
        }
    }
}

/// The `/health` reply.
#[derive(Serialize)]
struct HealthBody {
    status: &'static str,
    queued: usize,
    running: usize,
    jobs: u64,
    completed: u64,
    failed: u64,
    rejected: u64,
    cache: CacheStats,
    /// The daemon's resident set size in KiB; 0 where `/proc` is missing.
    rss_kb: u64,
}

/// The process's resident set size in KiB: resident pages (the second
/// field of `/proc/self/statm`) times the page size. One small read per
/// call, so `/health` stays cheap to poll; 0 where the file is missing.
fn rss_kb() -> u64 {
    let Ok(statm) = std::fs::read_to_string("/proc/self/statm") else {
        return 0;
    };
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|field| field.parse().ok())
        .unwrap_or(0);
    pages * page_size() / 1024
}

/// The page size, read once from the auxiliary vector's `AT_PAGESZ`
/// entry (`/proc/self/auxv`: native-endian word pairs); 4 KiB if that
/// file is unreadable.
fn page_size() -> u64 {
    const AT_PAGESZ: usize = 6;
    static PAGE_SIZE: OnceLock<u64> = OnceLock::new();
    *PAGE_SIZE.get_or_init(|| {
        const WORD: usize = std::mem::size_of::<usize>();
        let word = |bytes: &[u8]| usize::from_ne_bytes(bytes.try_into().expect("one word"));
        std::fs::read("/proc/self/auxv")
            .ok()
            .and_then(|auxv| {
                auxv.chunks_exact(2 * WORD).find_map(|pair| {
                    let (key, value) = pair.split_at(WORD);
                    (word(key) == AT_PAGESZ).then(|| word(value) as u64)
                })
            })
            .unwrap_or(4096)
    })
}

/// The `/shutdown` acknowledgement.
#[derive(Serialize)]
struct StatusBody {
    status: &'static str,
}

/// Every error reply. Messages can echo the request target or a spec
/// parse error; serialization escapes them.
#[derive(Serialize)]
struct ErrorBody {
    error: String,
}

fn error(message: impl std::fmt::Display) -> ErrorBody {
    ErrorBody {
        error: message.to_string(),
    }
}

/// Writes `body` as a one-line compact JSON reply.
fn write_json<W: Write>(
    writer: &mut W,
    status: u16,
    body: &impl Serialize,
    close: bool,
) -> io::Result<()> {
    let mut line = serde_json::to_string(body).expect("reply bodies always serialize");
    line.push('\n');
    write_response(writer, status, "application/json", line.as_bytes(), close)
}

/// Dispatches one request to its endpoint handler.
fn route<W: Write>(
    request: &Request,
    writer: &mut W,
    scheduler: &Scheduler,
    shutdown: &AtomicBool,
    close: bool,
) -> io::Result<()> {
    match (request.method.as_str(), request.target.as_str()) {
        ("POST", "/submit") => {
            let Ok(body) = std::str::from_utf8(&request.body) else {
                return write_json(writer, 400, &error("spec body is not UTF-8"), close);
            };
            match scheduler.admit(body) {
                Ok((job, cached)) => write_json(writer, 200, &JobBody::new(&job, cached), close),
                Err(e @ SubmitError::InvalidSpec(_)) => write_json(writer, 400, &error(e), close),
                Err(e) => write_json(writer, 503, &error(e), close),
            }
        }
        ("GET", "/health") => {
            let stats = scheduler.stats();
            let draining = shutdown.load(Ordering::Relaxed);
            let body = HealthBody {
                status: if draining { "draining" } else { "ok" },
                queued: stats.queued,
                running: stats.running,
                jobs: stats.jobs,
                completed: stats.completed,
                failed: stats.failed,
                rejected: stats.rejected,
                cache: stats.cache,
                rss_kb: rss_kb(),
            };
            write_json(writer, 200, &body, close)
        }
        ("POST", "/shutdown") => {
            let body = StatusBody { status: "draining" };
            write_json(writer, 200, &body, true)?;
            shutdown.store(true, Ordering::Relaxed);
            Ok(())
        }
        ("GET", target) if target.starts_with("/status/") => match lookup(scheduler, target) {
            Ok(job) => write_json(writer, 200, &JobBody::new(&job, false), close),
            Err(body) => write_json(writer, 404, &body, close),
        },
        ("GET", target) if target.starts_with("/result/") => match lookup(scheduler, target) {
            Ok(job) => match job.wait_result(RESULT_TIMEOUT) {
                Some(Ok(result)) => write_response(writer, 200, "text/csv", &result.csv, close),
                Some(Err(message)) => {
                    let body = error(format!("job {} failed: {message}", job.hash));
                    write_json(writer, 500, &body, close)
                }
                None => {
                    let body = error(format!("job {} still pending", job.hash));
                    write_json(writer, 503, &body, close)
                }
            },
            Err(body) => write_json(writer, 404, &body, close),
        },
        ("GET", target) if target.starts_with("/stream/") => match lookup(scheduler, target) {
            Ok(job) => stream_rows(writer, &job, close),
            Err(body) => write_json(writer, 404, &body, close),
        },
        ("POST" | "GET", "/submit" | "/health" | "/shutdown") => {
            let body = error(format!(
                "{} does not support {}",
                request.target, request.method
            ));
            write_json(writer, 405, &body, close)
        }
        _ => {
            let body = error(format!("no such endpoint: {}", request.target));
            write_json(writer, 404, &body, close)
        }
    }
}

/// Resolves `/<endpoint>/<id>` to a retained job, or the 404 body
/// (malformed ids and evicted jobs alike).
fn lookup(scheduler: &Scheduler, target: &str) -> Result<Arc<Job>, ErrorBody> {
    let (_, id) = target[1..]
        .split_once('/')
        .expect("routed targets have an id segment");
    id.parse::<SpecHash>()
        .ok()
        .and_then(|hash| scheduler.job(hash))
        .ok_or_else(|| error(format!("no such job: {target}")))
}

/// Streams the job's epoch rows as a chunked CSV: the pinned header
/// first, then every row as it lands in the job's row log, terminating
/// once the job finishes. A finished job replays its closed log.
fn stream_rows<W: Write>(writer: &mut W, job: &Job, close: bool) -> io::Result<()> {
    let mut chunked = ChunkedWriter::start(writer, "text/csv", close)?;
    chunked.write_chunk(format!("{}\n", stream_header()).as_bytes())?;
    let mut offset = 0;
    loop {
        let (rows, closed) = job.rows.wait_past(offset, POLL_TICK);
        if !rows.is_empty() {
            offset += rows.len();
            let mut chunk = String::new();
            for row in rows {
                chunk.push_str(&row);
                chunk.push('\n');
            }
            chunked.write_chunk(chunk.as_bytes())?;
        }
        // `wait_past` reads the rows and the flag under one lock, so a
        // closed log has just handed over its last rows.
        if closed {
            return chunked.finish();
        }
    }
}
