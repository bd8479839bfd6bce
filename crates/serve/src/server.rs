//! The daemon: accept loop, request routing, and graceful drain.
//!
//! Endpoints (see `docs/SERVE.md` for the protocol contract):
//!
//! | Endpoint          | Method | Behavior |
//! |-------------------|--------|----------|
//! | `/submit`         | POST   | body = `SimSpec` JSON → job id + spec hash (cache hits answer instantly) |
//! | `/status/<job>`   | GET    | lifecycle state as JSON |
//! | `/result/<job>`   | GET    | blocks until done, then the `run.csv` bytes |
//! | `/stream/<job>`   | GET    | chunked per-epoch metric rows, live while the job runs |
//! | `/health`         | GET    | queue/cache/job counters as JSON |
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
use std::sync::Arc;
use std::time::Duration;

use crate::http::{read_request, write_response, ChunkedWriter, Request};
use crate::job::{stream_header, Job};
use crate::scheduler::{Scheduler, SchedulerOptions, SchedulerStats, SubmitError};

/// Server configuration (the `fairswap serve` flags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Listen address, `host:port` (port 0 picks a free port).
    pub addr: String,
    /// Executor threads per scheduled batch (`0` = one per core).
    pub workers: usize,
    /// Report-cache capacity in entries (`0` disables caching).
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
                write_response(
                    &mut writer,
                    400,
                    "application/json",
                    error_body(&e).as_bytes(),
                    true,
                )?;
                return Ok(());
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

/// `{"error": message}` as one JSON line. Messages can echo the request
/// target or a spec parse error, so the string goes through JSON escaping.
fn error_body(message: &dyn std::fmt::Display) -> String {
    let message = serde_json::to_string(&message.to_string()).expect("strings always serialize");
    format!("{{\"error\":{message}}}\n")
}

fn job_body(job: &Job) -> String {
    format!(
        "{{\"job\":\"{}\",\"spec\":\"{}\",\"state\":\"{}\",\"cached\":{}}}\n",
        job.id,
        job.hash,
        job.state().id(),
        job.cached,
    )
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
            let body = match std::str::from_utf8(&request.body) {
                Ok(body) => body,
                Err(_) => {
                    let body = error_body(&"spec body is not UTF-8");
                    return write_response(writer, 400, "application/json", body.as_bytes(), close);
                }
            };
            match scheduler.submit(body) {
                Ok(job) => write_response(
                    writer,
                    200,
                    "application/json",
                    job_body(&job).as_bytes(),
                    close,
                ),
                Err(e @ SubmitError::InvalidSpec(_)) => write_response(
                    writer,
                    400,
                    "application/json",
                    error_body(&e).as_bytes(),
                    close,
                ),
                Err(e) => write_response(
                    writer,
                    503,
                    "application/json",
                    error_body(&e).as_bytes(),
                    close,
                ),
            }
        }
        ("GET", "/health") => {
            let stats = scheduler.stats();
            let body = format!(
                "{{\"status\":\"{}\",\"queued\":{},\"running\":{},\"jobs\":{},\"completed\":{},\"failed\":{},\"rejected\":{},\"cache\":{{\"entries\":{},\"hits\":{},\"misses\":{},\"evictions\":{}}}}}\n",
                if shutdown.load(Ordering::Relaxed) { "draining" } else { "ok" },
                stats.queued,
                stats.running,
                stats.jobs,
                stats.completed,
                stats.failed,
                stats.rejected,
                stats.cache.entries,
                stats.cache.hits,
                stats.cache.misses,
                stats.cache.evictions,
            );
            write_response(writer, 200, "application/json", body.as_bytes(), close)
        }
        ("POST", "/shutdown") => {
            write_response(
                writer,
                200,
                "application/json",
                b"{\"status\":\"draining\"}\n",
                true,
            )?;
            shutdown.store(true, Ordering::Relaxed);
            Ok(())
        }
        ("GET", target) if target.starts_with("/status/") => {
            match lookup(scheduler, target, "/status/") {
                Ok(job) => write_response(
                    writer,
                    200,
                    "application/json",
                    job_body(&job).as_bytes(),
                    close,
                ),
                Err(body) => {
                    write_response(writer, 404, "application/json", body.as_bytes(), close)
                }
            }
        }
        ("GET", target) if target.starts_with("/result/") => {
            match lookup(scheduler, target, "/result/") {
                Ok(job) => match job.wait_result(RESULT_TIMEOUT) {
                    Some(Ok(result)) => write_response(writer, 200, "text/csv", &result.csv, close),
                    Some(Err(message)) => {
                        let body = error_body(&format!("job {} failed: {message}", job.id));
                        write_response(writer, 500, "application/json", body.as_bytes(), close)
                    }
                    None => {
                        let body = error_body(&format!("job {} still pending", job.id));
                        write_response(writer, 503, "application/json", body.as_bytes(), close)
                    }
                },
                Err(body) => {
                    write_response(writer, 404, "application/json", body.as_bytes(), close)
                }
            }
        }
        ("GET", target) if target.starts_with("/stream/") => {
            match lookup(scheduler, target, "/stream/") {
                Ok(job) => stream_rows(writer, &job, close),
                Err(body) => {
                    write_response(writer, 404, "application/json", body.as_bytes(), close)
                }
            }
        }
        ("POST" | "GET", "/submit" | "/health" | "/shutdown") => {
            let body = error_body(&format!(
                "{} does not support {}",
                request.target, request.method
            ));
            write_response(writer, 405, "application/json", body.as_bytes(), close)
        }
        _ => {
            let body = error_body(&format!("no such endpoint: {}", request.target));
            write_response(writer, 404, "application/json", body.as_bytes(), close)
        }
    }
}

/// Resolves `<prefix><id>` to a job, or a ready-to-send 404 body.
fn lookup(scheduler: &Scheduler, target: &str, prefix: &str) -> Result<Arc<Job>, String> {
    let id = target[prefix.len()..]
        .parse::<u64>()
        .map_err(|_| error_body(&format!("bad job id in {target}")))?;
    scheduler
        .job(id)
        .ok_or_else(|| error_body(&format!("no such job: {id}")))
}

/// Streams the job's epoch rows as a chunked CSV: the pinned header
/// first, then every row as it lands in the job's row log, terminating
/// once the job finishes. Cache hits replay the original run's rows.
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
        if closed && rows_drained(job, offset) {
            return chunked.finish();
        }
    }
}

fn rows_drained(job: &Job, offset: usize) -> bool {
    job.rows.snapshot().len() <= offset
}
