//! The daemon: accept loop, request routing, and graceful drain.
//!
//! The endpoints are the rows of [`ENDPOINTS`], and `docs/SERVE.md` (the
//! protocol contract) has one section per row, in the same order. A
//! request is matched against that table once, at the edge: it either
//! names one endpoint (and, on a `<job>` path, a parsed job id) or gets
//! `404` for an unknown path or job and `405` for a known path with
//! another method.
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

use fairswap_core::SpecHash;
use serde::Serialize;

use crate::http::{read_request, write_response, ChunkedWriter, Reply, Request};
use crate::job::{stream_header, Job};
use crate::scheduler::{CacheStats, Scheduler, SchedulerOptions, SchedulerStats, SubmitError};

/// Server configuration (the `fairswap serve` flags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Listen address, `host:port` (port 0 picks a free port).
    pub addr: String,
    /// Worker count and queue and job-table capacities.
    pub scheduler: SchedulerOptions,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7440".to_string(),
            scheduler: SchedulerOptions::default(),
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
        Ok(Self {
            listener,
            scheduler: Arc::new(Scheduler::start(options.scheduler)),
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
                let reply = Reply {
                    close: true,
                    head: false,
                };
                return write_json(&mut writer, 400, &error(e), reply);
            }
            Err(e) => return Err(e),
        };
        let reply = Reply {
            close: request.wants_close() || shutdown.load(Ordering::Relaxed),
            head: request.method == "HEAD",
        };
        route(&request, &mut writer, scheduler, shutdown, reply)?;
        if reply.close {
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

/// The process's resident set size in KiB: the kernel's own `VmRSS`
/// line of `/proc/self/status`, read on every call; 0 where it is missing.
fn rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
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
    reply: Reply,
) -> io::Result<()> {
    let mut line = serde_json::to_string(body).expect("reply bodies always serialize");
    line.push('\n');
    write_response(writer, status, "application/json", line.as_bytes(), reply)
}

/// What an endpoint does.
#[derive(Debug, Clone, Copy)]
enum Handler {
    Submit,
    Status,
    Result,
    Stream,
    Health,
    Shutdown,
}

/// One endpoint of the service.
#[derive(Debug)]
pub struct Endpoint {
    /// The one method the endpoint accepts.
    pub method: &'static str,
    /// The path; a trailing `<job>` stands for whatever follows its prefix.
    pub path: &'static str,
    /// What the endpoint does, in one line.
    pub doc: &'static str,
    handler: Handler,
}

/// Every endpoint, in `docs/SERVE.md`'s order.
pub const ENDPOINTS: &[Endpoint] = &[
    Endpoint {
        method: "POST",
        path: "/submit",
        doc: "body = SimSpec JSON -> job id (= spec hash); a known spec joins its existing job",
        handler: Handler::Submit,
    },
    Endpoint {
        method: "GET",
        path: "/status/<job>",
        doc: "lifecycle state as JSON",
        handler: Handler::Status,
    },
    Endpoint {
        method: "GET",
        path: "/result/<job>",
        doc: "blocks until done, then the run.csv bytes",
        handler: Handler::Result,
    },
    Endpoint {
        method: "GET",
        path: "/stream/<job>",
        doc: "chunked per-epoch metric rows, live while the job runs",
        handler: Handler::Stream,
    },
    Endpoint {
        method: "GET",
        path: "/health",
        doc: "queue/cache/job counters and the daemon's RSS as JSON",
        handler: Handler::Health,
    },
    Endpoint {
        method: "POST",
        path: "/shutdown",
        doc: "begin graceful drain; the accept loop exits once quiet",
        handler: Handler::Shutdown,
    },
];

/// A request's endpoint and, on a `<job>` path, the parsed job id.
struct Route {
    endpoint: &'static Endpoint,
    job: Option<SpecHash>,
}

/// Why a request has no route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refusal {
    /// 404: no endpoint has the path.
    NoSuchEndpoint,
    /// 404: the `<job>` segment is no retained job's id.
    NoSuchJob,
    /// 405: an endpoint has the path, but not the method.
    MethodNotAllowed,
}

impl Route {
    /// The path decides 404, then the method 405, then the job id 404.
    fn parse(method: &str, target: &str) -> Result<Self, Refusal> {
        let mut refusal = Refusal::NoSuchEndpoint;
        for endpoint in ENDPOINTS {
            let id = match endpoint.path.strip_suffix("<job>") {
                Some(prefix) => target.strip_prefix(prefix).map(Some),
                None => (endpoint.path == target).then_some(None),
            };
            let Some(id) = id else { continue };
            if endpoint.method != method {
                refusal = Refusal::MethodNotAllowed;
                continue;
            }
            let job = id.map(str::parse::<SpecHash>).transpose();
            let job = job.map_err(|_| Refusal::NoSuchJob)?;
            return Ok(Self { endpoint, job });
        }
        Err(refusal)
    }
}

/// Answers one request: its endpoint's handler, or its refusal.
fn route<W: Write>(
    request: &Request,
    writer: &mut W,
    scheduler: &Scheduler,
    shutdown: &AtomicBool,
    reply: Reply,
) -> io::Result<()> {
    let refuse = |writer: &mut W, refusal| {
        let target = &request.target;
        let (status, message) = match refusal {
            Refusal::NoSuchEndpoint => (404, format!("no such endpoint: {target}")),
            Refusal::NoSuchJob => (404, format!("no such job: {target}")),
            Refusal::MethodNotAllowed => {
                (405, format!("{target} does not support {}", request.method))
            }
        };
        write_json(writer, status, &error(message), reply)
    };
    let (handler, job) = match Route::parse(&request.method, &request.target) {
        Ok(Route { endpoint, job }) => (endpoint.handler, job.and_then(|id| scheduler.job(id))),
        Err(refusal) => return refuse(writer, refusal),
    };
    match (handler, job) {
        (Handler::Submit, _) => {
            let Ok(body) = std::str::from_utf8(&request.body) else {
                return write_json(writer, 400, &error("spec body is not UTF-8"), reply);
            };
            match scheduler.admit(body) {
                Ok((job, cached)) => write_json(writer, 200, &JobBody::new(&job, cached), reply),
                Err(e @ SubmitError::InvalidSpec(_)) => write_json(writer, 400, &error(e), reply),
                Err(e) => write_json(writer, 503, &error(e), reply),
            }
        }
        (Handler::Status, Some(job)) => write_json(writer, 200, &JobBody::new(&job, false), reply),
        (Handler::Result, Some(job)) => {
            let (status, message) = match job.wait_result(RESULT_TIMEOUT) {
                Some(Ok(result)) => {
                    return write_response(writer, 200, "text/csv", &result.csv, reply)
                }
                Some(Err(message)) => (500, format!("job {} failed: {message}", job.hash)),
                None => (503, format!("job {} still pending", job.hash)),
            };
            write_json(writer, status, &error(message), reply)
        }
        // No endpoint takes `HEAD`, so a stream never answers one.
        (Handler::Stream, Some(job)) => stream_rows(writer, &job, reply.close),
        // A well-formed id whose job is evicted or never existed.
        (Handler::Status | Handler::Result | Handler::Stream, None) => {
            refuse(writer, Refusal::NoSuchJob)
        }
        (Handler::Health, _) => {
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
            write_json(writer, 200, &body, reply)
        }
        (Handler::Shutdown, _) => {
            let body = StatusBody { status: "draining" };
            let reply = Reply {
                close: true,
                ..reply
            };
            write_json(writer, 200, &body, reply)?;
            shutdown.store(true, Ordering::Relaxed);
            Ok(())
        }
    }
}

/// Streams the job's epoch rows as a chunked CSV: the header first, then
/// every row as the job records it, ending exactly when the job is done
/// or failed. A finished job replays its rows.
fn stream_rows<W: Write>(writer: &mut W, job: &Job, close: bool) -> io::Result<()> {
    let mut chunked = ChunkedWriter::start(writer, "text/csv", close)?;
    chunked.write_chunk(format!("{}\n", stream_header()).as_bytes())?;
    let mut offset = 0;
    loop {
        let (rows, finished) = job.wait_rows(offset, POLL_TICK);
        offset += rows.len();
        let chunk: String = rows.iter().flat_map(|row| [row, "\n"]).collect();
        chunked.write_chunk(chunk.as_bytes())?;
        if finished {
            return chunked.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A route as `(path, job)`, or its refusal.
    fn parse(method: &str, target: &str) -> Result<(&'static str, Option<String>), Refusal> {
        Route::parse(method, target)
            .map(|route| (route.endpoint.path, route.job.map(|id| id.to_string())))
    }

    #[test]
    fn the_path_decides_404_then_the_method_405_then_the_id_404() {
        const ID: &str = "62f0e9be5dc00c86";
        for endpoint in ENDPOINTS {
            let target = endpoint.path.replace("<job>", ID);
            let job = endpoint.path.ends_with("<job>").then(|| ID.to_string());
            assert_eq!(parse(endpoint.method, &target), Ok((endpoint.path, job)));
            assert_eq!(parse("HEAD", &target), Err(Refusal::MethodNotAllowed));
        }
        for target in ["/nope", "/status", "/submit/", "/health?x=1"] {
            assert_eq!(
                parse("GET", target),
                Err(Refusal::NoSuchEndpoint),
                "{target}"
            );
        }
        assert_eq!(parse("POST", "/status/a/b"), Err(Refusal::MethodNotAllowed));
        for target in ["/status/", "/status/a/b", "/stream/62F0E9BE5DC00C86"] {
            assert_eq!(parse("GET", target), Err(Refusal::NoSuchJob), "{target}");
        }
    }

    #[test]
    fn a_head_reply_has_no_body_so_the_next_reply_follows_it() {
        use crate::http::{read_body, read_headers, read_line};
        use std::io::{BufRead, Read};

        let server = Server::bind(&ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            ..ServeOptions::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let shutdown = server.shutdown_handle();
        let daemon = std::thread::spawn(move || server.run());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                b"HEAD /health HTTP/1.1\r\n\r\nGET /health HTTP/1.1\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        shutdown.shutdown();
        daemon.join().unwrap().unwrap();

        let mut reader = &raw[..];
        assert_eq!(
            read_line(&mut reader).unwrap(),
            "HTTP/1.1 405 Method Not Allowed"
        );
        read_headers(&mut reader).unwrap();
        assert_eq!(read_line(&mut reader).unwrap(), "HTTP/1.1 200 OK");
        let headers = read_headers(&mut reader).unwrap();
        let body = String::from_utf8(read_body(&mut reader, &headers).unwrap()).unwrap();
        assert!(
            serde_json::from_str::<serde::Value>(&body).is_ok(),
            "{body}"
        );
        assert!(reader.fill_buf().unwrap().is_empty());
    }

    #[test]
    fn serve_md_documents_every_endpoint_in_table_order() {
        // The endpoint sections of docs/SERVE.md: "### `METHOD /path`".
        let documented: Vec<&str> = include_str!("../../../docs/SERVE.md")
            .lines()
            .filter_map(|line| line.strip_prefix("### `")?.strip_suffix('`'))
            .collect();
        let table: Vec<String> = ENDPOINTS
            .iter()
            .map(|endpoint| format!("{} {}", endpoint.method, endpoint.path))
            .collect();
        assert_eq!(
            documented, table,
            "docs/SERVE.md endpoint headings (left) vs ENDPOINTS (right)"
        );
    }
}
