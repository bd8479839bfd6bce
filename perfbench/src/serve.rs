//! The `serve_mixed` workload: a `fairswap serve` daemon with default
//! options, driven closed loop by two keep-alive clients (callers wait for
//! each reply) over a fixed submission schedule drawn from the seed.
//!
//! Most submissions repeat a small hot set of specs (cache hits: the
//! admission path only). About one in twenty is a fresh small spec shaped
//! like `paper_static` or `churn_repair` (a miss that runs the engine).
//! Fresh specs outnumber the report cache, so evictions happen beside the
//! hits. A miss takes a few hundred hits' time, so the other client's
//! next miss usually queues behind it: the scheduler's single runner is
//! the bottleneck, and a miss's latency is its queue wait plus its run.
//! Every `/result` body is compared with the batch bytes of its spec,
//! computed in-process before the server starts.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::{Duration, Instant};

use fairswap_core::{run_summary_csv, BucketSizing, ChurnConfig, RepairPolicy, SimSpec};
use fairswap_serve::client::read_response;
use fairswap_serve::{Client, Scheduler, SchedulerOptions, ServeOptions, ServeSummary, Server};

use crate::stats::{median, peak_rss_kb, percentile, reset_peak_rss, rss_kb};
use crate::trace::Tracer;
use crate::{Layers, Outcome};

/// Closed-loop clients (one per vCPU of the reference host).
const CLIENTS: usize = 2;
/// Specs the hot set repeats.
const HOT_SPECS: usize = 8;
/// About one submission in this many is a fresh spec.
const MISS_EVERY: u64 = 20;
/// Schedule length per second of `--seconds`.
const SUBMISSIONS_PER_SECOND: usize = 800;
/// Server set-ups timed for `setup_s`.
const SETUP_REPS: usize = 30;
/// Window over which `results_per_s` counts completions.
const WINDOW_S: f64 = 1.0;
/// Direct `Scheduler::submit` calls timed for `serve.admit_us`.
const ADMIT_PROBES: usize = 2000;

/// SplitMix64: the schedule's random stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Spec shapes: `paper_static`-like or `churn_repair`-like, each with
/// k = 4 or k = 20.
const SHAPES: usize = 4;

/// A small spec of one of the [`SHAPES`].
fn small_spec(seed: u64, shape: usize) -> SimSpec {
    let mut spec = SimSpec::paper_defaults();
    spec.seed = seed;
    spec.topology.nodes = 300;
    spec.topology.bucket_sizing = BucketSizing::uniform([4, 20][shape / 2 % 2]);
    spec.workload.files = 16;
    if shape % 2 == 1 {
        spec.dynamics.churn = Some(ChurnConfig::from_rate(0.05).expect("valid rate"));
        spec.policies.repair = RepairPolicy::ReReplicate {
            neighborhood_bits: 8,
        };
        spec.policies.max_retries = 2;
    }
    spec
}

/// The fixed submission schedule: distinct spec bodies (hot set first)
/// and, per submission, the index of the spec it sends.
struct Schedule {
    bodies: Vec<String>,
    submissions: Vec<usize>,
}

impl Schedule {
    fn new(seed: u64, count: usize) -> Self {
        let mut rng = Rng(seed ^ 0x5e4e_d0c5);
        // Spec seeds: hot specs at `base + i`, fresh ones past them.
        let base = seed << 24;
        let body = |spec: SimSpec| spec.to_json().expect("specs serialize");
        let mut bodies: Vec<String> = (0..HOT_SPECS)
            .map(|i| body(small_spec(base.wrapping_add(i as u64), i)))
            .collect();
        let mut fresh = 0;
        let submissions = (0..count)
            .map(|n| {
                if rng.next().is_multiple_of(MISS_EVERY) {
                    // Fresh specs cycle through the four shapes.
                    let seed = base.wrapping_add(HOT_SPECS as u64 + n as u64);
                    bodies.push(body(small_spec(seed, fresh)));
                    fresh += 1;
                    bodies.len() - 1
                } else {
                    rng.next() as usize % HOT_SPECS
                }
            })
            .collect();
        Self {
            bodies,
            submissions,
        }
    }

    fn is_miss(&self, n: usize) -> bool {
        self.submissions[n] >= HOT_SPECS
    }
}

/// Batch bytes of every distinct spec, with the engine's timings.
struct References {
    csv: Vec<Vec<u8>>,
    build_s: f64,
    csv_s: f64,
    /// Chunks routed per second of `BandwidthSim::run`, per group of
    /// [`SHAPES`] consecutive specs (one of each shape).
    group_rates: Vec<f64>,
}

fn references(schedule: &Schedule) -> References {
    let mut refs = References {
        csv: Vec::with_capacity(schedule.bodies.len()),
        build_s: 0.0,
        csv_s: 0.0,
        group_rates: Vec::new(),
    };
    for group in schedule.bodies.chunks(SHAPES) {
        let (mut chunks, mut run_s) = (0u64, 0.0);
        for body in group {
            let spec = SimSpec::from_json(body).expect("schedule specs parse");
            let t0 = Instant::now();
            let sim = spec.build().expect("schedule specs are valid");
            let t1 = Instant::now();
            let report = sim.run();
            let t2 = Instant::now();
            let csv = run_summary_csv(&spec.to_config(), &report).to_csv_string();
            refs.build_s += (t1 - t0).as_secs_f64();
            refs.csv_s += t2.elapsed().as_secs_f64();
            run_s += (t2 - t1).as_secs_f64();
            let traffic = report.traffic();
            chunks += traffic.requests_issued().iter().sum::<u64>() + traffic.repair_transfers();
            refs.csv.push(csv.into_bytes());
        }
        if group.len() == SHAPES {
            refs.group_rates.push(chunks as f64 / run_s);
        }
    }
    refs
}

/// A keep-alive client whose reads give up well inside a run's time limit.
fn client(addr: SocketAddr) -> Client {
    Client::with_timeout(addr, Duration::from_secs(60))
}

fn options() -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        ..ServeOptions::default()
    }
}

/// One timed set-up: from `Server::bind` until the first `/health`
/// answers 200. The request is queued on the socket before the accept
/// loop starts, so the loop's idle poll never enters the timing.
fn setup_once() -> Option<f64> {
    let start = Instant::now();
    let server = Server::bind(&options()).ok()?;
    let addr = server.local_addr().ok()?;
    let shutdown = server.shutdown_handle();
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .write_all(b"GET /health HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n")
        .ok()?;
    let runner = std::thread::spawn(move || server.run());
    let response = read_response(&mut BufReader::new(stream));
    let elapsed = start.elapsed().as_secs_f64();
    shutdown.shutdown();
    let served = runner.join().ok().and_then(Result::ok).is_some();
    (served && response.ok()?.status == 200).then_some(elapsed)
}

/// One submit→`/result` exchange as a client saw it.
struct Exchange {
    n: usize,
    ok: bool,
    start: Instant,
    submitted: Instant,
    end: Instant,
}

impl Exchange {
    fn submit_s(&self) -> f64 {
        (self.submitted - self.start).as_secs_f64()
    }

    fn result_s(&self) -> f64 {
        (self.end - self.submitted).as_secs_f64()
    }

    fn latency_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

fn exchange(client: &mut Client, n: usize, body: &str, expected: &[u8]) -> Exchange {
    let start = Instant::now();
    let job = client
        .request("POST", "/submit", body.as_bytes())
        .ok()
        .filter(|r| r.status == 200)
        .and_then(|r| r.json_str("job"));
    let submitted = Instant::now();
    let ok = job.is_some_and(|job| {
        client
            .request("GET", &format!("/result/{job}"), b"")
            .is_ok_and(|r| r.status == 200 && r.body == expected)
    });
    Exchange {
        n,
        ok,
        start,
        submitted,
        end: Instant::now(),
    }
}

/// The exchanges of one pass over part of the schedule.
struct Load {
    exchanges: Vec<Exchange>,
    start: Instant,
    wall: f64,
}

impl Load {
    /// Completed exchanges per second: the median over the pass's whole
    /// [`WINDOW_S`] windows of the exchanges completed in each, so a
    /// stall of the host moves one window, not the figure. Passes too
    /// short for three windows report completions over wall time.
    fn results_per_s(&self) -> f64 {
        let windows = (self.wall / WINDOW_S) as usize;
        let ok = self.exchanges.iter().filter(|e| e.ok);
        if windows < 3 {
            return ok.count() as f64 / self.wall;
        }
        let mut counts = vec![0u64; windows];
        for e in ok {
            let window = ((e.end - self.start).as_secs_f64() / WINDOW_S) as usize;
            if let Some(count) = counts.get_mut(window) {
                *count += 1;
            }
        }
        let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / WINDOW_S).collect();
        median(&rates)
    }

    /// Exchange latencies; a failed exchange misses every latency limit,
    /// so it counts as the whole pass's wall time.
    fn latencies_ms(&self) -> Vec<f64> {
        self.exchanges
            .iter()
            .map(|e| 1000.0 * if e.ok { e.latency_s() } else { self.wall })
            .collect()
    }

    fn failures(&self) -> u64 {
        self.exchanges.iter().filter(|e| !e.ok).count() as u64
    }
}

/// Drives `range` of the schedule with [`CLIENTS`] closed-loop clients;
/// client `c` sends the submissions at offsets `c, c + CLIENTS, ...`.
/// With a tracer, each exchange is a `serve.exchange` span (id = the
/// submission's index) with `serve.submit` and `serve.result` children.
fn drive(
    addr: SocketAddr,
    schedule: &Schedule,
    refs: &References,
    range: Range<usize>,
    tracer: Option<&mut Tracer>,
) -> Load {
    let origin = tracer.as_ref().map(|t| t.origin());
    let start = Instant::now();
    let per_client: Vec<(Vec<Exchange>, Option<Tracer>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let range = range.clone();
                scope.spawn(move || {
                    let mut client = client(addr);
                    let mut spans = origin.map(Tracer::new);
                    let exchanges = range
                        .skip(c)
                        .step_by(CLIENTS)
                        .map(|n| {
                            let spec = schedule.submissions[n];
                            let e =
                                exchange(&mut client, n, &schedule.bodies[spec], &refs.csv[spec]);
                            if let Some(spans) = spans.as_mut() {
                                let (t0, t1, t2) =
                                    (spans.at(e.start), spans.at(e.submitted), spans.at(e.end));
                                let id = n as u64;
                                let parent = spans.record("serve.exchange", id, t0, t2);
                                spans.record_under(Some(parent), "serve.submit", id, t0, t1);
                                spans.record_under(Some(parent), "serve.result", id, t1, t2);
                            }
                            e
                        })
                        .collect();
                    (exchanges, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut exchanges = Vec::new();
    let mut tracer = tracer;
    for (client_exchanges, spans) in per_client {
        exchanges.extend(client_exchanges);
        if let (Some(tracer), Some(spans)) = (tracer.as_deref_mut(), spans) {
            tracer.absorb(spans);
        }
    }
    Load {
        exchanges,
        start,
        wall,
    }
}

/// A running load server.
struct Running {
    addr: SocketAddr,
    shutdown: fairswap_serve::ShutdownHandle,
    runner: std::thread::JoinHandle<std::io::Result<ServeSummary>>,
}

impl Running {
    fn start() -> std::io::Result<Self> {
        let server = Server::bind(&options())?;
        let addr = server.local_addr()?;
        let shutdown = server.shutdown_handle();
        let runner = std::thread::spawn(move || server.run());
        Ok(Self {
            addr,
            shutdown,
            runner,
        })
    }

    /// Fills the report cache with the hot set; returns failed exchanges.
    fn warm(&self, schedule: &Schedule, refs: &References) -> u64 {
        let mut client = client(self.addr);
        (0..HOT_SPECS)
            .filter(|&i| !exchange(&mut client, i, &schedule.bodies[i], &refs.csv[i]).ok)
            .count() as u64
    }

    fn stop(self) -> Option<ServeSummary> {
        self.shutdown.shutdown();
        self.runner.join().ok()?.ok()
    }
}

/// The untraced run: every end-to-end metric.
pub fn measure(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let setups: Vec<f64> = (0..SETUP_REPS).filter_map(|_| setup_once()).collect();
    let setup_failed = (SETUP_REPS - setups.len()) as u64;

    let count = schedule_len(seconds);
    let schedule = Schedule::new(seed, count);
    let refs = references(&schedule);

    let server = Running::start().map_err(|e| format!("cannot start the server: {e}"))?;
    let warm_failed = server.warm(&schedule, &refs);
    reset_peak_rss();
    let load = drive(server.addr, &schedule, &refs, 0..count, None);
    let peak_kb = peak_rss_kb();
    let summary = server
        .stop()
        .ok_or("the server did not shut down cleanly")?;

    let latencies = load.latencies_ms();
    eprintln!(
        "serve_mixed: {count} exchanges in {:.2} s ({} fresh specs), {} latency samples, \
         cache hits {} misses {} evictions {}, {} set-ups, {} engine-rate groups",
        load.wall,
        schedule.bodies.len() - HOT_SPECS,
        latencies.len(),
        summary.cache.hits,
        summary.cache.misses,
        summary.cache.evictions,
        setups.len(),
        refs.group_rates.len(),
    );
    let mut outcome = Outcome::new(
        (SETUP_REPS + HOT_SPECS + count) as u64,
        setup_failed + warm_failed + load.failures(),
    );
    outcome.metric("setup_s", median(&setups), "s");
    outcome.metric("chunks_per_s", median(&refs.group_rates), "1/s");
    outcome.metric("peak_rss_mb", peak_kb as f64 / 1024.0, "MB");
    outcome.metric("results_per_s", load.results_per_s(), "1/s");
    outcome.metric("result_p50_ms", percentile(&latencies, 50.0), "ms");
    Ok(outcome)
}

fn schedule_len(seconds: f64) -> usize {
    SUBMISSIONS_PER_SECOND * seconds.ceil().max(1.0) as usize
}

/// Median wall time of `Scheduler::submit` for cache hits, in µs, on a
/// scheduler of its own, and the number of probes it refused.
fn admit_us(schedule: &Schedule) -> (f64, u64) {
    let scheduler = Scheduler::start(SchedulerOptions::default());
    for body in &schedule.bodies[..HOT_SPECS] {
        if let Ok(job) = scheduler.submit(body) {
            let _ = job.wait_result(Duration::from_secs(60));
        }
    }
    let mut refused = 0;
    let times: Vec<f64> = (0..ADMIT_PROBES)
        .map(|i| {
            let start = Instant::now();
            let admitted = scheduler.submit(&schedule.bodies[i % HOT_SPECS]).is_ok();
            refused += u64::from(!admitted);
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    scheduler.drain();
    (median(&times), refused)
}

/// The traced run: the schedule's first half untraced, its second half
/// traced, plus direct admission probes.
pub fn traced(seed: u64, seconds: f64, trace_path: &std::path::Path) -> Result<Outcome, String> {
    let count = schedule_len(seconds);
    let schedule = Schedule::new(seed, count);
    let refs = references(&schedule);
    let mut tracer = Tracer::new(Instant::now());

    let server = Running::start().map_err(|e| format!("cannot start the server: {e}"))?;
    let warm_failed = server.warm(&schedule, &refs);
    let half = count / 2;
    let rss_before = rss_kb();
    let plain = drive(server.addr, &schedule, &refs, 0..half, None);
    let rss_after = rss_kb();
    let traced = drive(
        server.addr,
        &schedule,
        &refs,
        half..count,
        Some(&mut tracer),
    );
    let summary = server
        .stop()
        .ok_or("the server did not shut down cleanly")?;
    let (admit, refused) = admit_us(&schedule);

    let submit_us: Vec<f64> = traced
        .exchanges
        .iter()
        .map(|e| e.submit_s() * 1e6)
        .collect();
    let miss_wait_ms: Vec<f64> = traced
        .exchanges
        .iter()
        .filter(|e| schedule.is_miss(e.n))
        .map(|e| e.result_s() * 1e3)
        .collect();
    let submit_p50 = percentile(&submit_us, 50.0);
    let cache = summary.cache;
    let timed_misses = cache.misses.saturating_sub(HOT_SPECS as u64);
    tracer
        .write_jsonl(trace_path)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;

    let mut outcome = Outcome::new(
        (HOT_SPECS + count + ADMIT_PROBES) as u64,
        warm_failed + plain.failures() + traced.failures() + refused,
    );
    let mut layers = Layers::default();
    layers.set("core.build_s", refs.build_s);
    layers.set("core.csv_s", refs.csv_s);
    layers.set("serve.submit_us_p50", submit_p50);
    layers.set("serve.submit_us_p99", percentile(&submit_us, 99.0));
    layers.set("serve.admit_us", admit);
    layers.set("serve.http_us", submit_p50 - admit);
    layers.set(
        "serve.result_p99_ms",
        percentile(&plain.latencies_ms(), 99.0),
    );
    layers.set("serve.result_wait_ms_p50", percentile(&miss_wait_ms, 50.0));
    layers.set("serve.result_wait_ms_p99", percentile(&miss_wait_ms, 99.0));
    layers.set(
        "serve.hit_ratio",
        cache.hits as f64 / (cache.hits + timed_misses).max(1) as f64,
    );
    layers.set("serve.evictions", cache.evictions as f64);
    layers.set(
        "serve.rss_kb_per_request",
        rss_after.saturating_sub(rss_before) as f64 / half.max(1) as f64,
    );
    layers.set(
        "trace.overhead",
        (traced.wall / (count - half) as f64) / (plain.wall / half.max(1) as f64),
    );
    let covered: f64 = traced.exchanges.iter().map(Exchange::latency_s).sum();
    layers.set("trace.coverage", covered / (CLIENTS as f64 * traced.wall));
    outcome.layers(layers);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = Schedule::new(7, 400);
        let b = Schedule::new(7, 400);
        assert_eq!(a.submissions, b.submissions);
        assert_eq!(a.bodies, b.bodies);
        assert_ne!(Schedule::new(8, 400).bodies, a.bodies);
        let misses = (0..400).filter(|&n| a.is_miss(n)).count();
        assert!((5..=40).contains(&misses), "{misses} misses");
        // Every fresh spec is distinct from the hot set and each other.
        let mut hashes: Vec<_> = a
            .bodies
            .iter()
            .map(|b| SimSpec::from_json(b).unwrap().content_hash().unwrap())
            .collect();
        hashes.sort();
        hashes.dedup();
        assert_eq!(hashes.len(), a.bodies.len());
    }

    #[test]
    fn a_server_set_up_answers_health() {
        assert!(setup_once().is_some());
    }
}
