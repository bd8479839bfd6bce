//! Sustained-load contract: closed-loop clients drive a small hot set of
//! specs for a few seconds. Every exchange must succeed with the batch
//! path's exact bytes, and latency must not degrade across the window:
//! the p99 of the exchanges finishing in the last quarter may exceed the
//! first quarter's by at most 25% plus 2 ms.
//!
//! The latency bar is wall-clock, so the soak itself is `#[ignore]`d;
//! run it in release:
//!
//! ```sh
//! cargo test --release -p fairswap_serve --test soak -- --ignored
//! ```

mod common;

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use common::{batch_csv, TestServer};
use fairswap_serve::Client;

/// Concurrent closed-loop clients; each keeps at most one exchange in
/// flight.
const CLIENTS: usize = 2;
/// Wall-clock window; clients stop submitting once it elapses.
const WINDOW: Duration = Duration::from_secs(4);

/// Six small specs with distinct seeds: after each runs once, every
/// re-submission joins its finished job, so the soak measures service
/// overhead, not simulation scale.
fn hot_specs() -> Vec<String> {
    (1u64..=6)
        .map(|seed| {
            format!(
                "{{\"topology\": {{\"nodes\": 80, \"bits\": 16}}, \
                 \"workload\": {{\"files\": 8}}, \"seed\": {seed}}}"
            )
        })
        .collect()
}

/// One completed submit→result exchange, in microseconds.
struct Sample {
    /// Completion time, measured from the window's start.
    done_us: u64,
    /// End-to-end latency of the exchange.
    latency_us: u64,
}

/// One submit→result exchange; anything but the expected bytes is a
/// failure.
fn exchange(client: &mut Client, spec: &str, expected: &[u8]) -> Result<(), String> {
    let submitted = client
        .request("POST", "/submit", spec.as_bytes())
        .map_err(|e| format!("submit: {e}"))?;
    if submitted.status != 200 {
        return Err(format!("submit returned {}", submitted.status));
    }
    let job = submitted
        .json_str("job")
        .ok_or("submit response had no job id")?;
    let result = client
        .request("GET", &format!("/result/{job}"), b"")
        .map_err(|e| format!("result: {e}"))?;
    if result.status != 200 {
        return Err(format!("result returned {}", result.status));
    }
    if result.body != expected {
        return Err("result differs from the batch CSV".to_string());
    }
    Ok(())
}

/// One client's closed loop: submit, await the result, record, repeat
/// until the window closes. Clients start at different specs.
fn client_loop(
    addr: SocketAddr,
    index: usize,
    start: Instant,
    specs: &[(String, Vec<u8>)],
) -> (Vec<Sample>, Vec<String>) {
    let mut client = Client::new(addr);
    let mut samples = Vec::new();
    let mut failures = Vec::new();
    let mut iteration = 0;
    while start.elapsed() < WINDOW {
        let (spec, expected) = &specs[(index + iteration) % specs.len()];
        iteration += 1;
        let begun = Instant::now();
        match exchange(&mut client, spec, expected) {
            Ok(()) => samples.push(Sample {
                done_us: start.elapsed().as_micros() as u64,
                latency_us: begun.elapsed().as_micros() as u64,
            }),
            Err(e) => failures.push(e),
        }
    }
    (samples, failures)
}

/// Nearest-rank percentile of an ascending-sorted slice (0 when empty).
fn percentile_of_sorted(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// p99 latency of the samples completing in time-quartile `quartile`
/// (0..4) of a `wall_us`-long window.
fn quartile_p99_us(samples: &[Sample], wall_us: u64, quartile: u64) -> u64 {
    let lo = wall_us * quartile / 4;
    let hi = wall_us * (quartile + 1) / 4;
    let mut latencies: Vec<u64> = samples
        .iter()
        .filter(|s| s.done_us >= lo && s.done_us < hi)
        .map(|s| s.latency_us)
        .collect();
    latencies.sort_unstable();
    percentile_of_sorted(&latencies, 99.0)
}

#[test]
#[ignore = "wall-clock soak; run in release with --ignored"]
fn closed_loop_soak_stays_exact_and_does_not_degrade() {
    let specs: Vec<(String, Vec<u8>)> = hot_specs()
        .into_iter()
        .map(|json| {
            let expected = batch_csv(&json);
            (json, expected)
        })
        .collect();
    let server = TestServer::start(2, 64);
    let addr = server.addr;

    let start = Instant::now();
    let per_client: Vec<(Vec<Sample>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|index| {
                let specs = &specs;
                scope.spawn(move || client_loop(addr, index, start, specs))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("soak client panicked"))
            .collect()
    });
    let wall_us = start.elapsed().as_micros() as u64;
    server.stop();

    let mut samples = Vec::new();
    let mut failures = Vec::new();
    for (client_samples, client_failures) in per_client {
        samples.extend(client_samples);
        failures.extend(client_failures);
    }
    assert!(
        failures.is_empty(),
        "{} failed exchanges, first: {}",
        failures.len(),
        failures[0]
    );

    let first = quartile_p99_us(&samples, wall_us, 0);
    let last = quartile_p99_us(&samples, wall_us, 3);
    assert!(first > 0 && last > 0, "a quartile completed no exchange");
    let ceiling = first as f64 * 1.25 + 2000.0;
    eprintln!(
        "soak: {} exchanges in {:.2} s, p99 first quartile {first} us, last {last} us",
        samples.len(),
        wall_us as f64 / 1e6
    );
    assert!(
        last as f64 <= ceiling,
        "last-quartile p99 {last} us exceeds 1.25 x first ({first} us) + 2 ms"
    );
}

#[test]
fn percentile_is_nearest_rank() {
    let sorted: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile_of_sorted(&sorted, 50.0), 50);
    assert_eq!(percentile_of_sorted(&sorted, 95.0), 95);
    assert_eq!(percentile_of_sorted(&sorted, 99.0), 99);
    assert_eq!(percentile_of_sorted(&sorted, 100.0), 100);
    assert_eq!(percentile_of_sorted(&[7], 99.0), 7);
    assert_eq!(percentile_of_sorted(&[], 99.0), 0);
}

#[test]
fn quartiles_split_the_window_by_completion_time() {
    let samples: Vec<Sample> = [
        (500_000, 10),
        (1_500_000, 20),
        (2_500_000, 30),
        (3_500_000, 40),
    ]
    .into_iter()
    .map(|(done_us, latency_us)| Sample {
        done_us,
        latency_us,
    })
    .collect();
    assert_eq!(quartile_p99_us(&samples, 4_000_000, 0), 10);
    assert_eq!(quartile_p99_us(&samples, 4_000_000, 1), 20);
    assert_eq!(quartile_p99_us(&samples, 4_000_000, 3), 40);
    assert_eq!(quartile_p99_us(&samples, 8_000_000, 3), 0);
}
