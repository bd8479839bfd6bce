//! Concurrency-determinism contract: N parallel clients submitting a
//! mix of identical and differing specs all receive exactly the bytes
//! the batch path produces, identical specs share one job, and streamed
//! rows arrive uncorrupted.

mod common;

use common::{batch_csv, TestServer};
use fairswap_serve::{stream_header, Client, StreamRow, ENDPOINTS};
use serde::Serialize;

/// Three small, distinct specs. Formatting varies deliberately — jobs
/// are keyed by the canonical JSON's hash, so whitespace must not matter.
fn specs() -> Vec<String> {
    vec![
        r#"{"topology": {"nodes": 80, "bits": 16}, "workload": {"files": 8}, "seed": 11}"#.into(),
        "{\"topology\":{\"nodes\":80,\"bits\":16},\"workload\":{\"files\":8},\"seed\":12}".into(),
        r#"{
            "topology": { "nodes": 100, "bits": 16 },
            "workload": { "files": 10 },
            "seed": 13
        }"#
        .into(),
    ]
}

#[test]
fn concurrent_clients_get_batch_identical_results() {
    let documents = specs();
    let expected: Vec<Vec<u8>> = documents.iter().map(|json| batch_csv(json)).collect();
    let server = TestServer::start(3, 16);
    let addr = server.addr;

    // Serial warm-up: every distinct spec misses once and runs.
    let mut warmup = Client::new(addr);
    let mut first_jobs = Vec::new();
    for (json, want) in documents.iter().zip(&expected) {
        let submitted = warmup
            .request("POST", "/submit", json.as_bytes())
            .expect("submit");
        assert_eq!(submitted.status, 200, "{}", submitted.text());
        assert_eq!(submitted.json_bool("cached"), Some(false));
        let job = submitted.json_str("job").expect("job id");
        let result = warmup
            .request("GET", &format!("/result/{job}"), b"")
            .expect("result");
        assert_eq!(result.status, 200, "{}", result.text());
        assert_eq!(result.body, *want, "HTTP result differs from batch CSV");
        first_jobs.push(job);
    }

    // Concurrent phase: six clients each submit every spec again. All
    // join the finished jobs and every byte must still match the batch
    // path.
    std::thread::scope(|scope| {
        for client_index in 0..6 {
            let documents = &documents;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::new(addr);
                // Stagger the order per client so identical and
                // differing specs interleave on the wire.
                for offset in 0..documents.len() {
                    let index = (client_index + offset) % documents.len();
                    let submitted = client
                        .request("POST", "/submit", documents[index].as_bytes())
                        .expect("submit");
                    assert_eq!(submitted.status, 200, "{}", submitted.text());
                    assert_eq!(submitted.json_bool("cached"), Some(true));
                    let job = submitted.json_str("job").expect("job id");
                    assert_eq!(submitted.json_str("spec").as_ref(), Some(&job));
                    let result = client
                        .request("GET", &format!("/result/{job}"), b"")
                        .expect("result");
                    assert_eq!(result.body, expected[index]);
                }
            });
        }
    });

    // Cache accounting: 3 misses from the warm-up, 6 x 3 hits after.
    let mut probe = Client::new(addr);
    let health = probe.request("GET", "/health", b"").expect("health");
    assert_eq!(health.status, 200);
    let text = health.text();
    assert!(text.contains("\"hits\":18"), "{text}");
    assert!(text.contains("\"misses\":3"), "{text}");

    // Streaming: a resubmit names the original job, whose finished run
    // replays the same bytes on every read, and every row is a
    // well-formed record as wide as `StreamRow`.
    let resubmit = probe
        .request("POST", "/submit", documents[0].as_bytes())
        .expect("submit");
    assert_eq!(resubmit.json_str("job").as_ref(), Some(&first_jobs[0]));
    let original = probe
        .request("GET", &format!("/stream/{}", first_jobs[0]), b"")
        .expect("stream");
    let replay = probe
        .request("GET", &format!("/stream/{}", first_jobs[0]), b"")
        .expect("stream");
    assert_eq!(original.body, replay.body, "replay altered the stream");
    let text = original.text();
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some(stream_header().as_str()));
    let mut rows = 0;
    let mut last_epoch = 0u64;
    for line in lines {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(
            fields.len(),
            StreamRow::field_names().len(),
            "corrupt row: {line}"
        );
        let epoch: u64 = fields[0].parse().expect("numeric epoch");
        assert!(epoch >= last_epoch, "epochs went backwards: {line}");
        last_epoch = epoch;
        rows += 1;
    }
    assert!(rows > 0, "no epoch rows streamed");

    let summary = server.stop();
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.jobs, 3);
}

#[test]
fn shutdown_drains_queued_jobs() {
    let server = TestServer::start(2, 16);
    let mut client = Client::new(server.addr);
    let mut jobs = Vec::new();
    // Three rounds of three specs: each spec runs once, and its repeats
    // join that job whatever state it is in.
    for _ in 0..3 {
        for json in specs() {
            let submitted = client
                .request("POST", "/submit", json.as_bytes())
                .expect("submit");
            assert_eq!(submitted.status, 200, "{}", submitted.text());
            jobs.push(submitted.json_str("job").expect("job id"));
        }
    }
    // Drain without waiting for any result: every accepted job must
    // still complete (never be dropped), and nothing may fail.
    let summary = server.stop();
    jobs.sort();
    jobs.dedup();
    assert_eq!(jobs.len(), 3);
    assert_eq!(summary.jobs, 3);
    assert_eq!(summary.completed, 3);
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.cache.hits, 6);
}

#[test]
fn evicted_jobs_answer_404_and_their_specs_run_again() {
    let documents: Vec<String> = (21..25)
        .map(|seed| {
            format!(r#"{{"topology": {{"nodes": 80, "bits": 16}}, "workload": {{"files": 8}}, "seed": {seed}}}"#)
        })
        .collect();
    let server = TestServer::start(1, 2);
    let mut client = Client::new(server.addr);
    let mut jobs = Vec::new();
    for json in &documents {
        let submitted = client
            .request("POST", "/submit", json.as_bytes())
            .expect("submit");
        let job = submitted.json_str("job").expect("job id");
        let result = client
            .request("GET", &format!("/result/{job}"), b"")
            .expect("result");
        assert_eq!(result.body, batch_csv(json));
        jobs.push(job);
    }
    // Cap 2: the two least recently finished jobs are gone.
    for (index, job) in jobs.iter().enumerate() {
        for endpoint in ["status", "result", "stream"] {
            let response = client
                .request("GET", &format!("/{endpoint}/{job}"), b"")
                .expect("request");
            let want = if index < 2 { 404 } else { 200 };
            assert_eq!(response.status, want, "/{endpoint}/{job}");
        }
    }
    let health = client
        .request("GET", "/health", b"")
        .expect("health")
        .text();
    assert!(health.contains("\"entries\":2,"), "{health}");
    assert!(health.contains("\"evictions\":2}"), "{health}");

    // Resubmitting an evicted spec creates its job again.
    let again = client
        .request("POST", "/submit", documents[0].as_bytes())
        .expect("submit");
    assert_eq!(again.json_bool("cached"), Some(false));
    assert_eq!(again.json_str("job").as_ref(), Some(&jobs[0]));
    let result = client
        .request("GET", &format!("/result/{}", jobs[0]), b"")
        .expect("result");
    assert_eq!(result.body, batch_csv(&documents[0]));

    let summary = server.stop();
    assert_eq!(summary.jobs, 5);
    assert_eq!(summary.completed, 5);
    assert_eq!(summary.cache.evictions, 3);
}

#[test]
fn invalid_and_unknown_requests_get_structured_errors() {
    let server = TestServer::start(1, 4);
    let mut client = Client::new(server.addr);

    let bad_spec = client
        .request("POST", "/submit", b"{\"topology\": {\"nodes\": 0}}")
        .expect("submit");
    assert_eq!(bad_spec.status, 400);
    assert!(bad_spec.text().contains("\"error\""), "{}", bad_spec.text());

    let not_json = client
        .request("POST", "/submit", b"not json at all")
        .expect("submit");
    assert_eq!(not_json.status, 400);

    for target in ["/result/9999", "/result/0123456789abcdef"] {
        let missing = client.request("GET", target, b"").expect("result");
        assert_eq!(missing.status, 404, "{target}");
    }

    for (target, message) in [
        ("/nope", "no such endpoint: /nope"),
        ("/status", "no such endpoint: /status"),
        ("/status/", "no such job: /status/"),
        ("/status/a/b", "no such job: /status/a/b"),
    ] {
        let unknown = client.request("GET", target, b"").expect("request");
        assert_eq!(unknown.status, 404, "{target}");
        assert_eq!(unknown.json_str("error").as_deref(), Some(message));
    }

    // Every endpoint path, with a well-formed id where it takes one,
    // refuses every method but its own with 405. None of these run a
    // handler, so the unknown id is never looked up.
    for endpoint in ENDPOINTS {
        let target = endpoint.path.replace("<job>", "0123456789abcdef");
        for method in ["GET", "POST", "PUT", "DELETE"] {
            if method == endpoint.method {
                continue;
            }
            let refused = client.request(method, &target, b"").expect("request");
            assert_eq!(refused.status, 405, "{method} {target}");
            let message = format!("{target} does not support {method}");
            assert_eq!(refused.json_str("error"), Some(message));
        }
    }

    let summary = server.stop();
    assert_eq!(summary.jobs, 0);
    assert_eq!(summary.rejected, 0);
}

#[test]
fn health_reports_the_daemons_resident_memory() {
    let server = TestServer::start(1, 4);
    let mut client = Client::new(server.addr);
    let health = client.request("GET", "/health", b"").expect("health");
    assert_eq!(health.status, 200);
    let text = health.text();
    let rss_kb = health.json_u64("rss_kb").expect("rss_kb key");
    // The last top-level key: nothing follows its value but the close.
    assert!(
        text.trim_end()
            .ends_with(&format!(",\"rss_kb\":{rss_kb}}}")),
        "{text}"
    );
    if cfg!(target_os = "linux") {
        assert!(rss_kb > 0, "{text}");
        // The server runs in this process: its reading must agree with
        // the kernel's `VmRSS`, in KiB, up to the drift between reads.
        let status = std::fs::read_to_string("/proc/self/status").expect("status");
        let vm_rss: u64 = status
            .lines()
            .find_map(|line| line.strip_prefix("VmRSS:"))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            .expect("VmRSS line");
        assert!(
            rss_kb * 2 > vm_rss && rss_kb < vm_rss * 2,
            "rss_kb {rss_kb} vs VmRSS {vm_rss} kB"
        );
    }
    server.stop();
}

#[test]
fn engine_crashing_economics_are_rejected_and_later_jobs_still_run() {
    // Each of these used to pass `/submit` and then panic a scheduler
    // thread mid-run, wedging every later job and the shutdown.
    let crashing = [
        r#"{"topology": {"nodes": 80}, "workload": {"files": 8}, "economics": {"channel": {"payment_threshold": 0, "disconnect_threshold": 0, "refresh_rate": 0}}}"#,
        r#"{"topology": {"nodes": 80}, "workload": {"files": 8}, "economics": {"pricing": {"Flat": {"price": -5}}}}"#,
        r#"{"topology": {"nodes": 80}, "workload": {"files": 8}, "economics": {"pricing": {"Proximity": {"base": -3}}}}"#,
    ];
    let server = TestServer::start(1, 4);
    let mut client = Client::new(server.addr);
    for (json, field) in crashing.iter().zip([
        "economics.channel.disconnect_threshold",
        "economics.pricing.Flat.price",
        "economics.pricing.Proximity.base",
    ]) {
        let rejected = client
            .request("POST", "/submit", json.as_bytes())
            .expect("submit");
        assert_eq!(rejected.status, 400, "{}", rejected.text());
        assert!(rejected.text().contains(field), "{}", rejected.text());
    }

    let valid = &specs()[0];
    let submitted = client
        .request("POST", "/submit", valid.as_bytes())
        .expect("submit");
    assert_eq!(submitted.status, 200, "{}", submitted.text());
    let job = submitted.json_str("job").expect("job id");
    let result = client
        .request("GET", &format!("/result/{job}"), b"")
        .expect("result");
    assert_eq!(result.status, 200, "{}", result.text());
    assert_eq!(result.body, batch_csv(valid));

    let summary = server.stop();
    assert_eq!(summary.jobs, 1);
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.failed, 0);
}

#[test]
fn hostile_targets_get_json_error_bodies() {
    let server = TestServer::start(1, 4);
    let mut client = Client::new(server.addr);

    // Quotes and backslashes in the target are echoed in the message, so
    // the body only parses if the service escapes them.
    for target in [
        "/status/1\"x",
        "/result/7\\u0041",
        "/stream/\\\"",
        "/no\"such\\endpoint",
    ] {
        let response = client.request("GET", target, b"").expect("request");
        assert_eq!(response.status, 404, "{target}");
        let message = response
            .json_str("error")
            .unwrap_or_else(|| panic!("{target}: body is not a JSON error: {}", response.text()));
        assert!(message.contains(target), "{target}: {message}");
    }

    server.stop();
}
