//! Worker-count regression contract: `--workers 1` and `--workers 4`
//! must produce byte-identical results for the committed fuzz gallery
//! submitted as service jobs — and therefore identical fuzz-style
//! findings when the oracle is applied to the returned CSVs.

mod common;

use std::collections::BTreeMap;

use common::{batch_csv, TestServer};
use fairswap_core::experiments::fuzzed;
use fairswap_core::BucketSizing;
use fairswap_fuzz::oracle;
use fairswap_serve::Client;

/// The gallery replay as spec documents: each entry at its k = 4 and
/// k = 20 bucket sizing, in canonical JSON (what `fairswap fuzzed`
/// effectively runs, expressed as submittable jobs).
fn gallery_documents() -> Vec<(String, String)> {
    let mut documents = Vec::new();
    for (name, spec) in fuzzed::specs().expect("committed gallery parses") {
        for k in fuzzed::GALLERY_KS {
            let mut twin = spec.clone();
            twin.topology.bucket_sizing = BucketSizing::uniform(k);
            documents.push((
                format!("{name}/k{k}"),
                twin.to_json().expect("gallery spec serializes"),
            ));
        }
    }
    documents
}

/// Submits every document and collects the result bytes, via one
/// keep-alive client per call.
fn replay(addr: std::net::SocketAddr, documents: &[(String, String)]) -> BTreeMap<String, Vec<u8>> {
    let mut client = Client::new(addr);
    let mut jobs = Vec::new();
    for (label, json) in documents {
        let submitted = client
            .request("POST", "/submit", json.as_bytes())
            .expect("submit");
        assert_eq!(submitted.status, 200, "{label}: {}", submitted.text());
        jobs.push((label.clone(), submitted.json_str("job").expect("job id")));
    }
    jobs.into_iter()
        .map(|(label, job)| {
            let result = client
                .request("GET", &format!("/result/{job}"), b"")
                .expect("result");
            assert_eq!(result.status, 200, "{label}: {}", result.text());
            (label, result.body)
        })
        .collect()
}

/// Pulls one named column out of a single-row summary CSV.
fn csv_field(csv: &[u8], column: &str) -> f64 {
    let text = std::str::from_utf8(csv).expect("CSV is UTF-8");
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let row: Vec<&str> = lines.next().expect("data row").split(',').collect();
    let index = header
        .iter()
        .position(|&h| h == column)
        .unwrap_or_else(|| panic!("no column {column}"));
    row[index].parse().expect("numeric field")
}

/// The fuzz-style findings a result set implies: one fairness-inversion
/// verdict per gallery entry, from the k-twin F2 Ginis.
fn findings(results: &BTreeMap<String, Vec<u8>>) -> Vec<(String, Option<String>)> {
    fuzzed::GALLERY
        .iter()
        .map(|(name, _)| {
            let gini_k4 = csv_field(&results[&format!("{name}/k4")], "f2_gini");
            let gini_k20 = csv_field(&results[&format!("{name}/k20")], "f2_gini");
            let verdict = oracle::fairness_inversion(gini_k4, gini_k20)
                .map(|v| format!("{}: {}", v.oracle, v.detail));
            (name.to_string(), verdict)
        })
        .collect()
}

#[test]
fn worker_count_never_changes_results_or_findings() {
    let documents = gallery_documents();

    // Ground truth straight from the engine, through the same
    // serializer the service uses.
    let expected: BTreeMap<String, Vec<u8>> = documents
        .iter()
        .map(|(label, json)| (label.clone(), batch_csv(json)))
        .collect();

    for workers in [1, 4] {
        let server = TestServer::start(workers, 32);
        let results = replay(server.addr, &documents);
        for (label, want) in &expected {
            assert_eq!(
                &results[label], want,
                "workers={workers}: {label} differs from the batch engine"
            );
        }
        assert_eq!(
            findings(&results),
            findings(&expected),
            "workers={workers}: oracle findings drifted"
        );
        let summary = server.stop();
        assert_eq!(summary.failed, 0);
        assert_eq!(summary.completed, documents.len() as u64);
    }
}
