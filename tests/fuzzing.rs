//! Replay guarantees for the fuzzer's committed artifacts: the seed
//! corpus under `tests/fixtures/corpus/` and the machine-found gallery
//! behind the `fuzzed` preset. Every committed spec must keep re-running
//! byte-identically — serial or threaded — because a finding that stops
//! replaying is a finding lost.

use std::path::Path;

use fairswap::core::experiments::fuzzed;
use fairswap::core::{run_jobs, Executor, SimSpec};
use fairswap::fuzz::{run_campaign, Corpus, FuzzConfig};

fn fixture_dir() -> &'static Path {
    Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/corpus"
    ))
}

/// The committed corpus IS the seed corpus, byte for byte: regenerating
/// it (`fairswap fuzz --iters 0 --corpus tests/fixtures/corpus`) must be
/// a no-op, and any drift in the spec wire format or the seed set shows
/// up here before it breaks replays.
#[test]
fn committed_corpus_is_the_seed_corpus_byte_for_byte() {
    let committed = Corpus::load(fixture_dir()).expect("committed corpus loads");
    assert_eq!(committed, Corpus::seeded());
    for entry in Corpus::seeded().entries() {
        let path = fixture_dir().join(format!("{}.json", entry.name));
        let disk =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            disk,
            entry.to_file_contents().unwrap(),
            "{} drifted from its canonical form",
            entry.name
        );
    }
}

/// Every committed spec replays through the `fairswap run --config` code
/// path (parse → simulate) with bit-identical results whether
/// the jobs run serially or on two workers.
#[test]
fn committed_corpus_replays_byte_identically_serial_vs_threaded() {
    let corpus = Corpus::load(fixture_dir()).expect("committed corpus loads");
    assert!(!corpus.is_empty());
    let jobs = |c: &Corpus| -> Vec<SimSpec> {
        c.entries()
            .iter()
            .map(|e| {
                // The CLI parses the file text, not the in-memory spec —
                // mirror that exactly.
                let text = std::fs::read_to_string(fixture_dir().join(format!("{}.json", e.name)))
                    .unwrap();
                SimSpec::from_json(&text).unwrap()
            })
            .collect()
    };
    let serial = run_jobs(&Executor::new(1), jobs(&corpus)).unwrap();
    let threaded = run_jobs(&Executor::new(2), jobs(&corpus)).unwrap();
    for ((entry, a), b) in corpus.entries().iter().zip(&serial).zip(&threaded) {
        assert_eq!(a.traffic(), b.traffic(), "{}", entry.name);
        assert_eq!(a.incomes(), b.incomes(), "{}", entry.name);
        assert_eq!(a.hops(), b.hops(), "{}", entry.name);
        assert_eq!(
            a.f2_income_gini().to_bits(),
            b.f2_income_gini().to_bits(),
            "{}",
            entry.name
        );
    }
}

/// A campaign is a pure function of (seed, iters): replaying one must
/// reproduce the identical corpus — down to the serialized bytes that
/// `--corpus` would write — and the identical findings report.
#[test]
fn same_seed_campaign_reproduces_its_corpus_bytes() {
    let run = || {
        run_campaign(
            &Executor::new(1),
            &FuzzConfig::new(0xFA66, 2),
            &mut |_, _| {},
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.corpus, b.corpus);
    let bytes = |o: &fairswap::fuzz::FuzzOutcome| {
        o.corpus
            .entries()
            .iter()
            .map(|e| e.to_file_contents().unwrap())
            .collect::<Vec<_>>()
    };
    assert_eq!(bytes(&a), bytes(&b));
    assert_eq!(a.findings_json().unwrap(), b.findings_json().unwrap());
}

/// The gallery's machine-found specs replay as corpus-shaped documents
/// too: parse → validate → canonical re-serialization is the identity,
/// and the `fuzzed` preset reproduces each entry's anomaly (asserted in
/// depth by the preset's own tests; here we pin the wire format).
#[test]
fn gallery_specs_are_canonical_and_replayable() {
    for (name, json) in fuzzed::GALLERY {
        let spec = SimSpec::from_json(json).unwrap_or_else(|e| panic!("{name}: {e}"));
        spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            format!("{}\n", spec.to_json().unwrap()),
            json,
            "{name} drifted from canonical form"
        );
    }
}
