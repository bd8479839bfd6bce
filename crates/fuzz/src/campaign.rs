//! The campaign driver: mutate → run → judge → keep, deterministically.
//!
//! A campaign is fully determined by its master seed and iteration
//! count. The scheduling RNG lives in its own derivation domain
//! ([`domain::FUZZ`]) with one sub-stream per iteration
//! (`derive_rng(campaign_seed, iteration, 0)`), so iteration `i` draws
//! the same parent, axis and candidate seed no matter what any other
//! iteration did — and the whole campaign replays bit-identically from
//! `--seed`/`--iters` alone. A `--time-budget` cuts a campaign short by
//! wall clock and therefore trades that guarantee away; seed+iters runs
//! are the reproducible ones.
//!
//! Every iteration executes the candidate spec **plus its k = 4 and
//! k = 20 fairness twins** (same spec, only the bucket size swapped) on
//! the shared [`Executor`], so the fairness-inversion oracle always has
//! both ends of the paper's headline comparison. Candidates whose run
//! lights a novel [`MetricGrid`] cell — or trips any oracle — join the
//! corpus under `fuzz-<iteration>-<axis>`; oracle breaches additionally
//! become [`Finding`]s in the campaign report.

use std::time::{Duration, Instant};

use fairswap_core::{run_jobs, CsvTable, Executor, SimSpec};
use fairswap_kademlia::BucketSizing;
use fairswap_simcore::rng::{derive_rng, domain, sub_seed};
use rand::Rng;
use serde::Serialize;

use crate::corpus::Corpus;
use crate::error::FuzzError;
use crate::feedback::{cell_for, MetricGrid};
use crate::mutate::mutate_spec;
use crate::oracle::{check_report, fairness_inversion, RunMetrics, Violation};

/// Bucket sizes of the fairness-twin runs (the paper's comparison).
pub const TWIN_KS: [usize; 2] = [4, 20];

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; the scheduling stream is forked from it through
    /// [`domain::FUZZ`].
    pub seed: u64,
    /// Number of mutation iterations after the seed-corpus priming pass.
    pub iters: u64,
    /// Optional wall-clock cutoff. Cutting by time breaks bit-for-bit
    /// reproducibility across machines; leave `None` for reproducible
    /// campaigns.
    pub time_budget: Option<Duration>,
}

impl FuzzConfig {
    /// A small reproducible campaign (no time budget).
    pub fn new(seed: u64, iters: u64) -> Self {
        Self {
            seed,
            iters,
            time_budget: None,
        }
    }
}

/// One oracle breach, tied to the corpus entry that replays it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Finding {
    /// Iteration the breach surfaced at (0 = seed-corpus priming).
    pub iteration: u64,
    /// Corpus entry name whose spec reproduces the breach.
    pub entry: String,
    /// The violated invariant.
    pub violation: Violation,
}

/// Everything a finished campaign produced.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Seed corpus plus every kept candidate, in discovery order.
    pub corpus: Corpus,
    /// Every oracle breach, in discovery order.
    pub findings: Vec<Finding>,
    /// Mutation iterations actually executed (< `iters` only under a
    /// time budget).
    pub iterations: u64,
    /// Simulations executed, twins included.
    pub runs: u64,
    /// Distinct behavior-grid cells lit.
    pub cells: usize,
}

impl FuzzOutcome {
    /// The findings report as deterministic JSON (an array in discovery
    /// order).
    ///
    /// # Errors
    ///
    /// Propagates serialization failures as [`FuzzError::Core`] — not
    /// reachable for the string-only fields involved.
    pub fn findings_json(&self) -> Result<String, FuzzError> {
        serde_json::to_string(&self.findings).map_err(|e| FuzzError::Corpus {
            file: "findings.json".into(),
            message: e.to_string(),
        })
    }

    /// The findings report as `(file name, table)`: one row per finding,
    /// in discovery order.
    pub fn findings_csv(&self) -> (&'static str, CsvTable) {
        let rows: Vec<FindingRow> = self
            .findings
            .iter()
            .map(|f| FindingRow {
                iteration: f.iteration,
                entry: f.entry.clone(),
                oracle: f.violation.oracle.clone(),
                detail: f.violation.detail.clone(),
            })
            .collect();
        ("fuzz.csv", CsvTable::from_rows(&rows))
    }
}

/// One row of `fuzz.csv`: a [`Finding`] with its violation flattened.
#[derive(Serialize)]
struct FindingRow {
    iteration: u64,
    entry: String,
    oracle: String,
    detail: String,
}

/// One evaluated candidate: its metrics and any violations.
struct Eval {
    metrics: RunMetrics,
    violations: Vec<Violation>,
    runs: u64,
}

/// Runs `spec` plus its fairness twins and judges the results.
fn evaluate(executor: &Executor, spec: &SimSpec) -> Result<Eval, FuzzError> {
    // The candidate is job 0; twins reuse it when the bucket size already
    // matches (the common case for k = 4 parents).
    let mut jobs = vec![spec.clone()];
    let mut twin_slots = [0usize; TWIN_KS.len()];
    for (slot, k) in TWIN_KS.iter().enumerate() {
        let sizing = BucketSizing::uniform(*k);
        if spec.topology.bucket_sizing == sizing {
            twin_slots[slot] = 0;
        } else {
            let mut twin = spec.clone();
            twin.topology.bucket_sizing = sizing;
            twin_slots[slot] = jobs.len();
            jobs.push(twin);
        }
    }
    let runs = jobs.len() as u64;
    let reports = run_jobs(executor, jobs)?;
    let metrics = RunMetrics::from_report(&reports[0]);
    let mut violations = check_report(&metrics);
    let gini_k4 = reports[twin_slots[0]].f2_income_gini();
    let gini_k20 = reports[twin_slots[1]].f2_income_gini();
    violations.extend(fairness_inversion(gini_k4, gini_k20));
    Ok(Eval {
        metrics,
        violations,
        runs,
    })
}

/// Runs a campaign on `executor`, reporting progress (done, total
/// scheduled units) through `progress`.
///
/// # Errors
///
/// Propagates engine failures as [`FuzzError::Core`]. Invalid specs
/// cannot occur: the seed corpus validates by construction and mutants
/// are drawn from curated always-valid sets.
pub fn run_campaign(
    executor: &Executor,
    cfg: &FuzzConfig,
    progress: &mut dyn FnMut(u64, u64),
) -> Result<FuzzOutcome, FuzzError> {
    let started = Instant::now();
    let campaign_seed = sub_seed(cfg.seed, domain::FUZZ);
    let mut corpus = Corpus::seeded();
    let mut grid = MetricGrid::new();
    let mut findings = Vec::new();
    let mut runs = 0u64;
    let total = corpus.len() as u64 + cfg.iters;
    let mut done = 0u64;

    // Priming pass: light the grid with the seed corpus's behavior and
    // oracle-check the seeds themselves (iteration 0).
    for entry in corpus.entries().to_vec() {
        let eval = evaluate(executor, &entry.spec)?;
        runs += eval.runs;
        grid.observe(cell_for(&eval.metrics));
        findings.extend(eval.violations.into_iter().map(|violation| Finding {
            iteration: 0,
            entry: entry.name.clone(),
            violation,
        }));
        done += 1;
        progress(done, total);
    }

    let mut iterations = 0u64;
    for i in 0..cfg.iters {
        if let Some(budget) = cfg.time_budget {
            if started.elapsed() >= budget {
                break;
            }
        }
        // Iteration streams are numbered from 1; 0 is the priming pass.
        let mut rng = derive_rng(campaign_seed, (i + 1) as usize, 0);
        let parent = &corpus.entries()[rng.gen_range(0..corpus.len())].spec;
        let (candidate, axis) = mutate_spec(parent, &mut rng);
        let eval = evaluate(executor, &candidate)?;
        runs += eval.runs;
        let novel = grid.observe(cell_for(&eval.metrics));
        // Oracle breaches are always kept — a finding without its spec
        // is not replayable — novelty admits the rest.
        if novel || !eval.violations.is_empty() {
            let name = format!("fuzz-{:05}-{axis}", i + 1);
            findings.extend(eval.violations.into_iter().map(|violation| Finding {
                iteration: i + 1,
                entry: name.clone(),
                violation,
            }));
            corpus.push(name, candidate);
        }
        iterations = i + 1;
        done += 1;
        progress(done, total);
    }

    Ok(FuzzOutcome {
        corpus,
        findings,
        iterations,
        runs,
        cells: grid.len(),
    })
}

/// Outcome of a corpus minimization pass.
#[derive(Debug, Clone)]
pub struct MinimizeOutcome {
    /// The surviving entries, in original order.
    pub corpus: Corpus,
    /// Names of the dropped entries, in original order.
    pub dropped: Vec<String>,
    /// Simulations executed, twins included.
    pub runs: u64,
    /// Distinct behavior-grid cells the kept entries light.
    pub cells: usize,
}

/// Replays `corpus` front to back and keeps each entry iff it lights a
/// behavior-grid cell no *kept* earlier entry lit, or trips an oracle
/// (a finding's spec must stay replayable regardless of its cell).
/// Deterministic: entry order is the load order and every run is a pure
/// function of its spec, so the same corpus minimizes to the same subset
/// at any thread count.
///
/// # Errors
///
/// Propagates engine failures as [`FuzzError::Core`].
pub fn minimize_corpus(
    executor: &Executor,
    corpus: &Corpus,
    progress: &mut dyn FnMut(u64, u64),
) -> Result<MinimizeOutcome, FuzzError> {
    let mut grid = MetricGrid::new();
    let mut kept = Corpus::new();
    let mut dropped = Vec::new();
    let mut runs = 0u64;
    let total = corpus.len() as u64;
    for (done, entry) in corpus.entries().iter().enumerate() {
        let eval = evaluate(executor, &entry.spec)?;
        runs += eval.runs;
        if grid.observe(cell_for(&eval.metrics)) || !eval.violations.is_empty() {
            kept.push(entry.name.clone(), entry.spec.clone());
        } else {
            dropped.push(entry.name.clone());
        }
        progress(done as u64 + 1, total);
    }
    Ok(MinimizeOutcome {
        corpus: kept,
        dropped,
        runs,
        cells: grid.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign(seed: u64, iters: u64, threads: usize) -> FuzzOutcome {
        let executor = Executor::new(threads);
        run_campaign(&executor, &FuzzConfig::new(seed, iters), &mut |_, _| {}).unwrap()
    }

    #[test]
    fn campaigns_are_bit_reproducible_across_thread_counts() {
        let a = campaign(0xF0CC, 3, 1);
        let b = campaign(0xF0CC, 3, 2);
        assert_eq!(a.corpus, b.corpus);
        assert_eq!(a.findings, b.findings);
        assert_eq!(a.cells, b.cells);
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.iterations, 3);
        // The seed corpus always survives into the output corpus.
        assert!(a.corpus.len() >= Corpus::seeded().len());
        // Priming lights at least one cell per distinct seed behavior.
        assert!(a.cells >= 1);
    }

    #[test]
    fn different_seeds_schedule_different_candidates() {
        let a = campaign(0xF0CC, 2, 1);
        let b = campaign(0xF0CD, 2, 1);
        // The kept corpora (beyond the shared seeds) differ in spec
        // content with overwhelming probability: candidate master seeds
        // are 64-bit draws from differently-keyed streams.
        let specs = |o: &FuzzOutcome| {
            o.corpus
                .entries()
                .iter()
                .map(|e| e.spec.seed)
                .collect::<Vec<_>>()
        };
        assert_ne!(specs(&a), specs(&b));
    }

    #[test]
    fn zero_time_budget_still_primes_but_runs_no_iterations() {
        let executor = Executor::new(1);
        let cfg = FuzzConfig {
            seed: 1,
            iters: 50,
            time_budget: Some(Duration::ZERO),
        };
        let mut ticks = 0u64;
        let outcome = run_campaign(&executor, &cfg, &mut |done, total| {
            ticks = done;
            assert_eq!(total, Corpus::seeded().len() as u64 + 50);
        })
        .unwrap();
        assert_eq!(outcome.iterations, 0);
        // No mutation iterations ran, so the corpus is exactly the seeds.
        assert_eq!(outcome.corpus, Corpus::seeded());
        assert_eq!(ticks, Corpus::seeded().len() as u64);
    }

    #[test]
    fn minimization_drops_covered_entries_deterministically() {
        // A corpus with an exact behavioral duplicate: the clone lands in
        // the same grid cell as the original and must be dropped, while
        // the original (first in load order) survives.
        let mut corpus = Corpus::seeded();
        let original = corpus.entries()[0].clone();
        corpus.push("zz-duplicate".into(), original.spec.clone());
        let minimize = |threads: usize| {
            let executor = Executor::new(threads);
            minimize_corpus(&executor, &corpus, &mut |_, _| {}).unwrap()
        };
        let a = minimize(1);
        assert!(a.dropped.contains(&"zz-duplicate".to_string()), "{a:?}");
        assert!(a.corpus.entries().iter().any(|e| e.name == original.name));
        assert_eq!(a.corpus.len() + a.dropped.len(), corpus.len());
        assert_eq!(a.cells, a.corpus.len(), "kept entries light distinct cells");
        // Kept entries preserve their original relative order.
        let positions: Vec<usize> = a
            .corpus
            .entries()
            .iter()
            .map(|kept| {
                corpus
                    .entries()
                    .iter()
                    .position(|e| e.name == kept.name)
                    .unwrap()
            })
            .collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]));
        // Byte-identical at another thread count.
        let b = minimize(2);
        assert_eq!(a.corpus, b.corpus);
        assert_eq!(a.dropped, b.dropped);
        assert_eq!(a.runs, b.runs);
    }

    #[test]
    fn findings_json_is_deterministic_and_parseable() {
        let outcome = campaign(0xF0CE, 2, 1);
        let json = outcome.findings_json().unwrap();
        assert_eq!(json, campaign(0xF0CE, 2, 1).findings_json().unwrap());
        let value: serde::Value = serde_json::from_str(&json).unwrap();
        assert!(value.as_array().is_some());
    }

    #[test]
    fn findings_csv_quotes_commas_and_quotes() {
        let outcome = FuzzOutcome {
            corpus: Corpus::new(),
            findings: vec![Finding {
                iteration: 7,
                entry: "fuzz-00007-topology".into(),
                violation: Violation {
                    oracle: "fairness-inversion".into(),
                    detail: "F2 gini 0.43 at k=20, \"less fair\"".into(),
                },
            }],
            iterations: 8,
            runs: 24,
            cells: 3,
        };
        let (name, csv) = outcome.findings_csv();
        assert_eq!(name, "fuzz.csv");
        assert_eq!(
            csv.to_csv_string(),
            "iteration,entry,oracle,detail\n\
             7,fuzz-00007-topology,fairness-inversion,\"F2 gini 0.43 at k=20, \"\"less fair\"\"\"\n"
        );
    }
}
