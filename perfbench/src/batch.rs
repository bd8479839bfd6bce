//! The batch workloads: timed engine runs checked against recorded output
//! digests, and the traced replay that breaks them down by layer.

use std::path::Path;
use std::time::Instant;

use fairswap_core::{run_summary_csv, SimReport};

use crate::cells::{round_cells, Cell};
use crate::replay::{replay, Counts, Fidelity};
use crate::stats::{fnv1a, median, peak_rss_kb};
use crate::trace::Tracer;
use crate::{Layers, Outcome};

/// Rounds every run completes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Set-ups (of every cell) cheaper than this are timed again after the
/// window, back to back...
const CHEAP_SETUP_S: f64 = 0.25;
/// ...for this long, and `setup_s` is the median of those samples alone.
const EXTRA_SETUP_S: f64 = 1.0;

/// `run_summary_csv` digests recorded from a known-good commit, keyed by
/// workload, table size and seed slot.
const DIGESTS: &str = include_str!("../digests.txt");

/// The recorded digest of one cell's output, if any.
fn recorded_digest(workload: &str, k: usize, slot: u64) -> Option<u64> {
    DIGESTS.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let matches = fields.next() == Some(workload)
            && fields.next()?.parse() == Ok(k)
            && fields.next()?.parse() == Ok(slot);
        matches
            .then(|| u64::from_str_radix(fields.next()?, 16).ok())
            .flatten()
    })
}

/// One line of `digests.txt`.
pub fn digest_line(workload: &str, cell: &Cell) -> String {
    let report = cell.spec.build().expect("benchmark specs are valid").run();
    format!(
        "{workload} {} {} {:016x}",
        cell.k,
        cell.slot,
        output_digest(cell, &report)
    )
}

fn output_digest(cell: &Cell, report: &SimReport) -> u64 {
    let csv = run_summary_csv(&cell.spec.to_config(), report).to_csv_string();
    fnv1a(csv.as_bytes())
}

/// Whether a cell's output equals the recorded one; reports a mismatch.
fn output_matches(workload: &str, cell: &Cell, report: &SimReport) -> bool {
    let digest = output_digest(cell, report);
    let matches = recorded_digest(workload, cell.k, cell.slot) == Some(digest);
    if !matches {
        eprintln!(
            "{workload}: k={} slot {}: output digest {digest:016x} differs from the record",
            cell.k, cell.slot
        );
    }
    matches
}

/// Chunk requests the engine routed: user downloads and their retries,
/// plus repair transfers.
fn chunks_routed(report: &SimReport) -> u64 {
    let traffic = report.traffic();
    traffic.requests_issued().iter().sum::<u64>() + traffic.repair_transfers()
}

/// The cells of one round of a batch workload.
fn cells_of(workload: &str, seed: u64, round: usize) -> Vec<Cell> {
    round_cells(workload, seed, round).expect("a batch workload")
}

/// The untraced run: rounds of `SimSpec::build → BandwidthSim::run →
/// run_summary_csv` over every cell until `seconds` have passed.
pub fn measure(workload: &str, seed: u64, seconds: f64) -> Outcome {
    let window = Instant::now();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut rounds = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    while rounds.len() < MIN_ROUNDS || window.elapsed().as_secs_f64() < seconds {
        let (mut build_s, mut run_s, mut chunks) = (0.0, 0.0, 0u64);
        let cells = cells_of(workload, seed, rounds.len());
        let round = Instant::now();
        for cell in &cells {
            let t0 = Instant::now();
            let sim = cell.spec.build().expect("benchmark specs are valid");
            let t1 = Instant::now();
            let report = sim.run();
            let t2 = Instant::now();
            build_s += (t1 - t0).as_secs_f64();
            run_s += (t2 - t1).as_secs_f64();
            chunks += chunks_routed(&report);
            attempted += 1;
            failed += u64::from(!output_matches(workload, cell, &report));
        }
        rounds.push(round.elapsed().as_secs_f64());
        setups.push(build_s);
        rates.push(chunks as f64 / run_s);
    }
    let timed_setups = setups.len();
    if median(&setups) < CHEAP_SETUP_S {
        setups.clear();
        let extra = Instant::now();
        while extra.elapsed().as_secs_f64() < EXTRA_SETUP_S {
            let cells = cells_of(workload, seed, setups.len());
            let start = Instant::now();
            for cell in &cells {
                drop(cell.spec.build().expect("benchmark specs are valid"));
            }
            setups.push(start.elapsed().as_secs_f64());
        }
    }
    let per_round = cells_of(workload, seed, 0).len();
    eprintln!(
        "{workload}: {} rounds of {per_round} cells, {} set-up samples ({})",
        rounds.len(),
        setups.len(),
        if setups.len() == timed_setups {
            "the rounds' builds"
        } else {
            "back-to-back builds"
        }
    );
    let round_ms: Vec<f64> = rounds.iter().map(|s| s * 1000.0).collect();
    let results: Vec<f64> = rounds.iter().map(|s| per_round as f64 / s).collect();
    let mut outcome = Outcome::new(attempted, failed);
    outcome.metric("setup_s", median(&setups), "s");
    outcome.metric("chunks_per_s", median(&rates), "1/s");
    outcome.metric("peak_rss_mb", peak_rss_kb() as f64 / 1024.0, "MB");
    outcome.metric("results_per_s", median(&results), "1/s");
    outcome.metric("result_p50_ms", median(&round_ms), "ms");
    outcome
}

/// The traced run: each round runs every cell once on the engine
/// (untraced, the reference) and once through the traced replay, and
/// checks the replay against the engine.
pub fn traced(workload: &str, seed: u64, seconds: f64, trace_path: &Path) -> Outcome {
    let start = Instant::now();
    let mut tracer = Tracer::new(start);
    let mut counts = Counts::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut replay_s, mut csv_s) = (0.0, 0.0);
    let mut overheads = Vec::new();
    let mut rounds = 0u32;
    while rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        for cell in &cells_of(workload, seed, rounds as usize) {
            let t0 = Instant::now();
            let report = cell.spec.build().expect("benchmark specs are valid").run();
            let t1 = Instant::now();
            let matches = output_matches(workload, cell, &report);
            csv_s += t1.elapsed().as_secs_f64();
            attempted += 1;
            failed += u64::from(!matches);

            let r0 = Instant::now();
            let replayed = replay(&cell.spec, &mut tracer, &mut counts);
            let r1 = Instant::now();
            attempted += 1;
            let expected = Fidelity::of_report(&report);
            match replayed {
                Ok(fidelity) if fidelity == expected => {}
                Ok(fidelity) => {
                    eprintln!("{workload}: k={} replay diverged from the engine:\n  replay {fidelity:?}\n  engine {expected:?}", cell.k);
                    failed += 1;
                }
                Err(e) => {
                    eprintln!("{workload}: k={} replay failed: {e}", cell.k);
                    failed += 1;
                }
            }
            replay_s += (r1 - r0).as_secs_f64();
            overheads.push((r1 - r0).as_secs_f64() / (t1 - t0).as_secs_f64());
        }
        rounds += 1;
    }
    if let Err(e) = tracer.write_jsonl(trace_path) {
        eprintln!("cannot write {}: {e}", trace_path.display());
        failed += 1;
    }

    let self_times = tracer.self_times();
    let covered: u64 = self_times.values().sum();
    let per_round = |n: u64| n as f64 / f64::from(rounds);
    let mut layers = Layers::default();
    for (name, nanos) in &self_times {
        layers.set(&format!("{name}_s"), per_round(*nanos) / 1e9);
    }
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let c = &counts;
    layers.set("core.csv_s", csv_s / f64::from(rounds));
    layers.set("kademlia.leaves", per_round(c.leaves));
    layers.set("kademlia.joins", per_round(c.joins));
    layers.set("churn.events", per_round(c.churn_events));
    layers.set("storage.chunks", per_round(c.requests + c.repair_transfers));
    layers.set(
        "storage.hops_per_chunk",
        ratio(c.delivered_hops, c.delivered_routes),
    );
    layers.set(
        "storage.delivered_ratio",
        ratio(c.requests - c.stuck, c.requests),
    );
    layers.set("storage.repair_transfers", per_round(c.repair_transfers));
    layers.set(
        "storage.repair_delivered_ratio",
        ratio(c.repair_delivered, c.repair_transfers),
    );
    layers.set("storage.retried", per_round(c.retried));
    layers.set("storage.recovered_ratio", ratio(c.recovered, c.retried));
    layers.set("incentives.deliveries", per_round(c.deliveries));
    layers.set("swap.settlements", per_round(c.settlements));
    layers.set("trace.overhead", median(&overheads));
    layers.set("trace.coverage", covered as f64 / 1e9 / replay_s);
    eprintln!(
        "{workload}: {rounds} traced rounds, {} spans, {} of {} output and replay checks passed",
        tracer.spans().len(),
        attempted - failed,
        attempted
    );
    let mut outcome = Outcome::new(attempted, failed);
    outcome.layers(layers);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_cover_every_batch_cell_and_slot() {
        for workload in crate::cells::BATCH_WORKLOADS {
            for slot in 0..crate::cells::SLOTS {
                for k in crate::cells::TABLE_SIZES {
                    assert!(
                        recorded_digest(workload, k, slot).is_some(),
                        "{workload} k={k} slot {slot}"
                    );
                }
            }
        }
        assert!(recorded_digest("serve_mixed", 4, 0).is_none());
    }
}
