//! The fuzzer's gallery: machine-found scenarios replayed as a preset.
//!
//! `fairswap fuzz` (the coverage-guided campaign in `fairswap_fuzz`)
//! hunts for specs whose behavior trips an invariant oracle or lights a
//! novel behavior-grid cell. The keepers are committed here as verbatim
//! [`SimSpec`] JSON under `experiments/gallery/` — every one was
//! discovered by a campaign, not written by hand. The first four
//! reproduce a **fairness inversion**: a regime where the paper's
//! recommended large bucket (`k = 20`) yields a *less* equal F2 income
//! distribution than `k = 4` (two of them additionally starve delivery
//! with majority drop rates under tight capacity tiers). The last two
//! are **non-inversion durability findings**: a no-rejoin regional
//! outage under `Monitor`-only repair that leaves dozens of address
//! regions permanently dark (tens of thousands of unreachable requests,
//! no fairness inversion at all — the anomaly is availability), and a
//! retry-equipped run where every single retry is abandoned because the
//! requested regions are *lost*, not congested — retries cannot outrun
//! data loss, only repair fixes it.
//!
//! The preset replays each gallery spec at its committed seed together
//! with its `k = 4` / `k = 20` fairness twins (same spec, only the
//! bucket size swapped — exactly what the campaign ran) and reports
//! both ends of the comparison, so the anomalies stay reproducible as
//! the engine evolves. Because the specs pin their own topology, seed
//! and workload, this preset takes no [`ExperimentScale`]: scaling a
//! found scenario would change the behavior that made it a finding.
//!
//! `fuzzed.csv` is [`CsvTable::from_rows`](crate::CsvTable::from_rows) of
//! [`FuzzedRow`]s: the row's field order is the file's column order.
//!
//! [`ExperimentScale`]: crate::experiments::ExperimentScale

use fairswap_kademlia::BucketSizing;
use fairswap_simcore::Executor;
use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::exec::run_jobs_observed;
use crate::obs::GridObservation;
use crate::spec::SimSpec;

/// The committed gallery, in discovery order: entry name → spec JSON.
///
/// Names keep the campaign's `fuzz-<iteration>-<mutated axis>` form so a
/// finding can be traced back to the axis whose mutation exposed it.
pub const GALLERY: [(&str, &str); 6] = [
    (
        "fuzz-00206-economics",
        include_str!("gallery/fuzz-00206-economics.json"),
    ),
    (
        "fuzz-00218-economics",
        include_str!("gallery/fuzz-00218-economics.json"),
    ),
    (
        "fuzz-00235-topology",
        include_str!("gallery/fuzz-00235-topology.json"),
    ),
    (
        "fuzz-00295-economics",
        include_str!("gallery/fuzz-00295-economics.json"),
    ),
    (
        "fuzz-01127-churn",
        include_str!("gallery/fuzz-01127-churn.json"),
    ),
    (
        "fuzz-02189-policies",
        include_str!("gallery/fuzz-02189-policies.json"),
    ),
];

/// The twin bucket sizes every gallery spec is replayed under — the
/// paper's headline fairness comparison.
pub const GALLERY_KS: [usize; 2] = [4, 20];

/// One replayed gallery entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzedRow {
    /// Gallery entry name (`fuzz-<iteration>-<axis>`).
    pub name: String,
    /// Incentive mechanism identifier of the found spec.
    pub mechanism: String,
    /// F2 income Gini of the `k = 4` twin.
    pub gini_k4: f64,
    /// F2 income Gini of the `k = 20` twin.
    pub gini_k20: f64,
    /// How far the `k = 20` Gini exceeds the `k = 4` Gini
    /// (`gini_k20 - gini_k4`) — positive is the inversion the fuzzer
    /// flagged.
    pub inversion: f64,
    /// Fraction of issued requests never delivered (at the spec's own
    /// bucket size).
    pub drop_rate: f64,
    /// Mean hops per delivered chunk (at the spec's own bucket size).
    pub mean_hops: f64,
}

/// The replayed gallery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzedExperiment {
    /// One row per gallery entry, in [`GALLERY`] order.
    pub rows: Vec<FuzzedRow>,
}

impl FuzzedExperiment {
    /// The row of one gallery entry.
    pub fn row(&self, name: &str) -> Option<&FuzzedRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// The parsed gallery specs, in [`GALLERY`] order.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] if a committed JSON no longer
/// parses or validates — a format regression the spec-stability tests
/// also guard.
pub fn specs() -> Result<Vec<(&'static str, SimSpec)>, CoreError> {
    GALLERY
        .iter()
        .map(|&(name, json)| {
            let spec = SimSpec::from_json(json)?;
            spec.validate()?;
            Ok((name, spec))
        })
        .collect()
}

/// Replays the gallery.
///
/// Cells fan out over `executor` (output is bit-identical for any
/// thread count); `obs` carries progress and, when enabled, the
/// per-cell traces, metrics and phase timings.
///
/// # Errors
///
/// Propagates gallery-parse and engine failures as [`CoreError`].
pub fn run(executor: &Executor, obs: &mut GridObservation) -> Result<FuzzedExperiment, CoreError> {
    let specs = specs()?;
    // Per entry: the spec at its own bucket size (job `base`), then one
    // twin per missing `k` — mirroring the campaign's dedup, a twin
    // whose bucket size the spec already uses shares the base run.
    let mut jobs = Vec::new();
    let mut slots = Vec::new();
    for (_, spec) in &specs {
        let own = jobs.len();
        jobs.push(spec.clone());
        let twin_slots: Vec<usize> = GALLERY_KS
            .iter()
            .map(|&k| {
                let sizing = BucketSizing::uniform(k);
                if spec.topology.bucket_sizing == sizing {
                    own
                } else {
                    let mut twin = spec.clone();
                    twin.topology.bucket_sizing = sizing;
                    jobs.push(twin);
                    jobs.len() - 1
                }
            })
            .collect();
        slots.push((own, twin_slots));
    }
    let reports = run_jobs_observed(executor, jobs, obs)?;
    let rows = specs
        .iter()
        .zip(&slots)
        .map(|((name, spec), (own, twin_slots))| {
            let report = &reports[*own];
            let requests: u64 = report.traffic().requests_issued().iter().sum();
            let drop_rate = if requests == 0 {
                0.0
            } else {
                report.traffic().stuck_requests() as f64 / requests as f64
            };
            let gini_k4 = reports[twin_slots[0]].f2_income_gini();
            let gini_k20 = reports[twin_slots[1]].f2_income_gini();
            FuzzedRow {
                name: (*name).to_string(),
                mechanism: spec.economics.mechanism.id().to_string(),
                gini_k4,
                gini_k20,
                inversion: gini_k20 - gini_k4,
                drop_rate,
                mean_hops: report.hops().mean().unwrap_or(0.0),
            }
        })
        .collect();
    Ok(FuzzedExperiment { rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::CsvTable;

    #[test]
    fn gallery_parses_and_validates() {
        let specs = specs().unwrap();
        assert_eq!(specs.len(), GALLERY.len());
        // Committed JSON is the spec's own canonical form (what the
        // corpus writer emits), so round-tripping is byte-identity.
        for ((name, spec), (_, json)) in specs.iter().zip(GALLERY) {
            assert_eq!(
                spec.to_json().unwrap(),
                json.trim_end(),
                "{name} drifted from canonical form"
            );
        }
    }

    #[test]
    fn every_entry_reproduces_its_anomaly() {
        let result = run(&Executor::serial(), &mut GridObservation::disabled()).unwrap();
        assert_eq!(result.rows.len(), GALLERY.len());
        // The four inversion entries: the campaign's oracle threshold,
        // k = 20 measurably less fair than k = 4.
        for name in [
            "fuzz-00206-economics",
            "fuzz-00218-economics",
            "fuzz-00235-topology",
            "fuzz-00295-economics",
        ] {
            let row = result.row(name).unwrap();
            assert!(row.inversion > 0.02, "{name} lost its inversion: {row:?}");
        }
        // The two capacity-starved entries keep their majority drops.
        assert!(result.row("fuzz-00235-topology").unwrap().drop_rate > 0.5);
        assert!(result.row("fuzz-00295-economics").unwrap().drop_rate > 0.5);
        // The durability entries are non-inversions: their anomaly is
        // availability, not fairness ordering.
        for name in ["fuzz-01127-churn", "fuzz-02189-policies"] {
            let row = result.row(name).unwrap();
            assert!(row.inversion <= 0.02, "{name} grew an inversion: {row:?}");
        }
        assert!(!CsvTable::from_rows(&result.rows).is_empty());
    }

    /// Replays one gallery spec at its own bucket size and returns the
    /// report — the durability entries assert on counters the
    /// [`FuzzedRow`] schema deliberately does not carry.
    fn replay(name: &str) -> crate::report::SimReport {
        let (_, spec) = specs()
            .unwrap()
            .into_iter()
            .find(|(n, _)| *n == name)
            .unwrap();
        crate::exec::run_jobs(&Executor::serial(), vec![spec])
            .unwrap()
            .remove(0)
    }

    #[test]
    fn monitor_entry_reproduces_its_permanent_region_loss() {
        // fuzz-01127-churn: a no-rejoin regional outage under
        // Monitor-only repair — regions are detected lost, never
        // repaired, and stay dark for most of the run.
        let report = replay("fuzz-01127-churn");
        let traffic = report.traffic();
        assert!(report.churn().unwrap().repair_events > 0);
        assert_eq!(traffic.repair_transfers(), 0, "Monitor never re-uploads");
        assert_eq!(traffic.repair_delivered(), 0);
        assert!(
            traffic.unreachable_requests() > 10_000,
            "lost regions must dominate the request stream: {}",
            traffic.unreachable_requests()
        );
        // The defining stall shape: a region dark for more than half
        // the run (the durability-stall oracle exempts Monitor — this
        // entry pins the control-arm regime it exempts).
        assert!(traffic.repair_wait_max() > 200 / 2);
    }

    #[test]
    fn retry_entry_reproduces_its_abandoned_retries() {
        // fuzz-02189-policies: retries enabled, but the failing
        // requests target *lost* regions — every retry re-fails and is
        // abandoned. Retries cannot outrun data loss.
        let report = replay("fuzz-02189-policies");
        let traffic = report.traffic();
        assert!(traffic.retried() > 1_000);
        assert_eq!(traffic.recovered(), 0, "no retry ever recovers here");
        assert_eq!(traffic.abandoned(), traffic.retried());
        assert!(traffic.unreachable_requests() > 0);
    }

    #[test]
    fn parallel_matches_serial() {
        let serial = run(&Executor::serial(), &mut GridObservation::disabled()).unwrap();
        let threaded = run(&Executor::new(4), &mut GridObservation::disabled()).unwrap();
        assert_eq!(serial, threaded);
    }
}
