//! Parallel execution of experiment grids.
//!
//! Every experiment preset expresses its sweep as a `Vec<SimSpec>` — one
//! fully-specified run per cell — and hands it to
//! [`run_jobs_observed`], which fans the cells out over a
//! [`fairswap_simcore::Executor`] worker pool and returns the
//! [`SimReport`]s **in cell order**. Because every
//! cell's randomness is derived from its own spec seed (topology,
//! workload, churn and free-rider streams are all forked per cell, never
//! shared), the merged output is bit-identical for any thread count: a
//! `--threads 8` sweep produces byte-for-byte the CSVs of a serial run.
//!
//! Progress is aggregated across cells in units of simulation timesteps
//! (one file download each), which is what the CLI renders as a single
//! live progress line for a whole multi-core sweep.

use fairswap_obs::Phase;
use fairswap_simcore::Executor;

use crate::error::CoreError;
use crate::obs::{GridObservation, NullObserver, ObsCollector, StepObserver};
use crate::report::SimReport;
use crate::spec::SimSpec;

/// Builds and runs one grid cell with `obs` wired into its step loop,
/// reporting each completed timestep through `on_step`. When the observer
/// profiles, topology build time is attributed to the
/// [`Phase::TopologyBuild`] phase.
fn run_cell<O: StepObserver>(
    spec: &SimSpec,
    obs: &mut O,
    mut on_step: impl FnMut(),
) -> Result<SimReport, CoreError> {
    let build_start = obs.profiling().then(std::time::Instant::now);
    let sim = spec.build()?;
    if let Some(start) = build_start {
        obs.add_phase(Phase::TopologyBuild, start.elapsed().as_nanos() as u64);
    }
    Ok(sim.run_observed(|_, _| on_step(), obs))
}

/// Timesteps a grid contributes to its progress total: one per file.
fn total_steps(jobs: &[SimSpec]) -> u64 {
    jobs.iter().map(|spec| spec.workload.files).sum()
}

/// Runs a grid of cells on the executor and merges the reports in stable
/// cell order — [`run_jobs_observed`] with observation off.
///
/// # Errors
///
/// If any cell's spec is invalid, the first failing cell's
/// [`CoreError`] (in cell order) is returned; other cells may still have
/// run.
pub fn run_jobs(executor: &Executor, jobs: Vec<SimSpec>) -> Result<Vec<SimReport>, CoreError> {
    run_jobs_observed(executor, jobs, &mut GridObservation::disabled())
}

/// Runs a grid under a [`GridObservation`]: progress flows to the
/// observation's meter, and — when any collection is enabled — each cell
/// runs with its own [`ObsCollector`], merged back **in stable cell order**
/// regardless of which worker thread ran it. That stable merge is what
/// makes a rendered trace byte-identical for any `--threads N`.
///
/// With collection disabled, cells run with the `NullObserver`
/// monomorphization, i.e. the plain hot path.
///
/// # Errors
///
/// See [`run_jobs`]. On error, collectors of cells that already finished
/// are kept (the trace is partial, the error is what matters).
pub fn run_jobs_observed(
    executor: &Executor,
    jobs: Vec<SimSpec>,
    obs: &mut GridObservation,
) -> Result<Vec<SimReport>, CoreError> {
    if obs.opts().collecting() {
        return run_jobs_observing(
            executor,
            jobs,
            obs,
            |collector| collector.expect("collection is on"),
            |report, collector| (report, Some(collector)),
        );
    }
    let total_steps = total_steps(&jobs);
    obs.next_grid();
    let meter = obs.meter();
    executor
        .run_with_progress(
            jobs,
            total_steps,
            |done, total| meter.notify(done, total),
            |_, spec, progress| run_cell(&spec, &mut NullObserver, || progress.advance(1)),
        )
        .into_iter()
        .collect()
}

/// The grid runner behind [`run_jobs_observed`] for callers that need
/// their own per-cell observer: `observer` wraps the cell's
/// [`ObsCollector`] (`None` when collection is off), and `finish` turns
/// the cell's report and observer into its result plus the collector to
/// merge. Collectors merge in stable cell order, as in
/// [`run_jobs_observed`].
pub(crate) fn run_jobs_observing<O, T>(
    executor: &Executor,
    jobs: Vec<SimSpec>,
    obs: &mut GridObservation,
    observer: impl Fn(Option<ObsCollector>) -> O + Sync,
    finish: impl Fn(SimReport, O) -> (T, Option<ObsCollector>) + Sync,
) -> Result<Vec<T>, CoreError>
where
    O: StepObserver,
    T: Send,
{
    let total_steps = total_steps(&jobs);
    let opts = obs.opts();
    let grid = obs.next_grid();
    let meter = obs.meter();
    let results: Vec<Result<(T, Option<ObsCollector>), CoreError>> = executor.run_with_progress(
        jobs,
        total_steps,
        |done, total| meter.notify(done, total),
        |index, spec, progress| {
            let collector = opts
                .collecting()
                .then(|| ObsCollector::new(grid, index as u32, opts));
            let mut cell_observer = observer(collector);
            run_cell(&spec, &mut cell_observer, || progress.advance(1))
                .map(|report| finish(report, cell_observer))
        },
    );
    let mut outputs = Vec::with_capacity(results.len());
    let mut first_error = None;
    for result in results {
        match result {
            Ok((output, collector)) => {
                if let Some(collector) = collector {
                    obs.push_collector(collector);
                }
                outputs.push(output);
            }
            Err(error) => {
                first_error.get_or_insert(error);
            }
        }
    }
    match first_error {
        Some(error) => Err(error),
        None => Ok(outputs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn grid() -> Vec<SimSpec> {
        [(4usize, 0.2f64), (4, 1.0), (20, 0.2), (20, 1.0)]
            .into_iter()
            .map(|(k, fraction)| {
                let mut spec = SimSpec::paper_defaults();
                spec.topology.nodes = 120;
                spec.topology.bucket_sizing = fairswap_kademlia::BucketSizing::uniform(k);
                spec.workload.files = 20;
                spec.workload.originator_fraction = fraction;
                spec
            })
            .collect()
    }

    #[test]
    fn reports_and_configs_cross_threads() {
        fn assert_send<T: Send>() {}
        assert_send::<SimSpec>();
        assert_send::<Result<SimReport, CoreError>>();
    }

    #[test]
    fn parallel_grid_matches_serial_grid() {
        let serial = run_jobs(&Executor::serial(), grid()).unwrap();
        let parallel = run_jobs(&Executor::new(8), grid()).unwrap();
        assert_eq!(serial.len(), 4);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.traffic().forwarded(), b.traffic().forwarded());
            assert_eq!(a.incomes(), b.incomes());
            assert_eq!(a.settlement_count(), b.settlement_count());
        }
    }

    #[test]
    fn progress_covers_every_timestep() {
        let jobs = grid();
        let total = total_steps(&jobs);
        let seen = AtomicU64::new(0);
        Executor::new(2).run_with_progress(
            jobs,
            total,
            |done, grid_total| {
                assert_eq!(grid_total, total);
                assert!(done <= grid_total);
                seen.fetch_add(1, Ordering::Relaxed);
            },
            |_, spec, progress| run_cell(&spec, &mut NullObserver, || progress.advance(1)).unwrap(),
        );
        assert_eq!(seen.load(Ordering::Relaxed), total);
    }

    #[test]
    fn first_invalid_cell_errors() {
        let mut bad = SimSpec::paper_defaults();
        bad.workload.files = 0;
        let jobs = vec![bad];
        assert!(matches!(
            run_jobs(&Executor::serial(), jobs),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn job_accessors() {
        // A grid cell is its spec: it contributes one progress step per
        // file.
        let job = SimSpec::paper_defaults();
        assert_eq!(total_steps(&[job.clone(), job.clone()]), 20_000);
        assert_eq!(job.topology.nodes, 1000);
    }
}
