//! The paper's evaluation grid, run once for all of its tables and
//! figures, plus the §V extension experiments.
//!
//! A preset is one [`PRESETS`] entry: its command name, help line,
//! `fairswap all` membership and a `run` that calls the typed function
//! below with the preset's fixed arguments, returning its tables with
//! their file names and a printed summary ([`PresetOutput`]). The CLI
//! loops over the table; so do the contract tests (`tests/presets.rs`).
//!
//! | Preset | Typed run | Paper artifact |
//! |--------|-----------|----------------|
//! | `paper` | [`paper::run`] | Table I, Figs. 4–6 and the Gini ablation, from one k × originators grid |
//! | `sweep-files` | [`sweeps::files_convergence`] | §IV-B "100 to 10k files" robustness |
//! | `overhead` | [`sweeps::overhead_vs_k`] | §V overhead: connections & settlements vs `k` |
//! | `bucket0` | [`extensions::bucket_zero`] | §V per-bucket `k` (bucket 0 only) |
//! | `freeride` | [`extensions::free_riding`] | §V misbehaving peers vs F1/F2 |
//! | `caching` | [`extensions::caching`] | §V popularity + caching vs amortization |
//! | `mechanisms` | [`extensions::mechanisms`] | §I/§II baseline-mechanism comparison |
//! | `churn` | [`churn::run`] | §V future work: F1/F2 fairness vs churn rate |
//! | `durability` | [`durability::run`] | repair loop closed: repair mode × churn rate × `k`, fairness of repair traffic |
//! | `scenarios` | [`scenarios::run`] | scripted shocks: targeted departures, flash crowds, regional outages, heterogeneity |
//! | `routing` | [`routing::run`] | policy layer: drop vs capacity-detour routing under heterogeneity |
//! | `cache-churn` | [`cache_churn::run`] | policy layer: cache policy × churn rate (§V caching × the churn axis) |
//! | `fuzzed` | [`fuzzed::run`] | fuzzer gallery: machine-found fairness inversions, replayed verbatim |
//! | `large-scale` | [`large_scale::run`] | scaling: fairness at 10⁵ nodes, 20–24-bit space |
//!
//! Every preset takes an [`ExperimentScale`] so the full paper-scale run
//! (1000 nodes, 10k files) and a laptop-quick run share one code path.
//! Every preset is one function that fans its grid cells out over a
//! [`fairswap_simcore::Executor`] worker pool — with bit-identical output
//! for any thread count, since each cell forks all of its RNG streams from
//! its own config seed (see [`crate::exec`]) — under a
//! [`crate::GridObservation`], which is [`crate::GridObservation::disabled`]
//! for a plain run.
//!
//! A preset returns plain data, and every table it writes is
//! [`crate::CsvTable::from_rows`] of one row struct, whose field order is
//! the column order. The twelve flat tables are a result's `rows`, the
//! three timelines its `timeline`; the paper's views and
//! `sweep_files.csv` flatten their nested data into private row structs
//! first. No table is built by hand.

pub mod cache_churn;
pub mod churn;
pub mod durability;
pub mod extensions;
pub mod fuzzed;
pub mod large_scale;
pub mod paper;
pub mod routing;
pub mod scenarios;
pub mod sweeps;

mod presets;
mod scale;

pub use presets::{Preset, PresetArgs, PresetOutput, PRESETS};
pub use scale::ExperimentScale;

// Each view of the paper grid keeps a shape test under the name of the
// preset it used to be, run on a small grid of its own.
#[cfg(test)]
fn small_grid(files: u64) -> paper::PaperGrid {
    let scale = ExperimentScale {
        nodes: 250,
        files,
        seed: 0xFA12,
    };
    paper::run(
        scale,
        &fairswap_simcore::Executor::serial(),
        &mut crate::GridObservation::disabled(),
    )
    .unwrap()
}

#[cfg(test)]
mod table1 {
    mod tests {
        use crate::experiments::{paper, small_grid, ExperimentScale};
        use crate::GridObservation;
        use fairswap_simcore::Executor;

        #[test]
        fn reproduces_table1_shape() {
            let grid = small_grid(120);
            assert_eq!(grid.cells.len(), 4);
            let mean = |k, fraction| grid.cell(k, fraction).unwrap().mean_forwarded;
            // Paper shape: k = 20 consumes less bandwidth in both columns.
            for fraction in [0.2, 1.0] {
                let (k4, k20) = (mean(4, fraction), mean(20, fraction));
                assert!(k20 < k4, "k20 {k20} !< k4 {k4} at fraction {fraction}");
            }
            let csv = grid.table1_csv().to_csv_string();
            assert!(csv.starts_with("k,originator_fraction"));
            assert_eq!(csv.lines().count(), 5);
        }

        #[test]
        fn parallel_table_is_byte_identical_to_serial() {
            let scale = ExperimentScale {
                nodes: 150,
                files: 40,
                seed: 0xFA12,
            };
            let table = |executor: &Executor| {
                paper::run(scale, executor, &mut GridObservation::disabled())
                    .unwrap()
                    .table1_csv()
                    .to_csv_string()
            };
            assert_eq!(table(&Executor::serial()), table(&Executor::new(4)));
        }
    }
}

#[cfg(test)]
mod fig4 {
    mod tests {
        use crate::experiments::small_grid;

        #[test]
        fn reproduces_fig4_shape() {
            let grid = small_grid(120);
            // k = 4 moves more chunks in both panels (area ratio > 1).
            for fraction in [0.2, 1.0] {
                let ratio = grid.area_ratio(fraction).unwrap();
                assert!(ratio > 1.0, "area ratio {ratio} at fraction {fraction}");
            }
            // Skewed workload distributes bandwidth consumption more unevenly.
            let skew_gini = grid.cell(4, 0.2).unwrap().forwarded_gini;
            let all_gini = grid.cell(4, 1.0).unwrap().forwarded_gini;
            assert!(
                skew_gini > all_gini,
                "forwarded gini skew {skew_gini} !> all {all_gini}"
            );
            assert!(grid.fig4_csv().len() > 8);
        }
    }
}

#[cfg(test)]
mod fig5 {
    mod tests {
        use crate::experiments::small_grid;

        #[test]
        fn reproduces_fig5_shape() {
            let grid = small_grid(150);
            // k = 20 is fairer (lower Gini) in both workload scenarios, so
            // the reduction is positive in both panels.
            for fraction in [0.2, 1.0] {
                let k4 = grid.cell(4, fraction).unwrap().f2_gini;
                let k20 = grid.cell(20, fraction).unwrap().f2_gini;
                assert!(k20 < k4, "F2 gini k20 {k20} !< k4 {k4} at {fraction}");
                assert!(grid.f2_gini_reduction(fraction).unwrap() > 0.0);
            }
            // Lorenz curves end at (1, 1).
            let last = *grid.cell(4, 0.2).unwrap().f2_lorenz.last().unwrap();
            assert!((last.0 - 1.0).abs() < 1e-9 && (last.1 - 1.0).abs() < 1e-9);
            assert!(!grid.fig5_csv().is_empty());
        }
    }
}

#[cfg(test)]
mod fig6 {
    mod tests {
        use crate::experiments::small_grid;

        #[test]
        fn reproduces_fig6_shape() {
            let grid = small_grid(150);
            // k = 20 @ 100% is the fairest cell; k = 4 @ 20% the least fair.
            let best = grid.cell(20, 1.0).unwrap().f1_gini;
            let worst = grid.cell(4, 0.2).unwrap().f1_gini;
            assert!(best < worst, "best {best} !< worst {worst}");
            // k = 20 reduces the F1 Gini in both panels.
            for fraction in [0.2, 1.0] {
                assert!(
                    grid.f1_gini_reduction(fraction).unwrap() > 0.0,
                    "no F1 reduction at fraction {fraction}"
                );
            }
            // Paid population is a subset of all nodes.
            for c in &grid.cells {
                assert!(c.paid_nodes > 0 && c.paid_nodes <= 250);
            }
            assert!(!grid.fig6_csv().is_empty());
        }
    }
}
