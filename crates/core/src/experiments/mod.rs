//! One preset per table and figure of the paper's evaluation, plus the §V
//! extension experiments.
//!
//! | Preset | Paper artifact |
//! |--------|----------------|
//! | [`table1::run`] | Table I — average forwarded chunks |
//! | [`fig4::run`] | Fig. 4 — forwarded-chunk distributions |
//! | [`fig5::run`] | Fig. 5 — F2 Lorenz curves and Gini |
//! | [`fig6::run`] | Fig. 6 — F1 Lorenz curves and Gini |
//! | [`sweeps::files_convergence`] | §IV-B "100 to 10k files" robustness |
//! | [`sweeps::overhead_vs_k`] | §V overhead: connections & settlements vs `k` |
//! | [`extensions::bucket_zero`] | §V per-bucket `k` (bucket 0 only) |
//! | [`extensions::free_riding`] | §V misbehaving peers vs F1/F2 |
//! | [`extensions::caching`] | §V popularity + caching vs amortization |
//! | [`extensions::mechanisms`] | §I/§II baseline-mechanism comparison |
//! | [`extensions::metric_robustness`] | ablation: Theil/Atkinson/Hoover vs Gini |
//! | [`churn::run`] | §V future work: F1/F2 fairness vs churn rate |
//! | [`durability::run`] | repair loop closed: repair mode × churn rate × `k`, fairness of repair traffic |
//! | [`large_scale::run`] | scaling: fairness at 10⁵ nodes, 20–24-bit space |
//! | [`scenarios::run`] | scripted shocks: targeted departures, flash crowds, regional outages, heterogeneity |
//! | [`routing::run`] | policy layer: drop vs capacity-detour routing under heterogeneity |
//! | [`cache_churn::run`] | policy layer: cache policy × churn rate (§V caching × the churn axis) |
//! | [`fuzzed::run`] | fuzzer gallery: machine-found fairness inversions, replayed verbatim |
//!
//! Every preset takes an [`ExperimentScale`] so the full paper-scale run
//! (1000 nodes, 10k files) and a laptop-quick run share one code path.
//! Every preset is one function that fans its grid cells out over a
//! [`fairswap_simcore::Executor`] worker pool — with bit-identical output
//! for any thread count, since each cell forks all of its RNG streams from
//! its own config seed (see [`crate::exec`]) — under a
//! [`crate::GridObservation`], which is [`crate::GridObservation::disabled`]
//! for a plain run.

pub mod cache_churn;
pub mod churn;
pub mod durability;
pub mod extensions;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fuzzed;
pub mod large_scale;
pub mod routing;
pub mod scenarios;
pub mod sweeps;
pub mod table1;

mod scale;

pub use scale::ExperimentScale;
