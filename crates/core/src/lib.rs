//! Simulation harness and experiment presets.
//!
//! `fairswap-core` assembles the substrates — overlay
//! ([`fairswap_kademlia`]), accounting ([`fairswap_swap`]), storage model
//! ([`fairswap_storage`]), workload ([`fairswap_workload`]), incentive
//! mechanisms ([`fairswap_incentives`]) and fairness metrics
//! ([`fairswap_fairness`]) — into the paper's simulator, and ships the
//! experiment presets: one run of the paper's evaluation grid for all of
//! its tables and figures, plus the §V extensions (see [`experiments`]).
//!
//! Every run starts from a [`SimSpec`]. Beyond the paper's static
//! overlay, a spec can add background churn ([`DynamicsSpec::churn`]) and
//! a scripted [`ScenarioKind`] shock ([`DynamicsSpec::scenario`]):
//! targeted departure of the top earners, flash crowds, regional outages,
//! and per-node bandwidth heterogeneity. Every run — and every experiment
//! grid fanned out over an [`Executor`] — is a pure function of its spec's
//! seed; see `docs/ARCHITECTURE.md` for the determinism rules.
//!
//! ```
//! use fairswap_core::{BucketSizing, SimSpec};
//!
//! let mut spec = SimSpec::paper_defaults();
//! spec.seed = 7;
//! spec.topology.nodes = 200;
//! spec.topology.bucket_sizing = BucketSizing::uniform(4);
//! spec.workload.originator_fraction = 0.2;
//! spec.workload.files = 40;
//! let report = spec.build()?.run();
//! println!("mean forwarded chunks: {}", report.mean_forwarded());
//! println!("F2 gini: {:.3}", report.f2_income_gini());
//! # Ok::<(), fairswap_core::CoreError>(())
//! ```

mod config;
mod csv;
mod error;
mod report;
mod runcsv;
mod scenario;
mod sim;
mod spec;

pub mod exec;
pub mod experiments;
pub mod obs;
pub mod policy;

pub use config::{MechanismKind, SimConfig};
pub use csv::CsvTable;
pub use error::CoreError;
pub use exec::{run_jobs, run_jobs_observed};
pub use obs::{
    EpochSnapshot, GridObservation, NullObserver, ObsOptions, StepObserver, EPOCH_GAUGES,
};
pub use policy::RepairPolicy;
pub use report::{ChurnOutcome, ChurnSample, SimReport};
pub use runcsv::{run_summary_csv, RUN_SUMMARY_FILE};
pub use scenario::ScenarioKind;
pub use sim::BandwidthSim;
pub use spec::{
    DynamicsSpec, EconomicsSpec, PolicySpec, SimSpec, SpecHash, TopologySpec, WorkloadSpec,
};

pub use fairswap_churn::{ChurnConfig, LifetimeDist};
pub use fairswap_kademlia::BucketSizing;
pub use fairswap_obs::{validate_jsonl, Phase, PhaseTimes, TraceStats, KNOWN_KINDS};
pub use fairswap_simcore::Executor;
pub use fairswap_storage::{CachePolicy, RepairSource, RoutePolicy};
