//! Dynamic overlay membership for churn experiments.
//!
//! The paper evaluates SWAP fairness on a **static** overlay and flags
//! dynamic networks as future work (§V). This crate models the missing
//! axis: node sessions and inter-session downtimes drawn from configurable
//! [`LifetimeDist`]s (exponential or Weibull, the two standard choices in
//! the P2P churn literature), compiled into a [`ChurnPlan`] — a
//! deterministic, seeded stream of [`ChurnEvent`]s (`Join`/`Leave`)
//! scheduled against simulation steps. The same `(nodes, steps, config,
//! seed)` always replays the identical plan, preserving the paper's
//! fixed-seed methodology under dynamic membership.
//!
//! Beyond statistical churn, [`ChurnPlan::compose`] merges a base stream
//! (usually a generated plan's events) with *scripted* [`ChurnEvent`]s —
//! flash crowds, regional outages and other correlated shocks that
//! `fairswap_core`'s scenario compiler emits — and re-sweeps the combined
//! stream so the result stays replayable (a node leaves only while live,
//! joins only while down). Generation and composition share that one
//! sweep.
//!
//! ```
//! use fairswap_churn::{ChurnConfig, ChurnPlan};
//!
//! let config = ChurnConfig::from_rate(0.05)?; // ~5% of nodes leave per step
//! let plan = ChurnPlan::generate(100, 500, &config, 0xFA12)?;
//! assert_eq!(plan, ChurnPlan::generate(100, 500, &config, 0xFA12)?);
//! assert!(plan.leave_count() > 0);
//! # Ok::<(), fairswap_churn::ChurnError>(())
//! ```

mod config;
mod lifetime;
mod plan;

pub use config::{ChurnConfig, ChurnError};
pub use lifetime::LifetimeDist;
pub use plan::{ChurnEvent, ChurnEventKind, ChurnPlan};
