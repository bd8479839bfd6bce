//! Substrate shared by every simulation layer: deterministic RNG streams
//! and the experiment-grid worker pool.
//!
//! The simulation itself — one file download per timestep, routed and
//! accounted — lives in `fairswap_core::BandwidthSim`. This crate holds
//! the machinery beneath it that the other crates share:
//!
//! * [`Executor`] — a scoped-thread worker pool with stable-order merge,
//!   behind every parallel experiment grid;
//! * [`rng`] — the domain-separated sub-seed derivation
//!   ([`rng::sub_seed`]) that lets every concern fork an independent
//!   stream off one master seed.
//!
//! Scripted membership events are `fairswap_churn::ChurnEvent`s, the same
//! type statistical churn produces; scenario compilation lives in
//! `fairswap_core::scenario`.
//!
//! ```
//! use fairswap_simcore::rng::{domain, sub_seed};
//! use fairswap_simcore::Executor;
//!
//! // Each cell forks its stream off its own seed, so the merged result
//! // is the same for any thread count.
//! let cells: Vec<u64> = (0..8).collect();
//! let seeds = |threads| {
//!     Executor::new(threads).run(cells.clone(), |_, seed| sub_seed(seed, domain::WORKLOAD))
//! };
//! assert_eq!(seeds(1), seeds(4));
//! ```

mod executor;
pub mod rng;

pub use executor::{Executor, Progress};
pub use rng::{derive_rng, SimRng};
