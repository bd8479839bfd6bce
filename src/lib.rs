//! # fairswap
//!
//! A from-scratch Rust reproduction of *“Fair Incentivization of Bandwidth
//! Sharing in Decentralized Storage Networks”* (ICDCS 2022,
//! arXiv:2208.07067).
//!
//! The paper studies the bandwidth incentives of the
//! [Swarm](https://www.ethswarm.org) storage network — the SWAP accounting
//! protocol running on top of a forwarding-Kademlia overlay — and evaluates
//! the *fairness* of the resulting reward distribution using the Gini
//! coefficient and Lorenz curves. Its headline finding: increasing the
//! Kademlia bucket size `k` from Swarm's default 4 to Kademlia's classic 20
//! makes rewards measurably fairer, especially under skewed workloads.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`kademlia`] — overlay addresses, XOR metric, routing tables,
//!   forwarding-Kademlia greedy routing.
//! * [`swap`] — the Swarm Accounting Protocol: pairwise balances,
//!   thresholds, time-based amortization, cheque settlement, pricing.
//! * [`simcore`] — the simulation substrate: deterministic RNG stream
//!   derivation and the experiment-grid `Executor`.
//! * [`storage`] — the storage-network model: chunks, closest-node
//!   placement, download routing, caching.
//! * [`workload`] — file-download workload generators (uniform and Zipf).
//! * [`fairness`] — Gini coefficient, Lorenz curves and the paper's F1/F2
//!   fairness properties.
//! * [`incentives`] — the Swarm bandwidth incentive plus baselines
//!   (tit-for-tat, effort-based, pay-all-hops, proof-of-bandwidth).
//! * [`churn`] — dynamic overlay membership: session/downtime lifetime
//!   distributions, deterministic join/leave event plans, and their
//!   composition with a scenario's scripted events.
//! * [`core`] — the simulation engine (`BandwidthSim`) and one preset per
//!   paper table/figure, plus the fairness-under-churn experiment.
//! * [`fuzz`] — coverage-guided scenario fuzzing: `SimSpec` mutation,
//!   metric-grid novelty feedback and invariant oracles behind
//!   `fairswap fuzz`.
//! * [`serve`] — the long-lived simulation service behind
//!   `fairswap serve`: a hand-rolled HTTP/1.1 daemon with job
//!   scheduling, a job table keyed by spec hash and live epoch streaming.
//!
//! ## Quickstart
//!
//! ```
//! use fairswap::core::SimSpec;
//!
//! // A small instance of the paper's headline experiment (k = 4, 20%
//! // originators); every field not set here keeps its paper default.
//! let mut spec = SimSpec::paper_defaults();
//! spec.topology.nodes = 200;
//! spec.workload.originator_fraction = 0.2;
//! spec.workload.files = 50;
//! let report = spec.build().expect("valid configuration").run();
//!
//! let f2 = report.f2_income_gini();
//! assert!((0.0..=1.0).contains(&f2));
//! ```

pub use fairswap_churn as churn;
pub use fairswap_core as core;
pub use fairswap_fairness as fairness;
pub use fairswap_fuzz as fuzz;
pub use fairswap_incentives as incentives;
pub use fairswap_kademlia as kademlia;
pub use fairswap_serve as serve;
pub use fairswap_simcore as simcore;
pub use fairswap_storage as storage;
pub use fairswap_swap as swap;
pub use fairswap_workload as workload;
