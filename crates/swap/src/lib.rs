//! SWAP — the Swarm Accounting Protocol (paper §III-B, reference \[20\]).
//!
//! SWAP is the heart of Swarm's bandwidth incentives: every pair of connected
//! peers keeps a relative balance of *accounting units* for the bandwidth
//! service they provided to and consumed from each other. Within balance
//! limits the protocol enables service-for-service exchange; when the debt of
//! one side reaches a threshold the pair either settles in BZZ (a cheque
//! against the debtor's chequebook) or stops serving. Balances additionally
//! gravitate to zero over time (*time-based amortization*), which is how
//! Swarm hands out a limited amount of free bandwidth per connection and
//! time unit.
//!
//! This crate provides:
//!
//! * strongly-typed token quantities ([`AccountingUnits`], [`Bzz`]),
//! * proximity-based request [`Pricing`] (closer chunks are cheaper),
//! * pairwise [`Channel`]s with payment/disconnect thresholds,
//! * [`Amortization`] of balances toward zero,
//! * a [`Chequebook`]/[`SettlementLedger`] totalling BZZ settlements and
//!   their per-transaction cost (used by the paper's §V overhead analysis),
//! * and a [`SwapNetwork`] managing every channel of an overlay.
//!
//! ```
//! use fairswap_swap::{ChannelConfig, SwapNetwork, AccountingUnits};
//! use fairswap_kademlia::NodeId;
//!
//! let mut net = SwapNetwork::new(10, ChannelConfig::default());
//! // Node 1 serves node 0 bandwidth worth 30 units.
//! net.record_service(NodeId(0), NodeId(1), AccountingUnits(30))?;
//! assert_eq!(net.debt(NodeId(0), NodeId(1)), AccountingUnits(30));
//! // Time passes; the debt amortizes toward zero.
//! net.tick();
//! assert!(net.debt(NodeId(0), NodeId(1)) < AccountingUnits(30));
//! # Ok::<(), fairswap_swap::SwapError>(())
//! ```

mod amortization;
mod channel;
mod cheque;
mod error;
mod network;
mod pricing;
mod units;

pub use amortization::Amortization;
pub use channel::{BalanceOutcome, Channel, ChannelConfig};
pub use cheque::{Cheque, Chequebook, Settlement, SettlementLedger};
pub use error::SwapError;
pub use network::SwapNetwork;
pub use pricing::Pricing;
pub use units::{AccountingUnits, Bzz};
