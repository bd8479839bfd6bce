//! `fairswap serve` — a long-lived simulation service.
//!
//! The batch CLI runs one spec and exits; this crate keeps the simulator
//! resident behind a small hand-rolled HTTP/1.1 interface so that many
//! specs can be scheduled, deduplicated, and streamed without paying
//! process startup per run. Three properties are load-bearing:
//!
//! - **Byte-identity with the batch path.** A spec submitted over HTTP
//!   produces exactly the CSV bytes `fairswap run --config` writes,
//!   because both paths call [`fairswap_core::run_summary_csv`] on the
//!   same deterministic engine. Worker count and cache state never
//!   change a result, only when it arrives.
//! - **Content-addressed caching.** Jobs are keyed by
//!   [`SimSpec::content_hash`](fairswap_core::SimSpec::content_hash)
//!   over the canonical JSON form, so a re-submitted spec (however its
//!   JSON was formatted) is answered from the [`ReportCache`] without a
//!   re-run — including an identical `/stream` replay.
//! - **Determinism under concurrency.** The [`Scheduler`] drains its
//!   bounded queue in batches onto the existing
//!   [`simcore::Executor`](fairswap_core::Executor), whose stable
//!   job-order merge keeps results independent of `--workers`.
//!
//! Module map: [`http`] speaks the wire protocol, [`job`] tracks one
//! submission's lifecycle and row log, [`cache`] is the spec-hash LRU,
//! [`scheduler`] owns the queue and worker fan-out, [`server`] binds the
//! socket and routes endpoints, and [`client`] is the matching blocking
//! client.

pub mod cache;
pub mod client;
pub mod http;
pub mod job;
pub mod scheduler;
pub mod server;

pub use cache::{CacheStats, ReportCache};
pub use client::{Client, Response};
pub use job::{
    stream_header, stream_row, Job, JobId, JobResult, JobState, RowLog, RowObserver, STREAM_COLUMNS,
};
pub use scheduler::{Scheduler, SchedulerOptions, SchedulerStats, SubmitError};
pub use server::{ServeOptions, ServeSummary, Server, ShutdownHandle};
