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
//!   same deterministic engine. Worker count and job-table state never
//!   change a result, only when it arrives.
//! - **A job is its spec.** Jobs are keyed by
//!   [`SimSpec::content_hash`](fairswap_core::SimSpec::content_hash)
//!   over the canonical JSON form, and that hash is the job id. A
//!   re-submitted spec (however its JSON was formatted) joins its
//!   existing job — queued, running or finished — instead of re-running,
//!   and a finished job's stream rows are its `/stream` replay. The
//!   [`Scheduler`]'s one job table keeps unfinished jobs and the
//!   `cache_cap` most recently used finished ones, so memory is bounded
//!   however many submits arrive.
//! - **Determinism under concurrency.** The [`Scheduler`]'s `--workers`
//!   worker threads each take the oldest job off its bounded queue as
//!   soon as they are free. Every job derives all randomness from its
//!   own spec, so neither start order nor worker count can change its
//!   bytes.
//!
//! Module map: [`http`] speaks the wire protocol, [`job`] keeps one
//! job's stream rows and outcome under one lock, [`scheduler`] keeps the
//! job table, the queue and the counters under one lock and runs the
//! worker threads, [`server`] binds the socket and routes endpoints, and
//! [`client`] is the matching blocking client.

pub mod client;
pub mod http;
pub mod job;
pub mod scheduler;
pub mod server;

pub use client::{Client, Response};
pub use job::{stream_header, stream_row, Job, JobResult, JobState, StreamRow};
pub use scheduler::{CacheStats, Scheduler, SchedulerOptions, SchedulerStats, SubmitError};
pub use server::{Endpoint, ServeOptions, ServeSummary, Server, ShutdownHandle, ENDPOINTS};
