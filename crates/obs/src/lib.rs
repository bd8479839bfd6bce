//! Deterministic observability primitives: structured trace events,
//! metrics rows, and a phase profiler.
//!
//! Everything in this crate is clocked **logically** — epoch, step, grid and
//! job indices — never by wall time on the data path. That is what lets a
//! trace or metrics stream be byte-identical between a serial run and a
//! `--threads N` run: events are collected per job into bounded
//! [ring buffers](EventRing) and the caller (the executor layer in
//! `fairswap_core`) concatenates them in stable job order, so scheduling can
//! never leak into the output. The only place wall time appears is the
//! [phase profiler](PhaseTimes), whose output feeds `--profile` breakdowns
//! that are never byte-compared.
//!
//! The crate is deliberately free of simulation types: `fairswap_core`
//! adapts its simulation state into [`TraceEvent`]s and metrics rows.
//!
//! ```
//! use fairswap_obs::{EventKind, EventRing, TraceEvent};
//!
//! let mut ring = EventRing::new(4);
//! ring.push(TraceEvent {
//!     grid: 0,
//!     job: 0,
//!     step: 1,
//!     kind: EventKind::Join { node: 7 },
//! });
//! assert_eq!(ring.len(), 1);
//! assert_eq!(ring.dropped(), 0);
//! ```

mod event;
mod logger;
mod metrics;
mod profile;
mod progress;
mod ring;
mod trace;

pub use event::{EventKind, TraceEvent};
pub use logger::warn;
pub use metrics::{LogHistogram, MetricsFlush, METRICS_CSV_HEADER};
pub use profile::{Phase, PhaseTimes, PHASES};
pub use progress::ProgressMeter;
pub use ring::EventRing;
pub use trace::{validate_jsonl, write_jsonl, TraceStats, KNOWN_KINDS};
