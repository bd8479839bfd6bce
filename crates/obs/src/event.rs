//! Typed trace events on logical clocks.

use serde::Value;

/// What happened at one point of a simulation, in logical time.
///
/// Kinds mirror the simulator's own vocabulary (membership churn, targeted
/// departures, repair, per-epoch counter snapshots) rather than generic
/// "spans": the set is closed so downstream tooling can validate a trace
/// structurally (see [`crate::validate_jsonl`]).
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Emitted once before the first step with the run's static shape.
    Start {
        /// Nodes in the overlay at build time.
        nodes: u64,
        /// Files (timesteps) the run will simulate.
        files: u64,
        /// Master seed every RNG stream forks from.
        seed: u64,
    },
    /// A node joined (or rejoined) the overlay.
    Join {
        /// The joining node's index.
        node: u64,
    },
    /// A node left the overlay through background churn.
    Leave {
        /// The departing node's index.
        node: u64,
    },
    /// A node was removed by the targeted-departure scenario trigger.
    Targeted {
        /// The removed node's index.
        node: u64,
    },
    /// A departure emptied its storage neighborhood (a lost region; a
    /// departure empties at most its own).
    Repair {
        /// The departed node.
        node: u64,
    },
    /// Per-epoch snapshot marker; the full counter set goes to the metrics
    /// stream, the trace keeps a compact summary for correlation.
    Epoch {
        /// Epoch index (0-based, one per flush stride).
        epoch: u64,
        /// Live nodes at the sample point.
        live: u64,
        /// Cumulative chunk requests issued.
        requests: u64,
        /// Cumulative requests that could not be delivered.
        stuck: u64,
        /// Gini coefficient of the F2 income distribution.
        f2_gini: f64,
    },
    /// A diagnostic warning (e.g. unknown spec fields).
    Warn {
        /// Human-readable warning text.
        message: String,
    },
    /// Emitted once after the last step with final totals.
    End {
        /// Total chunk requests issued.
        requests: u64,
        /// Total requests that could not be delivered.
        stuck: u64,
    },
}

impl EventKind {
    /// The stable string tag used in the JSONL encoding.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::Start { .. } => "start",
            EventKind::Join { .. } => "join",
            EventKind::Leave { .. } => "leave",
            EventKind::Targeted { .. } => "targeted",
            EventKind::Repair { .. } => "repair",
            EventKind::Epoch { .. } => "epoch",
            EventKind::Warn { .. } => "warn",
            EventKind::End { .. } => "end",
        }
    }
}

/// One trace event, addressed by logical coordinates only.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Which `run_jobs` grid (0-based, in CLI invocation order) emitted it.
    pub grid: u32,
    /// The job's index within its grid — the executor's stable merge order.
    pub job: u32,
    /// Simulation timestep (1-based; 0 for pre-run events such as `start`).
    pub step: u64,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Renders the event as one JSON object with a fixed field order:
    /// `grid`, `job`, `step`, `kind`, then kind-specific payload fields.
    pub fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("grid".into(), Value::UInt(u64::from(self.grid))),
            ("job".into(), Value::UInt(u64::from(self.job))),
            ("step".into(), Value::UInt(self.step)),
            ("kind".into(), Value::Str(self.kind.tag().into())),
        ];
        match &self.kind {
            EventKind::Start { nodes, files, seed } => {
                fields.push(("nodes".into(), Value::UInt(*nodes)));
                fields.push(("files".into(), Value::UInt(*files)));
                fields.push(("seed".into(), Value::UInt(*seed)));
            }
            EventKind::Join { node }
            | EventKind::Leave { node }
            | EventKind::Targeted { node }
            | EventKind::Repair { node } => {
                fields.push(("node".into(), Value::UInt(*node)));
            }
            EventKind::Epoch {
                epoch,
                live,
                requests,
                stuck,
                f2_gini,
            } => {
                fields.push(("epoch".into(), Value::UInt(*epoch)));
                fields.push(("live".into(), Value::UInt(*live)));
                fields.push(("requests".into(), Value::UInt(*requests)));
                fields.push(("stuck".into(), Value::UInt(*stuck)));
                fields.push(("f2_gini".into(), Value::Float(*f2_gini)));
            }
            EventKind::Warn { message } => {
                fields.push(("message".into(), Value::Str(message.clone())));
            }
            EventKind::End { requests, stuck } => {
                fields.push(("requests".into(), Value::UInt(*requests)));
                fields.push(("stuck".into(), Value::UInt(*stuck)));
            }
        }
        Value::Object(fields)
    }

    /// Renders the event as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("trace events contain no non-finite floats")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_stable_field_order() {
        let event = TraceEvent {
            grid: 1,
            job: 2,
            step: 3,
            kind: EventKind::Repair { node: 9 },
        };
        assert_eq!(
            event.to_json_line(),
            r#"{"grid":1,"job":2,"step":3,"kind":"repair","node":9}"#
        );
    }

    #[test]
    fn every_kind_serializes() {
        let kinds = vec![
            EventKind::Start {
                nodes: 1,
                files: 2,
                seed: 3,
            },
            EventKind::Join { node: 1 },
            EventKind::Leave { node: 1 },
            EventKind::Targeted { node: 1 },
            EventKind::Repair { node: 1 },
            EventKind::Epoch {
                epoch: 0,
                live: 10,
                requests: 5,
                stuck: 1,
                f2_gini: 0.25,
            },
            EventKind::Warn {
                message: "quoted \"text\"".into(),
            },
            EventKind::End {
                requests: 5,
                stuck: 1,
            },
        ];
        for kind in kinds {
            let tag = kind.tag().to_string();
            let line = TraceEvent {
                grid: 0,
                job: 0,
                step: 0,
                kind,
            }
            .to_json_line();
            assert!(line.contains(&format!("\"kind\":\"{tag}\"")), "{line}");
        }
    }
}
