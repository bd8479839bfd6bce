//! JSONL trace rendering and structural validation.

use serde::Value;

use crate::ring::EventRing;

/// Renders per-job rings as one JSONL document.
///
/// `rings` pairs each ring with its `(grid, job)` coordinates and must
/// already be in stable order — the executor layer guarantees that by
/// merging collectors in job order. Each ring contributes its events
/// oldest-first followed by one `trace-summary` line carrying the ring's
/// event and drop counts, so truncation is always visible in the artifact
/// itself.
pub fn write_jsonl(rings: &[(u32, u32, &EventRing)]) -> String {
    let mut out = String::new();
    for &(grid, job, ring) in rings {
        for event in ring.iter() {
            out.push_str(&event.to_json_line());
            out.push('\n');
        }
        let summary = Value::Object(vec![
            ("grid".into(), Value::UInt(u64::from(grid))),
            ("job".into(), Value::UInt(u64::from(job))),
            ("kind".into(), Value::Str("trace-summary".into())),
            ("events".into(), Value::UInt(ring.len() as u64)),
            ("dropped".into(), Value::UInt(ring.dropped())),
        ]);
        out.push_str(&serde_json::to_string(&summary).expect("summary is finite"));
        out.push('\n');
    }
    out
}

/// Aggregate facts about a validated trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// JSONL lines in the document (including summaries).
    pub lines: usize,
    /// Trace events (excluding summaries).
    pub events: usize,
    /// Distinct `(grid, job)` pairs seen.
    pub jobs: usize,
    /// Events evicted from rings, summed over all job summaries.
    pub dropped: u64,
}

/// Every `kind` tag [`validate_jsonl`] accepts, in the order
/// `docs/OBSERVABILITY.md` documents them.
pub const KNOWN_KINDS: &[&str] = &[
    "start",
    "join",
    "leave",
    "targeted",
    "repair",
    "epoch",
    "warn",
    "end",
    "trace-summary",
];

/// Validates a JSONL trace document structurally.
///
/// Checks that every line is a JSON object with `grid`, `job` and `kind`
/// fields, that the kind tag is known, that non-summary lines carry a
/// `step`, and that steps are monotone non-decreasing within each
/// `(grid, job)` stream. This is the CI trace-smoke contract: it catches
/// schema drift without pinning exact event contents.
///
/// # Errors
///
/// Returns a message naming the first offending line (1-based).
pub fn validate_jsonl(text: &str) -> Result<TraceStats, String> {
    let mut stats = TraceStats {
        lines: 0,
        events: 0,
        jobs: 0,
        dropped: 0,
    };
    // (grid, job) -> last step seen.
    let mut last_step: Vec<((u64, u64), u64)> = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let lineno = index + 1;
        stats.lines += 1;
        let value: Value = serde_json::from_str(line)
            .map_err(|e| format!("line {lineno}: not valid JSON: {e}"))?;
        let fields = value
            .as_object()
            .ok_or_else(|| format!("line {lineno}: not a JSON object"))?;
        let grid = uint_field(fields, "grid")
            .ok_or_else(|| format!("line {lineno}: missing integer `grid`"))?;
        let job = uint_field(fields, "job")
            .ok_or_else(|| format!("line {lineno}: missing integer `job`"))?;
        let kind = str_field(fields, "kind")
            .ok_or_else(|| format!("line {lineno}: missing string `kind`"))?;
        if !KNOWN_KINDS.contains(&kind) {
            return Err(format!("line {lineno}: unknown kind `{kind}`"));
        }
        if kind == "trace-summary" {
            stats.jobs += 1;
            stats.dropped += uint_field(fields, "dropped")
                .ok_or_else(|| format!("line {lineno}: summary missing `dropped`"))?;
            continue;
        }
        stats.events += 1;
        let step = uint_field(fields, "step")
            .ok_or_else(|| format!("line {lineno}: missing integer `step`"))?;
        let key = (grid, job);
        match last_step.iter_mut().find(|(k, _)| *k == key) {
            Some((_, last)) => {
                if step < *last {
                    return Err(format!(
                        "line {lineno}: step {step} goes backwards (job {job} was at {last})"
                    ));
                }
                *last = step;
            }
            None => last_step.push((key, step)),
        }
    }
    Ok(stats)
}

fn uint_field(fields: &[(String, Value)], name: &str) -> Option<u64> {
    fields
        .iter()
        .find(|(k, _)| k == name)
        .and_then(|(_, v)| match v {
            Value::UInt(v) => Some(*v),
            Value::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        })
}

fn str_field<'v>(fields: &'v [(String, Value)], name: &str) -> Option<&'v str> {
    fields
        .iter()
        .find(|(k, _)| k == name)
        .and_then(|(_, v)| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, TraceEvent};

    fn ring_with(steps: &[u64]) -> EventRing {
        let mut ring = EventRing::new(64);
        for &step in steps {
            ring.push(TraceEvent {
                grid: 0,
                job: 0,
                step,
                kind: EventKind::Leave { node: step },
            });
        }
        ring
    }

    #[test]
    fn written_traces_validate() {
        let ring = ring_with(&[1, 2, 2, 5]);
        let text = write_jsonl(&[(0, 0, &ring)]);
        let stats = validate_jsonl(&text).unwrap();
        assert_eq!(stats.lines, 5);
        assert_eq!(stats.events, 4);
        assert_eq!(stats.jobs, 1);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn empty_ring_still_writes_a_summary() {
        let ring = EventRing::new(8);
        let text = write_jsonl(&[(0, 3, &ring)]);
        assert!(text.contains("\"job\":3"));
        let stats = validate_jsonl(&text).unwrap();
        assert_eq!(stats.lines, 1);
        assert_eq!(stats.events, 0);
        assert_eq!(stats.jobs, 1);
    }

    #[test]
    fn backwards_steps_rejected() {
        let ring = ring_with(&[5, 3]);
        let err = validate_jsonl(&write_jsonl(&[(0, 0, &ring)])).unwrap_err();
        assert!(err.contains("goes backwards"), "{err}");
    }

    #[test]
    fn garbage_rejected() {
        assert!(validate_jsonl("not json\n").is_err());
        assert!(validate_jsonl("{\"grid\":0}\n").is_err());
        assert!(
            validate_jsonl("{\"grid\":0,\"job\":0,\"kind\":\"mystery\",\"step\":1}\n").is_err()
        );
    }

    #[test]
    fn drop_counts_aggregate() {
        let mut ring = EventRing::new(2);
        for step in 1..=5 {
            ring.push(TraceEvent {
                grid: 0,
                job: 0,
                step,
                kind: EventKind::Join { node: step },
            });
        }
        let stats = validate_jsonl(&write_jsonl(&[(0, 0, &ring)])).unwrap();
        assert_eq!(stats.dropped, 3);
        assert_eq!(stats.events, 2);
    }
}
