//! Wall-clock phase profiling.
//!
//! The one deliberately non-deterministic corner of the crate: phase timings
//! are real elapsed nanoseconds. They never enter trace or metrics streams
//! (which must stay byte-identical across runs) — they surface only through
//! the CLI `--profile` breakdown.

/// A coarse stage of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Building the overlay topology and workload.
    TopologyBuild,
    /// The simulation step loop (excluding settlement ticks).
    SimSteps,
    /// SWAP settlement: amortization ticks and departure settlements.
    Settlement,
    /// Fairness computation and report assembly.
    Fairness,
    /// Rendering and writing CSV artifacts.
    CsvEmit,
}

/// Every phase, in display order.
pub const PHASES: [Phase; 5] = [
    Phase::TopologyBuild,
    Phase::SimSteps,
    Phase::Settlement,
    Phase::Fairness,
    Phase::CsvEmit,
];

impl Phase {
    /// A stable snake_case identifier, used in JSON artifacts.
    pub fn id(&self) -> &'static str {
        match self {
            Phase::TopologyBuild => "topology_build",
            Phase::SimSteps => "sim_steps",
            Phase::Settlement => "settlement",
            Phase::Fairness => "fairness",
            Phase::CsvEmit => "csv_emit",
        }
    }

    fn index(&self) -> usize {
        *self as usize
    }
}

/// Accumulated wall time per phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    nanos: [u64; 5],
}

impl PhaseTimes {
    /// All-zero timings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `nanos` to a phase.
    pub fn add(&mut self, phase: Phase, nanos: u64) {
        self.nanos[phase.index()] += nanos;
    }

    /// Accumulated nanoseconds for a phase.
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Total nanoseconds across all phases.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Merges another accumulator into this one (summing per phase) —
    /// how per-job timings combine into a grid-wide breakdown.
    pub fn merge(&mut self, other: &PhaseTimes) {
        for (a, b) in self.nanos.iter_mut().zip(&other.nanos) {
            *a += b;
        }
    }

    /// Renders a human-readable breakdown, one line per phase with its
    /// share of the total.
    pub fn render(&self) -> String {
        let total = self.total_nanos().max(1) as f64;
        let mut out = String::new();
        for phase in PHASES {
            let nanos = self.nanos(phase);
            out.push_str(&format!(
                "  {:<16} {:>10.1} ms  ({:>5.1}%)\n",
                phase.id(),
                nanos as f64 / 1e6,
                nanos as f64 / total * 100.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_and_merge() {
        let mut a = PhaseTimes::new();
        a.add(Phase::SimSteps, 100);
        a.add(Phase::SimSteps, 50);
        a.add(Phase::Settlement, 25);
        let mut b = PhaseTimes::new();
        b.add(Phase::SimSteps, 10);
        a.merge(&b);
        assert_eq!(a.nanos(Phase::SimSteps), 160);
        assert_eq!(a.nanos(Phase::Settlement), 25);
        assert_eq!(a.total_nanos(), 185);
    }

    #[test]
    fn render_covers_every_phase() {
        let mut t = PhaseTimes::new();
        t.add(Phase::TopologyBuild, 2_000_000);
        let rendered = t.render();
        for phase in PHASES {
            assert!(rendered.contains(phase.id()), "{rendered}");
        }
        assert!(rendered.contains("100.0%"), "{rendered}");
    }
}
