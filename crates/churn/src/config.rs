//! Churn configuration and errors.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::lifetime::LifetimeDist;

/// Errors from churn configuration or plan generation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ChurnError {
    /// A lifetime distribution with non-positive or non-finite parameters.
    InvalidLifetime {
        /// The rejected distribution.
        dist: LifetimeDist,
    },
    /// A churn rate outside `(0, 1]`.
    InvalidRate {
        /// The rejected rate.
        rate: f64,
    },
    /// A live floor outside `(0, 1]`.
    InvalidFloor {
        /// The rejected floor fraction.
        fraction: f64,
    },
    /// A plan over fewer than two nodes or zero steps.
    EmptyPlan,
    /// A scripted composition whose initial-live vector does not cover the
    /// plan's node slots.
    InvalidInitialLive {
        /// Node slots the plan covers.
        expected: usize,
        /// Length of the provided initial-live vector.
        got: usize,
    },
    /// A scripted event referencing a node outside the plan's slots.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// Node slots the plan covers.
        nodes: usize,
    },
}

impl fmt::Display for ChurnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidLifetime { dist } => {
                write!(f, "lifetime distribution has invalid parameters: {dist:?}")
            }
            Self::InvalidRate { rate } => {
                write!(f, "churn rate must be in (0, 1], got {rate}")
            }
            Self::InvalidFloor { fraction } => {
                write!(f, "live floor must be in (0, 1], got {fraction}")
            }
            Self::EmptyPlan => write!(f, "churn plans need at least two nodes and one step"),
            Self::InvalidInitialLive { expected, got } => {
                write!(
                    f,
                    "initial-live vector covers {got} slots, plan has {expected}"
                )
            }
            Self::NodeOutOfRange { node, nodes } => {
                write!(f, "scripted event references node {node} of {nodes}")
            }
        }
    }
}

impl Error for ChurnError {}

/// Full churn model configuration.
///
/// A node alternates between *sessions* (up) and *inter-sessions* (down),
/// each drawn from its distribution. [`ChurnConfig::from_rate`] is the
/// common entry point: a single `rate` knob meaning "this expected fraction
/// of live nodes departs per simulation step".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Up-time distribution (steps).
    pub session: LifetimeDist,
    /// Down-time distribution (steps).
    pub downtime: LifetimeDist,
    /// First step at which churn events may fire (steps before it replay
    /// the static topology; defaults to 1 = churn from the start).
    pub start_step: u64,
    /// Fraction of the population that must always stay live; `Leave`
    /// events that would cross the floor are suppressed. Keeps routing
    /// meaningful under extreme rates.
    pub min_live_fraction: f64,
}

impl ChurnConfig {
    /// Builds the canonical rate-parameterized configuration: exponential
    /// sessions with mean `1 / rate` steps and exponential downtimes with a
    /// third of that mean (≈75% steady-state availability), churn active
    /// from the first step, and a 25% live floor.
    ///
    /// # Errors
    ///
    /// Returns [`ChurnError::InvalidRate`] unless `0 < rate <= 1`.
    pub fn from_rate(rate: f64) -> Result<Self, ChurnError> {
        if !(rate.is_finite() && rate > 0.0 && rate <= 1.0) {
            return Err(ChurnError::InvalidRate { rate });
        }
        Ok(Self::from_rate_unchecked(rate))
    }

    /// Like [`ChurnConfig::from_rate`] but defers validation: invalid rates
    /// yield a config whose [`ChurnConfig::validate`] fails. Lets builders
    /// accept a raw rate and report the error at their own validation
    /// point.
    pub fn from_rate_unchecked(rate: f64) -> Self {
        let mean_session = 1.0 / rate;
        Self {
            session: LifetimeDist::Exponential { mean: mean_session },
            downtime: LifetimeDist::Exponential {
                mean: mean_session / 3.0,
            },
            start_step: 1,
            min_live_fraction: 0.25,
        }
    }

    /// Replaces the session distribution.
    #[must_use]
    pub fn with_session(mut self, session: LifetimeDist) -> Self {
        self.session = session;
        self
    }

    /// Replaces the downtime distribution.
    #[must_use]
    pub fn with_downtime(mut self, downtime: LifetimeDist) -> Self {
        self.downtime = downtime;
        self
    }

    /// Delays churn until `step`.
    #[must_use]
    pub fn with_start_step(mut self, step: u64) -> Self {
        self.start_step = step;
        self
    }

    /// Overrides the live floor.
    #[must_use]
    pub fn with_min_live_fraction(mut self, fraction: f64) -> Self {
        self.min_live_fraction = fraction;
        self
    }

    /// The long-run expected fraction of time a node spends live.
    pub fn availability(&self) -> f64 {
        let up = self.session.mean();
        let down = self.downtime.mean();
        up / (up + down)
    }

    /// Checks all parameters.
    ///
    /// # Errors
    ///
    /// Returns the first invalid parameter found.
    pub fn validate(&self) -> Result<(), ChurnError> {
        self.session.validate()?;
        self.downtime.validate()?;
        if !(self.min_live_fraction.is_finite()
            && self.min_live_fraction > 0.0
            && self.min_live_fraction <= 1.0)
        {
            return Err(ChurnError::InvalidFloor {
                fraction: self.min_live_fraction,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rate_shapes_the_model() {
        let config = ChurnConfig::from_rate(0.1).unwrap();
        assert_eq!(config.session, LifetimeDist::Exponential { mean: 10.0 });
        assert!((config.availability() - 0.75).abs() < 1e-12);
        config.validate().unwrap();
    }

    #[test]
    fn bad_rates_rejected() {
        for rate in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                ChurnConfig::from_rate(rate),
                Err(ChurnError::InvalidRate { .. })
            ));
        }
    }

    #[test]
    fn builder_overrides_apply() {
        let config = ChurnConfig::from_rate(0.2)
            .unwrap()
            .with_session(LifetimeDist::Constant { steps: 8.0 })
            .with_downtime(LifetimeDist::Constant { steps: 2.0 })
            .with_start_step(50)
            .with_min_live_fraction(0.5);
        assert_eq!(config.start_step, 50);
        assert!((config.availability() - 0.8).abs() < 1e-12);
        config.validate().unwrap();
    }

    #[test]
    fn invalid_floor_rejected() {
        let config = ChurnConfig::from_rate(0.1)
            .unwrap()
            .with_min_live_fraction(0.0);
        assert!(matches!(
            config.validate(),
            Err(ChurnError::InvalidFloor { .. })
        ));
    }

    #[test]
    fn error_display() {
        assert!(ChurnError::EmptyPlan.to_string().contains("at least two"));
        assert!(ChurnError::InvalidRate { rate: 2.0 }
            .to_string()
            .contains('2'));
    }
}
