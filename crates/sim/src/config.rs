//! Simulation and traffic configuration.
//!
//! Traffic is described by the shared `wormsim-workload` types, held in
//! one [`TrafficConfig`]: a [`DestinationPattern`] says *where* messages
//! go and an [`ArrivalProcess`] says *when* they are generated. The
//! analytical model's flow vectors take the same pattern.

pub use wormsim_lanes::{LaneAllocatorKind, LaneConfig, LaneError};
pub use wormsim_obs::ObsConfig;
pub use wormsim_workload::{ArrivalProcess, DestinationPattern, MmppProfile, WorkloadError};

/// Which execution core runs the simulation.
///
/// Both kinds are **bit-exact**: given the same seed and traffic they
/// produce field-for-field identical [`crate::runner::SimResult`]s (proved
/// by `testutil::differential` and the replay regression suites). They
/// differ only in which cycles are individually walked:
///
/// * [`Reference`](Self::Reference) — walks every cycle unconditionally.
///   The oracle: simplest code path, no skipping.
/// * [`FastForward`](Self::FastForward) — the reference walk plus
///   whole-network idle skipping. Wins at low load where idle gaps
///   exist; within a few percent of the reference in the loaded regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Plain cycle walk — the bit-exact oracle.
    Reference,
    /// Cycle walk with whole-network idle skipping (the default).
    #[default]
    FastForward,
}

impl EngineKind {
    /// A short stable label (used in bench JSON and tables).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Reference => "reference",
            EngineKind::FastForward => "fast-forward",
        }
    }
}

/// Errors raised by [`SimConfig::validate`] — the typed replacement for
/// the assert-style checks measurement code used to rely on, matching the
/// `Mesh::new` / `Hypercube::new` constructor pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimConfigError {
    /// The measurement window is empty: no message can ever be measured.
    ZeroMeasureWindow,
    /// The drain cap is zero, so every run would be declared saturated
    /// the moment its window closes.
    ZeroDrainCap,
    /// Fewer than two batches: the batch-means confidence interval is
    /// undefined (its variance needs at least two batch means).
    TooFewBatches {
        /// The offending batch count.
        batches: u32,
    },
}

impl std::fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimConfigError::ZeroMeasureWindow => {
                write!(
                    f,
                    "measure_cycles must be positive (the measurement window would be empty)"
                )
            }
            SimConfigError::ZeroDrainCap => {
                write!(
                    f,
                    "drain_cap_cycles must be positive (a zero cap marks every run saturated)"
                )
            }
            SimConfigError::TooFewBatches { batches } => write!(
                f,
                "batches must be at least 2 for a batch-means confidence interval (got {batches})"
            ),
        }
    }
}

impl std::error::Error for SimConfigError {}

/// Measurement orchestration parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Cycles discarded before measurement starts (queue warm-up).
    pub warmup_cycles: u64,
    /// Length of the measurement window: messages *generated* inside it are
    /// the measured population.
    pub measure_cycles: u64,
    /// Extra cycles allowed after the window for measured messages to
    /// drain; hitting this cap marks the run saturated.
    pub drain_cap_cycles: u64,
    /// RNG seed (the run is fully deterministic given the seed).
    pub seed: u64,
    /// Number of batches for the batch-means confidence interval.
    pub batches: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            warmup_cycles: 20_000,
            measure_cycles: 100_000,
            drain_cap_cycles: 200_000,
            seed: 0xC0FFEE,
            batches: 16,
        }
    }
}

impl SimConfig {
    /// A reduced-accuracy configuration for quick tests and examples.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            warmup_cycles: 2_000,
            measure_cycles: 20_000,
            drain_cap_cycles: 50_000,
            ..Self::default()
        }
    }

    /// Returns a copy with a different seed (used by the batch runners'
    /// per-point seeds).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Checks the configuration for values no run can make sense of.
    ///
    /// `warmup_cycles` of zero is deliberately allowed — skipping warm-up
    /// is a legitimate (if noisy) choice — but an empty measurement
    /// window, a zero drain cap, or fewer than two batches each make the
    /// produced statistics meaningless, so they are rejected here instead
    /// of asserted (or silently clamped) downstream.
    ///
    /// # Errors
    ///
    /// The first applicable [`SimConfigError`].
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if self.measure_cycles == 0 {
            return Err(SimConfigError::ZeroMeasureWindow);
        }
        if self.drain_cap_cycles == 0 {
            return Err(SimConfigError::ZeroDrainCap);
        }
        if self.batches < 2 {
            return Err(SimConfigError::TooFewBatches {
                batches: self.batches,
            });
        }
        Ok(())
    }
}

/// Offered traffic description: rate, worm length, destination pattern
/// and arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Mean message generation rate per PE, messages/cycle (the paper's
    /// `λ₀`; for MMPP sources this is the stationary mean).
    pub message_rate: f64,
    /// Worm length in flits (the paper's `s/f`).
    pub worm_flits: u32,
    /// Spatial traffic pattern.
    pub pattern: DestinationPattern,
    /// Temporal arrival process.
    pub arrival: ArrivalProcess,
}

impl TrafficConfig {
    /// Builds Poisson/uniform traffic from a message rate.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidParameter`] on a non-finite or negative
    /// rate, or a zero-flit worm length.
    pub fn new(message_rate: f64, worm_flits: u32) -> Result<Self, WorkloadError> {
        if !(message_rate.is_finite() && message_rate >= 0.0) {
            return Err(WorkloadError::InvalidParameter(format!(
                "message rate {message_rate} must be finite and non-negative"
            )));
        }
        if worm_flits == 0 {
            return Err(WorkloadError::InvalidParameter(
                "worms need at least one flit".into(),
            ));
        }
        Ok(Self {
            message_rate,
            worm_flits,
            pattern: DestinationPattern::Uniform,
            arrival: ArrivalProcess::Poisson,
        })
    }

    /// Builds Poisson/uniform traffic from a *flit* load (flits/cycle/PE —
    /// Figure 3's x-axis): `λ₀ = load / worm_flits`.
    ///
    /// # Errors
    ///
    /// Same as [`Self::new`] — an invalid flit load surfaces as an invalid
    /// derived message rate.
    pub fn from_flit_load(flit_load: f64, worm_flits: u32) -> Result<Self, WorkloadError> {
        if worm_flits == 0 {
            return Err(WorkloadError::InvalidParameter(
                "worms need at least one flit".into(),
            ));
        }
        Self::new(flit_load / f64::from(worm_flits), worm_flits)
    }

    /// The offered flit load (flits/cycle/PE).
    #[must_use]
    pub fn flit_load(&self) -> f64 {
        self.message_rate * f64::from(self.worm_flits)
    }

    /// Returns a copy with a different pattern.
    #[must_use]
    pub fn with_pattern(mut self, pattern: DestinationPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Returns a copy with a different arrival process.
    #[must_use]
    pub fn with_arrival(mut self, arrival: ArrivalProcess) -> Self {
        self.arrival = arrival;
        self
    }

    /// Returns a copy at a different flit load, keeping worm length,
    /// pattern and arrival process — the sweep primitive.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidParameter`] on a non-finite or negative
    /// load.
    pub fn at_flit_load(&self, flit_load: f64) -> Result<Self, WorkloadError> {
        let mut next = Self::from_flit_load(flit_load, self.worm_flits)?;
        next.pattern = self.pattern;
        next.arrival = self.arrival;
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SimConfig::default();
        assert!(c.warmup_cycles > 0);
        assert!(c.measure_cycles > c.warmup_cycles);
        assert!(c.batches >= 2);
        let q = SimConfig::quick();
        assert!(q.measure_cycles < c.measure_cycles);
        assert_eq!(SimConfig::default().with_seed(42).seed, 42);
    }

    #[test]
    fn validation_is_typed_not_asserted() {
        assert!(SimConfig::default().validate().is_ok());
        assert!(SimConfig::quick().validate().is_ok());
        let no_window = SimConfig {
            measure_cycles: 0,
            ..SimConfig::default()
        };
        assert_eq!(no_window.validate(), Err(SimConfigError::ZeroMeasureWindow));
        let no_drain = SimConfig {
            drain_cap_cycles: 0,
            ..SimConfig::default()
        };
        assert_eq!(no_drain.validate(), Err(SimConfigError::ZeroDrainCap));
        let one_batch = SimConfig {
            batches: 1,
            ..SimConfig::default()
        };
        assert_eq!(
            one_batch.validate(),
            Err(SimConfigError::TooFewBatches { batches: 1 })
        );
        assert!(one_batch.validate().unwrap_err().to_string().contains("2"));
        let no_warmup = SimConfig {
            warmup_cycles: 0,
            ..SimConfig::default()
        };
        assert_eq!(no_warmup.validate(), Ok(()));
    }

    #[test]
    fn flit_load_round_trips() {
        let t = TrafficConfig::from_flit_load(0.05, 16).unwrap();
        assert!((t.message_rate - 0.05 / 16.0).abs() < 1e-15);
        assert!((t.flit_load() - 0.05).abs() < 1e-15);
        assert_eq!(t.pattern, DestinationPattern::Uniform);
        assert_eq!(t.arrival, ArrivalProcess::Poisson);
    }

    #[test]
    fn pattern_and_arrival_overrides() {
        let t = TrafficConfig::new(0.001, 32)
            .unwrap()
            .with_pattern(DestinationPattern::BitComplement)
            .with_arrival(ArrivalProcess::Mmpp(MmppProfile::default_bursty()));
        assert_eq!(t.pattern, DestinationPattern::BitComplement);
        assert!(matches!(t.arrival, ArrivalProcess::Mmpp(_)));
    }

    #[test]
    fn at_flit_load_preserves_the_workload() {
        let base = TrafficConfig::from_flit_load(0.02, 16)
            .unwrap()
            .with_pattern(DestinationPattern::hot_spot())
            .with_arrival(ArrivalProcess::Mmpp(MmppProfile::default_bursty()));
        let moved = base.at_flit_load(0.04).unwrap();
        assert_eq!(moved.pattern, base.pattern);
        assert_eq!(moved.arrival, base.arrival);
        assert!((moved.flit_load() - 0.04).abs() < 1e-15);
        assert!(base.at_flit_load(f64::NAN).is_err());
    }

    #[test]
    fn invalid_inputs_are_rejected_with_errors() {
        assert!(matches!(
            TrafficConfig::new(0.001, 0),
            Err(WorkloadError::InvalidParameter(_))
        ));
        assert!(TrafficConfig::new(-0.001, 8).is_err());
        assert!(TrafficConfig::new(f64::NAN, 8).is_err());
        assert!(TrafficConfig::new(f64::INFINITY, 8).is_err());
        assert!(TrafficConfig::from_flit_load(-0.1, 8).is_err());
        assert!(TrafficConfig::from_flit_load(f64::NAN, 8).is_err());
        assert!(TrafficConfig::from_flit_load(0.1, 0).is_err());
    }
}
