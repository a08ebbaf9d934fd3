//! Model configuration: the paper's choices and their ablations.

use crate::error::ModelError;
use crate::Result;

/// The most lanes per channel a model accepts: the simulator's limit,
/// `wormsim_lanes::MAX_LANES`.
pub const MAX_LANES: u32 = 64;

/// Switches for the paper's two novel ingredients, plus the lane count.
/// The service-time SCV is always the paper's Eq. 5 wormhole surrogate.
///
/// The default is the paper's model. The ablation constructors produce the
/// configurations `repro ablation-servers` and `repro ablation-blocking`
/// compare.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelOptions {
    /// Treat the `p` redundant up-links of a switch as one M/G/p station
    /// (paper, novelty 1). When `false`, each up-link is an independent
    /// M/G/1 queue receiving `1/p` of the up-traffic.
    pub multi_server_up: bool,
    /// Apply the Eq. 10 blocking-probability correction (paper, novelty 2).
    /// When `false`, `P(i|j) = 1` everywhere.
    pub blocking_correction: bool,
    /// Virtual-channel lanes per physical channel (the multi-lane
    /// extension; see `wormsim_queueing::lanes`), in `1..=`[`MAX_LANES`].
    /// The paper's model is `lanes = 1`, where the solver takes the exact
    /// single-lane code path — numbers are bit-for-bit unchanged.
    pub lanes: u32,
}

impl Default for ModelOptions {
    fn default() -> Self {
        Self::paper()
    }
}

impl ModelOptions {
    /// The paper's configuration: M/G/2 up-links, blocking correction on,
    /// single-lane channels.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            multi_server_up: true,
            blocking_correction: true,
            lanes: 1,
        }
    }

    /// Returns a copy with `lanes` virtual-channel lanes per physical
    /// channel. `with_lanes(1)` is the identity (the paper's model).
    #[must_use]
    pub fn with_lanes(mut self, lanes: u32) -> Self {
        self.lanes = lanes;
        self
    }

    /// Rejects a lane count outside `1..=`[`MAX_LANES`]: a zero-lane
    /// channel carries nothing, and the model's cost grows linearly with
    /// the count.
    pub(crate) fn check_lanes(&self) -> Result<()> {
        if (1..=MAX_LANES).contains(&self.lanes) {
            return Ok(());
        }
        Err(ModelError::Spec(format!(
            "lane count {} outside 1..={MAX_LANES} (ModelOptions::lanes)",
            self.lanes
        )))
    }

    /// Ablation A1: independent single-server up-links (novelty 1 removed).
    #[must_use]
    pub fn single_server_up() -> Self {
        Self {
            multi_server_up: false,
            ..Self::paper()
        }
    }

    /// Ablation A2: no blocking-probability correction (novelty 2 removed).
    #[must_use]
    pub fn no_blocking_correction() -> Self {
        Self {
            blocking_correction: false,
            ..Self::paper()
        }
    }

    /// The pre-paper state of the art: both novelties removed.
    #[must_use]
    pub fn prior_art() -> Self {
        Self {
            multi_server_up: false,
            blocking_correction: false,
            lanes: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper() {
        assert_eq!(ModelOptions::default(), ModelOptions::paper());
        let p = ModelOptions::paper();
        assert!(p.multi_server_up);
        assert!(p.blocking_correction);
    }

    #[test]
    fn ablations_flip_one_switch_each() {
        let a1 = ModelOptions::single_server_up();
        assert!(!a1.multi_server_up);
        assert!(a1.blocking_correction);
        let a2 = ModelOptions::no_blocking_correction();
        assert!(a2.multi_server_up);
        assert!(!a2.blocking_correction);
        let prior = ModelOptions::prior_art();
        assert!(!prior.multi_server_up);
        assert!(!prior.blocking_correction);
    }

    #[test]
    fn lanes_default_to_single_and_builder_overrides() {
        assert_eq!(ModelOptions::paper().lanes, 1);
        assert_eq!(ModelOptions::prior_art().lanes, 1);
        let o = ModelOptions::paper().with_lanes(4);
        assert_eq!(o.lanes, 4);
        assert!(o.multi_server_up, "with_lanes must not disturb other knobs");
        assert_eq!(o.with_lanes(1), ModelOptions::paper());
    }
}
