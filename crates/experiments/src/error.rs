//! The typed error of the experiments pipeline.
//!
//! Every experiment runner returns `Result<ExperimentOutput,
//! ExperimentError>`; a failure anywhere — an invalid topology parameter,
//! a model solve aborting on a usage error, an artifact write — propagates
//! here and `repro` prints it and exits nonzero, instead of unwinding
//! through a panic backtrace.

use std::fmt;
use std::path::PathBuf;

/// Why an experiment could not produce its output.
///
/// Saturation is *not* an error anywhere in this pipeline: sweeps record
/// saturated points via [`wormsim_guard::SolveOutcome`] and continue. These
/// variants are reserved for genuine failures.
#[derive(Debug)]
pub enum ExperimentError {
    /// The requested experiment id is not in the registry.
    UnknownExperiment {
        /// The id that was asked for.
        name: String,
        /// Comma-separated known ids.
        known: String,
    },
    /// An analytical-model evaluation failed (usage error — saturation is
    /// handled as a [`wormsim_guard::SolveOutcome`], not an error).
    Model(wormsim_core::ModelError),
    /// A butterfly-fat-tree parameterization was invalid.
    Bft(wormsim_topology::bft::BftError),
    /// A mesh parameterization was invalid.
    Mesh(wormsim_topology::mesh::MeshError),
    /// A hypercube parameterization was invalid.
    Hypercube(wormsim_topology::hypercube::HypercubeError),
    /// A workload/traffic description was invalid.
    Workload(wormsim_workload::WorkloadError),
    /// A fault plan was invalid.
    Fault(wormsim_faults::FaultError),
    /// A virtual-channel lane configuration was invalid.
    Lane(wormsim_sim::config::LaneError),
    /// Knee bracketing could not produce a bracket.
    Knee(wormsim_guard::KneeError),
    /// An artifact read/write failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// An experiment-internal invariant did not hold (the typed
    /// replacement for what used to be an `unwrap()`/`panic!`).
    Invalid(String),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::UnknownExperiment { name, known } => {
                write!(f, "unknown experiment {name:?}; known: {known}")
            }
            ExperimentError::Model(e) => write!(f, "model evaluation failed: {e}"),
            ExperimentError::Bft(e) => write!(f, "invalid fat-tree parameters: {e}"),
            ExperimentError::Mesh(e) => write!(f, "invalid mesh parameters: {e}"),
            ExperimentError::Hypercube(e) => write!(f, "invalid hypercube parameters: {e}"),
            ExperimentError::Workload(e) => write!(f, "invalid workload: {e}"),
            ExperimentError::Fault(e) => write!(f, "invalid fault plan: {e}"),
            ExperimentError::Lane(e) => write!(f, "invalid lane configuration: {e}"),
            ExperimentError::Knee(e) => write!(f, "knee bracketing failed: {e}"),
            ExperimentError::Io { path, source } => {
                write!(f, "I/O on {} failed: {source}", path.display())
            }
            ExperimentError::Invalid(msg) => write!(f, "experiment invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Model(e) => Some(e),
            ExperimentError::Bft(e) => Some(e),
            ExperimentError::Mesh(e) => Some(e),
            ExperimentError::Hypercube(e) => Some(e),
            ExperimentError::Workload(e) => Some(e),
            ExperimentError::Fault(e) => Some(e),
            ExperimentError::Lane(e) => Some(e),
            ExperimentError::Knee(e) => Some(e),
            ExperimentError::Io { source, .. } => Some(source),
            ExperimentError::UnknownExperiment { .. } | ExperimentError::Invalid(_) => None,
        }
    }
}

impl From<wormsim_core::ModelError> for ExperimentError {
    fn from(e: wormsim_core::ModelError) -> Self {
        ExperimentError::Model(e)
    }
}

impl From<wormsim_topology::bft::BftError> for ExperimentError {
    fn from(e: wormsim_topology::bft::BftError) -> Self {
        ExperimentError::Bft(e)
    }
}

impl From<wormsim_topology::mesh::MeshError> for ExperimentError {
    fn from(e: wormsim_topology::mesh::MeshError) -> Self {
        ExperimentError::Mesh(e)
    }
}

impl From<wormsim_topology::hypercube::HypercubeError> for ExperimentError {
    fn from(e: wormsim_topology::hypercube::HypercubeError) -> Self {
        ExperimentError::Hypercube(e)
    }
}

impl From<wormsim_workload::WorkloadError> for ExperimentError {
    fn from(e: wormsim_workload::WorkloadError) -> Self {
        ExperimentError::Workload(e)
    }
}

impl From<wormsim_faults::FaultError> for ExperimentError {
    fn from(e: wormsim_faults::FaultError) -> Self {
        ExperimentError::Fault(e)
    }
}

impl From<wormsim_sim::config::LaneError> for ExperimentError {
    fn from(e: wormsim_sim::config::LaneError) -> Self {
        ExperimentError::Lane(e)
    }
}

impl From<wormsim_guard::KneeError> for ExperimentError {
    fn from(e: wormsim_guard::KneeError) -> Self {
        ExperimentError::Knee(e)
    }
}

/// Result alias for experiment runners.
pub type Result<T> = std::result::Result<T, ExperimentError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failing_layer() {
        let e = ExperimentError::UnknownExperiment {
            name: "nope".into(),
            known: "fig2, fig3".into(),
        };
        assert!(e.to_string().contains("fig3"));
        let e: ExperimentError = wormsim_guard::KneeError::InvalidConfig.into();
        assert!(e.to_string().contains("knee"));
        let e = ExperimentError::Io {
            path: PathBuf::from("/tmp/x.csv"),
            source: std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        };
        assert!(e.to_string().contains("x.csv"));
        assert!(ExperimentError::Invalid("empty sweep".into())
            .to_string()
            .contains("empty sweep"));
    }

    #[test]
    fn source_chain_reaches_the_wrapped_error() {
        use std::error::Error as _;
        let e: ExperimentError = wormsim_core::ModelError::Spec("bad".into()).into();
        assert!(e.source().is_some());
        assert!(ExperimentError::Invalid("x".into()).source().is_none());
    }
}
