//! Experiment harness for the Greenberg–Guan (ICPP 1997) reproduction.
//!
//! Every figure and table of the paper — plus the ablations and extensions
//! catalogued in `DESIGN.md` — is regenerated by one module under
//! [`experiments`], all reachable from the `repro` binary:
//!
//! ```text
//! repro list            # what can be regenerated
//! repro fig3            # the paper's headline figure
//! repro all --quick     # everything, at reduced statistical effort
//! ```
//!
//! | id | paper artifact | module |
//! |----|----------------|--------|
//! | `fig2` | Figure 2: the 64-processor butterfly fat-tree | [`experiments::fig2`] |
//! | `fig3` | Figure 3: latency vs load, model & sim, N=1024, s ∈ {16,32,64} | [`experiments::fig3`] |
//! | `scaling` | §3.6: accuracy across N ∈ {64, 256, 1024} | [`experiments::scaling`] |
//! | `throughput` | §3.5: saturation throughput, model vs sim | [`experiments::throughput`] |
//! | `framework-demo` | Figure 1 / §2: the general model on other networks | [`experiments::framework_demo`] |
//! | `ablation-servers` | novelty 1: M/G/2 bundles vs independent M/G/1 | [`experiments::ablations`] |
//! | `ablation-blocking` | novelty 2: Eq. 10 correction on/off | [`experiments::ablations`] |
//! | `extension-mgm` | §4: M/G/m for (c,p) trees with p ∈ {1,2,4} | [`experiments::extension_mgm`] |
//! | `enumerated-mesh` | flow-built per-channel model for a mesh, vs sim | [`experiments::enumerated_mesh`] |
//! | `tail-latency` | latency percentiles under load | [`experiments::tail_latency`] |
//! | `channel-audit` | internal validity: per-level λ/x̄ vs Eqs. 14–24 | [`experiments::channel_audit`] |
//! | `hotspot` | workload W1: hot-spot traffic, flow model vs sim | [`experiments::hotspot`] |
//! | `bursty` | workload W2: MMPP sources vs burst-corrected model | [`experiments::bursty`] |
//! | `lanes` | lanes L1: virtual-channel lanes, model vs sim for L ∈ {1,2,4} | [`experiments::lanes`] |
//! | `timeline` | obs O2: windowed time series + MSER-5 steady state + counter tracks | [`experiments::timeline`] |
//! | `faults` | robustness R1: link knockouts, degraded model vs sim | [`experiments::faults`] |
//! | `knee` | robustness R2: bracketed knee vs sim saturation, N × L × faults | [`experiments::knee`] |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod ascii_plot;
pub mod bench_compare;
pub mod csv;
pub mod error;
pub mod experiments;
pub mod table;

pub use error::ExperimentError;
pub use experiments::{run_by_name, ExperimentContext, ExperimentOutput, EXPERIMENTS};
