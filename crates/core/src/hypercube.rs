//! The general framework instantiated on the binary hypercube with e-cube
//! routing — a Draper–Ghosh-style baseline model on a genuinely different
//! topology, demonstrating the paper's claim that "these ideas can also be
//! applied to other networks".
//!
//! # Class structure
//!
//! Under e-cube routing (lowest differing bit first) and uniform traffic,
//! all channels of one dimension are statistically identical, giving `d+2`
//! classes: injection, ejection and one class per dimension.
//!
//! For a worm on a dimension-`k` channel the remaining destination bits
//! above `k` are independently uniform, so:
//!
//! * continue to dimension `j > k` with probability `2^{−(j−k)}`,
//! * eject at the far switch with probability `2^{−(d−1−k)}`.
//!
//! From the injection channel the first hop is dimension `k` with
//! probability `2^{d−1−k}/(2^d − 1)` (destination ≠ source).
//!
//! Per-channel rates follow from flow conservation: each of the `N`
//! dimension-`k` channels carries `λ_k = λ₀·2^{d−1}/(2^d − 1)`,
//! independent of `k` (verified in tests against the spec's own flow
//! equations).

use crate::error::ModelError;
use crate::framework::{ClassBody, ClassId, ClassSpec, Forward, NetworkSpec};
use crate::options::ModelOptions;
use crate::throughput::{self, SaturationPoint};
use crate::Result;

/// Builds the hypercube class specification at source rate `lambda0`
/// (messages/cycle/PE) for a `dim`-dimensional cube.
///
/// Class layout: `0` = ejection, `1..=dim` = dimension `k−1`, `dim+1` =
/// injection.
///
/// # Errors
///
/// [`ModelError::Spec`] when `dim` is 0 or too large for a 64-bit node
/// count.
pub fn hypercube_spec(dim: u32, worm_flits: f64, lambda0: f64) -> Result<NetworkSpec> {
    if !(1..64).contains(&dim) {
        return Err(ModelError::Spec(format!(
            "hypercube dimension must be in 1..=63, got {dim}"
        )));
    }
    let d = dim as usize;
    let n_nodes = (1u64 << dim) as f64;
    let lambda_dim = lambda0 * (n_nodes / 2.0) / (n_nodes - 1.0);

    let eject = ClassId(0);
    let dim_class = |k: usize| ClassId(1 + k);
    let injection = ClassId(1 + d);

    let mut classes = Vec::with_capacity(d + 2);
    classes.push(ClassSpec {
        name: "eject".to_string(),
        lambda: lambda0,
        servers: 1,
        body: ClassBody::Terminal {
            service_time: worm_flits,
        },
    });
    for k in 0..d {
        // Forward to each higher dimension j with 2^{-(j-k)}, eject with
        // 2^{-(d-1-k)}.
        let mut forwards = Vec::with_capacity(d - k);
        for j in (k + 1)..d {
            forwards.push(Forward::flat(dim_class(j), 1, 2f64.powi(-((j - k) as i32))));
        }
        forwards.push(Forward::flat(eject, 1, 2f64.powi(-((d - 1 - k) as i32))));
        classes.push(ClassSpec {
            name: format!("dim{k}"),
            lambda: lambda_dim,
            servers: 1,
            body: ClassBody::Interior { forwards },
        });
    }
    // Injection: first differing bit k with probability 2^{d-1-k}/(2^d − 1).
    let forwards = (0..d)
        .map(|k| {
            Forward::flat(
                dim_class(k),
                1,
                2f64.powi((d - 1 - k) as i32) / (n_nodes - 1.0),
            )
        })
        .collect();
    classes.push(ClassSpec {
        name: "inject".to_string(),
        lambda: lambda0,
        servers: 1,
        body: ClassBody::Interior { forwards },
    });

    // Average distance: d·2^{d-1}/(2^d − 1) switch hops + inject + eject.
    let avg_distance = f64::from(dim) * (n_nodes / 2.0) / (n_nodes - 1.0) + 2.0;

    Ok(NetworkSpec {
        classes,
        worm_flits,
        injection,
        avg_distance,
    })
}

/// Saturation point of the hypercube model (Eq. 26 applied to the cube).
///
/// # Errors
///
/// [`ModelError::Spec`] from [`hypercube_spec`];
/// [`ModelError::Saturation`] when no knee can be bracketed.
pub fn saturation(dim: u32, worm_flits: f64, options: &ModelOptions) -> Result<SaturationPoint> {
    hypercube_spec(dim, worm_flits, 0.0)?;
    let opts = *options;
    throughput::saturation_point(worm_flits, move |lambda0| {
        let spec = hypercube_spec(dim, worm_flits, lambda0)?;
        let sol = spec.solve(&opts, None, None)?;
        Ok(sol.service_times[spec.injection.0])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validates_for_all_dims() {
        for dim in 1..=10u32 {
            let spec = hypercube_spec(dim, 16.0, 0.001).unwrap();
            spec.validate().unwrap_or_else(|e| panic!("dim {dim}: {e}"));
        }
    }

    #[test]
    fn spec_is_a_dag() {
        let spec = hypercube_spec(6, 16.0, 0.001).unwrap();
        let sol = spec.solve(&ModelOptions::paper(), None, None).unwrap();
        assert_eq!(sol.iterations, 0, "e-cube dependencies are acyclic");
    }

    #[test]
    fn flow_conservation_holds() {
        // Input flow to each dimension class equals its declared rate:
        // λ_j = λ_inj·R(inj→j) + Σ_{k<j} λ_k·R(k→j).
        let dim = 7u32;
        let lambda0 = 0.003;
        let spec = hypercube_spec(dim, 16.0, lambda0).unwrap();
        let d = dim as usize;
        let lam = |cid: usize| spec.classes[cid].lambda;
        for j in 0..d {
            let target = 1 + j;
            let mut inflow = 0.0;
            for (i, class) in spec.classes.iter().enumerate() {
                if let ClassBody::Interior { forwards } = &class.body {
                    for f in forwards {
                        if f.to.0 == target {
                            inflow += lam(i) * f64::from(f.multiplicity) * f.prob_each;
                        }
                    }
                }
            }
            assert!(
                (inflow - lam(target)).abs() < 1e-15,
                "dim {j}: inflow {inflow} vs declared {}",
                lam(target)
            );
        }
        // Ejection class: total inflow equals λ0 per channel.
        let mut eject_in = 0.0;
        for (i, class) in spec.classes.iter().enumerate() {
            if let ClassBody::Interior { forwards } = &class.body {
                for f in forwards {
                    if f.to.0 == 0 {
                        eject_in += lam(i) * f64::from(f.multiplicity) * f.prob_each;
                    }
                }
            }
        }
        assert!((eject_in - lambda0).abs() < 1e-15);
    }

    #[test]
    fn zero_load_latency_matches_distance_formula() {
        for dim in [3u32, 5, 8] {
            let lat = hypercube_spec(dim, 16.0, 0.0)
                .unwrap()
                .latency(&ModelOptions::paper(), None)
                .unwrap();
            let n = (1u64 << dim) as f64;
            let expect = 16.0 + f64::from(dim) * n / 2.0 / (n - 1.0) + 2.0 - 1.0;
            assert!((lat.total - expect).abs() < 1e-12, "dim {dim}");
        }
    }

    #[test]
    fn latency_monotone_and_saturates() {
        let mut prev = 0.0;
        for i in 1..=8 {
            let lambda0 = 0.0005 * f64::from(i);
            let lat = hypercube_spec(10, 16.0, lambda0)
                .unwrap()
                .latency(&ModelOptions::paper(), None)
                .unwrap();
            assert!(lat.total > prev);
            prev = lat.total;
        }
        let sat = saturation(10, 16.0, &ModelOptions::paper()).unwrap();
        assert!(
            sat.message_rate > 0.004,
            "cube saturation unreasonably low: {}",
            sat.message_rate
        );
        // Past the knee the model must refuse.
        assert!(hypercube_spec(10, 16.0, sat.message_rate * 1.5)
            .unwrap()
            .latency(&ModelOptions::paper(), None)
            .is_err());
    }

    #[test]
    fn higher_dimensions_carry_less_per_channel_correction() {
        // Smoke test for the forwarding table: probabilities from dim k sum
        // to 1 and decay geometrically.
        let spec = hypercube_spec(5, 16.0, 0.001).unwrap();
        if let ClassBody::Interior { forwards } = &spec.classes[1].body {
            // dim0 of d=5: 2^-1, 2^-2, 2^-3, 2^-4 to dims 1..4 and 2^-4 eject.
            let probs: Vec<f64> = forwards.iter().map(|f| f.prob_each).collect();
            assert_eq!(probs.len(), 5);
            assert!((probs[0] - 0.5).abs() < 1e-15);
            assert!((probs[3] - 0.0625).abs() < 1e-15);
            assert!((probs[4] - 0.0625).abs() < 1e-15);
        } else {
            panic!("dim0 must be interior");
        }
    }
}
