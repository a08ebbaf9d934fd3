//! Workload-layer invariants across the whole stack: flow conservation,
//! destination-distribution validity, and the simulator's routers driving
//! the flow model bit for bit.

use wormsim::prelude::*;
use wormsim::sim::router::{BftRouter, HypercubeRouter, MeshRouter};
use wormsim::topology::hypercube::Hypercube;
use wormsim::topology::mesh::Mesh;
use wormsim::topology::ChannelId;
use wormsim_testutil::assert_relative_close;

/// Patterns exercised everywhere (transpose added when N is square).
fn patterns(num_pes: usize) -> Vec<DestinationPattern> {
    let mut ps = DestinationPattern::all_basic();
    ps.push(DestinationPattern::HotSpot {
        fraction: 0.3,
        target: num_pes / 2,
    });
    let side = num_pes.isqrt();
    if side * side == num_pes {
        ps.push(DestinationPattern::Transpose);
    }
    ps
}

#[test]
fn flow_conservation_holds_for_every_pattern_and_topology() {
    // Σ_c λ_c = (total message rate) · D̄: every message occupies exactly
    // its path's channels. Checked across three topology families and all
    // patterns, with the flow sum and the distance accumulated through
    // different code paths.
    let bft16 = ButterflyFatTree::new(BftParams::paper(16).unwrap());
    let bft64 = ButterflyFatTree::new(BftParams::paper(64).unwrap());
    let mesh = Mesh::new(4, 2).unwrap();
    let mesh3 = Mesh::new(3, 2).unwrap();
    let cube = Hypercube::new(3).unwrap();
    let cases: Vec<(&str, &dyn FlowRouting)> = vec![
        ("bft16", &bft16),
        ("bft64", &bft64),
        ("mesh4x4", &mesh),
        ("mesh3x3", &mesh3),
        ("cube8", &cube),
    ];
    for (name, routing) in cases {
        let n = routing.network().num_processors();
        for pattern in patterns(n) {
            let flows = FlowVector::build(routing, &pattern).unwrap();
            let expect = n as f64 * flows.avg_distance();
            assert_relative_close(
                flows.sum_unit_flows(),
                expect,
                1e-9,
                &format!("{name} {pattern:?}: Σλ vs N·D̄"),
            );
            // Injection channels carry exactly each PE's unit rate; no
            // pattern may create or destroy messages at the source.
            for pe in 0..n {
                let inj = routing.network().processors()[pe].inject;
                assert_relative_close(
                    flows.unit_flow(inj),
                    1.0,
                    1e-12,
                    &format!("{name} {pattern:?}: injection flow of PE {pe}"),
                );
            }
            // Ejection flows integrate the destination distribution.
            let mut eject_total = 0.0;
            for pe in 0..n {
                eject_total += flows.unit_flow(routing.network().processors()[pe].eject);
            }
            assert_relative_close(
                eject_total,
                n as f64,
                1e-9,
                &format!("{name} {pattern:?}: total ejection flow"),
            );
        }
    }
}

#[test]
fn destination_distributions_are_valid() {
    for n in [4usize, 16, 27, 64] {
        for pattern in patterns(n) {
            pattern.validate(n).unwrap();
            for src in 0..n {
                let mut total = 0.0;
                for dst in 0..n {
                    let p = pattern.dest_prob(src, dst, n);
                    assert!((0.0..=1.0).contains(&p));
                    if dst == src {
                        assert_eq!(p, 0.0, "{pattern:?} must not self-address");
                    }
                    total += p;
                }
                assert!(
                    (total - 1.0).abs() < 1e-12,
                    "{pattern:?} n={n} src={src}: Σp = {total}"
                );
            }
        }
    }
}

/// Asserts that two flow vectors agree to the bit: every unit flow, every
/// transition entry and `D̄`.
fn assert_flows_bit_identical(a: &FlowVector, b: &FlowVector, what: &str) {
    assert_eq!(a.num_channels(), b.num_channels(), "{what}: channel count");
    let transition_bits = |f: &FlowVector, ch| -> Vec<(usize, u64)> {
        f.transitions(ch)
            .iter()
            .map(|&(to, w)| (to, w.to_bits()))
            .collect()
    };
    for c in 0..a.num_channels() {
        let ch = ChannelId(c);
        assert_eq!(
            a.unit_flow(ch).to_bits(),
            b.unit_flow(ch).to_bits(),
            "{what}: unit flow of channel {c}"
        );
        assert_eq!(
            transition_bits(a, ch),
            transition_bits(b, ch),
            "{what}: transitions of channel {c}"
        );
    }
    assert_eq!(
        a.avg_distance().to_bits(),
        b.avg_distance().to_bits(),
        "{what}: D̄"
    );
}

#[test]
fn simulator_routers_drive_the_flow_model_bit_for_bit() {
    // Every simulator router is a `FlowRouting`, so the flow model can be
    // built over exactly what the engine routes; each must price its
    // fabric bit for bit as the topology (or fault-aware tree) it wraps.
    let hot = DestinationPattern::hot_spot();
    let build = |routing: &dyn FlowRouting| FlowVector::build(routing, &hot).unwrap();

    let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
    let net = tree.network();
    let pristine = build(&tree);
    assert_flows_bit_identical(&build(&BftRouter::new(&tree)), &pristine, "BftRouter");
    let empty = FaultedBftRouter::new(&tree, FaultPlan::none(net)).unwrap();
    assert_flows_bit_identical(&build(&empty), &pristine, "empty-plan FaultedBftRouter");

    let degraded = (0..256u64)
        .map(|seed| {
            let plan = FaultPlan::build(net, &FaultSpec::links(0.05, seed).unwrap());
            FaultedBftRouter::new(&tree, plan).unwrap()
        })
        .find(|router| router.bft().fully_connected())
        .expect("a connected 5% link knockout of N=64");
    assert!(!degraded.bft().plan().is_empty());
    assert_flows_bit_identical(
        &build(&degraded),
        &build(degraded.bft()),
        "5% FaultedBftRouter vs its FaultedBft",
    );

    let mesh = Mesh::new(4, 2).unwrap();
    assert_flows_bit_identical(&build(&MeshRouter::new(&mesh)), &build(&mesh), "MeshRouter");
    let cube = Hypercube::new(4).unwrap();
    assert_flows_bit_identical(
        &build(&HypercubeRouter::new(&cube)),
        &build(&cube),
        "HypercubeRouter",
    );

    // A unique-path router prices its faults too: with PE 7's switch dead,
    // the first pair that needs it is PE 0's message to PE 7.
    let mut plan = FaultPlan::none(mesh.network());
    plan.kill_switch(mesh.network(), mesh.switch(7)).unwrap();
    let cut = MeshRouter::with_faults(&mesh, plan).unwrap();
    assert!(matches!(
        FlowVector::build(&cut, &DestinationPattern::Uniform),
        Err(WorkloadError::Disconnected { src: 0, dest: 7 })
    ));
}

#[test]
fn workload_sampling_matches_flow_probabilities_end_to_end() {
    // The simulator's empirical destination frequencies must converge to
    // the exact per-destination flows the model integrates — the two
    // sides of the subsystem describe one distribution. Binding check:
    // the *hot* PE's share of arrivals (which a broken hot-spot sampler
    // would get wrong) against its ejection channel's flow, per PE.
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wormsim::sim::traffic::TrafficGenerator;
    let n = 16usize;
    let params = BftParams::paper(n).unwrap();
    let tree = ButterflyFatTree::new(params);
    let pattern = DestinationPattern::HotSpot {
        fraction: 0.25,
        target: 3,
    };
    let flows = FlowVector::build(&tree, &pattern).unwrap();
    let traffic = TrafficConfig::new(0.01, 4).unwrap().with_pattern(pattern);
    let mut rng = SmallRng::seed_from_u64(11);
    let mut generator = TrafficGenerator::new(n, &traffic, &mut rng);
    let mut arrivals = Vec::new();
    for cycle in 0..200_000u64 {
        generator.arrivals_into(cycle, &mut rng, &mut arrivals);
    }
    let total = arrivals.len() as f64;
    let mut per_dest = vec![0usize; n];
    for a in &arrivals {
        assert_ne!(a.src, a.dest, "no self traffic");
        per_dest[a.dest] += 1;
    }
    // unit_flow(eject of d) = Σ_src p(d|src); dividing by N gives the
    // expected fraction of all arrivals addressed to d.
    for (dest, &count) in per_dest.iter().enumerate() {
        let expect = flows.unit_flow(tree.network().processors()[dest].eject) / n as f64;
        assert_relative_close(
            count as f64 / total,
            expect,
            0.08,
            &format!("destination {dest} frequency sim vs flows"),
        );
    }
    // The hot destination dominates: sanity that the binding is real.
    assert!(per_dest[3] > 3 * per_dest[0]);
}

#[test]
fn mmpp_workload_degrades_latency_at_equal_mean_load() {
    // End-to-end burstiness check (statistical, generous tolerance): the
    // same mean rate hurts more when clumped into bursts.
    let params = BftParams::paper(16).unwrap();
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let cfg = wormsim_testutil::validation_sim_config(31);
    let poisson = TrafficConfig::from_flit_load(0.08, 16).unwrap();
    let bursty = poisson.with_arrival(ArrivalProcess::Mmpp(
        MmppProfile::new(8.0, 0.1, 400.0).unwrap(),
    ));
    let rp = run_simulation(&router, &cfg, &poisson);
    let rb = run_simulation(&router, &cfg, &bursty);
    assert!(!rp.saturated);
    assert!(
        rb.avg_latency > rp.avg_latency * 1.05,
        "bursty {} must exceed poisson {} clearly",
        rb.avg_latency,
        rp.avg_latency
    );
}
