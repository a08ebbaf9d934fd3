//! The reproduction's headline claim (paper Figure 3): the analytical model
//! tracks the flit-level simulator closely over a wide range of load.

use wormsim::prelude::*;
use wormsim::sim::config::{SimConfig, TrafficConfig};
use wormsim::sim::router::BftRouter;
use wormsim::sim::runner::run_simulation;
use wormsim_testutil::validation_sim_config;

fn quick_cfg(seed: u64) -> SimConfig {
    validation_sim_config(seed)
}

#[test]
fn zero_load_latency_is_exact() {
    // At vanishing load every message sails through unblocked and both
    // model and simulation must produce s + D̄ − 1 (up to Monte-Carlo
    // noise in the distance distribution).
    for (n, s) in [(16usize, 16u32), (64, 32)] {
        let params = BftParams::paper(n).unwrap();
        let tree = ButterflyFatTree::new(params);
        let router = BftRouter::new(&tree);
        let model = BftModel::new(params, f64::from(s));
        let expect = model.latency_at_message_rate(0.0).unwrap().total;
        let result = run_simulation(
            &router,
            &quick_cfg(3),
            &TrafficConfig::new(0.0002, s).unwrap(),
        );
        assert!(!result.saturated);
        assert!(
            (result.avg_latency - expect).abs() < 1.0,
            "N={n} s={s}: sim {} vs model {expect}",
            result.avg_latency
        );
    }
}

#[test]
fn model_tracks_simulation_at_moderate_load() {
    // Mid-range loads (paper: "agree very closely over a wide range of
    // load rate"): demand ≤ 5% relative error away from the knee.
    let cases = [
        (64usize, 16u32, 0.02f64),
        (64, 32, 0.04),
        (256, 16, 0.015),
        (256, 32, 0.02),
    ];
    for (n, s, load) in cases {
        let params = BftParams::paper(n).unwrap();
        let tree = ButterflyFatTree::new(params);
        let router = BftRouter::new(&tree);
        let model = BftModel::new(params, f64::from(s));
        let m = model.latency_at_flit_load(load).unwrap().total;
        let r = run_simulation(
            &router,
            &quick_cfg(11),
            &TrafficConfig::from_flit_load(load, s).unwrap(),
        );
        assert!(
            !r.saturated,
            "N={n} s={s} load={load} saturated unexpectedly"
        );
        let err = (m - r.avg_latency).abs() / r.avg_latency;
        assert!(
            err < 0.05,
            "N={n} s={s} load={load}: model {m:.2} vs sim {:.2} ({:.1}% off)",
            r.avg_latency,
            err * 100.0
        );
    }
}

#[test]
fn model_is_conservative_near_the_knee() {
    // Close to saturation the model over-predicts latency (visible in
    // Figure 3 as the model curve bending up first). Check sign, not size.
    let params = BftParams::paper(256).unwrap();
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let model = BftModel::new(params, 32.0);
    let knee = model.saturation_flit_load().unwrap();
    let load = knee * 0.88;
    let m = model.latency_at_flit_load(load).unwrap().total;
    let r = run_simulation(
        &router,
        &quick_cfg(17),
        &TrafficConfig::from_flit_load(load, 32).unwrap(),
    );
    assert!(!r.saturated);
    assert!(
        m > r.avg_latency * 0.97,
        "near the knee the model must not be optimistic: model {m:.2} vs sim {:.2}",
        r.avg_latency
    );
}

#[test]
fn simulator_saturates_where_the_model_says_it_should() {
    // Saturating-load points bracketing the model's predicted knee: well
    // below it the simulator must keep up with the offered load; well past
    // it the backlog must diverge and the run must flag saturation.
    for (n, s) in [(64usize, 16u32), (64, 32)] {
        let params = BftParams::paper(n).unwrap();
        let tree = ButterflyFatTree::new(params);
        let router = BftRouter::new(&tree);
        let model = BftModel::new(params, f64::from(s));
        let knee = model.saturation_flit_load().unwrap();

        let below = run_simulation(
            &router,
            &quick_cfg(47),
            &TrafficConfig::from_flit_load(knee * 0.7, s).unwrap(),
        );
        assert!(
            !below.saturated,
            "N={n} s={s}: 0.7×knee ({:.4}) must not saturate",
            knee * 0.7
        );

        let past = run_simulation(
            &router,
            &quick_cfg(53),
            &TrafficConfig::from_flit_load(knee * 1.25, s).unwrap(),
        );
        assert!(
            past.saturated,
            "N={n} s={s}: 1.25×knee ({:.4}) must saturate",
            knee * 1.25
        );
        // Past the knee the network can only deliver at its capacity: the
        // accepted flit rate must fall clearly short of the offered rate.
        assert!(
            past.delivered_flit_load < knee * 1.25 * 0.95,
            "N={n} s={s}: accepted {:.4} should be capped below offered {:.4}",
            past.delivered_flit_load,
            knee * 1.25
        );
    }
}

#[test]
fn latency_curves_are_ordered_by_worm_length() {
    // Figure 3's curve ordering: longer worms, higher latency, at equal
    // flit load.
    let params = BftParams::paper(64).unwrap();
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let mut prev = 0.0;
    for s in [16u32, 32, 64] {
        let r = run_simulation(
            &router,
            &quick_cfg(23),
            &TrafficConfig::from_flit_load(0.02, s).unwrap(),
        );
        assert!(!r.saturated);
        assert!(
            r.avg_latency > prev,
            "s={s}: {} not above {prev}",
            r.avg_latency
        );
        prev = r.avg_latency;
    }
}

#[test]
fn hotspot_workload_model_tracks_simulation_at_low_load() {
    // The workload generalization's acceptance bar: under the classic
    // hot-spot pattern (1/8 to PE 0), the per-station flow model must
    // track the simulator within the same 5% tolerance the uniform
    // comparisons use, at loads well below the hot ejector's knee.
    let cases = [(64usize, 16u32, 0.02f64), (64, 16, 0.04), (256, 16, 0.01)];
    for (n, s, load) in cases {
        let params = BftParams::paper(n).unwrap();
        let tree = ButterflyFatTree::new(params);
        let router = BftRouter::new(&tree);
        let pattern = DestinationPattern::hot_spot();
        let flows = FlowVector::build(&tree, &pattern).unwrap();
        let lambda0 = load / f64::from(s);
        let m = model_from_flows(tree.network(), &flows, f64::from(s), lambda0, None)
            .unwrap()
            .latency(&ModelOptions::paper(), None)
            .unwrap()
            .total;
        let traffic = TrafficConfig::from_flit_load(load, s)
            .unwrap()
            .with_pattern(pattern);
        let r = run_simulation(&router, &quick_cfg(41), &traffic);
        assert!(!r.saturated, "N={n} load={load} saturated unexpectedly");
        let err = (m - r.avg_latency).abs() / r.avg_latency;
        assert!(
            err < 0.05,
            "N={n} s={s} load={load}: hot-spot model {m:.2} vs sim {:.2} ({:.1}% off)",
            r.avg_latency,
            err * 100.0
        );
    }
}

#[test]
fn bursty_workload_inflates_latency_beyond_poisson_model() {
    // The MMPP source keeps the mean rate, so the Poisson model's
    // prediction becomes a *lower* bound; the Kingman-corrected source
    // queue must land closer to the simulated value than the uncorrected
    // model at strong burstiness.
    let params = BftParams::paper(64).unwrap();
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let model = BftModel::new(params, 16.0);
    let load = 0.06;
    let lambda0 = load / 16.0;
    let profile = MmppProfile::new(8.0, 0.1, 400.0).unwrap();
    let poisson = model.latency_at_message_rate(lambda0).unwrap();
    let audit = model.audit_at_message_rate(lambda0).unwrap();
    let iod = ArrivalProcess::Mmpp(profile).index_of_dispersion(lambda0);
    let scv = model.options().scv.scv(audit.x_up[0], 16.0);
    let w01_burst = wormsim::queueing::gg1::waiting_time(lambda0, audit.x_up[0], scv, iod).unwrap();
    let corrected = poisson.total - audit.w_up[0] + w01_burst;

    let traffic = TrafficConfig::from_flit_load(load, 16)
        .unwrap()
        .with_arrival(ArrivalProcess::Mmpp(profile));
    let r = run_simulation(&router, &quick_cfg(43), &traffic);
    assert!(!r.saturated);
    assert!(
        r.avg_latency > poisson.total * 1.1,
        "bursty sim {} must clearly exceed the Poisson prediction {}",
        r.avg_latency,
        poisson.total
    );
    assert!(
        (corrected - r.avg_latency).abs() < (poisson.total - r.avg_latency).abs(),
        "corrected {corrected:.2} must be closer to sim {:.2} than poisson {:.2}",
        r.avg_latency,
        poisson.total
    );
}

#[test]
fn injection_wait_matches_model_w01() {
    // The source-queue wait W₀,₁ is directly comparable (Eq. 24, M/G/1).
    let params = BftParams::paper(64).unwrap();
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let model = BftModel::new(params, 16.0);
    let traffic = TrafficConfig::from_flit_load(0.06, 16).unwrap();
    let audit = model.audit_at_message_rate(traffic.message_rate).unwrap();
    let r = run_simulation(&router, &quick_cfg(29), &traffic);
    assert!(!r.saturated);
    let w_model = audit.w_up[0];
    let w_sim = r.injection_wait_mean;
    assert!(
        (w_model - w_sim).abs() < 0.35 * w_sim.max(1.0),
        "W01 model {w_model:.3} vs sim {w_sim:.3}"
    );
}
