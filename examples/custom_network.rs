//! The general framework (paper §2) on a user-defined network.
//!
//! The paper's model is not fat-tree specific: any wormhole network
//! described as symmetric channel classes with forwarding probabilities can
//! be solved. Here we model a **two-stage multistage switch**: each of 16
//! sources injects into a first-stage switch; first-stage switches forward
//! over one of two parallel middle links (an M/G/2 station, like the
//! paper's up-link pairs) to a second stage that delivers to one of four
//! sinks.
//!
//! `NetworkSpec::new` checks the description once, when it is built; an
//! ejection class is simply a class with no forwards.
//!
//! ```text
//! cargo run --example custom_network
//! ```

use wormsim::model::framework::{ClassId, ClassSpec, Forward, NetworkSpec};
use wormsim::model::options::ModelOptions;
use wormsim::model::ModelError;

/// The switch's class spec per unit source rate; every solve takes `λ₀`.
fn spec(worm_flits: f64) -> Result<NetworkSpec, ModelError> {
    // Class 0: ejection channels (4 per second-stage switch).
    // Class 1: middle links, bundled in pairs (M/G/2 stations).
    // Class 2: injection channels.
    let eject = ClassId(0);
    let middle = ClassId(1);

    // Flow accounting: each injection carries λ0 and forwards to the middle
    // bundle with probability 1; each of 4 sources per first-stage switch
    // feeds the same 2-link bundle, so per-link rate is 4λ0/2 = 2λ0. Each
    // middle link fans out to 4 ejection channels; per-ejection rate λ0
    // (16 sources over 16 sinks). Per unit λ0 the rates are 1, 2 and 1.
    let classes = vec![
        ClassSpec {
            name: "eject".into(),
            lambda: 1.0,
            servers: 1,
            forwards: vec![],
        },
        ClassSpec {
            name: "middle-pair".into(),
            lambda: 2.0,
            servers: 2,
            forwards: vec![Forward::flat(eject, 4, 0.25)],
        },
        ClassSpec {
            name: "inject".into(),
            lambda: 1.0,
            servers: 1,
            forwards: vec![Forward::flat(middle, 1, 1.0)],
        },
    ];
    // Distance 3: inject + middle + eject.
    NetworkSpec::new(classes, worm_flits, vec![ClassId(2)], 3.0)
}

fn main() {
    let s = 16.0;
    let net = spec(s).expect("valid spec");
    println!("two-stage switch, 16 sources, worms of {s} flits\n");
    println!(
        "{:>10}  {:>12}  {:>12}  {:>12}",
        "lambda0", "latency", "x_inj", "W_inj"
    );
    for i in 1..=10 {
        let lambda0 = 0.004 * f64::from(i);
        match net.latency(lambda0, &ModelOptions::paper(), None) {
            Ok(l) => println!(
                "{lambda0:>10.4}  {:>12.3}  {:>12.3}  {:>12.3}",
                l.total, l.x_injection, l.w_injection
            ),
            Err(e) => {
                println!("{lambda0:>10.4}  saturated ({e})");
                break;
            }
        }
    }

    // Compare against treating the middle pair as two independent M/G/1
    // links (the pre-paper modeling): pooling always wins.
    println!("\npaper M/G/2 bundle vs independent M/G/1 middle links @ λ0 = 0.02:");
    let paper = net
        .latency(0.02, &ModelOptions::paper(), None)
        .expect("stable");
    let single = net
        .latency(0.02, &ModelOptions::single_server_up(), None)
        .expect("stable");
    println!("  M/G/2 bundle     : {:.3} cycles", paper.total);
    println!("  independent M/G/1: {:.3} cycles", single.total);
    println!(
        "  pooling saves    : {:.3} cycles",
        single.total - paper.total
    );
}
