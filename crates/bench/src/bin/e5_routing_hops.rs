//! Binary for experiment E5 — see the module header of
//! `crates/bench/src/experiments/e05_routing.rs`.
//!
//! Usage: `cargo run --release -p geogossip-bench --bin e5_routing_hops [smoke|quick|full] [seed]`

use geogossip_bench::experiments::{e05_routing, Scale, DEFAULT_SEED};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_arg(args.get(1).map(String::as_str));
    let seed = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let output = e05_routing::run(scale, seed);
    println!("{}", output.render());
}
