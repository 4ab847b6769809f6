//! Binary for experiment E6 — see the module header of
//! `crates/bench/src/experiments/e06_connectivity.rs`.
//!
//! Usage: `cargo run --release -p geogossip-bench --bin e6_connectivity_threshold [smoke|quick|full] [seed]`

use geogossip_bench::experiments::{e06_connectivity, Scale, DEFAULT_SEED};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_arg(args.get(1).map(String::as_str));
    let seed = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let output = e06_connectivity::run(scale, seed);
    println!("{}", output.render());
}
