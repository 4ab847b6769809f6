//! Binary for experiment E4 — see the module header of
//! `crates/bench/src/experiments/e04_scaling.rs`.
//!
//! Usage: `cargo run --release -p geogossip-bench --bin e4_scaling_exponents [smoke|quick|full] [seed]`

use geogossip_bench::experiments::{e04_scaling, Scale, DEFAULT_SEED};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_arg(args.get(1).map(String::as_str));
    let seed = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let output = e04_scaling::run(scale, seed);
    println!("{}", output.render());
}
