//! Binary for experiment E8 — see the module header of
//! `crates/bench/src/experiments/e08_coefficient.rs`.
//!
//! Usage: `cargo run --release -p geogossip-bench --bin e8_affine_coefficient_ablation [smoke|quick|full] [seed]`

use geogossip_bench::experiments::{e08_coefficient, Scale, DEFAULT_SEED};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_arg(args.get(1).map(String::as_str));
    let seed = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let output = e08_coefficient::run(scale, seed);
    println!("{}", output.render());
}
