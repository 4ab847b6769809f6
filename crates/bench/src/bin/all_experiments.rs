//! Runs every experiment (E1–E10) at the requested scale and prints all
//! tables — the single command that regenerates every experiment's numbers
//! (each module in `crates/bench/src/experiments/` documents its claim).
//!
//! Usage: `cargo run --release -p geogossip-bench --bin all_experiments [smoke|quick|full] [seed]`

use geogossip_bench::experiments::{self as ex, Scale, DEFAULT_SEED};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_arg(args.get(1).map(String::as_str));
    let seed = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let outputs = [
        ex::e01_lemma1::run(scale, seed),
        ex::e02_lemma2::run(scale, seed),
        ex::e03_trajectories::run(scale, seed),
        ex::e04_scaling::run(scale, seed),
        ex::e05_routing::run(scale, seed),
        ex::e06_connectivity::run(scale, seed),
        ex::e07_occupancy::run(scale, seed),
        ex::e08_coefficient::run(scale, seed),
        ex::e09_uniformity::run(scale, seed),
        ex::e10_hierarchy::run(scale, seed),
    ];
    for output in outputs {
        println!("{}", output.render());
    }
}
