//! Binary for experiment E2 — see the module header of
//! `crates/bench/src/experiments/e02_lemma2.rs`.
//!
//! Usage: `cargo run --release -p geogossip-bench --bin e2_lemma2_perturbation [smoke|quick|full] [seed]`

use geogossip_bench::experiments::{e02_lemma2, Scale, DEFAULT_SEED};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_arg(args.get(1).map(String::as_str));
    let seed = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let output = e02_lemma2::run(scale, seed);
    println!("{}", output.render());
}
