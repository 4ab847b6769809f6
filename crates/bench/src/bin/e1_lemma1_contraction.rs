//! Binary for experiment E1 — see the module header of
//! `crates/bench/src/experiments/e01_lemma1.rs`.
//!
//! Usage: `cargo run --release -p geogossip-bench --bin e1_lemma1_contraction [smoke|quick|full] [seed]`

use geogossip_bench::experiments::{e01_lemma1, Scale, DEFAULT_SEED};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_arg(args.get(1).map(String::as_str));
    let seed = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let output = e01_lemma1::run(scale, seed);
    println!("{}", output.render());
}
