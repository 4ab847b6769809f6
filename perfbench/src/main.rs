//! Command line of the benchmark:
//!
//! ```text
//! geogossip-perfbench --workload <name> [--seed <n>] [--seconds <s>]
//!                     [--trace <0|1>] [--smoke]
//! ```
//!
//! Exits 0 when every operation succeeded, 1 when one failed, 2 on a usage
//! error.

use geogossip_perfbench::bench::{self, Options};
use geogossip_perfbench::result_line;
use geogossip_perfbench::workloads::{Scale, Workload, DEFAULT_SEED};
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("error: {problem}");
    eprintln!(
        "usage: geogossip-perfbench --workload <{}> [--seed <n>] [--seconds <s>] \
         [--trace <0|1>] [--smoke]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            scale = Scale::Smoke;
            continue;
        }
        let Some(value) = args.next() else {
            return usage(&format!("`{flag}` needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload `{value}`")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(&format!("bad seed `{value}`")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s > 0.0 => seconds = s,
                _ => return usage(&format!("bad seconds `{value}`")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("`--trace` takes 0 or 1, got `{value}`")),
            },
            _ => return usage(&format!("unknown flag `{flag}`")),
        }
    }
    let Some(workload) = workload else {
        return usage("`--workload` is required");
    };

    let outcome = bench::run(&Options {
        workload,
        seed,
        seconds,
        trace,
        scale,
    });
    for span in &outcome.spans {
        eprintln!("{span}");
    }
    for problem in &outcome.problems {
        eprintln!("FAILED: {problem}");
    }
    for (key, value) in &outcome.context {
        println!("# {key}: {value}");
    }
    println!("{}", result_line(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
