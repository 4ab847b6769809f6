//! E5 — Greedy geographic routing costs `O(√(n/log n))` hops.
//!
//! Both the Dimakis baseline and the paper charge `O(√n)` transmissions per
//! long-range exchange, resting on the fact that greedy geographic routing on
//! `G(n, r)` at the connectivity radius delivers in `O(√(n/log n))` hops
//! w.h.p. The experiment measures hop counts over many random source/target
//! pairs per size, fits the growth exponent of the mean hop count, and
//! reports the delivery failure rate.

use super::{ExperimentOutput, Scale};
use geogossip_analysis::{fit_power_law, Summary, Table};
use geogossip_geometry::point::NodeId;
use geogossip_routing::greedy::route_to_node;
use geogossip_sim::scenario::TopologySpec;
use geogossip_sim::SeedStream;
use rand::Rng;

/// Runs experiment E5.
pub fn run(scale: Scale, seed: u64) -> ExperimentOutput {
    let (sizes, pairs): (&[usize], usize) = match scale {
        Scale::Smoke => (&[128, 256], 50),
        Scale::Quick => (&[256, 512, 1024, 2048], 300),
        Scale::Full => (&[256, 512, 1024, 2048, 4096, 8192], 500),
    };
    let seeds = SeedStream::new(seed);
    let mut table = Table::new(vec![
        "n",
        "mean hops",
        "p95 hops",
        "max hops",
        "sqrt(n/log n)",
        "delivery rate",
    ]);
    let mut mean_hops = Vec::new();

    for &n in sizes {
        let network = TopologySpec::standard(n).build(&seeds, 5);
        let mut rng = seeds.trial("e5-pairs", n as u64);
        let mut hops = Vec::with_capacity(pairs);
        let mut delivered = 0usize;
        for _ in 0..pairs {
            let src = NodeId(rng.gen_range(0..n));
            let dst = NodeId(rng.gen_range(0..n));
            let outcome = route_to_node(&network, src, dst);
            hops.push(outcome.hops as f64);
            if outcome.delivered {
                delivered += 1;
            }
        }
        let summary: Summary = hops.iter().copied().collect();
        let p95 = geogossip_analysis::stats::quantile(&hops, 0.95).unwrap_or(0.0);
        let reference = (n as f64 / (n as f64).ln()).sqrt();
        mean_hops.push(summary.mean());
        table.add_row(vec![
            n.to_string(),
            format!("{:.1}", summary.mean()),
            format!("{p95:.1}"),
            format!("{:.0}", summary.max()),
            format!("{reference:.1}"),
            format!("{:.3}", delivered as f64 / pairs as f64),
        ]);
    }

    let xs: Vec<f64> = sizes.iter().map(|&n| n as f64).collect();
    let mut summary = Vec::new();
    if let Some(fit) = fit_power_law(&xs, &mean_hops) {
        summary.push(format!(
            "mean hop count grows as n^{:.2} (paper/[5] predict exponent 0.5 up to the log factor)",
            fit.exponent
        ));
        summary.push(format!(
            "verdict: {}",
            if (0.3..=0.65).contains(&fit.exponent) {
                "consistent with O(√(n/log n))"
            } else {
                "INCONSISTENT"
            }
        ));
    }

    ExperimentOutput {
        id: "E5".into(),
        title: "greedy geographic routing hop counts on G(n, 1.5·√(log n/n))".into(),
        table,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_measures_hops() {
        let out = run(Scale::Smoke, 5);
        assert_eq!(out.table.len(), 2);
        assert!(out.summary.iter().any(|s| s.contains("hop count")));
    }
}
