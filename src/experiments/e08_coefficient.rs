//! E8 — Ablation: the non-convex coefficient is what buys the speed-up.
//!
//! The paper's "counter-intuitive" ingredient (Section 1.2) is the affine
//! coefficient `2√n/5` in leader exchanges. The ablation sweeps the
//! coefficient from the convex `1/2` up to the paper's value (as a fraction of
//! the cell's expected population) and measures the number of top-level rounds
//! needed to reach the accuracy target — with convex exchanges each contact
//! moves only an `O(1/√n)` fraction of a cell's mass, so the round count
//! inflates by a factor `Θ(√n)`.
//!
//! The sweep is pure data: every rung is the same `affine-idealized` registry
//! protocol with a different `coefficient-fraction` / `coefficient-fixed`
//! parameter in its [`ScenarioSpec`].

use super::{ExperimentOutput, Scale};
use geogossip_analysis::Table;
use geogossip_core::registry::builtin_runner;
use geogossip_sim::field::{Field, InitialCondition};
use geogossip_sim::scenario::ScenarioSpec;

/// Runs experiment E8.
pub fn run(scale: Scale, seed: u64) -> ExperimentOutput {
    let (n, epsilon, fractions): (usize, f64, &[f64]) = match scale {
        Scale::Smoke => (256, 0.1, &[0.4, 0.0]),
        Scale::Quick => (1024, 0.05, &[0.4, 0.2, 0.1, 0.05, 0.0]),
        Scale::Full => (1024, 0.02, &[0.4, 0.3, 0.2, 0.1, 0.05, 0.02, 0.0]),
    };
    // fraction == 0.0 encodes the convex baseline α = 1/2. All specs share
    // the seed and topology, so every rung runs on the same instance.
    let specs: Vec<ScenarioSpec> = fractions
        .iter()
        .map(|&fraction| {
            let mut spec = ScenarioSpec::standard("affine-idealized", n, epsilon)
                .with_seed(seed)
                .with_field(Field::Condition(InitialCondition::Spike));
            spec.name = format!("e8-fraction-{fraction}");
            spec.protocol = spec.protocol.with_number("max-top-rounds", 200_000.0);
            spec.protocol = if fraction == 0.0 {
                spec.protocol.with_number("coefficient-fixed", 0.5)
            } else {
                spec.protocol.with_number("coefficient-fraction", fraction)
            };
            spec
        })
        .collect();
    let reports = builtin_runner()
        .run_all(&specs)
        .expect("ablation specs are valid");

    let mut table = Table::new(vec![
        "coefficient rule",
        "effective α at the top level",
        "converged",
        "top-level rounds",
        "long-range exchanges",
        "transmissions",
    ]);
    let mut paper_rounds = None;
    let mut convex_rounds = None;

    for (&fraction, report) in fractions.iter().zip(&reports) {
        let trial = &report.trials[0];
        if fraction == 0.4 {
            paper_rounds = Some(trial.rounds);
        }
        if fraction == 0.0 {
            convex_rounds = Some(trial.rounds);
        }
        let label = if fraction == 0.0 {
            "convex α = 1/2 (prior work)".to_string()
        } else if (fraction - 0.4).abs() < 1e-12 {
            "α = (2/5)·#(□) (this paper)".to_string()
        } else {
            format!("α = {fraction}·#(□)")
        };
        table.add_row(vec![
            label,
            format!("{:.1}", trial.metric("effective_alpha_top").unwrap_or(0.0)),
            trial.converged.to_string(),
            trial.rounds.to_string(),
            format!("{:.0}", trial.metric("long_range_exchanges").unwrap_or(0.0)),
            trial.transmissions.total().to_string(),
        ]);
    }

    let mut summary = Vec::new();
    if let (Some(paper), Some(convex)) = (paper_rounds, convex_rounds) {
        let ratio = convex as f64 / paper.max(1) as f64;
        // With convex exchanges a contact moves a 1/(2·E#) fraction of a
        // cell's mass instead of 2/5, so the round count inflates by about
        // (2/5)/(1/(2·E#)) = 0.8·E# ≈ 0.8·√n.
        let predicted_inflation = 0.8 * (n as f64).sqrt();
        summary.push(format!(
            "convex exchanges need {ratio:.1}× more top-level rounds than the paper's coefficient (theory predicts ≈ {predicted_inflation:.0}×)",
        ));
        summary.push(format!(
            "verdict: the non-convex coefficient is load-bearing ({}).",
            if ratio > 3.0 {
                "ablating it collapses the speed-up"
            } else {
                "EFFECT NOT VISIBLE at this size"
            }
        ));
    }

    ExperimentOutput {
        id: "E8".into(),
        title: format!("affine-coefficient ablation on n = {n} (idealized local averaging)"),
        table,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_shows_convex_penalty() {
        let out = run(Scale::Smoke, 8);
        assert_eq!(out.table.len(), 2);
        let paper_rounds: u64 = out.table.rows()[0][3].parse().unwrap();
        let convex_rounds: u64 = out.table.rows()[1][3].parse().unwrap();
        assert!(
            convex_rounds > paper_rounds,
            "{convex_rounds} vs {paper_rounds}"
        );
    }
}
