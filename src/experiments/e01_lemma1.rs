//! E1 — Lemma 1: per-tick contraction of `E‖x(t)‖²` on the complete graph.
//!
//! The paper proves `E‖x(t)‖² < (1 − 1/2n)^t‖x(0)‖²` for the asymmetric affine
//! update with coefficients in `(1/3, 1/2)`. The experiment measures the
//! empirical per-tick contraction factor of the mean squared norm over many
//! trials and compares it against the bound `1 − 1/2n` (and against the
//! sharper constant `1 − 8/(9(n−1))` that appears inside the proof).
//!
//! The dynamics run through the scenario API as the `affine-complete`
//! registry protocol (a self-paced
//! [`Activation`](geogossip_sim::Activation)): the engine's trace samples the
//! relative norm once per `n` ticks, which is exactly the checkpoint series
//! the geometric-mean rate estimate needs. The geometric graph of the spec is a
//! placement-only stand-in (tiny absolute radius) — the complete-graph model
//! ignores adjacency.

use super::{ExperimentOutput, Scale};
use geogossip_analysis::{Summary, Table};
use geogossip_core::convergence::contraction_rate;
use geogossip_core::registry::builtin_runner;
use geogossip_sim::field::{Field, InitialCondition};
use geogossip_sim::scenario::{RadiusSpec, ScenarioSpec};
use geogossip_sim::ConvergenceTrace;

/// A spec that runs the Lemma-1 dynamics for a fixed number of ticks.
fn lemma1_spec(n: usize, max_ticks: u64, trials: u64, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::standard("affine-complete", n, f64::MIN_POSITIVE)
        .with_field(Field::Condition(InitialCondition::Ramp))
        .with_trials(trials)
        .with_seed(seed);
    spec.name = format!("e1-lemma1-n{n}");
    // The model ignores adjacency; a tiny absolute radius keeps the
    // placeholder graph build O(n).
    spec.topology.radius = RadiusSpec::Absolute(0.05);
    spec.stop = spec.stop.with_max_ticks(max_ticks);
    spec
}

/// Per-checkpoint squared-norm series from the engine trace (one sample per
/// `n` ticks; the duplicated final point is dropped).
fn squared_norm_series(trace: &ConvergenceTrace) -> Vec<f64> {
    let mut series = Vec::new();
    let mut last_tick = u64::MAX;
    for point in trace.points() {
        if point.ticks == last_tick {
            continue;
        }
        last_tick = point.ticks;
        series.push(point.relative_error * point.relative_error);
    }
    series
}

/// Runs experiment E1.
pub fn run(scale: Scale, seed: u64) -> ExperimentOutput {
    let (sizes, trials, ticks_per_n): (&[usize], u64, u64) = match scale {
        Scale::Smoke => (&[16, 32], 10, 400),
        Scale::Quick => (&[16, 32, 64, 128, 256], 40, 4_000),
        Scale::Full => (&[16, 32, 64, 128, 256, 512, 1024], 100, 20_000),
    };
    let runner = builtin_runner();
    let mut table = Table::new(vec![
        "n",
        "measured contraction (per tick)",
        "Lemma 1 bound (1 - 1/2n)",
        "proof constant (1 - 8/9(n-1))",
        "bound satisfied",
    ]);
    let mut all_ok = true;

    for &n in sizes {
        let ticks = ticks_per_n.min(40 * n as u64);
        let checkpoints = (ticks / n as u64).max(4);
        let spec = lemma1_spec(n, checkpoints * n as u64, trials, seed);
        let report = runner.run(&spec).expect("lemma-1 spec is valid");
        let mut rates = Summary::new();
        for trial in &report.trials {
            let norms = squared_norm_series(&trial.trace);
            if let Some(rate_per_checkpoint) = contraction_rate(&norms) {
                // Convert the per-checkpoint (n ticks) factor to per-tick.
                rates.push(rate_per_checkpoint.powf(1.0 / n as f64));
            }
        }
        let measured = rates.mean();
        let lemma_bound = 1.0 - 1.0 / (2.0 * n as f64);
        let proof_constant = 1.0 - 8.0 / (9.0 * (n as f64 - 1.0));
        let ok = measured <= lemma_bound + 1e-3;
        all_ok &= ok;
        table.add_row(vec![
            n.to_string(),
            format!("{measured:.6}"),
            format!("{lemma_bound:.6}"),
            format!("{proof_constant:.6}"),
            ok.to_string(),
        ]);
    }

    ExperimentOutput {
        id: "E1".into(),
        title: "Lemma 1 contraction of E‖x‖² under affine gossip on K_n".into(),
        table,
        summary: vec![
            format!(
                "verdict: measured contraction {} the Lemma-1 bound at every size",
                if all_ok { "satisfies" } else { "VIOLATES" }
            ),
            "(the measured rate should sit between the proof constant and the stated bound)".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_satisfies_the_bound() {
        let out = run(Scale::Smoke, 1);
        assert_eq!(out.table.len(), 2);
        assert!(out.summary[0].contains("satisfies"));
    }
}
