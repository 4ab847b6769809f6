//! E2 — Lemma 2: robustness of the affine dynamics to bounded perturbations.
//!
//! The paper bounds `‖y(t)‖` for the perturbed dynamics by
//! `n^{a/2}((1−1/2n)^{t/2}‖y(0)‖ + 8√2·n^{3/2}·ε)` with probability `1 − 5/n^a`.
//! The experiment runs the perturbed model across sizes and perturbation
//! magnitudes and reports the observed `‖y(t)‖` against the envelope (with
//! `a = 1`), plus the fraction of trials that stayed inside it.
//!
//! Each `(n, ε)` cell is one [`ScenarioSpec`] over the
//! `perturbed-affine-complete` registry protocol; the final norm and the
//! Lemma-2 envelope come back through the protocol's
//! [`metrics`](geogossip_sim::Activation::metrics).

use super::{ExperimentOutput, Scale};
use geogossip_analysis::Table;
use geogossip_core::registry::builtin_runner;
use geogossip_sim::field::{Field, InitialCondition};
use geogossip_sim::scenario::{RadiusSpec, ScenarioSpec};

/// Runs experiment E2.
pub fn run(scale: Scale, seed: u64) -> ExperimentOutput {
    let (sizes, magnitudes, trials, ticks_factor): (&[usize], &[f64], u64, u64) = match scale {
        Scale::Smoke => (&[32], &[1e-4], 5, 50),
        Scale::Quick => (&[32, 64, 128], &[1e-6, 1e-4, 1e-3], 20, 200),
        Scale::Full => (&[32, 64, 128, 256, 512], &[1e-6, 1e-5, 1e-4, 1e-3], 50, 400),
    };
    let runner = builtin_runner();
    let mut table = Table::new(vec![
        "n",
        "perturbation ε",
        "mean ‖y(t)‖",
        "max ‖y(t)‖",
        "Lemma 2 envelope (a=1)",
        "fraction inside envelope",
    ]);
    let mut worst_fraction: f64 = 1.0;

    for &n in sizes {
        for &eps in magnitudes {
            let mut spec =
                ScenarioSpec::standard("perturbed-affine-complete", n, f64::MIN_POSITIVE)
                    .with_field(Field::Condition(InitialCondition::Ramp))
                    .with_trials(trials)
                    .with_seed(seed);
            spec.name = format!("e2-lemma2-n{n}-eps{eps:e}");
            // The model ignores adjacency; keep the placeholder graph cheap.
            spec.topology.radius = RadiusSpec::Absolute(0.05);
            spec.stop = spec.stop.with_max_ticks(ticks_factor * n as u64);
            spec.protocol = spec
                .protocol
                .with_number("alpha", 0.45)
                .with_number("magnitude", eps)
                .with_text("kind", "uniform-symmetric");
            let report = runner.run(&spec).expect("lemma-2 spec is valid");

            let mut inside = 0u64;
            let mut sum_norm = 0.0;
            let mut max_norm: f64 = 0.0;
            let mut envelope = 0.0;
            for trial in &report.trials {
                let norm = trial.metric("norm").expect("model reports its norm");
                envelope = trial
                    .metric("lemma2_envelope_a1")
                    .expect("model reports its envelope");
                sum_norm += norm;
                max_norm = max_norm.max(norm);
                if norm <= envelope {
                    inside += 1;
                }
            }
            let fraction = inside as f64 / trials as f64;
            worst_fraction = worst_fraction.min(fraction);
            table.add_row(vec![
                n.to_string(),
                format!("{eps:.0e}"),
                format!("{:.3e}", sum_norm / trials as f64),
                format!("{max_norm:.3e}"),
                format!("{envelope:.3e}"),
                format!("{fraction:.2}"),
            ]);
        }
    }

    // Lemma 2 promises probability ≥ 1 − 5/n; for the smallest n in the sweep
    // that is a weak promise, so the observed fractions should comfortably
    // exceed it.
    let weakest_promise = 1.0 - 5.0 / sizes[0] as f64;
    ExperimentOutput {
        id: "E2".into(),
        title: "Lemma 2 perturbation envelope for the affine dynamics".into(),
        table,
        summary: vec![
            format!(
                "worst observed inside-envelope fraction: {worst_fraction:.2} (Lemma 2 promises ≥ {:.2} for the smallest n)",
                weakest_promise.max(0.0)
            ),
            format!(
                "verdict: {}",
                if worst_fraction >= weakest_promise.max(0.0) { "bound holds" } else { "BOUND VIOLATED" }
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_stays_inside_envelope() {
        let out = run(Scale::Smoke, 2);
        assert_eq!(out.table.len(), 1);
        assert!(out.summary[1].contains("bound holds"));
    }
}
