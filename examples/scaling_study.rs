//! Small scaling study: how the cost of each protocol grows with `n` — now
//! expressed as a **sweep** through the lab instead of a hand-written
//! scenario loop.
//!
//! A lighter-weight version of experiment E4 (the full version runs as
//! `geogossip experiment E4`) and of the committed
//! `scenarios/sweeps/scaling_headline.json` campaign: declare the
//! protocol × size grid as a [`SweepSpec`], run it in memory through
//! [`run_sweep`] (no checkpoint log — pass a path to get resumable
//! execution), and let the lab's aggregation fit the power law
//! `cost ≈ C·n^k` per protocol, with a 95% confidence interval around each
//! exponent. The paper predicts `k ≈ 2` for pairwise gossip, `k ≈ 1.5` for
//! geographic gossip and `k → 1` for the affine hierarchy.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example scaling_study
//! ```

use geogossip::analysis::Table;
use geogossip::core::registry::builtin_runner;
use geogossip::lab::{run_sweep, LabError, SweepAggregator, SweepOptions, SweepReport};
use geogossip::sim::scenario::{ProtocolSpec, SweepSpec};

fn main() -> Result<(), LabError> {
    let sweep = SweepSpec::new(
        "scaling-study",
        vec![128, 256, 512, 1024],
        vec![
            ProtocolSpec::named("pairwise"),
            ProtocolSpec::named("geographic"),
            ProtocolSpec::named("affine-idealized"),
        ],
    )
    .with_trials(3)
    .with_seed(99);

    let runner = builtin_runner();
    let outcome = run_sweep(&runner, &sweep, None, &SweepOptions::default(), |_| {})?;

    let mut aggregator = SweepAggregator::new();
    for record in &outcome.records {
        aggregator.push(record);
    }
    let report = SweepReport::new(sweep.name.clone(), sweep.cell_count(), aggregator.finish());

    // Cost ladder, one row per size (the historical table shape).
    let mut costs = Table::new(vec!["n", "pairwise tx", "geographic tx", "affine tx"]);
    for &n in &sweep.sizes {
        let mut row = vec![n.to_string()];
        for protocol in &sweep.protocols {
            let cell = report
                .aggregate
                .cells
                .iter()
                .find(|c| c.n == n && c.protocol == protocol.name)
                .expect("every grid cell ran");
            row.push(format!("{:.0}", cell.mean_transmissions));
        }
        costs.add_row(row);
    }
    println!("{}", costs.to_markdown());

    // Fitted exponents with confidence intervals, plus the paper's claims.
    let paper = [
        ("pairwise", "≈ 2"),
        ("geographic", "≈ 1.5"),
        ("affine-idealized", "1 + o(1)"),
    ];
    let mut fits = Table::new(vec![
        "protocol",
        "fitted exponent k",
        "95% CI",
        "R²",
        "paper's prediction",
    ]);
    for fit in &report.aggregate.fits {
        let prediction = paper
            .iter()
            .find(|(name, _)| *name == fit.protocol)
            .map(|(_, p)| *p)
            .unwrap_or("—");
        fits.add_row(vec![
            fit.protocol.clone(),
            format!("{:.2}", fit.detail.fit.exponent),
            format!("[{:.2}, {:.2}]", fit.interval.lower, fit.interval.upper),
            format!("{:.3}", fit.detail.fit.r_squared),
            prediction.into(),
        ]);
    }
    println!("{}", fits.to_markdown());

    for verdict in &report.aggregate.verdicts {
        println!(
            "{} {} — {}",
            if verdict.holds { "PASS" } else { "FAIL" },
            verdict.claim,
            verdict.details
        );
    }
    Ok(())
}
