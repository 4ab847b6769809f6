//! Small scaling study: how the cost of each protocol grows with `n`,
//! expressed as a **sweep** through the lab.
//!
//! A lighter-weight version of experiment E4 (the full version runs as
//! `geogossip experiment E4`) and of the committed
//! `scenarios/sweeps/scaling_headline.json` campaign: declare the
//! protocol × size grid as a [`SweepSpec`], run it in memory through
//! [`run_sweep`] (no checkpoint log — pass a path to get resumable
//! execution), and print the lab's Markdown report. It fits the power law
//! `cost ≈ C·n^k` per protocol with a 95% confidence interval around each
//! exponent, and its verdicts judge the paper's ordering: `k ≈ 2` for
//! pairwise gossip, `k ≈ 1.5` for geographic gossip and `k → 1` for the
//! affine hierarchy.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example scaling_study
//! ```

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
    println!("{}", report.markdown());
    Ok(())
}
