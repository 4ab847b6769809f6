//! Compare the averaging protocols on the same network instance.
//!
//! Reproduces, on one seeded instance, the comparison the paper makes
//! analytically (Section 1): nearest-neighbor gossip (Boyd et al.),
//! geographic gossip (Dimakis et al.), and the hierarchical affine protocol
//! of this paper (both the round-based form and the literal asynchronous
//! state machine), all described as [`ScenarioSpec`]s and executed in one
//! parallel batch. Specs sharing a seed and topology run on **identical**
//! networks and fields — only the protocol differs.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example compare_protocols
//! ```

use geogossip::core::registry::builtin_runner;
use geogossip::core::ProtocolError;
use geogossip::sim::field::{Field, InitialCondition};
use geogossip::sim::scenario::{reports_table, ScenarioSpec};

fn main() -> Result<(), ProtocolError> {
    let n = 512;
    let epsilon = 0.05;
    let seed = 7;

    let spike = Field::Condition(InitialCondition::Spike);
    let mut specs: Vec<ScenarioSpec> = ["pairwise", "geographic", "affine-idealized"]
        .iter()
        .map(|&protocol| {
            ScenarioSpec::standard(protocol, n, epsilon)
                .with_seed(seed)
                .with_field(spike)
        })
        .collect();
    // The literal asynchronous protocol is run to a looser target: with the
    // practical schedule its long-range exchanges are deliberately rare (that
    // is the paper's stability mechanism), so driving it to the same ε as the
    // round-based form takes far more simulated time than an example should.
    let mut machine = ScenarioSpec::standard("affine-state-machine", n, 0.2)
        .with_seed(seed)
        .with_field(spike);
    machine.stop = machine.stop.with_max_ticks(5_000_000);
    specs.push(machine);

    let reports = builtin_runner().run_all(&specs)?;
    println!("instance: n = {n}, standard radius, spike field, target ε = {epsilon}");
    println!("(state machine runs to its own ε = 0.2; see the doc comment)\n");
    println!("{}", reports_table(&reports).to_markdown());
    println!("note: the affine protocol's advantage is asymptotic (in the scaling exponent);");
    println!("      run `geogossip experiment E4`");
    println!("      to see the fitted exponents across network sizes.");
    Ok(())
}
