//! The protocol registry: `Box<dyn Activation>` factories keyed by name and
//! serde parameters.
//!
//! This replaces the closed `ProtocolKind` enum the experiment harness used
//! to switch on: a scenario names its protocol (`"pairwise"`,
//! `"affine-idealized"`, …), the registry resolves the name to a factory, and
//! the factory builds a boxed [`Activation`] from the scenario's parameters.
//! Adding a protocol is one [`ProtocolRegistry::register`] call — no
//! experiment code changes.
//!
//! Each entry carries a **seed tag**, mixed into the per-trial run stream
//! (`seeds.trial("run", trial ^ (tag << 32))`). The built-in tags 0–3 are the
//! discriminants of the retired enum, which keeps every scenario run
//! bit-identical to the pre-registry harness; new registrations must pick
//! fresh tags so protocols compared on one instance stay statistically
//! independent.

use crate::affine::round_based::{
    CoefficientRule, LocalAveraging, RoundBasedActivation, RoundBasedConfig,
};
use crate::affine::state_machine::AffineStateMachine;
use crate::error::ProtocolError;
use crate::geographic::GeographicGossip;
use crate::model::{
    AffineCompleteGraph, CompleteGraphActivation, PerturbationKind, PerturbedAffineCompleteGraph,
    PerturbedCompleteGraphActivation,
};
use crate::pairwise::PairwiseGossip;
use geogossip_graph::GeometricGraph;
use geogossip_routing::target::TargetSelector;
use geogossip_sim::engine::Activation;
use geogossip_sim::scenario::{ProtocolFactory, ProtocolSpec, Runner};
use rand::RngCore;

/// A protocol factory function: scenario parameters + network + initial
/// values + stop target + the trial's run RNG, to a boxed protocol borrowing
/// the network.
pub type BuildFn = for<'a> fn(
    &ProtocolSpec,
    &'a GeometricGraph,
    Vec<f64>,
    f64,
    &mut dyn RngCore,
) -> Result<Box<dyn Activation + 'a>, ProtocolError>;

/// One registry entry: a resolvable name plus its factory and metadata.
pub struct ProtocolEntry {
    /// The name scenarios use to select this protocol.
    pub name: String,
    /// One-line description for listings.
    pub summary: String,
    /// Mixed into the per-trial run seed; unique per entry.
    pub seed_tag: u64,
    build: BuildFn,
}

/// Name-keyed collection of protocol factories; implements the scenario
/// layer's [`ProtocolFactory`] so a [`Runner`] can execute specs against it.
pub struct ProtocolRegistry {
    entries: Vec<ProtocolEntry>,
}

impl ProtocolRegistry {
    /// An empty registry (useful for fully custom protocol sets).
    pub fn empty() -> Self {
        ProtocolRegistry {
            entries: Vec::new(),
        }
    }

    /// The registry of built-in protocols:
    ///
    /// | name | protocol | seed tag |
    /// |---|---|---|
    /// | `pairwise` | Boyd et al. nearest-neighbor gossip | 0 |
    /// | `geographic` | Dimakis et al. geographic gossip | 1 |
    /// | `affine-idealized` | this paper, round-based, exact local averaging | 2 |
    /// | `affine-recursive` | this paper, round-based, recursive local averaging | 3 |
    /// | `affine-state-machine` | this paper, literal asynchronous protocol | 4 |
    /// | `affine-complete` | Lemma-1 complete-graph dynamics | 5 |
    /// | `perturbed-affine-complete` | Lemma-2 perturbed dynamics | 6 |
    pub fn builtin() -> Self {
        let mut registry = Self::empty();
        registry.register(
            "pairwise",
            "Boyd et al. pairwise nearest-neighbor gossip",
            0,
            build_pairwise,
        );
        registry.register(
            "geographic",
            "Dimakis et al. geographic gossip (params: selector, probes, cap)",
            1,
            build_geographic,
        );
        registry.register(
            "affine-idealized",
            "affine hierarchy, round-based, exact local averaging (params: coefficient-fraction, …)",
            2,
            build_affine_idealized,
        );
        registry.register(
            "affine-recursive",
            "affine hierarchy, round-based, recursive gossip local averaging",
            3,
            build_affine_recursive,
        );
        registry.register(
            "affine-state-machine",
            "affine hierarchy, literal asynchronous state machine (practical schedule)",
            4,
            build_state_machine,
        );
        registry.register(
            "affine-complete",
            "Lemma-1 affine dynamics on the complete graph (params: alpha)",
            5,
            build_affine_complete,
        );
        registry.register(
            "perturbed-affine-complete",
            "Lemma-2 perturbed affine dynamics (params: alpha, magnitude, kind)",
            6,
            build_perturbed_complete,
        );
        registry
    }

    /// Registers (or replaces) a protocol under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `seed_tag` collides with a different entry's tag — two
    /// protocols sharing a tag would consume identical run streams, silently
    /// correlating their results.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        summary: impl Into<String>,
        seed_tag: u64,
        build: BuildFn,
    ) {
        let name = name.into();
        self.entries.retain(|e| e.name != name);
        assert!(
            self.entries.iter().all(|e| e.seed_tag != seed_tag),
            "seed tag {seed_tag} already taken by another protocol"
        );
        self.entries.push(ProtocolEntry {
            name,
            summary: summary.into(),
            seed_tag,
            build,
        });
    }

    /// The registered entries, in registration order.
    pub fn entries(&self) -> &[ProtocolEntry] {
        &self.entries
    }

    fn entry(&self, name: &str) -> Option<&ProtocolEntry> {
        self.entries.iter().find(|e| e.name == name)
    }
}

impl ProtocolFactory for ProtocolRegistry {
    fn names(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.name.clone()).collect()
    }

    fn seed_tag(&self, name: &str) -> Option<u64> {
        self.entry(name).map(|e| e.seed_tag)
    }

    fn build<'a>(
        &self,
        spec: &ProtocolSpec,
        graph: &'a GeometricGraph,
        values: Vec<f64>,
        epsilon: f64,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn Activation + 'a>, ProtocolError> {
        let entry = self
            .entry(&spec.name)
            .ok_or_else(|| ProtocolError::UnknownProtocol {
                name: spec.name.clone(),
            })?;
        (entry.build)(spec, graph, values, epsilon, rng)
    }
}

/// A [`Runner`] over the built-in registry — the one-line entry point the
/// CLI, the experiments and the examples share.
pub fn builtin_runner() -> Runner {
    Runner::new(Box::new(ProtocolRegistry::builtin()))
}

// ---------------------------------------------------------------------------
// Built-in factories.
// ---------------------------------------------------------------------------

fn build_pairwise<'a>(
    spec: &ProtocolSpec,
    graph: &'a GeometricGraph,
    values: Vec<f64>,
    _epsilon: f64,
    _rng: &mut dyn RngCore,
) -> Result<Box<dyn Activation + 'a>, ProtocolError> {
    spec.reject_unknown(&[])?;
    Ok(Box::new(PairwiseGossip::new(graph, values)?))
}

fn build_geographic<'a>(
    spec: &ProtocolSpec,
    graph: &'a GeometricGraph,
    values: Vec<f64>,
    _epsilon: f64,
    rng: &mut dyn RngCore,
) -> Result<Box<dyn Activation + 'a>, ProtocolError> {
    spec.reject_unknown(&["selector", "probes", "cap"])?;
    let selector = match spec.text("selector", "nearest-position")?.as_str() {
        "nearest-position" => TargetSelector::NearestToUniformPosition,
        "uniform-index" => TargetSelector::UniformByIndex,
        "rejection-sampled" => {
            let probes = spec.number("probes", 10_000.0)?;
            // The selector needs at least one probe; `as usize` would turn a
            // fraction or a negative into 0 and panic there.
            if !(probes >= 1.0 && probes.fract() == 0.0) {
                return Err(ProtocolError::invalid(
                    "probes",
                    format!("must be a whole number of at least 1, got {probes}"),
                ));
            }
            let cap = spec.number("cap", 20.0)? as usize;
            TargetSelector::rejection_sampled(graph, probes as usize, cap, rng)
        }
        other => {
            return Err(ProtocolError::invalid(
                "selector",
                format!(
                    "unknown selector `{other}` (known: nearest-position, uniform-index, rejection-sampled)"
                ),
            ))
        }
    };
    Ok(Box::new(GeographicGossip::with_selector(
        graph, values, selector,
    )?))
}

/// Shared parameter decoding for the two round-based variants.
fn round_based_config(
    spec: &ProtocolSpec,
    base: RoundBasedConfig,
) -> Result<RoundBasedConfig, ProtocolError> {
    spec.reject_unknown(&[
        "coefficient-fraction",
        "coefficient-fixed",
        "rounds-factor",
        "epsilon-decay",
        "max-top-rounds",
        "max-exchanges-factor",
    ])?;
    let mut config = base;
    if let Some(fixed) = optional_number(spec, "coefficient-fixed")? {
        config.coefficient = CoefficientRule::Fixed(fixed);
        if spec.params.contains_key("coefficient-fraction") {
            return Err(ProtocolError::invalid(
                "coefficient-fixed",
                "cannot combine with coefficient-fraction",
            ));
        }
    } else if let Some(fraction) = optional_number(spec, "coefficient-fraction")? {
        config.coefficient = CoefficientRule::FractionOfPopulation(fraction);
    }
    config.rounds_factor = spec.number("rounds-factor", config.rounds_factor)?;
    config.epsilon_decay = spec.number("epsilon-decay", config.epsilon_decay)?;
    config.max_top_rounds = spec.number("max-top-rounds", config.max_top_rounds as f64)? as u64;
    if let Some(factor) = optional_number(spec, "max-exchanges-factor")? {
        config.local_averaging = match config.local_averaging {
            LocalAveraging::Gossip { .. } => LocalAveraging::Gossip {
                max_exchanges_factor: factor,
            },
            LocalAveraging::Exact => {
                return Err(ProtocolError::invalid(
                    "max-exchanges-factor",
                    "only applies to the recursive (gossip) local-averaging mode",
                ))
            }
        };
    }
    Ok(config)
}

fn optional_number(spec: &ProtocolSpec, key: &str) -> Result<Option<f64>, ProtocolError> {
    if spec.params.contains_key(key) {
        spec.number(key, 0.0).map(Some)
    } else {
        Ok(None)
    }
}

fn build_affine_idealized<'a>(
    spec: &ProtocolSpec,
    graph: &'a GeometricGraph,
    values: Vec<f64>,
    epsilon: f64,
    _rng: &mut dyn RngCore,
) -> Result<Box<dyn Activation + 'a>, ProtocolError> {
    let config = round_based_config(spec, RoundBasedConfig::idealized(graph.len()))?;
    Ok(Box::new(RoundBasedActivation::new(
        graph, values, config, epsilon,
    )?))
}

fn build_affine_recursive<'a>(
    spec: &ProtocolSpec,
    graph: &'a GeometricGraph,
    values: Vec<f64>,
    epsilon: f64,
    _rng: &mut dyn RngCore,
) -> Result<Box<dyn Activation + 'a>, ProtocolError> {
    let config = round_based_config(spec, RoundBasedConfig::practical(graph.len()))?;
    Ok(Box::new(RoundBasedActivation::new(
        graph, values, config, epsilon,
    )?))
}

fn build_state_machine<'a>(
    spec: &ProtocolSpec,
    graph: &'a GeometricGraph,
    values: Vec<f64>,
    _epsilon: f64,
    _rng: &mut dyn RngCore,
) -> Result<Box<dyn Activation + 'a>, ProtocolError> {
    spec.reject_unknown(&[])?;
    Ok(Box::new(AffineStateMachine::practical(graph, values)?))
}

fn build_affine_complete<'a>(
    spec: &ProtocolSpec,
    graph: &'a GeometricGraph,
    values: Vec<f64>,
    _epsilon: f64,
    rng: &mut dyn RngCore,
) -> Result<Box<dyn Activation + 'a>, ProtocolError> {
    spec.reject_unknown(&["alpha"])?;
    let mut model = match spec.params.get("alpha") {
        None => AffineCompleteGraph::with_random_alphas(graph.len(), rng)?,
        Some(_) => {
            AffineCompleteGraph::with_uniform_alpha(graph.len(), spec.number("alpha", 0.4)?)?
        }
    };
    model.set_centered_values(values)?;
    Ok(Box::new(CompleteGraphActivation::new(model)))
}

fn build_perturbed_complete<'a>(
    spec: &ProtocolSpec,
    graph: &'a GeometricGraph,
    values: Vec<f64>,
    _epsilon: f64,
    _rng: &mut dyn RngCore,
) -> Result<Box<dyn Activation + 'a>, ProtocolError> {
    spec.reject_unknown(&["alpha", "magnitude", "kind"])?;
    let kind = match spec.text("kind", "uniform-symmetric")?.as_str() {
        "constant" => PerturbationKind::Constant,
        "uniform-symmetric" => PerturbationKind::UniformSymmetric,
        "alternating" => PerturbationKind::Alternating,
        other => {
            return Err(ProtocolError::invalid(
                "kind",
                format!(
                    "unknown perturbation kind `{other}` (known: constant, uniform-symmetric, alternating)"
                ),
            ))
        }
    };
    let mut model = PerturbedAffineCompleteGraph::new(
        graph.len(),
        spec.number("alpha", 0.45)?,
        spec.number("magnitude", 1e-4)?,
        kind,
    )?;
    model.set_centered_values(values)?;
    Ok(Box::new(PerturbedCompleteGraphActivation::new(model)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use geogossip_geometry::sampling::sample_unit_square;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn graph(n: usize) -> GeometricGraph {
        let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(1));
        GeometricGraph::build_at_connectivity_radius(pts, 2.0)
    }

    #[test]
    fn every_builtin_resolves_and_builds() {
        let registry = ProtocolRegistry::builtin();
        let g = graph(128);
        assert_eq!(registry.names().len(), 7);
        for name in registry.names() {
            let spec = ProtocolSpec::named(&name);
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            let values = vec![1.0; g.len()];
            let protocol = registry
                .build(&spec, &g, values, 0.1, &mut rng)
                .unwrap_or_else(|e| panic!("{name} failed to build: {e}"));
            assert!(!protocol.name().is_empty());
            assert!(registry.seed_tag(&name).is_some());
        }
    }

    #[test]
    fn seed_tags_are_unique_and_stable_for_the_legacy_four() {
        let registry = ProtocolRegistry::builtin();
        // Tags 0–3 are the retired ProtocolKind discriminants (bit-for-bit
        // reproducibility of historical runs depends on them).
        assert_eq!(registry.seed_tag("pairwise"), Some(0));
        assert_eq!(registry.seed_tag("geographic"), Some(1));
        assert_eq!(registry.seed_tag("affine-idealized"), Some(2));
        assert_eq!(registry.seed_tag("affine-recursive"), Some(3));
        let mut tags: Vec<u64> = registry.entries().iter().map(|e| e.seed_tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), registry.entries().len());
    }

    #[test]
    fn unknown_names_and_params_are_rejected() {
        let registry = ProtocolRegistry::builtin();
        let g = graph(64);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert!(matches!(
            registry.build(
                &ProtocolSpec::named("nope"),
                &g,
                vec![0.0; 64],
                0.1,
                &mut rng
            ),
            Err(ProtocolError::UnknownProtocol { .. })
        ));
        let bad = ProtocolSpec::named("pairwise").with_number("typo", 1.0);
        assert!(matches!(
            registry.build(&bad, &g, vec![0.0; 64], 0.1, &mut rng),
            Err(ProtocolError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn rejection_sampled_probes_must_be_a_whole_number_of_at_least_one() {
        let registry = ProtocolRegistry::builtin();
        let g = graph(64);
        for probes in [0.0, 0.5] {
            let spec = ProtocolSpec::named("geographic")
                .with_text("selector", "rejection-sampled")
                .with_number("probes", probes);
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            match registry.build(&spec, &g, vec![0.0; 64], 0.1, &mut rng) {
                Err(ProtocolError::InvalidParameter { name, .. }) => assert_eq!(name, "probes"),
                Err(other) => panic!("probes {probes}: wrong error `{other}`"),
                Ok(_) => panic!("probes {probes} was accepted"),
            }
        }
    }

    #[test]
    fn round_based_params_reshape_the_config() {
        let registry = ProtocolRegistry::builtin();
        let g = graph(256);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let spec = ProtocolSpec::named("affine-idealized")
            .with_number("coefficient-fixed", 0.5)
            .with_number("max-top-rounds", 17.0);
        let protocol = registry
            .build(&spec, &g, vec![1.0; g.len()], 0.1, &mut rng)
            .unwrap();
        let params = protocol.params();
        let find = |key: &str| {
            params
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert!(find("coefficient").contains("Fixed(0.5)"));
        assert_eq!(find("max_top_rounds"), "17");

        // Conflicting coefficient parameters are rejected.
        let conflict = ProtocolSpec::named("affine-idealized")
            .with_number("coefficient-fixed", 0.5)
            .with_number("coefficient-fraction", 0.4);
        assert!(registry
            .build(&conflict, &g, vec![1.0; g.len()], 0.1, &mut rng)
            .is_err());
    }

    #[test]
    fn custom_registrations_replace_by_name_and_reject_tag_collisions() {
        let mut registry = ProtocolRegistry::builtin();
        registry.register("pairwise", "replacement", 0, build_pairwise);
        assert_eq!(registry.entries().len(), 7);
        assert_eq!(
            registry
                .entries()
                .iter()
                .find(|e| e.name == "pairwise")
                .unwrap()
                .summary,
            "replacement"
        );
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn colliding_seed_tags_panic() {
        let mut registry = ProtocolRegistry::builtin();
        registry.register("another", "tag thief", 0, build_pairwise);
    }
}
