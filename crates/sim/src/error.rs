//! Error type shared by protocol constructors and scenario validation.
//!
//! The type lives in `geogossip-sim` (the bottom of the protocol stack) so
//! that both the protocol implementations in `geogossip-core` and the
//! scenario layer in [`crate::scenario`] can report failures through one
//! vocabulary; `geogossip_core::error` re-exports it under its historical
//! path.

use std::error::Error;
use std::fmt;

/// Errors reported when constructing or configuring a gossip protocol or a
/// scenario.
///
/// Protocol constructors and [`crate::scenario::ScenarioSpec::validate`]
/// check their inputs (network size, value vector length, coefficient ranges,
/// stop-condition targets) and return this error instead of panicking, so
/// experiment harnesses can skip invalid configurations gracefully.
///
/// # Example
///
/// ```
/// use geogossip_sim::ProtocolError;
/// let err = ProtocolError::EmptyNetwork;
/// assert_eq!(err.to_string(), "network has no sensors");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// The network has no sensors.
    EmptyNetwork,
    /// The initial value vector length does not match the number of sensors.
    ValueLengthMismatch {
        /// Number of sensors in the network.
        nodes: usize,
        /// Length of the supplied value vector.
        values: usize,
    },
    /// A numeric parameter was outside its valid range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: String,
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// The hierarchical protocol needs a partition with at least two top-level
    /// cells that contain sensors.
    DegeneratePartition,
    /// A scenario referenced a protocol name the registry does not know.
    UnknownProtocol {
        /// The unresolved name.
        name: String,
    },
    /// A scenario document (JSON) could not be interpreted as a spec.
    MalformedSpec {
        /// What was wrong with the document.
        reason: String,
    },
}

impl ProtocolError {
    /// Convenience constructor for [`ProtocolError::InvalidParameter`].
    pub fn invalid(name: impl Into<String>, reason: impl Into<String>) -> Self {
        ProtocolError::InvalidParameter {
            name: name.into(),
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`ProtocolError::MalformedSpec`].
    pub fn malformed(reason: impl Into<String>) -> Self {
        ProtocolError::MalformedSpec {
            reason: reason.into(),
        }
    }

    /// The same error with `context` (a file path, say) written ahead of its
    /// reason, so the message says where without a second kind prefix:
    /// `malformed scenario spec: <context>: <reason>`. The kind is kept, so
    /// an [`ProtocolError::InvalidParameter`] stays one. Kinds without a
    /// reason come back unchanged.
    pub fn within(self, context: &str) -> Self {
        match self {
            ProtocolError::InvalidParameter { name, reason } => ProtocolError::InvalidParameter {
                name,
                reason: format!("{context}: {reason}"),
            },
            ProtocolError::MalformedSpec { reason } => ProtocolError::MalformedSpec {
                reason: format!("{context}: {reason}"),
            },
            other => other,
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::EmptyNetwork => write!(f, "network has no sensors"),
            ProtocolError::ValueLengthMismatch { nodes, values } => write!(
                f,
                "value vector length {values} does not match sensor count {nodes}"
            ),
            ProtocolError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            ProtocolError::DegeneratePartition => {
                write!(
                    f,
                    "hierarchical partition has fewer than two populated top-level cells"
                )
            }
            ProtocolError::UnknownProtocol { name } => {
                write!(f, "unknown protocol `{name}` (see the registry's listing)")
            }
            ProtocolError::MalformedSpec { reason } => {
                write!(f, "malformed scenario spec: {reason}")
            }
        }
    }
}

impl Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<(ProtocolError, &str)> = vec![
            (ProtocolError::EmptyNetwork, "network has no sensors"),
            (
                ProtocolError::ValueLengthMismatch {
                    nodes: 3,
                    values: 5,
                },
                "value vector length 5 does not match sensor count 3",
            ),
            (
                ProtocolError::invalid("epsilon", "must be positive"),
                "invalid parameter `epsilon`: must be positive",
            ),
            (
                ProtocolError::UnknownProtocol {
                    name: "gossipx".into(),
                },
                "unknown protocol `gossipx` (see the registry's listing)",
            ),
            (
                ProtocolError::malformed("expected an object"),
                "malformed scenario spec: expected an object",
            ),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn within_prefixes_the_reason_once_and_keeps_the_kind() {
        assert_eq!(
            ProtocolError::malformed("unknown sweep key `bogus`")
                .within("s.json")
                .to_string(),
            "malformed scenario spec: s.json: unknown sweep key `bogus`"
        );
        assert_eq!(
            ProtocolError::invalid("trials", "need at least one trial").within("s.json"),
            ProtocolError::invalid("trials", "s.json: need at least one trial")
        );
        assert_eq!(
            ProtocolError::EmptyNetwork.within("s.json"),
            ProtocolError::EmptyNetwork
        );
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<ProtocolError>();
    }
}
