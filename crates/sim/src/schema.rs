//! One reader for the objects of the spec grammar.
//!
//! Every object of a scenario, sweep, fault or transport document is read
//! through [`Fields`]: building one refuses any key outside that object's
//! grammar, so the unknown-key rule lives here and nowhere else. The value
//! readers ([`number`], [`whole`], [`text`], [`cap`], [`each`], [`one_of`])
//! take a value and its spec path, and so does every decoder of a nested
//! object, so a type error always names the full path of the key at fault.

use crate::error::ProtocolError;
use geogossip_analysis::json::JsonValue;

/// The entries of one object of the grammar, its keys already checked. The
/// default is an empty object, for a key whose absence means "all defaults".
#[derive(Default)]
pub(crate) struct Fields<'a> {
    path: String,
    entries: &'a [(String, JsonValue)],
}

impl<'a> Fields<'a> {
    /// Reads `value` as the object at `path`, refusing any key outside
    /// `known`: ``unknown {path} key `{k}` (known: …)``.
    pub(crate) fn new(
        value: &'a JsonValue,
        path: &str,
        known: &[&str],
    ) -> Result<Self, ProtocolError> {
        Self::labelled(value, path, path, known)
    }

    /// [`Fields::new`] for an object whose unknown-key message calls it
    /// `label` rather than by its path: a document's top level (path `""`),
    /// the sweep's `axes` and `stop`, and one churn event.
    pub(crate) fn labelled(
        value: &'a JsonValue,
        label: &str,
        path: &str,
        known: &[&str],
    ) -> Result<Self, ProtocolError> {
        let entries = value.as_object().ok_or_else(|| {
            ProtocolError::malformed(if path.is_empty() {
                format!("{label} must be a JSON object")
            } else {
                format!("`{path}` must be an object")
            })
        })?;
        if let Some((key, _)) = entries
            .iter()
            .find(|(key, _)| !known.contains(&key.as_str()))
        {
            return Err(ProtocolError::malformed(format!(
                "unknown {label} key `{key}` (known: {})",
                known.join(", ")
            )));
        }
        Ok(Fields {
            path: path.to_string(),
            entries,
        })
    }

    /// The spec path of `key` in this object.
    fn path_of(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// Reads `key` with `read`, or `None` when the object does not hold it.
    pub(crate) fn optional<T>(
        &self,
        key: &str,
        read: impl FnOnce(&'a JsonValue, &str) -> Result<T, ProtocolError>,
    ) -> Result<Option<T>, ProtocolError> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, value)| read(value, &self.path_of(key)))
            .transpose()
    }

    /// Reads `key` with `read`; a missing key is an error naming its path.
    pub(crate) fn require<T>(
        &self,
        key: &str,
        read: impl FnOnce(&'a JsonValue, &str) -> Result<T, ProtocolError>,
    ) -> Result<T, ProtocolError> {
        self.optional(key, read)?
            .ok_or_else(|| ProtocolError::malformed(format!("missing `{}`", self.path_of(key))))
    }
}

fn expected(path: &str, what: &str) -> ProtocolError {
    ProtocolError::malformed(format!("`{path}` must be {what}"))
}

/// A number.
pub(crate) fn number(value: &JsonValue, path: &str) -> Result<f64, ProtocolError> {
    value.as_f64().ok_or_else(|| expected(path, "a number"))
}

/// A whole number that fits `T`.
pub(crate) fn whole<T: TryFrom<u64>>(value: &JsonValue, path: &str) -> Result<T, ProtocolError> {
    value
        .as_u64()
        .and_then(|v| T::try_from(v).ok())
        .ok_or_else(|| expected(path, "a non-negative whole number"))
}

/// A whole-number cap, or `null` for no cap.
pub(crate) fn cap(value: &JsonValue, path: &str) -> Result<Option<u64>, ProtocolError> {
    match value {
        JsonValue::Null => Ok(None),
        value => value
            .as_u64()
            .map(Some)
            .ok_or_else(|| expected(path, "a non-negative whole number or null")),
    }
}

/// A string.
pub(crate) fn text(value: &JsonValue, path: &str) -> Result<String, ProtocolError> {
    value
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| expected(path, "a string"))
}

/// An array, each item read with `read` at `{path}[i]`.
pub(crate) fn each<T>(
    read: impl Fn(&JsonValue, &str) -> Result<T, ProtocolError>,
) -> impl Fn(&JsonValue, &str) -> Result<Vec<T>, ProtocolError> {
    move |value, path| {
        let items = value.as_array().ok_or_else(|| expected(path, "an array"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| read(item, &format!("{path}[{i}]")))
            .collect()
    }
}

/// The grammar's one-of form (`placement`, `radius`, `transport.latency`):
/// the bare `token`, where the form has one, or an object that holds exactly
/// one of `variants`. Returns the chosen name (the token comes back as
/// itself) with its value and spec path.
pub(crate) fn one_of<'v>(
    value: &'v JsonValue,
    path: &str,
    token: Option<&str>,
    variants: &[&str],
) -> Result<(&'v str, &'v JsonValue, String), ProtocolError> {
    let listed = variants
        .iter()
        .map(|v| format!("`{v}`"))
        .collect::<Vec<_>>()
        .join(" or ");
    let shape = match token {
        Some(token) => format!("\"{token}\" or an object with exactly one of {listed}"),
        None => format!("an object with exactly one of {listed}"),
    };
    match value {
        JsonValue::String(s) if Some(s.as_str()) == token => Ok((s, value, path.to_string())),
        JsonValue::String(s) => Err(ProtocolError::malformed(format!(
            "unknown `{path}` model `{s}` (must be {shape})"
        ))),
        JsonValue::Object(_) => match Fields::new(value, path, variants)?.entries {
            [(name, inner)] => Ok((name, inner, format!("{path}.{name}"))),
            _ => Err(expected(path, &shape)),
        },
        _ => Err(expected(path, &shape)),
    }
}

#[cfg(test)]
mod tests {
    use crate::scenario::{ScenarioSpec, SweepSpec};

    /// A valid scenario and a valid sweep to splice one fault into.
    const SCENARIO: &str =
        r#"{"topology": {"n": 64}, "protocol": {"name": "pairwise"}, "stop": {"epsilon": 0.5}}"#;
    const SWEEP: &str =
        r#"{"sweep": "s", "axes": {"n": [64], "protocol": [{"name": "pairwise"}]}}"#;

    /// The message `base` fails with once `insert` follows the first `after`.
    fn spliced_error(base: &str, after: &str, insert: &str) -> String {
        let at = base.find(after).expect("splice point") + after.len();
        let doc = format!("{}{insert}{}", &base[..at], &base[at..]);
        let err = if base == SWEEP {
            SweepSpec::from_json(&doc).map(drop)
        } else {
            ScenarioSpec::from_json(&doc).map(drop)
        };
        err.expect_err(&doc).to_string()
    }

    #[test]
    fn every_object_of_the_grammar_refuses_an_unknown_key() {
        let end = r#""epsilon": 0.5}"#;
        let n = r#""n": 64"#;
        for (base, after, insert, message) in [
            (
                SCENARIO,
                end,
                r#", "oops": 1"#,
                "unknown scenario key `oops`",
            ),
            (
                SCENARIO,
                n,
                r#", "surfaces": "torus""#,
                "unknown topology key `surfaces`",
            ),
            (
                SCENARIO,
                "0.5",
                r#", "max-tick": 1000"#,
                "unknown stop key `max-tick`",
            ),
            (
                SCENARIO,
                r#""pairwise""#,
                r#", "parms": {"bogus": 1}"#,
                "unknown protocol key `parms`",
            ),
            (
                SCENARIO,
                n,
                r#", "placement": {"clustered": {"clusters": 4, "spread": 0.1, "sigma": 1}}"#,
                "unknown topology.placement.clustered key `sigma`",
            ),
            (
                SCENARIO,
                n,
                r#", "placement": {"perforated": {"hole": [0.4, 0.4, 0.6, 0.6], "round": true}}"#,
                "unknown topology.placement.perforated key `round`",
            ),
            (
                SCENARIO,
                n,
                r#", "radius": {"absolute": 0.3, "scale": 2}"#,
                "unknown topology.radius key `scale`",
            ),
            (
                SCENARIO,
                end,
                r#", "parallelism": {"threads": 2, "oops": 1}"#,
                "unknown parallelism key `oops`",
            ),
            (
                SCENARIO,
                end,
                r#", "faults": {"drop-rate": 0.1, "oops": 1}"#,
                "unknown faults key `oops`",
            ),
            (
                SCENARIO,
                end,
                r#", "faults": {"churn": [{"fraction": 0.1, "at-tick": 5, "typo": 1}]}"#,
                "unknown faults.churn key `typo`",
            ),
            (
                SCENARIO,
                end,
                r#", "transport": {"latencyy": "instant"}"#,
                "unknown transport key `latencyy`",
            ),
            (
                SCENARIO,
                end,
                r#", "transport": {"latency": {"fixd": 0.1}}"#,
                "unknown transport.latency key `fixd`",
            ),
            (
                SCENARIO,
                end,
                r#", "transport": {"latency": {"exp": {"mena": 0.1}}}"#,
                "unknown transport.latency.exp key `mena`",
            ),
            (
                SCENARIO,
                end,
                r#", "transport": {"reliability": {"drp": 0.1}}"#,
                "unknown transport.reliability key `drp`",
            ),
            (
                SCENARIO,
                end,
                r#", "transport": {"reliability": {"retry": {"timout": 1}}}"#,
                "unknown transport.reliability.retry key `timout`",
            ),
            (SWEEP, "]}", r#", "oops": 1"#, "unknown sweep key `oops`"),
            (
                SWEEP,
                "[64]",
                r#", "temperature": [1]"#,
                "unknown axis key `temperature`",
            ),
            (
                SWEEP,
                "]}",
                r#", "stop": {"epsilon": 0.1}"#,
                "unknown sweep stop key `epsilon`",
            ),
        ] {
            let err = spliced_error(base, after, insert);
            assert!(err.contains(message), "{insert}: `{err}`");
        }
    }

    #[test]
    fn doubled_variants_and_a_mistyped_name_are_refused() {
        for (after, insert, message) in [
            (
                r#""n": 64"#,
                r#", "placement": {"clustered": {"clusters": 4, "spread": 0.1},
                    "perforated": {"hole": [0.4, 0.4, 0.6, 0.6]}}"#,
                "`topology.placement` must be \"uniform-square\" or an object with exactly one of",
            ),
            (
                r#""n": 64"#,
                r#", "radius": {"connectivity-constant": 1.5, "absolute": 0.01}"#,
                "`topology.radius` must be an object with exactly one of",
            ),
            (
                r#""epsilon": 0.5}"#,
                r#", "name": 5"#,
                "`name` must be a string",
            ),
        ] {
            let err = spliced_error(SCENARIO, after, insert);
            assert!(err.contains(message), "{insert}: `{err}`");
        }
    }
}
