//! The lab's error type: a file it could not read or write is an I/O
//! failure, not a malformed spec.

use geogossip_sim::ProtocolError;
use std::error::Error;
use std::fmt;

/// Why a sweep-lab call stopped.
///
/// # Example
///
/// ```
/// use geogossip_lab::LabError;
/// use geogossip_sim::ProtocolError;
/// let io = LabError::Io("cannot write `out/report.md`: Permission denied".into());
/// assert_eq!(io.to_string(), "cannot write `out/report.md`: Permission denied");
/// let spec = LabError::from(ProtocolError::malformed("missing `axes`"));
/// assert_eq!(spec.to_string(), "malformed scenario spec: missing `axes`");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum LabError {
    /// A results log or report file could not be read, created, repaired or
    /// written. Prints its message alone.
    Io(String),
    /// The scenario layer rejected the sweep, one of its cells or a results
    /// log record, or a cell failed to run. Prints as that layer words it.
    Spec(ProtocolError),
}

impl fmt::Display for LabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabError::Io(message) => f.write_str(message),
            LabError::Spec(err) => err.fmt(f),
        }
    }
}

impl Error for LabError {}

impl From<ProtocolError> for LabError {
    fn from(err: ProtocolError) -> Self {
        LabError::Spec(err)
    }
}
