use std::fmt;

/// Error type for all fallible operations in `blockamc`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BlockAmcError {
    /// Invalid solver/partition configuration.
    InvalidConfig {
        /// Explanation of what was wrong.
        message: String,
    },
    /// Input shapes disagree (matrix not square, `b` wrong length, …).
    ShapeMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Expected size.
        expected: usize,
        /// Provided size.
        got: usize,
    },
    /// The system matrix holds a NaN or infinite entry (the first one
    /// in row-major order is reported).
    NonFinite {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
    },
    /// A right-hand side holds a NaN or infinite entry (the first one is
    /// reported).
    NonFiniteRhs {
        /// Index of the offending entry.
        index: usize,
    },
    /// An engine was handed an operand programmed by a different engine
    /// kind (e.g. a numeric operand passed to the circuit engine).
    OperandMismatch {
        /// The engine that rejected the operand.
        engine: &'static str,
    },
    /// A name was looked up in an [`crate::engine::EngineRegistry`]
    /// that has no backend registered under it.
    UnknownEngine {
        /// The unregistered name.
        name: String,
        /// Comma-separated names the registry does know.
        known: String,
    },
    /// An underlying linear-algebra operation failed.
    Linalg(amc_linalg::LinalgError),
    /// An underlying device-model operation failed.
    Device(amc_device::DeviceError),
    /// An underlying circuit-simulation operation failed.
    Circuit(amc_circuit::CircuitError),
}

impl BlockAmcError {
    /// Shorthand constructor for [`BlockAmcError::InvalidConfig`].
    pub fn config(message: impl Into<String>) -> Self {
        BlockAmcError::InvalidConfig {
            message: message.into(),
        }
    }
}

impl fmt::Display for BlockAmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockAmcError::InvalidConfig { message } => {
                write!(f, "invalid solver configuration: {message}")
            }
            BlockAmcError::ShapeMismatch { op, expected, got } => {
                write!(f, "shape mismatch in {op}: expected {expected}, got {got}")
            }
            BlockAmcError::NonFinite { row, col } => {
                write!(f, "matrix entry ({row}, {col}) is not finite")
            }
            BlockAmcError::NonFiniteRhs { index } => {
                write!(f, "right-hand side entry {index} is not finite")
            }
            BlockAmcError::OperandMismatch { engine } => {
                write!(
                    f,
                    "operand was programmed by a different engine kind than {engine}"
                )
            }
            BlockAmcError::UnknownEngine { name, known } => {
                write!(
                    f,
                    "no engine backend registered under '{name}' (known: {known})"
                )
            }
            BlockAmcError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            BlockAmcError::Device(e) => write!(f, "device error: {e}"),
            BlockAmcError::Circuit(e) => write!(f, "circuit error: {e}"),
        }
    }
}

impl std::error::Error for BlockAmcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BlockAmcError::Linalg(e) => Some(e),
            BlockAmcError::Device(e) => Some(e),
            BlockAmcError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<amc_linalg::LinalgError> for BlockAmcError {
    fn from(e: amc_linalg::LinalgError) -> Self {
        BlockAmcError::Linalg(e)
    }
}

impl From<amc_device::DeviceError> for BlockAmcError {
    fn from(e: amc_device::DeviceError) -> Self {
        BlockAmcError::Device(e)
    }
}

impl From<amc_circuit::CircuitError> for BlockAmcError {
    fn from(e: amc_circuit::CircuitError) -> Self {
        BlockAmcError::Circuit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(BlockAmcError::config("split too large")
            .to_string()
            .contains("split too large"));
        assert!(BlockAmcError::ShapeMismatch {
            op: "solve",
            expected: 8,
            got: 4
        }
        .to_string()
        .contains("solve"));
        assert!(BlockAmcError::NonFinite { row: 3, col: 5 }
            .to_string()
            .contains("(3, 5)"));
        assert!(BlockAmcError::NonFiniteRhs { index: 4 }
            .to_string()
            .contains("entry 4"));
        assert!(BlockAmcError::OperandMismatch { engine: "numeric" }
            .to_string()
            .contains("numeric"));
    }

    #[test]
    fn wraps_all_sources() {
        use std::error::Error;
        assert!(
            BlockAmcError::from(amc_linalg::LinalgError::Singular { pivot: 0 })
                .source()
                .is_some()
        );
        assert!(BlockAmcError::from(amc_device::DeviceError::config("x"))
            .source()
            .is_some());
        assert!(BlockAmcError::from(amc_circuit::CircuitError::config("y"))
            .source()
            .is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BlockAmcError>();
    }
}
