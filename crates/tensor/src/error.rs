use std::fmt;

/// Error type for tensor operations.
///
/// Every fallible operation in this crate reports a structured error so the
/// higher-level crates (models, attacks) can surface precise diagnostics
/// instead of panicking deep inside a numeric kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two shapes that were required to match did not.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        lhs: Vec<usize>,
        /// Shape of the right-hand operand.
        rhs: Vec<usize>,
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// The number of elements implied by a shape does not match the data length.
    LengthMismatch {
        /// Number of elements the shape requires.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// An index was out of bounds for the tensor's shape.
    IndexOutOfBounds {
        /// The offending index.
        index: Vec<usize>,
        /// The tensor shape.
        shape: Vec<usize>,
    },
    /// The operation requires a tensor of a specific rank.
    RankMismatch {
        /// Required rank.
        expected: usize,
        /// Actual rank.
        actual: usize,
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// A convolution/pooling geometry was invalid (e.g. kernel larger than input).
    InvalidGeometry(String),
    /// A numeric argument was invalid (e.g. zero-sized dimension, negative size).
    InvalidArgument(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { lhs, rhs, op } => {
                write!(f, "shape mismatch in `{op}`: {lhs:?} vs {rhs:?}")
            }
            TensorError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: shape requires {expected} elements, got {actual}")
            }
            TensorError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape:?}")
            }
            TensorError::RankMismatch { expected, actual, op } => {
                write!(f, "rank mismatch in `{op}`: expected rank {expected}, got {actual}")
            }
            TensorError::InvalidGeometry(msg) => write!(f, "invalid geometry: {msg}"),
            TensorError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}
