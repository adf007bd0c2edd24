//! Dense `f32` N-dimensional tensor substrate for the DUO reproduction.
//!
//! This crate provides the numeric foundation that the rest of the
//! workspace builds on: a contiguous row-major [`Tensor`] type with shape
//! algebra, elementwise arithmetic, reductions and norms, blocked matrix
//! multiplication, im2col-based 3-D convolution kernels, pooling, and
//! deterministic random sampling helpers.
//!
//! The design goal is *auditability* rather than peak throughput: every
//! kernel has a straightforward reference implementation that the test
//! suite (including property-based tests) can check against, because the
//! attack algorithms implemented on top (SparseTransfer's gradient steps,
//! lp-box ADMM projections) are only as trustworthy as these primitives.
//!
//! # Example
//!
//! ```
//! use duo_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), a.as_slice());
//! # Ok::<(), duo_tensor::TensorError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conv;
mod error;
pub mod json;
mod matmul;
mod pool;
mod rng;
mod shape;
mod tensor;

pub use conv::{col2im3d, im2col3d, Conv3dSpec};
pub use error::TensorError;
pub use json::{Json, ToJson};
pub use matmul::{gemm_im2col3d, gemm_im2col3d_t, matmul_into, matmul_into_reference};
pub use pool::{avg_pool3d, avg_pool3d_backward, max_pool3d, max_pool3d_backward, Pool3dSpec};
pub use rng::{RandomSource, Rng64, Xoshiro256pp};
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenient result alias used across the tensor crate.
pub type Result<T> = std::result::Result<T, TensorError>;
