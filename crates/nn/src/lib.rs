//! Layer-based neural-network substrate with hand-written backpropagation.
//!
//! The DUO reproduction needs three capabilities from its "deep learning
//! framework": forward feature extraction, gradients with respect to the
//! *input* (SparseTransfer's perturbation updates differentiate through the
//! surrogate model down to the video pixels), and gradients with respect to
//! the *parameters* (training victim and surrogate models with metric
//! losses). This crate provides exactly that via a [`Layer`] trait whose
//! implementations carry explicit forward caches and hand-derived backward
//! passes, each validated against finite differences by the test suite.
//! A backward pass computes only the gradients its caller keeps
//! ([`Grads`]): an attack asks for the input gradient alone, training
//! for the parameter gradients alone.
//!
//! # Example
//!
//! ```
//! use duo_nn::{Grads, Layer, Linear, Relu, Sequential};
//! use duo_tensor::{Rng64, Tensor};
//!
//! let mut rng = Rng64::new(0);
//! let mut net = Sequential::new(vec![
//!     Box::new(Linear::new(4, 8, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Linear::new(8, 2, &mut rng)),
//! ]);
//! let x = duo_tensor::Tensor::ones(&[4]);
//! let y = net.forward(&x)?;
//! assert_eq!(y.dims(), &[2]);
//! let grad_x = net.backward(&duo_tensor::Tensor::ones(&[2]), Grads::Input)?;
//! assert_eq!(grad_x.map(|g| g.dims().to_vec()), Some(vec![4]));
//! # Ok::<(), duo_nn::NnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conv;
mod dropout;
mod error;
mod gradcheck;
mod layer;
mod linear;
mod norm;
mod optim;
mod param;
mod pool;

pub use conv::Conv3d;
pub use dropout::Dropout;
pub use error::NnError;
pub use gradcheck::{check_input_gradient, numeric_input_gradient};
pub use layer::{
    GlobalAvgPool, Grads, L2Normalize, Layer, Parameterized, Relu, Residual, Sequential,
    TemporalStride,
};
pub use linear::{Flatten, Linear};
pub use norm::InstanceNorm;
pub use optim::{Adam, Optimizer, Sgd};
pub use param::Param;
pub use pool::{AvgPool3d, MaxPool3d};

/// Convenient result alias used across the NN crate.
pub type Result<T> = std::result::Result<T, NnError>;
