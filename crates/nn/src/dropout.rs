//! Inverted dropout.
//!
//! Surrogate stealing fits a model to a handful of harvested triplets;
//! dropout is the standard regularizer for that few-shot regime and is
//! provided as a first-class layer. Uses "inverted" scaling (kept units
//! multiplied by `1/(1−p)`) so evaluation mode is the identity.

use crate::{Grads, Layer, NnError, Param, Parameterized, Result};
use duo_tensor::{Rng64, Tensor};

/// Inverted dropout with an internal deterministic RNG.
pub struct Dropout {
    p: f32,
    rng: Rng64,
    training: bool,
    mask: Option<Vec<f32>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` and a seed for
    /// its internal mask stream.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0, 1), got {p}");
        Dropout { p, rng: Rng64::new(seed), training: true, mask: None }
    }

    /// Switches between training (masking) and evaluation (identity).
    pub fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    /// Whether the layer currently masks activations.
    pub fn is_training(&self) -> bool {
        self.training
    }
}

impl std::fmt::Debug for Dropout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dropout").field("p", &self.p).field("training", &self.training).finish()
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        if !self.training || self.p == 0.0 {
            self.mask = Some(vec![1.0; input.len()]);
            return Ok(input.clone());
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mask: Vec<f32> = (0..input.len())
            .map(|_| if self.rng.uniform() < keep { scale } else { 0.0 })
            .collect();
        let mut out = input.clone();
        for (x, &m) in out.as_mut_slice().iter_mut().zip(&mask) {
            *x *= m;
        }
        self.mask = Some(mask);
        Ok(out)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        // Inference is always evaluation mode: deterministic identity,
        // regardless of the training flag or internal RNG position.
        Ok(input.clone())
    }

    fn backward(&mut self, grad_out: &Tensor, grads: Grads) -> Result<Option<Tensor>> {
        let mask = self.mask.as_ref().ok_or(NnError::MissingForwardCache { layer: "Dropout" })?;
        if mask.len() != grad_out.len() {
            return Err(NnError::BadInput {
                layer: "Dropout",
                reason: format!("grad length {} != cached {}", grad_out.len(), mask.len()),
            });
        }
        if !grads.input() {
            return Ok(None);
        }
        let mut g = grad_out.clone();
        for (x, &m) in g.as_mut_slice().iter_mut().zip(mask) {
            *x *= m;
        }
        Ok(Some(g))
    }

    fn name(&self) -> &'static str {
        "Dropout"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        // The mask RNG is cloned at its current position, so a clone and
        // its source produce identical mask streams from here on.
        Box::new(Dropout {
            p: self.p,
            rng: self.rng.clone(),
            training: self.training,
            mask: None,
        })
    }
}

impl Parameterized for Dropout {
    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        d.set_training(false);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        assert_eq!(d.forward(&x).unwrap(), x);
        assert_eq!(d.backward(&x, Grads::Both).unwrap().unwrap(), x);
    }

    #[test]
    fn training_mode_preserves_expectation() {
        let mut d = Dropout::new(0.3, 2);
        let x = Tensor::ones(&[10_000]);
        let y = d.forward(&x).unwrap();
        assert!((y.mean() - 1.0).abs() < 0.05, "inverted scaling keeps E[y] = E[x], got {}", y.mean());
        let dropped = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        let rate = dropped as f32 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "drop rate {rate}");
    }

    #[test]
    fn backward_uses_the_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones(&[64]);
        let y = d.forward(&x).unwrap();
        let g = d.backward(&Tensor::ones(&[64]), Grads::Both).unwrap().unwrap();
        for (a, b) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(a, b, "forward and backward masks must agree");
        }
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut d = Dropout::new(0.5, 4);
        assert!(d.backward(&Tensor::ones(&[4]), Grads::Both).is_err());
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn rejects_invalid_probability() {
        Dropout::new(1.0, 5);
    }
}
