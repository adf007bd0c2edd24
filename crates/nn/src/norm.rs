//! Instance normalization over `[C, …]` activations.
//!
//! Normalizes each channel by its own mean/variance over all trailing
//! dimensions, with a learned per-channel affine (γ, β). With batch size 1
//! — the regime this workspace trains in — this is the batch-norm
//! equivalent that actually works, and it is available to downstream
//! users building their own backbones on `duo-nn`.

use crate::{Grads, Layer, NnError, Param, Parameterized, Result};
use duo_tensor::Tensor;

/// Per-channel instance normalization with learned affine parameters.
pub struct InstanceNorm {
    gamma: Param,
    beta: Param,
    channels: usize,
    eps: f32,
    cache: Option<NormCache>,
}

struct NormCache {
    normalized: Tensor,
    inv_std: Vec<f32>,
    in_dims: Vec<usize>,
}

impl InstanceNorm {
    /// Creates a normalization layer for `channels`-channel inputs
    /// (γ = 1, β = 0).
    pub fn new(channels: usize) -> Self {
        InstanceNorm {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            channels,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Number of channels this layer normalizes.
    pub fn channels(&self) -> usize {
        self.channels
    }
}

impl std::fmt::Debug for InstanceNorm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstanceNorm").field("channels", &self.channels).finish()
    }
}

impl Layer for InstanceNorm {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        if input.rank() < 2 || input.dims()[0] != self.channels {
            return Err(NnError::BadInput {
                layer: "InstanceNorm",
                reason: format!(
                    "needs [C={}, …] with rank ≥ 2, got {:?}",
                    self.channels,
                    input.dims()
                ),
            });
        }
        let per: usize = input.dims()[1..].iter().product();
        if per == 0 {
            return Err(NnError::BadInput {
                layer: "InstanceNorm",
                reason: "empty spatial extent".into(),
            });
        }
        let mut normalized = Tensor::zeros(input.dims());
        let mut inv_std = Vec::with_capacity(self.channels);
        let iv = input.as_slice();
        let nv = normalized.as_mut_slice();
        let gv = self.gamma.value.as_slice();
        let bv = self.beta.value.as_slice();
        let mut out = Tensor::zeros(input.dims());
        let ov = out.as_mut_slice();
        for c in 0..self.channels {
            let slice = &iv[c * per..(c + 1) * per];
            let mean = slice.iter().sum::<f32>() / per as f32;
            let var = slice.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / per as f32;
            let is = 1.0 / (var + self.eps).sqrt();
            inv_std.push(is);
            for (i, &x) in slice.iter().enumerate() {
                let xhat = (x - mean) * is;
                nv[c * per + i] = xhat;
                ov[c * per + i] = gv[c] * xhat + bv[c];
            }
        }
        self.cache = Some(NormCache { normalized, inv_std, in_dims: input.dims().to_vec() });
        Ok(out)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        if input.rank() < 2 || input.dims()[0] != self.channels {
            return Err(NnError::BadInput {
                layer: "InstanceNorm",
                reason: format!(
                    "needs [C={}, …] with rank ≥ 2, got {:?}",
                    self.channels,
                    input.dims()
                ),
            });
        }
        let per: usize = input.dims()[1..].iter().product();
        if per == 0 {
            return Err(NnError::BadInput {
                layer: "InstanceNorm",
                reason: "empty spatial extent".into(),
            });
        }
        let iv = input.as_slice();
        let gv = self.gamma.value.as_slice();
        let bv = self.beta.value.as_slice();
        let mut out = Tensor::zeros(input.dims());
        let ov = out.as_mut_slice();
        for c in 0..self.channels {
            let slice = &iv[c * per..(c + 1) * per];
            let mean = slice.iter().sum::<f32>() / per as f32;
            let var = slice.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / per as f32;
            let is = 1.0 / (var + self.eps).sqrt();
            for (i, &x) in slice.iter().enumerate() {
                ov[c * per + i] = gv[c] * ((x - mean) * is) + bv[c];
            }
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor, grads: Grads) -> Result<Option<Tensor>> {
        let cache =
            self.cache.as_ref().ok_or(NnError::MissingForwardCache { layer: "InstanceNorm" })?;
        if grad_out.dims() != cache.in_dims.as_slice() {
            return Err(NnError::BadInput {
                layer: "InstanceNorm",
                reason: format!(
                    "grad dims {:?} != cached {:?}",
                    grad_out.dims(),
                    cache.in_dims
                ),
            });
        }
        let per: usize = cache.in_dims[1..].iter().product();
        let gv = grad_out.as_slice();
        let xhat = cache.normalized.as_slice();
        let gamma = self.gamma.value.as_slice();
        let mut grad_in = grads.input().then(|| Tensor::zeros(&cache.in_dims));
        let ggrad = self.gamma.grad.as_mut_slice();
        let bgrad = self.beta.grad.as_mut_slice();
        for c in 0..self.channels {
            let g = &gv[c * per..(c + 1) * per];
            let xh = &xhat[c * per..(c + 1) * per];
            let sum_g: f32 = g.iter().sum();
            let sum_gx: f32 = g.iter().zip(xh).map(|(a, b)| a * b).sum();
            if grads.params() {
                ggrad[c] += sum_gx;
                bgrad[c] += sum_g;
            }
            let Some(grad_in) = grad_in.as_mut() else { continue };
            let giv = grad_in.as_mut_slice();
            let n = per as f32;
            let scale = gamma[c] * cache.inv_std[c];
            for i in 0..per {
                // dL/dx = γ/σ · (g − mean(g) − x̂·mean(g·x̂))
                giv[c * per + i] = scale * (g[i] - sum_g / n - xh[i] * sum_gx / n);
            }
        }
        Ok(grad_in)
    }

    fn name(&self) -> &'static str {
        "InstanceNorm"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(InstanceNorm {
            gamma: self.gamma.clone(),
            beta: self.beta.clone(),
            channels: self.channels,
            eps: self.eps,
            cache: None,
        })
    }
}

impl Parameterized for InstanceNorm {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.gamma);
        visitor(&mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duo_tensor::Rng64;

    #[test]
    fn output_is_normalized_per_channel() {
        let mut layer = InstanceNorm::new(2);
        let mut rng = Rng64::new(291);
        let x = Tensor::rand_uniform(&[2, 4, 4], 5.0, 50.0, rng.as_rng());
        let y = layer.forward(&x).unwrap();
        for c in 0..2 {
            let slice = &y.as_slice()[c * 16..(c + 1) * 16];
            let mean = slice.iter().sum::<f32>() / 16.0;
            let var = slice.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-4, "channel {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {c} var {var}");
        }
    }

    #[test]
    fn affine_parameters_shift_and_scale() {
        let mut layer = InstanceNorm::new(1);
        layer.gamma.value = Tensor::from_vec(vec![2.0], &[1]).unwrap();
        layer.beta.value = Tensor::from_vec(vec![5.0], &[1]).unwrap();
        let x = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0], &[1, 4]).unwrap();
        let y = layer.forward(&x).unwrap();
        let mean = y.mean();
        assert!((mean - 5.0).abs() < 1e-4, "β shifts the mean, got {mean}");
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut layer = InstanceNorm::new(2);
        let mut rng = Rng64::new(292);
        let x = Tensor::randn(&[2, 3, 3], 1.0, rng.as_rng());
        let err = crate::check_input_gradient(&mut layer, &x, 1e-3).unwrap();
        assert!(err < 1e-2, "relative error {err}");
    }

    #[test]
    fn parameter_gradients_accumulate() {
        let mut layer = InstanceNorm::new(1);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]).unwrap();
        layer.forward(&x).unwrap();
        layer.backward(&Tensor::ones(&[1, 4]), Grads::Both).unwrap();
        assert_eq!(layer.beta.grad.as_slice(), &[4.0], "dβ = Σ g");
        // dγ = Σ g·x̂ = 0 for symmetric x̂ under constant g.
        assert!(layer.gamma.grad.as_slice()[0].abs() < 1e-5);
    }

    #[test]
    fn rejects_wrong_channel_count_and_missing_forward() {
        let mut layer = InstanceNorm::new(3);
        assert!(layer.forward(&Tensor::ones(&[2, 4])).is_err());
        assert!(layer.backward(&Tensor::ones(&[3, 4]), Grads::Both).is_err());
    }
}
