use crate::{Grads, Layer, NnError, Param, Result};
use duo_tensor::{
    col2im3d, gemm_im2col3d, gemm_im2col3d_t, matmul_into, Conv3dSpec, PackedA, Rng64, Tensor,
};

/// 3-D convolution over `[C, T, H, W]` inputs.
///
/// A `Conv3d` with `kt = 1` and `st = 1` degenerates to a per-frame 2-D
/// convolution, which is how the per-frame ResNet backbones in
/// `duo-models` are expressed without a separate 2-D code path.
///
/// Forward is `W · im2col(x)` through one kernel,
/// [`duo_tensor::gemm_im2col3d`], which lowers the input straight into
/// the GEMM's packed operand and never builds the column matrix:
/// [`Layer::infer`], [`Layer::infer_batch`] and the training
/// [`Layer::forward`] all run it, so their outputs are bit-identical.
/// The training forward caches only its input. Backward lowers that
/// input again for the weight gradient `g · im2col(x)ᵀ`, straight into
/// the packed operand of the transposed matrix
/// ([`duo_tensor::gemm_im2col3d_t`]), and folds the input gradient
/// `col2im(Wᵀ · g)` back with the run kernel of
/// [`duo_tensor::col2im3d`]; each side runs only when its gradient is
/// asked for ([`Grads`]). Correctness of both reduces to the adjoint
/// identity tested in `duo-tensor`.
pub struct Conv3d {
    weight: Param,
    bias: Param,
    spec: Conv3dSpec,
    out_channels: usize,
    cache: Option<ConvCache>,
}

struct ConvCache {
    input: Tensor,
    out_thw: (usize, usize, usize),
}

impl Conv3d {
    /// Creates a 3-D convolution with He-normal weight init and zero bias.
    pub fn new(spec: Conv3dSpec, out_channels: usize, rng: &mut Rng64) -> Self {
        let fan_in = (spec.in_channels * spec.kt * spec.kh * spec.kw) as f32;
        let std = (2.0 / fan_in).sqrt();
        let weight = Param::new(Tensor::randn(
            &[out_channels, spec.in_channels, spec.kt, spec.kh, spec.kw],
            std,
            rng.as_rng(),
        ));
        let bias = Param::new(Tensor::zeros(&[out_channels]));
        Conv3d { weight, bias, spec, out_channels, cache: None }
    }

    /// The convolution geometry.
    pub fn spec(&self) -> &Conv3dSpec {
        &self.spec
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Output extent `(out_t, out_h, out_w)` for `input`, rejecting
    /// anything but a rank-4 `[C, T, H, W]` clip.
    fn out_thw(&self, input: &Tensor) -> Result<(usize, usize, usize)> {
        if input.rank() != 4 {
            return Err(NnError::BadInput {
                layer: "Conv3d",
                reason: format!("needs rank-4 [C,T,H,W], got {:?}", input.dims()),
            });
        }
        let (t, h, w) = (input.dims()[1], input.dims()[2], input.dims()[3]);
        Ok(self.spec.output_thw(t, h, w)?)
    }

    /// The weight as the `[out_c, C·kt·kh·kw]` matrix the lowering
    /// multiplies.
    fn weight_matrix(&self) -> Result<Tensor> {
        let k = self.spec.in_channels * self.spec.kt * self.spec.kh * self.spec.kw;
        Ok(self.weight.value.reshape(&[self.out_channels, k])?)
    }

    /// Adds the per-channel bias to a `[out_c, positions]` product, last,
    /// and shapes it as `[out_c, out_t, out_h, out_w]`.
    fn finish(&self, out: Tensor, out_thw: (usize, usize, usize)) -> Result<Tensor> {
        let positions = out_thw.0 * out_thw.1 * out_thw.2;
        let mut ov = out.into_vec();
        for (row, &b) in ov.chunks_exact_mut(positions).zip(self.bias.value.as_slice()) {
            for x in row {
                *x += b;
            }
        }
        Ok(Tensor::from_vec(ov, &[self.out_channels, out_thw.0, out_thw.1, out_thw.2])?)
    }

    /// The inference forward for one clip against a weight matrix packed
    /// once per call.
    fn run_infer(&self, packed_w: &PackedA, input: &Tensor) -> Result<Tensor> {
        let out_thw = self.out_thw(input)?;
        let positions = out_thw.0 * out_thw.1 * out_thw.2;
        let mut out = Tensor::zeros(&[self.out_channels, positions]);
        gemm_im2col3d(packed_w, input, &self.spec, &mut out)?;
        self.finish(out, out_thw)
    }
}

impl std::fmt::Debug for Conv3d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conv3d")
            .field("in", &self.spec.in_channels)
            .field("out", &self.out_channels)
            .field("kernel", &(self.spec.kt, self.spec.kh, self.spec.kw))
            .field("stride", &(self.spec.st, self.spec.sh, self.spec.sw))
            .finish()
    }
}

impl Layer for Conv3d {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let out = self.infer(input)?;
        let out_thw = (out.dims()[1], out.dims()[2], out.dims()[3]);
        self.cache = Some(ConvCache { input: input.clone(), out_thw });
        Ok(out)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        self.run_infer(&PackedA::pack(&self.weight_matrix()?)?, input)
    }

    fn infer_batch(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        // The weight matrix is the left GEMM operand of every item, so
        // pack it once and reuse the packed panels across the whole batch.
        // The per-item arithmetic is `infer`'s, so every output is
        // bit-identical to it.
        let packed_w = PackedA::pack(&self.weight_matrix()?)?;
        inputs.iter().map(|x| self.run_infer(&packed_w, x)).collect()
    }

    fn backward(&mut self, grad_out: &Tensor, grads: Grads) -> Result<Option<Tensor>> {
        let cache = self.cache.as_ref().ok_or(NnError::MissingForwardCache { layer: "Conv3d" })?;
        let (ot, oh, ow) = cache.out_thw;
        let positions = ot * oh * ow;
        if grad_out.dims() != [self.out_channels, ot, oh, ow] {
            return Err(NnError::BadInput {
                layer: "Conv3d",
                reason: format!(
                    "grad dims {:?} != expected [{},{ot},{oh},{ow}]",
                    grad_out.dims(),
                    self.out_channels
                ),
            });
        }
        let g = grad_out.reshape(&[self.out_channels, positions])?;
        let k = self.spec.in_channels * self.spec.kt * self.spec.kh * self.spec.kw;

        if grads.params() {
            // dW = g · im2col(x)ᵀ, db = row sums of g.
            let mut wgrad = Tensor::zeros(&[self.out_channels, k]);
            gemm_im2col3d_t(&g, &cache.input, &self.spec, &mut wgrad)?;
            self.weight.grad.axpy(1.0, &wgrad.reshape(self.weight.value.dims())?)?;
            let gv = g.as_slice();
            let bg = self.bias.grad.as_mut_slice();
            for o in 0..self.out_channels {
                bg[o] += gv[o * positions..(o + 1) * positions].iter().sum::<f32>();
            }
        }
        if !grads.input() {
            return Ok(None);
        }

        // Input gradient: col2im(Wᵀ · g).
        let wt = self.weight_matrix()?.transpose()?;
        let mut gcols = Tensor::zeros(&[k, positions]);
        matmul_into(&wt, &g, &mut gcols)?;
        let dims = cache.input.dims();
        Ok(Some(col2im3d(&gcols, &self.spec, dims[1], dims[2], dims[3])?))
    }

    fn name(&self) -> &'static str {
        "Conv3d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Conv3d {
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            spec: self.spec,
            out_channels: self.out_channels,
            cache: None,
        })
    }
}

impl crate::Parameterized for Conv3d {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_matches_spec() {
        let mut rng = Rng64::new(41);
        let spec = Conv3dSpec::cubic(3, 3, (1, 2, 2), 1);
        let mut conv = Conv3d::new(spec, 8, &mut rng);
        let x = Tensor::randn(&[3, 4, 8, 8], 1.0, rng.as_rng());
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.dims(), &[8, 4, 4, 4]);
    }

    #[test]
    fn kt1_behaves_per_frame() {
        // A kt=1 convolution must treat frames independently: permuting
        // frames of the input permutes frames of the output identically.
        let mut rng = Rng64::new(42);
        let spec = Conv3dSpec { in_channels: 1, kt: 1, kh: 3, kw: 3, st: 1, sh: 1, sw: 1, pt: 0, ph: 1, pw: 1 };
        let mut conv = Conv3d::new(spec, 2, &mut rng);
        let f0 = Tensor::randn(&[1, 1, 4, 4], 1.0, rng.as_rng());
        let f1 = Tensor::randn(&[1, 1, 4, 4], 1.0, rng.as_rng());
        let mut both = Tensor::zeros(&[1, 2, 4, 4]);
        both.as_mut_slice()[..16].copy_from_slice(f0.as_slice());
        both.as_mut_slice()[16..].copy_from_slice(f1.as_slice());
        let y_both = conv.forward(&both).unwrap();
        let y0 = conv.forward(&f0).unwrap();
        let y1 = conv.forward(&f1).unwrap();
        for ch in 0..2 {
            for (i, (&a, &b)) in y0.as_slice()[ch * 16..(ch + 1) * 16]
                .iter()
                .zip(&y_both.as_slice()[ch * 32..ch * 32 + 16])
                .enumerate()
            {
                assert!((a - b).abs() < 1e-5, "frame0 ch{ch} pos{i}: {a} vs {b}");
            }
            for (i, (&a, &b)) in y1.as_slice()[ch * 16..(ch + 1) * 16]
                .iter()
                .zip(&y_both.as_slice()[ch * 32 + 16..(ch + 1) * 32])
                .enumerate()
            {
                assert!((a - b).abs() < 1e-5, "frame1 ch{ch} pos{i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn bias_shifts_all_positions() {
        let mut rng = Rng64::new(43);
        let spec = Conv3dSpec::cubic(1, 1, (1, 1, 1), 0);
        let mut conv = Conv3d::new(spec, 1, &mut rng);
        conv.weight.value = Tensor::zeros(&[1, 1, 1, 1, 1]);
        conv.bias.value = Tensor::from_vec(vec![2.5], &[1]).unwrap();
        let y = conv.forward(&Tensor::zeros(&[1, 2, 2, 2])).unwrap();
        assert!(y.as_slice().iter().all(|&v| v == 2.5));
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = Rng64::new(44);
        let mut conv = Conv3d::new(Conv3dSpec::cubic(1, 1, (1, 1, 1), 0), 1, &mut rng);
        assert!(conv.backward(&Tensor::ones(&[1, 1, 1, 1]), Grads::Both).is_err());
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = Rng64::new(45);
        let spec = Conv3dSpec::cubic(2, 2, (1, 1, 1), 0);
        let mut conv = Conv3d::new(spec, 3, &mut rng);
        let x = Tensor::randn(&[2, 3, 4, 4], 0.5, rng.as_rng());
        // Scalar loss: sum of outputs.
        let y = conv.forward(&x).unwrap();
        let gx = conv.backward(&Tensor::ones(y.dims()), Grads::Both).unwrap().unwrap();
        let eps = 1e-2;
        for &probe in &[0usize, 7, 31, 95] {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += eps;
            let yp = conv.forward(&xp).unwrap();
            let mut xm = x.clone();
            xm.as_mut_slice()[probe] -= eps;
            let ym = conv.forward(&xm).unwrap();
            let num = (yp.sum() - ym.sum()) / (2.0 * eps);
            let ana = gx.as_slice()[probe];
            assert!((num - ana).abs() < 1e-2 * (1.0 + ana.abs()), "probe {probe}: {num} vs {ana}");
        }
    }
}
