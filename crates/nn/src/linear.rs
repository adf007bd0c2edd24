use std::sync::OnceLock;

use crate::{Grads, Layer, NnError, Param, Result};
use duo_tensor::{Rng64, Tensor};

/// Outputs scored per pass over the input, one per SIMD lane.
const LANES: usize = 16;

/// Fully-connected layer: `y = W x + b` over rank-1 inputs.
///
/// Every forward (`forward`, `infer`, and `infer_batch`, which is `infer`
/// per sample) scores 16 outputs per pass over the input, one per
/// SIMD lane, from a transposed copy of the weight: lane `o` folds
/// `w[o][i].mul_add(x[i], acc)` from `0.0` in increasing `i` and adds
/// `b[o]` last — the scalar row fold's float program, so every output is
/// bit-identical to it. Outputs past the last full lane block take the
/// scalar row fold itself.
///
/// The transposed copy is built on first use and kept with the layer.
/// Every path that can rewrite the weight reaches it through
/// [`crate::Parameterized::visit_params`] (optimizer steps, checkpoint
/// imports), and a visit drops the copy. `zero_grad` touches gradients
/// only, so it keeps the copy.
pub struct Linear {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    cache: Option<Tensor>,
    /// The weight's full lane blocks, each transposed: block `b` holds
    /// `w[16b + l][i]` at `[(b·in + i)·16 + l]`, so a pass streams one
    /// contiguous block.
    weight_lanes: OnceLock<Vec<f32>>,
}

impl Linear {
    /// Creates a linear layer with He-normal initialized weights.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Rng64) -> Self {
        let std = (2.0 / in_features as f32).sqrt();
        let weight = Param::new(Tensor::randn(&[out_features, in_features], std, rng.as_rng()));
        let bias = Param::new(Tensor::zeros(&[out_features]));
        Linear {
            weight,
            bias,
            in_features,
            out_features,
            cache: None,
            weight_lanes: OnceLock::new(),
        }
    }

    /// Input dimensionality.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output dimensionality.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    fn compute(&self, input: &Tensor) -> Result<Tensor> {
        if input.rank() != 1 || input.len() != self.in_features {
            return Err(NnError::BadInput {
                layer: "Linear",
                reason: format!(
                    "expected rank-1 input of length {}, got {:?}",
                    self.in_features,
                    input.dims()
                ),
            });
        }
        let (nin, nout) = (self.in_features, self.out_features);
        let wv = self.weight.value.as_slice();
        let bv = self.bias.value.as_slice();
        let xv = input.as_slice();
        let mut out = vec![0.0f32; nout];
        // A zero-width input has no lane blocks to stream; the row fold
        // covers it.
        let full = if nin == 0 { 0 } else { nout / LANES * LANES };
        if full > 0 {
            let lanes = self.weight_lanes.get_or_init(|| lane_blocks(wv, nin, full));
            for ((block, dst), bias) in lanes
                .chunks_exact(nin * LANES)
                .zip(out.chunks_exact_mut(LANES))
                .zip(bv.chunks_exact(LANES))
            {
                let mut acc = [0.0f32; LANES];
                for (w, &x) in block.chunks_exact(LANES).zip(xv) {
                    for (a, &wl) in acc.iter_mut().zip(w) {
                        *a = wl.mul_add(x, *a);
                    }
                }
                for ((d, a), &b) in dst.iter_mut().zip(acc).zip(bias) {
                    *d = a + b;
                }
            }
        }
        for (o, d) in out.iter_mut().enumerate().skip(full) {
            *d = row_fold(&wv[o * nin..(o + 1) * nin], xv) + bv[o];
        }
        Ok(Tensor::from_vec(out, &[nout])?)
    }
}

/// Transposes the first `full` rows of the row-major `[out, nin]` weight
/// `wv` one lane block at a time (the layout of `Linear::weight_lanes`).
fn lane_blocks(wv: &[f32], nin: usize, full: usize) -> Vec<f32> {
    let mut lanes = vec![0.0f32; full * nin];
    for (block, rows) in lanes.chunks_exact_mut(nin * LANES).zip(wv.chunks_exact(nin * LANES)) {
        for (l, row) in rows.chunks_exact(nin).enumerate() {
            for (dst, &w) in block.chunks_exact_mut(LANES).zip(row) {
                dst[l] = w;
            }
        }
    }
    lanes
}

/// One output's dot product: fused multiply-adds from `0.0` in index
/// order. The lane kernel runs this exact program per lane.
fn row_fold(row: &[f32], x: &[f32]) -> f32 {
    row.iter().zip(x).fold(0.0f32, |s, (w, &x)| w.mul_add(x, s))
}

impl std::fmt::Debug for Linear {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Linear")
            .field("in", &self.in_features)
            .field("out", &self.out_features)
            .finish()
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let out = self.compute(input)?;
        self.cache = Some(input.clone());
        Ok(out)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        self.compute(input)
    }

    fn backward(&mut self, grad_out: &Tensor, grads: Grads) -> Result<Option<Tensor>> {
        let x = self.cache.as_ref().ok_or(NnError::MissingForwardCache { layer: "Linear" })?;
        if grad_out.len() != self.out_features {
            return Err(NnError::BadInput {
                layer: "Linear",
                reason: format!("grad length {} != out {}", grad_out.len(), self.out_features),
            });
        }
        let gv = grad_out.as_slice();
        if grads.params() {
            // dL/dW[o][i] += g[o] * x[i] ; dL/db[o] += g[o]
            let xv = x.as_slice();
            let wg = self.weight.grad.as_mut_slice();
            for (o, &g) in gv.iter().enumerate() {
                let row = &mut wg[o * self.in_features..(o + 1) * self.in_features];
                for (wgi, &xi) in row.iter_mut().zip(xv) {
                    *wgi += g * xi;
                }
            }
            self.bias.grad.axpy(1.0, grad_out)?;
        }
        if !grads.input() {
            return Ok(None);
        }
        // dL/dx[i] = Σ_o g[o] * W[o][i]
        let wv = self.weight.value.as_slice();
        let mut gx = Tensor::zeros(&[self.in_features]);
        let gxv = gx.as_mut_slice();
        for (o, &g) in gv.iter().enumerate() {
            let row = &wv[o * self.in_features..(o + 1) * self.in_features];
            for (gxi, &w) in gxv.iter_mut().zip(row) {
                *gxi += g * w;
            }
        }
        Ok(Some(gx))
    }

    fn name(&self) -> &'static str {
        "Linear"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Linear {
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            in_features: self.in_features,
            out_features: self.out_features,
            cache: None,
            weight_lanes: OnceLock::new(),
        })
    }
}

impl crate::Parameterized for Linear {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        // The visitor may rewrite the weight, so the transposed copy is
        // rebuilt on the next forward.
        self.weight_lanes.take();
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }

    fn zero_grad(&mut self) {
        self.weight.zero_grad();
        self.bias.zero_grad();
    }
}

crate::param_free!(Flatten);

/// Reshapes any input to a rank-1 vector (and restores the shape on the
/// way back).
#[derive(Debug, Default)]
pub struct Flatten {
    in_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flattening layer.
    pub fn new() -> Self {
        Flatten { in_dims: None }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        self.in_dims = Some(input.dims().to_vec());
        Ok(input.reshape(&[input.len()])?)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        Ok(input.reshape(&[input.len()])?)
    }

    fn backward(&mut self, grad_out: &Tensor, grads: Grads) -> Result<Option<Tensor>> {
        let dims =
            self.in_dims.as_ref().ok_or(NnError::MissingForwardCache { layer: "Flatten" })?;
        if !grads.input() {
            return Ok(None);
        }
        Ok(Some(grad_out.reshape(dims)?))
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Flatten::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Optimizer, Parameterized, Sgd};
    use duo_check::{check, prop_assert_eq, Config};

    /// The scalar per-row fold over the row-major weight: the oracle every
    /// forward of the lane kernel must match bit for bit.
    fn oracle(lin: &Linear, x: &Tensor) -> Vec<u32> {
        let (wv, bv) = (lin.weight.value.as_slice(), lin.bias.value.as_slice());
        (0..lin.out_features)
            .map(|o| {
                let row = &wv[o * lin.in_features..(o + 1) * lin.in_features];
                (row_fold(row, x.as_slice()) + bv[o]).to_bits()
            })
            .collect()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    check! {
        #![config(Config::default().with_cases(96))]

        /// `in` 1–300 and `out` 1–40: full lane blocks, a lane block plus
        /// a scalar tail, and tail-only widths.
        fn lane_linear_is_bitwise_scalar_oracle(
            nin in 1usize..301,
            nout in 1usize..41,
            seed in 0u64..0x1000_0000,
        ) {
            let mut rng = Rng64::new(seed);
            let mut lin = Linear::new(nin, nout, &mut rng);
            lin.bias.value = Tensor::randn(&[nout], 1.0, rng.as_rng());
            let xs: Vec<Tensor> = (0..3).map(|_| Tensor::randn(&[nin], 1.0, rng.as_rng())).collect();
            let batched = lin.infer_batch(&xs).unwrap();
            for (x, y) in xs.iter().zip(&batched) {
                let want = oracle(&lin, x);
                prop_assert_eq!(bits(&lin.infer(x).unwrap()), want.clone(), "infer {nin}->{nout}");
                prop_assert_eq!(bits(y), want.clone(), "infer_batch {nin}->{nout}");
                prop_assert_eq!(bits(&lin.forward(x).unwrap()), want, "forward {nin}->{nout}");
            }
        }
    }

    /// A trained-then-probed layer: one forward/backward leaves gradients
    /// behind and one inference builds the transposed weight.
    fn warmed_layer(seed: u64) -> (Linear, Tensor) {
        let mut rng = Rng64::new(seed);
        let mut lin = Linear::new(37, 20, &mut rng);
        let x = Tensor::randn(&[37], 1.0, rng.as_rng());
        lin.forward(&x).unwrap();
        lin.backward(&Tensor::randn(&[20], 1.0, rng.as_rng()), Grads::Both).unwrap();
        lin.infer(&x).unwrap();
        assert!(lin.weight_lanes.get().is_some(), "inference caches the transposed weight");
        (lin, x)
    }

    #[test]
    fn optimizer_step_refreshes_the_transposed_weight() {
        let (mut lin, x) = warmed_layer(8);
        let before = lin.weight.value.clone();
        Sgd::new(0.5, 0.0).step(&mut lin);
        assert_ne!(lin.weight.value, before, "the step moved the weight");
        assert_eq!(bits(&lin.infer(&x).unwrap()), oracle(&lin, &x), "stale transpose after a step");
    }

    #[test]
    fn imported_params_refresh_the_transposed_weight() {
        // What `duo_models::import_params` does: overwrite each value
        // through `visit_params` and clear its gradient.
        let (mut lin, x) = warmed_layer(9);
        let mut rng = Rng64::new(10);
        lin.visit_params(&mut |p| {
            p.value = Tensor::randn(p.value.dims(), 1.0, rng.as_rng());
            p.zero_grad();
        });
        assert_eq!(bits(&lin.infer(&x).unwrap()), oracle(&lin, &x), "stale transpose after import");
    }

    #[test]
    fn zero_grad_keeps_the_transposed_weight() {
        let (mut lin, _) = warmed_layer(11);
        let cached = lin.weight_lanes.get().map(|t| t.as_ptr());
        lin.zero_grad();
        assert_eq!(lin.weight_lanes.get().map(|t| t.as_ptr()), cached, "rebuilt on zero_grad");
        assert_eq!(lin.weight.grad.l0_norm() + lin.bias.grad.l0_norm(), 0, "gradients zeroed");
    }

    #[test]
    fn linear_computes_wx_plus_b() {
        let mut rng = Rng64::new(3);
        let mut lin = Linear::new(2, 2, &mut rng);
        // Overwrite weights deterministically.
        lin.weight.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        lin.bias.value = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let y = lin.forward(&Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap()).unwrap();
        assert_eq!(y.as_slice(), &[3.5, 6.5]);
    }

    #[test]
    fn linear_backward_accumulates_param_grads() {
        let mut rng = Rng64::new(4);
        let mut lin = Linear::new(2, 1, &mut rng);
        lin.weight.value = Tensor::from_vec(vec![2.0, -1.0], &[1, 2]).unwrap();
        let x = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        lin.forward(&x).unwrap();
        let gx = lin.backward(&Tensor::from_vec(vec![2.0], &[1]).unwrap(), Grads::Both).unwrap().unwrap();
        assert_eq!(gx.as_slice(), &[4.0, -2.0]);
        assert_eq!(lin.weight.grad.as_slice(), &[6.0, 10.0]);
        assert_eq!(lin.bias.grad.as_slice(), &[2.0]);
        // Accumulation: a second backward doubles the gradients.
        lin.backward(&Tensor::from_vec(vec![2.0], &[1]).unwrap(), Grads::Both).unwrap();
        assert_eq!(lin.weight.grad.as_slice(), &[12.0, 20.0]);
    }

    #[test]
    fn linear_infer_batch_is_bitwise_per_sample() {
        let mut rng = Rng64::new(6);
        let lin = Linear::new(13, 7, &mut rng);
        let inputs: Vec<Tensor> =
            (0..5).map(|_| Tensor::randn(&[13], 1.0, rng.as_rng())).collect();
        let batched = lin.infer_batch(&inputs).unwrap();
        for (x, y) in inputs.iter().zip(&batched) {
            let single = lin.infer(x).unwrap();
            assert_eq!(single.as_slice(), y.as_slice(), "batched path must not drift");
        }
    }

    #[test]
    fn linear_infer_batch_rejects_bad_item() {
        let mut rng = Rng64::new(7);
        let lin = Linear::new(3, 2, &mut rng);
        let inputs = vec![Tensor::ones(&[3]), Tensor::ones(&[4])];
        assert!(lin.infer_batch(&inputs).is_err());
    }

    #[test]
    fn linear_rejects_bad_input() {
        let mut rng = Rng64::new(5);
        let mut lin = Linear::new(3, 2, &mut rng);
        assert!(lin.forward(&Tensor::ones(&[4])).is_err());
        assert!(lin.forward(&Tensor::ones(&[3, 1])).is_err());
    }

    #[test]
    fn flatten_round_trips_shape() {
        let mut fl = Flatten::new();
        let x = Tensor::ones(&[2, 3, 4]);
        let y = fl.forward(&x).unwrap();
        assert_eq!(y.dims(), &[24]);
        let g = fl.backward(&Tensor::ones(&[24]), Grads::Both).unwrap().unwrap();
        assert_eq!(g.dims(), &[2, 3, 4]);
    }
}
