//! Finite-difference gradient checking.
//!
//! Every hand-derived backward pass in the workspace is validated against
//! these helpers, because a silently wrong gradient would not crash — it
//! would just make SparseTransfer quietly ineffective and invalidate the
//! reproduction.

use crate::{Grads, Layer, Result};
use duo_tensor::Tensor;

/// Numerically estimates `d(sum ∘ layer)/d(input)` by central differences.
///
/// # Errors
///
/// Propagates any error from the layer's `forward`.
pub fn numeric_input_gradient(
    layer: &mut dyn Layer,
    input: &Tensor,
    eps: f32,
) -> Result<Tensor> {
    let mut grad = Tensor::zeros(input.dims());
    for i in 0..input.len() {
        let mut xp = input.clone();
        xp.as_mut_slice()[i] += eps;
        let fp = layer.forward(&xp)?.sum();
        let mut xm = input.clone();
        xm.as_mut_slice()[i] -= eps;
        let fm = layer.forward(&xm)?.sum();
        grad.as_mut_slice()[i] = (fp - fm) / (2.0 * eps);
    }
    Ok(grad)
}

/// Verifies the analytic input gradient of `layer` against finite
/// differences for the scalar loss `sum(layer(x))`.
///
/// Returns the maximum relative error over all coordinates.
///
/// # Errors
///
/// Propagates any error from the layer's forward/backward passes.
pub fn check_input_gradient(layer: &mut dyn Layer, input: &Tensor, eps: f32) -> Result<f32> {
    let numeric = numeric_input_gradient(layer, input, eps)?;
    let out = layer.forward(input)?;
    let analytic =
        layer.backward(&Tensor::ones(out.dims()), Grads::Both)?.expect("the input gradient was asked for");
    let mut worst = 0.0f32;
    for (&n, &a) in numeric.as_slice().iter().zip(analytic.as_slice()) {
        let rel = (n - a).abs() / (1.0f32).max(n.abs().max(a.abs()));
        worst = worst.max(rel);
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv3d, GlobalAvgPool, L2Normalize, Linear, MaxPool3d, Relu, Sequential};
    use duo_tensor::{Conv3dSpec, Pool3dSpec, Rng64, Tensor};

    #[test]
    fn linear_gradient_checks() {
        let mut rng = Rng64::new(71);
        let mut layer = Linear::new(5, 3, &mut rng);
        let x = Tensor::randn(&[5], 1.0, rng.as_rng());
        let err = check_input_gradient(&mut layer, &x, 1e-2).unwrap();
        assert!(err < 1e-2, "relative error {err}");
    }

    #[test]
    fn conv3d_gradient_checks() {
        let mut rng = Rng64::new(72);
        let mut layer = Conv3d::new(Conv3dSpec::cubic(2, 2, (1, 1, 1), 1), 3, &mut rng);
        let x = Tensor::randn(&[2, 3, 4, 4], 0.5, rng.as_rng());
        let err = check_input_gradient(&mut layer, &x, 1e-2).unwrap();
        assert!(err < 2e-2, "relative error {err}");
    }

    #[test]
    fn conv3d_gradient_checks_past_tile_remainders() {
        // Large enough that the backward GEMMs (dW = g·colsᵀ and
        // col2im(Wᵀ·g)) exercise the blocked kernel's partial NR/MR
        // tiles: 81 im2col rows and 144 positions are not multiples of
        // the 4×16 micro-tile.
        let mut rng = Rng64::new(75);
        let mut layer = Conv3d::new(Conv3dSpec::cubic(3, 3, (1, 1, 1), 1), 5, &mut rng);
        let x = Tensor::randn(&[3, 4, 6, 6], 0.5, rng.as_rng());
        let err = check_input_gradient(&mut layer, &x, 1e-2).unwrap();
        assert!(err < 2e-2, "relative error {err}");
    }

    #[test]
    fn infer_batch_is_bitwise_eval_forward_after_kernel_swap() {
        // The Layer contract: `infer_batch` equals per-sample eval-mode
        // `forward` at f32::to_bits granularity. The batched path runs the
        // packed GEMM over one weight packing, the per-sample path runs
        // the same kernels one item at a time.
        let mut rng = Rng64::new(76);
        let mut net = Sequential::new(vec![
            Box::new(Conv3d::new(Conv3dSpec::cubic(2, 3, (1, 1, 1), 1), 4, &mut rng))
                as Box<dyn Layer>,
            Box::new(Relu::new()),
            Box::new(GlobalAvgPool::new()),
            Box::new(Linear::new(4, 3, &mut rng)),
        ]);
        let inputs: Vec<Tensor> =
            (0..4).map(|_| Tensor::randn(&[2, 3, 7, 7], 1.0, rng.as_rng())).collect();
        let batched = net.infer_batch(&inputs).unwrap();
        for (x, y) in inputs.iter().zip(&batched) {
            let single = net.forward(x).unwrap();
            let sb: Vec<u32> = single.as_slice().iter().map(|v| v.to_bits()).collect();
            let yb: Vec<u32> = y.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(sb, yb, "batched inference drifted from eval-mode forward");
        }
    }

    #[test]
    fn l2_normalize_gradient_checks() {
        let mut rng = Rng64::new(73);
        let mut layer = L2Normalize::new();
        let x = Tensor::randn(&[6], 1.0, rng.as_rng());
        let err = check_input_gradient(&mut layer, &x, 1e-3).unwrap();
        assert!(err < 1e-2, "relative error {err}");
    }

    #[test]
    fn deep_stack_gradient_checks() {
        let mut rng = Rng64::new(74);
        let mut net = Sequential::new(vec![
            Box::new(Conv3d::new(Conv3dSpec::cubic(1, 2, (1, 2, 2), 0), 4, &mut rng))
                as Box<dyn Layer>,
            Box::new(Relu::new()),
            Box::new(MaxPool3d::new(Pool3dSpec::spatial(2))),
            Box::new(GlobalAvgPool::new()),
            Box::new(Linear::new(4, 2, &mut rng)),
        ]);
        // Offset the input away from ReLU/max kinks so finite differences
        // are valid.
        let x = Tensor::rand_uniform(&[1, 3, 9, 9], 0.5, 2.0, rng.as_rng());
        let err = check_input_gradient(&mut net, &x, 1e-2).unwrap();
        assert!(err < 5e-2, "relative error {err}");
    }
}
