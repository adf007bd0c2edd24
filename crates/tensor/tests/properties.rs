//! Property-based tests for the tensor substrate.
//!
//! Everything built above this crate (backprop, ADMM projections, attack
//! objectives) assumes these algebraic identities hold, so they are checked
//! over randomized inputs rather than a handful of examples.

use duo_check::{check, prop_assert, prop_assert_eq, vec_of, Config};
use duo_tensor::{
    avg_pool3d, avg_pool3d_backward, col2im3d, im2col3d, max_pool3d, max_pool3d_backward,
    Conv3dSpec, Pool3dSpec, Rng64, Shape, Tensor,
};

/// Wraps a generated value vector as a rank-1 tensor (duo-check strategies
/// produce plain values; tensors are assembled in the property body).
fn tensor_of(v: Vec<f32>) -> Tensor {
    let n = v.len();
    Tensor::from_vec(v, &[n]).expect("length matches shape")
}

check! {
    #![config(Config::default().with_cases(256))]

    fn add_commutes(v in vec_of(-1e3f32..1e3, 1..64)) {
        let n = v.len();
        let a = Tensor::from_vec(v.clone(), &[n]).unwrap();
        let b = Tensor::from_vec(v.iter().map(|x| x * 0.5 - 1.0).collect(), &[n]).unwrap();
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert_eq!(ab.as_slice(), ba.as_slice());
    }

    fn sub_then_add_round_trips(v in vec_of(-100.0f32..100.0, 1..64)) {
        let t = tensor_of(v);
        let b = t.map(|x| x * 0.25 + 3.0);
        let back = t.sub(&b).unwrap().add(&b).unwrap();
        for (x, y) in t.as_slice().iter().zip(back.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-3f32.max(x.abs() * 1e-5));
        }
    }

    fn scale_is_linear(v in vec_of(-100.0f32..100.0, 1..64), k in -10.0f32..10.0) {
        let t = tensor_of(v);
        let s = t.scale(k);
        for (x, y) in t.as_slice().iter().zip(s.as_slice()) {
            prop_assert_eq!(x * k, *y);
        }
    }

    fn l2_norm_triangle_inequality(v in vec_of(-100.0f32..100.0, 1..32)) {
        let t = tensor_of(v);
        let u = t.map(|x| 1.0 - x);
        let sum = t.add(&u).unwrap();
        prop_assert!(sum.l2_norm() <= t.l2_norm() + u.l2_norm() + 1e-3);
    }

    fn linf_bounds_every_element(v in vec_of(-100.0f32..100.0, 1..64)) {
        let t = tensor_of(v);
        let m = t.linf_norm();
        for &x in t.as_slice() {
            prop_assert!(x.abs() <= m);
        }
    }

    fn l0_counts_nonzeros_after_clamp(v in vec_of(-100.0f32..100.0, 1..64)) {
        let t = tensor_of(v);
        // Clamping to [0, inf) zeroes exactly the negatives.
        let c = t.map(|x| if x < 0.0 { 0.0 } else { x });
        let expected = t.as_slice().iter().filter(|&&x| x > 0.0).count();
        prop_assert_eq!(c.l0_norm(), expected);
    }

    fn clamp_respects_bounds(
        v in vec_of(-100.0f32..100.0, 1..64),
        lo in -50.0f32..0.0,
        width in 0.0f32..100.0,
    ) {
        let t = tensor_of(v);
        let hi = lo + width;
        let c = t.clamp(lo, hi);
        for &x in c.as_slice() {
            prop_assert!(x >= lo && x <= hi);
        }
    }

    fn shape_linearize_round_trip(dims in vec_of(1usize..6, 1..4), salt in 0usize..1000) {
        let shape = Shape::new(&dims);
        let off = salt % shape.len();
        let idx = shape.delinearize(off).unwrap();
        prop_assert_eq!(shape.linearize(&idx).unwrap(), off);
    }

    fn matmul_distributes_over_addition(seed in 0u64..500) {
        let mut rng = Rng64::new(seed);
        let a = Tensor::randn(&[3, 4], 1.0, rng.as_rng());
        let b = Tensor::randn(&[4, 2], 1.0, rng.as_rng());
        let c = Tensor::randn(&[4, 2], 1.0, rng.as_rng());
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    fn im2col3d_adjoint_identity(seed in 0u64..100) {
        let mut rng = Rng64::new(seed);
        let spec = Conv3dSpec::cubic(1, 2, (1, 1, 1), 1);
        let x = Tensor::randn(&[1, 3, 4, 4], 1.0, rng.as_rng());
        let cols = im2col3d(&x, &spec).unwrap();
        let y = Tensor::randn(cols.dims(), 1.0, rng.as_rng());
        let lhs = cols.dot(&y).unwrap();
        let rhs = x.dot(&col2im3d(&y, &spec, 3, 4, 4).unwrap()).unwrap();
        prop_assert!((lhs - rhs).abs() < 0.05 * (1.0 + lhs.abs()));
    }

    fn max_pool_backward_preserves_gradient_mass(seed in 0u64..200) {
        let mut rng = Rng64::new(seed);
        let x = Tensor::randn(&[2, 2, 4, 4], 1.0, rng.as_rng());
        let spec = Pool3dSpec::spatial(2);
        let (y, argmax) = max_pool3d(&x, &spec).unwrap();
        let g = Tensor::ones(y.dims());
        let gx = max_pool3d_backward(&g, &argmax, &[2, 2, 4, 4]).unwrap();
        prop_assert!((gx.sum() - g.sum()).abs() < 1e-3);
    }

    fn avg_pool_preserves_mean_for_exact_tiling(seed in 0u64..200) {
        let mut rng = Rng64::new(seed);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, rng.as_rng());
        let spec = Pool3dSpec { kt: 2, kh: 2, kw: 2, st: 2, sh: 2, sw: 2 };
        let y = avg_pool3d(&x, &spec).unwrap();
        prop_assert!((x.mean() - y.mean()).abs() < 1e-4);
    }

    fn avg_pool_backward_adjoint(seed in 0u64..200) {
        let mut rng = Rng64::new(seed);
        let spec = Pool3dSpec::spatial(2);
        let x = Tensor::randn(&[1, 2, 4, 6], 1.0, rng.as_rng());
        let y = avg_pool3d(&x, &spec).unwrap();
        let g = Tensor::randn(y.dims(), 1.0, rng.as_rng());
        let lhs = y.dot(&g).unwrap();
        let rhs = x.dot(&avg_pool3d_backward(&g, &spec, &[1, 2, 4, 6]).unwrap()).unwrap();
        prop_assert!((lhs - rhs).abs() < 0.05 * (1.0 + lhs.abs()));
    }

    fn rand_uniform_stays_in_range(seed in 0u64..200) {
        let mut rng = Rng64::new(seed);
        let t = Tensor::rand_uniform(&[64], -2.0, 3.0, rng.as_rng());
        for &x in t.as_slice() {
            prop_assert!((-2.0..3.0).contains(&x));
        }
    }
}
