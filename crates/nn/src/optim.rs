use crate::layer::Parameterized;
use crate::Param;

/// A first-order optimizer stepping the parameters of any [`Parameterized`]
/// value (a layer, a whole network, or a backbone-plus-loss-head bundle).
///
/// This trait is sealed in spirit: the workspace uses [`Sgd`] and [`Adam`].
pub trait Optimizer {
    /// Applies one update step using the gradients currently accumulated in
    /// the network's parameters, then zeroes the gradients.
    fn step(&mut self, network: &mut dyn Parameterized);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used by decay schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with classical momentum.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Sgd { lr, momentum, velocity: Vec::new() }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, network: &mut dyn Parameterized) {
        let lr = self.lr;
        let momentum = self.momentum;
        let velocity = &mut self.velocity;
        let mut i = 0usize;
        network.visit_params(&mut |p: &mut Param| {
            if velocity.len() <= i {
                velocity.push(vec![0.0; p.len()]);
            }
            let v = &mut velocity[i];
            debug_assert_eq!(v.len(), p.len(), "parameter order must be stable across steps");
            for ((vi, val), g) in
                v.iter_mut().zip(p.value.as_mut_slice()).zip(p.grad.as_slice())
            {
                *vi = momentum * *vi + g;
                *val -= lr * *vi;
            }
            p.zero_grad();
            i += 1;
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam optimizer (Kingma & Ba, ICLR'15) — the paper trains its surrogate
/// with Adam, so this is the default across the workspace.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates an Adam optimizer with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, network: &mut dyn Parameterized) {
        self.t += 1;
        let (lr, b1, b2, eps, t) = (self.lr, self.beta1, self.beta2, self.eps, self.t);
        let bc1 = 1.0 - b1.powi(t as i32);
        let bc2 = 1.0 - b2.powi(t as i32);
        let (m, v) = (&mut self.m, &mut self.v);
        let mut i = 0usize;
        network.visit_params(&mut |p: &mut Param| {
            if m.len() <= i {
                m.push(vec![0.0; p.len()]);
                v.push(vec![0.0; p.len()]);
            }
            let (mi, vi) = (&mut m[i], &mut v[i]);
            debug_assert_eq!(mi.len(), p.len(), "parameter order must be stable across steps");
            for (((mm, vv), val), g) in mi
                .iter_mut()
                .zip(vi.iter_mut())
                .zip(p.value.as_mut_slice())
                .zip(p.grad.as_slice())
            {
                *mm = b1 * *mm + (1.0 - b1) * g;
                *vv = b2 * *vv + (1.0 - b2) * g * g;
                let mhat = *mm / bc1;
                let vhat = *vv / bc2;
                *val -= lr * mhat / (vhat.sqrt() + eps);
            }
            p.zero_grad();
            i += 1;
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Grads, Layer, Linear, Sequential};
    use duo_tensor::{Rng64, Tensor};

    /// Trains y = 2x on a 1-d linear model and checks convergence.
    fn converges_with(opt: &mut dyn Optimizer) -> f32 {
        let mut rng = Rng64::new(61);
        let mut net =
            Sequential::new(vec![Box::new(Linear::new(1, 1, &mut rng)) as Box<dyn crate::Layer>]);
        for _ in 0..300 {
            let x = Tensor::from_vec(vec![1.0], &[1]).unwrap();
            let y = net.forward(&x).unwrap();
            let err = y.as_slice()[0] - 2.0;
            net.backward(&Tensor::from_vec(vec![2.0 * err], &[1]).unwrap(), Grads::Params).unwrap();
            opt.step(&mut net);
        }
        let y = net.forward(&Tensor::from_vec(vec![1.0], &[1]).unwrap()).unwrap();
        (y.as_slice()[0] - 2.0).abs()
    }

    #[test]
    fn sgd_converges_on_linear_regression() {
        let mut opt = Sgd::new(0.05, 0.9);
        assert!(converges_with(&mut opt) < 1e-2);
    }

    #[test]
    fn adam_converges_on_linear_regression() {
        let mut opt = Adam::new(0.05);
        assert!(converges_with(&mut opt) < 1e-2);
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut rng = Rng64::new(62);
        let mut net =
            Sequential::new(vec![Box::new(Linear::new(2, 2, &mut rng)) as Box<dyn crate::Layer>]);
        net.forward(&Tensor::ones(&[2])).unwrap();
        net.backward(&Tensor::ones(&[2]), Grads::Params).unwrap();
        let mut opt = Adam::new(0.001);
        opt.step(&mut net);
        let mut remaining = 0usize;
        net.visit_params(&mut |p| remaining += p.grad.l0_norm());
        assert_eq!(remaining, 0);
    }

    #[test]
    fn learning_rate_is_settable() {
        let mut opt = Sgd::new(0.1, 0.0);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }
}
