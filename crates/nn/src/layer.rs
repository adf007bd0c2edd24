use crate::{NnError, Param, Result};
use duo_tensor::Tensor;

/// Anything that owns trainable parameters.
///
/// Optimizers step over `Parameterized` values, which lets composite
/// training targets (e.g. a backbone plus a metric-loss head with class
/// prototypes) be stepped jointly even when the composite itself is not a
/// [`Layer`]. Every `Layer` is `Parameterized` via a blanket impl.
pub trait Parameterized {
    /// Visits every trainable parameter in a deterministic order.
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param));

    /// Zeroes all parameter gradient accumulators.
    ///
    /// The default visits every parameter. A layer that keeps state
    /// derived from its parameter *values* (the [`crate::Linear`]
    /// transposed weight) drops it on a visit, so it overrides this to
    /// zero its gradients without one; containers override it to forward
    /// the call to their children for the same reason.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total number of trainable scalars.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }
}

/// Implements an empty [`Parameterized`] for layers without parameters.
#[macro_export]
macro_rules! param_free {
    ($($ty:ty),+ $(,)?) => {
        $(impl $crate::Parameterized for $ty {
            fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut $crate::Param)) {}
        })+
    };
}

/// Which gradients a [`Layer::backward`] pass computes: the caller names
/// the ones it keeps, and every layer skips the work for the rest.
///
/// Whatever a pass computes is bit-identical to what [`Grads::Both`]
/// computes: skipping the input gradient never changes a parameter
/// gradient, and skipping parameter gradients never changes the input
/// gradient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grads {
    /// The input gradient only; every [`Param::grad`] is left untouched
    /// (an attack differentiating the pixels).
    Input,
    /// Parameter gradients only; no input gradient is computed
    /// (training).
    Params,
    /// The input gradient and the parameter gradients.
    Both,
}

impl Grads {
    /// Whether the pass returns the input gradient.
    pub fn input(self) -> bool {
        self != Grads::Params
    }

    /// Whether the pass accumulates parameter gradients.
    pub fn params(self) -> bool {
        self != Grads::Input
    }

    /// What a container asks of a child whose input gradient it still
    /// propagates: these gradients plus the input gradient.
    pub(crate) fn with_input(self) -> Grads {
        if self == Grads::Params {
            Grads::Both
        } else {
            self
        }
    }
}

/// A differentiable computation node with explicit forward/backward passes.
///
/// Layers are stateful on the *training* path: `forward` caches whatever
/// the matching `backward` needs, and `backward` computes the gradients
/// its caller keeps ([`Grads`]): it *returns the input gradient* when
/// asked for it and *accumulates parameter gradients* into each
/// [`Param::grad`] when asked for those, skipping the work for the
/// other. This contract is what lets the attack crates differentiate a
/// whole backbone down to video pixels (for SparseTransfer) with the
/// same code path used for training, without paying for weight
/// gradients the attack throws away, and lets training skip the pixel
/// gradient. A container asks each child for its input gradient except
/// the first, which it asks for exactly what its own caller asked.
///
/// The *inference* path is [`Layer::infer`], a layer's one inference
/// forward: the identical computation in evaluation mode, without
/// touching any cache. Because it takes `&self` (and the trait requires
/// `Send + Sync`), a built network can be shared across threads — the
/// serving layer embeds a batch by running it once per clip, on several
/// threads at once.
///
/// Implementations must tolerate repeated `forward` calls (the latest cache
/// wins), must return an error — not panic — when `backward` is called
/// before any `forward`, and must keep `infer` bit-identical to an
/// evaluation-mode `forward` on the same input.
pub trait Layer: Parameterized + Send + Sync {
    /// Computes the layer output for `input`, caching for `backward`.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward(&mut self, input: &Tensor) -> Result<Tensor>;

    /// Computes the layer output without caching backward state
    /// (evaluation mode). Bit-identical to `forward` for deterministic
    /// layers; stochastic layers (dropout) behave as the identity, exactly
    /// like their evaluation mode.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn infer(&self, input: &Tensor) -> Result<Tensor>;

    /// Propagates `grad_out` back through the layer, computing the
    /// gradients `grads` names: the gradient with respect to the input is
    /// returned as `Some` exactly when [`Grads::input`] holds, and
    /// parameter gradients are accumulated exactly when [`Grads::params`]
    /// holds.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForwardCache`] if called before `forward`,
    /// or a shape error if `grad_out` does not match the cached output.
    fn backward(&mut self, grad_out: &Tensor, grads: Grads) -> Result<Option<Tensor>>;

    /// Short human-readable layer name used in error messages.
    fn name(&self) -> &'static str;

    /// Clones the layer — parameters and configuration — behind a fresh
    /// box. Transient backward caches are *not* carried over: the clone
    /// behaves as if `forward` has never been called, so two clones can
    /// run training-path gradient sequences concurrently without sharing
    /// state. This is what lets each attack client in a campaign own its
    /// own surrogate copied from one stolen backbone.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The invariant a container relies on when it asks a child for its
/// input gradient.
const ASKED: &str = "a layer asked for its input gradient returns it";

// ---------------------------------------------------------------------
// Sequential
// ---------------------------------------------------------------------

/// A chain of layers applied in order.
#[derive(Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates a sequential container from an ordered list of layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Appends a layer to the end of the chain.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of contained layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Sequential").field("layers", &names).finish()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x)?;
        }
        Ok(x)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        // The first layer reads `input` directly, so the (large) input
        // clip is never cloned.
        let Some((first, rest)) = self.layers.split_first() else {
            return Ok(input.clone());
        };
        let mut x = first.infer(input)?;
        for layer in rest {
            x = layer.infer(&x)?;
        }
        Ok(x)
    }

    fn backward(&mut self, grad_out: &Tensor, grads: Grads) -> Result<Option<Tensor>> {
        // Every layer but the first passes its input gradient on; the
        // first computes only what the caller keeps.
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(grads.input().then(|| grad_out.clone()));
        };
        let mut g = grad_out.clone();
        for layer in rest.iter_mut().rev() {
            g = layer.backward(&g, grads.with_input())?.expect(ASKED);
        }
        first.backward(&g, grads)
    }

    fn name(&self) -> &'static str {
        "Sequential"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl Parameterized for Sequential {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(visitor);
        }
    }

    fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }
}

param_free!(Relu, GlobalAvgPool, L2Normalize, TemporalStride);

// ---------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------

/// Rectified linear activation, `max(x, 0)` elementwise.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU activation layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        self.mask = Some(input.as_slice().iter().map(|&x| x > 0.0).collect());
        Ok(input.map(|x| x.max(0.0)))
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        Ok(input.map(|x| x.max(0.0)))
    }

    fn backward(&mut self, grad_out: &Tensor, grads: Grads) -> Result<Option<Tensor>> {
        let mask = self.mask.as_ref().ok_or(NnError::MissingForwardCache { layer: "Relu" })?;
        if mask.len() != grad_out.len() {
            return Err(NnError::BadInput {
                layer: "Relu",
                reason: format!("grad length {} != cached {}", grad_out.len(), mask.len()),
            });
        }
        if !grads.input() {
            return Ok(None);
        }
        let mut g = grad_out.clone();
        for (x, &keep) in g.as_mut_slice().iter_mut().zip(mask) {
            if !keep {
                *x = 0.0;
            }
        }
        Ok(Some(g))
    }

    fn name(&self) -> &'static str {
        "Relu"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Relu::new())
    }
}

// ---------------------------------------------------------------------
// GlobalAvgPool
// ---------------------------------------------------------------------

/// Global average pooling: `[C, …]` → `[C]`, averaging over all trailing
/// dimensions.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    in_dims: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool { in_dims: None }
    }
}

fn global_avg_pool(input: &Tensor) -> Result<Tensor> {
    if input.rank() < 2 {
        return Err(NnError::BadInput {
            layer: "GlobalAvgPool",
            reason: format!("needs rank >= 2, got {}", input.rank()),
        });
    }
    let c = input.dims()[0];
    let per: usize = input.dims()[1..].iter().product();
    let mut out = Tensor::zeros(&[c]);
    let iv = input.as_slice();
    for ch in 0..c {
        let s: f32 = iv[ch * per..(ch + 1) * per].iter().sum();
        out.as_mut_slice()[ch] = s / per as f32;
    }
    Ok(out)
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let out = global_avg_pool(input)?;
        self.in_dims = Some(input.dims().to_vec());
        Ok(out)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        global_avg_pool(input)
    }

    fn backward(&mut self, grad_out: &Tensor, grads: Grads) -> Result<Option<Tensor>> {
        let dims = self
            .in_dims
            .as_ref()
            .ok_or(NnError::MissingForwardCache { layer: "GlobalAvgPool" })?;
        let c = dims[0];
        let per: usize = dims[1..].iter().product();
        if grad_out.len() != c {
            return Err(NnError::BadInput {
                layer: "GlobalAvgPool",
                reason: format!("grad length {} != channels {}", grad_out.len(), c),
            });
        }
        if !grads.input() {
            return Ok(None);
        }
        let mut g = Tensor::zeros(dims);
        let gv = g.as_mut_slice();
        for ch in 0..c {
            let val = grad_out.as_slice()[ch] / per as f32;
            gv[ch * per..(ch + 1) * per].fill(val);
        }
        Ok(Some(g))
    }

    fn name(&self) -> &'static str {
        "GlobalAvgPool"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(GlobalAvgPool::new())
    }
}

// ---------------------------------------------------------------------
// L2Normalize
// ---------------------------------------------------------------------

/// Projects a feature vector onto the unit sphere: `x / max(‖x‖₂, ε)`.
///
/// Metric-learning heads in the DUO models normalize embeddings so that
/// the losses (ArcFace especially) operate on angles.
#[derive(Debug)]
pub struct L2Normalize {
    eps: f32,
    cache: Option<(Tensor, f32)>,
}

impl L2Normalize {
    /// Creates a normalization layer with the default ε of `1e-8`.
    pub fn new() -> Self {
        L2Normalize { eps: 1e-8, cache: None }
    }
}

impl Default for L2Normalize {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for L2Normalize {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let norm = input.l2_norm().max(self.eps);
        self.cache = Some((input.clone(), norm));
        Ok(input.scale(1.0 / norm))
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        let norm = input.l2_norm().max(self.eps);
        Ok(input.scale(1.0 / norm))
    }

    fn backward(&mut self, grad_out: &Tensor, grads: Grads) -> Result<Option<Tensor>> {
        let (x, norm) = self
            .cache
            .as_ref()
            .ok_or(NnError::MissingForwardCache { layer: "L2Normalize" })?;
        if !grads.input() {
            return Ok(None);
        }
        // d(x/‖x‖)/dx = I/‖x‖ − x xᵀ/‖x‖³
        let dot = x.dot(grad_out)?;
        let mut g = grad_out.scale(1.0 / norm);
        g.axpy(-dot / (norm * norm * norm), x)?;
        Ok(Some(g))
    }

    fn name(&self) -> &'static str {
        "L2Normalize"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(L2Normalize { eps: self.eps, cache: None })
    }
}

// ---------------------------------------------------------------------
// Residual
// ---------------------------------------------------------------------

/// A residual block: `output = main(x) + shortcut(x)`, with an identity
/// shortcut when none is given.
///
/// The shortcut path (usually a strided 1×1×1 convolution) must produce the
/// same shape as the main path.
pub struct Residual {
    main: Sequential,
    shortcut: Option<Sequential>,
    forwarded: bool,
}

impl Residual {
    /// Creates a residual block with an identity shortcut.
    pub fn identity(main: Sequential) -> Self {
        Residual { main, shortcut: None, forwarded: false }
    }

    /// Creates a residual block with a projection shortcut.
    pub fn with_shortcut(main: Sequential, shortcut: Sequential) -> Self {
        Residual { main, shortcut: Some(shortcut), forwarded: false }
    }
}

impl std::fmt::Debug for Residual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Residual")
            .field("main", &self.main)
            .field("has_shortcut", &self.shortcut.is_some())
            .finish()
    }
}

impl Layer for Residual {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let main_out = self.main.forward(input)?;
        let skip = match &mut self.shortcut {
            Some(s) => s.forward(input)?,
            None => input.clone(),
        };
        self.forwarded = true;
        main_out.add(&skip).map_err(|e| {
            NnError::BadInput {
                layer: "Residual",
                reason: format!("main/shortcut shape mismatch: {e}"),
            }
        })
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        let main_out = self.main.infer(input)?;
        let skip = match &self.shortcut {
            Some(s) => s.infer(input)?,
            None => input.clone(),
        };
        main_out.add(&skip).map_err(|e| {
            NnError::BadInput {
                layer: "Residual",
                reason: format!("main/shortcut shape mismatch: {e}"),
            }
        })
    }

    fn backward(&mut self, grad_out: &Tensor, grads: Grads) -> Result<Option<Tensor>> {
        if !self.forwarded {
            return Err(NnError::MissingForwardCache { layer: "Residual" });
        }
        let g_main = self.main.backward(grad_out, grads)?;
        let g_skip = match &mut self.shortcut {
            Some(s) => s.backward(grad_out, grads)?,
            None => grads.input().then(|| grad_out.clone()),
        };
        if !grads.input() {
            return Ok(None);
        }
        Ok(Some(g_main.expect(ASKED).add(&g_skip.expect(ASKED))?))
    }

    fn name(&self) -> &'static str {
        "Residual"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Residual {
            main: self.main.clone(),
            shortcut: self.shortcut.clone(),
            forwarded: false,
        })
    }
}

impl Parameterized for Residual {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.main.visit_params(visitor);
        if let Some(s) = &mut self.shortcut {
            s.visit_params(visitor);
        }
    }

    fn zero_grad(&mut self) {
        self.main.zero_grad();
        if let Some(s) = &mut self.shortcut {
            s.zero_grad();
        }
    }
}

// ---------------------------------------------------------------------
// TemporalStride
// ---------------------------------------------------------------------

/// Subsamples a `[C, T, H, W]` clip along time, keeping every `stride`-th
/// frame. Used by the SlowFast backbone's slow pathway.
#[derive(Debug)]
pub struct TemporalStride {
    stride: usize,
    in_dims: Option<Vec<usize>>,
}

impl TemporalStride {
    /// Creates a temporal subsampling layer.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn new(stride: usize) -> Self {
        assert!(stride > 0, "TemporalStride requires stride > 0");
        TemporalStride { stride, in_dims: None }
    }
}

fn temporal_subsample(input: &Tensor, stride: usize) -> Result<Tensor> {
    if input.rank() != 4 {
        return Err(NnError::BadInput {
            layer: "TemporalStride",
            reason: format!("needs rank-4 [C,T,H,W], got rank {}", input.rank()),
        });
    }
    let (c, t, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]);
    let ot = t.div_ceil(stride);
    let mut out = Tensor::zeros(&[c, ot, h, w]);
    let iv = input.as_slice();
    let ov = out.as_mut_slice();
    let frame = h * w;
    for ch in 0..c {
        for (oz, z) in (0..t).step_by(stride).enumerate() {
            let src = (ch * t + z) * frame;
            let dst = (ch * ot + oz) * frame;
            ov[dst..dst + frame].copy_from_slice(&iv[src..src + frame]);
        }
    }
    Ok(out)
}

impl Layer for TemporalStride {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let out = temporal_subsample(input, self.stride)?;
        self.in_dims = Some(input.dims().to_vec());
        Ok(out)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        temporal_subsample(input, self.stride)
    }

    fn backward(&mut self, grad_out: &Tensor, grads: Grads) -> Result<Option<Tensor>> {
        let dims = self
            .in_dims
            .as_ref()
            .ok_or(NnError::MissingForwardCache { layer: "TemporalStride" })?;
        let (c, t, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let ot = t.div_ceil(self.stride);
        if grad_out.dims() != [c, ot, h, w] {
            return Err(NnError::BadInput {
                layer: "TemporalStride",
                reason: format!("grad dims {:?} != expected [{c},{ot},{h},{w}]", grad_out.dims()),
            });
        }
        if !grads.input() {
            return Ok(None);
        }
        let mut g = Tensor::zeros(dims);
        let gv = g.as_mut_slice();
        let ov = grad_out.as_slice();
        let frame = h * w;
        for ch in 0..c {
            for (oz, z) in (0..t).step_by(self.stride).enumerate() {
                let dst = (ch * t + z) * frame;
                let src = (ch * ot + oz) * frame;
                gv[dst..dst + frame].copy_from_slice(&ov[src..src + frame]);
            }
        }
        Ok(Some(g))
    }

    fn name(&self) -> &'static str {
        "TemporalStride"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(TemporalStride { stride: self.stride, in_dims: None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Linear;
    use duo_tensor::Rng64;

    #[test]
    fn relu_clamps_and_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[4]).unwrap();
        let y = relu.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
        let g = relu.backward(&Tensor::ones(&[4]), Grads::Both).unwrap().unwrap();
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn relu_backward_without_forward_errors() {
        let mut relu = Relu::new();
        assert!(matches!(
            relu.backward(&Tensor::ones(&[1]), Grads::Both),
            Err(NnError::MissingForwardCache { .. })
        ));
    }

    #[test]
    fn global_avg_pool_reduces_trailing_dims() {
        let mut gap = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0, 3.0, 10.0, 20.0], &[2, 2]).unwrap();
        let y = gap.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[2.0, 15.0]);
        let g = gap.backward(&Tensor::from_vec(vec![2.0, 4.0], &[2]).unwrap(), Grads::Both).unwrap().unwrap();
        assert_eq!(g.as_slice(), &[1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn l2_normalize_produces_unit_vectors() {
        let mut l2 = L2Normalize::new();
        let x = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        let y = l2.forward(&x).unwrap();
        assert!((y.l2_norm() - 1.0).abs() < 1e-6);
        assert!((y.as_slice()[0] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn l2_normalize_gradient_is_tangent() {
        // The gradient through normalization must be orthogonal to the
        // normalized output when grad_out == output (norm is constant on rays).
        let mut l2 = L2Normalize::new();
        let x = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        let y = l2.forward(&x).unwrap();
        let g = l2.backward(&y, Grads::Both).unwrap().unwrap();
        assert!(g.l2_norm() < 1e-6, "gradient along the ray must vanish, got {g}");
    }

    #[test]
    fn sequential_composes_and_reverses() {
        let mut rng = Rng64::new(1);
        let mut net = Sequential::new(vec![
            Box::new(Linear::new(3, 5, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(5, 2, &mut rng)),
        ]);
        let x = Tensor::ones(&[3]);
        let y = net.forward(&x).unwrap();
        assert_eq!(y.dims(), &[2]);
        let gx = net.backward(&Tensor::ones(&[2]), Grads::Both).unwrap().unwrap();
        assert_eq!(gx.dims(), &[3]);
        assert!(net.param_count() > 0);
    }

    #[test]
    fn residual_identity_adds_input() {
        let main = Sequential::new(vec![Box::new(Relu::new()) as Box<dyn Layer>]);
        let mut res = Residual::identity(main);
        let x = Tensor::from_vec(vec![-2.0, 3.0], &[2]).unwrap();
        let y = res.forward(&x).unwrap();
        // relu(-2) + (-2) = -2 ; relu(3) + 3 = 6
        assert_eq!(y.as_slice(), &[-2.0, 6.0]);
        let g = res.backward(&Tensor::ones(&[2]), Grads::Both).unwrap().unwrap();
        // d/dx (relu(x)+x) = [0+1, 1+1]
        assert_eq!(g.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn temporal_stride_keeps_every_kth_frame() {
        let mut ts = TemporalStride::new(2);
        let x = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[1, 4, 1, 2]).unwrap();
        let y = ts.forward(&x).unwrap();
        assert_eq!(y.dims(), &[1, 2, 1, 2]);
        assert_eq!(y.as_slice(), &[0.0, 1.0, 4.0, 5.0]);
        let g = ts.backward(&Tensor::ones(&[1, 2, 1, 2]), Grads::Both).unwrap().unwrap();
        assert_eq!(g.as_slice(), &[1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    /// A leaf that records how `zero_grad` reached it (through a
    /// parameter visit, which would drop derived state such as the
    /// `Linear` transpose, or through a direct call) and which gradients
    /// each backward asked it for.
    #[derive(Clone, Default)]
    struct Probe {
        id: usize,
        visits: std::sync::Arc<std::sync::atomic::AtomicUsize>,
        zeroed: std::sync::Arc<std::sync::atomic::AtomicUsize>,
        asked: std::sync::Arc<std::sync::Mutex<Vec<(usize, Grads)>>>,
    }

    impl Parameterized for Probe {
        fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Param)) {
            self.visits.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }

        fn zero_grad(&mut self) {
            self.zeroed.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    impl Layer for Probe {
        fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
            Ok(input.clone())
        }

        fn infer(&self, input: &Tensor) -> Result<Tensor> {
            Ok(input.clone())
        }

        fn backward(&mut self, grad_out: &Tensor, grads: Grads) -> Result<Option<Tensor>> {
            self.asked.lock().unwrap().push((self.id, grads));
            Ok(grads.input().then(|| grad_out.clone()))
        }

        fn name(&self) -> &'static str {
            "Probe"
        }

        fn clone_box(&self) -> Box<dyn Layer> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn containers_forward_zero_grad_without_visiting() {
        let probe = Probe::default();
        let leaf = || Box::new(probe.clone()) as Box<dyn Layer>;
        let mut net = Sequential::new(vec![
            leaf(),
            Box::new(Residual::with_shortcut(
                Sequential::new(vec![leaf()]),
                Sequential::new(vec![leaf()]),
            )),
        ]);
        net.zero_grad();
        let count = |c: &std::sync::atomic::AtomicUsize| c.load(std::sync::atomic::Ordering::SeqCst);
        assert_eq!((count(&probe.zeroed), count(&probe.visits)), (3, 0));
        net.visit_params(&mut |_| {});
        assert_eq!(count(&probe.visits), 3);
    }

    #[test]
    fn containers_ask_only_their_first_layer_for_what_the_caller_keeps() {
        let probe = Probe::default();
        let leaf = |id| Box::new(Probe { id, ..probe.clone() }) as Box<dyn Layer>;
        let mut net = Sequential::new(vec![
            Box::new(Residual::with_shortcut(
                Sequential::new(vec![leaf(1), leaf(2)]),
                Sequential::new(vec![leaf(3)]),
            )),
            leaf(4),
        ]);
        let x = Tensor::ones(&[2]);
        for grads in [Grads::Input, Grads::Params, Grads::Both] {
            net.forward(&x).unwrap();
            probe.asked.lock().unwrap().clear();
            let gx = net.backward(&x, grads).unwrap();
            assert_eq!(gx.is_some(), grads.input(), "{grads:?}");
            // Backward order: the last layer, then the residual's main
            // path back to front, then its shortcut. Only the first
            // layer of each path runs parameters-only.
            let first = |id| (id, grads);
            let passes = |id| (id, grads.with_input());
            assert_eq!(
                *probe.asked.lock().unwrap(),
                [passes(4), passes(2), first(1), first(3)],
                "{grads:?}"
            );
        }
    }

    #[test]
    fn zero_grad_clears_all_params() {
        let mut rng = Rng64::new(2);
        let mut net = Sequential::new(vec![Box::new(Linear::new(2, 2, &mut rng)) as Box<dyn Layer>]);
        let x = Tensor::ones(&[2]);
        net.forward(&x).unwrap();
        net.backward(&Tensor::ones(&[2]), Grads::Both).unwrap();
        let mut nonzero = 0;
        net.visit_params(&mut |p| nonzero += p.grad.l0_norm());
        assert!(nonzero > 0);
        net.zero_grad();
        let mut after = 0;
        net.visit_params(&mut |p| after += p.grad.l0_norm());
        assert_eq!(after, 0);
    }
}
