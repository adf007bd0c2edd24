use crate::{ModelError, MultiPath, Result};
use duo_nn::{
    AvgPool3d, Conv3d, Flatten, Grads, L2Normalize, Layer, Linear, MaxPool3d, Param,
    Parameterized, Relu, Residual, Sequential, TemporalStride,
};
use duo_tensor::{Conv3dSpec, Pool3dSpec, Rng64, Tensor};
use duo_video::{ClipSpec, Video};

/// The backbone families evaluated in the paper.
///
/// Victim models: [`Architecture::I3d`], [`Architecture::Tpn`],
/// [`Architecture::SlowFast`], [`Architecture::Resnet34`].
/// Surrogate models: [`Architecture::C3d`], [`Architecture::Resnet18`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Inflated 3-D convolutions, single pathway, residual block.
    I3d,
    /// Temporal pyramid network: shared trunk, multi-rate temporal branches.
    Tpn,
    /// Two pathways at different frame rates (slow: strided, wide; fast:
    /// full rate, narrow), fused late.
    SlowFast,
    /// Per-frame 2-D residual network (kt = 1), deeper variant.
    Resnet34,
    /// Plain stacked 3-D convolutions (the paper's main surrogate).
    C3d,
    /// Per-frame 2-D residual network, shallower variant (surrogate).
    Resnet18,
}
duo_tensor::impl_to_json!(enum Architecture { I3d, Tpn, SlowFast, Resnet34, C3d, Resnet18 });

impl Architecture {
    /// The four victim architectures of the paper's evaluation.
    pub fn victims() -> [Architecture; 4] {
        [Architecture::Tpn, Architecture::SlowFast, Architecture::I3d, Architecture::Resnet34]
    }

    /// The two surrogate architectures of the paper's evaluation.
    pub fn surrogates() -> [Architecture; 2] {
        [Architecture::C3d, Architecture::Resnet18]
    }

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Architecture::I3d => "I3D",
            Architecture::Tpn => "TPN",
            Architecture::SlowFast => "SlowFast",
            Architecture::Resnet34 => "Resnet34",
            Architecture::C3d => "C3D",
            Architecture::Resnet18 => "Resnet18",
        }
    }
}

impl std::fmt::Display for Architecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Width/feature-size configuration of a backbone.
///
/// The clip geometry is part of the configuration because — following the
/// paper's system diagram — embeddings are produced by *fully-connected
/// feature flattening* of the final convolutional map, so the head's
/// input dimensionality depends on the clip size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BackboneConfig {
    /// Base channel width; deeper stages scale from this.
    pub width: usize,
    /// Output embedding dimensionality (the paper flattens to 768).
    pub feature_dim: usize,
    /// Clip geometry the backbone is built for.
    pub clip: ClipSpec,
}
duo_tensor::impl_to_json!(struct BackboneConfig { width, feature_dim, clip });

impl BackboneConfig {
    /// Paper-shaped configuration: 768-d features over 112×112×16 clips.
    pub fn paper() -> Self {
        BackboneConfig { width: 8, feature_dim: 768, clip: ClipSpec::paper() }
    }

    /// Default experiment configuration for this reproduction.
    pub fn experiment() -> Self {
        BackboneConfig { width: 8, feature_dim: 128, clip: ClipSpec::experiment() }
    }

    /// Tiny configuration for unit tests.
    pub fn tiny() -> Self {
        BackboneConfig { width: 4, feature_dim: 32, clip: ClipSpec::tiny() }
    }

    /// Returns a copy with a different feature dimension (used by the
    /// Figure 4 surrogate feature-size sweep).
    pub fn with_feature_dim(mut self, dim: usize) -> Self {
        self.feature_dim = dim;
        self
    }

    /// Returns a copy built for a different clip geometry.
    pub fn with_clip(mut self, clip: ClipSpec) -> Self {
        self.clip = clip;
        self
    }
}

/// A video feature extractor: `[C, T, H, W]` clip → L2-normalized `[D]`
/// embedding, with input gradients for transfer attacks.
#[derive(Clone)]
pub struct Backbone {
    arch: Architecture,
    config: BackboneConfig,
    net: Sequential,
}

impl std::fmt::Debug for Backbone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Backbone")
            .field("arch", &self.arch)
            .field("config", &self.config)
            .finish()
    }
}

fn conv(in_c: usize, out_c: usize, k: usize, stride: (usize, usize, usize), pad: usize, rng: &mut Rng64) -> Box<dyn Layer> {
    Box::new(Conv3d::new(Conv3dSpec::cubic(in_c, k, stride, pad), out_c, rng))
}

/// Per-frame 2-D convolution expressed as a kt=1 3-D convolution.
fn conv2d(in_c: usize, out_c: usize, k: usize, spatial_stride: usize, rng: &mut Rng64) -> Box<dyn Layer> {
    let spec = Conv3dSpec {
        in_channels: in_c,
        kt: 1,
        kh: k,
        kw: k,
        st: 1,
        sh: spatial_stride,
        sw: spatial_stride,
        pt: 0,
        ph: k / 2,
        pw: k / 2,
    };
    Box::new(Conv3d::new(spec, out_c, rng))
}

fn relu() -> Box<dyn Layer> {
    Box::new(Relu::new())
}

fn identity_block_2d(c: usize, rng: &mut Rng64) -> Box<dyn Layer> {
    let main = Sequential::new(vec![conv2d(c, c, 3, 1, rng), relu(), conv2d(c, c, 3, 1, rng)]);
    Box::new(Residual::identity(main))
}

fn build_resnet(w: usize, depth: usize, rng: &mut Rng64) -> Vec<Box<dyn Layer>> {
    let mut layers: Vec<Box<dyn Layer>> = vec![conv2d(3, w, 3, 2, rng), relu()];
    for _ in 0..depth {
        layers.push(identity_block_2d(w, rng));
        layers.push(relu());
    }
    // Downsampling projection block to double the width.
    let main = Sequential::new(vec![conv2d(w, 2 * w, 3, 2, rng), relu(), conv2d(2 * w, 2 * w, 3, 1, rng)]);
    let shortcut = Sequential::new(vec![conv2d(w, 2 * w, 1, 2, rng)]);
    layers.push(Box::new(Residual::with_shortcut(main, shortcut)));
    layers.push(relu());
    for _ in 0..depth {
        layers.push(identity_block_2d(2 * w, rng));
        layers.push(relu());
    }
    // Spatial 2x pooling keeps the flattened feature-map width manageable
    // while retaining full temporal resolution.
    layers.push(Box::new(AvgPool3d::new(Pool3dSpec::spatial(2))));
    layers
}

impl Backbone {
    /// Builds a backbone of the given architecture.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadConfig`] for zero width or feature size.
    pub fn new(arch: Architecture, config: BackboneConfig, rng: &mut Rng64) -> Result<Self> {
        if config.width == 0 || config.feature_dim == 0 {
            return Err(ModelError::BadConfig(format!(
                "width and feature_dim must be positive, got {config:?}"
            )));
        }
        let w = config.width;
        let trunk: Vec<Box<dyn Layer>> = match arch {
            Architecture::C3d => vec![
                conv(3, w, 3, (1, 2, 2), 1, rng),
                relu(),
                conv(w, 2 * w, 3, (2, 2, 2), 1, rng),
                relu(),
                conv(2 * w, 4 * w, 3, (2, 2, 2), 1, rng),
                relu(),
            ],
            Architecture::I3d => {
                let res_main = Sequential::new(vec![
                    conv(2 * w, 2 * w, 3, (1, 1, 1), 1, rng),
                    relu(),
                    conv(2 * w, 2 * w, 3, (1, 1, 1), 1, rng),
                ]);
                vec![
                    conv(3, w, 3, (1, 2, 2), 1, rng),
                    relu(),
                    Box::new(MaxPool3d::new(Pool3dSpec::spatial(2))) as Box<dyn Layer>,
                    conv(w, 2 * w, 3, (1, 1, 1), 1, rng),
                    relu(),
                    Box::new(Residual::identity(res_main)),
                    relu(),
                    conv(2 * w, 4 * w, 3, (2, 2, 2), 1, rng),
                    relu(),
                ]
            }
            Architecture::Tpn => {
                let branch = |rate: usize, rng: &mut Rng64| -> Sequential {
                    let temporal_conv = Conv3dSpec {
                        in_channels: 2 * w,
                        kt: 2,
                        kh: 3,
                        kw: 3,
                        st: 1,
                        sh: 1,
                        sw: 1,
                        pt: 0,
                        ph: 1,
                        pw: 1,
                    };
                    Sequential::new(vec![
                        Box::new(AvgPool3d::new(Pool3dSpec {
                            kt: rate,
                            kh: 1,
                            kw: 1,
                            st: rate,
                            sh: 1,
                            sw: 1,
                        })) as Box<dyn Layer>,
                        Box::new(Conv3d::new(temporal_conv, w, rng)),
                        relu(),
                        Box::new(Flatten::new()),
                    ])
                };
                let pyramid = MultiPath::new(vec![branch(1, rng), branch(2, rng), branch(4, rng)]);
                vec![
                    conv(3, w, 3, (1, 2, 2), 1, rng),
                    relu(),
                    conv(w, 2 * w, 3, (1, 2, 2), 1, rng),
                    relu(),
                    Box::new(pyramid) as Box<dyn Layer>,
                ]
            }
            Architecture::SlowFast => {
                let mut slow_rng = rng.fork(1);
                let mut fast_rng = rng.fork(2);
                let slow = Sequential::new(vec![
                    Box::new(TemporalStride::new(4)) as Box<dyn Layer>,
                    conv(3, 2 * w, 3, (1, 2, 2), 1, &mut slow_rng),
                    relu(),
                    conv(2 * w, 4 * w, 3, (1, 2, 2), 1, &mut slow_rng),
                    relu(),
                    Box::new(Flatten::new()),
                ]);
                let fast = Sequential::new(vec![
                    conv(3, w, 3, (1, 2, 2), 1, &mut fast_rng),
                    relu(),
                    conv(w, w, 3, (2, 2, 2), 1, &mut fast_rng),
                    relu(),
                    Box::new(Flatten::new()) as Box<dyn Layer>,
                ]);
                vec![Box::new(MultiPath::new(vec![slow, fast]))]
            }
            Architecture::Resnet34 => build_resnet(w, 2, rng),
            Architecture::Resnet18 => build_resnet(w, 1, rng),
        };
        // Following the paper's system diagram, the embedding head is a
        // fully-connected flattening of the final feature map. Its input
        // width depends on the clip geometry, so probe the trunk once.
        let mut net = Sequential::new(trunk);
        net.push(Box::new(Flatten::new()));
        let clip = config.clip;
        let probe = Tensor::zeros(&[clip.channels, clip.frames, clip.height, clip.width]);
        let flat = net.infer(&probe).map_err(|e| {
            ModelError::BadConfig(format!("clip {clip:?} incompatible with {arch}: {e}"))
        })?;
        net.push(Box::new(Linear::new(flat.len(), config.feature_dim, rng)));
        net.push(Box::new(L2Normalize::new()));
        Ok(Backbone { arch, config, net })
    }

    /// The architecture family of this backbone.
    pub fn arch(&self) -> Architecture {
        self.arch
    }

    /// The construction configuration.
    pub fn config(&self) -> BackboneConfig {
        self.config
    }

    /// Output embedding dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.config.feature_dim
    }

    /// Extracts the L2-normalized embedding of a video.
    ///
    /// This is the pure inference path: it takes `&self`, leaves no
    /// forward caches behind, and is bit-identical to
    /// [`Backbone::extract_training`] for the deterministic layers used by
    /// every built-in architecture. Because it is immutable, one backbone
    /// can serve concurrent extractions from many threads.
    ///
    /// # Errors
    ///
    /// Returns an error if the clip geometry is incompatible with the
    /// backbone's downsampling structure.
    pub fn extract(&self, video: &Video) -> Result<Tensor> {
        Ok(self.net.infer(&video.to_model_input())?)
    }

    /// Extracts embeddings for a batch of videos, split into up to
    /// `workers` contiguous chunks: the calling thread runs the first and
    /// one scoped thread runs each other one, and each chunk runs
    /// [`Backbone::extract`] once per clip.
    ///
    /// Every embedding is therefore bit-identical to a serial loop of
    /// `extract`; the split only changes wall-clock time, never values.
    /// `workers == 0` is treated as 1. Results are returned in input
    /// order.
    ///
    /// # Errors
    ///
    /// Returns the first per-item error in input order, if any.
    pub fn extract_batch(&self, videos: &[&Video], workers: usize) -> Result<Vec<Tensor>> {
        if videos.is_empty() {
            return Ok(Vec::new());
        }
        let workers = workers.max(1).min(videos.len());
        let run = |vids: &[&Video]| -> Result<Vec<Tensor>> {
            vids.iter().map(|v| self.extract(v)).collect()
        };
        let mut chunks = videos.chunks(videos.len().div_ceil(workers));
        let first = chunks.next().expect("a non-empty batch has a first chunk");
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks.map(|vids| scope.spawn(move || run(vids))).collect();
            let mut outs = Vec::with_capacity(videos.len());
            outs.extend(run(first)?);
            for handle in handles {
                outs.extend(handle.join().unwrap_or_else(|e| std::panic::resume_unwind(e))?);
            }
            Ok(outs)
        })
    }

    /// Extracts an embedding through the *training* forward pass, leaving
    /// per-layer caches in place for a subsequent
    /// [`Backbone::input_gradient`], [`Backbone::backward_params`] or
    /// [`Backbone::backward`].
    ///
    /// Runs the same kernels as [`Backbone::extract`], so the embedding is
    /// bit-identical to it for the deterministic layers used by the
    /// built-in architectures; the only difference is the cached state
    /// (and dropout masking, for user nets that include a training-mode
    /// [`duo_nn::Dropout`]). A caller that needs an embedding *and* its
    /// backward can take the embedding from this call instead of a
    /// separate `extract`.
    ///
    /// # Errors
    ///
    /// Same as [`Backbone::extract`].
    pub fn extract_training(&mut self, video: &Video) -> Result<Tensor> {
        Ok(self.net.forward(&video.to_model_input())?)
    }

    /// Backpropagates a feature-space gradient through the caches of the
    /// last training forward, computing exactly the gradients `grads`
    /// names: the gradient with respect to the `[C, T, H, W]` model input
    /// is returned when [`Grads::input`] holds, and parameter gradients
    /// are accumulated when [`Grads::params`] holds.
    /// [`Backbone::input_gradient`] and [`Backbone::backward_params`] are
    /// the two one-sided passes; [`Grads::Both`] computes both sides,
    /// each bit-identical to its one-sided pass.
    ///
    /// # Errors
    ///
    /// Returns an error if no forward pass preceded this call or shapes
    /// mismatch.
    pub fn backward(&mut self, grad_feature: &Tensor, grads: Grads) -> Result<Option<Tensor>> {
        Ok(self.net.backward(grad_feature, grads)?)
    }

    /// Gradient of a scalar loss with respect to the *video pixels*
    /// (`[N, H, W, C]` layout, including the 1/255 input scaling), given
    /// the loss gradient with respect to the embedding.
    ///
    /// Must be called immediately after [`Backbone::extract_training`] on
    /// the same video: the backward pass consumes the forward caches.
    ///
    /// No parameter gradient is computed: every layer skips its weight
    /// and bias accumulation ([`Grads::Input`]), so an attack leaves the
    /// gradient state exactly as it found it.
    ///
    /// # Errors
    ///
    /// Returns an error if no forward pass preceded this call or shapes
    /// mismatch.
    pub fn input_gradient(&mut self, video: &Video, grad_feature: &Tensor) -> Result<Tensor> {
        let grad_model =
            self.backward(grad_feature, Grads::Input)?.expect("the input gradient was asked for");
        Ok(video.gradient_to_video_layout(&grad_model)?)
    }

    /// Backpropagates a feature-space gradient to accumulate *parameter*
    /// gradients (training path). No pixel gradient is computed
    /// ([`Grads::Params`]): the network's first layer (the first layer of
    /// each branch, in a multi-path trunk) skips its input gradient.
    ///
    /// Must be called immediately after [`Backbone::extract_training`] on
    /// the same video.
    ///
    /// # Errors
    ///
    /// Returns an error if no forward pass preceded this call.
    pub fn backward_params(&mut self, grad_feature: &Tensor) -> Result<()> {
        self.backward(grad_feature, Grads::Params)?;
        Ok(())
    }

    /// Number of trainable scalars.
    pub fn param_count(&mut self) -> usize {
        Parameterized::param_count(&mut self.net)
    }
}

impl Parameterized for Backbone {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.net.visit_params(visitor);
    }

    fn zero_grad(&mut self) {
        self.net.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duo_video::{ClipSpec, SyntheticVideoGenerator};

    fn tiny_video() -> Video {
        SyntheticVideoGenerator::new(ClipSpec::tiny(), 3).generate(0, 0)
    }

    #[test]
    fn every_architecture_produces_unit_features() {
        let video = tiny_video();
        for arch in [
            Architecture::I3d,
            Architecture::Tpn,
            Architecture::SlowFast,
            Architecture::Resnet34,
            Architecture::C3d,
            Architecture::Resnet18,
        ] {
            let mut rng = Rng64::new(101);
            let model = Backbone::new(arch, BackboneConfig::tiny(), &mut rng).unwrap();
            let feat = model.extract(&video).unwrap();
            assert_eq!(feat.len(), 32, "{arch}");
            assert!((feat.l2_norm() - 1.0).abs() < 1e-4, "{arch} features must be normalized");
        }
    }

    #[test]
    fn architectures_disagree_on_the_same_input() {
        let video = tiny_video();
        let mut rng = Rng64::new(102);
        let a = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
        let b = Backbone::new(Architecture::I3d, BackboneConfig::tiny(), &mut rng).unwrap();
        let fa = a.extract(&video).unwrap();
        let fb = b.extract(&video).unwrap();
        assert!(fa.sq_distance(&fb).unwrap() > 1e-4);
    }

    #[test]
    fn input_gradient_has_video_shape() {
        let video = tiny_video();
        let mut rng = Rng64::new(103);
        let mut model = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
        let feat = model.extract_training(&video).unwrap();
        let g = model.input_gradient(&video, &feat).unwrap();
        assert_eq!(g.dims(), video.tensor().dims());
        assert!(g.l2_norm() > 0.0, "gradient should be nonzero");
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        // Loss = <feat, c> for a fixed direction c; check d loss / d pixel.
        let video = tiny_video();
        let mut rng = Rng64::new(104);
        let mut model = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
        let c = Tensor::randn(&[32], 1.0, rng.as_rng());
        let _ = model.extract_training(&video).unwrap();
        let g = model.input_gradient(&video, &c).unwrap();
        let eps = 0.5; // half a pixel step out of 255
        for &probe in &[10usize, 500, 2000] {
            let mut vp = video.clone();
            vp.tensor_mut().as_mut_slice()[probe] += eps;
            let fp = model.extract(&vp).unwrap().dot(&c).unwrap();
            let mut vm = video.clone();
            vm.tensor_mut().as_mut_slice()[probe] -= eps;
            let fm = model.extract(&vm).unwrap().dot(&c).unwrap();
            let num = (fp - fm) / (2.0 * eps);
            let ana = g.as_slice()[probe];
            assert!(
                (num - ana).abs() < 1e-3 + 0.15 * ana.abs().max(num.abs()),
                "probe {probe}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn inference_matches_training_forward_bitwise() {
        let video = tiny_video();
        for arch in [
            Architecture::I3d,
            Architecture::Tpn,
            Architecture::SlowFast,
            Architecture::Resnet34,
            Architecture::C3d,
            Architecture::Resnet18,
        ] {
            let mut rng = Rng64::new(106);
            let mut model = Backbone::new(arch, BackboneConfig::tiny(), &mut rng).unwrap();
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let infer = bits(&model.extract(&video).unwrap());
            let batched = model.extract_batch(&[&video, &video], 1).unwrap();
            let train = bits(&model.extract_training(&video).unwrap());
            assert_eq!(infer, train, "{arch}: infer must be bit-identical");
            for item in &batched {
                assert_eq!(bits(item), infer, "{arch}: extract_batch must be bit-identical");
            }
        }
    }

    fn grad_bits(model: &mut Backbone) -> Vec<u32> {
        let mut out = Vec::new();
        model.visit_params(&mut |p| out.extend(p.grad.as_slice().iter().map(|v| v.to_bits())));
        out
    }

    #[test]
    fn one_sided_backward_passes_are_bitwise_the_full_backward() {
        let video = tiny_video();
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for arch in [
            Architecture::I3d,
            Architecture::Tpn,
            Architecture::SlowFast,
            Architecture::Resnet34,
            Architecture::C3d,
            Architecture::Resnet18,
        ] {
            let mut rng = Rng64::new(108);
            let mut model = Backbone::new(arch, BackboneConfig::tiny(), &mut rng).unwrap();
            let c = Tensor::randn(&[32], 1.0, rng.as_rng());
            let zero = grad_bits(&mut model);
            assert!(zero.iter().all(|&b| b == 0), "{arch}: a fresh model has zero gradients");

            model.extract_training(&video).unwrap();
            let full = model.backward(&c, Grads::Both).unwrap().expect("asked for the input gradient");
            let full_pixels = bits(&video.gradient_to_video_layout(&full).unwrap());
            let full_params = grad_bits(&mut model);
            assert_ne!(full_params, zero, "{arch}: the full backward accumulates");
            model.zero_grad();

            model.extract_training(&video).unwrap();
            let pixels = model.input_gradient(&video, &c).unwrap();
            assert_eq!(bits(&pixels), full_pixels, "{arch}: input_gradient drifted");
            assert_eq!(grad_bits(&mut model), zero, "{arch}: input_gradient accumulated");

            model.extract_training(&video).unwrap();
            model.backward_params(&c).unwrap();
            assert_eq!(grad_bits(&mut model), full_params, "{arch}: backward_params drifted");
        }
    }

    #[test]
    fn batched_extract_is_bit_identical_to_serial() {
        let gen = SyntheticVideoGenerator::new(ClipSpec::tiny(), 3);
        let videos: Vec<Video> = (0u32..7).map(|i| gen.generate(i % 3, i)).collect();
        let refs: Vec<&Video> = videos.iter().collect();
        let mut rng = Rng64::new(107);
        let model = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
        let serial: Vec<Tensor> = refs.iter().map(|v| model.extract(v).unwrap()).collect();
        for workers in [1, 3, 4, 16] {
            let batched = model.extract_batch(&refs, workers).unwrap();
            assert_eq!(batched.len(), serial.len());
            for (i, (a, b)) in batched.iter().zip(&serial).enumerate() {
                assert_eq!(a.as_slice(), b.as_slice(), "workers={workers} item {i}");
            }
        }
        assert!(model.extract_batch(&[], 4).unwrap().is_empty());
    }

    #[test]
    fn rejects_zero_width() {
        let mut rng = Rng64::new(105);
        let bad = BackboneConfig { width: 0, ..BackboneConfig::tiny() };
        assert!(Backbone::new(Architecture::C3d, bad, &mut rng).is_err());
    }

    #[test]
    fn victims_and_surrogates_partition_architectures() {
        let mut all: Vec<Architecture> = Architecture::victims().to_vec();
        all.extend(Architecture::surrogates());
        assert_eq!(all.len(), 6);
    }
}
