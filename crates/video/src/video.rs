use crate::ClipSpec;
use duo_tensor::{Tensor, TensorError};

/// A video clip in the paper's `N × H × W × C` layout with values in
/// `[0, 255]`.
///
/// `Video` is the boundary type between the data/attack world (which
/// thinks in frames and pixels, like the paper's `v ∈ R^{N×W×H×C}`) and
/// the model world (which consumes channel-first `[C, T, H, W]` tensors;
/// see [`Video::to_model_input`]).
///
/// # Example
///
/// ```
/// use duo_video::{ClipSpec, Video};
///
/// let mut v = Video::zeros(ClipSpec::tiny());
/// v.set_pixel(0, 3, 4, 1, 200.0)?;
/// assert_eq!(v.pixel(0, 3, 4, 1)?, 200.0);
/// # Ok::<(), duo_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Video {
    spec: ClipSpec,
    data: Tensor,
}
duo_tensor::impl_to_json!(struct Video { spec, data });

impl Video {
    /// Creates an all-black clip.
    pub fn zeros(spec: ClipSpec) -> Self {
        Video { spec, data: Tensor::zeros(&[spec.frames, spec.height, spec.width, spec.channels]) }
    }

    /// Wraps an existing `[N, H, W, C]` tensor as a video.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the tensor shape does not
    /// match `spec`.
    pub fn from_tensor(spec: ClipSpec, data: Tensor) -> Result<Self, TensorError> {
        let expected = [spec.frames, spec.height, spec.width, spec.channels];
        if data.dims() != expected {
            return Err(TensorError::ShapeMismatch {
                lhs: data.dims().to_vec(),
                rhs: expected.to_vec(),
                op: "Video::from_tensor",
            });
        }
        Ok(Video { spec, data })
    }

    /// The clip geometry.
    pub fn spec(&self) -> ClipSpec {
        self.spec
    }

    /// Number of frames.
    pub fn frames(&self) -> usize {
        self.spec.frames
    }

    /// The underlying `[N, H, W, C]` tensor.
    pub fn tensor(&self) -> &Tensor {
        &self.data
    }

    /// Mutable access to the underlying tensor.
    pub fn tensor_mut(&mut self) -> &mut Tensor {
        &mut self.data
    }

    /// Consumes the video and returns the underlying tensor.
    pub fn into_tensor(self) -> Tensor {
        self.data
    }

    /// Pixel value at `(frame, y, x, channel)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for invalid coordinates.
    pub fn pixel(&self, frame: usize, y: usize, x: usize, c: usize) -> Result<f32, TensorError> {
        self.data.at(&[frame, y, x, c])
    }

    /// Sets the pixel value at `(frame, y, x, channel)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for invalid coordinates.
    pub fn set_pixel(
        &mut self,
        frame: usize,
        y: usize,
        x: usize,
        c: usize,
        value: f32,
    ) -> Result<(), TensorError> {
        self.data.set(&[frame, y, x, c], value)
    }

    /// Clamps all pixels into the valid `[0, 255]` range in place.
    pub fn clip_to_range(&mut self) {
        self.data.map_inplace(|x| x.clamp(0.0, 255.0));
    }

    /// Rounds all pixels to integers (8-bit quantization) in place.
    ///
    /// Query-based attacks submit videos to the victim service, which only
    /// accepts 8-bit content; this is the lossy step they must survive.
    pub fn quantize(&mut self) {
        self.data.map_inplace(|x| x.round().clamp(0.0, 255.0));
    }

    /// Adds a perturbation tensor (same `[N, H, W, C]` shape), then clips
    /// to the valid range.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_perturbation(&self, phi: &Tensor) -> Result<Video, TensorError> {
        let mut out = Video { spec: self.spec, data: self.data.add(phi)? };
        out.clip_to_range();
        Ok(out)
    }

    /// The actually-applied perturbation between `self` and an original
    /// video (`self - original`), e.g. after range clipping.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn perturbation_from(&self, original: &Video) -> Result<Tensor, TensorError> {
        self.data.sub(&original.data)
    }

    /// Converts to the channel-first `[C, T, H, W]` layout models consume,
    /// scaled to roughly unit range (divided by 255).
    ///
    /// Each channel plane is written in one pass, reading that channel
    /// from every pixel: sequential writes, where writing the channels
    /// of one pixel at a time scatters them across three planes.
    pub fn to_model_input(&self) -> Tensor {
        let (n, h, w, c) =
            (self.spec.frames, self.spec.height, self.spec.width, self.spec.channels);
        let mut out = Tensor::zeros(&[c, n, h, w]);
        let iv = self.data.as_slice();
        let plane = n * h * w;
        for ch in 0..c {
            let dst = &mut out.as_mut_slice()[ch * plane..(ch + 1) * plane];
            for (o, px) in dst.iter_mut().zip(iv.chunks_exact(c)) {
                *o = px[ch] / 255.0;
            }
        }
        out
    }

    /// Converts a channel-first `[C, T, H, W]` gradient (as produced by
    /// model backward passes on [`Video::to_model_input`]) back to the
    /// video's `[N, H, W, C]` layout, including the 1/255 input scaling.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the gradient shape does
    /// not match the clip geometry.
    pub fn gradient_to_video_layout(&self, grad: &Tensor) -> Result<Tensor, TensorError> {
        let (n, h, w, c) =
            (self.spec.frames, self.spec.height, self.spec.width, self.spec.channels);
        if grad.dims() != [c, n, h, w] {
            return Err(TensorError::ShapeMismatch {
                lhs: grad.dims().to_vec(),
                rhs: vec![c, n, h, w],
                op: "gradient_to_video_layout",
            });
        }
        let mut out = Tensor::zeros(&[n, h, w, c]);
        let gv = grad.as_slice();
        let ov = out.as_mut_slice();
        for f in 0..n {
            for y in 0..h {
                for x in 0..w {
                    let base = ((f * h + y) * w + x) * c;
                    for ch in 0..c {
                        // Chain rule through the x/255 scaling.
                        ov[base + ch] = gv[((ch * n + f) * h + y) * w + x] / 255.0;
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duo_tensor::Rng64;

    #[test]
    fn pixel_round_trip() {
        let mut v = Video::zeros(ClipSpec::tiny());
        v.set_pixel(2, 5, 6, 1, 123.0).unwrap();
        assert_eq!(v.pixel(2, 5, 6, 1).unwrap(), 123.0);
        assert!(v.pixel(99, 0, 0, 0).is_err());
    }

    #[test]
    fn from_tensor_validates_shape() {
        let spec = ClipSpec::tiny();
        assert!(Video::from_tensor(spec, Tensor::zeros(&[1, 2, 3])).is_err());
        let good = Tensor::zeros(&[spec.frames, spec.height, spec.width, spec.channels]);
        assert!(Video::from_tensor(spec, good).is_ok());
    }

    #[test]
    fn clip_to_range_bounds_pixels() {
        let spec = ClipSpec::tiny();
        let mut rng = Rng64::new(81);
        let t = Tensor::rand_uniform(
            &[spec.frames, spec.height, spec.width, spec.channels],
            -100.0,
            400.0,
            rng.as_rng(),
        );
        let mut v = Video::from_tensor(spec, t).unwrap();
        v.clip_to_range();
        assert!(v.tensor().min() >= 0.0 && v.tensor().max() <= 255.0);
    }

    #[test]
    fn quantize_rounds_to_integers() {
        let mut v = Video::zeros(ClipSpec::tiny());
        v.set_pixel(0, 0, 0, 0, 10.6).unwrap();
        v.quantize();
        assert_eq!(v.pixel(0, 0, 0, 0).unwrap(), 11.0);
    }

    /// The per-pixel layout conversion `to_model_input` replaced: the
    /// channels of one pixel at a time. Kept as the oracle its plane
    /// pass must match bit for bit.
    fn model_input_oracle(v: &Video) -> Tensor {
        let (n, h, w, c) = (v.spec.frames, v.spec.height, v.spec.width, v.spec.channels);
        let mut out = Tensor::zeros(&[c, n, h, w]);
        let iv = v.data.as_slice();
        let ov = out.as_mut_slice();
        for f in 0..n {
            for y in 0..h {
                for x in 0..w {
                    let base = ((f * h + y) * w + x) * c;
                    for ch in 0..c {
                        ov[((ch * n + f) * h + y) * w + x] = iv[base + ch] / 255.0;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn model_input_is_bitwise_the_per_pixel_oracle() {
        let mut rng = Rng64::new(83);
        let one_channel = ClipSpec { channels: 1, ..ClipSpec::tiny() };
        for spec in [ClipSpec::tiny(), ClipSpec::experiment(), one_channel] {
            let dims = [spec.frames, spec.height, spec.width, spec.channels];
            let mut v = Video::from_tensor(spec, Tensor::rand_uniform(&dims, -10.0, 300.0, rng.as_rng())).unwrap();
            v.tensor_mut().as_mut_slice()[..4].copy_from_slice(&[-0.0, f32::NAN, f32::INFINITY, 1e-40]);
            let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&v.to_model_input()), bits(&model_input_oracle(&v)), "{spec:?}");
        }
    }

    #[test]
    fn model_input_layout_round_trips_gradient() {
        // <to_model_input(v), g> must equal <v, gradient_to_video_layout(g)>
        // up to the 255^2 scaling — i.e. the layout conversion is the exact
        // adjoint used by SparseTransfer's input gradients.
        let spec = ClipSpec::tiny();
        let mut rng = Rng64::new(82);
        let t = Tensor::rand_uniform(
            &[spec.frames, spec.height, spec.width, spec.channels],
            0.0,
            255.0,
            rng.as_rng(),
        );
        let v = Video::from_tensor(spec, t).unwrap();
        let x = v.to_model_input();
        let g = Tensor::randn(x.dims(), 1.0, rng.as_rng());
        let lhs = x.dot(&g).unwrap();
        let gv = v.gradient_to_video_layout(&g).unwrap();
        let rhs = v.tensor().dot(&gv).unwrap();
        assert!((lhs - rhs / 1.0).abs() / lhs.abs().max(1.0) < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn add_perturbation_clips() {
        let spec = ClipSpec::tiny();
        let v = Video::zeros(spec);
        let phi = Tensor::full(
            &[spec.frames, spec.height, spec.width, spec.channels],
            -30.0,
        );
        let adv = v.add_perturbation(&phi).unwrap();
        assert_eq!(adv.tensor().min(), 0.0, "clipping must prevent negative pixels");
    }

    #[test]
    fn perturbation_from_recovers_applied_delta() {
        let spec = ClipSpec::tiny();
        let mut v = Video::zeros(spec);
        v.set_pixel(0, 0, 0, 0, 100.0).unwrap();
        let mut phi = Tensor::zeros(&[spec.frames, spec.height, spec.width, spec.channels]);
        phi.as_mut_slice()[0] = 25.0;
        let adv = v.add_perturbation(&phi).unwrap();
        let applied = adv.perturbation_from(&v).unwrap();
        assert_eq!(applied.as_slice()[0], 25.0);
        assert_eq!(applied.l0_norm(), 1);
    }
}
