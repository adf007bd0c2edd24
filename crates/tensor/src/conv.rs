//! im2col / col2im lowering for 3-D convolution.
//!
//! Convolution layers in `duo-nn` are implemented as
//! `weights [out_c, in_c·k…] × im2col(input) [in_c·k…, positions]`, and
//! their input gradients as `col2im(weightsᵀ × grad_out)`. Keeping the
//! lowering here (as pure tensor-to-tensor functions) lets the property
//! tests validate it against a naive direct convolution. A 2-D
//! convolution is the `kt = 1` case; the per-frame ResNet backbones are
//! built that way.
//!
//! The lowering is one run kernel ([`im2col3d_row`]) that writes one row
//! of the column matrix at a time. [`im2col3d`] materializes the whole
//! matrix for the training path, whose backward pass needs it;
//! [`crate::gemm_im2col3d`] streams the same rows straight into the
//! GEMM's packed B strips and never builds the matrix at all.

use crate::{Tensor, TensorError};

/// Geometry of a 3-D convolution over `[C, T, H, W]` inputs (T = frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv3dSpec {
    /// Input channel count.
    pub in_channels: usize,
    /// Kernel extent along time.
    pub kt: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride along time.
    pub st: usize,
    /// Stride along height.
    pub sh: usize,
    /// Stride along width.
    pub sw: usize,
    /// Zero padding along time.
    pub pt: usize,
    /// Zero padding along height.
    pub ph: usize,
    /// Zero padding along width.
    pub pw: usize,
}

crate::impl_to_json!(struct Conv3dSpec { in_channels, kt, kh, kw, st, sh, sw, pt, ph, pw });

impl Conv3dSpec {
    /// Convenience constructor for a cubic kernel with symmetric stride/pad.
    pub fn cubic(in_channels: usize, k: usize, stride: (usize, usize, usize), pad: usize) -> Self {
        Conv3dSpec {
            in_channels,
            kt: k,
            kh: k,
            kw: k,
            st: stride.0,
            sh: stride.1,
            sw: stride.2,
            pt: pad,
            ph: pad,
            pw: pad,
        }
    }

    /// Output size `(out_t, out_h, out_w)` for a `[C, t, h, w]` input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the kernel does not fit.
    pub fn output_thw(&self, t: usize, h: usize, w: usize) -> Result<(usize, usize, usize), TensorError> {
        let et = t + 2 * self.pt;
        let eh = h + 2 * self.ph;
        let ew = w + 2 * self.pw;
        if self.kt == 0 || self.kh == 0 || self.kw == 0 || self.st == 0 || self.sh == 0 || self.sw == 0 {
            return Err(TensorError::InvalidGeometry("kernel/stride must be positive".into()));
        }
        if et < self.kt || eh < self.kh || ew < self.kw {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {}x{}x{} larger than padded input {}x{}x{}",
                self.kt, self.kh, self.kw, et, eh, ew
            )));
        }
        Ok((
            (et - self.kt) / self.st + 1,
            (eh - self.kh) / self.sh + 1,
            (ew - self.kw) / self.sw + 1,
        ))
    }
}

/// Unfolds a `[C, T, H, W]` input into a `[C·kt·kh·kw, out_t·out_h·out_w]`
/// matrix.
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or invalid geometry.
pub fn im2col3d(input: &Tensor, spec: &Conv3dSpec) -> Result<Tensor, TensorError> {
    let g = ColGeom::new(input, spec)?;
    let mut out = Tensor::zeros(&[g.rows, g.cols]);
    let iv = input.as_slice();
    for (row, dst) in out.as_mut_slice().chunks_exact_mut(g.cols).enumerate() {
        im2col3d_row(iv, spec, &g, row, dst);
    }
    Ok(out)
}

/// Validated geometry of one im2col3d lowering: input extent, output
/// extent, and the `[rows, cols]` shape of the column matrix.
#[derive(Clone, Copy)]
pub(crate) struct ColGeom {
    t: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    /// `C·kt·kh·kw`: the GEMM depth.
    pub(crate) rows: usize,
    /// `out_t·out_h·out_w`: the GEMM width.
    pub(crate) cols: usize,
}

impl ColGeom {
    /// Checks `input` against `spec` and derives the lowering's shape.
    pub(crate) fn new(input: &Tensor, spec: &Conv3dSpec) -> Result<ColGeom, TensorError> {
        if input.rank() != 4 {
            return Err(TensorError::RankMismatch { expected: 4, actual: input.rank(), op: "im2col3d" });
        }
        let (c, t, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]);
        if c != spec.in_channels {
            return Err(TensorError::ShapeMismatch {
                lhs: input.dims().to_vec(),
                rhs: vec![spec.in_channels],
                op: "im2col3d(channels)",
            });
        }
        let (ot, oh, ow) = spec.output_thw(t, h, w)?;
        let rows = c * spec.kt * spec.kh * spec.kw;
        Ok(ColGeom { t, h, w, oh, ow, rows, cols: ot * oh * ow })
    }
}

/// Writes row `row` of the im2col matrix (`g.cols` long) into `dst`.
///
/// A row fixes one input channel and one kernel tap `(kz, ky, kx)`, so
/// for every output `(oz, oy)` the taps it reads along `ox` form one
/// strided run of a single input row. The valid `ox` range is computed
/// once per row; the padding on either side is zero-filled and the
/// interior copied, with `copy_from_slice` at unit stride. Every element
/// is still a plain copy-or-zero, so the output is bit-identical to the
/// per-element lowering (the `#[cfg(test)]` oracle below).
pub(crate) fn im2col3d_row(
    iv: &[f32],
    spec: &Conv3dSpec,
    g: &ColGeom,
    row: usize,
    dst: &mut [f32],
) {
    // Invert `row = ((ch·kt + kz)·kh + ky)·kw + kx`.
    let kx = row % spec.kw;
    let rest = row / spec.kw;
    let ky = rest % spec.kh;
    let rest = rest / spec.kh;
    let kz = rest % spec.kt;
    let ch = rest / spec.kt;
    // Output columns whose tap `x = ox·sw + kx − pw` lands inside `[0, w)`.
    let lo = if kx >= spec.pw { 0 } else { (spec.pw - kx).div_ceil(spec.sw) }.min(g.ow);
    let hi = if kx >= g.w + spec.pw { 0 } else { (g.w + spec.pw - kx - 1) / spec.sw + 1 };
    let hi = hi.clamp(lo, g.ow);
    // First tap of the run; only read when the run is non-empty, where
    // `lo·sw + kx ≥ pw` holds by construction.
    let x0 = (lo * spec.sw + kx).saturating_sub(spec.pw);
    for (oz, plane) in dst.chunks_exact_mut(g.oh * g.ow).enumerate() {
        let Some(z) = (oz * spec.st + kz).checked_sub(spec.pt).filter(|&z| z < g.t) else {
            plane.fill(0.0);
            continue;
        };
        for (oy, out) in plane.chunks_exact_mut(g.ow).enumerate() {
            let Some(y) = (oy * spec.sh + ky).checked_sub(spec.ph).filter(|&y| y < g.h) else {
                out.fill(0.0);
                continue;
            };
            out[..lo].fill(0.0);
            out[hi..].fill(0.0);
            if lo == hi {
                continue;
            }
            let src = &iv[((ch * g.t + z) * g.h + y) * g.w + x0..][..g.w - x0];
            let run = &mut out[lo..hi];
            if spec.sw == 1 {
                run.copy_from_slice(&src[..run.len()]);
            } else {
                for (o, taps) in run.iter_mut().zip(src.chunks(spec.sw)) {
                    *o = taps[0];
                }
            }
        }
    }
}

/// Folds a `[C·kt·kh·kw, out_t·out_h·out_w]` gradient matrix back onto a
/// `[C, T, H, W]` input gradient (scatter-add; the adjoint of [`im2col3d`]).
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or invalid geometry.
pub fn col2im3d(
    cols: &Tensor,
    spec: &Conv3dSpec,
    t: usize,
    h: usize,
    w: usize,
) -> Result<Tensor, TensorError> {
    let (ot, oh, ow) = spec.output_thw(t, h, w)?;
    let c = spec.in_channels;
    let rows = c * spec.kt * spec.kh * spec.kw;
    let ncols = ot * oh * ow;
    if cols.dims() != [rows, ncols] {
        return Err(TensorError::ShapeMismatch {
            lhs: cols.dims().to_vec(),
            rhs: vec![rows, ncols],
            op: "col2im3d",
        });
    }
    let mut out = Tensor::zeros(&[c, t, h, w]);
    let cv = cols.as_slice();
    let ov = out.as_mut_slice();
    for ch in 0..c {
        for kz in 0..spec.kt {
            for ky in 0..spec.kh {
                for kx in 0..spec.kw {
                    let row = ((ch * spec.kt + kz) * spec.kh + ky) * spec.kw + kx;
                    for oz in 0..ot {
                        let z = (oz * spec.st + kz) as isize - spec.pt as isize;
                        if z < 0 || z as usize >= t {
                            continue;
                        }
                        for oy in 0..oh {
                            let y = (oy * spec.sh + ky) as isize - spec.ph as isize;
                            if y < 0 || y as usize >= h {
                                continue;
                            }
                            for ox in 0..ow {
                                let x = (ox * spec.sw + kx) as isize - spec.pw as isize;
                                if x < 0 || x as usize >= w {
                                    continue;
                                }
                                ov[((ch * t + z as usize) * h + y as usize) * w + x as usize] +=
                                    cv[row * ncols + (oz * oh + oy) * ow + ox];
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;
    use duo_check::{check, prop_assert_eq, Config};

    /// The per-element lowering the run kernel replaced: every element
    /// re-derives its input index and bounds-checks it. Kept as the
    /// oracle the run kernel must match bit for bit.
    fn im2col3d_oracle(input: &Tensor, spec: &Conv3dSpec) -> Tensor {
        let g = ColGeom::new(input, spec).unwrap();
        let iv = input.as_slice();
        let mut out = Tensor::zeros(&[g.rows, g.cols]);
        let ot = g.cols / (g.oh * g.ow);
        for (row, out_row) in out.as_mut_slice().chunks_exact_mut(g.cols).enumerate() {
            let kx = row % spec.kw;
            let rest = row / spec.kw;
            let ky = rest % spec.kh;
            let rest = rest / spec.kh;
            let kz = rest % spec.kt;
            let ch = rest / spec.kt;
            for oz in 0..ot {
                let z = (oz * spec.st + kz) as isize - spec.pt as isize;
                let z_ok = z >= 0 && (z as usize) < g.t;
                for oy in 0..g.oh {
                    let y = (oy * spec.sh + ky) as isize - spec.ph as isize;
                    let y_ok = y >= 0 && (y as usize) < g.h;
                    for ox in 0..g.ow {
                        let x = (ox * spec.sw + kx) as isize - spec.pw as isize;
                        let col = (oz * g.oh + oy) * g.ow + ox;
                        out_row[col] = if z_ok && y_ok && x >= 0 && (x as usize) < g.w {
                            iv[((ch * g.t + z as usize) * g.h + y as usize) * g.w + x as usize]
                        } else {
                            0.0
                        };
                    }
                }
            }
        }
        out
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    check! {
        #![config(Config::default().with_cases(192))]

        /// Strides 1–3, pads 0–3 (pad ≥ kernel included), kernels 1–4
        /// (stride > kernel included), `kt = 1`, and output widths down
        /// to 1: the run kernel's zero-fill and copy bounds must land on
        /// the oracle's bits everywhere.
        fn run_im2col_is_bitwise_per_element_oracle(
            cs in (1usize..4, 0u64..0x1000_0000),
            thw in (1usize..10, 1usize..10, 1usize..12),
            k in (1usize..5, 1usize..5, 1usize..5),
            s in (1usize..4, 1usize..4, 1usize..4),
            p in (0usize..4, 0usize..4, 0usize..4),
        ) {
            let (chans, seed) = cs;
            let spec = Conv3dSpec {
                in_channels: chans,
                kt: k.0,
                kh: k.1,
                kw: k.2,
                st: s.0,
                sh: s.1,
                sw: s.2,
                pt: p.0,
                ph: p.1,
                pw: p.2,
            };
            // Grow any extent the padded kernel would not fit.
            let t = thw.0.max(k.0.saturating_sub(2 * p.0));
            let h = thw.1.max(k.1.saturating_sub(2 * p.1));
            let w = thw.2.max(k.2.saturating_sub(2 * p.2));
            let mut rng = Rng64::new(seed);
            let input = Tensor::randn(&[chans, t, h, w], 1.0, rng.as_rng());
            prop_assert_eq!(
                bits(&im2col3d(&input, &spec).unwrap()),
                bits(&im2col3d_oracle(&input, &spec)),
                "[{chans},{t},{h},{w}] {spec:?}"
            );
        }
    }

    #[test]
    fn col2im3d_is_adjoint_of_im2col3d() {
        let mut rng = Rng64::new(23);
        let spec = Conv3dSpec::cubic(2, 3, (1, 2, 2), 1);
        let x = Tensor::randn(&[2, 4, 6, 6], 1.0, rng.as_rng());
        let cols = im2col3d(&x, &spec).unwrap();
        let y = Tensor::randn(cols.dims(), 1.0, rng.as_rng());
        let lhs = cols.dot(&y).unwrap();
        let back = col2im3d(&y, &spec, 4, 6, 6).unwrap();
        let rhs = x.dot(&back).unwrap();
        assert!((lhs - rhs).abs() < 5e-2, "{lhs} vs {rhs}");
    }

    #[test]
    fn output_geometry_matches_formula() {
        let spec = Conv3dSpec::cubic(3, 3, (2, 2, 2), 1);
        assert_eq!(spec.output_thw(8, 16, 16).unwrap(), (4, 8, 8));
    }

    #[test]
    fn rejects_oversized_kernels() {
        let spec3 = Conv3dSpec::cubic(1, 5, (1, 1, 1), 0);
        assert!(spec3.output_thw(3, 8, 8).is_err());
    }

    #[test]
    fn im2col3d_identity_kernel_is_reshape() {
        // A 1x1x1 kernel with unit stride must reproduce the input exactly.
        let mut rng = Rng64::new(24);
        let x = Tensor::randn(&[3, 2, 4, 4], 1.0, rng.as_rng());
        let spec = Conv3dSpec::cubic(3, 1, (1, 1, 1), 0);
        let cols = im2col3d(&x, &spec).unwrap();
        assert_eq!(cols.dims(), &[3, 2 * 4 * 4]);
        assert_eq!(cols.as_slice(), x.as_slice());
    }
}
