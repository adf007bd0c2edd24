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
//! Every lowering starts from one [`PhaseSplit`]: a zero-padded copy of
//! the input whose padded rows are split into their `sw` stride phases,
//! so that each column-matrix run — one input channel, one kernel tap
//! `(kz, ky, kx)`, one output row `(oz, oy)` — is one contiguous slice of
//! it, and lowering is run copies with no bounds test and no strided
//! gather. Nothing on the model path materializes the matrix:
//! [`crate::gemm_im2col3d`] (the convolution forward) lowers it one
//! packed GEMM strip at a time, and [`crate::gemm_im2col3d_t`] (the
//! weight gradient) lowers its rows into the strips of the transposed
//! operand, one strip at a time. [`im2col3d`] builds the whole matrix
//! from the same split, as the reference the tests and benches compare
//! those two against; the per-element lowering is the `#[cfg(test)]`
//! oracle all three are checked by. The adjoint, [`col2im3d`], folds one
//! column-gradient row at a time back with a run kernel
//! ([`col2im3d_row`]).

use crate::matmul::{workspace, NR2};
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
/// Each row is lowered from the input's phase split (the zero-padded
/// input, split into its stride phases along `w`), as the fused GEMM
/// paths lower theirs, so this materialized matrix is the reference they
/// are tested and benched against; the per-element lowering stays as the
/// `#[cfg(test)]` oracle below.
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or invalid geometry.
pub fn im2col3d(input: &Tensor, spec: &Conv3dSpec) -> Result<Tensor, TensorError> {
    let g = ColGeom::new(input, spec)?;
    let split = PhaseSplit::new(input, spec, &g);
    let mut out = Tensor::zeros(&[g.rows, g.cols]);
    for (p, dst) in out.as_mut_slice().chunks_exact_mut(g.cols).enumerate() {
        split.lower_row(p, dst);
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
        ColGeom::for_extent(spec, t, h, w)
    }

    /// The lowering's shape for a `[spec.in_channels, t, h, w]` input.
    fn for_extent(spec: &Conv3dSpec, t: usize, h: usize, w: usize) -> Result<ColGeom, TensorError> {
        let (ot, oh, ow) = spec.output_thw(t, h, w)?;
        let rows = spec.in_channels * spec.kt * spec.kh * spec.kw;
        Ok(ColGeom { t, h, w, oh, ow, rows, cols: ot * oh * ow })
    }
}

/// The input of one lowering, zero-padded and split into its `sw` stride
/// phases along `w`, so that every column-matrix run is one contiguous
/// slice.
///
/// Padded cell `(ch, zp, yp, xp)` holds `input[ch, zp − pt, yp − ph,
/// xp − pw]`, or 0.0 where that falls outside the input. Each padded
/// plane `(ch, zp)` is stored as `sw` phase planes of `hp` rows by `wq =
/// ⌈(w + 2·pw) / sw⌉` floats: row `yp` of phase plane `q` holds padded
/// columns `q, q + sw, q + 2·sw, …` of padded row `yp`, zero past the
/// row's end. Column-matrix row `p` — channel `ch`, tap `(kz, ky, kx)` —
/// reads padded column `ox·sw + kx` at output column `ox`, which is
/// element `ox + kx / sw` of phase `kx % sw`. So for each output row
/// `(oz, oy)` its `ow` values are the slice at `taps[p] + oz·plane_step +
/// oy·row_step`, and lowering is run copies with no bounds test and no
/// strided gather. Building the split copies each input row once into a
/// padded plane, which one pass then splits into its phases.
///
/// The buffer comes from the workspace bin and goes back on drop. Every
/// cell is written, so its stale contents never leak.
pub(crate) struct PhaseSplit {
    data: Vec<f32>,
    /// Offset of each column-matrix row's run at output row `(0, 0)`.
    taps: Vec<usize>,
    /// Offset from output plane `oz` to `oz + 1`: `st` padded planes.
    plane_step: usize,
    /// Offset from output row `oy` to `oy + 1`: `sh` phase-plane rows.
    row_step: usize,
    oh: usize,
    ow: usize,
}

impl PhaseSplit {
    /// Builds the split of `input` (already checked by [`ColGeom::new`]).
    pub(crate) fn new(input: &Tensor, spec: &Conv3dSpec, g: &ColGeom) -> PhaseSplit {
        let (sw, tp, hp) = (spec.sw, g.t + 2 * spec.pt, g.h + 2 * spec.ph);
        let wq = (g.w + 2 * spec.pw).div_ceil(sw);
        // One phase plane, and one padded plane of all `sw` phases.
        let (pq, plane_len) = (hp * wq, sw * hp * wq);
        let len = spec.in_channels * tp * plane_len;
        // The split, then (when `sw > 1`) one padded plane before its
        // phase split, whose borders stay zero.
        let mut data = workspace::take(len + if sw > 1 { plane_len } else { 0 });
        let (split, padded) = data.split_at_mut(len);
        padded.fill(0.0);
        let iv = input.as_slice();
        for (ch, chan) in split.chunks_exact_mut(tp * plane_len).enumerate() {
            for (zp, plane) in chan.chunks_exact_mut(plane_len).enumerate() {
                let Some(z) = zp.checked_sub(spec.pt).filter(|&z| z < g.t) else {
                    plane.fill(0.0);
                    continue;
                };
                // At `sw = 1` the plane is its own padded plane.
                let target = if sw == 1 {
                    plane.fill(0.0);
                    &mut *plane
                } else {
                    &mut *padded
                };
                let src = iv[(ch * g.t + z) * g.h * g.w..][..g.h * g.w].chunks_exact(g.w);
                for (row, src) in target[spec.ph * sw * wq..].chunks_exact_mut(sw * wq).zip(src) {
                    row[spec.pw..spec.pw + g.w].copy_from_slice(src);
                }
                match sw {
                    1 => {}
                    2 => {
                        let (even, odd) = plane.split_at_mut(pq);
                        for ((e, o), pair) in even.iter_mut().zip(odd).zip(padded.chunks_exact(2)) {
                            *e = pair[0];
                            *o = pair[1];
                        }
                    }
                    _ => {
                        for (m, cells) in padded.chunks_exact(sw).enumerate() {
                            for (q, &x) in cells.iter().enumerate() {
                                plane[q * pq + m] = x;
                            }
                        }
                    }
                }
            }
        }
        data.truncate(len);
        let mut taps = Vec::with_capacity(g.rows);
        for ch in 0..spec.in_channels {
            for kz in 0..spec.kt {
                let plane = (ch * tp + kz) * plane_len;
                for ky in 0..spec.kh {
                    taps.extend((0..spec.kw).map(|kx| plane + (kx % sw) * pq + ky * wq + kx / sw));
                }
            }
        }
        PhaseSplit { data, taps, plane_step: spec.st * plane_len, row_step: spec.sh * wq, oh: g.oh, ow: g.ow }
    }

    /// Writes column-matrix row `p` (`ot·oh·ow` floats) into `dst`.
    pub(crate) fn lower_row(&self, p: usize, dst: &mut [f32]) {
        match self.ow {
            4 => self.row_runs::<4>(p, dst),
            8 => self.row_runs::<8>(p, dst),
            16 => self.row_runs::<16>(p, dst),
            32 => self.row_runs::<32>(p, dst),
            _ => self.row_runs::<0>(p, dst),
        }
    }

    /// [`PhaseSplit::lower_row`] with the run length `ow` fixed at `L`
    /// (`L = 0`: read at run time). A run is a few to a few dozen floats,
    /// and a copy whose length is known only at run time is one `memcpy`
    /// call per run; at a constant length it compiles to vector moves.
    #[inline(always)]
    fn row_runs<const L: usize>(&self, p: usize, dst: &mut [f32]) {
        let len = if L > 0 { L } else { self.ow };
        for (oz, plane) in dst.chunks_exact_mut(self.oh * len).enumerate() {
            let src = &self.data[self.taps[p] + oz * self.plane_step..];
            for (oy, run) in plane.chunks_exact_mut(len).enumerate() {
                run.copy_from_slice(&src[oy * self.row_step..][..len]);
            }
        }
    }

    /// Writes columns `[j0, j0 + w)` of every column-matrix row into
    /// `strip` depth-major — `strip[p·w + jj] = col[p][j0 + jj]`, the
    /// layout of one packed B strip of the forward GEMM. The strip's `w ≤
    /// NR2` columns cover pieces of a few output rows' runs; their
    /// offsets from a tap are found once per strip and reused for every
    /// row `p`.
    pub(crate) fn lower_strip(&self, j0: usize, w: usize, strip: &mut [f32]) {
        let mut runs = [(0usize, 0usize); NR2];
        let mut count = 0;
        let mut j = j0;
        while j < j0 + w {
            let (r, ox) = (j / self.ow, j % self.ow);
            let len = (self.ow - ox).min(j0 + w - j);
            runs[count] = ((r / self.oh) * self.plane_step + (r % self.oh) * self.row_step + ox, len);
            count += 1;
            j += len;
        }
        let runs = &runs[..count];
        // Runs of one common length (`ow` divides the strip, or the strip
        // lies inside one output row) take a constant-length copy, as in
        // `row_runs`.
        let len = runs[0].1;
        match if runs.iter().all(|run| run.1 == len) { len } else { 0 } {
            4 => self.strip_runs::<4>(runs, w, strip),
            8 => self.strip_runs::<8>(runs, w, strip),
            16 => self.strip_runs::<16>(runs, w, strip),
            32 => self.strip_runs::<32>(runs, w, strip),
            _ => self.strip_runs::<0>(runs, w, strip),
        }
    }

    /// [`PhaseSplit::lower_strip`] over its `(offset, length)` runs, every
    /// length fixed at `L` (`L = 0`: each run's own).
    #[inline(always)]
    fn strip_runs<const L: usize>(&self, runs: &[(usize, usize)], w: usize, strip: &mut [f32]) {
        for (dst, &tap) in strip.chunks_exact_mut(w).zip(&self.taps) {
            let src = &self.data[tap..];
            let mut d = 0;
            for &(at, len) in runs {
                let len = if L > 0 { L } else { len };
                dst[d..d + len].copy_from_slice(&src[at..at + len]);
                d += len;
            }
        }
    }
}

impl Drop for PhaseSplit {
    /// Hands the split's buffer back to the workspace bin.
    fn drop(&mut self) {
        workspace::give(std::mem::take(&mut self.data));
    }
}

/// Folds row `row` of a column-gradient matrix (`src`, `g.cols` long)
/// into the `[C, T, H, W]` input gradient `ov`: the adjoint of lowering
/// that row.
///
/// The row's channel and tap `(kz, ky, kx)`, and the `ox` range whose
/// taps land inside the input, are computed once per row; each output
/// row `(oz, oy)` then adds that interior to one strided run of a single
/// input row, and padding taps fold nowhere. For a fixed tap, distinct
/// positions hit distinct input cells, so visiting the rows in order
/// gives every cell its terms in the per-element fold's order.
fn col2im3d_row(src: &[f32], spec: &Conv3dSpec, g: &ColGeom, row: usize, ov: &mut [f32]) {
    // Invert `row = ((ch·kt + kz)·kh + ky)·kw + kx`.
    let kx = row % spec.kw;
    let rest = row / spec.kw;
    let ky = rest % spec.kh;
    let rest = rest / spec.kh;
    let kz = rest % spec.kt;
    let ch = rest / spec.kt;
    let lo = if kx >= spec.pw { 0 } else { (spec.pw - kx).div_ceil(spec.sw) }.min(g.ow);
    let hi = if kx >= g.w + spec.pw { 0 } else { (g.w + spec.pw - kx - 1) / spec.sw + 1 };
    let hi = hi.clamp(lo, g.ow);
    let x0 = (lo * spec.sw + kx).saturating_sub(spec.pw);
    if lo == hi {
        return;
    }
    for (oz, plane) in src.chunks_exact(g.oh * g.ow).enumerate() {
        let Some(z) = (oz * spec.st + kz).checked_sub(spec.pt).filter(|&z| z < g.t) else {
            continue;
        };
        for (oy, out) in plane.chunks_exact(g.ow).enumerate() {
            let Some(y) = (oy * spec.sh + ky).checked_sub(spec.ph).filter(|&y| y < g.h) else {
                continue;
            };
            let dst = &mut ov[((ch * g.t + z) * g.h + y) * g.w + x0..][..g.w - x0];
            let run = &out[lo..hi];
            if spec.sw == 1 {
                for (d, &s) in dst.iter_mut().zip(run) {
                    *d += s;
                }
            } else {
                for (d, &s) in dst.chunks_mut(spec.sw).zip(run) {
                    d[0] += s;
                }
            }
        }
    }
}

/// Folds a `[C·kt·kh·kw, out_t·out_h·out_w]` gradient matrix back onto a
/// `[C, T, H, W]` input gradient (scatter-add; the adjoint of [`im2col3d`]).
///
/// Each row is folded by one run kernel pass, rows in order; the output
/// is bit-identical to the per-element fold (the `#[cfg(test)]` oracle
/// below).
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
    let g = ColGeom::for_extent(spec, t, h, w)?;
    if cols.dims() != [g.rows, g.cols] {
        return Err(TensorError::ShapeMismatch {
            lhs: cols.dims().to_vec(),
            rhs: vec![g.rows, g.cols],
            op: "col2im3d",
        });
    }
    let mut out = Tensor::zeros(&[spec.in_channels, t, h, w]);
    let ov = out.as_mut_slice();
    for (row, src) in cols.as_slice().chunks_exact(g.cols).enumerate() {
        col2im3d_row(src, spec, &g, row, ov);
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

    /// The per-element fold the run kernel replaced: every element
    /// re-derives its input index and bounds-checks it in `isize`, rows
    /// in order. Kept as the oracle `col2im3d` must match bit for bit.
    fn col2im3d_oracle(cols: &Tensor, spec: &Conv3dSpec, t: usize, h: usize, w: usize) -> Tensor {
        let (ot, oh, ow) = spec.output_thw(t, h, w).unwrap();
        let c = spec.in_channels;
        let ncols = ot * oh * ow;
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
        out
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    type Dims = (usize, usize, usize);

    /// The geometry and input of one case of the sweep both run-kernel
    /// properties share: strides 1–3, pads 0–3 (pad ≥ kernel included),
    /// kernels 1–4 (stride > kernel included), `kt = 1`, and output
    /// widths down to 1. Returns the rng for any further draws.
    fn sweep_case(
        (chans, seed): (usize, u64),
        thw: Dims,
        k: Dims,
        s: Dims,
        p: Dims,
    ) -> (Conv3dSpec, Tensor, Rng64) {
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
        (spec, input, rng)
    }

    check! {
        #![config(Config::default().with_cases(192))]

        /// The run kernel's zero-fill and copy bounds must land on the
        /// oracle's bits everywhere in the sweep.
        fn run_im2col_is_bitwise_per_element_oracle(
            cs in (1usize..4, 0u64..0x1000_0000),
            thw in (1usize..10, 1usize..10, 1usize..12),
            k in (1usize..5, 1usize..5, 1usize..5),
            s in (1usize..4, 1usize..4, 1usize..4),
            p in (0usize..4, 0usize..4, 0usize..4),
        ) {
            let (spec, input, _) = sweep_case(cs, thw, k, s, p);
            prop_assert_eq!(
                bits(&im2col3d(&input, &spec).unwrap()),
                bits(&im2col3d_oracle(&input, &spec)),
                "{:?} {spec:?}", input.dims()
            );
        }

        /// The same sweep for the fold: a random column gradient folded
        /// by the run kernel must equal the per-element fold bit for bit,
        /// so each input cell takes its terms in the same order.
        fn run_col2im_is_bitwise_per_element_oracle(
            cs in (1usize..4, 0u64..0x1000_0000),
            thw in (1usize..10, 1usize..10, 1usize..12),
            k in (1usize..5, 1usize..5, 1usize..5),
            s in (1usize..4, 1usize..4, 1usize..4),
            p in (0usize..4, 0usize..4, 0usize..4),
        ) {
            let (spec, input, mut rng) = sweep_case(cs, thw, k, s, p);
            let (t, h, w) = (input.dims()[1], input.dims()[2], input.dims()[3]);
            let g = ColGeom::new(&input, &spec).unwrap();
            let cols = Tensor::randn(&[g.rows, g.cols], 1.0, rng.as_rng());
            prop_assert_eq!(
                bits(&col2im3d(&cols, &spec, t, h, w).unwrap()),
                bits(&col2im3d_oracle(&cols, &spec, t, h, w)),
                "{:?} {spec:?}", input.dims()
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
