//! Packed, cache-blocked matrix multiplication.
//!
//! The convolution kernels in this crate lower to matrix multiplication
//! via im2col, so GEMM dominates the runtime of every model
//! forward/backward pass in the workspace. It has one path: both
//! operands are packed once per call — A into 8-row interleaved blocks
//! ([`PackedA`], reusable across calls that share a left operand), B
//! into [`NR2`]-column depth-major strips ([`PackedB`]) — and a
//! hand-unrolled `8 × NR2` two-accumulator micro-kernel ([`micro_8w`],
//! with [`micro_8n`] for the narrow final strip) sweeps 8 output rows
//! across the full depth in one register pass. Remainder rows (fewer
//! than 8 at the bottom) run the 4-row/1-row tail kernels.
//! [`gemm_im2col3d`] is the convolution forward: it lowers its input row
//! by row straight into the packed B strips, so the im2col matrix is
//! never materialized. [`gemm_im2col3d_t`] is the convolution weight
//! gradient: it lowers the rows into the strips of the *transposed*
//! matrix, so neither the matrix nor its transpose is built.
//! [`matmul_into_reference`] is the oracle.
//!
//! # Determinism contract
//!
//! Every kernel in this module — the 8-row packed micro-kernels, the
//! 4-row and 1-row tail kernels, the scalar column tails and the
//! reference — builds a given output element `out[i][j]` by the *same*
//! float program: start from `0.0` and fold in
//! `a[i][p].mul_add(b[p][j], acc)` (one IEEE fused multiply-add, single
//! rounding per step) for every `p` in strictly increasing order. No
//! kernel may re-associate, split a fused step into mul-then-add, or
//! skip a product — a zero `a[i][p]` still folds, because `0 · ∞` is NaN
//! and `-0.0 + 0 · x` is `+0.0`. Packing only relocates operand bytes; it
//! never reorders the accumulation. So every path is bit-identical
//! (`f32::to_bits`) to [`matmul_into_reference`] at every shape and tile
//! remainder; the property suite in `tests/kernel_bit_identity.rs`
//! enforces this contract.

use crate::conv::{im2col3d_row, ColGeom};
use crate::{Conv3dSpec, Tensor, TensorError};

/// Rows swept together by the 4-row tail kernel.
const MR: usize = 4;
/// Rows swept together by the wide packed micro-kernel; also the A
/// packing block height.
const MR8: usize = 8;
/// Column width of the wide micro-kernel's main tile and of the packed B
/// strips (two NR-wide accumulator pairs).
const NR2: usize = 2 * NR;
/// Columns held in the accumulator tile.
const NR: usize = 16;

fn validate(a: &Tensor, b: &Tensor, out: &Tensor) -> Result<(usize, usize, usize), TensorError> {
    if a.rank() != 2 {
        return Err(TensorError::RankMismatch { expected: 2, actual: a.rank(), op: "matmul" });
    }
    if b.rank() != 2 {
        return Err(TensorError::RankMismatch { expected: 2, actual: b.rank(), op: "matmul" });
    }
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul",
        });
    }
    if out.dims() != [m, n] {
        return Err(TensorError::ShapeMismatch {
            lhs: out.dims().to_vec(),
            rhs: vec![m, n],
            op: "matmul_into(out)",
        });
    }
    Ok((m, k, n))
}

// ---------------------------------------------------------------------
// Workspace buffer cache
// ---------------------------------------------------------------------

/// Process-wide recycling bin for the transient `Vec<f32>` workspaces the
/// packed GEMM burns through (packed A, packed B and the lowering's row
/// buffer). Serving workloads issue the same shapes call after call;
/// without reuse every call maps fresh pages and pays the page-fault tax
/// again. It is the only state the kernels share across threads: callers
/// on different threads take and give buffers concurrently. Buffers
/// handed out by [`take`] carry arbitrary stale contents; every consumer
/// in this module fully overwrites its workspace (packers write all `len`
/// elements), so no value ever leaks between calls.
mod workspace {
    use std::sync::Mutex;

    /// Max cached buffers and max floats per cached buffer (16 MiB) —
    /// bounds worst-case idle retention at ~256 MiB while covering every
    /// shape the serving/attack workloads use.
    const MAX_ENTRIES: usize = 16;
    const MAX_FLOATS: usize = 1 << 22;

    static BIN: Mutex<Vec<Vec<f32>>> = Mutex::new(Vec::new());

    /// Returns a buffer of exactly `len` elements with unspecified
    /// contents (best-fitting cached allocation, else fresh).
    pub(super) fn take(len: usize) -> Vec<f32> {
        let mut bin = BIN.lock().expect("workspace bin lock");
        // Smallest cached buffer whose capacity already covers `len`;
        // falls back to the largest one (realloc grows it in place-ish)
        // or a fresh Vec.
        let mut pick: Option<usize> = None;
        for (idx, buf) in bin.iter().enumerate() {
            if buf.capacity() >= len {
                let better = pick.is_none_or(|p: usize| buf.capacity() < bin[p].capacity());
                if better {
                    pick = Some(idx);
                }
            }
        }
        let mut buf = match pick {
            Some(idx) => bin.swap_remove(idx),
            None => Vec::new(),
        };
        drop(bin);
        if buf.len() >= len {
            buf.truncate(len);
        } else {
            buf.resize(len, 0.0);
        }
        buf
    }

    /// Returns a workspace to the bin for reuse (oversized or surplus
    /// buffers are simply dropped). `PackedA`'s `Drop` calls this, so it
    /// must not panic: a poisoned lock is recovered, which is sound
    /// because every update to the bin is a single push or removal.
    pub(super) fn give(buf: Vec<f32>) {
        if buf.capacity() == 0 || buf.capacity() > MAX_FLOATS {
            return;
        }
        let mut bin = BIN.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if bin.len() < MAX_ENTRIES {
            bin.push(buf);
        }
    }
}

// ---------------------------------------------------------------------
// Packed operands
// ---------------------------------------------------------------------

/// The left GEMM operand packed for the wide micro-kernel, reusable
/// across calls ([`gemm_im2col3d`]).
///
/// Layout: rows are grouped into blocks of 8 (`MR8`); within block `b`,
/// element `a[8b + r][p]` lives at `data[8bk + 8p + r]`, so the wide
/// micro-kernel (`micro_8w`)
/// reads each depth step as 8 contiguous floats. The final `rows % 8`
/// tail rows are stored row-major immediately after the blocks — because
/// the blocks occupy exactly `(rows - tail) · k` floats, the whole buffer
/// doubles as a row-major matrix for rows past the last full block, which
/// is how the 4-row/1-row tail kernels read it.
///
/// Dropping a `PackedA` returns its buffer to the workspace bin. A
/// `PackedA` is a snapshot — it does not observe later writes to the
/// tensor it was packed from, so repack after any weight update (the nn
/// layers pack per `infer`/`infer_batch` call, which makes staleness
/// impossible by construction).
pub struct PackedA {
    data: Vec<f32>,
    rows: usize,
    k: usize,
}

impl std::fmt::Debug for PackedA {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedA").field("rows", &self.rows).field("k", &self.k).finish()
    }
}

impl PackedA {
    /// Packs a rank-2 tensor as a reusable left GEMM operand.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if `a` is not rank 2.
    pub fn pack(a: &Tensor) -> Result<PackedA, TensorError> {
        if a.rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: a.rank(), op: "pack_a" });
        }
        Ok(Self::pack_slice(a.as_slice(), a.dims()[0], a.dims()[1]))
    }

    fn pack_slice(av: &[f32], rows: usize, k: usize) -> PackedA {
        let mut data = workspace::take(rows * k);
        let full = rows / MR8;
        for b in 0..full {
            let dst = &mut data[b * MR8 * k..(b + 1) * MR8 * k];
            for r in 0..MR8 {
                let src = &av[(b * MR8 + r) * k..(b * MR8 + r + 1) * k];
                for (p, &x) in src.iter().enumerate() {
                    dst[p * MR8 + r] = x;
                }
            }
        }
        let tail_start = full * MR8 * k;
        data[tail_start..].copy_from_slice(&av[tail_start..rows * k]);
        PackedA { data, rows, k }
    }

    /// Row count of the packed matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Depth (column count) of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Drop for PackedA {
    /// Hands the packing buffer back to the workspace bin, so a layer that
    /// packs its weight per call reuses one allocation.
    fn drop(&mut self) {
        workspace::give(std::mem::take(&mut self.data));
    }
}

/// The right GEMM operand packed once per call into column strips of
/// [`NR2`] columns: strip `s` covers columns `[s·NR2, s·NR2 + w)`
/// (`w < NR2` only for the final strip) and stores element `b[p][j]` at
/// `strip_base + p·w + (j − s·NR2)`, so every micro-kernel streams one
/// contiguous strip for its entire depth sweep.
struct PackedB {
    data: Vec<f32>,
}

fn pack_b_slice(bv: &[f32], k: usize, n: usize) -> PackedB {
    let mut data = workspace::take(k * n);
    // Rows outer, strips inner: each source row is read once,
    // sequentially, and scattered to the per-strip cursors. The obvious
    // strip-outer order instead reads at stride `n` — jumps that cross a
    // page every couple of rows, defeat the prefetchers, and make
    // packing cost a measurable slice of the whole GEMM at depth ≥ 1024.
    // Row-group blocking: 8 source rows (L1-resident) are scattered per
    // pass, so each strip receives one contiguous 8-row chunk instead of
    // a single [`NR2`]-wide sliver — sequential reads *and* chunked
    // sequential writes.
    let mut p0 = 0;
    while p0 < k {
        let pg = MR8.min(k - p0);
        scatter_b_rows(&mut data, k, n, p0, &bv[p0 * n..(p0 + pg) * n]);
        p0 += pg;
    }
    PackedB { data }
}

/// Packs `im2col3d(input, spec)` as the right GEMM operand without
/// materializing it: each column-matrix row is lowered into one hot
/// `n`-float row buffer (the tail of the same workspace buffer) and
/// scattered into its strips. The strips are exactly what
/// [`pack_b_slice`] would build from the materialized matrix.
fn pack_b_im2col3d(input: &Tensor, spec: &Conv3dSpec, g: &ColGeom) -> PackedB {
    let (k, n) = (g.rows, g.cols);
    let mut data = workspace::take(k * n + n);
    let (strips, row) = data.split_at_mut(k * n);
    let iv = input.as_slice();
    for p in 0..k {
        im2col3d_row(iv, spec, g, p, row);
        scatter_b_rows(strips, k, n, p, row);
    }
    PackedB { data }
}

/// Packs `im2col3d(input, spec)ᵀ` — `[positions × rows]` — as the right
/// GEMM operand without materializing the matrix or its transpose.
///
/// Column `j` of the operand is column-matrix row `j`, so strip `s`
/// holds rows `[s·NR2, s·NR2 + w)`, and depth step `p` of the strip is
/// position `p` of each of those rows, side by side. Strip by strip, up
/// to [`MR8`] of its rows are lowered at a time into row buffers (the
/// tail of the same workspace buffer), then interleaved into the strip.
/// Every row is lowered once, by the forward's run kernel, and the
/// strips are exactly what [`pack_b_slice`] would build from the
/// materialized transpose.
fn pack_bt_im2col3d(input: &Tensor, spec: &Conv3dSpec, g: &ColGeom) -> PackedB {
    let (k, n) = (g.cols, g.rows);
    let mut data = workspace::take(k * n + MR8 * k);
    let (strips, rows) = data.split_at_mut(k * n);
    let iv = input.as_slice();
    let mut js = 0;
    while js < n {
        let w = NR2.min(n - js);
        let strip = &mut strips[js * k..(js + w) * k];
        let mut j0 = 0;
        while j0 < w {
            let group = MR8.min(w - j0);
            let rows = &mut rows[..group * k];
            for (r, row) in rows.chunks_exact_mut(k).enumerate() {
                im2col3d_row(iv, spec, g, js + j0 + r, row);
            }
            if group == MR8 {
                interleave_8(rows, strip, w, j0);
            } else {
                for (p, dst) in strip.chunks_exact_mut(w).enumerate() {
                    for (r, d) in dst[j0..j0 + group].iter_mut().enumerate() {
                        *d = rows[r * k + p];
                    }
                }
            }
            j0 += group;
        }
        js += w;
    }
    PackedB { data }
}

/// Interleaves 8 equal-length rows into columns `j0..j0 + 8` of `w`-wide
/// depth steps: `steps[p·w + j0 + r] = rows[r][p]`.
fn interleave_8(rows: &[f32], steps: &mut [f32], w: usize, j0: usize) {
    let len = rows.len() / MR8;
    let (r0, rest) = rows.split_at(len);
    let (r1, rest) = rest.split_at(len);
    let (r2, rest) = rest.split_at(len);
    let (r3, rest) = rest.split_at(len);
    let (r4, rest) = rest.split_at(len);
    let (r5, rest) = rest.split_at(len);
    let (r6, r7) = rest.split_at(len);
    for (p, dst) in steps.chunks_exact_mut(w).enumerate() {
        let d = &mut dst[j0..j0 + MR8];
        d[0] = r0[p];
        d[1] = r1[p];
        d[2] = r2[p];
        d[3] = r3[p];
        d[4] = r4[p];
        d[5] = r5[p];
        d[6] = r6[p];
        d[7] = r7[p];
    }
}

/// Scatters consecutive rows `p0..` of a `[k × n]` right operand (`rows`,
/// row-major, a whole number of rows) into the [`PackedB`] strip layout.
fn scatter_b_rows(data: &mut [f32], k: usize, n: usize, p0: usize, rows: &[f32]) {
    let full = n / NR2 * NR2;
    let mut js = 0;
    while js < full {
        let dst = js * k + p0 * NR2;
        for (p, row) in rows.chunks_exact(n).enumerate() {
            data[dst + p * NR2..dst + p * NR2 + NR2].copy_from_slice(&row[js..js + NR2]);
        }
        js += NR2;
    }
    if full < n {
        let w = n - full;
        let dst = full * k + p0 * w;
        for (p, row) in rows.chunks_exact(n).enumerate() {
            data[dst + p * w..dst + p * w + w].copy_from_slice(&row[full..]);
        }
    }
}

// ---------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------

/// Multiplies two rank-2 tensors, writing into a preallocated output.
///
/// `out` must have shape `[a.rows, b.cols]`; its previous contents are
/// overwritten. Prefer this over [`Tensor::matmul`] inside hot loops to
/// avoid reallocation. Both operands are packed and the product runs on
/// the calling thread; the result is bit-identical to
/// [`matmul_into_reference`].
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if any operand is not rank 2 and
/// [`TensorError::ShapeMismatch`] if the dimensions are incompatible.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<(), TensorError> {
    let (m, k, n) = validate(a, b, out)?;
    let pa = PackedA::pack_slice(a.as_slice(), m, k);
    let pb = pack_b_slice(b.as_slice(), k, n);
    gemm_packed_stripe(&pa.data, m, k, &pb.data, n, out.as_mut_slice());
    workspace::give(pb.data);
    Ok(())
}

/// Convolution forward as one GEMM: `out = pa · im2col3d(input, spec)`,
/// with `pa` the `[out_c, C·kt·kh·kw]` weight matrix packed once by the
/// caller.
///
/// The column matrix is never materialized. Each of its rows is lowered
/// into one hot row buffer and scattered straight into the packed B
/// strips the micro-kernels read; that buffer comes from the same
/// workspace bin as every other packing, so a forward allocates nothing
/// once the bin is warm. The result is bit-identical to
/// `matmul_into(w, &im2col3d(input, spec)?, out)`: the strips hold the
/// same bytes, and the same kernels run over them.
///
/// # Errors
///
/// Returns the lowering's rank/shape/geometry errors, and
/// [`TensorError::ShapeMismatch`] if `pa`'s depth is not the lowering's
/// row count or `out` is not `[pa.rows(), positions]`.
pub fn gemm_im2col3d(
    pa: &PackedA,
    input: &Tensor,
    spec: &Conv3dSpec,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    let g = validate_im2col3d(pa, input, spec, out)?;
    let pb = pack_b_im2col3d(input, spec, &g);
    gemm_packed_stripe(&pa.data, pa.rows, pa.k, &pb.data, g.cols, out.as_mut_slice());
    workspace::give(pb.data);
    Ok(())
}

/// Convolution weight gradient as one GEMM: `out = a ·
/// im2col3d(input, spec)ᵀ`, with `a` the `[out_c, positions]` output
/// gradient and `out` the `[out_c, C·kt·kh·kw]` weight gradient.
///
/// Neither the column matrix nor its transpose is materialized: each
/// column-matrix row is lowered once and interleaved straight into the
/// packed B strips of the transposed operand, strip by strip, in a
/// buffer from the workspace bin. The result is bit-identical to
/// `matmul_into(a, &im2col3d(input, spec)?.transpose()?, out)`: the
/// strips hold the same bytes, and the same kernels run over them.
///
/// # Errors
///
/// Returns the lowering's rank/shape/geometry errors, and
/// [`TensorError::ShapeMismatch`] if `a` is not `[m, positions]` or
/// `out` is not `[m, C·kt·kh·kw]`.
pub fn gemm_im2col3d_t(
    a: &Tensor,
    input: &Tensor,
    spec: &Conv3dSpec,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    let g = ColGeom::new(input, spec)?;
    if a.rank() != 2 {
        return Err(TensorError::RankMismatch { expected: 2, actual: a.rank(), op: "gemm_im2col3d_t" });
    }
    let m = a.dims()[0];
    if a.dims()[1] != g.cols {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: vec![g.cols, g.rows],
            op: "gemm_im2col3d_t",
        });
    }
    if out.dims() != [m, g.rows] {
        return Err(TensorError::ShapeMismatch {
            lhs: out.dims().to_vec(),
            rhs: vec![m, g.rows],
            op: "gemm_im2col3d_t(out)",
        });
    }
    let pa = PackedA::pack_slice(a.as_slice(), m, g.cols);
    let pb = pack_bt_im2col3d(input, spec, &g);
    gemm_packed_stripe(&pa.data, m, g.cols, &pb.data, g.rows, out.as_mut_slice());
    workspace::give(pb.data);
    Ok(())
}

fn validate_im2col3d(
    pa: &PackedA,
    input: &Tensor,
    spec: &Conv3dSpec,
    out: &Tensor,
) -> Result<ColGeom, TensorError> {
    let g = ColGeom::new(input, spec)?;
    if pa.k != g.rows {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![pa.rows, pa.k],
            rhs: vec![g.rows, g.cols],
            op: "gemm_im2col3d",
        });
    }
    if out.dims() != [pa.rows, g.cols] {
        return Err(TensorError::ShapeMismatch {
            lhs: out.dims().to_vec(),
            rhs: vec![pa.rows, g.cols],
            op: "gemm_im2col3d(out)",
        });
    }
    Ok(g)
}

/// The seed's streaming i·k·j kernel: the oracle every other path is
/// tested against, and the baseline `benches/gemm.rs` times the packed
/// kernel against. It runs the contract's float program directly, every
/// product folded, zeros included.
///
/// # Errors
///
/// Same shape/rank errors as [`matmul_into`].
pub fn matmul_into_reference(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<(), TensorError> {
    let (m, k, n) = validate(a, b, out)?;
    let av = a.as_slice();
    let bv = b.as_slice();
    let ov = out.as_mut_slice();
    ov.fill(0.0);
    for i in 0..m {
        let arow = &av[i * k..(i + 1) * k];
        let orow = &mut ov[i * n..(i + 1) * n];
        for (p, &aip) in arow.iter().enumerate() {
            let brow = &bv[p * n..(p + 1) * n];
            for (o, &bpn) in orow.iter_mut().zip(brow) {
                *o = aip.mul_add(bpn, *o);
            }
        }
    }
    Ok(())
}

/// Multiplies two rank-2 tensors, allocating the output.
///
/// # Errors
///
/// Same as [`matmul_into`].
pub(crate) fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    if a.rank() != 2 || b.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: if a.rank() != 2 { a.rank() } else { b.rank() },
            op: "matmul",
        });
    }
    let mut out = Tensor::zeros(&[a.dims()[0], b.dims()[1]]);
    matmul_into(a, b, &mut out)?;
    Ok(out)
}

// ---------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------

/// Packed-operand GEMM: `ov[rows × n] = pa[rows × k] · pb[k × n]`, with
/// `pa` a [`PackedA`] buffer and `pb` a strip-packed [`PackedB`] buffer.
///
/// Strips outer, row blocks inner: the strip under work stays warm while
/// the A blocks stream past it once per strip. Each full 8-row block
/// sweeps the *entire depth* against the strip ([`micro_8w`]/
/// [`micro_8n`]), and the tail rows below the last full block follow
/// ([`micro_4`]/[`micro_1`] over the row-major tail of the packing; see
/// [`PackedA`]). Every kernel accumulates in registers from `0.0` and
/// stores each output element exactly once, so `ov` needs no pre-fill
/// and its stale contents never leak.
fn gemm_packed_stripe(pa: &[f32], rows: usize, k: usize, pb: &[f32], n: usize, ov: &mut [f32]) {
    let mut cursor = 0;
    let mut js = 0;
    while js < n {
        let w = NR2.min(n - js);
        let strip = &pb[cursor..cursor + k * w];
        cursor += k * w;
        let mut i = 0;
        while i + MR8 <= rows {
            let ablock = &pa[i * k..(i + MR8) * k];
            if w == NR2 {
                micro_8w(ablock, strip, ov, n, i, js);
            } else {
                micro_8n(ablock, strip, k, w, ov, n, i, js);
            }
            i += MR8;
        }
        while i + MR <= rows {
            micro_4(pa, strip, k, w, ov, n, i, js);
            i += MR;
        }
        while i < rows {
            micro_1(pa, strip, k, w, ov, n, i, js);
            i += 1;
        }
        js += w;
    }
}

/// Wide packed micro-kernel: 8 output rows × one full-width B strip,
/// sweeping the **entire depth** in one register pass. The accumulators
/// are four `[[f32; NR]; 4]` tiles — a two-accumulator unroll where
/// `lo`/`hi` split the 8 rows and `_a`/`_b` split the [`NR2`]-column
/// pair — 16 wide vectors total, sized to the AVX-512 register file.
/// `ablock` is the packed A block for rows `i..i+8` (`ablock[8p + r]`,
/// depth-major: every depth step reads 8 contiguous floats, and each
/// broadcast B value feeds 8 FMAs); `strip` is one packed B strip
/// (`strip[p·NR2 + j]`). Per element, products accumulate from `0.0` in
/// increasing `p`, and each element is stored once. The 8-row body is
/// deliberately hand-unrolled: a generic `for r in 0..8` formulation
/// measurably defeats the autovectorizer.
#[inline(always)]
fn micro_8w(ablock: &[f32], strip: &[f32], ov: &mut [f32], n: usize, i: usize, js: usize) {
    let mut lo_a = [[0.0f32; NR]; 4];
    let mut lo_b = [[0.0f32; NR]; 4];
    let mut hi_a = [[0.0f32; NR]; 4];
    let mut hi_b = [[0.0f32; NR]; 4];
    // chunks_exact (not indexed slicing) so the depth loop carries no
    // bounds checks: both iterators yield fixed-size chunks whose length
    // the optimizer knows statically.
    for (ar, br) in ablock.chunks_exact(MR8).zip(strip.chunks_exact(NR2)) {
        let (b0, b1) = br.split_at(NR);
        let x0 = ar[0];
        let x1 = ar[1];
        let x2 = ar[2];
        let x3 = ar[3];
        let x4 = ar[4];
        let x5 = ar[5];
        let x6 = ar[6];
        let x7 = ar[7];
        for (jj, &bval) in b0.iter().enumerate() {
            lo_a[0][jj] = x0.mul_add(bval, lo_a[0][jj]);
            lo_a[1][jj] = x1.mul_add(bval, lo_a[1][jj]);
            lo_a[2][jj] = x2.mul_add(bval, lo_a[2][jj]);
            lo_a[3][jj] = x3.mul_add(bval, lo_a[3][jj]);
            hi_a[0][jj] = x4.mul_add(bval, hi_a[0][jj]);
            hi_a[1][jj] = x5.mul_add(bval, hi_a[1][jj]);
            hi_a[2][jj] = x6.mul_add(bval, hi_a[2][jj]);
            hi_a[3][jj] = x7.mul_add(bval, hi_a[3][jj]);
        }
        for (jj, &bval) in b1.iter().enumerate() {
            lo_b[0][jj] = x0.mul_add(bval, lo_b[0][jj]);
            lo_b[1][jj] = x1.mul_add(bval, lo_b[1][jj]);
            lo_b[2][jj] = x2.mul_add(bval, lo_b[2][jj]);
            lo_b[3][jj] = x3.mul_add(bval, lo_b[3][jj]);
            hi_b[0][jj] = x4.mul_add(bval, hi_b[0][jj]);
            hi_b[1][jj] = x5.mul_add(bval, hi_b[1][jj]);
            hi_b[2][jj] = x6.mul_add(bval, hi_b[2][jj]);
            hi_b[3][jj] = x7.mul_add(bval, hi_b[3][jj]);
        }
    }
    for r in 0..4 {
        let base = (i + r) * n + js;
        ov[base..base + NR].copy_from_slice(&lo_a[r]);
        ov[base + NR..base + NR2].copy_from_slice(&lo_b[r]);
        let base = (i + 4 + r) * n + js;
        ov[base..base + NR].copy_from_slice(&hi_a[r]);
        ov[base + NR..base + NR2].copy_from_slice(&hi_b[r]);
    }
}

/// Narrow-strip variant of [`micro_8w`] for the final B strip when
/// `n % NR2 != 0`: one 8×NR register pass while a full NR tile remains,
/// then a scalar column loop — each running the identical per-element
/// program (full-depth accumulation from `0.0`, single store).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_8n(
    ablock: &[f32],
    strip: &[f32],
    k: usize,
    w: usize,
    ov: &mut [f32],
    n: usize,
    i: usize,
    js: usize,
) {
    let mut j = 0;
    while j + NR <= w {
        let mut lo = [[0.0f32; NR]; 4];
        let mut hi = [[0.0f32; NR]; 4];
        for (ar, brow) in ablock.chunks_exact(MR8).zip(strip.chunks_exact(w)) {
            let br = &brow[j..j + NR];
            let x0 = ar[0];
            let x1 = ar[1];
            let x2 = ar[2];
            let x3 = ar[3];
            let x4 = ar[4];
            let x5 = ar[5];
            let x6 = ar[6];
            let x7 = ar[7];
            for (jj, &bval) in br.iter().enumerate() {
                lo[0][jj] = x0.mul_add(bval, lo[0][jj]);
                lo[1][jj] = x1.mul_add(bval, lo[1][jj]);
                lo[2][jj] = x2.mul_add(bval, lo[2][jj]);
                lo[3][jj] = x3.mul_add(bval, lo[3][jj]);
                hi[0][jj] = x4.mul_add(bval, hi[0][jj]);
                hi[1][jj] = x5.mul_add(bval, hi[1][jj]);
                hi[2][jj] = x6.mul_add(bval, hi[2][jj]);
                hi[3][jj] = x7.mul_add(bval, hi[3][jj]);
            }
        }
        for (r, tile) in lo.iter().enumerate() {
            let base = (i + r) * n + js + j;
            ov[base..base + NR].copy_from_slice(tile);
        }
        for (r, tile) in hi.iter().enumerate() {
            let base = (i + 4 + r) * n + js + j;
            ov[base..base + NR].copy_from_slice(tile);
        }
        j += NR;
    }
    while j < w {
        for r in 0..MR8 {
            let mut s = 0.0f32;
            for p in 0..k {
                s = ablock[p * MR8 + r].mul_add(strip[p * w + j], s);
            }
            ov[(i + r) * n + js + j] = s;
        }
        j += 1;
    }
}

/// Tail kernel: 4 output rows × one B strip of width `w`, at full depth,
/// reading rows `i..i+4` of the row-major tail of a [`PackedA`] buffer.
/// A `[[f32; NR]; MR]` accumulator tile starts at `0.0`, folds the
/// products in increasing `p` and is stored once; columns past the last
/// full `NR` tile use a scalar loop with the identical per-element
/// program. The 4-row body is deliberately hand-unrolled: a generic
/// `for r in 0..MR` formulation measurably defeats the autovectorizer.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_4(
    pa: &[f32],
    strip: &[f32],
    k: usize,
    w: usize,
    ov: &mut [f32],
    n: usize,
    i: usize,
    js: usize,
) {
    let a0 = &pa[i * k..(i + 1) * k];
    let a1 = &pa[(i + 1) * k..(i + 2) * k];
    let a2 = &pa[(i + 2) * k..(i + 3) * k];
    let a3 = &pa[(i + 3) * k..(i + 4) * k];
    let mut j = 0;
    while j + NR <= w {
        let mut acc = [[0.0f32; NR]; MR];
        for p in 0..k {
            let br = &strip[p * w + j..p * w + j + NR];
            let x0 = a0[p];
            let x1 = a1[p];
            let x2 = a2[p];
            let x3 = a3[p];
            for (jj, &bval) in br.iter().enumerate() {
                acc[0][jj] = x0.mul_add(bval, acc[0][jj]);
                acc[1][jj] = x1.mul_add(bval, acc[1][jj]);
                acc[2][jj] = x2.mul_add(bval, acc[2][jj]);
                acc[3][jj] = x3.mul_add(bval, acc[3][jj]);
            }
        }
        for (r, tile) in acc.iter().enumerate() {
            let base = (i + r) * n + js + j;
            ov[base..base + NR].copy_from_slice(tile);
        }
        j += NR;
    }
    while j < w {
        for (r, ar) in [a0, a1, a2, a3].into_iter().enumerate() {
            let mut s = 0.0f32;
            for (p, &x) in ar.iter().enumerate() {
                s = x.mul_add(strip[p * w + j], s);
            }
            ov[(i + r) * n + js + j] = s;
        }
        j += 1;
    }
}

/// Single-row tail kernel; per-element float program identical to
/// [`micro_4`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_1(
    pa: &[f32],
    strip: &[f32],
    k: usize,
    w: usize,
    ov: &mut [f32],
    n: usize,
    i: usize,
    js: usize,
) {
    let a0 = &pa[i * k..(i + 1) * k];
    let mut j = 0;
    while j + NR <= w {
        let mut acc = [0.0f32; NR];
        for (p, &x0) in a0.iter().enumerate() {
            let br = &strip[p * w + j..p * w + j + NR];
            for (jj, &bval) in br.iter().enumerate() {
                acc[jj] = x0.mul_add(bval, acc[jj]);
            }
        }
        let base = i * n + js + j;
        ov[base..base + NR].copy_from_slice(&acc);
        j += NR;
    }
    while j < w {
        let mut s = 0.0f32;
        for (p, &x0) in a0.iter().enumerate() {
            s = x0.mul_add(strip[p * w + j], s);
        }
        ov[i * n + js + j] = s;
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn reference(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&[a.dims()[0], b.dims()[1]]);
        matmul_into_reference(a, b, &mut out).unwrap();
        out
    }

    #[test]
    fn matches_hand_computed_2x2() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng64::new(11);
        let a = Tensor::randn(&[4, 4], 1.0, rng.as_rng());
        let c = a.matmul(&Tensor::eye(4)).unwrap();
        for (x, y) in a.as_slice().iter().zip(c.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn matmul_into_is_bitwise_reference_per_element() {
        // Both sum a[i][p]·b[p][j] from 0.0 in increasing-p order, so they
        // must agree bit for bit, tile remainders included.
        let mut rng = Rng64::new(14);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (7, 4, 9),
            (16, 16, 16),
            (21, 19, 35),
            (5, 7, 3),
            (4, 16, 16),
            (9, 300, 21),
            (17, 33, 40),
        ] {
            let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
            let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
            let fast = a.matmul(&b).unwrap();
            assert_eq!(bits(&fast), bits(&reference(&a, &b)), "({m},{k},{n})");
        }
    }

    #[test]
    fn packed_stripe_is_bitwise_reference() {
        // The 8×32 packed kernel and its tails must land on the oracle's
        // bits for every row-remainder class and strip width.
        let mut rng = Rng64::new(21);
        for &(m, k, n) in &[
            (8, 16, 16),   // exactly one packed block, narrow strip only
            (16, 300, 33), // two blocks, one full strip + a 1-wide strip
            (7, 25, 18),   // tail-only (no full 8-block)
            (23, 40, 17),  // two blocks + 7-row tail
            (9, 5, 40),    // one block + 1-row tail
        ] {
            let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
            let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
            let pa = PackedA::pack(&a).unwrap();
            let pb = pack_b_slice(b.as_slice(), k, n);
            let mut fast = Tensor::full(&[m, n], f32::NAN);
            gemm_packed_stripe(&pa.data, m, k, &pb.data, n, fast.as_mut_slice());
            assert_eq!(bits(&reference(&a, &b)), bits(&fast), "({m},{k},{n})");
        }
    }

    #[test]
    fn zero_lhs_entries_fold_like_every_other_product() {
        // 0·∞ is NaN, not a skipped step: the oracle must see it.
        let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![f32::INFINITY, 1.0], &[2, 1]).unwrap();
        let mut fast = Tensor::zeros(&[1, 1]);
        matmul_into(&a, &b, &mut fast).unwrap();
        assert!(fast.as_slice()[0].is_nan());
        assert!(reference(&a, &b).as_slice()[0].is_nan());
        // 1e-30·(−1e-30) underflows to −0.0; folding 0·1 onto it gives
        // +0.0, which a skipped step would leave at −0.0.
        let a = Tensor::from_vec(vec![1e-30, 0.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![-1e-30, 1.0], &[2, 1]).unwrap();
        let mut fast = Tensor::zeros(&[1, 1]);
        matmul_into(&a, &b, &mut fast).unwrap();
        assert_eq!(bits(&fast), bits(&reference(&a, &b)));
        assert_eq!(fast.as_slice()[0].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn packed_a_layout_interleaves_blocks_and_leaves_tail_row_major() {
        // 10 rows of k=3: one full 8-block (depth-major, 8-interleaved)
        // then 2 tail rows stored row-major at their natural offset.
        let rows = 10;
        let k = 3;
        let a = Tensor::from_vec((0..rows * k).map(|x| x as f32).collect(), &[rows, k]).unwrap();
        let pa = PackedA::pack(&a).unwrap();
        assert_eq!(pa.rows(), rows);
        assert_eq!(pa.k(), k);
        let av = a.as_slice();
        for p in 0..k {
            for r in 0..MR8 {
                assert_eq!(pa.data[p * MR8 + r], av[r * k + p], "block element ({r},{p})");
            }
        }
        assert_eq!(&pa.data[MR8 * k..], &av[MR8 * k..], "tail rows must stay row-major");
    }

    /// A `[k, n]` right operand as a `[k, 1, 1, n]` clip under a unit
    /// 1×1×1 kernel, whose im2col lowering is the identity reshape: it
    /// lets [`gemm_im2col3d`] stand in for a plain packed-A GEMM.
    fn unit_conv(b: &Tensor) -> (Tensor, Conv3dSpec) {
        let (k, n) = (b.dims()[0], b.dims()[1]);
        (b.reshape(&[k, 1, 1, n]).unwrap(), Conv3dSpec::cubic(k, 1, (1, 1, 1), 0))
    }

    #[test]
    fn packed_a_is_reused_across_right_operands() {
        let mut rng = Rng64::new(23);
        let a = Tensor::randn(&[11, 19], 1.0, rng.as_rng());
        let pa = PackedA::pack(&a).unwrap();
        for _ in 0..3 {
            let b = Tensor::randn(&[19, 23], 1.0, rng.as_rng());
            let (x, spec) = unit_conv(&b);
            let mut got = Tensor::zeros(&[11, 23]);
            gemm_im2col3d(&pa, &x, &spec, &mut got).unwrap();
            assert_eq!(bits(&reference(&a, &b)), bits(&got));
        }
    }

    #[test]
    fn im2col3d_packing_equals_packing_the_column_matrix() {
        // Strided and padded; n = 63 is one full strip and a 31-wide tail.
        let mut rng = Rng64::new(24);
        let spec = Conv3dSpec::cubic(2, 3, (2, 2, 1), 1);
        let x = Tensor::randn(&[2, 5, 5, 7], 1.0, rng.as_rng());
        let g = ColGeom::new(&x, &spec).unwrap();
        let cols = crate::im2col3d(&x, &spec).unwrap();
        let want = pack_b_slice(cols.as_slice(), g.rows, g.cols);
        let got = pack_b_im2col3d(&x, &spec, &g);
        assert_eq!(&got.data[..g.rows * g.cols], want.data.as_slice());
    }

    #[test]
    fn transposed_packing_equals_packing_the_transposed_matrix() {
        // 3·2·3·3 = 54 rows: one full strip and a 22-wide tail, whose
        // groups are 8, 8 and a 6-row remainder.
        let mut rng = Rng64::new(25);
        let spec = Conv3dSpec { in_channels: 3, kt: 2, kh: 3, kw: 3, st: 1, sh: 2, sw: 1, pt: 0, ph: 1, pw: 2 };
        let x = Tensor::randn(&[3, 4, 5, 6], 1.0, rng.as_rng());
        let g = ColGeom::new(&x, &spec).unwrap();
        let cols_t = crate::im2col3d(&x, &spec).unwrap().transpose().unwrap();
        let want = pack_b_slice(cols_t.as_slice(), g.cols, g.rows);
        let got = pack_bt_im2col3d(&x, &spec, &g);
        assert_eq!(&got.data[..g.rows * g.cols], want.data.as_slice());
    }

    #[test]
    fn transposed_lowering_validates_shapes() {
        let spec = Conv3dSpec::cubic(2, 1, (1, 1, 1), 0);
        let x = Tensor::zeros(&[2, 1, 1, 5]);
        let a = Tensor::zeros(&[3, 5]);
        let mut out = Tensor::zeros(&[3, 2]);
        assert!(gemm_im2col3d_t(&a, &x, &spec, &mut out).is_ok());
        assert!(gemm_im2col3d_t(&Tensor::zeros(&[3, 4]), &x, &spec, &mut out).is_err(), "depth");
        assert!(gemm_im2col3d_t(&Tensor::zeros(&[15]), &x, &spec, &mut out).is_err(), "rank");
        assert!(gemm_im2col3d_t(&a, &Tensor::zeros(&[3, 1, 1, 5]), &spec, &mut out).is_err());
        assert!(gemm_im2col3d_t(&a, &x, &spec, &mut Tensor::zeros(&[3, 3])).is_err(), "out");
    }

    #[test]
    fn packed_entry_points_validate_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let pa = PackedA::pack(&a).unwrap();
        let (x, spec) = unit_conv(&Tensor::zeros(&[3, 4]));
        let mut out = Tensor::zeros(&[2, 4]);
        let (bad_x, bad_spec) = unit_conv(&Tensor::zeros(&[4, 4]));
        assert!(gemm_im2col3d(&pa, &bad_x, &bad_spec, &mut out).is_err(), "depth mismatch");
        assert!(gemm_im2col3d(&pa, &bad_x, &spec, &mut out).is_err(), "channel mismatch");
        assert!(gemm_im2col3d(&pa, &Tensor::zeros(&[3, 4]), &spec, &mut out).is_err(), "rank");
        let mut bad_out = Tensor::zeros(&[2, 3]);
        assert!(gemm_im2col3d(&pa, &x, &spec, &mut bad_out).is_err());
        assert!(PackedA::pack(&Tensor::zeros(&[3])).is_err());
        assert!(gemm_im2col3d(&pa, &x, &spec, &mut out).is_ok());
    }

    #[test]
    fn rejects_incompatible_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
        let v = Tensor::zeros(&[3]);
        assert!(v.matmul(&a).is_err());
    }

    #[test]
    fn mostly_zero_lhs_is_bitwise_reference() {
        // The masked attack tensors are mostly zeros.
        let mut rng = Rng64::new(13);
        let mut a = Tensor::zeros(&[5, 8]);
        for i in [0usize, 9, 17, 33] {
            a.as_mut_slice()[i] = rng.normal();
        }
        let b = Tensor::randn(&[8, 6], 1.0, rng.as_rng());
        let fast = a.matmul(&b).unwrap();
        assert_eq!(bits(&fast), bits(&reference(&a, &b)));
    }

    #[test]
    fn matmul_into_overwrites_stale_output() {
        let a = Tensor::eye(2);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let mut out = Tensor::full(&[2, 2], 99.0);
        matmul_into(&a, &b, &mut out).unwrap();
        assert_eq!(out.as_slice(), b.as_slice(), "previous contents must not leak");
    }

    #[test]
    fn packed_path_overwrites_stale_output() {
        // The kernels accumulate in registers and never read the output,
        // so a stale output buffer is a dedicated hazard for them.
        let mut rng = Rng64::new(17);
        let a = Tensor::randn(&[16, 20], 1.0, rng.as_rng());
        let b = Tensor::randn(&[20, 24], 1.0, rng.as_rng());
        let pa = PackedA::pack(&a).unwrap();
        let (x, spec) = unit_conv(&b);
        let mut stale = Tensor::full(&[16, 24], f32::NAN);
        gemm_im2col3d(&pa, &x, &spec, &mut stale).unwrap();
        assert_eq!(bits(&reference(&a, &b)), bits(&stale), "NaN canary leaked into output");
    }

    #[test]
    fn matmul_into_validates_out_shape() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 4]);
        let mut bad = Tensor::zeros(&[2, 3]);
        assert!(matmul_into(&a, &b, &mut bad).is_err());
        assert!(matmul_into_reference(&a, &b, &mut bad).is_err());
        let mut good = Tensor::zeros(&[2, 4]);
        assert!(matmul_into(&a, &b, &mut good).is_ok());
    }

    #[test]
    fn degenerate_inner_dimension_zeroes_output() {
        let a = Tensor::zeros(&[3, 0]);
        let b = Tensor::zeros(&[0, 2]);
        let mut out = Tensor::full(&[3, 2], 5.0);
        matmul_into(&a, &b, &mut out).unwrap();
        assert!(out.as_slice().iter().all(|&x| x.to_bits() == 0));
    }
}
