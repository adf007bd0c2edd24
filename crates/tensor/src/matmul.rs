//! Blocked, optionally multi-threaded matrix multiplication.
//!
//! The convolution kernels in this crate lower to matrix multiplication
//! via im2col, so `matmul` dominates the runtime of every model
//! forward/backward pass in the workspace. The fast path is a
//! cache-blocked GEMM with packed operands on both sides: A is packed
//! once per call into 8-row interleaved blocks ([`PackedA`], reusable
//! across calls that share a left operand), B is packed once into
//! [`NR2`]-column depth-major strips ([`PackedB`]), and a hand-unrolled
//! `8 × NR2` two-accumulator micro-kernel ([`micro_8w`], with
//! [`micro_8n`] for the narrow final strip) sweeps 8 output rows across
//! the full depth in one register pass. Remainder rows (fewer than 8 at
//! the bottom of a stripe) fall back to the original 4-row/1-row
//! kernels. Bias addition is fused into the final store ([`gemm_bias`])
//! instead of costing a second pass over the output. Large products
//! additionally split their *output rows* across the intra-op thread
//! pool ([`crate::set_intra_op_threads`]) on packed-block boundaries,
//! reusing one packed A/B pair across every stripe; the caller computes
//! the first stripe inline while the ring workers chew the rest.
//! [`gemm_im2col3d`] is the convolution forward: it lowers its input row
//! by row straight into the packed B strips, so the im2col matrix is
//! never materialized.
//!
//! # Determinism contract
//!
//! Every path through this module — the 8-row packed micro-kernel, the
//! 4-row and 1-row fallback kernels, the scalar column tail, serial or
//! parallel, bias fused or not — builds a given output element
//! `out[i][j]` by the *same* float program: start from `0.0`, fold in
//! `a[i][p].mul_add(b[p][j], acc)` (one IEEE fused multiply-add, single
//! rounding per step) in strictly increasing `p` order (panelled as
//! `pc`-major, identical for every path), then add `bias[j]` last if a
//! bias is given. The FMA order is *fixed*: no kernel may re-associate,
//! split a fused step into mul-then-add, or hoist the bias. Packing only
//! relocates operand bytes; it never reorders the accumulation. Workers
//! own disjoint row ranges aligned to packed 8-row blocks and never
//! share accumulators, so the result is bit-identical (`f32::to_bits`)
//! at any thread count, any row partitioning, and any tile remainder —
//! and `gemm_bias` is bit-equal to `gemm` followed by a bias loop,
//! because `f32` addition of the same operands in the same order is one
//! program. The property suite in `tests/kernel_bit_identity.rs`
//! enforces this contract.

use std::sync::Arc;

use crate::conv::{im2col3d_row, ColGeom};
use crate::par::{intra_op_pool, row_ranges_blocked, ThreadPool};
use crate::{Conv3dSpec, Tensor, TensorError};

/// Rows swept together by the fallback register-tiled micro-kernel.
const MR: usize = 4;
/// Rows swept together by the wide packed micro-kernel; also the A
/// packing block height and the parallel stripe alignment.
const MR8: usize = 8;
/// Column width of the wide micro-kernel's main tile and of the packed B
/// strips (two NR-wide accumulator pairs).
const NR2: usize = 2 * NR;
/// Columns held in the accumulator tile.
const NR: usize = 16;
/// Depth (k) extent of one packed panel.
const KC: usize = 256;
/// Width (n) extent of one packed panel.
const NC: usize = 1024;

/// `m·k·n` volume below which [`matmul_into`] stays serial: at small
/// sizes the per-job operand shares and pool round-trip cost more than
/// the multiply itself. 64³ is the empirical break-even on one core.
const PAR_MIN_VOLUME: usize = 1 << 18;

/// `m·k·n` volume below which the serial path skips operand packing and
/// runs the legacy [`gemm_rows`] kernel directly: packing A and B is an
/// `O(mk + kn)` tax that tiny products never pay back.
const FAST_MIN_VOLUME: usize = 1 << 13;

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

fn validate_bias(bias: &Tensor, n: usize) -> Result<(), TensorError> {
    if bias.rank() != 1 {
        return Err(TensorError::RankMismatch { expected: 1, actual: bias.rank(), op: "gemm_bias" });
    }
    if bias.dims()[0] != n {
        return Err(TensorError::ShapeMismatch {
            lhs: bias.dims().to_vec(),
            rhs: vec![n],
            op: "gemm_bias(bias)",
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Workspace buffer cache
// ---------------------------------------------------------------------

/// Process-wide recycling bin for the transient `Vec<f32>` workspaces the
/// packed GEMM path burns through (packed A, packed B, worker output
/// stripes). Serving workloads issue the same shapes call after call;
/// without reuse every call mmaps fresh pages and pays the page-fault
/// tax again — which on a single-core box is a large slice of the whole
/// parallel dispatch overhead. Buffers handed out by [`take`] carry
/// arbitrary stale contents; every consumer in this module fully
/// overwrites its workspace (packers write all `len` elements, stripe
/// outputs are written by the kernels' first-panel stores or explicitly
/// zeroed), so no value ever leaks between calls.
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
/// is how the 4-row/1-row fallback kernels read it unchanged.
///
/// The buffer is behind an `Arc`: cloning a `PackedA` (or handing it to
/// pool workers) shares the packing instead of repeating it. Dropping the
/// last reference returns the buffer to the workspace bin. A `PackedA`
/// is a snapshot — it does not observe later writes to the tensor it was
/// packed from, so repack after any weight update (the nn layers pack
/// per `infer`/`infer_batch` call, which makes staleness impossible by
/// construction).
#[derive(Clone)]
pub struct PackedA {
    data: Arc<Vec<f32>>,
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
        PackedA { data: Arc::new(data), rows, k }
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
    /// Hands the packing buffer back to the workspace bin once no clone
    /// (and no pool worker) still shares it, so a layer that packs its
    /// weight per call reuses one allocation.
    fn drop(&mut self) {
        if let Some(data) = Arc::get_mut(&mut self.data) {
            workspace::give(std::mem::take(data));
        }
    }
}

/// The right GEMM operand packed once per call into column strips of
/// [`NR2`] columns: strip `s` covers columns `[s·NR2, s·NR2 + w)`
/// (`w < NR2` only for the final strip) and stores element `b[p][j]` at
/// `strip_base + p·w + (j − s·NR2)`, so the wide micro-kernel streams
/// one contiguous strip for its entire depth sweep. Packed once and
/// shared (`Arc`) across every worker stripe instead of re-packed per
/// worker. A strip is exactly the `[p·nc + j]` panel image the legacy
/// kernels expect (with `nc = w`, `kc = k`, `jc = s·NR2`), which is how
/// tail rows reuse [`micro_4`]/[`micro_1`] against it unchanged.
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
/// `out` must have shape `[a.rows, b.cols]`. Prefer this over
/// [`Tensor::matmul`] inside hot loops to avoid reallocation. Products
/// large enough to amortize the dispatch run on the intra-op pool
/// ([`crate::set_intra_op_threads`]); the result is bit-identical to
/// [`matmul_into_serial`] either way.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if any operand is not rank 2,
/// [`TensorError::ShapeMismatch`] if the dimensions are incompatible, and
/// [`TensorError::Parallel`] if a pool worker panicked (not reachable
/// from this crate's kernels).
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<(), TensorError> {
    gemm(a, b, out)
}

/// Tiered GEMM entry point: `out = a · b`.
///
/// Dispatch tiers by `m·k·n` volume: tiny products run the unpacked
/// legacy kernel (packing would cost more than it saves), mid-size
/// products pack both operands and run the wide serial kernel, and large
/// products additionally stripe rows across the intra-op pool with one
/// shared packing. Identical output bits at every tier.
///
/// # Errors
///
/// Same as [`matmul_into`].
pub fn gemm(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<(), TensorError> {
    let (m, k, n) = validate(a, b, out)?;
    gemm_tiered(a.as_slice(), b.as_slice(), None, out.as_mut_slice(), m, k, n)
}

/// Tiered GEMM with fused column bias: `out = a · b + bias` with `bias`
/// broadcast across rows (`bias.len() == b.cols`).
///
/// The bias add is fused into the micro-kernel's final panel store, so it
/// costs no extra pass over `out` — yet the result is bit-identical to
/// [`gemm`] followed by `out[i][j] += bias[j]`, because both orderings
/// add `bias[j]` to the identical completed sum (asserted by the property
/// suite in `tests/kernel_bit_identity.rs`).
///
/// # Errors
///
/// Same as [`matmul_into`], plus rank/shape errors for a `bias` that is
/// not a length-`n` vector.
pub fn gemm_bias(a: &Tensor, b: &Tensor, bias: &Tensor, out: &mut Tensor) -> Result<(), TensorError> {
    let (m, k, n) = validate(a, b, out)?;
    validate_bias(bias, n)?;
    gemm_tiered(a.as_slice(), b.as_slice(), Some(bias.as_slice()), out.as_mut_slice(), m, k, n)
}

/// [`gemm_bias`] on an explicit [`ThreadPool`], always taking the
/// row-partitioned parallel path (no size threshold). Property tests use
/// this to pin the thread count per case without mutating the global
/// intra-op setting.
///
/// # Errors
///
/// Same as [`gemm_bias`]; additionally [`TensorError::Parallel`] if a job
/// panicked.
pub fn gemm_bias_with(
    a: &Tensor,
    b: &Tensor,
    bias: &Tensor,
    out: &mut Tensor,
    pool: &ThreadPool,
) -> Result<(), TensorError> {
    let (m, k, n) = validate(a, b, out)?;
    validate_bias(bias, n)?;
    let pa = PackedA::pack_slice(a.as_slice(), m, k);
    let pb = pack_b_slice(b.as_slice(), k, n);
    gemm_parallel_packed(&pa, pb, Some(bias.as_slice()), out.as_mut_slice(), n, pool)
}

/// Convolution forward as one GEMM: `out = pa · im2col3d(input, spec)`,
/// with `pa` the `[out_c, C·kt·kh·kw]` weight matrix packed once by the
/// caller.
///
/// The column matrix is never materialized. Each of its rows is lowered
/// into one hot row buffer and scattered straight into the packed B
/// strips the micro-kernels read; that buffer comes from the same
/// workspace bin as every other packing, so a forward allocates nothing
/// once the bin is warm. Dispatch is [`gemm`]'s: volumes of at least
/// `PAR_MIN_VOLUME` stripe rows across the intra-op pool over the one
/// packed B, anything smaller runs the packed serial kernel. The result
/// is bit-identical to `matmul_into(w, &im2col3d(input, spec)?, out)`:
/// the strips hold the same bytes, and every path runs the same float
/// program.
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
    let volume = pa.rows.saturating_mul(pa.k).saturating_mul(g.cols);
    if volume >= PAR_MIN_VOLUME {
        if let Some(pool) = intra_op_pool() {
            return gemm_parallel_packed(pa, pb, None, out.as_mut_slice(), g.cols, &pool);
        }
    }
    gemm_packed_stripe(&pa.data, pa.rows, pa.k, &pb.data, g.cols, None, out.as_mut_slice());
    workspace::give(pb.data);
    Ok(())
}

/// [`gemm_im2col3d`] on an explicit [`ThreadPool`], always taking the
/// row-partitioned parallel path (no size threshold). Property tests use
/// this to pin the thread count per case without mutating the global
/// intra-op setting.
///
/// # Errors
///
/// Same as [`gemm_im2col3d`]; additionally [`TensorError::Parallel`] if a
/// job panicked.
pub fn gemm_im2col3d_with(
    pa: &PackedA,
    input: &Tensor,
    spec: &Conv3dSpec,
    out: &mut Tensor,
    pool: &ThreadPool,
) -> Result<(), TensorError> {
    let g = validate_im2col3d(pa, input, spec, out)?;
    let pb = pack_b_im2col3d(input, spec, &g);
    gemm_parallel_packed(pa, pb, None, out.as_mut_slice(), g.cols, pool)
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

/// [`matmul_into`] forced onto the blocked serial kernel, regardless of
/// the intra-op setting. This is the reference side of the bit-identity
/// contract the packed and parallel paths are tested against, and is
/// deliberately the *pre-packing* kernel (`gemm_rows`): the fast paths
/// must reproduce its bits, not the other way round.
///
/// # Errors
///
/// Same shape/rank errors as [`matmul_into`].
pub fn matmul_into_serial(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<(), TensorError> {
    let (m, k, n) = validate(a, b, out)?;
    gemm_rows(a.as_slice(), b.as_slice(), out.as_mut_slice(), m, k, n);
    Ok(())
}

/// [`matmul_into`] on an explicit [`ThreadPool`], always taking the
/// row-partitioned parallel path (no size threshold). Property tests use
/// this to pin the thread count per case without mutating the global
/// intra-op setting.
///
/// # Errors
///
/// Same as [`matmul_into`]; additionally [`TensorError::Parallel`] if a
/// job panicked.
pub fn matmul_into_with(
    a: &Tensor,
    b: &Tensor,
    out: &mut Tensor,
    pool: &ThreadPool,
) -> Result<(), TensorError> {
    let (m, k, n) = validate(a, b, out)?;
    let pa = PackedA::pack_slice(a.as_slice(), m, k);
    let pb = pack_b_slice(b.as_slice(), k, n);
    gemm_parallel_packed(&pa, pb, None, out.as_mut_slice(), n, pool)
}

/// The pre-blocking naive i-k-j kernel, kept as the benchmark baseline
/// (`benches/gemm.rs` reports blocked/threaded speedups against it) and
/// as an independent oracle for the property tests.
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
            if aip == 0.0 {
                continue;
            }
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
// Dispatch tiers
// ---------------------------------------------------------------------

fn gemm_tiered(
    av: &[f32],
    bv: &[f32],
    bias: Option<&[f32]>,
    ov: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) -> Result<(), TensorError> {
    let volume = m.saturating_mul(k).saturating_mul(n);
    if volume >= PAR_MIN_VOLUME {
        if let Some(pool) = intra_op_pool() {
            let pa = PackedA::pack_slice(av, m, k);
            let pb = pack_b_slice(bv, k, n);
            return gemm_parallel_packed(&pa, pb, bias, ov, n, &pool);
        }
    }
    if volume >= FAST_MIN_VOLUME {
        let pa = PackedA::pack_slice(av, m, k);
        let pb = pack_b_slice(bv, k, n);
        gemm_packed_stripe(&pa.data, m, k, &pb.data, n, bias, ov);
        workspace::give(pb.data);
        return Ok(());
    }
    gemm_rows(av, bv, ov, m, k, n);
    if let Some(bv) = bias {
        if n > 0 {
            for row in ov.chunks_exact_mut(n) {
                for (o, &b) in row.iter_mut().zip(bv) {
                    *o += b;
                }
            }
        }
    }
    Ok(())
}

/// Row-partitioned parallel GEMM over packed operands. A and B arrive
/// packed *once*; each worker shares them via `Arc`, computes an owned
/// output stripe with the same [`gemm_packed_stripe`] kernel the serial path
/// runs, and the caller stitches stripes back in range order. Stripe
/// boundaries align to [`MR8`]-row packed blocks
/// ([`row_ranges_blocked`]), so a worker's slice of the packed A buffer
/// is itself a valid blocks-then-tail packing (only the final stripe can
/// own tail rows). Shares are `O(mk + kn + mn)` against `O(mkn)` compute.
/// Disjoint rows + identical per-row code ⇒ bit-identical to serial at
/// any partitioning.
fn gemm_parallel_packed(
    pa: &PackedA,
    pb: PackedB,
    bias: Option<&[f32]>,
    ov: &mut [f32],
    n: usize,
    pool: &ThreadPool,
) -> Result<(), TensorError> {
    let (rows, k) = (pa.rows, pa.k);
    let ranges = row_ranges_blocked(rows, pool.threads(), MR8);
    if ranges.len() <= 1 {
        gemm_packed_stripe(&pa.data, rows, k, &pb.data, n, bias, ov);
        workspace::give(pb.data);
        return Ok(());
    }
    let pb = Arc::new(pb);
    let bias_shared: Option<Arc<Vec<f32>>> = bias.map(|b| Arc::new(b.to_vec()));
    // The caller computes the first stripe itself, directly into the
    // output buffer, while the workers chew the rest: one less wakeup
    // and stitch, and the calling core never idles waiting on the pool.
    let (first, rest) = ranges.split_first().expect("ranges.len() > 1 checked above");
    let jobs: Vec<_> = rest
        .iter()
        .map(|r| {
            let a_data = Arc::clone(&pa.data);
            let pb = Arc::clone(&pb);
            let bias_shared = bias_shared.clone();
            let (start, end) = (r.start, r.end);
            move || {
                let stripe_rows = end - start;
                let mut stripe = workspace::take(stripe_rows * n);
                gemm_packed_stripe(
                    &a_data[start * k..end * k],
                    stripe_rows,
                    k,
                    &pb.data,
                    n,
                    bias_shared.as_deref().map(Vec::as_slice),
                    &mut stripe,
                );
                stripe
            }
        })
        .collect();
    let (first_out, rest_out) = ov.split_at_mut(first.end * n);
    let (stripes, ()) = pool.run_with_local(jobs, || {
        gemm_packed_stripe(
            &pa.data[first.start * k..first.end * k],
            first.end - first.start,
            k,
            &pb.data,
            n,
            bias,
            first_out,
        );
    });
    let stripes = stripes
        .map_err(|e| TensorError::Parallel { op: "matmul_into", message: e.to_string() })?;
    for (r, stripe) in rest.iter().zip(stripes) {
        rest_out[(r.start - first.end) * n..(r.end - first.end) * n].copy_from_slice(&stripe);
        workspace::give(stripe);
    }
    if let Ok(pb) = Arc::try_unwrap(pb) {
        workspace::give(pb.data);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------

/// Packed-operand GEMM over a contiguous block of output rows:
/// `ov[rows × n] = pa[rows × k] · pb[k × n] (+ bias)`. `pa` is a
/// [`PackedA`] buffer (or a block-aligned slice of one); `pb` is a full
/// strip-packed [`PackedB`] buffer. This single kernel body serves the
/// packed serial path and every worker stripe.
///
/// Each full 8-row block sweeps the *entire depth* against one B strip
/// at a time ([`micro_8w`]/[`micro_8n`]): accumulators live in registers
/// for the whole `k` extent and are stored exactly once, with the
/// optional bias fused into that store — no output pre-fill, no partial
/// sums round-tripping through memory between depth panels. (The store
/// schedule differs from the legacy KC-panelled kernel, but the
/// per-element float program — products added in strictly increasing `p`
/// from `0.0`, bias last — is identical, and f32 ops are deterministic,
/// so the bits can't differ.) The A block (`8·k` floats) stays hot
/// across strips; each strip (`k·NR2` floats) streams once per block.
///
/// Tail rows (fewer than 8 at the bottom) reuse the legacy
/// [`micro_4`]/[`micro_1`] kernels — the packed buffer is row-major past
/// the last full block (see [`PackedA`]), and a B strip is exactly a
/// legacy panel of shape `k × w` — with an explicit pre-zero and
/// post-loop bias add. Either way each element runs the contract's float
/// program exactly.
fn gemm_packed_stripe(
    pa: &[f32],
    rows: usize,
    k: usize,
    pb: &[f32],
    n: usize,
    bias: Option<&[f32]>,
    ov: &mut [f32],
) {
    if rows == 0 || n == 0 {
        return;
    }
    if k == 0 {
        ov.fill(0.0);
        if let Some(bv) = bias {
            for row in ov.chunks_exact_mut(n) {
                for (o, &b) in row.iter_mut().zip(bv) {
                    *o += b;
                }
            }
        }
        return;
    }
    let tail = (rows / MR8) * MR8;
    // Strips outer, row-blocks inner: the strip under work stays warm
    // while the A blocks stream past it sequentially once per strip —
    // the A side is `rows/8`× smaller than re-streaming all of B per
    // row-block would be.
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
                micro_8w(ablock, strip, ov, n, i, js, bias);
            } else {
                micro_8n(ablock, strip, k, w, ov, n, i, js, bias);
            }
            i += MR8;
        }
        js += w;
    }
    if tail < rows {
        ov[tail * n..].fill(0.0);
        let mut cursor = 0;
        let mut js = 0;
        while js < n {
            let w = NR2.min(n - js);
            let strip = &pb[cursor..cursor + k * w];
            cursor += k * w;
            let mut i = tail;
            while i + MR <= rows {
                micro_4(pa, ov, k, n, i, 0, k, js, w, strip);
                i += MR;
            }
            while i < rows {
                micro_1(pa, ov, k, n, i, 0, k, js, w, strip);
                i += 1;
            }
            js += w;
        }
        if let Some(bv) = bias {
            for row in ov[tail * n..].chunks_exact_mut(n) {
                for (o, &b) in row.iter_mut().zip(bv) {
                    *o += b;
                }
            }
        }
    }
}

/// Legacy blocked GEMM over a contiguous block of output rows:
/// `ov[rows × n] = av[rows × k] · bv[k × n]` with per-call panel packing
/// and the 4-row micro-kernel. Serves [`matmul_into_serial`] (the
/// bit-identity reference) and the sub-[`FAST_MIN_VOLUME`] serial tier.
fn gemm_rows(av: &[f32], bv: &[f32], ov: &mut [f32], rows: usize, k: usize, n: usize) {
    ov.fill(0.0);
    if rows == 0 || k == 0 || n == 0 {
        return;
    }
    let mut panel = vec![0.0f32; KC.min(k) * NC.min(n)];
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            for p in 0..kc {
                let src = (pc + p) * n + jc;
                panel[p * nc..p * nc + nc].copy_from_slice(&bv[src..src + nc]);
            }
            let mut i = 0;
            while i + MR <= rows {
                micro_4(av, ov, k, n, i, pc, kc, jc, nc, &panel);
                i += MR;
            }
            while i < rows {
                micro_1(av, ov, k, n, i, pc, kc, jc, nc, &panel);
                i += 1;
            }
            pc += kc;
        }
        jc += nc;
    }
}

/// Wide packed micro-kernel: 8 output rows × one full-width B strip,
/// sweeping the **entire depth** in one register pass. The accumulators
/// are four `[[f32; NR]; 4]` tiles — a two-accumulator unroll where
/// `lo`/`hi` split the 8 rows and `_a`/`_b` split the [`NR2`]-column
/// pair — 16 wide vectors total, sized to the AVX-512 register file.
/// `ablock` is the packed A block for rows `i..i+8` (`ablock[8p + r]`,
/// depth-major: every depth step reads 8 contiguous floats, and each
/// broadcast B value feeds 8 FMAs instead of 4); `strip` is one packed B
/// strip (`strip[p·NR2 + j]`). The FMA order is fixed: per element,
/// products accumulate from `0.0` in increasing `p` exactly as in
/// [`micro_4`], and the optional `bias[j]` lands after the final
/// product, fused into the single store. The 8-row body is deliberately
/// hand-unrolled: a generic `for r in 0..8` formulation measurably
/// defeats the autovectorizer.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_8w(
    ablock: &[f32],
    strip: &[f32],
    ov: &mut [f32],
    n: usize,
    i: usize,
    js: usize,
    bias: Option<&[f32]>,
) {
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
    if let Some(bv) = bias {
        let bt = &bv[js..js + NR2];
        let (t0, t1) = bt.split_at(NR);
        for r in 0..4 {
            for jj in 0..NR {
                lo_a[r][jj] += t0[jj];
                lo_b[r][jj] += t1[jj];
                hi_a[r][jj] += t0[jj];
                hi_b[r][jj] += t1[jj];
            }
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
/// program (full-depth accumulation from `0.0`, bias last, single
/// store).
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
    bias: Option<&[f32]>,
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
        if let Some(bv) = bias {
            let bt = &bv[js + j..js + j + NR];
            for tile in lo.iter_mut() {
                for (o, &b) in tile.iter_mut().zip(bt) {
                    *o += b;
                }
            }
            for tile in hi.iter_mut() {
                for (o, &b) in tile.iter_mut().zip(bt) {
                    *o += b;
                }
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
            let idx = (i + r) * n + js + j;
            let mut s = 0.0f32;
            for p in 0..k {
                s = ablock[p * MR8 + r].mul_add(strip[p * w + j], s);
            }
            if let Some(bv) = bias {
                s += bv[js + j];
            }
            ov[idx] = s;
        }
        j += 1;
    }
}

/// Register-tiled fallback micro-kernel: 4 output rows × one packed
/// panel, reading row-major A. The `[[f32; NR]; MR]` accumulator tile is
/// loaded from `ov` (carrying the partial sum of earlier `pc` panels),
/// updated in increasing-`p` order, and stored back. Remainder columns
/// past the last full `NR` tile use a scalar loop with the identical
/// per-element accumulation order. The 4-row body is deliberately
/// hand-unrolled: a generic `for r in 0..MR` formulation measurably
/// defeats the autovectorizer. Serves [`gemm_rows`] for all rows and
/// [`gemm_packed_stripe`] for tail rows past the last packed 8-block.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_4(
    av: &[f32],
    ov: &mut [f32],
    k: usize,
    n: usize,
    i: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    panel: &[f32],
) {
    let a0 = &av[i * k + pc..i * k + pc + kc];
    let a1 = &av[(i + 1) * k + pc..(i + 1) * k + pc + kc];
    let a2 = &av[(i + 2) * k + pc..(i + 2) * k + pc + kc];
    let a3 = &av[(i + 3) * k + pc..(i + 3) * k + pc + kc];
    let mut j = 0;
    while j + NR <= nc {
        let mut acc = [[0.0f32; NR]; MR];
        for (r, tile) in acc.iter_mut().enumerate() {
            let base = (i + r) * n + jc + j;
            tile.copy_from_slice(&ov[base..base + NR]);
        }
        for p in 0..kc {
            let br = &panel[p * nc + j..p * nc + j + NR];
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
            let base = (i + r) * n + jc + j;
            ov[base..base + NR].copy_from_slice(tile);
        }
        j += NR;
    }
    while j < nc {
        for (r, ar) in [a0, a1, a2, a3].into_iter().enumerate() {
            let idx = (i + r) * n + jc + j;
            let mut s = ov[idx];
            for (p, &x) in ar.iter().enumerate() {
                s = x.mul_add(panel[p * nc + j], s);
            }
            ov[idx] = s;
        }
        j += 1;
    }
}

/// Single-row remainder kernel; per-element float program identical to
/// [`micro_4`], so remainder rows land on the same bits no matter where
/// a partition boundary falls.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_1(
    av: &[f32],
    ov: &mut [f32],
    k: usize,
    n: usize,
    i: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    panel: &[f32],
) {
    let a0 = &av[i * k + pc..i * k + pc + kc];
    let mut j = 0;
    while j + NR <= nc {
        let base = i * n + jc + j;
        let mut acc = [0.0f32; NR];
        acc.copy_from_slice(&ov[base..base + NR]);
        for (p, &x0) in a0.iter().enumerate() {
            let br = &panel[p * nc + j..p * nc + j + NR];
            for (jj, &bval) in br.iter().enumerate() {
                acc[jj] = x0.mul_add(bval, acc[jj]);
            }
        }
        ov[base..base + NR].copy_from_slice(&acc);
        j += NR;
    }
    while j < nc {
        let idx = i * n + jc + j;
        let mut s = ov[idx];
        for (p, &x0) in a0.iter().enumerate() {
            s = x0.mul_add(panel[p * nc + j], s);
        }
        ov[idx] = s;
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s = a.as_slice()[i * k + p].mul_add(b.as_slice()[p * n + j], s);
                }
                out.as_mut_slice()[i * n + j] = s;
            }
        }
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
    fn matches_naive_on_rectangular_inputs() {
        let mut rng = Rng64::new(12);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (7, 4, 9), (16, 16, 16), (21, 19, 35)] {
            let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
            let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
            let fast = a.matmul(&b).unwrap();
            let slow = naive(&a, &b);
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert!((x - y).abs() < 1e-4, "mismatch at ({m},{k},{n}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn blocked_kernel_is_bitwise_naive_per_element() {
        // Both kernels sum a[i][p]·b[p][j] from 0.0 in increasing-p order,
        // so they must agree bit-for-bit, tile remainders included.
        let mut rng = Rng64::new(14);
        for &(m, k, n) in &[(5, 7, 3), (4, 16, 16), (9, 300, 21), (17, 33, 40)] {
            let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
            let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
            let mut blocked = Tensor::zeros(&[m, n]);
            matmul_into_serial(&a, &b, &mut blocked).unwrap();
            let slow = naive(&a, &b);
            assert_eq!(blocked.as_slice(), slow.as_slice(), "({m},{k},{n})");
        }
    }

    #[test]
    fn packed_serial_kernel_is_bitwise_legacy_serial() {
        // The 8×16 packed fast path must land on the legacy reference's
        // bits for every row-remainder class and panel boundary.
        let mut rng = Rng64::new(21);
        for &(m, k, n) in &[
            (8, 16, 16),   // exactly one packed block
            (16, 300, 33), // k crosses a KC panel, two blocks, odd n
            (7, 25, 18),   // tail-only (no full 8-block)
            (23, 40, 17),  // two blocks + 7-row tail
            (9, 5, 40),    // one block + 1-row tail
        ] {
            let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
            let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
            let mut serial = Tensor::zeros(&[m, n]);
            matmul_into_serial(&a, &b, &mut serial).unwrap();
            let pa = PackedA::pack(&a).unwrap();
            let pb = pack_b_slice(b.as_slice(), k, n);
            let mut fast = Tensor::full(&[m, n], f32::NAN);
            gemm_packed_stripe(&pa.data, m, k, &pb.data, n, None, fast.as_mut_slice());
            assert_eq!(
                serial.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                fast.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "({m},{k},{n})"
            );
        }
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

    #[test]
    fn gemm_bias_matches_gemm_plus_bias_loop_bitwise() {
        let mut rng = Rng64::new(22);
        for &(m, k, n) in &[(1, 3, 5), (8, 16, 16), (13, 70, 21), (24, 300, 40)] {
            let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
            let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
            let bias = Tensor::randn(&[n], 1.0, rng.as_rng());
            let mut unfused = Tensor::zeros(&[m, n]);
            gemm(&a, &b, &mut unfused).unwrap();
            for row in unfused.as_mut_slice().chunks_exact_mut(n) {
                for (o, &bb) in row.iter_mut().zip(bias.as_slice()) {
                    *o += bb;
                }
            }
            let mut fused = Tensor::full(&[m, n], f32::NAN);
            gemm_bias(&a, &b, &bias, &mut fused).unwrap();
            assert_eq!(
                unfused.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                fused.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "({m},{k},{n})"
            );
        }
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
            let mut want = Tensor::zeros(&[11, 23]);
            matmul_into_serial(&a, &b, &mut want).unwrap();
            let (x, spec) = unit_conv(&b);
            let mut got = Tensor::zeros(&[11, 23]);
            gemm_im2col3d(&pa, &x, &spec, &mut got).unwrap();
            assert_eq!(want.as_slice(), got.as_slice());
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
    fn gemm_bias_validates_bias_shape() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 4]);
        let mut out = Tensor::zeros(&[2, 4]);
        let wrong_len = Tensor::zeros(&[5]);
        assert!(gemm_bias(&a, &b, &wrong_len, &mut out).is_err());
        let wrong_rank = Tensor::zeros(&[4, 1]);
        assert!(gemm_bias(&a, &b, &wrong_rank, &mut out).is_err());
        let pool = ThreadPool::new(2);
        assert!(gemm_bias_with(&a, &b, &wrong_len, &mut out, &pool).is_err());
        let good = Tensor::zeros(&[4]);
        assert!(gemm_bias(&a, &b, &good, &mut out).is_ok());
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
        let pool = ThreadPool::new(2);
        assert!(gemm_im2col3d_with(&pa, &x, &spec, &mut bad_out, &pool).is_err());
        assert!(PackedA::pack(&Tensor::zeros(&[3])).is_err());
        assert!(gemm_im2col3d(&pa, &x, &spec, &mut out).is_ok());
    }

    #[test]
    fn explicit_pool_matches_serial_bitwise() {
        let mut rng = Rng64::new(15);
        let pool = ThreadPool::new(3);
        for &(m, k, n) in &[(1, 4, 4), (6, 20, 18), (23, 17, 31)] {
            let a = Tensor::randn(&[m, k], 1.0, rng.as_rng());
            let b = Tensor::randn(&[k, n], 1.0, rng.as_rng());
            let mut serial = Tensor::zeros(&[m, n]);
            let mut parallel = Tensor::zeros(&[m, n]);
            matmul_into_serial(&a, &b, &mut serial).unwrap();
            matmul_into_with(&a, &b, &mut parallel, &pool).unwrap();
            assert_eq!(serial.as_slice(), parallel.as_slice(), "({m},{k},{n})");
        }
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
    fn sparse_lhs_rows_are_skipped_correctly() {
        // `matmul_into_reference` skips zero entries of `a`; the blocked
        // kernel performs them. Both must land on the same values for the
        // mostly-zero masked attack tensors.
        let mut rng = Rng64::new(13);
        let mut a = Tensor::zeros(&[5, 8]);
        for i in [0usize, 9, 17, 33] {
            a.as_mut_slice()[i] = rng.normal();
        }
        let b = Tensor::randn(&[8, 6], 1.0, rng.as_rng());
        let fast = a.matmul(&b).unwrap();
        let mut reference = Tensor::zeros(&[5, 6]);
        matmul_into_reference(&a, &b, &mut reference).unwrap();
        assert_eq!(fast.as_slice(), reference.as_slice());
        let slow = naive(&a, &b);
        assert_eq!(fast.as_slice(), slow.as_slice());
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
        // The 8×16 kernel skips the output pre-fill (first-panel
        // accumulators start in registers), so stale output reuse is a
        // dedicated hazard for it.
        let mut rng = Rng64::new(17);
        let a = Tensor::randn(&[16, 20], 1.0, rng.as_rng());
        let b = Tensor::randn(&[20, 24], 1.0, rng.as_rng());
        let mut want = Tensor::zeros(&[16, 24]);
        matmul_into_serial(&a, &b, &mut want).unwrap();
        let pa = PackedA::pack(&a).unwrap();
        let (x, spec) = unit_conv(&b);
        let mut stale = Tensor::full(&[16, 24], f32::NAN);
        gemm_im2col3d(&pa, &x, &spec, &mut stale).unwrap();
        assert_eq!(want.as_slice(), stale.as_slice(), "NaN canary leaked into output");
    }

    #[test]
    fn parallel_path_overwrites_stale_output() {
        let mut rng = Rng64::new(16);
        let pool = ThreadPool::new(2);
        let a = Tensor::randn(&[7, 5], 1.0, rng.as_rng());
        let b = Tensor::randn(&[5, 9], 1.0, rng.as_rng());
        let mut fresh = Tensor::zeros(&[7, 9]);
        let mut stale = Tensor::full(&[7, 9], -3.5);
        matmul_into_with(&a, &b, &mut fresh, &pool).unwrap();
        matmul_into_with(&a, &b, &mut stale, &pool).unwrap();
        assert_eq!(fresh.as_slice(), stale.as_slice());
    }

    #[test]
    fn matmul_into_validates_out_shape() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 4]);
        let mut bad = Tensor::zeros(&[2, 3]);
        assert!(matmul_into(&a, &b, &mut bad).is_err());
        let pool = ThreadPool::new(2);
        assert!(matmul_into_with(&a, &b, &mut bad, &pool).is_err());
        assert!(matmul_into_serial(&a, &b, &mut bad).is_err());
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
        assert!(out.as_slice().iter().all(|&x| x == 0.0));
        // The fused-bias path must still see the bias on a k=0 product.
        let bias = Tensor::from_vec(vec![1.5, -2.0], &[2]).unwrap();
        let mut with_bias = Tensor::full(&[3, 2], 5.0);
        gemm_bias(&a, &b, &bias, &mut with_bias).unwrap();
        assert_eq!(with_bias.as_slice(), &[1.5, -2.0, 1.5, -2.0, 1.5, -2.0]);
        let pool = ThreadPool::new(2);
        let mut par = Tensor::full(&[3, 2], 5.0);
        gemm_bias_with(&a, &b, &bias, &mut par, &pool).unwrap();
        assert_eq!(par.as_slice(), with_bias.as_slice());
    }
}
