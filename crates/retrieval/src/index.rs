//! The shard-local ANN index: structure-of-arrays storage, lane-parallel
//! distance kernels, bounded top-`m` selection, and a seeded IVF
//! (inverted-file) coarse quantizer.
//!
//! Every [`crate::DataNode`] owns one [`ShardIndex`]. The seed
//! implementation scanned a `Vec<(VideoId, Tensor)>` per query — one
//! heap-allocated tensor, one shape check, and one bounds-checked
//! iterator chain per entry, followed by a full `O(G log G)` sort for a
//! top-`m` answer. The index replaces that with:
//!
//! * **SoA storage** — all features live in one flattened row-major
//!   `Vec<f32>` (`row r` at `feats[r*dim .. (r+1)*dim]`), ids in a
//!   parallel `Vec<VideoId>`. Dimension agreement is validated *once* at
//!   build time, so the query loop carries no per-entry checks.
//! * **Bounded top-`m`** — a max-heap of capacity `m` ([`TopM`]) replaces
//!   collect-all-and-sort: `O(G log m)` and `O(m)` memory.
//! * **Optional IVF** — a seeded k-means coarse quantizer partitions the
//!   shard into `nlist` inverted lists; a query scans only the `nprobe`
//!   nearest lists with *exact* distances (probed candidates are fully
//!   re-ranked, never approximated).
//! * **Compressed residual codes** — [`IndexMode::Pq`] keeps the IVF
//!   coarse quantizer but scores probed candidates against
//!   product-quantized *residuals* (row − assigned centroid): each
//!   residual splits into `m_sub` subspaces, each encoded as one byte
//!   against a seeded per-subspace codebook, and rows score through a
//!   per-probed-list lookup table (asymmetric distance computation:
//!   `m_sub` table adds per row, `m_sub` bytes per row on the scan path).
//!   An optional exact-rerank tail rescores the top ADC candidates from
//!   the retained f32 matrix, so full-depth rerank at full probe is
//!   bit-identical to [`IndexMode::Exact`]. The byte-level on-disk
//!   layout (`DUOINDX3`) and the ADC walkthrough live in DESIGN.md §6h.
//!
//! # Determinism
//!
//! Exact mode is **bit-identical** to the seed scan: each row's squared
//! distance accumulates in strictly sequential element order (the same
//! order `Tensor::sq_distance` used), and the heap's total order
//! `(distance.total_cmp, id)` is exactly the seed sort's comparator — so
//! the selected set and its final ascending order coincide with
//! sort-and-truncate. IVF is
//! deterministic too: k-means is seeded ([`shard_seed`] per shard),
//! assignment and probe ties break on the lower list index, and result
//! ties break by id. PQ codebooks extend the same doctrine: subspace `s`
//! trains with the derived seed [`pq_subspace_seed`]`(seed, s)` and
//! encoding is a final explicit nearest-codeword pass (lowest index on
//! ties), so same shard contents + same seed ⇒ same codebooks, same
//! codes, same rankings, on every run and thread interleaving — the
//! property every epoch rebuild and every persistence reload relies on.
//! Training and every query-side kernel (exact distances, PQ lookup
//! tables and ADC sums) score one row — or one codeword — per SIMD
//! lane, but each lane runs the row-at-a-time scan's exact float program
//! (same operands, same order, same strict `<`), so trained arrays,
//! distances and rankings match that scan bit for bit (DESIGN.md §6d,
//! §6h; pinned by oracle tests against the scalar training and a serial
//! search).
//!
//! # Example
//!
//! ```
//! use duo_retrieval::{IndexMode, ShardIndex};
//! use duo_tensor::Tensor;
//! use duo_video::VideoId;
//!
//! // 64 points on a line; the nearest neighbours of 3.2 are 3, 4, 2…
//! let entries: Vec<(VideoId, Tensor)> = (0..64)
//!     .map(|i| {
//!         let feat = Tensor::from_vec(vec![i as f32, 0.0], &[2]).unwrap();
//!         (VideoId { class: i, instance: 0 }, feat)
//!     })
//!     .collect();
//! let exact = ShardIndex::build(&entries, IndexMode::Exact, 0)?;
//! let ivf = ShardIndex::build(&entries, IndexMode::ivf(8, 8), 7)?;
//!
//! let top = exact.search(&[3.2, 0.0], 3);
//! assert_eq!(top[0].id.class, 3);
//! // Probing every list makes IVF exhaustive: identical to exact.
//! assert_eq!(ivf.search(&[3.2, 0.0], 3), top);
//! # Ok::<(), duo_retrieval::RetrievalError>(())
//! ```

use crate::{Result, RetrievalError, ScoredId};
use duo_tensor::{Json, Rng64, Tensor, ToJson};
use duo_video::VideoId;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Rounds of Lloyd iteration for every k-means an index trains: the
/// IVF coarse quantizer and each PQ subspace codebook. A run stops early
/// once an assignment repeats, which well-separated data reaches in a
/// few rounds, but the cap often binds: on 3,000 × 128 shards of
/// jittered gallery features (the end-to-end benchmark's
/// `gallery_churn` gallery) the 8-list coarse quantizer and every
/// 16-codeword PQ subspace ran all 8 rounds. The fixed bound keeps index
/// builds predictable; because a capped run's assignment lags its last
/// centroid update, PQ encoding is a separate final pass.
const KMEANS_ROUNDS: usize = 8;

/// Every `AUDIT_PERIOD`-th IVF query on a shard is audited: the exact
/// answer is computed alongside and the overlap recorded, so recall@m is
/// observable in production stats at ~1/16th of an exact scan's cost.
const AUDIT_PERIOD: u64 = 16;

/// Rows the exact distance kernel scores together, one per SIMD lane:
/// one 512-bit vector of `f32`.
const SCAN_LANES: usize = 16;

/// Rows per PQ code panel, one per SIMD lane of the ADC kernel. As in
/// training ([`TRAIN_LANES`]), 64 lanes keep the kernel a loop the
/// compiler vectorizes, four 512-bit vectors of sums per panel.
const CODE_LANES: usize = 64;

/// How a shard answers nearest-neighbour queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexMode {
    /// Scan every row (the default). Exhaustive and bit-identical to the
    /// seed per-entry scan, but on SoA storage with bounded top-`m`.
    Exact,
    /// Inverted-file index: k-means partitions the shard into `nlist`
    /// cells; a query scans the `nprobe` nearest cells exhaustively with
    /// exact distances. Sublinear when `nprobe < nlist`, exhaustive
    /// (equal to [`IndexMode::Exact`]) when `nprobe == nlist`.
    Ivf {
        /// Number of inverted lists (k-means centroids) per shard.
        nlist: usize,
        /// Lists scanned per query, nearest centroid first.
        nprobe: usize,
    },
    /// IVF with product-quantized residual codes: probed candidates are
    /// scored by asymmetric distance computation (a per-list lookup
    /// table over `m_sub` seeded subspace codebooks) instead of the f32
    /// rows, touching `m_sub` bytes per row on the scan path. `rerank`
    /// exact-rescores the top ADC candidates from the retained f32
    /// matrix. The feature dimension must be divisible by `m_sub`
    /// (checked at build time).
    Pq {
        /// Number of inverted lists (k-means centroids) per shard.
        nlist: usize,
        /// Lists scanned per query, nearest centroid first.
        nprobe: usize,
        /// Residual subspaces per vector — also the code bytes per row.
        m_sub: usize,
        /// Bits per sub-code, `1..=8`; each subspace codebook holds
        /// `2^nbits` codewords (capped at the row count). Codes are
        /// stored byte-packed regardless of `nbits`.
        nbits: u32,
        /// Exact-rerank depth: `0` ranks by ADC distance alone; `r > 0`
        /// rescores the `max(r, m)` best ADC candidates exactly.
        rerank: usize,
    },
}

impl Default for IndexMode {
    fn default() -> Self {
        IndexMode::Exact
    }
}

impl IndexMode {
    /// Shorthand for [`IndexMode::Ivf`].
    pub fn ivf(nlist: usize, nprobe: usize) -> Self {
        IndexMode::Ivf { nlist, nprobe }
    }

    /// Shorthand for [`IndexMode::Pq`].
    ///
    /// ```
    /// use duo_retrieval::{IndexMode, ShardIndex};
    /// use duo_tensor::Tensor;
    /// use duo_video::VideoId;
    ///
    /// let entries: Vec<(VideoId, Tensor)> = (0..32)
    ///     .map(|i| {
    ///         let feat = Tensor::from_vec(vec![i as f32, -(i as f32), 1.0, 0.0], &[4]).unwrap();
    ///         (VideoId { class: i, instance: 0 }, feat)
    ///     })
    ///     .collect();
    /// // 4 lists, probe all 4, 2 subspaces of 2 dims, 8-bit codes,
    /// // exact-rerank the full shard: bit-identical to an exact scan.
    /// let pq = ShardIndex::build(&entries, IndexMode::pq(4, 4, 2, 8, 32), 7)?;
    /// let exact = ShardIndex::build(&entries, IndexMode::Exact, 0)?;
    /// let q = [5.2f32, -5.2, 1.0, 0.0];
    /// assert_eq!(pq.search(&q, 3), exact.search(&q, 3));
    /// # Ok::<(), duo_retrieval::RetrievalError>(())
    /// ```
    pub fn pq(nlist: usize, nprobe: usize, m_sub: usize, nbits: u32, rerank: usize) -> Self {
        IndexMode::Pq { nlist, nprobe, m_sub, nbits, rerank }
    }

    /// The coarse quantizer's `(nlist, nprobe)`, or `None` in exact mode.
    pub fn coarse_params(&self) -> Option<(usize, usize)> {
        match *self {
            IndexMode::Exact => None,
            IndexMode::Ivf { nlist, nprobe } | IndexMode::Pq { nlist, nprobe, .. } => {
                Some((nlist, nprobe))
            }
        }
    }

    /// Validates the mode's parameters.
    ///
    /// # Errors
    ///
    /// Returns [`RetrievalError::BadConfig`] for zero `nlist`/`nprobe`,
    /// `nprobe > nlist`, zero `m_sub`, or `nbits` outside `1..=8`.
    pub fn validate(&self) -> Result<()> {
        if let Some((nlist, nprobe)) = self.coarse_params() {
            if nlist == 0 || nprobe == 0 {
                return Err(RetrievalError::BadConfig(format!(
                    "nlist and nprobe must be positive, got {self:?}"
                )));
            }
            if nprobe > nlist {
                return Err(RetrievalError::BadConfig(format!(
                    "nprobe must not exceed nlist, got {self:?}"
                )));
            }
        }
        if let IndexMode::Pq { m_sub, nbits, .. } = *self {
            if m_sub == 0 {
                return Err(RetrievalError::BadConfig(format!(
                    "m_sub must be positive, got {self:?}"
                )));
            }
            if nbits == 0 || nbits > 8 {
                return Err(RetrievalError::BadConfig(format!(
                    "nbits must be in 1..=8, got {self:?}"
                )));
            }
        }
        Ok(())
    }
}

impl ToJson for IndexMode {
    fn to_json(&self) -> Json {
        match *self {
            IndexMode::Exact => {
                Json::object(vec![("mode".to_string(), Json::Str("exact".to_string()))])
            }
            IndexMode::Ivf { nlist, nprobe } => Json::object(vec![
                ("mode".to_string(), Json::Str("ivf".to_string())),
                ("nlist".to_string(), Json::Int(nlist as i128)),
                ("nprobe".to_string(), Json::Int(nprobe as i128)),
            ]),
            IndexMode::Pq { nlist, nprobe, m_sub, nbits, rerank } => Json::object(vec![
                ("mode".to_string(), Json::Str("pq".to_string())),
                ("nlist".to_string(), Json::Int(nlist as i128)),
                ("nprobe".to_string(), Json::Int(nprobe as i128)),
                ("m_sub".to_string(), Json::Int(m_sub as i128)),
                ("nbits".to_string(), Json::Int(i128::from(nbits))),
                ("rerank".to_string(), Json::Int(rerank as i128)),
            ]),
        }
    }
}

/// The deterministic k-means seed for shard `shard` of a system. Builds
/// and index restores use the same function, so a restored shard with
/// identical contents trains the identical quantizer.
pub fn shard_seed(shard: usize) -> u64 {
    (0x1DF5_EED0_u64.wrapping_add(shard as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The deterministic k-means seed for PQ subspace `sub` of a shard
/// trained with `seed`. Every codebook retrain — fresh build, epoch
/// rebuild of a dirty shard, in-memory re-sharding — derives subspace
/// seeds through this one function, so identical residuals always train
/// identical codebooks (the determinism doctrine, DESIGN.md §6h).
pub fn pq_subspace_seed(seed: u64, sub: usize) -> u64 {
    seed ^ (0xA5C0_0B00_u64.wrapping_add(sub as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Bounded top-`m` selection: a max-heap of capacity `m` keeping the `m`
/// smallest candidates under the total order `(distance, id)` — the same
/// comparator the seed scan sorted with, so the surviving set and its
/// sorted order are identical to sort-and-truncate.
#[derive(Debug)]
pub struct TopM {
    cap: usize,
    heap: BinaryHeap<Cand>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Cand {
    distance: f32,
    id: VideoId,
}

impl Eq for Cand {}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.distance
            .total_cmp(&other.distance)
            .then_with(|| (self.id.class, self.id.instance).cmp(&(other.id.class, other.id.instance)))
    }
}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl TopM {
    /// An empty selector keeping at most `cap` candidates.
    pub fn new(cap: usize) -> Self {
        TopM { cap, heap: BinaryHeap::with_capacity(cap.saturating_add(1)) }
    }

    /// Offers one candidate; it survives only while it is among the `cap`
    /// smallest seen so far.
    #[inline]
    pub fn push(&mut self, distance: f32, id: VideoId) {
        if self.cap == 0 {
            return;
        }
        let cand = Cand { distance, id };
        if self.heap.len() < self.cap {
            self.heap.push(cand);
        } else if let Some(worst) = self.heap.peek() {
            if cand < *worst {
                self.heap.pop();
                self.heap.push(cand);
            }
        }
    }

    /// Candidates currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no candidate survived (or `cap` was zero).
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The survivors, ascending by `(distance, id)` — nearest first.
    pub fn into_sorted(self) -> Vec<ScoredId> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|c| ScoredId { id: c.id, distance: c.distance })
            .collect()
    }
}

/// The exact distance kernel: the squared Euclidean distances from
/// `query` to [`SCAN_LANES`] rows of the row-major `matrix` (`dim` floats
/// per row), one row per SIMD lane. Each lane sums `(x − q)²` from `0.0`
/// in increasing element order — the f32 program of
/// `Tensor::sq_distance` — so every distance is bit-identical to a
/// row-at-a-time scan; only which rows share an instruction changes.
///
/// Kept out of line: compiled on its own, the unrolled lane loop
/// vectorizes (one gather per 8 lanes per element); inlined into its
/// callers it was left as 16 scalar chains, about 1.5× slower.
#[inline(never)]
fn lane_distances(
    matrix: &[f32],
    dim: usize,
    query: &[f32],
    rows: &[usize; SCAN_LANES],
) -> [f32; SCAN_LANES] {
    let lanes: [&[f32]; SCAN_LANES] = std::array::from_fn(|l| &matrix[rows[l] * dim..][..dim]);
    let mut acc = [0.0f32; SCAN_LANES];
    for (j, &q) in query[..dim].iter().enumerate() {
        for (a, row) in acc.iter_mut().zip(&lanes) {
            let d = row[j] - q;
            *a += d * d;
        }
    }
    acc
}

/// Scores `rows` of `matrix` against `query` through [`lane_distances`],
/// [`SCAN_LANES`] rows at a time, handing each `(row, distance)` to
/// `emit` in the order given. A short last group fills its spare lanes
/// with its first row and drops their results. Every exact distance the
/// index computes — exhaustive scans, recall audits, IVF lists, the
/// rerank tail, centroid ranking — goes through here.
fn exact_distances(
    matrix: &[f32],
    dim: usize,
    query: &[f32],
    rows: impl IntoIterator<Item = usize>,
    mut emit: impl FnMut(usize, f32),
) {
    let mut group = [0usize; SCAN_LANES];
    let mut filled = 0;
    for row in rows {
        group[filled] = row;
        filled += 1;
        if filled == SCAN_LANES {
            let d = lane_distances(matrix, dim, query, &group);
            group.iter().zip(&d).for_each(|(&r, &d)| emit(r, d));
            filled = 0;
        }
    }
    if filled > 0 {
        let first = group[0];
        group[filled..].fill(first);
        let d = lane_distances(matrix, dim, query, &group);
        group[..filled].iter().zip(&d).for_each(|(&r, &d)| emit(r, d));
    }
}

/// A compressed-scan candidate `(distance, row)` packed into one `u64`
/// whose unsigned order is the total order `(distance.total_cmp, row)`:
/// the distance's bits above the row, remapped so that unsigned order
/// matches `f32::total_cmp` (negatives with every bit flipped, the rest
/// with the sign bit set). Selection then compares plain integers,
/// which keeps its partition loop free of data-dependent branches.
fn candidate_key(distance: f32, row: u32) -> u64 {
    let bits = distance.to_bits();
    let ordered = if bits >> 31 == 1 { !bits } else { bits | 1 << 31 };
    u64::from(ordered) << 32 | u64::from(row)
}

/// The `(distance, row)` a [`candidate_key`] packs.
fn candidate_parts(key: u64) -> (f32, u32) {
    let ordered = (key >> 32) as u32;
    let bits = if ordered >> 31 == 1 { ordered & !(1 << 31) } else { !ordered };
    (f32::from_bits(bits), key as u32)
}

/// The ADC kernel: the approximate distances of one code panel's `width`
/// rows (`width ≤ CODE_LANES`, one row per lane). Each lane adds its
/// row's table entries `lut[s*ksub + code_s]` from `0.0` in subspace
/// order — the serial ADC loop's float program. Codes are `< ksub`
/// (built that way, and checked at load), so `get` always hits; it
/// stands in for indexing so the lane loop carries no panic branch and
/// vectorizes as a gather.
#[inline(always)]
fn adc_panel(lut: &[f32], ksub: usize, panel: &[u8], width: usize) -> [f32; CODE_LANES] {
    let mut acc = [0.0f32; CODE_LANES];
    for (table, codes) in lut.chunks_exact(ksub).zip(panel.chunks_exact(width)) {
        for (a, &c) in acc[..width].iter_mut().zip(codes) {
            *a += table.get(usize::from(c)).copied().unwrap_or(0.0);
        }
    }
    acc
}

/// A trained inverted-file structure: `nlist` centroids plus the row
/// indices assigned to each. Shared by the IVF and PQ modes as the
/// coarse quantizer.
#[derive(Debug, Clone)]
struct Ivf {
    nprobe: usize,
    /// Row-major `lists.len() × dim` centroid matrix.
    centroids: Vec<f32>,
    /// Member rows per list, ascending (assignment iterates in row order).
    lists: Vec<Vec<u32>>,
}

/// A trained product quantizer over coarse residuals: `m_sub` subspace
/// codebooks of `ksub` codewords each, `dsub = dim / m_sub` dims apiece,
/// plus every row's codes, both laid out for the query kernels.
#[derive(Debug, Clone)]
struct PqCodec {
    m_sub: usize,
    ksub: usize,
    dsub: usize,
    /// `m_sub × dsub × ksub`, element-major within a subspace: element
    /// `j` of codeword `k` in subspace `s` at `[(s*dsub + j)*ksub + k]`,
    /// so one load fetches element `j` of every codeword (the lookup
    /// table is built one codeword per lane). The `DUOINDX3` aux section
    /// stores the codeword-major transpose.
    codebooks: Vec<f32>,
    /// Codes per inverted list, in the list's row order, as panels of
    /// [`CODE_LANES`] rows stored subspace-major: the panel holding list
    /// positions `[64p, 64p + w)` keeps sub-code `s` of position
    /// `64p + i` at `[64p·m_sub + s·w + i]`, so one load fetches
    /// subspace `s` for a whole panel. The last panel is `w` rows wide.
    codes: Vec<Vec<u8>>,
    rerank: usize,
}

impl PqCodec {
    /// Lays trained parts out for the query kernels: `codebooks` in the
    /// codeword-major training layout (`[(s*ksub + k)*dsub + j]`), `codes`
    /// row-major (`m_sub` bytes per row), `lists` the inverted lists.
    fn new(
        m_sub: usize,
        dsub: usize,
        codebooks: &[f32],
        codes: &[u8],
        lists: &[Vec<u32>],
        rerank: usize,
    ) -> Self {
        let ksub = codebooks.len() / (m_sub * dsub);
        let codes = lists
            .iter()
            .map(|rows| {
                let mut out = Vec::with_capacity(rows.len() * m_sub);
                for panel in rows.chunks(CODE_LANES) {
                    for s in 0..m_sub {
                        out.extend(panel.iter().map(|&r| codes[r as usize * m_sub + s]));
                    }
                }
                out
            })
            .collect();
        let codebooks = transpose_blocks(codebooks, ksub, dsub);
        PqCodec { m_sub, ksub, dsub, codebooks, codes, rerank }
    }

    /// The codebooks in the codeword-major training layout.
    fn codeword_major_codebooks(&self) -> Vec<f32> {
        transpose_blocks(&self.codebooks, self.dsub, self.ksub)
    }

    /// Every row's codes, row-major (`m_sub` bytes per row), from the
    /// panels of `lists`.
    fn row_major_codes(&self, lists: &[Vec<u32>], rows: usize) -> Vec<u8> {
        let mut out = vec![0u8; rows * self.m_sub];
        for (codes, rows) in self.codes.iter().zip(lists) {
            let panels = codes.chunks(CODE_LANES * self.m_sub);
            for (panel, rows) in panels.zip(rows.chunks(CODE_LANES)) {
                for (s, sub) in panel.chunks_exact(rows.len()).enumerate() {
                    for (&c, &r) in sub.iter().zip(rows) {
                        out[r as usize * self.m_sub + s] = c;
                    }
                }
            }
        }
        out
    }

    /// Fills `lut` (`m_sub × ksub`) for the residual query `rq`: entry
    /// `s*ksub + k` is `‖codeword(s, k) − rq_sub(s)‖²`, each codeword one
    /// lane, summing `(word − q)²` from `0.0` in element order.
    fn fill_lut(&self, rq: &[f32], lut: &mut [f32]) {
        let books = self.codebooks.chunks_exact(self.dsub * self.ksub);
        for ((table, book), q) in
            lut.chunks_exact_mut(self.ksub).zip(books).zip(rq.chunks_exact(self.dsub))
        {
            table.fill(0.0);
            for (words, &qj) in book.chunks_exact(self.ksub).zip(q) {
                for (t, &w) in table.iter_mut().zip(words) {
                    let d = w - qj;
                    *t += d * d;
                }
            }
        }
    }
}

/// Transposes each consecutive `rows × cols` row-major block of `data`.
fn transpose_blocks(data: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; data.len()];
    for (src, dst) in data.chunks_exact(rows * cols).zip(out.chunks_exact_mut(rows * cols)) {
        for (r, row) in src.chunks_exact(cols).enumerate() {
            for (c, &x) in row.iter().enumerate() {
                dst[c * rows + r] = x;
            }
        }
    }
    out
}

/// Aggregated scan counters for one index (or, merged, for a whole
/// system). All counters are monotonic; [`IndexStats::recall_at_m`]
/// derives the running recall estimate from the audit counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexStats {
    /// Shard-level searches answered.
    pub queries: u64,
    /// Inverted lists scanned across all IVF queries (0 in exact mode).
    pub probed_lists: u64,
    /// Feature rows pushed through the distance kernel.
    pub scanned_rows: u64,
    /// ADC candidates exact-rescored by the rerank tail (0 outside PQ
    /// mode or with `rerank == 0`).
    pub reranked_rows: u64,
    /// Coarse-mode queries that were recall-audited against an exact
    /// scan.
    pub audit_queries: u64,
    /// Audited result ids that the exact answer also contained.
    pub audit_hits: u64,
    /// Total result ids the exact answers of audited queries contained.
    pub audit_expected: u64,
}

duo_tensor::impl_to_json!(struct IndexStats {
    queries, probed_lists, scanned_rows, reranked_rows, audit_queries, audit_hits, audit_expected
});

impl IndexStats {
    /// Accumulates another shard's counters into this one.
    pub fn merge(&mut self, other: &IndexStats) {
        self.queries += other.queries;
        self.probed_lists += other.probed_lists;
        self.scanned_rows += other.scanned_rows;
        self.reranked_rows += other.reranked_rows;
        self.audit_queries += other.audit_queries;
        self.audit_hits += other.audit_hits;
        self.audit_expected += other.audit_expected;
    }

    /// Mean inverted lists probed per query (0 for pure exact traffic).
    pub fn mean_probes(&self) -> f32 {
        if self.queries == 0 {
            0.0
        } else {
            self.probed_lists as f32 / self.queries as f32
        }
    }

    /// The running recall@m estimate from audited IVF queries, or `None`
    /// before the first audit (exact mode never audits — its recall is 1
    /// by construction).
    pub fn recall_at_m(&self) -> Option<f32> {
        if self.audit_expected == 0 {
            None
        } else {
            Some(self.audit_hits as f32 / self.audit_expected as f32)
        }
    }
}

/// Scan counters for a whole system: every shard's [`IndexStats`]
/// merged, plus the system's resident byte footprint split into f32
/// features and compressed-code bytes. Every shard of a system runs the
/// one [`IndexMode`] its configuration names, so the merged counters are
/// that mode's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexBreakdown {
    /// All shards' counters merged.
    pub total: IndexStats,
    /// Bytes of retained f32 feature matrix across shards.
    pub feature_bytes: u64,
    /// Bytes of compressed codes plus codec tables across shards (0 for
    /// uncompressed modes).
    pub code_bytes: u64,
}

duo_tensor::impl_to_json!(struct IndexBreakdown { total, feature_bytes, code_bytes });

/// The per-shard nearest-neighbour index: SoA feature storage plus an
/// optional IVF coarse quantizer. See the [module docs](self) for the
/// layout and determinism contract.
#[derive(Debug)]
pub struct ShardIndex {
    ids: Vec<VideoId>,
    /// Row-major `ids.len() × dim` feature matrix.
    feats: Vec<f32>,
    dim: usize,
    mode: IndexMode,
    ivf: Option<Ivf>,
    /// Per-row coarse list assignment (empty in exact mode). Redundant
    /// with `ivf.lists` but kept flat for residual decoding and the
    /// `DUOINDX3` writer.
    coarse_assign: Vec<u32>,
    /// The product quantizer and its codes (PQ mode only).
    codec: Option<PqCodec>,
    queries: AtomicU64,
    probed_lists: AtomicU64,
    scanned_rows: AtomicU64,
    reranked_rows: AtomicU64,
    audit_queries: AtomicU64,
    audit_hits: AtomicU64,
    audit_expected: AtomicU64,
}

impl ShardIndex {
    /// Builds an index over `(id, feature)` entries.
    ///
    /// All feature dimensions are validated here — the one place the
    /// check runs — so the query kernel is check-free. For
    /// [`IndexMode::Ivf`], the coarse quantizer is trained immediately
    /// with a k-means seeded from `seed` (use [`shard_seed`] for the
    /// per-shard convention); `nlist` is silently capped at the number of
    /// rows.
    ///
    /// # Errors
    ///
    /// Returns [`RetrievalError::BadConfig`] for invalid IVF parameters
    /// or entries with disagreeing dimensions.
    pub fn build(entries: &[(VideoId, Tensor)], mode: IndexMode, seed: u64) -> Result<Self> {
        let dim = entries.first().map(|(_, feat)| feat.len()).unwrap_or(0);
        let mut ids = Vec::with_capacity(entries.len());
        let mut feats = Vec::with_capacity(entries.len() * dim);
        for (id, feat) in entries {
            if feat.len() != dim {
                return Err(RetrievalError::BadConfig(format!(
                    "shard features must share one dimension: got {} after {dim}",
                    feat.len()
                )));
            }
            ids.push(*id);
            feats.extend_from_slice(feat.as_slice());
        }
        Self::build_from_rows(ids, feats, dim, mode, seed)
    }

    /// Builds an index directly from flattened SoA storage: `ids.len()`
    /// rows of `dim` features each, row `r` at `feats[r*dim..(r+1)*dim]`.
    /// This is the epoch-rebuild entry point — a touched shard's staged
    /// rows (written once from the previous generation's matrix and the
    /// batch) become the next generation without materializing a tensor
    /// per row.
    ///
    /// # Errors
    ///
    /// Returns [`RetrievalError::BadConfig`] for invalid IVF parameters
    /// or when `feats.len() != ids.len() * dim`.
    pub fn build_from_rows(
        ids: Vec<VideoId>,
        feats: Vec<f32>,
        dim: usize,
        mode: IndexMode,
        seed: u64,
    ) -> Result<Self> {
        mode.validate()?;
        if feats.len() != ids.len() * dim {
            return Err(RetrievalError::BadConfig(format!(
                "flattened feature matrix must hold ids*dim floats: {} ids x {dim} != {}",
                ids.len(),
                feats.len()
            )));
        }
        if let IndexMode::Pq { m_sub, .. } = mode {
            if !ids.is_empty() && (dim == 0 || dim % m_sub != 0) {
                return Err(RetrievalError::BadConfig(format!(
                    "PQ m_sub must divide a positive feature dimension: dim {dim}, m_sub {m_sub}"
                )));
            }
        }
        let trained = match mode.coarse_params() {
            Some((nlist, nprobe)) if !ids.is_empty() => {
                let packed = LanePanels::pack(&feats, ids.len(), dim);
                let (ivf, assign) = train_ivf(&packed, nlist, nprobe, seed);
                let codec = match mode {
                    IndexMode::Pq { m_sub, nbits, rerank, .. } => {
                        let (books, codes) =
                            train_pq(&packed, &ivf.centroids, &assign, m_sub, nbits, seed);
                        Some(PqCodec::new(m_sub, dim / m_sub, &books, &codes, &ivf.lists, rerank))
                    }
                    _ => None,
                };
                Some((ivf, assign, codec))
            }
            _ => None,
        };
        Ok(Self::assemble(ids, feats, dim, mode, trained))
    }

    /// An index with zeroed counters over rows and, in the coarse modes,
    /// their trained quantizer, coarse assignment and PQ codec.
    fn assemble(
        ids: Vec<VideoId>,
        feats: Vec<f32>,
        dim: usize,
        mode: IndexMode,
        trained: Option<(Ivf, Vec<u32>, Option<PqCodec>)>,
    ) -> Self {
        let (ivf, coarse_assign, codec) = match trained {
            Some((ivf, assign, codec)) => (Some(ivf), assign, codec),
            None => (None, Vec::new(), None),
        };
        ShardIndex {
            ids,
            feats,
            dim,
            mode,
            ivf,
            coarse_assign,
            codec,
            queries: AtomicU64::new(0),
            probed_lists: AtomicU64::new(0),
            scanned_rows: AtomicU64::new(0),
            reranked_rows: AtomicU64::new(0),
            audit_queries: AtomicU64::new(0),
            audit_hits: AtomicU64::new(0),
            audit_expected: AtomicU64::new(0),
        }
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the index holds no rows.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Feature dimensionality (0 for an empty index).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The mode this index answers queries in.
    pub fn mode(&self) -> IndexMode {
        self.mode
    }

    /// The indexed ids, in row order.
    pub fn ids(&self) -> &[VideoId] {
        &self.ids
    }

    /// The feature vector of one row.
    ///
    /// # Panics
    ///
    /// Panics when `row >= self.len()`.
    pub fn feature(&self, row: usize) -> &[f32] {
        &self.feats[row * self.dim..(row + 1) * self.dim]
    }

    /// Number of inverted lists actually trained (0 in exact mode; capped
    /// at the row count in IVF mode).
    pub fn nlist(&self) -> usize {
        self.ivf.as_ref().map_or(0, |ivf| ivf.lists.len())
    }

    /// A snapshot of this shard's scan counters.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            queries: self.queries.load(Ordering::Relaxed),
            probed_lists: self.probed_lists.load(Ordering::Relaxed),
            scanned_rows: self.scanned_rows.load(Ordering::Relaxed),
            reranked_rows: self.reranked_rows.load(Ordering::Relaxed),
            audit_queries: self.audit_queries.load(Ordering::Relaxed),
            audit_hits: self.audit_hits.load(Ordering::Relaxed),
            audit_expected: self.audit_expected.load(Ordering::Relaxed),
        }
    }

    /// The local top-`m` nearest rows to `query`, ascending by
    /// `(distance, id)`. Two scoring paths serve every mode: exact
    /// distances over the whole shard (exact mode) or over the `nprobe`
    /// nearest lists (IVF), and PQ's ADC scan of the probed lists with an
    /// optional exact rerank tail. Exact mode is bit-identical to the
    /// seed scan.
    ///
    /// # Panics
    ///
    /// Panics when `query.len()` disagrees with the index dimension —
    /// the build-time dimension contract makes this the only check on
    /// the query path, hoisted out of the per-row loop.
    pub fn search(&self, query: &[f32], m: usize) -> Vec<ScoredId> {
        let qidx = self.queries.fetch_add(1, Ordering::Relaxed);
        if self.ids.is_empty() || m == 0 {
            return Vec::new();
        }
        assert_eq!(
            query.len(),
            self.dim,
            "query dimension must match the index dimension"
        );
        let Some(ivf) = &self.ivf else {
            self.scanned_rows.fetch_add(self.ids.len() as u64, Ordering::Relaxed);
            return self.rank_exact(0..self.ids.len(), query, m);
        };
        let probed = self.probed_lists(ivf, query);
        let scanned = probed.iter().map(|&l| ivf.lists[l].len()).sum::<usize>();
        self.probed_lists.fetch_add(probed.len() as u64, Ordering::Relaxed);
        self.scanned_rows.fetch_add(scanned as u64, Ordering::Relaxed);
        let results = match &self.codec {
            None => {
                let rows = probed.iter().flat_map(|&l| ivf.lists[l].iter().map(|&r| r as usize));
                self.rank_exact(rows, query, m)
            }
            Some(pq) => {
                let candidates = self.scan_pq(ivf, pq, &probed, scanned, query);
                self.select(candidates, pq.rerank, query, m)
            }
        };
        if qidx % AUDIT_PERIOD == 0 {
            // Recall audit: compare against the exact answer (counted
            // separately; audit scans do not inflate the kernel-row
            // counter).
            let exact = self.rank_exact(0..self.ids.len(), query, m);
            let hits = results.iter().filter(|s| exact.iter().any(|e| e.id == s.id)).count();
            self.audit_queries.fetch_add(1, Ordering::Relaxed);
            self.audit_hits.fetch_add(hits as u64, Ordering::Relaxed);
            self.audit_expected.fetch_add(exact.len() as u64, Ordering::Relaxed);
        }
        results
    }

    /// The top-`m` of `rows` by exact distance to `query`. Every exact
    /// answer ranks here: whole-shard scans and recall audits, IVF
    /// probes, and the rerank tail.
    fn rank_exact(
        &self,
        rows: impl IntoIterator<Item = usize>,
        query: &[f32],
        m: usize,
    ) -> Vec<ScoredId> {
        let mut top = TopM::new(m);
        exact_distances(&self.feats, self.dim, query, rows, |r, d| top.push(d, self.ids[r]));
        top.into_sorted()
    }

    /// Centroid ranking shared by every coarse mode: exact distances,
    /// ties toward the lower list index. Returns the `nprobe` nearest
    /// lists, nearest first.
    fn probed_lists(&self, ivf: &Ivf, query: &[f32]) -> Vec<usize> {
        let mut order = Vec::with_capacity(ivf.lists.len());
        exact_distances(&ivf.centroids, self.dim, query, 0..ivf.lists.len(), |c, d| {
            order.push((d, c));
        });
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        order.truncate(ivf.nprobe);
        order.into_iter().map(|(_, c)| c).collect()
    }

    /// The residual query `q − centroid[list]`.
    fn residual_query(&self, ivf: &Ivf, list: usize, query: &[f32], rq: &mut [f32]) {
        let centroid = &ivf.centroids[list * self.dim..(list + 1) * self.dim];
        for (d, (q, c)) in rq.iter_mut().zip(query.iter().zip(centroid)) {
            *d = q - c;
        }
    }

    /// PQ probe: per `probed` list, build the ADC lookup table for the
    /// residual query `q − centroid`, then score the list's code panels
    /// through [`adc_panel`] (`m_sub` table adds per row). Returns one
    /// [`candidate_key`] per scanned row (`scanned` in all).
    fn scan_pq(
        &self,
        ivf: &Ivf,
        pq: &PqCodec,
        probed: &[usize],
        scanned: usize,
        query: &[f32],
    ) -> Vec<u64> {
        let mut candidates = Vec::with_capacity(scanned);
        let mut rq = vec![0.0f32; self.dim];
        let mut lut = vec![0.0f32; pq.m_sub * pq.ksub];
        for &list in probed {
            let rows = &ivf.lists[list];
            if rows.is_empty() {
                continue;
            }
            self.residual_query(ivf, list, query, &mut rq);
            pq.fill_lut(&rq, &mut lut);
            let panels = pq.codes[list].chunks(CODE_LANES * pq.m_sub);
            for (panel, rows) in panels.zip(rows.chunks(CODE_LANES)) {
                // Full panels take the constant width, so the lane loop
                // compiles to whole vectors.
                let adc = if rows.len() == CODE_LANES {
                    adc_panel(&lut, pq.ksub, panel, CODE_LANES)
                } else {
                    adc_panel(&lut, pq.ksub, panel, rows.len())
                };
                candidates.extend(adc.iter().zip(rows).map(|(&d, &r)| candidate_key(d, r)));
            }
        }
        candidates
    }

    /// Ranks ADC candidates ([`candidate_key`]s of approximate distance
    /// and row). With `rerank == 0` they rank directly into the top-`m`.
    /// Otherwise the best `max(rerank, m)` under `(distance, row)` are
    /// selected and rescored exactly by [`ShardIndex::rank_exact`]. Both
    /// orders are total, so the result does not depend on scan order.
    fn select(
        &self,
        mut candidates: Vec<u64>,
        rerank: usize,
        query: &[f32],
        m: usize,
    ) -> Vec<ScoredId> {
        if rerank == 0 {
            let mut top = TopM::new(m);
            for key in candidates {
                let (d, row) = candidate_parts(key);
                top.push(d, self.ids[row as usize]);
            }
            return top.into_sorted();
        }
        let keep = rerank.max(m);
        if candidates.len() > keep {
            candidates.select_nth_unstable(keep - 1);
            candidates.truncate(keep);
        }
        self.reranked_rows.fetch_add(candidates.len() as u64, Ordering::Relaxed);
        let rows = candidates.iter().map(|&key| candidate_parts(key).1 as usize);
        self.rank_exact(rows, query, m)
    }

    /// Materializes `(id, feature)` pairs in row order. This clones every
    /// feature into a fresh tensor — callers that only need to *read* the
    /// gallery (epoch rebuilds, persistence, tests) should iterate
    /// [`ShardIndex::rows`] instead, which borrows straight from the SoA
    /// matrix.
    pub fn entries(&self) -> Vec<(VideoId, Tensor)> {
        self.rows()
            .map(|(id, row)| {
                let feat = Tensor::from_vec(row.to_vec(), &[self.dim])
                    .expect("row length equals dim by construction");
                (id, feat)
            })
            .collect()
    }

    /// Iterates `(id, feature-row)` pairs in row order, borrowing from
    /// the flattened storage — zero copies, zero allocations per row.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = (VideoId, &[f32])> + '_ {
        self.ids
            .iter()
            .zip(self.feats.chunks_exact(self.dim.max(1)))
            .map(|(&id, row)| (id, row))
    }

    /// The raw flattened feature matrix (row-major `len() × dim`).
    ///
    /// Retained in *every* mode — compressed modes scan codes but keep
    /// the f32 matrix as the writer-side source of truth: mutation
    /// staging, recall audits, the exact-rerank tail, and byte-stable
    /// persistence all read it (DESIGN.md §6h).
    pub fn features(&self) -> &[f32] {
        &self.feats
    }

    /// Bytes of retained f32 feature matrix.
    pub fn feature_bytes(&self) -> u64 {
        (self.feats.len() * 4) as u64
    }

    /// Bytes of PQ residual codes plus codebooks; 0 for uncompressed
    /// modes.
    pub fn code_bytes(&self) -> u64 {
        self.codec.as_ref().map_or(0, |pq| {
            (pq.codes.iter().map(Vec::len).sum::<usize>() + pq.codebooks.len() * 4) as u64
        })
    }

    /// Resident bytes the hot scan path touches, amortized per row:
    /// `dim × 4` for exact/IVF (the f32 matrix), or codes + codebooks +
    /// coarse centroids divided by the row count for PQ (the f32 matrix
    /// stays resident for writers and audits but is off the scan path).
    /// 0 for an empty index.
    pub fn scan_bytes_per_row(&self) -> f64 {
        let rows = self.ids.len();
        if rows == 0 {
            return 0.0;
        }
        match &self.codec {
            None => (self.dim * 4) as f64,
            Some(_) => {
                let centroids =
                    self.ivf.as_ref().map_or(0, |ivf| ivf.centroids.len() * 4);
                (self.code_bytes() as usize + centroids) as f64 / rows as f64
            }
        }
    }

    /// The quantized reconstruction of one row — what the PQ scan path
    /// effectively scores (`centroid + decoded residual`). For
    /// uncompressed modes this is the exact f32 row.
    ///
    /// # Panics
    ///
    /// Panics when `row >= self.len()`.
    pub fn decode_row(&self, row: usize) -> Vec<f32> {
        let (Some(pq), Some(ivf)) = (&self.codec, &self.ivf) else {
            return self.feature(row).to_vec();
        };
        let c = self.coarse_assign[row] as usize;
        // The row's panel and lane within its inverted list.
        let list = &ivf.lists[c];
        let pos = list.binary_search(&(row as u32)).expect("a row is in its own list");
        let (start, lane) = (pos - pos % CODE_LANES, pos % CODE_LANES);
        let width = (list.len() - start).min(CODE_LANES);
        let panel = &pq.codes[c][start * pq.m_sub..];
        let mut out = ivf.centroids[c * self.dim..(c + 1) * self.dim].to_vec();
        for (s, out) in out.chunks_exact_mut(pq.dsub).enumerate() {
            let k = usize::from(panel[s * width + lane]);
            for (j, o) in out.iter_mut().enumerate() {
                *o += pq.codebooks[(s * pq.dsub + j) * pq.ksub + k];
            }
        }
        out
    }

    /// Dismantles the trained index into the flat arrays the `DUOINDX3`
    /// writer serializes. Centroids/aux/codes are empty slices or
    /// vectors where the mode has none.
    pub(crate) fn parts(&self) -> IndexParts<'_> {
        let (aux, codes) = match (&self.codec, &self.ivf) {
            (Some(pq), Some(ivf)) => {
                (pq.codeword_major_codebooks(), pq.row_major_codes(&ivf.lists, self.ids.len()))
            }
            _ => (Vec::new(), Vec::new()),
        };
        IndexParts {
            ids: &self.ids,
            feats: &self.feats,
            centroids: self.ivf.as_ref().map_or(&[], |ivf| &ivf.centroids),
            assign: &self.coarse_assign,
            aux,
            codes,
        }
    }

    /// Reassembles an index from persisted `DUOINDX3` arrays without
    /// retraining: inverted lists rebuild from the stored assignment in
    /// ascending row order (the training construction), codebooks/codes
    /// are taken verbatim. The stored structures equal what retraining
    /// would produce — k-means is seeded — so this is purely a load-time
    /// shortcut, not a second source of truth.
    ///
    /// # Errors
    ///
    /// Returns [`RetrievalError::BadConfig`] for invalid modes, array
    /// lengths that disagree with `mode`/`dim`/row count (the codebooks
    /// must hold the `min(2^nbits, rows)` codewords per subspace that
    /// training produces), or PQ codes naming a codeword the codebooks do
    /// not hold.
    pub(crate) fn from_parts(
        ids: Vec<VideoId>,
        feats: Vec<f32>,
        dim: usize,
        mode: IndexMode,
        centroids: Vec<f32>,
        assign: Vec<u32>,
        aux: Vec<f32>,
        codes: Vec<u8>,
    ) -> Result<Self> {
        mode.validate()?;
        let rows = ids.len();
        if feats.len() != rows * dim {
            return Err(RetrievalError::BadConfig(format!(
                "flattened feature matrix must hold ids*dim floats: {rows} ids x {dim} != {}",
                feats.len()
            )));
        }
        let bad = |what: &str| RetrievalError::BadConfig(format!("DUOINDX3 {what} length mismatch"));
        let trained = match mode.coarse_params() {
            Some((nlist, nprobe)) if rows > 0 => {
                if dim == 0 || centroids.len() % dim != 0 || assign.len() != rows {
                    return Err(bad("coarse section"));
                }
                // Training caps the list count at the row count and never
                // trains fewer, so any other count contradicts the mode.
                let k = centroids.len() / dim;
                if k != nlist.min(rows) {
                    return Err(bad("coarse centroid"));
                }
                let mut lists: Vec<Vec<u32>> = vec![Vec::new(); k];
                for (row, &c) in assign.iter().enumerate() {
                    if c as usize >= k {
                        return Err(bad("coarse assignment"));
                    }
                    lists[c as usize].push(row as u32);
                }
                let codec = match mode {
                    IndexMode::Pq { m_sub, nbits, rerank, .. } => {
                        if dim % m_sub != 0 || codes.len() != rows * m_sub {
                            return Err(bad("pq codes"));
                        }
                        // Likewise each codebook: `min(2^nbits, rows)`
                        // codewords of `dim / m_sub` floats per subspace.
                        let ksub = (1usize << nbits).min(rows);
                        if aux.len() != ksub * dim {
                            return Err(bad("pq codebook"));
                        }
                        // The ADC kernel trusts every code to name a codeword.
                        if let Some(&c) = codes.iter().find(|&&c| usize::from(c) >= ksub) {
                            return Err(RetrievalError::BadConfig(format!(
                                "DUOINDX3 pq code {c} out of range for {ksub} codewords"
                            )));
                        }
                        Some(PqCodec::new(m_sub, dim / m_sub, &aux, &codes, &lists, rerank))
                    }
                    _ => None,
                };
                Some((Ivf { nprobe, centroids, lists }, assign, codec))
            }
            _ => None,
        };
        Ok(Self::assemble(ids, feats, dim, mode, trained))
    }
}

/// Borrowed flat views of a trained index, in the section order the
/// `DUOINDX3` writer lays them out.
pub(crate) struct IndexParts<'a> {
    /// Indexed ids, row order.
    pub ids: &'a [VideoId],
    /// Row-major f32 feature matrix.
    pub feats: &'a [f32],
    /// Coarse centroid matrix (empty in exact mode).
    pub centroids: &'a [f32],
    /// Per-row coarse list assignment (empty in exact mode).
    pub assign: &'a [u32],
    /// PQ codebooks, codeword-major (owned — the index stores them
    /// element-major; empty for uncompressed modes).
    pub aux: Vec<f32>,
    /// Row-major PQ codes (owned — the index keeps them in per-list
    /// panels; empty for uncompressed modes).
    pub codes: Vec<u8>,
}

/// Rows the training kernel scores together, one per SIMD lane: four
/// 512-bit vectors of `f32`. At this length the compiler vectorizes the
/// kernel's lane loops as loops, compare-and-select included. A
/// one-vector (16-lane) array is fully unrolled first, and small edits
/// to the kernel then left its compare-and-select scalar and several
/// times slower.
const TRAIN_LANES: usize = 64;

/// A row-major matrix repacked for the training kernel: rows grouped in
/// panels of [`TRAIN_LANES`], each panel stored column-major
/// (`dim × TRAIN_LANES`), the last panel zero-padded. Element `(row, j)`
/// sits at `data[(row / TRAIN_LANES * dim + j) * TRAIN_LANES + row % TRAIN_LANES]`,
/// so one contiguous load fetches element `j` of a whole panel's rows.
struct LanePanels {
    rows: usize,
    dim: usize,
    data: Vec<f32>,
}

impl LanePanels {
    /// Packs the `rows × dim` row-major matrix `src`.
    fn pack(src: &[f32], rows: usize, dim: usize) -> Self {
        let mut data = vec![0.0f32; rows.div_ceil(TRAIN_LANES) * dim * TRAIN_LANES];
        for row in 0..rows {
            let (panel, lane) = (row / TRAIN_LANES, row % TRAIN_LANES);
            let out = &mut data[panel * dim * TRAIN_LANES..][..dim * TRAIN_LANES];
            let x = &src[row * dim..(row + 1) * dim];
            for (o, &v) in out.iter_mut().skip(lane).step_by(TRAIN_LANES).zip(x) {
                *o = v;
            }
        }
        LanePanels { rows, dim, data }
    }

    /// Panel `p`: `dim` columns of [`TRAIN_LANES`] values each.
    fn panel(&self, p: usize) -> &[f32] {
        &self.data[p * self.dim * TRAIN_LANES..(p + 1) * self.dim * TRAIN_LANES]
    }

    /// Element `(row, j)`.
    fn get(&self, row: usize, j: usize) -> f32 {
        self.panel(row / TRAIN_LANES)[j * TRAIN_LANES + row % TRAIN_LANES]
    }

    /// The coarse residuals `x − centroid[assign[row]]`, packed the same
    /// way: the row-major subtraction, element for element.
    fn residuals(&self, centroids: &[f32], assign: &[u32]) -> Self {
        let dim = self.dim;
        let mut data = self.data.clone();
        for (p, rows) in assign.chunks(TRAIN_LANES).enumerate() {
            let panel = &mut data[p * dim * TRAIN_LANES..][..dim * TRAIN_LANES];
            for (lane, &c) in rows.iter().enumerate() {
                let cent = &centroids[c as usize * dim..][..dim];
                for (x, &cj) in panel.iter_mut().skip(lane).step_by(TRAIN_LANES).zip(cent) {
                    *x -= cj;
                }
            }
        }
        LanePanels { rows: self.rows, dim, data }
    }

    /// Columns `cols` of every row, packed as their own matrix.
    fn columns(&self, cols: std::ops::Range<usize>) -> Self {
        let width = cols.len() * TRAIN_LANES;
        let panels = self.rows.div_ceil(TRAIN_LANES);
        let mut data = Vec::with_capacity(panels * width);
        for p in 0..panels {
            data.extend_from_slice(&self.panel(p)[cols.start * TRAIN_LANES..][..width]);
        }
        LanePanels { rows: self.rows, dim: cols.len(), data }
    }

    /// The training kernel: the nearest of the `k` row-major `centroids`
    /// for every row, written to `assign`; returns whether any entry
    /// changed. Each lane is one row and runs the scalar loop's float
    /// program: centroids in ascending order, each scored by summing
    /// `(c − x)²` in increasing element order from `0.0`, kept only on a
    /// strict `<` — so the lowest index wins ties and every assignment is
    /// bit-identical to a row-at-a-time scan.
    fn assign_nearest(&self, centroids: &[f32], k: usize, assign: &mut [u32]) -> bool {
        let dim = self.dim;
        let mut changed = false;
        for (p, out) in assign.chunks_mut(TRAIN_LANES).enumerate() {
            let panel = self.panel(p);
            let mut best = [0u32; TRAIN_LANES];
            let mut best_d = [f32::INFINITY; TRAIN_LANES];
            for c in 0..k {
                let mut acc = [0.0f32; TRAIN_LANES];
                for (&cj, xs) in
                    centroids[c * dim..(c + 1) * dim].iter().zip(panel.chunks_exact(TRAIN_LANES))
                {
                    for (a, &x) in acc.iter_mut().zip(xs) {
                        let d = cj - x;
                        *a += d * d;
                    }
                }
                for ((bd, b), &a) in best_d.iter_mut().zip(&mut best).zip(&acc) {
                    if a < *bd {
                        *bd = a;
                        *b = c as u32;
                    }
                }
            }
            for (o, &b) in out.iter_mut().zip(&best) {
                changed |= *o != b;
                *o = b;
            }
        }
        changed
    }
}

/// Seeded Lloyd k-means over a packed matrix. Every step is a pure
/// function of `(data, seed)`: seeded sampling for the initial
/// centroids, assignment through the lane kernel
/// ([`LanePanels::assign_nearest`], lower-index tie-breaks), and f64
/// mean recomputation summing each cluster's rows in ascending row order
/// (empty clusters keep their previous centroid). Returns the trained
/// `k × dim` centroid matrix and the final per-row assignment. The IVF
/// coarse quantizer and every PQ subspace codebook train through this
/// one function.
fn kmeans(data: &LanePanels, k: usize, seed: u64) -> (Vec<f32>, Vec<u32>) {
    let (rows, dim) = (data.rows, data.dim);
    let k = k.min(rows);
    let mut rng = Rng64::new(seed);
    let mut centroids = Vec::with_capacity(k * dim);
    for row in rng.sample_indices(rows, k) {
        centroids.extend((0..dim).map(|j| data.get(row, j)));
    }
    let mut assign = vec![0u32; rows];
    let mut sums = vec![0.0f64; k * dim];
    let mut counts = vec![0u64; k];
    for round in 0..KMEANS_ROUNDS {
        let changed = data.assign_nearest(&centroids, k, &mut assign);
        if !changed && round > 0 {
            break;
        }
        // Update: per-cluster mean in f64. Panels in order, lanes in
        // order, so each (cluster, element) sum adds its rows in
        // ascending row order. Empty clusters keep their previous
        // centroid.
        sums.fill(0.0);
        counts.fill(0);
        for (p, rows) in assign.chunks(TRAIN_LANES).enumerate() {
            for (j, column) in data.panel(p).chunks_exact(TRAIN_LANES).enumerate() {
                for (&c, &x) in rows.iter().zip(column) {
                    sums[c as usize * dim + j] += f64::from(x);
                }
            }
            for &c in rows {
                counts[c as usize] += 1;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for j in 0..dim {
                    centroids[c * dim + j] = (sums[c * dim + j] / counts[c] as f64) as f32;
                }
            }
        }
    }
    (centroids, assign)
}

/// Trains the IVF coarse quantizer: seeded k-means, inverted lists in
/// ascending row order. Returns the structure plus the flat per-row
/// assignment (kept for residual decoding and persistence).
fn train_ivf(data: &LanePanels, nlist: usize, nprobe: usize, seed: u64) -> (Ivf, Vec<u32>) {
    let (centroids, assign) = kmeans(data, nlist, seed);
    let k = nlist.min(data.rows);
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); k];
    for (row, &c) in assign.iter().enumerate() {
        lists[c as usize].push(row as u32);
    }
    (Ivf { nprobe, centroids, lists }, assign)
}

/// Trains the product quantizer over the coarse residuals of the packed
/// shard matrix `data` and encodes every row. Subspace `s` trains its
/// own seeded k-means ([`pq_subspace_seed`]) on the rows' `dsub`-dim
/// residual slices; encoding is a final explicit nearest-codeword pass
/// (lowest index on ties) against the trained codebook, so codes are a
/// pure function of `(rows, seed)`. Returns the codeword-major codebooks
/// (`m_sub × ksub × dsub`) and the row-major codes.
fn train_pq(
    data: &LanePanels,
    centroids: &[f32],
    assign: &[u32],
    m_sub: usize,
    nbits: u32,
    seed: u64,
) -> (Vec<f32>, Vec<u8>) {
    let rows = assign.len();
    let dsub = data.dim / m_sub;
    let ksub = (1usize << nbits).min(rows);
    let residuals = data.residuals(centroids, assign);
    let mut codebooks = vec![0.0f32; m_sub * ksub * dsub];
    let mut codes = vec![0u8; rows * m_sub];
    let mut nearest = vec![0u32; rows];
    for s in 0..m_sub {
        let sub = residuals.columns(s * dsub..(s + 1) * dsub);
        let (book, _) = kmeans(&sub, ksub, pq_subspace_seed(seed, s));
        // Encode: explicit nearest-codeword pass against the *final*
        // codebook (k-means assignment may lag one update round).
        sub.assign_nearest(&book, ksub, &mut nearest);
        for (code, &k) in codes.iter_mut().skip(s).step_by(m_sub).zip(&nearest) {
            *code = k as u8;
        }
        codebooks[s * ksub * dsub..(s + 1) * ksub * dsub].copy_from_slice(&book);
    }
    (codebooks, codes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(points: &[(u32, Vec<f32>)]) -> Vec<(VideoId, Tensor)> {
        points
            .iter()
            .map(|(class, v)| {
                let n = v.len();
                (
                    VideoId { class: *class, instance: 0 },
                    Tensor::from_vec(v.clone(), &[n]).unwrap(),
                )
            })
            .collect()
    }

    fn line_gallery(n: u32) -> Vec<(VideoId, Tensor)> {
        entries(&(0..n).map(|i| (i, vec![i as f32, 0.0])).collect::<Vec<_>>())
    }

    #[test]
    fn exact_search_matches_sort_and_truncate() {
        let gallery = line_gallery(40);
        let index = ShardIndex::build(&gallery, IndexMode::Exact, 0).unwrap();
        let got = index.search(&[7.3, 0.0], 4);
        let mut reference: Vec<ScoredId> = gallery
            .iter()
            .map(|(id, feat)| ScoredId {
                id: *id,
                distance: feat
                    .sq_distance(&Tensor::from_vec(vec![7.3, 0.0], &[2]).unwrap())
                    .unwrap(),
            })
            .collect();
        reference.sort_by(|a, b| {
            a.distance
                .total_cmp(&b.distance)
                .then_with(|| (a.id.class, a.id.instance).cmp(&(b.id.class, b.id.instance)))
        });
        reference.truncate(4);
        assert_eq!(got.len(), reference.len());
        for (g, r) in got.iter().zip(&reference) {
            assert_eq!(g.id, r.id);
            assert_eq!(g.distance.to_bits(), r.distance.to_bits(), "bit-identical distances");
        }
    }

    #[test]
    fn full_probe_ivf_equals_exact() {
        let gallery = line_gallery(50);
        let exact = ShardIndex::build(&gallery, IndexMode::Exact, 0).unwrap();
        let ivf = ShardIndex::build(&gallery, IndexMode::ivf(5, 5), 99).unwrap();
        for q in [[0.0, 0.0], [12.6, 0.0], [49.9, 0.0]] {
            assert_eq!(ivf.search(&q, 7), exact.search(&q, 7));
        }
    }

    #[test]
    fn partial_probe_finds_local_neighbours() {
        // Two well-separated clusters; probing one list still answers the
        // in-cluster query perfectly.
        let mut points = Vec::new();
        for i in 0..20u32 {
            points.push((i, vec![i as f32 * 0.01, 0.0]));
            points.push((100 + i, vec![1000.0 + i as f32 * 0.01, 0.0]));
        }
        let index = ShardIndex::build(&entries(&points), IndexMode::ivf(2, 1), 7).unwrap();
        let got = index.search(&[0.05, 0.0], 3);
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|s| s.id.class < 100), "all answers from the near cluster");
    }

    #[test]
    fn stats_count_probes_and_rows() {
        let gallery = line_gallery(30);
        let index = ShardIndex::build(&gallery, IndexMode::ivf(3, 2), 3).unwrap();
        index.search(&[1.0, 0.0], 5);
        let stats = index.stats();
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.probed_lists, 2);
        assert!(stats.scanned_rows > 0 && stats.scanned_rows < 30);
        // First query is audited.
        assert_eq!(stats.audit_queries, 1);
        assert!(stats.recall_at_m().is_some());
    }

    #[test]
    fn exact_mode_counts_all_rows() {
        let index = ShardIndex::build(&line_gallery(30), IndexMode::Exact, 0).unwrap();
        index.search(&[1.0, 0.0], 5);
        index.search(&[2.0, 0.0], 5);
        let stats = index.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.scanned_rows, 60);
        assert_eq!(stats.probed_lists, 0);
        assert_eq!(stats.recall_at_m(), None);
    }

    #[test]
    fn rejects_mixed_dimensions_at_build() {
        let bad = vec![
            (VideoId { class: 0, instance: 0 }, Tensor::from_vec(vec![0.0, 0.0], &[2]).unwrap()),
            (VideoId { class: 1, instance: 0 }, Tensor::from_vec(vec![0.0], &[1]).unwrap()),
        ];
        assert!(ShardIndex::build(&bad, IndexMode::Exact, 0).is_err());
    }

    #[test]
    fn rejects_bad_ivf_parameters() {
        let gallery = line_gallery(4);
        assert!(ShardIndex::build(&gallery, IndexMode::ivf(0, 1), 0).is_err());
        assert!(ShardIndex::build(&gallery, IndexMode::ivf(4, 0), 0).is_err());
        assert!(ShardIndex::build(&gallery, IndexMode::ivf(2, 3), 0).is_err());
    }

    #[test]
    fn empty_index_answers_empty() {
        let index = ShardIndex::build(&[], IndexMode::ivf(4, 2), 0).unwrap();
        assert!(index.is_empty());
        assert!(index.search(&[1.0], 3).is_empty());
    }

    #[test]
    fn nlist_caps_at_row_count() {
        let index = ShardIndex::build(&line_gallery(3), IndexMode::ivf(16, 16), 1).unwrap();
        assert_eq!(index.nlist(), 3);
    }

    #[test]
    fn top_m_zero_cap_keeps_nothing() {
        let mut top = TopM::new(0);
        top.push(1.0, VideoId { class: 0, instance: 0 });
        assert!(top.is_empty());
        assert!(top.into_sorted().is_empty());
    }

    #[test]
    fn entries_round_trip() {
        let gallery = line_gallery(5);
        let index = ShardIndex::build(&gallery, IndexMode::Exact, 0).unwrap();
        assert_eq!(index.entries(), gallery);
    }

    #[test]
    fn mode_serializes_to_json() {
        assert_eq!(IndexMode::Exact.to_json().to_string(), r#"{"mode":"exact"}"#);
        assert_eq!(
            IndexMode::ivf(16, 4).to_json().to_string(),
            r#"{"mode":"ivf","nlist":16,"nprobe":4}"#
        );
        assert_eq!(
            IndexMode::pq(16, 4, 8, 8, 32).to_json().to_string(),
            r#"{"mode":"pq","nlist":16,"nprobe":4,"m_sub":8,"nbits":8,"rerank":32}"#
        );
    }

    /// A 2-D gallery whose points spread over both axes, so residuals
    /// are nontrivial in every PQ subspace.
    fn grid_gallery(n: u32) -> Vec<(VideoId, Tensor)> {
        entries(
            &(0..n)
                .map(|i| (i, vec![(i % 7) as f32, (i / 7) as f32 * 0.5]))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn pq_full_probe_full_rerank_equals_exact() {
        let gallery = grid_gallery(60);
        let exact = ShardIndex::build(&gallery, IndexMode::Exact, 0).unwrap();
        let pq = ShardIndex::build(&gallery, IndexMode::pq(4, 4, 2, 4, 60), 21).unwrap();
        for q in [[0.3, 0.1], [5.8, 3.3], [2.0, 4.0]] {
            let e = exact.search(&q, 6);
            let p = pq.search(&q, 6);
            assert_eq!(p.len(), e.len());
            for (a, b) in p.iter().zip(&e) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "bit-identical rerank");
            }
        }
    }

    #[test]
    fn pq_adc_without_rerank_finds_local_neighbours() {
        // Two tight, well-separated clusters: ADC distances are
        // approximate but the cluster structure must survive.
        let mut points = Vec::new();
        for i in 0..24u32 {
            points.push((i, vec![i as f32 * 0.01, 1.0]));
            points.push((100 + i, vec![500.0 + i as f32 * 0.01, -3.0]));
        }
        let index =
            ShardIndex::build(&entries(&points), IndexMode::pq(2, 1, 2, 8, 0), 5).unwrap();
        let got = index.search(&[0.05, 1.0], 4);
        assert_eq!(got.len(), 4);
        assert!(got.iter().all(|s| s.id.class < 100), "all answers from the near cluster");
        assert_eq!(index.stats().reranked_rows, 0, "rerank 0 never rescores");
    }

    #[test]
    fn rerank_counter_tracks_rescored_rows() {
        let gallery = grid_gallery(40);
        let index = ShardIndex::build(&gallery, IndexMode::pq(4, 2, 2, 8, 12), 3).unwrap();
        index.search(&[1.0, 1.0], 5);
        let stats = index.stats();
        assert!(stats.reranked_rows > 0);
        assert!(stats.reranked_rows <= 12.max(5) as u64, "at most max(rerank, m) rescored");
    }

    #[test]
    fn compressed_modes_shrink_the_scan_footprint() {
        let gallery: Vec<(VideoId, Tensor)> = (0..400u32)
            .map(|i| {
                let v: Vec<f32> = (0..8).map(|d| ((i * 31 + d * 7) % 97) as f32).collect();
                (VideoId { class: i, instance: 0 }, Tensor::from_vec(v, &[8]).unwrap())
            })
            .collect();
        let exact = ShardIndex::build(&gallery, IndexMode::Exact, 0).unwrap();
        // 4-bit codes: at this tiny scale an 8-bit codebook (256
        // codewords) would outweigh the codes themselves.
        let pq = ShardIndex::build(&gallery, IndexMode::pq(8, 2, 4, 4, 0), 1).unwrap();
        assert_eq!(exact.code_bytes(), 0);
        assert_eq!(exact.scan_bytes_per_row(), 32.0, "8 dims x 4 bytes");
        assert!(pq.code_bytes() > 0);
        assert!(pq.scan_bytes_per_row() < exact.scan_bytes_per_row() / 4.0);
        // The f32 matrix stays resident in every mode (writer-side truth).
        assert_eq!(pq.feature_bytes(), exact.feature_bytes());
    }

    #[test]
    fn rejects_bad_pq_parameters() {
        let gallery = grid_gallery(8);
        assert!(ShardIndex::build(&gallery, IndexMode::pq(2, 1, 0, 8, 0), 0).is_err());
        assert!(ShardIndex::build(&gallery, IndexMode::pq(2, 1, 2, 0, 0), 0).is_err());
        assert!(ShardIndex::build(&gallery, IndexMode::pq(2, 1, 2, 9, 0), 0).is_err());
        // dim 2 is not divisible by m_sub 3.
        assert!(ShardIndex::build(&gallery, IndexMode::pq(2, 1, 3, 8, 0), 0).is_err());
        // Zero-dimensional rows leave no subspace to quantize.
        let flat = entries(&[(0, vec![]), (1, vec![])]);
        assert!(ShardIndex::build(&flat, IndexMode::pq(2, 1, 1, 8, 0), 0).is_err());
    }

    #[test]
    fn compressed_queries_are_audited() {
        let gallery = grid_gallery(40);
        let index = ShardIndex::build(&gallery, IndexMode::pq(4, 2, 2, 8, 0), 11).unwrap();
        index.search(&[1.0, 1.0], 5);
        let stats = index.stats();
        assert_eq!(stats.audit_queries, 1, "first compressed query is audited");
        assert!(stats.recall_at_m().is_some());
    }

    #[test]
    fn from_parts_round_trips_a_trained_index() {
        for mode in [IndexMode::Exact, IndexMode::ivf(4, 2), IndexMode::pq(4, 2, 2, 8, 6)] {
            let gallery = grid_gallery(36);
            let built = ShardIndex::build(&gallery, mode, 17).unwrap();
            let parts = built.parts();
            let back = ShardIndex::from_parts(
                parts.ids.to_vec(),
                parts.feats.to_vec(),
                built.dim(),
                mode,
                parts.centroids.to_vec(),
                parts.assign.to_vec(),
                parts.aux.clone(),
                parts.codes.clone(),
            )
            .unwrap();
            for q in [[0.4, 0.2], [5.0, 3.0], [2.5, 1.5]] {
                assert_eq!(back.search(&q, 5), built.search(&q, 5), "{mode:?}");
            }
            assert_eq!(back.code_bytes(), built.code_bytes());
        }
    }

    /// The seed's scalar kernels, kept verbatim: the oracles the lane
    /// kernels must match bit for bit.
    mod oracle {
        use super::super::{
            pq_subspace_seed, IndexMode, IndexStats, ShardIndex, AUDIT_PERIOD, KMEANS_ROUNDS,
        };
        use crate::ScoredId;
        use duo_tensor::Rng64;
        use duo_video::VideoId;

        /// The per-row coarse residuals `x − centroid[assign[row]]`,
        /// flattened row-major.
        fn coarse_residuals(
            feats: &[f32],
            dim: usize,
            centroids: &[f32],
            assign: &[u32],
        ) -> Vec<f32> {
            let mut residuals = vec![0.0f32; feats.len()];
            for (row, &c) in assign.iter().enumerate() {
                let x = &feats[row * dim..(row + 1) * dim];
                let cent = &centroids[c as usize * dim..(c as usize + 1) * dim];
                let out = &mut residuals[row * dim..(row + 1) * dim];
                for ((o, &a), &b) in out.iter_mut().zip(x).zip(cent) {
                    *o = a - b;
                }
            }
            residuals
        }

        /// One row's squared Euclidean distance, accumulated in strictly
        /// sequential element order — bit-identical to `Tensor::sq_distance` on
        /// the same data.
        pub(in super::super) fn sq_distance_row(row: &[f32], query: &[f32]) -> f32 {
            let mut acc = 0.0f32;
            for (a, b) in row.iter().zip(query) {
                let d = a - b;
                acc += d * d;
            }
            acc
        }

        /// Seeded Lloyd k-means over a flattened row-major matrix. Every step is
        /// a pure function of `(data, seed)`: seeded sampling for the initial
        /// centroids, sequential assignment with lower-index tie-breaks, and
        /// fixed-order f64 mean recomputation (empty clusters keep their
        /// previous centroid). Returns the trained `k × dim` centroid matrix and
        /// the final per-row assignment. The IVF coarse quantizer and every PQ
        /// subspace codebook train through this one function.
        pub(super) fn kmeans(
            data: &[f32],
            dim: usize,
            rows: usize,
            k: usize,
            seed: u64,
        ) -> (Vec<f32>, Vec<u32>) {
            let k = k.min(rows);
            let mut rng = Rng64::new(seed);
            let mut centroids = Vec::with_capacity(k * dim);
            for row in rng.sample_indices(rows, k) {
                centroids.extend_from_slice(&data[row * dim..(row + 1) * dim]);
            }
            let mut assign = vec![0u32; rows];
            for round in 0..KMEANS_ROUNDS {
                // Assignment: nearest centroid, first (lowest-index) winner on ties.
                let mut changed = false;
                for row in 0..rows {
                    let rf = &data[row * dim..(row + 1) * dim];
                    let mut best = 0usize;
                    let mut best_d = f32::INFINITY;
                    for c in 0..k {
                        let d = sq_distance_row(&centroids[c * dim..(c + 1) * dim], rf);
                        if d < best_d {
                            best_d = d;
                            best = c;
                        }
                    }
                    if assign[row] != best as u32 {
                        assign[row] = best as u32;
                        changed = true;
                    }
                }
                if !changed && round > 0 {
                    break;
                }
                // Update: per-cluster mean in f64, sequential row order. Empty
                // clusters keep their previous centroid.
                let mut sums = vec![0.0f64; k * dim];
                let mut counts = vec![0u64; k];
                for row in 0..rows {
                    let c = assign[row] as usize;
                    counts[c] += 1;
                    for j in 0..dim {
                        sums[c * dim + j] += f64::from(data[row * dim + j]);
                    }
                }
                for c in 0..k {
                    if counts[c] > 0 {
                        for j in 0..dim {
                            centroids[c * dim + j] = (sums[c * dim + j] / counts[c] as f64) as f32;
                        }
                    }
                }
            }
            (centroids, assign)
        }

        /// Trains the product quantizer over coarse residuals and encodes every
        /// row. Subspace `s` trains its own seeded k-means
        /// ([`pq_subspace_seed`]) on the rows' `dsub`-dim residual slices;
        /// encoding is a final explicit nearest-codeword pass (lowest index on
        /// ties) against the trained codebook, so codes are a pure function of
        /// `(feats, seed)`. Returns the codebooks and the row-major codes.
        pub(super) fn train_pq(
            feats: &[f32],
            dim: usize,
            centroids: &[f32],
            assign: &[u32],
            m_sub: usize,
            nbits: u32,
            seed: u64,
        ) -> (Vec<f32>, Vec<u8>) {
            let rows = assign.len();
            let dsub = dim / m_sub;
            let ksub = (1usize << nbits).min(rows);
            let residuals = coarse_residuals(feats, dim, centroids, assign);
            let mut codebooks = vec![0.0f32; m_sub * ksub * dsub];
            let mut codes = vec![0u8; rows * m_sub];
            let mut sub_data = vec![0.0f32; rows * dsub];
            for s in 0..m_sub {
                for row in 0..rows {
                    sub_data[row * dsub..(row + 1) * dsub].copy_from_slice(
                        &residuals[row * dim + s * dsub..row * dim + (s + 1) * dsub],
                    );
                }
                let (book, _) = kmeans(&sub_data, dsub, rows, ksub, pq_subspace_seed(seed, s));
                // Encode: explicit nearest-codeword pass against the *final*
                // codebook (k-means assignment may lag one update round).
                for row in 0..rows {
                    let rf = &sub_data[row * dsub..(row + 1) * dsub];
                    let mut best = 0usize;
                    let mut best_d = f32::INFINITY;
                    for k in 0..ksub {
                        let d = sq_distance_row(&book[k * dsub..(k + 1) * dsub], rf);
                        if d < best_d {
                            best_d = d;
                            best = k;
                        }
                    }
                    codes[row * m_sub + s] = best as u8;
                }
                codebooks[s * ksub * dsub..(s + 1) * ksub * dsub].copy_from_slice(&book);
            }
            (codebooks, codes)
        }

        /// The serial search: every distance a [`sq_distance_row`] or a
        /// serial ADC sum, every selection a full sort under the index's
        /// total orders, the rerank tail the top `max(rerank, m)` ADC
        /// candidates rescored exactly. Reads the PQ codebooks and codes
        /// through `parts()`, in the `DUOINDX3` layout. Returns the answer
        /// and the counters one search at query index `qidx` adds.
        pub(in super::super) fn search(
            index: &ShardIndex,
            query: &[f32],
            m: usize,
            qidx: u64,
        ) -> (Vec<ScoredId>, IndexStats) {
            let mut delta = IndexStats { queries: 1, ..IndexStats::default() };
            if index.ids.is_empty() || m == 0 {
                return (Vec::new(), delta);
            }
            let dim = index.dim;
            let row = |r: u32| &index.feats[r as usize * dim..(r as usize + 1) * dim];
            let id = |r: u32| index.ids[r as usize];
            let top_m = |mut scored: Vec<(f32, VideoId)>| {
                scored.sort_by(|a, b| {
                    a.0.total_cmp(&b.0)
                        .then_with(|| (a.1.class, a.1.instance).cmp(&(b.1.class, b.1.instance)))
                });
                scored.truncate(m);
                let scored = scored.into_iter().map(|(distance, id)| ScoredId { id, distance });
                scored.collect::<Vec<_>>()
            };
            let all = 0..index.ids.len() as u32;
            let exact = top_m(all.map(|r| (sq_distance_row(row(r), query), id(r))).collect());
            let Some(ivf) = &index.ivf else {
                delta.scanned_rows = index.ids.len() as u64;
                return (exact, delta);
            };
            let centroid = |c: usize| &ivf.centroids[c * dim..(c + 1) * dim];
            let mut order: Vec<(f32, usize)> =
                (0..ivf.lists.len()).map(|c| (sq_distance_row(centroid(c), query), c)).collect();
            order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let probed: Vec<usize> = order.iter().take(ivf.nprobe).map(|&(_, c)| c).collect();
            delta.probed_lists = probed.len() as u64;
            delta.scanned_rows = probed.iter().map(|&c| ivf.lists[c].len() as u64).sum();
            let residual = |c: usize| -> Vec<f32> {
                query.iter().zip(centroid(c)).map(|(q, x)| q - x).collect()
            };
            let parts = index.parts();
            let mut candidates: Vec<(f32, u32)> = Vec::new();
            let results = match &index.codec {
                None => top_m(
                    probed
                        .iter()
                        .flat_map(|&c| &ivf.lists[c])
                        .map(|&r| (sq_distance_row(row(r), query), id(r)))
                        .collect(),
                ),
                Some(pq) => {
                    for &c in &probed {
                        let rq = residual(c);
                        let (m_sub, ksub, dsub) = (pq.m_sub, pq.ksub, pq.dsub);
                        let lut: Vec<f32> = (0..m_sub * ksub)
                            .map(|i| {
                                let word = &parts.aux[i * dsub..(i + 1) * dsub];
                                let s = i / ksub;
                                sq_distance_row(word, &rq[s * dsub..(s + 1) * dsub])
                            })
                            .collect();
                        for &r in &ivf.lists[c] {
                            let code = &parts.codes[r as usize * m_sub..][..m_sub];
                            let mut adc = 0.0f32;
                            for (s, &k) in code.iter().enumerate() {
                                adc += lut[s * ksub + usize::from(k)];
                            }
                            candidates.push((adc, r));
                        }
                    }
                    let rerank = match index.mode {
                        IndexMode::Pq { rerank, .. } => rerank,
                        _ => 0,
                    };
                    if rerank == 0 {
                        top_m(candidates.iter().map(|&(d, r)| (d, id(r))).collect())
                    } else {
                        candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                        candidates.truncate(rerank.max(m));
                        delta.reranked_rows = candidates.len() as u64;
                        top_m(
                            candidates
                                .iter()
                                .map(|&(_, r)| (sq_distance_row(row(r), query), id(r)))
                                .collect(),
                        )
                    }
                }
            };
            if qidx % AUDIT_PERIOD == 0 {
                delta.audit_queries = 1;
                delta.audit_hits =
                    results.iter().filter(|s| exact.iter().any(|e| e.id == s.id)).count() as u64;
                delta.audit_expected = exact.len() as u64;
            }
            (results, delta)
        }
    }

    /// Row values for the oracle sweep: tight clusters (the coarse
    /// quantizer settles early), a small integer grid full of exact
    /// distance ties and duplicate rows (the tie rule decides), or
    /// magnitudes spread over 2^±30, whose f64 cluster sums round, so
    /// their summation order shows in the centroids.
    fn sweep_rows(rng: &mut Rng64, rows: usize, dim: usize) -> Vec<f32> {
        match rng.below(3) {
            0 => {
                let centres: Vec<f32> = (0..4 * dim).map(|_| rng.uniform() * 8.0).collect();
                (0..rows)
                    .flat_map(|_| {
                        let c = rng.below(4);
                        (0..dim)
                            .map(|j| centres[c * dim + j] + 0.1 * rng.uniform())
                            .collect::<Vec<_>>()
                    })
                    .collect()
            }
            1 => (0..rows * dim).map(|_| rng.below(3) as f32 - 1.0).collect(),
            _ => (0..rows * dim)
                .map(|_| (rng.uniform() - 0.5) * 2f32.powi(rng.below(61) as i32 - 30))
                .collect(),
        }
    }

    /// Whether `assign` is already the nearest-centroid assignment of
    /// `centroids`: true when the run ended at a fixed point (where Lloyd
    /// stops on its own), false when [`KMEANS_ROUNDS`] cut it off while
    /// assignments were still moving.
    fn settled(data: &LanePanels, centroids: &[f32], assign: &[u32]) -> bool {
        let mut again = assign.to_vec();
        !data.assign_nearest(centroids, centroids.len() / data.dim, &mut again)
    }

    #[test]
    fn lane_training_is_bit_identical_to_the_scalar_oracle() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = Rng64::new(0x0AC1E);
        let (mut coarse_settled, mut subspace_capped) = (0, 0);
        for case in 0..160u64 {
            // Row counts include 1, counts off the lane width, and counts
            // below nlist / 2^nbits.
            let rows = match case % 4 {
                0 => 1 + rng.below(TRAIN_LANES * 2),
                _ => 1 + rng.below(600),
            };
            let dsub = 1 << rng.below(5);
            let m_sub = (8usize.div_ceil(dsub) + rng.below(128 / dsub)).min(128 / dsub);
            let dim = m_sub * dsub;
            let nlist = 1 + rng.below(16);
            let nbits = 1 + rng.below(8) as u32;
            let seed = rng.below(1 << 30) as u64;
            let feats = sweep_rows(&mut rng, rows, dim);
            let what =
                format!("case {case}: {rows}x{dim} nlist {nlist} m_sub {m_sub} nbits {nbits}");

            let (want_c, want_a) = oracle::kmeans(&feats, dim, rows, nlist, seed);
            let packed = LanePanels::pack(&feats, rows, dim);
            let (got_c, got_a) = kmeans(&packed, nlist, seed);
            assert_eq!(bits(&got_c), bits(&want_c), "coarse centroids, {what}");
            assert_eq!(got_a, want_a, "coarse assignment, {what}");
            coarse_settled += usize::from(settled(&packed, &got_c, &got_a));

            let (want_books, want_codes) =
                oracle::train_pq(&feats, dim, &want_c, &want_a, m_sub, nbits, seed);
            let (got_books, got_codes) = train_pq(&packed, &got_c, &got_a, m_sub, nbits, seed);
            assert_eq!(bits(&got_books), bits(&want_books), "codebooks, {what}");
            assert_eq!(got_codes, want_codes, "codes, {what}");

            let sub = packed.residuals(&got_c, &got_a).columns(0..dsub);
            let ksub = (1usize << nbits).min(rows);
            let (book, assign) = kmeans(&sub, ksub, pq_subspace_seed(seed, 0));
            subspace_capped += usize::from(!settled(&sub, &book, &assign));
        }
        assert!(coarse_settled > 0, "no coarse run reached a fixed point");
        assert!(subspace_capped > 0, "no subspace run was cut off by the round cap");
    }

    #[test]
    fn candidate_keys_order_like_total_cmp_and_round_trip() {
        let tiny = f32::MIN_POSITIVE / 2.0;
        let values =
            [f32::NEG_INFINITY, -1.5, -tiny, -0.0, 0.0, tiny, 1.0, f32::INFINITY, f32::NAN, -f32::NAN];
        for &a in &values {
            for &b in &values {
                for (ra, rb) in [(0u32, 1u32), (1, 0), (7, 7)] {
                    let want = a.total_cmp(&b).then(ra.cmp(&rb));
                    let got = candidate_key(a, ra).cmp(&candidate_key(b, rb));
                    assert_eq!(got, want, "({a}, {ra}) vs ({b}, {rb})");
                }
            }
            let (d, row) = candidate_parts(candidate_key(a, u32::MAX));
            assert_eq!((d.to_bits(), row), (a.to_bits(), u32::MAX));
        }
    }

    /// Rows for the search sweep: [`sweep_rows`] data with some rows
    /// copied over others (exact distance ties between distinct ids) and
    /// about half the zeros negated (±0.0).
    fn search_rows(rng: &mut Rng64, rows: usize, dim: usize) -> Vec<f32> {
        let mut feats = sweep_rows(rng, rows, dim);
        for _ in 0..rng.below(rows / 4 + 1) {
            let (from, to) = (rng.below(rows), rng.below(rows));
            feats.copy_within(from * dim..(from + 1) * dim, to * dim);
        }
        for x in &mut feats {
            if *x == 0.0 && rng.below(2) == 0 {
                *x = -*x;
            }
        }
        feats
    }

    /// A sweep query: a gallery row with its zeros' signs flipped (exact
    /// ties with the row and its duplicates), a perturbed row, a fresh
    /// row, or the origin.
    fn search_query(rng: &mut Rng64, feats: &[f32], dim: usize) -> Vec<f32> {
        let rows = feats.len() / dim.max(1);
        let pick = rng.below(4);
        if rows > 0 && pick < 2 {
            let row = &feats[rng.below(rows) * dim..][..dim];
            if pick == 0 {
                return row.iter().map(|&x| if x == 0.0 { -x } else { x }).collect();
            }
            return row.iter().map(|&x| x + (rng.uniform() - 0.5) * 0.25).collect();
        }
        if pick == 2 {
            return sweep_rows(rng, 1, dim);
        }
        vec![0.0; dim]
    }

    fn scored_bits(list: &[ScoredId]) -> Vec<(VideoId, u32)> {
        list.iter().map(|s| (s.id, s.distance.to_bits())).collect()
    }

    fn stats_delta(after: &IndexStats, before: &IndexStats) -> IndexStats {
        IndexStats {
            queries: after.queries - before.queries,
            probed_lists: after.probed_lists - before.probed_lists,
            scanned_rows: after.scanned_rows - before.scanned_rows,
            reranked_rows: after.reranked_rows - before.reranked_rows,
            audit_queries: after.audit_queries - before.audit_queries,
            audit_hits: after.audit_hits - before.audit_hits,
            audit_expected: after.audit_expected - before.audit_expected,
        }
    }

    #[test]
    fn search_is_bit_identical_to_the_serial_oracle() {
        let mut rng = Rng64::new(0x5EA4C);
        let (mut empty_lists, mut short_lists, mut long_lists, mut ksub_capped) = (0, 0, 0, 0);
        for case in 0..96u64 {
            // Row counts include 0, counts off both lane widths, and
            // counts below nlist / 2^nbits.
            let rows = match case % 4 {
                0 => rng.below(CODE_LANES + 1),
                1 => rng.below(4 * SCAN_LANES),
                _ => rng.below(601),
            };
            let dsub = 1 + rng.below(16);
            let m_sub = 1 + rng.below(64 / dsub);
            let dim = m_sub * dsub;
            let nlist = 1 + rng.below(16);
            let nprobe = 1 + rng.below(nlist);
            let nbits = 1 + rng.below(8) as u32;
            let m = 1 + rng.below(24);
            // No rerank, a tail no deeper than m, or one deeper than the
            // shard.
            let rerank = match rng.below(3) {
                0 => 0,
                1 => 1 + rng.below(m),
                _ => rows + 1 + rng.below(64),
            };
            let seed = rng.below(1 << 30) as u64;
            let feats = search_rows(&mut rng, rows, dim);
            // Ids out of row order, so (distance, id) and (distance, row)
            // ties resolve differently.
            let ids: Vec<VideoId> = (0..rows as u32)
                .map(|r| VideoId { class: rng.below(64) as u32, instance: r })
                .collect();
            let what = format!(
                "case {case}: {rows}x{dim} (dsub {dsub}) nlist {nlist} nprobe {nprobe} \
                 nbits {nbits} m {m} rerank {rerank}"
            );
            for mode in [
                IndexMode::Exact,
                IndexMode::ivf(nlist, nprobe),
                IndexMode::pq(nlist, nprobe, m_sub, nbits, rerank),
            ] {
                let index =
                    ShardIndex::build_from_rows(ids.clone(), feats.clone(), dim, mode, seed)
                        .unwrap();
                if let Some(ivf) = &index.ivf {
                    for list in &ivf.lists {
                        empty_lists += usize::from(list.is_empty());
                        short_lists += usize::from(!list.is_empty() && list.len() < CODE_LANES);
                        long_lists += usize::from(
                            list.len() > CODE_LANES && list.len() % CODE_LANES != 0,
                        );
                    }
                }
                if let Some(pq) = &index.codec {
                    ksub_capped += usize::from(pq.ksub < 1 << nbits);
                }
                for _ in 0..AUDIT_PERIOD + 2 {
                    let query = search_query(&mut rng, &feats, dim);
                    let before = index.stats();
                    let got = index.search(&query, m);
                    let (want, want_delta) = oracle::search(&index, &query, m, before.queries);
                    assert_eq!(scored_bits(&got), scored_bits(&want), "{mode:?}, {what}");
                    assert_eq!(
                        stats_delta(&index.stats(), &before),
                        want_delta,
                        "{mode:?} counters, {what}"
                    );
                }
            }
        }
        assert!(empty_lists > 0, "no empty inverted list");
        assert!(short_lists > 0, "no list shorter than a code panel");
        assert!(long_lists > 0, "no list ending in a partial panel after a full one");
        assert!(ksub_capped > 0, "no PQ codebook capped below 2^nbits");
    }
}
