//! Deterministic fixed-size thread pool for intra-op kernel parallelism.
//!
//! The parallel kernels in this crate ([`crate::matmul_into`] and the
//! convolution forward [`crate::gemm_im2col3d`] built on it) split
//! their *output rows* across workers. Each worker owns a disjoint,
//! contiguous row range and runs exactly the same per-row code as the
//! serial kernel, so the per-element `f32` accumulation order — and
//! therefore every output bit — is independent of the thread count. The
//! pool below only has to guarantee plumbing properties: jobs run exactly
//! once, results come back in submission order, a panicking job is
//! contained (never poisons or deadlocks the pool), and dropping the pool
//! joins every worker.
//!
//! # Job-ring dispatch
//!
//! Each worker owns a private bounded job ring — a long-lived
//! `sync_channel` of capacity [`RING_CAPACITY`] created once at spawn —
//! instead of the shared mutex-guarded injector queue earlier revisions
//! used. Dispatching a row stripe is therefore one enqueue onto the
//! target worker's ring (lock-free array ring buffer in std's channel
//! implementation), with no per-call channel setup and no receiver-lock
//! contention between workers. Batches are stamped with a monotone
//! *generation* from a pool-wide counter; every job echoes its batch
//! generation alongside its result, and the collector verifies the echo,
//! so a result can never be attributed to the wrong batch even with many
//! concurrent callers. Jobs within a batch are assigned round-robin from
//! a rotating start worker, which keeps single-batch GEMM dispatch "one
//! stripe per worker" while spreading concurrent batches across rings.
//! Rings are bounded, so a caller that enqueues more than
//! [`RING_CAPACITY`] jobs per worker simply blocks until the worker
//! drains — backpressure, not failure (tortured in
//! `tests/pool_ring_torture.rs`).
//!
//! The whole crate is `#![forbid(unsafe_code)]`, so the pool cannot lend
//! borrowed slices across threads the way `rayon`'s scoped tasks do.
//! Instead every job is a `'static` closure owning its inputs: callers
//! share packed operands via `Arc` (see [`crate::PackedA`]), and workers
//! return owned output stripes that the caller stitches back together.
//! For the GEMM-shaped workloads this pool exists for, those shares are
//! `O(n²)` against `O(n³)` compute and disappear in the noise.
//!
//! # Example
//!
//! ```
//! use duo_tensor::ThreadPool;
//!
//! let pool = ThreadPool::new(2);
//! let jobs: Vec<_> = (0..8).map(|i| move || i * i).collect();
//! let squares = pool.run(jobs)?;
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! # Ok::<(), duo_tensor::PoolError>(())
//! ```

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Largest thread count the automatic (`intra_op_threads == 0`) setting
/// resolves to; explicit settings may exceed it.
pub const MAX_AUTO_THREADS: usize = 8;

/// Bounded capacity of each worker's private job ring. A batch may
/// enqueue arbitrarily more jobs than this per worker — the dispatcher
/// blocks until the ring drains (backpressure), it never drops or fails.
pub const RING_CAPACITY: usize = 64;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// One entry on a worker's job ring: the dispatching batch's generation
/// stamp plus the panic-wrapped work closure.
type RingJob = (u64, Job);

thread_local! {
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Error returned by [`ThreadPool::run`] when a job panicked.
///
/// The panic is contained: every other job in the batch still runs to
/// completion, the worker that caught the panic keeps serving its ring,
/// and the pool remains fully usable afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolError {
    /// Submission index of the first (lowest-index) panicked job.
    pub index: usize,
    /// Panic payload rendered as text.
    pub message: String,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for PoolError {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

/// A fixed-size pool of `std::thread` workers, each draining its own
/// persistent bounded job ring.
///
/// See `DESIGN.md` §6e for the determinism contract and the ring
/// dispatch protocol. Dropping the pool disconnects every ring and joins
/// every worker, so a pool can be created and torn down freely (the
/// property-test suites build pools of many sizes per case).
pub struct ThreadPool {
    rings: Vec<SyncSender<RingJob>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    /// Monotone batch stamp; see [`ThreadPool::generation`].
    generation: AtomicU64,
    /// Rotating ring cursor so concurrent batches start on different
    /// workers instead of all hammering ring 0.
    cursor: AtomicUsize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .field("generation", &self.generation.load(Ordering::Relaxed))
            .finish()
    }
}

impl ThreadPool {
    /// Spawns a pool with `threads` workers (`0` is clamped to `1`),
    /// each owning a private job ring of [`RING_CAPACITY`] slots.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let mut rings = Vec::with_capacity(threads);
        let workers = (0..threads)
            .map(|_| {
                let (tx, rx) = sync_channel::<RingJob>(RING_CAPACITY);
                rings.push(tx);
                std::thread::spawn(move || worker_loop(&rx))
            })
            .collect();
        ThreadPool {
            rings,
            workers,
            threads,
            generation: AtomicU64::new(0),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Number of worker threads (= number of job rings).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of batches dispatched over this pool's rings so far. Each
    /// [`ThreadPool::run`] call claims the next generation; the stamp
    /// travels with every job and is echoed back with its result, where
    /// the collector verifies it.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// True when called from inside a pool worker thread (any pool).
    ///
    /// The parallel kernels consult this to fall back to their serial path
    /// instead of re-entering a pool: a job that blocked on a nested
    /// `run` while every worker was busy running such jobs would deadlock
    /// (and with bounded rings, so could a nested dispatch into a full
    /// ring). Tortured in `tests/pool_ring_torture.rs`.
    pub fn is_worker() -> bool {
        IS_POOL_WORKER.with(Cell::get)
    }

    /// Runs every job and returns their results in submission order.
    ///
    /// Jobs are assigned round-robin onto the per-worker rings starting
    /// from a rotating cursor, so a GEMM-style batch of `threads` stripes
    /// costs exactly one enqueue per worker. Jobs may outnumber workers
    /// (and even exceed [`RING_CAPACITY`] per ring — dispatch then blocks
    /// until the ring drains), and `run` may be called from many threads
    /// at once: each batch routes results over its own channel stamped
    /// with the batch generation, so batches never observe each other.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError`] describing the lowest-index panicked job.
    /// All jobs in the batch have finished (or panicked) by the time this
    /// returns, success or failure.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Result<Vec<T>, PoolError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.run_with_local(jobs, || ()).0
    }

    /// [`ThreadPool::run`], with the calling thread doing useful work
    /// instead of idling: `jobs` are enqueued onto the rings first, then
    /// `local` runs *on the caller* while the workers chew, and only then
    /// does the caller block draining results. The parallel GEMM hands
    /// its first output stripe to `local`, which both saves one
    /// enqueue/wakeup round-trip and keeps the caller's core busy —
    /// exactly the stripe that would otherwise be computed by a worker
    /// while the caller sleeps. `local` needs no `'static` bound (it
    /// never leaves the caller), so it may borrow the output buffer
    /// directly.
    pub fn run_with_local<T, F, L, R>(
        &self,
        jobs: Vec<F>,
        local: L,
    ) -> (Result<Vec<T>, PoolError>, R)
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
        L: FnOnce() -> R,
    {
        let total = jobs.len();
        if total == 0 {
            return (Ok(Vec::new()), local());
        }
        let gen = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        let start = self.cursor.fetch_add(1, Ordering::Relaxed);
        let (results_tx, results_rx) = channel::<(usize, u64, Result<T, String>)>();
        for (index, job) in jobs.into_iter().enumerate() {
            let results_tx = results_tx.clone();
            let wrapped: Job = Box::new(move || {
                let outcome = catch_unwind(AssertUnwindSafe(job)).map_err(|p| panic_message(&*p));
                // The receiver outlives the batch; a send can only fail if
                // `run` itself panicked, in which case nobody is counting.
                let _ = results_tx.send((index, gen, outcome));
            });
            let ring = &self.rings[(start + index) % self.threads];
            ring.send((gen, wrapped)).expect("workers alive while pool not dropped");
        }
        drop(results_tx);

        // The workers are chewing; do the caller's share before blocking.
        let local_result = local();

        // Drain *all* results before reporting, so a failed batch leaves
        // no stragglers behind on any ring.
        let mut slots: Vec<Option<T>> = (0..total).map(|_| None).collect();
        let mut first_panic: Option<PoolError> = None;
        for _ in 0..total {
            let (index, echoed, outcome) =
                results_rx.recv().expect("every job sends exactly once");
            assert_eq!(echoed, gen, "job echoed a foreign batch generation");
            match outcome {
                Ok(value) => slots[index] = Some(value),
                Err(message) => {
                    let better = first_panic.as_ref().is_none_or(|p| index < p.index);
                    if better {
                        first_panic = Some(PoolError { index, message });
                    }
                }
            }
        }
        if let Some(err) = first_panic {
            return (Err(err), local_result);
        }
        let values =
            slots.into_iter().map(|s| s.expect("all slots filled on success")).collect();
        (Ok(values), local_result)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Disconnect every ring; each worker finishes the jobs already on
        // its ring, observes the disconnect, and exits.
        self.rings.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(rx: &Receiver<RingJob>) {
    IS_POOL_WORKER.with(|flag| flag.set(true));
    // The ring is this worker's private queue: no receiver lock to take,
    // no contention with siblings. Jobs are panic-wrapped by `run`, so
    // the loop only ends when every sender (the pool) is gone.
    while let Ok((_gen, job)) = rx.recv() {
        job();
    }
}

// ---------------------------------------------------------------------
// Global intra-op pool
// ---------------------------------------------------------------------

struct IntraOp {
    /// Requested thread count; `0` means automatic.
    requested: usize,
    /// Lazily-spawned pool for the resolved count (never built for 1).
    pool: Option<Arc<ThreadPool>>,
}

fn intra_op_state() -> &'static Mutex<IntraOp> {
    static STATE: OnceLock<Mutex<IntraOp>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(IntraOp { requested: 0, pool: None }))
}

fn resolve(requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(MAX_AUTO_THREADS)
}

/// Sets the process-wide intra-op thread count used by the parallel
/// kernels ([`crate::matmul_into`] and the convolution forward
/// [`crate::gemm_im2col3d`]). `0` restores the automatic setting
/// (`available_parallelism`, capped at [`MAX_AUTO_THREADS`]).
///
/// Results are **bit-identical at every setting** — this knob trades
/// wall-clock time only, never numerics — so it is safe to tune freely
/// (the serving layer exposes it as `ServeConfig::intra_op_threads`).
/// An existing pool with a different size is torn down once its in-flight
/// work completes; kernels already running keep their pool via `Arc`.
pub fn set_intra_op_threads(threads: usize) {
    let mut state = intra_op_state().lock().expect("intra-op state lock");
    if resolve(state.requested) != resolve(threads) {
        state.pool = None;
    }
    state.requested = threads;
}

/// The resolved intra-op thread count the parallel kernels currently use.
pub fn intra_op_threads() -> usize {
    let state = intra_op_state().lock().expect("intra-op state lock");
    resolve(state.requested)
}

/// The shared intra-op pool, or `None` when the resolved thread count is
/// 1 (serial) or the caller is already inside a pool worker.
pub(crate) fn intra_op_pool() -> Option<Arc<ThreadPool>> {
    if ThreadPool::is_worker() {
        return None;
    }
    let mut state = intra_op_state().lock().expect("intra-op state lock");
    let threads = resolve(state.requested);
    if threads <= 1 {
        return None;
    }
    if state.pool.as_ref().is_none_or(|p| p.threads() != threads) {
        state.pool = Some(Arc::new(ThreadPool::new(threads)));
    }
    state.pool.clone()
}

/// Splits `total` items into at most `parts` contiguous ranges of
/// near-equal size (earlier ranges take the remainder), skipping empty
/// ranges. The partition depends only on `(total, parts)`, which keeps
/// worker assignment deterministic.
pub(crate) fn row_ranges(total: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, total.max(1));
    let base = total / parts;
    let extra = total % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for part in 0..parts {
        let len = base + usize::from(part < extra);
        if len == 0 {
            continue;
        }
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// [`row_ranges`] with every boundary (except the final end) aligned to a
/// multiple of `block`: partitions `total` rows by splitting the
/// `ceil(total / block)` blocks evenly. Workers sharing a packed-A panel
/// (see `matmul.rs`) need stripe starts on micro-kernel block boundaries
/// so no packed block straddles two workers. Like [`row_ranges`], the
/// result is a pure function of `(total, parts, block)`.
pub(crate) fn row_ranges_blocked(
    total: usize,
    parts: usize,
    block: usize,
) -> Vec<std::ops::Range<usize>> {
    debug_assert!(block > 0);
    let blocks = total.div_ceil(block);
    row_ranges(blocks, parts)
        .into_iter()
        .map(|r| r.start * block..(r.end * block).min(total))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = ThreadPool::new(3);
        let jobs: Vec<_> = (0..32usize).map(|i| move || i * 2).collect();
        assert_eq!(pool.run(jobs).unwrap(), (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.run(vec![|| 7]).unwrap(), vec![7]);
    }

    #[test]
    fn empty_batch_is_ok() {
        let pool = ThreadPool::new(2);
        let empty: Vec<fn() -> u8> = Vec::new();
        assert_eq!(pool.run(empty).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn generation_counts_dispatched_batches() {
        let pool = ThreadPool::new(2);
        assert_eq!(pool.generation(), 0);
        pool.run(vec![|| 1, || 2]).unwrap();
        assert_eq!(pool.generation(), 1);
        pool.run(vec![|| 3]).unwrap();
        pool.run(Vec::<fn() -> u8>::new()).unwrap(); // empty batches don't dispatch
        assert_eq!(pool.generation(), 2);
    }

    #[test]
    fn panicked_job_reports_lowest_index_and_pool_survives() {
        let pool = ThreadPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                Box::new(move || {
                    assert!(i != 2 && i != 5, "boom {i}");
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let err = pool.run(jobs).unwrap_err();
        assert_eq!(err.index, 2);
        assert!(err.message.contains("boom 2"), "{}", err.message);
        // The pool keeps working after containment.
        assert_eq!(pool.run(vec![|| 1, || 2]).unwrap(), vec![1, 2]);
    }

    #[test]
    fn worker_flag_is_set_inside_jobs_only() {
        assert!(!ThreadPool::is_worker());
        let pool = ThreadPool::new(1);
        let flags = pool.run(vec![ThreadPool::is_worker]).unwrap();
        assert_eq!(flags, vec![true]);
        assert!(!ThreadPool::is_worker());
    }

    #[test]
    fn row_ranges_cover_exactly_without_overlap() {
        for total in [0usize, 1, 3, 7, 16, 100] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = row_ranges(total, parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "contiguous at {total}/{parts}");
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, total, "full cover at {total}/{parts}");
                assert!(ranges.len() <= parts.max(1));
            }
        }
    }

    #[test]
    fn blocked_ranges_align_to_block_boundaries() {
        for total in [0usize, 1, 5, 8, 9, 16, 37, 100, 256] {
            for parts in [1usize, 2, 3, 8] {
                for block in [1usize, 4, 8] {
                    let ranges = row_ranges_blocked(total, parts, block);
                    let mut next = 0;
                    for (idx, r) in ranges.iter().enumerate() {
                        assert_eq!(r.start, next, "contiguous at {total}/{parts}/{block}");
                        assert!(!r.is_empty());
                        assert_eq!(r.start % block, 0, "start aligned at {total}/{parts}/{block}");
                        if idx + 1 < ranges.len() {
                            assert_eq!(r.end % block, 0, "interior end aligned");
                        }
                        next = r.end;
                    }
                    assert_eq!(next, total, "full cover at {total}/{parts}/{block}");
                }
            }
        }
    }

    #[test]
    fn intra_op_resolution_defaults_to_auto() {
        // Only observe; mutating the global here would race other tests.
        let n = intra_op_threads();
        assert!(n >= 1);
        assert!(n <= MAX_AUTO_THREADS || n == intra_op_threads());
    }
}
