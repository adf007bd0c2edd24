//! The serving core: admission control, micro-batcher, and worker pool.
//!
//! ```text
//! client ──► rate limiter ──► ingress queue ──► batcher ──► worker pool ──► nodes
//!            + budget          (bounded)         (coalesce    (retrieve_by_feature
//!            (QueryLedger)                        + batched     per request)
//!                                                 embed)
//! ```
//!
//! One [`duo_retrieval::RetrievalSystem`] is shared read-only across the
//! batcher and every worker — the whole inference path takes `&self`, so
//! no global lock is needed. All mutability lives in the per-client
//! accounts (budget ledger + token bucket) and the stats counters, each
//! behind its own mutex that is never held across model work.

use crate::{ClientStats, ServeConfig, ServeError, StatsInner, TokenBucket};
use duo_defenses::{ClipSketch, DetectorAction, StreamDetector, StreamVerdict};
use duo_retrieval::{QueryLedger, RetrievalSystem};
use duo_tensor::Tensor;
use duo_video::{Video, VideoId};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

/// Locks `mutex`, recovering the guard if a panicking thread poisoned it.
/// Every critical section here updates counters, a ledger or a detector
/// one complete step at a time, so the data is valid at every point a
/// panic could leave it, and one panicked request must not fail every
/// later one.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-client accounting: the paper's query-budget threat model mapped
/// onto serving-side admission.
#[derive(Debug)]
pub(crate) struct ClientAccount {
    ledger: QueryLedger,
    bucket: Option<TokenBucket>,
    /// Streaming blue-team detector, present when the service was started
    /// with [`crate::DefenseConfig`]. Observes under the clients lock at
    /// admission, so the verdict sequence is a pure function of this
    /// account's own submission order — worker count and cross-client
    /// interleaving never change it.
    detector: Option<StreamDetector>,
    /// Per-client counters, maintained under the clients lock. `charged`
    /// is filled in from the ledger at snapshot time so the two can never
    /// disagree.
    stats: ClientStats,
}

impl ClientAccount {
    fn snapshot(&self) -> ClientStats {
        ClientStats { charged: self.ledger.used(), ..self.stats }
    }
}

pub(crate) struct Shared {
    system: RetrievalSystem,
    stats: Mutex<StatsInner>,
    clients: Mutex<Vec<ClientAccount>>,
    queue_depth: AtomicUsize,
    /// Requests in admission: inside [`ClientHandle::retrieve_inner`] but
    /// not yet handed to the ingress queue. The batcher holds a batch open
    /// only while this is nonzero, because only such a request can still
    /// join it.
    admitting: AtomicUsize,
    stopped: AtomicBool,
    /// The machine's available parallelism, resolved once at start: the
    /// query reads cgroup files, too slow to repeat per batch.
    cores: usize,
}

/// One request's count in [`Shared::admitting`], released on drop: just
/// before the enqueue, or on any rejection path.
struct Admitting<'a>(&'a AtomicUsize);

impl<'a> Admitting<'a> {
    fn enter(counter: &'a AtomicUsize) -> Self {
        counter.fetch_add(1, Ordering::SeqCst);
        Admitting(counter)
    }
}

impl Drop for Admitting<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

struct Request {
    video: Video,
    enqueued: Instant,
    /// End-to-end deadline; requests that expire in the queue are shed
    /// and their admission-time charge refunded.
    deadline: Option<Instant>,
    /// The client slot charged at admission (for refunds on shed).
    slot: usize,
    reply: SyncSender<Result<Vec<VideoId>, ServeError>>,
}

enum Msg {
    Request(Request),
    Shutdown,
}

struct Work {
    request: Request,
    feature: Tensor,
}

/// A concurrent, micro-batched retrieval service over one shared
/// [`RetrievalSystem`].
///
/// Start with [`RetrievalService::start`], hand out [`ClientHandle`]s via
/// [`RetrievalService::client`], and stop with
/// [`RetrievalService::shutdown`] (which returns the final
/// [`crate::ServiceStats`]).
pub struct RetrievalService {
    shared: Arc<Shared>,
    ingress: SyncSender<Msg>,
    batcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    config: ServeConfig,
}

impl std::fmt::Debug for RetrievalService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetrievalService")
            .field("config", &self.config)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl RetrievalService {
    /// Starts the service: spawns the batcher and `config.workers`
    /// retrieval workers over the given system.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for zero workers, batch size, or
    /// queue capacity.
    pub fn start(system: RetrievalSystem, config: ServeConfig) -> Result<Self, ServeError> {
        config.validate()?;
        let nodes = system.nodes().len();
        let shared = Arc::new(Shared {
            system,
            stats: Mutex::new(StatsInner::new(config.batch_max, nodes)),
            clients: Mutex::new(Vec::new()),
            queue_depth: AtomicUsize::new(0),
            admitting: AtomicUsize::new(0),
            stopped: AtomicBool::new(false),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        });
        let (ingress, ingress_rx) = mpsc::sync_channel::<Msg>(config.queue_cap);
        let (work_tx, work_rx) = mpsc::sync_channel::<Work>(config.queue_cap);
        let work_rx = Arc::new(Mutex::new(work_rx));

        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || batcher_loop(&shared, &ingress_rx, work_tx, config))
        };
        let workers = (0..config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let work_rx = Arc::clone(&work_rx);
                std::thread::spawn(move || worker_loop(&shared, &work_rx))
            })
            .collect();
        Ok(RetrievalService { shared, ingress, batcher: Some(batcher), workers, config })
    }

    /// The service configuration.
    pub fn config(&self) -> ServeConfig {
        self.config
    }

    /// Registers a client with an optional hard query budget and optional
    /// rate limit, returning its handle.
    pub fn client(
        &self,
        budget: Option<u64>,
        rate: Option<crate::RateLimit>,
    ) -> ClientHandle {
        let mut clients = lock(&self.shared.clients);
        let slot = clients.len();
        clients.push(ClientAccount {
            ledger: QueryLedger::new(budget),
            bucket: rate.map(TokenBucket::new),
            detector: self.config.defense.map(|d| StreamDetector::new(d.stream)),
            stats: ClientStats::default(),
        });
        ClientHandle {
            shared: Arc::downgrade(&self.shared),
            ingress: self.ingress.clone(),
            slot,
            queue_cap: self.config.queue_cap,
            default_deadline: self.config.default_deadline,
            defended: self.config.defense.is_some(),
        }
    }

    /// Per-client counter snapshots, in client registration (slot) order.
    ///
    /// Each row satisfies `charged == served + failed` once the client's
    /// in-flight requests have drained, because admission charges and
    /// deadline sheds refund — this is the budget-drift invariant the
    /// campaign experiment asserts fleet-wide.
    pub fn client_stats(&self) -> Vec<ClientStats> {
        let clients = lock(&self.shared.clients);
        clients.iter().map(ClientAccount::snapshot).collect()
    }

    /// A live snapshot of the service counters.
    pub fn stats(&self) -> crate::ServiceStats {
        let queue_depth = self.shared.queue_depth.load(Ordering::SeqCst);
        let index = self.shared.system.index_breakdown();
        let epoch = self.shared.system.current_epoch();
        let mutation = self.shared.system.mutation_stats();
        lock(&self.shared.stats).snapshot(queue_depth, index, epoch, mutation)
    }

    /// Hands out the mutation control plane for the served gallery.
    ///
    /// Like [`ClientHandle`], the returned handle holds only a weak
    /// reference, so it never keeps a shut-down service alive.
    pub fn mutator(&self) -> MutatorHandle {
        MutatorHandle { shared: Arc::downgrade(&self.shared) }
    }

    /// Read access to the served system (evaluation only; clients go
    /// through [`ClientHandle::retrieve`]).
    pub fn system(&self) -> &RetrievalSystem {
        &self.shared.system
    }

    /// Drains in-flight requests, stops every thread, and returns the
    /// final statistics.
    pub fn shutdown(self) -> crate::ServiceStats {
        self.shutdown_into().1
    }

    /// Like [`RetrievalService::shutdown`], additionally returning the
    /// wrapped [`RetrievalSystem`] — `None` if a [`ClientHandle`] upgrade
    /// is concurrently holding the shared state alive.
    pub fn shutdown_into(mut self) -> (Option<RetrievalSystem>, crate::ServiceStats) {
        self.shared.stopped.store(true, Ordering::SeqCst);
        // In-flight requests are ahead of the shutdown message in the
        // FIFO ingress queue, so the batcher serves them before exiting.
        let _ = self.ingress.send(Msg::Shutdown);
        if let Some(handle) = self.batcher.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        let queue_depth = self.shared.queue_depth.load(Ordering::SeqCst);
        let index = self.shared.system.index_breakdown();
        let epoch = self.shared.system.current_epoch();
        let mutation = self.shared.system.mutation_stats();
        let stats = lock(&self.shared.stats).snapshot(queue_depth, index, epoch, mutation);
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => (Some(shared.system), stats),
            Err(_) => (None, stats),
        }
    }
}

fn batcher_loop(
    shared: &Shared,
    ingress: &Receiver<Msg>,
    work_tx: SyncSender<Work>,
    config: ServeConfig,
) {
    loop {
        let first = match ingress.recv() {
            Ok(Msg::Request(r)) => r,
            Ok(Msg::Shutdown) | Err(_) => break,
        };
        let (batch, shutdown) = gather(first, ingress, &shared.admitting, &config);
        flush_batch(shared, batch, &work_tx, &config);
        if shutdown {
            break;
        }
    }
    // Dropping `work_tx` disconnects the work queue; workers drain what
    // is left and exit.
}

/// Forms one batch behind `first`: takes what is already queued, up to
/// `batch_max`, then dispatches at once unless a request is still in
/// admission (`admitting > 0`). Only then does it wait, and never past
/// `batch_wait` from the first request. A lone caller therefore never
/// waits: its own count is released before its enqueue, so the batcher
/// sees zero. Returns the batch and whether a shutdown ended gathering.
fn gather(
    first: Request,
    ingress: &Receiver<Msg>,
    admitting: &AtomicUsize,
    config: &ServeConfig,
) -> (Vec<Request>, bool) {
    let mut batch = vec![first];
    let deadline = Instant::now() + config.batch_wait;
    while batch.len() < config.batch_max {
        match ingress.try_recv() {
            Ok(Msg::Request(r)) => {
                batch.push(r);
                continue;
            }
            Ok(Msg::Shutdown) | Err(TryRecvError::Disconnected) => return (batch, true),
            Err(TryRecvError::Empty) => {}
        }
        let now = Instant::now();
        if admitting.load(Ordering::SeqCst) == 0 || now >= deadline {
            break;
        }
        match ingress.recv_timeout(deadline - now) {
            Ok(Msg::Request(r)) => batch.push(r),
            Ok(Msg::Shutdown) | Err(RecvTimeoutError::Disconnected) => return (batch, true),
            Err(RecvTimeoutError::Timeout) => break,
        }
    }
    (batch, false)
}

/// Sheds a request whose end-to-end deadline has expired: refunds the
/// admission-time charge (shed queries are never billed), counts the
/// miss, and replies [`ServeError::DeadlineExceeded`].
fn shed(shared: &Shared, request: Request) {
    {
        let mut clients = lock(&shared.clients);
        let account = &mut clients[request.slot];
        account.ledger.refund();
        account.stats.deadline_misses += 1;
        account.stats.refunded += 1;
    }
    {
        let mut stats = lock(&shared.stats);
        stats.deadline_misses += 1;
        stats.refunded += 1;
    }
    let _ = request.reply.send(Err(ServeError::DeadlineExceeded));
}

fn expired(request: &Request, now: Instant) -> bool {
    request.deadline.is_some_and(|d| now >= d)
}

fn flush_batch(shared: &Shared, batch: Vec<Request>, work_tx: &SyncSender<Work>, config: &ServeConfig) {
    shared.queue_depth.fetch_sub(batch.len(), Ordering::SeqCst);
    // Deadline check at dequeue: expired requests never reach the model.
    let now = Instant::now();
    let (mut batch, dead): (Vec<Request>, Vec<Request>) =
        batch.into_iter().partition(|r| !expired(r, now));
    for request in dead {
        shed(shared, request);
    }
    if batch.is_empty() {
        return;
    }
    // Input purification on the inference path, before the batched embed.
    // Its latency is charged against each request's end-to-end deadline:
    // the re-partition below sheds (and refunds) any request whose
    // deadline expired while its batch was being purified, exactly like a
    // queue-expired one.
    if let Some(defense) = &config.defense {
        if !defense.purify.is_none() {
            for request in &mut batch {
                request.video = defense.purify.apply(&request.video);
            }
            lock(&shared.stats).purified += batch.len() as u64;
            let now = Instant::now();
            let (kept, dead): (Vec<Request>, Vec<Request>) =
                batch.into_iter().partition(|r| !expired(r, now));
            for request in dead {
                shed(shared, request);
            }
            batch = kept;
            if batch.is_empty() {
                return;
            }
        }
    }
    {
        let mut stats = lock(&shared.stats);
        stats.batches += 1;
        stats.batch_hist[batch.len().min(config.batch_max)] += 1;
    }
    // One chunked embed for the whole batch, each clip through the lone
    // forward, so batching never changes results. Fan out across at
    // most the machine's real parallelism — extra scoped threads on a
    // saturated core are pure overhead.
    let embed_workers = config.workers.min(batch.len()).min(shared.cores);
    let videos: Vec<&Video> = batch.iter().map(|r| &r.video).collect();
    match shared.system.embed_batch(&videos, embed_workers) {
        Ok(features) => {
            for (request, feature) in batch.into_iter().zip(features) {
                if work_tx.send(Work { request, feature }).is_err() {
                    return; // workers gone; replies drop and clients see Stopped
                }
            }
        }
        Err(_) => {
            // Attribute failures per item: retry each embed individually
            // so one malformed video cannot fail its whole batch.
            for request in batch {
                match shared.system.embed(&request.video) {
                    Ok(feature) => {
                        if work_tx.send(Work { request, feature }).is_err() {
                            return;
                        }
                    }
                    Err(e) => {
                        lock(&shared.clients)[request.slot].stats.failed += 1;
                        lock(&shared.stats).failed += 1;
                        let _ = request.reply.send(Err(ServeError::Retrieval(e)));
                    }
                }
            }
        }
    }
}

fn worker_loop(shared: &Shared, work_rx: &Mutex<Receiver<Work>>) {
    loop {
        // Hold the receiver lock only for the blocking take, never while
        // doing model work.
        let work = match lock(work_rx).recv() {
            Ok(work) => work,
            Err(_) => break,
        };
        // Last deadline check before node fan-out: embedding happened,
        // but the fan-out (the expensive, fault-exposed stage) has not.
        if expired(&work.request, Instant::now()) {
            shed(shared, work.request);
            continue;
        }
        let outcome = shared.system.retrieve_resilient(&work.feature);
        let latency_us = work.request.enqueued.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let result = {
            let mut stats = lock(&shared.stats);
            match outcome {
                Ok(retrieved) => {
                    stats.served += 1;
                    stats.latency.record(latency_us);
                    stats.max_epoch_served = stats.max_epoch_served.max(retrieved.epoch);
                    stats.absorb(&retrieved.telemetry);
                    if !retrieved.coverage.is_full() {
                        stats.degraded += 1;
                    }
                    Ok(retrieved.ids)
                }
                Err(e) => {
                    stats.failed += 1;
                    Err(ServeError::Retrieval(e))
                }
            }
        };
        {
            let mut clients = lock(&shared.clients);
            let stats = &mut clients[work.request.slot].stats;
            if result.is_ok() {
                stats.served += 1;
            } else {
                stats.failed += 1;
            }
        }
        let _ = work.request.reply.send(result);
    }
}

/// A client of the service: every retrieve is admission-controlled
/// against this client's budget and rate limit.
///
/// Handles hold only a weak reference to the service, so outstanding
/// handles never keep a shut-down service (or its model) alive.
#[derive(Debug, Clone)]
pub struct ClientHandle {
    shared: Weak<Shared>,
    ingress: SyncSender<Msg>,
    slot: usize,
    queue_cap: usize,
    default_deadline: Option<std::time::Duration>,
    /// Whether the service runs a defense stage (so the clip sketch is
    /// computed outside the locks only when someone will consume it).
    defended: bool,
}

impl ClientHandle {
    /// Submits a query video and blocks until its `R^m(v)` arrives.
    ///
    /// The submitted video is 8-bit quantized server-side, exactly like
    /// [`duo_retrieval::BlackBox`] does — the service *is* the black-box
    /// surface when attacks run through it.
    ///
    /// # Errors
    ///
    /// [`ServeError::BudgetExhausted`] / [`ServeError::RateLimited`] /
    /// [`ServeError::Overloaded`] / [`ServeError::Throttled`] /
    /// [`ServeError::Quarantined`] when admission rejects the query
    /// (never charged), [`ServeError::Stopped`] when the service is gone,
    /// and [`ServeError::Retrieval`] for model/node failures (charged:
    /// the query reached the model).
    pub fn retrieve(&self, video: &Video) -> Result<Vec<VideoId>, ServeError> {
        self.retrieve_inner(video, self.default_deadline)
    }

    /// Like [`ClientHandle::retrieve`], with an explicit end-to-end
    /// deadline overriding the service default. If the deadline expires
    /// while the request is still queued, it is shed, the admission-time
    /// charge is refunded, and [`ServeError::DeadlineExceeded`] is
    /// returned — a shed query is never billed.
    ///
    /// # Errors
    ///
    /// As for [`ClientHandle::retrieve`], plus
    /// [`ServeError::DeadlineExceeded`].
    pub fn retrieve_with_deadline(
        &self,
        video: &Video,
        deadline: std::time::Duration,
    ) -> Result<Vec<VideoId>, ServeError> {
        self.retrieve_inner(video, Some(deadline))
    }

    fn retrieve_inner(
        &self,
        video: &Video,
        deadline: Option<std::time::Duration>,
    ) -> Result<Vec<VideoId>, ServeError> {
        let shared = self.shared.upgrade().ok_or(ServeError::Stopped)?;
        if shared.stopped.load(Ordering::SeqCst) {
            return Err(ServeError::Stopped);
        }
        let admitting = Admitting::enter(&shared.admitting);
        let mut submitted = video.clone();
        submitted.quantize();
        // Sketch the quantized clip outside every lock: the detector sees
        // exactly what the model would, and the O(pixels) pooling pass
        // never serializes other clients.
        let sketch = self.defended.then(|| ClipSketch::of(&submitted));
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        {
            // The admission decision (budget check → rate check → enqueue
            // → charge) is atomic under the clients lock; `try_send` never
            // blocks, so the lock is held only briefly.
            let mut clients = lock(&shared.clients);
            let account = &mut clients[self.slot];
            if account.ledger.is_exhausted() {
                let budget = account.ledger.budget().expect("exhausted implies budget");
                account.stats.rejected_budget += 1;
                drop(clients);
                lock(&shared.stats).rejected_budget += 1;
                return Err(ServeError::BudgetExhausted { budget });
            }
            if let Some(bucket) = &mut account.bucket {
                if let Err(retry_after_ms) = bucket.ready() {
                    account.stats.rejected_rate += 1;
                    drop(clients);
                    lock(&shared.stats).rejected_rate += 1;
                    return Err(ServeError::RateLimited { retry_after_ms });
                }
            }
            // Streaming detection, after the budget/rate gates so only
            // bankable attempts feed the ring, before the charge so a
            // throttled or quarantined attempt is never billed. The
            // observe happens under the clients lock: the per-account
            // verdict sequence depends only on this client's own
            // submission order.
            if let Some(detector) = account.detector.as_mut() {
                let sketch = sketch.as_ref().expect("sketch computed when defended");
                let verdict = detector.observe(sketch);
                account.stats.defense_observed += 1;
                if verdict.flagged {
                    account.stats.defense_flagged += 1;
                }
                {
                    let mut stats = lock(&shared.stats);
                    stats.defense_observed += 1;
                    if verdict.flagged {
                        stats.defense_flagged += 1;
                    }
                }
                match verdict.action {
                    DetectorAction::Admit => {}
                    DetectorAction::Throttle => {
                        account.stats.defense_throttled += 1;
                        drop(clients);
                        lock(&shared.stats).defense_throttled += 1;
                        return Err(ServeError::Throttled { flags: verdict.flags_total });
                    }
                    DetectorAction::Reject => {
                        account.stats.defense_rejected += 1;
                        drop(clients);
                        lock(&shared.stats).defense_rejected += 1;
                        return Err(ServeError::Quarantined { flags: verdict.flags_total });
                    }
                }
            }
            let now = Instant::now();
            let msg = Msg::Request(Request {
                video: submitted,
                enqueued: now,
                deadline: deadline.map(|d| now + d),
                slot: self.slot,
                reply: reply_tx,
            });
            // Count the request before the enqueue (rolling back on
            // failure): the batcher may dequeue-and-decrement the instant
            // `try_send` returns, so incrementing afterwards would race
            // the counter below zero.
            let depth = shared.queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
            // Leave admission before the enqueue, not after: otherwise the
            // batcher could dequeue this request while its own count is
            // still held and wait out `batch_wait` for it.
            drop(admitting);
            match self.ingress.try_send(msg) {
                Ok(()) => {
                    account.ledger.charge().expect("budget checked above");
                    if let Some(bucket) = &mut account.bucket {
                        bucket.take();
                    }
                    let mut stats = lock(&shared.stats);
                    stats.max_queue_depth = stats.max_queue_depth.max(depth);
                }
                Err(TrySendError::Full(_)) => {
                    shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
                    account.stats.rejected_overload += 1;
                    drop(clients);
                    lock(&shared.stats).rejected_overload += 1;
                    return Err(ServeError::Overloaded { queue_cap: self.queue_cap });
                }
                Err(TrySendError::Disconnected(_)) => {
                    shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
                    return Err(ServeError::Stopped);
                }
            }
        }
        reply_rx.recv().map_err(|_| ServeError::Stopped)?
    }

    /// Number of queries this client has been charged for.
    pub fn queries_used(&self) -> u64 {
        self.shared
            .upgrade()
            .map(|s| lock(&s.clients)[self.slot].ledger.used())
            .unwrap_or(0)
    }

    /// The client's remaining budget, if one is set.
    pub fn budget_remaining(&self) -> Option<u64> {
        self.shared
            .upgrade()
            .and_then(|s| lock(&s.clients)[self.slot].ledger.remaining())
    }

    /// This client's counter snapshot, or `None` after shutdown.
    pub fn stats(&self) -> Option<ClientStats> {
        self.shared
            .upgrade()
            .map(|s| lock(&s.clients)[self.slot].snapshot())
    }

    /// This client's recorded streaming-defense verdicts, in submission
    /// order. `None` when the service is undefended, shut down, or the
    /// detector was configured without
    /// [`duo_defenses::StreamConfig::record_verdicts`].
    pub fn defense_verdicts(&self) -> Option<Vec<StreamVerdict>> {
        let shared = self.shared.upgrade()?;
        let clients = lock(&shared.clients);
        let detector = clients[self.slot].detector.as_ref()?;
        detector.config().record_verdicts.then(|| detector.verdicts().to_vec())
    }

    /// Accumulated streaming-defense flags on this client's account, or
    /// `None` when the service is undefended or shut down.
    pub fn defense_flags(&self) -> Option<u64> {
        let shared = self.shared.upgrade()?;
        let clients = lock(&shared.clients);
        clients[self.slot].detector.as_ref().map(StreamDetector::flags)
    }

    /// Length `m` of retrieval lists served by this service, or `None`
    /// after shutdown.
    pub fn list_len(&self) -> Option<usize> {
        self.shared.upgrade().map(|s| s.system.config().m)
    }
}

/// The gallery mutation control plane of a running service.
///
/// Mutations bypass the query path entirely: they do not queue, batch,
/// or charge any budget — they call straight into the served
/// [`duo_retrieval::RetrievalSystem`]'s epoch-transaction writer, which
/// serializes writers on its own mutation lock. Queries in flight keep
/// scoring the epoch they captured at admission; queries admitted after
/// [`MutatorHandle::apply`] returns see the whole batch.
///
/// Obtained from [`RetrievalService::mutator`]. Holds a weak reference,
/// so an outstanding handle never keeps a shut-down service alive.
#[derive(Debug, Clone)]
pub struct MutatorHandle {
    pub(crate) shared: Weak<Shared>,
}

impl MutatorHandle {
    fn upgrade(&self) -> Result<Arc<Shared>, ServeError> {
        let shared = self.shared.upgrade().ok_or(ServeError::Stopped)?;
        if shared.stopped.load(Ordering::SeqCst) {
            return Err(ServeError::Stopped);
        }
        Ok(shared)
    }

    /// Applies one mutation batch as a single epoch transaction.
    ///
    /// # Errors
    ///
    /// [`ServeError::Stopped`] when the service is shut down,
    /// [`ServeError::Retrieval`] for a rejected batch (e.g. a feature
    /// whose dimension does not match the gallery) — the gallery is
    /// untouched in that case.
    pub fn apply(
        &self,
        batch: &duo_retrieval::MutationBatch,
    ) -> Result<duo_retrieval::EpochTransition, ServeError> {
        self.upgrade()?.system.apply(batch).map_err(ServeError::Retrieval)
    }

    /// Upserts one gallery entry (see
    /// [`duo_retrieval::RetrievalSystem::insert`]).
    ///
    /// # Errors
    ///
    /// As for [`MutatorHandle::apply`].
    pub fn insert(
        &self,
        id: VideoId,
        feature: Tensor,
    ) -> Result<duo_retrieval::EpochTransition, ServeError> {
        self.upgrade()?.system.insert(id, feature).map_err(ServeError::Retrieval)
    }

    /// Deletes one gallery entry; deleting an absent id is a counted
    /// no-op.
    ///
    /// # Errors
    ///
    /// As for [`MutatorHandle::apply`].
    pub fn delete(&self, id: VideoId) -> Result<duo_retrieval::EpochTransition, ServeError> {
        self.upgrade()?.system.delete(id).map_err(ServeError::Retrieval)
    }

    /// Rebalances the gallery across shards as one epoch transaction
    /// (see [`duo_retrieval::RetrievalSystem::rebalance`]).
    ///
    /// # Errors
    ///
    /// As for [`MutatorHandle::apply`].
    pub fn rebalance(&self) -> Result<duo_retrieval::EpochTransition, ServeError> {
        self.upgrade()?.system.rebalance().map_err(ServeError::Retrieval)
    }

    /// The served gallery's current epoch, or `None` after shutdown.
    pub fn current_epoch(&self) -> Option<u64> {
        self.shared.upgrade().map(|s| s.system.current_epoch())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duo_models::{Architecture, Backbone, BackboneConfig};
    use duo_retrieval::RetrievalConfig;
    use duo_tensor::Rng64;
    use duo_video::{ClipSpec, DatasetKind, SyntheticDataset};
    use std::time::Duration;

    /// Poisons `mutex`: a thread panics while holding it.
    fn poison<T: Send>(mutex: &Mutex<T>) {
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _guard = mutex.lock();
                panic!("poisoning the lock on purpose");
            });
            assert!(holder.join().is_err());
        });
        assert!(mutex.is_poisoned());
    }

    const HOUR: Duration = Duration::from_secs(3600);

    /// A request for `gather` alone, tagged by `slot`; nothing replies.
    fn request(slot: usize) -> Request {
        let (reply, _) = mpsc::sync_channel(1);
        let video = Video::zeros(ClipSpec::tiny());
        Request { video, enqueued: Instant::now(), deadline: None, slot, reply }
    }

    struct Gathered {
        slots: Vec<usize>,
        shutdown: bool,
        took: Duration,
        ingress: Receiver<Msg>,
    }

    /// Gathers a batch behind request 0 on its own thread. A gather still
    /// running after a minute fails the test instead of hanging it.
    fn gather_on_thread(
        ingress: Receiver<Msg>,
        admitting: Arc<AtomicUsize>,
        batch_max: usize,
        batch_wait: Duration,
    ) -> Gathered {
        let (done_tx, done) = mpsc::channel();
        let gatherer = std::thread::spawn(move || {
            let config = ServeConfig { batch_max, batch_wait, ..ServeConfig::default() };
            let start = Instant::now();
            let (batch, shutdown) = gather(request(0), &ingress, &admitting, &config);
            let slots = batch.iter().map(|r| r.slot).collect();
            let _ = done_tx.send(Gathered { slots, shutdown, took: start.elapsed(), ingress });
        });
        let gathered = done.recv_timeout(Duration::from_secs(60));
        assert!(
            !matches!(gathered, Err(RecvTimeoutError::Timeout)),
            "gather still running after a minute"
        );
        gatherer.join().expect("gather thread finished without panicking");
        gathered.expect("gather reported its batch")
    }

    fn next_slot(ingress: &Receiver<Msg>) -> Option<usize> {
        match ingress.try_recv() {
            Ok(Msg::Request(r)) => Some(r.slot),
            _ => None,
        }
    }

    #[test]
    fn gather_takes_at_most_batch_max_of_the_queue_without_waiting() {
        for in_admission in [0, 1] {
            let (tx, rx) = mpsc::sync_channel(16);
            for slot in 1..=6 {
                tx.send(Msg::Request(request(slot))).unwrap();
            }
            let admitting = Arc::new(AtomicUsize::new(in_admission));
            let got = gather_on_thread(rx, admitting, 4, HOUR);
            assert_eq!((got.slots, got.shutdown), (vec![0, 1, 2, 3], false));
            assert_eq!(next_slot(&got.ingress), Some(4), "the rest stays queued");
        }
    }

    #[test]
    fn gather_dispatches_at_once_when_nobody_is_in_admission() {
        let (_tx, rx) = mpsc::sync_channel(16);
        let got = gather_on_thread(rx, Arc::new(AtomicUsize::new(0)), 8, HOUR);
        assert_eq!((got.slots, got.shutdown), (vec![0], false));
    }

    #[test]
    fn gather_waits_for_a_request_still_in_admission() {
        let (tx, rx) = mpsc::sync_channel(16);
        let admitting = Arc::new(AtomicUsize::new(1));
        let late = {
            let admitting = Arc::clone(&admitting);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                // Admission's order: release the count, then enqueue.
                admitting.fetch_sub(1, Ordering::SeqCst);
                tx.send(Msg::Request(request(1))).unwrap();
                tx
            })
        };
        let got = gather_on_thread(rx, admitting, 8, HOUR);
        assert_eq!((got.slots, got.shutdown), (vec![0, 1], false));
        drop(late.join().unwrap());
    }

    #[test]
    fn gather_gives_up_at_batch_wait_when_nothing_arrives() {
        let (_tx, rx) = mpsc::sync_channel(16);
        let batch_wait = Duration::from_millis(20);
        let got = gather_on_thread(rx, Arc::new(AtomicUsize::new(1)), 8, batch_wait);
        assert_eq!((got.slots, got.shutdown), (vec![0], false));
        assert!(got.took >= batch_wait, "returned before batch_wait: {:?}", got.took);
        assert!(got.took < Duration::from_secs(1), "waited past batch_wait: {:?}", got.took);
    }

    #[test]
    fn gather_stops_at_a_queued_shutdown_and_reports_it() {
        let (tx, rx) = mpsc::sync_channel(16);
        tx.send(Msg::Request(request(1))).unwrap();
        tx.send(Msg::Shutdown).unwrap();
        tx.send(Msg::Request(request(2))).unwrap();
        let got = gather_on_thread(rx, Arc::new(AtomicUsize::new(1)), 8, HOUR);
        assert_eq!((got.slots, got.shutdown), (vec![0, 1], true));
        assert_eq!(next_slot(&got.ingress), Some(2), "nothing past the shutdown is taken");
    }

    #[test]
    fn flush_batch_embeds_each_clip_alone_when_one_fails() {
        let mut rng = Rng64::new(885);
        let ds =
            SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), 885, 2, 1);
        let gallery: Vec<VideoId> = ds.train().iter().filter(|id| id.class < 6).copied().collect();
        let backbone = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
        let config = RetrievalConfig { m: 5, nodes: 2, ..RetrievalConfig::default() };
        let system = RetrievalSystem::build(backbone, &ds, &gallery, config).unwrap();
        let good: Vec<Video> = ds.test().iter().take(3).map(|&id| ds.video(id)).collect();
        let service = RetrievalService::start(system, ServeConfig::default()).unwrap();
        let (honest, sender) = (service.client(None, None), service.client(None, None));
        let shared = &service.shared;

        // Another clip geometry, which the backbone's head refuses, among
        // three good clips: the batch's embed fails as a whole.
        let malformed = Video::zeros(ClipSpec::experiment());
        let plan = [(0, &good[0]), (1, &malformed), (0, &good[1]), (0, &good[2])];
        let mut replies = Vec::new();
        let batch: Vec<Request> = plan
            .iter()
            .map(|&(slot, video)| {
                let (reply, replied) = mpsc::sync_channel(1);
                replies.push(replied);
                let video = video.clone();
                Request { video, enqueued: Instant::now(), deadline: None, slot, reply }
            })
            .collect();
        // What admission does before the enqueue.
        shared.queue_depth.fetch_add(batch.len(), Ordering::SeqCst);
        for &(slot, _) in &plan {
            lock(&shared.clients)[slot].ledger.charge().unwrap();
        }
        let (work_tx, work_rx) = mpsc::sync_channel(plan.len());
        flush_batch(shared, batch, &work_tx, &service.config());
        drop(work_tx);

        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let works: Vec<Work> = work_rx.iter().collect();
        assert_eq!(works.len(), good.len(), "every good clip is embedded");
        for (work, video) in works.iter().zip(&good) {
            assert_eq!(work.request.slot, 0);
            assert_eq!(bits(&work.feature), bits(&service.system().embed(video).unwrap()));
        }
        let failed = replies[1].try_recv().expect("the malformed request is answered");
        assert!(matches!(failed, Err(ServeError::Retrieval(_))), "{failed:?}");
        assert_eq!(sender.stats().unwrap().failed, 1);
        assert_eq!(honest.stats().unwrap().failed, 0);
        let stats = service.stats();
        assert_eq!((stats.failed, stats.queue_depth), (1, 0));
        assert_eq!((stats.batches, stats.batch_hist[plan.len()]), (1, 1));
        service.shutdown();
    }

    #[test]
    fn admission_count_is_released_on_every_path() {
        let mut rng = Rng64::new(883);
        let ds =
            SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), 883, 2, 1);
        let gallery: Vec<VideoId> = ds.train().iter().filter(|id| id.class < 6).copied().collect();
        let backbone = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
        let config = RetrievalConfig { m: 5, nodes: 2, ..RetrievalConfig::default() };
        let system = RetrievalSystem::build(backbone, &ds, &gallery, config).unwrap();
        let video = ds.video(ds.test()[0]);
        let service = RetrievalService::start(system, ServeConfig::default()).unwrap();
        let in_admission = || service.shared.admitting.load(Ordering::SeqCst);

        let budgeted = service.client(Some(1), None);
        budgeted.retrieve(&video).unwrap();
        assert_eq!(in_admission(), 0, "served");
        let rejected = budgeted.retrieve(&video);
        assert!(matches!(rejected, Err(ServeError::BudgetExhausted { .. })), "{rejected:?}");
        assert_eq!(in_admission(), 0, "rejected for budget");
        let limited = service.client(None, Some(crate::RateLimit::new(0, 0.0)));
        let rejected = limited.retrieve(&video);
        assert!(matches!(rejected, Err(ServeError::RateLimited { .. })), "{rejected:?}");
        assert_eq!(in_admission(), 0, "rejected for rate");
        service.shutdown();
    }

    #[test]
    fn poisoned_locks_keep_the_service_serving() {
        let mut rng = Rng64::new(881);
        let ds =
            SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), 881, 2, 1);
        let gallery: Vec<VideoId> = ds.train().iter().filter(|id| id.class < 6).copied().collect();
        let backbone = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
        let config = RetrievalConfig { m: 5, nodes: 2, ..RetrievalConfig::default() };
        let system = RetrievalSystem::build(backbone, &ds, &gallery, config).unwrap();
        let videos: Vec<Video> = ds.test().iter().take(3).map(|&id| ds.video(id)).collect();
        let config = ServeConfig { workers: 2, ..ServeConfig::default() };
        let service = RetrievalService::start(system, config).unwrap();
        let client = service.client(Some(100), None);
        let expected = client.retrieve(&videos[0]).unwrap();

        poison(&service.shared.stats);
        poison(&service.shared.clients);
        for video in &videos {
            client.retrieve(video).unwrap();
        }
        assert_eq!(client.retrieve(&videos[0]).unwrap(), expected);
        let shed = client.retrieve_with_deadline(&videos[1], Duration::ZERO);
        assert!(matches!(shed, Err(ServeError::DeadlineExceeded)), "{shed:?}");

        // A worker keeps draining a poisoned work queue. The request skips
        // admission, so charge it here as admission would have.
        let (work_tx, work_rx) = mpsc::sync_channel(1);
        let work_rx = Mutex::new(work_rx);
        poison(&work_rx);
        lock(&service.shared.clients)[0].ledger.charge().unwrap();
        let feature = service.system().embed(&videos[2]).unwrap();
        let (reply, replied) = mpsc::sync_channel(1);
        let video = videos[2].clone();
        let request = Request { video, enqueued: Instant::now(), deadline: None, slot: 0, reply };
        work_tx.send(Work { request, feature }).unwrap();
        drop(work_tx);
        worker_loop(&service.shared, &work_rx);
        assert!(replied.recv().unwrap().is_ok());

        let mine = client.stats().unwrap();
        assert_eq!((mine.served, mine.failed, mine.deadline_misses), (6, 0, 1));
        assert_eq!(mine.charged, mine.served + mine.failed);
        assert_eq!(mine.refunded, mine.deadline_misses);
        let stats = service.shutdown();
        assert_eq!((stats.served, stats.failed), (6, 0));
        assert_eq!(stats.refunded, stats.deadline_misses);
    }
}
