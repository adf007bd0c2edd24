use crate::resilience::{query_node, FailCause, NodeReport};
use crate::{
    shard_seed, BreakerState, CircuitBreaker, Coverage, DataNode, EpochTransition, IndexMode,
    IndexStats, Mutation, MutationBatch, MutationStats, QueryTelemetry, ResilienceConfig,
    Retrieved, RetrievalError, Result, ScoredId, ShardIndex,
};
use duo_models::Backbone;
use duo_tensor::Tensor;
use duo_video::{SyntheticDataset, Video, VideoId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Configuration of the distributed retrieval service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetrievalConfig {
    /// Number of videos in the returned list `R^m(v)`.
    pub m: usize,
    /// Number of data-node shards the gallery is spread over.
    pub nodes: usize,
    /// Whether a query's node fan-out runs on lanes (true) or inline on
    /// the calling thread (false). Lanes split the nodes into at most
    /// one contiguous chunk per core; the calling thread runs the first
    /// chunk and one scoped thread runs each other one, so on one core
    /// neither mode spawns a thread. Results and telemetry are
    /// bit-identical either way.
    pub threaded: bool,
    /// How each shard indexes its gallery slice: [`IndexMode::Exact`]
    /// (the default; bit-identical to an exhaustive scan),
    /// [`IndexMode::Ivf`] (sublinear approximate search with exact
    /// re-ranking inside the probed lists), or the compressed mode
    /// [`IndexMode::Pq`] (residual codes scanned in place of the f32
    /// features, with an optional exact rerank tail). See
    /// [`crate::index`].
    pub index: IndexMode,
}
duo_tensor::impl_to_json!(struct RetrievalConfig { m, nodes, threaded, index });

impl Default for RetrievalConfig {
    fn default() -> Self {
        RetrievalConfig { m: 10, nodes: 4, threaded: false, index: IndexMode::Exact }
    }
}

/// The victim video retrieval system: trained backbone + sharded gallery.
///
/// `retrieve` implements the full service path: feature extraction, fan-out
/// to every online [`DataNode`], and a merge of local candidates into the
/// global top-`m`.
pub struct RetrievalSystem {
    backbone: Backbone,
    nodes: Vec<DataNode>,
    config: RetrievalConfig,
    gallery_len: AtomicUsize,
    resilience: ResilienceConfig,
    /// Per-node circuit breakers, created lazily on the first query
    /// under a breaker-enabled policy. Behind a mutex because the whole
    /// retrieval path takes `&self`; held only for admission/recording,
    /// never across shard work.
    breakers: Mutex<Vec<CircuitBreaker>>,
    /// The epoch gate. Queries hold the read side only long enough to
    /// clone every node's generation pointer — one consistent
    /// cross-shard cut — and publishers hold the write side while
    /// swapping the staged generations in and bumping the counter, so a
    /// multi-shard publish is atomic with respect to every query.
    epoch: RwLock<u64>,
    /// Serializes gallery writers (one epoch transaction builds at a
    /// time) and accumulates the system's mutation counters.
    mutation: Mutex<MutationStats>,
    /// Most threads a threaded fan-out runs on: the machine's available
    /// parallelism, resolved once at assembly (the lookup reads cgroup
    /// files, tens of microseconds a call).
    lanes: usize,
}

/// A writer transaction's view of the gallery's next generation: every
/// shard's current generation, pinned for the whole transaction, plus
/// the edits the transaction made to the shards it touched. Nothing is
/// copied while a batch applies — edits borrow the batch's features and
/// the pinned rows — and at publish each touched shard's rows are
/// written once, into a buffer of exactly their size
/// ([`Edits::materialize`]). Untouched shards are neither copied nor
/// rebuilt, so a publish costs what the batch changes.
struct StagedGallery<'a> {
    bases: &'a [Arc<ShardIndex>],
    dim: usize,
    edits: Vec<Option<Edits<'a>>>,
}

/// One touched shard's edits. Rows are numbered as before compaction:
/// the base generation's rows first, then the appended ones. A delete
/// only marks its row dead, so numbers stay put while the batch
/// applies; the compaction at publish then leaves the order a
/// sequential `Vec::remove`/`push` would have left.
#[derive(Default)]
struct Edits<'a> {
    dead: Vec<usize>,
    /// Feature overwrites in batch order; the last write to a row wins.
    writes: Vec<(usize, &'a [f32])>,
    appended: Vec<(VideoId, &'a [f32])>,
}

impl Edits<'_> {
    /// The shard's next rows: `base` with dead rows dropped — each run of
    /// surviving base rows copied in one piece — then the surviving
    /// appended rows, then the writes patched in place. Written once,
    /// into buffers of exactly the live size.
    fn materialize(mut self, base: &ShardIndex, dim: usize) -> (Vec<VideoId>, Vec<f32>) {
        let n = base.len();
        self.dead.sort_unstable();
        let live = n + self.appended.len() - self.dead.len();
        let mut ids = Vec::with_capacity(live);
        let mut feats = Vec::with_capacity(live * dim);
        let mut start = 0;
        for &gap in self.dead.iter().take_while(|&&row| row < n).chain([&n]) {
            ids.extend_from_slice(&base.ids()[start..gap]);
            feats.extend_from_slice(&base.features()[start * dim..gap * dim]);
            start = gap + 1;
        }
        for (i, &(id, feature)) in self.appended.iter().enumerate() {
            if self.dead.binary_search(&(n + i)).is_err() {
                ids.push(id);
                feats.extend_from_slice(feature);
            }
        }
        // A surviving row lands at its number minus the dead rows before it.
        for (row, feature) in self.writes {
            if let Err(dead_before) = self.dead.binary_search(&row) {
                let at = row - dead_before;
                feats[at * dim..(at + 1) * dim].copy_from_slice(feature);
            }
        }
        (ids, feats)
    }
}

impl<'a> StagedGallery<'a> {
    fn new(bases: &'a [Arc<ShardIndex>]) -> Self {
        let dim = bases.iter().map(|b| b.dim()).find(|&d| d > 0).unwrap_or(0);
        StagedGallery { bases, dim, edits: bases.iter().map(|_| None).collect() }
    }

    /// Live rows of `shard` as staged.
    fn len(&self, shard: usize) -> usize {
        let base = self.bases[shard].len();
        self.edits[shard].as_ref().map_or(base, |e| base + e.appended.len() - e.dead.len())
    }

    /// `shard`'s edits; a touched shard is rebuilt at publish.
    fn touch(&mut self, shard: usize) -> &mut Edits<'a> {
        self.edits[shard].get_or_insert_with(Edits::default)
    }

    /// Appends a row to `shard`, returning its row number.
    fn append(&mut self, shard: usize, id: VideoId, feature: &'a [f32]) -> usize {
        let base = self.bases[shard].len();
        let edits = self.touch(shard);
        edits.appended.push((id, feature));
        base + edits.appended.len() - 1
    }

    /// The shard new ids route to: fewest live staged rows, ties to the
    /// lowest node index.
    fn smallest_shard(&self) -> usize {
        (0..self.bases.len())
            .min_by_key(|&i| (self.len(i), i))
            .expect("systems have at least one node")
    }
}

/// An id as one integer, ordered by `(class, instance)`.
fn id_key(id: VideoId) -> u64 {
    u64::from(id.class) << 32 | u64::from(id.instance)
}

/// A gallery location: `(shard, row)` in staging order.
type Location = (usize, usize);

/// Where each id a batch names lives, found in one pass over the pinned
/// gallery and kept current as the batch applies — the answers a
/// per-mutation scan (shards in node order, rows in row order, first
/// live match) would give.
struct Locator {
    /// The batch's distinct ids as [`id_key`]s, ascending, each with
    /// what is live for it.
    slots: Vec<(u64, Slot)>,
    /// Gallery rows holding a batch id, in `(shard, row)` order, each
    /// linked to the next row holding the same id.
    found: Vec<(Location, Option<usize>)>,
}

/// The live rows of one batch id.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// Its first gallery row not yet deleted, and its last, as indices
    /// into `Locator::found`.
    next: Option<usize>,
    last: Option<usize>,
    /// The row a batch insert appended for it, while live. Only an id
    /// with no live gallery row is appended, so the two never compete.
    appended: Option<Location>,
}

impl Locator {
    fn new(batch: &MutationBatch, bases: &[Arc<ShardIndex>]) -> Self {
        let mut slots: Vec<(u64, Slot)> = batch
            .mutations()
            .iter()
            .map(|m| match m {
                Mutation::Insert { id, .. } | Mutation::Delete { id } => id_key(*id),
            })
            .map(|key| (key, Slot::default()))
            .collect();
        slots.sort_unstable_by_key(|&(key, _)| key);
        slots.dedup_by_key(|&mut (key, _)| key);
        let mut found: Vec<(Location, Option<usize>)> = Vec::new();
        for (s, base) in bases.iter().enumerate() {
            for (row, &id) in base.ids().iter().enumerate() {
                if let Ok(i) = slots.binary_search_by_key(&id_key(id), |&(key, _)| key) {
                    let slot = &mut slots[i].1;
                    match slot.last.replace(found.len()) {
                        Some(prev) => found[prev].1 = Some(found.len()),
                        None => slot.next = Some(found.len()),
                    }
                    found.push(((s, row), None));
                }
            }
        }
        Locator { slots, found }
    }

    fn index(&self, id: VideoId) -> usize {
        self.slots
            .binary_search_by_key(&id_key(id), |&(key, _)| key)
            .expect("every batch id has a slot")
    }

    /// The first live row holding `id`.
    fn find(&self, id: VideoId) -> Option<Location> {
        let slot = self.slots[self.index(id)].1;
        slot.next.map(|f| self.found[f].0).or(slot.appended)
    }

    /// Retires the row [`Locator::find`] returns for `id`.
    fn remove(&mut self, id: VideoId) {
        let i = self.index(id);
        let slot = &mut self.slots[i].1;
        match slot.next {
            Some(f) => slot.next = self.found[f].1,
            None => slot.appended = None,
        }
    }

    /// Records the row an insert appended for `id`.
    fn append(&mut self, id: VideoId, at: Location) {
        let i = self.index(id);
        self.slots[i].1.appended = Some(at);
    }
}

impl std::fmt::Debug for RetrievalSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetrievalSystem")
            .field("arch", &self.backbone.arch())
            .field("gallery", &self.gallery_len)
            .field("config", &self.config)
            .finish()
    }
}

impl RetrievalSystem {
    /// Indexes `gallery` under `backbone` and shards it over data nodes.
    ///
    /// # Errors
    ///
    /// Returns [`RetrievalError::BadConfig`] for zero `m`/`nodes` and
    /// propagates feature-extraction failures.
    pub fn build(
        backbone: Backbone,
        dataset: &SyntheticDataset,
        gallery: &[VideoId],
        config: RetrievalConfig,
    ) -> Result<Self> {
        Self::build_with_workers(backbone, dataset, gallery, config, 1)
    }

    /// Like [`RetrievalSystem::build`], but extracts gallery features in
    /// `workers` chunks sharing one immutable backbone, the calling
    /// thread running the first and a scoped thread each other one. Produces
    /// a system with *bit-identical* retrieval behaviour to the serial
    /// build — indexing a large gallery is the one embarrassingly
    /// parallel step of service construction.
    ///
    /// # Errors
    ///
    /// Returns [`RetrievalError::BadConfig`] for zero `m`/`nodes`/`workers`
    /// and propagates feature-extraction failures.
    pub fn build_parallel(
        backbone: Backbone,
        dataset: &SyntheticDataset,
        gallery: &[VideoId],
        config: RetrievalConfig,
        workers: usize,
    ) -> Result<Self> {
        if workers == 0 {
            return Err(RetrievalError::BadConfig(format!(
                "m, nodes and workers must be positive, got {config:?} with {workers} workers"
            )));
        }
        Self::build_with_workers(backbone, dataset, gallery, config, workers)
    }

    /// Common indexing path: extract every gallery feature (in gallery
    /// order, on up to `workers` threads sharing `&backbone`), then deal
    /// the features round-robin over the shards. Shard layout is a
    /// function of gallery order alone, so worker count never changes the
    /// resulting system.
    fn build_with_workers(
        backbone: Backbone,
        dataset: &SyntheticDataset,
        gallery: &[VideoId],
        config: RetrievalConfig,
        workers: usize,
    ) -> Result<Self> {
        if config.m == 0 || config.nodes == 0 {
            return Err(RetrievalError::BadConfig(format!(
                "m and nodes must be positive, got {config:?}"
            )));
        }
        let feats: Vec<Tensor> = if workers <= 1 {
            let mut feats = Vec::with_capacity(gallery.len());
            for &id in gallery {
                feats.push(backbone.extract(&dataset.video(id))?);
            }
            feats
        } else {
            let videos: Vec<_> = gallery.iter().map(|&id| dataset.video(id)).collect();
            let refs: Vec<&_> = videos.iter().collect();
            backbone.extract_batch(&refs, workers)?
        };
        let mut shards: Vec<Vec<(VideoId, Tensor)>> =
            (0..config.nodes).map(|_| Vec::new()).collect();
        for (i, (&id, feat)) in gallery.iter().zip(feats).enumerate() {
            shards[i % config.nodes].push((id, feat));
        }
        let nodes = shards
            .into_iter()
            .enumerate()
            .map(|(i, entries)| {
                DataNode::with_index_mode(format!("node-{i}"), entries, config.index, shard_seed(i))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self::assemble(backbone, nodes, config, gallery.len()))
    }

    /// Assembles a system from prebuilt shards (used by index restore).
    pub(crate) fn assemble(
        backbone: Backbone,
        nodes: Vec<DataNode>,
        config: RetrievalConfig,
        gallery_len: usize,
    ) -> Self {
        RetrievalSystem {
            backbone,
            nodes,
            config,
            gallery_len: AtomicUsize::new(gallery_len),
            resilience: ResilienceConfig::default(),
            breakers: Mutex::new(Vec::new()),
            epoch: RwLock::new(0),
            mutation: Mutex::new(MutationStats::default()),
            lanes: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> RetrievalConfig {
        self.config
    }

    /// Number of indexed gallery videos (tracks live mutation).
    pub fn gallery_len(&self) -> usize {
        self.gallery_len.load(Ordering::SeqCst)
    }

    /// The data-node shards (for failure injection in tests).
    pub fn nodes(&self) -> &[DataNode] {
        &self.nodes
    }

    /// The epoch queries admitted right now would be served from.
    pub fn current_epoch(&self) -> u64 {
        *self.epoch.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Monotonic mutation counters accumulated over every published
    /// epoch (batches and rebalances).
    pub fn mutation_stats(&self) -> MutationStats {
        *self.mutation.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One consistent cross-shard cut: the current epoch plus every
    /// node's generation pointer, captured together under the epoch
    /// gate. A publisher can never interleave inside the returned set —
    /// this is the capture the query path, persistence, and any external
    /// gallery reader should use.
    pub fn snapshot_with_epoch(&self) -> (u64, Vec<Arc<ShardIndex>>) {
        let gate = self.epoch.read().unwrap_or_else(|e| e.into_inner());
        (*gate, self.nodes.iter().map(DataNode::snapshot).collect())
    }

    /// Shard-index scan counters summed over every node: queries, probed
    /// lists, kernel rows, and the running recall@m audit (see
    /// [`IndexStats`]). All zeros until the first query.
    pub fn index_stats(&self) -> IndexStats {
        let mut total = IndexStats::default();
        for node in &self.nodes {
            total.merge(&node.index_stats());
        }
        total
    }

    /// Scan counters summed over every node (as [`Self::index_stats`]),
    /// plus the system's resident byte footprint (f32 features vs
    /// compressed codes) — the shape [`crate::IndexBreakdown`] documents.
    pub fn index_breakdown(&self) -> crate::IndexBreakdown {
        let mut breakdown = crate::IndexBreakdown::default();
        for node in &self.nodes {
            breakdown.total.merge(&node.index_stats());
            let snap = node.snapshot();
            breakdown.feature_bytes += snap.feature_bytes();
            breakdown.code_bytes += snap.code_bytes();
        }
        breakdown
    }

    /// Restores the epoch counter from a persisted image (the
    /// `DUOINDX3` load path), so a reloaded system continues the saved
    /// system's epoch sequence and replays traces with identical
    /// telemetry.
    pub(crate) fn restore_epoch(&self, epoch: u64) {
        *self.epoch.write().unwrap_or_else(|e| e.into_inner()) = epoch;
    }

    /// Read access to the victim backbone (white-box evaluations and
    /// defense harnesses use this; the black-box attacker surface is
    /// [`crate::BlackBox`]).
    pub fn backbone(&self) -> &Backbone {
        &self.backbone
    }

    /// Mutable access to the victim backbone (training-path evaluations
    /// that need input gradients through the victim use this).
    pub fn backbone_mut(&mut self) -> &mut Backbone {
        &mut self.backbone
    }

    /// Extracts the victim's embedding for a video.
    ///
    /// Pure inference (`&self`): one system can embed queries for many
    /// threads concurrently.
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction failures.
    pub fn embed(&self, video: &Video) -> Result<Tensor> {
        Ok(self.backbone.extract(video)?)
    }

    /// Extracts victim embeddings for a batch of queries, split into up
    /// to `workers` chunks that each embed their clips one at a time; the
    /// calling thread runs the first (see [`Backbone::extract_batch`]).
    /// Bit-identical to calling [`RetrievalSystem::embed`] per item, in
    /// input order.
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction failures.
    pub fn embed_batch(&self, videos: &[&Video], workers: usize) -> Result<Vec<Tensor>> {
        Ok(self.backbone.extract_batch(videos, workers)?)
    }

    /// Full retrieval path: returns the global top-`m` gallery ids for the
    /// query video, most similar first.
    ///
    /// Takes `&self` end to end — extraction, fan-out and merge are all
    /// read-only — so a single system instance is safely shared across
    /// serving threads without a global lock.
    ///
    /// # Example
    ///
    /// ```
    /// use duo_retrieval::{IndexMode, RetrievalConfig, RetrievalSystem};
    /// use duo_models::{Architecture, Backbone, BackboneConfig};
    /// use duo_tensor::Rng64;
    /// use duo_video::{ClipSpec, DatasetKind, SyntheticDataset};
    ///
    /// let mut rng = Rng64::new(7);
    /// let ds = SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), 2, 1, 0);
    /// let backbone = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng)?;
    /// let config = RetrievalConfig { m: 3, index: IndexMode::Exact, ..RetrievalConfig::default() };
    /// let system = RetrievalSystem::build(backbone, &ds, ds.train(), config)?;
    ///
    /// let query = ds.video(ds.train()[0]);
    /// let top_m = system.retrieve(&query)?;
    /// // A gallery video retrieves itself at rank 1 (distance zero).
    /// assert_eq!(top_m[0], ds.train()[0]);
    /// assert_eq!(top_m.len(), 3);
    /// # Ok::<(), duo_retrieval::RetrievalError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`RetrievalError::AllNodesOffline`] when no shard can
    /// answer, and propagates feature-extraction failures.
    pub fn retrieve(&self, video: &Video) -> Result<Vec<VideoId>> {
        let query = self.backbone.extract(video)?;
        self.retrieve_by_feature(&query)
    }

    /// The system's standing resilience policy, used by
    /// [`RetrievalSystem::retrieve_by_feature`] and
    /// [`RetrievalSystem::retrieve_resilient`].
    pub fn resilience(&self) -> &ResilienceConfig {
        &self.resilience
    }

    /// Replaces the standing resilience policy (resets the circuit
    /// breakers, since thresholds may have changed).
    pub fn set_resilience(&mut self, policy: ResilienceConfig) {
        self.resilience = policy;
        self.breakers.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    /// Current circuit-breaker states, one per node — `None` until a
    /// breaker-enabled query has run.
    pub fn breaker_states(&self) -> Option<Vec<BreakerState>> {
        let breakers = self.breakers.lock().unwrap_or_else(|e| e.into_inner());
        if breakers.is_empty() {
            None
        } else {
            Some(breakers.iter().map(CircuitBreaker::state).collect())
        }
    }

    /// Inserts (or updates) one gallery entry as its own epoch
    /// transaction. See [`RetrievalSystem::apply`].
    ///
    /// # Errors
    ///
    /// As for [`RetrievalSystem::apply`].
    pub fn insert(&self, id: VideoId, feature: Tensor) -> Result<EpochTransition> {
        self.apply(&MutationBatch::new().insert(id, feature))
    }

    /// Deletes one gallery entry as its own epoch transaction. Deleting
    /// an absent id is a counted no-op. See [`RetrievalSystem::apply`].
    ///
    /// # Errors
    ///
    /// As for [`RetrievalSystem::apply`].
    pub fn delete(&self, id: VideoId) -> Result<EpochTransition> {
        self.apply(&MutationBatch::new().delete(id))
    }

    /// Applies an ordered mutation batch as one epoch transaction.
    ///
    /// The writer pins every shard's current generation, locates the
    /// batch's ids in one pass over them, and applies the batch in order
    /// as edits to the shards it touches (deletes only mark rows dead).
    /// Each touched shard's next rows are then written once, off to the
    /// side, and rebuilt deterministically — same
    /// [`crate::shard_seed`]-per-shard k-means discipline the persist
    /// path restores with — and all of them publish atomically under
    /// the epoch gate; untouched shards are neither copied nor rebuilt.
    /// Queries in flight keep their captured generation; queries
    /// admitted afterwards see the whole batch. A batch that touches
    /// nothing (empty, or all delete misses) publishes no epoch.
    ///
    /// Insert routing is deterministic: an existing id updates in place
    /// (same shard, same row); a new id appends to the smallest staged
    /// shard, ties to the lowest node index. Mutation ignores
    /// [`crate::NodeStatus`] and fault plans entirely — a flapping node
    /// still receives its rows.
    ///
    /// Takes `&self`: concurrent writers serialize on an internal lock,
    /// and queries never block on a writer except for the pointer swap.
    ///
    /// # Errors
    ///
    /// Returns [`RetrievalError::BadConfig`] when an inserted feature
    /// disagrees with the gallery dimension; the gallery is untouched
    /// (staging is off to the side, so a failed batch publishes
    /// nothing).
    pub fn apply(&self, batch: &MutationBatch) -> Result<EpochTransition> {
        let mut stats = self.mutation.lock().unwrap_or_else(|e| e.into_inner());
        let mut transition = EpochTransition { epoch: self.current_epoch(), ..Default::default() };
        if batch.is_empty() {
            return Ok(transition);
        }
        let bases = self.pin();
        let mut staged = StagedGallery::new(&bases);
        let mut located = Locator::new(batch, &bases);
        let mut dim = staged.dim;
        for mutation in batch.mutations() {
            match mutation {
                Mutation::Insert { id, feature } => {
                    if dim == 0 {
                        dim = feature.len();
                        staged.dim = dim;
                    }
                    if feature.len() != dim {
                        return Err(RetrievalError::BadConfig(format!(
                            "inserted feature dimension {} disagrees with gallery dimension {dim}",
                            feature.len()
                        )));
                    }
                    match located.find(*id) {
                        Some((shard, row)) => {
                            staged.touch(shard).writes.push((row, feature.as_slice()));
                            transition.updated += 1;
                        }
                        None => {
                            let shard = staged.smallest_shard();
                            let row = staged.append(shard, *id, feature.as_slice());
                            located.append(*id, (shard, row));
                            transition.inserted += 1;
                        }
                    }
                }
                Mutation::Delete { id } => match located.find(*id) {
                    Some((shard, row)) => {
                        located.remove(*id);
                        staged.touch(shard).dead.push(row);
                        transition.deleted += 1;
                    }
                    None => transition.delete_misses += 1,
                },
            }
        }
        self.publish(staged, &mut transition)?;
        stats.absorb_outcome(&transition);
        Ok(transition)
    }

    /// Rebalances shard sizes as one epoch transaction: every shard ends
    /// within one row of `gallery_len / nodes` (remainders to the lowest
    /// node indices). Donor shards give rows from their tail in node
    /// order; recipients append in node order — a pure function of the
    /// current layout, so same gallery ⇒ same moves. Moves are staged
    /// and published atomically: no query can observe a row on two
    /// shards or on neither, and a node flapping through its fault
    /// schedule mid-rebalance still receives its rows (mutation ignores
    /// node status). An already-balanced gallery publishes no epoch.
    ///
    /// # Errors
    ///
    /// Propagates index-rebuild failures ([`RetrievalError::BadConfig`]);
    /// the gallery is untouched on error.
    pub fn rebalance(&self) -> Result<EpochTransition> {
        let mut stats = self.mutation.lock().unwrap_or_else(|e| e.into_inner());
        let mut transition = EpochTransition { epoch: self.current_epoch(), ..Default::default() };
        let bases = self.pin();
        let mut staged = StagedGallery::new(&bases);
        let n = bases.len();
        let total: usize = bases.iter().map(|b| b.len()).sum();
        let target =
            |i: usize| -> usize { total / n + usize::from(i < total % n) };
        // Donors surrender surplus rows from the tail, node order.
        let mut surplus: Vec<(VideoId, &[f32])> = Vec::new();
        for (i, base) in bases.iter().enumerate() {
            for row in (target(i)..base.len()).rev() {
                staged.touch(i).dead.push(row);
                surplus.push((base.ids()[row], base.feature(row)));
            }
        }
        // Recipients fill to target, node order, FIFO over the surplus.
        let mut surplus = surplus.into_iter();
        for i in 0..n {
            while staged.len(i) < target(i) {
                let (id, feature) = surplus.next().expect("surplus covers every deficit");
                staged.append(i, id, feature);
                transition.rows_moved += 1;
            }
        }
        self.publish(staged, &mut transition)?;
        stats.absorb_outcome(&transition);
        Ok(transition)
    }

    /// Pins every shard's current generation for a writer transaction
    /// (writer-side; the caller holds the mutation lock).
    fn pin(&self) -> Vec<Arc<ShardIndex>> {
        self.nodes.iter().map(DataNode::snapshot).collect()
    }

    /// Rebuilds every touched shard off to the side, then swaps all of
    /// them in and bumps the epoch under the write gate. Nothing touched
    /// ⇒ nothing published, epoch unchanged.
    fn publish(&self, staged: StagedGallery<'_>, transition: &mut EpochTransition) -> Result<()> {
        let dim = staged.dim;
        let mut next: Vec<Option<Arc<ShardIndex>>> = Vec::with_capacity(staged.bases.len());
        let mut total = 0usize;
        for (i, (base, edits)) in staged.bases.iter().zip(staged.edits).enumerate() {
            let Some(edits) = edits else {
                total += base.len();
                next.push(None);
                continue;
            };
            let (ids, feats) = edits.materialize(base, dim);
            total += ids.len();
            let built = ShardIndex::build_from_rows(
                ids,
                feats,
                dim,
                self.config.index,
                self.nodes[i].seed(),
            )?;
            next.push(Some(Arc::new(built)));
        }
        if next.iter().all(Option::is_none) {
            return Ok(());
        }
        let mut epoch = self.epoch.write().unwrap_or_else(|e| e.into_inner());
        for (node, generation) in self.nodes.iter().zip(next) {
            if let Some(generation) = generation {
                transition.rebuilt_shards += 1;
                node.install_index(generation);
            }
        }
        self.gallery_len.store(total, Ordering::SeqCst);
        *epoch += 1;
        transition.epoch = *epoch;
        Ok(())
    }

    /// Retrieval from a precomputed query embedding.
    ///
    /// # Errors
    ///
    /// Returns [`RetrievalError::AllNodesOffline`] when no shard answers.
    pub fn retrieve_by_feature(&self, query: &Tensor) -> Result<Vec<VideoId>> {
        self.retrieve_with(query, &self.resilience).map(|r| r.ids)
    }

    /// Retrieval under the standing resilience policy, returning the
    /// full [`Retrieved`] shape so callers can distinguish complete from
    /// degraded (partial-shard) rankings and account retries/hedges.
    ///
    /// # Errors
    ///
    /// Returns [`RetrievalError::AllNodesOffline`] when coverage is
    /// zero, and — only under `require_full_coverage` —
    /// [`RetrievalError::NodeTimeout`] / [`RetrievalError::DegradedCoverage`]
    /// for partial coverage.
    pub fn retrieve_resilient(&self, query: &Tensor) -> Result<Retrieved> {
        self.retrieve_with(query, &self.resilience)
    }

    /// Retrieval under an explicit resilience policy.
    ///
    /// Under [`RetrievalConfig::threaded`] the nodes split into
    /// `min(nodes, cores)` contiguous lanes: the calling thread runs the
    /// first lane and one scoped thread runs each other one, and the
    /// reports are reassembled in node order. Inline, the calling thread
    /// queries every node in turn.
    ///
    /// Node panics are contained: a panicking shard counts as that node
    /// failing the query, never as a crashed retrieval. All retry,
    /// timeout, hedge, and breaker decisions compare injected *virtual*
    /// latency against the policy — no wall clock — and breakers admit
    /// and record in node order outside the fan-out, so results and
    /// telemetry are bit-identical across inline fan-out and any lane
    /// count.
    ///
    /// # Errors
    ///
    /// As for [`RetrievalSystem::retrieve_resilient`].
    pub fn retrieve_with(&self, query: &Tensor, policy: &ResilienceConfig) -> Result<Retrieved> {
        let m = self.config.m;
        let total = self.nodes.len();
        let mut telemetry = QueryTelemetry::new(total);

        // Capture one consistent cross-shard cut under the epoch gate:
        // every shard of this query scores the same epoch, and every
        // retry/hedge scores the generation captured here, however many
        // publishes land while the fan-out runs.
        let (epoch, snaps) = self.snapshot_with_epoch();
        let snaps = &snaps;

        // Breaker admission runs sequentially in node order (never
        // inside the fan-out lanes), so breaker trajectories are
        // independent of thread interleavings.
        let admitted: Vec<bool> = match &policy.breaker {
            None => vec![true; total],
            Some(cfg) => {
                let mut breakers = self.breakers.lock().unwrap_or_else(|e| e.into_inner());
                if breakers.len() != total {
                    *breakers = (0..total).map(|_| CircuitBreaker::new(*cfg)).collect();
                }
                breakers
                    .iter_mut()
                    .map(|b| {
                        let before = b.transitions();
                        let ok = b.admit();
                        telemetry.breaker_half_opens +=
                            b.transitions().half_opens - before.half_opens;
                        if !ok {
                            telemetry.breaker_skips += 1;
                        }
                        ok
                    })
                    .collect()
            }
        };

        let run = |idx: usize| {
            admitted[idx].then(|| query_node(&self.nodes[idx], &snaps[idx], idx, query, m, policy))
        };
        let reports: Vec<Option<NodeReport>> = if self.config.threaded {
            fan_out_lanes(total, self.lanes, &admitted, run)
        } else {
            (0..total).map(run).collect()
        };

        // Breaker outcome recording, again sequential in node order.
        if policy.breaker.is_some() {
            let mut breakers = self.breakers.lock().unwrap_or_else(|e| e.into_inner());
            for (breaker, report) in breakers.iter_mut().zip(&reports) {
                let Some(report) = report else { continue };
                let before = breaker.transitions();
                if report.answer.is_some() {
                    breaker.record_success();
                } else {
                    breaker.record_failure();
                }
                let after = breaker.transitions();
                telemetry.breaker_opens += after.opens - before.opens;
                telemetry.breaker_closes += after.closes - before.closes;
            }
        }

        let mut merged: Vec<ScoredId> = Vec::new();
        let mut answered = 0usize;
        let mut first_failure: Option<(usize, FailCause)> = None;
        for (idx, report) in reports.into_iter().enumerate() {
            let Some(report) = report else { continue }; // breaker skip
            telemetry.retries += report.retries;
            telemetry.hedges += report.hedges;
            telemetry.node_timeouts += report.timeouts;
            telemetry.transient_faults += report.transients;
            telemetry.panics += report.panics;
            telemetry.backoff_us += report.backoff_us;
            match report.answer {
                Some(local) => {
                    answered += 1;
                    telemetry.max_delay_us = telemetry.max_delay_us.max(report.delay_us);
                    merged.extend(local);
                }
                None => {
                    telemetry.node_failures[idx] += 1;
                    if first_failure.is_none() {
                        first_failure =
                            Some((idx, report.failure.unwrap_or(FailCause::Offline)));
                    }
                }
            }
        }
        if answered == 0 {
            return Err(RetrievalError::AllNodesOffline);
        }
        let coverage = Coverage { answered, total };
        if policy.require_full_coverage && !coverage.is_full() {
            return Err(match first_failure {
                Some((idx, FailCause::Timeout)) => {
                    RetrievalError::NodeTimeout { node: self.nodes[idx].name().to_string() }
                }
                _ => RetrievalError::DegradedCoverage { answered, total },
            });
        }
        merged.sort_by(|a, b| {
            a.distance
                .total_cmp(&b.distance)
                .then_with(|| (a.id.class, a.id.instance).cmp(&(b.id.class, b.id.instance)))
        });
        merged.truncate(m);
        Ok(Retrieved { ids: merged.into_iter().map(|s| s.id).collect(), coverage, telemetry, epoch })
    }
}

/// Runs `run` for node indices `0..total` on `min(total, lanes)` lanes
/// and returns the reports in node order. Lane `i` holds nodes
/// `i * total / lanes` up to `(i + 1) * total / lanes`: the sizes differ
/// by at most one and lane 0 is never the larger, so the calling thread,
/// which also pays the spawns, runs it. A lane whose thread dies marks
/// every admitted node it held as panicked, as a node whose query panics
/// is marked; a node its breaker skipped never ran.
fn fan_out_lanes<F>(total: usize, lanes: usize, admitted: &[bool], run: F) -> Vec<Option<NodeReport>>
where
    F: Fn(usize) -> Option<NodeReport> + Sync,
{
    let lanes = lanes.clamp(1, total.max(1));
    let nodes = |lane: usize| lane * total / lanes..(lane + 1) * total / lanes;
    let run_lane = |lane: usize| nodes(lane).map(&run).collect::<Vec<_>>();
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            (1..lanes).map(|lane| (lane, scope.spawn(move || run_lane(lane)))).collect();
        let mut reports = run_lane(0);
        for (lane, handle) in handles {
            match handle.join() {
                Ok(lane_reports) => reports.extend(lane_reports),
                Err(_) => reports
                    .extend(nodes(lane).map(|idx| admitted[idx].then(NodeReport::panicked))),
            }
        }
        reports
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use duo_models::{Architecture, BackboneConfig};
    use duo_tensor::Rng64;
    use duo_video::{ClipSpec, DatasetKind};

    fn small_system(threaded: bool) -> (RetrievalSystem, SyntheticDataset) {
        let mut rng = Rng64::new(131);
        let ds = SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), 3, 1, 0);
        let gallery: Vec<VideoId> =
            ds.train().iter().filter(|id| id.class < 12).copied().collect();
        let backbone = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
        let config = RetrievalConfig { m: 5, nodes: 3, threaded, ..RetrievalConfig::default() };
        (RetrievalSystem::build(backbone, &ds, &gallery, config).unwrap(), ds)
    }

    #[test]
    fn retrieve_returns_m_results_most_similar_first() {
        let (sys, ds) = small_system(false);
        let probe = ds.video(VideoId { class: 0, instance: 0 });
        let result = sys.retrieve(&probe).unwrap();
        assert_eq!(result.len(), 5);
        // The exact gallery video must rank first (distance 0 to itself).
        assert_eq!(result[0], VideoId { class: 0, instance: 0 });
    }

    #[test]
    fn threaded_and_inline_fanout_agree() {
        let (a, ds) = small_system(false);
        let (b, _) = small_system(true);
        let probe = ds.video(VideoId { class: 3, instance: 0 });
        assert_eq!(a.retrieve(&probe).unwrap(), b.retrieve(&probe).unwrap());
    }

    #[test]
    fn node_failure_degrades_but_does_not_corrupt() {
        let (sys, ds) = small_system(false);
        let probe = ds.video(VideoId { class: 0, instance: 0 });
        let full = sys.retrieve(&probe).unwrap();
        sys.nodes()[0].set_offline();
        let degraded = sys.retrieve(&probe).unwrap();
        assert_eq!(degraded.len(), 5);
        // Every returned id must still come from an online shard, and the
        // order must remain globally sorted (a subsequence check against
        // the full ranking over surviving ids).
        let survivors: Vec<VideoId> =
            full.iter().copied().filter(|id| degraded.contains(id)).collect();
        let filtered: Vec<VideoId> =
            degraded.iter().copied().filter(|id| full.contains(id)).collect();
        assert_eq!(survivors, filtered, "relative order must be preserved");
    }

    #[test]
    fn all_nodes_offline_is_an_error() {
        let (sys, ds) = small_system(false);
        for node in sys.nodes() {
            node.set_offline();
        }
        let probe = ds.video(VideoId { class: 0, instance: 0 });
        assert!(matches!(sys.retrieve(&probe), Err(RetrievalError::AllNodesOffline)));
    }

    #[test]
    fn parallel_build_matches_serial_exactly() {
        let ds = SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), 31, 1, 1);
        let gallery: Vec<VideoId> =
            ds.train().iter().filter(|id| id.class < 10).copied().collect();
        let config = RetrievalConfig { m: 5, nodes: 3, threaded: false, ..Default::default() };
        // Identical weights in both builds via a shared seed.
        let serial = {
            let mut rng = Rng64::new(132);
            let b = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
            RetrievalSystem::build(b, &ds, &gallery, config).unwrap()
        };
        let parallel = {
            let mut rng = Rng64::new(132);
            let b = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
            RetrievalSystem::build_parallel(b, &ds, &gallery, config, 4).unwrap()
        };
        assert_eq!(parallel.gallery_len(), serial.gallery_len());
        for &id in ds.test().iter().filter(|id| id.class < 10) {
            let q = ds.video(id);
            assert_eq!(
                serial.retrieve(&q).unwrap(),
                parallel.retrieve(&q).unwrap(),
                "parallel indexing must be bit-identical"
            );
        }
    }

    #[test]
    fn parallel_build_rejects_zero_workers() {
        let mut rng = Rng64::new(133);
        let ds = SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), 31, 1, 0);
        let b = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
        let config = RetrievalConfig { m: 5, nodes: 2, threaded: false, ..Default::default() };
        assert!(RetrievalSystem::build_parallel(b, &ds, ds.train(), config, 0).is_err());
    }

    #[test]
    fn rejects_zero_m() {
        let mut rng = Rng64::new(132);
        let ds = SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), 3, 1, 0);
        let backbone = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
        let bad = RetrievalConfig { m: 0, nodes: 1, threaded: false, ..Default::default() };
        assert!(RetrievalSystem::build(backbone, &ds, ds.train(), bad).is_err());
    }

    #[test]
    fn ivf_system_builds_and_retrieves_self() {
        let mut rng = Rng64::new(134);
        let ds = SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), 3, 1, 0);
        let gallery: Vec<VideoId> =
            ds.train().iter().filter(|id| id.class < 12).copied().collect();
        let backbone = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
        let config = RetrievalConfig {
            m: 5,
            nodes: 3,
            index: IndexMode::ivf(4, 4),
            ..Default::default()
        };
        let sys = RetrievalSystem::build(backbone, &ds, &gallery, config).unwrap();
        let probe = ds.video(VideoId { class: 0, instance: 0 });
        let result = sys.retrieve(&probe).unwrap();
        assert_eq!(result[0], VideoId { class: 0, instance: 0 });
        let stats = sys.index_stats();
        assert_eq!(stats.queries, 3, "one shard search per node");
        assert!(stats.probed_lists > 0);
    }

    #[test]
    fn insert_update_delete_roundtrip() {
        let (sys, ds) = small_system(false);
        let len0 = sys.gallery_len();
        let probe = ds.video(VideoId { class: 0, instance: 0 });
        let feat = sys.embed(&probe).unwrap();
        let planted = VideoId { class: 99, instance: 9 };

        let t = sys.insert(planted, feat.clone()).unwrap();
        assert_eq!((t.epoch, t.inserted), (1, 1));
        assert_eq!(sys.gallery_len(), len0 + 1);
        let got = sys.retrieve_resilient(&feat).unwrap();
        assert_eq!(got.epoch, 1);
        assert!(got.ids.contains(&planted), "planted duplicate embedding must rank");

        // Upsert the same id: no growth, updated counted.
        let t = sys.insert(planted, feat.clone()).unwrap();
        assert_eq!((t.epoch, t.inserted, t.updated), (2, 0, 1));
        assert_eq!(sys.gallery_len(), len0 + 1);

        let t = sys.delete(planted).unwrap();
        assert_eq!((t.epoch, t.deleted), (3, 1));
        assert_eq!(sys.gallery_len(), len0);
        assert!(!sys.retrieve_resilient(&feat).unwrap().ids.contains(&planted));

        // Deleting again is a counted no-op and publishes nothing.
        let t = sys.delete(planted).unwrap();
        assert_eq!((t.epoch, t.delete_misses, t.rebuilt_shards), (3, 1, 0));
        assert_eq!(sys.current_epoch(), 3);
        let stats = sys.mutation_stats();
        assert_eq!(stats.epochs_published, 3);
        assert_eq!(stats.mutations_applied, 3);
        assert_eq!(stats.delete_misses, 1);
    }

    #[test]
    fn bad_dimension_insert_leaves_gallery_untouched() {
        let (sys, _) = small_system(false);
        let len0 = sys.gallery_len();
        let bad = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        assert!(sys.insert(VideoId { class: 77, instance: 0 }, bad).is_err());
        assert_eq!(sys.gallery_len(), len0);
        assert_eq!(sys.current_epoch(), 0, "failed batches publish nothing");
    }

    #[test]
    fn rebalance_conserves_rows_and_evens_shards() {
        let (sys, _) = small_system(false);
        // Unbalance shard 0 by deleting everything it holds.
        let victims: Vec<VideoId> = sys.nodes()[0].snapshot().ids().to_vec();
        let mut batch = MutationBatch::new();
        for id in &victims {
            batch.push(Mutation::Delete { id: *id });
        }
        sys.apply(&batch).unwrap();
        assert!(sys.nodes()[0].is_empty());

        let mut before: Vec<VideoId> =
            sys.nodes().iter().flat_map(|n| n.snapshot().ids().to_vec()).collect();
        before.sort_by_key(|id| (id.class, id.instance));

        let t = sys.rebalance().unwrap();
        assert!(t.rows_moved > 0);
        let lens: Vec<usize> = sys.nodes().iter().map(DataNode::len).collect();
        assert!(
            lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1,
            "rebalance must even shards to within one row: {lens:?}"
        );
        let mut after: Vec<VideoId> =
            sys.nodes().iter().flat_map(|n| n.snapshot().ids().to_vec()).collect();
        after.sort_by_key(|id| (id.class, id.instance));
        assert_eq!(before, after, "rows are moved, never lost or duplicated");

        // A balanced gallery rebalances to a no-op.
        let t2 = sys.rebalance().unwrap();
        assert_eq!((t2.rows_moved, t2.rebuilt_shards), (0, 0));
        assert_eq!(sys.current_epoch(), t.epoch);
    }

    #[test]
    fn replayed_mutation_sequence_is_bit_identical() {
        let run = |threaded: bool| {
            let (sys, ds) = small_system(threaded);
            let feats: Vec<Tensor> = (0..4)
                .map(|c| sys.embed(&ds.video(VideoId { class: c, instance: 0 })).unwrap())
                .collect();
            let mut trace = Vec::new();
            for (i, feat) in feats.iter().enumerate() {
                sys.insert(VideoId { class: 90 + i as u32, instance: 0 }, feat.clone()).unwrap();
                trace.push(sys.retrieve_resilient(feat).unwrap());
            }
            sys.rebalance().unwrap();
            sys.delete(VideoId { class: 90, instance: 0 }).unwrap();
            for feat in &feats {
                trace.push(sys.retrieve_resilient(feat).unwrap());
            }
            trace
        };
        let a = run(false);
        let b = run(false);
        assert_eq!(a, b, "same seed + same mutations => identical lists, epochs, telemetry");
        let c = run(true);
        assert_eq!(a, c, "threaded fan-out changes nothing");
    }

    /// The lane count is set directly, so the split is exercised however
    /// many cores the host has: one lane, uneven lanes, one node per
    /// lane, and more lanes than nodes.
    #[test]
    fn every_lane_count_replays_the_inline_chaos_schedule() {
        let ds = SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), 5, 1, 1);
        let in_scope = |id: &&VideoId| id.class < 20;
        let gallery: Vec<VideoId> = ds.train().iter().filter(in_scope).copied().collect();
        let probes: Vec<Video> = ds.test().iter().filter(in_scope).map(|&id| ds.video(id)).collect();
        let replay = |lanes: Option<usize>| {
            let mut rng = Rng64::new(136);
            let backbone =
                Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
            let config =
                RetrievalConfig { m: 5, nodes: 5, threaded: lanes.is_some(), ..Default::default() };
            let mut sys = RetrievalSystem::build(backbone, &ds, &gallery, config).unwrap();
            if let Some(lanes) = lanes {
                sys.lanes = lanes;
            }
            for (i, node) in sys.nodes().iter().enumerate() {
                let plan = crate::FaultPlan::transient(0x1A4E ^ i as u64, 0.3)
                    .with_latency(500, 400, 0.2, 9_000);
                node.set_fault_plan(Some(if i == 2 { plan.with_flap(6, 14) } else { plan }));
            }
            sys.set_resilience(ResilienceConfig::hardened(0x1A4E5));
            let mut trace = Vec::new();
            for (i, probe) in probes.iter().chain(&probes).enumerate() {
                // Halfway through, an insert publishes epoch 1.
                if i == probes.len() {
                    let planted = sys.embed(&probes[0]).unwrap();
                    sys.insert(VideoId { class: 99, instance: 0 }, planted).unwrap();
                }
                trace.push(sys.retrieve_resilient(&sys.embed(probe).unwrap()).unwrap());
            }
            (trace, sys.breaker_states())
        };
        let inline = replay(None);
        let sum = |count: fn(&QueryTelemetry) -> u64| {
            inline.0.iter().map(|r| count(&r.telemetry)).sum::<u64>()
        };
        // The schedule must fire every mechanism the lanes could disturb.
        assert!(sum(|t| t.transient_faults) > 0, "no transients");
        assert!(sum(|t| t.hedges) > 0, "no hedges");
        assert!(sum(|t| t.breaker_skips) > 0 && sum(|t| t.breaker_closes) > 0, "no breaker cycle");
        assert_eq!(inline.0.last().map(|r| r.epoch), Some(1));
        for lanes in [1, 2, 3, 5, 6] {
            assert_eq!(replay(Some(lanes)), inline, "{lanes} lanes diverged from inline");
        }
    }

    #[test]
    fn rejects_invalid_ivf_config() {
        let mut rng = Rng64::new(135);
        let ds = SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), 3, 1, 0);
        let backbone = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
        let bad = RetrievalConfig { index: IndexMode::ivf(2, 5), ..Default::default() };
        assert!(RetrievalSystem::build(backbone, &ds, ds.train(), bad).is_err());
    }
}
