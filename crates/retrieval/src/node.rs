use crate::{FaultPlan, IndexMode, IndexStats, ShardIndex};
use duo_tensor::Tensor;
use duo_video::VideoId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// A gallery entry scored against a query embedding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredId {
    /// The gallery video.
    pub id: VideoId,
    /// Squared Euclidean distance to the query embedding (lower = more
    /// similar).
    pub distance: f32,
}
duo_tensor::impl_to_json!(struct ScoredId { id, distance });

/// Operational state of a data node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeStatus {
    /// Node answers queries.
    Online,
    /// Node is down; its shard is unavailable.
    Offline,
}
duo_tensor::impl_to_json!(enum NodeStatus { Online, Offline });

/// Why a node attempt produced no shard answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeFault {
    /// The node is down — hard [`NodeStatus::Offline`] or inside a
    /// scheduled [`crate::FlapWindow`].
    Offline,
    /// The injected fault schedule failed this query transiently; a
    /// retry (which consumes the next query index) may succeed.
    Transient,
    /// The node thread panicked mid-query (contained by the fan-out).
    Panicked,
}

/// A successful shard answer plus its chaos metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeAnswer {
    /// Local top-`m` results, nearest first.
    pub results: Vec<ScoredId>,
    /// Virtual service latency injected by the fault plan, microseconds
    /// (zero without a plan). The resilience layer compares this against
    /// its per-node deadline.
    pub delay_us: u64,
    /// The node-local query index this attempt consumed.
    pub index: u64,
}

/// One shard of the distributed gallery.
///
/// A node stores its share of the gallery in a [`ShardIndex`] — a
/// structure-of-arrays feature matrix with an optional IVF coarse
/// quantizer (see [`crate::index`]) — and answers local top-`m`
/// nearest-neighbour queries through it. Status is behind a read–write
/// lock so a failure-injection harness can flip nodes offline while
/// queries are in flight; an optional seeded [`FaultPlan`] injects
/// transient errors, latency, and flap schedules deterministically (see
/// [`crate::chaos`]).
///
/// The index itself sits behind an `Arc` generation pointer: queries
/// clone the pointer ([`DataNode::snapshot`]) and score one immutable
/// generation end to end, while an epoch publisher swaps the pointer to
/// the next generation ([`crate::RetrievalSystem::apply`]). Retired
/// generations' scan counters fold into a node-level accumulator at the
/// swap, so [`DataNode::index_stats`] stays monotonic across epochs.
#[derive(Debug)]
pub struct DataNode {
    name: String,
    index: RwLock<Arc<ShardIndex>>,
    /// The k-means seed every generation of this shard trains with
    /// ([`crate::shard_seed`] of the node position, by convention).
    seed: u64,
    status: RwLock<NodeStatus>,
    fault_plan: RwLock<Option<FaultPlan>>,
    queries_seen: AtomicU64,
    /// Scan counters of retired index generations, folded in at swap.
    retired_stats: Mutex<IndexStats>,
}

impl DataNode {
    /// Creates an online exact-mode node with the given shard contents.
    ///
    /// # Panics
    ///
    /// Panics when entries disagree on feature dimension — the
    /// validation the seed scan repeated per entry per query, hoisted to
    /// construction.
    pub fn new(name: impl Into<String>, entries: Vec<(VideoId, Tensor)>) -> Self {
        Self::with_index_mode(name, entries, IndexMode::Exact, 0)
            .expect("gallery features share one dimension")
    }

    /// Creates an online node whose shard is indexed in `mode`; `seed`
    /// feeds the IVF k-means (use [`crate::shard_seed`] for the
    /// per-shard convention; exact mode ignores it). The seed is kept:
    /// every later epoch rebuild of this shard trains with it too.
    ///
    /// # Errors
    ///
    /// Returns [`crate::RetrievalError::BadConfig`] for invalid IVF
    /// parameters or entries with disagreeing dimensions.
    pub fn with_index_mode(
        name: impl Into<String>,
        entries: Vec<(VideoId, Tensor)>,
        mode: IndexMode,
        seed: u64,
    ) -> crate::Result<Self> {
        Ok(DataNode {
            name: name.into(),
            index: RwLock::new(Arc::new(ShardIndex::build(&entries, mode, seed)?)),
            seed,
            status: RwLock::new(NodeStatus::Online),
            fault_plan: RwLock::new(None),
            queries_seen: AtomicU64::new(0),
            retired_stats: Mutex::new(IndexStats::default()),
        })
    }

    /// Creates an online node serving an already-built index generation
    /// (the `DUOINDX3` load path: the trained structure comes off disk,
    /// so nothing retrains). `seed` must be the seed the index was
    /// trained with — later epoch rebuilds of this shard reuse it.
    pub(crate) fn from_prebuilt(
        name: impl Into<String>,
        index: ShardIndex,
        seed: u64,
    ) -> Self {
        DataNode {
            name: name.into(),
            index: RwLock::new(Arc::new(index)),
            seed,
            status: RwLock::new(NodeStatus::Online),
            fault_plan: RwLock::new(None),
            queries_seen: AtomicU64::new(0),
            retired_stats: Mutex::new(IndexStats::default()),
        }
    }

    /// Node name (for diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of gallery entries held by this node's current generation.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// Whether the current generation is empty.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// The current index generation. The returned `Arc` pins an
    /// immutable [`ShardIndex`]: queries that scan it are unaffected by
    /// any epoch published afterwards. Iterate
    /// [`ShardIndex::rows`] on it to read the shard's `(id, feature)`
    /// contents without copying the gallery.
    pub fn snapshot(&self) -> Arc<ShardIndex> {
        Arc::clone(&self.index.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The k-means seed this shard's generations train with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Publishes a new index generation, retiring the current one. The
    /// retired generation's scan counters fold into the node's
    /// accumulator so [`DataNode::index_stats`] never moves backwards.
    /// Crate-internal: callers go through the system's epoch gate
    /// ([`crate::RetrievalSystem::apply`]), which makes multi-shard
    /// publishes atomic.
    pub(crate) fn install_index(&self, next: Arc<ShardIndex>) {
        let mut slot = self.index.write().unwrap_or_else(|e| e.into_inner());
        let retired = std::mem::replace(&mut *slot, next);
        self.retired_stats
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .merge(&retired.stats());
    }

    /// The shard's scan counters: the live generation's plus every
    /// retired generation's (monotonic across epoch publishes).
    pub fn index_stats(&self) -> IndexStats {
        let mut total = *self.retired_stats.lock().unwrap_or_else(|e| e.into_inner());
        total.merge(&self.snapshot().stats());
        total
    }

    /// Current operational status.
    ///
    /// A poisoned lock is recovered rather than propagated: status is a
    /// plain `Copy` flag with no invariants a panicking writer could have
    /// half-applied.
    pub fn status(&self) -> NodeStatus {
        *self.status.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes the node offline (failure injection).
    pub fn set_offline(&self) {
        *self.status.write().unwrap_or_else(|e| e.into_inner()) = NodeStatus::Offline;
    }

    /// Brings the node back online.
    pub fn set_online(&self) {
        *self.status.write().unwrap_or_else(|e| e.into_inner()) = NodeStatus::Online;
    }

    /// Installs (or with `None`, removes) a deterministic fault plan.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.fault_plan.write().unwrap_or_else(|e| e.into_inner()) = plan;
    }

    /// A copy of the installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault_plan.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Number of fault-aware query attempts this node has seen (the next
    /// attempt consumes this index in the fault schedule).
    pub fn queries_seen(&self) -> u64 {
        self.queries_seen.load(Ordering::SeqCst)
    }

    /// Fault-aware local query: consumes one index of the node's fault
    /// schedule and answers, fails, or reports itself down accordingly.
    ///
    /// Scores the current generation at call time. The resilient
    /// fan-out uses [`DataNode::try_query_at`] instead, pinning the
    /// generation captured at query admission so retries and hedges of
    /// one query can never straddle an epoch publish.
    ///
    /// # Errors
    ///
    /// [`NodeFault::Offline`] when hard-offline or inside a flap window,
    /// [`NodeFault::Transient`] when the schedule fails this attempt.
    pub fn try_query(&self, query: &Tensor, m: usize) -> Result<NodeAnswer, NodeFault> {
        let snap = self.snapshot();
        self.try_query_at(&snap, query, m)
    }

    /// Like [`DataNode::try_query`], but scoring an explicit generation
    /// (from [`DataNode::snapshot`], typically captured under the
    /// system's epoch gate). The fault schedule and `queries_seen`
    /// counter live on the *node*, not the generation, so chaos
    /// trajectories are unaffected by epoch publishes.
    ///
    /// # Errors
    ///
    /// As for [`DataNode::try_query`].
    pub fn try_query_at(
        &self,
        snap: &ShardIndex,
        query: &Tensor,
        m: usize,
    ) -> Result<NodeAnswer, NodeFault> {
        if self.status() == NodeStatus::Offline {
            return Err(NodeFault::Offline);
        }
        let index = self.queries_seen.fetch_add(1, Ordering::SeqCst);
        let decision = self
            .fault_plan
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map_or_else(crate::FaultDecision::clean, |plan| plan.decision(index));
        if decision.offline {
            return Err(NodeFault::Offline);
        }
        if decision.transient {
            return Err(NodeFault::Transient);
        }
        let results = snap.search(query.as_slice(), m);
        Ok(NodeAnswer { results, delay_us: decision.delay_us, index })
    }

    /// Local top-`m` nearest entries to `query`, or `None` when offline.
    ///
    /// Results are sorted ascending by distance; ties break by id for
    /// determinism across shard layouts.
    pub fn query(&self, query: &Tensor, m: usize) -> Option<Vec<ScoredId>> {
        if self.status() == NodeStatus::Offline {
            return None;
        }
        Some(self.snapshot().search(query.as_slice(), m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feat(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(v, &[n]).unwrap()
    }

    fn sample_node() -> DataNode {
        DataNode::new(
            "node-0",
            vec![
                (VideoId { class: 0, instance: 0 }, feat(vec![0.0, 0.0])),
                (VideoId { class: 1, instance: 0 }, feat(vec![1.0, 0.0])),
                (VideoId { class: 2, instance: 0 }, feat(vec![3.0, 4.0])),
            ],
        )
    }

    #[test]
    fn query_returns_nearest_first() {
        let node = sample_node();
        let res = node.query(&feat(vec![0.9, 0.0]), 2).unwrap();
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].id.class, 1);
        assert_eq!(res[1].id.class, 0);
        assert!(res[0].distance <= res[1].distance);
    }

    #[test]
    fn offline_node_returns_none() {
        let node = sample_node();
        node.set_offline();
        assert_eq!(node.status(), NodeStatus::Offline);
        assert!(node.query(&feat(vec![0.0, 0.0]), 1).is_none());
        node.set_online();
        assert!(node.query(&feat(vec![0.0, 0.0]), 1).is_some());
    }

    #[test]
    fn m_larger_than_shard_returns_all() {
        let node = sample_node();
        let res = node.query(&feat(vec![0.0, 0.0]), 10).unwrap();
        assert_eq!(res.len(), 3);
    }

    #[test]
    fn try_query_without_plan_matches_query() {
        let node = sample_node();
        let q = feat(vec![0.5, 0.5]);
        let plain = node.query(&q, 3).unwrap();
        let answer = node.try_query(&q, 3).unwrap();
        assert_eq!(answer.results, plain);
        assert_eq!(answer.delay_us, 0);
        assert_eq!(answer.index, 0);
        assert_eq!(node.queries_seen(), 1);
    }

    #[test]
    fn try_query_follows_the_fault_schedule() {
        let node = sample_node();
        let plan = FaultPlan::transient(77, 0.5).with_flap(0, 2);
        let schedule = plan.schedule(32);
        node.set_fault_plan(Some(plan));
        let q = feat(vec![0.0, 0.0]);
        for (i, d) in schedule.iter().enumerate() {
            let got = node.try_query(&q, 2);
            if d.offline {
                assert_eq!(got, Err(NodeFault::Offline), "index {i}");
            } else if d.transient {
                assert_eq!(got, Err(NodeFault::Transient), "index {i}");
            } else {
                let ans = got.unwrap();
                assert_eq!(ans.index, i as u64);
                assert_eq!(ans.delay_us, d.delay_us);
            }
        }
    }

    #[test]
    fn hard_offline_beats_the_plan_and_skips_no_index() {
        let node = sample_node();
        node.set_fault_plan(Some(FaultPlan::none(3)));
        node.set_offline();
        assert_eq!(node.try_query(&feat(vec![0.0, 0.0]), 1), Err(NodeFault::Offline));
        assert_eq!(node.queries_seen(), 0, "hard-down attempts consume no schedule index");
    }

    #[test]
    fn ivf_node_answers_like_exact_at_full_probe() {
        let entries: Vec<(VideoId, Tensor)> = (0..24u32)
            .map(|i| (VideoId { class: i, instance: 0 }, feat(vec![i as f32, 0.5])))
            .collect();
        let exact = DataNode::new("exact", entries.clone());
        let ivf =
            DataNode::with_index_mode("ivf", entries, IndexMode::ivf(4, 4), 11).unwrap();
        let q = feat(vec![9.4, 0.5]);
        assert_eq!(ivf.query(&q, 6), exact.query(&q, 6));
        assert!(ivf.index_stats().probed_lists > 0);
        assert_eq!(exact.index_stats().probed_lists, 0);
    }

    #[test]
    fn mixed_dimension_entries_fail_index_build() {
        let entries = vec![
            (VideoId { class: 0, instance: 0 }, feat(vec![0.0, 0.0])),
            (VideoId { class: 1, instance: 0 }, feat(vec![0.0])),
        ];
        assert!(DataNode::with_index_mode("bad", entries, IndexMode::Exact, 0).is_err());
    }

    #[test]
    fn snapshot_rows_borrow_in_row_order() {
        let node = sample_node();
        let snap = node.snapshot();
        let got: Vec<_> = snap.rows().collect();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].0, VideoId { class: 0, instance: 0 });
        assert_eq!(got[2].1, &[3.0, 4.0]);
    }

    #[test]
    fn install_index_pins_old_snapshots_and_folds_stats() {
        let node = sample_node();
        let q = feat(vec![0.0, 0.0]);
        let old = node.snapshot();
        node.query(&q, 1).unwrap();
        assert_eq!(node.index_stats().queries, 1);
        // Publish a one-row generation; the pinned snapshot still holds
        // all three rows, the node now serves one, and the retired
        // generation's counters survive in the accumulator.
        let next = crate::ShardIndex::build(
            &[(VideoId { class: 9, instance: 0 }, feat(vec![5.0, 5.0]))],
            IndexMode::Exact,
            0,
        )
        .unwrap();
        node.install_index(std::sync::Arc::new(next));
        assert_eq!(old.len(), 3, "pinned generation is immutable");
        assert_eq!(node.len(), 1);
        let res = node.query(&q, 3).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].id.class, 9);
        assert_eq!(node.index_stats().queries, 2, "stats stay monotonic across the swap");
    }

    #[test]
    fn tie_break_is_deterministic() {
        let node = DataNode::new(
            "t",
            vec![
                (VideoId { class: 5, instance: 1 }, feat(vec![1.0])),
                (VideoId { class: 5, instance: 0 }, feat(vec![1.0])),
            ],
        );
        let res = node.query(&feat(vec![0.0]), 2).unwrap();
        assert_eq!(res[0].id.instance, 0, "equal distances break ties by id");
    }
}
