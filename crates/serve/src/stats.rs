//! Service-side observability: counters, batch-size histogram, latency
//! quantiles.

use crate::LatencyHistogram;
use duo_retrieval::{IndexBreakdown, MutationStats, QueryTelemetry};

/// Mutable counters maintained by the service under its stats lock.
#[derive(Debug)]
pub(crate) struct StatsInner {
    pub served: u64,
    pub failed: u64,
    pub rejected_budget: u64,
    pub rejected_rate: u64,
    pub rejected_overload: u64,
    pub batches: u64,
    /// `batch_hist[s]` counts batches of exactly `s` requests
    /// (index 0 is unused).
    pub batch_hist: Vec<u64>,
    pub max_queue_depth: usize,
    pub latency: LatencyHistogram,
    pub deadline_misses: u64,
    pub refunded: u64,
    /// Highest gallery epoch any served query scored against.
    pub max_epoch_served: u64,
    pub degraded: u64,
    pub retries: u64,
    pub hedges: u64,
    pub node_timeouts: u64,
    pub transient_faults: u64,
    pub contained_panics: u64,
    pub breaker_skips: u64,
    pub breaker_opens: u64,
    pub breaker_half_opens: u64,
    pub breaker_closes: u64,
    /// Per-node failed-query counters, indexed like the system's shards.
    pub node_failures: Vec<u64>,
    pub defense_observed: u64,
    pub defense_flagged: u64,
    pub defense_throttled: u64,
    pub defense_rejected: u64,
    pub purified: u64,
}

impl StatsInner {
    pub fn new(batch_max: usize, nodes: usize) -> Self {
        StatsInner {
            served: 0,
            failed: 0,
            rejected_budget: 0,
            rejected_rate: 0,
            rejected_overload: 0,
            batches: 0,
            batch_hist: vec![0; batch_max + 1],
            max_queue_depth: 0,
            latency: LatencyHistogram::new(),
            deadline_misses: 0,
            refunded: 0,
            max_epoch_served: 0,
            degraded: 0,
            retries: 0,
            hedges: 0,
            node_timeouts: 0,
            transient_faults: 0,
            contained_panics: 0,
            breaker_skips: 0,
            breaker_opens: 0,
            breaker_half_opens: 0,
            breaker_closes: 0,
            node_failures: vec![0; nodes],
            defense_observed: 0,
            defense_flagged: 0,
            defense_throttled: 0,
            defense_rejected: 0,
            purified: 0,
        }
    }

    /// Folds one query's resilience telemetry into the service counters.
    pub fn absorb(&mut self, telemetry: &QueryTelemetry) {
        self.retries += telemetry.retries;
        self.hedges += telemetry.hedges;
        self.node_timeouts += telemetry.node_timeouts;
        self.transient_faults += telemetry.transient_faults;
        self.contained_panics += telemetry.panics;
        self.breaker_skips += telemetry.breaker_skips;
        self.breaker_opens += telemetry.breaker_opens;
        self.breaker_half_opens += telemetry.breaker_half_opens;
        self.breaker_closes += telemetry.breaker_closes;
        for (total, &n) in self.node_failures.iter_mut().zip(&telemetry.node_failures) {
            *total += n;
        }
    }

    /// Builds the public snapshot. `index` is the system's shard-index
    /// breakdown
    /// ([`duo_retrieval::RetrievalSystem::index_breakdown`]),
    /// `epoch`/`mutation` the gallery's epoch counter and mutation totals
    /// ([`duo_retrieval::RetrievalSystem::mutation_stats`]) — all sampled
    /// by the caller at snapshot time; the system maintains them on its
    /// own paths, outside the service stats lock.
    pub fn snapshot(
        &self,
        queue_depth: usize,
        index: IndexBreakdown,
        epoch: u64,
        mutation: MutationStats,
    ) -> ServiceStats {
        let mut weighted = 0u64;
        let mut max_batch = 0usize;
        for (size, &n) in self.batch_hist.iter().enumerate() {
            weighted += size as u64 * n;
            if n > 0 {
                max_batch = size;
            }
        }
        let mean_batch = if self.batches == 0 {
            0.0
        } else {
            weighted as f32 / self.batches as f32
        };
        ServiceStats {
            served: self.served,
            failed: self.failed,
            rejected_budget: self.rejected_budget,
            rejected_rate: self.rejected_rate,
            rejected_overload: self.rejected_overload,
            batches: self.batches,
            batch_hist: self.batch_hist.clone(),
            mean_batch,
            max_batch,
            queue_depth,
            max_queue_depth: self.max_queue_depth,
            latency_p50_us: self.latency.quantile_us(0.50),
            latency_p95_us: self.latency.quantile_us(0.95),
            latency_max_us: self.latency.max_us(),
            deadline_misses: self.deadline_misses,
            refunded: self.refunded,
            current_epoch: epoch,
            max_epoch_served: self.max_epoch_served,
            epochs_published: mutation.epochs_published,
            mutations_applied: mutation.mutations_applied,
            rebalances: mutation.rebalances,
            rows_rebalanced: mutation.rows_rebalanced,
            degraded: self.degraded,
            retries: self.retries,
            hedges: self.hedges,
            node_timeouts: self.node_timeouts,
            transient_faults: self.transient_faults,
            contained_panics: self.contained_panics,
            breaker_skips: self.breaker_skips,
            breaker_opens: self.breaker_opens,
            breaker_half_opens: self.breaker_half_opens,
            breaker_closes: self.breaker_closes,
            node_failures: self.node_failures.clone(),
            defense_observed: self.defense_observed,
            defense_flagged: self.defense_flagged,
            defense_throttled: self.defense_throttled,
            defense_rejected: self.defense_rejected,
            purified: self.purified,
            index_queries: index.total.queries,
            index_probed_lists: index.total.probed_lists,
            index_scanned_rows: index.total.scanned_rows,
            index_reranked_rows: index.total.reranked_rows,
            index_mean_probes: index.total.mean_probes(),
            index_feature_bytes: index.feature_bytes,
            index_code_bytes: index.code_bytes,
            recall_audits: index.total.audit_queries,
            recall_at_m: index.total.recall_at_m(),
        }
    }
}

/// A point-in-time snapshot of one client's serving counters.
///
/// The service keeps these per [`ClientAccount`] slot, under the same
/// lock that guards the client's budget ledger, so `charged` is always
/// consistent with the rejection/serve counters:
/// `charged == served + failed` once the client's in-flight requests
/// have drained (deadline-shed requests are refunded before the miss is
/// counted).
///
/// Unlike the global [`ServiceStats`], every field here is deterministic
/// for a deterministic client workload — rejections on budget and
/// deadline misses depend only on the client's own request stream, never
/// on cross-client timing. (`rejected_rate` and `rejected_overload` are
/// the exception: they depend on wall-clock arrival order, which is why
/// the campaign leaderboard excludes them.)
///
/// [`ClientAccount`]: crate::RetrievalService::client
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Queries charged to the client's budget ledger (net of refunds).
    pub charged: u64,
    /// Queries answered successfully for this client.
    pub served: u64,
    /// Queries that reached the model for this client but failed.
    pub failed: u64,
    /// Admissions rejected on this client's exhausted budget.
    pub rejected_budget: u64,
    /// Admissions rejected by this client's token-bucket rate limiter.
    pub rejected_rate: u64,
    /// Admissions shed for this client because the ingress queue was full.
    pub rejected_overload: u64,
    /// Admitted requests shed (and refunded) on deadline expiry.
    pub deadline_misses: u64,
    /// Admission-time charges handed back when the request was shed
    /// before reaching the node fan-out. Every shed refunds exactly once,
    /// so `refunded == deadline_misses` once in-flight requests drain —
    /// the budget-drift invariant extended to epoch-swap sheds.
    pub refunded: u64,
    /// Admission attempts observed by this client's streaming detector
    /// (every attempt that passed the budget and rate gates, including
    /// later-throttled/rejected ones). 0 when the service is undefended.
    pub defense_observed: u64,
    /// Observations the detector flagged as adversarial-looking.
    pub defense_flagged: u64,
    /// Admission attempts bounced by the throttle band (not charged).
    pub defense_throttled: u64,
    /// Admission attempts hard-rejected after quarantine (not charged).
    pub defense_rejected: u64,
}
duo_tensor::impl_to_json!(struct ClientStats {
    charged, served, failed, rejected_budget, rejected_rate,
    rejected_overload, deadline_misses, refunded,
    defense_observed, defense_flagged, defense_throttled, defense_rejected
});

/// A point-in-time snapshot of service counters.
///
/// `rejected_*` queries never reached the model and were not charged to
/// any budget; `served + failed` is the number of queries that did.
/// Latency quantiles are measured from admission to retrieval completion
/// (queueing + batching + embedding + node fan-out).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Queries answered successfully.
    pub served: u64,
    /// Queries that reached the model but failed (extraction/node errors).
    pub failed: u64,
    /// Admissions rejected on an exhausted hard budget.
    pub rejected_budget: u64,
    /// Admissions rejected by the token-bucket rate limiter.
    pub rejected_rate: u64,
    /// Admissions shed because the ingress queue was full.
    pub rejected_overload: u64,
    /// Batches embedded (one chunked embed each).
    pub batches: u64,
    /// `batch_hist[s]` counts batches of exactly `s` requests.
    pub batch_hist: Vec<u64>,
    /// Mean requests per batch.
    pub mean_batch: f32,
    /// Largest batch observed.
    pub max_batch: usize,
    /// Requests sitting in the ingress queue at snapshot time.
    pub queue_depth: usize,
    /// High-water mark of the ingress queue.
    pub max_queue_depth: usize,
    /// Median end-to-end latency, microseconds (bucket upper bound).
    pub latency_p50_us: u64,
    /// 95th-percentile end-to-end latency, microseconds.
    pub latency_p95_us: u64,
    /// Worst-case end-to-end latency, microseconds.
    pub latency_max_us: u64,
    /// Admitted requests shed because their end-to-end deadline expired
    /// in the queue; their charges were refunded.
    pub deadline_misses: u64,
    /// Admission charges refunded to clients (one per shed request;
    /// equals `deadline_misses` once in-flight requests have drained).
    pub refunded: u64,
    /// The gallery epoch at snapshot time (bumps once per published
    /// mutation/rebalance transaction; 0 for an immutable gallery).
    pub current_epoch: u64,
    /// Highest epoch any served query scored against. At most
    /// `current_epoch`; queries admitted before a publish may legally
    /// serve from the prior epoch.
    pub max_epoch_served: u64,
    /// Epoch transactions published over the service's lifetime.
    pub epochs_published: u64,
    /// Individual gallery mutations applied (inserts + updates +
    /// deletes; delete misses excluded).
    pub mutations_applied: u64,
    /// Rebalance transactions that moved at least one row.
    pub rebalances: u64,
    /// Rows moved between shards by rebalances.
    pub rows_rebalanced: u64,
    /// Served queries answered from partial shard coverage.
    pub degraded: u64,
    /// Node retry attempts issued by the resilient fan-out.
    pub retries: u64,
    /// Hedged second attempts issued.
    pub hedges: u64,
    /// Node attempts that blew their virtual per-node deadline.
    pub node_timeouts: u64,
    /// Injected transient node failures observed.
    pub transient_faults: u64,
    /// Node panics contained into shard failures.
    pub contained_panics: u64,
    /// Node queries skipped by an open circuit breaker.
    pub breaker_skips: u64,
    /// Circuit-breaker trips to open.
    pub breaker_opens: u64,
    /// Circuit-breaker half-open probe admissions.
    pub breaker_half_opens: u64,
    /// Circuit-breaker recoveries to closed.
    pub breaker_closes: u64,
    /// Failed queries per data node (shard index order).
    pub node_failures: Vec<u64>,
    /// Shard-index searches executed (one per node per retrieval).
    pub index_queries: u64,
    /// Inverted lists probed across all IVF queries (0 for exact shards).
    pub index_probed_lists: u64,
    /// Feature rows pushed through the distance kernel.
    pub index_scanned_rows: u64,
    /// Candidate rows rescored at exact f32 precision by the compressed
    /// modes' rerank tail.
    pub index_reranked_rows: u64,
    /// Mean inverted lists probed per shard search.
    pub index_mean_probes: f32,
    /// Bytes of retained f32 feature matrix across all shards.
    pub index_feature_bytes: u64,
    /// Bytes of compressed codes plus codec tables across all shards
    /// (0 when no shard runs a compressed mode).
    pub index_code_bytes: u64,
    /// Coarse (IVF/PQ) searches recall-audited against an exact scan.
    pub recall_audits: u64,
    /// Running recall@m estimate from the audited coarse searches; `None`
    /// until the first audit (always `None` for exact-only traffic,
    /// whose recall is 1 by construction).
    pub recall_at_m: Option<f32>,
    /// Admission attempts observed by the streaming defense across all
    /// clients (0 when the service runs undefended).
    pub defense_observed: u64,
    /// Observations the streaming defense flagged as adversarial-looking.
    pub defense_flagged: u64,
    /// Admission attempts bounced by the throttle band; never charged.
    pub defense_throttled: u64,
    /// Admission attempts hard-rejected after quarantine; never charged.
    pub defense_rejected: u64,
    /// Admitted queries run through the configured purification transform
    /// before the batched embed.
    pub purified: u64,
}
duo_tensor::impl_to_json!(struct ServiceStats {
    served, failed, rejected_budget, rejected_rate, rejected_overload, batches,
    batch_hist, mean_batch, max_batch, queue_depth, max_queue_depth,
    latency_p50_us, latency_p95_us, latency_max_us,
    deadline_misses, refunded, current_epoch, max_epoch_served,
    epochs_published, mutations_applied, rebalances, rows_rebalanced,
    degraded, retries, hedges, node_timeouts, transient_faults,
    contained_panics, breaker_skips, breaker_opens, breaker_half_opens,
    breaker_closes, node_failures,
    index_queries, index_probed_lists, index_scanned_rows,
    index_reranked_rows, index_mean_probes,
    index_feature_bytes, index_code_bytes,
    recall_audits, recall_at_m,
    defense_observed, defense_flagged, defense_throttled, defense_rejected,
    purified
});

impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "served {} / failed {} (rejected: {} budget, {} rate, {} overload)",
            self.served, self.failed, self.rejected_budget, self.rejected_rate,
            self.rejected_overload
        )?;
        writeln!(
            f,
            "batches {} (mean {:.2}, max {}), queue depth {} (peak {})",
            self.batches, self.mean_batch, self.max_batch, self.queue_depth,
            self.max_queue_depth
        )?;
        writeln!(
            f,
            "latency p50 {} us, p95 {} us, max {} us",
            self.latency_p50_us, self.latency_p95_us, self.latency_max_us
        )?;
        writeln!(
            f,
            "resilience: {} retries, {} hedges, {} timeouts, {} transients, \
             {} degraded, {} deadline misses, breaker {}/{}/{} (open/probe/close)",
            self.retries, self.hedges, self.node_timeouts, self.transient_faults,
            self.degraded, self.deadline_misses, self.breaker_opens,
            self.breaker_half_opens, self.breaker_closes
        )?;
        writeln!(
            f,
            "gallery: epoch {} (max served {}), {} epochs published, \
             {} mutations, {} rebalances ({} rows moved), {} refunds",
            self.current_epoch, self.max_epoch_served, self.epochs_published,
            self.mutations_applied, self.rebalances, self.rows_rebalanced,
            self.refunded
        )?;
        writeln!(
            f,
            "defense: {} observed, {} flagged, {} throttled, {} rejected, {} purified",
            self.defense_observed, self.defense_flagged, self.defense_throttled,
            self.defense_rejected, self.purified
        )?;
        write!(
            f,
            "index: {} searches, {} rows scanned ({} reranked), {:.2} mean probes, \
             {} feat B + {} code B, recall@m {}",
            self.index_queries,
            self.index_scanned_rows,
            self.index_reranked_rows,
            self.index_mean_probes,
            self.index_feature_bytes,
            self.index_code_bytes,
            match self.recall_at_m {
                Some(r) => format!("{r:.3} ({} audits)", self.recall_audits),
                None => "n/a (exact)".to_string(),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duo_retrieval::IndexStats;
    use duo_tensor::ToJson;

    #[test]
    fn snapshot_computes_batch_statistics() {
        let mut inner = StatsInner::new(4, 2);
        inner.batch_hist[1] = 2;
        inner.batch_hist[3] = 2;
        inner.batches = 4;
        let stats = inner.snapshot(1, IndexBreakdown::default(), 0, MutationStats::default());
        assert_eq!(stats.mean_batch, 2.0);
        assert_eq!(stats.max_batch, 3);
        assert_eq!(stats.queue_depth, 1);
    }

    #[test]
    fn stats_serialize_to_json() {
        let inner = StatsInner::new(2, 3);
        let json = inner.snapshot(0, IndexBreakdown::default(), 0, MutationStats::default()).to_json().to_string();
        assert!(json.contains("\"served\":0"), "{json}");
        assert!(json.contains("\"batch_hist\":[0,0,0]"), "{json}");
        assert!(json.contains("\"latency_p95_us\":0"), "{json}");
        assert!(json.contains("\"node_failures\":[0,0,0]"), "{json}");
        assert!(json.contains("\"deadline_misses\":0"), "{json}");
        assert!(json.contains("\"index_queries\":0"), "{json}");
        assert!(json.contains("\"index_code_bytes\":0"), "{json}");
        assert!(json.contains("\"recall_at_m\":null"), "{json}");
        assert!(json.contains("\"defense_observed\":0"), "{json}");
        assert!(json.contains("\"purified\":0"), "{json}");
    }

    #[test]
    fn snapshot_carries_index_counters() {
        let inner = StatsInner::new(2, 2);
        let total = IndexStats {
            queries: 10,
            probed_lists: 40,
            scanned_rows: 500,
            reranked_rows: 64,
            audit_queries: 2,
            audit_hits: 19,
            audit_expected: 20,
        };
        let index = IndexBreakdown { total, feature_bytes: 4096, code_bytes: 1024 };
        let stats = inner.snapshot(0, index, 0, MutationStats::default());
        assert_eq!(stats.index_queries, 10);
        assert_eq!(stats.index_mean_probes, 4.0);
        assert_eq!(stats.index_reranked_rows, 64);
        assert_eq!(stats.index_feature_bytes, 4096);
        assert_eq!(stats.index_code_bytes, 1024);
        assert_eq!(stats.recall_audits, 2);
        assert_eq!(stats.recall_at_m, Some(0.95));
        let json = stats.to_json().to_string();
        assert!(json.contains("\"recall_at_m\":0.95"), "{json}");
        let shown = stats.to_string();
        assert!(shown.contains("recall@m 0.950 (2 audits)"), "{shown}");
        assert!(shown.contains("64 reranked"), "{shown}");
    }

    #[test]
    fn absorb_accumulates_telemetry() {
        let mut inner = StatsInner::new(2, 2);
        let mut t = QueryTelemetry::new(2);
        t.retries = 3;
        t.hedges = 1;
        t.node_timeouts = 2;
        t.breaker_opens = 1;
        t.node_failures[1] = 2;
        inner.absorb(&t);
        inner.absorb(&t);
        let stats = inner.snapshot(0, IndexBreakdown::default(), 0, MutationStats::default());
        assert_eq!(stats.retries, 6);
        assert_eq!(stats.hedges, 2);
        assert_eq!(stats.node_timeouts, 4);
        assert_eq!(stats.breaker_opens, 2);
        assert_eq!(stats.node_failures, vec![0, 4]);
    }
}
