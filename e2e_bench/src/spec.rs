//! The workloads and how their inputs scale with `--seconds`.
//!
//! Every workload runs [`ROUNDS`] rounds of the same three phases
//! against one live service:
//!
//! 1. **open** — reads at seeded Poisson arrivals, taken in schedule
//!    order by `nproc` reader threads, while one writer thread applies
//!    gallery writes at a fixed interval;
//! 2. **saturation** — `nproc` closed-loop senders, writes stopped;
//! 3. **attack** — one closed-loop DUO attacker over the same seeded pair
//!    list in every round.
//!
//! Every round does the same work. Query latency, capacity and attack
//! time are taken per round and reported for the best round; publish
//! time is the median over all the run's writes (see `Round` in
//! `main.rs`).
//! Spreading every phase over the whole run, instead of giving each one a
//! single stretch of it, keeps a burst of machine slowness from moving
//! them.
//!
//! The workloads differ in service configuration, gallery size and index
//! mode, so each one puts a different layer on the critical path.

use duo_retrieval::IndexMode;

/// One workload's fixed parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists: the layer it loads.
    pub why: &'static str,
    /// Whether the service runs the streaming detector (no purification).
    pub defended: bool,
    /// Index mode of every shard.
    pub index: IndexMode,
    /// Data-node shards.
    pub nodes: usize,
    /// Gallery rows per shard once synthetic rows are loaded.
    pub rows_per_shard: usize,
    /// Open-loop read arrivals per second.
    pub read_rate: f64,
    /// Share of each round the open phase's schedule spans.
    pub open_share: f64,
    /// Seconds between scheduled gallery writes.
    pub write_interval_s: f64,
    /// Rows deleted and inserted by each write.
    pub churn_rows: usize,
    /// A rebalance follows every this many writes.
    pub rebalance_every: usize,
    /// Share of each round spent in the saturation phase.
    pub saturation_share: f64,
    /// Attack pairs, the same ones attacked in every round.
    pub pairs: usize,
    /// Lowest acceptable audited PQ recall@m, for compressed indexes.
    pub recall_floor: Option<f64>,
}

/// Rounds of the three phases per run.
pub const ROUNDS: usize = 5;

/// Input sizes of one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Open-loop reads.
    pub reads: usize,
    /// Gallery writes (each followed by a rebalance on its cadence).
    pub writes: usize,
    /// Saturation phase length, milliseconds.
    pub saturation_ms: u64,
    /// Attack pairs.
    pub pairs: usize,
}

impl Spec {
    /// The per-round input sizes for a run measuring about `seconds`
    /// seconds.
    pub fn sizes(&self, seconds: u64) -> Sizes {
        let round_s = seconds as f64 / ROUNDS as f64;
        let open_s = self.open_share * round_s;
        Sizes {
            reads: (self.read_rate * open_s).round() as usize,
            // The epsilon keeps float error (2.4 / 0.8 = 2.999…) from
            // dropping a write that fits exactly.
            writes: (open_s / self.write_interval_s + 1e-9).floor() as usize,
            saturation_ms: (self.saturation_share * round_s * 1000.0).round() as u64,
            pairs: self.pairs,
        }
    }
}

/// The benchmark's workloads.
///
/// The rates, cadences and batch sizes are chosen, not taken from a
/// production trace. Each open-phase read rate is a quarter to a third of
/// the workload's saturation capacity measured on a 2-vCPU reference
/// machine (about 270 and 145 queries/s), so the open phase measures
/// service time plus batching delay rather than queueing, and the queue
/// stays stable even when the machine runs at half speed. The write
/// cadences follow from what each write costs there: an exact-index
/// publish of a few rows takes about 20 µs, so `serve_steady` writes nine
/// times a round for a steady publish median at no visible load, while a
/// `gallery_churn` publish rebuilds one 3,000-row PQ shard in 110–120 ms
/// alone and about 210 ms while reads run, so one every 0.8 s keeps a
/// writer busy about a quarter of a core: reads and writes contend
/// without the writer taking a core. A churn
/// batch of 64 rows is 2% of a shard. Each workload rebalances once per
/// round, after its last write. Shares of the round: 60% open, 25%
/// saturation (1 s at the default length, a few hundred replies), and
/// the attack phase takes what its two pairs need.
pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "serve_steady",
        why: "benign open-loop traffic on a small exact gallery with streaming detection on: backbone \
              forward, batching and admission carry the work, shard search almost none",
        defended: true,
        index: IndexMode::Exact,
        nodes: 2,
        rows_per_shard: 32,
        read_rate: 70.0,
        open_share: 0.6,
        write_interval_s: 0.25,
        churn_rows: 2,
        rebalance_every: 9,
        saturation_share: 0.25,
        pairs: 2,
        recall_floor: None,
    },
    Spec {
        name: "gallery_churn",
        why: "open-loop reads on a large IVF-PQ gallery while insert+delete batches publish epochs: \
              ADC scan, rerank and shard rebuilds dominate, and reads and writes share the cores",
        defended: false,
        index: IndexMode::Pq { nlist: 8, nprobe: 8, m_sub: 64, nbits: 4, rerank: 256 },
        nodes: 8,
        rows_per_shard: 3_000,
        read_rate: 50.0,
        open_share: 0.6,
        write_interval_s: 0.8,
        churn_rows: 64,
        rebalance_every: 3,
        saturation_share: 0.25,
        pairs: 2,
        recall_floor: Some(0.8),
    },
];

/// The workload named `name`.
pub fn by_name(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_reasons_fit_one_line() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert_eq!(by_name(w.name), Some(w));
        }
        assert_eq!(by_name("nope"), None);
    }

    #[test]
    fn benchmark_json_lists_these_workloads() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(text.matches("\"why\"").count(), WORKLOADS.len());
        for w in &WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    /// The pooled tail needs 200 queries for a p95 with ten beyond it,
    /// every round writes, and every round ends with exactly one
    /// rebalance, so rounds do equal work.
    #[test]
    fn default_run_supports_the_reported_statistics() {
        for w in &WORKLOADS {
            let sizes = w.sizes(crate::DEFAULT_SECONDS);
            assert!(
                sizes.reads * ROUNDS >= 200 && sizes.writes >= 1,
                "{}",
                w.name
            );
            assert_eq!(sizes.writes, w.rebalance_every, "{}", w.name);
        }
    }
}
