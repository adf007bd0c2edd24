//! Seeded workload inputs: the open-loop arrival schedule, the query
//! sequence, the attack pair list and the gallery mutation batches.
//!
//! Every generator is a pure function of its seed and sizes, so the same
//! `--seed` replays the same inputs, and all of them run during set-up:
//! the timed window only consumes what was generated here.

use duo_retrieval::{MutationBatch, RetrievalSystem};
use duo_tensor::{Rng64, Tensor};
use duo_video::{SyntheticDataset, VideoId};

/// First class id of synthetic gallery rows. Real catalogs use class ids
/// below 101, so synthetic ids never collide with a real clip.
pub const SYNTH_CLASS: u32 = 1_000;

/// Synthetic instances per synthetic class id.
const SYNTH_PER_CLASS: u32 = 100_000;

const SALT_ARRIVALS: u64 = 0xA771_7A15;
const SALT_QUERIES: u64 = 0x09E1_21E5;
const SALT_PAIRS: u64 = 0x9A_125;
const SALT_ROWS: u64 = 0x5_7E75;

/// One round's open-loop schedule, in seconds from the start of the
/// round's open phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Reads in due order: `(due, index of the query clip in the pool)`.
    pub reads: Vec<(f64, usize)>,
    /// Writes in due order: `(due, index of the churn plan's batch)`.
    pub writes: Vec<(f64, usize)>,
}

impl Schedule {
    /// Reads at exponential gaps of mean `1 / read_rate` (a Poisson
    /// process), each drawing a uniformly random clip of `pool` clips;
    /// the churn plan's batches `batches` at a fixed `write_interval_s`,
    /// the first half an interval in.
    pub fn open_loop(
        seed: u64,
        read_rate: f64,
        reads: usize,
        pool: usize,
        write_interval_s: f64,
        batches: std::ops::Range<usize>,
    ) -> Schedule {
        let mut arrivals = Rng64::new(seed ^ SALT_ARRIVALS);
        let mut queries = Rng64::new(seed ^ SALT_QUERIES);
        let mut t = 0.0f64;
        let reads = (0..reads)
            .map(|_| {
                // 1 − u lies in (0, 1], so the logarithm is finite.
                let u = f64::from(arrivals.uniform());
                t += -(1.0 - u).ln() / read_rate;
                (t, queries.below(pool))
            })
            .collect();
        let first = batches.start;
        let writes = batches
            .map(|k| (((k - first) as f64 + 0.5) * write_interval_s, k))
            .collect();
        Schedule { reads, writes }
    }
}

/// A fixed seeded list of `(v, v_t)` attack pairs with distinct classes,
/// drawn from the first `classes` classes of the training catalog.
pub fn attack_pairs(
    dataset: &SyntheticDataset,
    classes: u32,
    count: usize,
    seed: u64,
) -> Vec<(VideoId, VideoId)> {
    duo_experiments::attack_pairs(dataset, classes, count, &mut Rng64::new(seed ^ SALT_PAIRS))
}

/// Generator of synthetic gallery rows: seeded jitter around real
/// embeddings, so coarse lists stay balanced and recall audits compare
/// against neighbourhoods shaped like the real gallery's.
pub struct RowGenerator {
    rng: Rng64,
    centers: Vec<Tensor>,
    jitter: f32,
    next: u32,
}

impl RowGenerator {
    /// Rows jitter around `centers` with per-coordinate noise of
    /// `jitter` times each center's RMS coordinate.
    pub fn new(seed: u64, centers: Vec<Tensor>, jitter: f32) -> RowGenerator {
        assert!(
            !centers.is_empty(),
            "synthetic rows need at least one center"
        );
        RowGenerator {
            rng: Rng64::new(seed ^ SALT_ROWS),
            centers,
            jitter,
            next: 0,
        }
    }

    /// The next synthetic row, with a fresh id.
    pub fn row(&mut self) -> (VideoId, Tensor) {
        let center = &self.centers[self.rng.below(self.centers.len())];
        let c = center.as_slice();
        let rms = (c.iter().map(|x| x * x).sum::<f32>() / c.len() as f32).sqrt();
        let scale = self.jitter * rms;
        let feat: Vec<f32> = c.iter().map(|x| x + scale * self.rng.normal()).collect();
        let id = VideoId {
            class: SYNTH_CLASS + self.next / SYNTH_PER_CLASS,
            instance: self.next % SYNTH_PER_CLASS,
        };
        self.next += 1;
        (
            id,
            Tensor::from_vec(feat, &[c.len()]).expect("flat feature vector"),
        )
    }
}

/// Whether an id belongs to a synthetic row.
pub fn is_synthetic(id: VideoId) -> bool {
    id.class >= SYNTH_CLASS
}

/// The per-shard row ids of a system, in row order.
pub fn layout(system: &RetrievalSystem) -> Vec<Vec<VideoId>> {
    system
        .snapshot_with_epoch()
        .1
        .iter()
        .map(|s| s.ids().to_vec())
        .collect()
}

/// Every gallery write of one run, generated up front.
#[derive(Debug)]
pub struct ChurnPlan {
    /// Insert+delete batches, applied in order.
    pub batches: Vec<MutationBatch>,
    /// A rebalance follows every `rebalance_every`-th batch (0: never).
    pub rebalance_every: usize,
    /// The per-shard layout the gallery must have after every batch and
    /// rebalance, derived from the system's documented routing rules.
    pub expected: Vec<Vec<VideoId>>,
}

impl ChurnPlan {
    /// `count` batches against a gallery laid out as `start`. Batch `k`
    /// deletes the `size` oldest synthetic rows of shard `k mod shards`
    /// and inserts `size` fresh rows, so the gallery size never changes.
    /// Routing sends each insert to the smallest shard, which after those
    /// deletes is the shard just thinned: one dirty shard per publish.
    ///
    /// # Panics
    ///
    /// Panics when a shard runs out of synthetic rows to delete.
    pub fn new(
        start: &[Vec<VideoId>],
        rows: &mut RowGenerator,
        size: usize,
        count: usize,
        rebalance_every: usize,
    ) -> ChurnPlan {
        let mut layout = start.to_vec();
        let mut batches = Vec::with_capacity(count);
        for k in 0..count {
            let shard = k % layout.len();
            let victims: Vec<VideoId> = layout[shard]
                .iter()
                .copied()
                .filter(|&id| is_synthetic(id))
                .take(size)
                .collect();
            assert_eq!(
                victims.len(),
                size,
                "shard {shard} has too few synthetic rows to churn"
            );
            let mut batch = MutationBatch::new();
            for &id in &victims {
                batch = batch.delete(id);
                delete(&mut layout, id);
            }
            for _ in 0..size {
                let (id, feat) = rows.row();
                insert(&mut layout, id);
                batch = batch.insert(id, feat);
            }
            batches.push(batch);
            if rebalance_due(rebalance_every, k) {
                rebalance(&mut layout);
            }
        }
        ChurnPlan {
            batches,
            rebalance_every,
            expected: layout,
        }
    }

    /// Whether a rebalance follows batch `k`.
    pub fn rebalance_after(&self, k: usize) -> bool {
        rebalance_due(self.rebalance_every, k)
    }
}

fn rebalance_due(every: usize, k: usize) -> bool {
    every > 0 && (k + 1).is_multiple_of(every)
}

fn delete(layout: &mut [Vec<VideoId>], id: VideoId) {
    for shard in layout.iter_mut() {
        if let Some(row) = shard.iter().position(|&x| x == id) {
            shard.remove(row);
            return;
        }
    }
}

/// New ids append to the smallest shard, ties to the lowest index.
fn insert(layout: &mut [Vec<VideoId>], id: VideoId) {
    let shard = (0..layout.len())
        .min_by_key(|&i| (layout[i].len(), i))
        .expect("at least one shard");
    layout[shard].push(id);
}

/// Donors give rows from their tail in shard order; recipients fill to
/// `total / n` (+1 for the lowest `total % n` shards) in shard order.
fn rebalance(layout: &mut [Vec<VideoId>]) {
    let n = layout.len();
    let total: usize = layout.iter().map(Vec::len).sum();
    let target = |i: usize| total / n + usize::from(i < total % n);
    let mut surplus = Vec::new();
    for (i, shard) in layout.iter_mut().enumerate() {
        while shard.len() > target(i) {
            surplus.push(shard.pop().expect("len > target"));
        }
    }
    let mut surplus = surplus.into_iter();
    for (i, shard) in layout.iter_mut().enumerate() {
        while shard.len() < target(i) {
            shard.push(surplus.next().expect("surplus covers every deficit"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duo_models::{Architecture, Backbone, BackboneConfig};
    use duo_retrieval::{Mutation, RetrievalConfig};
    use duo_video::{ClipSpec, DatasetKind};

    fn centers() -> Vec<Tensor> {
        (0..3)
            .map(|i| Tensor::from_vec(vec![i as f32, 1.0, -(i as f32), 0.5], &[4]).unwrap())
            .collect()
    }

    #[test]
    fn same_seed_gives_same_schedule_and_queries() {
        let a = Schedule::open_loop(7, 150.0, 500, 24, 0.25, 8..16);
        assert_eq!(a, Schedule::open_loop(7, 150.0, 500, 24, 0.25, 8..16));
        assert_ne!(
            a.reads,
            Schedule::open_loop(8, 150.0, 500, 24, 0.25, 8..16).reads
        );
        assert_eq!(a.reads.len(), 500);
        assert!(
            a.reads.windows(2).all(|w| w[0].0 < w[1].0),
            "due times ascend"
        );
        assert!(a.reads.iter().all(|&(_, q)| q < 24));
        let writes: Vec<(f64, usize)> = (0..8).map(|k| ((k as f64 + 0.5) * 0.25, k + 8)).collect();
        assert_eq!(a.writes, writes);
    }

    #[test]
    fn arrival_rate_matches_the_requested_rate() {
        let s = Schedule::open_loop(3, 200.0, 4000, 10, 1.0, 0..0);
        let rate = 4000.0 / s.reads.last().unwrap().0;
        assert!((rate - 200.0).abs() < 200.0 * 0.05, "rate {rate}");
    }

    #[test]
    fn same_seed_gives_same_pair_list() {
        let ds = SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), 1, 5, 1);
        let a = attack_pairs(&ds, 6, 12, 42);
        assert_eq!(a, attack_pairs(&ds, 6, 12, 42));
        assert_ne!(a, attack_pairs(&ds, 6, 12, 43));
        assert!(a
            .iter()
            .all(|(v, t)| v.class != t.class && v.class < 6 && t.class < 6));
    }

    fn batch_fingerprint(plan: &ChurnPlan) -> Vec<(u8, VideoId, Vec<u32>)> {
        plan.batches
            .iter()
            .flat_map(|b| b.mutations().iter())
            .map(|m| match m {
                Mutation::Insert { id, feature } => (
                    0,
                    *id,
                    feature.as_slice().iter().map(|x| x.to_bits()).collect(),
                ),
                Mutation::Delete { id } => (1, *id, Vec::new()),
            })
            .collect()
    }

    fn synthetic_start(seed: u64) -> (Vec<Vec<VideoId>>, RowGenerator) {
        let mut rows = RowGenerator::new(seed, centers(), 0.1);
        let mut start = vec![Vec::new(); 3];
        for _ in 0..12 {
            let (id, _) = rows.row();
            insert(&mut start, id);
        }
        (start, rows)
    }

    #[test]
    fn same_seed_gives_same_mutation_batches() {
        let plan = |seed| {
            let (start, mut rows) = synthetic_start(seed);
            ChurnPlan::new(&start, &mut rows, 2, 5, 2)
        };
        assert_eq!(batch_fingerprint(&plan(9)), batch_fingerprint(&plan(9)));
        assert_ne!(batch_fingerprint(&plan(9)), batch_fingerprint(&plan(10)));
        let p = plan(9);
        assert_eq!(p.batches.len(), 5);
        assert!(p.batches.iter().all(|b| b.len() == 4));
        // The gallery size is steady and each shard keeps its share.
        assert_eq!(
            p.expected.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![4, 4, 4]
        );
    }

    /// The plan's expected layout must match what the real system does
    /// with the same batches, rebalances included.
    #[test]
    fn churn_plan_predicts_the_system_layout() {
        let ds = SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), 3, 1, 0);
        let gallery: Vec<VideoId> = ds
            .train()
            .iter()
            .filter(|id| id.class < 4)
            .copied()
            .collect();
        let backbone = Backbone::new(
            Architecture::C3d,
            BackboneConfig::tiny(),
            &mut Rng64::new(1),
        )
        .unwrap();
        let config = RetrievalConfig {
            m: 3,
            nodes: 3,
            ..RetrievalConfig::default()
        };
        let system = RetrievalSystem::build(backbone, &ds, &gallery, config).unwrap();
        let centers: Vec<Tensor> = gallery
            .iter()
            .map(|&id| system.embed(&ds.video(id)).unwrap())
            .collect();
        let mut rows = RowGenerator::new(5, centers, 0.1);
        let mut load = MutationBatch::new();
        for _ in 0..11 {
            let (id, feat) = rows.row();
            load = load.insert(id, feat);
        }
        system.apply(&load).unwrap();
        let plan = ChurnPlan::new(&layout(&system), &mut rows, 2, 7, 3);
        for (k, batch) in plan.batches.iter().enumerate() {
            let t = system.apply(batch).unwrap();
            assert_eq!(
                t.rebuilt_shards, 1,
                "batch {k} dirties only the thinned shard"
            );
            if plan.rebalance_after(k) {
                system.rebalance().unwrap();
            }
        }
        assert_eq!(layout(&system), plan.expected);
    }

    #[test]
    fn rebalance_model_evens_out_shards() {
        let id = |i: u32| VideoId {
            class: SYNTH_CLASS,
            instance: i,
        };
        let mut l = vec![(0..5).map(id).collect::<Vec<_>>(), vec![id(5)], Vec::new()];
        rebalance(&mut l);
        assert_eq!(
            l,
            vec![vec![id(0), id(1)], vec![id(5), id(4)], vec![id(3), id(2)]]
        );
    }
}
