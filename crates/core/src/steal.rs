//! Surrogate-model stealing (paper §IV-B1).
//!
//! The attacker uploads probe videos, reads back the retrieval lists, and
//! turns each list into ranking triplets `⟨v_r, v_i, v_j⟩` (i < j ⇒ `v_i`
//! ranks above `v_j`): the training set `T`. A fresh backbone is then fit
//! with the margin triplet loss (γ = 0.2) so its feature distances mimic
//! the victim's ranking behaviour.

use crate::{AttackError, Result};
use duo_models::{Architecture, Backbone, BackboneConfig, TripletLoss};
use duo_nn::{Adam, Optimizer, Parameterized};
use duo_retrieval::QueryOracle;
use duo_tensor::Rng64;
use duo_video::{SyntheticDataset, Video, VideoId};
use std::collections::{HashMap, HashSet};

/// Configuration of the surrogate-stealing procedure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StealConfig {
    /// Surrogate backbone family (paper: C3D or Resnet18).
    pub arch: Architecture,
    /// Backbone width/feature-size configuration.
    pub backbone: BackboneConfig,
    /// Recursion depth `Z` of the list-expansion loop (Step 3).
    pub rounds: usize,
    /// Videos re-queried per retrieved list (`M`, Step 2).
    pub fanout: usize,
    /// Stop collecting once this many distinct videos are involved — the
    /// paper's "surrogate dataset size" axis (165 / 1,111 / 3,616 / 8,421).
    pub target_dataset_size: usize,
    /// Cap on training triplets (the full `T` grows as `Z·M·m²`).
    pub max_triplets: usize,
    /// Training epochs over `T`.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Gradient-accumulation batch size.
    pub batch: usize,
}
duo_tensor::impl_to_json!(struct StealConfig { arch, backbone, rounds, fanout, target_dataset_size, max_triplets, epochs, lr, batch });

impl Default for StealConfig {
    fn default() -> Self {
        StealConfig {
            arch: Architecture::C3d,
            backbone: BackboneConfig::experiment(),
            rounds: 3,
            fanout: 3,
            target_dataset_size: 60,
            max_triplets: 150,
            epochs: 2,
            lr: 3e-3,
            batch: 4,
        }
    }
}

impl StealConfig {
    /// Fast configuration used by tests.
    pub fn quick() -> Self {
        StealConfig {
            backbone: BackboneConfig::tiny(),
            rounds: 2,
            fanout: 2,
            target_dataset_size: 15,
            max_triplets: 30,
            epochs: 1,
            ..StealConfig::default()
        }
    }
}

/// Summary of a stealing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StealReport {
    /// Distinct videos that appeared as probes or in retrieval lists —
    /// the paper's surrogate dataset size.
    pub distinct_videos: usize,
    /// Triplets the surrogate was trained on.
    pub triplets_used: usize,
    /// Black-box queries consumed by the collection phase.
    pub queries: u64,
    /// Mean triplet loss over the final epoch.
    pub final_loss: f32,
}
duo_tensor::impl_to_json!(struct StealReport { distinct_videos, triplets_used, queries, final_loss });

/// Steals a surrogate model from the black-box service.
///
/// `probe_pool` is the attacker's own stock of videos (the paper assumes
/// "sufficient training samples"); probes are drawn from it at random,
/// retrieval results are expanded breadth-first for `rounds` levels, and a
/// surrogate is trained on the harvested ranking triplets.
///
/// Each distinct clip the call queries or trains on is generated once
/// and kept until the call returns: the triplets reuse a few dozen ids
/// many times over. Per triplet the anchor is embedded through the
/// training forward, whose caches its backward then reuses, and the
/// positive and negative through inference. When the loss is nonzero
/// the anchor's backward runs at once, and the positive and negative
/// each re-run their training forward right before their backward, so
/// the gradients accumulate in the order anchor, positive, negative.
///
/// # Errors
///
/// Returns [`AttackError::BadConfig`] for an empty probe pool and
/// propagates query/training failures.
pub fn steal_surrogate(
    blackbox: &mut dyn QueryOracle,
    dataset: &SyntheticDataset,
    probe_pool: &[VideoId],
    config: StealConfig,
    rng: &mut Rng64,
) -> Result<(Backbone, StealReport)> {
    if probe_pool.is_empty() {
        return Err(AttackError::BadConfig("probe pool must not be empty".into()));
    }
    let queries_before = blackbox.queries_used();
    // Every clip this call queries or trains on, generated once.
    let mut clips: HashMap<VideoId, Video> = HashMap::new();

    // ---- Collection: Steps 1–3 of §IV-B1 -----------------------------
    let mut triplets: Vec<(VideoId, VideoId, VideoId)> = Vec::new();
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    // Seed the expansion from several independent probes so the harvested
    // ranking structure spans the gallery rather than one neighbourhood.
    let seeds = probe_pool.len().clamp(1, 8);
    let mut frontier: Vec<VideoId> = rng
        .sample_indices(probe_pool.len(), seeds)
        .into_iter()
        .map(|i| probe_pool[i])
        .collect();
    'collect: for _round in 0..config.rounds.max(1) {
        let mut next_frontier = Vec::new();
        for &probe in &frontier {
            seen.insert((probe.class, probe.instance));
            let list =
                blackbox.retrieve(clips.entry(probe).or_insert_with(|| dataset.video(probe)))?;
            for id in &list {
                seen.insert((id.class, id.instance));
            }
            // T ← ⟨v_r, v_i, v_j⟩ for all i < j.
            for i in 0..list.len() {
                for j in (i + 1)..list.len() {
                    triplets.push((probe, list[i], list[j]));
                }
            }
            // Step 2: uniformly select M videos from the list to re-query.
            if !list.is_empty() {
                let m = config.fanout.min(list.len());
                for &idx in rng.sample_indices(list.len(), m).iter() {
                    next_frontier.push(list[idx]);
                }
            }
            if seen.len() >= config.target_dataset_size {
                break 'collect;
            }
        }
        if next_frontier.is_empty() {
            break;
        }
        frontier = next_frontier;
    }
    let collection_queries = blackbox.queries_used() - queries_before;

    // ---- Training: triplet loss on the stolen ranking structure -------
    if triplets.len() > config.max_triplets {
        rng.shuffle(&mut triplets);
        triplets.truncate(config.max_triplets);
    }
    for &(a, p, n) in &triplets {
        for id in [a, p, n] {
            clips.entry(id).or_insert_with(|| dataset.video(id));
        }
    }
    let mut surrogate = Backbone::new(config.arch, config.backbone, rng)?;
    let loss = TripletLoss::new();
    let mut optimizer = Adam::new(config.lr);
    let mut final_loss = 0.0f32;
    for _epoch in 0..config.epochs.max(1) {
        rng.shuffle(&mut triplets);
        let mut epoch_loss = 0.0f32;
        let mut in_batch = 0usize;
        for &(a, p, n) in &triplets {
            let (va, vp, vn) = (&clips[&a], &clips[&p], &clips[&n]);
            // The anchor's training forward is bit-identical to `extract`
            // and leaves the caches its backward reads.
            let ea = surrogate.extract_training(va)?;
            let ep = surrogate.extract(vp)?;
            let en = surrogate.extract(vn)?;
            let (l, ga, gp, gn) = loss.loss_and_grads(&ea, &ep, &en)?;
            epoch_loss += l;
            if l > 0.0 {
                surrogate.backward_params(&ga)?;
                // Re-forward the other legs so each cache is live for
                // its backward.
                surrogate.extract_training(vp)?;
                surrogate.backward_params(&gp)?;
                surrogate.extract_training(vn)?;
                surrogate.backward_params(&gn)?;
            }
            in_batch += 1;
            if in_batch >= config.batch {
                optimizer.step(&mut surrogate);
                in_batch = 0;
            }
        }
        if in_batch > 0 {
            optimizer.step(&mut surrogate);
        }
        final_loss = epoch_loss / triplets.len().max(1) as f32;
    }
    // Ensure no stale gradient state leaks to attack-time backward passes.
    surrogate.zero_grad();

    Ok((
        surrogate,
        StealReport {
            distinct_videos: seen.len(),
            triplets_used: triplets.len(),
            queries: collection_queries,
            final_loss,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use duo_models::BackboneConfig;
    use duo_nn::Grads;
    use duo_retrieval::{BlackBox, RetrievalConfig, RetrievalSystem};
    use duo_video::{ClipSpec, DatasetKind};

    fn setup() -> (BlackBox, SyntheticDataset) {
        let mut rng = Rng64::new(191);
        let ds = SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), 7, 2, 1);
        let gallery: Vec<_> = ds.train().iter().filter(|id| id.class < 10).copied().collect();
        let victim =
            Backbone::new(Architecture::Resnet34, BackboneConfig::tiny(), &mut rng).unwrap();
        let sys = RetrievalSystem::build(
            victim,
            &ds,
            &gallery,
            RetrievalConfig { m: 4, nodes: 2, threaded: false, ..Default::default() },
        )
        .unwrap();
        (BlackBox::new(sys), ds)
    }

    #[test]
    fn steals_a_working_surrogate() {
        let (mut bb, ds) = setup();
        let mut rng = Rng64::new(192);
        let probes: Vec<_> = ds.test().iter().filter(|id| id.class < 10).copied().collect();
        let (surrogate, report) =
            steal_surrogate(&mut bb, &ds, &probes, StealConfig::quick(), &mut rng).unwrap();
        assert!(report.distinct_videos > 1);
        assert!(report.triplets_used > 0);
        assert!(report.queries > 0);
        assert_eq!(report.queries, bb.queries_used());
        // The surrogate must produce normalized features.
        let f = surrogate.extract(&ds.video(probes[0])).unwrap();
        assert!((f.l2_norm() - 1.0).abs() < 1e-4);
    }

    /// The stealing loop spelled out without its shortcuts: every clip
    /// regenerated at each use, all three legs embedded by inference, each
    /// leg's training forward re-run right before its backward, and every
    /// backward a full one (input and parameter gradients).
    fn reference_steal(
        blackbox: &mut dyn QueryOracle,
        dataset: &SyntheticDataset,
        probe_pool: &[VideoId],
        config: StealConfig,
        rng: &mut Rng64,
    ) -> Backbone {
        let mut triplets = Vec::new();
        let mut seen: HashSet<(u32, u32)> = HashSet::new();
        let seeds = probe_pool.len().clamp(1, 8);
        let mut frontier: Vec<VideoId> = rng
            .sample_indices(probe_pool.len(), seeds)
            .into_iter()
            .map(|i| probe_pool[i])
            .collect();
        'collect: for _round in 0..config.rounds.max(1) {
            let mut next_frontier = Vec::new();
            for &probe in &frontier {
                seen.insert((probe.class, probe.instance));
                let list = blackbox.retrieve(&dataset.video(probe)).unwrap();
                for id in &list {
                    seen.insert((id.class, id.instance));
                }
                for i in 0..list.len() {
                    for j in (i + 1)..list.len() {
                        triplets.push((probe, list[i], list[j]));
                    }
                }
                if !list.is_empty() {
                    let m = config.fanout.min(list.len());
                    for &idx in rng.sample_indices(list.len(), m).iter() {
                        next_frontier.push(list[idx]);
                    }
                }
                if seen.len() >= config.target_dataset_size {
                    break 'collect;
                }
            }
            if next_frontier.is_empty() {
                break;
            }
            frontier = next_frontier;
        }
        if triplets.len() > config.max_triplets {
            rng.shuffle(&mut triplets);
            triplets.truncate(config.max_triplets);
        }
        let mut surrogate = Backbone::new(config.arch, config.backbone, rng).unwrap();
        let loss = TripletLoss::new();
        let mut optimizer = Adam::new(config.lr);
        for _epoch in 0..config.epochs.max(1) {
            rng.shuffle(&mut triplets);
            let mut in_batch = 0usize;
            for &(a, p, n) in &triplets {
                let legs = [dataset.video(a), dataset.video(p), dataset.video(n)];
                let ea = surrogate.extract(&legs[0]).unwrap();
                let ep = surrogate.extract(&legs[1]).unwrap();
                let en = surrogate.extract(&legs[2]).unwrap();
                let (l, ga, gp, gn) = loss.loss_and_grads(&ea, &ep, &en).unwrap();
                if l > 0.0 {
                    for (leg, g) in legs.iter().zip([ga, gp, gn]) {
                        surrogate.extract_training(leg).unwrap();
                        surrogate.backward(&g, Grads::Both).unwrap();
                    }
                }
                in_batch += 1;
                if in_batch >= config.batch {
                    optimizer.step(&mut surrogate);
                    in_batch = 0;
                }
            }
            if in_batch > 0 {
                optimizer.step(&mut surrogate);
            }
        }
        surrogate.zero_grad();
        surrogate
    }

    /// Every parameter value and gradient, at `to_bits`.
    fn param_bits(model: &mut Backbone) -> Vec<u32> {
        let mut out = Vec::new();
        model.visit_params(&mut |p| {
            out.extend(p.value.as_slice().iter().chain(p.grad.as_slice()).map(|v| v.to_bits()));
        });
        out
    }

    #[test]
    fn stolen_weights_are_bitwise_the_reference_loop() {
        let (mut bb, ds) = setup();
        let probes: Vec<_> = ds.test().iter().filter(|id| id.class < 10).copied().collect();
        let (mut stolen, report) =
            steal_surrogate(&mut bb, &ds, &probes, StealConfig::quick(), &mut Rng64::new(195))
                .unwrap();
        assert!(report.final_loss > 0.0, "some triplets must train");
        let (mut bb, _) = setup();
        let mut reference =
            reference_steal(&mut bb, &ds, &probes, StealConfig::quick(), &mut Rng64::new(195));
        assert_eq!(param_bits(&mut stolen), param_bits(&mut reference));
    }

    #[test]
    fn empty_probe_pool_is_rejected() {
        let (mut bb, ds) = setup();
        let mut rng = Rng64::new(193);
        assert!(steal_surrogate(&mut bb, &ds, &[], StealConfig::quick(), &mut rng).is_err());
    }

    #[test]
    fn target_dataset_size_bounds_collection() {
        let (mut bb, ds) = setup();
        let mut rng = Rng64::new(194);
        let probes: Vec<_> = ds.test().iter().filter(|id| id.class < 10).copied().collect();
        let cfg = StealConfig { target_dataset_size: 6, ..StealConfig::quick() };
        let (_, report) = steal_surrogate(&mut bb, &ds, &probes, cfg, &mut rng).unwrap();
        // Collection stops at the first list crossing the threshold, so the
        // count can overshoot by at most one list length (m = 4).
        assert!(report.distinct_videos <= 6 + 4, "got {}", report.distinct_videos);
    }
}
