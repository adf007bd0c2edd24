use crate::{Backbone, PrototypeHead, Result};
use duo_nn::{Adam, Optimizer, Param, Parameterized};
use duo_tensor::Rng64;
use duo_video::{SyntheticDataset, VideoId};

/// Hyperparameters for metric-learning training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training items.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Gradient-accumulation batch size.
    pub batch: usize,
}
duo_tensor::impl_to_json!(struct TrainConfig { epochs, lr, batch });

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { epochs: 3, lr: 3e-3, batch: 8 }
    }
}

impl TrainConfig {
    /// Fast configuration used by tests.
    pub fn quick() -> Self {
        TrainConfig { epochs: 2, lr: 5e-3, batch: 4 }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainReport {
    /// Mean loss over the final epoch.
    pub final_loss: f32,
    /// Mean loss over the first epoch (for convergence checks).
    pub initial_loss: f32,
    /// Total labeled samples consumed.
    pub samples_seen: usize,
}
duo_tensor::impl_to_json!(struct TrainReport { final_loss, initial_loss, samples_seen });

/// Bundles a backbone and its loss head so the optimizer steps both.
struct Joint<'a> {
    backbone: &'a mut Backbone,
    head: &'a mut dyn PrototypeHead,
}

impl Parameterized for Joint<'_> {
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.backbone.visit_params(visitor);
        self.head.visit_params(visitor);
    }

    fn zero_grad(&mut self) {
        self.backbone.zero_grad();
        self.head.zero_grad();
    }
}

/// Trains `backbone` + `head` jointly on the labeled items of a synthetic
/// dataset, the procedure used to fit every victim model in the
/// reproduction (the paper's §V-B victim-training step).
///
/// # Errors
///
/// Propagates model/head errors (shape mismatches, bad labels).
pub fn train_embedding_model(
    backbone: &mut Backbone,
    head: &mut dyn PrototypeHead,
    dataset: &SyntheticDataset,
    items: &[VideoId],
    config: TrainConfig,
    rng: &mut Rng64,
) -> Result<TrainReport> {
    let mut optimizer = Adam::new(config.lr);
    let mut order: Vec<VideoId> = items.to_vec();
    let mut samples_seen = 0usize;
    let mut initial_loss = 0.0f32;
    let mut final_loss = 0.0f32;
    for epoch in 0..config.epochs {
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0f32;
        let mut in_batch = 0usize;
        for &id in &order {
            let video = dataset.video(id);
            let feat = backbone.extract_training(&video)?;
            let (loss, grad_emb) = head.loss_and_grad(&feat, id.class)?;
            backbone.backward_params(&grad_emb)?;
            epoch_loss += loss;
            samples_seen += 1;
            in_batch += 1;
            if in_batch >= config.batch {
                let mut joint = Joint { backbone, head };
                optimizer.step(&mut joint);
                in_batch = 0;
            }
        }
        if in_batch > 0 {
            let mut joint = Joint { backbone, head };
            optimizer.step(&mut joint);
        }
        let mean = epoch_loss / order.len().max(1) as f32;
        if epoch == 0 {
            initial_loss = mean;
        }
        final_loss = mean;
    }
    Ok(TrainReport { final_loss, initial_loss, samples_seen })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Architecture, Backbone, BackboneConfig, LossKind};
    use duo_video::{ClipSpec, DatasetKind, SyntheticDataset};

    #[test]
    fn training_reduces_loss() {
        let mut rng = Rng64::new(121);
        let ds = SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), 1, 2, 0);
        // A small subset of classes keeps the test fast.
        let items: Vec<_> = ds.train().iter().filter(|id| id.class < 6).copied().collect();
        let mut backbone =
            Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
        let mut head = LossKind::ArcFace.build_head(ds.num_classes(), 32, &mut rng);
        let config = TrainConfig { epochs: 4, lr: 5e-3, batch: 4 };
        let report = train_embedding_model(
            &mut backbone,
            head.as_mut(),
            &ds,
            &items,
            config,
            &mut rng,
        )
        .unwrap();
        assert_eq!(report.samples_seen, items.len() * 4);
        assert!(
            report.final_loss < report.initial_loss,
            "loss should drop: {} -> {}",
            report.initial_loss,
            report.final_loss
        );
    }

    #[test]
    fn trained_model_clusters_classes() {
        let mut rng = Rng64::new(122);
        let ds = SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), 2, 3, 1);
        let items: Vec<_> = ds.train().iter().filter(|id| id.class < 4).copied().collect();
        let mut backbone =
            Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
        let mut head = LossKind::ArcFace.build_head(ds.num_classes(), 32, &mut rng);
        train_embedding_model(
            &mut backbone,
            head.as_mut(),
            &ds,
            &items,
            TrainConfig { epochs: 6, lr: 5e-3, batch: 4 },
            &mut rng,
        )
        .unwrap();
        // Same-class test features should be closer than cross-class.
        let f = |backbone: &mut Backbone, class: u32, inst: u32| {
            backbone
                .extract(&ds.generator().generate(class, inst))
                .unwrap()
        };
        let a0 = f(&mut backbone, 0, 10);
        let a1 = f(&mut backbone, 0, 11);
        let b0 = f(&mut backbone, 1, 10);
        let intra = a0.sq_distance(&a1).unwrap();
        let inter = a0.sq_distance(&b0).unwrap();
        assert!(intra < inter, "intra {intra} should be below inter {inter}");
    }
}
