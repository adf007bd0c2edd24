//! End-to-end training tests across the layer zoo: every layer type
//! composes into a network that actually learns.

use duo_nn::{
    Adam, Conv3d, Dropout, Flatten, Grads, InstanceNorm, L2Normalize, Layer, Linear, MaxPool3d,
    Optimizer, Relu, Residual, Sequential, Sgd,
};
use duo_tensor::{Conv3dSpec, Pool3dSpec, Rng64, Tensor};

/// Two separable "video" classes: bright-top vs bright-bottom clips.
fn make_sample(class: usize, rng: &mut Rng64) -> (Tensor, usize) {
    let mut x = Tensor::rand_uniform(&[1, 2, 8, 8], 0.0, 0.2, rng.as_rng());
    let rows = if class == 0 { 0..4 } else { 4..8 };
    for t in 0..2 {
        for y in rows.clone() {
            for xx in 0..8 {
                let idx = (t * 8 + y) * 8 + xx;
                x.as_mut_slice()[idx] += 0.8;
            }
        }
    }
    (x, class)
}

fn build_net(rng: &mut Rng64, with_extras: bool) -> Sequential {
    let mut layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv3d::new(Conv3dSpec::cubic(1, 2, (1, 2, 2), 0), 4, rng)),
        Box::new(Relu::new()),
    ];
    if with_extras {
        layers.push(Box::new(InstanceNorm::new(4)));
        let main = Sequential::new(vec![
            Box::new(Conv3d::new(Conv3dSpec::cubic(4, 1, (1, 1, 1), 0), 4, rng)) as Box<dyn Layer>,
            Box::new(Relu::new()),
        ]);
        layers.push(Box::new(Residual::identity(main)));
        layers.push(Box::new(Dropout::new(0.1, 7)));
    }
    layers.push(Box::new(MaxPool3d::new(Pool3dSpec::spatial(2))));
    layers.push(Box::new(Flatten::new()));
    // Conv output: [4, 1, 4, 4] → pool → [4, 1, 2, 2] → flatten 16.
    layers.push(Box::new(Linear::new(16, 2, rng)));
    Sequential::new(layers)
}

/// Softmax cross-entropy loss + gradient for a 2-way logit vector.
fn ce_loss(logits: &Tensor, label: usize) -> (f32, Tensor) {
    let max = logits.max();
    let exps: Vec<f32> = logits.as_slice().iter().map(|z| (z - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    let probs: Vec<f32> = exps.iter().map(|e| e / sum).collect();
    let loss = -(probs[label].max(1e-9)).ln();
    let mut grad = Tensor::zeros(logits.dims());
    for (i, g) in grad.as_mut_slice().iter_mut().enumerate() {
        *g = probs[i] - if i == label { 1.0 } else { 0.0 };
    }
    (loss, grad)
}

fn train_and_eval(opt: &mut dyn Optimizer, with_extras: bool, seed: u64) -> f32 {
    let mut rng = Rng64::new(seed);
    let mut net = build_net(&mut rng, with_extras);
    for _epoch in 0..30 {
        for class in 0..2 {
            let (x, label) = make_sample(class, &mut rng);
            let logits = net.forward(&x).unwrap();
            let (_, grad) = ce_loss(&logits, label);
            net.backward(&grad, Grads::Params).unwrap();
        }
        opt.step(&mut net);
    }
    // Accuracy over fresh samples.
    let mut correct = 0;
    for trial in 0..20 {
        let (x, label) = make_sample(trial % 2, &mut rng);
        let logits = net.forward(&x).unwrap();
        if logits.argmax() == Some(label) {
            correct += 1;
        }
    }
    correct as f32 / 20.0
}

#[test]
fn plain_conv_net_learns_with_adam() {
    let mut opt = Adam::new(0.01);
    let acc = train_and_eval(&mut opt, false, 801);
    assert!(acc >= 0.9, "accuracy {acc}");
}

#[test]
fn full_layer_zoo_learns_with_adam() {
    let mut opt = Adam::new(0.01);
    let acc = train_and_eval(&mut opt, true, 805);
    assert!(acc >= 0.9, "accuracy {acc} (with InstanceNorm, Residual, Dropout)");
}

#[test]
fn full_layer_zoo_learns_with_sgd() {
    let mut opt = Sgd::new(0.05, 0.9);
    let acc = train_and_eval(&mut opt, true, 803);
    assert!(acc >= 0.9, "accuracy {acc}");
}

#[test]
fn normalize_head_trains_metrically() {
    // L2Normalize composes with training: pull same-class embeddings
    // together with a cosine objective.
    let mut rng = Rng64::new(804);
    let mut net = Sequential::new(vec![
        Box::new(Conv3d::new(Conv3dSpec::cubic(1, 2, (1, 2, 2), 0), 2, &mut rng))
            as Box<dyn Layer>,
        Box::new(Relu::new()),
        Box::new(Flatten::new()),
        Box::new(Linear::new(32, 8, &mut rng)),
        Box::new(L2Normalize::new()),
    ]);
    let mut opt = Adam::new(0.01);
    let anchor_dir = {
        let mut t = Tensor::zeros(&[8]);
        t.as_mut_slice()[0] = 1.0;
        t
    };
    let mut last_cos = -1.0;
    for _ in 0..60 {
        let (x, _) = make_sample(0, &mut rng);
        let emb = net.forward(&x).unwrap();
        last_cos = emb.dot(&anchor_dir).unwrap();
        // Maximize cosine to the anchor: gradient = −anchor.
        net.backward(&anchor_dir.scale(-1.0), Grads::Params).unwrap();
        opt.step(&mut net);
    }
    assert!(last_cos > 0.8, "embedding should align with the anchor, cos {last_cos}");
}
