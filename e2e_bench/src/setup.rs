//! Set-up: everything a run needs before its timed window.
//!
//! World build (victim training), served index build, synthetic gallery
//! load, surrogate steal, input generation and a fixed warm-up. Each step
//! is timed on its own so work moved between set-up and the timed window
//! shows in the `setup.*` split.

use crate::inputs::{attack_pairs, layout, ChurnPlan, RowGenerator, Schedule};
use crate::spec::{Sizes, Spec, ROUNDS};
use duo_attack::{steal_surrogate, DuoConfig, SparseTransfer, StealConfig};
use duo_defenses::StreamConfig;
use duo_experiments::{build_world, Scale};
use duo_models::{Architecture, Backbone, BackboneConfig, LossKind};
use duo_retrieval::{MutationBatch, RetrievalConfig, RetrievalSystem};
use duo_serve::{DefenseConfig, Purify, RetrievalService, ServeConfig, ServiceOracle};
use duo_tensor::Rng64;
use duo_video::{ClipSpec, DatasetKind, Video, VideoId};
use std::time::Instant;

/// Seed of the victim world and the stolen surrogate. They are the
/// system under test, not workload input, so `--seed` leaves them alone.
pub const WORLD_SEED: u64 = 0xE2E_5EED;

/// Victim architecture.
pub const VICTIM: Architecture = Architecture::C3d;

/// Surrogate architecture (the paper's DUO-C3D row).
pub const SURROGATE: Architecture = Architecture::C3d;

/// Synthetic row jitter, relative to each center's RMS coordinate.
pub const JITTER: f32 = 0.1;

/// Warm-up reads per sender thread.
const WARM_READS: usize = 16;

type BoxError = Box<dyn std::error::Error>;

/// Smoke-scale counts with experiment-geometry clips and backbone
/// (32×32×16 clips, width 8, feature_dim 128).
pub fn scale() -> Scale {
    let mut scale = Scale::smoke();
    scale.clip = ClipSpec::experiment();
    scale.backbone = BackboneConfig::experiment();
    scale
}

/// The surrogate steal: the smoke-scale recipe with a lighter training
/// pass (40 triplets, one epoch), which keeps three set-ups per run
/// affordable while still exercising collection and triplet training.
pub fn steal_config() -> StealConfig {
    StealConfig {
        max_triplets: 40,
        epochs: 1,
        ..scale().steal_config(SURROGATE)
    }
}

/// The service configuration: shipped defaults plus the workload's
/// defense switch.
pub fn serve_config(spec: &Spec) -> ServeConfig {
    let defense = spec.defended.then(|| DefenseConfig {
        stream: StreamConfig::default(),
        purify: Purify::None,
    });
    ServeConfig {
        defense,
        ..ServeConfig::default()
    }
}

/// Seconds spent in each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct Split {
    /// World build: corpus, victim training, the world's own index.
    pub train_s: f64,
    /// Building the served index over the real gallery.
    pub index_s: f64,
    /// Query-clip generation and the synthetic gallery load.
    pub load_s: f64,
    /// Stealing the surrogate through the service.
    pub steal_s: f64,
    /// Generating the schedule, pair list and mutation batches.
    pub inputs_s: f64,
    /// The fixed warm-up and the service restart after it.
    pub warmup_s: f64,
    /// Whole set-up.
    pub total_s: f64,
}

/// A ready-to-run workload instance.
pub struct Prepared {
    /// The live service, restarted after warm-up with fresh counters.
    pub service: RetrievalService,
    /// The stolen surrogate.
    pub surrogate: Backbone,
    /// The DUO configuration at this scale.
    pub duo: DuoConfig,
    /// Query clips: test probes then gallery clips.
    pub pool: Vec<Video>,
    /// The same clips 8-bit quantized, as the service sees them.
    pub pool_quantized: Vec<Video>,
    /// Attack pairs and their clips.
    pub pairs: Vec<((VideoId, VideoId), (Video, Video))>,
    /// One open-loop schedule per round.
    pub schedules: Vec<Schedule>,
    /// Gallery writes.
    pub plan: ChurnPlan,
    /// Gallery rows after the load.
    pub gallery_len: usize,
    /// Step timings.
    pub split: Split,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Sets up `spec` for a run of [`ROUNDS`] rounds of `sizes` inputs drawn
/// from `seed`.
///
/// # Errors
///
/// Propagates model, retrieval, serving and attack failures.
pub fn prepare(spec: &Spec, sizes: Sizes, seed: u64, nproc: usize) -> Result<Prepared, BoxError> {
    let scale = scale();
    let start = Instant::now();
    let mut split = Split::default();

    let t = Instant::now();
    let world = build_world(
        DatasetKind::Hmdb51Like,
        VICTIM,
        LossKind::ArcFace,
        scale,
        WORLD_SEED,
    )?;
    split.train_s = secs(t);
    let dataset = world.dataset;
    let in_scope = |id: &&VideoId| id.class < scale.classes;
    let gallery: Vec<VideoId> = dataset
        .train()
        .iter()
        .filter(in_scope)
        .filter(|id| id.instance >= scale.train_per_class)
        .copied()
        .collect();

    let t = Instant::now();
    let config = RetrievalConfig {
        m: scale.m,
        nodes: spec.nodes,
        threaded: true,
        index: spec.index,
    };
    let system = RetrievalSystem::build_parallel(
        world.system.backbone().clone(),
        &dataset,
        &gallery,
        config,
        nproc.min(8),
    )?;
    drop(world.system);
    split.index_s = secs(t);

    let t = Instant::now();
    let pool: Vec<Video> = dataset
        .test()
        .iter()
        .filter(in_scope)
        .chain(gallery.iter())
        .map(|&id| dataset.video(id))
        .collect();
    let pool_quantized: Vec<Video> = pool.iter().map(quantized).collect();
    let centers = pool_quantized
        .iter()
        .map(|v| system.embed(v))
        .collect::<Result<Vec<_>, _>>()?;
    let mut rows = RowGenerator::new(seed, centers, JITTER);
    let gallery_len = spec.nodes * spec.rows_per_shard;
    let mut load = MutationBatch::new();
    for _ in gallery.len()..gallery_len {
        let (id, feature) = rows.row();
        load = load.insert(id, feature);
    }
    let config = serve_config(spec);
    let service = RetrievalService::start(system, config)?;
    service.mutator().apply(&load)?;
    split.load_s = secs(t);

    let t = Instant::now();
    let probes: Vec<VideoId> = dataset.test().iter().filter(in_scope).copied().collect();
    let mut thief = ServiceOracle::new(service.client(None, None));
    let (mut surrogate, _) = steal_surrogate(
        &mut thief,
        &dataset,
        &probes,
        steal_config(),
        &mut Rng64::new(WORLD_SEED ^ 0x57EA1),
    )?;
    split.steal_s = secs(t);

    let t = Instant::now();
    let schedules = (0..ROUNDS)
        .map(|r| {
            let batches = r * sizes.writes..(r + 1) * sizes.writes;
            let round_seed = seed ^ (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Schedule::open_loop(
                round_seed,
                spec.read_rate,
                sizes.reads,
                pool.len(),
                spec.write_interval_s,
                batches,
            )
        })
        .collect();
    let plan = ChurnPlan::new(
        &layout(service.system()),
        &mut rows,
        spec.churn_rows,
        sizes.writes * ROUNDS,
        spec.rebalance_every,
    );
    let pairs: Vec<_> = attack_pairs(&dataset, scale.classes, sizes.pairs, seed)
        .into_iter()
        .map(|(v, t)| ((v, t), (dataset.video(v), dataset.video(t))))
        .collect();
    split.inputs_s = secs(t);

    // Warm-up: concurrent reads fill the batcher's and the kernels' lazy
    // buffers, one publish warms the writer path (the row is inserted and
    // deleted in one batch, so the layout is unchanged), and one transfer
    // warms the surrogate's backward path. A restart then gives the timed
    // window fresh service counters.
    let t = Instant::now();
    let duo = scale.duo_config();
    std::thread::scope(|scope| {
        for thread in 0..nproc {
            let client = service.client(None, None);
            let pool = &pool;
            scope.spawn(move || {
                for i in 0..WARM_READS {
                    client
                        .retrieve(&pool[(thread + i * nproc) % pool.len()])
                        .expect("warm-up read");
                }
            });
        }
    });
    let (id, feature) = rows.row();
    service
        .mutator()
        .apply(&MutationBatch::new().insert(id, feature).delete(id))?;
    let (_, (v, v_t)) = &pairs[0];
    SparseTransfer::new(&mut surrogate, duo.transfer).run(v, v_t)?;
    let (system, _) = service.shutdown_into();
    let service = RetrievalService::start(system.ok_or("a client outlived the warm-up")?, config)?;
    split.warmup_s = secs(t);

    split.total_s = secs(start);
    Ok(Prepared {
        service,
        surrogate,
        duo,
        pool,
        pool_quantized,
        pairs,
        schedules,
        plan,
        gallery_len,
        split,
    })
}

/// An 8-bit quantized copy, exactly what the service embeds.
pub fn quantized(video: &Video) -> Video {
    let mut q = video.clone();
    q.quantize();
    q
}
