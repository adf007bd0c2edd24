//! Layer replay for the traced run.
//!
//! After the timed window, each layer's public entry point is called
//! alone on the run's own logged inputs — the first open phase's read clips in
//! schedule order and the attack pairs — so every layer's cost is
//! measured on this workload's data with nothing else running. Service
//! counters are read before the replay, so its searches and audits never
//! reach the reported counters.

use crate::setup::Prepared;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use duo_attack::SparseTransfer;
use duo_defenses::{ClipSketch, StreamConfig, StreamDetector};
use duo_video::Video;
use std::hint::black_box;
use std::time::Instant;

/// Logged read clips replayed through the defense layer.
const SKETCH_CLIPS: usize = 128;

/// Logged read clips replayed through the model and retrieval layers.
const MODEL_CLIPS: usize = 32;

/// Replays of `SparseTransfer::run` per attack pair.
const TRANSFER_REPS: usize = 4;

/// Per-layer costs measured by the replay. Times are medians per call
/// unless stated otherwise.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// `ClipSketch::of`, microseconds.
    pub sketch_us: f64,
    /// `StreamDetector::observe` on a fresh default detector, microseconds.
    pub observe_us: f64,
    /// `RetrievalSystem::embed`, milliseconds.
    pub embed_ms: f64,
    /// `RetrievalSystem::embed_batch` at the observed mean batch,
    /// milliseconds per clip.
    pub embed_batch_ms_per_clip: f64,
    /// The batch size used for `embed_batch_ms_per_clip`.
    pub batch: usize,
    /// `RetrievalSystem::retrieve_resilient` on a precomputed feature,
    /// milliseconds.
    pub search_ms: f64,
    /// `ShardIndex::search`: the mean over shards of each shard's mean
    /// time, milliseconds.
    pub shard_search_mean_ms: f64,
    /// `ShardIndex::search`: the slowest shard's mean time, milliseconds.
    pub shard_search_max_ms: f64,
    /// `SparseTransfer::run` per pair, seconds.
    pub transfer_s: f64,
}

fn timed<T>(tracer: &Tracer, name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, f64) {
    tracer.span(name, None, request, |_| {
        let start = Instant::now();
        let out = black_box(f());
        (out, start.elapsed().as_secs_f64() * 1e3)
    })
}

/// Replays every layer on the run's logged inputs.
///
/// # Errors
///
/// Propagates model, retrieval and attack failures.
pub fn run(
    p: &Prepared,
    tracer: &Tracer,
    mean_batch: f64,
    nproc: usize,
) -> Result<Replay, Box<dyn std::error::Error>> {
    let logged: Vec<&Video> = p.schedules[0]
        .reads
        .iter()
        .take(SKETCH_CLIPS)
        .map(|&(_, q)| &p.pool_quantized[q])
        .collect();
    let mut out = Replay::default();

    let mut sketches = Vec::with_capacity(logged.len());
    let mut times = Vec::with_capacity(logged.len());
    for (i, clip) in logged.iter().enumerate() {
        let (sketch, t) = timed(tracer, "replay.defenses.sketch", i as u64, || {
            ClipSketch::of(clip)
        });
        sketches.push(sketch);
        times.push(t * 1e3);
    }
    out.sketch_us = median(&times).unwrap_or(0.0);
    let mut detector = StreamDetector::new(StreamConfig::default());
    let times: Vec<f64> = sketches
        .iter()
        .enumerate()
        .map(|(i, s)| {
            timed(tracer, "replay.defenses.observe", i as u64, || {
                detector.observe(s)
            })
            .1 * 1e3
        })
        .collect();
    out.observe_us = median(&times).unwrap_or(0.0);

    let system = p.service.system();
    let clips = &logged[..logged.len().min(MODEL_CLIPS)];
    let mut features = Vec::with_capacity(clips.len());
    let mut times = Vec::with_capacity(clips.len());
    for (i, clip) in clips.iter().enumerate() {
        let (feature, t) = timed(tracer, "replay.models.embed", i as u64, || {
            system.embed(clip)
        });
        features.push(feature?);
        times.push(t);
    }
    out.embed_ms = median(&times).unwrap_or(0.0);

    // The service embeds a batch on min(workers, batch, cores) threads.
    out.batch = (mean_batch.round() as usize).max(1);
    let workers = p.service.config().workers.min(out.batch).min(nproc);
    let mut times = Vec::new();
    for (i, chunk) in clips
        .chunks(out.batch)
        .filter(|c| c.len() == out.batch)
        .enumerate()
    {
        let (batch, t) = timed(tracer, "replay.models.embed_batch", i as u64, || {
            system.embed_batch(chunk, workers)
        });
        batch?;
        times.push(t / out.batch as f64);
    }
    out.embed_batch_ms_per_clip = median(&times).unwrap_or(0.0);

    let mut times = Vec::with_capacity(features.len());
    for (i, feature) in features.iter().enumerate() {
        let (result, t) = timed(tracer, "replay.retrieval.search", i as u64, || {
            system.retrieve_resilient(feature)
        });
        result?;
        times.push(t);
    }
    out.search_ms = median(&times).unwrap_or(0.0);

    let m = system.config().m;
    let (_, shards) = system.snapshot_with_epoch();
    let mut shard_means = Vec::with_capacity(shards.len());
    for (s, shard) in shards.iter().enumerate() {
        let times: Vec<f64> = features
            .iter()
            .map(|f| {
                timed(tracer, "replay.retrieval.shard_search", s as u64, || {
                    shard.search(f.as_slice(), m)
                })
                .1
            })
            .collect();
        shard_means.push(mean(&times).unwrap_or(0.0));
    }
    out.shard_search_mean_ms = mean(&shard_means).unwrap_or(0.0);
    out.shard_search_max_ms = shard_means.iter().copied().fold(0.0, f64::max);

    let mut surrogate = p.surrogate.clone();
    let mut times = Vec::with_capacity(p.pairs.len() * TRANSFER_REPS);
    for (i, (_, (v, v_t))) in p.pairs.iter().enumerate() {
        for _ in 0..TRANSFER_REPS {
            let (masks, t) = timed(tracer, "replay.attack.transfer", i as u64, || {
                SparseTransfer::new(&mut surrogate, p.duo.transfer).run(v, v_t)
            });
            masks?;
            times.push(t / 1e3);
        }
    }
    out.transfer_s = median(&times).unwrap_or(0.0);
    Ok(out)
}
