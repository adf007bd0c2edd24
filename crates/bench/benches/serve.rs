//! Serving-layer benchmarks: single-query vs micro-batched throughput.
//!
//! Two levels of measurement:
//!
//! * `serve/extract_*` — the raw batched forward ([`duo_nn::Layer::infer_batch`]
//!   via `Backbone::extract_batch`) against a serial `extract` loop on one
//!   thread. This isolates the compute-level amortization (each
//!   convolution's weight matrix packed once per batch); since the
//!   lowering and GEMM buffers come from a recycled workspace on both
//!   paths, it is mostly a parity check that the batched path never
//!   costs more than the serial loop.
//! * `serve/single_query_*` vs `serve/micro_batched_*` — the full service:
//!   rounds of lockstep bursts from four concurrent client threads against
//!   a live `duo-serve` service, with batching off (`batch_max = 1`, every
//!   request is its own backbone forward and worker handoff) and on
//!   (`batch_max = 4`, one coalesced batched forward per burst). On top of
//!   the forward amortization, batching coalesces the per-request batcher
//!   wakeups and scheduling handoffs, which is where most of the
//!   single-core win comes from.
//!
//! Entries that threshold rules compare are sampled interleaved
//! ([`Runner::bench_interleaved`]), so drift in the host's speed cannot
//! land on one side of a ratio. Every service sample starts a fresh
//! service outside the timed region.
//!
//! Experiment-scale clips (32×32×16 frames) are used so the convolution
//! lowering buffers are large enough for workspace reuse to matter — the
//! same geometry the experiment binaries serve. The mean batch and the
//! service-side p50/p95 latency of each configuration are printed after
//! the timing run.

use duo_bench::{bench_group, Runner};
use duo_defenses::{FeatureSqueezing, StreamConfig};
use duo_experiments::{build_world, Scale};
use duo_models::{Architecture, Backbone, BackboneConfig, LossKind};
use duo_retrieval::RetrievalSystem;
use duo_serve::{DefenseConfig, Purify, RetrievalService, ServeConfig};
use duo_tensor::Rng64;
use duo_video::{ClipSpec, DatasetKind, SyntheticVideoGenerator, Video};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

const CLIENTS: usize = 4;
const ROUNDS: usize = 4;

fn bench_batched_forward(c: &mut Runner) {
    let mut rng = Rng64::new(0xBA7C4);
    let model =
        Backbone::new(Architecture::I3d, BackboneConfig::experiment(), &mut rng).unwrap();
    let generator = SyntheticVideoGenerator::new(ClipSpec::experiment(), 5);
    let videos: Vec<Video> = (0..CLIENTS as u32).map(|i| generator.generate(i, i)).collect();
    let refs: Vec<&Video> = videos.iter().collect();
    c.bench_interleaved(&["serve/extract_serial_4", "serve/extract_batched_4"], |entry| {
        let start = Instant::now();
        if entry == 0 {
            for v in &refs {
                black_box(model.extract(v).unwrap());
            }
        } else {
            black_box(model.extract_batch(&refs, 1).unwrap());
        }
        start.elapsed().as_secs_f64()
    });
}

fn serve_system() -> (RetrievalSystem, Vec<Video>) {
    let mut scale = Scale::smoke();
    // Experiment-scale clips and backbone: large enough convolutions that
    // the batched forward's workspace amortization is measurable.
    scale.clip = ClipSpec::experiment();
    scale.backbone = BackboneConfig::experiment();
    let world =
        build_world(DatasetKind::Hmdb51Like, Architecture::I3d, LossKind::ArcFace, scale, 0xBE_5E12)
            .expect("serve bench world builds");
    let videos: Vec<Video> = world
        .dataset
        .test()
        .iter()
        .filter(|id| id.class < scale.classes)
        .take(CLIENTS)
        .map(|&id| world.dataset.video(id))
        .collect();
    assert_eq!(videos.len(), CLIENTS, "bench corpus too small");
    (world.system, videos)
}

/// Serves `ROUNDS` bursts: all clients submit one query in lockstep, so
/// the batcher sees `CLIENTS` concurrent requests per round.
fn serve_bursts(service: &RetrievalService, videos: &[Video]) {
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for video in videos {
            let client = service.client(None, None);
            let barrier = &barrier;
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    barrier.wait();
                    client.retrieve(video).expect("bench query serves");
                }
            });
        }
    });
}

fn bench_serve(c: &mut Runner) {
    let (system, videos) = serve_system();
    let configs = [
        (
            "serve/single_query_4clients",
            ServeConfig { workers: 2, batch_max: 1, ..ServeConfig::default() },
        ),
        // batch_max equals the burst width, so a batch closes as soon as
        // the whole burst has joined. The batcher holds it open only while
        // burst members are still in admission, never past batch_wait.
        (
            "serve/micro_batched_4clients",
            ServeConfig {
                workers: 2,
                batch_max: CLIENTS,
                batch_wait: Duration::from_millis(5),
                ..ServeConfig::default()
            },
        ),
        // The always-on blue-team admission stage on the batched path:
        // per-query sketch + detector observe under the clients lock.
        // Each burst registers fresh clients (fresh detectors) and sends
        // ROUNDS exact replays, which fire at most the self-sim vote —
        // below `flag_votes`, so the bench measures the defended fast
        // path, never the escalation ladder. Purification is off here:
        // it is an *opt-in* transform whose cost is charged against the
        // request deadline (and measured by the red_vs_blue experiment),
        // not part of the mandatory detection overhead this entry gates.
        (
            "serve/defended_4clients",
            ServeConfig {
                workers: 2,
                batch_max: CLIENTS,
                batch_wait: Duration::from_millis(5),
                defense: Some(DefenseConfig {
                    stream: StreamConfig::default(),
                    purify: Purify::None,
                }),
                ..ServeConfig::default()
            },
        ),
        // The full defended inference path with squeeze purification on —
        // reported for the latency budget discussion in EXPERIMENTS.md,
        // not threshold-gated (purification cost is a policy choice).
        (
            "serve/purified_4clients",
            ServeConfig {
                workers: 2,
                batch_max: CLIENTS,
                batch_wait: Duration::from_millis(5),
                defense: Some(DefenseConfig {
                    stream: StreamConfig::default(),
                    purify: Purify::Squeeze(FeatureSqueezing::default()),
                }),
                ..ServeConfig::default()
            },
        ),
    ];
    // Interleaved so host drift lands on every entry alike: the rules in
    // BENCH_thresholds.txt compare these entries with each other. Each
    // sample restarts its service outside the timed region, so every
    // sample starts from fresh clients, detectors and counters.
    let names: Vec<&str> = configs.iter().map(|(name, _)| *name).collect();
    let mut system = Some(system);
    let mut totals = vec![(0u64, 0u64, Vec::new()); configs.len()];
    c.bench_interleaved(&names, |entry| {
        let idle = system.take().expect("each sample returns the system");
        let service = RetrievalService::start(idle, configs[entry].1).expect("service starts");
        let start = Instant::now();
        serve_bursts(&service, &videos);
        let elapsed = start.elapsed().as_secs_f64();
        let (recovered, stats) = service.shutdown_into();
        system = Some(recovered.expect("no client handles outlive the burst"));
        let (served, batches, latencies) = &mut totals[entry];
        *served += stats.served;
        *batches += stats.batches;
        latencies.push((stats.latency_p50_us, stats.latency_p95_us));
        elapsed
    });
    for ((name, _), (served, batches, mut latencies)) in configs.iter().zip(totals) {
        if latencies.is_empty() {
            continue;
        }
        latencies.sort_unstable();
        let (p50, p95) = latencies[latencies.len() / 2];
        let mean_batch = served as f64 / batches.max(1) as f64;
        println!(
            "  {name}: served {served} (mean batch {mean_batch:.2}), \
             service p50 {p50} us / p95 {p95} us (median sample)"
        );
    }
}

/// `DUO_SCALE=smoke` (the verify-gate setting) trims the sample count so
/// the artifact still gets written without the full timing run; ten
/// interleaved samples still give the ratio rules a trimmed mean of six.
fn sample_size() -> usize {
    if std::env::var("DUO_SCALE").as_deref() == Ok("smoke") {
        10
    } else {
        20
    }
}

bench_group! {
    name = benches;
    config = Runner::default().sample_size(sample_size());
    targets = bench_batched_forward, bench_serve
}

fn main() {
    let runner = benches();
    let path = runner.artifact_path("serve");
    duo_bench::write_bench_json(&path, runner.results()).expect("write BENCH_serve.json");
    println!("wrote {}", path.display());
    runner.finish();
}
