//! Property-based coverage of the streaming blue-team detector's
//! determinism doctrine, end to end through `duo-serve`:
//!
//! 1. **Worker-count independence.** The per-account verdict sequence is
//!    decided at admission under the clients lock, so the same seeded
//!    interleaved traffic produces byte-identical verdict JSON at worker
//!    counts 1/2/8.
//! 2. **Reference-model equivalence.** The ring-buffer detector equals a
//!    naive model that keeps the *entire* history and recomputes over
//!    the trailing window each step — bit for bit, f32s compared by bits.
//! 3. **Monotonicity.** Shrinking every perturbation step toward the
//!    base clip (a strictly more self-similar query sequence) never
//!    lowers the per-step self-similarity score.
//! 4. **Exact sketch.** The lane-summed sketch of a quantized clip equals
//!    the serial reference pass bit for bit, and the clips it cannot
//!    prove exact (a non-integral or NaN pixel, a total at or past 2^24)
//!    take the serial pass.
//!
//! This suite persists failing case seeds to
//! `tests/defense_stream_properties.regressions` (see [`duo_check`]);
//! past failures replay before fresh generation.

use duo::prelude::*;
use duo::video::SyntheticVideoGenerator;
use duo_check::{check, prop_assert, prop_assert_eq, Config};
use duo_tensor::RandomSource;

fn config() -> Config {
    // Property 1 stands up three live services per case; keep the case
    // count small like the campaign suite does.
    Config::default().with_cases(3).with_regressions(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/defense_stream_properties.regressions"
    ))
}

/// Streaming calibration with the verdict log switched on.
fn recording_stream() -> StreamConfig {
    StreamConfig { record_verdicts: true, ..StreamConfig::default() }
}

/// A tiny defended service over an untrained victim world.
fn defended_service(seed: u64, workers: usize) -> RetrievalService {
    let mut rng = Rng64::new(seed);
    let ds = SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), 8, 1, 0);
    let victim = Backbone::new(Architecture::I3d, BackboneConfig::tiny(), &mut rng).unwrap();
    let system = RetrievalSystem::build(
        victim,
        &ds,
        ds.train(),
        RetrievalConfig { m: 4, nodes: 2, threaded: false, ..Default::default() },
    )
    .unwrap();
    let config = ServeConfig {
        workers,
        defense: Some(DefenseConfig { stream: recording_stream(), purify: Purify::None }),
        ..ServeConfig::default()
    };
    RetrievalService::start(system, config).unwrap()
}

/// `base` with `k` seeded pixels nudged by up to `tau` — one optimizer
/// candidate in an adversarial query stream.
fn perturbed(base: &Video, rng: &mut Rng64, k: usize, tau: f32) -> Video {
    let mut v = base.clone();
    let px = v.tensor_mut().as_mut_slice();
    for _ in 0..k {
        let i = (rng.next_u64() % px.len() as u64) as usize;
        px[i] = (px[i] + tau * (2.0 * rng.uniform() - 1.0)).clamp(0.0, 255.0);
    }
    v
}

/// The naive reference detector: keeps the full observation history and
/// rescans the trailing `window` sketches (oldest→newest, the ring's
/// iteration order) on every step. Same escalation state machine.
struct NaiveDetector {
    config: StreamConfig,
    history: Vec<ClipSketch>,
    flags: u64,
    throttle_seen: u64,
}

impl NaiveDetector {
    fn new(config: StreamConfig) -> NaiveDetector {
        NaiveDetector { config, history: Vec::new(), flags: 0, throttle_seen: 0 }
    }

    fn observe(&mut self, sketch: &ClipSketch) -> StreamVerdict {
        let cfg = &self.config;
        let start = self.history.len().saturating_sub(cfg.window);
        let window = &self.history[start..];
        let mut self_sim = 0.0f32;
        let mut near_dups = 0u32;
        for entry in window {
            let d = sketch.msd(entry);
            self_sim = self_sim.max(1.0 / (1.0 + d / cfg.sim_scale));
            if d > 0.0 && d <= cfg.near_dup_epsilon {
                near_dups += 1;
            }
        }
        let mut hits = 0u32;
        hits += u32::from(!window.is_empty() && self_sim >= cfg.self_sim_threshold);
        hits += u32::from(near_dups >= cfg.near_dup_min);
        hits += u32::from(sketch.energy >= cfg.energy_threshold);
        let flagged = hits >= cfg.flag_votes;
        if flagged {
            self.flags += 1;
        }
        let action = if self.flags >= cfg.reject_after {
            DetectorAction::Reject
        } else if self.flags >= cfg.throttle_after {
            let slot = self.throttle_seen;
            self.throttle_seen += 1;
            if slot % cfg.throttle_stride == 0 {
                DetectorAction::Admit
            } else {
                DetectorAction::Throttle
            }
        } else {
            DetectorAction::Admit
        };
        let verdict = StreamVerdict {
            seq: self.history.len() as u64,
            self_sim,
            near_dups,
            energy: sketch.energy,
            hits,
            flagged,
            flags_total: self.flags,
            action,
        };
        self.history.push(*sketch);
        verdict
    }
}

/// Renders a verdict slice the way [`StreamDetector::verdicts_json`]
/// does, so service-side logs byte-compare across runs.
fn verdicts_json(verdicts: &[StreamVerdict]) -> String {
    let rows: Vec<duo_tensor::Json> =
        verdicts.iter().map(duo_tensor::ToJson::to_json).collect();
    duo_tensor::Json::Array(rows).to_string()
}

check! {
    #![config(config())]

    /// Same seeded interleaved traffic (an adversarial near-dup lane and
    /// a benign distinct-clip lane, strictly alternating) must log
    /// byte-identical per-account verdicts at any worker count.
    fn verdicts_are_worker_count_independent(
        world_seed in 0u64..1_000,
        traffic_seed in 0u64..1_000_000,
        rounds in 4usize..12,
    ) {
        let gen = SyntheticVideoGenerator::new(ClipSpec::tiny(), world_seed ^ 0xFACE);
        let base = gen.generate(0, 0);
        let mut logs: Vec<(String, String)> = Vec::new();
        for workers in [1usize, 2, 8] {
            let svc = defended_service(world_seed, workers);
            let red = svc.client(None, None);
            let blue = svc.client(None, None);
            let mut rng = Rng64::new(traffic_seed);
            for round in 0..rounds {
                // Outcome (admit/throttle/quarantine) is part of the
                // verdict log; the call result itself is not asserted.
                let _ = red.retrieve(&perturbed(&base, &mut rng, 200, 20.0));
                let _ = blue.retrieve(&gen.generate((round % 8) as u32, 1));
            }
            let red_log = red.defense_verdicts().expect("defended service records");
            let blue_log = blue.defense_verdicts().expect("defended service records");
            prop_assert_eq!(red_log.len(), rounds, "one verdict per red submission");
            prop_assert_eq!(blue_log.len(), rounds, "one verdict per blue submission");
            logs.push((verdicts_json(&red_log), verdicts_json(&blue_log)));
            svc.shutdown();
        }
        for pair in logs.windows(2) {
            prop_assert_eq!(
                &pair[0].0, &pair[1].0,
                "red lane verdicts must not depend on worker count"
            );
            prop_assert_eq!(
                &pair[0].1, &pair[1].1,
                "blue lane verdicts must not depend on worker count"
            );
        }
    }

    /// The ring-buffer detector must equal the full-history naive model
    /// bit for bit, at any window size, over mixed traffic.
    fn ring_detector_equals_naive_recompute(
        seed in 0u64..1_000_000,
        window in 1usize..12,
        steps in 8usize..40,
    ) {
        let config = StreamConfig { window, record_verdicts: false, ..StreamConfig::default() };
        let mut ring = StreamDetector::new(config);
        let mut naive = NaiveDetector::new(config);
        let gen = SyntheticVideoGenerator::new(ClipSpec::tiny(), seed ^ 0xD00D);
        let base = gen.generate(0, 0);
        let mut rng = Rng64::new(seed);
        for step in 0..steps {
            // Mix near-duplicate candidates, exact replays, and distinct
            // clips so the ring cycles through every signal.
            let clip = match rng.next_u64() % 3 {
                0 => perturbed(&base, &mut rng, 150, 25.0),
                1 => base.clone(),
                _ => gen.generate((step % 6) as u32, 1),
            };
            let sketch = ClipSketch::of(&clip);
            let a = ring.observe(&sketch);
            let b = naive.observe(&sketch);
            prop_assert_eq!(a.seq, b.seq, "seq diverged at step {step}");
            prop_assert_eq!(
                a.self_sim.to_bits(), b.self_sim.to_bits(),
                "self_sim diverged at step {step}: {} vs {}", a.self_sim, b.self_sim
            );
            prop_assert_eq!(a.near_dups, b.near_dups, "near_dups diverged at step {step}");
            prop_assert_eq!(
                a.energy.to_bits(), b.energy.to_bits(),
                "energy diverged at step {step}"
            );
            prop_assert_eq!(a.hits, b.hits, "hits diverged at step {step}");
            prop_assert_eq!(a.flagged, b.flagged, "flag diverged at step {step}");
            prop_assert_eq!(a.flags_total, b.flags_total, "flags diverged at step {step}");
            prop_assert_eq!(a.action, b.action, "action diverged at step {step}");
        }
    }

    /// Interpolating every query strictly closer to the base clip can
    /// only raise (never lower) each step's self-similarity score.
    fn tighter_query_sequences_never_lower_self_similarity(
        seed in 0u64..1_000_000,
        alpha_lo in 0.05f32..0.4,
        spread in 1.5f32..4.0,
        steps in 3usize..10,
    ) {
        let alpha_hi = alpha_lo * spread;
        let gen = SyntheticVideoGenerator::new(ClipSpec::tiny(), seed ^ 0xBA5E);
        let base = gen.generate(0, 0);
        let lerp = |alpha: f32, toward: &Video| {
            let mut v = base.clone();
            let dst = v.tensor_mut().as_mut_slice();
            for (d, &t) in dst.iter_mut().zip(toward.tensor().as_slice()) {
                *d += alpha * (t - *d);
            }
            v
        };
        let config = StreamConfig::default();
        let mut tight = StreamDetector::new(config);
        let mut loose = StreamDetector::new(config);
        for step in 0..steps {
            let toward = gen.generate((step % 6) as u32, 1);
            let vt = tight.observe(&ClipSketch::of(&lerp(alpha_lo, &toward)));
            let vl = loose.observe(&ClipSketch::of(&lerp(alpha_hi, &toward)));
            // Tolerance: pooling is linear only up to f32 rounding.
            prop_assert!(
                vt.self_sim >= vl.self_sim - 1e-5,
                "step {step}: tighter sequence scored {} below looser {}",
                vt.self_sim, vl.self_sim
            );
        }
    }
}

fn sketch_bits(s: &ClipSketch) -> Vec<u32> {
    s.cells.iter().chain([&s.energy]).map(|v| v.to_bits()).collect()
}

/// A seeded clip of kind `kind`: a perturbed, quantized synthetic clip at
/// the experiment or tiny geometry, all 0 or all 255, a quantized clip
/// with −0.0 pixels; then (kinds 5 and 6) one that is not provably exact,
/// with a non-integral or a NaN pixel.
fn sketch_case(kind: u32, seed: u64) -> Video {
    let spec = if kind == 1 { ClipSpec::tiny() } else { ClipSpec::experiment() };
    let mut rng = Rng64::new(seed);
    let mut v = match kind {
        2 => Video::zeros(spec),
        3 => Video::from_tensor(spec, Tensor::full(&[spec.frames, spec.height, spec.width, spec.channels], 255.0)).unwrap(),
        _ => perturbed(&SyntheticVideoGenerator::new(spec, seed).generate((seed % 6) as u32, 0), &mut rng, 300, 40.0),
    };
    v.quantize();
    let px = v.tensor_mut().as_mut_slice();
    let at = (rng.next_u64() % px.len() as u64) as usize;
    match kind {
        2 | 4 => {
            for _ in 0..64 {
                let i = (rng.next_u64() % px.len() as u64) as usize;
                px[i] = -0.0;
            }
        }
        5 => px[at] += 0.5,
        6 => px[at] = f32::NAN,
        _ => {}
    }
    v
}

check! {
    #![config(Config::default().with_cases(48).with_regressions(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/defense_stream_properties.regressions"
    )))]

    /// `ClipSketch::of` is the serial pass's bits on every clip; on a
    /// quantized clip it takes the lane-summed exact path, and on a clip
    /// with a non-integral or NaN pixel the serial one.
    fn exact_sketch_is_bitwise_the_serial_pass(kind in 0u32..7, seed in 0u64..1_000_000) {
        let clip = sketch_case(kind, seed);
        let serial = sketch_bits(&ClipSketch::serial(&clip));
        prop_assert_eq!(sketch_bits(&ClipSketch::of(&clip)), serial.clone(), "kind {kind}");
        match ClipSketch::exact(&clip) {
            Some(exact) => {
                prop_assert!(kind < 5, "kind {kind} took the exact path");
                prop_assert_eq!(sketch_bits(&exact), serial, "kind {kind}");
            }
            None => prop_assert!(kind >= 5, "kind {kind} fell back to the serial pass"),
        }
    }
}

/// A paper-size clip (16 × 112 × 112) whose columns alternate 0 and 255:
/// integral, but its energy total (≈ 1.5 × 10^8) is past 2^24, so the
/// lane sums could round differently and the serial pass runs.
#[test]
fn sketch_totals_past_two_to_the_24_take_the_serial_pass() {
    let spec = ClipSpec::paper();
    let mut v = Video::zeros(spec);
    for (i, px) in v.tensor_mut().as_mut_slice().iter_mut().enumerate() {
        if (i / spec.channels) % 2 == 1 {
            *px = 255.0;
        }
    }
    assert!(ClipSketch::exact(&v).is_none());
    assert_eq!(sketch_bits(&ClipSketch::of(&v)), sketch_bits(&ClipSketch::serial(&v)));
}
