//! Streaming adversarial-query detection over per-account query streams.
//!
//! The offline defenses in this crate ([`crate::DetectionHarness`],
//! [`crate::EnsembleDetector`]) judge a *single* input. A deployed
//! service sees something richer: each account's **stream** of queries.
//! Iterative black-box attacks (DUO's SparseQuery, Vanilla, HEU, the
//! sparse-RL agent) necessarily submit long runs of *near-duplicate*
//! clips — each candidate differs from the last by one small perturbation
//! step — while organic traffic hops between unrelated videos. The
//! [`StreamDetector`] turns that signature into a per-account verdict
//! stream.
//!
//! Three signals are computed per query against a bounded ring of the
//! account's recent query sketches:
//!
//! 1. **Self-similarity** — similarity of the query's [`ClipSketch`] to
//!    the *nearest* ring entry (`max` over the ring of
//!    `1 / (1 + msd / sim_scale)`; 1.0 for an exact duplicate, → 0 for
//!    unrelated clips). Taking the nearest entry rather than the ring
//!    mean keeps the signal sharp when an attacker interleaves decoy
//!    traffic between optimizer candidates.
//! 2. **Near-duplicate count** — ring entries within `near_dup_epsilon`
//!    mean-squared sketch distance, *excluding exact duplicates*: a
//!    legitimate client re-querying the same clip (distance 0) is cache
//!    traffic, while an optimizer's candidates are close but never equal.
//! 3. **Perturbation energy** — the sketch's high-frequency residual;
//!    dense adversarial noise lifts it far above natural video texture.
//!
//! A query is *flagged* when at least [`StreamConfig::flag_votes`] of the
//! three signals fire. Accumulated flags drive the escalation ladder
//! (flag → throttle → reject) encoded in [`DetectorAction`] — see
//! `DESIGN.md` §6i for how `duo-serve` wires the ladder into admission.
//!
//! # Determinism doctrine
//!
//! Every verdict is a **pure function of the account's own observation
//! sequence**: no wall-clock, no RNG, no cross-account state. Window
//! aggregates are recomputed by an O(window) scan of the ring on every
//! observation — never maintained as incremental f32 sums — so the
//! detector is *bit-identical* to a naive recompute over the full history
//! (the reference-model property in `tests/defense_stream_properties.rs`)
//! and verdict streams replay byte-identically at any service worker
//! count.
//!
//! # Example
//!
//! ```
//! use duo_defenses::{ClipSketch, DetectorAction, StreamConfig, StreamDetector};
//! use duo_video::{ClipSpec, SyntheticVideoGenerator};
//!
//! let gen = SyntheticVideoGenerator::new(ClipSpec::tiny(), 7);
//! let mut detector = StreamDetector::new(StreamConfig::default());
//!
//! // Distinct clips from different classes: admitted, never flagged.
//! for class in 0..4 {
//!     let sketch = ClipSketch::of(&gen.generate(class, 0));
//!     let verdict = detector.observe(&sketch);
//!     assert!(!verdict.flagged);
//!     assert_eq!(verdict.action, DetectorAction::Admit);
//! }
//! assert_eq!(detector.flags(), 0);
//!
//! // An optimizer's near-duplicate run: the same clip, slightly
//! // perturbed each step, is flagged once the ring has context.
//! let mut video = gen.generate(0, 0);
//! let mut flagged = 0;
//! for step in 0..6 {
//!     let px = video.tensor_mut().as_mut_slice();
//!     px[step * 31] = (px[step * 31] + 25.0).min(255.0);
//!     let verdict = detector.observe(&ClipSketch::of(&video));
//!     flagged += u32::from(verdict.flagged);
//! }
//! assert!(flagged >= 4, "near-duplicate stream must be flagged, got {flagged}");
//! ```

use duo_tensor::{Json, ToJson};
use duo_video::Video;
use std::collections::VecDeque;

/// Temporal cells of the pooled sketch grid.
pub const SKETCH_T: usize = 2;
/// Vertical cells of the pooled sketch grid.
pub const SKETCH_Y: usize = 4;
/// Horizontal cells of the pooled sketch grid.
pub const SKETCH_X: usize = 4;
/// Total sketch cells (`SKETCH_T · SKETCH_Y · SKETCH_X`).
pub const SKETCH_CELLS: usize = SKETCH_T * SKETCH_Y * SKETCH_X;

/// A cheap, deterministic signature of one query clip.
///
/// `cells` is the clip average-pooled onto a fixed
/// `SKETCH_T × SKETCH_Y × SKETCH_X` grid (channel-averaged), in pixel
/// units; `energy` is the mean absolute horizontal neighbor difference —
/// a high-frequency residual that natural (smooth-ish) content keeps low
/// and dense adversarial noise lifts.
///
/// Sketching is O(pixels) with a fixed result: equal videos always
/// produce bit-equal sketches ([`ClipSketch::of`] equals the serial
/// reference pass, [`ClipSketch::serial`], bit for bit). The sketch is
/// computed *outside* any service lock: it is a pure function of the
/// submitted (already quantized) video.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClipSketch {
    /// Pooled grid values, `t`-major then `y` then `x`.
    pub cells: [f32; SKETCH_CELLS],
    /// Mean absolute horizontal neighbor difference, pixel units.
    pub energy: f32,
}

/// 2^24: below it every integer is an f32, so sums of non-negative
/// integers that stay below it are exact in any order.
const EXACT_BOUND: f32 = 16_777_216.0;

impl ClipSketch {
    /// Builds the sketch of a video clip: [`ClipSketch::exact`] where it
    /// applies, the serial pass otherwise, with the same bits either way.
    pub fn of(video: &Video) -> ClipSketch {
        ClipSketch::exact(video).unwrap_or_else(|| ClipSketch::serial(video))
    }

    /// The reference sketch: one serial pass in pixel order, folding each
    /// pixel into its cell's f32 sum and each horizontal neighbor
    /// difference into one f32 energy sum.
    pub fn serial(video: &Video) -> ClipSketch {
        let spec = video.spec();
        let (frames, h, w, c) = (spec.frames, spec.height, spec.width, spec.channels);
        let px = video.tensor().as_slice();
        let mut sums = [0.0f32; SKETCH_CELLS];
        let mut counts = [0u32; SKETCH_CELLS];
        let mut energy_sum = 0.0f32;
        let mut energy_n = 0u64;
        for f in 0..frames {
            let ct = (f * SKETCH_T / frames).min(SKETCH_T - 1);
            for y in 0..h {
                let cy = (y * SKETCH_Y / h).min(SKETCH_Y - 1);
                let row = ((f * h) + y) * w * c;
                for x in 0..w {
                    let cx = (x * SKETCH_X / w).min(SKETCH_X - 1);
                    let cell = (ct * SKETCH_Y + cy) * SKETCH_X + cx;
                    let base = row + x * c;
                    for ch in 0..c {
                        let v = px[base + ch];
                        sums[cell] += v;
                        counts[cell] += 1;
                        if x + 1 < w {
                            energy_sum += (v - px[base + c + ch]).abs();
                            energy_n += 1;
                        }
                    }
                }
            }
        }
        ClipSketch::finish(&sums, &counts, energy_sum, energy_n)
    }

    /// The sketch summed in lanes, or `None` where that is not provably
    /// the serial pass's result.
    ///
    /// The service sketches quantized clips, whose pixels are integers in
    /// `[0, 255]`. Every term the serial pass adds is then a non-negative
    /// integer (a pixel, or the absolute difference of two), and while a
    /// total stays below 2^24 every partial sum on the way to it is an
    /// integer below 2^24 too, which f32 holds exactly: the serial pass
    /// rounds nothing, and any other summation order gives the same bits.
    /// So this pass first checks every pixel (`0 ≤ v ≤ 255` and `v ==
    /// v.trunc()`: −0.0 passes, NaN fails), then sums each row into the
    /// column accumulators of its `(t, y)` cell band and its horizontal
    /// differences into per-column energy accumulators — elementwise
    /// lanes — and splits the columns into cells last. A computed total
    /// below 2^24 proves no sum on its way was rounded (a rounded one
    /// would be ≥ 2^24, and adding non-negative terms keeps it there), so
    /// it returns `None` when the check fails or any cell or energy total
    /// reaches 2^24.
    pub fn exact(video: &Video) -> Option<ClipSketch> {
        let spec = video.spec();
        let (frames, h, w, c) = (spec.frames, spec.height, spec.width, spec.channels);
        let px = video.tensor().as_slice();
        let integral = px.iter().fold(true, |ok, &v| ok & (0.0..=255.0).contains(&v) & (v == v.trunc()));
        let rw = w * c;
        if !integral || rw == 0 {
            return None;
        }
        // Column sums of each `(ct, cy)` band, and the row count of each.
        let mut bands = vec![0.0f32; SKETCH_T * SKETCH_Y * rw];
        let mut band_rows = [0u32; SKETCH_T * SKETCH_Y];
        let mut diffs = vec![0.0f32; rw - c];
        for (r, row) in px.chunks_exact(rw).enumerate() {
            let ct = (r / h * SKETCH_T / frames).min(SKETCH_T - 1);
            let cy = (r % h * SKETCH_Y / h).min(SKETCH_Y - 1);
            let band = ct * SKETCH_Y + cy;
            band_rows[band] += 1;
            for (a, &v) in bands[band * rw..][..rw].iter_mut().zip(row) {
                *a += v;
            }
            for (d, (&v, &next)) in diffs.iter_mut().zip(row.iter().zip(&row[c..])) {
                *d += (v - next).abs();
            }
        }
        let mut sums = [0.0f32; SKETCH_CELLS];
        let mut counts = [0u32; SKETCH_CELLS];
        for (band, cols) in bands.chunks_exact(rw).enumerate() {
            for (x, col) in cols.chunks_exact(c).enumerate() {
                let cell = band * SKETCH_X + (x * SKETCH_X / w).min(SKETCH_X - 1);
                sums[cell] += col.iter().fold(0.0, |a, &v| a + v);
                counts[cell] += band_rows[band] * c as u32;
            }
        }
        let energy_sum = diffs.iter().fold(0.0f32, |a, &d| a + d);
        if energy_sum >= EXACT_BOUND || sums.iter().any(|&s| s >= EXACT_BOUND) {
            return None;
        }
        let energy_n = (frames * h * (w - 1) * c) as u64;
        Some(ClipSketch::finish(&sums, &counts, energy_sum, energy_n))
    }

    /// Cell means and the mean energy from the totals.
    fn finish(sums: &[f32; SKETCH_CELLS], counts: &[u32; SKETCH_CELLS], energy_sum: f32, energy_n: u64) -> ClipSketch {
        let mut cells = [0.0f32; SKETCH_CELLS];
        for (out, (s, n)) in cells.iter_mut().zip(sums.iter().zip(counts)) {
            *out = s / (*n).max(1) as f32;
        }
        let energy = if energy_n == 0 { 0.0 } else { energy_sum / energy_n as f32 };
        ClipSketch { cells, energy }
    }

    /// Mean squared cell difference to another sketch (pixel² units).
    pub fn msd(&self, other: &ClipSketch) -> f32 {
        let mut acc = 0.0f32;
        for (a, b) in self.cells.iter().zip(&other.cells) {
            let d = a - b;
            acc += d * d;
        }
        acc / SKETCH_CELLS as f32
    }
}

/// Configuration of one per-account [`StreamDetector`].
///
/// The defaults are calibrated on the synthetic corpora: distinct clips
/// sit hundreds of pixel² apart in mean-squared sketch distance, while an
/// optimizer's consecutive candidates sit well under one pixel² — the
/// thresholds below leave orders of magnitude of margin on both sides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Ring capacity: how many recent query sketches each account keeps.
    pub window: usize,
    /// Similarity scale `s` in `sim = 1 / (1 + msd / s)` (pixel² units).
    pub sim_scale: f32,
    /// Nearest-ring-entry similarity at or above which the
    /// self-similarity signal fires.
    pub self_sim_threshold: f32,
    /// Mean-squared sketch distance below which a ring entry counts as a
    /// near-duplicate (exact duplicates, distance 0, never count).
    pub near_dup_epsilon: f32,
    /// Near-duplicates in the ring needed for the near-dup signal to fire.
    pub near_dup_min: u32,
    /// Sketch energy at or above which the perturbation-energy signal
    /// fires.
    pub energy_threshold: f32,
    /// How many of the three signals must fire to flag a query.
    pub flag_votes: u32,
    /// Accumulated flags at which the account enters the throttle band.
    pub throttle_after: u64,
    /// In the throttle band, 1 of every `throttle_stride` observations is
    /// admitted; the rest are rejected with [`DetectorAction::Throttle`].
    pub throttle_stride: u64,
    /// Accumulated flags at which every observation is rejected outright
    /// with [`DetectorAction::Reject`].
    pub reject_after: u64,
    /// Keep the full verdict log in memory (for tests and experiments
    /// that byte-compare verdict streams). Off by default: production
    /// accounts keep only counters.
    pub record_verdicts: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            window: 8,
            sim_scale: 64.0,
            self_sim_threshold: 0.8,
            near_dup_epsilon: 16.0,
            near_dup_min: 1,
            energy_threshold: 40.0,
            flag_votes: 2,
            throttle_after: 8,
            throttle_stride: 4,
            reject_after: 64,
            record_verdicts: false,
        }
    }
}

impl StreamConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DefenseError::BadCalibration`] when the window or
    /// throttle stride is zero, when `flag_votes` is zero or above 3, or
    /// when the ladder is inverted (`reject_after < throttle_after`).
    pub fn validate(&self) -> crate::Result<()> {
        if self.window == 0 || self.throttle_stride == 0 {
            return Err(crate::DefenseError::BadCalibration(
                "stream window and throttle_stride must be positive".into(),
            ));
        }
        if self.flag_votes == 0 || self.flag_votes > 3 {
            return Err(crate::DefenseError::BadCalibration(format!(
                "flag_votes must be in 1..=3, got {}",
                self.flag_votes
            )));
        }
        if self.reject_after < self.throttle_after {
            return Err(crate::DefenseError::BadCalibration(format!(
                "escalation ladder inverted: reject_after {} < throttle_after {}",
                self.reject_after, self.throttle_after
            )));
        }
        Ok(())
    }
}

/// The admission decision attached to one verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorAction {
    /// Admit the query.
    Admit,
    /// Reject this observation; the account is in the throttle band and
    /// this was not its stride slot.
    Throttle,
    /// Reject outright; the account has escalated past `reject_after`.
    Reject,
}

impl DetectorAction {
    fn as_str(self) -> &'static str {
        match self {
            DetectorAction::Admit => "admit",
            DetectorAction::Throttle => "throttle",
            DetectorAction::Reject => "reject",
        }
    }
}

/// One observation's verdict: the three signal values, the flag decision,
/// and the escalation action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamVerdict {
    /// 0-based observation index within the account's stream.
    pub seq: u64,
    /// Similarity to the nearest ring entry (0.0 while the ring is
    /// empty).
    pub self_sim: f32,
    /// Ring entries within `near_dup_epsilon` (exact duplicates excluded).
    pub near_dups: u32,
    /// The query sketch's energy.
    pub energy: f32,
    /// Signals that fired (0..=3).
    pub hits: u32,
    /// Whether this observation was flagged (`hits >= flag_votes`).
    pub flagged: bool,
    /// Accumulated flags *including* this observation.
    pub flags_total: u64,
    /// The escalation ladder's decision for this observation.
    pub action: DetectorAction,
}

impl ToJson for StreamVerdict {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("seq".into(), Json::Int(i128::from(self.seq))),
            ("self_sim".into(), self.self_sim.to_json()),
            ("near_dups".into(), Json::Int(i128::from(self.near_dups))),
            ("energy".into(), self.energy.to_json()),
            ("hits".into(), Json::Int(i128::from(self.hits))),
            ("flagged".into(), Json::Bool(self.flagged)),
            ("flags_total".into(), Json::Int(i128::from(self.flags_total))),
            ("action".into(), Json::Str(self.action.as_str().into())),
        ])
    }
}

/// Per-account sliding-window detector state machine.
///
/// Owned by the serving layer, one per client account, and driven by
/// [`StreamDetector::observe`] on every admission attempt — including
/// attempts the ladder rejects, so the ring always reflects the traffic
/// the account actually sent. See the module docs above for the signal
/// definitions and determinism doctrine.
#[derive(Debug, Clone)]
pub struct StreamDetector {
    config: StreamConfig,
    ring: VecDeque<ClipSketch>,
    seen: u64,
    flags: u64,
    throttle_seen: u64,
    log: Vec<StreamVerdict>,
}

impl StreamDetector {
    /// A fresh detector (empty ring, zero flags).
    pub fn new(config: StreamConfig) -> StreamDetector {
        StreamDetector {
            config,
            ring: VecDeque::with_capacity(config.window),
            seen: 0,
            flags: 0,
            throttle_seen: 0,
            log: Vec::new(),
        }
    }

    /// The detector's configuration.
    pub fn config(&self) -> StreamConfig {
        self.config
    }

    /// Observes one query sketch and returns its verdict.
    ///
    /// The sketch enters the ring whatever the action — rejected traffic
    /// is still traffic the detector has seen. Ring aggregates are
    /// recomputed oldest→newest on every call (see the module docs for
    /// why this, not incremental sums, is load-bearing).
    pub fn observe(&mut self, sketch: &ClipSketch) -> StreamVerdict {
        let cfg = &self.config;
        let mut self_sim = 0.0f32;
        let mut near_dups = 0u32;
        for entry in &self.ring {
            let d = sketch.msd(entry);
            self_sim = self_sim.max(1.0 / (1.0 + d / cfg.sim_scale));
            if d > 0.0 && d <= cfg.near_dup_epsilon {
                near_dups += 1;
            }
        }
        let mut hits = 0u32;
        hits += u32::from(!self.ring.is_empty() && self_sim >= cfg.self_sim_threshold);
        hits += u32::from(near_dups >= cfg.near_dup_min);
        hits += u32::from(sketch.energy >= cfg.energy_threshold);
        let flagged = hits >= cfg.flag_votes;
        if flagged {
            self.flags += 1;
        }
        let action = if self.flags >= cfg.reject_after {
            DetectorAction::Reject
        } else if self.flags >= cfg.throttle_after {
            // Deterministic stride throttling: no wall-clock, just the
            // account's own observation count inside the band.
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
            seq: self.seen,
            self_sim,
            near_dups,
            energy: sketch.energy,
            hits,
            flagged,
            flags_total: self.flags,
            action,
        };
        self.ring.push_back(*sketch);
        if self.ring.len() > cfg.window {
            self.ring.pop_front();
        }
        self.seen += 1;
        if cfg.record_verdicts {
            self.log.push(verdict);
        }
        verdict
    }

    /// Observations made so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Accumulated flags.
    pub fn flags(&self) -> u64 {
        self.flags
    }

    /// The recorded verdict log (empty unless
    /// [`StreamConfig::record_verdicts`] is set).
    pub fn verdicts(&self) -> &[StreamVerdict] {
        &self.log
    }

    /// Renders the recorded verdict log as one JSON array string — the
    /// byte-comparable replay artifact the property suite locks.
    pub fn verdicts_json(&self) -> String {
        let rows: Vec<Json> = self.log.iter().map(ToJson::to_json).collect();
        Json::Array(rows).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duo_video::{ClipSpec, SyntheticVideoGenerator};

    fn sketches(seed: u64) -> (ClipSketch, ClipSketch, ClipSketch) {
        let gen = SyntheticVideoGenerator::new(ClipSpec::tiny(), seed);
        let a = gen.generate(0, 0);
        let b = gen.generate(5, 0);
        let mut a_perturbed = a.clone();
        for (i, px) in a_perturbed.tensor_mut().as_mut_slice().iter_mut().enumerate() {
            if i % 97 == 0 {
                *px = (*px + 20.0).min(255.0);
            }
        }
        (ClipSketch::of(&a), ClipSketch::of(&b), ClipSketch::of(&a_perturbed))
    }

    #[test]
    fn sketch_distances_separate_duplicates_from_distinct_clips() {
        let (a, b, a_p) = sketches(31);
        assert_eq!(a.msd(&a), 0.0, "self distance must be exactly zero");
        let near = a.msd(&a_p);
        let far = a.msd(&b);
        assert!(near < 16.0, "perturbed duplicate too far: {near}");
        assert!(far > 100.0, "distinct clips too close: {far}");
    }

    #[test]
    fn near_duplicate_stream_flags_and_escalates() {
        let cfg = StreamConfig { throttle_after: 3, reject_after: 6, ..Default::default() };
        let mut det = StreamDetector::new(cfg);
        let gen = SyntheticVideoGenerator::new(ClipSpec::tiny(), 32);
        let mut video = gen.generate(0, 0);
        let mut actions = Vec::new();
        for step in 0..12usize {
            let px = video.tensor_mut().as_mut_slice();
            px[(step * 53) % px.len()] = (px[(step * 53) % px.len()] + 30.0).min(255.0);
            actions.push(det.observe(&ClipSketch::of(&video)).action);
        }
        assert!(det.flags() >= 6, "stream must accumulate flags, got {}", det.flags());
        assert_eq!(*actions.last().unwrap(), DetectorAction::Reject);
        assert!(actions.contains(&DetectorAction::Throttle), "{actions:?}");
    }

    #[test]
    fn distinct_traffic_is_never_flagged() {
        let mut det = StreamDetector::new(StreamConfig::default());
        let gen = SyntheticVideoGenerator::new(ClipSpec::tiny(), 33);
        for class in 0..12 {
            let v = det.observe(&ClipSketch::of(&gen.generate(class, class % 3)));
            assert!(!v.flagged, "clean distinct clip flagged: {v:?}");
            assert_eq!(v.action, DetectorAction::Admit);
        }
        assert_eq!(det.flags(), 0);
    }

    #[test]
    fn exact_duplicates_alone_do_not_flag() {
        // A client legitimately re-querying the same clip: self-sim fires
        // (distance 0 ⇒ sim 1) but near-dup excludes exact duplicates, so
        // with the default 2-vote rule the stream stays clean.
        let mut det = StreamDetector::new(StreamConfig::default());
        let gen = SyntheticVideoGenerator::new(ClipSpec::tiny(), 34);
        let s = ClipSketch::of(&gen.generate(2, 0));
        for _ in 0..10 {
            let v = det.observe(&s);
            assert!(!v.flagged, "exact replay flagged: {v:?}");
        }
    }

    #[test]
    fn verdict_log_only_kept_when_recording() {
        let (a, b, _) = sketches(35);
        let mut silent = StreamDetector::new(StreamConfig::default());
        silent.observe(&a);
        silent.observe(&b);
        assert!(silent.verdicts().is_empty());
        let mut recording =
            StreamDetector::new(StreamConfig { record_verdicts: true, ..Default::default() });
        recording.observe(&a);
        recording.observe(&b);
        assert_eq!(recording.verdicts().len(), 2);
        let json = recording.verdicts_json();
        assert!(json.starts_with('[') && json.contains("\"action\":\"admit\""), "{json}");
    }

    #[test]
    fn config_validation_rejects_degenerate_ladders() {
        assert!(StreamConfig { window: 0, ..Default::default() }.validate().is_err());
        assert!(StreamConfig { throttle_stride: 0, ..Default::default() }.validate().is_err());
        assert!(StreamConfig { flag_votes: 0, ..Default::default() }.validate().is_err());
        assert!(StreamConfig { flag_votes: 4, ..Default::default() }.validate().is_err());
        assert!(StreamConfig { throttle_after: 9, reject_after: 8, ..Default::default() }
            .validate()
            .is_err());
        assert!(StreamConfig::default().validate().is_ok());
    }
}
