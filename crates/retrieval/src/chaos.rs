//! Deterministic fault injection for data nodes.
//!
//! DUO attacks a *deployed, distributed* service under a hard query
//! budget, so the serving substrate has to be exercised under realistic
//! faults: transient errors, latency spikes, and nodes that flap in and
//! out of service — not just the binary [`crate::DataNode::set_offline`]
//! switch. [`FaultPlan`] supplies exactly that, with one non-negotiable
//! property: **every decision is a pure function of the plan and the
//! node-local query index**. The wall clock never enters the decision
//! path, so the same seed replays the same fault schedule bit for bit,
//! across runs and across threaded/inline fan-out.
//!
//! Injected latency is *virtual*: a node attempt reports how long it
//! would have taken (`delay_us`), and the resilience layer compares that
//! against its per-node deadline to decide timeouts. Nothing sleeps: a
//! lane of the threaded fan-out queries its nodes one after another, so
//! slept delays would add up within a lane instead of overlapping.

use duo_tensor::Rng64;

/// A half-open interval of node-query indices during which the node is
/// down (a "flap"): offline for queries `start..end`, back afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlapWindow {
    /// First node-query index the flap covers.
    pub start: u64,
    /// One past the last covered index.
    pub end: u64,
}
duo_tensor::impl_to_json!(struct FlapWindow { start, end });

impl FlapWindow {
    /// Whether `index` falls inside the flap.
    pub fn covers(&self, index: u64) -> bool {
        index >= self.start && index < self.end
    }
}

/// The fault verdict for one node query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDecision {
    /// The node is inside a flap window: behaves exactly like
    /// [`crate::NodeStatus::Offline`] for this query.
    pub offline: bool,
    /// The query fails transiently (a retry may succeed).
    pub transient: bool,
    /// Virtual service latency injected into the answer, microseconds.
    pub delay_us: u64,
}

impl FaultDecision {
    /// A decision that injects nothing.
    pub fn clean() -> Self {
        FaultDecision { offline: false, transient: false, delay_us: 0 }
    }
}

/// A seeded, deterministic fault schedule for one data node.
///
/// The plan maps a node-local query index to a [`FaultDecision`] using a
/// dedicated [`Rng64`] stream derived from `(seed, index)` — never the
/// clock, never global state. [`FaultPlan::none`] (or simply not
/// installing a plan) injects nothing, which keeps the no-chaos retrieval
/// path bit-identical to a system without the chaos layer.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-index decision stream.
    pub seed: u64,
    /// Probability in `[0, 1]` that a query fails transiently.
    pub transient_p: f32,
    /// Base injected latency per query, microseconds.
    pub latency_base_us: u64,
    /// Uniform extra latency in `[0, latency_jitter_us)`, microseconds.
    pub latency_jitter_us: u64,
    /// Probability in `[0, 1]` of a latency spike on top of the base.
    pub spike_p: f32,
    /// Spike magnitude, microseconds.
    pub spike_us: u64,
    /// Scheduled offline windows in node-query-index space.
    pub flaps: Vec<FlapWindow>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a builder base).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_p: 0.0,
            latency_base_us: 0,
            latency_jitter_us: 0,
            spike_p: 0.0,
            spike_us: 0,
            flaps: Vec::new(),
        }
    }

    /// A plan with a transient-failure probability only.
    pub fn transient(seed: u64, transient_p: f32) -> Self {
        FaultPlan { transient_p, ..FaultPlan::none(seed) }
    }

    /// Adds a flap window (builder style).
    #[must_use]
    pub fn with_flap(mut self, start: u64, end: u64) -> Self {
        self.flaps.push(FlapWindow { start, end });
        self
    }

    /// Adds an injected latency distribution (builder style).
    #[must_use]
    pub fn with_latency(mut self, base_us: u64, jitter_us: u64, spike_p: f32, spike_us: u64) -> Self {
        self.latency_base_us = base_us;
        self.latency_jitter_us = jitter_us;
        self.spike_p = spike_p;
        self.spike_us = spike_us;
        self
    }

    /// The fault verdict for the `index`-th query this node sees.
    ///
    /// Pure: same plan and index always yield the same decision. The
    /// random draws use a stream forked from `(seed, index)` with a fixed
    /// draw order (transient, spike, jitter), so adding a fault dimension
    /// to a plan never perturbs the others' schedules retroactively.
    pub fn decision(&self, index: u64) -> FaultDecision {
        let offline = self.flaps.iter().any(|w| w.covers(index));
        let mut rng = Rng64::new(self.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let transient = self.transient_p > 0.0 && rng.uniform() < self.transient_p;
        let spiked = self.spike_p > 0.0 && rng.uniform() < self.spike_p;
        let jitter = if self.latency_jitter_us > 0 {
            (rng.as_rng().next_u64()) % self.latency_jitter_us
        } else {
            0
        };
        let delay_us =
            self.latency_base_us + jitter + if spiked { self.spike_us } else { 0 };
        FaultDecision { offline, transient, delay_us }
    }

    /// The first `n` decisions, for schedule inspection in tests.
    pub fn schedule(&self, n: u64) -> Vec<FaultDecision> {
        (0..n).map(|i| self.decision(i)).collect()
    }

    /// Whether the plan can inject anything at all.
    pub fn is_noop(&self) -> bool {
        self.transient_p <= 0.0
            && self.latency_base_us == 0
            && self.latency_jitter_us == 0
            && (self.spike_p <= 0.0 || self.spike_us == 0)
            && self.flaps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::transient(42, 0.3)
            .with_latency(100, 50, 0.1, 5_000)
            .with_flap(10, 20);
        let a = plan.schedule(200);
        let b = plan.schedule(200);
        assert_eq!(a, b, "decisions must be pure in (seed, index)");
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::transient(1, 0.5).schedule(64);
        let b = FaultPlan::transient(2, 0.5).schedule(64);
        assert_ne!(a, b, "distinct seeds should produce distinct schedules");
    }

    #[test]
    fn flap_windows_cover_exactly_their_range() {
        let plan = FaultPlan::none(7).with_flap(3, 6);
        for i in 0..10u64 {
            assert_eq!(plan.decision(i).offline, (3..6).contains(&i), "index {i}");
        }
    }

    #[test]
    fn transient_rate_is_roughly_honoured() {
        let plan = FaultPlan::transient(99, 0.2);
        let hits = plan.schedule(2_000).iter().filter(|d| d.transient).count();
        let rate = hits as f32 / 2_000.0;
        assert!((0.15..0.25).contains(&rate), "rate {rate} should be near 0.2");
    }

    #[test]
    fn noop_plan_injects_nothing() {
        let plan = FaultPlan::none(5);
        assert!(plan.is_noop());
        for d in plan.schedule(64) {
            assert_eq!(d, FaultDecision::clean());
        }
    }

    #[test]
    fn latency_is_bounded_by_parameters() {
        let plan = FaultPlan::none(11).with_latency(100, 40, 1.0, 300);
        for d in plan.schedule(128) {
            assert!(d.delay_us >= 400 && d.delay_us < 440, "delay {}", d.delay_us);
        }
    }
}
