//! Service and client configuration.

use duo_defenses::{Defense, FeatureSqueezing, Noise2Self, StreamConfig};
use duo_video::Video;
use std::time::Duration;

/// Configuration of the serving layer.
///
/// # Example
///
/// Stand a service up over a retrieval system, issue one query, and shut
/// down:
///
/// ```
/// use duo_serve::{RetrievalService, ServeConfig};
/// use duo_retrieval::{RetrievalConfig, RetrievalSystem};
/// use duo_models::{Architecture, Backbone, BackboneConfig};
/// use duo_tensor::Rng64;
/// use duo_video::{ClipSpec, DatasetKind, SyntheticDataset};
/// use std::time::Duration;
///
/// let mut rng = Rng64::new(5);
/// let ds = SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), 2, 1, 0);
/// let backbone = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng)?;
/// let system = RetrievalSystem::build(backbone, &ds, ds.train(), RetrievalConfig::default())?;
///
/// let config = ServeConfig {
///     workers: 2,
///     batch_max: 4,
///     batch_wait: Duration::from_millis(1),
///     ..ServeConfig::default()
/// };
/// let service = RetrievalService::start(system, config)?;
/// let client = service.client(None, None);
/// let top_m = client.retrieve(&ds.video(ds.train()[0]))?;
/// assert_eq!(top_m[0], ds.train()[0]);
///
/// let stats = service.shutdown();
/// assert_eq!(stats.served, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Retrieval worker threads draining the batched work queue. It also
    /// caps the chunks a batch's embed splits into (at most one per item
    /// and one per core): the batcher thread runs the first chunk and a
    /// scoped thread each other one, and each chunk runs the backbone's
    /// forward once per clip on its one thread.
    pub workers: usize,
    /// Maximum requests coalesced into one batch.
    pub batch_max: usize,
    /// The longest the batcher holds a batch open, counted from its first
    /// request. It waits only while another request is still in
    /// admission (inside [`crate::ClientHandle::retrieve`] but not yet
    /// queued); with nothing queued and nobody in admission it dispatches
    /// at once, so a lone caller never waits. This bound is what a batch
    /// pays when a request it waited for is rejected in admission.
    pub batch_wait: Duration,
    /// Ingress queue capacity; admission sheds load beyond this.
    pub queue_cap: usize,
    /// End-to-end deadline stamped on every request at admission unless
    /// the client supplies its own
    /// ([`crate::ClientHandle::retrieve_with_deadline`]). Requests whose
    /// deadline expires in the queue are shed and **refunded** — a shed
    /// query is never billed to the client's ledger. `None` disables the
    /// default deadline.
    pub default_deadline: Option<Duration>,
    /// Optional blue-team stage: per-account streaming detection at
    /// admission plus optional input purification on the inference path.
    /// `None` (the default) serves undefended.
    pub defense: Option<DefenseConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            batch_max: 8,
            batch_wait: Duration::from_millis(2),
            queue_cap: 64,
            default_deadline: None,
            defense: None,
        }
    }
}

impl ServeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ServeError::BadConfig`] for zero workers, batch
    /// size, or queue capacity.
    pub fn validate(&self) -> Result<(), crate::ServeError> {
        if self.workers == 0 || self.batch_max == 0 || self.queue_cap == 0 {
            return Err(crate::ServeError::BadConfig(format!(
                "workers, batch_max and queue_cap must be positive, got {self:?}"
            )));
        }
        if let Some(defense) = &self.defense {
            defense
                .stream
                .validate()
                .map_err(|e| crate::ServeError::BadConfig(format!("defense stage: {e}")))?;
        }
        Ok(())
    }
}

/// Configuration of the optional serving-side defense stage.
///
/// Two sub-stages, both off the model's hot path:
///
/// * **Streaming detection** (`stream`): a per-account
///   [`duo_defenses::StreamDetector`] observes every admission attempt
///   and drives the flag → throttle → reject escalation ladder. Rejected
///   attempts are never charged, so the budget-drift invariant
///   (`charged == served + failed`) is untouched.
/// * **Input purification** (`purify`): an input transform applied to
///   admitted queries on the inference path, *before* the batched embed.
///   Its latency is charged against the request's end-to-end deadline —
///   a request whose deadline expires during purification is shed and
///   refunded exactly like a queue-expired one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefenseConfig {
    /// Per-account streaming-detector configuration.
    pub stream: StreamConfig,
    /// Purification transform for admitted queries.
    pub purify: Purify,
}

impl Default for DefenseConfig {
    fn default() -> Self {
        DefenseConfig { stream: StreamConfig::default(), purify: Purify::None }
    }
}

/// The purification transform applied to admitted queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Purify {
    /// No purification; detection only.
    None,
    /// Bit-depth squeeze + median smoothing ([`FeatureSqueezing`]).
    Squeeze(FeatureSqueezing),
    /// J-invariant masked denoising ([`Noise2Self`]).
    Noise2Self(Noise2Self),
}

impl Purify {
    /// Applies the transform (identity for [`Purify::None`]).
    pub fn apply(&self, video: &Video) -> Video {
        match self {
            Purify::None => video.clone(),
            Purify::Squeeze(squeeze) => squeeze.transform(video),
            Purify::Noise2Self(denoise) => denoise.transform(video),
        }
    }

    /// Whether the transform is a no-op.
    pub fn is_none(&self) -> bool {
        matches!(self, Purify::None)
    }
}

/// Token-bucket rate limit for one client.
///
/// `burst` queries are available immediately; afterwards tokens refill at
/// `refill_per_sec`. A refill rate of `0.0` makes the limit a one-time
/// allowance of `burst` queries — useful for deterministic tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Bucket capacity (maximum burst size).
    pub burst: u32,
    /// Sustained refill rate in tokens per second.
    pub refill_per_sec: f32,
}

impl RateLimit {
    /// A limit allowing `burst` queries immediately and `refill_per_sec`
    /// sustained.
    pub fn new(burst: u32, refill_per_sec: f32) -> Self {
        RateLimit { burst, refill_per_sec }
    }
}
