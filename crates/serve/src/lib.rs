//! duo-serve: a concurrent, micro-batched retrieval serving layer with
//! per-client query budgets.
//!
//! The paper's threat model bounds the adversary by *queries against the
//! deployed service*, not by calls into an in-process model. This crate
//! supplies that deployment surface: one immutable
//! [`duo_retrieval::RetrievalSystem`] served by a fixed pool of worker
//! threads, with pending embed requests coalesced into batches embedded
//! on parallel chunks and every client metered by a hard query budget
//! ([`duo_retrieval::QueryLedger`]) plus an optional token-bucket rate
//! limit.
//!
//! ```text
//! ClientHandle ─► admission (budget + rate) ─► ingress queue ─► batcher
//!                                                                  │
//!                              chunked embed (shared &RetrievalSystem)
//!                                                                  │
//!                              worker pool ─► retrieve_by_feature ─► reply
//! ```
//!
//! Guarantees:
//!
//! * **Bit-identical results.** Batching and worker parallelism never
//!   change a retrieval list: every clip in a batch runs the lone
//!   forward, and ranking happens per request.
//! * **Rejected ≠ charged.** A query rejected by admission (budget,
//!   rate, overload) costs the client nothing and never reaches the
//!   model; `served + failed` in [`ServiceStats`] is exactly the number
//!   of charged queries.
//! * **Attack-compatible.** [`ServiceOracle`] implements
//!   [`duo_retrieval::QueryOracle`], so every attack in the workspace
//!   runs unchanged against the service.
//! * **Optionally defended.** [`ServeConfig::defense`] arms a blue-team
//!   stage: a per-account [`duo_defenses::StreamDetector`] at admission
//!   (flag → throttle → reject escalation, rejections never charged) and
//!   an optional input-purification transform before the batched embed,
//!   whose latency is charged against the request's end-to-end deadline.
//!
//! # Example
//!
//! ```
//! use duo_models::{Architecture, Backbone, BackboneConfig};
//! use duo_retrieval::{RetrievalConfig, RetrievalSystem};
//! use duo_serve::{RetrievalService, ServeConfig};
//! use duo_tensor::Rng64;
//! use duo_video::{ClipSpec, DatasetKind, SyntheticDataset};
//!
//! let mut rng = Rng64::new(7);
//! let ds = SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), 7, 1, 0);
//! let backbone = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng)?;
//! let system = RetrievalSystem::build(backbone, &ds, ds.train(), RetrievalConfig::default())?;
//!
//! let service = RetrievalService::start(system, ServeConfig::default())?;
//! let client = service.client(Some(100), None);
//! let list = client.retrieve(&ds.video(ds.train()[0]))?;
//! assert!(!list.is_empty());
//! let stats = service.shutdown();
//! assert_eq!(stats.served, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bucket;
mod config;
mod error;
mod histogram;
mod oracle;
mod service;
mod stats;

pub use bucket::TokenBucket;
pub use config::{DefenseConfig, Purify, RateLimit, ServeConfig};
pub use error::ServeError;
pub use histogram::LatencyHistogram;
pub use oracle::ServiceOracle;
pub use service::{ClientHandle, MutatorHandle, RetrievalService};
pub use stats::{ClientStats, ServiceStats};

pub(crate) use stats::StatsInner;
