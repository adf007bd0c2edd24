//! Epoch-snapshot overhead benchmarks: what a zero-mutation query
//! workload pays for the mutable-gallery machinery.
//!
//! Two entries over the same ~2k x 64 gallery:
//!
//! * `mutate/frozen_query` — the immutable-gallery baseline: per-shard
//!   [`duo_retrieval::ShardIndex`] snapshots captured **once** before
//!   the loop, each query scanning the pinned generations directly and
//!   merging the shard answers exactly like the system fan-out does.
//! * `mutate/epoch_query` — the full
//!   [`duo_retrieval::RetrievalSystem::retrieve_resilient`] path: every
//!   query takes the epoch read gate, clones the per-shard `Arc`s for a
//!   consistent cut, and runs the resilient fan-out (no fault plans
//!   armed, so no retries — the delta over `frozen_query` is the epoch
//!   layer plus fan-out bookkeeping).
//!
//! `BENCH_thresholds.txt` bounds `epoch_query <= 1.05 * frozen_query`:
//! the gate is two uncontended atomics and one `Arc` clone per shard,
//! and if it ever grows into real work (a lock held across the scan, a
//! per-query gallery copy) this trips long before users notice.

use duo_bench::{bench_group, Runner};
use duo_models::{Architecture, Backbone, BackboneConfig};
use duo_retrieval::{GalleryIndex, RetrievalConfig, RetrievalSystem, ScoredId};
use duo_tensor::{Rng64, Tensor};
use duo_video::VideoId;
use std::hint::black_box;
use std::time::Instant;

const ROWS: usize = 2048;
const DIM: usize = 64;
const QUERIES: usize = 64;
const NODES: usize = 3;
const M: usize = 10;

/// A synthetic indexed gallery served feature-side only — queries enter
/// through `retrieve_resilient(&feature)`, so the backbone never runs
/// and the measurement isolates the retrieval path.
fn build_system() -> (RetrievalSystem, Vec<Tensor>) {
    let mut rng = Rng64::new(0x0E70_CBE7);
    let feature = |salt: u64| {
        let mut rng = Rng64::new(0x0E70_CBE7 ^ salt);
        Tensor::from_vec((0..DIM).map(|_| rng.uniform()).collect(), &[DIM]).unwrap()
    };
    let entries: Vec<(VideoId, Tensor)> = (0..ROWS)
        .map(|i| {
            let id = VideoId { class: (i / 64) as u32, instance: (i % 64) as u32 };
            (id, feature(i as u64))
        })
        .collect();
    let backbone =
        Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
    let system = RetrievalSystem::from_index(
        backbone,
        &GalleryIndex::new(entries),
        RetrievalConfig { m: M, nodes: NODES, threaded: false, ..Default::default() },
    )
    .unwrap();
    let queries = (0..QUERIES).map(|i| feature(0x9_0000 + i as u64)).collect();
    (system, queries)
}

/// The immutable baseline's merge, mirroring the system fan-out:
/// distance-then-id order, truncated to `m`.
fn merge(mut merged: Vec<ScoredId>, m: usize) -> Vec<VideoId> {
    merged.sort_by(|a, b| {
        a.distance
            .total_cmp(&b.distance)
            .then_with(|| (a.id.class, a.id.instance).cmp(&(b.id.class, b.id.instance)))
    });
    merged.truncate(m);
    merged.into_iter().map(|s| s.id).collect()
}

fn bench_mutate(c: &mut Runner) {
    let (system, queries) = build_system();

    // Baseline: pin every shard generation once, query the snapshots.
    // Full epoch path: gate + per-query Arc clones + resilient fan-out.
    // The two are sampled interleaved, so host drift cannot land on one
    // side of the `epoch_query <= 1.05 * frozen_query` rule.
    let snaps: Vec<_> = system.nodes().iter().map(|n| n.snapshot()).collect();
    c.bench_interleaved(&["mutate/frozen_query", "mutate/epoch_query"], |entry| {
        let start = Instant::now();
        if entry == 0 {
            for q in &queries {
                let mut merged = Vec::new();
                for snap in &snaps {
                    merged.extend(snap.search(q.as_slice(), M));
                }
                black_box(merge(merged, M));
            }
        } else {
            for q in &queries {
                black_box(system.retrieve_resilient(q).unwrap().ids);
            }
        }
        start.elapsed().as_secs_f64()
    });

    // Sanity: the two paths rank identically on this fault-free system.
    let q = &queries[0];
    let direct = merge(
        snaps.iter().flat_map(|s| s.search(q.as_slice(), M)).collect(),
        M,
    );
    assert_eq!(system.retrieve_resilient(q).unwrap().ids, direct);
}

// Smoke scale (the verify-gate setting) takes the full 30 samples too:
// at 10 the `epoch_query <= 1.05 * frozen_query` ratio spread past the
// wall on unchanged code.
bench_group! {
    name = benches;
    config = Runner::default().sample_size(30);
    targets = bench_mutate
}

fn main() {
    let runner = benches();
    let path = runner.artifact_path("mutate");
    duo_bench::write_bench_json(&path, runner.results()).expect("write BENCH_mutate.json");
    println!("wrote {}", path.display());
    runner.finish();
}
