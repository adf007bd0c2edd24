//! Index-layer experiment: the exact-vs-IVF-vs-compressed latency/recall
//! trade-off on a clustered feature gallery, plus an end-to-end pass
//! through [`duo_retrieval::RetrievalSystem`] in IVF and PQ modes
//! exercising the recall audit counters that `duo-serve` surfaces in its
//! `ServiceStats` (via `IndexBreakdown`).
//!
//! Unlike `benches/index.rs` (which times the shard kernel in isolation
//! with the in-tree bench runner), this run measures wall-clock medians
//! over a probe batch at experiment scale and emits one JSON row per
//! `(gallery, nlist, nprobe)` point, paper-style. The compressed sweep
//! adds PQ points at several probe depths with their hot-path
//! bytes-per-vector, and asserts the equivalence contract at experiment
//! scale: full probe + full-depth exact rerank must reproduce the exact
//! scan answer for answer (distance bits included).

use super::RunResult;
use crate::Scale;
use duo_models::{Architecture, Backbone, BackboneConfig};
use duo_retrieval::{recall_at_m, IndexMode, RetrievalConfig, RetrievalSystem, ShardIndex};
use duo_tensor::{Rng64, Tensor, ToJson};
use duo_video::{ClipSpec, DatasetKind, SyntheticDataset, VideoId};
use std::time::Instant;

/// A clustered gallery in embedding space: points = center + noise.
fn clustered(n: usize, dim: usize, seed: u64) -> Vec<(VideoId, Tensor)> {
    let mut rng = Rng64::new(seed);
    let clusters = (n / 50).max(4);
    let centers: Vec<Vec<f32>> =
        (0..clusters).map(|_| (0..dim).map(|_| 4.0 * rng.normal()).collect()).collect();
    (0..n)
        .map(|i| {
            let c = &centers[i % clusters];
            let data: Vec<f32> = c.iter().map(|&x| x + 0.1 * rng.normal()).collect();
            let id = VideoId { class: (i % clusters) as u32, instance: (i / clusters) as u32 };
            (id, Tensor::from_vec(data, &[dim]).unwrap())
        })
        .collect()
}

/// Median wall-clock microseconds per query over `reps` passes.
fn median_us(mut f: impl FnMut(), reps: usize, queries: usize) -> u64 {
    let mut samples: Vec<u64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            (t.elapsed().as_micros() as u64) / queries.max(1) as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Runs the index sweep at the given scale.
pub fn run(scale: Scale) -> RunResult {
    println!("\n=== Index layer: exact vs IVF latency/recall (scale: {}) ===", scale.name);
    let smoke = scale.name == "smoke";
    let (n, dim, reps) = if smoke { (2_000, 32, 5) } else { (20_000, 64, 9) };
    let m = 10usize;
    let entries = clustered(n, dim, 0x1D_5EED);
    let mut rng = Rng64::new(0x1D_5EED ^ 0x0FF5E7);
    let queries: Vec<Vec<f32>> = (0..24)
        .map(|_| {
            let (_, feat) = &entries[rng.below(entries.len())];
            feat.as_slice().iter().map(|&x| x + 0.05 * rng.normal()).collect()
        })
        .collect();

    let exact = ShardIndex::build(&entries, IndexMode::Exact, 0)?;
    let exact_ids: Vec<Vec<VideoId>> = queries
        .iter()
        .map(|q| exact.search(q, m).into_iter().map(|s| s.id).collect())
        .collect();
    let exact_us = median_us(
        || {
            for q in &queries {
                std::hint::black_box(exact.search(q, m));
            }
        },
        reps,
        queries.len(),
    );
    println!("{:<34}{:>12}{:>12}", "point", "us/query", "recall@10");
    println!("{:<34}{:>12}{:>12}", format!("exact n={n}"), exact_us, "1.0000");

    let nlist = (n / 100).clamp(4, 128);
    let mut probes: Vec<usize> =
        [1, nlist / 16, nlist / 8, nlist / 4, nlist].into_iter().filter(|&p| p >= 1).collect();
    probes.dedup();
    for nprobe in probes {
        let ivf = ShardIndex::build(&entries, IndexMode::ivf(nlist, nprobe), 7)?;
        let recall: f32 = queries
            .iter()
            .zip(&exact_ids)
            .map(|(q, want)| {
                let got: Vec<VideoId> = ivf.search(q, m).into_iter().map(|s| s.id).collect();
                recall_at_m(&got, want)
            })
            .sum::<f32>()
            / queries.len() as f32;
        let us = median_us(
            || {
                for q in &queries {
                    std::hint::black_box(ivf.search(q, m));
                }
            },
            reps,
            queries.len(),
        );
        println!("{:<34}{:>12}{:>12.4}", format!("ivf n={n} {nlist}/{nprobe}"), us, recall);
        println!(
            "row JSON: {{\"gallery\":{n},\"dim\":{dim},\"nlist\":{nlist},\"nprobe\":{nprobe},\
             \"exact_us\":{exact_us},\"ivf_us\":{us},\"recall_at_{m}\":{recall:.4}}}"
        );
        if nprobe == nlist {
            // The equivalence contract, asserted at experiment scale: a
            // full probe is an exhaustive scan.
            assert!(
                (recall - 1.0).abs() < f32::EPSILON,
                "nprobe == nlist must equal exact (got recall {recall})"
            );
        }
    }

    // Compressed residual codes: PQ (dim/8 subspaces, 8-bit codebooks)
    // with an exact rerank tail of 64 at the partial probe depths.
    let m_sub = (dim / 8).max(1);
    for nprobe in [(nlist / 16).max(1), (nlist / 8).max(1), nlist] {
        let full = nprobe == nlist;
        let rerank = if full { n } else { 64 };
        let mode = IndexMode::pq(nlist, nprobe, m_sub, 8, rerank);
        let idx = ShardIndex::build(&entries, mode, 7)?;
        let recall: f32 = queries
            .iter()
            .zip(&exact_ids)
            .map(|(q, want)| {
                let got: Vec<VideoId> = idx.search(q, m).into_iter().map(|s| s.id).collect();
                recall_at_m(&got, want)
            })
            .sum::<f32>()
            / queries.len() as f32;
        let us = median_us(
            || {
                for q in &queries {
                    std::hint::black_box(idx.search(q, m));
                }
            },
            reps,
            queries.len(),
        );
        let bytes = idx.scan_bytes_per_row();
        println!(
            "{:<34}{:>12}{:>12.4}   {bytes:.1} B/vec",
            format!("pq n={n} {nlist}/{nprobe}"),
            us,
            recall
        );
        println!(
            "row JSON: {{\"gallery\":{n},\"dim\":{dim},\"mode\":\"pq\",\"nlist\":{nlist},\
             \"nprobe\":{nprobe},\"exact_us\":{exact_us},\"pq_us\":{us},\
             \"recall_at_{m}\":{recall:.4},\"scan_bytes_per_vec\":{bytes:.2}}}"
        );
        if full {
            // The equivalence contract at experiment scale: full
            // probe + full-depth exact rerank is an exhaustive exact
            // scan, answer for answer.
            for (q, want) in queries.iter().zip(&exact_ids) {
                let got = idx.search(q, m);
                assert_eq!(got.len(), want.len(), "pq full probe + full rerank must match exact");
                assert_eq!(
                    got.iter().map(|s| s.id).collect::<Vec<_>>(),
                    *want,
                    "pq full probe + full rerank must match exact ids"
                );
            }
            assert_eq!(
                queries
                    .iter()
                    .map(|q| idx.search(q, m).iter().map(|s| s.distance.to_bits()).collect())
                    .collect::<Vec<Vec<u32>>>(),
                queries
                    .iter()
                    .map(|q| exact.search(q, m).iter().map(|s| s.distance.to_bits()).collect())
                    .collect::<Vec<Vec<u32>>>(),
                "pq full-rerank distances must be bit-identical to exact"
            );
        }
    }

    // End to end: a real retrieval system in IVF mode over embedded
    // videos, exercising the per-shard recall audits the serving layer
    // reports. Tiny world — the point is the counters, not the mAP.
    let mut wrng = Rng64::new(0x1D_5EED ^ 7);
    let ds = SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, ClipSpec::tiny(), 9, 2, 1);
    let gallery: Vec<VideoId> = ds.train().iter().filter(|id| id.class < 10).copied().collect();
    let backbone = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut wrng)?;
    let config = RetrievalConfig {
        m: 5,
        nodes: 3,
        index: IndexMode::ivf(4, 2),
        ..RetrievalConfig::default()
    };
    let system = RetrievalSystem::build(backbone, &ds, &gallery, config)?;
    for &id in ds.test().iter().filter(|id| id.class < 10) {
        system.retrieve(&ds.video(id))?;
    }
    let stats = system.index_stats();
    println!(
        "system IVF pass: {} shard searches, {} rows through the kernel, \
         {:.2} mean probes, recall@m {} over {} audits",
        stats.queries,
        stats.scanned_rows,
        stats.mean_probes(),
        stats.recall_at_m().map_or("n/a".to_string(), |r| format!("{r:.4}")),
        stats.audit_queries
    );
    println!("index stats JSON: {}", stats.to_json());
    assert!(stats.audit_queries > 0, "audits must fire on IVF traffic");

    // Same world in PQ mode: the audits must fire in the breakdown the
    // serving layer reports, and the compressed footprint counters must
    // be live.
    let mut prng = Rng64::new(0x1D_5EED ^ 7);
    let backbone = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut prng)?;
    let pq_config = RetrievalConfig {
        m: 5,
        nodes: 3,
        index: IndexMode::pq(4, 2, 4, 8, 16),
        ..RetrievalConfig::default()
    };
    let pq_system = RetrievalSystem::build(backbone, &ds, &gallery, pq_config)?;
    for &id in ds.test().iter().filter(|id| id.class < 10) {
        pq_system.retrieve(&ds.video(id))?;
    }
    let breakdown = pq_system.index_breakdown();
    println!(
        "system PQ pass: {} shard searches, recall@m {} over {} audits, \
         {} feature bytes vs {} code bytes, {} reranked rows",
        breakdown.total.queries,
        breakdown.total.recall_at_m().map_or("n/a".to_string(), |r| format!("{r:.4}")),
        breakdown.total.audit_queries,
        breakdown.feature_bytes,
        breakdown.code_bytes,
        breakdown.total.reranked_rows,
    );
    println!("index breakdown JSON: {}", breakdown.to_json());
    assert!(breakdown.total.audit_queries > 0, "audits must fire on PQ traffic");
    assert!(breakdown.code_bytes > 0, "compressed shards must report code bytes");
    Ok(())
}
