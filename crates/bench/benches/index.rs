//! Shard-index benchmarks: the exact SoA + bounded top-m path against the
//! seed per-entry scan, the IVF latency/recall trade-off, and the
//! compressed-residual (PQ) entries behind `BENCH_index.json`.
//!
//! Four measurement families per gallery size:
//!
//! * `index/seed_scan_*` — the pre-index `DataNode::scan` implementation,
//!   verbatim: one `Tensor::sq_distance` (with its per-entry shape check)
//!   per entry into a `Vec`, full `O(G log G)` sort, truncate.
//! * `index/exact_soa_*` — `ShardIndex` in exact mode: flattened
//!   row-major features, check-free blocked kernel, `O(G log m)` bounded
//!   max-heap. Bit-identical results to the seed scan.
//! * `index/ivf_*` — `ShardIndex` in IVF mode at several `nprobe`
//!   settings. Approximate: each run prints its measured recall@10
//!   against the exact answer.
//! * `index/pq_*` — IVF-PQ at the headline code shape (`m_sub = dim/8`
//!   subspaces, 8-bit codes, rerank 64): LUT-driven ADC scan over the
//!   probed lists, exact f32 rescore of the top candidates.
//! * `index/fanout_{inline,threaded}_8x3000` — full scale only: one
//!   caller's `RetrievalSystem::retrieve_resilient` over 8 shards of
//!   3,000 clustered 128-d rows in `gallery_churn`'s IVF-PQ mode, with
//!   the node fan-out inline and on lanes (at most one per core). On a
//!   single core both would time the same code, so smoke scale has no
//!   pair.
//!
//! Besides wall-clock entries, the artifact carries **pseudo-metric**
//! rows in the same schema (single-sample `trimmed_mean_s`), so the
//! committed `BENCH_thresholds.txt` rules can gate the compression
//! contract, not just latency:
//!
//! * `index/{exact,pq}_bytes_per_vec_<n>` — hot-path bytes touched
//!   per scanned row ([`ShardIndex::scan_bytes_per_row`]: packed codes
//!   plus codec tables and coarse centroids amortized over the gallery;
//!   `dim * 4` for the uncompressed f32 matrix).
//! * `index/pq_recall_loss_<n>` — `1 − recall@10` from the index's
//!   own every-16th-query **audit** counters accumulated across the
//!   timed runs (the same machinery live services report through
//!   `ServiceStats`), so the gate exercises the production audit path.
//! * `index/unit_<n>` — the constant 1.0, the denominator the recall
//!   rules compare against (rules are ratio-only, and the scale suffix
//!   keeps smoke and full-scale artifacts from matching one-sided).
//!
//! The bench asserts audits actually fired for the PQ configuration
//! before recording the loss row, so a broken audit path fails here
//! rather than silently gating on a vacuous 0.
//!
//! The gallery is clustered (points = cluster center + small noise, the
//! regime IVF is built for, and roughly what a trained metric embedding
//! produces) and queries are perturbed gallery points. `DUO_SCALE=smoke`
//! shrinks sizes/dim for the tier-1 gate in `scripts/verify.sh` and
//! writes `BENCH_index.json` under `target/bench-smoke/`; the full scale
//! writes it at the repo root. `bench_check` reads either.

use duo_bench::{BenchResult, Runner};
use duo_models::{Architecture, Backbone, BackboneConfig};
use duo_retrieval::{
    recall_at_m, GalleryIndex, IndexMode, RetrievalConfig, RetrievalSystem, ScoredId, ShardIndex,
};
use duo_tensor::{Rng64, Tensor};
use duo_video::VideoId;
use std::hint::black_box;
use std::time::Instant;

const TOP_M: usize = 10;
/// Coprime with the index's 16-search audit period, so the every-16th
/// recall audits cycle through all queries instead of resampling one.
const QUERIES: usize = 17;

fn smoke() -> bool {
    std::env::var("DUO_SCALE").as_deref() == Ok("smoke")
}

fn sizes() -> Vec<usize> {
    if smoke() {
        vec![2_000]
    } else {
        vec![1_000, 10_000]
    }
}

fn dim() -> usize {
    if smoke() {
        32
    } else {
        64
    }
}

/// A clustered gallery: `n` points spread evenly over `n/50` centers,
/// each point a center plus small isotropic noise.
fn clustered_gallery(n: usize, dim: usize, seed: u64) -> Vec<(VideoId, Tensor)> {
    let mut rng = Rng64::new(seed);
    let clusters = (n / 50).max(4);
    let centers: Vec<Vec<f32>> = (0..clusters)
        .map(|_| (0..dim).map(|_| 4.0 * rng.normal()).collect())
        .collect();
    (0..n)
        .map(|i| {
            let c = &centers[i % clusters];
            let data: Vec<f32> = c.iter().map(|&x| x + 0.1 * rng.normal()).collect();
            let id = VideoId { class: (i % clusters) as u32, instance: (i / clusters) as u32 };
            (id, Tensor::from_vec(data, &[dim]).unwrap())
        })
        .collect()
}

/// Queries near gallery points: what a retrieval service actually sees.
fn queries(entries: &[(VideoId, Tensor)], seed: u64) -> Vec<Tensor> {
    let mut rng = Rng64::new(seed ^ 0x51EE7);
    (0..QUERIES)
        .map(|_| {
            let (_, feat) = &entries[rng.below(entries.len())];
            let data: Vec<f32> =
                feat.as_slice().iter().map(|&x| x + 0.05 * rng.normal()).collect();
            Tensor::from_vec(data, &[feat.len()]).unwrap()
        })
        .collect()
}

/// The seed implementation of the shard scan, for the baseline bars.
fn seed_scan(entries: &[(VideoId, Tensor)], q: &Tensor, m: usize) -> Vec<ScoredId> {
    let mut scored: Vec<ScoredId> = entries
        .iter()
        .map(|(id, feat)| ScoredId { id: *id, distance: feat.sq_distance(q).unwrap() })
        .collect();
    scored.sort_by(|a, b| {
        a.distance
            .total_cmp(&b.distance)
            .then_with(|| (a.id.class, a.id.instance).cmp(&(b.id.class, b.id.instance)))
    });
    scored.truncate(m);
    scored
}

/// Mean recall@`TOP_M` of `idx` against the exact answers.
fn measured_recall(idx: &ShardIndex, qs: &[Tensor], exact_ids: &[Vec<VideoId>]) -> f32 {
    qs.iter()
        .zip(exact_ids)
        .map(|(q, exact)| {
            let got: Vec<VideoId> =
                idx.search(q.as_slice(), TOP_M).into_iter().map(|s| s.id).collect();
            recall_at_m(&got, exact)
        })
        .sum::<f32>()
        / qs.len() as f32
}

/// Times one caller's queries against two systems over the same 8 ×
/// 3,000-row PQ gallery, fanning out inline and on lanes, after
/// asserting both return the same [`duo_retrieval::Retrieved`].
fn fan_out(runner: &mut Runner) {
    const NODES: usize = 8;
    const ROWS: usize = 3_000;
    let entries = clustered_gallery(NODES * ROWS, 128, 0xFA40);
    let qs = queries(&entries, 0xFA40);
    let gallery = GalleryIndex::new(entries);
    let backbone =
        Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut Rng64::new(0xFA40)).unwrap();
    let system = |threaded| {
        let index = IndexMode::pq(8, 8, 64, 4, 256);
        let config = RetrievalConfig { m: TOP_M, nodes: NODES, threaded, index };
        RetrievalSystem::from_index(backbone.clone(), &gallery, config).unwrap()
    };
    let systems = [system(false), system(true)];
    for q in &qs {
        assert_eq!(
            systems[0].retrieve_resilient(q).unwrap(),
            systems[1].retrieve_resilient(q).unwrap(),
            "threaded fan-out drifted from inline"
        );
    }
    let names = [
        format!("index/fanout_inline_{NODES}x{ROWS}"),
        format!("index/fanout_threaded_{NODES}x{ROWS}"),
    ];
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    runner.bench_interleaved(&names, |entry| {
        let start = Instant::now();
        for q in &qs {
            black_box(systems[entry].retrieve_resilient(q).unwrap());
        }
        start.elapsed().as_secs_f64()
    });
}

fn main() {
    let mut runner = Runner::default().sample_size(20);
    runner.apply_cli_args();
    let d = dim();
    // Pseudo-metric rows appended to the artifact after the timed runs.
    let mut extra: Vec<BenchResult> = Vec::new();

    for n in sizes() {
        let entries = clustered_gallery(n, d, 0x1D5EED ^ n as u64);
        let qs = queries(&entries, n as u64);
        let exact = ShardIndex::build(&entries, IndexMode::Exact, 0).unwrap();

        extra.push(BenchResult::from_times(
            &format!("index/exact_bytes_per_vec_{n}"),
            vec![exact.scan_bytes_per_row()],
        ));
        extra.push(BenchResult::from_times(&format!("index/unit_{n}"), vec![1.0]));

        let exact_ids: Vec<Vec<VideoId>> = qs
            .iter()
            .map(|q| exact.search(q.as_slice(), TOP_M).into_iter().map(|s| s.id).collect())
            .collect();

        // Every timed index after the seed scan, in artifact order.
        let mut timed = vec![(format!("index/exact_soa_{n}"), exact)];
        let nlist = (n / 100).clamp(4, 64);
        for nprobe in [nlist / 8, nlist / 4].into_iter().filter(|&p| p >= 1) {
            let ivf =
                ShardIndex::build(&entries, IndexMode::ivf(nlist, nprobe), 7).unwrap();
            let recall = measured_recall(&ivf, &qs, &exact_ids);
            let name = format!("index/ivf_{n}_nlist{nlist}_nprobe{nprobe}");
            println!("  {name}: recall@{TOP_M} {recall:.4} over {QUERIES} queries");
            timed.push((name, ivf));
        }

        // PQ at the headline code shape: dim/8 subspaces of 8-bit codes,
        // with an exact rerank tail over the top 64 ADC candidates.
        let nprobe = (nlist / 8).max(1);
        let m_sub = (d / 8).max(1);
        let mode = IndexMode::pq(nlist, nprobe, m_sub, 8, 64);
        let pq = ShardIndex::build(&entries, mode, 7).unwrap();
        let recall = measured_recall(&pq, &qs, &exact_ids);
        timed.push((format!("index/pq_{n}_nlist{nlist}_nprobe{nprobe}"), pq));

        // The threshold rules compare these entries with each other, so
        // they are sampled interleaved: host drift lands on all alike.
        let seed_name = format!("index/seed_scan_{n}");
        let names: Vec<&str> = std::iter::once(seed_name.as_str())
            .chain(timed.iter().map(|(name, _)| name.as_str()))
            .collect();
        runner.bench_interleaved(&names, |entry| {
            let start = Instant::now();
            if entry == 0 {
                for q in &qs {
                    black_box(seed_scan(&entries, q, TOP_M));
                }
            } else {
                let idx = &timed[entry - 1].1;
                for q in &qs {
                    black_box(idx.search(q.as_slice(), TOP_M));
                }
            }
            start.elapsed().as_secs_f64()
        });

        let (name, pq) = timed.last().expect("the PQ entry is timed last");
        let stats = pq.stats();
        let audited = stats.recall_at_m().unwrap_or_else(|| {
            panic!("index/pq_{n}: no recall audits fired across the timed runs")
        });
        let bytes = pq.scan_bytes_per_row();
        println!(
            "  {name}: recall@{TOP_M} {recall:.4} (audited {audited:.4} over {} audits), \
             {bytes:.1} scan B/vec vs {} f32 B/vec, {} reranked rows",
            stats.audit_queries,
            d * 4,
            stats.reranked_rows,
        );
        extra.push(BenchResult::from_times(&format!("index/pq_bytes_per_vec_{n}"), vec![bytes]));
        extra.push(BenchResult::from_times(
            &format!("index/pq_recall_loss_{n}"),
            vec![f64::from(1.0 - audited)],
        ));
    }

    if !smoke() {
        fan_out(&mut runner);
    }

    let mut results = runner.results().to_vec();
    results.extend(extra);
    let path = runner.artifact_path("index");
    duo_bench::write_bench_json(&path, &results).expect("write BENCH_index.json");
    println!("wrote {}", path.display());
    runner.finish();
}
