//! Property-based coverage of the shard index layer: the exact-mode
//! bit-identity contract against the seed per-entry scan, the
//! `nprobe == nlist` ⇒ exhaustive equivalence of IVF, monotonicity of
//! recall@m in `nprobe` (DESIGN.md §6d's equivalence contract), and the
//! PQ contracts from §6h — full probe + full-depth exact rerank ≡ exact
//! at the bit level, recall monotone in `nprobe` under full-depth
//! rerank, and `DUOINDX3` save → load → save byte-identity.
//!
//! The PQ monotonicity property deliberately pins `rerank` to the full
//! candidate depth: under pure ADC ranking a wider probe can *demote* a
//! true neighbour (its quantized distance may beat a closer row's), so
//! recall is only provably monotone when the rerank tail rescores every
//! candidate exactly — which is exactly the superset argument the IVF
//! property uses.
//!
//! A hostile-input property rounds it off: a small valid `DUOINDX3`
//! image, truncated at every section boundary and ±1 byte, bit-flipped
//! in its header and directory, or given oversized counts, must load as
//! `Err` (or, for a flip that leaves every check satisfied, as a system)
//! and never panic.
//!
//! This suite persists failing case seeds to
//! `tests/index_properties.regressions` (see [`duo_check`]); past
//! failures replay before fresh generation.

use duo::prelude::*;
use duo_check::{check, prop_assert, prop_assert_eq, Config};
use duo_retrieval::ScoredId;
use std::sync::OnceLock;

fn config() -> Config {
    Config::default()
        .with_cases(48)
        .with_regressions(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/index_properties.regressions"))
}

/// A random gallery of `n` unique ids with `dim`-dimensional features,
/// a pure function of `seed`.
fn gallery(seed: u64, n: usize, dim: usize) -> Vec<(VideoId, Tensor)> {
    let mut rng = Rng64::new(seed);
    (0..n)
        .map(|i| {
            let data: Vec<f32> = (0..dim).map(|_| rng.normal()).collect();
            let id = VideoId { class: (i / 4) as u32, instance: (i % 4) as u32 };
            (id, Tensor::from_vec(data, &[dim]).unwrap())
        })
        .collect()
}

fn query(seed: u64, dim: usize) -> Tensor {
    let mut rng = Rng64::new(seed ^ 0xA5A5_A5A5);
    let data: Vec<f32> = (0..dim).map(|_| rng.normal()).collect();
    Tensor::from_vec(data, &[dim]).unwrap()
}

/// The seed implementation of `DataNode::scan`, verbatim: per-entry
/// `Tensor::sq_distance`, full sort with the id tie-break, truncate.
fn reference_scan(entries: &[(VideoId, Tensor)], q: &Tensor, m: usize) -> Vec<ScoredId> {
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

check! {
    #![config(config())]

    /// Exact mode must reproduce the seed scan bit for bit: same ids in
    /// the same order, and distances equal at the representation level
    /// (`to_bits`), not merely approximately.
    fn exact_mode_is_bit_identical_to_seed_scan(
        seed in 0u64..1_000_000,
        n in 1usize..120,
        dim in 1usize..12,
        m in 1usize..20,
    ) {
        let entries = gallery(seed, n, dim);
        let q = query(seed, dim);
        let node = DataNode::new("p", entries.clone());
        let got = node.query(&q, m).unwrap();
        let want = reference_scan(&entries, &q, m);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.id, w.id);
            prop_assert_eq!(g.distance.to_bits(), w.distance.to_bits());
        }
    }

    /// Probing every list makes IVF exhaustive: the candidate set is the
    /// whole shard, so results must equal exact mode exactly (same total
    /// order, same distances).
    fn full_probe_ivf_equals_exact(
        seed in 0u64..1_000_000,
        n in 1usize..100,
        dim in 1usize..10,
        nlist in 1usize..12,
    ) {
        let m = 1 + (seed % 16) as usize;
        let entries = gallery(seed, n, dim);
        let q = query(seed, dim);
        let exact = DataNode::new("e", entries.clone());
        let ivf = DataNode::with_index_mode(
            "i", entries, IndexMode::ivf(nlist, nlist), shard_seed(seed as usize),
        ).unwrap();
        prop_assert_eq!(ivf.query(&q, m).unwrap(), exact.query(&q, m).unwrap());
    }

    /// Widening the probe never hurts: the candidate set at `nprobe+1`
    /// is a superset of the set at `nprobe`, so recall@m against the
    /// exact answer is monotone non-decreasing, ending at 1 when every
    /// list is probed.
    fn recall_is_monotone_in_nprobe(
        seed in 0u64..1_000_000,
        n in 8usize..100,
        dim in 1usize..8,
        nlist in 2usize..10,
    ) {
        let m = 1 + (seed % 12) as usize;
        let entries = gallery(seed, n, dim);
        let q = query(seed, dim);
        let exact_ids: Vec<VideoId> = reference_scan(&entries, &q, m)
            .into_iter().map(|s| s.id).collect();
        let mut last = 0.0f32;
        for nprobe in 1..=nlist {
            let node = DataNode::with_index_mode(
                "i", entries.clone(), IndexMode::ivf(nlist, nprobe), shard_seed(3),
            ).unwrap();
            let approx_ids: Vec<VideoId> =
                node.query(&q, m).unwrap().into_iter().map(|s| s.id).collect();
            let r = recall_at_m(&approx_ids, &exact_ids);
            prop_assert!(
                r >= last,
                "recall dropped from {} to {} at nprobe {}", last, r, nprobe
            );
            last = r;
        }
        prop_assert_eq!(last, 1.0);
    }

    /// Probing every list with a full-depth rerank tail makes PQ
    /// exhaustive *and* exact: every row is a candidate, the tail
    /// rescores them all from the f32 matrix, so results must equal
    /// exact mode bit for bit regardless of codebook shape.
    fn pq_full_probe_full_rerank_equals_exact(
        seed in 0u64..1_000_000,
        n in 1usize..80,
        dsub in 1usize..5,
        m_sub in 1usize..5,
        nlist in 1usize..10,
    ) {
        let dim = dsub * m_sub;
        let m = 1 + (seed % 16) as usize;
        let nbits = 1 + (seed % 8) as u32;
        let entries = gallery(seed, n, dim);
        let q = query(seed, dim);
        let exact = DataNode::new("e", entries.clone());
        let pq = DataNode::with_index_mode(
            "p", entries, IndexMode::pq(nlist, nlist, m_sub, nbits, n),
            shard_seed(seed as usize),
        ).unwrap();
        let got = pq.query(&q, m).unwrap();
        let want = exact.query(&q, m).unwrap();
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.id, w.id);
            prop_assert_eq!(g.distance.to_bits(), w.distance.to_bits());
        }
    }

    /// Widening the probe never hurts PQ *when the rerank tail rescores
    /// every candidate exactly*: the candidate set at `nprobe+1` is a
    /// superset, and exact rescoring returns its true top-m, so recall
    /// against the exact answer is monotone and ends at 1. (Without the
    /// full-depth tail this is false — ADC ordering can demote a true
    /// neighbour behind a quantization artifact.)
    fn pq_full_rerank_recall_monotone_in_nprobe(
        seed in 0u64..1_000_000,
        n in 8usize..80,
        dsub in 1usize..4,
        m_sub in 1usize..4,
        nlist in 2usize..8,
    ) {
        let dim = dsub * m_sub;
        let m = 1 + (seed % 12) as usize;
        let entries = gallery(seed, n, dim);
        let q = query(seed, dim);
        let exact_ids: Vec<VideoId> = reference_scan(&entries, &q, m)
            .into_iter().map(|s| s.id).collect();
        let mut last = 0.0f32;
        for nprobe in 1..=nlist {
            let node = DataNode::with_index_mode(
                "p", entries.clone(), IndexMode::pq(nlist, nprobe, m_sub, 8, n),
                shard_seed(3),
            ).unwrap();
            let approx_ids: Vec<VideoId> =
                node.query(&q, m).unwrap().into_iter().map(|s| s.id).collect();
            let r = recall_at_m(&approx_ids, &exact_ids);
            prop_assert!(
                r >= last,
                "pq recall dropped from {} to {} at nprobe {}", last, r, nprobe
            );
            last = r;
        }
        prop_assert_eq!(last, 1.0);
    }

    /// `DUOINDX3` round-trip determinism: serializing a system, loading
    /// it, and serializing again must produce byte-identical images for
    /// every index mode — the loaded system reconstructs exactly the
    /// trained structures (codebooks, coarse lists, packed codes, epoch),
    /// never retrains.
    fn duoindx3_save_load_save_is_byte_identical(
        seed in 0u64..1_000_000,
        n in 1usize..50,
        dsub in 1usize..4,
        m_sub in 1usize..4,
        nodes in 1usize..4,
    ) {
        let dim = dsub * m_sub;
        let mode = match seed % 3 {
            0 => IndexMode::Exact,
            1 => IndexMode::ivf(4, 2),
            _ => IndexMode::pq(4, 2, m_sub, 8, 8),
        };
        let entries = gallery(seed ^ 0xD15C, n, dim);
        let snapshot = GalleryIndex::with_mode(entries, mode);
        let backbone = || {
            let mut rng = Rng64::new(9);
            Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap()
        };
        let sys = RetrievalSystem::from_index(
            backbone(),
            &snapshot,
            RetrievalConfig { m: 3, nodes, threaded: false, index: mode },
        ).unwrap();
        let (_, bytes) = GalleryIndex::to_v3_bytes(&sys).unwrap();
        let loaded = RetrievalSystem::from_v3_bytes(
            backbone(), &bytes, RetrievalConfig::default(),
        ).unwrap();
        let (_, bytes2) = GalleryIndex::to_v3_bytes(&loaded).unwrap();
        prop_assert_eq!(bytes, bytes2);
    }

    /// A hostile edit of one small valid image. `kind` picks the edit:
    /// 0 truncates at a section boundary ± 1 byte, 1 flips up to four
    /// random bits in the header and shard directory, 2 sets one count
    /// (a shard's rows, `dim`, the shard count, the total, `nlist`,
    /// `m_sub`) to an oversized value or adds a multiple of `2^32` to
    /// `nbits` (a u32 narrowing would read the true width back), and 3
    /// adds `2^61` to a shard's rows and to the total, so the id
    /// section's byte length wraps back to its true value and only
    /// checked arithmetic can reject it.
    fn hostile_duoindx3_images_are_errors(
        kind in 0u8..4,
        pick in 0usize..64,
        n in 0usize..12,
        s in 0u64..1_000_000,
    ) {
        let image = v3_image();
        let mut bytes = image.bytes.clone();
        let word = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        let patch = |b: &mut Vec<u8>, at: usize, v: u64| b[at..at + 8].copy_from_slice(&v.to_le_bytes());
        let shards = image.shards;
        let must_fail = match kind {
            0 => {
                let b = image.boundaries[pick % image.boundaries.len()];
                let cut = (b + n % 3).saturating_sub(1).min(bytes.len() - 1);
                bytes.truncate(cut);
                true
            }
            1 => {
                let mut rng = Rng64::new(s);
                for _ in 0..=n % 4 {
                    let at = rng.below(V3_DIR_START + shards * V3_DIR_ENTRY);
                    bytes[at] ^= 1 << rng.below(8);
                }
                false
            }
            2 => {
                const HUGE: [u64; 6] = [1 << 20, 1 << 32, 1 << 40, 1 << 61, u64::MAX / 4, u64::MAX];
                let value = HUGE[n % HUGE.len()];
                let (at, value) = match pick % 7 {
                    0 => (V3_DIR_START + (pick / 7 % shards) * V3_DIR_ENTRY, value),
                    1 => (64, value),
                    2 => (56, value),
                    3 => (80, value),
                    4 => (16, value),
                    5 => (32, value),
                    _ => (40, word(&bytes, 40) + ((1 + n as u64 % 3) << 32)),
                };
                patch(&mut bytes, at, value);
                true
            }
            _ => {
                let at = V3_DIR_START + (pick % shards) * V3_DIR_ENTRY;
                let (rows, total) = (word(&bytes, at), word(&bytes, 80));
                patch(&mut bytes, at, rows.wrapping_add(1 << 61));
                patch(&mut bytes, 80, total.wrapping_add(1 << 61));
                true
            }
        };
        let loaded = RetrievalSystem::from_v3_bytes(
            image.backbone.clone(), &bytes, RetrievalConfig::default(),
        );
        if must_fail {
            prop_assert!(loaded.is_err(), "kind {kind} pick {pick} n {n} loaded");
        }
    }
}

/// `DUOINDX3` layout: the header and fixed words end at byte 88, where
/// the shard directory starts; each entry is `rows` plus six
/// `(offset, len)` section pairs.
const V3_DIR_START: usize = 88;
const V3_DIR_ENTRY: usize = 8 + 6 * 16;

/// The valid image the hostile property edits, built once.
struct V3Image {
    bytes: Vec<u8>,
    shards: usize,
    /// Every field and section boundary of the image, ascending.
    boundaries: Vec<usize>,
    backbone: Backbone,
}

fn v3_image() -> &'static V3Image {
    static IMAGE: OnceLock<V3Image> = OnceLock::new();
    IMAGE.get_or_init(|| {
        // PQ, so every section is non-empty: 40 rows over 2 shards of 20,
        // each shard training all 4 coarse lists.
        let shards = 2;
        let mode = IndexMode::pq(4, 2, 2, 4, 8);
        let snapshot = GalleryIndex::with_mode(gallery(0xBAD, 40, 4), mode);
        let mut rng = Rng64::new(9);
        let backbone = Backbone::new(Architecture::C3d, BackboneConfig::tiny(), &mut rng).unwrap();
        let sys = RetrievalSystem::from_index(
            backbone.clone(),
            &snapshot,
            RetrievalConfig { m: 3, nodes: shards, threaded: false, index: mode },
        )
        .unwrap();
        let (_, bytes) = GalleryIndex::to_v3_bytes(&sys).unwrap();
        assert!(
            RetrievalSystem::from_v3_bytes(backbone.clone(), &bytes, RetrievalConfig::default())
                .is_ok(),
            "the unedited image loads"
        );
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let mut boundaries = vec![0, 8, 12, 16, 24, 32, 40, 48, 56, 64, 72, 80];
        for shard in 0..shards {
            let entry = V3_DIR_START + shard * V3_DIR_ENTRY;
            boundaries.push(entry);
            for slot in 0..6 {
                let at = entry + 8 + slot * 16;
                boundaries.extend([at, at + 8, word(at), word(at) + word(at + 8)]);
            }
        }
        boundaries.push(bytes.len());
        boundaries.sort_unstable();
        boundaries.dedup();
        V3Image { bytes, shards, boundaries, backbone }
    })
}
