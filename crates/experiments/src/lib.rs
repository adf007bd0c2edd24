//! Experiment harness reproducing every table and figure of the DUO paper.
//!
//! Each `src/bin/<id>.rs` binary regenerates one table or figure;
//! this library carries the shared machinery: scaled experiment
//! configurations ([`Scale`]), victim-world construction ([`build_world`]),
//! surrogate stealing, the unified attack runner ([`run_attack`]), and
//! paper-style row printing.
//!
//! Scales: set `DUO_SCALE=smoke` (seconds, used by tests/benches),
//! `standard` (default, minutes per binary) to trade fidelity for time;
//! all sparsity budgets are mapped from the paper's 112×112×16 clips onto
//! the scaled geometry (see `DESIGN.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runs;

use duo_attack::{
    steal_surrogate, AttackReport, DuoAttack, DuoConfig, StealConfig,
};
use duo_baselines::{
    HeuConfig, HeuNesAttack, HeuSimAttack, TimiAttack, TimiConfig, VanillaAttack, VanillaConfig,
};
use duo_models::{
    train_embedding_model, Architecture, Backbone, BackboneConfig, LossKind, TrainConfig,
};
use duo_retrieval::{ap_at_m, mean_average_precision, BlackBox, RetrievalConfig, RetrievalSystem};
use duo_tensor::Rng64;
use duo_video::{ClipSpec, DatasetKind, SyntheticDataset, Video, VideoId};

/// Sizing knobs for one experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Human-readable scale name.
    pub name: &'static str,
    /// Clip geometry.
    pub clip: ClipSpec,
    /// Number of classes actually exercised per dataset (the synthetic
    /// catalogs keep the full 101/51 classes; worlds use the first few so
    /// a single CPU core finishes in minutes).
    pub classes: u32,
    /// Labeled training videos per class for victim training.
    pub train_per_class: u32,
    /// Gallery videos per class indexed by the retrieval service.
    pub gallery_per_class: u32,
    /// Test probes per class for mAP evaluation.
    pub test_per_class: u32,
    /// Victim training config.
    pub victim_train: TrainConfig,
    /// Backbone width/feature configuration.
    pub backbone: BackboneConfig,
    /// Attack pairs (v, v_t) per configuration cell.
    pub pairs: usize,
    /// SparseQuery iteration budget.
    pub iter_num_q: usize,
    /// SparseTransfer alternation rounds.
    pub transfer_iters: usize,
    /// θ gradient steps per round.
    pub theta_steps: usize,
    /// Retrieval list length m.
    pub m: usize,
    /// Data-node shard count.
    pub nodes: usize,
}

impl Scale {
    /// Seconds-scale configuration for tests and benches.
    pub fn smoke() -> Self {
        Scale {
            name: "smoke",
            clip: ClipSpec::tiny(),
            classes: 6,
            train_per_class: 2,
            gallery_per_class: 3,
            test_per_class: 1,
            victim_train: TrainConfig { epochs: 1, lr: 5e-3, batch: 4 },
            backbone: BackboneConfig::tiny(),
            pairs: 1,
            iter_num_q: 10,
            transfer_iters: 1,
            theta_steps: 3,
            m: 8,
            nodes: 2,
        }
    }

    /// Default scale: minutes per binary on one CPU core.
    pub fn standard() -> Self {
        Scale {
            name: "standard",
            clip: ClipSpec::experiment(),
            classes: 10,
            train_per_class: 3,
            gallery_per_class: 4,
            test_per_class: 2,
            victim_train: TrainConfig { epochs: 2, lr: 3e-3, batch: 6 },
            backbone: BackboneConfig::experiment(),
            pairs: 2,
            iter_num_q: 120,
            transfer_iters: 2,
            theta_steps: 8,
            m: 14,
            nodes: 4,
        }
    }

    /// Reads `DUO_SCALE` from the environment (default `standard`).
    pub fn from_env() -> Self {
        match std::env::var("DUO_SCALE").as_deref() {
            Ok("smoke") => Scale::smoke(),
            _ => Scale::standard(),
        }
    }

    /// Where the `BENCH_<tag>.json` artifact of a run at this scale
    /// lives (`Scale::from_env().bench_artifact_path(tag)` follows
    /// `DUO_SCALE`). Smoke runs write under `target/bench-smoke/`, so a
    /// tier-1 run never overwrites the committed full-scale artifacts at
    /// the repository root; every other scale writes the root.
    pub fn bench_artifact_path(&self, tag: &str) -> std::path::PathBuf {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let dir = if self.name == "smoke" { root.join("target/bench-smoke") } else { root };
        dir.join(format!("BENCH_{tag}.json"))
    }

    /// The paper's pixel budget `k = 40K` mapped onto this scale.
    pub fn default_k(&self) -> usize {
        self.clip.scale_budget(40_000)
    }

    /// Maps any paper-resolution pixel budget onto this scale.
    pub fn scale_k(&self, paper_k: usize) -> usize {
        self.clip.scale_budget(paper_k)
    }

    /// The DUO configuration at this scale with paper defaults.
    pub fn duo_config(&self) -> DuoConfig {
        let mut cfg = DuoConfig::for_spec(self.clip);
        cfg.transfer.k = self.default_k();
        cfg.transfer.outer_iters = self.transfer_iters;
        cfg.transfer.theta_steps = self.theta_steps;
        cfg.query.iter_num_q = self.iter_num_q;
        cfg
    }

    /// The surrogate-stealing configuration at this scale.
    pub fn steal_config(&self, arch: Architecture) -> StealConfig {
        StealConfig {
            arch,
            backbone: self.backbone,
            rounds: 3,
            fanout: 2,
            target_dataset_size: (self.classes as usize) * 4,
            max_triplets: if self.name == "smoke" { 80 } else { 120 },
            epochs: 2,
            lr: 3e-3,
            batch: 4,
        }
    }
}

/// A fully built victim world: dataset, trained victim, sharded index.
pub struct World {
    /// The synthetic corpus.
    pub dataset: SyntheticDataset,
    /// The victim service (trained backbone + gallery shards).
    pub system: RetrievalSystem,
    /// Victim architecture.
    pub arch: Architecture,
    /// Victim training loss.
    pub loss: LossKind,
    /// Scale the world was built at.
    pub scale: Scale,
}

impl World {
    /// Wraps the system in the attacker-facing black box.
    pub fn into_blackbox(self) -> (BlackBox, SyntheticDataset) {
        (BlackBox::new(self.system), self.dataset)
    }
}

fn ids_upto(ids: &[VideoId], classes: u32) -> Vec<VideoId> {
    ids.iter().filter(|id| id.class < classes).copied().collect()
}

/// Builds a victim world: trains `arch` with `loss` on the synthetic
/// corpus and indexes a gallery over sharded data nodes.
///
/// # Errors
///
/// Propagates model and retrieval construction failures.
pub fn build_world(
    kind: DatasetKind,
    arch: Architecture,
    loss: LossKind,
    scale: Scale,
    seed: u64,
) -> Result<World, Box<dyn std::error::Error>> {
    let mut rng = Rng64::new(seed);
    let dataset = SyntheticDataset::subsampled(
        kind,
        scale.clip,
        seed ^ 0xD5EA5E,
        scale.train_per_class + scale.gallery_per_class,
        scale.test_per_class,
    );
    let mut backbone = Backbone::new(arch, scale.backbone, &mut rng)?;
    let mut head = loss.build_head(dataset.num_classes(), scale.backbone.feature_dim, &mut rng);
    let train_items: Vec<VideoId> = ids_upto(dataset.train(), scale.classes)
        .into_iter()
        .filter(|id| id.instance < scale.train_per_class)
        .collect();
    train_embedding_model(
        &mut backbone,
        head.as_mut(),
        &dataset,
        &train_items,
        scale.victim_train,
        &mut rng,
    )?;
    let gallery: Vec<VideoId> = ids_upto(dataset.train(), scale.classes)
        .into_iter()
        .filter(|id| id.instance >= scale.train_per_class)
        .collect();
    // Parallel gallery indexing and the threaded node fan-out (at most
    // one lane of nodes per core) are both bit-identical to their
    // serial counterparts (asserted by tier-1 tests), so experiments
    // default to the fast path.
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get()).min(8);
    let system = RetrievalSystem::build_parallel(
        backbone,
        &dataset,
        &gallery,
        RetrievalConfig { m: scale.m, nodes: scale.nodes, threaded: true, ..Default::default() },
        workers,
    )?;
    Ok(World { dataset, system, arch, loss, scale })
}

/// Victim retrieval quality: mAP (%) over the test probes (Figure 3's
/// quantity).
///
/// # Errors
///
/// Propagates retrieval failures.
pub fn victim_map(world: &mut World) -> Result<f32, Box<dyn std::error::Error>> {
    let probes = ids_upto(world.dataset.test(), world.scale.classes);
    let mut results = Vec::with_capacity(probes.len());
    for id in probes {
        let list = world.system.retrieve(&world.dataset.video(id))?;
        results.push((id.class, list));
    }
    Ok(mean_average_precision(&results))
}

/// mAP (%) of an arbitrary backbone (e.g. a stolen surrogate) measured on
/// the world's gallery/test split — Figure 4's quantity.
///
/// # Errors
///
/// Propagates model and retrieval failures.
pub fn backbone_map(
    backbone: &mut Backbone,
    dataset: &SyntheticDataset,
    scale: Scale,
) -> Result<f32, Box<dyn std::error::Error>> {
    let gallery: Vec<VideoId> = ids_upto(dataset.train(), scale.classes)
        .into_iter()
        .filter(|id| id.instance >= scale.train_per_class)
        .collect();
    let mut entries = Vec::with_capacity(gallery.len());
    for id in &gallery {
        entries.push((*id, backbone.extract(&dataset.video(*id))?));
    }
    let probes = ids_upto(dataset.test(), scale.classes);
    let mut results = Vec::with_capacity(probes.len());
    for id in probes {
        let q = backbone.extract(&dataset.video(id))?;
        let mut scored: Vec<(VideoId, f32)> = entries
            .iter()
            .map(|(gid, feat)| (*gid, feat.sq_distance(&q).expect("dims match")))
            .collect();
        scored.sort_by(|a, b| a.1.total_cmp(&b.1));
        scored.truncate(scale.m);
        results.push((id.class, scored.into_iter().map(|(gid, _)| gid).collect()));
    }
    Ok(mean_average_precision(&results))
}

/// Draws `count` attack pairs `(v, v_t)` with distinct classes from the
/// training catalog (paper §V-A: ten random pairs).
pub fn attack_pairs(
    dataset: &SyntheticDataset,
    classes: u32,
    count: usize,
    rng: &mut Rng64,
) -> Vec<(VideoId, VideoId)> {
    let pool = ids_upto(dataset.train(), classes);
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let a = pool[rng.below(pool.len())];
        let b = pool[rng.below(pool.len())];
        if a.class != b.class {
            pairs.push((a, b));
        }
    }
    pairs
}

/// Draws attack pairs whose *pre-attack* retrieval lists already overlap
/// (`AP@m(R(v), R(v_t)) > 0`), mirroring the paper's evaluation regime —
/// its Table II "w/o attack" baselines range from 25% to 68%, i.e. the
/// sampled pairs share retrieval neighbourhoods before any perturbation.
/// Falls back to unconstrained pairs when few overlapping ones exist.
pub fn overlapping_attack_pairs(
    blackbox: &mut BlackBox,
    dataset: &SyntheticDataset,
    classes: u32,
    count: usize,
    rng: &mut Rng64,
) -> Result<Vec<(VideoId, VideoId)>, Box<dyn std::error::Error>> {
    let pool = ids_upto(dataset.train(), classes);
    let mut pairs = Vec::with_capacity(count);
    let mut attempts = 0usize;
    while pairs.len() < count && attempts < count * 25 {
        attempts += 1;
        let a = pool[rng.below(pool.len())];
        let b = pool[rng.below(pool.len())];
        if a.class == b.class {
            continue;
        }
        let r_a = blackbox.system_mut().retrieve(&dataset.video(a))?;
        let r_b = blackbox.system_mut().retrieve(&dataset.video(b))?;
        if ap_at_m(&r_a, &r_b) > 0.0 {
            pairs.push((a, b));
        }
    }
    while pairs.len() < count {
        let a = pool[rng.below(pool.len())];
        let b = pool[rng.below(pool.len())];
        if a.class != b.class {
            pairs.push((a, b));
        }
    }
    Ok(pairs)
}

/// The attack rows of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// No attack: AP@m between `R(v)` and `R(v_t)` directly.
    WithoutAttack,
    /// TIMI with a C3D surrogate (dense transfer).
    TimiC3d,
    /// TIMI with a Resnet18 surrogate.
    TimiRes18,
    /// HEU with NES gradient estimation.
    HeuNes,
    /// HEU with the random-selection (SimBA) strategy.
    HeuSim,
    /// Random selection + SimBA.
    Vanilla,
    /// DUO with a C3D surrogate.
    DuoC3d,
    /// DUO with a Resnet18 surrogate.
    DuoRes18,
}

impl AttackKind {
    /// Table II row order.
    pub fn table2_rows() -> [AttackKind; 8] {
        [
            AttackKind::WithoutAttack,
            AttackKind::TimiC3d,
            AttackKind::TimiRes18,
            AttackKind::HeuNes,
            AttackKind::HeuSim,
            AttackKind::Vanilla,
            AttackKind::DuoC3d,
            AttackKind::DuoRes18,
        ]
    }

    /// Row label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            AttackKind::WithoutAttack => "w/o attack",
            AttackKind::TimiC3d => "TIMI-C3D (n=16)",
            AttackKind::TimiRes18 => "TIMI-Res (n=16)",
            AttackKind::HeuNes => "HEU-Nes (n=4)",
            AttackKind::HeuSim => "HEU-Sim (n=4)",
            AttackKind::Vanilla => "Vanilla (n=4)",
            AttackKind::DuoC3d => "DUO-C3D (n=4)",
            AttackKind::DuoRes18 => "DUO-Res18 (n=4)",
        }
    }

    /// Which surrogate architecture the attack needs, if any.
    pub fn surrogate(self) -> Option<Architecture> {
        match self {
            AttackKind::TimiC3d | AttackKind::DuoC3d => Some(Architecture::C3d),
            AttackKind::TimiRes18 | AttackKind::DuoRes18 => Some(Architecture::Resnet18),
            _ => None,
        }
    }
}

/// Stolen surrogates shared across attack rows for one world.
pub struct Surrogates {
    /// C3D surrogate.
    pub c3d: Backbone,
    /// Resnet18 surrogate.
    pub res18: Backbone,
}

/// Steals both surrogate architectures from the black box.
///
/// # Errors
///
/// Propagates stealing failures.
pub fn steal_surrogates(
    blackbox: &mut BlackBox,
    dataset: &SyntheticDataset,
    scale: Scale,
    rng: &mut Rng64,
) -> Result<Surrogates, Box<dyn std::error::Error>> {
    let probes = ids_upto(dataset.test(), scale.classes);
    let (c3d, _) = steal_surrogate(
        blackbox,
        dataset,
        &probes,
        scale.steal_config(Architecture::C3d),
        rng,
    )?;
    let (res18, _) = steal_surrogate(
        blackbox,
        dataset,
        &probes,
        scale.steal_config(Architecture::Resnet18),
        rng,
    )?;
    Ok(Surrogates { c3d, res18 })
}

/// Evaluates one attack row on one `(v, v_t)` pair; returns the Table II
/// metrics.
///
/// # Errors
///
/// Propagates attack and retrieval failures.
#[allow(clippy::too_many_arguments)]
pub fn run_attack(
    kind: AttackKind,
    blackbox: &mut BlackBox,
    dataset: &SyntheticDataset,
    surrogates: &mut Surrogates,
    pair: (VideoId, VideoId),
    scale: Scale,
    duo_override: Option<DuoConfig>,
    rng: &mut Rng64,
) -> Result<AttackReport, Box<dyn std::error::Error>> {
    let v = dataset.video(pair.0);
    let v_t = dataset.video(pair.1);
    let k = scale.default_k();
    let outcome = match kind {
        AttackKind::WithoutAttack => {
            let r_v = blackbox.system_mut().retrieve(&v)?;
            let r_t = blackbox.system_mut().retrieve(&v_t)?;
            return Ok(AttackReport {
                ap_at_m: ap_at_m(&r_v, &r_t),
                spa: 0,
                pscore: 0.0,
                queries: 0,
            });
        }
        AttackKind::TimiC3d => {
            TimiAttack::new(&mut surrogates.c3d, TimiConfig::default()).run(&v, &v_t)?
        }
        AttackKind::TimiRes18 => {
            TimiAttack::new(&mut surrogates.res18, TimiConfig::default()).run(&v, &v_t)?
        }
        AttackKind::HeuNes => {
            let cfg = HeuConfig { k, n: 4, iters: scale.iter_num_q / 8, ..HeuConfig::default() };
            HeuNesAttack::new(cfg).run(blackbox, &v, &v_t, rng)?
        }
        AttackKind::HeuSim => {
            let cfg = HeuConfig { k, n: 4, iters: scale.iter_num_q, ..HeuConfig::default() };
            HeuSimAttack::new(cfg).run(blackbox, &v, &v_t, rng)?
        }
        AttackKind::Vanilla => {
            let cfg = VanillaConfig { k, n: 4, tau: 30.0, iter_num_q: scale.iter_num_q };
            VanillaAttack::new(cfg).run(blackbox, &v, &v_t, rng)?
        }
        AttackKind::DuoC3d | AttackKind::DuoRes18 => {
            let cfg = duo_override.unwrap_or_else(|| scale.duo_config());
            let surrogate = match kind {
                AttackKind::DuoC3d => &mut surrogates.c3d,
                _ => &mut surrogates.res18,
            };
            run_duo(surrogate, cfg, blackbox, &v, &v_t, rng)?
        }
    };
    Ok(duo_attack::evaluate_outcome(blackbox, &outcome, &v_t)?)
}

/// Runs DUO with a borrowed surrogate (cloning weights into the pipeline
/// is avoided by a temporary swap).
fn run_duo(
    surrogate: &mut Backbone,
    cfg: DuoConfig,
    blackbox: &mut BlackBox,
    v: &Video,
    v_t: &Video,
    rng: &mut Rng64,
) -> Result<duo_attack::AttackOutcome, Box<dyn std::error::Error>> {
    // DuoAttack owns its surrogate; temporarily move the borrowed one in
    // via replace, then restore.
    let placeholder = Backbone::new(surrogate.arch(), surrogate.config(), &mut Rng64::new(0))?;
    let owned = std::mem::replace(surrogate, placeholder);
    let mut attack = DuoAttack::new(owned, cfg);
    let result = attack.run(blackbox, v, v_t, rng);
    *surrogate = attack.into_surrogate();
    Ok(result?)
}

/// Full DUO outcome (with trajectory) for Figure 5; reuses the shared
/// surrogates.
///
/// # Errors
///
/// Propagates attack failures.
pub fn run_duo_outcome(
    surrogate: &mut Backbone,
    cfg: DuoConfig,
    blackbox: &mut BlackBox,
    v: &Video,
    v_t: &Video,
    rng: &mut Rng64,
) -> Result<duo_attack::AttackOutcome, Box<dyn std::error::Error>> {
    run_duo(surrogate, cfg, blackbox, v, v_t, rng)
}

/// Mean of a set of attack reports (the tables report averages over
/// pairs).
pub fn mean_report(reports: &[AttackReport]) -> AttackReport {
    if reports.is_empty() {
        return AttackReport { ap_at_m: 0.0, spa: 0, pscore: 0.0, queries: 0 };
    }
    let n = reports.len() as f32;
    AttackReport {
        ap_at_m: reports.iter().map(|r| r.ap_at_m).sum::<f32>() / n,
        spa: (reports.iter().map(|r| r.spa).sum::<usize>() as f32 / n).round() as usize,
        pscore: reports.iter().map(|r| r.pscore).sum::<f32>() / n,
        queries: (reports.iter().map(|r| r.queries).sum::<u64>() as f32 / n).round() as u64,
    }
}

/// Prints a table header in the paper's `AP@m / Spa / PScore` layout.
pub fn print_header(title: &str, columns: &[&str]) {
    println!("\n=== {title} ===");
    print!("{:<22}", "");
    for c in columns {
        print!("{c:>26}");
    }
    println!();
    print!("{:<22}", "row");
    for _ in columns {
        print!("{:>10}{:>9}{:>7}", "AP@m", "Spa", "PScr");
    }
    println!();
}

/// Prints one table row of reports.
pub fn print_row(label: &str, reports: &[AttackReport]) {
    print!("{label:<22}");
    for r in reports {
        print!("{:>9.2}%{:>9}{:>7.3}", r.ap_at_m, r.spa, r.pscore);
    }
    println!();
}

/// Config cell for DUO sweeps (Tables V–VIII).
pub fn duo_config_with(
    scale: Scale,
    k: Option<usize>,
    n: Option<usize>,
    tau: Option<f32>,
    iter_num_h: Option<usize>,
) -> DuoConfig {
    let mut cfg = scale.duo_config();
    if let Some(k) = k {
        cfg.transfer.k = k;
    }
    if let Some(n) = n {
        cfg.transfer.n = n;
    }
    if let Some(tau) = tau {
        cfg = cfg.with_tau(tau);
    }
    if let Some(h) = iter_num_h {
        cfg.iter_num_h = h;
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_world_builds_and_retrieves() {
        let mut world = build_world(
            DatasetKind::Hmdb51Like,
            Architecture::C3d,
            LossKind::ArcFace,
            Scale::smoke(),
            42,
        )
        .unwrap();
        let map = victim_map(&mut world).unwrap();
        assert!((0.0..=100.0).contains(&map));
        assert!(map > 0.0, "a trained victim should beat zero mAP");
    }

    #[test]
    fn attack_pairs_have_distinct_classes() {
        let scale = Scale::smoke();
        let ds = SyntheticDataset::subsampled(DatasetKind::Hmdb51Like, scale.clip, 1, 2, 1);
        let mut rng = Rng64::new(261);
        for (a, b) in attack_pairs(&ds, scale.classes, 8, &mut rng) {
            assert_ne!(a.class, b.class);
        }
    }

    #[test]
    fn without_attack_row_reports_zero_perturbation() {
        let world = build_world(
            DatasetKind::Hmdb51Like,
            Architecture::C3d,
            LossKind::ArcFace,
            Scale::smoke(),
            43,
        )
        .unwrap();
        let scale = world.scale;
        let (mut bb, ds) = world.into_blackbox();
        let mut rng = Rng64::new(262);
        let mut surrogates = steal_surrogates(&mut bb, &ds, scale, &mut rng).unwrap();
        let pair = attack_pairs(&ds, scale.classes, 1, &mut rng)[0];
        let report = run_attack(
            AttackKind::WithoutAttack,
            &mut bb,
            &ds,
            &mut surrogates,
            pair,
            scale,
            None,
            &mut rng,
        )
        .unwrap();
        assert_eq!(report.spa, 0);
        assert_eq!(report.queries, 0);
    }

    #[test]
    fn mean_report_averages_fields() {
        let a = AttackReport { ap_at_m: 50.0, spa: 100, pscore: 0.2, queries: 10 };
        let b = AttackReport { ap_at_m: 70.0, spa: 300, pscore: 0.4, queries: 30 };
        let m = mean_report(&[a, b]);
        assert_eq!(m.ap_at_m, 60.0);
        assert_eq!(m.spa, 200);
        assert!((m.pscore - 0.3).abs() < 1e-6);
        assert_eq!(m.queries, 20);
    }

    #[test]
    fn scale_env_parsing_defaults_to_standard() {
        // Note: avoids mutating the process env; just checks the default.
        assert_eq!(Scale::from_env().name, "standard");
    }

    #[test]
    fn duo_config_with_overrides_only_requested_fields() {
        let scale = Scale::smoke();
        let base = scale.duo_config();
        let cfg = duo_config_with(scale, Some(123), None, None, None);
        assert_eq!(cfg.transfer.k, 123);
        assert_eq!(cfg.transfer.n, base.transfer.n);
        assert_eq!(cfg.query.tau, base.query.tau);
        let cfg = duo_config_with(scale, None, Some(7), Some(15.0), Some(3));
        assert_eq!(cfg.transfer.n, 7);
        assert_eq!(cfg.transfer.tau, 15.0);
        assert_eq!(cfg.query.tau, 15.0);
        assert_eq!(cfg.iter_num_h, 3);
    }

    #[test]
    fn scale_k_maps_paper_budgets_proportionally() {
        let scale = Scale::smoke();
        let k20 = scale.scale_k(20_000);
        let k40 = scale.scale_k(40_000);
        assert!(k40 > k20);
        // 40K of 602,112 ≈ 6.64% of the tiny clip's 6,144 elements.
        assert!((k40 as f32 - 6144.0 * 40_000.0 / 602_112.0).abs() <= 1.0);
        assert_eq!(scale.default_k(), k40);
    }

    #[test]
    fn table2_rows_cover_every_attack_once() {
        let rows = AttackKind::table2_rows();
        assert_eq!(rows.len(), 8);
        let labels: std::collections::HashSet<&str> = rows.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), 8, "labels must be distinct");
        assert_eq!(rows[0], AttackKind::WithoutAttack);
    }

    #[test]
    fn surrogate_mapping_matches_paper_architectures() {
        assert_eq!(AttackKind::DuoC3d.surrogate(), Some(Architecture::C3d));
        assert_eq!(AttackKind::TimiRes18.surrogate(), Some(Architecture::Resnet18));
        assert_eq!(AttackKind::Vanilla.surrogate(), None);
        assert_eq!(AttackKind::WithoutAttack.surrogate(), None);
    }

    #[test]
    fn overlapping_pairs_have_positive_baseline_when_possible() {
        let world = build_world(
            DatasetKind::Hmdb51Like,
            Architecture::C3d,
            LossKind::ArcFace,
            Scale::smoke(),
            44,
        )
        .unwrap();
        let scale = world.scale;
        let (mut bb, ds) = world.into_blackbox();
        let mut rng = Rng64::new(263);
        let pairs = overlapping_attack_pairs(&mut bb, &ds, scale.classes, 3, &mut rng).unwrap();
        assert_eq!(pairs.len(), 3);
        for (a, b) in pairs {
            assert_ne!(a.class, b.class);
        }
    }
}
