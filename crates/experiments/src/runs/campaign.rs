//! Campaign experiment: the full attacker zoo, fleet-scale, against a
//! live `duo-serve` service.
//!
//! Spawns one concurrent metered client per zoo slot — DUO, Vanilla,
//! TIMI, HEU-Nes, HEU-Sim, the sparse RL agent, and the zero-query
//! feature-map attack, round-robin — drives them all through the serving
//! surface at once, and aggregates the deterministic per-family
//! leaderboard. Machine-checked at the end of the run:
//!
//! 1. **Zero budget drift under concurrency.** Summed over every fleet
//!    client (attackers and graders, many writer threads):
//!    `charged == served + failed` on the service's global counters.
//! 2. **Bit-identical replay.** The same campaign seed against the same
//!    service produces byte-identical leaderboard JSON, which is written
//!    to `BENCH_campaign.json` in the `bench_check`-validated schema.
//! 3. **Family contracts.** Zero-query families really charge zero
//!    queries, and the fleet covers at least three distinct families
//!    including both of the campaign-native ones.

use super::RunResult;
use crate::{build_world, overlapping_attack_pairs, Scale};
use duo_attack::steal_surrogate;
use duo_baselines::{HeuConfig, TimiConfig, VanillaConfig};
use duo_campaign::{
    run_campaign, Attacker, CampaignConfig, DuoAttacker, FeatureMapAttacker, FeatureMapConfig,
    HeuNesAttacker, HeuSimAttacker, SparseRlAttacker, SparseRlConfig, TimiAttacker,
    VanillaAttacker,
};
use duo_models::{Architecture, Backbone, LossKind};
use duo_serve::{RetrievalService, ServeConfig};
use duo_tensor::{Rng64, ToJson};
use duo_video::{DatasetKind, Video};

/// Zoo order; client `i` runs family `i % 7`. Shared with the
/// `red_vs_blue` experiment so the defended and undefended fleets field
/// the identical attacker mix.
pub(crate) const FAMILIES: [&str; 7] =
    ["duo", "vanilla", "timi", "heu_nes", "heu_sim", "sparse_rl", "feature_map"];

/// Builds the attacker for fleet slot `client`, cloning the stolen
/// surrogate for the families that need one.
pub(crate) fn zoo(client: usize, surrogate: &Backbone, scale: Scale) -> Box<dyn Attacker> {
    let k = scale.default_k();
    match FAMILIES[client % FAMILIES.len()] {
        "duo" => Box::new(DuoAttacker::new(surrogate.clone(), scale.duo_config())),
        "vanilla" => Box::new(VanillaAttacker::new(VanillaConfig {
            k,
            n: 4,
            tau: 30.0,
            iter_num_q: scale.iter_num_q,
        })),
        "timi" => Box::new(TimiAttacker::new(surrogate.clone(), TimiConfig::default())),
        "heu_nes" => Box::new(HeuNesAttacker::new(HeuConfig {
            k,
            n: 4,
            iters: (scale.iter_num_q / 8).max(1),
            ..HeuConfig::default()
        })),
        "heu_sim" => Box::new(HeuSimAttacker::new(HeuConfig {
            k,
            n: 4,
            iters: scale.iter_num_q,
            ..HeuConfig::default()
        })),
        "sparse_rl" => Box::new(SparseRlAttacker::new(SparseRlConfig {
            k: scale.scale_k(10_000).max(1),
            n: 4,
            tau: 30.0,
            episodes: scale.iter_num_q.min(30),
            ..SparseRlConfig::default()
        })),
        _ => Box::new(FeatureMapAttacker::new(
            surrogate.clone(),
            FeatureMapConfig { k: scale.scale_k(10_000).max(1), n: 4, ..Default::default() },
        )),
    }
}

/// Reproduces the campaign experiment: the zoo, fleet-scale, against the
/// live service, twice, with exact accounting and bit-identical replay.
pub fn run(scale: Scale) -> RunResult {
    println!("\n=== Campaign: attacker zoo vs duo-serve (scale: {}) ===", scale.name);
    let seed = 0xCA4_FA16u64;

    // Victim world; surrogate and pairs come from a pre-service black
    // box so the service's counters carry campaign traffic only.
    let world =
        build_world(DatasetKind::Hmdb51Like, Architecture::I3d, LossKind::ArcFace, scale, seed)?;
    let world_scale = world.scale;
    let (mut bb, dataset) = world.into_blackbox();
    let mut rng = Rng64::new(seed ^ 0x5EED);
    let probes: Vec<_> = dataset
        .test()
        .iter()
        .filter(|id| id.class < world_scale.classes)
        .copied()
        .collect();
    let (surrogate, steal) = steal_surrogate(
        &mut bb,
        &dataset,
        &probes,
        world_scale.steal_config(Architecture::C3d),
        &mut rng,
    )
    .map_err(|e| e.to_string())?;
    println!("surrogate stolen offline: {} queries, {} triplets", steal.queries, steal.triplets_used);
    let id_pairs = overlapping_attack_pairs(
        &mut bb,
        &dataset,
        world_scale.classes,
        world_scale.pairs.max(2),
        &mut rng,
    )?;
    let pairs: Vec<(Video, Video)> =
        id_pairs.iter().map(|&(a, b)| (dataset.video(a), dataset.video(b))).collect();
    let system = bb.into_inner();

    let service = RetrievalService::start(system, ServeConfig::default())?;
    let clients = if world_scale.name == "smoke" { 8 } else { 14 };
    let config = CampaignConfig {
        clients,
        per_client_budget: 20 * world_scale.iter_num_q as u64 + 400,
        seed: seed ^ 0xF1EE7,
        max_retries: 16,
    };
    println!(
        "fleet: {} concurrent clients over {} families, {} queries budget each, seed {:#x}",
        config.clients,
        FAMILIES.len().min(config.clients),
        config.per_client_budget,
        config.seed
    );

    let make = |i: usize| zoo(i, &surrogate, world_scale);
    let first = run_campaign(&service, make, &pairs, &config)?;
    let replay = run_campaign(&service, make, &pairs, &config)?;

    // Leaderboard, one row per family (trimmed means, bench trimming).
    println!(
        "\n{:<14}{:>8}{:>10}{:>12}{:>10}{:>10}{:>10}",
        "family", "clients", "queries", "ap_drop", "per_query", "spa", "pscore"
    );
    for row in &first.leaderboard.rows {
        let get = |name: &str| {
            row.metrics
                .iter()
                .find(|d| d.metric == name)
                .map_or(0.0, |d| d.trimmed_mean)
        };
        println!(
            "{:<14}{:>8}{:>10.1}{:>12.2}{:>10.3}{:>10.0}{:>10.3}",
            row.family,
            row.clients,
            get("queries"),
            get("ap_drop"),
            get("ap_drop_per_query"),
            get("spa"),
            get("pscore")
        );
    }

    // Bit-identical replay is the artifact's integrity guarantee.
    let json = first.leaderboard.to_bench_json();
    assert_eq!(
        json,
        replay.leaderboard.to_bench_json(),
        "same campaign seed must replay to byte-identical leaderboard JSON"
    );
    let path = scale.bench_artifact_path("campaign");
    std::fs::create_dir_all(path.parent().expect("artifact path has a directory"))?;
    std::fs::write(&path, &json)?;
    println!("\nleaderboard replayed byte-identically; written to {}", path.display());

    // Family contracts.
    let families: Vec<&str> =
        first.leaderboard.rows.iter().map(|r| r.family.as_str()).collect();
    assert!(
        families.len() >= 3 && families.contains(&"sparse_rl") && families.contains(&"feature_map"),
        "fleet must cover >= 3 families incl. the campaign-native ones, got {families:?}"
    );
    for outcome in first.outcomes.iter().chain(&replay.outcomes) {
        if matches!(outcome.family.as_str(), "timi" | "feature_map") {
            assert_eq!(
                outcome.queries, 0,
                "zero-query family {} charged {} queries",
                outcome.family, outcome.queries
            );
        }
    }

    // The run's whole point: fleet-wide exact accounting. Every query any
    // of the 4x`clients` concurrent writers was charged for reached the
    // model — admission rejections cost nothing, sheds are refunded.
    let stats = service.shutdown();
    println!("\n{stats}");
    println!("service stats JSON: {}", stats.to_json());
    let charged = first.charged + replay.charged;
    assert_eq!(
        charged,
        stats.served + stats.failed,
        "budget drift across the fleet: charged {} vs served {} + failed {}",
        charged,
        stats.served,
        stats.failed
    );
    println!(
        "accounting exact across {} concurrent clients x 2 runs: {} charged == {} served + {} failed",
        2 * config.clients,
        charged,
        stats.served,
        stats.failed
    );
    Ok(())
}
