//! Red-vs-blue experiment: the PR 7 attacker zoo against `duo-serve`
//! with the streaming blue-team stage armed, measured as a
//! detection-rate vs AP-drop tradeoff.
//!
//! Three phases over one victim world:
//!
//! 1. **Red baseline.** The fleet attacks an *undefended* service,
//!    giving the `ap_drop_undefended` reference per family.
//! 2. **Blue deployed.** The same fleet (same seeds, same pairs) attacks
//!    a service armed with [`duo_serve::DefenseConfig`] — per-account
//!    streaming detection with the flag → throttle → reject ladder plus
//!    feature-squeezing purification — while a *benign control lane* of
//!    clean replay clients runs concurrently. Run twice; the emitted
//!    `BENCH_defense.json` must be byte-identical across the runs.
//! 3. **Chaos accounting.** A defended fleet runs with 20% transient
//!    node faults injected; the budget-drift invariant
//!    `charged == served + failed` must hold exactly — the defense
//!    stage's uncharged rejections and purification must not perturb
//!    refund-correct accounting even under faults.
//!
//! Machine-checked: byte-identical replay of the artifact, DUO-family
//! detection, zero benign flags, zero-query families evading by
//! construction, and exact accounting in every phase.

use super::campaign::{zoo, FAMILIES};
use super::RunResult;
use crate::{build_world, overlapping_attack_pairs, Scale};
use duo_attack::steal_surrogate;
use duo_campaign::{run_campaign, CampaignConfig, CampaignReport, ClientOutcome, MetricDist};
use duo_defenses::FeatureSqueezing;
use duo_models::{Architecture, Backbone, LossKind};
use duo_retrieval::{FaultPlan, ResilienceConfig, RetrievalSystem};
use duo_serve::{
    ClientStats, DefenseConfig, Purify, RetrievalService, ServeConfig,
};
use duo_tensor::{Json, Rng64};
use duo_video::{DatasetKind, Video};

/// Clean replay clients running concurrently with the defended fleet.
const BENIGN_LANES: usize = 4;
/// Distinct clips each benign lane replays.
const BENIGN_QUERIES: usize = 12;

/// The blue team's deployment: default streaming calibration plus
/// feature-squeezing purification on the inference path.
fn blue_config() -> ServeConfig {
    ServeConfig {
        defense: Some(DefenseConfig {
            stream: duo_defenses::StreamConfig::default(),
            purify: Purify::Squeeze(FeatureSqueezing::default()),
        }),
        ..ServeConfig::default()
    }
}

/// Transient-fault schedule for the chaos phase: 20% failures per node,
/// no injected latency (phase 3 asserts accounting, not tail behavior).
fn arm_faults(system: &mut RetrievalSystem, seed: u64) {
    for (i, node) in system.nodes().iter().enumerate() {
        node.set_fault_plan(Some(FaultPlan::transient(seed ^ (0xC4A0_5000 + i as u64), 0.20)));
    }
    system.set_resilience(ResilienceConfig {
        node_timeout_us: None,
        max_retries: 4,
        backoff_base_us: 50,
        backoff_jitter_us: 25,
        hedge_after_us: None,
        breaker: None,
        seed: seed ^ 0xB10E,
        require_full_coverage: false,
    });
}

/// One defended fleet run with the benign control lane interleaved.
/// Benign clients are registered on the calling thread *before*
/// `run_campaign` registers the attack lanes, so slot numbering is
/// deterministic; their traffic races the fleet's in wall-clock but the
/// per-account detectors see only their own streams.
fn defended_run(
    service: &RetrievalService,
    surrogate: &Backbone,
    scale: Scale,
    pairs: &[(Video, Video)],
    config: &CampaignConfig,
    benign_clips: &[Video],
) -> Result<(CampaignReport, Vec<ClientStats>, u64), Box<dyn std::error::Error>> {
    let benign: Vec<_> = (0..BENIGN_LANES).map(|_| service.client(None, None)).collect();
    let report = std::thread::scope(|scope| {
        let lanes: Vec<_> = benign
            .iter()
            .map(|client| {
                scope.spawn(move || {
                    for clip in benign_clips {
                        client.retrieve(clip).expect("benign retrieval must serve");
                    }
                })
            })
            .collect();
        let report = run_campaign(service, |i| zoo(i, surrogate, scale), pairs, config);
        for lane in lanes {
            lane.join().expect("benign lane panicked");
        }
        report
    })?;
    let stats: Vec<ClientStats> =
        benign.iter().map(|c| c.stats().expect("service is live")).collect();
    let benign_charged: u64 = benign.iter().map(|c| c.queries_used()).sum();
    Ok((report, stats, benign_charged))
}

/// Renders one metric distribution in the `BENCH_*.json` result schema.
fn bench_row(name: String, d: &MetricDist) -> Json {
    Json::Object(vec![
        ("name".into(), Json::Str(name)),
        ("samples".into(), Json::Int(d.samples as i128)),
        ("min_s".into(), Json::F64(d.min)),
        ("median_s".into(), Json::F64(d.median)),
        ("p95_s".into(), Json::F64(d.p95)),
        ("mean_s".into(), Json::F64(d.mean)),
        ("trimmed_mean_s".into(), Json::F64(d.trimmed_mean)),
        ("max_s".into(), Json::F64(d.max)),
    ])
}

/// Per-lane detection rate: flagged observations over all observations
/// (0 for a lane the detector never saw, i.e. a zero-query family).
fn lane_detection_rate(o: &ClientOutcome) -> f64 {
    o.stats.defense_flagged as f64 / o.stats.defense_observed.max(1) as f64
}

/// Assembles the `BENCH_defense.json` artifact: per-family
/// detection-rate vs AP-drop rows (defended and undefended), the benign
/// control lane's false-positive rate, and the `defense/unit`
/// pseudo-entry the threshold rules divide against.
fn defense_artifact(
    undefended: &CampaignReport,
    defended: &CampaignReport,
    benign: &[ClientStats],
) -> String {
    let mut families: Vec<&str> =
        defended.outcomes.iter().map(|o| o.family.as_str()).collect();
    families.sort_unstable();
    families.dedup();
    let mut rows: Vec<Json> = Vec::new();
    for family in families {
        let of = |report: &CampaignReport| -> Vec<ClientOutcome> {
            report.outcomes.iter().filter(|o| o.family == family).cloned().collect()
        };
        let def = of(defended);
        let und = of(undefended);
        let detection = MetricDist::of(
            "detection_rate",
            def.iter().map(lane_detection_rate).collect(),
        );
        let ap_drop =
            MetricDist::of("ap_drop", def.iter().map(|o| f64::from(o.ap_drop)).collect());
        let ap_und = MetricDist::of(
            "ap_drop_undefended",
            und.iter().map(|o| f64::from(o.ap_drop)).collect(),
        );
        rows.push(bench_row(format!("defense/{family}/detection_rate"), &detection));
        rows.push(bench_row(format!("defense/{family}/ap_drop"), &ap_drop));
        rows.push(bench_row(format!("defense/{family}/ap_drop_undefended"), &ap_und));
    }
    let fp = MetricDist::of(
        "fp_rate",
        benign
            .iter()
            .map(|s| s.defense_flagged as f64 / s.defense_observed.max(1) as f64)
            .collect(),
    );
    rows.push(bench_row("defense/benign/fp_rate".into(), &fp));
    rows.push(bench_row("defense/unit".into(), &MetricDist::of("unit", vec![1.0])));
    format!("{}\n", Json::Array(rows))
}

/// Reproduces the red-vs-blue experiment end to end; see the module docs
/// for the three phases and the checked invariants.
pub fn run(scale: Scale) -> RunResult {
    println!("\n=== Red vs blue: attacker zoo vs defended duo-serve (scale: {}) ===", scale.name);
    let seed = 0xB1_0E5EEDu64;

    // One victim world for every phase; surrogate and pairs are prepared
    // against a pre-service black box, as in the campaign experiment.
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
    // The benign playlist: distinct gallery clips, no two alike, so a
    // correctly calibrated detector must never reach two votes on them.
    let benign_clips: Vec<Video> = dataset
        .train()
        .iter()
        .filter(|id| id.class < world_scale.classes)
        .take(BENIGN_QUERIES)
        .map(|&id| dataset.video(id))
        .collect();
    assert!(benign_clips.len() >= 2, "benign control lane needs clips");
    let system = bb.into_inner();

    let clients = if world_scale.name == "smoke" { 8 } else { 14 };
    assert!(clients >= FAMILIES.len(), "every family needs at least one lane");
    let config = CampaignConfig {
        clients,
        per_client_budget: 20 * world_scale.iter_num_q as u64 + 400,
        seed: seed ^ 0xF1EE7,
        max_retries: 16,
    };

    // Phase 1 — red baseline: the fleet against the undefended service.
    println!("\n[phase 1] red baseline: {} clients, undefended", config.clients);
    let undefended_service = RetrievalService::start(system, ServeConfig::default())?;
    let undefended = run_campaign(
        &undefended_service,
        |i| zoo(i, &surrogate, world_scale),
        &pairs,
        &config,
    )?;
    let (system, red_stats) = undefended_service.shutdown_into();
    let system = system.expect("no outstanding service refs");
    assert_eq!(
        undefended.charged,
        red_stats.served + red_stats.failed,
        "undefended accounting must be exact"
    );

    // Phase 2 — blue deployed: same fleet + benign control lane, twice.
    println!(
        "[phase 2] blue deployed: streaming detector + squeeze purify, {} benign lanes",
        BENIGN_LANES
    );
    let defended_service = RetrievalService::start(system, blue_config())?;
    let (defended_a, benign_a, benign_charged_a) = defended_run(
        &defended_service,
        &surrogate,
        world_scale,
        &pairs,
        &config,
        &benign_clips,
    )?;
    let (defended_b, benign_b, benign_charged_b) = defended_run(
        &defended_service,
        &surrogate,
        world_scale,
        &pairs,
        &config,
        &benign_clips,
    )?;

    // Detection-vs-AP-drop table, one row per family.
    println!(
        "\n{:<14}{:>9}{:>11}{:>13}{:>11}{:>9}",
        "family", "lanes", "det_rate", "ap_drop(def)", "ap_drop(un)", "quarant"
    );
    for row in &defended_a.leaderboard.rows {
        let lanes: Vec<&ClientOutcome> =
            defended_a.outcomes.iter().filter(|o| o.family == row.family).collect();
        let det = lanes.iter().map(|o| lane_detection_rate(o)).sum::<f64>()
            / lanes.len() as f64;
        let apd =
            lanes.iter().map(|o| f64::from(o.ap_drop)).sum::<f64>() / lanes.len() as f64;
        let und: Vec<f64> = undefended
            .outcomes
            .iter()
            .filter(|o| o.family == row.family)
            .map(|o| f64::from(o.ap_drop))
            .collect();
        let apu = und.iter().sum::<f64>() / und.len().max(1) as f64;
        println!(
            "{:<14}{:>9}{:>11.3}{:>13.2}{:>11.2}{:>9}",
            row.family,
            row.clients,
            det,
            apd,
            apu,
            lanes.iter().filter(|o| o.quarantined).count(),
        );
    }

    // The artifact must replay byte-identically across the two runs.
    let artifact = defense_artifact(&undefended, &defended_a, &benign_a);
    let replay = defense_artifact(&undefended, &defended_b, &benign_b);
    assert_eq!(
        artifact, replay,
        "same-seed defended runs must emit byte-identical BENCH_defense.json"
    );
    let path = scale.bench_artifact_path("defense");
    std::fs::create_dir_all(path.parent().expect("artifact path has a directory"))?;
    std::fs::write(&path, &artifact)?;
    println!("\ndefense artifact replayed byte-identically; written to {}", path.display());

    // Blue-team contracts on the first defended run.
    for stats in benign_a.iter().chain(&benign_b) {
        assert_eq!(
            stats.defense_flagged, 0,
            "benign control lane must never be flagged: {stats:?}"
        );
        assert_eq!(stats.defense_observed, BENIGN_QUERIES as u64, "benign lane observed");
    }
    for outcome in defended_a.outcomes.iter().chain(&defended_b.outcomes) {
        if matches!(outcome.family.as_str(), "timi" | "feature_map") {
            assert_eq!(
                outcome.stats.defense_observed, 0,
                "zero-query family {} must evade by construction",
                outcome.family
            );
        }
    }
    let duo_rate: Vec<f64> = defended_a
        .outcomes
        .iter()
        .filter(|o| o.family == "duo")
        .map(lane_detection_rate)
        .collect();
    let duo_mean = duo_rate.iter().sum::<f64>() / duo_rate.len() as f64;
    assert!(
        duo_mean >= 0.5,
        "streaming defense must catch DUO query streams, got mean rate {duo_mean:.3}"
    );

    // Phase-2 accounting: fleet + benign, across both runs.
    let (system, blue_stats) = defended_service.shutdown_into();
    let system = system.expect("no outstanding service refs");
    println!("\n[defended service] {blue_stats}");
    let charged =
        defended_a.charged + defended_b.charged + benign_charged_a + benign_charged_b;
    assert_eq!(
        charged,
        blue_stats.served + blue_stats.failed,
        "defended accounting must be exact: detector rejections are uncharged"
    );
    assert!(
        blue_stats.defense_rejected > 0,
        "the escalation ladder must reach quarantine against the zoo"
    );
    assert_eq!(blue_stats.purified, blue_stats.served + blue_stats.failed,
        "every query that reached the model went through purification");

    // Phase 3 — chaos: defended fleet under 20% transient node faults.
    println!("\n[phase 3] chaos: defended fleet under 20% transient faults");
    let mut system = system;
    arm_faults(&mut system, seed);
    let chaos_service = RetrievalService::start(system, blue_config())?;
    let chaos_config = CampaignConfig {
        clients: FAMILIES.len(),
        per_client_budget: 10 * world_scale.iter_num_q as u64 + 200,
        seed: seed ^ 0xC4A05,
        max_retries: 16,
    };
    let chaos = run_campaign(
        &chaos_service,
        |i| zoo(i, &surrogate, world_scale),
        &pairs,
        &chaos_config,
    )?;
    let chaos_stats = chaos_service.shutdown();
    println!("{chaos_stats}");
    assert!(chaos_stats.transient_faults > 0, "fault schedule must actually fire");
    assert_eq!(
        chaos.charged,
        chaos_stats.served + chaos_stats.failed,
        "accounting must stay exact with the defense stage under faults"
    );
    println!(
        "accounting exact in all phases: red {} == {}, blue {} == {}, chaos {} == {}",
        undefended.charged,
        red_stats.served + red_stats.failed,
        charged,
        blue_stats.served + blue_stats.failed,
        chaos.charged,
        chaos_stats.served + chaos_stats.failed,
    );
    Ok(())
}
