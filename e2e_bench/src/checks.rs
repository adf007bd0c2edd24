//! Correctness checks, run after the timed window. Any failure makes the
//! run report `"correct": false` and exit non-zero.

use crate::inputs::{is_synthetic, layout};
use crate::phases::{Attacks, Open, Reply, Saturation};
use crate::setup::{quantized, Prepared};
use crate::spec::Spec;
use duo_retrieval::ap_at_m;
use duo_serve::ClientStats;
use duo_tensor::{Json, ToJson};
use duo_video::VideoId;

/// One named check and its outcome.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// Counts, or the first counterexample.
    pub detail: String,
}

impl ToJson for Check {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("name".into(), Json::Str(self.name.into())),
            ("passed".into(), Json::Bool(self.passed)),
            ("detail".into(), Json::Str(self.detail.clone())),
        ])
    }
}

fn check(name: &'static str, failures: &[String], ok_detail: String) -> Check {
    match failures.first() {
        None => Check {
            name,
            passed: true,
            detail: ok_detail,
        },
        Some(first) => Check {
            name,
            passed: false,
            detail: format!("{} failures, first: {first}", failures.len()),
        },
    }
}

/// Per-attack results computed after the window: AP@m of the final
/// adversarial list against the target's list (in-process, uncharged).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackScore {
    /// The pair.
    pub pair: (VideoId, VideoId),
    /// Queries the attack used.
    pub queries: u64,
    /// Final AP@m, percent.
    pub ap_at_m: f32,
    /// Perturbed elements.
    pub spa: usize,
}

/// The replies that differ from `expected[q]`, the in-process serial
/// answer for pool clip `q` on the still gallery that served them.
pub fn against_serial(replies: &[Reply], expected: &[Vec<VideoId>], round: usize) -> Vec<String> {
    replies
        .iter()
        .filter(|(q, list)| *list != expected[*q])
        .map(|(q, list)| {
            format!(
                "round {round} saturation clip {q}: served {list:?}, serial {:?}",
                expected[*q]
            )
        })
        .collect()
}

/// Every check, plus the attack scores they compute along the way.
///
/// `saturation_mismatches` holds [`against_serial`]'s findings over the
/// `saturation_checked` saturation replies of every round.
///
/// # Errors
///
/// Propagates in-process retrieval failures.
#[allow(clippy::too_many_arguments)]
pub fn run(
    spec: &Spec,
    p: &Prepared,
    open: &Open,
    saturation: &Saturation,
    saturation_mismatches: Vec<String>,
    saturation_checked: usize,
    attacks: &Attacks,
    recall: Option<f64>,
) -> Result<(Vec<Check>, Vec<AttackScore>), Box<dyn std::error::Error>> {
    let system = p.service.system();
    let m = system.config().m;
    let mut checks = Vec::new();

    // Open-phase replies raced gallery writes, so they are checked for
    // shape; replies served on a still gallery are checked for equality
    // with the serial oracle.
    let malformed: Vec<String> = open
        .replies
        .iter()
        .filter(|(_, list)| {
            let mut ids = list.clone();
            ids.sort_by_key(|id| (id.class, id.instance));
            ids.dedup();
            list.len() != m || ids.len() != m
        })
        .map(|(q, list)| format!("clip {q}: {} ids", list.len()))
        .collect();
    checks.push(check(
        "open_replies_well_formed",
        &malformed,
        format!("{} replies", open.replies.len()),
    ));

    let checker = p.service.client(None, None);
    let mut mismatches = saturation_mismatches;
    let mut compare = |what: String, got: &[VideoId], want: &[VideoId]| {
        if got != want {
            mismatches.push(format!("{what}: served {got:?}, serial {want:?}"));
        }
    };
    for (q, clip) in p.pool.iter().enumerate() {
        compare(
            format!("pool clip {q}"),
            &checker.retrieve(clip)?,
            &system.retrieve(&p.pool_quantized[q])?,
        );
    }
    let mut scores = Vec::with_capacity(attacks.runs.len());
    let mut attack_failures = Vec::new();
    for run in &attacks.runs {
        let adversarial = quantized(&run.adversarial);
        // A fresh account per adversarial clip: these sit close to clips
        // already sent, and a defended service would throttle one account
        // sending them all.
        let served = p.service.client(None, None).retrieve(&run.adversarial)?;
        let serial = system.retrieve(&adversarial)?;
        compare(format!("adversarial {:?}", run.pair), &served, &serial);
        let target = p
            .pairs
            .iter()
            .find(|(pair, _)| *pair == run.pair)
            .map(|(_, (_, t))| quantized(t));
        let target_list = system.retrieve(&target.ok_or("attack pair missing from the plan")?)?;
        scores.push(AttackScore {
            pair: run.pair,
            queries: run.queries,
            ap_at_m: ap_at_m(&serial, &target_list),
            spa: run.spa,
        });
        if run.linf > p.duo.query.tau + 1e-3 {
            attack_failures.push(format!(
                "{:?}: L-inf {} > tau {}",
                run.pair, run.linf, p.duo.query.tau
            ));
        }
        if run.queries != run.answered {
            attack_failures.push(format!(
                "{:?}: {} queries billed, {} calls answered",
                run.pair, run.queries, run.answered
            ));
        }
    }
    attack_failures.extend(attacks.errors.iter().cloned());
    let checked = saturation_checked + p.pool.len() + attacks.runs.len();
    checks.push(check(
        "replies_match_serial_oracle",
        &mismatches,
        format!("{checked} replies"),
    ));
    checks.push(check(
        "attacks_within_tau_and_billed",
        &attack_failures,
        format!("{} attacks, tau {}", attacks.runs.len(), p.duo.query.tau),
    ));

    let accounting: Vec<String> = p
        .service
        .client_stats()
        .iter()
        .enumerate()
        .filter(|(_, c)| c.charged != c.served + c.failed || c.refunded != c.deadline_misses)
        .map(|(slot, c)| format!("client {slot}: {c:?}"))
        .collect();
    checks.push(check(
        "client_accounting",
        &accounting,
        "charged == served + failed and refunded == deadline_misses".into(),
    ));

    let benign: Vec<&ClientStats> = open.clients.iter().chain(&saturation.clients).collect();
    let flagged: Vec<String> = benign
        .iter()
        .filter(|c| c.defense_flagged > 0)
        .map(|c| format!("{c:?}"))
        .collect();
    checks.push(check(
        "benign_traffic_unflagged",
        &flagged,
        format!("{} benign clients", benign.len()),
    ));

    let now = layout(system);
    let mut gallery = Vec::new();
    if now != p.plan.expected {
        gallery.push("per-shard layout differs from the churn plan".to_string());
    }
    if system.gallery_len() != p.gallery_len {
        gallery.push(format!(
            "gallery_len {} != {}",
            system.gallery_len(),
            p.gallery_len
        ));
    }
    let synthetic = now.iter().flatten().filter(|&&id| is_synthetic(id)).count();
    checks.push(check(
        "gallery_matches_plan",
        &gallery,
        format!(
            "{} rows ({synthetic} synthetic) after {} writes",
            p.gallery_len,
            p.plan.batches.len()
        ),
    ));

    if let Some(floor) = spec.recall_floor {
        let failures = match recall {
            Some(r) if r >= floor => Vec::new(),
            Some(r) => vec![format!("audited recall@m {r:.4} < floor {floor}")],
            None => vec!["no recall audits ran".to_string()],
        };
        checks.push(check(
            "pq_recall_floor",
            &failures,
            format!("recall@m {:.4} >= {floor}", recall.unwrap_or(0.0)),
        ));
    }
    Ok((checks, scores))
}
