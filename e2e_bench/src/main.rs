//! End-to-end benchmark of the DUO stack: serving, the DUO attack as a
//! client of the service, and live gallery churn.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload serve_steady --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` the same workload runs with spans recorded and a
//! layer replay after the window, and the last line carries the per-layer
//! metrics. A full report (provenance, parameters, checks, per-attack
//! outcomes, span self times) goes to `e2e_bench/results/`. The process
//! exits non-zero if any correctness check fails. See `README.md`.

mod checks;
mod inputs;
mod phases;
mod replay;
mod report;
mod setup;
mod spec;
mod stats;
mod trace;

use checks::{AttackScore, Check};
use duo_retrieval::IndexStats;
use duo_tensor::{Json, ToJson};
use phases::{Attacks, Open, Saturation};
use report::Metric;
use spec::Spec;
use stats::{mean, median, tail, Ops};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Run length when `--seconds` is not given (the benchmark's setting).
const DEFAULT_SECONDS: u64 = 20;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

const USAGE: &str =
    "usage: duo-e2e-bench --workload <serve_steady|gallery_churn> [--seed N] [--seconds S] [--trace 0|1]";

type BoxError = Box<dyn std::error::Error>;

#[derive(Debug)]
struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut spec, mut seed, mut seconds, mut trace) = (None, 1, DEFAULT_SECONDS, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                spec = Some(spec::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{}: benchmark failed: {e}", args.spec.name);
            ExitCode::from(1)
        }
    }
}

/// One round's end-to-end figures. Every round does the same work: the
/// same number of reads at the same rate, the same saturation length and
/// the same attack pairs. `query_p50_ms`, `capacity_qps` and `attack_s`
/// report the best round: other tenants' load on a shared machine only
/// ever costs time, so the least disturbed round is the steadiest
/// estimate of the system's own cost. `publish_p50_ms` is not per round:
/// a round has only a few publishes, so it is the median of all of them.
#[derive(Debug, Clone, Copy)]
struct Round {
    query_p50_ms: f64,
    capacity_qps: f64,
    attack_s: f64,
}

impl Round {
    fn measure(
        queries: &[f64],
        saturation: &Saturation,
        attacks: &Attacks,
    ) -> Result<Round, String> {
        let attack_times: Vec<f64> = attacks.runs.iter().map(|r| r.wall_s).collect();
        Ok(Round {
            query_p50_ms: median(queries).ok_or("a round ran no queries")?,
            capacity_qps: saturation.capacity_qps(),
            attack_s: mean(&attack_times).ok_or_else(|| {
                format!("a round completed no attack: {:?}", attacks.errors.first())
            })?,
        })
    }

    fn json(self) -> Json {
        Json::object(vec![
            ("query_p50_ms".into(), Json::F64(self.query_p50_ms)),
            ("capacity_qps".into(), Json::F64(self.capacity_qps)),
            ("attack_s".into(), Json::F64(self.attack_s)),
        ])
    }
}

fn stats_delta(after: &IndexStats, before: &IndexStats) -> IndexStats {
    IndexStats {
        queries: after.queries - before.queries,
        probed_lists: after.probed_lists - before.probed_lists,
        scanned_rows: after.scanned_rows - before.scanned_rows,
        reranked_rows: after.reranked_rows - before.reranked_rows,
        audit_queries: after.audit_queries - before.audit_queries,
        audit_hits: after.audit_hits - before.audit_hits,
        audit_expected: after.audit_expected - before.audit_expected,
    }
}

fn stats_sum(a: &IndexStats, b: &IndexStats) -> IndexStats {
    IndexStats {
        queries: a.queries + b.queries,
        probed_lists: a.probed_lists + b.probed_lists,
        scanned_rows: a.scanned_rows + b.scanned_rows,
        reranked_rows: a.reranked_rows + b.reranked_rows,
        audit_queries: a.audit_queries + b.audit_queries,
        audit_hits: a.audit_hits + b.audit_hits,
        audit_expected: a.audit_expected + b.audit_expected,
    }
}

fn ops_json(ops: &Ops) -> Json {
    Json::object(vec![
        ("sent".into(), Json::Int(i128::from(ops.sent))),
        ("succeeded".into(), Json::Int(i128::from(ops.succeeded))),
        ("failed".into(), Json::Int(i128::from(ops.failed))),
    ])
}

/// Nanoseconds to record one span, from a calibration loop.
fn span_cost_ns() -> f64 {
    const N: u64 = 20_000;
    let tracer = Tracer::new(true);
    let start = Instant::now();
    for i in 0..N {
        tracer.span("calibrate", None, i, |_| ());
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

/// Fingerprint of every attack's outcome: equal across runs of one seed.
fn attack_digest(scores: &[AttackScore]) -> String {
    let mut hash = report::Fnv::default();
    for s in scores {
        for word in [
            u64::from(s.pair.0.class),
            u64::from(s.pair.0.instance),
            u64::from(s.pair.1.class),
            u64::from(s.pair.1.instance),
            s.queries,
            u64::from(s.ap_at_m.to_bits()),
            s.spa as u64,
        ] {
            hash.eat(&word.to_le_bytes());
        }
    }
    hash.hex()
}

/// Runs one workload end to end; `Ok(correct)`.
fn run(args: &Args) -> Result<bool, BoxError> {
    let spec = args.spec;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sizes = spec.sizes(args.seconds);
    let tracer = Tracer::new(args.trace);

    let mut splits = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous instance first so set-ups never overlap in memory.
        drop(prepared.take());
        let p = setup::prepare(spec, sizes, args.seed, nproc)?;
        splits.push(p.split);
        prepared = Some(p);
    }
    let p = prepared.expect("SETUP_REPS > 0");

    // ---- Timed window: ROUNDS rounds of open, saturation, attack -----
    let before = p.service.system().index_breakdown();
    let (mut open, mut saturation, mut attacks) = Default::default();
    let (mut saturation_mismatches, mut saturation_checked) = (Vec::new(), 0);
    // Index counters of the benchmark's own serial-oracle searches, kept
    // out of the window's per-layer counters.
    let mut own_searches = IndexStats::default();
    let mut rounds = Vec::with_capacity(spec::ROUNDS);
    for round in 0..spec::ROUNDS {
        let round_open = phases::open(&p, &p.schedules[round], &tracer, nproc);
        // The serial answers for the still gallery, computed between phases.
        let pass_before = p.service.system().index_breakdown().total;
        let expected = p
            .pool_quantized
            .iter()
            .map(|v| p.service.system().retrieve(v))
            .collect::<Result<Vec<_>, _>>()?;
        let pass = stats_delta(&p.service.system().index_breakdown().total, &pass_before);
        own_searches = stats_sum(&own_searches, &pass);
        let length = Duration::from_millis(sizes.saturation_ms);
        let round_seed = args.seed ^ round as u64;
        let round_saturation = phases::saturation(&p, &tracer, nproc, length, round_seed);
        saturation_mismatches.extend(checks::against_serial(
            &round_saturation.replies,
            &expected,
            round,
        ));
        saturation_checked += round_saturation.replies.len();
        let round_attacks = phases::attacks(&p, &tracer, args.seed);
        rounds.push(Round::measure(
            &round_open.reads.latencies_ms,
            &round_saturation,
            &round_attacks,
        )?);
        Open::absorb(&mut open, round_open);
        Saturation::absorb(&mut saturation, round_saturation);
        Attacks::absorb(&mut attacks, round_attacks);
    }
    // ---- End of window: read counters before checks and replay -------
    let served = p.service.stats();
    let after = p.service.system().index_breakdown();
    let index = stats_delta(&stats_delta(&after.total, &before.total), &own_searches);
    let audited_recall =
        (index.audit_expected > 0).then(|| index.audit_hits as f64 / index.audit_expected as f64);

    let (checks, scores) = checks::run(
        spec,
        &p,
        &open,
        &saturation,
        saturation_mismatches,
        saturation_checked,
        &attacks,
        audited_recall,
    )?;
    let correct = checks.iter().all(|c| c.passed);
    let replay = if args.trace {
        Some(replay::run(
            &p,
            &tracer,
            f64::from(served.mean_batch),
            nproc,
        )?)
    } else {
        None
    };

    // ---- Metrics -----------------------------------------------------
    let query_samples = &open.reads.latencies_ms;
    let (pooled_pct, pooled_tail) =
        tail(query_samples, 99.0).ok_or("too few query samples for any tail percentile")?;
    let best_round = |f: fn(&Round) -> f64, better: fn(f64, f64) -> f64| {
        rounds.iter().map(f).reduce(better).expect("ROUNDS > 0")
    };
    let query_p50 = best_round(|r| r.query_p50_ms, f64::min);
    let attack_s = best_round(|r| r.attack_s, f64::min);
    let setup_median = |f: fn(&setup::Split) -> f64| {
        median(&splits.iter().map(f).collect::<Vec<_>>()).expect("SETUP_REPS > 0")
    };
    let peak_rss = report::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;

    let mut all_ops = Ops::default();
    for ops in [
        &open.reads,
        &open.writes,
        &open.rebalances,
        &saturation.ops,
        &attacks.oracle,
    ] {
        all_ops.absorb(ops);
    }
    let attempted = all_ops.sent + attacks.errors.len() as u64;
    let failed = all_ops.failed + attacks.errors.len() as u64;

    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics: Vec<Metric> = match &replay {
        None => vec![
            metric("setup_s", setup_median(|s| s.total_s), "s"),
            metric("query_p50_ms", query_p50, "ms"),
            metric(
                "capacity_qps",
                best_round(|r| r.capacity_qps, f64::max),
                "queries/s",
            ),
            metric("attack_s", attack_s, "s"),
            metric(
                "publish_p50_ms",
                median(&open.writes.latencies_ms).ok_or("the run made no gallery write")?,
                "ms",
            ),
            metric("peak_rss_mb", peak_rss, "MB"),
        ],
        Some(replay) => {
            let retrievals =
                (index.queries as f64 / p.service.system().nodes().len() as f64).max(1.0);
            let publishes = open.transitions.len().max(1) as f64;
            let dim = p.service.system().backbone().feature_dim();
            let oracle_s: f64 = attacks.runs.iter().map(|r| r.oracle_s).sum();
            let attack_total_s: f64 = attacks.runs.iter().map(|r| r.wall_s).sum();
            let benign = open.clients.iter().chain(&saturation.clients);
            let rejected = served.rejected_budget + served.rejected_rate + served.rejected_overload;
            vec![
                metric(
                    "gen.lag_p99_ms",
                    tail(&open.lags_ms, 99.0).map_or(0.0, |t| t.1),
                    "ms",
                ),
                metric(
                    "serve.call_p50_ms",
                    median(&open.calls_ms).unwrap_or(0.0),
                    "ms",
                ),
                metric("serve.mean_batch", f64::from(served.mean_batch), "requests"),
                metric(
                    "serve.max_queue_depth",
                    served.max_queue_depth as f64,
                    "requests",
                ),
                metric("serve.rejected", rejected as f64, "count"),
                metric(
                    "serve.deadline_misses",
                    served.deadline_misses as f64,
                    "count",
                ),
                metric("defenses.sketch_us", replay.sketch_us, "us"),
                metric("defenses.observe_us", replay.observe_us, "us"),
                metric(
                    "defenses.flagged",
                    benign.map(|c| c.defense_flagged).sum::<u64>() as f64,
                    "count",
                ),
                metric(
                    "defenses.throttled",
                    (served.defense_throttled + served.defense_rejected) as f64,
                    "count",
                ),
                metric("models.embed_ms", replay.embed_ms, "ms"),
                metric(
                    "models.embed_batch_ms_per_clip",
                    replay.embed_batch_ms_per_clip,
                    "ms",
                ),
                metric("retrieval.search_ms", replay.search_ms, "ms"),
                metric(
                    "retrieval.shard_search_ms.mean",
                    replay.shard_search_mean_ms,
                    "ms",
                ),
                metric(
                    "retrieval.shard_search_ms.max",
                    replay.shard_search_max_ms,
                    "ms",
                ),
                metric(
                    "retrieval.scanned_rows_per_query",
                    index.scanned_rows as f64 / retrievals,
                    "rows",
                ),
                metric(
                    "retrieval.reranked_rows_per_query",
                    index.reranked_rows as f64 / retrievals,
                    "rows",
                ),
                metric("retrieval.mean_probes", index.mean_probes() as f64, "lists"),
                metric(
                    "retrieval.recall_at_m",
                    audited_recall.unwrap_or(1.0),
                    "ratio",
                ),
                metric(
                    "retrieval.resident_bytes",
                    (after.feature_bytes + after.code_bytes) as f64,
                    "bytes",
                ),
                metric(
                    "retrieval.rebuilt_shards_per_publish",
                    open.transitions
                        .iter()
                        .map(|t| t.rebuilt_shards)
                        .sum::<u64>() as f64
                        / publishes,
                    "shards",
                ),
                metric(
                    "retrieval.staged_bytes_per_publish",
                    (p.gallery_len * dim * 4) as f64,
                    "bytes",
                ),
                metric("attack.transfer_s", replay.transfer_s, "s"),
                metric(
                    "attack.oracle_p50_ms",
                    median(&attacks.oracle.latencies_ms).unwrap_or(0.0),
                    "ms",
                ),
                metric(
                    "attack.oracle_share",
                    oracle_s / attack_total_s.max(f64::MIN_POSITIVE),
                    "ratio",
                ),
                metric(
                    "attack.queries",
                    attacks.runs.iter().map(|r| r.queries).sum::<u64>() as f64,
                    "count",
                ),
                metric("setup.train_s", setup_median(|s| s.train_s), "s"),
                metric("setup.index_s", setup_median(|s| s.index_s), "s"),
                metric("setup.load_s", setup_median(|s| s.load_s), "s"),
                metric("setup.steal_s", setup_median(|s| s.steal_s), "s"),
                metric("setup.inputs_s", setup_median(|s| s.inputs_s), "s"),
                metric("setup.warmup_s", setup_median(|s| s.warmup_s), "s"),
                metric("trace.query_p50_ms", query_p50, "ms"),
                metric("trace.query_tail_ms", pooled_tail, "ms"),
                metric("trace.attack_s", attack_s, "s"),
                metric("trace.span_cost_ns", span_cost_ns(), "ns"),
                metric("trace.spans", tracer.spans().len() as f64, "count"),
            ]
        }
    };

    // ---- Report ------------------------------------------------------
    let results = report::repo_root().join("e2e_bench").join("results");
    std::fs::create_dir_all(&results)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        spec.name,
        args.seed,
        u8::from(args.trace)
    );
    let mut self_times = Vec::new();
    if args.trace {
        tracer.write_jsonl(&results.join(format!("{stem}-spans.jsonl")))?;
        for (name, t) in trace::self_times(&tracer.spans()) {
            self_times.push((
                name.to_string(),
                Json::object(vec![
                    ("calls".into(), Json::Int(i128::from(t.calls))),
                    ("total_ms".into(), Json::F64(t.total_ms)),
                    ("self_ms".into(), Json::F64(t.self_ms)),
                ]),
            ));
        }
    }
    let digest = attack_digest(&scores);
    let provenance = report::provenance(nproc);
    let scale = setup::scale();
    let report = Json::object(vec![
        ("workload".into(), Json::Str(spec.name.into())),
        ("why".into(), Json::Str(spec.why.into())),
        ("seed".into(), Json::Int(i128::from(args.seed))),
        ("seconds".into(), Json::Int(i128::from(args.seconds))),
        ("trace".into(), Json::Bool(args.trace)),
        ("provenance".into(), provenance.clone()),
        (
            "parameters".into(),
            Json::object(vec![
                ("workload".into(), Json::Str(format!("{spec:?}"))),
                ("sizes".into(), Json::Str(format!("{sizes:?}"))),
                ("read_rate_per_s".into(), Json::F64(spec.read_rate)),
                ("attack_pairs".into(), Json::Int(p.pairs.len() as i128)),
                ("gallery_len".into(), Json::Int(p.gallery_len as i128)),
                (
                    "publish_interval_s".into(),
                    Json::F64(spec.write_interval_s),
                ),
                ("readers".into(), Json::Int(nproc as i128)),
                ("setup_reps".into(), Json::Int(SETUP_REPS as i128)),
                (
                    "serve_config".into(),
                    Json::Str(format!("{:?}", p.service.config())),
                ),
                (
                    "retrieval_config".into(),
                    p.service.system().config().to_json(),
                ),
                ("duo_config".into(), p.duo.to_json()),
                ("steal_config".into(), setup::steal_config().to_json()),
                (
                    "victim".into(),
                    Json::Str(format!("{:?} {:?}", setup::VICTIM, scale.backbone)),
                ),
            ]),
        ),
        (
            "ops".into(),
            Json::object(vec![
                ("open_reads".into(), ops_json(&open.reads)),
                ("open_writes".into(), ops_json(&open.writes)),
                ("open_rebalances".into(), ops_json(&open.rebalances)),
                ("saturation".into(), ops_json(&saturation.ops)),
                ("attack_oracle".into(), ops_json(&attacks.oracle)),
                (
                    "attacks_failed".into(),
                    Json::Int(attacks.errors.len() as i128),
                ),
            ]),
        ),
        (
            "query_samples".into(),
            Json::Int(query_samples.len() as i128),
        ),
        (
            "query_pooled_tail".into(),
            Json::object(vec![
                ("percentile".into(), Json::F64(pooled_pct)),
                ("ms".into(), Json::F64(pooled_tail)),
            ]),
        ),
        (
            "rounds".into(),
            Json::Array(rounds.iter().map(|r| r.json()).collect()),
        ),
        ("metrics".into(), report::metrics_json(&metrics)),
        (
            "checks".into(),
            Json::Array(checks.iter().map(Check::to_json).collect()),
        ),
        (
            "attacks".into(),
            Json::Array(
                scores
                    .iter()
                    .zip(&attacks.runs)
                    .map(|(s, r)| {
                        Json::object(vec![
                            (
                                "v".into(),
                                Json::Str(format!("{}/{}", s.pair.0.class, s.pair.0.instance)),
                            ),
                            (
                                "v_t".into(),
                                Json::Str(format!("{}/{}", s.pair.1.class, s.pair.1.instance)),
                            ),
                            ("queries".into(), Json::Int(i128::from(s.queries))),
                            ("ap_at_m".into(), Json::F32(s.ap_at_m)),
                            ("spa".into(), Json::Int(s.spa as i128)),
                            ("linf".into(), Json::F32(r.linf)),
                            ("wall_s".into(), Json::F64(r.wall_s)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("attack_digest".into(), Json::Str(digest.clone())),
        (
            "setup_splits_s".into(),
            Json::Array(splits.iter().map(|s| Json::F64(s.total_s)).collect()),
        ),
        ("service_stats".into(), served.to_json()),
        ("self_times".into(), Json::Object(self_times)),
    ]);
    let path = results.join(format!("{stem}.json"));
    std::fs::write(&path, format!("{report}\n"))?;

    println!(
        "workload {} (seed {}, {} s, trace {})",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("  provenance {provenance}");
    for (phase, ops) in [
        ("open reads", &open.reads),
        ("open writes", &open.writes),
        ("saturation", &saturation.ops),
        ("attack oracle", &attacks.oracle),
    ] {
        println!(
            "  ops {phase:<14} sent {:>6}  succeeded {:>6}  failed {:>4}",
            ops.sent, ops.succeeded, ops.failed
        );
    }
    for c in &checks {
        println!(
            "  check {:<32} {}  {}",
            c.name,
            if c.passed { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    println!(
        "  pooled query p{pooled_pct} {pooled_tail:.3} ms over {} samples; attack digest {digest}",
        query_samples.len()
    );
    for m in &metrics {
        println!("  {:<38} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("  report {}", path.display());
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "gallery_churn",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.spec.name, a.seed, a.seconds, a.trace),
            ("gallery_churn", 7, 12, true)
        );
        assert!(args(&["--seed", "7"]).is_err(), "workload is required");
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "serve_steady", "--seed"]).is_err());
        assert!(args(&["--workload", "serve_steady", "--bogus", "1"]).is_err());
    }
}
