//! Gate on emitted bench artifacts.
//!
//! Two layers, both of which must pass:
//!
//! 1. **Structure** — each `BENCH_*.json` file (default: `BENCH_gemm.json`,
//!    `BENCH_serve.json`, `BENCH_campaign.json`, `BENCH_mutate.json`,
//!    `BENCH_index.json`, and `BENCH_defense.json` at the repo root, or
//!    under `target/bench-smoke/` when `DUO_SCALE=smoke`; or explicit
//!    paths as arguments) exists, parses as JSON, and carries
//!    every required result field (`name`, `samples`, `min_s`,
//!    `median_s`, `p95_s`, `mean_s`, `trimmed_mean_s`, `max_s`).
//! 2. **Performance** — the committed rules in `BENCH_thresholds.txt` at
//!    the repo root (`<name> <= <factor> * <name>` per line, compared on
//!    the trimmed mean) hold across all loaded artifacts. Rules whose
//!    entries are absent on both sides are skipped, so one rule file
//!    serves both the smoke-scale artifacts `scripts/verify.sh` emits
//!    and the committed full-scale ones; a rule matching only one side
//!    fails, because that means names drifted.
//!
//! Exits nonzero with a diagnostic naming the first failure — the
//! malformed artifact, or the regressing bench entry with its measured
//! value and the bound it broke — so `scripts/verify.sh` can treat
//! either as a tier-1 break.

use duo_bench::validate::{
    check_thresholds, parse_threshold_rules, threshold_stats, validate_bench_json,
};
use std::path::PathBuf;

fn main() {
    let args: Vec<PathBuf> = std::env::args().skip(1).map(PathBuf::from).collect();
    let paths = if args.is_empty() {
        vec![
            duo_bench::repo_root_bench_path("gemm"),
            duo_bench::repo_root_bench_path("serve"),
            duo_bench::repo_root_bench_path("campaign"),
            duo_bench::repo_root_bench_path("mutate"),
            duo_bench::repo_root_bench_path("index"),
            duo_bench::repo_root_bench_path("defense"),
        ]
    } else {
        args
    };

    let mut failed = false;
    let mut stats: Vec<(String, f64)> = Vec::new();
    for path in &paths {
        match std::fs::read_to_string(path) {
            Err(e) => {
                eprintln!("bench_check: {}: {e}", path.display());
                failed = true;
            }
            Ok(text) => match validate_bench_json(&text) {
                Ok(count) => {
                    println!("bench_check: {}: ok ({count} results)", path.display());
                    stats.extend(threshold_stats(&text).unwrap_or_default());
                }
                Err(msg) => {
                    eprintln!("bench_check: {}: {msg}", path.display());
                    failed = true;
                }
            },
        }
    }

    let rules_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_thresholds.txt");
    match std::fs::read_to_string(&rules_path) {
        Err(e) => {
            eprintln!("bench_check: {}: {e}", rules_path.display());
            failed = true;
        }
        Ok(text) => match parse_threshold_rules(&text) {
            Err(msg) => {
                eprintln!("bench_check: {}: {msg}", rules_path.display());
                failed = true;
            }
            Ok(rules) => match check_thresholds(&rules, &stats) {
                Ok(checked) => {
                    println!(
                        "bench_check: {}: ok ({checked} of {} rules checked at this scale)",
                        rules_path.display(),
                        rules.len()
                    );
                    if checked == 0 && !rules.is_empty() {
                        eprintln!(
                            "bench_check: no threshold rule matched any bench entry — \
                             rule names and bench names have drifted apart"
                        );
                        failed = true;
                    }
                }
                Err(msg) => {
                    eprintln!("bench_check: {msg}");
                    failed = true;
                }
            },
        },
    }

    if failed {
        std::process::exit(1);
    }
}
