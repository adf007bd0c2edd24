//! A small statistics-reporting bench runner.
//!
//! The bench targets in `benches/` time whole experiment paths at smoke
//! scale; this runner gives them warmup, a fixed sample count, and
//! robust summary statistics (median and p95 rather than plain means)
//! without any external harness. The surface deliberately mirrors the
//! criterion subset the targets were written against:
//!
//! ```no_run
//! use duo_bench::{bench_group, bench_main, Runner};
//! use std::hint::black_box;
//!
//! fn bench_sum(c: &mut Runner) {
//!     let xs: Vec<u64> = (0..1000).collect();
//!     c.bench_function("example/sum_1k", |b| b.iter(|| black_box(xs.iter().sum::<u64>())));
//! }
//!
//! bench_group! {
//!     name = benches;
//!     config = Runner::default().sample_size(20);
//!     targets = bench_sum
//! }
//! bench_main!(benches);
//! ```
//!
//! Passing a positional argument to the bench binary (`cargo bench --
//! table2`) filters benchmarks by substring. Setting `DUO_BENCH_JSON` to
//! a path writes all results there as a JSON array (via
//! [`duo_tensor::ToJson`]) for dashboards and regression tracking.

use duo_tensor::{Json, ToJson};
use std::hint::black_box;
use std::time::Instant;

/// Collects timing samples for one benchmark; handed to the closure
/// passed to [`Runner::bench_function`].
pub struct Bencher {
    warmup_iters: usize,
    samples: usize,
    times_s: Vec<f64>,
}

impl Bencher {
    /// Times `routine` once per sample after running the warmup
    /// iterations untimed. The routine's result is passed through
    /// [`black_box`] so the optimizer cannot delete the work.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        for _ in 0..self.warmup_iters {
            black_box(routine());
        }
        self.times_s.reserve(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(routine());
            self.times_s.push(start.elapsed().as_secs_f64());
        }
    }
}

/// Summary statistics for one benchmark, in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name (slash-separated, e.g. `table2/duo_attack_one_pair`).
    pub name: String,
    /// Number of timed samples.
    pub samples: usize,
    /// Fastest sample.
    pub min_s: f64,
    /// Median over samples — the headline number.
    pub median_s: f64,
    /// 95th percentile — the tail the median hides.
    pub p95_s: f64,
    /// Arithmetic mean.
    pub mean_s: f64,
    /// Mean of the middle samples after dropping the fastest and slowest
    /// fifth — the statistic threshold rules compare, immune to the
    /// one-off stalls (page-fault storms, allocator mode switches,
    /// neighbor noise) that poison plain means on shared hosts.
    pub trimmed_mean_s: f64,
    /// Slowest sample.
    pub max_s: f64,
}

duo_tensor::impl_to_json!(struct BenchResult { name, samples, min_s, median_s, p95_s, mean_s, trimmed_mean_s, max_s });

/// Returns the `q`-quantile (0.0–1.0) of an **ascending sorted** slice
/// using the nearest-rank method.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample set");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl BenchResult {
    /// Reduces raw per-sample times to summary statistics.
    ///
    /// # Panics
    ///
    /// Panics when `times_s` is empty (a bench whose closure never called
    /// [`Bencher::iter`]).
    pub fn from_times(name: &str, mut times_s: Vec<f64>) -> Self {
        assert!(!times_s.is_empty(), "bench `{name}` collected no samples");
        times_s.sort_by(f64::total_cmp);
        let samples = times_s.len();
        let trim = samples / 5;
        let mid = &times_s[trim..samples - trim];
        BenchResult {
            name: name.to_string(),
            samples,
            min_s: times_s[0],
            median_s: quantile(&times_s, 0.5),
            p95_s: quantile(&times_s, 0.95),
            mean_s: times_s.iter().sum::<f64>() / samples as f64,
            trimmed_mean_s: mid.iter().sum::<f64>() / mid.len() as f64,
            max_s: times_s[samples - 1],
        }
    }

    fn print(&self) {
        println!(
            "{:<44} median {:>12} p95 {:>12} ({} samples, min {}, max {})",
            self.name,
            format_duration(self.median_s),
            format_duration(self.p95_s),
            self.samples,
            format_duration(self.min_s),
            format_duration(self.max_s),
        );
    }
}

fn format_duration(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// The bench harness: configuration plus accumulated results.
pub struct Runner {
    sample_size: usize,
    warmup_iters: usize,
    filter: Option<String>,
    results: Vec<BenchResult>,
}

impl Default for Runner {
    /// 20 samples with 2 warmup iterations and no filter.
    fn default() -> Self {
        Runner { sample_size: 20, warmup_iters: 2, filter: None, results: Vec::new() }
    }
}

impl Runner {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, samples: usize) -> Self {
        assert!(samples > 0, "sample size must be positive");
        self.sample_size = samples;
        self
    }

    /// Sets the number of untimed warmup iterations per benchmark.
    pub fn warmup_iters(mut self, iters: usize) -> Self {
        self.warmup_iters = iters;
        self
    }

    /// Restricts runs to benchmarks whose name contains `filter`.
    pub fn filter(mut self, filter: impl Into<String>) -> Self {
        self.filter = Some(filter.into());
        self
    }

    /// Adopts a name filter from the process arguments: the first
    /// positional (non-`-`) argument, as passed by `cargo bench -- <f>`.
    /// Harness flags like `--bench` are ignored.
    pub fn apply_cli_args(&mut self) {
        if let Some(f) = std::env::args().skip(1).find(|a| !a.starts_with('-')) {
            self.filter = Some(f);
        }
    }

    /// Where this run writes its `BENCH_<tag>.json`: the canonical
    /// location ([`repo_root_bench_path`]) when every benchmark ran, or
    /// `target/bench-filtered/` under a name filter. A filtered run
    /// records only the entries it selected, and `bench_check` skips a
    /// rule whose entries are all missing, so a filtered artifact in the
    /// canonical place would silently pass the gate it replaced.
    pub fn artifact_path(&self, tag: &str) -> std::path::PathBuf {
        match self.filter {
            None => repo_root_bench_path(tag),
            Some(_) => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../target/bench-filtered")
                .join(format!("BENCH_{tag}.json")),
        }
    }

    /// Whether `name` passes the name filter.
    fn selected(&self, name: &str) -> bool {
        self.filter.as_ref().is_none_or(|f| name.contains(f.as_str()))
    }

    /// Runs one benchmark (unless filtered out) and records its result.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        if !self.selected(name) {
            return self;
        }
        let mut bencher = Bencher {
            warmup_iters: self.warmup_iters,
            samples: self.sample_size,
            times_s: Vec::new(),
        };
        f(&mut bencher);
        let result = BenchResult::from_times(name, bencher.times_s);
        result.print();
        self.results.push(result);
        self
    }

    /// Times benchmarks that are compared with each other, interleaved:
    /// each round takes one sample of every entry, round-robin from a
    /// start that rotates by one per round, so drift in the host's speed
    /// lands on every entry alike instead of on whichever ran last.
    /// `sample(i)` runs one sample of `names[i]`, with any untimed setup
    /// and teardown of its own, and returns the timed part in seconds.
    /// Entries outside the name filter are skipped; results are recorded
    /// in `names` order.
    pub fn bench_interleaved(
        &mut self,
        names: &[&str],
        mut sample: impl FnMut(usize) -> f64,
    ) -> &mut Self {
        let entries: Vec<usize> = (0..names.len()).filter(|&i| self.selected(names[i])).collect();
        let mut times_s = vec![Vec::with_capacity(self.sample_size); names.len()];
        for round in 0..self.warmup_iters + self.sample_size {
            for k in 0..entries.len() {
                let entry = entries[(round + k) % entries.len()];
                let t = sample(entry);
                if round >= self.warmup_iters {
                    times_s[entry].push(t);
                }
            }
        }
        for entry in entries {
            let result = BenchResult::from_times(names[entry], std::mem::take(&mut times_s[entry]));
            result.print();
            self.results.push(result);
        }
        self
    }

    /// The results recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Prints a footer and, when `DUO_BENCH_JSON` names a path, writes all
    /// results there as a JSON array. Called by [`crate::bench_main!`].
    pub fn finish(self) {
        println!("{} benchmark(s) run", self.results.len());
        if let Ok(path) = std::env::var("DUO_BENCH_JSON") {
            let json = Json::Array(self.results.iter().map(ToJson::to_json).collect());
            if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
                eprintln!("failed to write {path}: {e}");
            }
        }
    }
}

/// The canonical location of an emitted bench artifact, where benches
/// write it and the `bench_check` binary looks for it by default:
/// `BENCH_<tag>.json` at the repository root, or under
/// `target/bench-smoke/` when `DUO_SCALE=smoke`
/// ([`duo_experiments::Scale::bench_artifact_path`]).
pub fn repo_root_bench_path(tag: &str) -> std::path::PathBuf {
    duo_experiments::Scale::from_env().bench_artifact_path(tag)
}

/// Writes `results` to `path` as a JSON array of result objects
/// (the same format `DUO_BENCH_JSON` emission uses), creating the
/// directory first if needed.
///
/// # Errors
///
/// Returns any I/O error from the underlying write.
pub fn write_bench_json(
    path: &std::path::Path,
    results: &[BenchResult],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let json = Json::Array(results.iter().map(ToJson::to_json).collect());
    std::fs::write(path, format!("{json}\n"))
}

/// Declares a bench group: a function running each target against a
/// configured [`Runner`]. Mirrors `criterion_group!`.
#[macro_export]
macro_rules! bench_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() -> $crate::Runner {
            let mut runner = $config;
            runner.apply_cli_args();
            $($target(&mut runner);)+
            runner
        }
    };
    (name = $name:ident; targets = $($target:path),+ $(,)?) => {
        $crate::bench_group! {
            name = $name;
            config = $crate::Runner::default();
            targets = $($target),+
        }
    };
}

/// Declares the bench binary's `main`, running each group in order.
/// Mirrors `criterion_main!`.
#[macro_export]
macro_rules! bench_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group().finish();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_uses_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(quantile(&s, 0.5), 5.0);
        assert_eq!(quantile(&s, 0.95), 10.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 10.0);
        assert_eq!(quantile(&[4.0], 0.5), 4.0);
    }

    #[test]
    fn from_times_orders_statistics() {
        let r = BenchResult::from_times("t", vec![3.0, 1.0, 2.0, 10.0]);
        assert_eq!(r.min_s, 1.0);
        assert_eq!(r.max_s, 10.0);
        assert_eq!(r.median_s, 2.0);
        assert_eq!(r.p95_s, 10.0);
        assert_eq!(r.mean_s, 4.0);
        // Under 5 samples nothing is trimmed.
        assert_eq!(r.trimmed_mean_s, 4.0);
        assert_eq!(r.samples, 4);
    }

    #[test]
    fn trimmed_mean_drops_a_fifth_from_each_end() {
        // 10 samples: trim 2 from each end, mean of the middle 6.
        let times: Vec<f64> = vec![100.0, 0.001, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.002, 200.0];
        let r = BenchResult::from_times("t", times);
        assert_eq!(r.trimmed_mean_s, (1.0 + 2.0 + 3.0 + 4.0 + 5.0 + 6.0) / 6.0);
        // The outliers still show up in the untrimmed stats.
        assert_eq!(r.max_s, 200.0);
        assert!(r.mean_s > r.trimmed_mean_s);
    }

    #[test]
    fn runner_collects_requested_sample_count() {
        let mut runner = Runner::default().sample_size(7).warmup_iters(1);
        runner.bench_function("unit/nop", |b| b.iter(|| 1 + 1));
        assert_eq!(runner.results().len(), 1);
        assert_eq!(runner.results()[0].samples, 7);
    }

    #[test]
    fn filter_skips_non_matching_benches() {
        let mut runner = Runner::default().sample_size(1).filter("keep");
        runner.bench_function("unit/keep_me", |b| b.iter(|| ()));
        runner.bench_function("unit/drop_me", |b| b.iter(|| ()));
        assert_eq!(runner.results().len(), 1);
        assert_eq!(runner.results()[0].name, "unit/keep_me");
    }

    #[test]
    fn interleaved_entries_rotate_their_start_and_skip_warmup() {
        let mut runner = Runner::default().sample_size(3).warmup_iters(1);
        let mut order = Vec::new();
        runner.bench_interleaved(&["unit/a", "unit/b", "unit/c"], |i| {
            order.push(i);
            i as f64
        });
        assert_eq!(order, [0, 1, 2, 1, 2, 0, 2, 0, 1, 0, 1, 2]);
        let names: Vec<&str> = runner.results().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["unit/a", "unit/b", "unit/c"]);
        for (i, r) in runner.results().iter().enumerate() {
            assert_eq!((r.samples, r.min_s, r.max_s), (3, i as f64, i as f64));
        }
    }

    #[test]
    fn interleaved_entries_honor_the_filter() {
        let mut runner = Runner::default().sample_size(2).warmup_iters(0).filter("keep");
        let mut order = Vec::new();
        runner.bench_interleaved(&["unit/drop", "unit/keep"], |i| {
            order.push(i);
            0.0
        });
        assert_eq!(order, [1, 1]);
        assert_eq!(runner.results().len(), 1);
        assert_eq!(runner.results()[0].name, "unit/keep");
    }

    #[test]
    fn results_serialize_to_json() {
        let r = BenchResult::from_times("unit/json", vec![0.5]);
        let s = r.to_json().to_string();
        assert!(s.contains("\"name\":\"unit/json\""), "{s}");
        assert!(s.contains("\"median_s\":0.5"), "{s}");
    }

    #[test]
    fn write_bench_json_round_trips_through_validator() {
        let results = vec![
            BenchResult::from_times("unit/alpha", vec![0.25, 0.5, 0.75]),
            BenchResult::from_times("unit/beta", vec![1.0]),
        ];
        let path = std::env::temp_dir().join("duo_bench_writer_test.json");
        write_bench_json(&path, &results).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(crate::validate::validate_bench_json(&text).unwrap(), 2);
    }

    #[test]
    fn repo_root_path_names_the_tagged_artifact() {
        let p = repo_root_bench_path("gemm");
        assert!(p.ends_with("BENCH_gemm.json"), "{}", p.display());
    }

    #[test]
    fn a_filtered_run_never_writes_the_canonical_artifact() {
        let full = Runner::default();
        assert_eq!(full.artifact_path("gemm"), repo_root_bench_path("gemm"));
        let filtered = Runner::default().filter("wgrad");
        let path = filtered.artifact_path("gemm");
        assert!(path.ends_with("target/bench-filtered/BENCH_gemm.json"), "{}", path.display());
        assert_ne!(path, repo_root_bench_path("gemm"));
    }

    #[test]
    fn format_duration_picks_sane_units() {
        assert_eq!(format_duration(2.5), "2.500 s");
        assert_eq!(format_duration(0.0025), "2.500 ms");
        assert_eq!(format_duration(0.0000025), "2.500 µs");
        assert_eq!(format_duration(0.0000000025), "2.5 ns");
    }
}
