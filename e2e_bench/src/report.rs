//! Provenance and metric output.

use duo_tensor::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// Peak resident set size of this process (`VmHWM`), mebibytes.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The checkout's git commit, if it is a git work tree. The search for
/// `.git` stops at the repository root, so a checkout without history
/// never reports an enclosing repository's commit.
fn git_commit(root: &Path) -> Option<String> {
    let ceiling = root.parent().unwrap_or(root);
    command_line(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(root)
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    )
}

/// [`Fnv`] over the path and bytes of every source file the benchmark
/// builds from, in path order: identifies the code measured when the
/// checkout carries no commit.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "target" && name != "results" {
                    walk(&path, out);
                }
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "e2e_bench", ".cargo"] {
        walk(&root.join(dir), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock"].map(|f| root.join(f)));
    files.sort();
    let mut hash = Fnv::default();
    for file in &files {
        hash.eat(
            file.strip_prefix(root)
                .unwrap_or(file)
                .to_string_lossy()
                .as_bytes(),
        );
        hash.eat(&std::fs::read(file).unwrap_or_default());
    }
    format!("{} ({} files)", hash.hex(), files.len())
}

/// 64-bit FNV-1a: a stable fingerprint of files and outcomes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// The hash as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Where the code and the numbers come from.
pub fn provenance(nproc: usize) -> Json {
    let root = repo_root();
    let text = |s: Option<String>| s.map_or(Json::Null, Json::Str);
    Json::object(vec![
        ("commit".into(), text(git_commit(&root))),
        ("source_digest".into(), Json::Str(source_digest(&root))),
        ("nproc".into(), Json::Int(nproc as i128)),
        (
            "rustc".into(),
            text(command_line(Command::new("rustc").arg("--version"))),
        ),
        (
            "os".into(),
            Json::Str(format!(
                "{}-{}",
                std::env::consts::OS,
                std::env::consts::ARCH
            )),
        ),
    ])
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::object(
        metrics
            .iter()
            .map(|m| {
                let body = Json::object(vec![
                    ("value".into(), Json::F64(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]);
                (m.name.to_string(), body)
            })
            .collect(),
    )
}

/// The one-line result the benchmark prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    Json::object(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(i128::from(attempted))),
        ("failed".into(), Json::Int(i128::from(failed))),
        ("metrics".into(), metrics_json(metrics)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(
            true,
            10,
            0,
            &[Metric {
                name: "latency_ms",
                value: 1.25,
                unit: "ms",
            }],
        );
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"latency_ms":{"value":1.25,"unit":"ms"}}}"#
        );
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
