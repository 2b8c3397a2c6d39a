//! Where a result came from: source, compiler, host and run settings.

use std::path::{Path, PathBuf};
use std::process::Command;

use odx::proto::Json;

use crate::digest::Digest;

/// The repository root the benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark sits in the repo").to_owned()
}

/// The run settings a result depends on.
pub struct RunSettings<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds asked for.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Workload scale.
    pub scale: f64,
    /// Scenario preset.
    pub preset: &'a str,
    /// Scheduler in effect.
    pub scheduler: &'a str,
    /// Cache policy in effect.
    pub cache_policy: &'a str,
}

/// The provenance block stamped on every result.
pub fn collect(run: &RunSettings<'_>) -> Json {
    let root = repo_root();
    let started = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    // The git rev names the source; a checkout without git history is
    // named by a digest of its files instead.
    let source = match git_rev(&root) {
        Some(rev) => ("git_rev", rev),
        None => ("source_digest", source_digest(&root)),
    };
    Json::obj([
        (source.0, Json::Str(source.1)),
        ("rustc", Json::Str(env!("ODXBENCH_RUSTC").to_owned())),
        ("cpu", Json::Str(cpu_model())),
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64)),
        ("workload", Json::Str(run.workload.to_owned())),
        ("seed", Json::Num(run.seed as f64)),
        ("seconds", Json::Num(run.seconds as f64)),
        ("trace", Json::Bool(run.trace)),
        ("scale", Json::Num(run.scale)),
        ("preset", Json::Str(run.preset.to_owned())),
        ("scheduler", Json::Str(run.scheduler.to_owned())),
        ("cache_policy", Json::Str(run.cache_policy.to_owned())),
        ("started_unix", Json::Num(started as f64)),
    ])
}

/// `git rev-parse HEAD` of the root; `None` outside a git checkout.
fn git_rev(root: &Path) -> Option<String> {
    if !root.join(".git").exists() {
        // Without this check git would report an enclosing repository.
        return None;
    }
    Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Digest over the workspace manifests and every file under `crates/`
/// and `vendor/`, by sorted path: identifies the measured source even
/// where there is no git history.
fn source_digest(root: &Path) -> String {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "vendor"] {
        collect_files(&root.join(dir), &mut files);
    }
    files.sort();
    let mut digest = Digest::new();
    for file in &files {
        let Ok(bytes) = std::fs::read(file) else { continue };
        digest.section(file.strip_prefix(root).unwrap_or(file).to_string_lossy().as_bytes());
        digest.section(&bytes);
    }
    digest.hex()
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// The first `model name` in `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
