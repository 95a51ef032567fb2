//! The host and source identity recorded with every result.

use std::path::Path;

/// Where and from what a result was measured.
pub struct Host {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// Worker threads the rayon pool fans out to.
    pub rayon_threads: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// `HEAD` of the checkout, when it is a git repository.
    pub git_commit: Option<String>,
    /// FNV-1a digest of the sources the benchmark builds from — the
    /// identity of a checkout that carries no git metadata.
    pub source_digest: String,
}

/// Reads the host description (run from the root of the checkout).
pub fn describe() -> Host {
    Host {
        nproc: nproc(),
        rayon_threads: rayon::current_num_threads(),
        cpu: std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".into()),
        rustc: env!("PERFBENCH_RUSTC"),
        git_commit: git_commit(),
        source_digest: format!("{:016x}", source_digest()),
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn git_commit() -> Option<String> {
    // Only a checkout that is itself a repository: git would otherwise
    // search the parent directories and report an unrelated HEAD.
    if !Path::new(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Digest over the path and bytes of every file the benchmark binary is
/// built from, in sorted path order.
fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
        return;
    }
    let Ok(entries) = std::fs::read_dir(path) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        let name = entry.file_name();
        // Build outputs and results are not sources.
        if p.is_dir() && (name == "target" || name == "out") {
            continue;
        }
        collect(&p, out);
    }
}
