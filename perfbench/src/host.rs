//! Host context recorded with every result, and the `/proc` readers the
//! metrics need. Results are only comparable on one host; the context
//! says which host, code and load a number came from.

use std::path::Path;
use std::process::Command;

/// Where and on what a run was measured.
#[derive(Debug, Clone)]
pub struct HostContext {
    /// `git rev-parse HEAD` of the checkout, or `"unknown"` outside git.
    pub git_rev: String,
    /// FNV-1a digest over the program's sources (`crates/**`, paths and
    /// bytes), which identifies the code where git cannot.
    pub source_digest: String,
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// 1-, 5- and 15-minute load averages when the run started.
    pub loadavg: [f64; 3],
}

impl HostContext {
    /// Captures the context of the checkout rooted at `root`.
    pub fn capture(root: &Path) -> HostContext {
        let git_rev = Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let mut loadavg = [0.0; 3];
        if let Ok(s) = std::fs::read_to_string("/proc/loadavg") {
            for (slot, field) in loadavg.iter_mut().zip(s.split_whitespace()) {
                *slot = field.parse().unwrap_or(0.0);
            }
        }
        HostContext {
            git_rev,
            source_digest: format!("{:016x}", source_digest(&root.join("crates"))),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            loadavg,
        }
    }

    /// The context as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"git_rev\": \"{}\", \"source_digest\": \"{}\", \"nproc\": {}, \"cpu_model\": \"{}\", \"loadavg\": [{}, {}, {}]}}",
            self.git_rev,
            self.source_digest,
            self.nproc,
            self.cpu_model.replace('"', "'"),
            self.loadavg[0],
            self.loadavg[1],
            self.loadavg[2]
        )
    }
}

/// FNV-1a over every file under `dir` (relative path, then bytes), in
/// sorted path order.
fn source_digest(dir: &Path) -> u64 {
    let mut files = Vec::new();
    collect_files(dir, &mut files);
    files.sort();
    let mut h = Fnv::new();
    for f in files {
        if let Ok(rel) = f.strip_prefix(dir) {
            h.write(rel.to_string_lossy().as_bytes());
        }
        if let Ok(bytes) = std::fs::read(&f) {
            h.write(&bytes);
        }
    }
    h.0
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else {
            out.push(p);
        }
    }
}

/// 64-bit FNV-1a, used for digests in run records.
pub struct Fnv(pub u64);

impl Fnv {
    /// The empty-input state.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest of `bytes` alone.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.0
}

/// A `Key: value kB`-style field of `/proc/<pid>/status`.
fn status_field(pid: &str, key: &str) -> Option<u64> {
    let s = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    s.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size (VmHWM) of `pid` (`"self"` for this process),
/// in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    status_field(pid, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Current thread count of `pid`.
pub fn threads(pid: &str) -> Option<u64> {
    status_field(pid, "Threads")
}

/// Bytes `pid` has passed to write-family syscalls (`wchar` of
/// `/proc/<pid>/io`).
pub fn wchar(pid: &str) -> Option<u64> {
    let s = std::fs::read_to_string(format!("/proc/{pid}/io")).ok()?;
    s.lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_readable() {
        assert!(peak_rss_mb("self").is_some_and(|mb| mb > 0.0));
        assert!(threads("self").is_some_and(|t| t >= 1));
    }

    #[test]
    fn fnv_matches_reference_vector() {
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
