//! Process and file-system readings.

use std::path::Path;

/// Peak resident set of this process in MiB (`VmHWM` in
/// `/proc/self/status`), or `None` where the kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Restarts the peak-resident-set count from the current resident set, so
/// `peak_rss_mb` covers the measured phase and not the set-up's transients
/// (Linux: writing 5 to `/proc/self/clear_refs`).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `(steal, total)` CPU ticks of the whole machine so far (`/proc/stat`).
/// On a virtual machine, steal is time the host ran something else while
/// this machine's CPUs had work: it slows every figure of a run.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map_while(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Total size in bytes of the regular files at or under `path` (0 when it
/// does not exist).
pub fn disk_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::symlink_metadata(path) else {
        return 0;
    };
    if meta.is_file() {
        return meta.len();
    }
    if !meta.is_dir() {
        return 0;
    }
    std::fs::read_dir(path)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| disk_bytes(&e.path()))
                .sum()
        })
        .unwrap_or(0)
}

/// A run directory the benchmark owns for one run, removed on drop.
#[derive(Debug)]
pub struct RunDir {
    path: std::path::PathBuf,
}

impl RunDir {
    /// Creates `<base>/<name>-<pid>`, emptying any leftover of the same name.
    pub fn new(base: &Path, name: &str) -> std::io::Result<Self> {
        let path = base.join(format!("{name}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(RunDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
