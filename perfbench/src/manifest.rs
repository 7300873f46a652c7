//! The run manifest: what produced a number and on which host.

use std::process::Command;

/// Host fingerprint entries shared by every workload: core count,
/// compiler and source revision.
pub fn host_entries() -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("nproc".to_string(), nproc.to_string()),
        ("rustc".to_string(), env!("PERFBENCH_RUSTC").to_string()),
        ("git_rev".to_string(), git_rev()),
    ]
}

/// `HEAD` of a git repository rooted at the working directory, or
/// `"unknown"` (an exported source tree has no `.git`).
fn git_rev() -> String {
    Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}
