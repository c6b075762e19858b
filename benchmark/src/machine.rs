//! What the numbers were measured on: recorded in every result file.

use crate::json::Json;
use std::process::{Command, Stdio};

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process so far, in MB (`VmHWM`); `None` off
/// Linux or when `/proc` is unreadable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of `program args…`'s standard output, or `"unknown"` when
/// the program is missing or fails (a source checkout outside git has no
/// commit to report).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The machine record of a result file.
pub fn record() -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::str(cpu_model())),
        ("rustc", Json::str(first_line_of("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_has_every_field_and_rss_is_positive() {
        let r = record();
        for key in ["nproc", "cpu_model", "rustc", "git_commit"] {
            assert!(r.get(key).is_some(), "{key}");
        }
        assert!(nproc() >= 1);
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
        assert_eq!(first_line_of("definitely-not-a-program", &[]), "unknown");
    }
}
