//! `benchmark run`: every workload, one process each (so `peak_rss_mb` is
//! the workload's own), gathered into one result document with the
//! machine record.

use crate::json::{self, Json};
use crate::machine;
use crate::metrics::WORKLOADS;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

pub struct SuiteOpts {
    /// Workloads to run; empty means all.
    pub workloads: Vec<String>,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Also run every workload traced and write the merged Chrome trace here.
    pub trace: Option<PathBuf>,
    /// Where to write the result document; standard output when absent.
    pub out: Option<PathBuf>,
}

/// The `{"detail": …}` object and the result line of a finished child.
struct ChildOutput {
    detail: Json,
    result: Json,
}

fn run_child(
    opts: &SuiteOpts,
    workload: &str,
    trace_part: Option<&Path>,
) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace_part.is_some() { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    if let Some(part) = trace_part {
        cmd.arg("--trace-file").arg(part);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    if !out.status.success() {
        print!("{text}");
        return Err(format!("{workload} exited with {}", out.status));
    }
    let result = lines
        .pop()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    let detail = lines
        .pop()
        .ok_or_else(|| format!("{workload} printed no detail line"))?;
    for line in lines {
        println!("{line}");
    }
    let detail = json::parse(detail).map_err(|e| format!("{workload} detail line: {e}"))?;
    Ok(ChildOutput {
        detail: detail
            .get("detail")
            .cloned()
            .ok_or_else(|| format!("{workload} detail line has no detail"))?,
        result: json::parse(result).map_err(|e| format!("{workload} result line: {e}"))?,
    })
}

/// Merge the children's Chrome traces into one document, one process row
/// per workload.
fn merge_traces(parts: &[(String, PathBuf)], into: &Path) -> Result<(), String> {
    let mut events = Vec::new();
    for (pid, (workload, part)) in parts.iter().enumerate() {
        let text = std::fs::read_to_string(part)
            .map_err(|e| format!("cannot read trace part {}: {e}", part.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("trace part {}: {e}", part.display()))?;
        let pid = Json::Num(pid as f64 + 1.0);
        events.push(Json::obj([
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", pid.clone()),
            ("args", Json::obj([("name", Json::str(workload.as_str()))])),
        ]));
        for event in doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .unwrap_or(&[])
        {
            let Json::Obj(mut members) = event.clone() else {
                continue;
            };
            for (key, value) in &mut members {
                if key == "pid" {
                    *value = pid.clone();
                }
            }
            events.push(Json::Obj(members));
        }
        // the part was only a hand-over file
        let _ = std::fs::remove_file(part);
    }
    let doc = Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ]);
    std::fs::write(into, doc.to_string())
        .map_err(|e| format!("cannot write trace {}: {e}", into.display()))
}

pub fn run(opts: &SuiteOpts) -> Result<i32, String> {
    let names: Vec<&str> = if opts.workloads.is_empty() {
        WORKLOADS.iter().map(|w| w.0).collect()
    } else {
        opts.workloads.iter().map(String::as_str).collect()
    };
    let mut workloads = Vec::new();
    let mut trace_parts = Vec::new();
    let mut all_correct = true;
    for name in names {
        let untraced = run_child(opts, name, None)?;
        all_correct &= untraced.result.get("correct").and_then(Json::as_bool) == Some(true);
        let Json::Obj(mut entry) = untraced.detail else {
            return Err(format!("{name}: detail is not an object"));
        };
        if let Some(trace) = &opts.trace {
            let part = PathBuf::from(format!("{}.{name}.part", trace.display()));
            let traced = run_child(opts, name, Some(&part))?;
            all_correct &= traced.result.get("correct").and_then(Json::as_bool) == Some(true);
            entry.retain(|(key, _)| key != "per_layer");
            entry.push((
                "per_layer".into(),
                traced
                    .detail
                    .get("per_layer")
                    .cloned()
                    .unwrap_or(Json::Null),
            ));
            trace_parts.push((name.to_string(), part));
        }
        workloads.push((name.to_string(), Json::Obj(entry)));
    }
    if let Some(trace) = &opts.trace {
        merge_traces(&trace_parts, trace)?;
        println!(
            "trace written to {} (open in https://ui.perfetto.dev)",
            trace.display()
        );
    }
    let doc = Json::obj([
        ("schema", Json::Num(1.0)),
        ("smoke", Json::Bool(opts.smoke)),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("machine", machine::record()),
        ("workloads", Json::Obj(workloads)),
    ]);
    match &opts.out {
        Some(path) => {
            std::fs::write(path, format!("{doc}\n"))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("results written to {}", path.display());
        }
        None => println!("{doc}"),
    }
    Ok(if all_correct { 0 } else { 1 })
}
