//! The hot-path performance gate.
//!
//! Compares a fresh `hotpath` bench run (the JSON the criterion shim writes
//! when `NLHEAT_BENCH_JSON` is set) against the committed
//! `BENCH_hotpath.json` snapshot and fails when a benchmark regressed
//! beyond the tolerance band. Two independent checks:
//!
//! 1. **Within-run pairs** (machine-independent): every optimized path is
//!    held against its retained baseline measured *in the same run*. The
//!    sweep runner on 4 workers must not be slower than on 1 (within
//!    [`SWEEP_SLACK`]). The production kernel's baseline instantiation
//!    must stay at or under [`KERNEL_LIMIT`] × the scalar reference: its
//!    speed *is* its eight independent accumulator chains, and a fall back
//!    to one chain lands at ≈ 0.85 ×, well past the limit. Where the run's
//!    `"vector_level"` says the CPU had AVX2, the level the solvers ran
//!    must in turn stay at or under [`AVX2_LIMIT`] × the baseline
//!    instantiation; on any other run that pair is skipped.
//! 2. **Snapshot band**: every benchmark present in the snapshot must stay
//!    within `NLHEAT_BENCH_TOLERANCE` × its recorded mean (default 1.5 —
//!    wide enough for runner-to-runner variance, tight enough to catch a
//!    2× regression). The halo codec (`halo/*_zerocopy_8x50`,
//!    `halo/bundle_{pack,scatter}_ghost_heavy`) is held by this band
//!    alone: the copying codec and the per-row `memcpy` path it replaced
//!    were deleted, not retained, so there is no same-run baseline to pair
//!    it with — a return to the latter reads ≈ 2.2× on the scatter entry.
//!    Likewise the leaf plans on a 256-SD grid
//!    (`plan/{tree,tree_mu,greedy}_256sd`): ring growth that scans the
//!    grid through a hash set per ring survives only as a `#[cfg(test)]`
//!    oracle, and a return to it reads 9–19×.
//!
//! Usage: `bench_gate <current.json> <snapshot.json>`

use std::process::ExitCode;

/// One parsed benchmark: `group/name` label and mean nanoseconds.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    name: String,
    mean_ns: f64,
}

/// Extract the string value of `"key": "..."` from a record line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extract the numeric value of `"key": N` from a record line.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse the records inside the top-level `"results"` array of the shim's
/// JSON document. Sibling arrays (the snapshot's `seed_results` record of
/// pre-optimization numbers) are ignored.
fn parse_results(doc: &str) -> Vec<Entry> {
    let mut out = Vec::new();
    let mut in_results = false;
    for line in doc.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("\"results\"") {
            in_results = true;
            continue;
        }
        if in_results {
            if trimmed.starts_with(']') {
                break;
            }
            if let (Some(name), Some(mean_ns)) =
                (str_field(trimmed, "name"), num_field(trimmed, "mean_ns"))
            {
                out.push(Entry { name, mean_ns });
            }
        }
    }
    out
}

/// The `"vector_level"` the run's JSON states (the kernel instantiation
/// its `kernel/blocked_*` entries and solvers ran), if any.
fn vector_level(doc: &str) -> Option<String> {
    doc.lines().find_map(|line| str_field(line, "vector_level"))
}

fn lookup<'a>(entries: &'a [Entry], name: &str) -> Option<&'a Entry> {
    entries.iter().find(|e| e.name == name)
}

/// Most the production kernel's baseline instantiation may take relative
/// to the scalar reference in the same run — the SSE2 contract, the same
/// on every machine. Measured 0.26–0.31 (2-vCPU Xeon); the pre-blocking
/// single-chain kernel measured 0.82–0.88.
const KERNEL_LIMIT: f64 = 0.6;

/// Most the kernel at the AVX2 level may take relative to its baseline
/// instantiation in the same run. Measured 0.58–0.61 (same Xeon); 1.0 is
/// a dispatch that no longer reaches the wide instantiation.
const AVX2_LIMIT: f64 = 0.8;

/// Most the sweep runner on 4 workers may take relative to 1 worker in the
/// same run: on a single-core runner the two legs tie, and the slack covers
/// queue and thread-spawn overhead.
const SWEEP_SLACK: f64 = 1.15;

/// The optimized/baseline pairs measured within one run, each with the
/// most its optimized leg may take relative to the baseline. The last
/// field, when set, is the `"vector_level"` the run must report for the
/// pair to be checked at all.
const PAIRS: &[(&str, &str, f64, Option<&str>)] = &[
    (
        "kernel/blocked_baseline_50x50_eps8h",
        "kernel/scalar_50x50_eps8h",
        KERNEL_LIMIT,
        None,
    ),
    (
        "kernel/blocked_baseline_200x200_eps8h",
        "kernel/scalar_200x200_eps8h",
        KERNEL_LIMIT,
        None,
    ),
    (
        "kernel/blocked_50x50_eps8h",
        "kernel/blocked_baseline_50x50_eps8h",
        AVX2_LIMIT,
        Some("avx2"),
    ),
    (
        "kernel/blocked_200x200_eps8h",
        "kernel/blocked_baseline_200x200_eps8h",
        AVX2_LIMIT,
        Some("avx2"),
    ),
    (
        "sweep/quick_grid_16runs_4thr",
        "sweep/quick_grid_16runs_1thr",
        SWEEP_SLACK,
        None,
    ),
];

/// `level` is the run's `"vector_level"`, if its JSON states one.
fn check_pairs(current: &[Entry], level: Option<&str>) -> Vec<String> {
    let mut failures = Vec::new();
    for &(optimized, baseline, limit, needs_level) in PAIRS {
        if needs_level.is_some() && needs_level != level {
            println!(
                "  pair {optimized} / {baseline}: skipped (run at vector level {})",
                level.unwrap_or("unstated")
            );
            continue;
        }
        let (Some(o), Some(b)) = (lookup(current, optimized), lookup(current, baseline)) else {
            failures.push(format!(
                "missing pair {optimized} / {baseline} in current run"
            ));
            continue;
        };
        let ratio = o.mean_ns / b.mean_ns;
        let verdict = if ratio <= limit { "ok" } else { "FAIL" };
        println!(
            "  pair {optimized}: {:.1} µs vs {baseline}: {:.1} µs  (ratio {ratio:.2}, limit {limit:.2}) {verdict}",
            o.mean_ns / 1e3,
            b.mean_ns / 1e3
        );
        if ratio > limit {
            failures.push(format!(
                "{optimized} is {ratio:.2}x its baseline {baseline} (limit {limit:.2}x)"
            ));
        }
    }
    failures
}

fn check_snapshot(current: &[Entry], snapshot: &[Entry], tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for snap in snapshot {
        let Some(cur) = lookup(current, &snap.name) else {
            failures.push(format!("benchmark {} missing from current run", snap.name));
            continue;
        };
        let ratio = cur.mean_ns / snap.mean_ns;
        let verdict = if ratio <= tolerance { "ok" } else { "FAIL" };
        println!(
            "  snap {}: {:.1} µs vs snapshot {:.1} µs  (ratio {ratio:.2}, limit {tolerance:.2}) {verdict}",
            snap.name,
            cur.mean_ns / 1e3,
            snap.mean_ns / 1e3
        );
        if ratio > tolerance {
            failures.push(format!(
                "{} regressed to {ratio:.2}x the snapshot (limit {tolerance:.2}x)",
                snap.name
            ));
        }
    }
    failures
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, current_path, snapshot_path] = &args[..] else {
        eprintln!("usage: bench_gate <current.json> <snapshot.json>");
        return ExitCode::from(2);
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
    };
    let current_doc = read(current_path);
    let current = parse_results(&current_doc);
    let level = vector_level(&current_doc);
    let snapshot = parse_results(&read(snapshot_path));
    assert!(!current.is_empty(), "no results parsed from {current_path}");
    assert!(
        !snapshot.is_empty(),
        "no results parsed from {snapshot_path}"
    );

    let tolerance = std::env::var("NLHEAT_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|f: &f64| *f >= 1.0)
        .unwrap_or(1.5);

    println!("within-run optimized/baseline pairs:");
    let mut failures = check_pairs(&current, level.as_deref());
    println!("current vs committed snapshot:");
    failures.extend(check_snapshot(&current, &snapshot, tolerance));

    if failures.is_empty() {
        println!("bench gate: all checks passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("bench gate: {} failure(s):", failures.len());
        for f in &failures {
            eprintln!("  - {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "vector_level": "avx2",
  "results": [
    {"name": "kernel/scalar_50x50_eps8h", "mean_ns": 1000.5, "iters": 100},
    {"name": "kernel/blocked_baseline_50x50_eps8h", "mean_ns": 500.0, "iters": 100}
  ],
  "seed_results": [
    {"name": "kernel/scalar_50x50_eps8h", "mean_ns": 9999.0, "iters": 3}
  ]
}
"#;

    #[test]
    fn parses_only_the_results_array() {
        let entries = parse_results(DOC);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "kernel/scalar_50x50_eps8h");
        assert!((entries[0].mean_ns - 1000.5).abs() < 1e-9);
        assert!((entries[1].mean_ns - 500.0).abs() < 1e-9);
        assert_eq!(vector_level(DOC).as_deref(), Some("avx2"));
    }

    fn entry(name: &str, mean_ns: f64) -> Entry {
        Entry {
            name: name.into(),
            mean_ns,
        }
    }

    #[test]
    fn pair_check_holds_the_kernel_to_its_own_limit() {
        let fast = parse_results(DOC);
        // only one pair present (at 0.50x); the others report as missing
        let failures = check_pairs(&fast, Some("avx2"));
        assert_eq!(
            failures.len(),
            PAIRS.len() - 1,
            "missing pairs counted: {failures:?}"
        );
        // Faster than the scalar reference is not enough: 0.85x is what a
        // single dependency chain measures.
        let one_chain = vec![
            entry("kernel/scalar_50x50_eps8h", 1000.0),
            entry("kernel/blocked_baseline_50x50_eps8h", 850.0),
        ];
        let failures = check_pairs(&one_chain, None);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("0.85x") && f.contains("limit 0.60x")),
            "{failures:?}"
        );
    }

    #[test]
    fn the_avx2_pairs_are_checked_only_on_a_run_that_had_avx2() {
        // the wide level no faster than the baseline one: a dispatch that
        // lost its wide instantiation
        let lost = vec![
            entry("kernel/blocked_baseline_50x50_eps8h", 100.0),
            entry("kernel/blocked_50x50_eps8h", 100.0),
        ];
        let about_avx2 = |failures: Vec<String>| -> Vec<String> {
            let is_avx2_pair = |f: &String| f.contains("kernel/blocked_50x50_eps8h");
            failures.into_iter().filter(is_avx2_pair).collect()
        };
        let failures = about_avx2(check_pairs(&lost, Some("avx2")));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("limit 0.80x"), "{failures:?}");
        // on a baseline-only CPU the two entries are one code path; and a
        // run that states no level is skipped, not a missing pair
        for level in [Some("baseline"), None] {
            let failures = about_avx2(check_pairs(&lost, level));
            assert!(failures.is_empty(), "{level:?}: {failures:?}");
            let failures = about_avx2(check_pairs(&[], level));
            assert!(failures.is_empty(), "{level:?}: {failures:?}");
        }
    }

    #[test]
    fn pair_check_applies_the_slack_to_the_sweep_pair() {
        let within = vec![
            entry("sweep/quick_grid_16runs_1thr", 100.0),
            entry("sweep/quick_grid_16runs_4thr", 105.0),
        ];
        let failures = check_pairs(&within, None);
        assert!(
            failures.iter().all(|f| f.contains("missing")),
            "{failures:?}"
        );
        let slower = vec![
            entry("sweep/quick_grid_16runs_1thr", 100.0),
            entry("sweep/quick_grid_16runs_4thr", 200.0),
        ];
        let failures = check_pairs(&slower, None);
        assert!(failures.iter().any(|f| f.contains("2.00x")), "{failures:?}");
    }

    #[test]
    fn snapshot_check_applies_tolerance_band() {
        let snap = vec![Entry {
            name: "e2e/x".into(),
            mean_ns: 100.0,
        }];
        let ok = vec![Entry {
            name: "e2e/x".into(),
            mean_ns: 140.0,
        }];
        assert!(check_snapshot(&ok, &snap, 1.5).is_empty());
        let slow = vec![Entry {
            name: "e2e/x".into(),
            mean_ns: 160.0,
        }];
        assert_eq!(check_snapshot(&slow, &snap, 1.5).len(), 1);
        assert_eq!(
            check_snapshot(&[], &snap, 1.5).len(),
            1,
            "missing bench fails"
        );
    }
}
