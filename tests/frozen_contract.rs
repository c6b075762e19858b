//! The frozen repo benchmark's legacy names live in the facade alone
//! (`src/frozen.rs`), and its traced leg measures the program its timed
//! leg does.

use nonlocalheat::core::balance::LbSchedule;
use nonlocalheat::core::dist::run_distributed;
use nonlocalheat::core::scenario::{ClusterSpec, LbInput, PartitionSpec, RunReport, Scenario};
use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, build outputs skipped.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source tree") {
        let path = entry.expect("readable entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn crates_name_no_frozen_item_outside_its_forwards() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    files.sort();
    assert!(
        files.iter().any(|f| f.ends_with("crates/core/src/dist.rs")),
        "the scan must see the driver"
    );
    let names = [
        "SharedSolver",
        "SharedConfig",
        "SharedReport",
        "DistReport",
        "mod shared",
        "from_dist",
        "dist_config",
    ];
    let mut found = Vec::new();
    for path in &files {
        let text = fs::read_to_string(path).expect("utf-8 source");
        let rel = path.strip_prefix(root).expect("under the root");
        for line in text.lines().filter(|l| names.iter().any(|n| l.contains(n))) {
            found.push(format!("{}: {}", rel.display(), line.trim()));
        }
    }
    // the two inherent forwards and the identity test, nothing else
    let scenario = "crates/core/src/scenario/mod.rs";
    let allowed = [
        format!("{scenario}: pub fn dist_config(&self) -> &Scenario {{"),
        format!("{scenario}: pub fn from_dist("),
        format!("{scenario}: assert!(std::ptr::eq(sc.dist_config(), &sc));"),
    ];
    assert_eq!(found, allowed);
}

/// Bit patterns of a field, so the comparison is bit for bit.
fn bits(report: &RunReport) -> Vec<u64> {
    let field = report
        .field
        .as_ref()
        .expect("the real runtime reports its field");
    field.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn the_benchmarks_traced_sequence_reports_what_run_dist_does() {
    // two ranks of speeds 1 and 0.5 from a strip start, balanced every two
    // steps on the modeled load, so the plans do not depend on the clock
    let sc = Scenario::square(16, 2.0, 4, 6)
        .on(ClusterSpec::speeds(&[1.0, 0.5]))
        .with_partition(PartitionSpec::Strip)
        .with_lb(LbSchedule::every(2))
        .with_lb_input(LbInput::Modeled);

    // the benchmark's traced leg, call for call
    sc.validate();
    let cluster = sc.build_cluster();
    let cfg = sc.dist_config();
    let dist = run_distributed(&cluster, cfg);
    let (elapsed, migrations, ghost_bytes) = (dist.elapsed, dist.migrations, dist.ghost_bytes);
    let stats = cluster.net_stats();
    let traced =
        RunReport::from_dist(dist, stats.messages(), stats.cross_bytes()).with_scenario_memory(&sc);
    drop(cluster);

    // its timed leg
    let timed = sc.run_dist();

    assert!(timed.migrations > 0, "the slow rank must shed SDs");
    assert_eq!(bits(&traced), bits(&timed));
    assert_eq!(traced.ghost_bytes, timed.ghost_bytes);
    assert_eq!(traced.migrations, timed.migrations);
    assert_eq!(traced.lb_plans, timed.lb_plans);
    let (t, s) = (
        traced.dist_extras().expect("dist extras"),
        timed.dist_extras().expect("dist extras"),
    );
    assert_eq!(
        (t.wire_messages, t.wire_cross_bytes),
        (s.wire_messages, s.wire_cross_bytes)
    );
    // the view reads the report it wraps
    assert_eq!(
        (elapsed, migrations, ghost_bytes),
        (t.elapsed, traced.migrations, traced.ghost_bytes)
    );
}
