//! The frozen repo benchmark's legacy names live in the facade alone
//! (`src/frozen.rs`), the six `DistExtras` fields it reads are read
//! nowhere else, and its traced leg measures the program its timed leg
//! does.

use nonlocalheat::amt::counters::{NETWORK_CROSS_BYTES, NETWORK_MESSAGES};
use nonlocalheat::core::balance::LbSchedule;
use nonlocalheat::core::dist::{run_distributed, DistReport};
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

#[test]
fn no_file_reads_the_frozen_dist_extras_fields() {
    // The benchmark reads these six fields of `DistExtras`; one function
    // fills them from the run's counters and `RunReport::from_dist`
    // overwrites two. Everything else reads counters by name, so the
    // struct goes when the benchmark stops reading it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    assert!(
        files.iter().any(|f| f.ends_with("examples/quickstart.rs")),
        "the scan must see the examples"
    );
    let fields = [
        "elapsed",
        "wire_messages",
        "wire_cross_bytes",
        "pool_steals",
        "pool_steal_fails",
        "pool_parks",
    ];
    // a read is `.field` followed by neither an identifier character nor
    // a call (`Instant::elapsed()` is no read)
    let reads = |line: &str| {
        fields.iter().any(|field| {
            let dotted = format!(".{field}");
            line.match_indices(&dotted).any(|(at, _)| {
                let next = line[at + dotted.len()..].chars().next();
                !next.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '(')
            })
        })
    };
    let mut found = Vec::new();
    for path in &files {
        let text = fs::read_to_string(path).expect("utf-8 source");
        let rel = path.strip_prefix(root).expect("under the root");
        for line in text.lines().filter(|l| reads(l)) {
            found.push(format!("{}: {}", rel.display(), line.trim()));
        }
    }
    // `from_dist` stores the two wire statistics it is handed
    let (m, c) = (fields[1], fields[2]);
    let allowed = [format!(
        "crates/core/src/scenario/mod.rs: (d.{m}, d.{c}) = ({m}, {c});"
    )];
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
    let DistReport {
        elapsed,
        migrations,
        ghost_bytes,
        ..
    } = dist.clone();
    let wrapped = RunReport::from(dist.clone());
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
    for name in [NETWORK_MESSAGES, NETWORK_CROSS_BYTES] {
        assert_eq!(traced.counter(name), timed.counter(name), "{name}");
    }
    // the wire statistics `from_dist` stores are the ones the report's
    // counters filled in
    assert!(traced.dist_extras().is_some());
    assert_eq!(traced.dist_extras(), wrapped.dist_extras());
    // the view reads the report it wraps
    assert_eq!(
        (elapsed.as_secs_f64(), migrations, ghost_bytes),
        (traced.makespan, traced.migrations, traced.ghost_bytes)
    );
}
