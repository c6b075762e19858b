//! Cross-crate integration: the distributed solver must produce exactly
//! the serial solver's numbers under every decomposition, distribution,
//! overlap mode and cluster shape — every run described through the
//! declarative `Scenario` API.

use nonlocalheat::prelude::*;

fn serial_field(n: usize, eps_mult: f64, steps: usize) -> Vec<f64> {
    let parts = ProblemSpec::square(n, eps_mult).build();
    let mut s = SerialSolver::manufactured(&parts);
    s.run(steps);
    s.field()
}

#[test]
fn matrix_of_cluster_shapes() {
    let reference = serial_field(24, 2.0, 5);
    for nodes in [1usize, 2, 3, 4] {
        for cores in [1usize, 2] {
            let report = Scenario::square(24, 2.0, 6, 5)
                .on(ClusterSpec::uniform(nodes, cores))
                .run_dist();
            assert_eq!(
                report.field.as_ref(),
                Some(&reference),
                "mismatch for {nodes} nodes x {cores} cores"
            );
        }
    }
}

#[test]
fn matrix_of_sd_sizes() {
    let reference = serial_field(24, 3.0, 4);
    for sd in [4usize, 6, 8, 12, 24] {
        let report = Scenario::square(24, 3.0, sd, 4)
            .on(ClusterSpec::uniform(2, 1))
            .run_dist();
        assert_eq!(
            report.field.as_ref(),
            Some(&reference),
            "mismatch for sd={sd}"
        );
    }
}

#[test]
fn overlap_and_partition_modes() {
    let reference = serial_field(20, 2.0, 4);
    for overlap in [true, false] {
        for partition in [PartitionSpec::Metis { seed: 7 }, PartitionSpec::Strip] {
            let report = Scenario::square(20, 2.0, 4, 4)
                .on(ClusterSpec::uniform(3, 1))
                .with_overlap(overlap)
                .with_partition(partition.clone())
                .run_dist();
            assert_eq!(
                report.field.as_ref(),
                Some(&reference),
                "mismatch overlap={overlap} partition={partition:?}"
            );
        }
    }
}

#[test]
fn horizon_larger_than_sd() {
    // eps = 6h with 4-cell SDs: ghosts span two SD rings across nodes.
    let reference = serial_field(16, 6.0, 3);
    let report = Scenario::square(16, 6.0, 4, 3)
        .on(ClusterSpec::uniform(4, 1))
        .run_dist();
    assert_eq!(report.field.as_ref(), Some(&reference));
}

#[test]
fn shared_solver_agrees_with_distributed() {
    let dist = Scenario::square(16, 2.0, 4, 5)
        .on(ClusterSpec::uniform(2, 2))
        .run_dist();
    // the shared-memory solver (§8.2): the same driver on one locality
    let shared = Scenario::square(16, 2.0, 4, 5)
        .on(ClusterSpec::uniform(1, 3))
        .run_dist();
    assert!(shared.field.is_some());
    assert_eq!(dist.field, shared.field);
}

#[test]
fn more_nodes_than_sds_leaves_idle_nodes_consistent() {
    // 4 SDs over 6 localities: two localities never own anything.
    let reference = serial_field(16, 2.0, 3);
    let report = Scenario::square(16, 2.0, 8, 3)
        .on(ClusterSpec::uniform(6, 1))
        .run_dist();
    assert_eq!(report.field.as_ref(), Some(&reference));
}

#[test]
fn error_decreases_with_resolution_distributed() {
    // the Fig. 8 property measured through the distributed stack
    let mut totals = Vec::new();
    for n in [8usize, 16, 32] {
        let report = Scenario::square(n, 2.0, n / 4, 6)
            .on(ClusterSpec::uniform(2, 1))
            .with_record_error(true)
            .run_dist();
        totals.push(report.error.unwrap().total());
    }
    assert!(totals[0] > totals[1] && totals[1] > totals[2], "{totals:?}");
}

#[test]
fn repeated_runs_are_deterministic() {
    let run = || {
        Scenario::square(20, 2.0, 5, 5)
            .on(ClusterSpec::uniform(3, 2))
            .run_dist()
            .field
    };
    assert_eq!(run(), run());
}
