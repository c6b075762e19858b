//! Golden simulated clocks: what the discrete-event simulator *times*,
//! pinned across commits as FNV-1a digests of `(makespan bits, per-rank
//! busy bits, ghost_bytes, migrations)`.
//!
//! `tests/plan_golden.rs` pins plans, not clocks, and the repository
//! benchmark's "grid outcomes repeat bit-exactly" digest is computed by
//! the very binary it checks — neither would notice a change to the
//! engine's list scheduler, its sort or its cost arithmetic moving a
//! makespan by one ulp. The constants in [`GOLDEN`] were recorded from a
//! scratch clone of the commit *before* the scheduler lost its heap on
//! one-core nodes and its `total_cmp` sort (PR 21's parent, `274946b`),
//! with this very file dropped into its `tests/`. Every library scenario
//! runs on one-core nodes; the last two rows put the crack scenario on a
//! 2-core and a 4-core cluster so the heap path is pinned beside the
//! one-core fold. After an intended change to simulated time, re-record:
//! the failure message prints the full table.

use nonlocalheat::prelude::*;

/// `(scenario, network / cluster, digest)` recorded at the parent commit.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("paper-baseline", "own net", 0x7adb37b07adcf904),
    ("paper-baseline", "two-rack net", 0x9ff5bb9abf4317fa),
    ("lopsided-two-rack", "own net", 0x454e2e79632de04e),
    ("lopsided-two-rack", "two-rack net", 0x454e2e79632de04e),
    ("propagating-crack", "own net", 0x3a1bb2bacd18237f),
    ("propagating-crack", "two-rack net", 0x53260d30e87c1ebb),
    ("heterogeneous-cluster", "own net", 0x8ec6def8d67001f2),
    ("heterogeneous-cluster", "two-rack net", 0x947c94efcf2ba41d),
    ("incast-duplex", "own net", 0x49bedf80c3df5d18),
    ("incast-duplex", "two-rack net", 0x9318fb26eea56f0b),
    ("memory-pressure", "own net", 0xe22d69a5a1c7f5c6),
    ("memory-pressure", "two-rack net", 0xe22d69a5a1c7f5c6),
    ("cut-drift", "own net", 0xa617bf670d3d3842),
    ("cut-drift", "two-rack net", 0xa617bf670d3d3842),
    ("elastic-scale-out", "own net", 0xf301d8da577e3db6),
    ("elastic-scale-out", "two-rack net", 0xf301d8da577e3db6),
    ("rank-failure", "own net", 0xb2155167e4bd821d),
    ("rank-failure", "two-rack net", 0xb2155167e4bd821d),
    ("propagating-crack", "4 nodes x 2 cores", 0x225a062e956e3ed2),
    ("propagating-crack", "2 nodes x 4 cores", 0x3630dca123deb01a),
];

fn fnv1a(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(report: &RunReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut h, report.makespan.to_bits());
    for busy in &report.busy {
        fnv1a(&mut h, busy.to_bits());
    }
    fnv1a(&mut h, report.ghost_bytes);
    fnv1a(&mut h, report.migrations as u64);
    h
}

#[test]
fn simulated_clocks_match_the_digests_recorded_at_the_parent() {
    let mut cases: Vec<(&str, &str, Scenario)> = Vec::new();
    for (name, sc) in scenarios::all(true) {
        cases.push((name, "own net", sc.clone()));
        cases.push((name, "two-rack net", sc.with_net(scenarios::two_rack_net())));
    }
    let crack = scenarios::propagating_crack(true).with_net(scenarios::two_rack_net());
    for (cluster, nodes, cores) in [("4 nodes x 2 cores", 4, 2), ("2 nodes x 4 cores", 2, 4)] {
        let sc = crack.clone().on(ClusterSpec::uniform(nodes, cores));
        cases.push(("propagating-crack", cluster, sc));
    }
    let actual: Vec<(&str, &str, u64)> = cases
        .iter()
        .map(|(name, leg, sc)| (*name, *leg, digest(&SimSubstrate.run(sc))))
        .collect();
    let table: String = actual
        .iter()
        .map(|(s, l, d)| format!("    (\"{s}\", \"{l}\", 0x{d:016x}),\n"))
        .collect();
    assert!(
        actual == GOLDEN,
        "simulated clocks moved; if intended, GOLDEN becomes:\n{table}"
    );
}
