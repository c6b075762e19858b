//! Golden simulated clocks: what the discrete-event simulator *times*,
//! pinned across commits as FNV-1a digests of `(makespan bits, per-rank
//! busy bits, ghost_bytes, migrations)`.
//!
//! `tests/plan_golden.rs` pins plans, not clocks, and the repository
//! benchmark's "grid outcomes repeat bit-exactly" digest is computed by
//! the very binary it checks — neither would notice a change to the
//! engine's list scheduler or its cost arithmetic moving a makespan by
//! one ulp. [`GOLDEN`] was re-recorded once, when the engine began
//! charging the driver's own `StepLayout` instead of a step of its own —
//! one arrival per rank-pair bundle instead of one per patch, the
//! driver's work-grouped tasks instead of one per SD and case, one
//! scatter copy per bundle instead of one per ghost cell — which moved
//! every simulated clock by design. Every library scenario runs on
//! one-core nodes; the last two rows put the crack scenario on a 2-core
//! and a 4-core cluster so the choice of core is pinned too. After an
//! intended change to simulated time, re-record: the failure message
//! prints the full table.
//!
//! [`MODELED_GOLDEN`] pins what no clock may move: under
//! `LbInput::Modeled` plans do not depend on time, and the ghost bytes are
//! the bundles' payload by definition. It was recorded from a scratch
//! clone of the commit before that change (`3187a9a`), with this very
//! file dropped into its `tests/`, and passes unmodified on the change.
//!
//! Both tables were re-recorded once more, together, when the LB
//! schedule's first window became one step long: an epoch now follows
//! step 0, so every plan takes effect a step earlier (the ghost bytes of
//! the steps between move with it) and the quick runs gain an epoch (one
//! more planning barrier on every balanced clock, and more moves where a
//! plan converges over several epochs). Only the LB-free `incast-duplex`
//! rows and `paper-baseline`'s modeled rows (a balanced start: no plan)
//! held.

use nonlocalheat::prelude::*;

/// `(scenario, network / cluster, digest)` of the simulated clocks.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("paper-baseline", "own net", 0x5bdf7954a4b7afa0),
    ("paper-baseline", "two-rack net", 0xa3c3a12241ef0c45),
    ("lopsided-two-rack", "own net", 0x4b7df6585b4301be),
    ("lopsided-two-rack", "two-rack net", 0x4b7df6585b4301be),
    ("propagating-crack", "own net", 0x0e391bff4d7091e9),
    ("propagating-crack", "two-rack net", 0xa3260c1fe91a641a),
    ("heterogeneous-cluster", "own net", 0x4f0f3c049bac486e),
    ("heterogeneous-cluster", "two-rack net", 0x3f0279babe73f98f),
    ("incast-duplex", "own net", 0x02d5b0c50a545165),
    ("incast-duplex", "two-rack net", 0x2aaad9405b8554e2),
    ("memory-pressure", "own net", 0x611e82683d55f114),
    ("memory-pressure", "two-rack net", 0x611e82683d55f114),
    ("cut-drift", "own net", 0x69176215288a4db1),
    ("cut-drift", "two-rack net", 0x69176215288a4db1),
    ("elastic-scale-out", "own net", 0xd130793a7d7f1f50),
    ("elastic-scale-out", "two-rack net", 0xd130793a7d7f1f50),
    ("rank-failure", "own net", 0x67572b01675ea989),
    ("rank-failure", "two-rack net", 0x67572b01675ea989),
    ("propagating-crack", "4 nodes x 2 cores", 0x8e9d65a8635da76e),
    ("propagating-crack", "2 nodes x 4 cores", 0x1dbfa5579dad7cac),
];

/// `(scenario, network, digest)` of what the clock must not move: every
/// library scenario planned from `LbInput::Modeled`, digested by
/// [`clock_free_digest`].
const MODELED_GOLDEN: &[(&str, &str, u64)] = &[
    ("paper-baseline", "own net", 0xf6374b4fc9eb05cc),
    ("paper-baseline", "two-rack net", 0xfa0a93a50dd56e2c),
    ("lopsided-two-rack", "own net", 0x6fe7bdad02814026),
    ("lopsided-two-rack", "two-rack net", 0x6fe7bdad02814026),
    ("propagating-crack", "own net", 0x805405f0173bee56),
    ("propagating-crack", "two-rack net", 0x9a2e045e1a992d38),
    ("heterogeneous-cluster", "own net", 0xdaf40e1981135720),
    ("heterogeneous-cluster", "two-rack net", 0xb50acfd757ec53be),
    ("incast-duplex", "own net", 0xc0ca455a34018e45),
    ("incast-duplex", "two-rack net", 0x780763aed4957dee),
    ("memory-pressure", "own net", 0x6dcdef75bb1e5292),
    ("memory-pressure", "two-rack net", 0x6dcdef75bb1e5292),
    ("cut-drift", "own net", 0x1fd04bc182bb5e8d),
    ("cut-drift", "two-rack net", 0x1fd04bc182bb5e8d),
    ("elastic-scale-out", "own net", 0xbc4514234c6527fd),
    ("elastic-scale-out", "two-rack net", 0xbc4514234c6527fd),
    ("rank-failure", "own net", 0x9e7b844948393ba3),
    ("rank-failure", "two-rack net", 0x9e7b844948393ba3),
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

/// FNV-1a over what no clock may move: every realized plan
/// (length-prefixed, so epoch boundaries count), the final owner of every
/// SD, the ghost and inter-rack ghost bytes, and the migration count.
fn clock_free_digest(report: &RunReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for plan in &report.lb_plans {
        fnv1a(&mut h, plan.len() as u64);
        for m in plan {
            fnv1a(&mut h, u64::from(m.sd));
            fnv1a(&mut h, u64::from(m.from));
            fnv1a(&mut h, u64::from(m.to));
        }
    }
    for &o in report.final_ownership.owners() {
        fnv1a(&mut h, u64::from(o));
    }
    fnv1a(&mut h, report.ghost_bytes);
    fnv1a(&mut h, report.inter_rack_ghost_bytes);
    fnv1a(&mut h, report.migrations as u64);
    h
}

#[test]
fn modeled_plans_and_bytes_match_the_digests_recorded_at_the_parent() {
    let mut actual: Vec<(&str, &str, u64)> = Vec::new();
    for (name, sc) in scenarios::all(true) {
        let sc = sc.with_lb_input(LbInput::Modeled);
        let two_rack = sc.clone().with_net(scenarios::two_rack_net());
        for (leg, sc) in [("own net", sc), ("two-rack net", two_rack)] {
            actual.push((name, leg, clock_free_digest(&SimSubstrate.run(&sc))));
        }
    }
    let table: String = actual
        .iter()
        .map(|(s, l, d)| format!("    (\"{s}\", \"{l}\", 0x{d:016x}),\n"))
        .collect();
    assert!(
        actual == MODELED_GOLDEN,
        "modeled plans or ghost bytes moved; if intended, MODELED_GOLDEN becomes:\n{table}"
    );
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
