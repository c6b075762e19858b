//! Golden plan digests: the absolute plans of runs whose λ and μ gates
//! are live, pinned as FNV-1a digests of `lb_plans` + `final_ownership`.
//!
//! The constants in [`GOLDEN`] were recorded from a scratch clone of the
//! commit *before* the `MoveScore` refactor (PR 14, `57fd47c`), with this
//! very file dropped into its `tests/` — it only uses call shapes both
//! sides of the refactor share. The parity tests run on `NetSpec::Instant`
//! (λ and μ inert) and the byte-identity pins compare a degenerate weight
//! against its absence; this file is what pins a *gated* plan, so a change
//! to the move objective, the settlement loop or the weight plumbing shows
//! up here as a digest mismatch. After an intended behaviour change,
//! re-record: the failure message prints the full table.
//!
//! Two deviations from a naive roster, both so that every digest pins a
//! partially gated plan rather than a frozen or an ungated one:
//! * λ and μ are chosen per scenario (see [`cases`]) — the values where
//!   the gates bite *partially* differ with the modeled busy times;
//! * the adaptive-λ leg wraps `tree(λ)` at the scenario's λ, not a fixed
//!   0.5, which gates both scenarios' plans away entirely. Modeled
//!   planning takes no runtime feedback, so the adaptive legs pin the
//!   decorators' weight plumbing, not their controllers.
//!
//! On the two-rack scenarios the hierarchy is real, so
//! `hierarchical(leaf, λ)` runs the level machinery whatever the leaf; the
//! single-rack case is there to drive the degenerate delegate — the only
//! way to reach the diffusion and greedy-steal λ terms from an `LbSpec`.
//!
//! [`STEERED_GOLDEN`] is the table for the controllers themselves: the
//! same digests under `LbInput::Measured`, where the simulator feeds the
//! policy its migration- and ghost-stall fractions and the adaptive legs
//! plan at a λ/μ they steered — recorded at PR 24's parent (`af8075b`),
//! before the decorator chain became one planner. Its makespan column was
//! re-recorded once, when the simulator began charging the driver's own
//! `StepLayout` (see `tests/sim_golden.rs`); every plan digest stayed the
//! one recorded at `af8075b`.
//!
//! When the LB schedule's first window became one step long (epochs after
//! step 0, then every `period` steps), the quick scenarios' eight steps at
//! period 2 gained a fourth epoch. Six `GOLDEN` rows moved with it — the
//! `tree(λ)`-rooted legs, whose λ-gated plans converge a few SDs per epoch
//! and so use the extra one — and were re-recorded, as was
//! `MONITOR_GOLDEN`'s `cut_drift` row (ten steps: a fifth epoch, which
//! moves SDs) and `STEERED_GOLDEN`'s makespan column (each run pays one
//! more planning barrier). Every other digest, and every steered plan
//! digest, held.

use nonlocalheat::netmodel::{LinkSpec, NetSpec, TopologySpec};
use nonlocalheat::prelude::*;

/// `(scenario, leg, digest)` recorded at the parent commit.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("lopsided_two_rack", "tree(λ)", 0xc683ba4e62390001),
    ("lopsided_two_rack", "tree(λ)+μ", 0x26fe020103cb2a29),
    ("lopsided_two_rack", "diffusion", 0x8b8953994e2d6bcb),
    ("lopsided_two_rack", "diffusion+μ", 0x9494154fae864cf1),
    ("lopsided_two_rack", "greedy", 0x77e0aeaf359bfd60),
    ("lopsided_two_rack", "greedy+μ", 0x6a885eb3210db461),
    ("lopsided_two_rack", "hier(tree,λ)+μ", 0x7e70b3c6ee2852e0),
    ("lopsided_two_rack", "hier(diffusion,λ)", 0x7e70b3c6ee2852e0),
    ("lopsided_two_rack", "adaptive(tree(λ))", 0xc683ba4e62390001),
    (
        "lopsided_two_rack",
        "adaptive_mu(tree(0))",
        0xb964392e7dd68915,
    ),
    (
        "lopsided_two_rack",
        "repartition(tree(0))",
        0x9729afd2ddb52a64,
    ),
    ("memory_pressure", "tree(λ)", 0xba52bbc2c623f74e),
    ("memory_pressure", "tree(λ)+μ", 0xc56dd0d3eecc994e),
    ("memory_pressure", "diffusion", 0xa4224d203b321ee0),
    ("memory_pressure", "diffusion+μ", 0x63b80b2de4b25760),
    ("memory_pressure", "greedy", 0x3c7210694824e788),
    ("memory_pressure", "greedy+μ", 0x9ae8fa72e8e0588c),
    ("memory_pressure", "hier(tree,λ)+μ", 0x9ae8fa72e8e0588c),
    ("memory_pressure", "hier(diffusion,λ)", 0x9ae8fa72e8e0588c),
    ("memory_pressure", "adaptive(tree(λ))", 0xba52bbc2c623f74e),
    (
        "memory_pressure",
        "adaptive_mu(tree(0))",
        0x2d2629ebec551fcb,
    ),
    (
        "memory_pressure",
        "repartition(tree(0))",
        0x2aad36c4d9a51fa0,
    ),
    (
        "lopsided_one_rack",
        "hier(diffusion,λ)+μ",
        0x81ef4d143ad8fb9a,
    ),
    ("lopsided_one_rack", "hier(greedy,λ)+μ", 0xc5c283466e657f56),
];

/// `(scenario, digest)` of the library's three repartition scenarios run
/// with *their own* policies (the drift monitor at threshold 1.15, and the
/// membership-driven replans of a `Join` pair and a `Fail`), recorded at
/// the commit before the fresh partition was memoised (PR 17, `cfd6253`).
/// The digest also folds every epoch's `cut_drift` bits and `replan` flag,
/// so a memo that served a stale partition would move it.
const MONITOR_GOLDEN: &[(&str, u64)] = &[
    ("cut_drift", 0x2c288e7e45de9173),
    ("elastic_scale_out", 0x49b4144c57314e88),
    ("rank_failure", 0x5da500328391d8e9),
];

/// `(scenario, leg, plan digest, makespan bits)` of the steered legs under
/// `LbInput::Measured`.
#[rustfmt::skip]
const STEERED_GOLDEN: &[(&str, &str, u64, u64)] = &[
    ("lopsided_two_rack", "adaptive(tree(0.5))", 0x784838806950e381, 0x3f7155232e3e92f3),
    ("lopsided_two_rack", "adaptive_mu(tree(0))", 0x53264556c73ccc17, 0x3f7195247b1ab9a7),
    ("lopsided_two_rack", "adaptive(adaptive_mu(tree(0)))", 0x6a885eb3210db461, 0x3f718312cd14cecd),
    ("lopsided_two_rack", "adaptive(hier(tree(0),0.5))", 0x887a354ff75a416f, 0x3f7184e2a8564ae4),
    ("lopsided_two_rack", "repartition(adaptive_mu(tree(0)))", 0x53264556c73ccc17, 0x3f7195247b1ab9a7),
    ("heterogeneous_two_rack", "adaptive(tree(0.5))", 0x5553702f5c202d2e, 0x3f718b8bc2740bf6),
    ("heterogeneous_two_rack", "adaptive_mu(tree(0))", 0xc0a0b1a6767f83e9, 0x3f75cd7603d713e7),
    ("heterogeneous_two_rack", "adaptive(adaptive_mu(tree(0)))", 0xa2f0ecdf57951345, 0x3f73deaf226ce761),
    ("heterogeneous_two_rack", "adaptive(hier(tree(0),0.5))", 0x5553702f5c202d2e, 0x3f718b8bc2740bf6),
    ("heterogeneous_two_rack", "repartition(adaptive_mu(tree(0)))", 0xc0a0b1a6767f83e9, 0x3f75cd7603d713e7),
];

fn fnv1a(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over every realized plan (length-prefixed, so epoch boundaries
/// count) and the final owner of every SD.
fn digest(report: &RunReport) -> u64 {
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
    h
}

/// [`digest`] plus what the drift monitor reported at every epoch.
fn monitor_digest(report: &RunReport) -> u64 {
    let mut h = digest(report);
    for trace in &report.epoch_traces {
        fnv1a(&mut h, trace.cut_drift.to_bits());
        fnv1a(&mut h, u64::from(trace.replan));
    }
    h
}

/// One roster entry: the spec under test and, for a gated leg, its
/// λ = μ = 0 sibling.
struct Leg {
    name: &'static str,
    spec: LbSpec,
    ungated: Option<LbSpec>,
}

fn leg(name: &'static str, spec: LbSpec, ungated: Option<LbSpec>) -> Leg {
    Leg {
        name,
        spec,
        ungated,
    }
}

/// Every scoring site with both terms live, on a real hierarchy.
fn two_rack_roster(lambda: f64, mu: f64) -> Vec<Leg> {
    let tree0 = LbSpec::tree(0.0);
    let diffusion = LbSpec::diffusion(1.0, 8);
    let greedy = LbSpec::greedy_steal(1);
    vec![
        leg("tree(λ)", LbSpec::tree(lambda), Some(tree0.clone())),
        leg(
            "tree(λ)+μ",
            LbSpec::tree(lambda).with_mu(mu),
            Some(tree0.clone()),
        ),
        leg("diffusion", diffusion.clone(), None),
        leg(
            "diffusion+μ",
            diffusion.clone().with_mu(mu),
            Some(diffusion.clone()),
        ),
        leg("greedy", greedy.clone(), None),
        leg("greedy+μ", greedy.clone().with_mu(mu), Some(greedy)),
        leg(
            "hier(tree,λ)+μ",
            LbSpec::hierarchical(tree0.clone(), lambda).with_mu(mu),
            Some(LbSpec::hierarchical(tree0.clone(), 0.0)),
        ),
        leg(
            "hier(diffusion,λ)",
            LbSpec::hierarchical(diffusion.clone(), lambda),
            Some(LbSpec::hierarchical(diffusion, 0.0)),
        ),
        leg(
            "adaptive(tree(λ))",
            LbSpec::adaptive(LbSpec::tree(lambda), 0.05),
            Some(LbSpec::adaptive(tree0.clone(), 0.05)),
        ),
        leg(
            "adaptive_mu(tree(0))",
            LbSpec::adaptive_mu(tree0.clone(), 0.05),
            None,
        ),
        leg(
            "repartition(tree(0))",
            LbSpec::repartition(tree0, 1.15, 1, u64::MAX),
            None,
        ),
    ]
}

/// The degenerate hierarchy: `hierarchical(leaf, λ)` *is* the leaf at
/// weights (λ, μ).
fn one_rack_roster(lambda: f64, mu: f64) -> Vec<Leg> {
    let diffusion = LbSpec::diffusion(1.0, 8);
    let greedy = LbSpec::greedy_steal(1);
    vec![
        leg(
            "hier(diffusion,λ)+μ",
            LbSpec::hierarchical(diffusion.clone(), lambda).with_mu(mu),
            Some(LbSpec::hierarchical(diffusion, 0.0)),
        ),
        leg(
            "hier(greedy,λ)+μ",
            LbSpec::hierarchical(greedy.clone(), lambda).with_mu(mu),
            Some(LbSpec::hierarchical(greedy, 0.0)),
        ),
    ]
}

/// `(scenario name, scenario, roster)`. λ, μ per scenario: large enough
/// that gated legs differ from their ungated siblings, small enough that
/// none of them plans nothing.
fn cases() -> Vec<(&'static str, Scenario, Vec<Leg>)> {
    // the library's two-rack links with all four ranks in one rack
    let one_rack = NetSpec::Topology(TopologySpec {
        ranks_per_node: 1,
        nodes_per_rack: 4,
        intra_node: LinkSpec::new(1e-7, 5e9),
        intra_rack: LinkSpec::new(1e-4, 1e8),
        inter_rack: LinkSpec::new(4e-4, 2.5e7),
    });
    vec![
        (
            "lopsided_two_rack",
            scenarios::lopsided_two_rack(true),
            two_rack_roster(0.03, 0.005),
        ),
        (
            "memory_pressure",
            scenarios::memory_pressure(true),
            two_rack_roster(0.03, 0.02),
        ),
        (
            "lopsided_one_rack",
            scenarios::lopsided_two_rack(true).with_net(one_rack),
            one_rack_roster(0.03, 0.005),
        ),
    ]
}

fn run(base: &Scenario, spec: &LbSpec) -> RunReport {
    base.clone()
        .with_lb_input(LbInput::Modeled)
        .with_lb(LbSchedule::every(2).with_spec(spec.clone()))
        .run_sim()
}

#[test]
fn gated_plans_match_the_digests_recorded_at_the_parent() {
    let mut actual: Vec<(&str, &str, u64)> = Vec::new();
    for (scenario, base, roster) in cases() {
        for leg in roster {
            let report = run(&base, &leg.spec);
            if let Some(ungated) = &leg.ungated {
                assert!(
                    !report.lb_plans.is_empty(),
                    "{scenario}/{}: the gates froze the plan — the digest would pin nothing",
                    leg.name
                );
                let sibling = run(&base, ungated);
                assert!(
                    report.lb_plans != sibling.lb_plans,
                    "{scenario}/{}: the gates never bit — the digest would pin an ungated plan",
                    leg.name
                );
            }
            actual.push((scenario, leg.name, digest(&report)));
        }
    }
    let table: String = actual
        .iter()
        .map(|(s, l, d)| format!("    (\"{s}\", \"{l}\", 0x{d:016x}),\n"))
        .collect();
    assert!(
        actual == GOLDEN,
        "plan digests moved; if intended, GOLDEN becomes:\n{table}"
    );
}

#[test]
fn repartition_scenarios_match_the_digests_recorded_before_the_memo() {
    let actual: Vec<(&str, u64)> = [
        ("cut_drift", scenarios::cut_drift(true)),
        ("elastic_scale_out", scenarios::elastic_scale_out(true)),
        ("rank_failure", scenarios::rank_failure(true)),
    ]
    .into_iter()
    .map(|(name, sc)| {
        let report = sc.with_lb_input(LbInput::Modeled).run_sim();
        assert!(
            report.epoch_traces.iter().any(|t| t.replan),
            "{name}: no epoch replanned — the digest would pin the inner policy alone"
        );
        (name, monitor_digest(&report))
    })
    .collect();
    let table: String = actual
        .iter()
        .map(|(s, d)| format!("    (\"{s}\", 0x{d:016x}),\n"))
        .collect();
    assert!(
        actual == MONITOR_GOLDEN,
        "repartition digests moved; if intended, MONITOR_GOLDEN becomes:\n{table}"
    );
}

/// The controller legs: `(name, spec, the specs its plans must differ
/// from)` — first the unsteered sibling (the spec minus its `adaptive*`
/// layers), then, for the two-controller leg, both one-controller specs.
/// `tree(0.5)` under both controllers freezes to nothing, hence
/// `tree(0.0)` there.
fn steered_roster() -> Vec<(&'static str, LbSpec, Vec<LbSpec>)> {
    let tree0 = LbSpec::tree(0.0);
    let hier = LbSpec::hierarchical(tree0.clone(), 0.5);
    let lambda = LbSpec::adaptive(LbSpec::tree(0.5), 0.05);
    let mu = LbSpec::adaptive_mu(tree0.clone(), 0.05);
    vec![
        (
            "adaptive(tree(0.5))",
            lambda.clone(),
            vec![LbSpec::tree(0.5)],
        ),
        ("adaptive_mu(tree(0))", mu.clone(), vec![tree0.clone()]),
        (
            "adaptive(adaptive_mu(tree(0)))",
            LbSpec::adaptive(mu.clone(), 0.05),
            vec![tree0.clone(), lambda, mu.clone()],
        ),
        (
            "adaptive(hier(tree(0),0.5))",
            LbSpec::adaptive(hier.clone(), 0.05),
            vec![hier],
        ),
        (
            "repartition(adaptive_mu(tree(0)))",
            LbSpec::repartition(mu, 1.15, 1, u64::MAX),
            vec![LbSpec::repartition(tree0, 1.15, 1, u64::MAX)],
        ),
    ]
}

#[test]
fn steered_plans_match_the_digests_recorded_at_the_parent() {
    let run = |base: &Scenario, spec: &LbSpec| {
        base.clone()
            .with_lb_input(LbInput::Measured)
            .with_lb(LbSchedule::every(2).with_spec(spec.clone()))
            .run_sim()
    };
    let mut actual: Vec<(&str, &str, u64, u64)> = Vec::new();
    for (scenario, base) in [
        ("lopsided_two_rack", scenarios::lopsided_two_rack(true)),
        (
            "heterogeneous_two_rack",
            scenarios::heterogeneous_cluster(true).with_net(scenarios::two_rack_net()),
        ),
    ] {
        for (name, spec, others) in steered_roster() {
            let report = run(&base, &spec);
            assert!(
                !report.lb_plans.is_empty(),
                "{scenario}/{name}: the controller froze the plan — the digest would pin nothing"
            );
            for other in &others {
                assert!(
                    report.lb_plans != run(&base, other).lb_plans,
                    "{scenario}/{name}: plans equal {other:?}'s — the controller never steered"
                );
            }
            actual.push((scenario, name, digest(&report), report.makespan.to_bits()));
        }
    }
    let table: String = actual
        .iter()
        .map(|(s, l, d, m)| format!("    (\"{s}\", \"{l}\", 0x{d:016x}, 0x{m:016x}),\n"))
        .collect();
    assert!(
        actual == STEERED_GOLDEN,
        "steered digests moved; if intended, STEERED_GOLDEN becomes:\n{table}"
    );
}
