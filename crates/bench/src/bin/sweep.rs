//! Sweep smoke runner: drive the `ScenarioSweep` layer end to end.
//!
//! Two stages:
//!
//! 1. **Library grid** — every named library scenario through the parallel
//!    runner (`parallelism = 2`) on *both* substrates, asserting
//!    `RunReport::check_invariants` on every record (the CI `sweep_smoke`
//!    contract), then the `SweepSummary` table.
//! 2. **Throughput grid** — the policy × λ × μ cross product (≥ 48 runs)
//!    on the simulator, executed at `parallelism` 1 and 4. Asserts the
//!    sorted JSONL output is byte-identical across worker counts (the
//!    determinism contract) and prints the measured speedup; the ≥ 2×
//!    assertion only arms on machines that actually have ≥ 4 CPUs (CI
//!    runners do; single-core boxes can't speed up).
//!
//! ```text
//! sweep [--quick]      # quick = toy library sizes (the CI smoke contract)
//! ```

use nlheat_core::balance::{LbSchedule, LbSpec, Leaf};
use nlheat_core::scenario::sweep::{Axis, FnSink, JsonlSink, ScenarioSweep, SweepSummary};
use nlheat_core::scenario::{ClusterSpec, DistSubstrate, PartitionSpec, Scenario};
use nlheat_core::scenarios;
use nlheat_sim::SimSubstrate;
use std::time::Instant;

/// The λ mutator of the throughput grid: set λ where the scheduled policy
/// is the tree planner, leave the diffusion and greedy-steal rows
/// untouched (the grid's records are pinned to that meaning).
fn with_lambda(mut sc: Scenario, lambda: f64) -> Scenario {
    if let Some(lb) = &mut sc.lb {
        if lb.spec.leaf == Leaf::Tree {
            lb.spec.weights.lambda = lambda;
        }
    }
    sc
}

/// The μ mutator: every policy carries μ, so this applies to all of them.
fn with_mu(mut sc: Scenario, mu: f64) -> Scenario {
    if let Some(lb) = &mut sc.lb {
        lb.spec = lb.spec.clone().with_mu(mu);
    }
    sc
}

/// The ≥ 48-run policy × λ × μ quick grid on the A7 two-rack workload.
fn throughput_sweep(parallelism: usize) -> ScenarioSweep {
    let base = Scenario::square(200, 8.0, 25, 8)
        .on(ClusterSpec::speeds(&[2.0, 1.0, 2.0, 1.0]))
        .with_partition(PartitionSpec::Strip)
        .with_net(scenarios::two_rack_net());
    ScenarioSweep::new(base)
        .axis(
            Axis::new("policy")
                .value("tree", 0.0, |sc: Scenario| {
                    sc.with_lb(LbSchedule::every(2).with_spec(LbSpec::tree(0.0)))
                })
                .value("diffusion", 1.0, |sc: Scenario| {
                    sc.with_lb(LbSchedule::every(2).with_spec(LbSpec::diffusion(1.0, 8)))
                })
                .value("greedy-steal", 2.0, |sc: Scenario| {
                    sc.with_lb(LbSchedule::every(2).with_spec(LbSpec::greedy_steal(1)))
                }),
        )
        .axis(Axis::numeric("lambda", &[0.0, 0.5, 1.0, 2.0], with_lambda))
        .axis(Axis::numeric("mu", &[0.0, 0.05, 0.1, 0.25], with_mu))
        .with_parallelism(parallelism)
}

/// Run the throughput grid once, returning (sorted JSONL, best-of-3 secs).
fn timed_jsonl(parallelism: usize) -> (String, f64) {
    let sweep = throughput_sweep(parallelism);
    let mut best = f64::INFINITY;
    let mut sorted = String::new();
    for _ in 0..3 {
        let mut sink = JsonlSink::new(Vec::<u8>::new());
        let t0 = Instant::now();
        sweep.run(&SimSubstrate, &mut sink);
        best = best.min(t0.elapsed().as_secs_f64());
        let text = String::from_utf8(sink.into_inner()).expect("utf8 jsonl");
        let mut lines: Vec<&str> = text.lines().collect();
        lines.sort_unstable();
        sorted = lines.join("\n");
    }
    (sorted, best)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    // stage 1: the named library grid on both substrates, invariants on
    // every record, through the parallel runner
    let mut records = Vec::new();
    for substrate in [
        &SimSubstrate as &(dyn nlheat_core::scenario::Substrate + Sync),
        &DistSubstrate,
    ] {
        let sweep = ScenarioSweep::new(scenarios::paper_baseline(quick))
            .axis(Axis::scenarios("scenario", scenarios::all(quick)))
            .with_parallelism(2);
        let mut sink = FnSink(
            |record: &nlheat_core::scenario::sweep::RunRecord,
             report: &nlheat_core::scenario::RunReport| {
                report.check_invariants();
                records.push(record.clone());
            },
        );
        sweep.run(substrate, &mut sink);
    }
    records.sort_by_key(|r| (r.substrate.clone(), r.index));
    let expected = 2 * scenarios::all(quick).len();
    assert_eq!(
        records.len(),
        expected,
        "every library cell ran on both substrates"
    );
    println!("library grid: {expected} runs, all RunReport invariants hold\n");
    print!("{}", SweepSummary::from_records(&records).to_markdown());

    // stage 2: throughput grid, determinism + speedup across worker counts
    let sweep = throughput_sweep(1);
    let runs = sweep.runs();
    assert!(
        runs >= 48,
        "policy x lambda x mu grid must be >= 48 runs, got {runs}"
    );
    let (jsonl_1thr, secs_1thr) = timed_jsonl(1);
    let (jsonl_4thr, secs_4thr) = timed_jsonl(4);
    assert_eq!(
        jsonl_1thr, jsonl_4thr,
        "sorted JSONL must be byte-identical across worker counts"
    );
    let speedup = secs_1thr / secs_4thr;
    println!(
        "\nthroughput grid: {runs} runs | 1 thread {:.1} ms | 4 threads {:.1} ms | speedup {speedup:.2}x",
        secs_1thr * 1e3,
        secs_4thr * 1e3
    );
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus >= 4 {
        assert!(
            speedup >= 2.0,
            "parallel runner must reach 2x at parallelism=4 on a {cpus}-CPU host, got {speedup:.2}x"
        );
    } else {
        println!("(speedup assertion skipped: only {cpus} CPU(s) available)");
    }
    println!("sweep smoke passed: deterministic content across parallelism 1 and 4");
}
