//! Sweeping scenario grids: the fleet-scale experiment harness.
//!
//! One [`ScenarioSweep`] = a base [`Scenario`] × named axes, expanded
//! into the labeled cross product and executed by a multi-threaded
//! worker pool. Results stream as JSONL (stable `run` index, so parallel
//! output canonicalizes by sort) and tabulate into a [`SweepSummary`] —
//! the per-axis-value view the A6–A9 ablation figures are built from.
//!
//! ```text
//! cargo run --release --example scenario_sweep
//! ```

use nonlocalheat::prelude::*;

fn main() {
    // --- a λ × μ grid of ghost-aware tree plans on the two-rack net ---
    // λ prices one-off migration bytes, μ the recurring ghost cut; the
    // grid shows both knobs' traffic/makespan trade-off in one table.
    let base = Scenario::square(200, 8.0, 25, 8)
        .on(ClusterSpec::speeds(&[2.0, 1.0, 2.0, 1.0]))
        .with_partition(PartitionSpec::Strip)
        .with_net(scenarios::two_rack_net());
    let sweep = ScenarioSweep::new(base)
        .axis(Axis::numeric("lambda", &[0.0, 1.0, 4.0], |sc, l| {
            sc.with_lb(LbSchedule::every(2).with_spec(LbSpec::tree(l)))
        }))
        .axis(Axis::numeric("mu", &[0.0, 0.05, 0.25], |mut sc, mu| {
            if let Some(lb) = &mut sc.lb {
                lb.spec = lb.spec.clone().with_mu(mu);
            }
            sc
        }))
        .with_parallelism(4);
    println!(
        "== 3x3 lambda x mu grid, {} runs, worker ceiling {} ==",
        sweep.runs(),
        sweep.parallelism()
    );

    // stream one JSON line per run as it completes...
    let mut sink = JsonlSink::new(Vec::<u8>::new());
    sweep.run(&SimSubstrate, &mut sink);
    let jsonl = String::from_utf8(sink.into_inner()).unwrap();
    println!("\nfirst two JSONL rows (of {}):", sink_rows(&jsonl));
    for line in jsonl.lines().take(2) {
        println!("{line}");
    }

    // ...or collect and tabulate per-axis-value aggregates
    let records = sweep.run_collect(&SimSubstrate);
    println!("\n{}", SweepSummary::from_records(&records).to_markdown());

    // --- the whole named scenario library as one categorical axis ---
    let library = ScenarioSweep::new(scenarios::paper_baseline(true))
        .axis(Axis::scenarios("scenario", scenarios::all(true)))
        .with_parallelism(2);
    let records = library.run_collect(&SimSubstrate);
    println!("\n== quick scenario library on the simulator ==\n");
    println!("{}", SweepSummary::from_records(&records).to_markdown());
}

fn sink_rows(jsonl: &str) -> usize {
    jsonl.lines().count()
}
