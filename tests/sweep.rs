//! Integration pins for the `ScenarioSweep` layer: parallel execution is
//! deterministic in content, the JSONL stream is exactly the collected
//! records, and a sweep produces the same planner-grade measurements on
//! both substrates under modeled planning input.

use nonlocalheat::prelude::*;

/// A small λ × μ grid of ghost-aware tree plans on the two-rack
/// interconnect — every knob the flattened record reports gets exercised
/// (migrations, inter-rack bytes, epochs, final cut).
fn lambda_mu_sweep(parallelism: usize) -> ScenarioSweep {
    let base = Scenario::square(48, 4.0, 8, 6)
        .on(ClusterSpec::speeds(&[2.0, 1.0, 2.0, 1.0]))
        .with_partition(PartitionSpec::Strip)
        .with_net(scenarios::two_rack_net());
    ScenarioSweep::new(base)
        .axis(Axis::numeric("lambda", &[0.0, 1.0], |sc, l| {
            sc.with_lb(LbSchedule::every(2).with_spec(LbSpec::tree(l)))
        }))
        .axis(Axis::numeric("mu", &[0.0, 0.01], |mut sc, mu| {
            if let Some(lb) = &mut sc.lb {
                lb.spec = lb.spec.clone().with_mu(mu);
            }
            sc
        }))
        .with_parallelism(parallelism)
}

fn sorted_jsonl(sweep: &ScenarioSweep) -> Vec<String> {
    let mut sink = JsonlSink::new(Vec::<u8>::new());
    sweep.run(&SimSubstrate, &mut sink);
    let text = String::from_utf8(sink.into_inner()).expect("utf8 jsonl");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines.sort_unstable();
    lines
}

#[test]
fn parallel_sweep_is_deterministic_in_content() {
    // The determinism contract: identical sorted JSONL for any worker
    // count. Only completion order may differ — the stable run index
    // canonicalizes it away.
    let serial = sorted_jsonl(&lambda_mu_sweep(1));
    let parallel = sorted_jsonl(&lambda_mu_sweep(4));
    assert_eq!(serial.len(), 4);
    assert_eq!(
        serial, parallel,
        "sorted JSONL must be byte-identical across parallelism 1 and 4"
    );
}

#[test]
fn jsonl_stream_is_the_collected_records() {
    // Line i of the sorted stream is, byte for byte, the encoding of the
    // record the in-memory collector returns at index i (fewer than ten
    // runs, so sorting the lines sorts them by run index).
    let sweep = lambda_mu_sweep(2);
    let records = sweep.run_collect(&SimSubstrate);
    let lines = sorted_jsonl(&sweep);
    assert_eq!(lines.len(), records.len());
    for (i, (line, record)) in lines.iter().zip(&records).enumerate() {
        assert_eq!(record.index, i);
        assert_eq!(*line, record.to_json_line(), "run {i}");
        assert!(record.makespan.is_finite());
        assert_eq!(record.substrate, "sim");
        assert_eq!(record.axes.len(), 2);
    }
}

#[test]
fn sweep_measurements_agree_across_substrates_under_modeled_input() {
    // The cross-substrate contract lifted to sweep scope: under
    // LbInput::Modeled both substrates plan from the same deterministic
    // busy model, so every plan-derived measurement of every grid cell
    // must match (makespans differ by design — one is simulated, one is
    // wall clock).
    let sweep = |parallelism| {
        let base = scenarios::lopsided_two_rack(true).with_lb_input(LbInput::Modeled);
        ScenarioSweep::new(base)
            .axis(Axis::numeric("lambda", &[0.0, 1.0], |mut sc, l| {
                if let Some(lb) = &mut sc.lb {
                    lb.spec.weights.lambda = l;
                }
                sc
            }))
            .with_parallelism(parallelism)
    };
    let sim = sweep(2).run_collect(&SimSubstrate);
    let dist = sweep(1).run_collect(&DistSubstrate);
    assert_eq!(sim.len(), dist.len());
    let mut saw_migrations = false;
    for (s, d) in sim.iter().zip(&dist) {
        assert_eq!(s.index, d.index);
        assert_eq!(s.axes, d.axes);
        assert_eq!(
            (s.substrate.as_str(), d.substrate.as_str()),
            ("sim", "dist")
        );
        assert_eq!(s.migrations, d.migrations, "run {}", s.index);
        assert_eq!(s.migration_bytes, d.migration_bytes, "run {}", s.index);
        assert_eq!(
            (s.ghost_bytes, s.inter_rack_ghost_bytes),
            (d.ghost_bytes, d.inter_rack_ghost_bytes),
            "run {}",
            s.index
        );
        assert_eq!(s.epochs, d.epochs, "run {}", s.index);
        assert_eq!(
            (s.final_cut_bytes, s.final_inter_rack_cut_bytes),
            (d.final_cut_bytes, d.final_inter_rack_cut_bytes),
            "run {}",
            s.index
        );
        saw_migrations |= s.migrations > 0;
    }
    assert!(saw_migrations, "the lopsided grid must actually rebalance");
}

#[test]
fn summary_tabulates_a_real_sweep() {
    let records = lambda_mu_sweep(2).run_collect(&SimSubstrate);
    let summary = SweepSummary::from_records(&records);
    assert_eq!(summary.total_runs, 4);
    // two values per axis, two axes
    assert_eq!(summary.axis_groups("lambda").len(), 2);
    assert_eq!(summary.axis_groups("mu").len(), 2);
    for group in &summary.groups {
        assert_eq!(group.runs, 2, "2x2 grid: every value covers two runs");
        assert!(group.makespan_min <= group.makespan_mean);
        assert!(group.makespan_mean <= group.makespan_max);
    }
    // λ gates inter-rack migration traffic — visible through the grouped
    // means exactly like in ablation A7
    let inter = |label: &str| {
        summary
            .group("lambda", label)
            .expect("lambda group")
            .inter_rack_migration_bytes_mean
    };
    assert!(
        inter("1") <= inter("0"),
        "λ=1 must not move more inter-rack bytes than λ=0"
    );
}
