//! Quickstart: describe one scenario, run it on the real runtime, and
//! validate against the manufactured solution.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use nonlocalheat::amt::counters::{NETWORK_CROSS_BYTES, NETWORK_MESSAGES};
use nonlocalheat::prelude::*;

fn main() {
    // A 64x64 mesh over [0,1]^2 with horizon eps = 4h, decomposed into
    // 8x8-cell sub-domains, on two declared nodes of two cores each —
    // one Scenario value describes the whole experiment.
    let scenario = Scenario::square(64, 4.0, 8, 25)
        .on(ClusterSpec::uniform(2, 2))
        .with_record_error(true);

    println!(
        "mesh 64x64, eps = 4h, 25 timesteps on {} localities",
        scenario.cluster.len()
    );
    let report = scenario.run_dist();

    let error = report.error.as_ref().unwrap();
    println!("elapsed:          {:.3} ms", report.makespan * 1e3);
    println!(
        "total error e:    {:.3e}   (eq. 7 vs manufactured solution)",
        error.total()
    );
    println!("max step error:   {:.3e}", error.max_step());
    println!(
        "busy time (ms):   {:?}",
        report.busy.iter().map(|&s| s * 1e3).collect::<Vec<_>>()
    );
    // every count of a real run is a registry counter, read by name
    let count = |name| report.counter(name).expect("a cluster counter");
    println!(
        "ghost traffic:    {} messages, {} bytes crossed the wire",
        count(NETWORK_MESSAGES),
        count(NETWORK_CROSS_BYTES)
    );

    // Cross-check against the single-threaded reference solver: the
    // distributed result is bit-for-bit identical.
    let parts = scenario.problem.build();
    let mut serial = SerialSolver::manufactured(&parts);
    serial.run(scenario.steps);
    assert_eq!(
        report.field.as_deref(),
        Some(serial.field().as_slice()),
        "distributed == serial"
    );
    println!("distributed field matches the serial solver bit-for-bit ✓");

    // The same scenario through the discrete-event simulator: no field,
    // but the timing shape of the run in virtual seconds.
    let sim = scenario.run_sim();
    println!(
        "simulator makespan: {:.3} ms over {} nodes",
        sim.makespan * 1e3,
        sim.busy.len()
    );
}
