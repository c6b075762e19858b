//! The fracture-model motivation of §7: SDs containing the crack do less
//! bond work than intact SDs, so a static distribution goes idle around
//! the crack. Algorithm 1 rebalances using only busy-time counters — it
//! needs no knowledge of where the crack is.
//!
//! One declarative [`Scenario`] describes the workload; the simulator
//! quantifies the win at paper scale and the real runtime executes the
//! same crack (bit-exact numerics) at smoke scale.
//!
//! ```text
//! cargo run --release --example crack_workload
//! ```

use nonlocalheat::prelude::*;

fn main() {
    // A horizontal "crack" band across the middle of the domain: the SDs
    // it touches only do a quarter of the bond work. Strip distribution
    // deliberately gives one node the whole cheap band.
    let scenario = Scenario::square(400, 8.0, 25, 40)
        .on(ClusterSpec::uniform(4, 1))
        .with_partition(PartitionSpec::Strip)
        .with_work(WorkModel::Crack {
            y_cell: 200,
            half_width: 30,
            factor: 0.25,
        });

    let off = scenario.clone().run_sim();
    let on = scenario.clone().with_lb(LbSchedule::every(4)).run_sim();

    let fractions = |r: &RunReport| {
        r.sim_extras()
            .map(|s| {
                s.busy_fraction
                    .iter()
                    .map(|f| format!("{f:.2}"))
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default()
    };
    println!("== crack workload: 400x400 mesh, 16x16 SDs, 4 symmetric nodes ==");
    println!("crack band: cells y in [170, 230], work factor 0.25");
    println!(
        "makespan without LB: {:.2} ms  busy fractions {:?}",
        off.makespan * 1e3,
        fractions(&off)
    );
    println!(
        "makespan with LB:    {:.2} ms  busy fractions {:?}",
        on.makespan * 1e3,
        fractions(&on)
    );
    println!(
        "speedup: {:.2}x with {} SD migrations",
        off.makespan / on.makespan,
        on.migrations
    );
    // virtual time is deterministic: balancing must pay for itself here
    assert!(
        on.makespan < off.makespan,
        "LB must shorten the simulated crack run: {} vs {} s",
        on.makespan,
        off.makespan
    );
    println!("\nfinal ownership (node ids; crack band rows own more SDs):");
    println!("{}", on.final_ownership.render());
    for (node, count) in on.final_ownership.counts().iter().enumerate() {
        println!("node {node}: {count} SDs");
    }

    // The same experiment shape on the real runtime at smoke scale: the
    // crack is emulated by kernel repetition, so the solution matches the
    // serial solver bit for bit while the balancer chases the band.
    let real = Scenario::square(48, 2.0, 8, 12)
        .on(ClusterSpec::uniform(4, 1))
        .with_partition(PartitionSpec::Strip)
        .with_work(WorkModel::Crack {
            y_cell: 24,
            half_width: 4,
            factor: 0.25,
        })
        .with_lb(LbSchedule::every(3))
        .run_dist();
    println!(
        "\nreal runtime (48x48 smoke): {} migrations, final counts {:?}",
        real.migrations,
        real.final_ownership.counts()
    );
}
