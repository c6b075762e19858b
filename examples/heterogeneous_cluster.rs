//! Heterogeneous cluster: four localities with different compute speeds.
//!
//! One declarative [`Scenario`] drives **both** substrates: the real AMT
//! runtime shows Algorithm 1 migrating SDs (bit-exact numerics), and the
//! discrete-event simulator quantifies the makespan win at paper scale.
//! Everything below — network models, the λ and μ knobs, the policy
//! duel — swaps one field of the scenario and reruns.
//!
//! ```text
//! cargo run --release --example heterogeneous_cluster
//! ```

use nonlocalheat::amt::counters::NETWORK_MESSAGES;
use nonlocalheat::core::dist::{dist_counter_name, KERNEL_VECTOR_LEVEL_COUNTER, STEP_PHASES};
use nonlocalheat::prelude::*;

fn main() {
    // --- the scenario library's heterogeneous cluster, both substrates ---
    // speeds [2.0, 1.0, 1.0, 0.5]: without balancing the half-speed node
    // drags every step.
    let quick = scenarios::heterogeneous_cluster(true);
    println!(
        "== real runtime: {}x{} mesh, speeds [2.0, 1.0, 1.0, 0.5] ==",
        quick.problem.n, quick.problem.n
    );
    let report = quick.run_dist();
    println!("SD migrations: {}", report.migrations);
    for (epoch, own) in report.ownership_history().iter().enumerate().skip(1) {
        println!("after LB epoch {epoch}: SD counts {:?}", own.counts());
    }
    println!("final ownership:\n{}", report.final_ownership.render());
    // where each rank's step loop went: the driver's phase counters
    let count = |name: &str| report.counter(name).expect("a cluster counter");
    println!(
        "step-loop ms per rank ({}), kernel vector level {} (0 = baseline, 1 = AVX2):",
        STEP_PHASES.join(" / "),
        count(KERNEL_VECTOR_LEVEL_COUNTER)
    );
    for rank in 0..report.busy.len() as u32 {
        let ms = STEP_PHASES.map(|phase| {
            let ns = count(&dist_counter_name(rank, &format!("phase/{phase}")));
            format!("{:.2}", ns as f64 * 1e-6)
        });
        println!("  rank {rank}: {}", ms.join(" / "));
    }

    // --- simulator: the same cluster at paper scale (400x400) ---
    let paper = scenarios::heterogeneous_cluster(false);
    let off = paper.clone().without_lb().run_sim();
    let on = paper.run_sim();
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
    println!("\n== simulator: 400x400 mesh, 16x16 SDs, 40 steps ==");
    println!(
        "makespan without LB: {:.2} ms   busy fractions {:?}",
        off.makespan * 1e3,
        fractions(&off)
    );
    println!(
        "makespan with LB:    {:.2} ms   busy fractions {:?}",
        on.makespan * 1e3,
        fractions(&on)
    );
    println!(
        "speedup from load balancing: {:.2}x ({} SDs migrated)",
        off.makespan / on.makespan,
        on.migrations
    );

    // --- topology-aware network: two racks, slow inter-rack uplink ---
    // The same NetSpec drives both substrates: the real fabric delays
    // ghost parcels according to the rack topology (numerics unchanged),
    // and the simulator quantifies the cost of rack crossings at scale.
    let topo = NetSpec::Topology(TopologySpec {
        ranks_per_node: 1,
        nodes_per_rack: 2,
        intra_node: LinkSpec::new(0.0, f64::INFINITY),
        intra_rack: LinkSpec::new(100e-6, 1e8),
        inter_rack: LinkSpec::new(500e-6, 1e7),
    });
    let racked = Scenario::square(48, 2.0, 8, 8)
        .on(ClusterSpec::uniform(4, 1))
        .with_net(topo)
        .with_lb(LbSchedule::every(3));
    println!("\n== real runtime on 2 racks x 2 nodes (slow inter-rack uplink) ==");
    let report = racked.run_dist();
    println!(
        "wall time {:.2} ms, {} messages, {:.1} KB planner-grade ghost traffic \
         ({:.1} KB of it inter-rack)",
        report.makespan * 1e3,
        report.counter(NETWORK_MESSAGES).expect("a cluster counter"),
        report.ghost_bytes as f64 / 1e3,
        report.inter_rack_ghost_bytes as f64 / 1e3,
    );

    // Harsher uplink at paper scale: the cross-rack ghost volume rivals
    // the compute time, so the topology becomes visible in the makespan —
    // and case-1/case-2 overlap wins back most of it.
    let congested = NetSpec::Topology(TopologySpec {
        ranks_per_node: 1,
        nodes_per_rack: 2,
        intra_node: LinkSpec::new(0.0, f64::INFINITY),
        intra_rack: LinkSpec::new(100e-6, 1e8),
        inter_rack: LinkSpec::new(500e-6, 1e6),
    });
    let sim_base = Scenario::square(400, 8.0, 25, 20).on(ClusterSpec::uniform(4, 1));
    for (label, net) in [
        ("in-rack only (shared 10 GB/s)", NetSpec::cluster()),
        ("2 racks, congested 1 MB/s uplink", congested),
    ] {
        let hidden = sim_base.clone().with_net(net).run_sim();
        let exposed = sim_base.clone().with_net(net).with_overlap(false).run_sim();
        let cross = hidden.sim_extras().map_or(0, |s| s.cross_bytes);
        println!(
            "sim {label}: makespan {:.2} ms overlapped / {:.2} ms without overlap, {:.1} MB cross-node",
            hidden.makespan * 1e3,
            exposed.makespan * 1e3,
            cross as f64 / 1e6
        );
    }

    // --- communication-aware balancing: the λ knob ---
    // Each rack pairs a fast and a slow node, so the useful rebalancing
    // flow is intra-rack; the count-based planner (λ = 0) still routes
    // part of every settlement over the slow uplink. λ > 0 gates a
    // migration unless its busy-time relief covers λ x the estimated
    // transfer seconds — inter-rack migration bytes drop while the
    // makespan holds (ablation A7 sweeps this in full).
    let lam_base = Scenario::square(400, 8.0, 25, 16)
        .on(ClusterSpec::speeds(&[2.0, 1.0, 2.0, 1.0]))
        .with_partition(PartitionSpec::Strip)
        .with_net(scenarios::two_rack_net());
    println!("\n== cost-aware balancing on 2 racks (speeds 2:1 in each rack) ==");
    for lambda in [0.0, 1.0, 2.0] {
        let run = lam_base
            .clone()
            .with_lb(LbSchedule::every(4).with_spec(LbSpec::tree(lambda)))
            .run_sim();
        println!(
            "lambda {lambda}: {:>6.1} KB inter-rack / {:>6.1} KB total migration traffic, makespan {:.2} ms",
            run.inter_rack_migration_bytes as f64 / 1e3,
            run.migration_bytes as f64 / 1e3,
            run.makespan * 1e3
        );
    }

    // --- pluggable balancing policies: the LbSpec seam ---
    // The same scenario value drives every policy on both substrates
    // (ablation A8 sweeps this in full; numerics on the real runtime are
    // bit-exact under every policy — the test suite pins that).
    println!("\n== LB policy comparison, same 2-rack cluster (simulator) ==");
    let specs = [
        LbSpec::tree(1.0),
        LbSpec::diffusion(1.0, 8),
        LbSpec::greedy_steal(1),
        LbSpec::adaptive(LbSpec::tree(0.0), 0.05),
        LbSpec::adaptive_mu(LbSpec::tree(0.0), 0.3),
    ];
    for spec in &specs {
        let run = lam_base
            .clone()
            .with_lb(LbSchedule::every(4).with_spec(spec.clone()))
            .run_sim();
        println!(
            "{:>15}: makespan {:.2} ms, {} SDs migrated, {:>6.1} KB inter-rack",
            spec.name(),
            run.makespan * 1e3,
            run.migrations,
            run.inter_rack_migration_bytes as f64 / 1e3,
        );
    }

    // ... and the identical specs through the real runtime at smoke scale.
    println!("\n== LB policy comparison, real runtime on the 2-rack fabric ==");
    let real_base = Scenario::square(48, 2.0, 8, 8)
        .on(ClusterSpec::uniform(4, 1))
        .with_net(scenarios::two_rack_net());
    for spec in &specs[1..] {
        let report = real_base
            .clone()
            .with_lb(LbSchedule::every(3).with_spec(spec.clone()))
            .run_dist();
        println!(
            "{:>15}: {} SDs migrated, final counts {:?}",
            spec.name(),
            report.migrations,
            report.final_ownership.counts()
        );
    }

    // --- the propagating crack on real hardware ---
    // The work_schedule used to be simulator-only; the unified Scenario
    // runs it on the real runtime too (kernel repetition emulates the
    // factor, so numerics stay bit-exact while the busy times shift).
    let crack = scenarios::propagating_crack(true);
    let report = crack.run_dist();
    println!(
        "\n== propagating crack on the real runtime ({} steps) ==",
        crack.steps
    );
    println!(
        "{} migrations over {} epochs as the cheap band moved",
        report.migrations,
        report.epoch_traces.len()
    );
}
