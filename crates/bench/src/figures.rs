//! The seven evaluation figures of the paper (§8.1–§8.3).

use crate::figdata::{FigData, Series};
use nlheat_core::balance::{compute_metrics, plan_rebalance, LbNetwork, MoveWeights};
use nlheat_core::ownership::Ownership;
use nlheat_core::scenario::{ClusterSpec, Scenario};
use nlheat_mesh::SdGrid;
use nlheat_model::{ProblemSpec, SerialSolver};
use nlheat_sim::RunSim;

/// Simulated makespan of the paper problem (ε = 8h, `mesh`² cells in
/// `sd`-cell SDs) on `nodes` nodes of `cores` cores — what every scaling
/// figure plots ratios of.
fn sim_time(mesh: usize, sd: usize, quick: bool, nodes: usize, cores: usize) -> f64 {
    Scenario::square(mesh, 8.0, sd, steps(quick))
        .on(ClusterSpec::uniform(nodes, cores))
        .run_sim()
        .makespan
}

/// Steps used by every scaling figure (the paper runs N = 20).
fn steps(quick: bool) -> usize {
    if quick {
        3
    } else {
        20
    }
}

/// **Fig. 8** — total numerical error e = Σ_k e_k (eq. 7) vs mesh size
/// h = 1/2ⁿ, n = 2..6, manufactured solution, ε = 8h. Real solver.
pub fn fig8(quick: bool) -> FigData {
    let mut fig = FigData::new(
        "Fig 8 — numerical error vs mesh size h (manufactured solution)",
        "h",
        "total error e = Σ e_k",
    );
    let mut series = Series::new("error");
    let exponents: &[u32] = if quick {
        &[2, 3, 4, 5]
    } else {
        &[2, 3, 4, 5, 6]
    };
    for &n_exp in exponents {
        let n = 1usize << n_exp;
        let parts = ProblemSpec::paper(n).build();
        let mut solver = SerialSolver::manufactured(&parts);
        let acc = solver.run_with_error(steps(quick));
        series.push(1.0 / n as f64, acc.total());
    }
    fig.series.push(series);
    fig
}

/// The SD-grid side lengths of the paper's strong-scaling studies:
/// 1×1, 2×2, 4×4, 8×8 SDs over the fixed mesh.
const STRONG_SD_SIDES: [usize; 4] = [1, 2, 4, 8];

/// **Fig. 9** — strong scaling of the shared-memory asynchronous solver:
/// 400×400 mesh, ε = 8h, 20 steps; speedup vs #SDs for 1/2/4 CPUs
/// (1-CPU baseline). DES substrate.
pub fn fig9(quick: bool) -> FigData {
    let mesh = if quick { 200 } else { 400 };
    let mut fig = FigData::new(
        format!("Fig 9 — strong scaling, shared memory ({mesh}x{mesh} mesh, eps=8h)"),
        "#SDs",
        "speedup vs 1 CPU",
    );
    let times: Vec<Vec<f64>> = [1usize, 2, 4]
        .iter()
        .map(|&cpus| {
            STRONG_SD_SIDES
                .iter()
                .map(|&side| sim_time(mesh, mesh / side, quick, 1, cpus))
                .collect()
        })
        .collect();
    for (ci, &cpus) in [1usize, 2, 4].iter().enumerate() {
        let mut s = Series::new(format!("{cpus}CPU"));
        for (si, &side) in STRONG_SD_SIDES.iter().enumerate() {
            s.push((side * side) as f64, times[0][si] / times[ci][si]);
        }
        fig.series.push(s);
    }
    fig
}

/// **Fig. 10** — weak scaling of the shared-memory solver: SD fixed at
/// 50×50, problem 50n×50n; speedup vs #SDs for 1/2/4 compute units.
pub fn fig10(quick: bool) -> FigData {
    let mut fig = FigData::new(
        "Fig 10 — weak scaling, shared memory (SD = 50x50, mesh = 50n x 50n)",
        "#SDs",
        "speedup vs 1 unit",
    );
    let sides: Vec<usize> = if quick {
        vec![1, 2, 4]
    } else {
        (1..=8).collect()
    };
    for &units in &[1usize, 2, 4] {
        let mut s = Series::new(format!("{units}Node"));
        for &n in &sides {
            let mesh = 50 * n;
            let t1 = sim_time(mesh, 50, quick, 1, 1);
            let tn = sim_time(mesh, 50, quick, 1, units);
            s.push((n * n) as f64, t1 / tn);
        }
        fig.series.push(s);
    }
    fig
}

/// **Fig. 11** — strong scaling of the distributed solver: 400×400 mesh,
/// 1/2/4 localities (halves/quadrants per §8.3); speedup vs #SDs,
/// 1-node baseline.
pub fn fig11(quick: bool) -> FigData {
    let mesh = if quick { 200 } else { 400 };
    let mut fig = FigData::new(
        format!("Fig 11 — strong scaling, distributed ({mesh}x{mesh} mesh, eps=8h)"),
        "#SDs",
        "speedup vs 1 node",
    );
    let times: Vec<Vec<f64>> = [1usize, 2, 4]
        .iter()
        .map(|&nodes| {
            STRONG_SD_SIDES
                .iter()
                .map(|&side| sim_time(mesh, mesh / side, quick, nodes, 1))
                .collect()
        })
        .collect();
    for (ni, &nodes) in [1usize, 2, 4].iter().enumerate() {
        let mut s = Series::new(format!("{nodes}Node"));
        for (si, &side) in STRONG_SD_SIDES.iter().enumerate() {
            s.push((side * side) as f64, times[0][si] / times[ni][si]);
        }
        fig.series.push(s);
    }
    fig
}

/// **Fig. 12** — weak scaling of the distributed solver: SD 50×50,
/// problem 50n×50n, SD distribution via the partitioner.
pub fn fig12(quick: bool) -> FigData {
    let mut fig = FigData::new(
        "Fig 12 — weak scaling, distributed (SD = 50x50, METIS-substitute distribution)",
        "#SDs",
        "speedup vs 1 node",
    );
    let sides: Vec<usize> = if quick {
        vec![1, 2, 4]
    } else {
        (1..=8).collect()
    };
    for &nodes in &[1usize, 2, 4] {
        let mut s = Series::new(format!("{nodes}Node"));
        for &n in &sides {
            let mesh = 50 * n;
            let t1 = sim_time(mesh, 50, quick, 1, 1);
            let tn = sim_time(mesh, 50, quick, nodes, 1);
            s.push((n * n) as f64, t1 / tn);
        }
        fig.series.push(s);
    }
    fig
}

/// **Fig. 13** — distributed scaling with METIS-substitute partitioning:
/// 800×800 mesh, 16×16 SDs of 50×50, 1..16 localities; measured vs
/// optimal speedup.
pub fn fig13(quick: bool) -> FigData {
    let (mesh, max_nodes) = if quick { (400, 8) } else { (800, 16) };
    let mut fig = FigData::new(
        format!("Fig 13 — distributed scaling with METIS-substitute ({mesh}x{mesh}, SD 50x50)"),
        "#nodes",
        "speedup",
    );
    let node_counts: Vec<usize> = (1..=max_nodes).collect();
    let t1 = sim_time(mesh, 50, quick, 1, 1);
    let mut measured = Series::new("Measured");
    let mut optimal = Series::new("Optimal");
    for &k in &node_counts {
        measured.push(k as f64, t1 / sim_time(mesh, 50, quick, k, 1));
        optimal.push(k as f64, k as f64);
    }
    fig.series.push(measured);
    fig.series.push(optimal);
    fig
}

/// The Fig. 14 experiment output: per-iteration ownership grids plus
/// balance statistics.
#[derive(Debug, Clone)]
pub struct Fig14Output {
    /// Imbalance metric per iteration (max count − min count).
    pub fig: FigData,
    /// ASCII ownership grids, iteration 0 = initial.
    pub grids: Vec<String>,
    /// Per-node SD counts per iteration.
    pub counts: Vec<Vec<usize>>,
}

/// **Fig. 14** — redistribution of 5×5 SDs over 4 symmetric nodes from a
/// highly imbalanced start; Algorithm 1 balances within 3 iterations.
pub fn fig14() -> Fig14Output {
    let sds = SdGrid::new(5, 5, 50);
    // Initial state mirroring the paper: node 0 owns almost everything,
    // the other three hold one corner SD each.
    let mut owners = vec![0u32; 25];
    owners[sds.id(4, 0) as usize] = 1;
    owners[sds.id(0, 4) as usize] = 2;
    owners[sds.id(4, 4) as usize] = 3;
    let own = Ownership::new(sds, owners, 4);

    // Symmetric nodes: busy time proportional to owned SDs. Replan the
    // count-based Algorithm 1 until it settles, three iterations at most.
    let mut history = vec![own];
    for _ in 0..3 {
        let current = &history[history.len() - 1];
        let counts = current.counts();
        let busy: Vec<f64> = counts.iter().map(|&c| c.max(1) as f64).collect();
        let metrics = compute_metrics(&counts, &busy);
        let plan = plan_rebalance(
            current,
            &metrics,
            &LbNetwork::free(),
            MoveWeights::default(),
        );
        if plan.is_noop() {
            break;
        }
        history.push(plan.new_ownership);
    }
    let mut fig = FigData::new(
        "Fig 14 — load balancing of 5x5 SDs over 4 symmetric nodes",
        "iteration",
        "max-min SD count spread",
    );
    let mut spread = Series::new("spread");
    let mut counts = Vec::new();
    let mut grids = Vec::new();
    for (i, state) in history.iter().enumerate() {
        let c = state.counts();
        let max = *c.iter().max().unwrap() as f64;
        let min = *c.iter().min().unwrap() as f64;
        spread.push(i as f64, max - min);
        counts.push(c);
        grids.push(state.render());
    }
    fig.series.push(spread);
    Fig14Output { fig, grids, counts }
}

/// Crude shape check helpers shared by tests and EXPERIMENTS.md claims.
pub mod shape {
    use crate::figdata::FigData;

    /// Last y of the series named `label`.
    pub fn final_value(fig: &FigData, label: &str) -> f64 {
        fig.series
            .iter()
            .find(|s| s.label == label)
            .and_then(|s| s.points.last())
            .map(|&(_, y)| y)
            .unwrap_or(f64::NAN)
    }

    /// True if the series' y values are non-increasing.
    pub fn decreasing(fig: &FigData, label: &str) -> bool {
        let s = fig
            .series
            .iter()
            .find(|s| s.label == label)
            .expect("series");
        s.points.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_error_decreases_with_h() {
        let fig = fig8(true);
        assert!(shape::decreasing(&fig, "error"), "{}", fig.to_markdown());
    }

    #[test]
    fn fig9_saturates_at_cpu_count() {
        let fig = fig9(true);
        // 1CPU flat at 1
        for &(_, y) in &fig.series[0].points {
            assert!((y - 1.0).abs() < 1e-9);
        }
        // 4CPU approaches 4 at 64 SDs, stays ≈1 at 1 SD
        let four = &fig.series[2];
        assert!((four.points[0].1 - 1.0).abs() < 0.1);
        assert!(four.points[3].1 > 2.5, "{}", fig.to_markdown());
    }

    #[test]
    fn fig11_distributed_strong_shape() {
        let fig = fig11(true);
        let four = &fig.series[2];
        assert!(four.points[0].1 <= 1.2, "1 SD cannot scale");
        assert!(
            four.points[3].1 > 3.0,
            "64 SDs over 4 nodes: {}",
            fig.to_markdown()
        );
    }

    #[test]
    fn fig13_near_linear() {
        let fig = fig13(true);
        let m = shape::final_value(&fig, "Measured");
        assert!(m > 6.0, "8-node speedup {m} (quick mode)");
    }

    #[test]
    fn fig14_balances_in_three_iterations() {
        let out = fig14();
        let last = out.counts.last().unwrap();
        let spread = last.iter().max().unwrap() - last.iter().min().unwrap();
        assert!(
            spread <= 2,
            "final counts {last:?}\n{}",
            out.grids.last().unwrap()
        );
        assert_eq!(out.grids.len(), out.counts.len());
    }
}
