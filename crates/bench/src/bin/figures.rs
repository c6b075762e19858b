//! Regenerate the paper's evaluation figures as markdown tables.
//!
//! ```text
//! figures [fig8|fig9|fig10|fig11|fig12|fig13|fig14|a8|a9|a10|a11|a12|ablations|all]... [--quick]
//! ```
//!
//! Full mode uses the paper's exact workload parameters (400×400 and
//! 800×800 meshes, ε = 8h, 20 timesteps); `--quick` shrinks them for smoke
//! runs.

use nlheat_bench::ablations::*;
use nlheat_bench::{fig10, fig11, fig12, fig13, fig14, fig8, fig9, FigData};

type Table = fn(bool) -> FigData;

/// Every table, in `all`'s print order, under the narrowest argument that
/// selects it (`ablations` also selects every `a*` row). `None` is Fig. 14,
/// which prints its ownership grids below its table.
const TABLES: &[(&str, Option<Table>)] = &[
    ("fig8", Some(fig8)),
    ("fig9", Some(fig9)),
    ("fig10", Some(fig10)),
    ("fig11", Some(fig11)),
    ("fig12", Some(fig12)),
    ("fig13", Some(fig13)),
    ("fig14", None),
    ("ablations", Some(a1_partition_quality)),
    ("ablations", Some(a2_overlap)),
    ("ablations", Some(a3_sd_size)),
    ("ablations", Some(a4_lb_heterogeneous)),
    ("ablations", Some(a5_crack)),
    ("ablations", Some(a5b_moving_crack)),
    ("ablations", Some(a6_network_models)),
    ("ablations", Some(a7_comm_aware_lambda)),
    ("a8", Some(a8_policy_comparison)),
    ("a9", Some(a9_ghost_aware_mu)),
    ("a10", Some(a10_memory_pressure)),
    ("a10", Some(a10b_plan_time_scaling)),
    ("a11", Some(a11_intra_step_stealing)),
    ("a12", Some(a12_repartition)),
];

fn selects(arg: &str, name: &str) -> bool {
    arg == "all" || arg == name || (arg == "ablations" && name.starts_with('a'))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut which: Vec<&str> = args.iter().map(String::as_str).collect();
    which.retain(|a| !a.starts_with("--"));
    if which.is_empty() {
        which.push("all");
    }
    let known = |arg: &&str| TABLES.iter().any(|(name, _)| selects(arg, name));
    if let Some(other) = which.iter().find(|arg| !known(arg)) {
        eprintln!("unknown figure '{other}'");
        eprintln!("usage: figures [fig8..fig14|a8|a9|a10|a11|a12|ablations|all]... [--quick]");
        std::process::exit(2);
    }
    for arg in which {
        for (_, table) in TABLES.iter().filter(|(name, _)| selects(arg, name)) {
            match table {
                Some(table) => println!("{}", table(quick).to_markdown()),
                None => {
                    let out = fig14();
                    println!("{}", out.fig.to_markdown());
                    for (i, (grid, counts)) in out.grids.iter().zip(&out.counts).enumerate() {
                        println!("iteration {i}: counts {counts:?}");
                        println!("{grid}");
                    }
                }
            }
        }
    }
}
