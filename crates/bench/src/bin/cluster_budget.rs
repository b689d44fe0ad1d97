//! Cluster power-budget distribution over per-node DUFP — the coordination
//! layer the paper cites as complementary (GEOPM, DAPS; §VI) and the
//! budget-shifting idea of its §VII future work.
//!
//! Runs a four-job mix (HPL, CG, EP, MG) under a cluster budget tighter
//! than 4 × PL1 and compares a static even split against demand-based
//! reallocation, with DUFP running unmodified on every node and the
//! coordinator's `FleetCore` splitting the budget each epoch.
//!
//! Usage: `cluster_budget [--budget W] [--slowdown PCT] [--seed S]`
//!
//! ```sh
//! cargo run --release -p dufp-bench --bin cluster_budget -- --budget 400 --seed 11
//! ```

use dufp_bench::report::markdown_table;
use dufp_cluster::ClusterConfig;
use dufp_net::{run_cluster, PolicyKind};
use dufp_types::{Ratio, Watts};

fn main() {
    let mut budget = 420.0f64;
    let mut pct = 10.0f64;
    let mut seed = 42u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--budget" => budget = args.next().expect("--budget W").parse().expect("float"),
            "--slowdown" => pct = args.next().expect("--slowdown PCT").parse().expect("float"),
            "--seed" => seed = args.next().expect("--seed S").parse().expect("int"),
            other => panic!("unknown argument {other}"),
        }
    }

    let mut cfg = ClusterConfig::demo(seed);
    cfg.budget = Watts(budget);
    cfg.slowdown = Ratio::from_percent(pct);

    println!(
        "## Cluster budget distribution — {} nodes, {budget:.0} W total, DUFP @ {pct:.0}% per node\n",
        cfg.nodes.len()
    );

    let mut makespans = Vec::new();
    for policy in [PolicyKind::StaticSplit, PolicyKind::DemandBased] {
        let out = run_cluster(&cfg, policy).expect("cluster runs");
        makespans.push(out.makespan.value());
        println!("### policy: {}\n", out.policy);
        let rows: Vec<Vec<String>> = out
            .nodes
            .iter()
            .map(|n| {
                vec![
                    n.app.clone(),
                    format!("{:.1}", n.exec_time.value()),
                    format!("{:.1}", n.avg_power.value()),
                    format!("{:.0}", n.final_ceiling.value()),
                ]
            })
            .collect();
        print!(
            "{}",
            markdown_table(
                &["node", "time (s)", "avg power (W)", "final ceiling (W)"],
                &rows
            )
        );
        println!(
            "makespan {:.1} s, peak cluster power {:.1} W (budget {budget:.0} W)\n",
            out.makespan.value(),
            out.peak_cluster_power.value()
        );
    }
    let gain = (1.0 - makespans[1] / makespans[0]) * 100.0;
    println!(
        "makespan {:.1} s static-split vs {:.1} s demand-based: {gain:.1} % shorter under the same budget\n",
        makespans[0], makespans[1]
    );
    println!(
        "Demand-based allocation moves watts from nodes DUFP already trimmed \
         (EP, the finished jobs) to the budget-hungry solver (HPL) — the \
         cross-component budget shifting of the paper's §VII, at node scale."
    );
}
