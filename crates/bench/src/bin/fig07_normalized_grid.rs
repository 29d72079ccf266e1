//! Figure 7 — latency/energy/EDP of top-scoring 3×3 candidates, for each
//! search target, normalized by Standalone (NVD), datacenter scenarios.
//!
//! Nine panels: {Latency, Energy, EDP} Search × {Latency, Energy, EDP}
//! evaluation; the diagonal (A1, B2, C3) are the paper's "matching
//! criteria" plots.

use scar_bench::strategy::{quick_budget, run_strategies, Strategy};
use scar_bench::table::{relative_cells, Table};
use scar_core::{EvalTotals, OptMetric, Session};
use scar_mcm::templates::Profile;
use scar_workloads::Scenario;

fn main() {
    let budget = quick_budget();
    let session = Session::new();
    let strategies = Strategy::table_iv();
    let scenarios = Scenario::all_datacenter();
    let nvd = strategies
        .iter()
        .position(|&s| s == Strategy::StandaloneNvd)
        .expect("Table IV includes Stand.(NVD)");

    for (panel_row, metric) in [
        ("A", OptMetric::Latency),
        ("B", OptMetric::Energy),
        ("C", OptMetric::Edp),
    ] {
        // run once per scenario; evaluate under all three axes
        let grid: Vec<_> = scenarios
            .iter()
            .map(|sc| {
                run_strategies(
                    &session,
                    &strategies,
                    sc,
                    Profile::Datacenter,
                    &metric,
                    4,
                    &budget,
                )
            })
            .collect();
        for (panel_col, (eval_axis, value)) in [
            ("latency", (|t| t.latency_s) as fn(&EvalTotals) -> f64),
            ("energy", |t| t.energy_j),
            ("edp", EvalTotals::edp),
        ]
        .into_iter()
        .enumerate()
        {
            println!(
                "== Figure 7-{panel_row}{} : {} search, {} evaluation (normalized by Stand.(NVD)) ==",
                panel_col + 1,
                metric.label(),
                eval_axis
            );
            let mut t = Table::new(
                std::iter::once("Strategy".to_string())
                    .chain((1..=5).map(|i| format!("Sc{i}")))
                    .collect(),
            );
            for (k, strat) in strategies.iter().enumerate() {
                t.row(
                    std::iter::once(strat.name().to_string())
                        .chain(relative_cells(&grid, k, nvd, |r| value(&r.result.total())))
                        .collect(),
                );
            }
            println!("{t}");
        }
    }
    println!("paper shape: diagonal panels show the searched metric winning; heterogeneous strategies trade energy for speed on heavy scenarios (C3 vs B3).");
}
