//! Table V + Figure 10 — AR/VR (XRBench) EDP-search results on the 3×3
//! MCM with 256-PE chiplets, normalized by Standalone (NVD).

use scar_bench::strategy::{run_strategies, Strategy};
use scar_bench::table::{relative_cells, Table};
use scar_core::{EvalTotals, OptMetric, SearchBudget, Session};
use scar_mcm::templates::Profile;
use scar_workloads::Scenario;

fn main() {
    let budget = SearchBudget::default();
    let session = Session::new();
    let strategies = Strategy::table_iv();
    let grid: Vec<_> = Scenario::all_arvr()
        .iter()
        .map(|sc| {
            run_strategies(
                &session,
                &strategies,
                sc,
                Profile::ArVr,
                &OptMetric::Edp,
                4,
                &budget,
            )
        })
        .collect();
    let nvd = strategies
        .iter()
        .position(|&s| s == Strategy::StandaloneNvd)
        .expect("Table IV includes Stand.(NVD)");

    println!("== Table V / Figure 10: AR/VR EDP search (normalized by Stand.(NVD)) ==\n");
    for (title, value) in [
        (
            "Relative Latency",
            (|t| t.latency_s) as fn(&EvalTotals) -> f64,
        ),
        ("Relative EDP", EvalTotals::edp),
    ] {
        let mut table = Table::new(
            std::iter::once("Strategy".to_string())
                .chain((6..=10).map(|i| format!("Sc{i}")))
                .collect(),
        );
        for (k, strat) in strategies.iter().enumerate() {
            table.row(
                std::iter::once(strat.name().to_string())
                    .chain(relative_cells(&grid, k, nvd, |r| value(&r.result.total())))
                    .collect(),
            );
        }
        println!("{title}:\n{table}");
    }
    println!("paper shape: heterogeneous strategies win the diverse scenarios (8-10); the heaviest AR scenarios (6-7) stay close to the NVD-based schedules under resource contention.");
}
