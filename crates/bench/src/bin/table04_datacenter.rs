//! Table IV — datacenter scheduling results on the 3×3 MCM.
//!
//! For each MLPerf scenario (1–5) and each strategy, reports the top
//! latency and EDP under both the Latency Search and the EDP Search
//! (500 MHz chiplets, Table II package parameters).

use scar_bench::artifacts;
use scar_bench::strategy::{run_strategies, Strategy};
use scar_bench::table::Table;
use scar_core::{EvalTotals, OptMetric, SearchBudget, Session};
use scar_mcm::templates::Profile;
use scar_workloads::Scenario;

fn main() {
    let budget = SearchBudget::default();
    // one session for the whole table: every strategy x scenario x metric
    // cell reuses the same memoized layer costs
    let session = Session::new();
    let strategies = Strategy::table_iv();
    let scenarios: Vec<Scenario> = Scenario::all_datacenter();

    for (label, metric) in [
        ("Latency Search", OptMetric::Latency),
        ("EDP Search", OptMetric::Edp),
    ] {
        println!("== Table IV ({label}) ==");
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
        let artifact_path = format!("ARTIFACT_table04_{}.json", metric.label());
        let sweep: Vec<_> = grid.iter().flatten().flatten().cloned().collect();
        artifacts::write_sweep(&artifact_path, &sweep).expect("write sweep artifact");
        let table = |unit: &str, value: fn(&EvalTotals) -> f64| {
            let mut t = Table::new(
                std::iter::once("Strategy".to_string())
                    .chain((1..=5).map(|i| format!("Sc{i} {unit}")))
                    .collect(),
            );
            for (k, strat) in strategies.iter().enumerate() {
                t.row(
                    std::iter::once(strat.name().to_string())
                        .chain(grid.iter().map(|row| {
                            row[k]
                                .as_ref()
                                .map_or("-".into(), |r| format!("{:.4}", value(&r.result.total())))
                        }))
                        .collect(),
                );
            }
            t
        };
        println!(
            "Latency of top-{label} schedule:\n{}",
            table("Lat (s)", |t| t.latency_s)
        );
        println!(
            "EDP of top-{label} schedule:\n{}",
            table("EDP (J*s)", EvalTotals::edp)
        );
        println!("schedules persisted to {artifact_path}");
    }
    println!("paper shape: NVD-based strategies win Sc1-3; heterogeneous strategies close the gap (paper: win) on the heavy Sc4-5; Shi-homogeneous trails throughout.");
}
