//! Figure 12 — EDP search for Scenarios 3 and 4 on the triangular NoP
//! topologies (Simba-T Shi/NVD and Het-T), normalized by Standalone (NVD).
//!
//! Demonstrates §V-E's topology generalization: SCAR only needs adjacency-
//! matrix connectivity.

use scar_bench::strategy::{run_strategies, Strategy};
use scar_bench::table::{relative_cells, Table};
use scar_core::{EvalTotals, OptMetric, SearchBudget, Session};
use scar_mcm::templates::Profile;
use scar_workloads::Scenario;

fn main() {
    let budget = SearchBudget::default();
    let session = Session::new();
    let mut strategies = vec![Strategy::StandaloneNvd];
    strategies.extend(Strategy::triangular());

    println!("== Figure 12: triangular NoP, EDP search (normalized by Stand.(NVD)) ==\n");
    let mut t = Table::new(vec![
        "Strategy".into(),
        "Sc3 rel EDP".into(),
        "Sc4 rel EDP".into(),
        "Sc3 rel Lat".into(),
        "Sc4 rel Lat".into(),
    ]);
    let grid: Vec<_> = [3usize, 4]
        .into_iter()
        .map(|scn| {
            run_strategies(
                &session,
                &strategies,
                &Scenario::datacenter(scn),
                Profile::Datacenter,
                &OptMetric::Edp,
                4,
                &budget,
            )
        })
        .collect();
    for (k, strat) in strategies.iter().enumerate() {
        let mut row = vec![strat.name().to_string()];
        for value in [EvalTotals::edp, |t: &EvalTotals| t.latency_s] {
            row.extend(relative_cells(&grid, k, 0, |r| value(&r.result.total())));
        }
        t.row(row);
    }
    println!("{t}");
    println!("paper shape: the same relative patterns as the 3x3 mesh, with shifted gains (\"varying relative gains\", SV-E): NVD-based strategies keep the LM-heavy scenarios; Shi-homogeneous trails.");
}
