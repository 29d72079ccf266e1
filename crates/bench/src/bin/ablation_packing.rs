//! §V-E ablation — greedy vs uniform layer packing: Scenario 4 on
//! Het-Sides under the EDP search.
//!
//! The paper reports 21.8% speedup and 8.6% energy reduction for the
//! first-fit greedy packing (Algorithm 1) over uniform distribution.

use scar_bench::table::Table;
use scar_core::{OptMetric, PackingRule, Scar, ScheduleRequest, Scheduler, SearchBudget, Session};
use scar_mcm::templates::{het_sides_3x3, Profile};
use scar_workloads::Scenario;

fn main() {
    let sc = Scenario::datacenter(4);
    let mcm = het_sides_3x3(Profile::Datacenter);
    let budget = SearchBudget::default();
    let session = Session::new();
    let request = ScheduleRequest::new(sc.clone(), mcm.clone())
        .metric(OptMetric::Edp)
        .budget(budget.clone());
    println!("== Ablation: packing rule (Sc4, Het-Sides, EDP search) ==\n");
    let mut results = Vec::new();
    for (name, rule) in [
        ("Greedy (Alg. 1)", PackingRule::Greedy),
        ("Uniform", PackingRule::Uniform),
    ] {
        let r = Scar::builder()
            .packing(rule)
            .build()
            .schedule(&session, &request)
            .expect("feasible");
        results.push((name, r.total()));
    }
    let mut t = Table::new(vec![
        "Packing".into(),
        "Latency (s)".into(),
        "Energy (J)".into(),
        "EDP (J*s)".into(),
    ]);
    for (name, tot) in &results {
        t.row(vec![
            (*name).into(),
            format!("{:.4}", tot.latency_s),
            format!("{:.4}", tot.energy_j),
            format!("{:.4}", tot.edp()),
        ]);
    }
    println!("{t}");
    let (g, u) = (&results[0].1, &results[1].1);
    println!(
        "greedy vs uniform: {:.1}% speedup, {:.1}% energy change",
        (u.latency_s / g.latency_s - 1.0) * 100.0,
        (1.0 - g.energy_j / u.energy_j) * 100.0
    );
    println!("paper shape: greedy packing is faster and slightly more energy-efficient (paper: 21.8% / 8.6%).");
}
