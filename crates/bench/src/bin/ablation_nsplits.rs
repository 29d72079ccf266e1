//! §V-E ablation — time partitioning: EDP search on Scenario 4 /
//! Het-Sides while sweeping `nsplits` from 0 to 5.
//!
//! The paper reports a ~1.25× average EDP improvement rate up to
//! nsplits = 4 and diminishing returns beyond.

use scar_bench::strategy::Strategy;
use scar_bench::table::Table;
use scar_core::{OptMetric, SearchBudget, Session};
use scar_mcm::templates::Profile;
use scar_workloads::Scenario;

fn main() {
    let sc = Scenario::datacenter(4);
    let budget = SearchBudget::default();
    let session = Session::new();
    println!("== Ablation: nsplits sweep (Sc4, Het-Sides, EDP search) ==\n");
    let mut t = Table::new(vec![
        "nsplits".into(),
        "windows".into(),
        "Latency (s)".into(),
        "Energy (J)".into(),
        "EDP (J*s)".into(),
        "EDP vs prev".into(),
    ]);
    let mut prev: Option<f64> = None;
    for nsplits in 0..=5usize {
        let r = Strategy::HetSides
            .run(
                &session,
                &sc,
                Profile::Datacenter,
                OptMetric::Edp,
                nsplits,
                &budget,
            )
            .expect("feasible");
        let tot = r.total();
        let rate = prev
            .map(|p| format!("{:.2}x", p / tot.edp()))
            .unwrap_or_else(|| "-".into());
        t.row(vec![
            nsplits.to_string(),
            r.windows().len().to_string(),
            format!("{:.4}", tot.latency_s),
            format!("{:.4}", tot.energy_j),
            format!("{:.4}", tot.edp()),
            rate,
        ]);
        prev = Some(tot.edp());
    }
    println!("{t}");
    println!("paper shape: improvement rate stagnates after nsplits=4 (the paper's default).");
}
