//! Figure 13 — scaling to the 6×6 full-Simba MCM with the evolutionary
//! SEG/SCHED search (population 10, 4 generations): EDP search on
//! Scenario 4 at nsplits = 2 and nsplits = 3, Simba-6 (Shi/NVD) vs
//! Het-Cross.

use scar_bench::pareto::ascii_scatter;
use scar_bench::strategy::Strategy;
use scar_bench::table::Table;
use scar_core::{pareto_front, CandidatePoint, OptMetric, SearchBudget, Session};
use scar_mcm::templates::Profile;
use scar_workloads::Scenario;

fn main() {
    let sc = Scenario::datacenter(4);
    let budget = SearchBudget::default();
    let session = Session::new();
    for nsplits in [2usize, 3] {
        println!("== Figure 13: 6x6 MCM, EDP search, nsplits={nsplits} ==\n");
        let mut t = Table::new(vec![
            "Strategy".into(),
            "Latency (s)".into(),
            "Energy (J)".into(),
            "EDP (J*s)".into(),
        ]);
        let mut clouds: Vec<(String, Vec<CandidatePoint>)> = Vec::new();
        for s in Strategy::six_by_six() {
            match s.run(
                &session,
                &sc,
                Profile::Datacenter,
                OptMetric::Edp,
                nsplits,
                &budget,
            ) {
                Ok(r) => {
                    let tot = r.total();
                    t.row(vec![
                        s.name().into(),
                        format!("{:.4}", tot.latency_s),
                        format!("{:.4}", tot.energy_j),
                        format!("{:.4}", tot.edp()),
                    ]);
                    clouds.push((s.name().to_string(), r.candidates().to_vec()));
                }
                Err(e) => eprintln!("{}: {e}", s.name()),
            }
        }
        println!("{t}");
        println!("{}", ascii_scatter(&clouds, 72, 14));
        for (name, pts) in &clouds {
            println!("{name}: Pareto front size {}", pareto_front(pts).len());
        }
        println!();
    }
    println!("paper shape: Het-Cross reduces EDP and latency against both Simba-6 variants (paper: 2.3x/1.9x EDP, 2.1x/1.8x latency).");
}
