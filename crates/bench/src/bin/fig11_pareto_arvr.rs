//! Figure 11 — Pareto-optimal results for the EDP search on the labeled
//! XRBench scenarios (AR Assistant, AR Gaming, Outdoors, VR Gaming).

use scar_bench::pareto::ascii_scatter;
use scar_bench::strategy::{quick_budget, Strategy};
use scar_core::{pareto_front, CandidatePoint, OptMetric, Session};
use scar_mcm::templates::Profile;
use scar_workloads::Scenario;

fn main() {
    let budget = quick_budget();
    let session = Session::new();
    let strategies = [
        Strategy::SimbaShi,
        Strategy::SimbaNvd,
        Strategy::HetCb,
        Strategy::HetSides,
    ];
    for scn in [6usize, 7, 8, 10] {
        let sc = Scenario::arvr(scn);
        println!("== Figure 11: {} — EDP search ==", sc.name());
        let mut clouds: Vec<(String, Vec<CandidatePoint>)> = Vec::new();
        for s in &strategies {
            if let Ok(r) = s.run(&session, &sc, Profile::ArVr, OptMetric::Edp, 4, &budget) {
                clouds.push((s.name().to_string(), r.candidates().to_vec()));
            }
        }
        println!("{}", ascii_scatter(&clouds, 72, 14));
        for (name, pts) in &clouds {
            let front = pareto_front(pts);
            let best = front.iter().map(|p| p.edp()).fold(f64::INFINITY, f64::min);
            println!("{name}: {} candidates, best EDP {:.4} J*s", pts.len(), best);
        }
        println!();
    }
    println!("paper shape: heterogeneous fronts dominate on the conv-heavy scenarios; NVD holds the front for transformer-heavy mixes.");
}
