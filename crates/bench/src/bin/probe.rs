//! Internal sanity probe: quick strategy comparison on Sc1/Sc4/Sc9 to check
//! the paper's headline orderings before running the full harness.

use scar_bench::strategy::{quick_budget, run_strategies, Strategy};
use scar_core::{OptMetric, Session};
use scar_mcm::templates::Profile;
use scar_workloads::Scenario;

fn main() {
    let session = Session::new();
    for (n, profile) in [
        (1usize, Profile::Datacenter),
        (3, Profile::Datacenter),
        (4, Profile::Datacenter),
        (8, Profile::ArVr),
        (9, Profile::ArVr),
    ] {
        let sc = Scenario::by_id(n);
        println!("=== {} ===", sc.name());
        let t0 = std::time::Instant::now();
        let results = run_strategies(
            &session,
            &Strategy::table_iv(),
            &sc,
            profile,
            &OptMetric::Edp,
            4,
            &quick_budget(),
        );
        for r in results.iter().flatten() {
            let t = r.result.total();
            println!(
                "  {:14} lat={:10.4}s energy={:10.4}J edp={:12.5}",
                r.name,
                t.latency_s,
                t.energy_j,
                t.edp()
            );
        }
        println!("  ({:.1?})", t0.elapsed());
    }
}
