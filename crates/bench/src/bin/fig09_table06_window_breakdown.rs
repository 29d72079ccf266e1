//! Figure 9 + Table VI — anatomy of the top-scoring Het-Sides schedule for
//! Scenario 4 (EDP search): per-window chiplet allocations and the
//! end-to-end latency breakdown per model.

use scar_bench::strategy::Strategy;
use scar_bench::table::Table;
use scar_core::baselines::Standalone;
use scar_core::{OptMetric, ScheduleRequest, Scheduler, SearchBudget, Session};
use scar_mcm::templates::Profile;
use scar_workloads::Scenario;

fn main() {
    let sc = Scenario::datacenter(4);
    let session = Session::new();
    let r = Strategy::HetSides
        .run(
            &session,
            &sc,
            Profile::Datacenter,
            OptMetric::Edp,
            4,
            &SearchBudget::default(),
        )
        .expect("Sc4 on Het-Sides is feasible");

    println!(
        "== Figure 9: top-scoring Het-Sides schedule for {} ==\n",
        sc.name()
    );
    let mcm = Strategy::HetSides.mcm(Profile::Datacenter);
    println!("chiplet dataflows (row-major 3x3):");
    for row in 0..3 {
        let cells: Vec<String> = (0..3)
            .map(|col| {
                let id = row * 3 + col;
                format!("{:>2}:{}", id, mcm.chiplet(id).dataflow.short_name())
            })
            .collect();
        println!("    {}", cells.join("  "));
    }
    println!();
    let mut cumulative = 0.0;
    for w in r.windows() {
        cumulative += w.latency_s;
        println!(
            "Win {} ({:.2} s cumulative, window lat {:.3} s):",
            w.index, cumulative, w.latency_s
        );
        for m in &w.models {
            let chiplets: Vec<String> = m
                .assignments
                .iter()
                .map(|(seg, c)| {
                    format!(
                        "chpl{}:{}[{}..{}]",
                        c,
                        mcm.chiplet(*c).dataflow.short_name(),
                        seg.start,
                        seg.end
                    )
                })
                .collect();
            println!(
                "    {:10} layers {:>3}..{:<3} b'={:<2} -> {}",
                m.model_name,
                m.layers.start,
                m.layers.end,
                m.mini_batch,
                chiplets.join(" -> ")
            );
        }
    }

    // Table VI: per-model per-window latency + ideal (standalone) latency
    println!("\n== Table VI: end-to-end latency breakdown (seconds) ==");
    let ideal = Standalone::new()
        .schedule(&session, &ScheduleRequest::new(sc.clone(), mcm.clone()))
        .expect("standalone fits");
    let mut header = vec!["Model".to_string()];
    header.extend(r.windows().iter().map(|w| format!("W{}", w.index)));
    header.push("ideal".into());
    header.push("tot".into());
    header.push("#layers".into());
    let mut t = Table::new(header);
    for (mi, sm) in sc.models().iter().enumerate() {
        let mut row = vec![sm.model.name().to_string()];
        let mut tot = 0.0;
        for w in r.windows() {
            let cell = w.models.iter().find(|m| m.model == mi);
            match cell {
                Some(m) => {
                    tot += m.latency_s;
                    row.push(format!("{:.3}", m.latency_s));
                }
                None => row.push("0".into()),
            }
        }
        let ideal_lat = ideal.windows()[0]
            .models
            .iter()
            .find(|m| m.model == mi)
            .map(|m| m.latency_s)
            .unwrap_or(0.0);
        row.push(format!("{ideal_lat:.3}"));
        row.push(format!("{tot:.3}"));
        row.push(sm.model.num_layers().to_string());
        t.row(row);
    }
    let mut wrow = vec!["Window".to_string()];
    for w in r.windows() {
        wrow.push(format!("{:.3}", w.latency_s));
    }
    wrow.push("-".into());
    wrow.push(format!("{:.3}", r.total().latency_s));
    wrow.push(sc.num_layers().to_string());
    t.row(wrow);
    println!("{t}");
    println!("paper shape: the greedy packing front-loads the small workloads (ResNet/U-Net finish in early windows); GPT-L and BERT-L dominate the later windows.");
}
