//! Dynamic serving simulation: both paper use cases under live traffic on
//! a 3×3 heterogeneous MCM (the serving-side view the offline tables miss).
//!
//! Simulates (a) a datacenter Poisson query mix and (b) an XRBench-style
//! AR/VR frame mix on Het-Sides, reporting sustained throughput, p50/p95/p99
//! request latency, deadline-miss rate, energy, schedule-cache hit rate,
//! and MAESTRO cost-evaluation counts. Each mix is then replayed on the
//! warm cache (recurring traffic is the serving steady state), and the
//! primary policy is compared against the Standalone baseline under
//! identical traffic.
//!
//! ```sh
//! cargo run --release -p scar-bench --bin serve_sim
//! ```
//!
//! Knobs: the `serve_sim` rows of the README's environment-knob table.
//!
//! Besides stdout (which includes wall-clock timings), the deterministic
//! serving reports are written to `REPORT_serve_sim.txt` so warm and cold
//! runs can be diffed byte-for-byte.

use scar_bench::Knobs;
use scar_core::baselines::Standalone;
use scar_core::Parallelism;
use scar_mcm::templates::{het_sides_3x3, Profile};
use scar_serve::{
    AdmissionKind, PolicyFile, PolicyRegistry, ServeConfig, ServeSim, TrafficMix, TrafficShape,
};
use scar_telemetry::Telemetry;
use std::fmt::Write as _;

fn main() {
    let knobs = Knobs::of("serve_sim");
    let horizon_s = 2.0;
    let registry = PolicyRegistry::with_zoo();
    // the policy file (when given) is the base layer; SCAR_POLICY /
    // SCAR_NSPLITS env knobs, when also set, win over its choices
    let policy_file = knobs.parse("SCAR_POLICY_FILE", |path| PolicyFile::load(path));
    let policy = knobs
        .text("SCAR_POLICY")
        .or(policy_file.as_ref().map(|f| f.policy.as_str()))
        .unwrap_or("SCAR");
    if !registry.contains(policy) {
        eprintln!(
            "SCAR_POLICY={policy:?} is not registered (known: {})",
            registry.names().join(", ")
        );
        std::process::exit(2);
    }
    let base = ServeConfig {
        parallelism: knobs
            .parse("SCAR_THREADS", Parallelism::parse)
            .unwrap_or_default(),
        admission: knobs
            .parse("SCAR_ADMISSION", AdmissionKind::parse)
            .unwrap_or_default(),
        preemption: knobs.flag("SCAR_PREEMPT"),
        cost_db_path: knobs.text("SCAR_COST_DB").map(Into::into),
        cost_db_max_entries: knobs.parse("SCAR_COST_DB_MAX", str::parse),
        ..ServeConfig::default()
    };
    let mut base = policy_file
        .as_ref()
        .map_or_else(|| base.clone(), |f| f.apply(&base));
    if let Some(nsplits) = knobs.parse("SCAR_NSPLITS", str::parse) {
        base.nsplits = nsplits;
    }
    let shape = knobs.parse("SCAR_TRAFFIC_SHAPE", TrafficShape::parse);
    // one sink for every primary-policy simulation; the Standalone
    // baselines get the disabled handle so the timeline attributes the
    // primary policy's wall time only
    let telemetry = Telemetry::enabled(knobs.flag("SCAR_TRACE"), knobs.flag("SCAR_METRICS"));
    let make_cfg = |telemetry: Telemetry| ServeConfig {
        telemetry,
        ..base.clone()
    };
    let reshape = |mix: TrafficMix| match shape {
        Some(s) => mix.reshaped(s),
        None => mix,
    };
    println!(
        "candidate evaluation: {:?} ({} worker threads) | policy {policy} | \
         admission {:?} | shape {} | preemption {} | nsplits {} | cost db {}\n",
        base.parallelism,
        base.parallelism.threads(),
        base.admission,
        shape.map_or("native".to_string(), |s| s.to_string()),
        if base.preemption { "on" } else { "off" },
        base.nsplits,
        base.cost_db_path.as_ref().map_or("off".to_string(), |p| {
            let bound = base
                .cost_db_max_entries
                .map_or(String::new(), |max| format!(" (≤{max} entries)"));
            format!("{}{bound}", p.display())
        }),
    );
    let mut total_preemptions = 0u64;

    // The steady-state serving reports: diffing this file across cold and
    // warm processes proves bit-identical scheduling. Logged from each
    // simulator's *second* in-process run — by then every round is served
    // from the schedule cache in both a cold and a warm process, so the
    // whole report (evaluation counter included) is process-independent;
    // a first-run report necessarily differs in `cost_evaluations`.
    let mut report_log = String::new();

    for (profile, mix) in [
        (Profile::Datacenter, reshape(TrafficMix::datacenter(0x5CA2))),
        (Profile::ArVr, reshape(TrafficMix::arvr(0x5CA2))),
    ] {
        let mcm = het_sides_3x3(profile);
        println!(
            "┌── {} traffic on {} ({:.0} req/s offered, {horizon_s} s horizon)",
            mix.use_case,
            mcm,
            mix.offered_rps()
        );

        // cold start, then the same traffic replayed on the warm cache
        let cfg = make_cfg(telemetry.clone());
        let scheduler = registry.build(policy, &cfg).expect("checked above");
        let mut sim = ServeSim::with_scheduler(&mcm, scheduler, cfg);
        let restored = sim.session().cached_costs();
        if restored > 0 {
            println!("cost database restored: {restored} entries before the first round");
        }
        let t0 = std::time::Instant::now();
        let cold = sim.run(&mix, horizon_s).expect("mix fits the 3x3 package");
        let cold_wall = t0.elapsed();
        let t1 = std::time::Instant::now();
        let warm = sim.run(&mix, horizon_s).expect("identical mix still fits");
        let warm_wall = t1.elapsed();

        println!("{cold}");
        writeln!(report_log, "{warm}").expect("string write");
        println!(
            "replay on warm cache: {} hits / {} misses ({:.1}% hit rate), wall {:.1?} → {:.1?}",
            warm.cache.hits,
            warm.cache.misses,
            warm.cache.hit_rate() * 100.0,
            cold_wall,
            warm_wall
        );
        assert!(
            warm.cache.hits > 0,
            "recurring traffic must produce cache hits"
        );
        if knobs.flag("SCAR_EXPECT_ZERO_EVALS") {
            assert_eq!(
                cold.cost_evaluations, 0,
                "SCAR_EXPECT_ZERO_EVALS: the persisted snapshot must cover {}",
                mix.name
            );
        }
        total_preemptions += cold.preemptions + warm.preemptions;

        // the Standalone baseline under the same traffic (sharing the
        // persisted cost database — per-layer costs are scheduler-free)
        let mut base = ServeSim::with_scheduler(
            &mcm,
            Box::new(Standalone::new()),
            make_cfg(Telemetry::disabled()),
        );
        let b = base.run(&mix, horizon_s).expect("standalone fits too");
        let b_warm = base.run(&mix, horizon_s).expect("standalone replay fits");
        writeln!(report_log, "{b_warm}").expect("string write");
        println!(
            "vs Standalone: throughput {:.1} → {:.1} req/s | p99 {:.2} → {:.2} ms | energy {:.3} → {:.3} J",
            b.throughput_rps,
            cold.throughput_rps,
            b.latency.p99_s * 1e3,
            cold.latency.p99_s * 1e3,
            b.energy_j,
            cold.energy_j,
        );
        if knobs.flag("SCAR_EXPECT_ZERO_EVALS") {
            assert_eq!(b.cost_evaluations, 0, "baseline must warm-start too");
        }

        // persist one representative scheduling round through the shared
        // artifact path (same JSON shape the bench tables emit); `of`
        // records the scheduler's configuration so replay reconstructs the
        // exact knobs (e.g. a non-default SCAR_NSPLITS)
        let live = mix.unit_scenario();
        let artifact = scar_core::ScheduleArtifact::of(
            format!("{} live round", mix.name),
            sim.scheduler(),
            sim.schedule_request(&live),
            sim.schedule_fresh(&live).expect("live round schedules"),
        );
        let path = format!("ARTIFACT_serve_{}.json", mix.use_case);
        let path = path.replace('/', "-").replace(' ', "_");
        scar_core::ScheduleArtifact::save_all(&path, &[artifact]).expect("write artifact");
        println!("wrote {path}");
        println!();
    }

    if knobs.flag("SCAR_EXPECT_PREEMPTIONS") {
        assert!(
            total_preemptions > 0,
            "SCAR_EXPECT_PREEMPTIONS: no mid-window preemption occurred \
             (is SCAR_PREEMPT=1 set and the traffic bursty enough?)"
        );
        println!("mid-window preemptions across runs: {total_preemptions} (expected nonzero: ok)");
    }
    std::fs::write("REPORT_serve_sim.txt", report_log).expect("write REPORT_serve_sim.txt");
    println!("wrote REPORT_serve_sim.txt (deterministic reports, diffable across runs)");

    // wall-clock attribution goes to stdout and the trace file only —
    // never into the byte-compared report
    if let Some(summary) = telemetry.wall_summary() {
        println!("{summary}");
    }
    if telemetry
        .write_trace("TRACE_serve_sim.json")
        .expect("write TRACE_serve_sim.json")
    {
        println!("wrote TRACE_serve_sim.json (Chrome trace_event; load in Perfetto)");
    }
    if let Some(json) = telemetry.metrics_json() {
        std::fs::write("METRICS_serve_sim.json", json).expect("write METRICS_serve_sim.json");
        println!("wrote METRICS_serve_sim.json (counter/gauge/histogram registry)");
    }
}
