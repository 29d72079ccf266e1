//! Serial vs parallel window-search wall-clock, with a bit-identity check.
//!
//! Runs the 3×3 brute-force search and the 6×6 evolutionary search once
//! under `Parallelism::Serial` and once under `Parallelism::Auto`, asserts
//! the two produce identical schedules (the engine's determinism
//! guarantee), and writes the measured speedups to
//! `BENCH_search_parallel.json`.
//!
//! ```sh
//! cargo run --release -p scar-bench --bin bench_search_parallel
//! ```
//!
//! On a multi-core runner (≥ 4 hardware threads) the 6×6 evolutionary
//! search must be ≥ 2× faster under `Auto` — the bin *asserts* it, so CI
//! catches a change that silently serializes evaluation. On a
//! single-core host both timings are the same modulo noise (the engine
//! never spawns more workers than threads) and the gate is skipped.

use scar_core::{
    EvoParams, OptMetric, Parallelism, Scar, ScheduleRequest, ScheduleResult, Scheduler,
    SearchBudget, SearchKind, Session,
};
use scar_mcm::templates::{het_cross_6x6, het_sides_3x3, Profile};
use scar_mcm::McmConfig;
use scar_workloads::Scenario;
use std::time::Instant;

/// Hardware-thread count from which the ≥ 2× speedup gate applies.
const SPEEDUP_GATE_THREADS: usize = 4;

/// The acceptance bar for gated cases: parallel ≥ 2× serial.
const MIN_SPEEDUP: f64 = 2.0;

struct Case {
    name: &'static str,
    scenario: Scenario,
    mcm: McmConfig,
    search: SearchKind,
    budget: SearchBudget,
    nsplits: usize,
    /// Whether this case is held to [`MIN_SPEEDUP`] on multi-core hosts.
    gated: bool,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "datacenter-sc1 3x3 brute-force",
            scenario: Scenario::datacenter(1),
            mcm: het_sides_3x3(Profile::Datacenter),
            search: SearchKind::BruteForce,
            budget: SearchBudget::default(),
            nsplits: 4,
            gated: false,
        },
        Case {
            name: "datacenter-sc4 6x6 evolutionary",
            scenario: Scenario::datacenter(4),
            mcm: het_cross_6x6(Profile::Datacenter),
            // a serving-scale population: large generations give the
            // engine full batches to spread across workers
            search: SearchKind::Evolutionary(EvoParams {
                population: 24,
                generations: 6,
                mutation_rate: 0.3,
            }),
            budget: SearchBudget::default(),
            nsplits: 3,
            gated: true,
        },
    ]
}

fn run(case: &Case, parallelism: Parallelism) -> (f64, ScheduleResult) {
    let scar = Scar::builder()
        .nsplits(case.nsplits)
        .search(case.search.clone())
        .build();
    let request = ScheduleRequest::new(case.scenario.clone(), case.mcm.clone())
        .metric(OptMetric::Edp)
        .budget(case.budget.clone())
        .parallelism(parallelism);
    // a fresh session per run: neither ordering warms the other
    let session = Session::new();
    let t0 = Instant::now();
    let result = scar
        .schedule(&session, &request)
        .expect("benchmark scenarios schedule");
    (t0.elapsed().as_secs_f64(), result)
}

fn main() {
    let hardware_threads = Parallelism::Auto.threads();
    println!("hardware threads: {hardware_threads}");

    let mut rows = Vec::new();
    for case in cases() {
        // serial first, parallel second
        let (serial_s, serial) = run(&case, Parallelism::Serial);
        let (parallel_s, parallel) = run(&case, Parallelism::Auto);
        let identical = serial.total() == parallel.total()
            && serial.schedule() == parallel.schedule()
            && serial.candidates() == parallel.candidates();
        assert!(
            identical,
            "{}: serial and parallel schedules diverged",
            case.name
        );
        let speedup = serial_s / parallel_s.max(1e-12);
        println!(
            "{:<34} serial {serial_s:>8.3}s | parallel {parallel_s:>8.3}s | speedup {speedup:>5.2}x | {} candidates",
            case.name,
            serial.candidates().len(),
        );
        let gate_active = case.gated && hardware_threads >= SPEEDUP_GATE_THREADS;
        assert!(
            !gate_active || speedup >= MIN_SPEEDUP,
            "{}: speedup {speedup:.2}x is below the {MIN_SPEEDUP}x acceptance bar on a \
             {hardware_threads}-thread host",
            case.name,
        );
        rows.push(format!(
            concat!(
                "    {{\n",
                "      \"scenario\": \"{}\",\n",
                "      \"candidates\": {},\n",
                "      \"serial_s\": {:.6},\n",
                "      \"parallel_s\": {:.6},\n",
                "      \"speedup\": {:.3},\n",
                "      \"identical_results\": true\n",
                "    }}"
            ),
            case.name,
            serial.candidates().len(),
            serial_s,
            parallel_s,
            speedup,
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"search_parallel\",\n",
            "  \"hardware_threads\": {},\n",
            "  \"parallelism\": \"Auto\",\n",
            "  \"runs\": [\n{}\n  ],\n",
            "  \"note\": \"speedup = serial wall-clock / parallel wall-clock for one full ",
            "Scar::schedule call; results are bit-identical by construction (asserted), ",
            "so speedup reflects the window-search engine's worker pool only. On a ",
            "single-core host the expected speedup is ~1.0.\"\n",
            "}}\n"
        ),
        hardware_threads,
        rows.join(",\n"),
    );
    std::fs::write("BENCH_search_parallel.json", &json).expect("write BENCH_search_parallel.json");
    println!("wrote BENCH_search_parallel.json");
}
