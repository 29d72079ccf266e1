//! Serving-loop throughput: scheduling rounds per second of wall time,
//! measured through the telemetry span timers.
//!
//! Serves both paper traffic mixes (datacenter Poisson and the
//! XRBench-style AR/VR frame mix) on Het-Sides with the SCAR policy —
//! one cold pass and one warm (cached) pass each — and reports, per mix:
//!
//! * **schedules/s** — scheduling rounds completed per second of
//!   `serve.run` wall time (the telemetry root span; both passes summed),
//! * **arrivals/s** — offered requests processed per second of the same
//!   wall time,
//! * the cold/warm split of the full-search vs cache-hit round counts
//!   (from the deterministic report counters).
//!
//! Results land in `BENCH_throughput.json`. The acceptance gate asserts
//! every mix clears a schedules/s floor — deliberately loose so CI
//! machines of very different speeds all pass:
//!
//! ```sh
//! cargo run --release -p scar-bench --bin bench_throughput
//! ```
//!
//! The virtual-time serving *reports* are deterministic; the throughput
//! numbers are wall-clock and vary run to run (which is why they live in
//! a `BENCH_*.json`, never in a byte-compared `REPORT_*`).

use scar_mcm::templates::{het_sides_3x3, Profile};
use scar_serve::{ServeConfig, ServeSim, TrafficMix};
use scar_telemetry::Telemetry;
use std::fmt::Write as _;

/// The schedules/s floor. A single-core CI box measures ~3.3k/s
/// on the slowest mix (datacenter Poisson, cold pass included); 200/s is
/// a 16× margin below that — tight enough to catch real collapses (the
/// schedule cache, the splice fast path, or batched evaluation silently
/// disabled all cost an order of magnitude), loose enough for machines
/// of very different speeds.
const FLOOR: f64 = 200.0;

fn main() {
    let horizon_s = 2.0;

    let mut entries = String::new();
    let mut failures = Vec::new();
    for (i, (profile, mix)) in [
        (Profile::Datacenter, TrafficMix::datacenter(0x5CA2)),
        (Profile::ArVr, TrafficMix::arvr(0x5CA2)),
    ]
    .into_iter()
    .enumerate()
    {
        let mcm = het_sides_3x3(profile);
        // metrics-only sink: span wall timers without the trace buffer
        let telemetry = Telemetry::enabled(false, true);
        let cfg = ServeConfig {
            telemetry: telemetry.clone(),
            ..ServeConfig::default()
        };
        let mut sim = ServeSim::new(&mcm, cfg);
        let cold = sim.run(&mix, horizon_s).expect("mix fits the 3x3");
        let warm = sim.run(&mix, horizon_s).expect("identical mix still fits");

        let run_wall = telemetry
            .span_wall("serve.run")
            .expect("the sim records its root span");
        let rounds = (cold.windows_scheduled + warm.windows_scheduled) as f64;
        let offered = (cold.offered + warm.offered) as f64;
        let schedules_per_sec = rounds / run_wall.total_s;
        let arrivals_per_sec = offered / run_wall.total_s;
        println!(
            "{}: {rounds} rounds / {offered} arrivals in {:.1} ms wall → \
             {schedules_per_sec:.1} schedules/s, {arrivals_per_sec:.1} arrivals/s \
             (cold: {} full searches; warm: {} cache hits)",
            mix.name,
            run_wall.total_s * 1e3,
            cold.full_searches,
            warm.cache.hits,
        );
        if schedules_per_sec < FLOOR {
            failures.push(format!(
                "{}: {schedules_per_sec:.2} schedules/s below the {FLOOR} floor",
                mix.name
            ));
        }
        write!(
            entries,
            "{}    \"{}\": {{\n      \"windows_scheduled\": {rounds},\n      \
             \"offered\": {offered},\n      \"serve_wall_s\": {:.6},\n      \
             \"schedules_per_sec\": {schedules_per_sec:.2},\n      \
             \"arrivals_per_sec\": {arrivals_per_sec:.2},\n      \
             \"cold_full_searches\": {},\n      \"warm_cache_hits\": {}\n    }}",
            if i == 0 { "" } else { ",\n" },
            mix.name,
            run_wall.total_s,
            cold.full_searches,
            warm.cache.hits,
        )
        .expect("string write");
    }

    let json = format!(
        "{{\n  \"horizon_s\": {horizon_s},\n  \"floor_schedules_per_sec\": {FLOOR},\n  \
         \"results\": {{\n{entries}\n  }}\n}}\n"
    );
    std::fs::write("BENCH_throughput.json", json).expect("write BENCH_throughput.json");
    println!("wrote BENCH_throughput.json");

    assert!(
        failures.is_empty(),
        "scheduling throughput below floor:\n{}",
        failures.join("\n")
    );
    println!("acceptance: every mix clears {FLOOR} schedules/s: ok");
}
