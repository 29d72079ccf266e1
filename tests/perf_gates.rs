//! Host-time and scale gates: wall-clock bounds that only mean something
//! in an optimized build, so every test here is `#[ignore]`d in the
//! tier-1 run.
//!
//! ```sh
//! cargo test --release --test perf_gates -- --ignored
//! ```
//!
//! * **Splice fast path** — on the burst overload mix, preemption's wall
//!   stays within 2× of boundary-only rescheduling (best of five reps
//!   each, the least-interference estimate on a jittery host).
//! * **Parallel search** — on a host with ≥ 4 hardware threads, the 6×6
//!   evolutionary search runs ≥ 2× faster under `Auto` than `Serial`, so
//!   a change that silently serializes evaluation fails. Smaller hosts
//!   skip the bound.
//! * **Fleet scale** — the 4-replica heterogeneous fleet serves ≥ 1M
//!   burst AR/VR arrivals under every dispatch policy with and without a
//!   NoP fabric, each policy inside a 300 s wall ceiling, with
//!   `Serial ≡ Fixed(4)` and every rendered report pinned to a
//!   [`StableHasher`] digest.
//!
//! Throughput (schedules and arrivals per CPU-second) is `perfbench`'s
//! job, not this file's.

use scar::core::{
    EvoParams, OptMetric, Parallelism, Scar, ScheduleRequest, ScheduleResult, Scheduler,
    SearchKind, Session,
};
use scar::hash::StableHasher;
use scar::mcm::templates::{het_cross_6x6, het_sides_3x3, Profile};
use scar::mcm::InterconnectSpec;
use scar::serve::{
    DispatchKind, FleetConfig, FleetReport, FleetSim, ReplicaSpec, ServeConfig, ServeReport,
    ServeSim, TrafficMix, TrafficShape,
};
use scar::workloads::Scenario;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Serves the burst overload mix five times and returns the
/// (rep-invariant) report with the smallest wall.
fn overload_best_of_five(preemption: bool) -> (ServeReport, Duration) {
    let mcm = het_sides_3x3(Profile::ArVr);
    let mix = TrafficMix::arvr(0x0B57).reshaped(TrafficShape::Burst);
    let cfg = ServeConfig {
        preemption,
        nsplits: 2,
        ..ServeConfig::default()
    };
    let mut best: Option<(ServeReport, Duration)> = None;
    for _ in 0..5 {
        let mut sim = ServeSim::new(&mcm, cfg.clone());
        let t0 = Instant::now();
        let report = sim.run(&mix, 2.0).expect("mix fits the 3x3");
        let wall = t0.elapsed();
        match &mut best {
            None => best = Some((report, wall)),
            Some((first, min_wall)) => {
                assert_eq!(&report, first, "identical reports across wall reps");
                *min_wall = (*min_wall).min(wall);
            }
        }
    }
    best.expect("at least one rep")
}

#[test]
#[ignore = "wall-clock gate: run with --release -- --ignored"]
fn preemption_wall_is_within_twice_boundary_only() {
    let (off, off_wall) = overload_best_of_five(false);
    let (on, on_wall) = overload_best_of_five(true);
    assert!(on.preemptions > 0 && off.preemptions == 0);
    let ratio = on_wall.as_secs_f64() / off_wall.as_secs_f64();
    assert!(
        ratio <= 2.0,
        "preemption wall {on_wall:.1?} is {ratio:.2}× boundary-only {off_wall:.1?} (limit 2×)"
    );
}

/// One full 6×6 evolutionary `Scar::schedule` call on a fresh session, so
/// neither run warms the other.
fn six_by_six_search(parallelism: Parallelism) -> (ScheduleResult, Duration) {
    let scar = Scar::builder()
        .nsplits(3)
        // a serving-scale population: large generations give the engine
        // full batches to spread across workers
        .search(SearchKind::Evolutionary(EvoParams {
            population: 24,
            generations: 6,
            mutation_rate: 0.3,
        }))
        .build();
    let request = ScheduleRequest::new(Scenario::datacenter(4), het_cross_6x6(Profile::Datacenter))
        .metric(OptMetric::Edp)
        .parallelism(parallelism);
    let t0 = Instant::now();
    let result = scar
        .schedule(&Session::new(), &request)
        .expect("scenario 4 schedules on the 6x6");
    (result, t0.elapsed())
}

#[test]
#[ignore = "wall-clock gate: run with --release -- --ignored"]
fn evolutionary_search_speeds_up_under_auto() {
    let threads = Parallelism::Auto.threads();
    if threads < 4 {
        eprintln!("skipped: the ≥ 2× bound needs ≥ 4 hardware threads, this host has {threads}");
        return;
    }
    let (serial, serial_wall) = six_by_six_search(Parallelism::Serial);
    let (auto, auto_wall) = six_by_six_search(Parallelism::Auto);
    assert_eq!(serial.total(), auto.total());
    assert_eq!(serial.schedule(), auto.schedule());
    let speedup = serial_wall.as_secs_f64() / auto_wall.as_secs_f64();
    assert!(
        speedup >= 2.0,
        "speedup {speedup:.2}× is below 2× on a {threads}-thread host \
         (serial {serial_wall:.1?}, auto {auto_wall:.1?})"
    );
}

/// [`fleet_digest`]s at the default 7500 s horizon
/// (1,007,863 arrivals), in `DispatchKind::builtins()` order: no fabric,
/// then NoP-priced.
const FLEET_DIGESTS: [[u64; 4]; 2] = [
    [
        0x879d_119e_3dc2_d7a6,
        0xc7a6_7e0b_aa55_82e7,
        0x33f9_e6c0_5896_6965,
        0xf40f_543a_58ea_613b,
    ],
    [
        0xbcf3_f96c_1ec1_7fcc,
        0x8b06_66fc_2e46_d0ea,
        0x29ca_2575_4cf2_7dc1,
        0x4878_dec0_d2a9_9d12,
    ],
];

/// Digest of the rendered fleet report and of each replica's rendered
/// report and busy seconds, so per-replica utilization is pinned exactly
/// and not only to the rendered 0.1%.
fn fleet_digest(r: &FleetReport) -> u64 {
    let mut h = StableHasher::new();
    r.to_string().hash(&mut h);
    for rep in &r.replicas {
        rep.report.to_string().hash(&mut h);
        h.write_u64(rep.report.busy_s.to_bits());
    }
    h.finish()
}

fn fleet_run(
    kind: &DispatchKind,
    fabric: Option<InterconnectSpec>,
    parallelism: Parallelism,
) -> (FleetReport, Duration) {
    let base = ServeConfig {
        parallelism,
        ..ServeConfig::default()
    };
    let replicas = ReplicaSpec::heterogeneous(4, Profile::ArVr, base)
        .into_iter()
        .map(|mut r| {
            r.mcm = r.mcm.with_interconnect(fabric);
            r
        })
        .collect();
    let mut fleet = FleetSim::new(
        replicas,
        FleetConfig {
            dispatch: kind.clone(),
            ..FleetConfig::default()
        },
    );
    let mix = TrafficMix::arvr(0xF1EE7).reshaped(TrafficShape::Burst);
    let t0 = Instant::now();
    let report = fleet.run(&mix, 7500.0).expect("mix fits each replica");
    (report, t0.elapsed())
}

#[test]
#[ignore = "scale and wall-clock gate: run with --release -- --ignored"]
fn million_arrival_fleet_is_conserved_bounded_and_pinned() {
    let mut digests = [[0u64; 4]; 2];
    let mut offered = None;
    for (f, fabric) in [None, Some(InterconnectSpec::nop())]
        .into_iter()
        .enumerate()
    {
        for (k, kind) in DispatchKind::builtins().iter().enumerate() {
            let (r, serial_wall) = fleet_run(kind, fabric, Parallelism::Serial);
            let (fixed, fixed_wall) = fleet_run(kind, fabric, Parallelism::Fixed(4));
            let label = format!("{}/{}", fabric.map_or("none", |s| s.label()), r.dispatch);
            assert_eq!(r, fixed, "{label}: Serial ≡ Fixed(4)");
            assert_eq!(r.to_string(), fixed.to_string(), "{label}: rendered");
            assert!(r.offered >= 1_000_000, "{label}: {} arrivals", r.offered);
            assert_eq!(
                *offered.get_or_insert(r.offered),
                r.offered,
                "{label}: identical traffic under every policy and fabric"
            );
            assert_eq!(r.offered, r.completed + r.rejected, "{label}: conservation");
            assert_eq!(
                r.offered,
                r.replicas.iter().map(|rep| rep.routed).sum::<usize>(),
                "{label}: every arrival routed exactly once"
            );
            if let Some(fab) = &r.fabric {
                let per_replica: u64 = r.replicas.iter().map(|rep| rep.migrated_in).sum();
                assert_eq!(fab.migrations, per_replica, "{label}: fabric rollup");
            }
            let wall = serial_wall.min(fixed_wall);
            assert!(
                wall <= Duration::from_secs(300),
                "{label}: wall {wall:.1?} exceeds the 300 s ceiling"
            );
            digests[f][k] = fleet_digest(&r);
        }
    }
    assert_eq!(digests, FLEET_DIGESTS, "{digests:#018x?}");
}
