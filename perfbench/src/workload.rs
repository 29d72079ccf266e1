//! The three workloads. Each is a closed loop with one client: the next
//! public call is issued only after the previous one returned. Every
//! workload pins `Parallelism::Serial`.

use scar::core::{
    OptMetric, Parallelism, Scar, ScheduleRequest, Scheduler, SearchBudget, SearchKind, Session,
};
use scar::hash::StableHasher;
use scar::mcm::templates::{het_cross_6x6, het_sides_3x3, Profile};
use scar::mcm::McmConfig;
use scar::serve::fleet::{FleetConfig, FleetReport, FleetSim, ReplicaSpec};
use scar::serve::{
    AdmissionKind, PolicyRegistry, Request, ServeConfig, ServeReport, ServeSim, TrafficMix,
    TrafficShape,
};
use scar::telemetry::Telemetry;
use scar::workloads::{Scenario, ScenarioModel};
use std::hash::Hasher;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["paper_dse", "fleet_steady", "serve_burst"];

/// Virtual horizon of one `fleet_steady` run (~405k arrivals).
const FLEET_HORIZON_S: f64 = 3000.0;
/// Virtual horizon of one `serve_burst` run (~8.3k arrivals).
const SERVE_HORIZON_S: f64 = 60.0;
/// Independent burst realizations one `serve_burst` cycle serves: bursts
/// make a single 60 s realization's search work swing with the seed, and
/// summing several narrows that swing.
const SERVE_REALIZATIONS: u64 = 4;

/// Modelled-hardware statistics of one op: correctness outputs, never
/// performance metrics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimStats {
    /// Schedule latency (`paper_dse`) or makespan (serving), seconds.
    pub latency_s: f64,
    /// Energy, joules.
    pub energy_j: f64,
    /// Energy-delay product, `energy_j · latency_s`.
    pub edp: f64,
    /// Deadline misses over deadline-bound requests.
    pub miss_rate: f64,
    /// Time windows (`paper_dse`) or scheduling rounds (serving).
    pub windows: u64,
    /// Schedule-cache hits.
    pub cache_hits: u64,
    /// Schedule-cache misses.
    pub cache_misses: u64,
    /// Mid-window preemptions.
    pub preemptions: u64,
}

impl SimStats {
    /// Stable digest over the bit patterns of every field.
    pub fn digest(&self) -> u64 {
        let mut h = StableHasher::new();
        for bits in [
            self.latency_s.to_bits(),
            self.energy_j.to_bits(),
            self.edp.to_bits(),
            self.miss_rate.to_bits(),
            self.windows,
            self.cache_hits,
            self.cache_misses,
            self.preemptions,
        ] {
            h.write_u64(bits);
        }
        h.finish()
    }

    fn of_serving(
        makespan_s: f64,
        energy_j: f64,
        deadline_misses: usize,
        deadline_bound: usize,
        windows: usize,
        cache: scar::serve::CacheStats,
        preemptions: u64,
    ) -> Self {
        Self {
            latency_s: makespan_s,
            energy_j,
            edp: energy_j * makespan_s,
            miss_rate: if deadline_bound == 0 {
                0.0
            } else {
                deadline_misses as f64 / deadline_bound as f64
            },
            windows: windows as u64,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            preemptions,
        }
    }
}

impl std::fmt::Display for SimStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sim_latency_s={} sim_energy_j={} sim_edp={} sim_miss_rate={} sim_windows={} \
             sim_cache_hits={} sim_cache_misses={} sim_preemptions={}",
            self.latency_s,
            self.energy_j,
            self.edp,
            self.miss_rate,
            self.windows,
            self.cache_hits,
            self.cache_misses,
            self.preemptions
        )
    }
}

/// One completed op: the host wall of its timed public call, the work it
/// did, and its modelled-hardware statistics.
#[derive(Debug, Clone)]
pub struct Op {
    /// Process CPU seconds of the timed public call.
    pub call_s: f64,
    /// Wall seconds of the timed public call.
    pub wall_s: f64,
    /// Schedules produced: one `Scheduler::schedule` call, or the
    /// scheduling rounds of a serving run.
    pub schedules: u64,
    /// Arrivals offered to the call (one request per schedule call).
    pub arrivals: u64,
    /// Candidates the search evaluated, where the public API exposes them
    /// (`ScheduleResult::candidates`); 0 for serving runs.
    pub candidates: u64,
    /// Modelled-hardware statistics.
    pub sim: SimStats,
}

/// A workload after set-up: ops walk its inputs cyclically.
pub trait Workload {
    /// Distinct inputs one cycle of ops walks through.
    fn inputs(&self) -> usize;
    /// A label for input `index`.
    fn input_label(&self, index: usize) -> String;
    /// MAESTRO evaluations set-up performed.
    fn setup_evaluations(&self) -> u64;
    /// Runs one op on input `index % inputs()`. `Err` is a failed op:
    /// the call returned `Err` or an invariant of its output broke.
    fn op(&mut self, index: usize) -> Result<Op, String>;
}

/// Builds workload `name` for `seed`, recording set-up spans into `tel`
/// and handing `tel` to every program component the workload drives.
pub fn setup(name: &str, seed: u64, tel: &Telemetry) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper_dse" => Box::new(PaperDse::setup(seed, tel)),
        "fleet_steady" => Box::new(FleetSteady::setup(seed, tel)),
        "serve_burst" => Box::new(ServeBurst::setup(seed, tel)?),
        other => return Err(format!("unknown workload {other:?} (known: {NAMES:?})")),
    })
}

/// Runs `call`, returning its output and the process CPU seconds and
/// wall seconds it took.
fn timed<T>(call: impl FnOnce() -> T) -> (T, f64, f64) {
    let wall = Instant::now();
    let cpu = crate::procfs::process_cpu_s();
    let out = call();
    let cpu_s = crate::procfs::process_cpu_s() - cpu;
    (out, cpu_s, wall.elapsed().as_secs_f64())
}

/// Renders a report through its `Display` under the `report.render` span.
fn render(tel: &Telemetry, report: &impl std::fmt::Display) {
    let _g = tel.span("report.render");
    std::hint::black_box(report.to_string());
}

// ---------------------------------------------------------------------------
// paper_dse
// ---------------------------------------------------------------------------

/// The ten Table III scenarios on Het-Sides 3×3 (brute force) and
/// Het-Cross 6×6 (evolutionary), each under EDP and latency: 40 requests
/// cycled over one warm session.
struct PaperDse {
    tel: Telemetry,
    session: Session,
    brute: Box<dyn Scheduler>,
    evolutionary: Box<dyn Scheduler>,
    /// `(evolutionary, request)` in cycle order.
    requests: Vec<(bool, ScheduleRequest)>,
    warmup_evaluations: u64,
}

impl PaperDse {
    const NSPLITS: usize = 2;

    fn setup(seed: u64, tel: &Telemetry) -> Self {
        let mut requests = Vec::with_capacity(40);
        for id in 1..=10 {
            let scenario = Scenario::by_id(id);
            let profile = if id <= 5 {
                Profile::Datacenter
            } else {
                Profile::ArVr
            };
            for (evolutionary, mcm) in [
                (false, het_sides_3x3(profile)),
                (true, het_cross_6x6(profile)),
            ] {
                for metric in [OptMetric::Edp, OptMetric::Latency] {
                    let request = ScheduleRequest::new(scenario.clone(), mcm.clone())
                        .metric(metric)
                        .budget(SearchBudget::default())
                        .seed(seed.wrapping_add(requests.len() as u64))
                        .parallelism(Parallelism::Serial);
                    requests.push((evolutionary, request));
                }
            }
        }
        let session = Session::new().with_telemetry(tel.clone());
        {
            let _g = tel.span("maestro.warmup");
            for (_, request) in &requests {
                session.warm_up(request);
            }
        }
        Self {
            tel: tel.clone(),
            warmup_evaluations: session.cost_evaluations(),
            session,
            brute: Box::new(Scar::builder().nsplits(Self::NSPLITS).build()),
            evolutionary: Box::new(
                Scar::builder()
                    .nsplits(Self::NSPLITS)
                    .search(SearchKind::Evolutionary(Default::default()))
                    .build(),
            ),
            requests,
        }
    }
}

impl Workload for PaperDse {
    fn inputs(&self) -> usize {
        self.requests.len()
    }

    fn input_label(&self, index: usize) -> String {
        let (_, r) = &self.requests[index % self.requests.len()];
        format!(
            "{} on {} by {}",
            r.scenario.name(),
            r.mcm.name(),
            r.metric.label()
        )
    }

    fn setup_evaluations(&self) -> u64 {
        self.warmup_evaluations
    }

    fn op(&mut self, index: usize) -> Result<Op, String> {
        let (evolutionary, request) = &self.requests[index % self.requests.len()];
        let scheduler = if *evolutionary {
            &self.evolutionary
        } else {
            &self.brute
        };
        let _op = self.tel.span("bench.op");
        let (result, call_s, wall_s) = timed(|| scheduler.schedule(&self.session, request));
        let result = result.map_err(|e| format!("{}: {e}", self.input_label(index)))?;
        let total = result.total();
        Ok(Op {
            call_s,
            wall_s,
            schedules: 1,
            arrivals: 1,
            candidates: result.candidates().len() as u64,
            sim: SimStats {
                latency_s: total.latency_s,
                energy_j: total.energy_j,
                edp: total.edp(),
                windows: result.windows().len() as u64,
                ..SimStats::default()
            },
        })
    }
}

// ---------------------------------------------------------------------------
// fleet_steady
// ---------------------------------------------------------------------------

/// Four heterogeneous AR/VR replicas behind round-robin dispatch serving
/// the frame-clock AR/VR mix in steady state.
struct FleetSteady {
    tel: Telemetry,
    replicas: Vec<ReplicaSpec>,
    mix: TrafficMix,
    /// Arrivals the mix emits over the horizon, generated at set-up.
    expected_offered: usize,
}

impl FleetSteady {
    fn setup(seed: u64, tel: &Telemetry) -> Self {
        let base = ServeConfig {
            parallelism: Parallelism::Serial,
            ..ServeConfig::default()
        };
        let replicas = ReplicaSpec::heterogeneous(4, Profile::ArVr, base);
        let mix = TrafficMix::arvr(seed);
        let expected_offered = {
            let _g = tel.span("traffic.arrivals");
            mix.arrivals(FLEET_HORIZON_S).len()
        };
        Self {
            tel: tel.clone(),
            replicas,
            mix,
            expected_offered,
        }
    }

    fn check(&self, r: &FleetReport) -> Result<(), String> {
        let routed: usize = r.replicas.iter().map(|x| x.routed).sum();
        if r.offered != self.expected_offered {
            return Err(format!(
                "offered {} != {} generated arrivals",
                r.offered, self.expected_offered
            ));
        }
        if r.offered != r.completed + r.rejected {
            return Err(format!(
                "offered {} != completed {} + rejected {}",
                r.offered, r.completed, r.rejected
            ));
        }
        if routed != r.offered {
            return Err(format!("routed {routed} != offered {}", r.offered));
        }
        Ok(())
    }
}

impl Workload for FleetSteady {
    fn inputs(&self) -> usize {
        1
    }

    fn input_label(&self, _: usize) -> String {
        format!(
            "{} over {} replicas for {FLEET_HORIZON_S} s",
            self.mix.name,
            self.replicas.len()
        )
    }

    fn setup_evaluations(&self) -> u64 {
        0
    }

    fn op(&mut self, _: usize) -> Result<Op, String> {
        let _op = self.tel.span("bench.op");
        let mut fleet = FleetSim::new(
            self.replicas.clone(),
            FleetConfig {
                telemetry: self.tel.clone(),
                ..FleetConfig::default()
            },
        );
        let (report, call_s, wall_s) = timed(|| fleet.run(&self.mix, FLEET_HORIZON_S));
        let report = report.map_err(|e| format!("fleet run: {e}"))?;
        self.check(&report)?;
        render(&self.tel, &report);
        let energy_j = report.replicas.iter().map(|r| r.report.energy_j).sum();
        Ok(Op {
            call_s,
            wall_s,
            schedules: report
                .replicas
                .iter()
                .map(|r| r.report.windows_scheduled as u64)
                .sum(),
            arrivals: report.offered as u64,
            candidates: 0,
            sim: SimStats::of_serving(
                report.makespan_s,
                energy_j,
                report.deadline_misses,
                report.deadline_bound,
                report
                    .replicas
                    .iter()
                    .map(|r| r.report.windows_scheduled)
                    .sum(),
                report.cache,
                report.replicas.iter().map(|r| r.report.preemptions).sum(),
            ),
        })
    }
}

// ---------------------------------------------------------------------------
// serve_burst
// ---------------------------------------------------------------------------

/// One Het-Sides 3×3 serving the bursty AR/VR mix with deadline admission,
/// preemption and two window splits, over a session warmed at set-up for
/// every batch size the loop can fold. Input `i` is the burst realization
/// of mix seed `SERVE_REALIZATIONS · seed + i`.
struct ServeBurst {
    tel: Telemetry,
    mcm: McmConfig,
    cfg: ServeConfig,
    /// `(mix, arrivals)` per realization.
    inputs: Vec<(TrafficMix, Vec<Request>)>,
    /// The warm session; lent to each op's simulator and taken back.
    session: Option<Session>,
    warmup_evaluations: u64,
}

impl ServeBurst {
    fn setup(seed: u64, tel: &Telemetry) -> Result<Self, String> {
        let mcm = het_sides_3x3(Profile::ArVr);
        let mixes: Vec<TrafficMix> = (0..SERVE_REALIZATIONS)
            .map(|i| {
                let mix_seed = seed.wrapping_mul(SERVE_REALIZATIONS).wrapping_add(i);
                TrafficMix::arvr(mix_seed).reshaped(TrafficShape::Burst)
            })
            .collect();
        let cfg = ServeConfig {
            nsplits: 2,
            admission: AdmissionKind::DeadlineFeasible,
            preemption: true,
            parallelism: Parallelism::Serial,
            telemetry: tel.clone(),
            ..ServeConfig::default()
        };
        // warm the cost DB for every batch the loop can fold, so ops
        // run at zero MAESTRO evaluations
        let unit = mixes[0].unit_scenario();
        let session = Session::new().with_telemetry(tel.clone());
        {
            let _g = tel.span("maestro.warmup");
            for n in 1..=cfg.max_batch_per_stream {
                let models = unit
                    .models()
                    .iter()
                    .map(|m| ScenarioModel {
                        model: m.model.clone(),
                        batch: m.batch * n,
                    })
                    .collect();
                let scenario = Scenario::new(unit.name(), unit.use_case(), models);
                session.warm_up(&ScheduleRequest::new(scenario, mcm.clone()));
            }
        }
        let inputs: Vec<(TrafficMix, Vec<Request>)> = {
            let _g = tel.span("traffic.arrivals");
            mixes
                .into_iter()
                .map(|mix| {
                    let arrivals = mix.arrivals(SERVE_HORIZON_S);
                    (mix, arrivals)
                })
                .collect()
        };
        if inputs.iter().any(|(_, a)| a.is_empty()) {
            return Err("a burst realization emitted no arrivals".into());
        }
        Ok(Self {
            tel: tel.clone(),
            warmup_evaluations: session.cost_evaluations(),
            session: Some(session),
            mcm,
            cfg,
            inputs,
        })
    }
}

impl Workload for ServeBurst {
    fn inputs(&self) -> usize {
        self.inputs.len()
    }

    fn input_label(&self, index: usize) -> String {
        format!(
            "{} realization {index} on {} for {SERVE_HORIZON_S} s",
            self.inputs[index % self.inputs.len()].0.name,
            self.mcm.name()
        )
    }

    fn setup_evaluations(&self) -> u64 {
        self.warmup_evaluations
    }

    fn op(&mut self, index: usize) -> Result<Op, String> {
        let _op = self.tel.span("bench.op");
        let (mix, arrivals) = &self.inputs[index % self.inputs.len()];
        let arrivals = arrivals.clone();
        let fed = arrivals.len();
        let scheduler = PolicyRegistry::with_builtins()
            .build("SCAR", &self.cfg)
            .map_err(|e| e.to_string())?;
        let session = self
            .session
            .take()
            .expect("the session is returned after every op");
        let mut sim = ServeSim::with_session(&self.mcm, scheduler, self.cfg.clone(), session);
        let (report, call_s, wall_s) = timed(|| sim.run_arrivals(mix, arrivals));
        self.session = Some(sim.into_session());
        let report: ServeReport = report.map_err(|e| format!("serve run: {e}"))?;
        if report.offered != fed {
            return Err(format!("offered {} != {fed} fed arrivals", report.offered));
        }
        if report.offered != report.completed + report.rejected {
            return Err(format!(
                "offered {} != completed {} + rejected {}",
                report.offered, report.completed, report.rejected
            ));
        }
        render(&self.tel, &report);
        Ok(Op {
            call_s,
            wall_s,
            schedules: report.windows_scheduled as u64,
            arrivals: report.offered as u64,
            candidates: 0,
            sim: SimStats::of_serving(
                report.makespan_s,
                report.energy_j,
                report.deadline_misses,
                report.deadline_bound,
                report.windows_scheduled,
                report.cache,
                report.preemptions,
            ),
        })
    }
}
