//! Golden output digests: scheduler and serving outputs pinned across
//! commits.
//!
//! Every other byte gate in the suite compares the program against itself
//! (Serial ≡ Fixed(N), traced ≡ untraced, replay ≡ record). These tests
//! compare it against a fixed past: each case folds an output into one
//! [`StableHasher`] `u64`, and the expected values were computed once and
//! committed. A refactor that claims "no behaviour change" must leave every
//! digest untouched; a change that moves one on purpose updates the pinned
//! value in the same commit and says why.

use scar::core::{
    OptMetric, Parallelism, ScheduleInstance, ScheduleRequest, ScheduleResult, SearchBudget,
    Session,
};
use scar::hash::StableHasher;
use scar::mcm::templates::{het_sides_3x3, Profile};
use scar::mcm::InterconnectSpec;
use scar::serve::{AdmissionKind, PolicyRegistry, ServeConfig, ServeSim, TrafficMix, TrafficShape};
use scar::workloads::{Model, Scenario, ScenarioModel};
use std::hash::{Hash, Hasher};

fn request() -> ScheduleRequest {
    ScheduleRequest::new(Scenario::datacenter(1), het_sides_3x3(Profile::Datacenter))
        .metric(OptMetric::Edp)
        .budget(SearchBudget {
            max_root_perms: 8,
            max_paths_per_model: 4,
            max_placements_per_window: 60,
            max_candidates_per_window: 120,
            parallelism: Parallelism::Serial,
            ..SearchBudget::default()
        })
}

/// Two windows per schedule, so the preempt cut below has a boundary.
fn zoo_config() -> ServeConfig {
    ServeConfig {
        nsplits: 2,
        parallelism: Parallelism::Serial,
        ..ServeConfig::default()
    }
}

/// Digest of a result's totals, chosen schedule and candidate cloud.
fn digest(r: &ScheduleResult) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(r.total().latency_s.to_bits());
    h.write_u64(r.total().energy_j.to_bits());
    r.schedule().hash(&mut h);
    for c in r.candidates() {
        h.write_u64(c.latency_s.to_bits());
        h.write_u64(c.energy_j.to_bits());
    }
    h.finish()
}

/// Cuts `in_flight` after its first window, the way the serving loop
/// splices a preempted round: every model resumes at its first
/// unexecuted layer, finished models drop out, and one new tenant joins.
fn cut_request(req: &ScheduleRequest, in_flight: &ScheduleInstance) -> ScheduleRequest {
    let first = &in_flight.windows[0].window;
    let mut models: Vec<ScenarioModel> = req
        .scenario
        .models()
        .iter()
        .enumerate()
        .filter_map(|(m, sm)| {
            let done = first.layers[m].end;
            (done < sm.model.num_layers()).then(|| ScenarioModel {
                model: Model::new(
                    format!("{}+{done}", sm.model.name()),
                    sm.model.layers()[done..].to_vec(),
                ),
                batch: sm.batch,
            })
        })
        .collect();
    models.push(Scenario::datacenter(2).models()[0].clone());
    let scenario = Scenario::new("cut", req.scenario.use_case(), models);
    ScheduleRequest {
        scenario,
        ..req.clone()
    }
}

#[test]
fn zoo_schedules_are_pinned() {
    let expected = [
        ("SCAR", 0xbf6a_d3ac_233a_def4_u64),
        ("Standalone", 0x51f9_33f1_c628_aa97),
        ("NN-baton", 0x5f0b_7753_0f3e_887f),
        ("NSGA-SCAR", 0xbf6a_d3ac_233a_def4),
        ("Merged-Pipeline", 0xee46_aeb3_ac95_3816),
        ("SCAR-splice", 0xbf6a_d3ac_233a_def4),
    ];
    let registry = PolicyRegistry::with_zoo();
    assert_eq!(registry.names().len(), expected.len());
    let session = Session::new();
    let got: Vec<(&str, u64)> = expected
        .iter()
        .map(|&(name, _)| {
            let scheduler = registry.build(name, &zoo_config()).expect("registered");
            let r = scheduler.schedule(&session, &request()).expect("schedules");
            (name, digest(&r))
        })
        .collect();
    assert_eq!(got, expected);
}

/// SCAR on the wireless what-if fabric: the hop-flat medium reprices
/// every on-package and off-chip transfer, so this pins the wireless arms
/// of `Lat_com` through a whole search.
#[test]
fn wireless_schedule_is_pinned() {
    let mut req = request();
    req.mcm = req
        .mcm
        .with_interconnect(Some(InterconnectSpec::wireless()));
    let scheduler = PolicyRegistry::with_zoo()
        .build("SCAR", &zoo_config())
        .expect("registered");
    let r = scheduler
        .schedule(&Session::new(), &req)
        .expect("schedules");
    assert_eq!(digest(&r), 0xb4a0_54f4_978d_cd13);
}

#[test]
fn preempt_answers_are_pinned() {
    let expected = [
        ("SCAR", 0x4269_1832_6752_954a_u64),
        ("SCAR-splice", 0xeedf_46f1_ebe0_19c9),
        ("NSGA-SCAR", 0x886b_b48c_7b89_fe09),
    ];
    let registry = PolicyRegistry::with_zoo();
    let session = Session::new();
    let req = request();
    let got: Vec<(&str, u64)> = expected
        .iter()
        .map(|&(name, _)| {
            let scheduler = registry.build(name, &zoo_config()).expect("registered");
            let in_flight = scheduler.schedule(&session, &req).expect("schedules");
            assert!(
                in_flight.schedule().windows.len() > 1,
                "{name}: needs a cut"
            );
            let cut = cut_request(&req, in_flight.schedule());
            let r = scheduler
                .preempt(&session, &cut, in_flight.schedule())
                .expect("the cut fits a 3x3");
            (name, digest(&r))
        })
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn serve_report_is_pinned() {
    let mcm = het_sides_3x3(Profile::ArVr);
    let cfg = ServeConfig {
        preemption: true,
        admission: AdmissionKind::DeadlineFeasible,
        ..zoo_config()
    };
    let mix = TrafficMix::arvr(9).reshaped(TrafficShape::Burst);
    let report = ServeSim::new(&mcm, cfg).run(&mix, 0.2).expect("serves");
    assert!(report.preemptions > 0, "the run must splice");
    let mut h = StableHasher::new();
    report.to_string().hash(&mut h);
    assert_eq!(h.finish(), 0xb1f1_9bbc_e1c0_7803, "{report}");
}
