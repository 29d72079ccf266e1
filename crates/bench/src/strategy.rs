//! The MCM strategies compared throughout the paper's evaluation.
//!
//! A [`Strategy`] names one column of Table IV / Figure 6: an MCM template
//! plus the scheduler family evaluated on it. Strategies run through the
//! core [`Scheduler`] trait — [`Strategy::scheduler`] builds the boxed
//! scheduler, [`Strategy::request`] the [`ScheduleRequest`] — and every
//! strategy of a sweep shares one [`Session`] (one MAESTRO cost database),
//! so a bench binary warms the cache once instead of once per strategy.

use scar_core::baselines::Standalone;
use scar_core::{
    OptMetric, Scar, ScheduleRequest, ScheduleResult, Scheduler, SearchBudget, SearchKind, Session,
};
use scar_maestro::Dataflow;
use scar_mcm::templates::{self, Profile};
use scar_mcm::McmConfig;
use scar_workloads::Scenario;

/// One strategy of Table IV / Figure 6 (3×3 experiments unless noted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Each model standalone on one Shidiannao-like chiplet.
    StandaloneShi,
    /// Each model standalone on one NVDLA-like chiplet.
    StandaloneNvd,
    /// SCAR on the homogeneous Simba 3×3 (Shi).
    SimbaShi,
    /// SCAR on the homogeneous Simba 3×3 (NVD).
    SimbaNvd,
    /// SCAR on the heterogeneous checkerboard 3×3.
    HetCb,
    /// SCAR on the heterogeneous sides 3×3.
    HetSides,
    /// SCAR on the homogeneous triangular-NoP 3×3 (Shi).
    SimbaTShi,
    /// SCAR on the homogeneous triangular-NoP 3×3 (NVD).
    SimbaTNvd,
    /// SCAR on the heterogeneous triangular-NoP 3×3.
    HetT,
    /// SCAR on the homogeneous Simba 6×6 (Shi), evolutionary search.
    Simba6Shi,
    /// SCAR on the homogeneous Simba 6×6 (NVD), evolutionary search.
    Simba6Nvd,
    /// SCAR on the heterogeneous cross 6×6, evolutionary search.
    HetCross,
}

impl Strategy {
    /// The paper's label for this strategy.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::StandaloneShi => "Stand.(Shi)",
            Strategy::StandaloneNvd => "Stand.(NVD)",
            Strategy::SimbaShi => "Simba (Shi)",
            Strategy::SimbaNvd => "Simba (NVD)",
            Strategy::HetCb => "Het-CB",
            Strategy::HetSides => "Het-Sides",
            Strategy::SimbaTShi => "Simba-T (Shi)",
            Strategy::SimbaTNvd => "Simba-T (NVD)",
            Strategy::HetT => "Het-T",
            Strategy::Simba6Shi => "Simba-6 (Shi)",
            Strategy::Simba6Nvd => "Simba-6 (NVD)",
            Strategy::HetCross => "Het-Cross",
        }
    }

    /// The Table IV strategy set (two standalones, two Simbas, two hets).
    pub fn table_iv() -> [Strategy; 6] {
        [
            Strategy::StandaloneShi,
            Strategy::StandaloneNvd,
            Strategy::SimbaShi,
            Strategy::SimbaNvd,
            Strategy::HetCb,
            Strategy::HetSides,
        ]
    }

    /// The triangular-NoP set of Figure 12.
    pub fn triangular() -> [Strategy; 3] {
        [Strategy::SimbaTShi, Strategy::SimbaTNvd, Strategy::HetT]
    }

    /// The 6×6 set of Figure 13.
    pub fn six_by_six() -> [Strategy; 3] {
        [Strategy::Simba6Shi, Strategy::Simba6Nvd, Strategy::HetCross]
    }

    /// The MCM this strategy schedules onto.
    pub fn mcm(self, profile: Profile) -> McmConfig {
        match self {
            Strategy::StandaloneShi | Strategy::SimbaShi => {
                templates::simba_3x3(profile, Dataflow::ShidiannaoLike)
            }
            Strategy::StandaloneNvd | Strategy::SimbaNvd => {
                templates::simba_3x3(profile, Dataflow::NvdlaLike)
            }
            Strategy::HetCb => templates::het_cb_3x3(profile),
            Strategy::HetSides => templates::het_sides_3x3(profile),
            Strategy::SimbaTShi => templates::simba_t_3x3(profile, Dataflow::ShidiannaoLike),
            Strategy::SimbaTNvd => templates::simba_t_3x3(profile, Dataflow::NvdlaLike),
            Strategy::HetT => templates::het_t_3x3(profile),
            Strategy::Simba6Shi => templates::simba_6x6(profile, Dataflow::ShidiannaoLike),
            Strategy::Simba6Nvd => templates::simba_6x6(profile, Dataflow::NvdlaLike),
            Strategy::HetCross => templates::het_cross_6x6(profile),
        }
    }

    /// The scheduler family this strategy evaluates: the baselines use
    /// their dedicated schedulers, 3×3 strategies SCAR with brute force,
    /// 6×6 strategies SCAR with the evolutionary driver (§V-A).
    pub fn scheduler(self, nsplits: usize) -> Box<dyn Scheduler> {
        match self {
            Strategy::StandaloneShi | Strategy::StandaloneNvd => Box::new(Standalone::new()),
            Strategy::Simba6Shi | Strategy::Simba6Nvd | Strategy::HetCross => Box::new(
                Scar::builder()
                    .nsplits(nsplits)
                    .search(SearchKind::Evolutionary(Default::default()))
                    .build(),
            ),
            _ => Box::new(Scar::builder().nsplits(nsplits).build()),
        }
    }

    /// The request this strategy issues for `scenario` under `profile`.
    pub fn request(
        self,
        scenario: &Scenario,
        profile: Profile,
        metric: OptMetric,
        budget: &SearchBudget,
    ) -> ScheduleRequest {
        ScheduleRequest::new(scenario.clone(), self.mcm(profile))
            .metric(metric)
            .budget(budget.clone())
    }

    /// Runs the strategy over `session`'s shared cost database.
    ///
    /// # Errors
    ///
    /// Propagates the scheduler's [`ScheduleError`](scar_core::ScheduleError).
    pub fn run(
        self,
        session: &Session,
        scenario: &Scenario,
        profile: Profile,
        metric: OptMetric,
        nsplits: usize,
        budget: &SearchBudget,
    ) -> Result<ScheduleResult, scar_core::ScheduleError> {
        self.scheduler(nsplits)
            .schedule(session, &self.request(scenario, profile, metric, budget))
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A strategy's result with its label, the request that produced it, and
/// the answering scheduler's name *and configuration* (kept so sweeps can
/// be persisted as JSON artifacts — see [`crate::artifacts`] — and
/// replayed through the policy registry with the exact recorded knobs —
/// see [`crate::replay`]).
#[derive(Debug, Clone)]
pub struct LabeledResult {
    /// Strategy label.
    pub name: String,
    /// The [`Scheduler::name`] of the scheduler that answered.
    pub scheduler: String,
    /// The answering scheduler's structural configuration
    /// ([`Scheduler::config`]).
    pub scheduler_config: scar_core::SchedulerConfig,
    /// The request the strategy issued.
    pub request: ScheduleRequest,
    /// Scheduling outcome.
    pub result: ScheduleResult,
}

/// Runs a set of strategies on one scenario over a shared session: one
/// result per strategy, in the order given, `None` where infeasible. A
/// sweep over scenarios is then `grid[scenario][strategy]`.
pub fn run_strategies(
    session: &Session,
    strategies: &[Strategy],
    scenario: &Scenario,
    profile: Profile,
    metric: &OptMetric,
    nsplits: usize,
    budget: &SearchBudget,
) -> Vec<Option<LabeledResult>> {
    strategies
        .iter()
        .map(|s| {
            let request = s.request(scenario, profile, metric.clone(), budget);
            let scheduler = s.scheduler(nsplits);
            scheduler
                .schedule(session, &request)
                .ok()
                .map(|result| LabeledResult {
                    name: s.name().to_string(),
                    scheduler: scheduler.name().to_string(),
                    scheduler_config: scheduler.config(),
                    request,
                    result,
                })
        })
        .collect()
}

/// A lighter budget for the heavyweight scans (Figure 7's 3×3 grid, the
/// ablations), trading candidate coverage for wall-clock.
pub fn quick_budget() -> SearchBudget {
    SearchBudget {
        max_root_perms: 24,
        max_paths_per_model: 8,
        max_placements_per_window: 400,
        max_candidates_per_window: 800,
        ..SearchBudget::default()
    }
}
