//! The scheduler zoo's core members: multi-objective and specialized
//! variants of the SCAR pipeline, all behind the [`Scheduler`] trait.
//!
//! Everything the trait integrates — session cost-database sharing,
//! fingerprint-keyed serve caching, artifact recording
//! ([`Scheduler::config`]) and registry-driven replay — comes for free;
//! these types only change *which candidate wins* (or *how hard the
//! search works*), never the determinism contract: every member is a
//! pure function of `(request, config)` and bit-identical across
//! `Serial`/`Fixed(N)` evaluation parallelism.
//!
//! The serving-side catalog (doc cards, registry wiring, config-file
//! front end) lives in `scar_serve::zoo`; DESIGN.md §14 renders the
//! same catalog as a table.

use crate::problem::{ScheduleError, ScheduleInstance};
use crate::scar::{Scar, ScarBuilder, ScheduleResult};
use crate::scheduler::{ScheduleRequest, Scheduler, SchedulerConfig, Session};
use crate::search::{SearchBudget, SearchKind, WindowSelect};
use std::hash::Hasher;

/// NSGA-II Pareto-front multi-objective scheduler.
///
/// SCAR's pipeline (MCM-Reconfig → PROV → SEG → SCHED), run by an inner
/// [`Scar`], with one difference: each window's winner is the NSGA-II
/// knee over the window's **full** evaluated candidate cloud instead of
/// the scalar best. Candidates are scored on three minimized objectives —
/// latency, energy, and a fairness/violation score (the spread between
/// the slowest and fastest co-resident model, plus any
/// constrained-latency violation) — then non-dominated sorted, and the
/// winner is the knee of front 0 under the request metric
/// ([`knee_point`](crate::search::nsga::knee_point): minimal metric
/// score, ties to the larger crowding distance, final ties to generation
/// order).
///
/// Constraint handling follows the standard NSGA-II
/// constraint-domination rule: when any candidate satisfies the window's
/// latency bound, selection is restricted to the feasible subset;
/// an all-infeasible cloud competes on (objectives + violation).
///
/// Deterministic and `Serial ≡ Fixed(N)` bit-identical: the cloud
/// arrives in generation order regardless of evaluation parallelism, and
/// every tie in sorting, crowding, and knee selection breaks toward the
/// earliest-generated candidate. Preemption is the trait default (a full
/// re-search); rescheduling, configuration and fingerprint are SCAR's.
#[derive(Debug, Clone)]
pub struct NsgaScar {
    inner: Scar,
}

impl Default for NsgaScar {
    fn default() -> Self {
        Self::new()
    }
}

impl NsgaScar {
    /// Defaults matching [`Scar::with_defaults`]'s structural knobs:
    /// `nsplits = 4`, greedy packing, uniform provisioning, brute force.
    pub fn new() -> Self {
        Self::from_config(Scar::builder())
    }

    /// Number of time-window splits (§IV-A; default 4).
    pub fn nsplits(self, n: usize) -> Self {
        Self::from_config(self.inner.config.nsplits(n))
    }

    /// The per-window search driver (default: brute force).
    pub fn search(self, kind: SearchKind) -> Self {
        Self::from_config(self.inner.config.search(kind))
    }

    fn from_config(config: ScarBuilder) -> Self {
        Self {
            inner: config.build_selecting(WindowSelect::NsgaKnee),
        }
    }
}

impl Scheduler for NsgaScar {
    fn name(&self) -> &str {
        "NSGA-SCAR"
    }

    fn schedule(
        &self,
        session: &Session,
        request: &ScheduleRequest,
    ) -> Result<ScheduleResult, ScheduleError> {
        self.inner.schedule(session, request)
    }

    fn reschedule(
        &self,
        session: &Session,
        request: &ScheduleRequest,
        seed: &ScheduleInstance,
    ) -> Option<ScheduleResult> {
        self.inner.reschedule(session, request, seed)
    }

    fn config(&self) -> SchedulerConfig {
        self.inner.config()
    }

    fn fingerprint_config(&self, state: &mut dyn Hasher) {
        self.inner.fingerprint_config(state);
    }
}

/// Scope-style merged-pipeline scheduler: co-resident models are fused
/// into **one** pipelined allocation — a single time window covering
/// every model end to end — before segmentation, instead of SCAR's
/// reconfiguration splits.
///
/// Concretely this is the SCAR pipeline at `nsplits = 0` (one unbounded
/// window): every model is provisioned, segmented, and placed once, and
/// the whole mix executes as one merged pipeline with no
/// reconfiguration boundaries. That is exactly the trade the Scope paper
/// makes — no reconfiguration overhead or idle boundary bubbles, at the
/// price of coarser sharing (a straggler model pins the whole window,
/// and the package must fit all models concurrently).
///
/// Delegates every trait entry to an inner [`Scar`] pinned at
/// `nsplits = 0`; the distinct [`Scheduler::name`] keeps its cache
/// entries and artifacts from aliasing SCAR's.
#[derive(Debug, Clone)]
pub struct MergedPipeline {
    inner: Scar,
}

impl Default for MergedPipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl MergedPipeline {
    /// A merged pipeline under the default (brute-force) window search.
    pub fn new() -> Self {
        Self::with_search(SearchKind::BruteForce)
    }

    /// A merged pipeline exploring the fused window with `search`.
    pub fn with_search(search: SearchKind) -> Self {
        Self {
            inner: Scar::builder().nsplits(0).search(search).build(),
        }
    }
}

impl Scheduler for MergedPipeline {
    fn name(&self) -> &str {
        "Merged-Pipeline"
    }

    fn schedule(
        &self,
        session: &Session,
        request: &ScheduleRequest,
    ) -> Result<ScheduleResult, ScheduleError> {
        self.inner.schedule(session, request)
    }

    fn reschedule(
        &self,
        session: &Session,
        request: &ScheduleRequest,
        seed: &ScheduleInstance,
    ) -> Option<ScheduleResult> {
        self.inner.reschedule(session, request, seed)
    }

    fn preempt(
        &self,
        session: &Session,
        request: &ScheduleRequest,
        in_flight: &ScheduleInstance,
    ) -> Result<ScheduleResult, ScheduleError> {
        self.inner.preempt(session, request, in_flight)
    }

    /// Records `nsplits = 0` — the merged-pipeline invariant — so replay
    /// reconstructs the fused window even under a different default.
    fn config(&self) -> SchedulerConfig {
        self.inner.config()
    }

    fn fingerprint_config(&self, state: &mut dyn Hasher) {
        self.inner.fingerprint_config(state);
    }
}

/// Preempt-specialized SCAR: identical cold-start scheduling, but
/// mid-window preemptions ([`Scheduler::preempt`]) run under a further
/// pre-trimmed search budget — trading search breadth for splice
/// latency, for serving mixes where preemptions are frequent and the
/// time spent re-searching *is* the overload.
///
/// The trim composes with SCAR's own splice neighborhood: the request's
/// budget is cut before delegation (`splice_budget`), then
/// `Scar::preempt` applies its warm-hint mining and its own trim on top.
/// The incumbent-is-a-candidate guard survives delegation, so a splice
/// can still never answer worse than the plan it replaces under the
/// request metric. Deterministic: the budget transform is pure, and the
/// inner search derives all randomness from the request's seed.
#[derive(Debug, Clone)]
pub struct SpliceScar {
    inner: Scar,
}

impl Default for SpliceScar {
    fn default() -> Self {
        Self::new()
    }
}

impl SpliceScar {
    /// Defaults matching [`Scar::with_defaults`] (`nsplits = 4`, brute
    /// force) — only the preempt path differs.
    pub fn new() -> Self {
        Self::with_config(4, SearchKind::BruteForce)
    }

    /// A splice-specialized SCAR with explicit structural knobs.
    pub fn with_config(nsplits: usize, search: SearchKind) -> Self {
        Self {
            inner: Scar::builder().nsplits(nsplits).search(search).build(),
        }
    }
}

/// The splice-latency budget cut applied *before* delegating to
/// [`Scar`]'s preempt path (which trims further): a quarter of the
/// segmentation enumeration and half the placement/candidate caps, with
/// the same floors SCAR's own trim enforces so tiny budgets never
/// degenerate to an empty search.
fn splice_budget(b: &SearchBudget) -> SearchBudget {
    SearchBudget {
        max_segmentations_enumerated: (b.max_segmentations_enumerated / 4).max(500),
        max_placements_per_window: (b.max_placements_per_window / 2).max(12),
        max_candidates_per_window: (b.max_candidates_per_window / 2).max(24),
        ..b.clone()
    }
}

impl Scheduler for SpliceScar {
    fn name(&self) -> &str {
        "SCAR-splice"
    }

    fn schedule(
        &self,
        session: &Session,
        request: &ScheduleRequest,
    ) -> Result<ScheduleResult, ScheduleError> {
        self.inner.schedule(session, request)
    }

    fn reschedule(
        &self,
        session: &Session,
        request: &ScheduleRequest,
        seed: &ScheduleInstance,
    ) -> Option<ScheduleResult> {
        self.inner.reschedule(session, request, seed)
    }

    fn preempt(
        &self,
        session: &Session,
        request: &ScheduleRequest,
        in_flight: &ScheduleInstance,
    ) -> Result<ScheduleResult, ScheduleError> {
        let trimmed = ScheduleRequest {
            budget: splice_budget(&request.budget),
            ..request.clone()
        };
        self.inner.preempt(session, &trimmed, in_flight)
    }

    fn config(&self) -> SchedulerConfig {
        self.inner.config()
    }

    fn fingerprint_config(&self, state: &mut dyn Hasher) {
        self.inner.fingerprint_config(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto_front;
    use scar_mcm::templates::{het_sides_3x3, Profile};
    use scar_workloads::Scenario;

    fn small_budget() -> SearchBudget {
        SearchBudget {
            max_root_perms: 8,
            max_paths_per_model: 4,
            max_placements_per_window: 60,
            max_candidates_per_window: 120,
            ..SearchBudget::default()
        }
    }

    fn request() -> ScheduleRequest {
        ScheduleRequest::new(Scenario::datacenter(1), het_sides_3x3(Profile::Datacenter))
            .budget(small_budget())
    }

    #[test]
    fn nsga_scar_schedules_and_its_front_is_nondominated() {
        let session = Session::new();
        let s = NsgaScar::new().nsplits(1);
        let r = s.schedule(&session, &request()).expect("schedules");
        assert!(!r.candidates().is_empty(), "cloud recorded");
        let front = r.pareto_front();
        assert!(!front.is_empty());
        for (ai, a) in front.iter().enumerate() {
            for b in &front[ai + 1..] {
                let a_dom = a.latency_s <= b.latency_s && a.energy_j <= b.energy_j;
                let b_dom = b.latency_s <= a.latency_s && b.energy_j <= a.energy_j;
                assert!(
                    !(a_dom && (a.latency_s < b.latency_s || a.energy_j < b.energy_j))
                        && !(b_dom && (b.latency_s < a.latency_s || b.energy_j < a.energy_j)),
                    "front members must be mutually non-dominated"
                );
            }
        }
        assert_eq!(front, pareto_front(r.candidates()));
    }

    #[test]
    fn nsga_scar_is_deterministic_across_parallelism() {
        use crate::Parallelism;
        let run = |p: Parallelism| {
            let session = Session::new();
            let mut req = request();
            req.budget.parallelism = p;
            NsgaScar::new()
                .nsplits(1)
                .schedule(&session, &req)
                .expect("schedules")
        };
        let serial = run(Parallelism::Serial);
        let fixed = run(Parallelism::Fixed(4));
        assert_eq!(serial.schedule(), fixed.schedule());
        assert_eq!(serial.total(), fixed.total());
        assert_eq!(serial.candidates(), fixed.candidates());
    }

    #[test]
    fn merged_pipeline_fuses_into_one_window() {
        let session = Session::new();
        let r = MergedPipeline::new()
            .schedule(&session, &request())
            .expect("schedules");
        assert_eq!(
            r.schedule().windows.len(),
            1,
            "merged pipeline = a single fused window"
        );
        let cfg = MergedPipeline::new().config();
        assert_eq!(cfg.nsplits, Some(0));
    }

    #[test]
    fn merged_pipeline_preempt_keeps_one_window() {
        let session = Session::new();
        let merged = MergedPipeline::new();
        let tenant = Scenario::datacenter(2).models()[0].clone();
        for n in 1..=5 {
            let req =
                ScheduleRequest::new(Scenario::datacenter(n), het_sides_3x3(Profile::Datacenter))
                    .budget(small_budget());
            let in_flight = merged.schedule(&session, &req).expect("schedules");
            let mut models = req.scenario.models().to_vec();
            models.push(tenant.clone());
            let grown = ScheduleRequest {
                scenario: Scenario::new("grown", req.scenario.use_case(), models),
                ..req.clone()
            };
            let r = merged
                .preempt(&session, &grown, in_flight.schedule())
                .expect("splices");
            assert_eq!(r.schedule().windows.len(), 1, "Sc{n} + one tenant");
        }
    }

    #[test]
    fn splice_scar_schedules_like_scar_and_trims_preempts() {
        let session = Session::new();
        let req = request();
        let scar = Scar::builder().nsplits(1).build();
        let splice = SpliceScar::with_config(1, SearchKind::BruteForce);
        let a = scar.schedule(&session, &req).expect("scar");
        let b = splice.schedule(&session, &req).expect("splice");
        assert_eq!(a.schedule(), b.schedule(), "cold path is unchanged");
        // the preempt path trims but still answers, and the incumbent
        // guard keeps it no worse than the cut plan under the metric
        let cut = a.schedule().clone();
        let p = splice.preempt(&session, &req, &cut).expect("splices");
        assert!(
            req.metric.score(&p.total()) <= req.metric.score(&a.total()),
            "incumbent-is-a-candidate survives delegation"
        );
        // the budget transform is a pure trim with floors
        let trimmed = splice_budget(&req.budget);
        assert!(trimmed.max_segmentations_enumerated <= req.budget.max_segmentations_enumerated);
        assert!(trimmed.max_placements_per_window <= req.budget.max_placements_per_window);
        assert_eq!(trimmed.seed, req.budget.seed);
        let tiny = splice_budget(&SearchBudget {
            max_segmentations_enumerated: 1,
            max_placements_per_window: 1,
            max_candidates_per_window: 1,
            ..SearchBudget::default()
        });
        assert_eq!(tiny.max_segmentations_enumerated, 500);
        assert_eq!(tiny.max_placements_per_window, 12);
        assert_eq!(tiny.max_candidates_per_window, 24);
    }
}
