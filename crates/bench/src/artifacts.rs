//! Persisting strategy sweeps as JSON schedule artifacts.
//!
//! Every experiment binary that wants its schedules on disk goes through
//! this one path: a [`LabeledResult`] sweep becomes a JSON array of
//! [`ScheduleArtifact`]s ([`scar_core`]'s shared request/result bundle —
//! the serving simulator emits the same shape for its live rounds), and
//! loads back with [`ScheduleArtifact::load_all`] without re-running any
//! search.

use crate::strategy::LabeledResult;
use scar_core::ScheduleArtifact;
use std::path::Path;

/// Converts a sweep into artifacts (label = strategy name; the scheduler
/// field records the answering [`Scheduler::name`] — a registry name —
/// and `scheduler_config` its structural knobs, so saved sweeps replay
/// through [`crate::replay`] under the exact recorded configuration).
///
/// [`Scheduler::name`]: scar_core::Scheduler::name
pub fn from_sweep(results: &[LabeledResult]) -> Vec<ScheduleArtifact> {
    results
        .iter()
        .map(|r| ScheduleArtifact {
            label: r.name.clone(),
            scheduler: r.scheduler.clone(),
            scheduler_config: r.scheduler_config.clone(),
            request: r.request.clone(),
            result: r.result.clone(),
        })
        .collect()
}

/// Writes a sweep to `path` as one pretty-printed JSON array of
/// [`ScheduleArtifact`]s.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_sweep(path: impl AsRef<Path>, results: &[LabeledResult]) -> std::io::Result<()> {
    ScheduleArtifact::save_all(path, &from_sweep(results))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{quick_budget, run_strategies, Strategy};
    use scar_core::{OptMetric, Session};
    use scar_mcm::templates::Profile;
    use scar_workloads::Scenario;

    #[test]
    fn sweep_roundtrips_through_json() {
        let session = Session::new();
        let strategies = [Strategy::StandaloneNvd, Strategy::HetSides];
        let sweep = run_strategies(
            &session,
            &strategies,
            &Scenario::datacenter(1),
            Profile::Datacenter,
            &OptMetric::Edp,
            1,
            &quick_budget(),
        );
        // one aligned slot per strategy, in the order given
        assert_eq!(sweep.len(), strategies.len());
        for (s, r) in strategies.iter().zip(&sweep) {
            assert_eq!(r.as_ref().expect("both fit Sc1").name, s.name());
        }
        let path = std::env::temp_dir().join("scar_bench_artifacts_test.json");
        let sweep: Vec<_> = sweep.into_iter().flatten().collect();
        write_sweep(&path, &sweep).unwrap();
        let back = ScheduleArtifact::load_all(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.len(), sweep.len());
        for (a, r) in back.iter().zip(&sweep) {
            assert_eq!(a.label, r.name);
            assert_eq!(a.scheduler, r.scheduler);
            assert_eq!(a.request, r.request);
            assert_eq!(a.result, r.result);
        }
        // the scheduler field is a registry name (what replay rebuilds),
        // not the MCM/strategy string
        assert_eq!(back[0].scheduler, "Standalone");
        assert_eq!(back[1].scheduler, "SCAR");
    }
}
