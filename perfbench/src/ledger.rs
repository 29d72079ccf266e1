//! The metric schema and the per-layer split read back from the
//! program's metrics-only telemetry sink.
//!
//! Every layer runs serially on the calling thread (evaluation workers
//! never touch the sink), so a parent span's self time is its total minus
//! its children's totals, and no host time is spent waiting on a lock or
//! a queue: the ledger has no wait metric because there is no wait.

use scar::telemetry::Telemetry;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// End-to-end metrics, host-measured with tracing off, in output order.
/// Times are process CPU time: every workload pins `Parallelism::Serial`,
/// so a call's CPU time is its cost without the stalls a shared host adds
/// to its wall time.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("schedules_per_cpu_s", "1/s"),
    ("arrivals_per_cpu_s", "1/s"),
    ("call_cpu_p50_ms", "ms"),
];

/// Per-layer metrics of the traced run, in output order. Times and
/// counts are means per traced op unless the name says otherwise.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("maestro.warmup_s", "s"),
    ("maestro.cost_evaluations", "count"),
    ("maestro.costs_s", "s"),
    ("search.generation_s", "s"),
    ("search.generation_calls", "count"),
    ("search.placements_s", "s"),
    ("search.placements_calls", "count"),
    ("search.evaluation_s", "s"),
    ("search.evaluation_calls", "count"),
    ("search.candidates", "count"),
    ("search.candidates_per_s", "1/s"),
    ("schedule.full_s", "s"),
    ("schedule.full_calls", "count"),
    ("schedule.finalize_s", "s"),
    ("schedule.preempt_s", "s"),
    ("schedule.preempt_calls", "count"),
    ("schedule.seeded_calls", "count"),
    ("schedule.self_s", "s"),
    ("cache.probe_s", "s"),
    ("cache.probes", "count"),
    ("cache.probe_us", "us"),
    ("cache.store_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("admission.s", "s"),
    ("admission.calls", "count"),
    ("admission.rejected", "count"),
    ("splice.s", "s"),
    ("splice.count", "count"),
    ("serve.self_s", "s"),
    ("serve.windows", "count"),
    ("serve.full_searches", "count"),
    ("serve.incremental", "count"),
    ("fleet.dispatch_s", "s"),
    ("fleet.dispatch_ns_per_arrival", "ns"),
    ("fleet.self_s", "s"),
    ("fleet.routed", "count"),
    ("traffic.arrivals_s", "s"),
    ("report.render_s", "s"),
    ("telemetry.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.root_s", "s"),
    ("trace.search_share", "ratio"),
    ("trace.cache_probe_share", "ratio"),
];

/// Pairs `values` with `schema`, refusing a count mismatch or a value
/// that is not a finite number.
pub fn named(
    schema: &[(&'static str, &'static str)],
    values: &[f64],
) -> Result<Vec<Metric>, String> {
    if schema.len() != values.len() {
        return Err(format!(
            "{} values for {} metrics",
            values.len(),
            schema.len()
        ));
    }
    schema
        .iter()
        .zip(values)
        .map(|(&(name, unit), &value)| {
            if value.is_finite() {
                Ok(Metric { name, unit, value })
            } else {
                Err(format!("{name} is {value}"))
            }
        })
        .collect()
}

/// A parent span's self time: its total minus its children's totals.
/// Valid because the layers nest serially on one thread.
pub fn self_time(parent_s: f64, children_s: &[f64]) -> f64 {
    parent_s - children_s.iter().sum::<f64>()
}

/// What the traced run knows beyond the telemetry sink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRun {
    /// Traced ops.
    pub ops: u64,
    /// Candidates the traced ops' results expose, in total.
    pub candidates: u64,
    /// MAESTRO evaluations of the traced set-up.
    pub setup_evaluations: u64,
    /// Traced host wall over untraced host wall of the same calls.
    pub overhead_ratio: f64,
}

/// The per-layer split, in [`PER_LAYER`] order, from the spans and
/// counters the traced run recorded into `tel`.
///
/// Span nesting (parents first):
///
/// ```text
/// bench.op                          the root: one op
///   fleet.run
///     fleet.dispatch
///     fleet.replica > serve.run
///       serve.admission, serve.admission.probe
///       serve.cache.probe, serve.cache.store
///       serve.splice.scan, serve.splice
///       serve.schedule              the scheduler entry (paper_dse: schedule.run)
///         schedule.run | schedule.preempt | schedule.seeded
///           schedule.costs, schedule.partition, schedule.provision,
///           search.generation > search.placements, search.evaluation,
///           schedule.finalize
///   report.render
/// ```
///
/// Leaf layers are dispatch, admission, cache, splice, render and the
/// scheduler's costs / partition / provision / generation / evaluation /
/// finalize / seeded spans; `trace.coverage` is their share of the root.
/// The rest of the root is labelled as the self time of the scheduler
/// entry, the serving loop and the fleet.
pub fn per_layer(tel: &Telemetry, run: &TraceRun) -> Result<Vec<Metric>, String> {
    if run.ops == 0 {
        return Err("no traced op completed".into());
    }
    let ops = run.ops as f64;
    let wall = |name: &str| tel.span_wall(name).unwrap_or_default();
    let per_op = |name: &str| wall(name).total_s / ops;
    let calls = |name: &str| wall(name).count as f64 / ops;
    let counter = |name: &str| tel.counter(name) as f64 / ops;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let costs = per_op("schedule.costs");
    let generation = per_op("search.generation");
    let evaluation = per_op("search.evaluation");
    let finalize = per_op("schedule.finalize");
    let scheduler_leaves = [
        costs,
        per_op("schedule.partition"),
        per_op("schedule.provision"),
        generation,
        evaluation,
        finalize,
        per_op("schedule.seeded"),
    ];
    let scheduler_entry = if wall("serve.schedule").count > 0 {
        per_op("serve.schedule")
    } else {
        per_op("schedule.run")
    };
    let schedule_self = self_time(scheduler_entry, &scheduler_leaves);

    let admission = per_op("serve.admission") + per_op("serve.admission.probe");
    let probe = per_op("serve.cache.probe");
    let store = per_op("serve.cache.store");
    let splice = per_op("serve.splice") + per_op("serve.splice.scan");
    let serve_run = per_op("serve.run");
    let serve_self = if serve_run > 0.0 {
        self_time(
            serve_run,
            &[admission, probe, store, splice, scheduler_entry],
        )
    } else {
        0.0
    };

    let dispatch = per_op("fleet.dispatch");
    let fleet_run = per_op("fleet.run");
    let fleet_self = if fleet_run > 0.0 {
        self_time(fleet_run, &[dispatch, serve_run])
    } else {
        0.0
    };
    let routed = counter("fleet.offered");
    let render = per_op("report.render");

    let root = per_op("bench.op");
    let leaves: f64 = scheduler_leaves.iter().sum::<f64>()
        + dispatch
        + admission
        + probe
        + store
        + splice
        + render;
    let hits = tel.counter("serve.cache.hits") as f64;
    let misses = tel.counter("serve.cache.misses") as f64;
    let candidates = run.candidates as f64 / ops;

    let values = [
        wall("maestro.warmup").total_s,
        run.setup_evaluations as f64,
        costs,
        generation,
        calls("search.generation"),
        per_op("search.placements"),
        calls("search.placements"),
        evaluation,
        calls("search.evaluation"),
        candidates,
        ratio(candidates, generation + evaluation),
        per_op("schedule.run"),
        calls("schedule.run"),
        finalize,
        per_op("schedule.preempt"),
        calls("schedule.preempt"),
        calls("schedule.seeded"),
        schedule_self,
        probe,
        calls("serve.cache.probe"),
        ratio(
            wall("serve.cache.probe").total_s * 1e6,
            wall("serve.cache.probe").count as f64,
        ),
        store,
        ratio(hits, hits + misses),
        counter("serve.cache.evictions"),
        admission,
        calls("serve.admission"),
        counter("serve.admission.rejected"),
        splice,
        calls("serve.splice"),
        serve_self,
        counter("serve.windows_scheduled"),
        counter("serve.full_searches"),
        counter("serve.incremental_reschedules"),
        dispatch,
        ratio(dispatch * 1e9, routed),
        fleet_self,
        routed,
        wall("traffic.arrivals").total_s,
        render,
        run.overhead_ratio,
        ratio(leaves, root),
        root,
        ratio(generation + evaluation, root),
        ratio(probe, root),
    ];
    named(&PER_LAYER, &values)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` follows the benchmark's metric-name rule: a letter or
    /// digit first, then at most 63 more letters, digits, `_`, `.` or `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` follows the benchmark's unit rule: 1 to 16 letters,
    /// digits, `_`, `/`, `%`, `.` or `-`.
    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn self_time_subtracts_children_totals() {
        assert_eq!(self_time(10.0, &[2.0, 3.0]), 5.0);
        assert_eq!(self_time(4.0, &[]), 4.0);
        // overlapping children are not the serial nesting the rule needs,
        // and show up as a negative self time instead of being hidden
        assert!(self_time(1.0, &[0.75, 0.5]) < 0.0);
    }

    #[test]
    fn self_time_of_recorded_nested_spans() {
        let tel = Telemetry::enabled(false, true);
        {
            let _parent = tel.span("serve.run");
            for _ in 0..3 {
                let _child = tel.span("serve.cache.probe");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let parent = tel.span_wall("serve.run").unwrap();
        let child = tel.span_wall("serve.cache.probe").unwrap();
        assert_eq!(child.count, 3);
        let own = self_time(parent.total_s, &[child.total_s]);
        assert!(own >= 0.002 && own < parent.total_s, "self {own}");
    }

    #[test]
    fn schema_names_and_units_follow_the_rules() {
        let all: Vec<(&str, &str)> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
        }
        let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names are unique");
        assert!(END_TO_END.contains(&("setup_s", "s")));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(!valid_unit(""));
        assert!(!valid_unit("m s"));
    }

    /// `BENCHMARK.json` declares exactly the metrics the benchmark prints,
    /// with the same units and in the same order.
    #[test]
    fn benchmark_json_matches_the_schema() {
        let doc: serde::Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |schema: &[(&str, &str)]| -> Vec<(String, String)> {
            schema
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        assert_eq!(workloads, crate::workload::NAMES);
    }

    #[test]
    fn named_refuses_missing_and_non_finite_values() {
        assert!(named(&END_TO_END, &[1.0; 4]).is_err());
        let mut values = [1.0; 5];
        values[2] = f64::NAN;
        assert!(named(&END_TO_END, &values)
            .unwrap_err()
            .contains("schedules_per_cpu_s"));
        values[2] = 3.0;
        let metrics = named(&END_TO_END, &values).unwrap();
        assert_eq!(metrics[2].name, "schedules_per_cpu_s");
        assert_eq!(metrics[2].unit, "1/s");
    }

    #[test]
    fn per_layer_covers_the_schema_on_an_empty_sink() {
        let run = TraceRun {
            ops: 1,
            candidates: 0,
            setup_evaluations: 0,
            overhead_ratio: 1.0,
        };
        let metrics = per_layer(&Telemetry::enabled(false, true), &run).unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(per_layer(
            &Telemetry::enabled(false, true),
            &TraceRun { ops: 0, ..run }
        )
        .is_err());
    }
}
