//! Host-time benchmark of the SCAR scheduler, the serving loop and the
//! fleet, with a traced per-layer split.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_dse --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` every op runs with telemetry disabled and the last
//! stdout line carries the end-to-end metrics. With `--trace 1` each op
//! runs twice, untraced then traced into a metrics-only sink, and the last
//! line carries the per-layer split plus the tracing overhead. The lines
//! before it state sample counts and the modelled-hardware (`sim_`)
//! statistics every op is checked against.

mod ledger;
mod procfs;
mod stats;
mod workload;

use ledger::{Metric, TraceRun, END_TO_END};
use scar::telemetry::Telemetry;
use std::time::{Duration, Instant};
use workload::{Op, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;
/// No op starts after this much process time, whatever `--seconds` or
/// the whole-cycle rule asks.
const HARD_STOP: Duration = Duration::from_secs(120);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Checks every op's modelled statistics against the first op on the
/// same input: repeated and traced runs of one seed must agree exactly.
struct Digests {
    first: Vec<Option<u64>>,
}

impl Digests {
    fn check(&mut self, w: &dyn Workload, index: usize, op: &Op) -> Result<(), String> {
        let slot = &mut self.first[index % w.inputs()];
        let digest = op.sim.digest();
        match *slot {
            None => {
                *slot = Some(digest);
                println!(
                    "sim (modelled hardware, not host time) {}: {}",
                    w.input_label(index),
                    op.sim
                );
                Ok(())
            }
            Some(d) if d == digest => Ok(()),
            Some(d) => Err(format!(
                "{}: sim digest {digest:016x} differs from the first run's {d:016x} ({})",
                w.input_label(index),
                op.sim
            )),
        }
    }
}

/// The op loop shared by both modes: runs `step(i)` for i = 0, 1, … until
/// `seconds` have passed and a whole cycle of inputs is done, or the hard
/// stop is reached.
fn run_cycles(inputs: usize, seconds: f64, started: Instant, mut step: impl FnMut(usize)) -> usize {
    let begin = Instant::now();
    let mut i = 0;
    loop {
        let done = begin.elapsed().as_secs_f64() >= seconds && i % inputs == 0 && i > 0;
        if done || started.elapsed() >= HARD_STOP {
            return i;
        }
        step(i);
        i += 1;
    }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn untraced(args: &Args, started: Instant) -> Result<Outcome, String> {
    let off = Telemetry::disabled();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut w = None;
    for _ in 0..SETUP_REPEATS {
        drop(w.take());
        let cpu = procfs::process_cpu_s();
        w = Some(workload::setup(&args.workload, args.seed, &off)?);
        setups.push(procfs::process_cpu_s() - cpu);
    }
    let mut w = w.expect("at least one set-up ran");
    let inputs = w.inputs();
    let mut digests = Digests {
        first: vec![None; inputs],
    };
    let mut per_input: Vec<Vec<Op>> = vec![Vec::new(); inputs];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let ops = run_cycles(inputs, args.seconds, started, |i| {
        attempted += 1;
        match w
            .op(i)
            .and_then(|op| digests.check(w.as_ref(), i, &op).map(|()| op))
        {
            Ok(op) => per_input[i % inputs].push(op),
            Err(e) => {
                failed += 1;
                eprintln!("op {i} failed: {e}");
            }
        }
    });

    let calls: Vec<f64> = per_input.iter().flatten().map(|op| op.call_s).collect();
    let walls: Vec<f64> = per_input.iter().flatten().map(|op| op.wall_s).collect();
    if calls.is_empty() || per_input.iter().any(Vec::is_empty) {
        return Err(format!("no completed op on some input after {ops} ops"));
    }
    // one cycle at each input's median call time
    let mut cycle_s = 0.0;
    let (mut schedules, mut arrivals) = (0u64, 0u64);
    for (index, ops) in per_input.iter().enumerate() {
        let median = stats::median(&ops.iter().map(|op| op.call_s).collect::<Vec<_>>());
        println!(
            "host: {}: call CPU median {:.3} ms over {}",
            w.input_label(index),
            median * 1e3,
            ops.len()
        );
        cycle_s += median;
        schedules += ops[0].schedules;
        arrivals += ops[0].arrivals;
    }
    println!(
        "host: {} timed calls over {inputs} input(s), {failed} failed; \
         set-up CPU median of {SETUP_REPEATS}: {:.3} ms",
        calls.len(),
        stats::median(&setups) * 1e3,
    );
    let p50 = stats::median(&calls);
    for (clock, samples) in [("CPU", &calls), ("wall", &walls)] {
        let tail = match stats::percentile(samples, 90) {
            Ok(p90) => format!("p90 {:.3} ms", p90 * 1e3),
            Err(e) => e.to_string(),
        };
        println!(
            "host: call {clock} p50 {:.3} ms, {tail}, min {:.3} ms, max {:.3} ms over {} samples",
            stats::median(samples) * 1e3,
            samples.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
            samples.iter().copied().fold(0.0, f64::max) * 1e3,
            samples.len()
        );
    }
    let values = [
        stats::median(&setups),
        procfs::peak_rss_mib()?,
        schedules as f64 / cycle_s,
        arrivals as f64 / cycle_s,
        p50 * 1e3,
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics: ledger::named(&END_TO_END, &values)?,
    })
}

fn traced(args: &Args, started: Instant) -> Result<Outcome, String> {
    let tel = Telemetry::enabled(false, true);
    let mut plain = workload::setup(&args.workload, args.seed, &Telemetry::disabled())?;
    let mut traced = workload::setup(&args.workload, args.seed, &tel)?;
    let inputs = plain.inputs();
    let mut digests = Digests {
        first: vec![None; inputs],
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let (mut traced_ops, mut candidates) = (0u64, 0u64);
    run_cycles(inputs, args.seconds / 2.0, started, |i| {
        attempted += 1;
        let pair = plain
            .op(i)
            .and_then(|op| digests.check(plain.as_ref(), i, &op).map(|()| op))
            .and_then(|p| {
                let t = traced.op(i)?;
                digests.check(traced.as_ref(), i, &t)?;
                Ok((p, t))
            });
        match pair {
            Ok((p, t)) => {
                plain_s += p.call_s;
                traced_s += t.call_s;
                traced_ops += 1;
                candidates += t.candidates;
            }
            Err(e) => {
                failed += 1;
                eprintln!("op pair {i} failed: {e}");
            }
        }
    });
    println!(
        "trace: {traced_ops} traced ops, each paired with an untraced op on the same input; \
         per-layer values are means per traced op"
    );
    let metrics = ledger::per_layer(
        &tel,
        &TraceRun {
            ops: traced_ops,
            candidates,
            setup_evaluations: traced.setup_evaluations(),
            overhead_ratio: traced_s / plain_s,
        },
    )?;
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

fn json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() {
    let started = Instant::now();
    let result = parse_args().and_then(|args| {
        println!(
            "workload {} seed {} seconds {} trace {}",
            args.workload, args.seed, args.seconds, args.trace as u8
        );
        if args.trace {
            traced(&args, started)
        } else {
            untraced(&args, started)
        }
    });
    match result {
        Ok(outcome) => println!("{}", json(&outcome)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
