//! Multi-tenant request-stream models.
//!
//! A [`TrafficMix`] is a set of per-model [`RequestStream`]s, each emitting
//! timestamped [`Request`]s under one of two arrival processes:
//!
//! * [`ArrivalProcess::Periodic`] — fixed-rate arrivals (AR/VR frame
//!   clocks: a 60 FPS eye tracker emits exactly every 1/60 s),
//! * [`ArrivalProcess::Poisson`] — seeded-pseudorandom exponential
//!   inter-arrival gaps (datacenter query traffic), using the same
//!   `StdRng::seed_from_u64` idiom as the evolutionary search driver so a
//!   mix is a reproducible object, not a one-off sample.
//!
//! Streams carry optional relative deadlines; AR/VR defaults take both the
//! rate and the one-frame-period deadline from
//! [`scar_workloads::scenario::nominal_rate_hz`]/[`nominal_deadline_s`].
//!
//! [`nominal_deadline_s`]: scar_workloads::scenario::nominal_deadline_s

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scar_workloads::scenario::{model_pool, nominal_deadline_s, nominal_rate_hz};
use scar_workloads::{Model, UseCase};

/// When requests of a stream arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Deterministic fixed-rate arrivals at `rate_hz`, starting at
    /// `phase_s` (frame clocks; phases stagger tenant frame boundaries).
    Periodic {
        /// Requests per second.
        rate_hz: f64,
        /// Offset of the first arrival, in seconds.
        phase_s: f64,
    },
    /// Poisson arrivals: exponential inter-arrival gaps with mean
    /// `1 / rate_hz`, drawn from the mix's seeded generator.
    Poisson {
        /// Mean requests per second.
        rate_hz: f64,
    },
    /// Markov-modulated on/off ("burst") arrivals: exponentially
    /// distributed ON phases (mean `mean_on_s`) emitting Poisson arrivals
    /// at `burst_rate_hz`, separated by exponentially distributed silent
    /// OFF phases (mean `mean_off_s`). The two-state Markov chain of the
    /// classic MMPP(2) overload model: mean rate is
    /// `burst_rate_hz * on / (on + off)`, but the instantaneous rate
    /// alternates between `burst_rate_hz` and zero.
    Burst {
        /// Requests per second *while a burst is on*.
        burst_rate_hz: f64,
        /// Mean ON-phase duration, seconds.
        mean_on_s: f64,
        /// Mean OFF-phase duration, seconds.
        mean_off_s: f64,
    },
    /// Sinusoidal-rate ("diurnal") arrivals: an inhomogeneous Poisson
    /// process with rate `λ(t) = base_hz · (1 + amplitude · sin(2πt /
    /// period_s))`, sampled by thinning against the peak rate. Models the
    /// day/night swing of datacenter query traffic compressed onto
    /// simulation timescales.
    Diurnal {
        /// Mean requests per second (the rate averaged over one period).
        base_hz: f64,
        /// Relative swing in `[0, 1]`: 0 degenerates to Poisson, 1 swings
        /// between zero and twice the base rate.
        amplitude: f64,
        /// Period of one rate cycle, seconds.
        period_s: f64,
    },
}

impl ArrivalProcess {
    /// The process's mean rate in requests per second (for `Burst`, the
    /// on-rate scaled by the duty cycle; for `Diurnal`, the base rate —
    /// the sinusoid averages out over whole periods).
    pub fn rate_hz(&self) -> f64 {
        match *self {
            ArrivalProcess::Periodic { rate_hz, .. } | ArrivalProcess::Poisson { rate_hz } => {
                rate_hz
            }
            ArrivalProcess::Burst {
                burst_rate_hz,
                mean_on_s,
                mean_off_s,
            } => {
                if mean_on_s + mean_off_s <= 0.0 {
                    0.0
                } else {
                    burst_rate_hz * mean_on_s / (mean_on_s + mean_off_s)
                }
            }
            ArrivalProcess::Diurnal { base_hz, .. } => base_hz,
        }
    }

    /// A short tag naming the process family (`periodic` / `poisson` /
    /// `burst` / `diurnal`) — what shape fingerprints and reports print.
    pub fn kind_label(&self) -> &'static str {
        match self {
            ArrivalProcess::Periodic { .. } => "periodic",
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Burst { .. } => "burst",
            ArrivalProcess::Diurnal { .. } => "diurnal",
        }
    }

    /// This process with every rate scaled by `factor` (phase offsets and
    /// burst/diurnal time constants are kept — throttling changes load,
    /// not the shape's timescale).
    fn throttled(self, factor: f64) -> Self {
        match self {
            ArrivalProcess::Periodic { rate_hz, phase_s } => ArrivalProcess::Periodic {
                rate_hz: rate_hz * factor,
                phase_s,
            },
            ArrivalProcess::Poisson { rate_hz } => ArrivalProcess::Poisson {
                rate_hz: rate_hz * factor,
            },
            ArrivalProcess::Burst {
                burst_rate_hz,
                mean_on_s,
                mean_off_s,
            } => ArrivalProcess::Burst {
                burst_rate_hz: burst_rate_hz * factor,
                mean_on_s,
                mean_off_s,
            },
            ArrivalProcess::Diurnal {
                base_hz,
                amplitude,
                period_s,
            } => ArrivalProcess::Diurnal {
                base_hz: base_hz * factor,
                amplitude,
                period_s,
            },
        }
    }
}

/// The arrival-shape families a mix can be re-expressed in — see
/// [`TrafficMix::reshaped`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficShape {
    /// Seeded-Poisson arrivals at each stream's mean rate.
    Poisson,
    /// Markov-modulated on/off bursts (25% duty cycle at 4× the mean
    /// rate): the overload shape.
    Burst,
    /// Sinusoidal rate swinging ±80% around the mean over a 0.5 s cycle:
    /// the day/night shape on simulation timescales.
    Diurnal,
}

impl TrafficShape {
    /// Parses `poisson`, `burst` or `diurnal`, ignoring case and
    /// surrounding whitespace like the other spec parsers.
    ///
    /// # Errors
    ///
    /// A message naming the offending value and the accepted shapes.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec.trim().to_ascii_lowercase().as_str() {
            "poisson" => Ok(TrafficShape::Poisson),
            "burst" => Ok(TrafficShape::Burst),
            "diurnal" => Ok(TrafficShape::Diurnal),
            _ => Err(format!(
                "{spec:?} is not a traffic shape (poisson, burst, diurnal)"
            )),
        }
    }
}

impl std::fmt::Display for TrafficShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TrafficShape::Poisson => "poisson",
            TrafficShape::Burst => "burst",
            TrafficShape::Diurnal => "diurnal",
        })
    }
}

/// One tenant: a model queried at some rate.
#[derive(Debug, Clone)]
pub struct RequestStream {
    /// The model every request of this stream runs.
    pub model: Model,
    /// Samples contributed to the live batch by one request (1 for an AR/VR
    /// frame; >1 for datacenter queries that arrive pre-batched).
    pub samples_per_request: u64,
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// Relative deadline per request, if the tenant is latency-critical.
    pub deadline_s: Option<f64>,
}

impl RequestStream {
    /// A stream with the zoo model's nominal rate and deadline for
    /// `use_case` (frame-periodic for AR/VR, Poisson for datacenter).
    ///
    /// # Panics
    ///
    /// Panics if `phase_s` is negative.
    pub fn nominal(model: Model, use_case: UseCase, phase_s: f64) -> Self {
        assert!(phase_s >= 0.0, "phase must be non-negative");
        let rate_hz = nominal_rate_hz(model.name(), use_case);
        let deadline_s = nominal_deadline_s(model.name(), use_case);
        let arrivals = match use_case {
            UseCase::ArVr => ArrivalProcess::Periodic { rate_hz, phase_s },
            UseCase::Datacenter => ArrivalProcess::Poisson { rate_hz },
        };
        Self {
            model,
            samples_per_request: 1,
            arrivals,
            deadline_s,
        }
    }
}

/// One timestamped inference request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Global arrival-order id (ties broken by stream index).
    pub id: u64,
    /// Index of the emitting stream within the mix.
    pub stream: usize,
    /// Arrival time, in seconds from simulation start.
    pub arrival_s: f64,
    /// Absolute completion deadline, if the stream has one.
    pub deadline_s: Option<f64>,
}

/// A named set of request streams: the serving workload.
#[derive(Debug, Clone)]
pub struct TrafficMix {
    /// Human-readable mix name (appears in reports).
    pub name: String,
    /// The deployment domain of the live scenarios this mix produces.
    pub use_case: UseCase,
    /// The tenant streams.
    pub streams: Vec<RequestStream>,
    /// Seed for every pseudorandom arrival draw in the mix.
    pub seed: u64,
}

impl TrafficMix {
    /// A mix from explicit streams.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty.
    pub fn new(
        name: impl Into<String>,
        use_case: UseCase,
        streams: Vec<RequestStream>,
        seed: u64,
    ) -> Self {
        assert!(
            !streams.is_empty(),
            "a traffic mix needs at least one stream"
        );
        Self {
            name: name.into(),
            use_case,
            streams,
            seed,
        }
    }

    /// The paper-flavored datacenter mix: GPT-L + BERT-L + ResNet-50
    /// tenants (Sc2's composition) with Poisson query arrivals at their
    /// nominal rates.
    pub fn datacenter(seed: u64) -> Self {
        let pool = model_pool(UseCase::Datacenter);
        let streams = pool
            .into_iter()
            .filter(|m| matches!(m.name(), "GPT-L" | "BERT-L" | "ResNet-50"))
            .map(|m| RequestStream::nominal(m, UseCase::Datacenter, 0.0))
            .collect();
        Self::new("datacenter Poisson mix", UseCase::Datacenter, streams, seed)
    }

    /// The XRBench-flavored AR/VR mix: Sc9's social pipeline
    /// (EyeCod + Hand-S/P + Sp2Dense) on their frame clocks (60/45/30 FPS),
    /// with one-frame-period deadlines and staggered phases.
    ///
    /// (Sc7's AR-gaming trio is expressible the same way, but its
    /// PlaneRCNN/MiDaS backbones overload the paper's AR/VR chiplet profile
    /// at full frame rates — a sustained-overload mix, not a serving one.)
    pub fn arvr(seed: u64) -> Self {
        let pool = model_pool(UseCase::ArVr);
        let streams = pool
            .into_iter()
            .filter(|m| matches!(m.name(), "EyeCod" | "Hand-S/P" | "Sp2Dense"))
            .enumerate()
            .map(|(i, m)| RequestStream::nominal(m, UseCase::ArVr, i as f64 * 1e-3))
            .collect();
        Self::new("AR/VR frame mix", UseCase::ArVr, streams, seed)
    }

    /// This mix with every stream's rate multiplied by `factor` (periodic
    /// deadlines rescale with the slower/faster frame period). Lets one
    /// composition sweep from idle to overload.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn throttled(mut self, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "rate factor must be positive and finite"
        );
        for s in &mut self.streams {
            s.arrivals = s.arrivals.throttled(factor);
            s.deadline_s = s.deadline_s.map(|d| d / factor);
        }
        self.name = format!("{} ×{factor:.2}", self.name);
        self
    }

    /// This mix with every stream's arrival process re-expressed in
    /// `shape` at the same *mean* rate (deadlines and per-request batching
    /// are untouched): one tenant composition sweeps across smooth,
    /// bursty, and diurnal load without changing what is offered on
    /// average. Reshaping to `Poisson` turns frame clocks into query
    /// traffic; `Burst` concentrates the same load into 4×-rate on-phases
    /// (25% duty cycle, 50 ms mean bursts); `Diurnal` swings the rate
    /// ±80% over a 0.5 s cycle.
    #[must_use]
    pub fn reshaped(mut self, shape: TrafficShape) -> Self {
        for s in &mut self.streams {
            let rate_hz = s.arrivals.rate_hz();
            s.arrivals = match shape {
                TrafficShape::Poisson => ArrivalProcess::Poisson { rate_hz },
                TrafficShape::Burst => ArrivalProcess::Burst {
                    burst_rate_hz: rate_hz * 4.0,
                    mean_on_s: 0.05,
                    mean_off_s: 0.15,
                },
                TrafficShape::Diurnal => ArrivalProcess::Diurnal {
                    base_hz: rate_hz,
                    amplitude: 0.8,
                    period_s: 0.5,
                },
            };
        }
        self.name = format!("{} ~{shape}", self.name);
        self
    }

    /// A stable fingerprint of the mix's *arrival shape*: every stream's
    /// process family and parameters (not the seed — two seeds of one
    /// shape sample different arrivals but describe the same traffic
    /// contract). Serving caches fold this into their keys so a schedule
    /// cached under one traffic shape is never served under another.
    pub fn shape_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = scar_hash::StableHasher::new();
        for s in &self.streams {
            s.arrivals.kind_label().hash(&mut h);
            match s.arrivals {
                ArrivalProcess::Periodic { rate_hz, phase_s } => {
                    rate_hz.to_bits().hash(&mut h);
                    phase_s.to_bits().hash(&mut h);
                }
                ArrivalProcess::Poisson { rate_hz } => rate_hz.to_bits().hash(&mut h),
                ArrivalProcess::Burst {
                    burst_rate_hz,
                    mean_on_s,
                    mean_off_s,
                } => {
                    burst_rate_hz.to_bits().hash(&mut h);
                    mean_on_s.to_bits().hash(&mut h);
                    mean_off_s.to_bits().hash(&mut h);
                }
                ArrivalProcess::Diurnal {
                    base_hz,
                    amplitude,
                    period_s,
                } => {
                    base_hz.to_bits().hash(&mut h);
                    amplitude.to_bits().hash(&mut h);
                    period_s.to_bits().hash(&mut h);
                }
            }
        }
        h.finish()
    }

    /// Every request arriving in `[0, horizon_s)`, sorted by arrival time
    /// (ties by stream index), with ids in that order. Deterministic given
    /// the mix (including its seed).
    ///
    /// A stream whose rate is zero or negative emits nothing (a muted
    /// tenant, reachable via [`TrafficMix::throttled`] rounding); a
    /// *non-finite* rate or phase is a configuration bug and panics
    /// eagerly — before this guard, a NaN Poisson rate made the
    /// inter-arrival gap NaN, and since `NaN >= horizon` is false the
    /// sampling loop below never terminated.
    ///
    /// # Panics
    ///
    /// Panics if `horizon_s` is not positive and finite, or if any
    /// stream's rate (or periodic phase) is non-finite.
    pub fn arrivals(&self, horizon_s: f64) -> Vec<Request> {
        assert!(
            horizon_s > 0.0 && horizon_s.is_finite(),
            "horizon must be positive and finite"
        );
        let mut out: Vec<Request> = Vec::new();
        for (si, stream) in self.streams.iter().enumerate() {
            assert!(
                stream.arrivals.rate_hz().is_finite(),
                "stream {si} ({}) has a non-finite arrival rate",
                stream.model.name()
            );
            match stream.arrivals {
                ArrivalProcess::Periodic { rate_hz, phase_s } => {
                    assert!(
                        phase_s.is_finite(),
                        "stream {si} ({}) has a non-finite phase",
                        stream.model.name()
                    );
                    if rate_hz <= 0.0 {
                        continue;
                    }
                    let period = 1.0 / rate_hz;
                    let mut t = phase_s;
                    while t < horizon_s {
                        out.push(self.request_at(si, t, stream.deadline_s));
                        t += period;
                    }
                }
                ArrivalProcess::Poisson { rate_hz } => {
                    if rate_hz <= 0.0 {
                        continue;
                    }
                    let mut rng = self.stream_rng(si);
                    let mut t = 0.0f64;
                    loop {
                        t += exp_gap(&mut rng, 1.0 / rate_hz);
                        if t >= horizon_s {
                            break;
                        }
                        out.push(self.request_at(si, t, stream.deadline_s));
                    }
                }
                ArrivalProcess::Burst {
                    burst_rate_hz,
                    mean_on_s,
                    mean_off_s,
                } => {
                    assert!(
                        mean_on_s.is_finite()
                            && mean_off_s.is_finite()
                            && mean_on_s > 0.0
                            && mean_off_s >= 0.0,
                        "stream {si} ({}) has invalid burst phase durations",
                        stream.model.name()
                    );
                    if burst_rate_hz <= 0.0 {
                        continue;
                    }
                    let mut rng = self.stream_rng(si);
                    let mut t = 0.0f64;
                    'phases: while t < horizon_s {
                        // one ON phase: Poisson arrivals at the burst rate,
                        // restarted at the phase edge (memorylessness makes
                        // the truncated draw at the edge equivalent)
                        let on_end = t + exp_gap(&mut rng, mean_on_s);
                        loop {
                            t += exp_gap(&mut rng, 1.0 / burst_rate_hz);
                            if t >= on_end {
                                break;
                            }
                            if t >= horizon_s {
                                break 'phases;
                            }
                            out.push(self.request_at(si, t, stream.deadline_s));
                        }
                        // one silent OFF phase
                        t = on_end + exp_gap(&mut rng, mean_off_s);
                    }
                }
                ArrivalProcess::Diurnal {
                    base_hz,
                    amplitude,
                    period_s,
                } => {
                    assert!(
                        (0.0..=1.0).contains(&amplitude),
                        "stream {si} ({}) has a diurnal amplitude outside [0, 1]",
                        stream.model.name()
                    );
                    assert!(
                        period_s.is_finite() && period_s > 0.0,
                        "stream {si} ({}) has an invalid diurnal period",
                        stream.model.name()
                    );
                    if base_hz <= 0.0 {
                        continue;
                    }
                    // inhomogeneous Poisson by thinning: sample at the peak
                    // rate, keep each arrival with probability λ(t)/λ_peak
                    let peak_hz = base_hz * (1.0 + amplitude);
                    let mut rng = self.stream_rng(si);
                    let mut t = 0.0f64;
                    loop {
                        t += exp_gap(&mut rng, 1.0 / peak_hz);
                        if t >= horizon_s {
                            break;
                        }
                        let lambda_t = base_hz
                            * (1.0 + amplitude * (std::f64::consts::TAU * t / period_s).sin());
                        let accept: f64 = rng.gen();
                        if accept * peak_hz < lambda_t {
                            out.push(self.request_at(si, t, stream.deadline_s));
                        }
                    }
                }
            }
        }
        // total_cmp: arrival times are finite by construction here, but a
        // comparator that cannot panic beats one that asserts it
        out.sort_by(|a, b| {
            a.arrival_s
                .total_cmp(&b.arrival_s)
                .then(a.stream.cmp(&b.stream))
        });
        for (id, r) in out.iter_mut().enumerate() {
            r.id = id as u64;
        }
        out
    }

    /// One independent, stream-keyed generator per stream, so adding a
    /// stream never perturbs the others' arrival draws. Every random
    /// shape (Poisson, Burst, Diurnal) samples from this — one seeding
    /// rule, shared by construction.
    fn stream_rng(&self, si: usize) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ (si as u64).wrapping_mul(0x9E37_79B9))
    }

    fn request_at(&self, stream: usize, arrival_s: f64, deadline_s: Option<f64>) -> Request {
        Request {
            id: 0, // assigned after the global sort
            stream,
            arrival_s,
            deadline_s: deadline_s.map(|d| arrival_s + d),
        }
    }

    /// The aggregate offered load in requests per second.
    pub fn offered_rps(&self) -> f64 {
        self.streams.iter().map(|s| s.arrivals.rate_hz()).sum()
    }

    /// The live [`Scenario`](scar_workloads::Scenario) the serving loop
    /// forms when every stream has exactly one queued request — the
    /// canonical recurring round of a frame mix. Useful for persisting a
    /// representative schedule of the mix (e.g. as a
    /// [`scar_core::ScheduleArtifact`]) without running the loop.
    pub fn unit_scenario(&self) -> scar_workloads::Scenario {
        scar_workloads::Scenario::new(
            format!("{} unit round", self.name),
            self.use_case,
            self.streams
                .iter()
                .map(|s| scar_workloads::ScenarioModel {
                    model: s.model.clone(),
                    batch: s.samples_per_request,
                })
                .collect(),
        )
    }
}

/// An exponentially distributed sample with the given mean, by inverse
/// transform — the one gap sampler every random arrival shape uses.
///
/// `(1 - u)` keeps ln's argument in (0, 1]. Audit of the vendored `rand`
/// stub: `gen::<f64>()` maps 53 random bits onto [0, 1), so u == 1.0
/// (which would make the sample ln(0) → +inf and silently truncate the
/// stream) cannot occur — but that is a property of *this* stub, so clamp
/// anyway: a swapped-in generator with a closed [0, 1] range must not
/// change arrival semantics.
fn exp_gap(rng: &mut StdRng, mean_s: f64) -> f64 {
    let u: f64 = rng.gen::<f64>().clamp(0.0, 1.0 - f64::EPSILON);
    -(1.0 - u).ln() * mean_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_parse_roundtrips_display_and_ignores_case() {
        for shape in [
            TrafficShape::Poisson,
            TrafficShape::Burst,
            TrafficShape::Diurnal,
        ] {
            assert_eq!(TrafficShape::parse(&shape.to_string()), Ok(shape));
        }
        assert_eq!(TrafficShape::parse(" BuRsT "), Ok(TrafficShape::Burst));
        let err = TrafficShape::parse("square").unwrap_err();
        assert!(err.contains("\"square\""), "{err}");
    }

    #[test]
    fn periodic_arrivals_are_a_frame_clock() {
        let mix = TrafficMix::arvr(1);
        let reqs = mix.arrivals(0.5);
        // 60 + 45 + 30 Hz over 0.5 s ≈ 67 arrivals (phases shift a few)
        let n = reqs.len();
        assert!((60..=72).contains(&n), "{n}");
        // per-stream gaps equal the period
        for (si, s) in mix.streams.iter().enumerate() {
            let times: Vec<f64> = reqs
                .iter()
                .filter(|r| r.stream == si)
                .map(|r| r.arrival_s)
                .collect();
            let period = 1.0 / s.arrivals.rate_hz();
            for w in times.windows(2) {
                assert!((w[1] - w[0] - period).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn poisson_arrivals_are_reproducible_and_rate_plausible() {
        let a = TrafficMix::datacenter(9).arrivals(10.0);
        let b = TrafficMix::datacenter(9).arrivals(10.0);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.arrival_s == y.arrival_s && x.stream == y.stream));
        // 2 + 8 + 32 Hz over 10 s → ~420 expected; allow wide slack
        assert!((250..=600).contains(&a.len()), "{}", a.len());
        let c = TrafficMix::datacenter(10).arrivals(10.0);
        assert!(a.len() != c.len() || a[0].arrival_s != c[0].arrival_s);
    }

    #[test]
    fn arrivals_are_sorted_with_sequential_ids() {
        let reqs = TrafficMix::datacenter(3).arrivals(5.0);
        for w in reqs.windows(2) {
            assert!(w[0].arrival_s <= w[1].arrival_s);
        }
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(r.arrival_s >= 0.0 && r.arrival_s < 5.0);
        }
    }

    #[test]
    fn arvr_requests_carry_frame_deadlines() {
        let mix = TrafficMix::arvr(2);
        let reqs = mix.arrivals(0.2);
        assert!(!reqs.is_empty());
        for r in reqs {
            let d = r.deadline_s.expect("AR/VR streams are deadline-bound");
            let s = &mix.streams[r.stream];
            assert!((d - r.arrival_s - s.deadline_s.unwrap()).abs() < 1e-12);
        }
    }

    #[test]
    fn datacenter_requests_have_no_deadline() {
        assert!(TrafficMix::datacenter(1)
            .arrivals(2.0)
            .iter()
            .all(|r| r.deadline_s.is_none()));
    }

    #[test]
    fn zero_rate_streams_emit_nothing() {
        let mut mix = TrafficMix::datacenter(1);
        mix.streams[0].arrivals = ArrivalProcess::Poisson { rate_hz: 0.0 };
        mix.streams[1].arrivals = ArrivalProcess::Periodic {
            rate_hz: -3.0,
            phase_s: 0.0,
        };
        let reqs = mix.arrivals(2.0);
        assert!(!reqs.is_empty(), "stream 2 still emits");
        assert!(
            reqs.iter().all(|r| r.stream == 2),
            "muted streams are silent"
        );
    }

    /// A NaN rate used to make the Poisson gap NaN and spin the sampling
    /// loop forever (`NaN >= horizon` is false); now it panics eagerly.
    #[test]
    #[should_panic(expected = "non-finite arrival rate")]
    fn nan_rate_panics_instead_of_hanging() {
        let mut mix = TrafficMix::datacenter(1);
        mix.streams[0].arrivals = ArrivalProcess::Poisson { rate_hz: f64::NAN };
        let _ = mix.arrivals(1.0);
    }

    #[test]
    #[should_panic(expected = "non-finite phase")]
    fn infinite_phase_panics() {
        let mut mix = TrafficMix::arvr(1);
        mix.streams[0].arrivals = ArrivalProcess::Periodic {
            rate_hz: 60.0,
            phase_s: f64::INFINITY,
        };
        let _ = mix.arrivals(1.0);
    }

    /// All sampled arrivals are finite and in-horizon even at extreme
    /// rates — the u→1 clamp bounds every inter-arrival gap away from the
    /// ln(0) infinity.
    #[test]
    fn poisson_gaps_are_always_finite() {
        let mix = TrafficMix::datacenter(0xFEED).throttled(1000.0);
        for r in mix.arrivals(0.05) {
            assert!(r.arrival_s.is_finite());
            assert!((0.0..0.05).contains(&r.arrival_s));
        }
    }

    #[test]
    fn offered_load_sums_streams() {
        let mix = TrafficMix::arvr(0);
        assert!((mix.offered_rps() - (60.0 + 45.0 + 30.0)).abs() < 1e-9);
    }

    #[test]
    fn throttling_scales_rates_and_deadlines() {
        let mix = TrafficMix::arvr(0).throttled(0.5);
        assert!((mix.offered_rps() - 135.0 * 0.5).abs() < 1e-9);
        for s in &mix.streams {
            // a halved frame clock doubles the frame period and deadline
            assert!((s.deadline_s.unwrap() - 1.0 / s.arrivals.rate_hz()).abs() < 1e-12);
        }
        assert!(mix.name.contains("×0.50"));
    }
}
