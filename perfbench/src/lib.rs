//! End-to-end and per-layer benchmark of the BlockAMC workspace.
//!
//! Four workloads drive the public APIs of `blockamc`,
//! `amc-engine-simd`, `amc-serve` and the circuit engine. An untraced
//! run reports the end-to-end metrics; a traced run times each layer
//! from outside (a [`timed::TimedEngine`] decorator and timers around
//! the calls into each layer) and reports the per-layer metrics. See
//! `README.md` for the workloads, metrics and how to read them.

pub mod flops;
pub mod layers;
pub mod report;
pub mod timed;
pub mod workloads;

use std::sync::Arc;
use std::time::Instant;

use blockamc::engine::AmcEngine;
use blockamc::solver::{SolverConfig, Stages};

use crate::layers::Layers;
use crate::report::{metric, Metric};
use crate::timed::{EngineTotals, Probe, TimedEngine};

/// Set-ups an untraced run times on each side of its measured phase;
/// `setup_s` is the median of all of them, so it spans the host's state
/// over the whole run, not just its first second.
pub const SETUPS_EACH_SIDE: usize = 3;

/// One attempted op.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Its wall time, seconds.
    pub latency_s: f64,
    /// Right-hand sides it solved (0 if it failed).
    pub rhs: u64,
    /// Whether it succeeded and passed its correctness check.
    pub ok: bool,
}

/// What one measured phase of a workload produced.
#[derive(Debug)]
pub struct Phase {
    /// When the phase started.
    pub started: Instant,
    /// Every attempted op.
    pub ops: Vec<Op>,
    /// The phase's wall time when callers overlap (`serve_zipf`); a
    /// single caller's rate divides by its summed op time instead, so
    /// the checks between ops do not count.
    pub wall_s: Option<f64>,
    /// `‖x − x_ref‖ / ‖x_ref‖` of every checked solution.
    pub rel_errs: Vec<f64>,
    /// Per-layer metrics (traced phases only).
    pub layers: Layers,
}

impl Phase {
    /// A phase starting now.
    pub fn start() -> Phase {
        Phase {
            started: Instant::now(),
            ops: Vec::new(),
            wall_s: None,
            rel_errs: Vec::new(),
            layers: Layers::default(),
        }
    }

    /// Records one op.
    pub fn record(&mut self, latency_s: f64, rhs: u64, ok: bool) {
        self.ops.push(Op {
            latency_s,
            rhs: if ok { rhs } else { 0 },
            ok,
        });
    }

    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Ops failed: an error, or a failed correctness check.
    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|op| !op.ok).count() as u64
    }

    /// Summed op wall time, seconds.
    pub fn busy_s(&self) -> f64 {
        self.ops.iter().map(|op| op.latency_s).sum()
    }

    /// Latency percentile `p` over all ops, ms; a failed op counts as
    /// infinitely slow, so it misses every latency limit.
    pub fn latency_ms(&self, p: f64) -> f64 {
        let latencies: Vec<f64> = self
            .ops
            .iter()
            .map(|op| {
                if op.ok {
                    op.latency_s * 1e3
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        report::percentile(&latencies, p)
    }

    /// Right-hand sides solved, and the seconds `solves_per_s` divides
    /// them by.
    fn rate_parts(&self) -> (f64, f64) {
        let rhs: u64 = self.ops.iter().map(|op| op.rhs).sum();
        (rhs as f64, self.wall_s.unwrap_or_else(|| self.busy_s()))
    }

    /// Right-hand sides solved per second.
    pub fn solves_per_s(&self) -> f64 {
        let (rhs, seconds) = self.rate_parts();
        report::ratio(rhs, seconds)
    }
}

/// A benchmark workload: a seeded set-up, then a timed phase.
pub trait Workload: Sized {
    /// Thread counts, reported with every result.
    const THREADS: &'static str;

    /// Builds inputs, pools and caches from `seed`. With `traced` the
    /// engines are wrapped in [`TimedEngine`]s.
    ///
    /// # Errors
    ///
    /// A message when an input cannot be built or prepared.
    fn setup(seed: u64, traced: bool) -> Result<Self, String>;

    /// Runs ops for `seconds` of wall time, checking each output after
    /// its timer stops.
    fn measure(&mut self, seconds: f64) -> Phase;
}

/// The solver configuration of every workload: the paper's two-stage
/// solver, without per-step trace capture.
pub fn two_stage() -> SolverConfig {
    SolverConfig::builder()
        .stages(Stages::Two)
        .capture_trace(false)
        .finish()
        .expect("the two-stage configuration is valid")
}

/// `inner` behind the engine trait object, timed into `probe` if any.
pub fn boxed<E: AmcEngine + Clone + 'static>(
    inner: E,
    probe: &Option<Arc<Probe>>,
) -> Box<dyn AmcEngine> {
    match probe {
        Some(probe) => Box::new(TimedEngine::new(inner, Arc::clone(probe))),
        None => Box::new(inner),
    }
}

/// The probe's totals, or zeros when untraced.
pub fn totals(probe: &Option<Arc<Probe>>) -> EngineTotals {
    probe.as_ref().map(|p| p.totals()).unwrap_or_default()
}

/// A finished run: the numbers for the result line.
#[derive(Debug)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Sample counts for the context line.
    pub samples: Vec<(&'static str, f64)>,
}

/// `W::setup`, timed into `times`.
fn timed_setup<W: Workload>(seed: u64, times: &mut Vec<f64>) -> Result<W, String> {
    let started = Instant::now();
    let state = W::setup(seed, false)?;
    times.push(started.elapsed().as_secs_f64());
    Ok(state)
}

/// Untraced run: [`SETUPS_EACH_SIDE`] set-ups, the measured phase of
/// `seconds` on the last of them, then [`SETUPS_EACH_SIDE`] more.
/// Each extra set-up is torn down outside its timer.
///
/// # Errors
///
/// Set-up failures.
pub fn run_untraced<W: Workload>(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(2 * SETUPS_EACH_SIDE);
    for _ in 1..SETUPS_EACH_SIDE {
        drop(timed_setup::<W>(seed, &mut setup_s)?);
    }
    let mut state = timed_setup::<W>(seed, &mut setup_s)?;
    let phase = state.measure(seconds);
    drop(state);
    for _ in 0..SETUPS_EACH_SIDE {
        drop(timed_setup::<W>(seed, &mut setup_s)?);
    }
    let metrics = vec![
        metric("setup_s", report::median(&setup_s), "s"),
        metric("solves_per_s", phase.solves_per_s(), "1/s"),
        metric("latency_p50_ms", phase.latency_ms(50.0), "ms"),
        metric("latency_p95_ms", phase.latency_ms(95.0), "ms"),
        metric("latency_p99_ms", phase.latency_ms(99.0), "ms"),
        metric("rel_err_p50", report::median(&phase.rel_errs), "ratio"),
    ];
    Ok(Outcome {
        attempted: phase.attempted(),
        failed: phase.failed(),
        metrics,
        samples: vec![
            ("latency_samples", phase.ops.len() as f64),
            ("rel_err_samples", phase.rel_errs.len() as f64),
            ("setup_repeats", setup_s.len() as f64),
        ],
    })
}

/// Traced run: a traced phase of `seconds / 2` between two untraced
/// phases of `seconds / 4` (so warm-up and drift fall on both sides),
/// one set-up apiece. The per-layer metrics come from the traced phase;
/// `trace.overhead_ratio` is untraced ÷ traced `solves_per_s`.
///
/// # Errors
///
/// Set-up failures.
pub fn run_traced<W: Workload>(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let before = W::setup(seed, false)?.measure(seconds / 4.0);
    let traced = W::setup(seed, true)?.measure(seconds / 2.0);
    let after = W::setup(seed, false)?.measure(seconds / 4.0);
    let ((rhs_before, s_before), (rhs_after, s_after)) = (before.rate_parts(), after.rate_parts());
    let base_solves_per_s = report::ratio(rhs_before + rhs_after, s_before + s_after);
    let mut layers = traced.layers.clone();
    layers.trace_overhead_ratio = report::ratio(base_solves_per_s, traced.solves_per_s());
    Ok(Outcome {
        attempted: before.attempted() + traced.attempted() + after.attempted(),
        failed: before.failed() + traced.failed() + after.failed(),
        metrics: layers.metrics(),
        samples: vec![
            (
                "untraced_ops",
                (before.attempted() + after.attempted()) as f64,
            ),
            ("traced_ops", traced.attempted() as f64),
            ("untraced_solves_per_s", base_solves_per_s),
            ("traced_solves_per_s", traced.solves_per_s()),
        ],
    })
}
