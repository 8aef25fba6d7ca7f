//! `analog_mc`: the circuit engine with `CircuitEngineConfig::paper_full()`
//! (5 % proportional conductance variation + 1 Ω interconnect, the
//! paper's Fig. 9 setting), two-stage, n = 128 Wishart. One op = one
//! Monte-Carlo trial: a fresh engine seed (built before the timer
//! starts), then prepare + solve (the two halves of
//! `BlockAmcSolver::solve`), checked against a digital LU
//! reference. Trials cycle through a fixed seed-derived set, so the
//! error statistic repeats exactly for a seed.

use std::sync::Arc;

use amc_linalg::lu::LuFactor;
use amc_linalg::{generate, Matrix};
use blockamc::engine::{CircuitEngine, CircuitEngineConfig};
use blockamc::solver::{BlockAmcSolver, SolverConfig};
use rand::Rng;

use super::{input_rng, lu_baseline_s, PrepareSolve};
use crate::report::rel_err;
use crate::timed::Probe;
use crate::{boxed, Phase, Workload};

/// Problem size.
pub const N: usize = 128;
/// Trials in the fixed set; `rel_err_p50` is their median.
pub const TRIALS: usize = 256;
/// Bound on each trial's `‖x − x_ref‖ / ‖x_ref‖`.
pub const ERR_BOUND: f64 = 0.5;
const DEPTH: usize = 2;

/// Set-up state of `analog_mc`.
pub struct AnalogMc {
    a: Matrix,
    rhs: Vec<Vec<f64>>,
    refs: Vec<Vec<f64>>,
    seeds: Vec<u64>,
    config: SolverConfig,
    probe: Option<Arc<Probe>>,
}

impl Workload for AnalogMc {
    const THREADS: &'static str = "1 caller, trials single-threaded";

    fn setup(seed: u64, traced: bool) -> Result<Self, String> {
        let mut rng = input_rng(seed, 4);
        let a = generate::wishart_default(N, &mut rng).map_err(|e| e.to_string())?;
        let lu = LuFactor::new_auto(&a).map_err(|e| e.to_string())?;
        let rhs: Vec<Vec<f64>> = (0..TRIALS)
            .map(|_| generate::random_vector(N, &mut rng))
            .collect();
        let refs = rhs
            .iter()
            .map(|b| lu.solve(b))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let seeds = (0..TRIALS).map(|_| rng.gen()).collect();
        Ok(AnalogMc {
            a,
            rhs,
            refs,
            seeds,
            config: crate::two_stage(),
            probe: traced.then(Probe::new),
        })
    }

    fn measure(&mut self, seconds: f64) -> Phase {
        let mut phase = Phase::start();
        let mut first_pass = Vec::with_capacity(TRIALS);
        let mut split = PrepareSolve::default();
        let mut trial = 0usize;
        // At least one full pass over the trial set, so the error
        // statistic always covers all of it.
        while trial < TRIALS || phase.started.elapsed().as_secs_f64() < seconds {
            let slot = trial % TRIALS;
            trial += 1;
            let engine = CircuitEngine::new(CircuitEngineConfig::paper_full(), self.seeds[slot]);
            let mut solver =
                BlockAmcSolver::from_config(boxed(engine, &self.probe), self.config.clone());
            let (solved, latency) = split.run(&mut solver, &self.a, &self.rhs[slot], &self.probe);

            // Checks run after the timer: the error is finite and under
            // the bound, and a repeated trial reproduces it bit for bit.
            let err = solved.map_or(f64::NAN, |x| rel_err(&x, &self.refs[slot]));
            let repeats = match first_pass.get(slot) {
                Some(first) => f64::to_bits(*first) == err.to_bits(),
                None => {
                    first_pass.push(err);
                    true
                }
            };
            let ok = err.is_finite() && err < ERR_BOUND && repeats;
            phase.record(latency, 1, ok);
        }
        phase.rel_errs = first_pass;

        if self.probe.is_some() {
            let lu_s = lu_baseline_s(&self.a, &self.rhs[0]);
            let ops = phase.attempted() as f64;
            split.set_layers(&mut phase.layers, ops, lu_s, N, DEPTH);
        }
        phase
    }
}
