//! `cold_prepare`: one op = `BlockAmcSolver::prepare` of a fresh
//! matrix plus one right-hand-side solve, single-threaded, on the
//! numeric engine at n = 512. Partition, Schur complement and array
//! programming dominate; the cascade is a small share.

use std::sync::Arc;

use amc_linalg::lu::LuFactor;
use amc_linalg::{generate, Matrix};
use blockamc::engine::{AmcEngine, NumericEngine};
use blockamc::solver::BlockAmcSolver;
use rand_chacha::ChaCha8Rng;

use super::{input_rng, lu_baseline_s, PrepareSolve, RESIDUAL_TOL};
use crate::report::{rel_err, rel_residual};
use crate::timed::Probe;
use crate::{boxed, Phase, Workload};

/// Problem size.
pub const N: usize = 512;
/// Matrices in the pool; ops cycle through them.
pub const POOL: usize = 4;
const DEPTH: usize = 2;

/// Set-up state of `cold_prepare`.
pub struct ColdPrepare {
    pool: Vec<Matrix>,
    refs: Vec<LuFactor>,
    rng: ChaCha8Rng,
    solver: BlockAmcSolver<Box<dyn AmcEngine>>,
    probe: Option<Arc<Probe>>,
}

impl Workload for ColdPrepare {
    const THREADS: &'static str = "1 caller, prepare and solve single-threaded";

    fn setup(seed: u64, traced: bool) -> Result<Self, String> {
        let mut rng = input_rng(seed, 1);
        let pool: Vec<Matrix> = (0..POOL)
            .map(|_| generate::diagonally_dominant(N, 1.0, &mut rng))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let refs = pool
            .iter()
            .map(LuFactor::new_auto)
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let probe = traced.then(Probe::new);
        let solver =
            BlockAmcSolver::from_config(boxed(NumericEngine::new(), &probe), crate::two_stage());
        Ok(ColdPrepare {
            pool,
            refs,
            rng,
            solver,
            probe,
        })
    }

    fn measure(&mut self, seconds: f64) -> Phase {
        let mut phase = Phase::start();
        let mut split = PrepareSolve::default();
        let mut op = 0usize;
        while phase.started.elapsed().as_secs_f64() < seconds {
            let slot = op % POOL;
            op += 1;
            let a = &self.pool[slot];
            let b = generate::random_vector(N, &mut self.rng);
            let (solved, latency) = split.run(&mut self.solver, a, &b, &self.probe);

            // Checks run after the timer.
            let ok = match solved {
                Ok(x) => {
                    let reference = self.refs[slot].solve(&b).expect("reference solve");
                    phase.rel_errs.push(rel_err(&x, &reference));
                    x.iter().all(|v| v.is_finite()) && rel_residual(a, &x, &b) < RESIDUAL_TOL
                }
                Err(_) => false,
            };
            phase.record(latency, 1, ok);
        }

        if self.probe.is_some() {
            let b = generate::random_vector(N, &mut self.rng);
            let lu_s = lu_baseline_s(&self.pool[0], &b);
            let ops = phase.attempted() as f64;
            split.set_layers(&mut phase.layers, ops, lu_s, N, DEPTH);
        }
        phase
    }
}
