//! `batch_solve`: the simd engine at n = 1024, prepared once in set-up;
//! one op = a 64-right-hand-side batch through
//! `SolverReplica::solve_batch_parallel(…, 2)`. The cascade, the engine
//! `inv`/`mvm` and `amc-par` do all the work; prepare does none.

use std::sync::Arc;
use std::time::Instant;

use amc_engine_simd::SimdEngine;
use amc_linalg::lu::LuFactor;
use amc_linalg::{generate, Matrix};
use blockamc::engine::AmcEngine;
use blockamc::solver::{BlockAmcSolver, SolverReplica};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use super::{input_rng, lu_baseline_s, RESIDUAL_TOL};
use crate::layers::Layers;
use crate::report::{rel_err, rel_residual};
use crate::timed::{EngineTotals, Probe};
use crate::{boxed, flops, totals, Phase, Workload};

/// Problem size.
pub const N: usize = 1024;
/// Right-hand sides per batch.
pub const BATCH: usize = 64;
/// Workers each batch is sharded over.
pub const WORKERS: usize = 2;
/// Solutions of each batch checked against the reference.
pub const CHECKS_PER_BATCH: usize = 2;
const DEPTH: usize = 2;

/// Set-up state of `batch_solve`.
pub struct BatchSolve {
    a: Matrix,
    reference: LuFactor,
    replica: SolverReplica<Box<dyn AmcEngine>>,
    rng: ChaCha8Rng,
    probe: Option<Arc<Probe>>,
    /// Prepare metrics, measured in a traced set-up.
    prepare: Layers,
}

impl Workload for BatchSolve {
    const THREADS: &'static str = "1 caller, 2 batch workers (amc-par)";

    fn setup(seed: u64, traced: bool) -> Result<Self, String> {
        let mut rng = input_rng(seed, 2);
        let a = generate::diagonally_dominant(N, 1.0, &mut rng).map_err(|e| e.to_string())?;
        let reference = LuFactor::new_auto(&a).map_err(|e| e.to_string())?;
        let probe = traced.then(Probe::with_lanes);
        let mut solver =
            BlockAmcSolver::from_config(boxed(SimdEngine::new(), &probe), crate::two_stage());
        let e0 = totals(&probe);
        let started = Instant::now();
        let prepared = solver.prepare(&a).map_err(|e| e.to_string())?;
        let prepare_s = started.elapsed().as_secs_f64();
        let program_s = (totals(&probe) - e0).program.busy_s;
        let mut replica = prepared.replicate(1).remove(0);
        // Warm the replica: the engine factorizes its INV arrays on the
        // first solve, which belongs to set-up, not to the first batch.
        let warm = generate::random_vector(N, &mut rng);
        replica.solve(&warm).map_err(|e| e.to_string())?;
        let mut prepare = Layers::default();
        if let Some(probe) = &probe {
            let lu_s = lu_baseline_s(&a, &warm);
            prepare.set_prepare(prepare_s, program_s, lu_s, flops::prepare(N, DEPTH));
            probe.take_lane_busy_s();
        }
        Ok(BatchSolve {
            a,
            reference,
            replica,
            rng,
            probe,
            prepare,
        })
    }

    fn measure(&mut self, seconds: f64) -> Phase {
        let mut phase = Phase::start();
        phase.layers = self.prepare.clone();
        let mut engine = EngineTotals::default();
        let mut worker_busy_s = 0.0;
        while phase.started.elapsed().as_secs_f64() < seconds {
            let batch: Vec<Vec<f64>> = (0..BATCH)
                .map(|_| generate::random_vector(N, &mut self.rng))
                .collect();
            let e0 = totals(&self.probe);
            let t0 = Instant::now();
            let solved = self.replica.solve_batch_parallel(&batch, WORKERS);
            let latency = t0.elapsed().as_secs_f64();
            engine = engine + (totals(&self.probe) - e0);
            if let Some(probe) = &self.probe {
                worker_busy_s += probe.take_lane_busy_s();
            }

            // Checks run after the timer: every solution finite, and a
            // seeded sample against the reference.
            let ok = match solved {
                Ok(xs) if xs.len() == BATCH => {
                    let mut ok = xs.iter().flatten().all(|v| v.is_finite());
                    for _ in 0..CHECKS_PER_BATCH {
                        let i = self.rng.gen_range(0..BATCH);
                        let reference = self.reference.solve(&batch[i]).expect("reference solve");
                        phase.rel_errs.push(rel_err(&xs[i], &reference));
                        ok &= rel_residual(&self.a, &xs[i], &batch[i]) < RESIDUAL_TOL;
                    }
                    ok
                }
                _ => false,
            };
            phase.record(latency, BATCH as u64, ok);
        }

        if self.probe.is_some() {
            let ops = phase.attempted() as f64;
            let wall_s = phase.busy_s() / ops;
            let busy_s = worker_busy_s / ops;
            let layers = &mut phase.layers;
            layers.set_engine(engine, ops);
            layers.set_cascade(
                busy_s,
                engine.analog_ops_s() / ops,
                flops::cascade(N, DEPTH) * BATCH as f64,
            );
            layers.batch_wall_s = wall_s;
            layers.par_worker_busy_s = busy_s;
            layers.par_idle_s = WORKERS as f64 * wall_s - busy_s;
            layers.par_efficiency = busy_s / (WORKERS as f64 * wall_s);
            layers.op_unattributed_share = 1.0 - layers.par_efficiency;
        }
        phase
    }
}
