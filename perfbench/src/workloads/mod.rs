//! The four workloads. Each builds its inputs from the run's seed and
//! checks every output after the op's timer stops.

pub mod analog_mc;
pub mod batch_solve;
pub mod cold_prepare;
pub mod serve_zipf;

use std::sync::Arc;
use std::time::{Duration, Instant};

use amc_linalg::Matrix;
use blockamc::engine::AmcEngine;
use blockamc::solver::BlockAmcSolver;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::layers::Layers;
use crate::timed::{EngineTotals, Probe};
use crate::{flops, totals};

/// Relative-residual tolerance `‖A·x − b‖ / ‖b‖` of the digital
/// workloads.
pub const RESIDUAL_TOL: f64 = 1e-9;

/// The seeded input stream of one workload: the run seed mixed with a
/// per-workload tag, so workloads never share a stream.
pub fn input_rng(seed: u64, tag: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Median wall time of three plain single-threaded LU factor + solve
/// runs (`amc_linalg::lu::solve`) of `a` — the baseline that
/// `prepare.vs_lu` divides by.
pub fn lu_baseline_s(a: &Matrix, b: &[f64]) -> f64 {
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            let x = amc_linalg::lu::solve(a, b).expect("baseline matrices are nonsingular");
            let elapsed = started.elapsed().as_secs_f64();
            std::hint::black_box(x);
            elapsed
        })
        .collect();
    crate::report::median(&runs)
}

/// Wall time and engine work of the two halves — `prepare`, then one
/// `solve` — of the ops of `cold_prepare` and `analog_mc`.
#[derive(Debug, Default)]
pub struct PrepareSolve {
    prepare: Duration,
    solve: Duration,
    in_prepare: EngineTotals,
    in_solve: EngineTotals,
}

impl PrepareSolve {
    /// Runs one op: `prepare(a)`, then `solve(b)`, timing each half.
    /// Returns the solution and the op's latency, seconds.
    pub fn run(
        &mut self,
        solver: &mut BlockAmcSolver<Box<dyn AmcEngine>>,
        a: &Matrix,
        b: &[f64],
        probe: &Option<Arc<Probe>>,
    ) -> (blockamc::Result<Vec<f64>>, f64) {
        let e0 = totals(probe);
        let t0 = Instant::now();
        let (solved, t1, e1) = match solver.prepare(a) {
            Ok(mut prepared) => {
                let (t1, e1) = (Instant::now(), totals(probe));
                (prepared.solve(b).map(|r| r.x), t1, e1)
            }
            Err(e) => (Err(e), Instant::now(), totals(probe)),
        };
        let t2 = Instant::now();
        self.prepare += t1 - t0;
        self.solve += t2 - t1;
        self.in_prepare = self.in_prepare + (e1 - e0);
        self.in_solve = self.in_solve + (totals(probe) - e1);
        (solved, (t2 - t0).as_secs_f64())
    }

    /// Sets the engine, prepare and cascade metrics of `ops` ops on an
    /// `n × n` system at partition depth `depth`; `lu_s` is the
    /// plain-LU baseline. The op is exactly the two timed calls, so
    /// `op.unattributed_share` stays 0.
    pub fn set_layers(&self, layers: &mut Layers, ops: f64, lu_s: f64, n: usize, depth: usize) {
        layers.set_engine(self.in_prepare + self.in_solve, ops);
        layers.set_prepare(
            self.prepare.as_secs_f64() / ops,
            self.in_prepare.program.busy_s / ops,
            lu_s,
            flops::prepare(n, depth),
        );
        layers.set_cascade(
            self.solve.as_secs_f64() / ops,
            self.in_solve.analog_ops_s() / ops,
            flops::cascade(n, depth),
        );
    }
}
